"""Compile FOL formulas to SMT-LIB v2 scripts.

Implements the paper's custom compiler: it "extracts all predicates and
constants from the formula, generates proper declarations, handles variable
scoping in quantified expressions, and asserts the negation of the
implication for checking logical validity".  Every name goes through
:func:`~repro.smtlib.ast.symbol_text`, so one that is no simple symbol
is written in bars.
"""

from __future__ import annotations

from repro.errors import SMTLibError
from repro.fol.formula import (
    And,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    TrueFormula,
)
from repro.fol.terms import Application, Constant, Term, Variable
from repro.fol.visitor import Signature
from repro.smtlib.ast import symbol_text
from repro.smtlib.script import (
    Assert,
    CheckSat,
    DeclareConst,
    DeclareFun,
    DeclareSort,
    Push,
    SetLogic,
    SMTScript,
)


def _term_text(term: Term) -> str:
    if isinstance(term, (Variable, Constant)):
        return symbol_text(term.name)
    if isinstance(term, Application):
        name = symbol_text(term.symbol.name)
        return "(" + " ".join([name, *map(_term_text, term.args)]) + ")"
    raise SMTLibError(f"cannot compile term {term!r}")


def _binding(variable: Variable) -> str:
    return f"({symbol_text(variable.name)} {symbol_text(variable.sort.name)})"


def compile_formula(formula: Formula) -> str:
    """The SMT-LIB text of one formula, as an assertion body.

    The text is written directly, with no s-expression lists in between.
    A string is an atom to :func:`~repro.smtlib.ast.sexpr_to_text`, which
    writes it verbatim, so the text stands wherever an s-expression is
    rendered (``Assert(compile_formula(f))``).
    """
    if isinstance(formula, Predicate):
        name = symbol_text(formula.symbol.name)
        if not formula.args:
            return name
        return "(" + " ".join([name, *map(_term_text, formula.args)]) + ")"
    if isinstance(formula, And):
        if not formula.operands:
            return "true"
        return "(and " + " ".join(map(compile_formula, formula.operands)) + ")"
    if isinstance(formula, Or):
        if not formula.operands:
            return "false"
        return "(or " + " ".join(map(compile_formula, formula.operands)) + ")"
    if isinstance(formula, Not):
        return f"(not {compile_formula(formula.operand)})"
    if isinstance(formula, Implies):
        antecedent = compile_formula(formula.antecedent)
        return f"(=> {antecedent} {compile_formula(formula.consequent)})"
    if isinstance(formula, (Forall, Exists)):
        keyword = "forall" if isinstance(formula, Forall) else "exists"
        # Merge consecutive same-kind quantifiers into one binder block.
        bindings = [_binding(formula.variable)]
        body = formula.body
        while isinstance(body, type(formula)):
            bindings.append(_binding(body.variable))
            body = body.body
        return f"({keyword} ({' '.join(bindings)}) {compile_formula(body)})"
    if isinstance(formula, Iff):
        return f"(= {compile_formula(formula.left)} {compile_formula(formula.right)})"
    if isinstance(formula, TrueFormula):
        return "true"
    if isinstance(formula, FalseFormula):
        return "false"
    raise SMTLibError(f"cannot compile formula {formula!r}")


def _declare_fun(name: str, arg_sorts, result: str) -> DeclareFun:
    return DeclareFun(
        symbol_text(name),
        tuple(symbol_text(sort.name) for sort in arg_sorts),
        symbol_text(result),
    )


def _declarations(
    formulas: list[Formula], script: SMTScript
) -> None:
    """Emit sort, constant, predicate, and function declarations."""
    signature = Signature.of(formulas)
    for name in sorted(signature.sorts):
        if name != "Bool":
            script.add(DeclareSort(symbol_text(name)))
    for name in sorted(signature.constants):
        const = signature.constants[name]
        script.add(DeclareConst(symbol_text(const.name), symbol_text(const.sort.name)))
    for name in sorted(signature.functions):
        fn = signature.functions[name]
        script.add(_declare_fun(fn.name, fn.arg_sorts, fn.result_sort.name))
    for name in sorted(signature.predicates):
        sym = signature.predicates[name]
        if sym.name == "=":
            continue  # builtin
        comment = None
        if sym.uninterpreted:
            comment = f"uninterpreted (vague term): {sym.source_text or sym.name}"
        script.add(_declare_fun(sym.name, sym.arg_sorts, "Bool"), comment=comment)


def compile_validity_script(
    policy_formulas: list[Formula], query: Formula, *, logic: str = "UF"
) -> SMTScript:
    """Script checking whether the policy entails the query.

    Asserts every policy formula plus the *negation* of the query; an
    ``unsat`` answer means the query follows from the policy (VALID in the
    paper's terminology), ``sat`` means it does not necessarily follow.
    The negated query sits in its own ``push`` scope, so a solver that ran
    the script can ``pop`` it and ask about the policy alone.
    """
    script = SMTScript()
    script.add(SetLogic(logic))
    _declarations(policy_formulas + [query], script)
    for i, formula in enumerate(policy_formulas):
        script.add(Assert(compile_formula(formula)), comment=f"policy fact {i + 1}")
    script.add(Push(1))
    script.add(
        Assert(f"(not {compile_formula(query)})"),
        comment="negated query: unsat <=> query follows from policy",
    )
    script.add(CheckSat())
    return script

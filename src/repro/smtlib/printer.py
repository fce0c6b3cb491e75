"""Compile FOL formulas to SMT-LIB v2 scripts.

Implements the paper's custom compiler: it "extracts all predicates and
constants from the formula, generates proper declarations, handles variable
scoping in quantified expressions, and asserts the negation of the
implication for checking logical validity".
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
    PredicateSymbol,
    TrueFormula,
)
from repro.fol.terms import Application, Constant, FunctionSymbol, Sort, Term, Variable
from repro.fol.visitor import collect_constants, collect_predicates, subformulas
from repro.smtlib.ast import SExpr
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


def _term_to_sexpr(term: Term) -> SExpr:
    if isinstance(term, (Variable, Constant)):
        return term.name
    if isinstance(term, Application):
        return [term.symbol.name, *(_term_to_sexpr(a) for a in term.args)]
    raise SMTLibError(f"cannot compile term {term!r}")


def compile_formula(formula: Formula) -> SExpr:
    """Translate one formula into an SMT-LIB body expression."""
    if isinstance(formula, TrueFormula):
        return "true"
    if isinstance(formula, FalseFormula):
        return "false"
    if isinstance(formula, Predicate):
        if not formula.args:
            return formula.symbol.name
        return [formula.symbol.name, *(_term_to_sexpr(a) for a in formula.args)]
    if isinstance(formula, Not):
        return ["not", compile_formula(formula.operand)]
    if isinstance(formula, And):
        if not formula.operands:
            return "true"
        return ["and", *(compile_formula(op) for op in formula.operands)]
    if isinstance(formula, Or):
        if not formula.operands:
            return "false"
        return ["or", *(compile_formula(op) for op in formula.operands)]
    if isinstance(formula, Implies):
        return [
            "=>",
            compile_formula(formula.antecedent),
            compile_formula(formula.consequent),
        ]
    if isinstance(formula, Iff):
        return ["=", compile_formula(formula.left), compile_formula(formula.right)]
    if isinstance(formula, (Forall, Exists)):
        keyword = "forall" if isinstance(formula, Forall) else "exists"
        # Merge consecutive same-kind quantifiers into one binder block.
        bindings = [[formula.variable.name, formula.variable.sort.name]]
        body = formula.body
        while isinstance(body, type(formula)):
            bindings.append([body.variable.name, body.variable.sort.name])
            body = body.body
        return [keyword, bindings, compile_formula(body)]
    raise SMTLibError(f"cannot compile formula {formula!r}")


def _collect_functions(formula: Formula) -> set[FunctionSymbol]:
    found: set[FunctionSymbol] = set()

    def scan_term(term: Term) -> None:
        if isinstance(term, Application):
            found.add(term.symbol)
            for arg in term.args:
                scan_term(arg)

    for sub in subformulas(formula):
        if isinstance(sub, Predicate):
            for arg in sub.args:
                scan_term(arg)
    return found


def _declarations(
    formulas: list[Formula], script: SMTScript
) -> None:
    """Emit sort, constant, predicate, and function declarations."""
    sorts: dict[str, Sort] = {}
    constants: dict[str, Constant] = {}
    predicates: dict[str, PredicateSymbol] = {}
    functions: dict[str, FunctionSymbol] = {}
    for formula in formulas:
        for const in collect_constants(formula):
            constants[const.name] = const
            sorts[const.sort.name] = const.sort
        for sym in collect_predicates(formula):
            predicates[sym.name] = sym
            for sort in sym.arg_sorts:
                sorts[sort.name] = sort
        for fn in _collect_functions(formula):
            functions[fn.name] = fn
            sorts[fn.result_sort.name] = fn.result_sort
            for sort in fn.arg_sorts:
                sorts[sort.name] = sort
        for sub in subformulas(formula):
            if isinstance(sub, (Forall, Exists)):
                sorts[sub.variable.sort.name] = sub.variable.sort

    for name in sorted(sorts):
        if name != "Bool":
            script.add(DeclareSort(name))
    for name in sorted(constants):
        const = constants[name]
        script.add(DeclareConst(const.name, const.sort.name))
    for name in sorted(functions):
        fn = functions[name]
        script.add(
            DeclareFun(fn.name, tuple(s.name for s in fn.arg_sorts), fn.result_sort.name)
        )
    for name in sorted(predicates):
        sym = predicates[name]
        if sym.name == "=":
            continue  # builtin
        comment = None
        if sym.uninterpreted:
            comment = f"uninterpreted (vague term): {sym.source_text or sym.name}"
        script.add(
            DeclareFun(sym.name, tuple(s.name for s in sym.arg_sorts), "Bool"),
            comment=comment,
        )


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
        Assert(["not", compile_formula(query)]),
        comment="negated query: unsat <=> query follows from policy",
    )
    script.add(CheckSat())
    return script

"""Parse SMT-LIB v2 text and execute it against the bundled solver.

The parser covers the fragment the printer emits (plus ``push``/``pop`` and
``check-sat-assuming``), which is also the fragment CVC5 would receive in
the paper's pipeline.  ``execute_script`` is the glue that makes the whole
verification path round-trip through the textual format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SMTLibParseError
from repro.fol.formula import (
    FALSE,
    TRUE,
    And,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    PredicateSymbol,
)
from repro.fol.terms import Application, Constant, FunctionSymbol, Sort, Term, Variable
from repro.smtlib.ast import SExpr, line_at, parse_sexprs, sexpr_to_text
from repro.smtlib.script import (
    Assert,
    CheckSat,
    CheckSatAssuming,
    Command,
    DeclareConst,
    DeclareFun,
    DeclareSort,
    GetModel,
    GetValue,
    Pop,
    Push,
    SetLogic,
    SMTScript,
)
from repro.solver.interface import Solver, SolverBudget
from repro.solver.result import SolverResult

_BOOL = Sort("Bool")


#: Each command's arguments, as (how many at least, their kinds: ``s`` a
#: symbol, ``n`` a numeral, ``l`` a list, ``t`` any term), and its builder.
_COMMANDS = {
    "set-logic": (1, "s", SetLogic),
    "declare-sort": (1, "sn", lambda name, arity=None: DeclareSort(name)),
    "declare-const": (2, "ss", DeclareConst),
    "declare-fun": (
        3,
        "sls",
        lambda name, sorts, result: DeclareFun(name, tuple(map(str, sorts)), result),
    ),
    "assert": (1, "t", Assert),
    "check-sat": (0, "", CheckSat),
    "check-sat-assuming": (1, "l", lambda lits: CheckSatAssuming(tuple(lits))),
    "push": (0, "n", lambda levels="1": Push(int(levels))),
    "pop": (0, "n", lambda levels="1": Pop(int(levels))),
    "get-model": (0, "", GetModel),
    "get-value": (1, "l", lambda terms: GetValue(tuple(terms))),
}

#: Harmless commands accepted and ignored, whatever their arguments.
_IGNORED = frozenset({"exit", "set-option", "set-info"})


def _fits(kind: str, arg: SExpr) -> bool:
    if kind == "l":
        return isinstance(arg, list)
    if kind == "n":
        return isinstance(arg, str) and arg.isascii() and arg.isdigit()
    return kind == "t" or isinstance(arg, str)


def _command(expr: SExpr) -> Command | None:
    """The typed command ``expr`` spells (None for an ignored one)."""
    if not isinstance(expr, list) or not expr:
        raise SMTLibParseError(f"expected a command, got {expr!r}")
    head = expr[0] if isinstance(expr[0], str) else None
    if head in _IGNORED:
        return None
    if head not in _COMMANDS:
        raise SMTLibParseError(f"unsupported command {expr[0]!r}")
    least, kinds, build = _COMMANDS[head]
    args = expr[1:]
    if not least <= len(args) <= len(kinds) or not all(map(_fits, kinds, args)):
        raise SMTLibParseError(f"malformed command {sexpr_to_text(expr)}")
    return build(*args)


def parse_script(text: str) -> SMTScript:
    """Parse SMT-LIB text into a typed :class:`SMTScript`.

    A malformed command raises :class:`SMTLibParseError` naming the line
    it starts on.
    """
    script = SMTScript()
    starts: list[int] = []
    exprs = parse_sexprs(text, starts)
    for expr, start in zip(exprs, starts):
        try:
            command = _command(expr)
        except SMTLibParseError as exc:
            raise SMTLibParseError(str(exc), line_at(text, start)) from None
        if command is not None:
            script.add(command)
    return script


@dataclass(slots=True)
class _Environment:
    """Declarations in scope while interpreting assertion bodies."""

    sorts: dict[str, Sort] = field(default_factory=dict)
    constants: dict[str, Constant] = field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    predicates: dict[str, PredicateSymbol] = field(default_factory=dict)

    def sort(self, name: str) -> Sort:
        if name == "Bool":
            return _BOOL
        if name not in self.sorts:
            self.sorts[name] = Sort(name)
        return self.sorts[name]


def _is_term_head(name: str, env: _Environment, bound: dict[str, Variable]) -> bool:
    return name in bound or name in env.constants or name in env.functions


def _to_term(expr: SExpr, env: _Environment, bound: dict[str, Variable]) -> Term:
    if isinstance(expr, str):
        if expr in bound:
            return bound[expr]
        if expr in env.constants:
            return env.constants[expr]
        raise SMTLibParseError(f"unknown term symbol {expr!r}")
    head = str(expr[0])
    if head in env.functions:
        fn = env.functions[head]
        args = tuple(_to_term(a, env, bound) for a in expr[1:])
        return Application(fn, args)
    raise SMTLibParseError(f"unknown function {head!r}")


def _to_formula(
    expr: SExpr, env: _Environment, bound: dict[str, Variable]
) -> Formula:
    if isinstance(expr, str):
        if expr == "true":
            return TRUE
        if expr == "false":
            return FALSE
        if expr in env.predicates:
            return env.predicates[expr]()
        raise SMTLibParseError(f"unknown proposition {expr!r}")
    if not expr:
        raise SMTLibParseError("empty expression")
    head = str(expr[0])
    if head == "not":
        return Not(_to_formula(expr[1], env, bound))
    if head == "and":
        return And(tuple(_to_formula(e, env, bound) for e in expr[1:]))
    if head == "or":
        return Or(tuple(_to_formula(e, env, bound) for e in expr[1:]))
    if head == "=>":
        parts = [_to_formula(e, env, bound) for e in expr[1:]]
        result = parts[-1]
        for ante in reversed(parts[:-1]):
            result = Implies(ante, result)
        return result
    if head == "=":
        left, right = expr[1], expr[2]
        left_is_term = isinstance(left, str) and _is_term_head(left, env, bound) or (
            isinstance(left, list) and str(left[0]) in env.functions
        )
        if left_is_term:
            lterm = _to_term(left, env, bound)
            rterm = _to_term(right, env, bound)
            eq = PredicateSymbol("=", (lterm.sort, rterm.sort))
            return eq(lterm, rterm)
        return Iff(_to_formula(left, env, bound), _to_formula(right, env, bound))
    if head in {"forall", "exists"}:
        binders = expr[1]
        if not isinstance(binders, list):
            raise SMTLibParseError("quantifier binders must be a list")
        new_bound = dict(bound)
        variables = []
        for binder in binders:
            name, sort_name = str(binder[0]), str(binder[1])
            var = Variable(name, env.sort(sort_name))
            new_bound[name] = var
            variables.append(var)
        body = _to_formula(expr[2], env, new_bound)
        cls = Forall if head == "forall" else Exists
        for var in reversed(variables):
            body = cls(var, body)
        return body
    if head in env.predicates:
        sym = env.predicates[head]
        args = tuple(_to_term(a, env, bound) for a in expr[1:])
        return sym(*args)
    raise SMTLibParseError(f"unknown formula head {head!r}")


def execute_script(
    script: str,
    *,
    budget: SolverBudget | None = None,
    certify: bool = False,
    solver: Solver | None = None,
) -> list[SolverResult]:
    """Run script text against the bundled solver; one result per check command.

    ``solver`` runs the script on a caller-built :class:`Solver` instead
    of a fresh one (its own budget and ``certify`` apply), and leaves
    it loaded, so the caller can ask follow-up questions of the same
    assertions without grounding them again.
    """
    results, _outputs = execute_script_verbose(
        script, budget=budget, certify=certify, solver=solver
    )
    return results


def execute_script_verbose(
    script: str,
    *,
    budget: SolverBudget | None = None,
    certify: bool = False,
    solver: Solver | None = None,
) -> tuple[list[SolverResult], list[str]]:
    """Like :func:`execute_script`, also returning get-model/get-value output.

    Each ``get-model`` contributes one output line per named atom of the
    last SAT answer, in SMT-LIB ``define-fun`` style; ``get-value``
    contributes one ``(term value)`` line per requested term.

    ``certify`` arms the solver's trust-but-verify layer: every check
    answer is independently re-validated, and a failed certificate comes
    back as UNKNOWN with a :class:`CertificateReport` attached.
    ``solver`` is as for :func:`execute_script`; it excludes ``budget``
    and ``certify``.
    """
    if solver is None:
        solver = Solver(budget=budget, certify=certify)
    elif budget is not None or certify:
        raise ValueError("pass budget and certify or a solver, not both")
    script = parse_script(script)
    env = _Environment()
    results: list[SolverResult] = []
    outputs: list[str] = []
    for command in script.commands:
        if isinstance(command, SetLogic):
            continue
        if isinstance(command, DeclareSort):
            env.sort(command.name)
        elif isinstance(command, DeclareConst):
            const = Constant(command.name, env.sort(command.sort))
            env.constants[command.name] = const
            solver.declare_constant(const)
        elif isinstance(command, DeclareFun):
            arg_sorts = tuple(env.sort(s) for s in command.arg_sorts)
            if command.result_sort == "Bool":
                env.predicates[command.name] = PredicateSymbol(
                    command.name, arg_sorts, uninterpreted=not arg_sorts
                )
            else:
                env.functions[command.name] = FunctionSymbol(
                    command.name, arg_sorts, env.sort(command.result_sort)
                )
        elif isinstance(command, Assert):
            solver.assert_formula(_to_formula(command.body, env, {}))
        elif isinstance(command, CheckSat):
            results.append(solver.check_sat())
        elif isinstance(command, CheckSatAssuming):
            assumptions = [_to_formula(lit, env, {}) for lit in command.literals]
            results.append(solver.check_sat_assuming(assumptions))
        elif isinstance(command, Push):
            for _ in range(command.levels):
                solver.push()
        elif isinstance(command, Pop):
            for _ in range(command.levels):
                solver.pop()
        elif isinstance(command, GetModel):
            if not results or not results[-1].is_sat:
                outputs.append("(error \"no model available\")")
            else:
                for key, value in sorted(results[-1].model.items()):
                    outputs.append(
                        f"(define-fun {key} () Bool {'true' if value else 'false'})"
                    )
        elif isinstance(command, GetValue):
            if not results or not results[-1].is_sat:
                outputs.append("(error \"no model available\")")
            else:
                from repro.solver.cnf import atom_key

                model = results[-1].model
                for term in command.terms:
                    formula = _to_formula(term, env, {})
                    if isinstance(formula, Predicate):
                        key = atom_key(formula)
                        value = model.get(key, False)
                        outputs.append(
                            f"({sexpr_to_text(term)} {'true' if value else 'false'})"
                        )
                    else:
                        outputs.append(f"({sexpr_to_text(term)} unknown)")
    return results, outputs

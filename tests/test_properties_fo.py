"""Property tests for the quantified solver path.

Random first-order formulas over a tiny fixed universe are checked two
ways: by the full solver stack (grounding → Tseitin → CDCL) and by an
independent brute-force model checker that enumerates every interpretation
of the predicates over the universe and evaluates the *original* quantified
formula recursively.  Both must agree on satisfiability; when SAT, the
solver's model must satisfy the formula under the oracle's semantics.

The SMT-LIB round trip is covered too: serializing each formula to text,
parsing it back, and solving must give the same verdict.  The printer is
held to its earlier form, kept here as a reference: declarations collected
by four walks per formula and bodies built as nested lists before being
joined must print the same bytes as the one-walk, text-writing printer.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fol.formula import (
    FALSE,
    TRUE,
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
from repro.fol.terms import Application, Constant, FunctionSymbol, Sort, Variable
from repro.fol.visitor import collect_constants, collect_predicates, subformulas
from repro.smtlib import SExpr, compile_validity_script, execute_script
from repro.smtlib.printer import compile_formula
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
from repro.smtlib.printer import _declarations
from repro.solver import SatResult, Solver

S = Sort("S")
CONSTANTS = (Constant("a", S), Constant("b", S))
P = PredicateSymbol("p", (S,))
R = PredicateSymbol("r", (S, S))
VARIABLES = (Variable("x", S), Variable("y", S))


def _random_formula(rng: random.Random, bound: list[Variable], depth: int) -> Formula:
    choices = ["atom"]
    if depth < 3:
        choices += ["not", "and", "or", "implies", "forall", "exists"]
    kind = rng.choice(choices)
    if kind == "atom":
        def term():
            pool = list(CONSTANTS) + bound
            return rng.choice(pool)

        if rng.random() < 0.5:
            return P(term())
        return R(term(), term())
    if kind == "not":
        return Not(_random_formula(rng, bound, depth + 1))
    if kind in ("and", "or"):
        a = _random_formula(rng, bound, depth + 1)
        b = _random_formula(rng, bound, depth + 1)
        return And((a, b)) if kind == "and" else Or((a, b))
    if kind == "implies":
        return Implies(
            _random_formula(rng, bound, depth + 1),
            _random_formula(rng, bound, depth + 1),
        )
    var = VARIABLES[len(bound) % len(VARIABLES)]
    if var in bound:
        var = Variable(var.name + "_", S)
    body = _random_formula(rng, bound + [var], depth + 1)
    return Forall(var, body) if kind == "forall" else Exists(var, body)


Interpretation = tuple[dict[str, bool], dict[tuple[str, str], bool]]


def _interpretations():
    names = [c.name for c in CONSTANTS]
    unary_keys = names
    binary_keys = list(itertools.product(names, names))
    for unary_bits in itertools.product([False, True], repeat=len(unary_keys)):
        unary = dict(zip(unary_keys, unary_bits))
        for binary_bits in itertools.product([False, True], repeat=len(binary_keys)):
            binary = dict(zip(binary_keys, binary_bits))
            yield unary, binary


def _evaluate(formula: Formula, interp: Interpretation, env: dict[str, str]) -> bool:
    unary, binary = interp

    def term_value(term) -> str:
        if isinstance(term, Constant):
            return term.name
        return env[term.name]

    if isinstance(formula, Predicate):
        if formula.symbol.name == "p":
            return unary[term_value(formula.args[0])]
        return binary[(term_value(formula.args[0]), term_value(formula.args[1]))]
    if isinstance(formula, Not):
        return not _evaluate(formula.operand, interp, env)
    if isinstance(formula, And):
        return all(_evaluate(op, interp, env) for op in formula.operands)
    if isinstance(formula, Or):
        return any(_evaluate(op, interp, env) for op in formula.operands)
    if isinstance(formula, Implies):
        return (not _evaluate(formula.antecedent, interp, env)) or _evaluate(
            formula.consequent, interp, env
        )
    if isinstance(formula, Forall):
        return all(
            _evaluate(formula.body, interp, {**env, formula.variable.name: c.name})
            for c in CONSTANTS
        )
    if isinstance(formula, Exists):
        return any(
            _evaluate(formula.body, interp, {**env, formula.variable.name: c.name})
            for c in CONSTANTS
        )
    raise TypeError(formula)


def _oracle_sat(formula: Formula) -> bool:
    return any(_evaluate(formula, interp, {}) for interp in _interpretations())


def _solver_verdict(formula: Formula) -> SatResult:
    solver = Solver()
    for const in CONSTANTS:
        solver.declare_constant(const)
    solver.assert_formula(formula)
    return solver.check_sat().status


class TestQuantifiedSolverAgainstOracle:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, deadline=None)
    def test_satisfiability_agrees(self, seed):
        formula = _random_formula(random.Random(seed), [], 0)
        expected = _oracle_sat(formula)
        got = _solver_verdict(formula)
        assert got is (SatResult.SAT if expected else SatResult.UNSAT)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, deadline=None)
    def test_model_satisfies_formula(self, seed):
        formula = _random_formula(random.Random(seed), [], 0)
        solver = Solver()
        for const in CONSTANTS:
            solver.declare_constant(const)
        solver.assert_formula(formula)
        result = solver.check_sat()
        if not result.is_sat:
            return
        unary = {c.name: result.model.get(f"p({c.name})", False) for c in CONSTANTS}
        binary = {
            (c.name, d.name): result.model.get(f"r({c.name},{d.name})", False)
            for c in CONSTANTS
            for d in CONSTANTS
        }
        assert _evaluate(formula, (unary, binary), {})

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_smtlib_round_trip_agrees(self, seed):
        formula = _random_formula(random.Random(seed), [], 0)
        script = SMTScript()
        script.add(SetLogic("UF"))
        _declarations([formula], script)
        # The oracle's universe has exactly a and b; make sure both are
        # declared even when the formula mentions only one.
        declared = {
            c.name
            for c in script.commands
            if c.__class__.__name__ == "DeclareConst"
        }
        from repro.smtlib.script import DeclareConst, DeclareSort

        if not any(c.__class__.__name__ == "DeclareSort" for c in script.commands):
            script.add(DeclareSort("S"))
        for const in CONSTANTS:
            if const.name not in declared:
                script.add(DeclareConst(const.name, "S"))
        script.add(Assert(compile_formula(formula)))
        script.add(CheckSat())
        results = execute_script(script.to_text())
        assert results[0].status is _solver_verdict(formula)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_entailment_script_matches_oracle(self, seed):
        rng = random.Random(seed)
        policy = _random_formula(rng, [], 1)
        query = _random_formula(rng, [], 1)
        script = compile_validity_script([policy], query)
        # Ensure both constants exist in the executed universe.
        from repro.smtlib.script import DeclareConst

        text_lines = script.to_text().splitlines()
        for const in CONSTANTS:
            decl = f"(declare-const {const.name} S)"
            if decl not in text_lines:
                index = next(
                    i for i, line in enumerate(text_lines) if line.startswith("(assert")
                )
                text_lines.insert(index, decl)
        results = execute_script("\n".join(text_lines))
        entailed_oracle = all(
            not _evaluate(policy, interp, {}) or _evaluate(query, interp, {})
            for interp in _interpretations()
        )
        assert results[0].is_unsat == entailed_oracle


# ----------------------------------------------------------------------
# The printer against its earlier four-walk, s-expression form
# ----------------------------------------------------------------------

T = Sort("T")
U = Sort("U")
T_CONSTANT = Constant("t1", T)
F = FunctionSymbol("f", (S,), S)
G = FunctionSymbol("g", (S, T), S)
H = FunctionSymbol("h", (), T)
EQ = PredicateSymbol("=", (S, S))
Q = PredicateSymbol("q", (T, S))
VAGUE = tuple(
    PredicateSymbol(f"vague_{i}", (), uninterpreted=True, source_text=text)
    for i, text in enumerate(("legitimate interests", "", "as required by law"))
)


def _enrich(formula: Formula, rng: random.Random) -> Formula:
    """``formula`` with applications, equality, more sorts and vague terms."""
    if isinstance(formula, Predicate):
        args = list(formula.args)
        roll = rng.random()
        if roll < 0.2:
            args[0] = F(args[0])
        elif roll < 0.35:
            args[0] = G(F(args[0]), rng.choice((T_CONSTANT, H())))
        atom: Formula = Predicate(formula.symbol, tuple(args))
        roll = rng.random()
        if roll < 0.15 and len(args) == 2:
            atom = EQ(*args)
        elif roll < 0.3:
            atom = Q(rng.choice((T_CONSTANT, H())), args[0])
        if rng.random() < 0.25:
            atom = Implies(rng.choice(VAGUE)(), atom)
        return atom
    if isinstance(formula, Not):
        return Not(_enrich(formula.operand, rng))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(_enrich(op, rng) for op in formula.operands))
    if isinstance(formula, Implies):
        if rng.random() < 0.2:
            return Iff(_enrich(formula.antecedent, rng), _enrich(formula.consequent, rng))
        return Implies(_enrich(formula.antecedent, rng), _enrich(formula.consequent, rng))
    body = _enrich(formula.body, rng)
    if rng.random() < 0.2:
        # A sort no symbol mentions, declared only for its bound variable.
        body = type(formula)(Variable("z", U), body)
    return type(formula)(formula.variable, body)


def _reference_term(term) -> SExpr:
    if isinstance(term, (Variable, Constant)):
        return term.name
    return [term.symbol.name, *(_reference_term(a) for a in term.args)]


def _reference_formula(formula: Formula) -> SExpr:
    """The printer's earlier body builder: nested lists, joined afterwards."""
    if isinstance(formula, TrueFormula):
        return "true"
    if isinstance(formula, FalseFormula):
        return "false"
    if isinstance(formula, Predicate):
        if not formula.args:
            return formula.symbol.name
        return [formula.symbol.name, *(_reference_term(a) for a in formula.args)]
    if isinstance(formula, Not):
        return ["not", _reference_formula(formula.operand)]
    if isinstance(formula, And):
        if not formula.operands:
            return "true"
        return ["and", *(_reference_formula(op) for op in formula.operands)]
    if isinstance(formula, Or):
        if not formula.operands:
            return "false"
        return ["or", *(_reference_formula(op) for op in formula.operands)]
    if isinstance(formula, Implies):
        return [
            "=>",
            _reference_formula(formula.antecedent),
            _reference_formula(formula.consequent),
        ]
    if isinstance(formula, Iff):
        return ["=", _reference_formula(formula.left), _reference_formula(formula.right)]
    keyword = "forall" if isinstance(formula, Forall) else "exists"
    bindings = [[formula.variable.name, formula.variable.sort.name]]
    body = formula.body
    while isinstance(body, type(formula)):
        bindings.append([body.variable.name, body.variable.sort.name])
        body = body.body
    return [keyword, bindings, _reference_formula(body)]


def _reference_functions(formula: Formula) -> set[FunctionSymbol]:
    found: set[FunctionSymbol] = set()

    def scan_term(term) -> None:
        if isinstance(term, Application):
            found.add(term.symbol)
            for arg in term.args:
                scan_term(arg)

    for sub in subformulas(formula):
        if isinstance(sub, Predicate):
            for arg in sub.args:
                scan_term(arg)
    return found


def _reference_declarations(formulas: list[Formula], script: SMTScript) -> None:
    """The printer's earlier declarations: four walks over each formula."""
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
        for fn in _reference_functions(formula):
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
        script.add(DeclareConst(name, constants[name].sort.name))
    for name in sorted(functions):
        fn = functions[name]
        script.add(
            DeclareFun(fn.name, tuple(s.name for s in fn.arg_sorts), fn.result_sort.name)
        )
    for name in sorted(predicates):
        sym = predicates[name]
        if sym.name == "=":
            continue
        comment = None
        if sym.uninterpreted:
            comment = f"uninterpreted (vague term): {sym.source_text or sym.name}"
        script.add(
            DeclareFun(sym.name, tuple(s.name for s in sym.arg_sorts), "Bool"),
            comment=comment,
        )


def _reference_validity_text(policy: list[Formula], query: Formula) -> str:
    script = SMTScript()
    script.add(SetLogic("UF"))
    _reference_declarations(policy + [query], script)
    for i, formula in enumerate(policy):
        script.add(Assert(_reference_formula(formula)), comment=f"policy fact {i + 1}")
    script.add(Push(1))
    script.add(
        Assert(["not", _reference_formula(query)]),
        comment="negated query: unsat <=> query follows from policy",
    )
    script.add(CheckSat())
    return script.to_text()


class TestPrinterAgainstReference:
    """One walk per formula and bodies written as text print the same bytes."""

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, deadline=None)
    def test_declarations_print_the_same_lines(self, seed):
        rng = random.Random(seed)
        formulas = [
            _enrich(_random_formula(rng, [], 0), rng) for _ in range(rng.randint(1, 4))
        ]
        got, expected = SMTScript(), SMTScript()
        _declarations(formulas, got)
        _reference_declarations(formulas, expected)
        assert got.to_text() == expected.to_text()

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, deadline=None)
    def test_validity_script_prints_the_same_bytes(self, seed):
        rng = random.Random(seed)
        policy = [
            _enrich(_random_formula(rng, [], 1), rng) for _ in range(rng.randint(0, 3))
        ]
        policy += [And(()), Or(()), TRUE, FALSE][: rng.randint(0, 4)]
        query = _enrich(_random_formula(rng, [], 1), rng)
        text = compile_validity_script(policy, query).to_text()
        assert text == _reference_validity_text(policy, query)

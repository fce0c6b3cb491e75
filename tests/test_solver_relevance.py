"""Inheritance axioms grounded over the entities that can use them.

The grounder instantiates ``forall x. a(x, p) -> a(x, c)`` only at the
entities that occur as ``a``'s first argument at positive polarity in some
other assertion (``E_a``, DESIGN §8).  These tests hold that restriction to
the eager Herbrand expansion it replaces:

- on random encoder-shaped assertion sets (facts, guarded and Or-guarded
  permits, plain and guarded denials, inheritance axioms, ground, ``∃`` and
  receiver queries, ``Iff`` and non-Horn formulas), the solver's status
  equals the CDCL status over eager ``ground(f, universe)`` clauses, and
  every certificate passes, seeded decision phases included;
- an assertion or assumption that adds a sender after a check re-grounds;
- the certifier catches a grounding that skips an entity ``E_a`` requires,
  even when the verdict it leads to is right.

Marked ``fuzz`` with the other differential suites.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fol.formula import (
    And,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSymbol,
)
from repro.fol.simplify import simplify
from repro.fol.terms import Constant, Sort, Variable
from repro.fol.visitor import collect_constants
from repro.solver import CERTIFICATION_FAILED, SatResult, Solver
from repro.solver import SolverBudget, faults
from repro.solver.cnf import atom_key, tseitin
from repro.solver.grounding import Senders, Universe, ground
from repro.solver.literals import AtomPool
from repro.solver.sat import CDCLSolver

pytestmark = pytest.mark.fuzz

ENTITY = Sort("Entity")
DATA = Sort("Data")
ENTITIES = tuple(Constant(f"e{i}", ENTITY) for i in range(4))
DATAS = tuple(Constant(f"d{i}", DATA) for i in range(4))
ACTIONS = tuple(
    PredicateSymbol(name, (ENTITY, DATA)) for name in ("a_collect", "a_share")
)
RECEIVE = PredicateSymbol("a_receive", (ENTITY, DATA))
GUARDS = tuple(PredicateSymbol(f"g{i}", ())() for i in range(3))
X = Variable("x", ENTITY)
Q = Variable("q", ENTITY)


def axiom(action, parent, child):
    return Forall(X, Implies(action(X, parent), action(X, child)))


def eager_status(formulas, assumptions=()) -> SatResult:
    """CDCL over the full Herbrand expansion: the reference answer."""
    universe = Universe()
    for formula in formulas:
        universe.declare_all(collect_constants(formula))
    pool = AtomPool()
    clauses = [
        clause
        for formula in formulas
        for clause in tseitin(simplify(ground(formula, universe)), pool)
    ]
    lits = []
    for assumption in assumptions:
        atom, positive = assumption, True
        if isinstance(atom, Not):
            atom, positive = atom.operand, False
        var = pool.variable_for(atom_key(atom))
        lits.append(var if positive else -var)
    sat = CDCLSolver(0)
    sat.ensure_vars(pool.count)
    for clause in clauses:
        sat.add_clause(clause)
    return sat.solve(tuple(lits))


@st.composite
def encoder_shaped(draw) -> list:
    """A random assertion set in the shapes ``core/encode.py`` writes."""

    def atom(action=None, entity=None):
        action = action or draw(st.sampled_from(ACTIONS))
        entity = entity or draw(st.sampled_from(ENTITIES))
        return action(entity, draw(st.sampled_from(DATAS)))

    def guard():
        kind = draw(st.sampled_from(("one", "or", "and")))
        if kind == "one":
            return draw(st.sampled_from(GUARDS))
        pair = tuple(draw(st.lists(st.sampled_from(GUARDS), min_size=2, max_size=2)))
        return Or(pair) if kind == "or" else And(pair)

    formulas: list = []
    for kind in draw(
        st.lists(
            st.sampled_from(
                (
                    "fact",
                    "fact",
                    "permit",
                    "denial",
                    "guarded-denial",
                    "axiom",
                    "axiom",
                    "iff",
                    "non-horn",
                    "positive-exists",
                    "positive-forall",
                )
            ),
            min_size=1,
            max_size=12,
        )
    ):
        if kind == "fact":
            formulas.append(atom())
        elif kind == "permit":
            formulas.append(Implies(guard(), atom()))
        elif kind == "denial":
            formulas.append(Not(atom()))
        elif kind == "guarded-denial":
            formulas.append(Implies(guard(), Not(atom())))
        elif kind == "axiom":
            parent, child = draw(
                st.lists(st.sampled_from(DATAS), min_size=2, max_size=2, unique=True)
            )
            for action in ACTIONS:
                formulas.append(axiom(action, parent, child))
        elif kind == "iff":
            formulas.append(Iff(draw(st.sampled_from(GUARDS)), atom()))
        elif kind == "non-horn":
            formulas.append(Or((atom(), atom())))
        elif kind == "positive-exists":
            action = draw(st.sampled_from(ACTIONS))
            formulas.append(Exists(Q, action(Q, draw(st.sampled_from(DATAS)))))
        else:
            action = draw(st.sampled_from(ACTIONS))
            body = Implies(
                draw(st.sampled_from(GUARDS)), action(X, draw(st.sampled_from(DATAS)))
            )
            formulas.append(Forall(X, body))

    # The negated query of a validity check: ground, existential, or
    # joined with a receiver atom.
    query_kind = draw(st.sampled_from(("ground", "exists", "receiver", "none")))
    action = draw(st.sampled_from(ACTIONS))
    data = draw(st.sampled_from(DATAS))
    if query_kind == "ground":
        formulas.append(Not(action(draw(st.sampled_from(ENTITIES)), data)))
    elif query_kind == "exists":
        formulas.append(Not(Exists(Q, action(Q, data))))
    elif query_kind == "receiver":
        sender = draw(st.sampled_from(ENTITIES))
        receiver = draw(st.sampled_from(ENTITIES))
        formulas.append(Not(And((action(sender, data), RECEIVE(receiver, data)))))
    return formulas


@given(encoder_shaped(), st.sampled_from((0, 1, 7)))
@settings(max_examples=150, deadline=None)
def test_restricted_grounding_agrees_with_eager_expansion(formulas, seed):
    solver = Solver(SolverBudget(decision_seed=seed), certify=True)
    for formula in formulas:
        solver.assert_formula(formula)
    result = solver.check_sat()
    assert result.status is eager_status(formulas)
    # A SAT model is reported completed, and must satisfy every original
    # assertion over the whole universe even under seeded phases.
    assert result.certificate.certified, result.certificate.failures


@given(encoder_shaped(), st.data())
@settings(max_examples=100, deadline=None)
def test_asserts_and_assumptions_after_a_check_agree_with_eager(formulas, data):
    split = data.draw(st.integers(0, len(formulas)))
    solver = Solver(certify=True)
    for formula in formulas[:split]:
        solver.assert_formula(formula)
    assert solver.check_sat().status is eager_status(formulas[:split])
    for formula in formulas[split:]:
        solver.assert_formula(formula)
    result = solver.check_sat()
    assert result.status is eager_status(formulas)
    assert result.certificate.certified, result.certificate.failures

    # A positive assumption can add a sender too.
    assumption = data.draw(st.sampled_from(ACTIONS))(
        data.draw(st.sampled_from(ENTITIES)), data.draw(st.sampled_from(DATAS))
    )
    result = solver.check_sat_assuming([assumption])
    assert result.status is eager_status(formulas, [assumption])
    assert result.certificate.certified, result.certificate.failures


COLLECT = ACTIONS[0]
E0, E1, E2 = ENTITIES[:3]
D0, D1 = DATAS[:2]


def test_a_new_sender_after_a_check_regrounds():
    solver = Solver(certify=True)
    solver.assert_formula(COLLECT(E0, D0))
    solver.assert_formula(axiom(COLLECT, D0, D1))
    solver.assert_formula(Not(COLLECT(E1, D1)))
    first = solver.check_sat()
    assert first.status is SatResult.SAT
    assert first.statistics.ground_instances == 1  # e0 only; e1 cannot collect
    assert first.model["a_collect(e1,d1)"] is False

    solver.assert_formula(COLLECT(E1, D0))
    second = solver.check_sat()
    assert second.status is SatResult.UNSAT
    assert second.statistics.ground_instances == 2  # re-grounded over e0, e1
    assert second.certificate.certified


@pytest.mark.parametrize("seed", range(1, 9))
def test_reported_model_is_completed_outside_the_senders(seed):
    # e1 cannot collect, so its axiom instance is skipped.  Some seeded
    # phases set a_collect(e1,d0) true (the guarded denial allows it); the
    # reported model must set it false, or the skipped instance
    # a_collect(e1,d0) -> a_collect(e1,d1) fails over the full universe.
    solver = Solver(SolverBudget(decision_seed=seed), certify=True)
    solver.assert_formula(COLLECT(E0, D0))
    solver.assert_formula(axiom(COLLECT, D0, D1))
    solver.assert_formula(Implies(GUARDS[0], Not(COLLECT(E1, D0))))
    result = solver.check_sat()
    assert result.status is SatResult.SAT
    assert result.model["a_collect(e1,d0)"] is False
    assert result.certificate.certified, result.certificate.failures


def test_completion_touches_only_actions_grounded_over_their_senders():
    senders = Senders()
    senders.add(COLLECT(E0, D0))
    senders.add(Not(COLLECT(E1, D0)))
    senders.add(Not(ACTIONS[1](E1, D0)))
    # No axiom is grounded yet: every atom keeps its SAT value.
    assert senders.keeps(COLLECT(E1, D0))
    assert senders.restrict("a_collect", list(ENTITIES)) == [E0]
    assert senders.keeps(COLLECT(E0, D1))
    assert not senders.keeps(COLLECT(E1, D0))
    # a_share has no axiom grounded over its senders.
    assert senders.keeps(ACTIONS[1](E1, D0))
    senders.forget_grounding()
    assert senders.keeps(COLLECT(E1, D0))


def test_a_new_sender_in_an_assumption_regrounds():
    solver = Solver(certify=True)
    solver.assert_formula(COLLECT(E0, D0))
    solver.assert_formula(axiom(COLLECT, D0, D1))
    solver.assert_formula(Not(COLLECT(E1, D1)))
    assert solver.check_sat().status is SatResult.SAT
    result = solver.check_sat_assuming([COLLECT(E1, D0)])
    assert result.status is SatResult.UNSAT
    assert result.certificate.certified


def test_pop_keeps_a_superset_that_still_certifies():
    solver = Solver(certify=True)
    solver.assert_formula(COLLECT(E0, D0))
    solver.assert_formula(axiom(COLLECT, D0, D1))
    solver.push()
    solver.assert_formula(COLLECT(E1, D0))
    solver.assert_formula(Not(COLLECT(E1, D1)))
    assert solver.check_sat().status is SatResult.UNSAT
    solver.pop()
    result = solver.check_sat()
    assert result.status is SatResult.SAT
    # The axiom keeps its e1 instance, which the remaining assertions no
    # longer need: extra instances are genuine, so certification passes.
    assert result.statistics.ground_instances == 2
    assert result.certificate.certified


def test_an_unused_sender_does_not_reground():
    solver = Solver()
    solver.assert_formula(COLLECT(E0, D0))
    solver.assert_formula(axiom(COLLECT, D0, D1))
    assert solver.check_sat().status is SatResult.SAT
    core = solver._sat
    # e0 is declared already and no a_share axiom is grounded.
    solver.assert_formula(ACTIONS[1](E0, D0))
    assert solver._sat is core


def _drop_entity(name: str):
    """Drop the instance at entity ``name`` from any instance list."""

    def fn(value):
        if isinstance(value, list):
            kept = [
                inst
                for inst in value
                if not (
                    isinstance(inst, Implies)
                    and inst.antecedent.args
                    and inst.antecedent.args[0].name == name
                )
            ]
            if len(kept) != len(value):
                return kept
        return value

    return fn


def test_certifier_catches_a_skipped_sender_even_when_the_verdict_is_right():
    # e0's instance alone refutes the assertions; e1 can collect too, so
    # its instance is required, but dropping it leaves the answer UNSAT.
    formulas = [
        COLLECT(E0, D0),
        COLLECT(E1, D0),
        axiom(COLLECT, D0, D1),
        Not(COLLECT(E0, D1)),
    ]
    assert eager_status(formulas) is SatResult.UNSAT
    mutation = faults.Mutation("ground.instances", "drop-e1", _drop_entity("e1"))

    plain = Solver()
    for formula in formulas:
        plain.assert_formula(formula)
    with faults.installed(mutation):
        assert plain.check_sat().status is SatResult.UNSAT  # still right
    assert mutation.fires == 1

    certified = Solver(certify=True)
    for formula in formulas:
        certified.assert_formula(formula)
    with faults.installed(mutation):
        result = certified.check_sat()
    assert result.status is SatResult.UNKNOWN
    assert result.reason.startswith(CERTIFICATION_FAILED)
    assert "skips entity e1" in result.certificate.failures[0]


def test_certifier_rejects_an_instance_at_an_undeclared_entity():
    stranger = Constant("e9", ENTITY)

    def swap_in_stranger(value):
        if isinstance(value, list) and value:
            return [*value, Implies(COLLECT(stranger, D0), COLLECT(stranger, D1))]
        return value

    solver = Solver(certify=True)
    solver.assert_formula(COLLECT(E0, D0))
    solver.assert_formula(axiom(COLLECT, D0, D1))
    with faults.installed(faults.Mutation("ground.instances", "add", swap_in_stranger)):
        result = solver.check_sat()
    assert result.status is SatResult.UNKNOWN
    assert "disagrees with the grounder" in result.certificate.failures[0]

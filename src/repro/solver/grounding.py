"""Finite-domain quantifier grounding.

The policy encodings quantify over entities and data types, all of which
are named constants extracted from the policy itself.  Grounding therefore
instantiates each quantifier over the declared constants of its sort
(Herbrand expansion).  Nested quantifiers multiply — this is precisely the
clause explosion that makes full-policy formulas overwhelm the solver in
the paper, so the expansion carries an instantiation budget that converts
blow-ups into UNKNOWN results rather than memory exhaustion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import BudgetExceededError, SolverError, UnknownCause
from repro.solver import faults as _faults
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
from repro.fol.terms import Constant, Sort
from repro.fol.visitor import substitute
from repro.solver.euf import EQ_PREDICATE


@dataclass(slots=True)
class Universe:
    """Declared constants per sort."""

    _constants: dict[Sort, list[Constant]] = field(default_factory=dict)

    def declare(self, constant: Constant) -> bool:
        """Add ``constant`` to its sort's domain; True when it was new."""
        domain = self._constants.setdefault(constant.sort, [])
        if constant in domain:
            return False
        domain.append(constant)
        return True

    def declare_all(self, constants: list[Constant] | set[Constant]) -> bool:
        """Declare each constant in name order; True when any was new."""
        new = False
        for c in sorted(constants, key=lambda c: c.name):
            new = self.declare(c) or new
        return new

    def domain(self, sort: Sort) -> list[Constant]:
        """The constants of ``sort``, in declaration order."""
        return list(self._constants.get(sort, []))

    def size(self, sort: Sort) -> int:
        return len(self._constants.get(sort, []))

    def sorts(self) -> list[Sort]:
        return list(self._constants)

    def total_constants(self) -> int:
        return sum(len(v) for v in self._constants.values())

    def snapshot(self) -> dict[Sort, tuple[Constant, ...]]:
        """Immutable copy of every domain, in declaration order.

        The certification layer takes one at check time: every assertion
        must hold, and must have been grounded, over the universe as it
        stands when the check runs.
        """
        return {sort: tuple(domain) for sort, domain in self._constants.items()}


class GroundingCounter:
    """Shared instantiation counter with a hard cap and optional deadline.

    ``deadline`` (a ``time.monotonic`` instant) makes grounding honour the
    solver's wall-clock budget: nested quantifier expansion can burn
    arbitrary time before the SAT loop ever runs its first budget check,
    so the timeout has to be enforced here as well.
    """

    def __init__(self, budget: int | None, *, deadline: float | None = None) -> None:
        self.budget = budget
        self.count = 0
        self.deadline = deadline

    def spend(self, n: int = 1) -> None:
        self.count += n
        if self.budget is not None and self.count > self.budget:
            raise BudgetExceededError(
                f"grounding budget exhausted ({self.count} > {self.budget} instances)",
                UnknownCause.GROUND_INSTANCES,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("wall-clock timeout", UnknownCause.WALL_CLOCK)


def inheritance_axiom(formula: Formula) -> str | None:
    """The action ``a`` when ``formula`` is ``forall x. a(x, p) -> a(x, c)``.

    Both atoms must have the same (non-equality) predicate, the bound
    variable as their first argument and constants everywhere else.  This
    is the shape ``core/encode.py`` gives every hierarchy axiom.
    """
    if not isinstance(formula, Forall) or not isinstance(formula.body, Implies):
        return None
    atoms = (formula.body.antecedent, formula.body.consequent)
    if not all(isinstance(atom, Predicate) and atom.args for atom in atoms):
        return None
    action = atoms[0].symbol.name
    if action == EQ_PREDICATE or atoms[1].symbol.name != action:
        return None
    for atom in atoms:
        if atom.args[0] != formula.variable or not all(
            isinstance(arg, Constant) for arg in atom.args[1:]
        ):
            return None
    return action


class Senders:
    """Per action ``a``, the entities that can perform it (``E_a``).

    An entity is in ``E_a`` when an atom ``a(e, ...)`` occurs at positive
    polarity in some assertion that is not an inheritance axiom (both
    sides of an ``Iff`` count as positive).  A positive ``a(t, ...)`` whose
    first argument is a variable or a function term puts every entity in
    ``E_a``, and an equality atom anywhere puts every entity in every
    ``E_a``: congruence could then force ``a(e, ...)`` from another
    entity's atom.  The sets only grow, so after a ``pop`` they are a
    superset of the current assertions' sets, which is still sound.
    """

    __slots__ = ("_by_action", "_everyone", "_unrestricted", "_grounded")

    def __init__(self) -> None:
        self._by_action: dict[str, set[str]] = {}
        self._everyone: set[str] = set()
        self._unrestricted = False
        # Actions with an axiom grounded over E_a since forget_grounding().
        self._grounded: set[str] = set()

    def add(self, formula: Formula) -> bool:
        """Record ``formula``'s positive senders.

        True when a set that an axiom was grounded over has grown, so the
        axiom's grounding is now missing instances.
        """
        if self._unrestricted or inheritance_axiom(formula) is not None:
            return False
        stale = False

        def walk(node: Formula, positive: bool, negative: bool) -> None:
            nonlocal stale
            if isinstance(node, Predicate):
                if node.symbol.name == EQ_PREDICATE:
                    self._unrestricted = True
                    stale = stale or bool(self._grounded)
                elif positive and node.args:
                    action, first = node.symbol.name, node.args[0]
                    if not isinstance(first, Constant):
                        grew = action not in self._everyone
                        self._everyone.add(action)
                    else:
                        known = self._by_action.setdefault(action, set())
                        grew = first.name not in known
                        known.add(first.name)
                    stale = stale or (grew and action in self._grounded)
            elif isinstance(node, Not):
                walk(node.operand, negative, positive)
            elif isinstance(node, (And, Or)):
                for op in node.operands:
                    walk(op, positive, negative)
            elif isinstance(node, Implies):
                walk(node.antecedent, negative, positive)
                walk(node.consequent, positive, negative)
            elif isinstance(node, Iff):
                walk(node.left, True, True)
                walk(node.right, True, True)
            elif isinstance(node, (Forall, Exists)):
                walk(node.body, positive, negative)

        walk(formula, True, False)
        return stale

    def restricts(self, action: str) -> bool:
        """Are ``action``'s inheritance axioms grounded over ``E_a`` only?"""
        return not self._unrestricted and action not in self._everyone

    def restrict(self, action: str, domain: list[Constant]) -> list[Constant]:
        """The constants of ``domain`` in ``E_a``, in order; records ``a``."""
        self._grounded.add(action)
        known = self._by_action.get(action, ())
        return [c for c in domain if c.name in known]

    def forget_grounding(self) -> None:
        """No axiom is grounded any more (the grounded clauses were dropped)."""
        self._grounded.clear()

    def keeps(self, atom: Formula | None) -> bool:
        """May ``atom`` be true in a completed model?

        False for ``a(e, ...)`` when an inheritance axiom over ``a`` is
        grounded over ``E_a`` and the constant ``e`` is outside it: the
        completion sets those atoms false.  Every other atom, and every
        atom of an action with no axiom grounded that way, keeps the
        value the SAT model gives it.
        """
        if not isinstance(atom, Predicate) or not atom.args:
            return True
        action, first = atom.symbol.name, atom.args[0]
        if action not in self._grounded or not isinstance(first, Constant):
            return True
        return first.name in self._by_action.get(action, ())


def ground(
    formula: Formula,
    universe: Universe,
    *,
    counter: GroundingCounter | None = None,
    senders: Senders | None = None,
) -> Formula:
    """Eliminate quantifiers by expansion over ``universe``.

    ``Forall x. phi`` becomes the conjunction of ``phi[x := c]`` over the
    domain of x's sort; ``Exists`` becomes the disjunction.  An empty domain
    makes a universal vacuously true and an existential false, matching
    standard semantics over an empty sort.

    With ``senders``, an inheritance axiom over a restricted action is
    instantiated only at the declared entities in its ``E_a``, in
    declaration order; without it every quantifier expands fully.
    """
    if counter is None:
        counter = GroundingCounter(None)

    def walk(node: Formula) -> Formula:
        if isinstance(node, (Predicate, TrueFormula, FalseFormula)):
            return node
        if isinstance(node, Not):
            return Not(walk(node.operand))
        if isinstance(node, And):
            return And(tuple(walk(op) for op in node.operands))
        if isinstance(node, Or):
            return Or(tuple(walk(op) for op in node.operands))
        if isinstance(node, Implies):
            return Implies(walk(node.antecedent), walk(node.consequent))
        if isinstance(node, Iff):
            return Iff(walk(node.left), walk(node.right))
        if isinstance(node, (Forall, Exists)):
            return expand(node, universe.domain(node.variable.sort))
        raise SolverError(f"cannot ground formula node {node!r}")

    def expand(node: Forall | Exists, domain: list[Constant]) -> Formula:
        counter.spend(max(len(domain), 1))
        instances = _faults.mutate(
            "ground.instances",
            [walk(substitute(node.body, {node.variable: const})) for const in domain],
        )
        if isinstance(node, Forall):
            if not instances:
                return TrueFormula()
            return _faults.mutate("ground.quantifier", And(tuple(instances)))
        if not instances:
            return FalseFormula()
        return _faults.mutate("ground.quantifier", Or(tuple(instances)))

    if senders is not None:
        action = inheritance_axiom(formula)
        if action is not None and senders.restricts(action):
            domain = universe.domain(formula.variable.sort)
            return expand(formula, senders.restrict(action, domain))
    return walk(formula)

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


def ground(
    formula: Formula,
    universe: Universe,
    *,
    counter: GroundingCounter | None = None,
) -> Formula:
    """Eliminate quantifiers by expansion over ``universe``.

    ``Forall x. phi`` becomes the conjunction of ``phi[x := c]`` over the
    domain of x's sort; ``Exists`` becomes the disjunction.  An empty domain
    makes a universal vacuously true and an existential false, matching
    standard semantics over an empty sort.
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
            domain = universe.domain(node.variable.sort)
            counter.spend(max(len(domain), 1))
            instances = _faults.mutate(
                "ground.instances",
                [
                    walk(substitute(node.body, {node.variable: const}))
                    for const in domain
                ],
            )
            if isinstance(node, Forall):
                if not instances:
                    return TrueFormula()
                return _faults.mutate("ground.quantifier", And(tuple(instances)))
            if not instances:
                return FalseFormula()
            return _faults.mutate("ground.quantifier", Or(tuple(instances)))
        raise SolverError(f"cannot ground formula node {node!r}")

    return walk(formula)

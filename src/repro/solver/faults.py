"""Deterministic soundness-mutation seams for the SMT substrate.

Test infrastructure, not production code — the solver-side counterpart of
:mod:`repro.store.faults`.  Production modules route a handful of
soundness-critical values (the learned clause leaving conflict analysis,
the SAT model, the theory conflict and its blocking clause, the quantifier
instance list and grounded connective) through :func:`mutate`.  With no
mutator installed the call is a near-free identity; the certification
test harness installs a :class:`Mutation` at exactly one site and asserts
that the certification layer demotes the corrupted verdict to UNKNOWN
instead of surfacing a wrong answer.

Every mutator is deterministic (no randomness, no clocks): the same
formula under the same mutation always corrupts the same way, so a caught
alarm reproduces.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.fol.formula import And, Or

#: The seams production code exposes.  Keep in sync with the `mutate`
#: call sites in sat.py / theory.py / grounding.py.
MUTATION_SITES = (
    "cdcl.learned_clause",  # clause leaving 1UIP conflict analysis
    "cdcl.model",  # full assignment reported for a SAT answer
    "theory.conflict",  # EUF conflict returned by check_euf
    "theory.blocking_clause",  # lemma excluding a T-inconsistent model
    "ground.instances",  # quantifier instance list
    "ground.quantifier",  # grounded connective (And for forall, Or for exists)
)


@dataclass(slots=True)
class Mutation:
    """One deterministic corruption applied at one seam."""

    site: str
    name: str
    fn: Callable[[object], object]
    fires: int = 0

    def __post_init__(self) -> None:
        if self.site not in MUTATION_SITES:
            raise ValueError(f"unknown mutation site {self.site!r}")


_active: dict[str, Mutation] = {}


def mutate(site: str, value):
    """Production seam: pass ``value`` through the installed mutator, if any."""
    if not _active:
        return value
    mutation = _active.get(site)
    if mutation is None:
        return value
    mutated = mutation.fn(value)
    if mutated is not value:
        mutation.fires += 1
    return mutated


def install(mutation: Mutation) -> None:
    _active[mutation.site] = mutation


def clear() -> None:
    _active.clear()


@contextmanager
def installed(*mutations: Mutation) -> Iterator[None]:
    """Install mutations for the duration of a with-block, then clear."""
    for m in mutations:
        install(m)
    try:
        yield
    finally:
        clear()


# ----------------------------------------------------------------------
# The soundness-mutation catalog the acceptance harness iterates over.
# Each mutator leaves the solver mechanically runnable (no crashes) but
# logically wrong, which is exactly what certification must catch.
# ----------------------------------------------------------------------


def _drop_learned_literal(value):
    # Weakening-in-disguise: dropping a literal STRENGTHENS the clause,
    # potentially pruning models the formula allows.
    if isinstance(value, list) and len(value) >= 2:
        return value[:-1]
    return value


def _flip_learned_literal(value):
    if isinstance(value, list) and value:
        return [-value[0]] + value[1:]
    return value


def _flip_model_bit(value):
    if isinstance(value, dict) and value:
        var = min(value)
        flipped = dict(value)
        flipped[var] = not flipped[var]
        return flipped
    return value


def _suppress_theory_conflict(value):
    # check_euf found an inconsistency; pretend it did not — the classic
    # "theory solver returns SAT on a T-inconsistent model" bug.
    if value is not None:
        return None
    return value


def _drop_theory_literal(value):
    if isinstance(value, tuple) and len(value) >= 2:
        return value[:-1]
    return value


def _drop_ground_instance(value):
    # Also drops a lone instance: an inheritance axiom grounded over the
    # entities that can use it often has exactly one.
    if isinstance(value, list) and value:
        return value[:-1]
    return value


def _swap_ground_connective(value):
    if isinstance(value, And):
        return Or(value.operands)
    if isinstance(value, Or):
        return And(value.operands)
    return value


def soundness_mutations() -> list[Mutation]:
    """Fresh instances of the full catalog (fires counters zeroed)."""
    return [
        Mutation("cdcl.learned_clause", "drop-learned-literal", _drop_learned_literal),
        Mutation("cdcl.learned_clause", "flip-learned-literal", _flip_learned_literal),
        Mutation("cdcl.model", "flip-model-bit", _flip_model_bit),
        Mutation("theory.conflict", "suppress-theory-conflict", _suppress_theory_conflict),
        Mutation("theory.blocking_clause", "drop-lemma-literal", _drop_theory_literal),
        Mutation("ground.instances", "drop-ground-instance", _drop_ground_instance),
        Mutation("ground.quantifier", "swap-ground-connective", _swap_ground_connective),
    ]

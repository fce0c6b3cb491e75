"""Congruence closure for equality over uninterpreted functions (EUF).

The theory layer behind the solver's DPLL(T) loop.  Atoms arrive as the
ground :class:`~repro.fol.formula.Predicate` trees the clausifier interned,
each with its truth value, and the closure's nodes are the frozen
:class:`~repro.fol.terms.Constant` and :class:`~repro.fol.terms.Application`
terms themselves; an atom's printed key is never read.  The closure merges
equivalence classes under the asserted equalities, propagates congruence
(f(a) = f(b) when a = b), and reports a conflict when a disequality is
violated or when two congruent predicate applications carry opposite
truth values.
"""

from __future__ import annotations

from repro.fol.formula import Predicate
from repro.fol.terms import Application, Term

EQ_PREDICATE = "="

#: An atom with its truth value in the assignment under check.
Literal = tuple[Predicate, bool]


class CongruenceClosure:
    """Union-find with congruence propagation over ground terms."""

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self._applications: list[Application] = []

    def add_term(self, term: Term) -> None:
        if term in self._parent:
            return
        self._parent[term] = term
        if isinstance(term, Application):
            for arg in term.args:
                self.add_term(arg)
            self._applications.append(term)

    def find(self, term: Term) -> Term:
        root = term
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[term] != root:
            self._parent[term], term = root, self._parent[term]
        return root

    def merge(self, a: Term, b: Term) -> None:
        self.add_term(a)
        self.add_term(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def are_equal(self, a: Term, b: Term) -> bool:
        self.add_term(a)
        self.add_term(b)
        return self.find(a) == self.find(b)

    def propagate_congruence(self) -> None:
        """Merge congruent applications until fixpoint.

        Two applications are congruent when they share a function name and
        their argument lists are pairwise equal in the current closure.
        """
        changed = True
        while changed:
            changed = False
            signatures: dict[tuple[str, tuple[Term, ...]], Term] = {}
            for app in self._applications:
                sig = (app.symbol.name, tuple(self.find(a) for a in app.args))
                other = signatures.get(sig)
                if other is None:
                    signatures[sig] = app
                elif self.find(other) != self.find(app):
                    self.merge(other, app)
                    changed = True


def check_euf(assignment: list[Literal]) -> list[Literal] | None:
    """Check a full assignment of atoms for EUF consistency.

    Args:
        assignment: (atom, value) pairs covering the atoms of interest.

    Returns:
        None when consistent, otherwise the subset of assigned literals
        that together form an inconsistency (a valid blocking clause is the
        disjunction of their negations).
    """
    closure = CongruenceClosure()
    equalities: list[Predicate] = []
    disequalities: list[Predicate] = []
    applications: list[Literal] = []

    for atom, value in assignment:
        for arg in atom.args:
            closure.add_term(arg)
        if atom.symbol.name == EQ_PREDICATE and len(atom.args) == 2:
            (equalities if value else disequalities).append(atom)
        else:
            applications.append((atom, value))

    for atom in equalities:
        closure.merge(*atom.args)
    closure.propagate_congruence()

    for atom in disequalities:
        if closure.are_equal(*atom.args):
            return [(atom, False)] + [(eq, True) for eq in equalities]

    # Congruent predicate applications must agree on truth value.
    by_signature: dict[tuple[str, tuple[Term, ...]], Literal] = {}
    for atom, value in applications:
        sig = (atom.symbol.name, tuple(closure.find(a) for a in atom.args))
        seen = by_signature.setdefault(sig, (atom, value))
        if seen[1] != value:
            return [seen, (atom, value)] + [(eq, True) for eq in equalities]
    return None

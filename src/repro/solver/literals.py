"""Atom pool: bidirectional mapping between ground atoms and SAT variables.

Literals are signed integers: variable ``v >= 1``, literal ``+v`` for
the positive phase and ``-v`` for the negative phase.  Each atom is
interned under its printed key ("share(tiktok,email_address)"; a constant
whose name is not an SMT-LIB simple symbol prints in bars), which names
its SAT variable and labels it in models; the pool also keeps the
atom's :class:`~repro.fol.formula.Predicate` tree, which is where the
theory layer and certification read its structure.  Nothing parses a key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.fol.formula import Predicate
from repro.fol.terms import Application
from repro.solver.euf import EQ_PREDICATE

Clause = tuple[int, ...]


@dataclass(slots=True)
class AtomPool:
    """Interns ground atoms and auxiliary (Tseitin) variables.

    Named (non-``$``) atoms are also recorded as they are interned, along
    with whether any of them needs the EUF theory (an equality, or a
    function term among its arguments), so neither fact costs a pass over
    the pool when a check asks for it.
    """

    _by_key: dict[str, int] = field(default_factory=dict)
    _by_var: dict[int, str] = field(default_factory=dict)
    _named: dict[str, int] = field(default_factory=dict, init=False)
    # The atom behind each named key, where the caller passed one.
    _atoms: dict[str, Predicate] = field(default_factory=dict, init=False)
    _next_var: int = 1
    needs_theory: bool = field(default=False, init=False)

    def variable_for(self, key: str, atom: Predicate | None = None) -> int:
        """SAT variable for the atom ``key``, allocating if new.

        ``atom`` is the ground atom ``key`` renders; :meth:`atom_for` hands
        it back, so callers never have to parse a key (quoted SMT-LIB
        names may hold commas and parentheses).  Only atoms interned with
        their tree can switch the theory on.
        """
        var = self._by_key.get(key)
        if var is None:
            var = self._next_var
            self._next_var += 1
            self._by_key[key] = var
            self._by_var[var] = key
            if not key.startswith("$"):
                self._named[key] = var
                if atom is not None:
                    self._atoms[key] = atom
                    if not self.needs_theory:
                        self.needs_theory = _uses_euf(atom)
        return var

    def fresh(self, hint: str = "aux") -> int:
        """Allocate an auxiliary variable (Tseitin definition)."""
        var = self._next_var
        self._next_var += 1
        key = f"${hint}#{var}"
        self._by_key[key] = var
        self._by_var[var] = key
        return var

    def key_for(self, var: int) -> str:
        return self._by_var[var]

    def atom_for(self, key: str) -> Predicate | None:
        """The atom interned under ``key``, or None if none was given."""
        return self._atoms.get(key)

    def has_key(self, key: str) -> bool:
        return key in self._by_key

    def truncate(self, count: int) -> None:
        """Forget every variable above ``count``: the pool as it was then."""
        for var in range(count + 1, self._next_var):
            key = self._by_var.pop(var)
            del self._by_key[key]
            self._named.pop(key, None)
            self._atoms.pop(key, None)
        self._next_var = count + 1
        self.needs_theory = any(map(_uses_euf, self._atoms.values()))

    @property
    def count(self) -> int:
        """Number of allocated variables."""
        return self._next_var - 1

    def named_atoms(self) -> Mapping[str, int]:
        """Non-auxiliary atoms only (keys not starting with ``$``).

        A read-only live view, in interning order.
        """
        return MappingProxyType(self._named)


def _uses_euf(atom: Predicate) -> bool:
    """True when ``atom`` is an equality or has a function-term argument."""
    return atom.symbol.name == EQ_PREDICATE or any(
        isinstance(arg, Application) for arg in atom.args
    )

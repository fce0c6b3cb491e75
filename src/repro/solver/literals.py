"""Atom pool: bidirectional mapping between ground atoms and SAT variables.

Literals use the DIMACS convention: variable ``v >= 1``, literal ``+v`` for
the positive phase and ``-v`` for the negative phase.  Atom keys are
canonical strings of ground atoms ("share(tiktok, email_address)"), which
makes models directly readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.solver.euf import EQ_PREDICATE

Clause = tuple[int, ...]


@dataclass(slots=True)
class AtomPool:
    """Interns ground atoms and auxiliary (Tseitin) variables.

    Named (non-``$``) atoms are also recorded as they are interned, along
    with whether any of them needs the EUF theory, so neither fact costs
    a pass over the pool when a check asks for it.
    """

    _by_key: dict[str, int] = field(default_factory=dict)
    _by_var: dict[int, str] = field(default_factory=dict)
    _named: dict[str, int] = field(default_factory=dict, init=False)
    _next_var: int = 1
    needs_theory: bool = field(default=False, init=False)

    def variable_for(self, key: str) -> int:
        """SAT variable for the atom ``key``, allocating if new."""
        var = self._by_key.get(key)
        if var is None:
            var = self._next_var
            self._next_var += 1
            self._by_key[key] = var
            self._by_var[var] = key
            if not key.startswith("$"):
                self._named[key] = var
                if not self.needs_theory:
                    self.needs_theory = _is_theory_atom(key)
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

    def has_key(self, key: str) -> bool:
        return key in self._by_key

    @property
    def count(self) -> int:
        """Number of allocated variables."""
        return self._next_var - 1

    def named_atoms(self) -> Mapping[str, int]:
        """Non-auxiliary atoms only (keys not starting with ``$``).

        A read-only live view, in interning order.
        """
        return MappingProxyType(self._named)


def _is_theory_atom(key: str) -> bool:
    """True when the atom is an equality or has a function-term argument.

    The arguments are the text between the outer parentheses split at
    top-level commas, so one of them holds a ``(`` exactly when that text
    does.
    """
    open_paren = key.find("(")
    if open_paren < 0:
        return key == EQ_PREDICATE
    return key[:open_paren] == EQ_PREDICATE or "(" in key[open_paren + 1 : -1]

"""Sorts and terms for many-sorted first-order logic."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SortMismatchError


@dataclass(frozen=True, slots=True)
class Sort:
    """A named sort (type) of individuals."""

    name: str

    def __str__(self) -> str:
        return self.name


#: Sort of actors: companies, users, third parties.
ENTITY = Sort("Entity")
#: Sort of data types: email address, location information, ...
DATA = Sort("Data")
#: Built-in boolean sort (used only for predicate result typing).
BOOL = Sort("Bool")


class Term:
    """Base class for terms; see :class:`Variable` and :class:`Constant`."""

    sort: Sort

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Variable(Term):
    """A sorted variable, bound by a quantifier or free."""

    name: str
    sort: Sort

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant(Term):
    """A sorted constant naming a concrete entity or data type.

    Constant names are mangled identifiers ("email_address"); the original
    policy text is kept in ``source_text`` for reporting.
    """

    name: str
    sort: Sort
    source_text: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class FunctionSymbol:
    """An uninterpreted function symbol with a fixed signature."""

    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __call__(self, *args: Term) -> "Application":
        return Application(self, tuple(args))


@dataclass(frozen=True, slots=True)
class Application(Term):
    """Application of a function symbol to argument terms."""

    symbol: FunctionSymbol
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.symbol.arity:
            raise SortMismatchError(
                f"{self.symbol.name} expects {self.symbol.arity} args, got {len(self.args)}"
            )
        for arg, expected in zip(self.args, self.symbol.arg_sorts):
            if arg.sort != expected:
                raise SortMismatchError(
                    f"{self.symbol.name}: argument {arg} has sort {arg.sort}, expected {expected}"
                )

    @property
    def sort(self) -> Sort:  # type: ignore[override]
        return self.symbol.result_sort

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.symbol.name}({inner})"


#: A simple symbol (SMT-LIB 2.6 §3.1): letters, digits and ``~!@$%^&*_-+=<>.?/``,
#: not starting with a digit.
SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_\-+=<>.?/][0-9A-Za-z~!@$%^&*_\-+=<>.?/]*")


#: A name an atom key shows bare: a simple symbol, or a quoted symbol with
#: its bars (the SMT-LIB reader keeps the bars of ``|a,b|``).
_BARE_IN_KEYS = re.compile(rf"{SIMPLE_SYMBOL.pattern}|\|[^|\\]*\|")


def symbol_key(name: str) -> str:
    """``name`` as it appears in an atom key: in bars unless shown bare.

    A constant's key then never ends in ``)``, as an application's does,
    so a constant named ``f(a)`` and the term ``f(a)`` key apart.
    """
    return name if _BARE_IN_KEYS.fullmatch(name) else f"|{name}|"


def mangle(text: str) -> str:
    """Turn arbitrary policy text into a valid FOL/SMT identifier.

    >>> mangle("email address")
    'email_address'
    >>> mangle("Meta's camera feature")
    'meta_s_camera_feature'
    """
    out = []
    for ch in text.lower():
        if ch.isalnum():
            out.append(ch)
        elif out and out[-1] != "_":
            out.append("_")
    ident = "".join(out).strip("_")
    if not ident:
        return "anon"
    if ident[0].isdigit():
        ident = "n_" + ident
    return ident

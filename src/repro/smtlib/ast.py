"""S-expression representation and (de)serialization.

SMT-LIB v2 is a fully parenthesized s-expression language; this module is
the shared substrate for both the printer and the parser.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.errors import SMTLibError, SMTLibParseError
from repro.fol.terms import SIMPLE_SYMBOL

#: An s-expression: an atom (str) or a list of s-expressions.
SExpr = str | list

#: Reserved words, command names included, which no simple symbol may spell.
_RESERVED = frozenset(
    "! _ as BINARY DECIMAL exists HEXADECIMAL forall let match NUMERAL par "
    "STRING assert check-sat check-sat-assuming declare-const declare-datatype "
    "declare-datatypes declare-fun declare-sort define-fun define-fun-rec "
    "define-funs-rec define-sort echo exit get-assertions get-assignment "
    "get-info get-model get-option get-proof get-unsat-assumptions "
    "get-unsat-core get-value pop push reset reset-assertions set-info "
    "set-logic set-option".split()
)


#: A quoted symbol: bars around anything but a bar.
_QUOTED = re.compile(r"\|[^|]*\|")


def _is_simple(name: str) -> bool:
    """May ``name`` stand bare?  A simple symbol that is no reserved word."""
    return SIMPLE_SYMBOL.fullmatch(name) is not None and name not in _RESERVED


def _quoted_symbol(token: str) -> str:
    """``|x|`` as ``x`` when ``x`` is a simple symbol: the two are one symbol.

    Any other quoted symbol keeps its bars, so its name cannot collide
    with a simple symbol or a term built from them.
    """
    inner = token[1:-1]
    return inner if _is_simple(inner) else token


@lru_cache(maxsize=4096)
def symbol_text(name: str) -> str:
    """``name`` written as one SMT-LIB symbol the reader gives back.

    A simple symbol stands bare; any other name goes in bars, which the
    reader keeps, and a name read with its bars is written as it is.  A
    bar inside a name cannot be written at all.
    """
    if _is_simple(name) or _QUOTED.fullmatch(name):
        return name
    if "|" in name:
        raise SMTLibError(f"cannot write {name!r} as an SMT-LIB symbol")
    return f"|{name}|"


def sexpr_to_text(expr: SExpr) -> str:
    """Serialize one s-expression to SMT-LIB text."""
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(map(sexpr_to_text, expr)) + ")"


#: One token after any whitespace and ``;`` comments, in groups by kind:
#: 1 ``(``, 2 ``)``, 3 a quoted symbol, 4 a string literal or any other
#: atom, 5 a quote left open.  Every other character starts a token, so
#: matches follow each other with nothing skipped.  The token is optional,
#: so the first greedy attempt always matches and nothing backtracks; the
#: scan ends with an empty match, not a search onwards.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*"
    r'(?:(\()|(\))|(\|[^|]*\|)|("[^"]*"|[^ \t\r\n();|"][^ \t\r\n();]*)|([|"]))?'
)


def line_at(text: str, offset: int) -> int:
    """The 1-based line of ``text`` that ``offset`` falls on."""
    return text.count("\n", 0, offset) + 1


def parse_sexprs(text: str, starts: list[int] | None = None) -> list[SExpr]:
    """Parse SMT-LIB text into a list of top-level s-expressions.

    ``starts``, when given, receives the offset at which each top-level
    expression begins, in order.
    """
    exprs: list[SExpr] = []
    current = exprs
    # Each enclosing list of ``current``, with where its open ``(`` stands.
    stack: list[tuple[list, int]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        if not stack and kind and starts is not None:
            starts.append(match.start(kind))
        if kind == 4:
            current.append(match[4])
        elif kind == 1:
            inner: list = []
            current.append(inner)
            stack.append((current, match.start(1)))
            current = inner
        elif kind == 2:
            if not stack:
                raise SMTLibParseError("unbalanced ')'", line_at(text, match.start(2)))
            current, _ = stack.pop()
        elif kind == 3:
            current.append(_quoted_symbol(match[3]))
        elif kind == 5:
            message = (
                "unterminated quoted symbol"
                if match[5] == "|"
                else "unterminated string literal"
            )
            raise SMTLibParseError(message, line_at(text, match.start(5)))
        else:
            break  # nothing but whitespace and comments is left
    if stack:
        _, start = stack[-1]
        raise SMTLibParseError("unbalanced '(' at end of input", line_at(text, start))
    return exprs

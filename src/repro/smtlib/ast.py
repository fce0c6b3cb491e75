"""S-expression representation and (de)serialization.

SMT-LIB v2 is a fully parenthesized s-expression language; this module is
the shared substrate for both the printer and the parser.
"""

from __future__ import annotations

from repro.errors import SMTLibParseError
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


def _quoted_symbol(token: str) -> str:
    """``|x|`` as ``x`` when ``x`` is a simple symbol: the two are one symbol.

    Any other quoted symbol keeps its bars, so its name cannot collide
    with a simple symbol or a term built from them.
    """
    inner = token[1:-1]
    if SIMPLE_SYMBOL.fullmatch(inner) and inner not in _RESERVED:
        return inner
    return token


def sexpr_to_text(expr: SExpr) -> str:
    """Serialize one s-expression to SMT-LIB text."""
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(sexpr_to_text(e) for e in expr) + ")"


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Tokenize SMT-LIB text into (token, line) pairs, dropping comments."""
    tokens: list[tuple[str, int]] = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, line))
            i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SMTLibParseError("unterminated quoted symbol", line)
            tokens.append((_quoted_symbol(text[i : j + 1]), line))
            line += text.count("\n", i, j)
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise SMTLibParseError("unterminated string literal", line)
            tokens.append((text[i : j + 1], line))
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            tokens.append((text[i:j], line))
            i = j
    return tokens


def parse_sexprs(text: str) -> list[SExpr]:
    """Parse SMT-LIB text into a list of top-level s-expressions."""
    tokens = _tokenize(text)
    exprs: list[SExpr] = []
    stack: list[list] = []
    for token, line in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                raise SMTLibParseError("unbalanced ')'", line)
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                exprs.append(done)
        else:
            if stack:
                stack[-1].append(token)
            else:
                exprs.append(token)
    if stack:
        raise SMTLibParseError("unbalanced '(' at end of input")
    return exprs

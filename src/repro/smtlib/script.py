"""SMT-LIB v2 script object: an ordered list of typed commands."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.smtlib.ast import SExpr, sexpr_to_text


class Command:
    """Base class of SMT-LIB commands."""

    def to_sexpr(self) -> SExpr:  # pragma: no cover - overridden
        raise NotImplementedError

    def __str__(self) -> str:
        return sexpr_to_text(self.to_sexpr())


@dataclass(frozen=True, slots=True)
class SetLogic(Command):
    logic: str

    def to_sexpr(self) -> SExpr:
        return ["set-logic", self.logic]


@dataclass(frozen=True, slots=True)
class DeclareSort(Command):
    name: str

    def to_sexpr(self) -> SExpr:
        return ["declare-sort", self.name, "0"]


@dataclass(frozen=True, slots=True)
class DeclareConst(Command):
    name: str
    sort: str

    def to_sexpr(self) -> SExpr:
        return ["declare-const", self.name, self.sort]


@dataclass(frozen=True, slots=True)
class DeclareFun(Command):
    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str

    def to_sexpr(self) -> SExpr:
        return ["declare-fun", self.name, list(self.arg_sorts), self.result_sort]


@dataclass(frozen=True, slots=True)
class Assert(Command):
    """``(assert body)``.

    ``body`` is the reader's nested list, or, from the printer, the
    formula's text as one atom; either way :meth:`to_sexpr` prints it.
    Scripts run from their text (:func:`~repro.smtlib.execute_script`).
    """

    body: SExpr

    def to_sexpr(self) -> SExpr:
        return ["assert", self.body]


@dataclass(frozen=True, slots=True)
class CheckSat(Command):
    def to_sexpr(self) -> SExpr:
        return ["check-sat"]


@dataclass(frozen=True, slots=True)
class CheckSatAssuming(Command):
    literals: tuple[SExpr, ...]

    def to_sexpr(self) -> SExpr:
        return ["check-sat-assuming", list(self.literals)]


@dataclass(frozen=True, slots=True)
class GetModel(Command):
    def to_sexpr(self) -> SExpr:
        return ["get-model"]


@dataclass(frozen=True, slots=True)
class GetValue(Command):
    terms: tuple[SExpr, ...]

    def to_sexpr(self) -> SExpr:
        return ["get-value", list(self.terms)]


@dataclass(frozen=True, slots=True)
class Push(Command):
    levels: int = 1

    def to_sexpr(self) -> SExpr:
        return ["push", str(self.levels)]


@dataclass(frozen=True, slots=True)
class Pop(Command):
    levels: int = 1

    def to_sexpr(self) -> SExpr:
        return ["pop", str(self.levels)]


@dataclass(slots=True)
class SMTScript:
    """An ordered SMT-LIB script with helpers for rendering and stats."""

    commands: list[Command] = field(default_factory=list)
    comments: dict[int, str] = field(default_factory=dict)

    def add(self, command: Command, comment: str | None = None) -> None:
        if comment:
            self.comments[len(self.commands)] = comment
        self.commands.append(command)

    def to_text(self) -> str:
        """Render the full script as SMT-LIB v2 text."""
        lines = []
        for i, command in enumerate(self.commands):
            if i in self.comments:
                lines.append(f"; {self.comments[i]}")
            lines.append(str(command))
        return "\n".join(lines) + "\n"

    @property
    def num_assertions(self) -> int:
        return sum(1 for c in self.commands if isinstance(c, Assert))

    @property
    def num_declarations(self) -> int:
        return sum(
            1
            for c in self.commands
            if isinstance(c, (DeclareConst, DeclareFun, DeclareSort))
        )

    def __str__(self) -> str:
        return self.to_text()

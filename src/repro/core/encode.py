"""Phase 3 step 3: FOL encoding of a subgraph and a query.

Encoding scheme (one predicate per action, constants per node):

* every entity node becomes an ``Entity`` constant, every data node a
  ``Data`` constant;
* a permitted unconditional edge ``[s] -a-> [d]`` becomes the fact
  ``a(s, d)``;
* a permitted conditional edge becomes ``cond -> a(s, d)`` where ``cond``
  is the conjunction of the edge's vague-term predicates (uninterpreted
  booleans carrying the verbatim policy text);
* a denied edge becomes ``not a(s, d)`` (guarded by its condition when one
  is present — this is how exception patterns avoid formal contradiction);
* hierarchy edges add the inheritance axiom
  ``forall x: Entity. a(x, parent) -> a(x, child)`` for every action in the
  subgraph, the quantified part that explodes under grounding;
* the query becomes a ground atom when its sender is known and an
  existential ``exists x: Entity. a(x, d)`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.subgraph import Subgraph
from repro.errors import QueryError
from repro.fol.builder import conjoin, disjoin, exists, forall, implies, negate
from repro.fol.formula import Formula, Predicate, PredicateSymbol
from repro.fol.simplify import simplify
from repro.fol.terms import DATA, ENTITY, Constant, Variable, mangle
from repro.llm.tasks import ExtractedParameters


@dataclass(slots=True)
class EncodedQuery:
    """A compiled verification problem."""

    policy_formulas: list[Formula] = field(default_factory=list)
    query_formula: Formula | None = None
    entity_constants: dict[str, Constant] = field(default_factory=dict)
    data_constants: dict[str, Constant] = field(default_factory=dict)
    action_predicates: dict[str, PredicateSymbol] = field(default_factory=dict)
    uninterpreted: dict[str, str] = field(default_factory=dict)  # name -> source text

    @property
    def num_policy_formulas(self) -> int:
        return len(self.policy_formulas)


class _SymbolTable:
    """Interns constants and predicates, avoiding mangling collisions."""

    def __init__(self, encoded: EncodedQuery) -> None:
        self.encoded = encoded
        self._names: set[str] = set()

    def _unique(self, base: str) -> str:
        name = base
        suffix = 2
        while name in self._names:
            name = f"{base}_{suffix}"
            suffix += 1
        self._names.add(name)
        return name

    def entity(self, text: str) -> Constant:
        text = text.lower()
        const = self.encoded.entity_constants.get(text)
        if const is None:
            const = Constant(self._unique("e_" + mangle(text)), ENTITY, source_text=text)
            self.encoded.entity_constants[text] = const
        return const

    def data(self, text: str) -> Constant:
        text = text.lower()
        const = self.encoded.data_constants.get(text)
        if const is None:
            const = Constant(self._unique("d_" + mangle(text)), DATA, source_text=text)
            self.encoded.data_constants[text] = const
        return const

    def action(self, text: str) -> PredicateSymbol:
        text = text.lower()
        sym = self.encoded.action_predicates.get(text)
        if sym is None:
            sym = PredicateSymbol(self._unique("a_" + mangle(text)), (ENTITY, DATA))
            self.encoded.action_predicates[text] = sym
        return sym

    def vague(self, phrase: str, canonical: str) -> Predicate:
        name = canonical
        existing_source = self.encoded.uninterpreted.get(name)
        if existing_source is None:
            self.encoded.uninterpreted[name] = phrase
        sym = PredicateSymbol(name, (), uninterpreted=True, source_text=phrase)
        return sym()


def _condition_formula(
    condition: str | None,
    vague_terms: tuple[tuple[str, str], ...],
    table: _SymbolTable,
) -> Formula | None:
    """Boolean guard for an edge, respecting AND/OR structure.

    Every condition — vague or merely external — is undefined from the
    formal perspective, so each atom becomes a named uninterpreted
    predicate.  Recognized vague phrases get canonical names; anything else
    is named by its mangled text, keeping the incompleteness explicit
    either way.  Top-level "or"/"and" connectives in the preserved text map
    to logical disjunction/conjunction of those predicates.
    """
    if condition is None:
        return None
    from repro.core.conditions import (
        ConditionAnd,
        ConditionAtom,
        ConditionOr,
        parse_condition,
    )

    def build(expr) -> Formula:
        if isinstance(expr, ConditionAtom):
            return table.vague(expr.text, expr.predicate)
        parts = [build(op) for op in expr.operands]
        if isinstance(expr, ConditionAnd):
            return conjoin(parts)
        return disjoin(parts)

    return build(parse_condition(condition))


def encode_query(
    subgraph: Subgraph,
    query: ExtractedParameters,
    *,
    include_hierarchy_axioms: bool = True,
) -> EncodedQuery:
    """Compile a subgraph and query parameters into FOL formulas."""
    encoded = EncodedQuery()
    table = _SymbolTable(encoded)

    for edge in subgraph.edges:
        sender = table.entity(edge.source)
        data = table.data(edge.target)
        action = table.action(edge.action)
        atom = action(sender, data)
        guard = _condition_formula(edge.condition, edge.vague_terms, table)
        if edge.permission:
            formula: Formula = atom if guard is None else implies(guard, atom)
        else:
            body = negate(atom)
            formula = body if guard is None else implies(guard, body)
        encoded.policy_formulas.append(formula)

    if include_hierarchy_axioms and subgraph.hierarchy_edges:
        x = Variable("x", ENTITY)
        for parent, child in subgraph.hierarchy_edges:
            parent_const = table.data(parent)
            child_const = table.data(child)
            for action_sym in list(encoded.action_predicates.values()):
                encoded.policy_formulas.append(
                    forall(
                        x,
                        implies(
                            action_sym(x, parent_const),
                            action_sym(x, child_const),
                        ),
                    )
                )

    encoded.policy_formulas = [simplify(f) for f in encoded.policy_formulas]
    encoded.query_formula = simplify(_encode_query_atom(query, table))
    return encoded


_GENERIC_SENDERS = frozenset({"", "someone", "anyone", "any entity", "any party"})


def _encode_query_atom(query: ExtractedParameters, table: _SymbolTable) -> Formula:
    """The query as a ground atom or an existential, per the paper."""
    if not query.data_type:
        raise QueryError("query has no data type to verify")
    data = table.data(query.data_type)
    action = table.action(query.action)
    conjuncts: list[Formula] = []
    sender = (query.sender or "").lower()
    if sender in _GENERIC_SENDERS:
        x = Variable("q", ENTITY)
        conjuncts.append(exists(x, action(x, data)))
    else:
        conjuncts.append(action(table.entity(sender), data))
    if query.receiver:
        receive = table.action("receive")
        conjuncts.append(receive(table.entity(query.receiver), data))
    return conjoin(conjuncts)

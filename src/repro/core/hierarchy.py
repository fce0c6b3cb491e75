"""Phase 2: Chain-of-Layer taxonomy induction.

Builds a taxonomy iteratively, layer by layer: each round asks the LLM
which remaining terms are *direct* subcategories of nodes already in the
taxonomy.  Terms whose natural parent has not yet been placed wait for a
later round.  An optional embedding-similarity filter (the paper uses
SciBERT scores) rejects implausible parent assignments, which then fall
back to the root.  The construction guarantees every term appears exactly
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.embeddings.model import EmbeddingModel
from repro.errors import HierarchyError
from repro.llm.tasks import TaskRunner

_MAX_LAYERS = 12


@dataclass(slots=True)
class Taxonomy:
    """A rooted tree over terms; every term has exactly one parent."""

    root: str
    _parent: dict[str, str] = field(default_factory=dict)
    _children: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._children.setdefault(self.root, [])

    def add(self, term: str, parent: str) -> None:
        """Attach ``term`` under ``parent`` (which must already exist)."""
        if term == self.root or term in self._parent:
            raise HierarchyError(f"term {term!r} already present in taxonomy")
        if parent != self.root and parent not in self._parent:
            raise HierarchyError(f"parent {parent!r} not present in taxonomy")
        self._parent[term] = parent
        self._children.setdefault(parent, []).append(term)
        self._children.setdefault(term, [])

    def __contains__(self, term: str) -> bool:
        return term == self.root or term in self._parent

    def __len__(self) -> int:
        """Number of nodes including the root."""
        return 1 + len(self._parent)

    @property
    def terms(self) -> list[str]:
        """All nodes including the root."""
        return [self.root, *self._parent.keys()]

    def parent(self, term: str) -> str | None:
        return self._parent.get(term)

    def children(self, term: str) -> list[str]:
        return list(self._children.get(term, []))

    def ancestors(self, term: str) -> list[str]:
        """Chain of parents from ``term`` (exclusive) up to the root.

        The chain ends at the root because the root is the only node with
        no parent entry.
        """
        out = []
        current = self._parent.get(term)
        while current is not None:
            out.append(current)
            current = self._parent.get(current)
        return out

    def descendants(self, term: str) -> list[str]:
        """All terms below ``term``, breadth-first."""
        out: list[str] = []
        frontier = self.children(term)
        while frontier:
            node = frontier.pop(0)
            out.append(node)
            frontier.extend(self.children(node))
        return out

    def depth(self, term: str) -> int:
        """Distance from the root (root itself has depth 0)."""
        if term == self.root:
            return 0
        return len([a for a in self.ancestors(term)])

    def max_depth(self) -> int:
        return max((self.depth(t) for t in self.terms), default=0)

    def is_ancestor(self, ancestor: str, term: str) -> bool:
        return ancestor == self.root or ancestor in self.ancestors(term)

    def as_edges(self) -> list[tuple[str, str]]:
        """(parent, child) pairs."""
        return [(p, c) for c, p in self._parent.items()]

    def validate(self) -> None:
        """Raise :class:`HierarchyError` on any structural inconsistency."""
        for term in self._parent:
            seen = {term}
            current = self._parent.get(term)
            while current is not None:
                if current in seen:
                    raise HierarchyError(f"cycle through {current!r}")
                seen.add(current)
                current = self._parent.get(current)
        for parent, kids in self._children.items():
            for child in kids:
                if self._parent.get(child) != parent:
                    raise HierarchyError(
                        f"child link {parent!r}->{child!r} without parent link"
                    )


def chain_of_layer(
    runner: TaskRunner,
    terms: list[str],
    root: str,
    *,
    similarity_model: EmbeddingModel | None = None,
    similarity_threshold: float = 0.0,
    max_layers: int = _MAX_LAYERS,
) -> Taxonomy:
    """Build a taxonomy over ``terms`` rooted at ``root``.

    Args:
        runner: LLM task interface used for the per-layer prompts.
        terms: vocabulary to organize (duplicates and the root are ignored).
        root: root concept ("data" or "entity").
        similarity_model: when given, parent assignments whose
            term/parent similarity falls below ``similarity_threshold`` are
            rejected (the SciBERT filter); rejected terms attach to the root.
        max_layers: safety bound on CoL iterations.

    The final taxonomy contains every input term exactly once.
    """
    taxonomy = Taxonomy(root=root)
    remaining: list[str] = []
    seen: set[str] = set()
    for term in terms:
        lowered = term.strip().lower()
        if lowered and lowered != root and lowered not in seen:
            seen.add(lowered)
            remaining.append(lowered)

    for _layer in range(max_layers):
        if not remaining:
            break
        response = runner.taxonomy_layer(root, taxonomy.terms, remaining)
        progress = False
        placed: set[str] = set()
        for term, parent in response.assignments:
            term = term.lower()
            parent = parent.lower() if parent != root else parent
            if term in taxonomy or term in placed or term not in seen:
                continue
            if (
                similarity_model is not None
                and parent != root
                and similarity_model.similarity(term, parent) < similarity_threshold
            ):
                parent = root  # filtered: fall back rather than force a bad link
            if parent not in taxonomy:
                # The LLM proposed a new intermediate category; it becomes a
                # first-layer node (this is how "personal data" etc. enter).
                taxonomy.add(parent, root)
            taxonomy.add(term, parent)
            placed.add(term)
            progress = True
        remaining = [t for t in remaining if t not in placed]
        if not progress:
            break

    # Everything still unplaced attaches to the root: the guarantee that all
    # terms are incorporated.
    for term in remaining:
        if term not in taxonomy:
            taxonomy.add(term, root)
    taxonomy.validate()
    return taxonomy

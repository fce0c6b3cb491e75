"""Seeded workload inputs.

Every workload draws its inputs from a fixed catalog built from the
model's own vocabulary in sorted order (set iteration follows
``PYTHONHASHSEED``, sorted lists do not), with fixed shares of repeats.
The ``--seed`` orders the inputs and places the repeats (and, for
``serve``, times the arrivals).  So every seed does the same distinct work
and the same cache-answered work, only in a different order: run-to-run
differences come from the host, not from which inputs a seed happened to
draw.  The program receives only the generated strings.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.core.graphs import NODE_DATA, NODE_ENTITY

#: Sorted-vocabulary terms used in questions: plain words only, at most
#: three of them (long extracted phrases are sentence fragments, not data
#: types a user would ask about).
_TERM_RE = re.compile(r"^[a-z]+(?: [a-z]+){0,2}$")


def _terms(names) -> list[str]:
    return sorted(n for n in names if _TERM_RE.match(n))


def _spread(items: list[str], count: int, offset: int = 0) -> list[str]:
    """``count`` items spread evenly over ``items`` (deterministic)."""
    step = max(1, len(items) // count)
    return [items[(offset + i * step) % len(items)] for i in range(count)]


@dataclass(frozen=True, slots=True)
class Question:
    """One catalog question with its paraphrase (a question form)."""

    template: str
    text: str
    paraphrase: str


def audit_catalog(model, per_template: int) -> list[Question]:
    """Distinct questions templated from the model's data/entity vocabulary."""
    company = model.company
    data = _terms(model.graph.nodes_of_kind(NODE_DATA))
    entities = [
        e
        for e in _terms(model.graph.nodes_of_kind(NODE_ENTITY))
        if e not in ("user", "platform", company.lower())
    ]
    catalog = []
    for d in _spread(data, per_template, 0):
        catalog.append(
            Question("collect", f"{company} collects the {d}.", f"Does {company} collect my {d}?")
        )
    for d, e in zip(_spread(data, per_template, 1), _spread(entities, per_template, 0)):
        catalog.append(
            Question(
                "share",
                f"{company} shares the {d} with {e}.",
                f"Does {company} share my {d} with {e}?",
            )
        )
    for d in _spread(data, per_template, 2):
        catalog.append(
            Question("use", f"{company} uses the {d}.", f"Does {company} use my {d}?")
        )
    for d, e in zip(_spread(data, per_template, 3), _spread(entities, per_template, 5)):
        catalog.append(
            Question(
                "sell",
                f"{company} sells the {d} to {e}.",
                f"Does {company} sell my {d} to {e}?",
            )
        )
    unique: dict[str, Question] = {}
    for question in catalog:
        unique.setdefault(question.text, question)
    return list(unique.values())


@dataclass(frozen=True, slots=True)
class StreamItem:
    """One operation of a question stream."""

    kind: str  # "first" | "repeat" | "paraphrase"
    index: int  # catalog index
    text: str


def question_stream(
    catalog: list[Question], rng: random.Random, *, repeats: int, paraphrases: int
) -> list[StreamItem]:
    """The catalog in seeded order, with exact repeats and paraphrases
    inserted at seeded places after their first occurrence.

    Which entries repeat is fixed (spread over the catalog), so every seed
    asks the same multiset of questions; the seed only orders them.
    """
    order = list(range(len(catalog)))
    rng.shuffle(order)
    stream = [StreamItem("first", i, catalog[i].text) for i in order]
    n = len(catalog)
    extra = [("repeat", (i * n) // repeats) for i in range(repeats)] + [
        ("paraphrase", (i * n) // paraphrases + n // (2 * paraphrases))
        for i in range(paraphrases)
    ]
    for kind, index in extra:
        text = catalog[index].text if kind == "repeat" else catalog[index].paraphrase
        first = next(p for p, item in enumerate(stream) if item.index == index)
        stream.insert(rng.randint(first + 1, len(stream)), StreamItem(kind, index, text))
    return stream


def fleet_questions(count: int) -> list[str]:
    """Company-agnostic questions ("The company ...") for minted fleets."""
    from repro.corpus.clauses import PARTNERS, USER_PROVIDED_DATA

    data = _terms(USER_PROVIDED_DATA)
    partners = _terms(PARTNERS)
    templates = (
        lambda i: f"The company collects the {data[i * 5 % len(data)]}.",
        lambda i: f"The company shares the {data[(i * 7 + 3) % len(data)]} with "
        f"{partners[i * 3 % len(partners)]}.",
        lambda i: f"The company sells the {data[(i * 11 + 1) % len(data)]} to "
        f"{partners[(i * 5 + 2) % len(partners)]}.",
        lambda i: f"The company uses the {data[(i * 13 + 4) % len(data)]}.",
    )
    return [templates[i % len(templates)](i // len(templates)) for i in range(count)]


@dataclass(slots=True)
class ServeSchedule:
    """The request mix for the daemon: (company, question) pairs."""

    pairs: list[tuple[str, str]]
    arrivals: list[float] = field(default_factory=list)  # open loop only

    def repeat_share(self) -> float:
        seen: set = set()
        repeats = 0
        for pair in self.pairs:
            repeats += pair in seen
            seen.add(pair)
        return repeats / len(self.pairs) if self.pairs else 0.0

    def share_to(self, companies) -> float:
        wanted = set(companies)
        return sum(c in wanted for c, _q in self.pairs) / len(self.pairs) if self.pairs else 0.0


def serve_block(
    size: int,
    *,
    hot: list[str],
    questions: list[str],
    scan_share: float,
    zipf_s: float = 1.0,
) -> list[tuple[str | None, str]]:
    """A fixed multiset of ``size`` (company, question) pairs.

    ``scan_share`` of the pairs are scan slots (company ``None``, filled in
    by :func:`serve_sequence`); the rest go to the ``hot`` companies by
    Zipf popularity in sorted order, each company's requests cycling
    through the questions.  Counts are exact (largest remainder), so every
    block carries the same work.
    """
    n_scan = round(size * scan_share)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(hot))]
    pairs: list[tuple[str | None, str]] = []
    for offset, (company, quota) in enumerate(zip(hot, _apportion(size - n_scan, weights))):
        for n in range(quota):
            pairs.append((company, questions[(offset + n) % len(questions)]))
    pairs += [(None, "")] * n_scan
    return pairs


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Integer shares of ``total`` proportional to ``weights``."""
    if not weights:
        return []
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def serve_sequence(
    rng: random.Random,
    block: list[tuple[str | None, str]],
    count: int,
    *,
    scan: list[str],
    questions: list[str],
) -> list[tuple[str, str]]:
    """``count`` pairs: the block repeated, each copy in seeded order.

    The scan slots take the ``scan`` companies in turn over the whole
    sequence, each asking the questions in turn: every scan request asks
    for the scan company asked longest ago.  With more scan companies than
    the warm slots the hot companies leave free, that company has always
    been evicted, so the share of scan slots is the share of cold loads.
    """
    stream: list[tuple[str, str]] = []
    turn = 0
    while len(stream) < count:
        copy = list(block)
        rng.shuffle(copy)
        for company, question in copy:
            if company is None:
                company = scan[turn % len(scan)]
                question = questions[(turn // len(scan)) % len(questions)]
                turn += 1
            stream.append((company, question))
    return stream[:count]


def paced_arrivals(
    rng: random.Random, rate: float, count: int, jitter: float = 0.35
) -> list[float]:
    """``count`` seeded arrival offsets at ``rate`` per second: request
    ``k`` is due at ``(k + 0.5 + u) / rate`` with ``u`` uniform in
    ``[-jitter, jitter]``.

    Paced rather than Poisson: with Poisson bursts, which requests queue
    behind a cold load is a property of the draw, and the p95 of one run
    moved by about 13% between bootstrap resamples of its own requests.
    Paced arrivals keep two requests at least ``(1 - 2 * jitter) / rate``
    apart, so a request queues only behind a slow one, and a slower
    daemon still shows as queueing.
    """
    return [(k + 0.5 + rng.uniform(-jitter, jitter)) / rate for k in range(count)]

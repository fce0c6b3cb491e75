"""Deterministic rule-based backend implementing the LLM protocol.

``SimulatedLLM.complete`` receives exactly the prompt strings a real model
would receive (rendered by :mod:`repro.llm.prompts`), dispatches on the
machine-readable task header, runs a rule-based handler built on
:mod:`repro.nlp` plus the world-knowledge tables in
:mod:`repro.llm.knowledge`, and returns a JSON completion of the documented
shape.  Swapping in a live API client requires no pipeline changes.
"""

from __future__ import annotations

import json
import re

from repro.errors import LLMError
from repro.llm import knowledge
from repro.llm.prompts import extract_payload, task_name
from repro.nlp.chunker import expand_coordination, is_data_phrase
from repro.nlp.lexicon import COLLECTION_VERBS, SHARING_VERBS
from repro.nlp.morphology import singularize_noun, singularize_phrase
from repro.nlp.patterns import ENTITY_PATTERNS, find_main_verbs, split_conditions
from repro.nlp.tokenizer import sentences, tokenize

_MAX_ITEMS_PER_VERB = 10

_NEGATION_RE = re.compile(
    r"\b(?:do(?:es)? not|will not|won'?t|never|shall not|don'?t)\b", re.IGNORECASE
)
# "not limited to" is boilerplate, not a denial.
_FALSE_NEGATION_RE = re.compile(r"\bnot limited to\b", re.IGNORECASE)

_LEADING_PARTICLES = frozenset(
    {
        "to",
        "that",
        "which",
        "who",
        "also",
        "then",
        "otherwise",
        "may",
        "will",
        "and",
        "or",
        "of",
        "the",
        "a",
        "an",
        "some",
        "all",
        "following",
        "your",
        "my",
        "their",
        "his",
        "her",
        "its",
        "our",
        "certain",
        "such",
        "other",
        "any",
        "as",
        "through",
        "via",
        "within",
        "using",
        "including",
    }
)

_COMPANY_PATTERNS = (
    re.compile(r"([A-Z][A-Za-z0-9&]+(?:\s+[A-Z][A-Za-z0-9&]+)*)\s+Privacy Policy"),
    re.compile(r'([A-Z][A-Za-z0-9&]+)\s*\(\s*[\"“](?:we|us|our)[\"”]'),
    re.compile(r"(?:Welcome to|provided by|operated by|offered by)\s+([A-Z][A-Za-z0-9&]+)"),
    re.compile(r"([A-Z][A-Za-z0-9&]+)(?:,)?\s+(?:Inc|Ltd|LLC|Corp)\b"),
)

_GENERIC_CAPITALS = frozenset(
    {
        "This",
        "The",
        "We",
        "Our",
        "Privacy",
        "Policy",
        "Last",
        "Updated",
        "Effective",
        "Date",
        "Welcome",
        "Please",
        "If",
        "When",
        "You",
        "Your",
    }
)


class SimulatedLLM:
    """Offline completion engine for the tasks in :mod:`repro.llm.prompts`."""

    def __init__(self) -> None:
        self._handlers = {
            "extract_company_name": self._handle_company_name,
            "resolve_coreferences": self._handle_coreferences,
            "extract_parameters": self._handle_extract_parameters,
            "taxonomy_layer": self._handle_taxonomy_layer,
            "semantic_equivalence": self._handle_equivalence,
        }

    def complete(self, prompt: str) -> str:
        task = task_name(prompt)
        handler = self._handlers.get(task)
        if handler is None:
            raise LLMError(f"simulated backend has no handler for task {task!r}")
        return handler(prompt)

    # ------------------------------------------------------------------
    # Company name
    # ------------------------------------------------------------------

    def _handle_company_name(self, prompt: str) -> str:
        text = extract_payload(prompt, "TEXT")
        for pattern in _COMPANY_PATTERNS:
            match = pattern.search(text)
            if match:
                return json.dumps({"company": match.group(1).strip()})
        # Fallback: first distinctive capitalized token.
        for token in tokenize(text):
            if (
                token.is_word
                and token.text[0].isupper()
                and token.text not in _GENERIC_CAPITALS
                and len(token.text) > 2
            ):
                return json.dumps({"company": token.text})
        return json.dumps({"company": "the company"})

    # ------------------------------------------------------------------
    # Coreference resolution
    # ------------------------------------------------------------------

    def _handle_coreferences(self, prompt: str) -> str:
        company = _header_value(prompt, "Company name: ")
        text = extract_payload(prompt, "TEXT")
        resolved = resolve_first_person(text, company)
        return json.dumps({"resolved": resolved})

    # ------------------------------------------------------------------
    # Semantic parameter extraction
    # ------------------------------------------------------------------

    def _handle_extract_parameters(self, prompt: str) -> str:
        company = _header_value(prompt, "The policy belongs to the company: ")
        statement = extract_payload(prompt, "STATEMENT")
        practices = extract_practices(statement, company)
        return json.dumps({"practices": practices})

    # ------------------------------------------------------------------
    # Chain-of-Layer taxonomy induction
    # ------------------------------------------------------------------

    def _handle_taxonomy_layer(self, prompt: str) -> str:
        root = _header_value(prompt, "Root concept: ")
        existing = [
            line.strip()
            for line in extract_payload(prompt, "EXISTING").splitlines()
            if line.strip()
        ]
        remaining = [
            line.strip()
            for line in extract_payload(prompt, "REMAINING").splitlines()
            if line.strip()
        ]
        assignments = _taxonomy_assignments(root, existing, remaining)
        return json.dumps(
            {"assignments": [{"term": t, "parent": p} for t, p in assignments]}
        )

    # ------------------------------------------------------------------
    # Semantic equivalence
    # ------------------------------------------------------------------

    def _handle_equivalence(self, prompt: str) -> str:
        term_a = extract_payload(prompt, "TERM_A")
        term_b = extract_payload(prompt, "TERM_B")
        return json.dumps({"equivalent": terms_equivalent(term_a, term_b)})


# ---------------------------------------------------------------------------
# Handler implementations (module-level so they are independently testable)
# ---------------------------------------------------------------------------


def _header_value(prompt: str, prefix: str) -> str:
    for line in prompt.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :].strip()
    raise LLMError(f"prompt is missing header {prefix!r}")


def resolve_first_person(text: str, company: str) -> str:
    """Replace we/us/our (case-sensitively lower/title) with the company."""
    possessive = company + "'s"
    text = re.sub(r"\b[Oo]urs\b", possessive, text)
    text = re.sub(r"\b[Oo]ur\b", possessive, text)
    text = re.sub(r"\b[Ww]e\b", company, text)
    text = re.sub(r"\b[Uu]s\b", company, text)
    return text


def _strip_leading_particles(text: str) -> str:
    words = text.split()
    while words and words[0].lower() in _LEADING_PARTICLES:
        words = words[1:]
    return " ".join(words)


def _sender_from_region(region: str, company: str) -> str | None:
    """Resolve the acting subject named in ``region``.

    When several candidates appear ("... your photos, and MetaBook
    collects ..."), the one closest to the verb — i.e. the last mention —
    is the grammatical subject.
    """
    lowered = region.lower()
    candidates: list[tuple[int, str]] = []
    for match in re.finditer(r"\b(?:you|your|users?)\b", lowered):
        candidates.append((match.start(), "user"))
    for match in re.finditer(re.escape(company.lower()), lowered):
        candidates.append((match.start(), company))
    for entity, pattern in ENTITY_PATTERNS:
        for match in pattern.finditer(lowered):
            candidates.append((match.start() + len(entity) - 1, entity))
    if not candidates:
        return None
    # Last mention wins; at the same end position the longer phrase wins
    # ("content moderators" over "moderators"), with an alphabetical
    # tiebreak so the result never depends on set iteration order.
    return max(candidates, key=lambda c: (c[0], len(c[1]), c[1]))[1]


_RECEIVER_SPLIT_RE = re.compile(r"\b(?:with|to)\s+", re.IGNORECASE)
_FROM_SOURCE_RE = re.compile(r"\bfrom\s+((?:[\w'’-]+\s*){1,5})", re.IGNORECASE)

# Trailing adverbials that modify the clause, not the object noun phrase.
_TRAILING_ADVERBIAL_RE = re.compile(
    r"\s+(?:directly\b.*|each time\b.*|whenever\b.*|at any time\b.*"
    r"|using encryption\b.*|on servers\b.*|through your account settings\b.*"
    r"|by contacting\b.*|in transit\b.*)$",
    re.IGNORECASE,
)

# Purpose infinitives after non-sharing verbs: "use X to personalize ...".
_PURPOSE_INFINITIVE_RE = re.compile(
    r"\s+to\s+(?!us\b|you\b|them\b|the\b|your\b)[a-z][\w'’-]*\b.*$",
    re.IGNORECASE,
)


def _receiver_in_region(region: str, company: str) -> tuple[str | None, str]:
    """Receiver named in a verb's own object region.

    Returns (receiver, data_region): the entity found in the with/to
    complement, and the region truncated so data items are taken only from
    before the complement.
    """
    split = _RECEIVER_SPLIT_RE.split(region, maxsplit=1)
    if len(split) != 2:
        return None, region
    data_region, complement = split
    lowered = complement.lower()
    for entity, pattern in ENTITY_PATTERNS:  # longest first
        if pattern.search(lowered):
            return entity, data_region
    if re.search(r"\b(?:you|your|users?)\b", lowered):
        return "user", data_region
    if company.lower() in lowered:
        return company, data_region
    # Unknown receiver phrase: keep the first noun phrase of the complement.
    candidate = _strip_leading_particles(complement.strip(" ,"))
    first_np = candidate.split(",")[0].strip()
    if first_np and len(first_np.split()) <= 5:
        return first_np.lower(), data_region
    return None, region


def _object_items(region: str, company: str) -> list[str]:
    """Coordinated object noun phrases, cleaned and singularized."""
    region = _strip_leading_particles(region.strip(" ,"))
    if not region:
        return []
    items = expand_coordination(region)
    cleaned: list[str] = []
    for item in items:
        item = _strip_leading_particles(item)
        if not item:
            continue
        if len(item.split()) > 8:
            # Over-long captures are clause fragments, not noun phrases;
            # keep the trailing NP which carries the head noun.
            item = _strip_leading_particles(" ".join(item.split()[-4:]))
            if not item:
                continue
        cleaned.append(item)
        if len(cleaned) >= _MAX_ITEMS_PER_VERB:
            break
    return cleaned


def _practice(
    sender: str,
    receiver: str | None,
    data_type: str,
    action: str,
    condition: str | None,
    permission: bool,
) -> dict[str, object]:
    return {
        "sender": sender,
        "receiver": receiver,
        "subject": "user",
        "data_type": singularize_phrase(data_type),
        "action": action,
        "condition": condition,
        "permission": permission,
    }


def _extract_from_clause(
    clause: str, company: str, condition: str | None, permission: bool
) -> list[dict[str, object]]:
    """Extract one practice per (verb, object item) from a single clause."""
    verbs = find_main_verbs(clause)
    if not verbs:
        return _enumeration_fallback(clause, condition)
    tokens = tokenize(clause)

    # Character spans delimited by verb token positions.
    boundaries = [i for i, _ in verbs]
    practices: list[dict[str, object]] = []
    sender_carry: str | None = None
    object_regions: list[str] = []
    for pos, (tok_index, _base) in enumerate(verbs):
        start_char = tokens[tok_index].end
        if pos + 1 < len(verbs):
            end_char = tokens[verbs[pos + 1][0]].start
        else:
            end_char = len(clause)
        object_regions.append(clause[start_char:end_char])

    # Coordinated verbs share the next non-empty object region.
    for pos in range(len(object_regions) - 1, -1, -1):
        stripped = object_regions[pos].strip(" ,")
        if stripped.lower() in {"", "and", "or", "and collect", ","}:
            if stripped.lower() in {"", "and", "or", ","} and pos + 1 < len(
                object_regions
            ):
                object_regions[pos] = object_regions[pos + 1]

    for pos, (tok_index, base) in enumerate(verbs):
        prev_end = tokens[boundaries[pos - 1]].end if pos > 0 else 0
        subject_region = clause[prev_end : tokens[tok_index].start]
        # A region that trails off in a coordinator ("..., or otherwise")
        # belongs to the previous verb's object; the verbs share a subject.
        coordinated = pos > 0 and subject_region.rstrip().lower().endswith(
            ("or", "and", "otherwise", ",")
        )
        if coordinated and sender_carry is not None:
            sender = sender_carry
        else:
            sender = _sender_from_region(subject_region, company) or sender_carry
        if sender is None:
            sender = company
        sender_carry = sender

        region = object_regions[pos]
        # "request that <clause>": the complement is an embedded clause, not
        # an object noun phrase — extract from it recursively.
        embedded = region.strip(" ,")
        if embedded.lower().startswith("that ") and pos == len(verbs) - 1:
            practices.extend(
                _extract_from_clause(embedded[5:], company, condition, permission)
            )
            continue
        receiver: str | None = None
        if base in SHARING_VERBS:
            # Receiver complement first ("... directly to us"), then drop
            # clause-level adverbials from the data region.
            receiver, region = _receiver_in_region(region, company)
            region = _TRAILING_ADVERBIAL_RE.sub("", region)
        else:
            region = _TRAILING_ADVERBIAL_RE.sub("", region)
            region = _PURPOSE_INFINITIVE_RE.sub("", region)
        if base == "receive":
            source = _FROM_SOURCE_RE.search(region)
            if source:
                source_entity = _sender_from_region(source.group(1), company)
                if source_entity:
                    receiver = sender
                    sender = source_entity
                region = region[: source.start()]
        elif base in COLLECTION_VERBS:
            # "collect X from your device / from partners": the from-phrase
            # names the source, not the data.
            source = _FROM_SOURCE_RE.search(region)
            if source:
                region = region[: source.start()]

        for item in _object_items(region, company):
            practices.append(
                _practice(sender, receiver, item, base, condition, permission)
            )
    return _dedupe(practices)


def _enumeration_fallback(
    clause: str, condition: str | None
) -> list[dict[str, object]]:
    """Verbless enumeration segments become user-provide practices.

    Policies list data types under a heading ("Account and profile
    information, such as name, age, ...").  The paper expands these into one
    [user]-provide->[item] edge per item.
    """
    items = expand_coordination(clause)
    practices = []
    for item in items:
        if is_data_phrase(item):
            practices.append(_practice("user", None, item, "provide", condition, True))
    return practices


def extract_practices(statement: str, company: str) -> list[dict[str, object]]:
    """Full extraction: every data practice in ``statement``.

    Conditional lead-in clauses that themselves describe user actions ("When
    you create an account, ...") contribute practices of their own, exactly
    as the paper's Table 2 shows.
    """
    all_practices: list[dict[str, object]] = []
    for sentence in sentences(statement):
        split = split_conditions(sentence)
        negated = bool(_NEGATION_RE.search(split.main)) and not _FALSE_NEGATION_RE.search(
            split.main
        )
        condition_parts = [c for c in split.conditions + split.purposes if c]
        condition = " AND ".join(condition_parts) if condition_parts else None
        all_practices.extend(
            _extract_from_clause(split.main, company, condition, not negated)
        )
        for clause in split.conditions:
            clause_body = re.sub(
                r"^(?:if|when|whenever|where|unless|once|after|before|upon)\s+",
                "",
                clause,
                flags=re.IGNORECASE,
            )
            all_practices.extend(
                _extract_from_clause(clause_body, company, None, True)
            )
    return _dedupe(all_practices)


def _dedupe(practices: list[dict[str, object]]) -> list[dict[str, object]]:
    seen: set[tuple[object, ...]] = set()
    unique = []
    for p in practices:
        key = (p["sender"], p["receiver"], p["data_type"], p["action"], p["condition"], p["permission"])
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


# ---------------------------------------------------------------------------
# Taxonomy induction
# ---------------------------------------------------------------------------


def _head_of(term: str) -> str:
    words = term.lower().split()
    if not words:
        return term
    if "of" in words and words.index("of") > 0:
        return singularize_noun(words[words.index("of") - 1])
    return singularize_noun(words[-1])


def _seed_category(term: str) -> str | None:
    """Which data seed category contains ``term``?

    Exact and two-word-tail matches take priority over bare head-noun
    matches so that "ip address" lands under technical data even though
    "address" alone is a personal-data member.
    """
    lowered = singularize_phrase(term.lower())
    head = _head_of(term)
    tail2 = " ".join(lowered.split()[-2:])
    for category, members in knowledge.SEED_SUBSUMPTION.items():
        if lowered in members or tail2 in members:
            return category
    for category, members in knowledge.SEED_SUBSUMPTION.items():
        if head in members:
            return category
    return None


def _suffix_parent(term: str, candidates: set[str]) -> str | None:
    """Most specific candidate that ``term`` lexically specializes.

    Three specialization patterns count: a strict suffix ("gps location
    data" under "location data"), added modifiers with the same head
    ("precise location information" under "location information"), and a
    neutral head suffix ("email address" under "email").
    """
    lowered = term.lower()
    words = lowered.split()
    stripped = _strip_neutral_suffix(lowered)
    best: str | None = None
    for cand in candidates:
        if cand == lowered:
            continue
        cwords = cand.split()
        if not cwords or len(cwords) >= len(words):
            continue
        same_head = _head_of(cand) == _head_of(lowered)
        if (
            lowered.endswith(" " + cand)
            or (same_head and set(cwords) < set(words))
            or (stripped != lowered and stripped == cand)
        ):
            # Longest candidate wins; alphabetical tiebreak keeps the
            # choice independent of set iteration (hash) order.
            if best is None or (len(cand), cand) > (len(best), best):
                best = cand
    return best


def _taxonomy_assignments(
    root: str, existing: list[str], remaining: list[str]
) -> list[tuple[str, str]]:
    """One Chain-of-Layer step: assign direct children of existing nodes.

    Terms whose natural parent is itself still unassigned are deferred to a
    later layer, which is what makes the construction layer-by-layer.
    """
    existing_set = {e.lower() for e in existing}
    remaining_set = {r.lower() for r in remaining}
    assignments: list[tuple[str, str]] = []
    for term in remaining:
        lowered = term.lower()
        parent_in_remaining = _suffix_parent(lowered, remaining_set)
        if parent_in_remaining:
            # Defer: the more specific parent must enter the taxonomy first.
            continue
        parent = _suffix_parent(lowered, existing_set)
        if parent is None:
            parent = _seed_category(term)
        if parent is None:
            parent = root
        assignments.append((term, parent))
    return assignments


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


def _strip_neutral_suffix(term: str) -> str:
    words = term.split()
    while len(words) > 1 and singularize_noun(words[-1]) in {
        singularize_noun(s) for s in knowledge.NEUTRAL_SUFFIXES
    }:
        words = words[:-1]
    return " ".join(words)


def terms_equivalent(term_a: str, term_b: str) -> bool:
    """Privacy-context equivalence as an LLM judge would answer it."""
    a = singularize_phrase(term_a.lower().strip())
    b = singularize_phrase(term_b.lower().strip())
    if a == b:
        return True
    group_a = knowledge.synonym_set_of(a)
    if group_a and b in group_a:
        return True
    stripped_a = _strip_neutral_suffix(a)
    stripped_b = _strip_neutral_suffix(b)
    if stripped_a == stripped_b:
        return True
    group_sa = knowledge.synonym_set_of(stripped_a)
    if group_sa and stripped_b in group_sa:
        return True
    # Lenient subsumption-as-equivalence: same head noun and one modifier
    # set contains the other ("location information" ~ "precise location
    # information").  The paper's verification step is deliberately lenient
    # because false negatives hide policy statements from queries.  Bare
    # category nouns ("information", "data") are excluded: everything is a
    # kind of information, so the rule would otherwise collapse the space.
    if a in knowledge.NEUTRAL_SUFFIXES or b in knowledge.NEUTRAL_SUFFIXES:
        return False
    # Compare modulo neutral suffixes so "location information" matches
    # "precise location" the way "location" would.
    words_a, words_b = set(stripped_a.split()), set(stripped_b.split())
    if _head_of(stripped_a) == _head_of(stripped_b) and (
        words_a <= words_b or words_b <= words_a
    ):
        return True
    return False

"""Full round-trip between a :class:`PolicyModel` and artifact payloads.

A model snapshot is a set of named byte payloads, one per pipeline
artifact, each hashed individually in the snapshot manifest:

========================  =====================================================
``meta.json``             company, revision, vocabulary, generator provenance
``segments.json``         Phase 1 segmentation with content-hash ids
``practices.json``        extracted practices grouped by segment (in order)
``data_taxonomy.json``    G_DD as ordered (parent, child) edges
``graph.json``            every materialized practice edge, insertion order
``embeddings.bin``        the embedding store: a JSON header (keys, dim, model
                          name, subword weight) then the raw ``<f8`` matrix
========================  =====================================================

That is snapshot format version 3, the only one written.  Versions 1
and 2 are read, never written.  Both also held ``entity_taxonomy.json``,
an entity hierarchy (G_ED) that no verdict read; the snapshot store
still hashes it against the manifest, and :func:`model_from_artifacts`
never decodes it.  Version 1 stored the embeddings as ``embeddings.npz``,
a zip of ``.npy`` arrays with the keys pickled and no subword weight,
which :meth:`EmbeddingStore.from_npz_bytes` decodes.

The snapshot store hands :func:`model_from_artifacts` the very bytes it
hashed against the manifest; nothing here reads a file.  Deserialization
*replays* rather than trusts: taxonomies are rebuilt through
:meth:`Taxonomy.add` (which rejects cycles and dangling parents) and the
graph edges in one :meth:`PolicyGraph.restore_edges` call (which rebuilds
node kinds and segment provenance).  A practice keeps no position of its
own: ``practices.json`` still stores each one's ``segment_index`` and
``section``, joined from its segment, and the loader checks them against
``segments.json``.  So a payload that hashes correctly
but is structurally inconsistent still fails the load instead of
producing a silently broken model.  All structural failures surface as
:class:`~repro.errors.SnapshotCorruptionError`.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.core.extraction import ExtractionResult
from repro.core.hierarchy import Taxonomy
from repro.core.graphs import PolicyGraph, PracticeEdge
from repro.core.parameters import AnnotatedPractice
from repro.core.pipeline import PolicyModel
from repro.core.segmenter import Segment
from repro.embeddings.store import EmbeddingStore
from repro.errors import ReproError, SnapshotCorruptionError
from repro.llm.tasks import ExtractedParameters

EMBEDDINGS_ARTIFACT = "embeddings.bin"
V1_EMBEDDINGS_ARTIFACT = "embeddings.npz"
#: Listed and hashed by format versions 1 and 2, never decoded.
OLD_ENTITY_TAXONOMY = "entity_taxonomy.json"
_JSON_ARTIFACTS = (
    "meta.json",
    "segments.json",
    "practices.json",
    "data_taxonomy.json",
    "graph.json",
)
#: Artifact names in write order; the manifest hashes each one.
MODEL_ARTIFACTS = (*_JSON_ARTIFACTS, EMBEDDINGS_ARTIFACT)
#: The artifact sets of format versions 2 and 1 (read, never written).
V2_MODEL_ARTIFACTS = (*_JSON_ARTIFACTS, OLD_ENTITY_TAXONOMY, EMBEDDINGS_ARTIFACT)
V1_MODEL_ARTIFACTS = (*_JSON_ARTIFACTS, OLD_ENTITY_TAXONOMY, V1_EMBEDDINGS_ARTIFACT)


def _json_bytes(obj: object) -> bytes:
    return json.dumps(obj, indent=1, sort_keys=False).encode("utf-8")


# ---------------------------------------------------------------------------
# Model -> artifacts
# ---------------------------------------------------------------------------


def _taxonomy_payload(taxonomy: Taxonomy) -> dict[str, object]:
    return {"root": taxonomy.root, "edges": [list(e) for e in taxonomy.as_edges()]}


def _edge_payload(edge: PracticeEdge) -> dict[str, object]:
    return {
        "source": edge.source,
        "action": edge.action,
        "target": edge.target,
        "receiver": edge.receiver,
        "condition": edge.condition,
        "permission": edge.permission,
        "segment_id": edge.segment_id,
        "vague_terms": [list(v) for v in edge.vague_terms],
        "derived": edge.derived,
    }


def model_artifacts(model: PolicyModel) -> dict[str, bytes]:
    """Serialize every component of ``model`` to named byte payloads."""
    extraction = model.extraction
    by_id = {segment.segment_id: segment for segment in extraction.segments}
    meta: dict[str, object] = {
        "company": model.company,
        "revision": model.revision,
        "vocabulary": sorted(model.node_vocabulary),
    }
    # Generated-corpus ground truth travels with the snapshot; the key is
    # omitted (not nulled) for real-policy models so their meta payload is
    # byte-identical to pre-provenance snapshots.
    if model.provenance is not None:
        meta["provenance"] = model.provenance
    return {
        "meta.json": _json_bytes(meta),
        "segments.json": _json_bytes(
            [
                {
                    "segment_id": s.segment_id,
                    "text": s.text,
                    "index": s.index,
                    "section": s.section,
                }
                for s in extraction.segments
            ]
        ),
        "practices.json": _json_bytes(
            {
                segment_id: [p.as_dict(by_id[segment_id]) for p in practices]
                for segment_id, practices in extraction.practices_by_segment.items()
            }
        ),
        "data_taxonomy.json": _json_bytes(_taxonomy_payload(model.data_taxonomy)),
        "graph.json": _json_bytes(
            {
                "company": model.graph.company,
                "edges": [_edge_payload(e) for e in model.graph.edges()],
            }
        ),
        EMBEDDINGS_ARTIFACT: model.store.to_bytes(),
    }


# ---------------------------------------------------------------------------
# Artifacts -> model
# ---------------------------------------------------------------------------


#: Failures of the interpreter rather than of the bytes being decoded.
#: Everything else a decoder raises is the payload's fault: numpy and
#: zipfile alone raise ``ValueError``, ``zlib.error``, ``EOFError``,
#: ``tokenize.TokenError``, ``NotImplementedError`` and ``RuntimeError``
#: on damaged archives.
_INTERPRETER_ERRORS = (MemoryError, RecursionError, SystemError)


def _parse_json(payloads: Mapping[str, bytes], name: str) -> object:
    try:
        return json.loads(payloads[name].decode("utf-8"))
    except KeyError:
        raise SnapshotCorruptionError(f"snapshot artifact {name!r} is missing") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotCorruptionError(f"artifact {name!r} is not valid JSON: {exc}") from exc


def _restore_taxonomy(raw: object, name: str) -> Taxonomy:
    try:
        taxonomy = Taxonomy(root=str(raw["root"]))
        for parent, child in raw["edges"]:
            taxonomy.add(str(child), str(parent))
        taxonomy.validate()
        return taxonomy
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(f"artifact {name!r} is inconsistent: {exc}") from exc


def _restore_practice(
    raw: dict[str, object], segment_id: str, segments: Mapping[str, Segment]
) -> AnnotatedPractice:
    """One practice of segment ``segment_id``, whose stored position must
    be that segment's in ``segments.json``."""
    segment = segments.get(segment_id)
    if segment is None:
        raise SnapshotCorruptionError(
            f"practices.json names segment {segment_id!r}, "
            "which segments.json does not hold"
        )
    stored = (
        str(raw["segment_id"]),
        int(raw["segment_index"]),
        str(raw.get("section", "")),
    )
    if stored != (segment_id, segment.index, segment.section):
        raise SnapshotCorruptionError(
            f"practices.json places a practice of segment {segment_id!r} at "
            f"{stored}; segments.json has {(segment.index, segment.section)}"
        )
    return AnnotatedPractice(
        params=ExtractedParameters.from_dict(raw),
        segment_id=segment_id,
        opp115_categories=tuple(str(c) for c in raw.get("opp115_categories", [])),
        vague_terms=tuple(
            (str(phrase), str(pred)) for phrase, pred in raw.get("vague_terms", [])
        ),
    )


def _restore_edge(raw: dict[str, object]) -> PracticeEdge:
    return PracticeEdge(
        source=str(raw["source"]),
        action=str(raw["action"]),
        target=str(raw["target"]),
        receiver=None if raw.get("receiver") is None else str(raw["receiver"]),
        condition=None if raw.get("condition") is None else str(raw["condition"]),
        permission=bool(raw["permission"]),
        segment_id=str(raw["segment_id"]),
        vague_terms=tuple(
            (str(phrase), str(pred)) for phrase, pred in raw.get("vague_terms", [])
        ),
        derived=bool(raw.get("derived", False)),
    )


def model_from_artifacts(payloads: Mapping[str, bytes]) -> PolicyModel:
    """Reconstruct a :class:`PolicyModel` from :func:`model_artifacts` output.

    ``payloads`` is a :data:`MODEL_ARTIFACTS` set, or a
    :data:`V2_MODEL_ARTIFACTS` or :data:`V1_MODEL_ARTIFACTS` set, whose
    entity taxonomy is not decoded.

    Raises :class:`~repro.errors.SnapshotCorruptionError` on any missing,
    unparsable, or structurally inconsistent payload.  A failure of the
    interpreter while decoding (a transient ``SystemError``,
    ``MemoryError`` or ``RecursionError``) propagates unchanged: it says
    nothing about the bytes, so it must not get a hash-valid snapshot
    quarantined.
    """
    meta = _parse_json(payloads, "meta.json")
    raw_segments = _parse_json(payloads, "segments.json")
    raw_practices = _parse_json(payloads, "practices.json")
    data_taxonomy = _restore_taxonomy(
        _parse_json(payloads, "data_taxonomy.json"), "data_taxonomy.json"
    )
    raw_graph = _parse_json(payloads, "graph.json")

    try:
        company = str(meta["company"])
        revision = int(meta["revision"])
        vocabulary = {str(term) for term in meta["vocabulary"]}
        provenance = meta.get("provenance")
        if provenance is not None and not isinstance(provenance, dict):
            raise SnapshotCorruptionError(
                "meta.json provenance must be a JSON object"
            )

        extraction = ExtractionResult(company=company)
        extraction.segments = [
            Segment(
                segment_id=str(s["segment_id"]),
                text=str(s["text"]),
                index=int(s["index"]),
                section=str(s.get("section", "")),
            )
            for s in raw_segments
        ]
        segments = {s.segment_id: s for s in extraction.segments}
        for segment_id, entries in raw_practices.items():
            practices = [_restore_practice(p, str(segment_id), segments) for p in entries]
            extraction.practices_by_segment[str(segment_id)] = practices
            extraction.practices.extend(practices)

        graph = PolicyGraph(str(raw_graph["company"]), data_taxonomy=data_taxonomy)
        graph.restore_edges(_restore_edge(raw_edge) for raw_edge in raw_graph["edges"])

        if V1_EMBEDDINGS_ARTIFACT in payloads:
            store = EmbeddingStore.from_npz_bytes(payloads[V1_EMBEDDINGS_ARTIFACT])
        else:
            store = EmbeddingStore.from_bytes(payloads[EMBEDDINGS_ARTIFACT])
    except (SnapshotCorruptionError, *_INTERPRETER_ERRORS):
        raise
    except Exception as exc:  # noqa: BLE001 - any other decode failure is corruption
        raise SnapshotCorruptionError(f"snapshot payload inconsistent: {exc}") from exc

    return PolicyModel(
        company=company,
        extraction=extraction,
        data_taxonomy=data_taxonomy,
        graph=graph,
        store=store,
        node_vocabulary=vocabulary,
        revision=revision,
        provenance=provenance,
    )

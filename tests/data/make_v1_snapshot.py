"""Regenerate ``v1_snapshot/``, a format-version-1 snapshot store, and its digest.

The fixture pins what a snapshot written before format version 2 holds:
one minted company (``MintSpec(count=1, seed=7, target_words=(340,))``),
committed once by :class:`~repro.store.SnapshotStore`, with
``embeddings.npz`` as the embedding artifact.  ``v1_snapshot.digest.json``
records :func:`model_digest` of the model that commit loads back.
``tests/test_store_v1_compat.py`` loads the fixture with the current
reader and requires the same digest, before and after a round trip
through the current writer.

Only a commit that still writes format version 1 (``embeddings.npz`` in
the manifest) can regenerate the fixture; the current writer cannot,
and this script then refuses and leaves the fixture as it is.  The
digest helpers run anywhere.  Run from the repository root:

    PYTHONPATH=src:. python tests/data/make_v1_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent
STORE = HERE / "v1_snapshot"
DIGEST = HERE / "v1_snapshot.digest.json"


def _sha256_json(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_digest(model) -> dict[str, object]:
    """Content digest of every part a snapshot load rebuilds.

    Node order and kinds, edges in insertion order, practices, the data
    taxonomy's (parent, child) edges, embedding keys (in order) and the
    embedding matrix's little-endian float64 bytes, plus the embedding
    model's configuration.
    """
    graph = model.graph
    matrix = np.ascontiguousarray(model.store.matrix(), dtype="<f8")
    embedder = model.store.model
    return {
        "company": model.company,
        "revision": model.revision,
        "nodes": _sha256_json(
            [[name, graph.kind(name)] for name in graph.nodes()]
        ),
        "edges": _sha256_json(
            [
                [
                    e.source,
                    e.action,
                    e.target,
                    e.receiver,
                    e.condition,
                    e.permission,
                    e.segment_id,
                    [list(v) for v in e.vague_terms],
                    e.derived,
                ]
                for e in graph.edges()
            ]
        ),
        "practices": _sha256_json(model.extraction.practice_dicts()),
        "data_taxonomy": _sha256_json(
            [list(edge) for edge in model.data_taxonomy.as_edges()]
        ),
        "embedding_keys": _sha256_json(model.store.keys),
        "matrix_shape": list(matrix.shape),
        "matrix": hashlib.sha256(matrix.tobytes()).hexdigest(),
        "embedding_model": {
            "name": embedder.name,
            "dim": embedder.dim,
            "subword_weight": embedder.subword_weight,
        },
    }


def write_fixture(version: int, store: Path, digest: Path) -> int:
    """Commit the minted company to ``store`` and its digest to ``digest``.

    The commit is staged in a temporary store and checked first: when this
    commit's writer does not write format ``version``, nothing under
    ``store`` or ``digest`` is touched.
    """
    from repro import PolicyPipeline
    from repro.registry import MintSpec, PolicyRegistry
    from repro.store import SnapshotStore

    with tempfile.TemporaryDirectory() as scratch:
        registry = PolicyRegistry(Path(scratch) / "fleet", pipeline=PolicyPipeline())
        registry.mint(MintSpec(count=1, seed=7, target_words=(340,)))
        (company,) = registry.companies()
        model = registry.get_model(company)
        staged = Path(scratch) / "store"
        info = SnapshotStore(staged).commit(model)
        manifest = json.loads((info.path / "MANIFEST.json").read_text("utf-8"))
        if manifest["format_version"] != version:
            print(f"this commit does not write format version {version}; fixture not written")
            return 1
        if store.exists():
            shutil.rmtree(store)
        shutil.copytree(staged, store)
    loaded = SnapshotStore(store).load().model
    digest.write_text(
        json.dumps(model_digest(loaded), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {store} and {digest}")
    return 0


def main() -> int:
    return write_fixture(1, STORE, DIGEST)


if __name__ == "__main__":
    sys.exit(main())

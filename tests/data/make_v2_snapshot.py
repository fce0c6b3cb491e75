"""Regenerate ``v2_snapshot/``, a format-version-2 snapshot store, and its digest.

The fixture pins what a snapshot written before format version 3 holds:
the same minted company as ``v1_snapshot/``
(``MintSpec(count=1, seed=7, target_words=(340,))``), committed once by
:class:`~repro.store.SnapshotStore`, with ``embeddings.bin`` as the
embedding artifact and ``entity_taxonomy.json`` in the manifest.
``v2_snapshot.digest.json`` records ``model_digest`` of the model that
commit loads back (both helpers live in ``make_v1_snapshot.py``).
``tests/test_store_v1_compat.py`` loads the fixture with the current
reader and requires the same digest, before and after a round trip
through the current writer.

Only a commit that still writes format version 2 can regenerate the
fixture; the current writer cannot, and this script then refuses and
leaves the fixture as it is.  Run from the repository root:

    PYTHONPATH=src:. python tests/data/make_v2_snapshot.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).parent
STORE = HERE / "v2_snapshot"
DIGEST = HERE / "v2_snapshot.digest.json"


def main() -> int:
    sys.path.insert(0, str(HERE))
    from make_v1_snapshot import write_fixture

    return write_fixture(2, STORE, DIGEST)


if __name__ == "__main__":
    sys.exit(main())

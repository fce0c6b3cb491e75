"""The registry's manifest index: company -> shard -> snapshot store.

One JSON file (``REGISTRY.json``) at the registry root maps every
registered company to the shard directory holding its snapshot store,
plus the mint parameters that produced it.  The manifest is rewritten
through :func:`~repro.store.atomic.atomic_write_json` — temp file, fsync,
rename, directory fsync — so a crash at any boundary leaves the old index
or the new one, never a torn hybrid.  The write threads the same
:data:`~repro.store.atomic.StepHook` seam as the snapshot store
(``write:REGISTRY.json``, ``rename:REGISTRY.json``,
``syncdir:REGISTRY.json``), so the crash matrix in
``tests/test_registry_crash.py`` is enumerated, not hand-coded.

Ordering contract: a company's snapshot store is committed *before* its
manifest entry is written.  A crash between the two leaves an orphan
store directory (harmless; re-minting the company registers it), never a
manifest entry pointing at a store that does not exist.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import RegistryError
from repro.store.atomic import StepHook, atomic_write_json

#: Manifest file name at the registry root.
MANIFEST_NAME = "REGISTRY.json"

#: Bumped when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


def company_digest(company: str) -> str:
    """Hex sha256 of a company name: its shard and its store's suffix."""
    return hashlib.sha256(company.encode("utf-8")).hexdigest()


def shard_of(company: str, num_shards: int) -> str:
    """The company's shard: ``sha256(company) mod num_shards``, as
    ``shard-NN``.  Minting assigns it; fsck and repair check against it."""
    return f"shard-{int(company_digest(company), 16) % num_shards:02d}"


@dataclass(frozen=True, slots=True)
class RegistryEntry:
    """One registered company: where its snapshots live, how it was made."""

    company: str
    shard: str
    store_dir: str  # POSIX path relative to the registry root
    revision: int
    sector: str | None = None
    seed: int | None = None
    target_words: int | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "company": self.company,
            "shard": self.shard,
            "store_dir": self.store_dir,
            "revision": self.revision,
            "sector": self.sector,
            "seed": self.seed,
            "target_words": self.target_words,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "RegistryEntry":
        try:
            return cls(
                company=str(raw["company"]),
                shard=str(raw["shard"]),
                store_dir=str(raw["store_dir"]),
                revision=int(raw["revision"]),
                sector=None if raw.get("sector") is None else str(raw["sector"]),
                seed=None if raw.get("seed") is None else int(raw["seed"]),
                target_words=(
                    None
                    if raw.get("target_words") is None
                    else int(raw["target_words"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed manifest entry: {exc}") from exc


@dataclass(slots=True)
class Manifest:
    """The parsed index: every entry, keyed by company."""

    entries: dict[str, RegistryEntry]
    num_shards: int

    def companies(self) -> list[str]:
        return sorted(self.entries)


def read_manifest(root: str | Path, *, default_shards: int = 8) -> Manifest:
    """Read and validate ``REGISTRY.json`` under ``root``.

    A missing manifest is an empty registry (first mint creates it); a
    present-but-unparsable or structurally invalid one is an error — the
    atomic write protocol guarantees the file is never torn, so damage
    means tampering or an incompatible format, and guessing would
    silently drop companies.
    """
    path = Path(root) / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        return Manifest(entries={}, num_shards=default_shards)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RegistryError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("format_version") != FORMAT_VERSION:
        raise RegistryError(
            f"manifest {path} has unsupported format "
            f"{raw.get('format_version') if isinstance(raw, dict) else raw!r}"
        )
    companies = raw.get("companies")
    if not isinstance(companies, dict):
        raise RegistryError(f"manifest {path} has no companies table")
    entries: dict[str, RegistryEntry] = {}
    for name, entry_raw in companies.items():
        if not isinstance(entry_raw, dict):
            raise RegistryError(f"manifest entry for {name!r} is not an object")
        entry = RegistryEntry.from_dict(entry_raw)
        if entry.company != name:
            raise RegistryError(
                f"manifest entry key {name!r} disagrees with its "
                f"company field {entry.company!r}"
            )
        entries[name] = entry
    try:
        num_shards = int(raw.get("num_shards", default_shards))
    except (TypeError, ValueError) as exc:
        raise RegistryError(f"manifest {path} num_shards invalid: {exc}") from exc
    if num_shards < 1:
        raise RegistryError(f"manifest {path} num_shards must be >= 1")
    return Manifest(entries=entries, num_shards=num_shards)


def write_manifest(
    root: str | Path, manifest: Manifest, *, step: StepHook | None = None
) -> None:
    """Atomically replace ``REGISTRY.json`` under ``root``.

    Companies are emitted in sorted order so the same registry state
    always produces the same bytes.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "num_shards": manifest.num_shards,
        "companies": {
            name: manifest.entries[name].as_dict()
            for name in sorted(manifest.entries)
        },
    }
    atomic_write_json(
        Path(root) / MANIFEST_NAME, payload, step=step, label=MANIFEST_NAME
    )

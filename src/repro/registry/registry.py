"""The sharded multi-policy registry and its fleet query path.

:class:`PolicyRegistry` layers three things over
:class:`~repro.store.snapshot.SnapshotStore`:

* an on-disk **layout** — one snapshot store per company under
  ``<root>/shards/<shard-NN>/<company>/``, indexed by the atomic
  manifest (:mod:`repro.registry.manifest`);
* a **warm cache** — a bounded LRU of loaded
  :class:`~repro.core.pipeline.PolicyModel`\\ s with single-flight shard
  loads (:mod:`repro.registry.lru`), counted on
  ``pipeline.metrics.registry_*``;
* a **mint** path — deterministic population of hundreds of generated
  policies from :class:`MintSpec` knobs (count, seed, sector rotation,
  sizes, exception-pair density), each model carrying its generator
  ground truth on ``model.provenance``.

``query_fleet`` fans one question across companies through a supervised
:class:`~repro.jobs.runner.JobRunner` — admission control, watchdog, and
the resumable checkpoint journal all apply unchanged — and returns a
:class:`~repro.registry.fleet.FleetReport`.  A company whose shard fails
to load (quarantined/corrupt snapshots) surfaces as that company's
:class:`~repro.core.pipeline.ErrorOutcome`; it never aborts the fleet.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import PolicyModel, PolicyPipeline
from repro.corpus.generator import GeneratorProfile, PolicyGenerator
from repro.errors import RegistryError, SnapshotError
from repro.jobs.config import JobConfig
from repro.jobs.runner import JobRunner
from repro.registry.fleet import (
    FleetReport,
    fleet_identity,
    fleet_question,
)
from repro.registry.lru import WarmCache
from repro.registry.manifest import (
    Manifest,
    RegistryEntry,
    read_manifest,
    write_manifest,
)
from repro.registry.sectors import DEFAULT_SECTORS, SECTOR_PROFILES
from repro.store.atomic import StepHook
from repro.store.snapshot import SnapshotStore

#: Derives per-company generator seeds from (spec seed, company index);
#: a large odd multiplier keeps neighbouring spec seeds from colliding.
_SEED_STRIDE = 1_000_003


def _company_digest(company: str) -> str:
    return hashlib.sha256(company.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class MintSpec:
    """Deterministic recipe for a generated fleet.

    The same spec always mints the same companies with the same policy
    text: company ``i`` takes its sector and size from the rotation
    (``sectors[i % len]``, ``target_words[i % len]``) and its generator
    seed from ``seed`` and ``i`` alone.
    """

    count: int
    seed: int = 0
    sectors: tuple[str, ...] = DEFAULT_SECTORS
    target_words: tuple[int, ...] = (340, 420, 520)
    exception_pairs: int = 3
    incoherent_exception_fraction: float = 0.34
    date: str = "August 2026"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise RegistryError("MintSpec.count must be >= 1")
        if not self.sectors:
            raise RegistryError("MintSpec.sectors must not be empty")
        unknown = [s for s in self.sectors if s not in SECTOR_PROFILES]
        if unknown:
            raise RegistryError(
                f"unknown sectors {unknown}; known: {sorted(SECTOR_PROFILES)}"
            )
        if not self.target_words or any(w < 300 for w in self.target_words):
            raise RegistryError("MintSpec.target_words must all be >= 300")
        if self.exception_pairs < 0:
            raise RegistryError("MintSpec.exception_pairs must be >= 0")

    def sector_of(self, index: int) -> str:
        return self.sectors[index % len(self.sectors)]

    def words_of(self, index: int) -> int:
        return self.target_words[index % len(self.target_words)]

    def company_of(self, index: int) -> str:
        return f"{SECTOR_PROFILES[self.sector_of(index)].name_stem}{index:03d}"

    def profile_of(self, index: int) -> GeneratorProfile:
        sector = SECTOR_PROFILES[self.sector_of(index)]
        company = self.company_of(index)
        return GeneratorProfile(
            company=company,
            platform=company,
            seed=self.seed * _SEED_STRIDE + index,
            extra_data=sector.extra_data,
            extra_user_actions=sector.extra_user_actions,
            exception_pairs=self.exception_pairs,
            incoherent_exception_fraction=self.incoherent_exception_fraction,
            date=self.date,
        )


@dataclass(slots=True)
class MintReport:
    """What one :meth:`PolicyRegistry.mint` call did."""

    minted: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # already registered
    seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"minted {len(self.minted)} policies "
            f"({len(self.skipped)} already registered) "
            f"in {self.seconds:.2f}s"
        )


class PolicyRegistry:
    """Sharded, disk-backed registry of many companies' policy models.

    Args:
        root: registry directory (manifest + shard tree; created on
            first mint).
        pipeline: shared :class:`PolicyPipeline` for minting, loading,
            and querying; a fresh one is built when omitted.
        max_warm: LRU bound on resident models.
        num_shards: shard fan-out for *new* registries; an existing
            manifest's value wins so reopening never re-shards.
        step: crash-injection hook threaded into every durable write
            (snapshot commits and manifest rewrites); ``None`` in
            production.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        pipeline: PolicyPipeline | None = None,
        max_warm: int = 8,
        num_shards: int = 8,
        step: StepHook | None = None,
    ) -> None:
        if num_shards < 1:
            raise RegistryError("num_shards must be >= 1")
        self.root = Path(root)
        self.pipeline = pipeline if pipeline is not None else PolicyPipeline()
        self._step = step
        self._manifest: Manifest = read_manifest(
            self.root, default_shards=num_shards
        )
        self.num_shards = self._manifest.num_shards
        self._manifest_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._cache = WarmCache(max_warm, on_evict=self._count_eviction)

    # ------------------------------------------------------------------
    # Index introspection
    # ------------------------------------------------------------------

    def companies(self) -> list[str]:
        with self._manifest_lock:
            return self._manifest.companies()

    def __len__(self) -> int:
        with self._manifest_lock:
            return len(self._manifest.entries)

    def __contains__(self, company: str) -> bool:
        with self._manifest_lock:
            return company in self._manifest.entries

    def entry(self, company: str) -> RegistryEntry:
        with self._manifest_lock:
            entry = self._manifest.entries.get(company)
        if entry is None:
            raise RegistryError(f"company {company!r} is not registered")
        return entry

    def shard_of(self, company: str) -> str:
        """Stable shard assignment: sha256(company) mod ``num_shards``."""
        bucket = int(_company_digest(company), 16) % self.num_shards
        return f"shard-{bucket:02d}"

    def store_for(self, company: str) -> SnapshotStore:
        """The snapshot store behind a registered company."""
        entry = self.entry(company)
        return SnapshotStore(self.root / entry.store_dir, step=self._step)

    @property
    def cache(self) -> WarmCache:
        return self._cache

    # ------------------------------------------------------------------
    # Warm loads
    # ------------------------------------------------------------------

    def _count_eviction(self, company: str) -> None:
        with self._metrics_lock:
            self.pipeline.metrics.registry_evictions += 1

    def get_model(self, company: str) -> PolicyModel:
        """The company's model — warm from the LRU or loaded from its shard.

        Concurrent callers of a cold company block on one single-flight
        load; loading one shard never blocks other shards.  Raises
        :class:`RegistryError` for unregistered companies and
        :class:`~repro.errors.SnapshotError` when no valid snapshot
        survives in the shard.
        """
        entry = self.entry(company)
        directory = self.root / entry.store_dir
        model, hit = self._cache.get(
            company, lambda: self.pipeline.load_model(directory)
        )
        with self._metrics_lock:
            if hit:
                self.pipeline.metrics.registry_hits += 1
            else:
                self.pipeline.metrics.registry_misses += 1
        return model

    def invalidate(self, company: str) -> bool:
        """Drop a company's warm model (call after updating its store)."""
        return self._cache.invalidate(company)

    def warm(self, companies=None) -> int:
        """Pre-load models into the LRU; returns how many loads ran."""
        loads = 0
        for company in companies if companies is not None else self.companies():
            before = self._cache.misses
            self.get_model(company)
            loads += self._cache.misses - before
        return loads

    # ------------------------------------------------------------------
    # Mint
    # ------------------------------------------------------------------

    def mint(self, spec: MintSpec) -> MintReport:
        """Generate, process, commit, and register ``spec.count`` policies.

        Companies already in the manifest are skipped, which makes mint
        both idempotent and crash-resumable: a company's snapshot store
        is committed *before* its manifest entry (see
        :mod:`repro.registry.manifest`), so a kill between the two
        leaves an orphan store that the re-mint simply recommits over.
        """
        report = MintReport()
        started = time.perf_counter()
        for index in range(spec.count):
            company = spec.company_of(index)
            if company in self:
                report.skipped.append(company)
                continue
            profile = spec.profile_of(index)
            words = spec.words_of(index)
            document = PolicyGenerator(profile).generate(words)
            model = self.pipeline.process(document.text, company=company)
            provenance = document.ground_truth()
            provenance["sector"] = spec.sector_of(index)
            provenance["target_words"] = words
            model.provenance = provenance
            shard = self.shard_of(company)
            store_dir = (
                f"shards/{shard}/{company}-{_company_digest(company)[:8]}"
            )
            store = SnapshotStore(self.root / store_dir, step=self._step)
            store.commit(model)
            entry = RegistryEntry(
                company=company,
                shard=shard,
                store_dir=store_dir,
                revision=model.revision,
                sector=spec.sector_of(index),
                seed=profile.seed,
                target_words=words,
            )
            with self._manifest_lock:
                self._manifest.entries[company] = entry
                write_manifest(self.root, self._manifest, step=self._step)
            with self._metrics_lock:
                self.pipeline.metrics.policies_minted += 1
            report.minted.append(company)
        report.seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    # Fleet queries
    # ------------------------------------------------------------------

    def _roster(self, companies) -> list[str]:
        if companies is None:
            roster = self.companies()
        else:
            roster = [str(c) for c in companies]
            missing = [c for c in roster if c not in self]
            if missing:
                raise RegistryError(
                    f"companies not registered: {missing}; "
                    f"registered: {len(self)}"
                )
        if not roster:
            raise RegistryError("fleet query needs at least one company")
        return roster

    def _fleet_runner(
        self, question: str, roster: list[str], config, journal_step
    ) -> JobRunner:
        identity = fleet_identity(
            [(c, self.entry(c).revision) for c in roster]
        )
        if config is None:
            config = JobConfig(handle_signals=False)

        def query_fn(index, tagged_question, certify, heartbeat):
            company = roster[index]
            try:
                model = self.get_model(company)
            except SnapshotError as exc:
                # Per-company isolation: the runner converts this into
                # the company's ErrorOutcome; tag the stage so reports
                # say the *registry* (not the query) failed.
                exc.pipeline_stage = "registry"
                raise
            budget = config.query_budget(self.pipeline.config.solver_budget)
            return self.pipeline.query(
                model, question, budget=budget, certify=certify
            )

        return JobRunner(
            self.pipeline,
            identity,
            config,
            query_fn=query_fn,
            journal_step=journal_step,
        )

    def _count_fanout(self, roster: list[str]) -> None:
        with self._metrics_lock:
            self.pipeline.metrics.fleet_queries += 1
            self.pipeline.metrics.fleet_companies += len(roster)

    def query_fleet(
        self,
        question: str,
        companies=None,
        *,
        config: JobConfig | None = None,
        journal_step: StepHook | None = None,
    ) -> FleetReport:
        """Fan ``question`` across the fleet; one supervised job run.

        ``companies`` defaults to every registered company (sorted).
        ``config`` is a :class:`~repro.jobs.config.JobConfig`; give it a
        ``checkpoint_dir`` to make the fleet resumable via
        :meth:`resume_fleet` after a crash or drain.
        """
        roster = self._roster(companies)
        runner = self._fleet_runner(question, roster, config, journal_step)
        suite = [fleet_question(c, question) for c in roster]
        self._count_fanout(roster)
        result = runner.run(suite)
        return FleetReport(question=question, companies=roster, job=result)

    def resume_fleet(
        self,
        question: str,
        companies=None,
        *,
        config: JobConfig,
        journal_step: StepHook | None = None,
    ) -> FleetReport:
        """Resume a checkpointed fleet: restore committed verdicts,
        query only the companies still pending.

        The journal header must match this exact fleet — same question,
        same roster, same revisions — or the runner's identity/digest
        guards refuse, rather than mixing verdicts across compositions.
        """
        roster = self._roster(companies)
        runner = self._fleet_runner(question, roster, config, journal_step)
        suite = [fleet_question(c, question) for c in roster]
        self._count_fanout(roster)
        result = runner.resume(suite)
        return FleetReport(question=question, companies=roster, job=result)

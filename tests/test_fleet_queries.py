"""Fleet fan-out determinism: worker counts and kill/resume parity.

The acceptance bar for ``registry.query_fleet`` is byte-identity of the
:class:`~repro.registry.fleet.FleetReport` serialization across every
execution shape: 1, 2, and 8 workers must produce the same
``report.digest()``, and a fleet killed mid-run and resumed from its
checkpoint must reproduce that same digest while re-running only the
companies whose verdicts never reached the journal.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import JobConfig, JobError
from repro.jobs import CheckpointedOutcome
from repro.registry import FleetReport, MintSpec, PolicyRegistry
from repro.store.faults import CrashInjector, SimulatedCrash

pytestmark = pytest.mark.fleet

QUESTION = "The company shares the email address with advertisers."
SPEC = MintSpec(count=6, seed=21, target_words=(340,))


@pytest.fixture(scope="module")
def registry(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet") / "reg"
    registry = PolicyRegistry(root, pipeline=pipeline, max_warm=16)
    report = registry.mint(SPEC)
    assert len(report.minted) == SPEC.count
    return registry


@pytest.fixture(scope="module")
def baseline(registry) -> FleetReport:
    return registry.query_fleet(QUESTION, config=JobConfig(max_workers=1))


class TestWorkerCountParity:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_digest_is_worker_count_invariant(
        self, registry, baseline, workers
    ):
        report = registry.query_fleet(
            QUESTION, config=JobConfig(max_workers=workers)
        )
        assert report.digest() == baseline.digest()

    def test_report_shape(self, registry, baseline):
        assert len(baseline) == SPEC.count
        assert baseline.companies == registry.companies()
        assert not baseline.aborted
        assert baseline.pending_companies == []
        assert baseline.errors == []
        counts = baseline.verdict_counts()
        assert sum(counts.values()) == SPEC.count
        payload = baseline.as_dict()
        # The byte-identity surface must not leak execution shape.
        for banned in ("seconds", "max_workers", "restored", "metrics"):
            assert banned not in payload
        for row in payload["companies"]:
            assert set(row) == {"company", "verdict", "trace"}

    def test_subset_roster_digest_is_stable(self, registry):
        roster = registry.companies()[:3]
        first = registry.query_fleet(
            QUESTION, roster, config=JobConfig(max_workers=1)
        )
        second = registry.query_fleet(
            QUESTION, roster, config=JobConfig(max_workers=2)
        )
        assert first.digest() == second.digest()
        assert first.digest() != registry.query_fleet(
            QUESTION, config=JobConfig(max_workers=1)
        ).digest()  # roster is part of the identity


class TestKillResumeParity:
    def _config(self, tmp_path, workers=1):
        return JobConfig(
            max_workers=workers,
            checkpoint_dir=tmp_path / "ckpt",
        )

    def test_resume_reproduces_baseline_bytes(
        self, pipeline, registry, baseline, tmp_path, monkeypatch
    ):
        # Kill after the second company's verdict record is durable.
        injector = CrashInjector("sync:record:1")
        with pytest.raises(SimulatedCrash):
            registry.query_fleet(
                QUESTION,
                config=self._config(tmp_path),
                journal_step=injector,
            )

        # The resumed run must query only the four pending companies.
        queried: list[str] = []
        original = pipeline.query

        def counting_query(model, question, **kwargs):
            queried.append(model.company)
            return original(model, question, **kwargs)

        monkeypatch.setattr(pipeline, "query", counting_query)
        resumed = registry.resume_fleet(QUESTION, config=self._config(tmp_path))
        monkeypatch.undo()

        assert resumed.job.restored == 2
        assert sorted(queried) == registry.companies()[2:]
        assert resumed.digest() == baseline.digest()
        # Restored verdicts surface as CheckpointedOutcome markers.
        restored = [
            o for o in resumed.outcomes if isinstance(o, CheckpointedOutcome)
        ]
        assert len(restored) == 2
        assert {o.restored for o in restored} == {True}

    def test_resume_with_different_question_refused(self, registry, tmp_path):
        injector = CrashInjector("sync:record:0")
        with pytest.raises(SimulatedCrash):
            registry.query_fleet(
                QUESTION, config=self._config(tmp_path), journal_step=injector
            )
        with pytest.raises(JobError):
            registry.resume_fleet(
                "The company sells the location history.",
                config=self._config(tmp_path),
            )

    def test_resume_with_different_roster_refused(self, registry, tmp_path):
        injector = CrashInjector("sync:record:0")
        with pytest.raises(SimulatedCrash):
            registry.query_fleet(
                QUESTION, config=self._config(tmp_path), journal_step=injector
            )
        with pytest.raises(JobError):
            registry.resume_fleet(
                QUESTION,
                registry.companies()[:3],
                config=self._config(tmp_path),
            )

    def test_fresh_run_refuses_existing_checkpoint(self, registry, tmp_path):
        config = self._config(tmp_path)
        registry.query_fleet(QUESTION, config=config)
        with pytest.raises(JobError):
            registry.query_fleet(QUESTION, config=config)

    def test_resume_of_completed_fleet_runs_nothing(
        self, pipeline, registry, baseline, tmp_path, monkeypatch
    ):
        config = self._config(tmp_path)
        registry.query_fleet(QUESTION, config=config)

        def exploding_query(model, question, **kwargs):
            raise AssertionError("completed fleet must not re-query")

        monkeypatch.setattr(pipeline, "query", exploding_query)
        resumed = registry.resume_fleet(QUESTION, config=config)
        monkeypatch.undo()
        assert resumed.job.restored == SPEC.count
        assert resumed.digest() == baseline.digest()


class TestQueryTimeout:
    def _budgets(self, pipeline, registry, monkeypatch, config):
        budgets = []
        real_query = pipeline.query

        def spy(model, question, **kwargs):
            budgets.append(kwargs.get("budget"))
            return real_query(model, question, **kwargs)

        monkeypatch.setattr(pipeline, "query", spy)
        report = registry.query_fleet(
            QUESTION, registry.companies()[:2], config=config
        )
        monkeypatch.undo()
        assert report.errors == [] and not report.aborted
        return budgets

    def test_query_timeout_tightens_each_company_budget(
        self, pipeline, registry, monkeypatch
    ):
        config = JobConfig(handle_signals=False, query_timeout=0.5)
        budgets = self._budgets(pipeline, registry, monkeypatch, config)
        # The default 10 s solver deadline is cut to the job's 0.5 s.
        expected = replace(pipeline.config.solver_budget, timeout_seconds=0.5)
        assert budgets == [expected] * 2

    def test_no_query_timeout_leaves_the_budget_to_the_pipeline(
        self, pipeline, registry, monkeypatch
    ):
        config = JobConfig(handle_signals=False)
        assert self._budgets(pipeline, registry, monkeypatch, config) == [None] * 2

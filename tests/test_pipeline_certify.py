"""Certification wired through the pipeline: alarms, quarantine, ladder,
batch sampling, metrics, and the CLI exit code.

These tests drive the *whole* Phase 3 path (not just the solver) with
seeded soundness mutations from :mod:`repro.solver.faults` and assert the
certification failure surfaces exactly as designed: verdict demoted to
UNKNOWN with the ``certification failed`` reason, CertificateReport
attached, offending formula quarantined, PipelineMetrics counting it, the
degradation ladder refusing to escalate it, and ``repro-policy query``
exiting 5.
"""

from __future__ import annotations

import json

import pytest

from repro import PolicyPipeline, Verdict
from repro.core.pipeline import PipelineConfig
from repro.core.verify import (
    CERTIFICATION_FAILED,
    is_certification_failure,
    verification_cache_key,
)
from repro.resilience import BudgetLadder, execute_ladder, is_budget_limited
from repro.solver import faults
from repro.solver.interface import SolverBudget

QUESTION = "Acme collects the email address."


def _mutation(name: str) -> faults.Mutation:
    return next(m for m in faults.soundness_mutations() if m.name == name)


@pytest.fixture()
def fresh_model(small_policy_text):
    """A private model per test: mutated queries poison the verification
    cache, which must never leak into other tests."""
    return PolicyPipeline().process(small_policy_text)


class TestQueryCertification:
    def test_single_queries_certify_by_default(self, fresh_model):
        pipeline = PolicyPipeline()
        outcome = pipeline.query(fresh_model, QUESTION)
        assert outcome.verdict is Verdict.VALID
        report = outcome.verification.certificate
        assert report is not None and report.certified
        assert outcome.metrics.certifications_run == 1
        assert outcome.metrics.certification_failures == 0

    def test_certify_false_disables_for_one_query(self, fresh_model):
        pipeline = PolicyPipeline()
        outcome = pipeline.query(fresh_model, QUESTION, certify=False)
        assert outcome.verification.certificate is None
        assert outcome.metrics.certifications_run == 0

    def test_config_certify_off_disables_by_default(self, fresh_model):
        pipeline = PolicyPipeline(config=PipelineConfig(certify=False))
        outcome = pipeline.query(fresh_model, QUESTION)
        assert outcome.verification.certificate is None
        assert outcome.metrics.certifications_run == 0

    def test_certify_is_the_only_switch(self):
        # A second switch could disagree with `certify`: a certification
        # counted with no certificate attached.
        with pytest.raises(TypeError):
            PipelineConfig(certification=None)

    def test_mutation_demotes_to_unknown_with_report(self, fresh_model):
        pipeline = PolicyPipeline()
        mutation = _mutation("swap-ground-connective")
        with faults.installed(mutation):
            outcome = pipeline.query(fresh_model, QUESTION)
        assert mutation.fires > 0
        assert outcome.verdict is Verdict.UNKNOWN
        assert is_certification_failure(outcome.verification)
        report = outcome.verification.certificate
        assert report is not None and report.failed
        assert outcome.metrics.certification_failures == 1
        # The soundness alarm travels with the trace and the summary.
        trace = outcome.as_dict()["verification"]
        assert trace["certificate"]["status"] == "failed"
        assert "SOUNDNESS ALARM" in outcome.summary()

    def test_mutation_quarantines_offending_formula(
        self, fresh_model, tmp_path
    ):
        quarantine = tmp_path / "quarantine"
        pipeline = PolicyPipeline(
            config=PipelineConfig(certification_quarantine_dir=quarantine)
        )
        with faults.installed(_mutation("drop-ground-instance")):
            outcome = pipeline.query(fresh_model, QUESTION)
        assert outcome.verdict is Verdict.UNKNOWN
        assert outcome.metrics.certification_quarantines == 1
        target = outcome.verification.quarantined_to
        assert target is not None
        entries = list(quarantine.iterdir())
        assert len(entries) == 1 and entries[0].name.startswith("cert-")
        formula_text = (entries[0] / "formula.smt2").read_text("utf-8")
        assert formula_text == outcome.verification.smtlib_text
        report = json.loads((entries[0] / "report.json").read_text("utf-8"))
        assert report["reason"].startswith(CERTIFICATION_FAILED)
        assert report["certificate"]["status"] == "failed"

    def test_clean_run_does_not_quarantine(self, fresh_model, tmp_path):
        quarantine = tmp_path / "quarantine"
        pipeline = PolicyPipeline(
            config=PipelineConfig(certification_quarantine_dir=quarantine)
        )
        outcome = pipeline.query(fresh_model, QUESTION)
        assert outcome.verdict is Verdict.VALID
        assert outcome.verification.quarantined_to is None
        assert not quarantine.exists()

    def test_cache_key_separates_certified_and_uncertified(self):
        base = verification_cache_key("(check-sat)", None)
        certified = verification_cache_key("(check-sat)", None, certify=True)
        assert base != certified

    def test_certified_and_uncertified_verdicts_agree(self, fresh_model):
        pipeline = PolicyPipeline(
            config=PipelineConfig(enable_query_caches=False)
        )
        plain = pipeline.query(fresh_model, QUESTION, certify=False)
        certified = pipeline.query(fresh_model, QUESTION, certify=True)
        assert plain.verdict == certified.verdict
        assert (
            plain.verification.as_dict() == certified.verification.as_dict()
        ), "a passing certificate must not change the deterministic trace"


class TestLadderShortCircuit:
    def test_certification_failure_is_not_budget_limited(self, fresh_model):
        pipeline = PolicyPipeline()
        with faults.installed(_mutation("swap-ground-connective")):
            outcome = pipeline.query(fresh_model, QUESTION)
        assert is_certification_failure(outcome.verification)
        assert not is_budget_limited(outcome.verification)

    def test_armed_ladder_never_escalates_a_soundness_alarm(
        self, fresh_model
    ):
        pipeline = PolicyPipeline(
            config=PipelineConfig(budget_ladder=BudgetLadder())
        )
        with faults.installed(_mutation("swap-ground-connective")):
            outcome = pipeline.query(fresh_model, QUESTION)
        assert outcome.verdict is Verdict.UNKNOWN
        assert outcome.degradation is None
        assert outcome.metrics.degraded_queries == 0
        assert outcome.metrics.ladder_escalations == 0
        # The report survives the (skipped) ladder intact.
        assert outcome.verification.certificate is not None
        assert outcome.verification.certificate.failed

    def test_execute_ladder_short_circuits_with_report_intact(
        self, fresh_model
    ):
        pipeline = PolicyPipeline()
        with faults.installed(_mutation("swap-ground-connective")):
            outcome = pipeline.query(fresh_model, QUESTION)
        verification = outcome.verification
        result, report = execute_ladder(
            outcome.subgraph,
            None,  # params unused: the ladder must return before touching them
            verification,
            ladder=BudgetLadder(),
            base_budget=SolverBudget(),
            encoded=outcome.encoded,
        )
        assert result is verification
        assert result.certificate is not None and result.certificate.failed
        assert report.steps == []
        assert not report.rescued
        assert report.base_reason.startswith(CERTIFICATION_FAILED)


class TestBatchSampling:
    QUESTIONS = [
        "Acme collects the email address.",
        "Acme collects the phone number.",
        "Acme shares the usage information with analytics providers.",
        "Acme sells the contact information.",
        "Acme collects the message content.",
        "Acme shares the location information with advertisers.",
    ]

    def test_stride_samples_by_input_index(self, fresh_model):
        pipeline = PolicyPipeline()
        batch = pipeline.query_batch(
            fresh_model, self.QUESTIONS, max_workers=1
        )
        certificates = [o.verification.certificate for o in batch.outcomes]
        assert [c is not None for c in certificates] == [
            True, False, False, False, True, False
        ]
        assert all(c.certified for c in certificates if c is not None)
        assert batch.metrics.certifications_run == 2

    def test_stride_is_deterministic_across_worker_counts(
        self, small_policy_text
    ):
        def flags(workers):
            pipeline = PolicyPipeline()
            model = PolicyPipeline().process(small_policy_text)
            batch = pipeline.query_batch(
                model, self.QUESTIONS, max_workers=workers
            )
            return [
                o.verification.certificate is not None for o in batch.outcomes
            ]

        assert flags(1) == flags(4) == [True, False, False, False, True, False]

    def test_certify_off_skips_sampling_entirely(self, fresh_model):
        pipeline = PolicyPipeline(config=PipelineConfig(certify=False))
        batch = pipeline.query_batch(
            fresh_model, self.QUESTIONS, max_workers=1
        )
        assert all(
            o.verification.certificate is None for o in batch.outcomes
        )
        assert batch.metrics.certifications_run == 0


class TestCLIExitCode:
    def _write_policy(self, tmp_path, small_policy_text):
        policy = tmp_path / "policy.txt"
        policy.write_text(small_policy_text, "utf-8")
        return policy

    def test_certification_failure_exits_5_and_quarantines(
        self, tmp_path, small_policy_text, capsys
    ):
        from repro.cli import main

        policy = self._write_policy(tmp_path, small_policy_text)
        quarantine = tmp_path / "quarantine"
        with faults.installed(_mutation("swap-ground-connective")):
            code = main(
                [
                    "query",
                    str(policy),
                    QUESTION,
                    "--quarantine",
                    str(quarantine),
                ]
            )
        assert code == 5
        out = capsys.readouterr().out
        assert "SOUNDNESS ALARM" in out
        assert any(quarantine.iterdir())

    def test_no_certify_flag_skips_certification(
        self, tmp_path, small_policy_text, capsys
    ):
        from repro.cli import main

        policy = self._write_policy(tmp_path, small_policy_text)
        with faults.installed(_mutation("swap-ground-connective")):
            code = main(["query", str(policy), QUESTION, "--no-certify"])
        # Without certification the corrupted verdict is NOT detected —
        # which is exactly why certification defaults to on.
        assert code != 5

    def test_clean_query_exits_by_verdict(
        self, tmp_path, small_policy_text, capsys
    ):
        from repro.cli import main

        policy = self._write_policy(tmp_path, small_policy_text)
        assert main(["query", str(policy), QUESTION]) == 0

    def test_exit_code_epilog_documents_code_5(self):
        from repro.cli import EXIT_CODES_EPILOG

        assert "5" in EXIT_CODES_EPILOG
        assert "certification" in EXIT_CODES_EPILOG

"""Unit/integration tests for Phase 1 extraction and the full pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import PipelineConfig, PolicyPipeline, Verdict
from repro.core.extraction import extract_company, extract_policy, extract_segment
from repro.core.segmenter import segment_policy
from repro.errors import QueryError


class TestExtractCompany:
    def test_small_policy(self, runner, small_policy_text):
        assert extract_company(runner, small_policy_text) == "Acme"

    def test_uses_only_opening(self, runner):
        text = "Zebra Privacy Policy. " + "filler " * 400 + "OtherCorp appears late."
        assert extract_company(runner, text) == "Zebra"


class TestExtractSegment:
    def test_coreference_applied_before_extraction(self, runner):
        seg = segment_policy("We collect your email address.")[0]
        practices = extract_segment(runner, seg, "Acme")
        assert practices[0].sender == "Acme"

    def test_opp115_categories_attached(self, runner):
        seg = segment_policy("We collect your email address.")[0]
        practices = extract_segment(runner, seg, "Acme")
        assert "Contact" in practices[0].opp115_categories

    def test_vague_terms_annotated(self, runner):
        seg = segment_policy(
            "We share usage information with partners for legitimate business purposes."
        )[0]
        practices = extract_segment(runner, seg, "Acme")
        vague = [v for p in practices for v in p.vague_terms]
        assert ("legitimate business purposes", "legitimate_business_purpose") in vague


class TestExtractPolicy:
    def test_full_extraction(self, runner, small_policy_text):
        result = extract_policy(runner, small_policy_text)
        assert result.company == "Acme"
        assert result.num_practices > 10
        assert result.segments

    def test_practices_indexed_by_segment(self, runner, small_policy_text):
        result = extract_policy(runner, small_policy_text)
        total = sum(len(v) for v in result.practices_by_segment.values())
        assert total == result.num_practices

    def test_cached_segments_skipped(self, runner, small_policy_text):
        first = extract_policy(runner, small_policy_text)
        cached = dict(first.practices_by_segment)

        class ExplodingLLM:
            def complete(self, prompt):
                raise AssertionError("LLM called despite full cache")

        from repro.llm.tasks import TaskRunner

        strict_runner = TaskRunner(ExplodingLLM())
        result = extract_policy(
            strict_runner, small_policy_text, company="Acme", cached=cached
        )
        assert result.num_practices == first.num_practices

    def test_negated_practice_found(self, runner, small_policy_text):
        result = extract_policy(runner, small_policy_text)
        negated = [p for p in result.practices if not p.permission]
        assert negated
        assert any("contact information" in p.data_type for p in negated)


class TestPipelineProcess:
    def test_model_contents(self, small_model):
        assert small_model.company == "Acme"
        stats = small_model.statistics
        assert stats.total_edges > 10
        assert stats.entities >= 3
        assert stats.data_types >= 5
        assert len(small_model.data_taxonomy) > 3
        small_model.data_taxonomy.validate()

    def test_embeddings_cover_nodes(self, small_model):
        for node in small_model.graph.nodes():
            assert node in small_model.store

    def test_practices_have_provenance(self, small_model):
        seg_ids = {s.segment_id for s in small_model.extraction.segments}
        for p in small_model.extraction.practices:
            assert p.segment_id in seg_ids


class TestPipelineQuery:
    def test_valid_query(self, pipeline, small_model):
        outcome = pipeline.query(small_model, "Acme collects the name.")
        assert outcome.verdict is Verdict.VALID

    def test_vocabulary_bridging(self, pipeline, small_model):
        # Policy says "email address"; the query says "e-mail address"
        # (hyphenated variant known to the synonym table).
        outcome = pipeline.query(small_model, "Acme collects the e-mail address.")
        assert outcome.verdict is Verdict.VALID
        assert any(t.changed for t in outcome.translations.values())

    def test_conditional_sharing_reported(self, pipeline, small_model):
        outcome = pipeline.query(
            small_model, "Acme shares location information with advertisers."
        )
        assert outcome.verdict is Verdict.INVALID
        assert outcome.verification.conditionally_valid is True
        assert "user_consent" in outcome.verification.depends_on

    def test_denied_practice(self, pipeline, small_model):
        outcome = pipeline.query(
            small_model, "Acme sells contact information to third parties."
        )
        assert outcome.verdict is Verdict.INVALID

    def test_unparseable_query_raises(self, pipeline, small_model):
        with pytest.raises(QueryError):
            pipeline.query(small_model, "blue sky happy")

    def test_summary_readable(self, pipeline, small_model):
        outcome = pipeline.query(small_model, "Acme collects the name.")
        text = outcome.summary()
        assert "verdict: VALID" in text


class TestPipelineUpdate:
    def test_noop_update_reuses_everything(self, pipeline, small_policy_text):
        model = pipeline.process(small_policy_text)
        new_model, stats = pipeline.update(model, small_policy_text)
        assert stats.segments_reextracted == 0
        assert stats.reuse_fraction == 1.0
        assert new_model.statistics.total_edges == model.statistics.total_edges

    def test_appended_sentence_only_new_segment_extracted(
        self, pipeline, small_policy_text
    ):
        model = pipeline.process(small_policy_text)
        updated_text = small_policy_text + "\nWe collect your shoe size.\n"
        new_model, stats = pipeline.update(model, updated_text)
        assert stats.segments_reextracted == 1
        assert stats.segments_removed == 0
        assert new_model.graph.has_node("shoe size")

    def test_removed_sentence_detected(self, pipeline, small_policy_text):
        model = pipeline.process(small_policy_text)
        shortened = small_policy_text.replace(
            "We delete your message content after 90 days.", ""
        )
        _new_model, stats = pipeline.update(model, shortened)
        assert stats.segments_removed == 1


class TestArtifacts:
    def test_save_artifacts(self, pipeline, small_model, tmp_path):
        pipeline.save_artifacts(small_model, tmp_path)
        for name in (
            "segments.json",
            "practices.json",
            "data_taxonomy.json",
            "graph_stats.json",
            "embeddings.bin",
        ):
            assert (tmp_path / name).exists(), name

    def test_artifacts_parse_back(self, pipeline, small_model, tmp_path):
        import json

        pipeline.save_artifacts(small_model, tmp_path)
        by_segment = json.loads((tmp_path / "practices.json").read_text())
        practices = [p for entries in by_segment.values() for p in entries]
        assert len(practices) == small_model.extraction.num_practices
        assert {"sender", "action", "data_type"} <= set(practices[0])
        segments = json.loads((tmp_path / "segments.json").read_text())
        assert set(by_segment) <= {s["segment_id"] for s in segments}


class TestLLMUsageAccounting:
    def test_stats_exposed(self, small_policy_text):
        pipe = PolicyPipeline()
        pipe.process(small_policy_text)
        stats = pipe.llm.stats
        assert stats.calls > 0
        assert "extract_parameters" in stats.calls_by_task


#: Processes a bundled policy and answers one question with every import
#: outside the standard library, numpy and repro itself refused.
_NUMPY_AND_STDLIB_ONLY = """
import sys

allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}


class RefuseOtherPackages:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, RefuseOtherPackages())

from repro import PolicyPipeline
from repro.corpus import tiktak_policy

pipeline = PolicyPipeline()
model = pipeline.process(tiktak_policy().text)
print(pipeline.query(model, "TikTak collects the email address.").verdict.name)
"""


def test_runs_on_numpy_and_the_standard_library_alone():
    src = Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_AND_STDLIB_ONLY],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["VALID"]

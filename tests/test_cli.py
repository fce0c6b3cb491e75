"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def policy_file(tmp_path, small_policy_text):
    path = tmp_path / "policy.txt"
    path.write_text(small_policy_text, "utf-8")
    return str(path)


class TestProcess:
    def test_prints_statistics(self, policy_file, capsys):
        assert main(["process", policy_file]) == 0
        out = capsys.readouterr().out
        assert "company: Acme" in out
        assert "total_edges:" in out
        assert "llm calls:" in out

    def test_artifacts_written(self, policy_file, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        assert main(["process", policy_file, "--artifacts", str(artifacts)]) == 0
        assert (artifacts / "practices.json").exists()
        practices = json.loads((artifacts / "practices.json").read_text())
        assert practices

    def test_missing_file_exit_code(self, capsys):
        assert main(["process", "/nonexistent/policy.txt"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_empty_file_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("   \n", "utf-8")
        assert main(["process", str(empty)]) == 3


class TestQuery:
    def test_valid_query_exit_zero(self, policy_file, capsys):
        code = main(["query", policy_file, "Acme collects the name."])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: VALID" in out

    def test_invalid_query_exit_one(self, policy_file, capsys):
        code = main(
            ["query", policy_file, "Acme sells contact information to third parties."]
        )
        assert code == 1
        assert "verdict: INVALID" in capsys.readouterr().out

    def test_smtlib_flag_dumps_script(self, policy_file, capsys):
        main(["query", policy_file, "Acme collects the name.", "--smtlib"])
        out = capsys.readouterr().out
        assert "(check-sat)" in out
        assert "(set-logic UF)" in out


class TestAudit:
    def test_audit_reports(self, policy_file, capsys):
        main(["audit", policy_file])
        out = capsys.readouterr().out
        assert "apparent contradictions:" in out
        assert "coverage report:" in out


class TestDiff:
    def test_identical_versions_exit_zero(self, policy_file, capsys):
        assert main(["diff", policy_file, policy_file]) == 0
        assert "policy diff:" in capsys.readouterr().out

    def test_changed_version_exit_one(self, policy_file, tmp_path, small_policy_text, capsys):
        new = tmp_path / "v2.txt"
        new.write_text(small_policy_text + "\nWe collect your shoe size.\n", "utf-8")
        assert main(["diff", policy_file, str(new)]) == 1
        out = capsys.readouterr().out
        assert "shoe size" in out


class TestCorpus:
    def test_corpus_to_stdout(self, capsys):
        assert main(["corpus", "tiktak"]) == 0
        out = capsys.readouterr().out
        assert "TikTak Privacy Policy" in out

    def test_corpus_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "policy.txt"
        assert main(["corpus", "meditrack", "--out", str(out_path)]) == 0
        assert "MediTrack" in out_path.read_text("utf-8")

    def test_unknown_corpus_rejected(self):
        with pytest.raises(SystemExit):
            main(["corpus", "bogus"])


class TestSnapshot:
    def test_save_then_load(self, policy_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["snapshot", "save", policy_file, "--store", store]) == 0
        assert "committed snap-000001" in capsys.readouterr().out
        assert main(["snapshot", "load", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "loaded snap-000001" in out
        assert "company: Acme" in out

    def test_load_missing_store_exit_four(self, tmp_path, capsys):
        code = main(["snapshot", "load", "--store", str(tmp_path / "nope")])
        assert code == 4
        assert "snapshot error:" in capsys.readouterr().err

    def test_corrupt_store_exit_four_with_report(
        self, policy_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        main(["snapshot", "save", policy_file, "--store", str(store)])
        capsys.readouterr()
        (store / "snapshots" / "snap-000001" / "graph.json").write_bytes(b"~")
        code = main(["snapshot", "load", "--store", str(store)])
        err = capsys.readouterr().err
        assert code == 4
        assert "quarantined snap-000001" in err

    def test_audit_clean_store_exit_zero(self, policy_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["snapshot", "save", policy_file, "--store", store])
        code = main(
            ["snapshot", "audit", "--store", store, "--policy", policy_file]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "structure audit: PASS" in out
        assert "parity audit: PASS" in out

    def test_audit_heal_requires_policy(self, policy_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["snapshot", "save", policy_file, "--store", store])
        code = main(["snapshot", "audit", "--store", store, "--heal"])
        assert code == 3
        assert "--heal requires --policy" in capsys.readouterr().err

    def test_query_from_snapshot(self, policy_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["snapshot", "save", policy_file, "--store", store])
        capsys.readouterr()
        code = main(
            ["query", "--from-snapshot", store, "Acme collects the name."]
        )
        assert code == 0
        assert "verdict: VALID" in capsys.readouterr().out

    def test_query_rejects_both_sources(self, policy_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    policy_file,
                    "Acme collects the name.",
                    "--from-snapshot",
                    str(tmp_path),
                ]
            )

    def test_query_requires_some_source(self):
        with pytest.raises(SystemExit):
            main(["query", "Acme collects the name."])

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "4  snapshot corruption" in out
        assert "6  job aborted" in out


@pytest.fixture()
def queries_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(
        "# audit suite\n"
        "Acme collects the email address.\n"
        "\n"
        "Acme shares the usage information with analytics providers.\n"
        "Acme sells the contact information.\n"
        "Does Acme collect my name?\n",
        "utf-8",
    )
    return str(path)


class TestBatch:
    def test_run_answers_every_question(
        self, policy_file, queries_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        code = main(
            ["batch", "run", policy_file, queries_file, "--checkpoint", ckpt]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[0] VALID" in out
        assert "4/4 queries" in out
        assert (tmp_path / "ckpt" / "journal.jsonl").exists()

    def test_resume_restores_committed_results(
        self, policy_file, queries_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        main(["batch", "run", policy_file, queries_file, "--checkpoint", ckpt])
        capsys.readouterr()
        code = main(["batch", "resume", policy_file, "--checkpoint", ckpt])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("(restored)") == 4
        assert "4 restored from checkpoint" in out

    def test_json_report_written(
        self, policy_file, queries_file, tmp_path, capsys
    ):
        report = tmp_path / "result.json"
        code = main(
            [
                "batch",
                "run",
                policy_file,
                queries_file,
                "--checkpoint",
                str(tmp_path / "ckpt"),
                "--stats",
                "--json",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpoint: 4 written" in out  # --stats metrics block
        data = json.loads(report.read_text("utf-8"))
        assert data["completed"] == 4
        assert data["aborted"] is False

    def test_aborted_run_exit_six_then_resume(
        self, policy_file, queries_file, tmp_path, monkeypatch, capsys
    ):
        import time

        import repro.jobs as jobs

        real_runner = jobs.JobRunner

        class DrainingRunner(real_runner):
            """Drains after the first answer — a scripted Ctrl-C."""

            def run(self, questions):
                def query_fn(index, question, certify, heartbeat):
                    if index == 0:
                        self.request_drain()
                    else:
                        deadline = time.monotonic() + 10.0
                        while (
                            not self._drain_applied
                            and time.monotonic() < deadline
                        ):
                            time.sleep(0.002)
                    return self.pipeline.query(
                        self.model, question, certify=certify
                    )

                self._query_fn = query_fn
                return super().run(questions)

        monkeypatch.setattr(jobs, "JobRunner", DrainingRunner)
        ckpt = str(tmp_path / "ckpt")
        code = main(
            [
                "batch",
                "run",
                policy_file,
                queries_file,
                "--checkpoint",
                ckpt,
                "--workers",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 6
        assert "PENDING" in captured.out
        assert "ABORTED" in captured.out
        assert "batch resume --checkpoint" in captured.err

        monkeypatch.setattr(jobs, "JobRunner", real_runner)
        code = main(["batch", "resume", policy_file, "--checkpoint", ckpt])
        out = capsys.readouterr().out
        assert code == 0
        assert "restored from checkpoint" in out
        assert "PENDING" not in out

    def test_resume_requires_checkpoint_flag(self, policy_file):
        with pytest.raises(SystemExit):
            main(["batch", "resume", policy_file])

    def test_resume_without_journal_exit_three(
        self, policy_file, tmp_path, capsys
    ):
        code = main(
            [
                "batch",
                "resume",
                policy_file,
                "--checkpoint",
                str(tmp_path / "empty"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_empty_queries_file_rejected(self, policy_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("# only comments\n\n", "utf-8")
        code = main(
            [
                "batch",
                "run",
                policy_file,
                str(queries),
                "--checkpoint",
                str(tmp_path / "ckpt"),
            ]
        )
        assert code == 3
        assert "no questions" in capsys.readouterr().err

    def test_stall_options_accepted(
        self, policy_file, queries_file, tmp_path, capsys
    ):
        code = main(
            [
                "batch",
                "run",
                policy_file,
                queries_file,
                "--checkpoint",
                str(tmp_path / "ckpt"),
                "--stall-after",
                "30",
                "--max-pending",
                "8",
                "--timeout",
                "5.0",
            ]
        )
        assert code == 0
        assert "4/4 queries" in capsys.readouterr().out


class TestQueryTimeout:
    def test_timeout_accepted(self, policy_file, capsys):
        code = main(
            ["query", policy_file, "Acme collects the name.", "--timeout", "5"]
        )
        assert code == 0
        assert "verdict: VALID" in capsys.readouterr().out

    def test_nonpositive_timeout_rejected(self, policy_file, capsys):
        code = main(
            ["query", policy_file, "Acme collects the name.", "--timeout", "0"]
        )
        assert code == 3
        assert "timeout" in capsys.readouterr().err


class TestProviderFlags:
    QUESTION = "Acme collects the name."

    def test_cassette_record_then_replay_round_trip(
        self, policy_file, tmp_path, capsys
    ):
        tape = tmp_path / "tape.jsonl"
        code = main(
            [
                "query",
                policy_file,
                self.QUESTION,
                "--cassette",
                "record",
                "--cassette-path",
                str(tape),
            ]
        )
        recorded_out = capsys.readouterr().out
        assert code == 0
        assert tape.exists() and tape.stat().st_size > 0

        code = main(
            [
                "query",
                policy_file,
                self.QUESTION,
                "--cassette",
                "replay",
                "--cassette-path",
                str(tape),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == recorded_out

    def test_strict_replay_miss_exits_8(self, policy_file, tmp_path, capsys):
        tape = tmp_path / "empty-tape.jsonl"
        tape.write_text("", "utf-8")
        code = main(
            [
                "query",
                policy_file,
                self.QUESTION,
                "--cassette",
                "replay",
                "--cassette-path",
                str(tape),
            ]
        )
        assert code == 8
        assert "provider error:" in capsys.readouterr().err

    def test_cassette_without_path_is_usage_error(self, policy_file, capsys):
        code = main(["query", policy_file, self.QUESTION, "--cassette", "record"])
        assert code == 3
        assert "cassette" in capsys.readouterr().err

    def test_http_provider_without_env_exits_8(
        self, policy_file, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_LLM_URL", raising=False)
        code = main(
            ["query", policy_file, self.QUESTION, "--llm-provider", "http"]
        )
        assert code == 8
        assert "REPRO_LLM_URL" in capsys.readouterr().err

    def test_profile_query_still_verdicts(self, policy_file, capsys):
        code = main(
            ["query", policy_file, self.QUESTION, "--profile", "flaky-429"]
        )
        assert code == 0
        assert "verdict: VALID" in capsys.readouterr().out

    def test_unknown_profile_is_usage_error(self, policy_file, capsys):
        code = main(
            ["query", policy_file, self.QUESTION, "--profile", "nope"]
        )
        assert code == 3
        assert "unknown stress profile" in capsys.readouterr().err

    def test_stats_surface_llm_boundary_line(self, policy_file, capsys):
        code = main(
            [
                "query",
                policy_file,
                self.QUESTION,
                "--profile",
                "flaky-429",
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "llm boundary: breaker closed" in out
        assert "retries" in out


def _options(parser, path=()):
    """``{command path: {option: (dest, default, required, choices, type)}}``
    for ``parser`` and every subcommand under it."""
    import argparse

    table, options = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                table.update(_options(child, (*path, name)))
        elif not isinstance(action, argparse._HelpAction):
            options[" ".join(action.option_strings) or action.dest] = (
                action.dest,
                action.default,
                action.required,
                None if action.choices is None else tuple(action.choices),
                getattr(action.type, "__name__", None),
            )
    table[" ".join(path)] = options
    return table


_PROVIDER = {
    "--llm-provider": ("provider", "simulated", False, ("simulated", "http"), None),
    "--cassette": ("cassette", None, False, ("record", "replay"), None),
    "--cassette-path": ("cassette_path", None, False, None, None),
    "--profile": ("profile", None, False, None, None),
}
_JOB = {
    "--workers": ("workers", None, False, None, "int"),
    "--max-pending": ("max_pending", 64, False, None, "int"),
    "--shed-above": ("shed_above", None, False, None, "int"),
    "--stall-after": ("stall_after", None, False, None, "float"),
    "--timeout": ("timeout", None, False, None, "float"),
    "--stats": ("stats", False, False, None, None),
    "--json": ("json", None, False, None, None),
    **_PROVIDER,
}
_ROOT = {"--root": ("root", None, True, None, None)}
_MAX_WARM = {"--max-warm": ("max_warm", 32, False, None, "int")}
_POLICY = {"policy": ("policy", None, True, None, None)}

#: Every option of every subcommand, as the CLI accepted it before its
#: flags were each declared once: the refactor must keep all of it.
CLI_SURFACE = {
    "": {},
    "process": {**_POLICY, "--artifacts": ("artifacts", None, False, None, None)},
    "query": {
        "policy": ("policy", None, False, None, None),
        "question": ("question", None, False, None, None),
        "--from-snapshot": ("from_snapshot", None, False, None, None),
        "--smtlib": ("smtlib", False, False, None, None),
        "--stats": ("stats", False, False, None, None),
        "--resilient": ("resilient", False, False, None, None),
        "--max-retries": ("max_retries", 2, False, None, "int"),
        "--ladder": ("ladder", "4,16", False, None, None),
        "--no-decompose": ("no_decompose", False, False, None, None),
        "--certify --no-certify": ("certify", None, False, None, None),
        "--quarantine": ("quarantine", None, False, None, None),
        "--timeout": ("timeout", None, False, None, "float"),
        **_PROVIDER,
    },
    "audit": _POLICY,
    "diff": {
        "old": ("old", None, True, None, None),
        "new": ("new", None, True, None, None),
    },
    "scenarios": {**_POLICY, "suite": ("suite", None, True, None, None)},
    "corpus": {
        "name": ("name", None, True, ("tiktak", "metabook", "meditrack"), None),
        "--out": ("out", None, False, None, None),
    },
    "snapshot": {},
    "snapshot save": {
        **_POLICY,
        "--store": ("store", None, True, None, None),
        "--journaled": ("journaled", False, False, None, None),
    },
    "snapshot load": {"--store": ("store", None, True, None, None)},
    "snapshot audit": {
        "--store": ("store", None, True, None, None),
        "--policy": ("policy", None, False, None, None),
        "--heal": ("heal", False, False, None, None),
    },
    "registry": {},
    "registry mint": {
        **_ROOT,
        "--count": ("count", None, True, None, "int"),
        "--seed": ("seed", 0, False, None, "int"),
        "--sectors": ("sectors", None, False, None, None),
        "--words": ("words", None, False, None, None),
        "--exception-pairs": ("exception_pairs", None, False, None, "int"),
        "--incoherent-fraction": ("incoherent_fraction", None, False, None, "float"),
    },
    "registry list": _ROOT,
    "registry query": {
        **_ROOT,
        **_MAX_WARM,
        **_JOB,
        "question": ("question", None, True, None, None),
        "--companies": ("companies", None, False, None, None),
        "--resume": ("resume", False, False, None, None),
        "--checkpoint": ("checkpoint", None, False, None, None),
    },
    "serve": {
        **_ROOT,
        **_MAX_WARM,
        **_PROVIDER,
        "--host": ("host", "127.0.0.1", False, None, None),
        "--port": ("port", 8321, False, None, "int"),
        "--max-pending": ("max_pending", 8, False, None, "int"),
        "--shed-above": ("shed_above", None, False, None, "int"),
        "--deadline": ("deadline", 10.0, False, None, "float"),
        "--warm": ("warm", -1, False, None, "int"),
        "--drain-grace": ("drain_grace", 30.0, False, None, "float"),
        "--scrub-interval": ("scrub_interval", None, False, None, "float"),
        "--stats": ("stats", False, False, None, None),
    },
    "fsck": {
        "path": ("path", None, True, None, None),
        "--repair": ("repair", False, False, None, None),
        "--json": ("json", None, False, None, None),
    },
    "batch": {},
    "batch run": {
        **_POLICY,
        **_JOB,
        "queries": ("queries", None, True, None, None),
        "--checkpoint": ("checkpoint", None, False, None, None),
    },
    "batch resume": {
        **_POLICY,
        **_JOB,
        "--checkpoint": ("checkpoint", None, True, None, None),
    },
}


class TestParserSurface:
    def test_every_subcommand_keeps_its_options(self):
        from repro.cli import build_parser

        assert _options(build_parser()) == CLI_SURFACE


QUESTION = "The company shares the email address with advertisers."


@pytest.fixture(scope="module")
def fleet_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-fleet") / "reg")
    assert main(["registry", "mint", "--root", root, "--count", "2", "--seed", "7"]) == 0
    return root


class TestRegistry:
    def test_mint_reports_the_new_companies(self, tmp_path, capsys):
        root = str(tmp_path / "reg")
        assert main(["registry", "mint", "--root", root, "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "minted 2 policies" in out
        assert "registry: 2 companies" in out

    def test_list_names_every_company(self, fleet_root, capsys):
        assert main(["registry", "list", "--root", fleet_root]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "2 companies in 8 shards"
        assert all(" shard shard-" in line for line in lines[:-1])
        assert len(lines) == 3

    def test_query_stats_and_json(self, fleet_root, tmp_path, capsys):
        report = tmp_path / "fleet.json"
        code = main(
            [
                "registry",
                "query",
                "--root",
                fleet_root,
                QUESTION,
                "--stats",
                "--json",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert [row.split()[1] for row in out.splitlines()[:2]] == ["INVALID"] * 2
        metrics = out.split("--- pipeline metrics ---\n", 1)[1]
        assert "queries: 2" in metrics
        assert "fleet: 1 fan-outs over 2 companies" in metrics
        assert "llm boundary: breaker" in metrics
        assert f"wrote JSON results to {report}" in out
        data = json.loads(report.read_text("utf-8"))
        assert data["question"] == QUESTION
        assert len(data["companies"]) == 2

    def test_nonpositive_timeout_rejected(self, fleet_root, capsys):
        code = main(
            ["registry", "query", "--root", fleet_root, QUESTION, "--timeout", "0"]
        )
        assert code == 3
        assert "--timeout" in capsys.readouterr().err


class TestFsck:
    @pytest.fixture()
    def torn_checkpoint(self, fleet_root, tmp_path, capsys):
        """A fleet checkpoint whose journal ends in a torn line."""
        ckpt = tmp_path / "ckpt"
        main(
            [
                "registry",
                "query",
                "--root",
                fleet_root,
                QUESTION,
                "--checkpoint",
                str(ckpt),
            ]
        )
        with open(ckpt / "journal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        capsys.readouterr()
        return str(ckpt)

    def test_clean_root_json(self, fleet_root, tmp_path, capsys):
        report = tmp_path / "fsck.json"
        assert main(["fsck", fleet_root, "--json", str(report)]) == 0
        assert f"wrote JSON report to {report}" in capsys.readouterr().out
        data = json.loads(report.read_text("utf-8"))
        assert set(data) == {"report", "plan"}

    def test_damage_json_then_repair_json(self, torn_checkpoint, tmp_path, capsys):
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main(["fsck", torn_checkpoint, "--json", str(before)]) == 9
        assert "run again with --repair" in capsys.readouterr().out
        assert set(json.loads(before.read_text("utf-8"))) == {"report", "plan"}
        code = main(["fsck", torn_checkpoint, "--repair", "--json", str(after)])
        out = capsys.readouterr().out
        assert code == 0
        assert "post-repair fsck" in out
        assert f"wrote JSON report to {after}" in out
        data = json.loads(after.read_text("utf-8"))
        assert set(data) == {"report", "plan", "post_repair"}
        assert data["plan"]["applied"] is True
        assert data["post_repair"]["clean"] is True


class TestBatchStats:
    def test_run_stats_merges_job_and_pipeline_metrics(
        self, policy_file, queries_file, capsys
    ):
        code = main(["batch", "run", policy_file, queries_file, "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 queries" in out
        metrics = out.split("--- pipeline metrics ---\n", 1)[1]
        assert "queries: 4" in metrics
        assert "jobs: queue high-water" in metrics
        assert "llm boundary: breaker" in metrics

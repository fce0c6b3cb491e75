"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro-policy process POLICY.txt [--artifacts DIR]
    repro-policy query POLICY.txt "TikTak collects the email address." [--smtlib]
    repro-policy query --from-snapshot DIR "TikTak collects the email address."
    repro-policy audit POLICY.txt
    repro-policy diff OLD.txt NEW.txt
    repro-policy corpus {tiktak,metabook,meditrack} [--out FILE]
    repro-policy snapshot save POLICY.txt --store DIR
    repro-policy snapshot load --store DIR
    repro-policy snapshot audit --store DIR [--policy POLICY.txt] [--heal]
    repro-policy batch run POLICY.txt QUERIES.txt --checkpoint DIR \\
        [--max-pending N] [--stall-after S] [--timeout S]
    repro-policy batch resume POLICY.txt --checkpoint DIR
    repro-policy registry mint --root DIR --count 100 [--seed S]
    repro-policy registry list --root DIR
    repro-policy registry query --root DIR "QUESTION" [--companies A,B] \\
        [--checkpoint DIR] [--resume]
    repro-policy serve --root DIR [--port P] [--shed-above N] \\
        [--deadline S] [--warm N] [--scrub-interval S]
    repro-policy fsck PATH [--repair] [--json FILE]

Every command runs fully offline on the bundled substrates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import PipelineMetrics, PolicyPipeline
from repro.analysis import (
    coverage_report,
    diff_policies,
    find_contradictions,
    render_contradictions,
    render_coverage,
    render_diff,
)
from repro.core.extraction import extract_policy
from repro.errors import ProviderError, ReproError, SnapshotError

EXIT_CODES_EPILOG = """\
exit codes:
  0  success; for `query`: verdict VALID; for `audit`/`diff`: nothing found
  1  for `query`: verdict INVALID; for `audit`/`diff`/`snapshot audit`: findings
  2  for `query`: verdict UNKNOWN (solver budget or vague terms)
  3  error (bad input, missing file, isolated query failure)
  4  snapshot corruption: no hash-valid snapshot could be loaded
     (corrupt snapshots are quarantined with a structured report)
  5  certification failure: the solver produced an answer its independent
     checker could not reproduce (soundness alarm; verdict demoted to
     UNKNOWN, offending formula quarantined with --quarantine)
  6  job aborted with a partial checkpoint: a `batch` run drained on
     SIGINT/SIGTERM before finishing; completed verdicts are committed to
     the checkpoint journal and `batch resume` picks up the rest
  7  server failed to bind or become ready: `serve` could not take its
     address, or the registry root has no companies to serve
  8  provider/cassette failure: `--provider http` without REPRO_LLM_URL,
     a permanent provider rejection (4xx other than 408/429), or a strict
     `--cassette replay` asked for a prompt the cassette never recorded
  9  integrity findings: `fsck` found damage in a durable artifact (or,
     with --repair, damage remained after the repair pass — unrepairable
     evidence is quarantined with provenance, never silently served)
"""


def _read_policy(path: str) -> str:
    text = Path(path).read_text("utf-8")
    if not text.strip():
        raise ReproError(f"policy file {path} is empty")
    return text


def _cmd_process(args: argparse.Namespace) -> int:
    pipeline = PolicyPipeline()
    model = pipeline.process(_read_policy(args.policy))
    print(f"company: {model.company}")
    print(f"segments: {len(model.extraction.segments)}")
    print(f"practices: {model.extraction.num_practices}")
    for key, value in model.statistics.as_dict().items():
        print(f"{key}: {value}")
    print(f"data taxonomy: {len(model.data_taxonomy)} nodes, depth {model.data_taxonomy.max_depth()}")
    print(f"entity taxonomy: {len(model.entity_taxonomy)} nodes")
    usage = pipeline.llm.stats
    print(f"llm calls: {usage.calls} ({usage.cache_hits} cache hits)")
    if args.artifacts:
        pipeline.save_artifacts(model, args.artifacts)
        print(f"artifacts written to {args.artifacts}")
    return 0


def _add_provider_options(sp) -> None:
    """LLM provider/cassette flags shared by query, batch, registry, serve."""
    sp.add_argument(
        "--llm-provider",
        choices=("simulated", "http"),
        default="simulated",
        dest="provider",
        help="completion backend: 'simulated' is the offline default; "
        "'http' posts to the endpoint configured by REPRO_LLM_URL (plus "
        "REPRO_LLM_MODEL / REPRO_LLM_API_KEY / REPRO_LLM_TIMEOUT / "
        "REPRO_LLM_RPS) and exits 8 when unconfigured (default: simulated)",
    )
    sp.add_argument(
        "--cassette",
        choices=("record", "replay"),
        help="record prompt->completion pairs to the cassette at "
        "--cassette-path, or replay them deterministically with no "
        "backend; strict replay exits 8 on an unrecorded prompt",
    )
    sp.add_argument(
        "--cassette-path",
        metavar="FILE",
        help="cassette JSONL file for --cassette record|replay",
    )
    sp.add_argument(
        "--profile",
        metavar="NAME",
        help="wrap the backend in a deterministic stress profile "
        "(flaky-429, brownout, flapping) exercising the retry/breaker "
        "stack with content-keyed faults and latency",
    )


def _build_provider_stack(args: argparse.Namespace):
    """Compose the LLM stack the provider/cassette flags describe.

    Returns ``None`` when no provider flag is active, so callers fall
    through to the pipeline's default backend.  The composed stack is
    ``CachedLLM(CircuitBreaker(RetryingLLM(RecordingLLM?(ProfiledLLM?(
    backend)))))`` — retries above the recorder so only completions that
    actually succeeded are captured, the profile injector at the bottom
    where a real unreliable provider would sit.
    """
    provider = getattr(args, "provider", "simulated")
    cassette_mode = getattr(args, "cassette", None)
    cassette_path = getattr(args, "cassette_path", None)
    profile_name = getattr(args, "profile", None)
    if cassette_mode and not cassette_path:
        raise ReproError("--cassette requires --cassette-path FILE")
    if cassette_path and not cassette_mode:
        raise ReproError("--cassette-path requires --cassette record|replay")
    if provider == "simulated" and not cassette_mode and not profile_name:
        return None

    from repro.llm.client import CachedLLM, UsageStats
    from repro.llm.simulated import SimulatedLLM
    from repro.providers import (
        HTTPProvider,
        ProfiledLLM,
        RecordingLLM,
        ReplayLLM,
        get_profile,
    )
    from repro.resilience import CircuitBreaker, RetryingLLM, RetryPolicy

    if cassette_mode == "replay":
        # Replay needs no backend at all; --llm-provider is ignored.
        backend = ReplayLLM(cassette_path, strict=True)
    elif provider == "http":
        backend = HTTPProvider.from_env()
    else:
        backend = SimulatedLLM()
    if profile_name:
        try:
            profile = get_profile(profile_name)
        except ValueError as exc:
            raise ReproError(str(exc)) from None
        backend = ProfiledLLM(backend, profile)
    if cassette_mode == "record":
        backend = RecordingLLM(backend, cassette_path)
    stats = UsageStats()
    return CachedLLM(
        CircuitBreaker(
            RetryingLLM(
                backend,
                RetryPolicy(max_retries=getattr(args, "max_retries", 2)),
                stats=stats,
            ),
            stats=stats,
        )
    )


def _resilient_pipeline(args: argparse.Namespace, llm=None) -> PolicyPipeline:
    """A pipeline with the LLM boundary wrapped and the ladder armed."""
    from repro.core.pipeline import PipelineConfig
    from repro.llm.client import CachedLLM, UsageStats
    from repro.llm.simulated import SimulatedLLM
    from repro.resilience import BudgetLadder, CircuitBreaker, RetryingLLM, RetryPolicy

    if llm is None:
        stats = UsageStats()
        llm = CachedLLM(
            CircuitBreaker(
                RetryingLLM(
                    SimulatedLLM(),
                    RetryPolicy(max_retries=args.max_retries),
                    stats=stats,
                ),
                stats=stats,
            )
        )
    try:
        multipliers = tuple(
            float(m) for m in args.ladder.split(",") if m.strip()
        )
    except ValueError:
        raise ReproError(f"invalid --ladder value: {args.ladder!r}") from None
    try:
        ladder = BudgetLadder(
            multipliers=multipliers, decompose=not args.no_decompose
        )
    except ValueError as exc:
        raise ReproError(f"invalid --ladder value: {exc}") from None
    return PolicyPipeline(llm=llm, config=PipelineConfig(budget_ladder=ladder))


def _apply_query_timeout(pipeline: PolicyPipeline, timeout: float | None) -> None:
    """Compose a per-query wall-clock ceiling onto the solver budget.

    The effective deadline is ``min(configured, --timeout)`` — tightening
    only, so the paper-calibrated default never silently grows; without
    ``--timeout`` the budget is untouched.
    """
    if timeout is None:
        return
    if timeout <= 0:
        raise ReproError(f"--timeout must be > 0, got {timeout}")
    from dataclasses import replace

    base = pipeline.config.solver_budget
    effective = (
        timeout
        if base.timeout_seconds is None
        else min(base.timeout_seconds, timeout)
    )
    pipeline.config.solver_budget = replace(base, timeout_seconds=effective)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.verify import is_certification_failure

    llm = _build_provider_stack(args)
    pipeline = (
        _resilient_pipeline(args, llm=llm)
        if args.resilient
        else PolicyPipeline(llm=llm)
    )
    if args.certify is not None:
        pipeline.config.certify = args.certify
    if args.quarantine:
        pipeline.config.certification_quarantine_dir = args.quarantine
    _apply_query_timeout(pipeline, args.timeout)
    if args.from_snapshot:
        model = pipeline.load_model(args.from_snapshot)
    else:
        model = pipeline.process(_read_policy(args.policy))
    outcome = pipeline.query(model, args.question)
    print(outcome.summary())
    if args.smtlib:
        print("\n--- SMT-LIB script ---")
        print(outcome.verification.smtlib_text)
    if args.stats:
        # Fold the LLM stack's live resilience state (breaker, retries,
        # provider/cassette counters) into the lifetime metrics, then
        # merge with the per-query stage accounting for one report.
        pipeline.sync_resilience_metrics()
        stats = PipelineMetrics(queries=0)
        stats.merge(outcome.metrics)
        stats.merge(pipeline.metrics)
        print("\n--- pipeline metrics ---")
        print(stats.render())
    # Exit code communicates the verdict for scripting: 0 valid, 1 invalid,
    # 2 unknown (3 is reserved for errors, matching ErrorOutcome batches;
    # 5 flags the certification soundness alarm, a special UNKNOWN).
    if is_certification_failure(outcome.verification):
        return 5
    return {"VALID": 0, "INVALID": 1, "UNKNOWN": 2, "ERROR": 3}[
        outcome.verdict.value
    ]


def _cmd_audit(args: argparse.Namespace) -> int:
    pipeline = PolicyPipeline()
    model = pipeline.process(_read_policy(args.policy))
    report = find_contradictions(
        model.extraction.practices, data_taxonomy=model.data_taxonomy
    )
    print(render_contradictions(report))
    print()
    print(render_coverage(coverage_report(model.graph)))
    return 0 if not report.genuine else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    pipeline = PolicyPipeline()
    old = extract_policy(pipeline.runner, _read_policy(args.old))
    new = extract_policy(pipeline.runner, _read_policy(args.new), company=old.company)
    diff = diff_policies(old, new)
    print(render_diff(diff))
    return 0 if diff.is_empty else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import load_scenarios, run_scenarios

    pipeline = PolicyPipeline()
    model = pipeline.process(_read_policy(args.policy))
    scenarios = load_scenarios(args.suite)
    report = run_scenarios(pipeline, model, scenarios)
    print(report.render())
    return 0 if report.all_passed else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy

    doc = {
        "tiktak": tiktak_policy,
        "metabook": metabook_policy,
        "meditrack": meditrack_policy,
    }[args.name]()
    if args.out:
        Path(args.out).write_text(doc.text, "utf-8")
        print(f"wrote {doc.word_count:,} words to {args.out}")
    else:
        print(doc.text)
    return 0


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    pipeline = PolicyPipeline()
    model = pipeline.process(_read_policy(args.policy))
    info = pipeline.save_model(model, args.store, journaled=args.journaled)
    print(
        f"committed {info.snapshot_id} (revision {info.revision}, "
        f"company {info.company}) to {args.store}"
    )
    return 0


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    from repro.store import SnapshotStore

    store = SnapshotStore(args.store)
    result = store.load()
    model = result.model
    if result.journal_recovery:
        print(f"journal recovery: {result.journal_recovery}")
    for report in result.quarantined:
        print(report.summary(), file=sys.stderr)
    if result.fallback_from:
        print(
            f"fell back from corrupt {result.fallback_from} to {result.snapshot_id}",
            file=sys.stderr,
        )
    print(f"loaded {result.snapshot_id} in {result.seconds:.3f}s")
    print(f"company: {model.company} (revision {model.revision})")
    print(f"segments: {len(model.extraction.segments)}")
    print(f"practices: {model.extraction.num_practices}")
    print(f"graph edges: {len(model.graph.edges())}")
    print(f"vocabulary: {len(model.node_vocabulary)} terms")
    return 0


def _cmd_snapshot_audit(args: argparse.Namespace) -> int:
    from repro.store import SnapshotStore, audit_parity, audit_structure, heal_model

    store = SnapshotStore(args.store)
    result = store.load()
    model = result.model
    report = audit_structure(model)
    print(report.summary())
    failed = not report.passed
    if args.policy:
        pipeline = PolicyPipeline()
        rebuilt = pipeline.process(_read_policy(args.policy), company=model.company)
        rebuilt.revision = model.revision
        parity = audit_parity(model, rebuilt)
        print(parity.summary())
        if not parity.passed:
            failed = True
            if args.heal:
                heal_model(model, rebuilt)
                info = store.commit_update(model)
                print(f"healed and recommitted as {info.snapshot_id}")
    elif args.heal:
        raise ReproError("--heal requires --policy (the rebuild source)")
    return 1 if failed else 0


def _read_questions(path: str) -> list[str]:
    """One question per line; blank lines and ``#`` comments are skipped."""
    questions = [
        line.strip()
        for line in Path(path).read_text("utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not questions:
        raise ReproError(f"queries file {path} contains no questions")
    return questions


def _add_batch_options(sp, *, checkpoint_required: bool = False) -> None:
    """Job-supervision flags shared by `batch run/resume` and
    `registry query` — one JobRunner stands behind all three."""
    sp.add_argument(
        "--checkpoint",
        metavar="DIR",
        required=checkpoint_required,
        help="checkpoint journal directory (append-only, fsync'd); "
        "enables crash/Ctrl-C resume",
    )
    sp.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker threads (default: min(8, pending queries))",
    )
    sp.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="admission-queue bound: at most N queries in flight or "
        "queued; feeding blocks above it (default: 64)",
    )
    sp.add_argument(
        "--shed-above",
        type=int,
        metavar="N",
        help="load-shed instead of queueing once N queries are pending "
        "(each shed query answers UNKNOWN immediately; must be <= "
        "--max-pending; default: off, pure backpressure)",
    )
    sp.add_argument(
        "--stall-after",
        type=float,
        metavar="S",
        help="watchdog threshold: a query running S seconds without a "
        "heartbeat is cancelled, its worker replaced, and its slot "
        "answered UNKNOWN with a stall report (default: off)",
    )
    sp.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="per-query wall-clock ceiling composed onto the solver "
        "deadline as min(configured, S); default unchanged",
    )
    sp.add_argument(
        "--stats",
        action="store_true",
        help="print merged pipeline metrics for the job",
    )
    sp.add_argument(
        "--json",
        metavar="FILE",
        help="write the full structured result to FILE",
    )
    _add_provider_options(sp)


def _job_config(args: argparse.Namespace):
    from repro.jobs import JobConfig

    try:
        return JobConfig(
            max_workers=args.workers,
            max_pending=args.max_pending,
            shed_above=args.shed_above,
            stall_after=args.stall_after,
            checkpoint_dir=args.checkpoint,
            query_timeout=args.timeout,
        )
    except ValueError as exc:
        raise ReproError(f"invalid batch options: {exc}") from None


def _render_job_result(
    result, args: argparse.Namespace, pipeline: PolicyPipeline | None = None
) -> None:
    from repro.jobs import CheckpointedOutcome

    for index, outcome in enumerate(result.outcomes):
        if outcome is None:
            print(f"[{index}] PENDING  {result.questions[index]}")
            continue
        marker = (
            " (restored)" if isinstance(outcome, CheckpointedOutcome) else ""
        )
        print(f"[{index}] {outcome.verdict.value:8s} {result.questions[index]}{marker}")
    print(result.summary())
    for report in result.stalls:
        print(f"stall: {report.summary()}", file=sys.stderr)
    if result.aborted and result.checkpoint_dir:
        print(
            f"job aborted; resume with: batch resume --checkpoint "
            f"{result.checkpoint_dir}",
            file=sys.stderr,
        )
    if args.stats:
        stats = result.metrics
        if pipeline is not None:
            # Fold the LLM stack's resilience counters (retries, breaker
            # state, provider/cassette totals) into the report.
            pipeline.sync_resilience_metrics()
            stats = PipelineMetrics(queries=0)
            stats.merge(result.metrics)
            stats.merge(pipeline.metrics)
        print("\n--- pipeline metrics ---")
        print(stats.render())
    if args.json:
        from repro.store.atomic import atomic_write_json

        atomic_write_json(args.json, result.as_dict())
        print(f"wrote JSON results to {args.json}")


def _job_exit_code(result) -> int:
    # 6 = aborted with a partial checkpoint (resumable); 3 = completed but
    # some queries failed (isolated errors); 0 = every query answered.
    if result.aborted:
        return 6
    if result.errors:
        return 3
    return 0


def _cmd_registry_mint(args: argparse.Namespace) -> int:
    from repro.registry import MintSpec, PolicyRegistry

    spec_kwargs: dict = {"count": args.count, "seed": args.seed}
    if args.sectors:
        spec_kwargs["sectors"] = tuple(
            s.strip() for s in args.sectors.split(",") if s.strip()
        )
    if args.words:
        try:
            spec_kwargs["target_words"] = tuple(
                int(w) for w in args.words.split(",") if w.strip()
            )
        except ValueError:
            raise ReproError(f"invalid --words value: {args.words!r}") from None
    if args.exception_pairs is not None:
        spec_kwargs["exception_pairs"] = args.exception_pairs
    if args.incoherent_fraction is not None:
        spec_kwargs["incoherent_exception_fraction"] = args.incoherent_fraction
    registry = PolicyRegistry(args.root)
    report = registry.mint(MintSpec(**spec_kwargs))
    print(report.summary())
    print(f"registry: {len(registry)} companies at {args.root}")
    return 0


def _cmd_registry_list(args: argparse.Namespace) -> int:
    from repro.registry import PolicyRegistry

    registry = PolicyRegistry(args.root)
    for company in registry.companies():
        entry = registry.entry(company)
        print(
            f"{company:24s} shard {entry.shard}  revision {entry.revision}"
            + (f"  sector {entry.sector}" if entry.sector else "")
            + (f"  ~{entry.target_words}w" if entry.target_words else "")
        )
    print(f"{len(registry)} companies in {registry.num_shards} shards")
    return 0


def _cmd_registry_query(args: argparse.Namespace) -> int:
    from repro.registry import PolicyRegistry

    pipeline = PolicyPipeline(llm=_build_provider_stack(args))
    _apply_query_timeout(pipeline, args.timeout)
    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint DIR")
    registry = PolicyRegistry(
        args.root, pipeline=pipeline, max_warm=args.max_warm
    )
    companies = None
    if args.companies:
        companies = [c.strip() for c in args.companies.split(",") if c.strip()]
    config = _job_config(args)
    if args.resume:
        report = registry.resume_fleet(args.question, companies, config=config)
    else:
        report = registry.query_fleet(args.question, companies, config=config)
    from repro.jobs import CheckpointedOutcome

    for company, outcome in report.per_company():
        if outcome is None:
            print(f"{company:24s} PENDING")
            continue
        marker = (
            " (restored)" if isinstance(outcome, CheckpointedOutcome) else ""
        )
        print(f"{company:24s} {outcome.verdict.value}{marker}")
    print(report.summary())
    if report.aborted and config.checkpoint_dir:
        print(
            f"fleet aborted; resume with: registry query --root {args.root} "
            f"--resume --checkpoint {config.checkpoint_dir} "
            f"{args.question!r}",
            file=sys.stderr,
        )
    if args.stats:
        # Job counters plus the pipeline-lifetime registry/store counters
        # (hits, shard loads, evictions) — disjoint by construction.
        pipeline.sync_resilience_metrics()
        stats = PipelineMetrics(queries=0)
        stats.merge(report.job.metrics)
        stats.merge(pipeline.metrics)
        print("\n--- pipeline metrics ---")
        print(stats.render())
    if args.json:
        from repro.store.atomic import atomic_write_json

        atomic_write_json(args.json, report.as_dict())
        print(f"wrote JSON results to {args.json}")
    return _job_exit_code(report.job)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServerError
    from repro.server import PolicyServer, ServerConfig

    try:
        config = ServerConfig(
            root=args.root,
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            shed_above=args.shed_above,
            default_deadline=args.deadline,
            max_warm=args.max_warm,
            warm_on_start=args.warm,
            drain_grace=args.drain_grace,
            scrub_interval=(
                args.scrub_interval
                if args.scrub_interval and args.scrub_interval > 0
                else None
            ),
        )
    except ValueError as exc:
        raise ReproError(f"invalid serve options: {exc}") from None
    pipeline = PolicyPipeline(llm=_build_provider_stack(args))
    server = PolicyServer(config, pipeline=pipeline)
    try:
        server.start()
    except ServerError as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 7
    host, port = server.address
    print(f"serving {len(server.companies())} companies on http://{host}:{port}")
    print(
        "endpoints: /query /fleet /healthz /readyz /stats /reload /drain "
        "(SIGINT/SIGTERM drains gracefully)"
    )
    report = server.serve_until_drained()
    print(report.summary())
    if args.stats:
        print("\n--- pipeline metrics ---")
        server.pipeline.sync_resilience_metrics()
        stats = server.metrics
        stats.merge(server.pipeline.metrics)
        print(stats.render())
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.integrity import plan_repairs, run_fsck

    report = run_fsck(args.path)
    print(report.summary())
    plan = plan_repairs(report)
    if not args.repair:
        if not plan.empty:
            print()
            print(plan.summary())
            print("\nrun again with --repair to apply this plan")
        if args.json:
            from repro.store.atomic import atomic_write_json

            atomic_write_json(
                args.json, {"report": report.as_dict(), "plan": plan.as_dict()}
            )
            print(f"wrote JSON report to {args.json}")
        return 0 if report.clean else 9

    had_unrepairable = bool(plan.unrepairable)
    if not plan.empty:
        plan.apply()
        print()
        print(plan.summary())
    after = run_fsck(args.path)
    print()
    print("post-repair " + after.summary())
    if args.json:
        from repro.store.atomic import atomic_write_json

        atomic_write_json(
            args.json,
            {
                "report": report.as_dict(),
                "plan": plan.as_dict(),
                "post_repair": after.as_dict(),
            },
        )
        print(f"wrote JSON report to {args.json}")
    return 0 if after.clean and not had_unrepairable else 9


def _cmd_batch_run(args: argparse.Namespace) -> int:
    from repro.jobs import JobRunner

    pipeline = PolicyPipeline(llm=_build_provider_stack(args))
    _apply_query_timeout(pipeline, args.timeout)
    model = pipeline.process(_read_policy(args.policy))
    questions = _read_questions(args.queries)
    runner = JobRunner(pipeline, model, _job_config(args))
    result = runner.run(questions)
    _render_job_result(result, args, pipeline=pipeline)
    return _job_exit_code(result)


def _cmd_batch_resume(args: argparse.Namespace) -> int:
    from repro.jobs import JobRunner

    pipeline = PolicyPipeline(llm=_build_provider_stack(args))
    _apply_query_timeout(pipeline, args.timeout)
    model = pipeline.process(_read_policy(args.policy))
    runner = JobRunner(pipeline, model, _job_config(args))
    result = runner.resume()
    _render_job_result(result, args, pipeline=pipeline)
    return _job_exit_code(result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-policy",
        description="Privacy-policy extraction and verification (HotNets '25 reproduction)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("process", help="run Phases 1+2 and print statistics")
    p.add_argument("policy", help="path to a policy text file")
    p.add_argument("--artifacts", help="directory for JSON pipeline artifacts")
    p.set_defaults(func=_cmd_process)

    p = sub.add_parser(
        "query",
        help="verify a data-practice question",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "policy",
        nargs="?",
        help="path to a policy text file (omit with --from-snapshot)",
    )
    p.add_argument(
        "question",
        nargs="?",
        help='declarative query, e.g. "Acme collects the email."',
    )
    p.add_argument(
        "--from-snapshot",
        metavar="DIR",
        help="warm-start the model from a snapshot store instead of "
        "re-extracting from policy text",
    )
    p.add_argument("--smtlib", action="store_true", help="print the generated SMT-LIB")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage wall times, cache counters, and solver totals",
    )
    p.add_argument(
        "--resilient",
        action="store_true",
        help="wrap the LLM in retry + circuit-breaker layers and escalate "
        "budget-limited UNKNOWN verdicts through the degradation ladder",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry budget per LLM completion with --resilient (default: 2)",
    )
    p.add_argument(
        "--ladder",
        default="4,16",
        help="comma-separated budget-escalation multipliers for the "
        "degradation ladder with --resilient (default: 4,16)",
    )
    p.add_argument(
        "--no-decompose",
        action="store_true",
        help="disable the per-data-branch decomposition rung of the ladder",
    )
    p.add_argument(
        "--certify",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="independently re-check the solver's verdict (model evaluation "
        "for SAT, proof replay for UNSAT); a failed certificate exits 5 "
        "(default: on)",
    )
    p.add_argument(
        "--quarantine",
        metavar="DIR",
        help="directory for formulas whose verdict failed certification "
        "(written as cert-<digest>/formula.smt2 + report.json)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="per-query wall-clock ceiling in seconds, composed onto the "
        "solver deadline as min(configured, S); default unchanged",
    )
    _add_provider_options(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("audit", help="contradiction and coverage report")
    p.add_argument("policy", help="path to a policy text file")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("diff", help="compare two policy versions")
    p.add_argument("old", help="path to the old version")
    p.add_argument("new", help="path to the new version")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "scenarios", help="run a JSON compliance-scenario suite against a policy"
    )
    p.add_argument("policy", help="path to a policy text file")
    p.add_argument("suite", help="path to a JSON scenario suite")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("corpus", help="emit a bundled synthetic policy")
    p.add_argument("name", choices=["tiktak", "metabook", "meditrack"])
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser(
        "snapshot", help="crash-safe model persistence (save / load / audit)"
    )
    snap = p.add_subparsers(dest="snapshot_command", required=True)

    s = snap.add_parser(
        "save", help="process a policy and commit it as a verified snapshot"
    )
    s.add_argument("policy", help="path to a policy text file")
    s.add_argument("--store", required=True, help="snapshot store directory")
    s.add_argument(
        "--journaled",
        action="store_true",
        help="bracket the commit with the write-ahead update journal",
    )
    s.set_defaults(func=_cmd_snapshot_save)

    s = snap.add_parser(
        "load", help="load the newest hash-valid snapshot and print its stats"
    )
    s.add_argument("--store", required=True, help="snapshot store directory")
    s.set_defaults(func=_cmd_snapshot_load)

    s = snap.add_parser(
        "audit",
        help="verify structural invariants (and, with --policy, "
        "incremental-vs-rebuild parity)",
    )
    s.add_argument("--store", required=True, help="snapshot store directory")
    s.add_argument(
        "--policy",
        help="policy text to rebuild from for the parity audit",
    )
    s.add_argument(
        "--heal",
        action="store_true",
        help="on parity failure, overwrite derived state with the rebuild "
        "and recommit (requires --policy)",
    )
    s.set_defaults(func=_cmd_snapshot_audit)

    p = sub.add_parser(
        "registry",
        help="sharded multi-policy registry (mint / list / query a fleet)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    reg = p.add_subparsers(dest="registry_command", required=True)

    s = reg.add_parser(
        "mint",
        help="deterministically generate, process, and register a fleet "
        "of synthetic policies",
    )
    s.add_argument("--root", required=True, help="registry directory")
    s.add_argument(
        "--count", type=int, required=True, metavar="N", help="companies to mint"
    )
    s.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    s.add_argument(
        "--sectors",
        metavar="A,B,...",
        help="comma-separated sector rotation (default: all sectors)",
    )
    s.add_argument(
        "--words",
        metavar="N,N,...",
        help="comma-separated target word counts, rotated per company "
        "(default: 340,420,520)",
    )
    s.add_argument(
        "--exception-pairs",
        type=int,
        metavar="N",
        help="injected general-rule/exception pairs per policy (default: 3)",
    )
    s.add_argument(
        "--incoherent-fraction",
        type=float,
        metavar="F",
        help="fraction of exception pairs that genuinely contradict "
        "(default: 0.34)",
    )
    s.set_defaults(func=_cmd_registry_mint)

    s = reg.add_parser("list", help="list registered companies and shards")
    s.add_argument("--root", required=True, help="registry directory")
    s.set_defaults(func=_cmd_registry_list)

    s = reg.add_parser(
        "query",
        help="fan one question across the fleet under job supervision",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    s.add_argument("--root", required=True, help="registry directory")
    s.add_argument(
        "question",
        help='declarative query, e.g. "The company shares the email '
        'address with advertisers."',
    )
    s.add_argument(
        "--companies",
        metavar="A,B,...",
        help="comma-separated subset (default: every registered company)",
    )
    s.add_argument(
        "--max-warm",
        type=int,
        default=32,
        metavar="N",
        help="LRU bound on warm models (default: 32)",
    )
    s.add_argument(
        "--resume",
        action="store_true",
        help="resume a checkpointed fleet instead of starting fresh "
        "(requires --checkpoint)",
    )
    _add_batch_options(s)
    s.set_defaults(func=_cmd_registry_query)

    p = sub.add_parser(
        "serve",
        help="resident serving daemon: warm fleet queries over HTTP with "
        "graceful drain, hot reload, and load shedding",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--root", required=True, help="registry directory to serve")
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port; 0 picks an ephemeral port (default: 8321)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=8,
        metavar="N",
        help="admission bound: at most N requests executing at once; "
        "excess requests wait, bounded by their deadline (default: 8)",
    )
    p.add_argument(
        "--shed-above",
        type=int,
        metavar="N",
        help="load-shed watermark: an in-flight depth >= N sheds the "
        "request as a fast 503 instead of queueing it (must be <= "
        "--max-pending; default: off)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=10.0,
        metavar="S",
        help="per-request wall-clock deadline; clients may tighten it, "
        "never loosen it, and the remainder tightens the solver budget "
        "(default: 10)",
    )
    p.add_argument(
        "--max-warm",
        type=int,
        default=32,
        metavar="N",
        help="LRU bound on warm models per epoch (default: 32)",
    )
    p.add_argument(
        "--warm",
        type=int,
        default=-1,
        metavar="N",
        help="companies to pre-load before ready and before each reload "
        "swap: -1 all, 0 none, N first N (default: -1)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds a graceful drain waits for in-flight requests "
        "(default: 30)",
    )
    p.add_argument(
        "--scrub-interval",
        type=float,
        metavar="S",
        help="background-scrubber tick interval in seconds: one snapshot "
        "hash-verified per tick while the queue is idle, damage surfaced "
        "in /stats; <= 0 or omitted disables scrubbing (default: off)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print merged pipeline metrics after the drain",
    )
    _add_provider_options(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "fsck",
        help="unified integrity check over every durable artifact: "
        "stores, registry, checkpoints, cassettes, cert quarantines "
        "(--repair heals what the formats' own recovery can heal)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "path",
        help="what to scan: a registry root, a snapshot store, a "
        "checkpoint directory, a cassette file, a cert-quarantine "
        "directory, or any directory containing a mix of them",
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="apply the deterministic repair plan after scanning: "
        "quarantine corrupt snapshots, republish survivors, truncate "
        "torn journal tails, compact damaged cassettes, reconcile the "
        "registry; exits 0 only when the re-scan is clean and nothing "
        "was unrepairable",
    )
    p.add_argument(
        "--json",
        metavar="FILE",
        help="also write the scan report (and repair plan) as JSON",
    )
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "batch",
        help="supervised batch jobs (run / resume with checkpointing)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    batch = p.add_subparsers(dest="batch_command", required=True)

    s = batch.add_parser(
        "run",
        help="run a query suite under supervision (watchdog, admission "
        "control, graceful drain, checkpointing)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    s.add_argument("policy", help="path to a policy text file")
    s.add_argument(
        "queries",
        help="path to a queries file (one question per line, # comments)",
    )
    _add_batch_options(s, checkpoint_required=False)
    s.set_defaults(func=_cmd_batch_run)

    s = batch.add_parser(
        "resume",
        help="resume a checkpointed job: restore committed verdicts, "
        "re-execute only pending queries",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    s.add_argument("policy", help="path to the policy text file of the job")
    _add_batch_options(s, checkpoint_required=True)
    s.set_defaults(func=_cmd_batch_resume)

    return parser


def _normalize_query_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Resolve the optional ``policy`` positional for ``query``.

    With ``--from-snapshot`` the policy file is omitted, so a lone
    positional is the question: ``query --from-snapshot DIR "Q"``.
    """
    if getattr(args, "command", None) != "query":
        return
    if args.from_snapshot and args.question is None:
        args.policy, args.question = None, args.policy
    if args.question is None:
        parser.error("query requires a question")
    if args.from_snapshot and args.policy:
        parser.error("give either a policy file or --from-snapshot, not both")
    if not args.from_snapshot and not args.policy:
        parser.error("query requires a policy file (or --from-snapshot DIR)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _normalize_query_args(parser, args)
    try:
        return args.func(args)
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        reports = getattr(exc, "reports", ())
        for report in reports:
            print(report.summary(), file=sys.stderr)
        return 4
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 8
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved CLI.
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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


def _add_shared_options(
    sp,
    *,
    root: bool = False,
    store: bool = False,
    max_warm: bool = False,
    timeout: bool = False,
    stats: bool = False,
    json: bool = False,
) -> None:
    """Options that several commands take, each declared only here."""
    if root:
        sp.add_argument("--root", required=True, help="registry directory")
    if store:
        sp.add_argument("--store", required=True, help="snapshot store directory")
    if max_warm:
        sp.add_argument(
            "--max-warm",
            type=int,
            default=32,
            metavar="N",
            help="LRU bound on warm models (per epoch when serving; "
            "default: 32)",
        )
    if timeout:
        sp.add_argument(
            "--timeout",
            type=float,
            metavar="S",
            help="per-query wall-clock ceiling in seconds, composed onto the "
            "solver deadline as min(configured, S); default unchanged",
        )
    if stats:
        sp.add_argument(
            "--stats",
            action="store_true",
            help="print the merged pipeline metrics when done: stage times "
            "and the cache, solver, job, registry and LLM counters",
        )
    if json:
        sp.add_argument(
            "--json",
            metavar="FILE",
            help="also write the structured result (for fsck, the scan "
            "report and repair plan) to FILE as JSON",
        )


def _build_provider_stack(args: argparse.Namespace, *, always: bool = False):
    """Compose the LLM stack the provider/cassette flags describe.

    Returns ``None`` when no provider flag is active and ``always`` is
    false, so callers fall through to the pipeline's default backend.
    From the top, the stack is ``CachedLLM``, ``CircuitBreaker``,
    ``RetryingLLM``, an optional ``RecordingLLM``, an optional
    ``ProfiledLLM`` and the backend — retries above the recorder so only
    completions that actually succeeded are captured, the profile
    injector at the bottom where a real unreliable provider would sit.
    """
    provider = getattr(args, "provider", "simulated")
    cassette_mode = getattr(args, "cassette", None)
    cassette_path = getattr(args, "cassette_path", None)
    profile_name = getattr(args, "profile", None)
    if cassette_mode and not cassette_path:
        raise ReproError("--cassette requires --cassette-path FILE")
    if cassette_path and not cassette_mode:
        raise ReproError("--cassette-path requires --cassette record|replay")
    if provider == "simulated" and not (cassette_mode or profile_name or always):
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


def _resilient_pipeline(args: argparse.Namespace) -> PolicyPipeline:
    """A pipeline with the LLM boundary wrapped and the ladder armed."""
    from repro.core.pipeline import PipelineConfig
    from repro.resilience import BudgetLadder

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
    return PolicyPipeline(
        llm=_build_provider_stack(args, always=True),
        config=PipelineConfig(budget_ladder=ladder),
    )


def _print_stats(
    args: argparse.Namespace,
    pipeline: PolicyPipeline,
    *parts: PipelineMetrics,
    scrubber=None,
) -> None:
    """The ``--stats`` block: ``parts`` merged with the pipeline's
    metrics, then the counters whose owners keep them (the LLM wrapper
    stack's, and the background scrubber's when one ran)."""
    if not args.stats:
        return
    from repro.providers.introspect import llm_stack_state

    print("\n--- pipeline metrics ---")
    print(pipeline.metrics_report(*parts).render())
    llm = llm_stack_state(pipeline.llm)
    usage = llm["usage"]
    print(
        f"llm boundary: breaker {llm['breaker_state']}; "
        f"{usage['retries']} retries "
        f"({usage['retry_after_honored']} on server hints), "
        f"{usage['retry_giveups']} giveups; "
        f"provider: {usage['provider_calls']} calls, "
        f"{usage['provider_rate_limited']} rate-limited; "
        f"cassette: {usage['cassette_records']} recorded, "
        f"{usage['cassette_replays']} replayed, "
        f"{usage['cassette_misses']} misses"
    )
    if scrubber is not None:
        scrub = scrubber.stats()
        print(
            f"scrub: {scrub['passes']} passes, "
            f"{scrub['artifacts_verified']} artifacts verified, "
            f"{scrub['paused_ticks']} paused ticks"
        )


def _write_json(path: str | None, payload: dict, what: str) -> None:
    """The ``--json`` file, written atomically when a path was given."""
    if path:
        from repro.store.atomic import atomic_write_json

        atomic_write_json(path, payload)
        print(f"wrote JSON {what} to {path}")


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.verify import is_certification_failure

    if args.resilient:
        pipeline = _resilient_pipeline(args)
    else:
        pipeline = PolicyPipeline(llm=_build_provider_stack(args))
    if args.certify is not None:
        pipeline.config.certify = args.certify
    if args.quarantine:
        pipeline.config.certification_quarantine_dir = args.quarantine
    if args.timeout is not None:
        budget = pipeline.config.solver_budget
        pipeline.config.solver_budget = budget.tightened(args.timeout)
    if args.from_snapshot:
        model = pipeline.load_model(args.from_snapshot)
    else:
        model = pipeline.process(_read_policy(args.policy))
    outcome = pipeline.query(model, args.question)
    print(outcome.summary())
    if args.smtlib:
        print("\n--- SMT-LIB script ---")
        print(outcome.verification.smtlib_text)
    _print_stats(args, pipeline, outcome.metrics)
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


def _add_admission_options(sp, *, max_pending: int, unit: str) -> None:
    """The AdmissionGate bounds, shared by the job and serving commands."""
    sp.add_argument(
        "--max-pending",
        type=int,
        default=max_pending,
        metavar="N",
        help=f"admission bound: at most N {unit} admitted and not yet "
        f"finished; more wait for a slot (default: {max_pending})",
    )
    sp.add_argument(
        "--shed-above",
        type=int,
        metavar="N",
        help=f"load-shed watermark: once N {unit} are pending, each new "
        "one answers UNKNOWN at once (a 503 when serving) instead of "
        "waiting (must be <= --max-pending; default: off)",
    )


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
    _add_admission_options(sp, max_pending=64, unit="queries")
    sp.add_argument(
        "--stall-after",
        type=float,
        metavar="S",
        help="watchdog threshold: a query running S seconds without a "
        "heartbeat is cancelled, its worker replaced, and its slot "
        "answered UNKNOWN with a stall report (default: off)",
    )
    _add_shared_options(sp, timeout=True, stats=True, json=True)
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


def _print_outcome(label: str, outcome, question: str = "") -> None:
    """One row of a job's outcomes: PENDING where the job never answered,
    and ``(restored)`` after a verdict read back from the checkpoint."""
    from repro.jobs import CheckpointedOutcome

    verdict = "PENDING" if outcome is None else outcome.verdict.value
    if question:
        verdict = f"{verdict:8s} {question}"
    marker = " (restored)" if isinstance(outcome, CheckpointedOutcome) else ""
    print(f"{label} {verdict}{marker}")


def _job_exit_code(result) -> int:
    # 6 = aborted with a partial checkpoint (resumable); 3 = completed but
    # some queries failed (isolated errors); 0 = every query answered.
    if result.aborted:
        return 6
    if result.errors:
        return 3
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.jobs import JobRunner

    config = _job_config(args)
    pipeline = PolicyPipeline(llm=_build_provider_stack(args))
    model = pipeline.process(_read_policy(args.policy))
    runner = JobRunner(pipeline, model, config)
    if args.batch_command == "run":
        result = runner.run(_read_questions(args.queries))
    else:
        result = runner.resume()
    for index, outcome in enumerate(result.outcomes):
        _print_outcome(f"[{index}]", outcome, result.questions[index])
    print(result.summary())
    for report in result.stalls:
        print(f"stall: {report.summary()}", file=sys.stderr)
    if result.aborted and result.checkpoint_dir:
        print(
            f"job aborted; resume with: batch resume --checkpoint "
            f"{result.checkpoint_dir}",
            file=sys.stderr,
        )
    _print_stats(args, pipeline, result.metrics)
    _write_json(args.json, result.as_dict(), "results")
    return _job_exit_code(result)


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

    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint DIR")
    config = _job_config(args)
    pipeline = PolicyPipeline(llm=_build_provider_stack(args))
    registry = PolicyRegistry(
        args.root, pipeline=pipeline, max_warm=args.max_warm
    )
    companies = None
    if args.companies:
        companies = [c.strip() for c in args.companies.split(",") if c.strip()]
    if args.resume:
        report = registry.resume_fleet(args.question, companies, config=config)
    else:
        report = registry.query_fleet(args.question, companies, config=config)
    for company, outcome in report.per_company():
        _print_outcome(f"{company:24s}", outcome)
    print(report.summary())
    if report.aborted and config.checkpoint_dir:
        print(
            f"fleet aborted; resume with: registry query --root {args.root} "
            f"--resume --checkpoint {config.checkpoint_dir} "
            f"{args.question!r}",
            file=sys.stderr,
        )
    # Job counters plus the pipeline-lifetime registry/store counters
    # (hits, shard loads, evictions) — disjoint by construction.
    _print_stats(args, pipeline, report.job.metrics)
    _write_json(args.json, report.as_dict(), "results")
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
    _print_stats(
        args, server.pipeline, server.metrics, scrubber=server.scrubber
    )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.integrity import plan_repairs, run_fsck

    report = run_fsck(args.path)
    print(report.summary())
    plan = plan_repairs(report)
    payload = {"report": report.as_dict()}
    if not args.repair:
        if not plan.empty:
            print()
            print(plan.summary())
            print("\nrun again with --repair to apply this plan")
        payload["plan"] = plan.as_dict()
        _write_json(args.json, payload, "report")
        return 0 if report.clean else 9

    had_unrepairable = bool(plan.unrepairable)
    if not plan.empty:
        plan.apply()
        print()
        print(plan.summary())
    after = run_fsck(args.path)
    print()
    print("post-repair " + after.summary())
    payload.update(plan=plan.as_dict(), post_repair=after.as_dict())
    _write_json(args.json, payload, "report")
    return 0 if after.clean and not had_unrepairable else 9


def _add_command(sub, name: str, help: str, func=None) -> argparse.ArgumentParser:
    """A subcommand whose ``--help`` ends with the exit-code table."""
    p = sub.add_parser(
        name,
        help=help,
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    if func is not None:
        p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-policy",
        description="Privacy-policy extraction and verification (HotNets '25 reproduction)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "process", "run Phases 1+2 and print statistics", _cmd_process)
    p.add_argument("policy", help="path to a policy text file")
    p.add_argument("--artifacts", help="directory for JSON pipeline artifacts")

    p = _add_command(sub, "query", "verify a data-practice question", _cmd_query)
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
    _add_shared_options(p, timeout=True, stats=True)
    _add_provider_options(p)

    p = _add_command(sub, "audit", "contradiction and coverage report", _cmd_audit)
    p.add_argument("policy", help="path to a policy text file")

    p = _add_command(sub, "diff", "compare two policy versions", _cmd_diff)
    p.add_argument("old", help="path to the old version")
    p.add_argument("new", help="path to the new version")

    p = _add_command(
        sub,
        "scenarios",
        "run a JSON compliance-scenario suite against a policy",
        _cmd_scenarios,
    )
    p.add_argument("policy", help="path to a policy text file")
    p.add_argument("suite", help="path to a JSON scenario suite")

    p = _add_command(sub, "corpus", "emit a bundled synthetic policy", _cmd_corpus)
    p.add_argument("name", choices=["tiktak", "metabook", "meditrack"])
    p.add_argument("--out", help="write to a file instead of stdout")

    p = _add_command(
        sub, "snapshot", "crash-safe model persistence (save / load / audit)"
    )
    snap = p.add_subparsers(dest="snapshot_command", required=True)

    s = _add_command(
        snap,
        "save",
        "process a policy and commit it as a verified snapshot",
        _cmd_snapshot_save,
    )
    s.add_argument("policy", help="path to a policy text file")
    _add_shared_options(s, store=True)
    s.add_argument(
        "--journaled",
        action="store_true",
        help="bracket the commit with the write-ahead update journal",
    )

    s = _add_command(
        snap,
        "load",
        "load the newest hash-valid snapshot and print its stats",
        _cmd_snapshot_load,
    )
    _add_shared_options(s, store=True)

    s = _add_command(
        snap,
        "audit",
        "verify structural invariants (and, with --policy, "
        "incremental-vs-rebuild parity)",
        _cmd_snapshot_audit,
    )
    _add_shared_options(s, store=True)
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

    p = _add_command(
        sub, "registry", "sharded multi-policy registry (mint / list / query a fleet)"
    )
    reg = p.add_subparsers(dest="registry_command", required=True)

    s = _add_command(
        reg,
        "mint",
        "deterministically generate, process, and register a fleet "
        "of synthetic policies",
        _cmd_registry_mint,
    )
    _add_shared_options(s, root=True)
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

    s = _add_command(
        reg, "list", "list registered companies and shards", _cmd_registry_list
    )
    _add_shared_options(s, root=True)

    s = _add_command(
        reg,
        "query",
        "fan one question across the fleet under job supervision",
        _cmd_registry_query,
    )
    _add_shared_options(s, root=True, max_warm=True)
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
        "--resume",
        action="store_true",
        help="resume a checkpointed fleet instead of starting fresh "
        "(requires --checkpoint)",
    )
    _add_batch_options(s)

    p = _add_command(
        sub,
        "serve",
        "resident serving daemon: warm fleet queries over HTTP with "
        "graceful drain, hot reload, and load shedding",
        _cmd_serve,
    )
    _add_shared_options(p, root=True, max_warm=True, stats=True)
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port; 0 picks an ephemeral port (default: 8321)",
    )
    _add_admission_options(p, max_pending=8, unit="requests")
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
    _add_provider_options(p)

    p = _add_command(
        sub,
        "fsck",
        "unified integrity check over every durable artifact: "
        "stores, registry, checkpoints, cassettes, cert quarantines "
        "(--repair heals what the formats' own recovery can heal)",
        _cmd_fsck,
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
    _add_shared_options(p, json=True)

    p = _add_command(
        sub, "batch", "supervised batch jobs (run / resume with checkpointing)"
    )
    batch = p.add_subparsers(dest="batch_command", required=True)

    s = _add_command(
        batch,
        "run",
        "run a query suite under supervision (watchdog, admission "
        "control, graceful drain, checkpointing)",
        _cmd_batch,
    )
    s.add_argument("policy", help="path to a policy text file")
    s.add_argument(
        "queries",
        help="path to a queries file (one question per line, # comments)",
    )
    _add_batch_options(s)

    s = _add_command(
        batch,
        "resume",
        "resume a checkpointed job: restore committed verdicts, "
        "re-execute only pending queries",
        _cmd_batch,
    )
    s.add_argument("policy", help="path to the policy text file of the job")
    _add_batch_options(s, checkpoint_required=True)

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
        timeout = getattr(args, "timeout", None)
        if timeout is not None and timeout <= 0:
            raise ReproError(f"--timeout must be > 0, got {timeout}")
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

"""The in-process workloads: ``audit``, ``update`` and ``fleet``.

Each function takes a :class:`~perfbench.core.Context` and returns a
:class:`Result`.  Set-up is repeated (three times in a measured run) and
reported as its median.  The measured phase is a closed loop of one client
over whole cycles (see :func:`~perfbench.core.run_cycles`), with a
host-speed probe before each operation; times are then scaled to
reference speed (:class:`~perfbench.host.HostSpeed`).  The correctness
checks run after the timed phase and mark the operations they find wrong
as failed.

The ``*_CYCLE_SECONDS`` constants are how long one cycle takes on the
reference host (2 cores, CPython 3.11); they only convert ``--seconds``
into a fixed number of cycles (see :func:`~perfbench.core.cycle_count`).
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from dataclasses import dataclass, field

from perfbench import inputs
from perfbench.core import (
    Context,
    wall_metrics,
    Op,
    Phase,
    digest,
    end_to_end,
    layer_metrics,
    overhead,
    partial_end_to_end,
    quarantined,
    cycle_count,
    run_cycles,
    stage_coverage,
    verdict_shares,
)
from perfbench.host import GCPauses, peak_rss_mb
from perfbench.tracing import Tracer

#: ``audit``: each cycle is one audit session: a fresh pipeline over the
#: processed model with its caches emptied, asking one fixed block of
#: distinct questions (templated from the model's vocabulary, spread over
#: it in sorted order) with exact repeats and paraphrases of them, in
#: seeded order.  Every session asks the same block, so a run measures
#: each question once per session and its percentiles rest on repeated
#: measurements of the same operations.  (With a new block per session,
#: the p95 fell among four distinct questions between a group at about
#: 2 s and one at about 0.3 s, and moved by 10-20% from run to run.)  The
#: caches answer about a quarter of the operations, so the median stays
#: among the operations the solver answers.
AUDIT_BLOCK = 32
AUDIT_REPEATS = 8
AUDIT_PARAPHRASES = 4
AUDIT_CYCLE_SECONDS = 5.4

#: ``update``: MediTrack at its default size (about 10k words) with
#: ``make_version``'s default edit mix; one revision (about 100 ms) plus
#: its probe (about 55 ms) takes about 160 ms, and generating the revision
#: another 35 ms, untimed.  One probe keeps a run of the 200 operations
#: its p95 needs near 45 s.  Each revision is the base policy with its own
#: seeded edits.
UPDATE_REVISIONS = 40  # per cycle
UPDATE_CYCLE_SECONDS = 6.4
UPDATE_REVISION_SEED = 7_000

#: ``fleet``: a fixed minted fleet larger than the registry's 8-slot LRU;
#: one fan-out asks one question across one sector's companies (three).
FLEET_COMPANIES = 15
FLEET_MINT_SEED = 11
FLEET_QUESTIONS = 6
FLEET_CHECK_SAMPLE = 6
FLEET_CYCLE_SECONDS = 1.7


@dataclass(slots=True)
class Result:
    """What a workload hands back to the runner."""

    metrics: dict[str, float]
    ops: list[Op]
    correct: bool
    detail: dict = field(default_factory=dict)


#: Probes taken before and after each set-up for its speed factor.
SETUP_PROBES = 5


def _timed_setups(ctx: Context, build, discard=None):
    """Run ``build(i)`` ``ctx.setup_repeats`` times; return (times, last).

    ``times`` maps ``"wall"`` and ``"reference"`` to the set-up times in
    wall and in reference-speed seconds (scaled by probes taken just
    before and after each set-up).  ``discard`` releases each earlier
    set-up, outside the timing.  In a traced run the one set-up is traced,
    and the mean time of a snapshot commit in it is kept for
    ``store.commit_ms``.
    """
    times, built = {"wall": [], "reference": []}, None
    for i in range(ctx.setup_repeats):
        if built is not None and discard is not None:
            discard(built)
        tracer = Tracer() if ctx.trace else None
        if tracer is not None:
            tracer.install()
        ctx.speed.sample(SETUP_PROBES)
        started = time.perf_counter()
        try:
            built = build(i)
        finally:
            elapsed = time.perf_counter() - started
            ctx.speed.sample(SETUP_PROBES)
            times["wall"].append(elapsed)
            times["reference"].append(ctx.speed.scale(started, elapsed, exact=True))
            if tracer is not None:
                tracer.uninstall()
                trace = tracer.trace()
                commits = trace.layer_calls("store.commit")
                ctx.setup_layers["store.commit_ms"] = (
                    trace.layer_seconds("store.commit") * 1e3 / commits if commits else 0.0
                )
    return times, built


def _normalized(ctx: Context, phase: Phase) -> Phase:
    """``phase`` in reference-speed time (its ops' seconds and its length)."""
    ctx.speed.normalize(phase.ops)
    phase.seconds = sum(op.seconds for op in phase.ops)
    return phase


def _measure(
    ctx: Context, cycle, cycles: int, *, traced_first: int = 10_000, gc_hook: bool = True
):
    """The measured phase, or in a traced run an untraced half and a traced
    half (cycles from ``traced_first`` on); returns ``(phase, extras)``.

    ``gc_hook=False`` leaves ``gc.callbacks`` alone (``gc_pause_ms`` is
    then not measured): see :func:`fleet`.
    """
    if not ctx.trace:
        if not gc_hook:
            return _normalized(ctx, run_cycles(cycle, cycles)), {"gc_pause_ms": None}
        with GCPauses() as gc_pauses:
            phase = run_cycles(cycle, cycles)
        return _normalized(ctx, phase), {"gc_pause_ms": gc_pauses.seconds * 1e3}
    half = max(1, (cycles + 1) // 2)
    untraced = _normalized(ctx, run_cycles(cycle, half))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cycles(cycle, half, traced_first)
    finally:
        tracer.uninstall()
    traced = _normalized(ctx, traced)
    trace = tracer.trace()
    layers = layer_metrics(trace, len(traced.ops))
    client = sum(op.wall for op in traced.ops)
    extras = {
        "layers": layers,
        "phase": traced,
        "overhead": overhead(
            partial_end_to_end(untraced, untraced.ops),
            partial_end_to_end(traced, traced.ops),
        ),
        "integrity": trace.integrity(),
        "coverage": stage_coverage(trace, client),
    }
    return untraced, extras


def _finish(ctx, phase, extras, setup_times, detail) -> Result:
    """Assemble the metrics for a measured or a traced run."""
    success, decided, counts = verdict_shares(phase.ops)
    detail.update(
        {
            "verdicts": counts,
            "failed_share": 1.0 - success,
            "unknown_share": 1.0 - decided,
            "samples": len(phase.ops),
            "measured_s": phase.seconds,
            "measured_wall_s": sum(op.wall for op in phase.ops),
            "setup_runs_s": setup_times["reference"],
            "setup_runs_wall_s": setup_times["wall"],
            "host.speed": ctx.speed.summary(),
        }
    )
    correct = detail.get("checks_ok", True)
    if ctx.trace:
        detail["tracing_overhead"] = extras["overhead"]
        detail["trace_integrity"] = extras["integrity"]
        detail["trace_coverage"] = extras["coverage"]
        correct = correct and not any(extras["integrity"].values())
        layers = {**extras["layers"], **ctx.setup_layers}
        return Result(layers, phase.ops + extras["phase"].ops, correct, detail)
    detail["gc_pause_ms"] = extras["gc_pause_ms"]
    detail["wall_metrics"] = wall_metrics(phase, setup_times["wall"])
    metrics = end_to_end(
        phase,
        phase.ops,
        phase.ops,
        setup_seconds=setup_times["reference"],
        peak_rss_mb=peak_rss_mb(),
    )
    return Result(metrics, phase.ops, correct, detail)


# ----------------------------------------------------------------------
# audit: many related questions over one processed policy
# ----------------------------------------------------------------------


def audit(ctx: Context) -> Result:
    from repro import PolicyPipeline
    from repro.core.verify import is_certification_failure
    from repro.corpus import tiktak_policy

    text = tiktak_policy().text
    setup_times, model = _timed_setups(ctx, lambda _i: PolicyPipeline().process(text))
    block = 4 if ctx.tiny else AUDIT_BLOCK
    repeats = 40 if ctx.tiny else AUDIT_REPEATS
    paraphrases = 2 if ctx.tiny else AUDIT_PARAPHRASES
    per_cycle = block + repeats + paraphrases
    cycles = cycle_count(ctx, per_cycle, AUDIT_CYCLE_SECONDS)
    # The same block every session: block / 4 questions per template.
    questions = inputs.audit_catalog(model, -(-block // 4))[:block]
    reference: dict[str, str] = {}
    failures: Counter = Counter()

    def cycle(k: int) -> Phase:
        stream = inputs.question_stream(
            questions, ctx.rng("audit", k), repeats=repeats, paraphrases=paraphrases
        )
        # Each cycle is one audit session: a fresh pipeline (cold LLM
        # cache) over the processed model with its query caches emptied.
        pipeline = PolicyPipeline()
        model.caches.clear()
        phase = Phase()
        for item in stream:
            ctx.speed.sample()
            started = time.perf_counter()
            try:
                outcome = pipeline.query(model, item.text)
            except Exception as exc:  # noqa: BLE001 - a raised error is a failed op
                phase.ops.append(
                    Op(time.perf_counter() - started, ok=False, key=item, started=started)
                )
                failures[type(exc).__name__] += 1
                continue
            elapsed = time.perf_counter() - started
            verdict = outcome.verdict.value
            ok = True
            if is_certification_failure(outcome.verification):
                failures["soundness_alarm"] += 1
                ok = False
            if reference.setdefault(item.text, verdict) != verdict:
                failures["verdict_changed"] += 1
                ok = False
            phase.ops.append(
                Op(elapsed, ok=ok, verdicts=(verdict,), key=item, started=started)
            )
        phase.seconds = sum(op.seconds for op in phase.ops)
        return phase

    # A traced run replays the same sessions traced (0 .. half - 1 twice).
    phase, extras = _measure(ctx, cycle, cycles, traced_first=0)
    detail = {
        "mix": {
            "cycles": cycles,
            "distinct_questions": len(questions),
            "ops_per_cycle": per_cycle,
            "repeat_share": repeats / per_cycle,
            "paraphrase_share": paraphrases / per_cycle,
        },
        "digest": digest({q.text: reference[q.text] for q in questions if q.text in reference}),
        "failures": dict(failures),
    }
    return _finish(ctx, phase, extras, setup_times, detail)


# ----------------------------------------------------------------------
# update: re-verify after the policy changes
# ----------------------------------------------------------------------


def update_probes(company: str) -> list[str]:
    return [f"{company} collects the email address."]


def update(ctx: Context) -> Result:
    from repro import PolicyPipeline
    from repro.corpus import meditrack_policy
    from repro.corpus.versions import make_version

    base = (meditrack_policy(1_500) if ctx.tiny else meditrack_policy()).text

    def build(_i):
        pipeline = PolicyPipeline()
        return pipeline, pipeline.process(base)

    setup_times, (pipeline, model) = _timed_setups(ctx, build)
    block = 4 if ctx.tiny else UPDATE_REVISIONS
    probes = update_probes(model.company)
    answers: dict[int, list[str]] = {}
    failures: Counter = Counter()
    last: list = []  # [(revision text, answers, op)] of the newest op
    stats_totals = {"segments": 0, "reextracted": 0, "edits": 0}

    def cycle(k: int) -> Phase:
        # Cycle k applies revisions [k * block, (k + 1) * block) of one
        # fixed chain of distinct revisions, in seeded order: every
        # revision is new text (its LLM extraction is not cached), and
        # every seed applies the same first block.
        nonlocal model
        numbers = list(range(k * block, (k + 1) * block))
        ctx.rng("update", k).shuffle(numbers)
        versions = {r: make_version(base, seed=UPDATE_REVISION_SEED + r) for r in numbers}
        texts = {r: version.text for r, version in versions.items()}
        phase = Phase()
        for r in numbers:
            ctx.speed.sample()
            started = time.perf_counter()
            try:
                model, stats = pipeline.update(model, texts[r], in_place=True)
                verdicts = tuple(pipeline.query(model, p).verdict.value for p in probes)
            except Exception as exc:  # noqa: BLE001 - a raised error is a failed op
                phase.ops.append(
                    Op(time.perf_counter() - started, ok=False, key=r, started=started)
                )
                failures[type(exc).__name__] += 1
                continue
            op = Op(time.perf_counter() - started, verdicts=verdicts, key=r, started=started)
            phase.ops.append(op)
            answers[r] = list(verdicts)
            last[:] = [(texts[r], list(verdicts), op)]
            stats_totals["segments"] += stats.segments_total
            stats_totals["reextracted"] += stats.segments_reextracted
            stats_totals["edits"] += versions[r].num_edits
        phase.seconds = sum(op.seconds for op in phase.ops)
        return phase

    phase, extras = _measure(ctx, cycle, cycle_count(ctx, block, UPDATE_CYCLE_SECONDS))

    # Incremental-update parity: the newest revision, processed from
    # scratch, must answer the probes exactly as the patched model did.
    parity_ok = True
    if last:
        text, patched, op = last[0]
        fresh = PolicyPipeline()
        rebuilt = fresh.process(text)
        expected = [fresh.query(rebuilt, p).verdict.value for p in probes]
        parity_ok = expected == patched
        if not parity_ok:
            failures["update_parity"] += 1
            op.ok = False
    detail = {
        "mix": {
            "revisions_per_cycle": block,
            "edits_per_revision": stats_totals["edits"] / max(len(answers), 1),
            "probes_per_revision": len(probes),
            "policy_words": len(base.split()),
            "reextracted_share": stats_totals["reextracted"]
            / max(stats_totals["segments"], 1),
        },
        "checks": {"update_parity": parity_ok},
        "failures": dict(failures),
        "digest": digest({r: answers.get(r) for r in range(block)}),
    }
    return _finish(ctx, phase, extras, setup_times, detail)


# ----------------------------------------------------------------------
# fleet: one question across many companies
# ----------------------------------------------------------------------


def fleet(ctx: Context) -> Result:
    from repro import JobConfig, PolicyPipeline
    from repro.registry import MintSpec, PolicyRegistry

    companies = 10 if ctx.tiny else FLEET_COMPANIES
    spec = MintSpec(count=companies, seed=FLEET_MINT_SEED)

    def build(i):
        root = ctx.workdir / f"fleet-{i}"
        PolicyRegistry(root, pipeline=PolicyPipeline()).mint(spec)
        return root

    setup_times, root = _timed_setups(
        ctx, build, lambda old: shutil.rmtree(old, ignore_errors=True)
    )
    registry = PolicyRegistry(root, pipeline=PolicyPipeline())
    rosters: dict[str, list[str]] = {}
    for company in registry.companies():
        rosters.setdefault(registry.entry(company).sector, []).append(company)
    questions = inputs.fleet_questions(2 if ctx.tiny else FLEET_QUESTIONS)
    sectors = sorted(rosters)
    answers: dict[tuple[str, str], str] = {}
    failures: Counter = Counter()
    examples: dict[str, str] = {}  # the first message of each failure kind
    fanouts = [0]
    cache = registry.cache
    # Warm-LRU counters, split by half (cycles >= 10_000 are traced).
    lru = {half: [0, 0, 0] for half in ("measured", "traced")}

    def cycle(k: int) -> Phase:
        # Questions in seeded order; each asked across the fleet sector by
        # sector in sorted order, a scan the 8-slot LRU cannot hold.
        ordered = list(questions)
        ctx.rng("fleet", k).shuffle(ordered)
        order = [(sector, q) for q in ordered for sector in sectors]
        phase = Phase()
        checkpoints = ctx.workdir / f"checkpoints-{k}"
        for sector, question in order:
            roster = rosters[sector]
            fanouts[0] += 1
            config = JobConfig(
                max_workers=ctx.nproc, checkpoint_dir=checkpoints / str(fanouts[0])
            )
            before = (cache.hits, cache.misses, cache.evictions)
            ctx.speed.sample()
            started = time.perf_counter()
            try:
                report = registry.query_fleet(question, roster, config=config)
            except Exception as exc:  # noqa: BLE001 - a raised error is a failed op
                phase.ops.append(Op(time.perf_counter() - started, ok=False, started=started))
                failures[type(exc).__name__] += 1
                continue
            elapsed = time.perf_counter() - started
            after = (cache.hits, cache.misses, cache.evictions)
            counters = lru["traced" if k >= 10_000 else "measured"]
            for i in range(3):
                counters[i] += after[i] - before[i]
            verdicts = tuple(report.verdict_of(c) or "NONE" for c in roster)
            for company, outcome in report.errors:
                kind = f"{outcome.stage}:{outcome.error_type}"
                failures[kind] += 1
                examples.setdefault(kind, f"{company}: {outcome.message}"[:300])
            if report.aborted:
                failures["aborted"] += 1
            ok = not report.errors and not report.aborted and "NONE" not in verdicts
            for company, verdict in zip(roster, verdicts):
                if answers.setdefault((company, question), verdict) != verdict:
                    failures["verdict_changed"] += 1
                    ok = False
            phase.ops.append(
                Op(
                    elapsed,
                    ok=ok,
                    verdicts=verdicts,
                    key=(tuple(roster), question),
                    started=started,
                )
            )
        shutil.rmtree(checkpoints, ignore_errors=True)
        phase.seconds = sum(op.seconds for op in phase.ops)
        return phase

    cycles = cycle_count(ctx, len(sectors) * len(questions), FLEET_CYCLE_SECONDS)
    # No gc.callbacks hook here: a Python callback run by a collection
    # inside the AST constructor lets another thread in, and CPython 3.11's
    # AST constructor keeps its recursion check per interpreter, not per
    # thread.  With the hook, two job workers parsing ``.npy`` headers
    # (``ast.literal_eval``) at once intermittently failed that check and
    # the store quarantined a valid snapshot.
    phase, extras = _measure(ctx, cycle, cycles, gc_hook=False)
    hits, misses, evictions = lru["measured"]

    # Fleet verdicts must equal in-process queries on the same snapshots.
    sample = ctx.rng("fleet-check").sample(
        sorted(answers), min(FLEET_CHECK_SAMPLE, len(answers))
    )
    reference = PolicyPipeline()
    mismatched = set()
    for company, question in sample:
        try:
            model = reference.load_model(root / registry.entry(company).store_dir)
            verdict = reference.query(model, question).verdict.value
        except Exception as exc:  # noqa: BLE001 - a raised error is a failed check
            verdict = None
            failures[f"fleet_reference:{type(exc).__name__}"] += 1
            examples.setdefault(f"fleet_reference:{type(exc).__name__}", str(exc)[:300])
        if verdict != answers[(company, question)]:
            mismatched.add((company, question))
            failures["fleet_reference"] += 1
    for op in phase.ops + (extras["phase"].ops if ctx.trace else []):
        if op.key is not None and any((c, op.key[1]) in mismatched for c in op.key[0]):
            op.ok = False
    detail = {
        "mix": {
            "companies": companies,
            "registry_warm_slots": cache.capacity,
            "roster_sizes": sorted({len(r) for r in rosters.values()}),
            "questions": len(questions),
            "cold_load_share": misses / max(hits + misses, 1),
            "evictions": evictions,
        },
        "checks": {"fleet_sample": len(sample), "fleet_mismatches": len(mismatched)},
        "checks_ok": not mismatched,
        "failures": dict(failures),
        "failure_examples": examples,
        "quarantined": quarantined(root),
        "digest": digest({f"{c}|{q}": v for (c, q), v in answers.items()}),
    }
    if ctx.trace:
        hits, misses, evictions = lru["traced"]
        n = len(extras["phase"].ops)
        extras["layers"]["registry.warm_hit_ratio"] = hits / max(hits + misses, 1)
        extras["layers"]["registry.evictions"] = evictions / max(n, 1)
    return _finish(ctx, phase, extras, setup_times, detail)

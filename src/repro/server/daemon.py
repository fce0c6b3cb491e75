"""The resident serving daemon: warm fleet queries over HTTP.

Every CLI invocation cold-starts the whole pipeline; :class:`PolicyServer`
keeps it resident.  One process holds a
:class:`~repro.registry.PolicyRegistry` (warm LRU of loaded models) behind
a threaded stdlib HTTP server and answers privacy-practice questions in
milliseconds instead of seconds.  Robustness is the headline:

* **bounded admission** — the :class:`~repro.jobs.admission.AdmissionGate`
  the job runner also admits through; above the ``shed_above``
  watermark a request gets a fast 503 with a structured shed body,
  never a stuck connection;
* **deadlines that only tighten** — each request carries a wall-clock
  deadline (``min(server default, client ask)``); whatever remains after
  admission tightens the solver budget the same way, never loosens it;
* **graceful drain** — SIGINT/SIGTERM (or ``POST /drain``) stops
  admissions immediately, lets in-flight requests finish, and exits with
  a :class:`DrainReport`;
* **hot reload** — ``POST /reload`` swaps in a freshly-read registry via
  an epoch handle (:mod:`repro.server.epochs`); requests already running
  keep their pinned old epoch until they complete, so a reload under
  sustained load loses zero in-flight queries.

Endpoints (JSON in/out)::

    GET  /healthz    liveness (200 while the process runs, even draining)
    GET  /readyz     readiness (503 once draining or before ready)
    GET  /stats      queue depth, latency p50/p95/p99, epochs, metrics
    GET  /companies  the current epoch's roster
    POST /query      {"company", "question", ["deadline_seconds"], ["trace"]}
    POST /fleet      {"question", ["companies"], ["max_workers"]}
    POST /reload     swap to a freshly-read (and pre-warmed) registry
    POST /drain      begin a graceful drain over HTTP
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.metrics import LatencyReservoir, PipelineMetrics
from repro.core.pipeline import PolicyPipeline
from repro.errors import RegistryError, ReproError, ServerError, SnapshotError
from repro.jobs.config import JobConfig
from repro.providers.introspect import llm_stack_state
from repro.registry.registry import PolicyRegistry
from repro.jobs.admission import AdmissionGate, ShedDecision, drain_signals
from repro.server.config import ServerConfig
from repro.server.epochs import EpochSwitch

#: Request bodies past this are refused with 413 (a client cannot make a
#: handler thread buffer unbounded input).
MAX_BODY_BYTES = 1 << 20


@dataclass(slots=True)
class DrainReport:
    """What a graceful drain observed (printed by the CLI on exit)."""

    reason: str
    in_flight_at_drain: int
    completed_during_drain: int
    refused_during_drain: int
    served_total: int
    drained_clean: bool  # every in-flight request finished within grace
    seconds: float

    def as_dict(self) -> dict[str, object]:
        return {
            "reason": self.reason,
            "in_flight_at_drain": self.in_flight_at_drain,
            "completed_during_drain": self.completed_during_drain,
            "refused_during_drain": self.refused_during_drain,
            "served_total": self.served_total,
            "drained_clean": self.drained_clean,
            "seconds": round(self.seconds, 6),
        }

    def summary(self) -> str:
        state = "clean" if self.drained_clean else "GRACE EXPIRED"
        return (
            f"drain ({self.reason}): {state}; "
            f"{self.in_flight_at_drain} in flight at drain, "
            f"{self.completed_during_drain} completed during drain, "
            f"{self.refused_during_drain} refused, "
            f"{self.served_total} served total, "
            f"{self.seconds:.2f}s"
        )


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    policy: "PolicyServer"

    def handle_error(self, request, client_address):  # noqa: ARG002
        # A client that vanished mid-response (kill-mid-request chaos)
        # must not spew tracebacks or take the daemon down.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionError, socket.timeout)):
            self.policy.count_connection_error()
            return
        self.policy.count_connection_error()


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keep-alive lets the bench reuse connections; every
    # response carries an explicit Content-Length.  Nagle must be off:
    # headers and body go out as separate writes, and batching the first
    # behind the peer's delayed ACK would put a flat ~40 ms under every
    # keep-alive response — dwarfing the warm query it carries.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: _HTTPServer

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def setup(self) -> None:
        # No client may pin a handler thread with a half-sent request.
        self.request.settimeout(self.server.policy.config.socket_timeout)
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the caller's job, not stderr's

    def _send_json(self, status: int, payload: dict, *, retry_after: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict | None:
        """Parse the JSON request body; sends the error response itself
        and returns ``None`` when the body is unusable."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad content-length"})
            return None
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": "body too large"})
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return None
        if not isinstance(body, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        daemon = self.server.policy
        try:
            if self.path == "/healthz":
                self._send_json(200, {"status": "alive"})
            elif self.path == "/readyz":
                if daemon.ready and not daemon.draining:
                    self._send_json(200, {"ready": True})
                else:
                    self._send_json(
                        503, {"ready": False, "draining": daemon.draining}
                    )
            elif self.path == "/stats":
                self._send_json(200, daemon.stats())
            elif self.path == "/companies":
                companies = daemon.companies()
                self._send_json(
                    200, {"companies": companies, "count": len(companies)}
                )
            elif self.path == "/":
                self._send_json(200, {"endpoints": sorted(_ROUTES)})
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except Exception as exc:  # noqa: BLE001 - handler isolation boundary
            self._crashed(exc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        daemon = self.server.policy
        try:
            if self.path == "/query":
                body = self._read_body()
                if body is not None:
                    status, payload, shed = daemon.handle_query(body)
                    self._send_json(status, payload, retry_after=shed)
            elif self.path == "/fleet":
                body = self._read_body()
                if body is not None:
                    status, payload, shed = daemon.handle_fleet(body)
                    self._send_json(status, payload, retry_after=shed)
            elif self.path == "/reload":
                self._send_json(*daemon.handle_reload())
            elif self.path == "/drain":
                first = daemon.begin_drain("http")
                self._send_json(202, {"draining": True, "initiated": first})
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except Exception as exc:  # noqa: BLE001 - handler isolation boundary
            self._crashed(exc)

    def _crashed(self, exc: Exception) -> None:
        try:
            self._send_json(
                500, {"error": "internal", "type": type(exc).__name__,
                      "message": str(exc)}
            )
        except Exception:  # noqa: BLE001 - client already gone
            self.server.policy.count_connection_error()


_ROUTES = (
    "GET /healthz",
    "GET /readyz",
    "GET /stats",
    "GET /companies",
    "POST /query",
    "POST /fleet",
    "POST /reload",
    "POST /drain",
)


class PolicyServer:
    """A resident, drainable, hot-reloadable policy-query daemon.

    ``query_fn(model, question, budget, certify)`` is the execution seam
    (the default calls :meth:`PolicyPipeline.query`); chaos tests
    substitute blocking or failing functions to create deterministic
    overload without timing races — the same pattern
    :class:`~repro.jobs.runner.JobRunner` uses.
    """

    def __init__(
        self,
        config: ServerConfig,
        *,
        pipeline: PolicyPipeline | None = None,
        query_fn=None,
    ) -> None:
        self.config = config
        self.pipeline = pipeline if pipeline is not None else PolicyPipeline()
        if config.certify is not None:
            self.pipeline.config.certify = config.certify
        self._query_fn = query_fn if query_fn is not None else self._default_query
        self.gate = AdmissionGate(
            config.max_pending, shed_above=config.shed_above
        )
        self.metrics = PipelineMetrics(queries=0, latency=LatencyReservoir())
        self._metrics_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._drain_reason: str | None = None
        self._drain_requested = threading.Event()
        self._signal_reason: str | None = None
        self._served_at_drain = 0
        self._in_flight_at_drain = 0
        self._drain_started = 0.0
        self._connection_errors = 0
        self._epochs: EpochSwitch[PolicyRegistry] | None = None
        self._httpd: _HTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self.scrubber = None  # BackgroundScrubber when scrub_interval is set
        self.ready = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _build_registry(self) -> PolicyRegistry:
        registry = PolicyRegistry(
            self.config.root,
            pipeline=self.pipeline,
            max_warm=self.config.max_warm,
        )
        warm = self.config.warm_on_start
        if warm:
            roster = registry.companies()
            registry.warm(roster if warm < 0 else roster[:warm])
        return registry

    def start(self) -> None:
        """Bind, load the registry, pre-warm, and begin serving.

        Raises :class:`ServerError` (CLI exit code 7) when the socket
        cannot be bound or the registry cannot serve — an empty root is
        refused rather than served as a wall of 404s.
        """
        if self._httpd is not None:
            raise ServerError("server already started")
        self._epochs = EpochSwitch(self._build_registry)
        if not len(self._epochs.current_registry):
            raise ServerError(
                f"registry at {self.config.root} has no companies; "
                "mint a fleet first (repro-policy registry mint)"
            )
        try:
            httpd = _HTTPServer(
                (self.config.host, self.config.port), _Handler
            )
        except OSError as exc:
            raise ServerError(
                f"failed to bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        httpd.policy = self
        self._httpd = httpd
        self._serve_thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="policy-server-accept",
            daemon=True,
        )
        self._serve_thread.start()
        if self.config.scrub_interval is not None:
            from repro.integrity.scrub import BackgroundScrubber

            self.scrubber = BackgroundScrubber(
                self.config.root,
                interval=self.config.scrub_interval,
                gate=self.gate,
                metrics=self.metrics,
                metrics_lock=self._metrics_lock,
            )
            self.scrubber.start()
        self.ready = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real one."""
        if self._httpd is None:
            raise ServerError("server is not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def draining(self) -> bool:
        return self._drain_reason is not None

    def begin_drain(self, reason: str) -> bool:
        """Stop admitting work; in-flight requests finish.  Idempotent —
        returns True only for the call that initiated the drain."""
        with self._drain_lock:
            if self._drain_reason is not None:
                return False
            self._drain_reason = reason
            self._served_at_drain = self.metrics.server_requests
            self._in_flight_at_drain = self.gate.depth
            self._drain_started = time.monotonic()
            with self._metrics_lock:
                self.metrics.server_drains += 1
        # Outside the drain lock: waiting admitters are woken and refused.
        self.gate.stop()
        self._drain_requested.set()
        return True

    def await_drained(self, timeout: float | None = None) -> DrainReport:
        """Block until in-flight requests finish (bounded by
        ``drain_grace`` unless overridden), then stop the listener and
        report.  Requires :meth:`begin_drain` to have been called."""
        if self._drain_reason is None:
            raise ServerError("await_drained before begin_drain")
        grace = self.config.drain_grace if timeout is None else timeout
        clean = self.gate.wait_empty(grace)
        if self._epochs is not None:
            self._epochs.wait_quiesced(0.5)
        self.stop()
        with self._metrics_lock:
            served = self.metrics.server_requests
        report = DrainReport(
            reason=self._drain_reason,
            in_flight_at_drain=self._in_flight_at_drain,
            completed_during_drain=served - self._served_at_drain,
            refused_during_drain=self.gate.refused_draining,
            served_total=served,
            drained_clean=clean,
            seconds=time.monotonic() - self._drain_started,
        )
        return report

    def stop(self) -> None:
        """Hard-stop the listener (no drain, no waiting); used by the
        kill-mid-request chaos suite and as the tail of a drain."""
        httpd, self._httpd = self._httpd, None
        self.ready = False
        if self.scrubber is not None:
            self.scrubber.stop()
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    def serve_until_drained(self) -> DrainReport:
        """Foreground loop for the CLI: serve until a signal or ``POST
        /drain`` begins a drain, then finish in-flight and report.

        The signal handlers only record the signal name (no locks are
        taken in handler context — the lesson the job runner's drain
        path encodes); this loop notices and runs the actual drain in
        normal context.
        """

        def on_signal(signum: int) -> None:
            self._signal_reason = signal.Signals(signum).name

        with drain_signals(on_signal, enabled=self.config.handle_signals):
            while not self._drain_requested.is_set():
                if self._signal_reason is not None:
                    self.begin_drain(self._signal_reason)
                    break
                self._drain_requested.wait(0.05)
        return self.await_drained()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def count_connection_error(self) -> None:
        with self._metrics_lock:
            self._connection_errors += 1

    def companies(self) -> list[str]:
        if self._epochs is None:
            return []
        return self._epochs.current_registry.companies()

    def stats(self) -> dict[str, object]:
        epochs = self._epochs
        with self._metrics_lock:
            merged_metrics = self.pipeline.metrics_report(self.metrics)
        llm_state = llm_stack_state(self.pipeline.llm)
        latency = self.metrics.latency
        return {
            "epoch": 0 if epochs is None else epochs.current_epoch,
            "reloads": 0 if epochs is None else epochs.reloads,
            "retiring": [] if epochs is None else epochs.retiring(),
            "companies": len(self.companies()),
            "draining": self.draining,
            "connection_errors": self._connection_errors,
            "queue": {
                "depth": self.gate.depth,
                "high_water": self.gate.high_water,
                "max_pending": self.gate.max_pending,
                "shed_above": self.gate.shed_above,
                "admitted": self.gate.admitted,
                "shed": self.gate.shed,
                "refused_draining": self.gate.refused_draining,
                "refused_deadline": self.gate.refused_deadline,
            },
            "latency": latency.as_dict() if latency is not None else None,
            "llm": llm_state,
            "integrity": {
                "findings": merged_metrics.integrity_findings,
                "repairs": merged_metrics.integrity_repairs,
                "unrepairable": merged_metrics.integrity_unrepairable,
                "recent": [
                    f.as_dict() for f in self.pipeline.integrity_log[-8:]
                ],
            },
            "scrub": None if self.scrubber is None else self.scrubber.stats(),
            "metrics": merged_metrics.as_dict(),
        }

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def _deadline_for(self, body: dict) -> float | None:
        """Effective per-request deadline: the client may tighten the
        server default, never loosen it.  Returns None on a bad value
        (the caller 400s)."""
        requested = body.get("deadline_seconds")
        if requested is None:
            return self.config.default_deadline
        if not isinstance(requested, (int, float)) or requested <= 0:
            return None
        return min(float(requested), self.config.default_deadline)

    def _default_query(self, model, question, budget, certify):
        return self.pipeline.query(
            model, question, budget=budget, certify=certify
        )

    def _record(self, seconds: float) -> None:
        with self._metrics_lock:
            self.metrics.server_requests += 1
            if self.metrics.latency is not None:
                self.metrics.latency.record(seconds)

    def handle_query(self, body: dict) -> tuple[int, dict, bool]:
        """Execute one admission-gated, deadline-bounded query.

        Returns ``(status, payload, was_shed)``; never raises — every
        failure mode maps to a structured JSON body.
        """
        company = body.get("company")
        question = body.get("question")
        if not isinstance(company, str) or not isinstance(question, str):
            return 400, {"error": "body needs string 'company' and 'question'"}, False
        deadline = self._deadline_for(body)
        if deadline is None:
            return 400, {"error": "deadline_seconds must be a positive number"}, False
        deadline_at = time.monotonic() + deadline
        decision = self.gate.enter(deadline_at=deadline_at)
        if decision is not None:
            return 503, {**decision.as_dict(), "company": company}, True
        started = time.monotonic()
        try:
            with self._epochs.acquire() as epoch:
                try:
                    model = epoch.registry.get_model(company)
                except RegistryError as exc:
                    return 404, {"error": "unknown company", "message": str(exc)}, False
                except SnapshotError as exc:
                    # Corrupt shard: isolated to this company, like the
                    # fleet path's per-company ErrorOutcome.
                    return 500, {
                        "error": "snapshot",
                        "company": company,
                        "message": str(exc),
                    }, False
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    with self._metrics_lock:
                        self.metrics.deadline_refusals += 1
                    refusal = ShedDecision(
                        "deadline",
                        self.gate.depth,
                        self.gate.shed_above,
                        self.gate.max_pending,
                    )
                    return 503, {**refusal.as_dict(), "company": company}, True
                certify = body.get("certify")
                if certify is None:
                    certify = self.pipeline.config.certify
                try:
                    outcome = self._query_fn(
                        model,
                        question,
                        self.pipeline.config.solver_budget.tightened(remaining),
                        bool(certify),
                    )
                except ReproError as exc:
                    with self._metrics_lock:
                        self.metrics.query_errors += 1
                    return 500, {
                        "error": "query",
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "company": company,
                    }, False
                payload: dict[str, object] = {
                    "company": company,
                    "question": question,
                    "verdict": outcome.verdict.value,
                    "revision": model.revision,
                    "epoch": epoch.number,
                    "seconds": round(time.monotonic() - started, 6),
                }
                if body.get("trace"):
                    payload["trace"] = outcome.as_dict()
                return 200, payload, False
        finally:
            self.gate.exit()
            self._record(time.monotonic() - started)

    def handle_fleet(self, body: dict) -> tuple[int, dict, bool]:
        """Fan one question across the fleet through the job runner.

        Takes one admission slot (it is one request); each company's
        solver budget is tightened to the deadline left after admission,
        via ``JobConfig.query_timeout``.
        """
        question = body.get("question")
        if not isinstance(question, str):
            return 400, {"error": "body needs string 'question'"}, False
        companies = body.get("companies")
        if companies is not None and (
            not isinstance(companies, list)
            or not all(isinstance(c, str) for c in companies)
        ):
            return 400, {"error": "'companies' must be a list of strings"}, False
        max_workers = body.get("max_workers")
        if max_workers is not None and (
            not isinstance(max_workers, int) or max_workers < 1
        ):
            return 400, {"error": "'max_workers' must be a positive integer"}, False
        deadline = self._deadline_for(body)
        if deadline is None:
            return 400, {"error": "deadline_seconds must be a positive number"}, False
        deadline_at = time.monotonic() + deadline
        decision = self.gate.enter(deadline_at=deadline_at)
        if decision is not None:
            return 503, {**decision.as_dict(), "question": question}, True
        started = time.monotonic()
        try:
            with self._epochs.acquire() as epoch:
                remaining = deadline_at - time.monotonic()
                try:
                    report = epoch.registry.query_fleet(
                        question,
                        companies,
                        config=JobConfig(
                            max_workers=max_workers,
                            handle_signals=False,
                            query_timeout=max(0.001, remaining),
                        ),
                    )
                except RegistryError as exc:
                    return 404, {"error": "registry", "message": str(exc)}, False
                verdicts = {
                    company: None if outcome is None else outcome.verdict.value
                    for company, outcome in report.per_company()
                }
                return 200, {
                    "question": question,
                    "epoch": epoch.number,
                    "companies": verdicts,
                    "counts": report.job.verdict_counts(),
                    "aborted": report.aborted,
                    "seconds": round(time.monotonic() - started, 6),
                }, False
        finally:
            self.gate.exit()
            self._record(time.monotonic() - started)

    def handle_reload(self) -> tuple[int, dict]:
        """Hot-swap to a freshly-read registry (serialized; in-flight
        requests keep their pinned epoch until they finish)."""
        with self._reload_lock:
            started = time.monotonic()
            report = self._epochs.reload()
            report.seconds = time.monotonic() - started
            with self._metrics_lock:
                self.metrics.server_reloads += 1
        return 200, {
            **report.as_dict(),
            "companies": len(self._epochs.current_registry),
        }

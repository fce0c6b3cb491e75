"""Serving daemon suite: admission gate, epoch handles, endpoints, drain.

The components are tested at three levels, mirroring the job-runner
suite: the :class:`~repro.server.admission.AdmissionGate` and
:class:`~repro.server.epochs.EpochSwitch` invariants in isolation, the
HTTP surface against a real socket on 127.0.0.1 with the pipeline's
simulated substrates, and — the PR 7 satellite — graceful drain driven
by an **injected stop-flag** (:meth:`PolicyServer.begin_drain`), never a
real signal: in-flight queries must finish and be reported, new
admissions must be refused with a structured body, and draining twice
must be a no-op.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro import (
    PolicyPipeline,
    PolicyServer,
    ServerConfig,
    ServerError,
    ServingClient,
)
from repro.registry import MintSpec, PolicyRegistry
from repro.server import AdmissionGate, EpochSwitch

SPEC = MintSpec(count=3, seed=29, target_words=(340,))

QUESTION = "The company collects the user's email address."


@pytest.fixture(scope="module")
def serving_root(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("serving") / "reg"
    registry = PolicyRegistry(root, pipeline=pipeline, max_warm=8)
    report = registry.mint(SPEC)
    assert len(report.minted) == SPEC.count
    return root


def make_server(root, *, query_fn=None, **overrides) -> PolicyServer:
    defaults = dict(
        root=root,
        port=0,
        max_pending=4,
        default_deadline=10.0,
        handle_signals=False,
    )
    defaults.update(overrides)
    return PolicyServer(
        ServerConfig(**defaults),
        pipeline=PolicyPipeline(),
        query_fn=query_fn,
    )


@pytest.fixture()
def server(serving_root):
    srv = make_server(serving_root, warm_on_start=-1)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    host, port = server.address
    c = ServingClient(host, port, timeout=10.0)
    yield c
    c.close()


# ---------------------------------------------------------------------------
# ServerConfig validation
# ---------------------------------------------------------------------------


class TestServerConfig:
    def test_defaults_valid(self, tmp_path):
        config = ServerConfig(root=tmp_path)
        assert config.max_pending == 8 and config.shed_above is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_pending": 0},
            {"shed_above": 0},
            {"max_pending": 4, "shed_above": 5},
            {"default_deadline": 0},
            {"drain_grace": 0},
            {"socket_timeout": -1},
            {"max_warm": 0},
            {"warm_on_start": -2},
            {"port": 70000},
        ],
    )
    def test_invalid_knobs_refused(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(root=tmp_path, **kwargs)


# ---------------------------------------------------------------------------
# AdmissionGate invariants
# ---------------------------------------------------------------------------


class TestAdmissionGate:
    def test_admit_and_exit_track_depth(self):
        gate = AdmissionGate(max_pending=3)
        assert gate.enter() is None
        assert gate.enter() is None
        assert gate.depth == 2 and gate.high_water == 2
        gate.exit()
        assert gate.depth == 1
        gate.exit()
        assert gate.depth == 0 and gate.admitted == 2

    def test_shed_watermark_fires_immediately(self):
        gate = AdmissionGate(max_pending=4, shed_above=2)
        assert gate.enter() is None and gate.enter() is None
        started = time.monotonic()
        decision = gate.enter(deadline_at=time.monotonic() + 30.0)
        elapsed = time.monotonic() - started
        assert decision is not None and decision.reason == "shed"
        assert elapsed < 0.5, "shedding must never wait"
        assert decision.pending_at_admission == 2
        assert gate.shed == 1
        gate.exit()
        assert gate.enter() is None  # below the watermark again: admitted

    def test_shed_body_shape(self):
        gate = AdmissionGate(max_pending=2, shed_above=1)
        gate.enter()
        body = gate.enter().as_dict()
        assert body["error"] == "shed" and body["verdict"] == "UNKNOWN"
        assert body["shed"]["max_pending"] == 2

    def test_full_gate_blocks_until_slot_frees(self):
        gate = AdmissionGate(max_pending=1)
        assert gate.enter() is None
        result = {}

        def waiter():
            result["decision"] = gate.enter(deadline_at=time.monotonic() + 10.0)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        assert t.is_alive(), "second enter should be waiting for a slot"
        started = time.monotonic()
        gate.exit()
        t.join(timeout=5.0)
        assert not t.is_alive()
        # Woken by exit() itself: the gate has no poll period.
        assert time.monotonic() - started < 1.0
        assert result["decision"] is None
        # The job runner's feeder enters with no deadline at all.
        t = threading.Thread(target=lambda: result.update(decision=gate.enter()))
        t.start()
        time.sleep(0.05)
        assert t.is_alive(), "a waiter without a deadline waits for a slot too"
        gate.exit()
        t.join(timeout=5.0)
        assert not t.is_alive() and result["decision"] is None
        assert gate.depth == 1 and gate.high_water == 1
        gate.exit()

    def test_waiter_refused_at_its_deadline(self):
        gate = AdmissionGate(max_pending=1)
        gate.enter()
        started = time.monotonic()
        decision = gate.enter(deadline_at=time.monotonic() + 0.1)
        assert decision is not None and decision.reason == "deadline"
        assert time.monotonic() - started < 2.0
        assert gate.refused_deadline == 1

    def test_stop_wakes_waiters_with_draining_refusal(self):
        gate = AdmissionGate(max_pending=1)
        gate.enter()
        decisions = []

        def waiter():
            decisions.append(gate.enter(deadline_at=time.monotonic() + 30.0))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        gate.stop()
        t.join(timeout=5.0)
        assert not t.is_alive(), "stop must wake the waiter immediately"
        assert decisions[0].reason == "draining"
        assert gate.refused_draining == 1

    def test_stopped_gate_refuses_without_waiting(self):
        gate = AdmissionGate(max_pending=4)
        gate.stop()
        gate.stop()  # idempotent
        decision = gate.enter()
        assert decision is not None and decision.reason == "draining"

    def test_wait_empty_barrier(self):
        gate = AdmissionGate(max_pending=2)
        gate.enter()
        assert not gate.wait_empty(timeout=0.05)
        threading.Timer(0.05, gate.exit).start()
        assert gate.wait_empty(timeout=5.0)

    @pytest.mark.parametrize("kwargs", [{"max_pending": 0}, {"max_pending": 2, "shed_above": 3}])
    def test_invalid_bounds_refused(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionGate(**kwargs)

    def test_shed_watermark_past_the_bound_names_the_knob(self):
        # A watermark past max_pending would leave a depth band that waits
        # instead of shedding.
        with pytest.raises(ValueError, match="shed_above"):
            AdmissionGate(max_pending=1, shed_above=2)


# ---------------------------------------------------------------------------
# EpochSwitch invariants
# ---------------------------------------------------------------------------


class TestEpochSwitch:
    def test_reload_with_no_pins_retires_immediately(self):
        builds = []
        switch = EpochSwitch(lambda: builds.append(len(builds)) or len(builds))
        assert switch.current_epoch == 0
        report = switch.reload()
        assert (report.old_epoch, report.new_epoch) == (0, 1)
        assert report.pinned == 0
        assert switch.retiring() == []
        assert switch.reloads == 1

    def test_pinned_epoch_survives_reload_until_release(self):
        switch = EpochSwitch(object)
        with switch.acquire() as pinned:
            report = switch.reload()
            assert report.pinned == 1
            assert switch.retiring() == [(0, 1)]
            assert switch.current_epoch == 1
            # The request keeps its pinned registry object.
            assert pinned.number == 0
            assert not pinned.retired
        assert switch.retiring() == []
        assert pinned.retired

    def test_new_acquires_see_the_new_epoch(self):
        switch = EpochSwitch(object)
        with switch.acquire():
            switch.reload()
            with switch.acquire() as fresh:
                assert fresh.number == 1

    def test_replacement_is_built_by_the_factory_each_reload(self):
        registries = iter(["first", "second", "third"])
        switch = EpochSwitch(lambda: next(registries))
        assert switch.current_registry == "first"
        switch.reload()
        assert switch.current_registry == "second"
        switch.reload(lambda: "override")
        assert switch.current_registry == "override"

    def test_wait_quiesced(self):
        switch = EpochSwitch(object)
        release = threading.Event()

        def holder():
            with switch.acquire():
                release.wait(timeout=10.0)

        t = threading.Thread(target=holder)
        t.start()
        time.sleep(0.05)
        switch.reload()
        assert not switch.wait_quiesced(timeout=0.05)
        release.set()
        assert switch.wait_quiesced(timeout=5.0)
        t.join(timeout=5.0)

    def test_double_reload_under_one_pin_drains_both(self):
        switch = EpochSwitch(object)
        with switch.acquire():
            switch.reload()
            switch.reload()
            assert switch.current_epoch == 2
            assert [number for number, _ in switch.retiring()] == [0]
        assert switch.retiring() == []


# ---------------------------------------------------------------------------
# Lifecycle and HTTP surface
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_empty_root_refused_at_start(self, tmp_path):
        srv = make_server(tmp_path / "nothing-here")
        with pytest.raises(ServerError, match="no companies"):
            srv.start()

    def test_double_start_refused(self, server):
        with pytest.raises(ServerError, match="already started"):
            server.start()

    def test_address_requires_start(self, serving_root):
        srv = make_server(serving_root)
        with pytest.raises(ServerError):
            srv.address

    def test_await_drained_requires_begin_drain(self, server):
        with pytest.raises(ServerError, match="begin_drain"):
            server.await_drained(timeout=0.1)


class TestEndpoints:
    def test_healthz_and_readyz(self, client):
        assert client.healthz() == (200, {"status": "alive"})
        status, body = client.readyz()
        assert status == 200 and body["ready"] is True

    def test_root_lists_routes(self, client):
        status, body = client.request("GET", "/")
        assert status == 200
        assert "POST /query" in body["endpoints"]

    def test_unknown_routes_404(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/nope")[0] == 404

    def test_companies_roster(self, client, serving_root, pipeline):
        roster = PolicyRegistry(serving_root, pipeline=pipeline).companies()
        assert client.companies() == roster

    def test_query_round_trip(self, client):
        company = client.companies()[0]
        status, body = client.query(company, QUESTION)
        assert status == 200
        assert body["company"] == company
        assert body["verdict"] in {"VALID", "INVALID", "UNKNOWN"}
        assert body["epoch"] == 0
        assert "trace" not in body

    def test_query_trace_includes_outcome_dict(self, client):
        company = client.companies()[0]
        status, body = client.query(company, QUESTION, trace=True)
        assert status == 200
        assert body["trace"]["verification"]["verdict"] == body["verdict"]
        assert body["trace"]["question"]

    def test_unknown_company_is_404_not_500(self, client):
        status, body = client.query("not-a-company", QUESTION)
        assert status == 404
        assert body["error"] == "unknown company"

    def test_malformed_bodies_400(self, client):
        status, body = client.request("POST", "/query", {"company": 3, "question": QUESTION})
        assert status == 400
        status, _ = client.request("POST", "/query", {})
        assert status == 400
        status, _ = client.request(
            "POST", "/query",
            {"company": "x", "question": QUESTION, "deadline_seconds": -1},
        )
        assert status == 400

    def test_non_object_body_400(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("POST", "/query", body=b"[1, 2, 3]")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_invalid_json_400(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("POST", "/query", body=b"{nope")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_oversized_body_413(self, server):
        import http.client

        from repro.server.daemon import MAX_BODY_BYTES

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            assert conn.getresponse().status == 413
        finally:
            conn.close()

    def test_fleet_round_trip(self, client):
        status, body = client.fleet(QUESTION, max_workers=2)
        assert status == 200
        assert len(body["companies"]) == SPEC.count
        assert sum(body["counts"].values()) == SPEC.count
        assert body["aborted"] is False

    def test_fleet_validates_companies_list(self, client):
        status, _ = client.request("POST", "/fleet", {"question": QUESTION, "companies": "oops"})
        assert status == 400
        status, _ = client.request(
            "POST", "/fleet", {"question": QUESTION, "max_workers": 0}
        )
        assert status == 400

    def test_stats_shape(self, client):
        client.query(client.companies()[0], QUESTION)
        stats = client.stats()
        assert stats["epoch"] == 0 and stats["draining"] is False
        assert stats["companies"] == SPEC.count
        assert stats["queue"]["max_pending"] == 4
        assert stats["queue"]["admitted"] >= 1
        assert stats["latency"]["count"] >= 1
        assert stats["latency"]["p50_seconds"] <= stats["latency"]["p99_seconds"]
        assert stats["metrics"]["server_requests"] >= 1

    def test_reload_bumps_epoch(self, client):
        assert client.stats()["epoch"] == 0
        status, body = client.reload()
        assert status == 200
        assert body["new_epoch"] == 1
        assert body["companies"] == SPEC.count
        assert client.stats()["epoch"] == 1
        company = client.companies()[0]
        assert client.query(company, QUESTION)[1]["epoch"] == 1


class TestDeadlines:
    def test_client_can_tighten_but_not_loosen(self, serving_root):
        srv = make_server(serving_root, default_deadline=5.0)
        assert srv._deadline_for({}) == 5.0
        assert srv._deadline_for({"deadline_seconds": 1.5}) == 1.5
        assert srv._deadline_for({"deadline_seconds": 60.0}) == 5.0
        assert srv._deadline_for({"deadline_seconds": 0}) is None
        assert srv._deadline_for({"deadline_seconds": "1"}) is None

    def test_remaining_deadline_tightens_solver_budget(self, serving_root):
        budgets = []

        def query_fn(model, question, budget, certify):
            budgets.append(budget)
            return srv.pipeline.query(
                model, question, budget=budget, certify=certify
            )

        srv = make_server(serving_root, query_fn=query_fn, default_deadline=60.0)
        srv.start()
        try:
            company = srv.companies()[0]
            for deadline in (0.25, 60.0):
                status, _, _ = srv.handle_query(
                    {
                        "company": company,
                        "question": QUESTION,
                        "deadline_seconds": deadline,
                    }
                )
                assert status == 200
        finally:
            srv.stop()
        base = srv.pipeline.config.solver_budget
        tight, wide = budgets
        assert 0 < tight.timeout_seconds <= 0.25
        assert replace(tight, timeout_seconds=base.timeout_seconds) == base
        # Wide remaining time never loosens a tight base budget.
        assert wide == base

    def test_expired_deadline_refused_post_admission(self, server):
        # The deadline is re-checked after admission + model resolution;
        # a slow model load that eats the whole budget must produce a
        # structured 503, never a late answer that blows the SLO anyway.
        company = server.companies()[0]
        registry = server._epochs.current_registry
        original_get = registry.get_model

        def slow_get(name):
            model = original_get(name)
            time.sleep(0.2)
            return model

        registry.get_model = slow_get
        try:
            status, body, was_shed = server.handle_query(
                {"company": company, "question": QUESTION, "deadline_seconds": 0.05}
            )
        finally:
            del registry.get_model
        assert status == 503 and was_shed
        assert body["error"] == "deadline"
        assert server.metrics.deadline_refusals == 1

    def test_identical_queries_share_one_verification(self, serving_root):
        # Every request tightens the solver budget to its own remaining
        # deadline; that must not split the verification cache.
        srv = make_server(serving_root, warm_on_start=-1)
        srv.start()
        try:
            host, port = srv.address
            client = ServingClient(host, port, timeout=10.0)
            company = srv.companies()[0]
            caches = srv._epochs.current_registry.get_model(company).caches
            entries = caches.size("verification")
            hits = caches.hits["verification"]
            replies = [client.query(company, QUESTION) for _ in range(5)]
            client.close()
        finally:
            srv.stop()
        assert [status for status, _ in replies] == [200] * 5
        assert len({body["verdict"] for _, body in replies}) == 1
        assert caches.size("verification") == entries + 1
        assert caches.hits["verification"] == hits + 4

    def test_short_deadline_never_waits_out_a_longer_solve(
        self, server, monkeypatch
    ):
        # Identical questions with different deadlines share cached
        # verdicts, never a solve in progress.
        from repro.core import pipeline as pipeline_module

        entered, release = threading.Event(), threading.Event()
        solve = pipeline_module.verify_encoded

        def slow_long_solve(encoded, *, budget, **kwargs):
            if budget.timeout_seconds > 5:
                entered.set()
                release.wait(30)
            return solve(encoded, budget=budget, **kwargs)

        monkeypatch.setattr(pipeline_module, "verify_encoded", slow_long_solve)
        company = server.companies()[0]
        server._epochs.current_registry.get_model(company).caches.clear()
        replies = {}

        def ask(name, body):
            replies[name] = server.handle_query(
                {"company": company, "question": QUESTION, **body}
            )

        long = threading.Thread(target=ask, args=("long", {}))
        short = threading.Thread(
            target=ask, args=("short", {"deadline_seconds": 2.0})
        )
        long.start()
        try:
            assert entered.wait(10)
            started = time.monotonic()
            short.start()
            short.join(2.0)
            elapsed = time.monotonic() - started
            assert not short.is_alive()
        finally:
            release.set()
            long.join()
            short.join()
        assert elapsed < 2.0
        status, body, _ = replies["short"]
        assert status == 200 and body["verdict"] in {"VALID", "INVALID"}
        status, long_body, _ = replies["long"]
        assert status == 200 and long_body["verdict"] == body["verdict"]

    def test_deadline_tripped_answer_is_not_cached(self, serving_root):
        starved = True

        def query_fn(model, question, budget, certify):
            if starved:
                # As if the request's remaining deadline were all but spent.
                budget = replace(budget, timeout_seconds=1e-9)
            return srv.pipeline.query(
                model, question, budget=budget, certify=certify
            )

        srv = make_server(serving_root, query_fn=query_fn, warm_on_start=-1)
        srv.start()
        try:
            host, port = srv.address
            client = ServingClient(host, port, timeout=10.0)
            company = srv.companies()[0]
            caches = srv._epochs.current_registry.get_model(company).caches
            entries = caches.size("verification")
            tripped = client.query(company, QUESTION, trace=True)
            entries_after_trip = caches.size("verification")
            starved = False
            ample = client.query(company, QUESTION)
            client.close()
        finally:
            srv.stop()
        status, body = tripped
        assert status == 200 and body["verdict"] == "UNKNOWN"
        assert body["trace"]["verification"]["reason"] == "wall-clock timeout"
        assert entries_after_trip == entries
        status, body = ample
        assert status == 200 and body["verdict"] in {"VALID", "INVALID"}
        assert caches.size("verification") == entries + 1


# ---------------------------------------------------------------------------
# Graceful drain via injected stop-flag (PR 7 satellite)
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_in_flight_finishes_and_is_reported(self, serving_root):
        release = threading.Event()
        entered = threading.Event()

        def gated_query(model, question, budget, certify):
            entered.set()
            release.wait(timeout=10.0)
            pipeline = PolicyPipeline()
            return pipeline.query(model, question, budget=budget, certify=certify)

        srv = make_server(serving_root, query_fn=gated_query, warm_on_start=-1)
        srv.start()
        host, port = srv.address
        results = {}

        def in_flight():
            c = ServingClient(host, port, timeout=30.0)
            try:
                results["in_flight"] = c.query(srv.companies()[0], QUESTION)
            finally:
                c.close()

        t = threading.Thread(target=in_flight)
        t.start()
        assert entered.wait(timeout=10.0)

        # The injected stop-flag — no real signal is raised in tier-1.
        assert srv.begin_drain("test-flag") is True
        assert srv.draining

        refused = ServingClient(host, port, timeout=10.0)
        try:
            status, body = refused.query(srv.companies()[0], QUESTION)
            assert status == 503
            assert body["error"] == "draining"
            ready_status, ready_body = refused.readyz()
            assert ready_status == 503 and ready_body["draining"] is True
            health_status, _ = refused.healthz()
            assert health_status == 200, "liveness stays green while draining"
        finally:
            refused.close()

        release.set()
        report = srv.await_drained(timeout=10.0)
        t.join(timeout=10.0)

        assert results["in_flight"][0] == 200, "in-flight query must finish"
        assert report.drained_clean
        assert report.reason == "test-flag"
        assert report.in_flight_at_drain == 1
        assert report.completed_during_drain == 1
        assert report.refused_during_drain >= 1
        assert report.served_total == report.as_dict()["served_total"]
        assert "clean" in report.summary()

    def test_drain_is_idempotent(self, server):
        assert server.begin_drain("first") is True
        assert server.begin_drain("second") is False
        report = server.await_drained(timeout=5.0)
        assert report.reason == "first"
        assert server.metrics.server_drains == 1

    def test_drain_with_nothing_in_flight_is_clean(self, server):
        server.begin_drain("idle")
        report = server.await_drained(timeout=5.0)
        assert report.drained_clean
        assert report.in_flight_at_drain == 0
        assert report.completed_during_drain == 0

    def test_grace_expiry_reported_not_hung(self, serving_root):
        release = threading.Event()
        entered = threading.Event()

        def stuck_query(model, question, budget, certify):
            entered.set()
            release.wait(timeout=30.0)
            raise AssertionError("unreachable in this test")

        srv = make_server(serving_root, query_fn=stuck_query, warm_on_start=-1)
        srv.start()
        host, port = srv.address
        t = threading.Thread(
            target=lambda: ServingClient(host, port, timeout=30.0).query(
                srv.companies()[0], QUESTION
            ),
            daemon=True,
        )
        t.start()
        assert entered.wait(timeout=10.0)
        srv.begin_drain("grace-test")
        report = srv.await_drained(timeout=0.2)
        assert not report.drained_clean, "expired grace must be reported"
        assert "GRACE EXPIRED" in report.summary()
        release.set()
        t.join(timeout=10.0)

"""Profiling layer: attribution, lock contention, retention, sampling.

The attribution tests drive a :class:`ManualClock` so every span
duration is exact and the "stages sum to the root duration" invariant
can be asserted to the millisecond.  The end-to-end class runs the real
protein workload with profiling on and checks the acceptance loop:
a histogram tail exemplar's trace id resolves to a retained span tree.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.messaging.broker import MessageBroker
from repro.obs import ObservabilityHub
from repro.obs.prof import (
    CriticalPathAnalyzer,
    LockProfiler,
    ProfiledLock,
    SlowTraceRetainer,
    StackSampler,
    install_profiling,
)
from repro.resilience.clock import ManualClock, SystemClock


def _build_sync_trace(hub: ObservabilityHub, clock: ManualClock):
    """One request trace with known stage durations (all in ms):

    root http.request (10) > filter.process (8) > engine.start (5)
    > db.commit (3); exclusive times: filter 3, engine.dispatch 2,
    db.commit 3, other 2.
    """
    tracer = hub.tracer
    root = tracer.start_span("http.request", path="/user")
    clock.advance(0.001)
    flt = tracer.start_span(
        "filter.process", pattern="protein_creation"
    )
    clock.advance(0.002)
    engine = tracer.start_span("engine.start")
    clock.advance(0.005)
    tracer.record(
        "db.commit",
        trace_id=root.trace_id,
        parent_id=engine.span_id,
        duration_ms=3.0,
    )
    tracer.end_span(engine)
    clock.advance(0.001)
    tracer.end_span(flt)
    clock.advance(0.001)
    tracer.end_span(root)
    return root


class TestAttribution:
    def test_sync_stages_sum_exactly_to_the_root_duration(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        root = _build_sync_trace(hub, clock)
        analyzer = CriticalPathAnalyzer(hub.exporter)
        attribution = analyzer.attribute(root.trace_id)
        assert attribution is not None
        assert attribution.total_ms == pytest.approx(10.0)
        assert attribution.stages["filter"] == pytest.approx(3.0)
        assert attribution.stages["engine.dispatch"] == pytest.approx(2.0)
        assert attribution.stages["db.commit"] == pytest.approx(3.0)
        assert attribution.stages["other"] == pytest.approx(2.0)
        assert sum(attribution.stages.values()) == pytest.approx(
            attribution.total_ms
        )

    def test_pattern_extracted_from_span_attributes(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        root = _build_sync_trace(hub, clock)
        attribution = CriticalPathAnalyzer(hub.exporter).attribute(
            root.trace_id
        )
        assert attribution.pattern == "protein_creation"

    def test_async_pipeline_stages_stay_out_of_the_sync_total(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        root = _build_sync_trace(hub, clock)
        # Post-response pipeline: queue wait, agent run, pump apply.
        hub.tracer.record(
            "broker.deliver",
            trace_id=root.trace_id,
            parent_id=root.span_id,
            duration_ms=4.0,
        )
        hub.tracer.record(
            "agent.handle",
            trace_id=root.trace_id,
            parent_id=root.span_id,
            duration_ms=6.0,
        )
        hub.tracer.record(
            "engine.apply_message",
            trace_id=root.trace_id,
            parent_id=root.span_id,
            duration_ms=2.0,
        )
        attribution = CriticalPathAnalyzer(hub.exporter).attribute(
            root.trace_id
        )
        assert attribution.async_stages == {
            "queue.wait": pytest.approx(4.0),
            "agent.exec": pytest.approx(6.0),
            "engine.apply": pytest.approx(2.0),
        }
        # engine.apply_message must not be misfiled under engine.dispatch,
        # and async spans must not inflate the sync decomposition.
        assert sum(attribution.stages.values()) == pytest.approx(
            attribution.total_ms
        )

    def test_event_annotations_do_not_contribute_to_stages(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        tracer = hub.tracer
        root = tracer.start_span("http.request")
        clock.advance(0.004)
        tracer.record(
            "event.task.state",
            trace_id=root.trace_id,
            parent_id=root.span_id,
            duration_ms=0.0,
        )
        tracer.end_span(root)
        attribution = CriticalPathAnalyzer(hub.exporter).attribute(
            root.trace_id
        )
        assert attribution.stages["other"] == pytest.approx(4.0)
        assert attribution.stages["filter"] == 0.0

    def test_trace_without_http_root_is_not_attributable(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        with hub.span("background.job") as span:
            clock.advance(0.002)
        analyzer = CriticalPathAnalyzer(hub.exporter)
        assert analyzer.attribute(span.trace_id) is None
        assert analyzer.attribute_all() == []

    def test_critical_path_follows_the_latest_ending_child(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        root = _build_sync_trace(hub, clock)
        attribution = CriticalPathAnalyzer(hub.exporter).attribute(
            root.trace_id
        )
        # db.commit was recorded at the engine span's end and outlives
        # it on the timeline, so the path descends all the way into it.
        assert [name for name, __ in attribution.critical_path] == [
            "http.request",
            "filter.process",
            "engine.start",
            "db.commit",
        ]

    def test_aggregate_groups_by_pattern_and_keeps_the_slowest(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        tracer = hub.tracer
        slow = _build_sync_trace(hub, clock)
        fast = tracer.start_span("http.request")
        clock.advance(0.002)
        tracer.end_span(fast)
        analyzer = CriticalPathAnalyzer(hub.exporter)
        aggregated = analyzer.aggregate(analyzer.attribute_all())
        assert set(aggregated) == {"protein_creation", "(none)"}
        pattern = aggregated["protein_creation"]
        assert pattern["traces"] == 1
        assert pattern["slowest_trace_id"] == slow.trace_id
        assert pattern["mean_total_ms"] == pytest.approx(10.0)
        assert aggregated["(none)"]["mean_total_ms"] == pytest.approx(2.0)


class TestProfiledLock:
    def test_uncontended_acquire_records_hold_but_no_wait(self):
        lock = ProfiledLock("t", threading.Lock(), SystemClock())
        with lock:
            pass
        assert lock.acquisitions == 1
        assert lock.contended == 0
        assert lock.wait_hist.count == 0
        assert lock.hold_hist.count == 1
        [holder] = lock.summary()["holders"]
        assert holder["site"].startswith("test_prof.py:")
        assert holder["share"] == pytest.approx(1.0)

    def test_contended_acquire_measures_the_wait(self):
        lock = ProfiledLock("t", threading.Lock(), SystemClock())
        entered = threading.Event()

        def worker() -> None:
            entered.set()
            with lock:
                pass

        with lock:
            thread = threading.Thread(target=worker)
            thread.start()
            entered.wait()
            time.sleep(0.02)  # let the worker block on the inner lock
        thread.join()
        assert lock.acquisitions == 2
        assert lock.contended == 1
        assert lock.wait_hist.count == 1
        assert lock.wait_hist.sum > 0.0

    def test_reentrant_hold_counts_as_one_acquisition(self):
        lock = ProfiledLock("t", threading.RLock(), SystemClock())
        with lock:
            with lock:
                assert lock._is_owned()
        assert lock.acquisitions == 1
        assert lock.hold_hist.count == 1
        assert not lock._is_owned()

    def test_nonblocking_failure_leaves_no_stats(self):
        inner = threading.Lock()
        lock = ProfiledLock("t", inner, SystemClock())
        inner.acquire()
        try:
            assert lock.acquire(blocking=False) is False
        finally:
            inner.release()
        assert lock.acquisitions == 0
        assert lock.wait_hist.count == 0

    def test_condition_over_profiled_lock_keeps_owner_semantics(self):
        profiler = LockProfiler()
        lock = profiler.wrap("broker.queue.q", threading.Lock())
        condition = threading.Condition(lock)
        with pytest.raises(RuntimeError):
            condition.notify()  # not owned -> Condition consults _is_owned
        ready = []

        def consumer() -> None:
            with condition:
                while not ready:
                    condition.wait(timeout=2.0)

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.01)
        with condition:
            ready.append(True)
            condition.notify()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        # The wait cycle released and reacquired through the wrapper.
        assert lock.acquisitions >= 2
        assert lock.hold_hist.count >= 2

    def test_profiler_report_sorts_by_wait_then_hold(self):
        profiler = LockProfiler(clock=SystemClock())
        quiet = profiler.wrap("quiet", threading.Lock())
        busy = profiler.wrap("busy", threading.Lock())
        with quiet:
            pass
        entered = threading.Event()

        def worker() -> None:
            entered.set()
            with busy:
                pass

        with busy:
            thread = threading.Thread(target=worker)
            thread.start()
            entered.wait()
            time.sleep(0.02)
        thread.join()
        report = profiler.report()
        assert [entry["name"] for entry in report] == ["busy", "quiet"]
        assert report[0]["contention_rate"] == pytest.approx(0.5)


class TestSlowTraceRetainer:
    def _trace(self, hub: ObservabilityHub, clock: ManualClock) -> str:
        span = hub.tracer.start_span("http.request")
        clock.advance(0.001)
        hub.tracer.end_span(span)
        return span.trace_id

    def test_keeps_only_the_slowest_per_operation(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        retainer = SlowTraceRetainer(hub.exporter, per_operation=2)
        ids = [self._trace(hub, clock) for __ in range(3)]
        assert retainer.offer("start", 5.0, ids[0]) is True
        assert retainer.offer("start", 9.0, ids[1]) is True
        # Faster than both retained entries: rejected without a snapshot.
        assert retainer.offer("start", 1.0, ids[2]) is False
        entries = retainer.slowest("start")
        assert [e["duration_ms"] for e in entries] == [9.0, 5.0]
        assert retainer.operations() == ["start"]

    def test_a_slower_trace_evicts_the_fastest_retained(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        retainer = SlowTraceRetainer(hub.exporter, per_operation=2)
        ids = [self._trace(hub, clock) for __ in range(3)]
        retainer.offer("start", 5.0, ids[0])
        retainer.offer("start", 9.0, ids[1])
        assert retainer.offer("start", 7.0, ids[2]) is True
        assert [e["trace_id"] for e in retainer.slowest("start")] == [
            ids[1],
            ids[2],
        ]
        assert retainer.tree(ids[0]) is None

    def test_retained_tree_survives_tracer_ring_eviction(self):
        clock = ManualClock()
        hub = ObservabilityHub(clock=clock)
        retainer = SlowTraceRetainer(hub.exporter)
        trace_id = self._trace(hub, clock)
        retainer.offer("start", 4.0, trace_id)
        hub.tracer.clear()  # the ring moves on; the snapshot must not
        tree = retainer.tree(trace_id)
        assert tree is not None
        assert tree[0]["name"] == "http.request"
        report = retainer.report()
        assert report["start"][0]["spans"] == 1

    def test_traceless_offers_are_ignored(self):
        hub = ObservabilityHub()
        retainer = SlowTraceRetainer(hub.exporter)
        assert retainer.offer("start", 100.0, None) is False
        assert retainer.report() == {}


class TestStackSampler:
    def test_sample_once_captures_this_thread(self):
        sampler = StackSampler()
        seen = sampler.sample_once()
        assert seen >= 1
        report = sampler.report()
        assert report["samples"] == 1
        assert report["distinct_stacks"] >= 1
        [stack, count] = report["hottest"][0]["stack"], report["hottest"][0][
            "count"
        ]
        assert count >= 1
        assert "test_prof.py:" in stack

    def test_collapsed_output_format(self):
        sampler = StackSampler()
        sampler.sample_once()
        line = sampler.collapsed(limit=1)
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack or ":" in stack

    def test_start_stop_idempotent(self):
        sampler = StackSampler(interval_s=0.001)
        sampler.start()
        sampler.start()
        assert sampler.running
        sampler.stop()
        sampler.stop()
        assert not sampler.running

    def test_clear_resets_counts(self):
        sampler = StackSampler()
        sampler.sample_once()
        sampler.clear()
        assert sampler.report()["samples"] == 0
        assert sampler.collapsed() == ""


class TestUntimedDeliveries:
    def test_redelivered_messages_counted_by_reason(self):
        hub = ObservabilityHub()
        broker = MessageBroker()
        hub.watch_broker(broker)
        broker.declare_queue("q")
        broker.send("q", "body")
        message = broker.receive("q")  # timed: send timestamp consumed
        broker.requeue(message)
        broker.receive("q")  # second delivery has no timestamp left
        snapshot = hub.registry.snapshot()
        [series] = snapshot["broker_deliveries_untimed"]["series"]
        assert series["labels"] == {"reason": "redelivered"}
        assert series["value"] == 1

    def test_recovered_messages_counted_by_reason(self):
        broker = MessageBroker()
        broker.declare_queue("q")
        broker.send("q", "body")  # sent before any observer existed
        hub = ObservabilityHub()
        hub.watch_broker(broker)
        broker.receive("q")
        snapshot = hub.registry.snapshot()
        [series] = snapshot["broker_deliveries_untimed"]["series"]
        assert series["labels"] == {"reason": "recovered"}
        assert series["value"] == 1


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def lab(self):
        from repro.workloads.protein import build_protein_lab

        lab = build_protein_lab(profiling=True)
        for __ in range(5):
            response = lab.app.post(
                "/user", workflow_action="start", pattern="protein_creation"
            )
            assert response.ok
            lab.run_messages()
        return lab

    def test_exemplar_links_tail_observation_to_retained_tree(self, lab):
        profiler = lab.obs.profiler
        exemplars = lab.obs.registry.family_exemplars(
            "http_request_latency_ms"
        )
        assert exemplars, "profiling must record request exemplars"
        # The slowest request's exemplar resolves to a full span tree in
        # the retainer — histogram tail to trace, the acceptance loop.
        slowest = exemplars[0]
        tree = profiler.retainer.tree(slowest["trace_id"])
        assert tree is not None
        names = set()
        stack = list(tree)
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node["children"])
        assert "http.request" in names
        assert "filter.process" in names

    def test_attribution_stages_sum_close_to_measured_total(self, lab):
        aggregated = lab.obs.profiler.attribution()
        agg = aggregated["protein_creation"]
        assert agg["traces"] >= 5
        total = agg["mean_total_ms"]
        accounted = sum(agg["stages"].values())
        assert total > 0
        assert abs(accounted - total) <= 0.1 * total

    def test_lock_section_populated(self, lab):
        report = lab.obs.profiler.report()
        lock_names = {entry["name"] for entry in report["locks"]}
        assert "minidb.mutex" in lock_names
        assert "broker.registry" in lock_names
        assert any(name.startswith("broker.queue.") for name in lock_names)
        minidb = next(
            entry for entry in report["locks"]
            if entry["name"] == "minidb.mutex"
        )
        assert minidb["acquisitions"] > 0
        assert minidb["holders"]

    def test_profile_servlet_serves_report_and_trace_view(self, lab):
        response = lab.app.get("/workflow/profile")
        assert response.ok
        body = json.loads(response.body)
        assert body["enabled"] is True
        assert "protein_creation" in body["attribution"]
        retained = lab.obs.profiler.retainer.report()
        operation = next(iter(retained))
        trace_id = retained[operation][0]["trace_id"]
        trace_view = lab.app.get(
            "/workflow/profile", view="trace", trace_id=trace_id
        )
        assert trace_view.ok
        assert json.loads(trace_view.body)["trace_id"] == trace_id
        assert lab.app.get(
            "/workflow/profile", view="trace", trace_id="nope"
        ).status == 404
        assert lab.app.get(
            "/workflow/profile", view="flamegraph"
        ).status == 404  # sampler was not started
        text = lab.app.get("/workflow/profile", format="text")
        assert text.ok
        assert "latency attribution" in text.body

    def test_install_profiling_is_idempotent(self, lab):
        first = lab.obs.profiler
        again = install_profiling(lab.obs)
        assert again is first

    def test_render_text_mentions_every_section(self, lab):
        text = lab.obs.profiler.render_text()
        assert "latency attribution" in text
        assert "lock contention" in text
        assert "slowest retained traces" in text


class TestProfilingOffByDefault:
    def test_bare_hub_has_no_profiler_and_no_exemplars(self):
        hub = ObservabilityHub()
        assert hub.profiler is None
        assert hub.exemplars_enabled is False

    def test_profile_servlet_reports_disabled(self):
        from repro.obs import install_observability
        from repro.weblims import build_expdb

        app = build_expdb()
        install_observability(expdb=app)
        response = app.get("/workflow/profile")
        assert response.ok
        assert json.loads(response.body)["enabled"] is False

    def test_unprofiled_workload_records_no_exemplars(self):
        from repro.workloads.protein import build_protein_lab

        lab = build_protein_lab()
        response = lab.app.post(
            "/user", workflow_action="start", pattern="protein_creation"
        )
        assert response.ok
        lab.run_messages()
        assert lab.obs.profiler is None
        assert (
            lab.obs.registry.family_exemplars("http_request_latency_ms")
            == []
        )

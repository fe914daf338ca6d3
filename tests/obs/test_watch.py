"""Unit tests for the repro.obs.watch layer.

Residency tracking and stuck detection, the alert state machine with
for-duration hysteresis, the bounded telemetry exporter and the flight
recorder's merge contract — all under a ManualClock, no sleeps.
"""

from __future__ import annotations

import pytest

from repro.core.events import EventLog
from repro.obs import ObservabilityHub
from repro.obs.watch import (
    AlertEngine,
    AlertRule,
    MemorySink,
    StateResidencyTracker,
    StuckPolicy,
    TelemetryExporter,
)
from repro.obs.watch.export import BrokenSink
from repro.resilience import ManualClock


def make_tracker(clock=None, registry=None):
    clock = clock or ManualClock()
    tracker = StateResidencyTracker(clock=clock, registry=registry)
    log = EventLog()
    log.subscribe(tracker.on_event)
    return tracker, log, clock


class TestResidencyTracker:
    def test_records_residency_on_transition(self):
        hub = ObservabilityHub()
        tracker, log, clock = make_tracker(registry=hub.registry)
        log.emit("workflow.started", workflow_id=1, pattern="protein_creation")
        log.emit(
            "task.state",
            workflow_id=1, wftask_id=10, task="pcr",
            event="enable", state="eligible",
        )
        clock.advance(5.0)
        log.emit(
            "task.state",
            workflow_id=1, wftask_id=10, task="pcr",
            event="first_activation", state="active",
        )
        summary = (
            hub.registry.histogram(
                "state_residency_seconds",
                pattern="protein_creation", kind="task", state="eligible",
            ).summary()
        )
        assert summary["count"] == 1
        assert summary["sum"] == pytest.approx(5.0)
        baselines = tracker.baselines()
        assert baselines["protein_creation/task/eligible"]["mean_s"] == (
            pytest.approx(5.0)
        )

    def test_terminal_states_drop_the_entity(self):
        tracker, log, clock = make_tracker()
        log.emit("workflow.started", workflow_id=1, pattern="p")
        log.emit(
            "instance.state",
            workflow_id=1, wftask_id=10, experiment_id=7, agent_id=1,
            event="delegation", state="delegated",
        )
        assert len(tracker.current()) == 1
        clock.advance(2.0)
        log.emit(
            "instance.state",
            workflow_id=1, wftask_id=10, experiment_id=7, agent_id=1,
            event="completion", state="completed",
        )
        assert tracker.current() == []
        # The completed residency still fed the baseline.
        assert tracker.baselines()["p/instance/delegated"]["count"] == 1

    def test_instance_learns_task_name_from_task_events(self):
        tracker, log, __ = make_tracker()
        log.emit(
            "task.state",
            workflow_id=1, wftask_id=10, task="digestion",
            event="enable", state="eligible",
        )
        log.emit(
            "instance.state",
            workflow_id=1, wftask_id=10, experiment_id=7, agent_id=2,
            event="delegation", state="delegated",
        )
        instance = [e for e in tracker.current() if e["kind"] == "instance"]
        assert instance[0]["task"] == "digestion"

    def test_scan_uses_fallback_until_baseline_is_credible(self):
        tracker, log, clock = make_tracker()
        log.emit("workflow.started", workflow_id=1, pattern="p")
        log.emit(
            "instance.state",
            workflow_id=1, wftask_id=10, experiment_id=7, agent_id=1,
            event="delegation", state="delegated",
        )
        policy = StuckPolicy(fallback_s=60.0, floor_s=1.0, min_samples=3)
        clock.advance(59.0)
        assert tracker.scan(policy) == []
        clock.advance(2.0)
        flagged = tracker.scan(policy)
        assert len(flagged) == 1
        assert flagged[0]["entity_id"] == 7
        assert "fallback" in flagged[0]["reason"]

    def test_scan_uses_baseline_multiple_once_credible(self):
        tracker, log, clock = make_tracker()
        log.emit("workflow.started", workflow_id=1, pattern="p")
        # Three instances complete after 10 s each: baseline mean 10 s.
        for experiment_id in (1, 2, 3):
            log.emit(
                "instance.state",
                workflow_id=1, wftask_id=10, experiment_id=experiment_id,
                agent_id=1, event="delegation", state="delegated",
            )
            clock.advance(10.0)
            log.emit(
                "instance.state",
                workflow_id=1, wftask_id=10, experiment_id=experiment_id,
                agent_id=1, event="completion", state="completed",
            )
        log.emit(
            "instance.state",
            workflow_id=1, wftask_id=10, experiment_id=4, agent_id=1,
            event="delegation", state="delegated",
        )
        policy = StuckPolicy(multiple=3.0, min_samples=3, floor_s=1.0)
        clock.advance(29.0)  # below 3 x 10 s
        assert tracker.scan(policy) == []
        clock.advance(2.0)  # 31 s > 30 s threshold
        flagged = tracker.scan(policy)
        assert len(flagged) == 1
        assert flagged[0]["baseline_samples"] == 3
        assert flagged[0]["threshold_s"] == pytest.approx(30.0)

    def test_floor_suppresses_zero_baseline_flapping(self):
        """ManualClock baselines are all zeros; the floor keeps
        sub-floor residencies from being flagged instantly."""
        tracker, log, clock = make_tracker()
        log.emit("workflow.started", workflow_id=1, pattern="p")
        for experiment_id in (1, 2, 3):
            log.emit(
                "instance.state",
                workflow_id=1, wftask_id=10, experiment_id=experiment_id,
                agent_id=1, event="delegation", state="delegated",
            )
            log.emit(
                "instance.state",
                workflow_id=1, wftask_id=10, experiment_id=experiment_id,
                agent_id=1, event="completion", state="completed",
            )
        log.emit(
            "instance.state",
            workflow_id=1, wftask_id=10, experiment_id=4, agent_id=1,
            event="delegation", state="delegated",
        )
        policy = StuckPolicy(multiple=3.0, min_samples=3, floor_s=1.0)
        assert tracker.scan(policy) == []  # residency 0 < floor
        clock.advance(1.5)
        assert len(tracker.scan(policy)) == 1  # above floor and 3x0 mean

    def test_eviction_caps_tracked_entities(self):
        clock = ManualClock()
        tracker = StateResidencyTracker(clock=clock, max_entities=2)
        log = EventLog()
        log.subscribe(tracker.on_event)
        for experiment_id in (1, 2, 3):
            log.emit(
                "instance.state",
                workflow_id=1, wftask_id=10, experiment_id=experiment_id,
                agent_id=1, event="delegation", state="delegated",
            )
        assert len(tracker.current()) == 2
        assert tracker.evicted == 1

    def test_malformed_events_never_raise(self):
        tracker, log, __ = make_tracker()
        log.emit("task.state", task=None, state=None)
        log.emit("instance.state", experiment_id="not-an-int", state=7)
        log.emit("workflow.started", workflow_id=None, pattern=3)
        assert tracker.current() == []


class TestStuckPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StuckPolicy(multiple=0.0)
        with pytest.raises(ValueError):
            StuckPolicy(fallback_s=0.0)
        with pytest.raises(ValueError):
            StuckPolicy(floor_s=-1.0)


class TestAlertRule:
    def test_rejects_unknown_comparison(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", source="s", threshold=1, comparison="~")

    def test_rejects_negative_hold(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", source="s", threshold=1, for_s=-1.0)


def make_engine(clock=None, exporter=None):
    clock = clock or ManualClock()
    hub = ObservabilityHub(clock=clock)
    engine = AlertEngine(hub, exporter=exporter, clock=clock)
    return engine, hub, clock


class TestAlertEngine:
    def test_fires_immediately_without_hold(self):
        engine, __, __ = make_engine()
        value = {"v": 0.0}
        engine.add_source("sig", lambda: value["v"])
        engine.add_rule(AlertRule(name="r", source="sig", threshold=5))
        assert engine.evaluate() == []
        value["v"] = 6.0
        transitions = engine.evaluate()
        assert [(t["from"], t["to"]) for t in transitions] == [
            ("inactive", "pending"),
            ("pending", "firing"),
        ]

    def test_hysteresis_holds_pending_until_for_s(self):
        engine, __, clock = make_engine()
        value = {"v": 10.0}
        engine.add_source("sig", lambda: value["v"])
        engine.add_rule(
            AlertRule(name="r", source="sig", threshold=5, for_s=30.0)
        )
        transitions = engine.evaluate()
        assert [t["to"] for t in transitions] == ["pending"]
        clock.advance(10.0)
        assert engine.evaluate() == []  # still pending, not held long enough
        clock.advance(25.0)
        transitions = engine.evaluate()
        assert [t["to"] for t in transitions] == ["firing"]

    def test_pending_cancels_silently_when_condition_clears(self):
        engine, __, clock = make_engine()
        value = {"v": 10.0}
        engine.add_source("sig", lambda: value["v"])
        engine.add_rule(
            AlertRule(name="r", source="sig", threshold=5, for_s=30.0)
        )
        engine.evaluate()
        clock.advance(5.0)
        value["v"] = 0.0
        transitions = engine.evaluate()
        assert [(t["from"], t["to"], t["event"]) for t in transitions] == [
            ("pending", "inactive", "cancel")
        ]
        # A flap never fired, so nothing to resolve.
        assert engine.report()["rules"][0]["status"] == "inactive"

    def test_firing_resolves_and_can_refire(self):
        engine, __, clock = make_engine()
        value = {"v": 10.0}
        engine.add_source("sig", lambda: value["v"])
        engine.add_rule(AlertRule(name="r", source="sig", threshold=5))
        engine.evaluate()
        value["v"] = 0.0
        transitions = engine.evaluate()
        assert [t["to"] for t in transitions] == ["resolved"]
        clock.advance(1.0)
        value["v"] = 10.0
        transitions = engine.evaluate()
        assert [(t["from"], t["to"]) for t in transitions] == [
            ("resolved", "pending"),
            ("pending", "firing"),
        ]

    def test_metric_source_reads_the_registry(self):
        engine, hub, __ = make_engine()
        hub.registry.gauge("queue_depth", queue="a").set(3.0)
        hub.registry.gauge("queue_depth", queue="b").set(4.0)
        engine.add_rule(
            AlertRule(name="deep", source="metric:queue_depth", threshold=5)
        )
        transitions = engine.evaluate()  # 3 + 4 = 7 > 5
        assert [t["to"] for t in transitions] == ["pending", "firing"]

    def test_unknown_source_marks_error_without_killing_the_pass(self):
        engine, __, __ = make_engine()
        engine.add_source("good", lambda: 10.0)
        engine.add_rule(AlertRule(name="bad", source="missing", threshold=1))
        engine.add_rule(AlertRule(name="good", source="good", threshold=1))
        transitions = engine.evaluate()
        assert [t["rule"] for t in transitions] == ["good", "good"]
        report = {r["name"]: r for r in engine.report()["rules"]}
        assert report["bad"]["error"] is not None
        assert report["good"]["error"] is None

    def test_transitions_are_audited_and_counted(self):
        from repro.weblims import build_expdb
        from repro.core import install_workflow_support
        from repro.obs import install_observability

        app = build_expdb()
        engine_bean = install_workflow_support(app)
        clock = ManualClock()
        hub = install_observability(expdb=app, engine=engine_bean)
        alert_engine = AlertEngine(hub, clock=clock)
        alert_engine.add_source("sig", lambda: 10.0)
        alert_engine.add_rule(AlertRule(name="r", source="sig", threshold=5))
        alert_engine.evaluate()
        total, records = hub.audit.query(kind="alert.transition")
        assert total == 2  # pending then firing
        assert {r["state"] for r in records} == {"pending", "firing"}
        assert records[0]["detail"]["rule"] == "r"
        snapshot = hub.registry.snapshot()
        series = snapshot["watch_alert_transitions_total"]["series"]
        by_target = {s["labels"]["to"]: s["value"] for s in series}
        assert by_target == {"pending": 1, "firing": 1}

    def test_transitions_reach_the_exporter(self):
        clock = ManualClock()
        exporter = TelemetryExporter(clock=clock)
        sink = MemorySink()
        exporter.add_sink(sink)
        engine, __, __ = make_engine(clock=clock, exporter=exporter)
        engine.add_source("sig", lambda: 10.0)
        engine.add_rule(AlertRule(name="r", source="sig", threshold=5))
        engine.evaluate()
        exporter.flush()
        kinds = [record["kind"] for record in sink.records]
        assert kinds == ["alert.transition", "alert.transition"]
        assert sink.records[-1]["to"] == "firing"

    def test_health_degrades_only_while_firing(self):
        engine, __, __ = make_engine()
        value = {"v": 10.0}
        engine.add_source("sig", lambda: value["v"])
        engine.add_rule(AlertRule(name="r", source="sig", threshold=5))
        assert engine.health()["status"] == "ok"
        engine.evaluate()
        health = engine.health()
        assert health["status"] == "degraded"
        assert health["firing"] == ["r"]
        value["v"] = 0.0
        engine.evaluate()
        assert engine.health()["status"] == "ok"

    def test_source_name_cannot_shadow_metric_namespace(self):
        engine, __, __ = make_engine()
        with pytest.raises(ValueError):
            engine.add_source("metric:boom", lambda: 1.0)


class TestLatencyObjective:
    """A latency objective is a quantile rule: ``p99 > T`` holds exactly
    when more than 1 % of observations exceed ``T`` (burn rate > 1)."""

    @staticmethod
    def objective(threshold=50.0, quantile="p99"):
        return AlertRule(
            name="latency-objective",
            source=f"metric:http_request_latency_ms:{quantile}",
            threshold=threshold,
        )

    @staticmethod
    def observe(hub, value, times=1, path="/user"):
        histogram = hub.registry.histogram("http_request_latency_ms", path=path)
        for __ in range(times):
            histogram.observe(value)

    def test_p99_rule_fires_past_one_percent_and_resolves(self):
        engine, hub, __ = make_engine()
        engine.add_rule(self.objective())
        self.observe(hub, 5.0, times=99)
        assert engine.evaluate() == []
        # Two slow requests of 101 (on another path: the quantile spans
        # the whole family) are more than 1 %.
        self.observe(hub, 80.0, times=2, path="/workflow")
        transitions = engine.evaluate()
        assert [t["to"] for t in transitions] == ["pending", "firing"]
        assert transitions[-1]["value"] == pytest.approx(80.0)
        # 2 of 200 is back within the budget.
        self.observe(hub, 5.0, times=99)
        assert [t["to"] for t in engine.evaluate()] == ["resolved"]

    def test_exactly_one_percent_over_stays_inactive(self):
        engine, hub, __ = make_engine()
        engine.add_rule(self.objective())
        self.observe(hub, 5.0, times=198)
        self.observe(hub, 80.0, times=2)
        assert engine.evaluate() == []
        assert engine.report()["rules"][0]["value"] == pytest.approx(5.0)

    def test_malformed_quantile_suffix_is_a_source_error(self):
        engine, hub, __ = make_engine()
        self.observe(hub, 80.0)
        for suffix in ("pxx", "p0", "p101", "99", "p99:extra"):
            engine.add_rule(
                AlertRule(
                    name=f"bad-{suffix}",
                    source=f"metric:http_request_latency_ms:{suffix}",
                    threshold=1.0,
                )
            )
        engine.add_rule(self.objective(threshold=1.0, quantile="p99.9"))
        transitions = engine.evaluate()
        assert {t["rule"] for t in transitions} == {"latency-objective"}
        report = {r["name"]: r for r in engine.report()["rules"]}
        assert report["latency-objective"]["error"] is None
        for suffix in ("pxx", "p0", "p101", "99", "p99:extra"):
            assert "bad quantile suffix" in report[f"bad-{suffix}"]["error"]
            assert report[f"bad-{suffix}"]["status"] == "inactive"

    def test_unknown_histogram_quantile_reads_zero(self):
        engine, __, __ = make_engine()
        engine.add_rule(
            AlertRule(name="ghost", source="metric:nope:p99", threshold=0.0)
        )
        assert engine.evaluate() == []
        [rule] = engine.report()["rules"]
        assert rule["value"] == 0.0
        assert rule["error"] is None


class TestTelemetryExporter:
    def test_offer_drops_oldest_when_full(self):
        exporter = TelemetryExporter(clock=ManualClock(), capacity=3)
        for index in range(5):
            exporter.offer("r", index=index)
        assert exporter.pending() == 3
        assert exporter.dropped == 2
        sink = MemorySink()
        exporter.add_sink(sink)
        exporter.flush()
        assert [record["index"] for record in sink.records] == [2, 3, 4]

    def test_dead_sink_counts_errors_and_spares_others(self):
        exporter = TelemetryExporter(clock=ManualClock())
        good = MemorySink()
        exporter.add_sink(BrokenSink())
        exporter.add_sink(good)
        exporter.offer("a")
        exporter.offer("b")
        flushed = exporter.flush()
        assert flushed == 2
        # The broken sink fails once and is skipped thereafter.
        assert exporter.sink_errors == 1
        assert len(good.records) == 2

    def test_flush_limit_drains_partially(self):
        exporter = TelemetryExporter(clock=ManualClock())
        sink = MemorySink()
        exporter.add_sink(sink)
        for index in range(4):
            exporter.offer("r", index=index)
        assert exporter.flush(limit=3) == 3
        assert exporter.pending() == 1

    def test_jsonlines_sink_appends_one_object_per_line(self, tmp_path):
        import json

        from repro.obs.watch import JsonLinesSink

        path = tmp_path / "telemetry.jsonl"
        exporter = TelemetryExporter(clock=ManualClock())
        exporter.add_sink(JsonLinesSink(str(path)))
        exporter.offer("alert.transition", rule="r")
        exporter.offer("metrics.snapshot", metrics={})
        exporter.flush()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "alert.transition"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TelemetryExporter(capacity=0)


class TestFamilyValue:
    def test_sums_children_and_filters_by_labels(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("depth", queue="a").set(3.0)
        registry.gauge("depth", queue="b").set(4.0)
        assert registry.family_value("depth") == pytest.approx(7.0)
        assert registry.family_value("depth", queue="a") == pytest.approx(3.0)
        assert registry.family_value("depth", queue="zz") == 0.0

    def test_unknown_and_histogram_families_read_zero(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram("latency").observe(5.0)
        assert registry.family_value("latency") == 0.0
        assert registry.family_value("nope") == 0.0


class TestFlightRecorder:
    def make_system(self):
        from repro.workloads.protein import build_protein_lab

        lab = build_protein_lab(clock=ManualClock(), watch=True)
        return lab, lab.engine, lab.obs, lab.obs.watcher

    def test_unknown_workflow_is_structured_not_found(self):
        __, __, __, watcher = self.make_system()
        timeline = watcher.recorder.timeline(424242)
        assert timeline == {"found": False, "workflow_id": 424242}
        assert watcher.recorder.summary(424242)["found"] is False
        assert "not found" in watcher.recorder.render_text(424242)

    def test_timeline_merges_audit_and_spans_in_order(self):
        __, engine, hub, watcher = self.make_system()
        workflow = engine.start_workflow("protein_creation")
        workflow_id = workflow["workflow_id"]
        timeline = watcher.recorder.timeline(workflow_id)
        assert timeline["found"] is True
        assert timeline["pattern"] == "protein_creation"
        assert timeline["events"], "started workflow must have audit events"
        keys = [
            (event["ts"], {"audit": 0, "span": 1, "dlq": 2}[event["source"]])
            for event in timeline["events"]
            if event["ts"] is not None
        ]
        assert keys == sorted(keys)
        summary = watcher.recorder.summary(workflow_id)
        assert summary["audit_records"] == len(
            [e for e in timeline["events"] if e["source"] == "audit"]
        )
        text = watcher.recorder.render_text(workflow_id)
        assert f"workflow {workflow_id}" in text

    def test_install_watch_is_idempotent_per_hub(self):
        from repro.obs.watch import install_watch

        __, __, hub, watcher = self.make_system()
        assert install_watch(hub) is watcher

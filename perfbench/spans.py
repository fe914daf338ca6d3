"""Span recording from outside the program.

The traced run monkeypatches the public entry point of each layer with
a wrapper that records one span per call: a name, a start, an end, the
enclosing span and a request id shared by every span under one root.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores the
original attributes.  Spans stay in memory (compact arrays) and are
written out when the run ends.

A layer's self time is a span's duration minus the part covered by its
child spans.  The client is single-threaded, so spans nest strictly and
the covered part is the sum of the direct children's durations.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: (module, class, attribute, span name) of every wrapped entry point.
ENTRY_POINTS = [
    ("repro.weblims.app", "ExpDB", "handle", "weblims.request"),
    ("repro.core.engine", "WorkflowBean", "validate_user_action", "filter.preprocess"),
    ("repro.core.engine", "WorkflowBean", "start_workflow", "engine.start"),
    ("repro.core.engine", "WorkflowBean", "check_workflow", "engine.check_workflow"),
    ("repro.core.engine", "WorkflowBean", "complete_instance", "engine.complete_instance"),
    ("repro.core.engine", "WorkflowBean", "on_data_change", "engine.on_data_change"),
    ("repro.agents.manager", "AgentManager", "dispatch_instance", "agents.dispatch"),
    ("repro.agents.manager", "AgentManager", "pump", "agents.pump"),
    ("repro.agents.base", "TemplateAgent", "step", "agents.step"),
    ("repro.xmlbridge.document", "RelationalDocument", "to_xml", "xmlbridge.translate"),
    ("repro.xmlbridge.document", "RelationalDocument", "from_xml", "xmlbridge.translate"),
    ("repro.messaging.broker", "MessageBroker", "send", "messaging.send"),
    ("repro.messaging.broker", "MessageBroker", "receive", "messaging.receive"),
    ("repro.messaging.broker", "MessageBroker", "ack", "messaging.ack"),
    ("repro.minidb.engine", "Database", "get", "minidb.read"),
    ("repro.minidb.engine", "Database", "select", "minidb.read"),
    ("repro.minidb.engine", "Database", "select_one", "minidb.read"),
    ("repro.minidb.engine", "Database", "select_with_parent", "minidb.read"),
    ("repro.minidb.engine", "Database", "count", "minidb.read"),
    ("repro.minidb.engine", "Database", "insert", "minidb.write"),
    ("repro.minidb.engine", "Database", "update", "minidb.write"),
    ("repro.minidb.engine", "Database", "delete", "minidb.write"),
    ("repro.minidb.engine", "Database", "commit", "minidb.write"),
    ("repro.seglog", "SegmentedLog", "fsync_active", "seglog.fsync"),
]

#: The readiness probe is an instance attribute of the lab's filter,
#: wrapped per lab by :meth:`Tracer.wrap_readiness`.
READINESS = "filter.readiness"

LAYERS = (
    "weblims", "filter", "engine", "agents", "xmlbridge", "messaging",
    "minidb", "seglog",
)


class Tracer:
    """Records spans while installed; summarises them afterwards."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._requests = 0
        self._saved: list[tuple[type, str, Any]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, function: Callable) -> Callable:
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        codes, parents, requests = self.code, self.parent, self.request
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            index = len(codes)
            if stack:
                parent = stack[-1]
                request = requests[parent]
            else:
                parent = -1
                self._requests += 1
                request = self._requests
            codes.append(code)
            parents.append(parent)
            requests.append(request)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        import importlib

        for module_name, class_name, attribute, span in ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), class_name)
            raw = owner.__dict__[attribute]
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attribute, staticmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(owner, attribute, self.wrap(span, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved.clear()

    def wrap_readiness(self, workflow_filter) -> Callable[[], None]:
        """Wrap one filter's readiness probe; returns the undo."""
        original = workflow_filter.readiness
        if original is None:
            return lambda: None
        workflow_filter.readiness = self.wrap(READINESS, original)

        def undo() -> None:
            workflow_filter.readiness = original

        return undo

    # -- summarising ---------------------------------------------------

    def summary(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: calls, inclusive ms, self ms; and the share of
        root request (``weblims.request``) time covered by child spans.

        ``calls``/``ms`` count only spans not directly inside a span of
        the same name (``select_one`` calling ``select`` is one read),
        so inclusive times never count an interval twice.
        """
        count = len(self.code)
        covered = [0.0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        out = {
            name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names
        }
        root_ms = root_covered_ms = 0.0
        for index in range(count):
            name = self.names[self.code[index]]
            duration = (self.end[index] - self.start[index]) * 1e3
            entry = out[name]
            entry["self_ms"] += duration - covered[index] * 1e3
            parent = self.parent[index]
            if parent < 0 or self.code[parent] != self.code[index]:
                entry["calls"] += 1
                entry["ms"] += duration
            if parent < 0 and name == "weblims.request":
                root_ms += duration
                root_covered_ms += covered[index] * 1e3
        return out, root_covered_ms / root_ms if root_ms else 0.0

    def write(self, path: Path) -> None:
        """Write every span as CSV: name,start_us,end_us,parent,request."""
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_us,end_us,parent,request\n")
            for index in range(len(self.code)):
                handle.write(
                    f"{self.names[self.code[index]]},"
                    f"{(self.start[index] - base) * 1e6:.1f},"
                    f"{(self.end[index] - base) * 1e6:.1f},"
                    f"{self.parent[index]},{self.request[index]}\n"
                )

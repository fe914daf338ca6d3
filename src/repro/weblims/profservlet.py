"""The profiling servlet (``GET /workflow/profile``).

Serves the :class:`repro.obs.prof.profiler.Profiler` report — latency
attribution per pattern, lock contention, slow traces, exemplars and
(when running) sampler output.  Registered by
``install_observability`` alongside the metrics/health servlets, but
profiling itself stays opt-in: until ``install_profiling`` attaches a
profiler to the hub, the endpoint answers ``{"enabled": false}``.

Views:

* ``GET /workflow/profile`` — the full JSON report;
* ``?format=text`` — the human-readable rendering the CLI prints;
* ``?view=flamegraph`` — collapsed-stack text (sampler must be on);
* ``?view=trace&trace_id=...`` — one retained slow trace's span tree.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.servlet import Servlet

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import ObservabilityHub
    from repro.weblims.container import WebContainer


class ProfileServlet(Servlet):
    """JSON/text exposure of the latency-attribution profiler."""

    name = "ProfileServlet"

    def __init__(self, hub: "ObservabilityHub") -> None:
        self.hub = hub

    def do_get(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        profiler = self.hub.profiler
        if profiler is None:
            return HttpResponse(
                status=200,
                body=json.dumps(
                    {
                        "enabled": False,
                        "hint": "call repro.obs.prof.install_profiling",
                    }
                ),
                content_type="application/json",
            )
        view = request.param("view")
        if view == "flamegraph":
            if profiler.sampler is None:
                return HttpResponse.error(404, "sampler is not running")
            return HttpResponse(
                status=200,
                body=profiler.sampler.collapsed(),
                content_type="text/plain",
            )
        if view == "trace":
            trace_id = request.param("trace_id")
            if not trace_id:
                return HttpResponse.error(400, "missing trace_id")
            tree = profiler.retainer.tree(trace_id)
            if tree is None:
                return HttpResponse.error(
                    404, f"trace {trace_id!r} is not retained"
                )
            return HttpResponse(
                status=200,
                body=json.dumps(
                    {"trace_id": trace_id, "spans": tree}, default=str
                ),
                content_type="application/json",
            )
        if request.param("format") == "text":
            return HttpResponse(
                status=200,
                body=profiler.render_text(),
                content_type="text/plain",
            )
        return HttpResponse(
            status=200,
            body=json.dumps(profiler.report(), default=str),
            content_type="application/json",
        )

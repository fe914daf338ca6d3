"""Latency attribution and continuous profiling (``repro.obs.prof``).

Everything here is opt-in: until :func:`install_profiling` is called,
the rest of the system carries no profiling cost beyond a handful of
``is None`` checks.  See the module docstrings for the pieces:

* :mod:`~repro.obs.prof.attribution` — critical-path analysis and
  stage-level latency decomposition of archived traces;
* :mod:`~repro.obs.prof.locks` — lock wait/hold profiling with holder
  attribution, pushed down into the broker and minidb;
* :mod:`~repro.obs.prof.sampler` — collapsed-stack wall-clock sampler;
* :mod:`~repro.obs.prof.retain` — tail-based slow-trace retention;
* :mod:`~repro.obs.prof.witness` — runtime lock-order witness asserting
  observed acquisition orders against the static conlint graph;
* :mod:`~repro.obs.prof.profiler` — the facade tying them together.

``python -m repro.obs.prof report`` runs a self-contained workload and
prints the attribution/profile report (see ``__main__``).
"""

from repro.obs.prof.attribution import CriticalPathAnalyzer, TraceAttribution
from repro.obs.prof.locks import LockProfiler, ProfiledLock
from repro.obs.prof.profiler import Profiler, install_profiling
from repro.obs.prof.retain import SlowTraceRetainer
from repro.obs.prof.sampler import StackSampler
from repro.obs.prof.witness import LockOrderWitness

__all__ = [
    "LockOrderWitness",
    "CriticalPathAnalyzer",
    "TraceAttribution",
    "LockProfiler",
    "ProfiledLock",
    "Profiler",
    "install_profiling",
    "SlowTraceRetainer",
    "StackSampler",
]

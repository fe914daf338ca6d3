"""The benchmark's workloads: one client thread drives the protein lab.

Every request goes through the web tier (``lab.app.get``/``post``) and
the agent fleet runs inline (``lab.run_messages()``), so all load comes
from one thread in one process.  A workload is a list of segments; a
segment is one freshly built lab that is first set up (its history is
built through the same client path) and then measured.

The amount of work is fixed: ``--seconds`` scales the number of
*repeats* of a workload's unit of work through a fixed rate, never
through a deadline, so a faster run walks exactly the same history band
as a slower one.  A repeat is the same work each time (one pair of labs
on ``lifecycle``, one lab on ``browse_insert``), and its latency samples
are kept apart so that run.py can report the best repeat's statistics.
The seed chooses only which inputs are used (lab RNG seeds, the branch
order, the order of the technician mix, sample names), never how much
work there is.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.messaging import MessageBroker
from repro.minidb.engine import Database
from repro.minidb.predicates import EQ
from repro.obs.audit import verify_timeline
from repro.workloads.protein import build_protein_lab

PATTERN = "protein_creation"
#: Colony counts that pin each branch of Fig. 1 (threshold 20).
SCREENING, MINIPREP = 25, 10
BRANCH_TASK = {SCREENING: "pcr_screening", MINIPREP: "miniprep"}
#: Pump/poll rounds after which a workflow counts as stuck.
MAX_ROUNDS = 50
#: The technician's fixed multiset, one shuffled copy per pump round:
#: six read-only requests and one sample insert.
TECHNICIAN_MIX = (
    "read_sample",
    "read_miniprep",
    "read_pcr",
    "form_sample",
    "list_tables",
    "list_workflows",
    "insert_sample",
)
#: Sample type of technician inserts.  No task takes Colony from stock
#: (it always arrives over a data edge), so inserted samples never widen
#: a later workflow's inputs.
INSERT_TYPE = "Colony"

#: Work quotas, calibrated so that one nominal second of ``--seconds``
#: is about one second of wall time on a 2-core x86 host with Python
#: 3.11 in its slower speed level (see README.md).  ``lifecycle``
#: repeats pairs of labs (one per branch) of 19 measured workflows
#: each; ``browse_insert`` repeats labs of 30 measured workflows.
LIFECYCLE_LAB_WORKFLOWS = 20
LIFECYCLE_PAIR_S = 2.0
BROWSE_HISTORY = 20
BROWSE_MEASURED = 30
BROWSE_SEGMENT_S = 3.75


@dataclass(frozen=True)
class Segment:
    """One lab: built and set up, then measured."""

    #: Segments with the same repeat number form one repeat.
    repeat: int
    colonies: int
    #: Workflows completed during set-up (history depth at measurement).
    history: int
    #: Workflows in the measured phase.
    measured: int
    #: Whether the technician mix runs after every pump round.
    technician: bool
    #: Whether the measured phase is traced (trace runs only).
    traced: bool
    lab_seed: int
    client_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: History depth the measured workflows start at.
    band: str


WORKLOADS = {
    "lifecycle": Workload(
        "lifecycle", "[1, 20) per lab; lab rebuilt every 20 workflows"
    ),
    "browse_insert": Workload(
        "browse_insert",
        f"[{BROWSE_HISTORY}, {BROWSE_HISTORY + BROWSE_MEASURED}) per lab",
    ),
}


def plan(workload: str, seconds: int, seed: int, trace: bool) -> list[Segment]:
    """The fixed list of segments of one run."""
    rng = random.Random(seed)
    segments: list[Segment] = []

    def add(repeat, colonies, history, measured, technician, traced):
        segments.append(
            Segment(
                repeat,
                colonies,
                history,
                measured,
                technician,
                traced and trace,
                rng.randrange(2**31),
                rng.randrange(2**31),
            )
        )

    if workload == "lifecycle":
        pairs = max(1, round(seconds / LIFECYCLE_PAIR_S))
        order = [SCREENING, MINIPREP]
        rng.shuffle(order)
        for pair in range(pairs):
            for member, colonies in enumerate(order):
                # Trace one lab of each pair, alternating which branch,
                # so traced and untraced labs share the branch mix.
                add(pair, colonies, 1, LIFECYCLE_LAB_WORKFLOWS - 1, False,
                    member == pair % 2)
    elif workload == "browse_insert":
        # Trace runs trace every other lab, so that traced and untraced
        # labs alternate through the run.
        for index in range(max(2, round(seconds / BROWSE_SEGMENT_S))):
            add(index, MINIPREP, BROWSE_HISTORY, BROWSE_MEASURED, True,
                index % 2 == 0)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return segments


def work_counts(lab) -> Counter:
    """Snapshot of the program's own work counters."""
    db = lab.app.db
    stats = db.stats.snapshot()
    wal = db.wal_info()
    journal = lab.broker.journal_info()
    broker = lab.broker.stats
    return Counter(
        reads=stats.reads,
        writes=stats.writes,
        rows_scanned=stats.rows_scanned,
        full_scans=stats.full_scans,
        plan_cache_hits=stats.plan_cache_hits,
        plan_cache_misses=stats.plan_cache_misses,
        wal_appends=wal["appended_records"],
        wal_fsyncs=wal["fsyncs"],
        journal_appends=journal["appended_records"],
        journal_fsyncs=journal["fsyncs"],
        sends=broker.sends,
        deliveries=broker.deliveries,
        redeliveries=broker.redeliveries,
        checks=lab.engine.check_count,
        audit_rows=db.row_count("WFAudit"),
    )


def _delta(after: Counter, before: Counter) -> Counter:
    out = Counter(after)
    out.subtract(before)
    return out


@dataclass
class Samples:
    """Latency samples and throughput of the measured phases of one
    repeat (traced and untraced segments are kept apart)."""

    start_ms: list[float] = field(default_factory=list)
    turnaround_ms: list[float] = field(default_factory=list)
    browse_ms: list[float] = field(default_factory=list)
    insert_ms: list[float] = field(default_factory=list)
    phase_s: float = 0.0
    completed: int = 0


@dataclass
class Run:
    """Samples, work counts and failures of one run."""

    #: Samples keyed by (repeat, traced).
    samples: dict[tuple[int, bool], Samples] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    #: Work counts summed over every measured phase.
    totals: Counter = field(default_factory=Counter)
    #: Work counts summed over the start requests / the sample inserts.
    at_start: Counter = field(default_factory=Counter)
    at_insert: Counter = field(default_factory=Counter)
    starts: int = 0
    inserts: int = 0
    live_versions_peak: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def repeat(self, repeat: int, traced: bool) -> Samples:
        return self.samples.setdefault((repeat, traced), Samples())

    def phase(self, traced: bool) -> tuple[int, float]:
        """Completed workflows and measured seconds of the traced or the
        untraced segments."""
        chosen = [
            samples
            for (__, is_traced), samples in self.samples.items()
            if is_traced == traced
        ]
        return (
            sum(samples.completed for samples in chosen),
            sum(samples.phase_s for samples in chosen),
        )

    def untraced(self) -> list[Samples]:
        """Samples of every repeat's untraced segments, in run order."""
        return [
            samples
            for (__, traced), samples in sorted(self.samples.items())
            if not traced
        ]

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted operation (a request or an output check);
        keep the message when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class Client:
    """The lab's single user: a workflow client and, optionally, the
    technician who browses and inserts after every pump round."""

    def __init__(
        self, lab, run: Run, samples: Samples, rng: random.Random,
        technician: bool,
    ):
        self.lab = lab
        self.run = run
        self.samples = samples
        self.rng = rng
        self.technician = technician
        self.measuring = False
        self.sample_mvcc = False
        self.workflows: list[int] = []
        self.completed = 0
        self.inserted: list[tuple[int, str]] = []

    def request(self, method: str, path: str, samples=None, **params):
        """Send one request; time it into ``samples`` when measuring."""
        send = self.lab.app.post if method == "POST" else self.lab.app.get
        started = time.perf_counter()
        response = send(path, **params)
        elapsed = (time.perf_counter() - started) * 1e3
        if samples is not None and self.measuring:
            samples.append(elapsed)
        if self.sample_mvcc:
            live = self.lab.app.db.mvcc_info()["live_versions"]
            self.run.live_versions_peak = max(self.run.live_versions_peak, live)
        self.run.check(
            response.ok, f"{method} {path} {params} -> {response.status}"
        )
        return response

    def workflow(self) -> None:
        """Start one workflow and drive it to completion (closed loop)."""
        lab, run, samples = self.lab, self.run, self.samples
        before = work_counts(lab)
        started = time.perf_counter()
        response = self.request(
            "POST", "/user", samples.start_ms,
            workflow_action="start", pattern=PATTERN,
        )
        start_s = time.perf_counter() - started
        if self.measuring:
            run.at_start.update(_delta(work_counts(lab), before))
            run.starts += 1
        workflow_id = response.attributes.get("workflow_id")
        if workflow_id is None:
            return
        self.workflows.append(workflow_id)
        browse = None if self.technician else samples.browse_ms
        resumed = time.perf_counter()
        status = "running"
        for __ in range(MAX_ROUNDS):
            lab.run_messages()
            if self.technician:
                self.technician_round()
            view = self.request(
                "GET", "/workflow", browse,
                action="status", workflow_id=str(workflow_id),
            ).attributes.get("view")
            status = view.status if view is not None else "missing"
            if status != "running":
                break
            pending = self.request(
                "GET", "/workflow", browse, action="authorizations"
            ).attributes.get("authorizations", [])
            for authorization in pending:
                self.request(
                    "POST", "/workflow",
                    workflow_action="authorize",
                    auth_id=str(authorization["auth_id"]),
                    approve="true",
                    by="technician",
                )
        if self.measuring:
            samples.turnaround_ms.append(
                (start_s + time.perf_counter() - resumed) * 1e3
            )
        self.completed += status == "completed"
        self.run.check(
            status == "completed", f"workflow {workflow_id} ended {status}"
        )

    def insert_sample(self) -> None:
        """Register one stock sample through the filter (mode a + c)."""
        name = f"pick-{self.rng.randrange(10**6):06d}"
        quality = f"{self.rng.uniform(0.5, 1.0):.3f}"
        before = work_counts(self.lab) if self.measuring else None
        response = self.request(
            "POST", "/user", self.samples.insert_ms,
            action="insert", table="Sample",
            v_type_name=INSERT_TYPE, v_name=name, v_quality=quality,
        )
        if before is not None:
            self.run.at_insert.update(_delta(work_counts(self.lab), before))
            self.run.inserts += 1
        row = response.attributes.get("row")
        if row is not None:
            self.inserted.append((row["sample_id"], name))

    def technician_round(self) -> None:
        """One shuffled copy of the technician mix."""
        mix = list(TECHNICIAN_MIX)
        self.rng.shuffle(mix)
        browse = self.samples.browse_ms
        for kind in mix:
            if kind == "insert_sample":
                self.insert_sample()
            elif kind == "read_sample":
                self.request("GET", "/user", browse, action="read", table="Sample")
            elif kind == "read_miniprep":
                self.request("GET", "/user", browse, action="read", table="Miniprep")
            elif kind == "read_pcr":
                self.request("GET", "/user", browse, action="read", table="Pcr")
            elif kind == "form_sample":
                self.request("GET", "/user", browse, action="form", table="Sample")
            elif kind == "list_tables":
                self.request("GET", "/user", browse, action="list")
            else:
                self.request("GET", "/workflow", browse, action="list")

    def cycle(self) -> None:
        """One closed-loop cycle: a workflow; without the technician mix
        the technician registers one sample once it completes."""
        self.workflow()
        if not self.technician:
            self.insert_sample()


def run_segment(segment: Segment, directory: Path, run: Run, tracer) -> None:
    """Set up one lab, measure it, check its outputs, reopen it."""
    setup_started = time.perf_counter()
    directory.mkdir(parents=True)
    lab = build_protein_lab(
        seed=segment.lab_seed,
        colonies=segment.colonies,
        wal_path=str(directory / "wal"),
        journal_path=str(directory / "journal"),
        sync_policy="group",
    )
    samples = run.repeat(segment.repeat, segment.traced)
    client = Client(
        lab, run, samples, random.Random(segment.client_seed),
        segment.technician,
    )
    # Set-up history goes through the same client path, without the
    # technician mix (browse_insert's history is finished workflows).
    technician, client.technician = client.technician, False
    for __ in range(segment.history):
        client.cycle()
    client.technician = technician
    gc.collect()
    run.setup_s.append(time.perf_counter() - setup_started)

    undo = lambda: None  # noqa: E731
    if segment.traced:
        undo = tracer.wrap_readiness(
            lab.app.container.context["workflow_filter"]
        )
        tracer.install()
        client.sample_mvcc = True
    client.measuring = True
    before = work_counts(lab)
    completed_before = client.completed
    started = time.perf_counter()
    try:
        for __ in range(segment.measured):
            client.cycle()
    finally:
        elapsed = time.perf_counter() - started
        if segment.traced:
            tracer.uninstall()
            undo()
    client.measuring = client.sample_mvcc = False
    run.totals.update(_delta(work_counts(lab), before))
    completed = client.completed - completed_before
    samples.phase_s += elapsed
    samples.completed += completed

    check_outputs(lab, client, segment.colonies, run)
    check_reopen(lab, directory, run)
    shutil.rmtree(directory)
    gc.collect()


def check_outputs(lab, client: Client, colonies: int, run: Run) -> None:
    """Every workflow completed on the right branch with a legal
    timeline; every inserted sample reads back through the web tier."""
    taken = BRANCH_TASK[colonies]
    skipped = BRANCH_TASK[SCREENING if colonies == MINIPREP else MINIPREP]
    audit = lab.obs.audit
    for workflow_id in client.workflows:
        view = lab.engine.workflow_view(workflow_id)
        run.check(
            view.status == "completed",
            f"workflow {workflow_id} is {view.status}",
        )
        run.check(
            view.tasks[taken].state == "completed"
            and view.tasks[skipped].state != "completed",
            f"workflow {workflow_id} took the wrong branch for "
            f"{colonies} colonies",
        )
        child = view.tasks["protein_production"].child_workflow_id
        for checked in (workflow_id, child):
            violations = verify_timeline(audit.timeline(checked))
            run.check(
                checked is not None and not violations,
                f"workflow {checked} timeline: {violations[:3]}",
            )
    for sample_id, name in client.inserted:
        rows = lab.app.get(
            "/user", action="read", table="Sample", c_sample_id=str(sample_id)
        ).attributes.get("rows") or []
        run.check(
            len(rows) == 1 and rows[0]["name"] == name,
            f"sample {sample_id} ({name}) does not read back",
        )


def _completed_ids(db: Database) -> set[int]:
    return {
        row["workflow_id"]
        for row in db.select("Workflow", EQ("status", "completed"))
    }


def check_reopen(lab, directory: Path, run: Run) -> None:
    """Reopen the DB from its WAL and the broker from its journal: the
    completed workflows and the message backlog must survive as is."""
    completed = _completed_ids(lab.app.db)
    backlog = lab.broker.journal_info()["backlog"]
    for agent in lab.agents:
        agent.close()
    lab.manager.close()
    lab.broker.close()
    lab.app.db.close()
    db = Database(wal_path=str(directory / "wal"), sync_policy="group")
    try:
        run.check(
            _completed_ids(db) == completed,
            "completed workflows differ after reopening the WAL",
        )
    finally:
        db.close()
    broker = MessageBroker(
        journal_path=str(directory / "journal"), sync_policy="group"
    )
    try:
        reopened = broker.journal_info()["backlog"]
        run.check(
            reopened == backlog == 0,
            f"journal backlog {backlog} live, {reopened} after reopening",
        )
    finally:
        broker.close()

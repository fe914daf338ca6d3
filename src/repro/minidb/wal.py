"""Write-ahead log for minidb (segmented, checksummed — durability v2).

Each committed transaction (and each DDL statement) is appended as one
checksummed frame to the active segment of a
:class:`repro.seglog.SegmentedLog`; see that module for the on-disk
layout (manifest + numbered segments + checkpoint side files).  When the
record becomes *durable* is governed by the sync policy:

``always``
    flush + fsync before the commit returns — the original
    one-fsync-per-record discipline, and the default.
``group``
    :meth:`append` only buffers (write + flush); durability is deferred
    to :meth:`sync`, where concurrent committers share one fsync via
    :class:`repro.durable.GroupCommitter` (group commit).  The commit
    still does not return to its caller until its record is durable —
    only the *per-record* fsync is gone, not the guarantee.
``off``
    flush only, never fsync — for benchmarks and throwaway databases;
    a crash may lose the tail of the log but never corrupts it.

On open, a Database replays checkpoint + tail to rebuild its state —
this is also how crash recovery is exercised in the tests: kill the
Database object, reopen the path, and the committed (and only the
committed) state reappears.  Under every policy the on-disk log is a
*prefix* of the committed record sequence (plus at most one torn final
line, which replay truncates away).

Record shapes::

    {"type": "create_table", "schema": {...}}
    {"type": "drop_table", "table": "PCR"}
    {"type": "create_index", "table": "...", "columns": [...],
     "unique": false, "ordered": false}
    {"type": "txn", "ops": [{"op": "insert"|"update"|"delete", ...}, ...]}

A torn trailing frame (simulated crash mid-append) is tolerated and
discarded; a checksum mismatch or framing break anywhere else raises
:class:`RecoveryError` with structured diagnostics (segment, offset,
expected/actual CRC) — or, with ``salvage=True``, quarantines the
corrupt suffix and recovers the committed prefix.  A v1 single-file
JSON-lines log found at the base path is refused with ``reason="legacy"``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Iterator

from typing import TYPE_CHECKING

from repro.durable import SYNC_POLICIES, GroupCommitter, validate_sync_policy
from repro.errors import RecoveryError
from repro.resilience.faults import fire
from repro.seglog import DEFAULT_SEGMENT_BYTES, SegmentedLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.clock import Clock
    from repro.resilience.faults import FaultPlan

__all__ = ["SYNC_POLICIES", "WriteAheadLog"]

#: Sequence returned by ``always``-mode appends: the record is buffered
#: and its fsync is owed to :meth:`WriteAheadLog.sync` (any non-``None``
#: value triggers it; the sentinel just reads distinctly in traces).
_ALWAYS_SEQ = -1


class WriteAheadLog:
    """Durable segmented log with atomic append semantics."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        sync_policy: str = "always",
        group_window_s: float = 0.0,
        clock: "Clock | None" = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        segment_max_records: int | None = None,
        salvage: bool = False,
    ) -> None:
        validate_sync_policy(sync_policy)
        self.path = Path(path)
        self.sync_policy = sync_policy
        #: The segment/manifest/checkpoint machinery (shared with the
        #: broker journal).  Also serves as the write serialiser: every
        #: append runs under its state lock.
        self.seg = SegmentedLog(
            self.path,
            error_cls=RecoveryError,
            prefix="wal",
            segment_max_bytes=segment_max_bytes,
            segment_max_records=segment_max_records,
            salvage=salvage,
        )
        #: Shared fsync barrier for ``sync_policy="group"``.
        self.group = GroupCommitter(window_s=group_window_s, clock=clock)
        #: ``always``-mode appends buffered but not yet fsync'd (the
        #: fsync is deferred to :meth:`sync` so it never runs under the
        #: engine's statement mutex; :meth:`close` drains it).
        self._always_pending = 0
        #: Records appended (buffered) through this handle's lifetime.
        self.appended = 0
        #: fsync barriers issued through this handle's lifetime.
        self.fsyncs = 0
        #: Cumulative wall time spent inside fsync barriers (ms) —
        #: the raw material for commit-stage latency attribution.
        self.fsync_wait_ms = 0.0

    @property
    def faults(self) -> "FaultPlan | None":
        """Optional fault-injection plan (``repro.resilience.faults``)."""
        return self.seg.faults

    @faults.setter
    def faults(self, plan: "FaultPlan | None") -> None:
        self.seg.faults = plan

    def tail_path(self) -> Path | None:
        """The active segment file (tests poke torn/corrupt bytes here)."""
        return self.seg.tail_path()

    # -- replay -------------------------------------------------------------

    def replay(self) -> Iterator[dict[str, Any]]:
        """Yield every intact record: checkpoint frames, then the tail.

        Streams frame-by-frame — O(1) memory however long the history
        (pinned by ``tests/minidb/test_segmented_wal.py``).
        """
        for record in self.seg.replay():
            if not isinstance(record, dict) or "type" not in record:
                raise RecoveryError(
                    f"malformed WAL record in {self.path} (not a typed dict)"
                )
            yield record

    # -- append -------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> int | None:
        """Append one record; buffered now, durable per the sync policy.

        Under ``always`` and ``group`` the record is written and flushed
        here, and the returned sequence number must be handed to
        :meth:`sync`, which performs (``always``) or waits for
        (``group``) the fsync.  Deferring the ``always``-mode fsync to
        :meth:`sync` keeps the blocking syscall out of the engine's
        statement mutex — every engine/broker commit path releases its
        lock and then syncs, so the per-record durability guarantee is
        unchanged (the commit still does not return to its caller until
        its record is on disk).  Under ``off`` the record is flushed,
        never fsync'd, and ``None`` is returned.

        Fault point ``wal.append`` (context: ``record_type``): ``crash``
        dies before anything hits the file — the transaction never
        committed; ``corrupt`` leaves a torn half-frame and then dies,
        exactly the state a power cut mid-``write`` produces (replay
        discards it when final, refuses the log otherwise).  Fault point
        ``wal.fsync``: ``crash`` dies after the write but before the
        fsync returned — the record may or may not survive; replay
        treats whatever is on disk as the truth.  In ``group`` mode the
        point fires in the barrier leader, inside :meth:`sync`.
        Rotation (fault point ``wal.rotate``) happens inside the append
        when the active segment crosses its threshold.
        """
        action = fire(
            self.faults, "wal.append", record_type=record.get("type")
        )
        if action == "drop":
            # A lying disk: the caller believes the record is durable.
            return None
        if action == "corrupt":
            self.seg.write_torn(record)
            raise RecoveryError(
                f"injected torn write at {self.path} "
                f"(record type {record.get('type')!r})"
            )
        self.seg.write_frame(record)
        self.appended += 1
        if self.sync_policy == "group":
            return self.group.note_write()
        if self.sync_policy == "always":
            self._always_pending += 1
            # The fault still fires in the appending thread, with the
            # record type in context, exactly where the fsync used to
            # run — a "crash" here leaves the record buffered but not
            # yet fsync'd, the same torn state as before the deferral.
            fire(self.faults, "wal.fsync", record_type=record.get("type"))
            return _ALWAYS_SEQ
        return None

    def sync(self, seq: int | None) -> None:
        """Make the append that returned ``seq`` durable.

        Under ``always`` this performs the record's own fsync (deferred
        out of :meth:`append` so callers can release their locks first);
        under ``group`` it waits on — or leads — the shared barrier.  A
        no-op for ``off`` (never durable) and for ``seq=None`` (nothing
        was buffered).  Many threads may call this concurrently; in
        group mode one of them fsyncs for all.
        """
        if seq is None:
            return
        if self.sync_policy == "always":
            self._always_fsync()
            return
        if self.sync_policy == "group":
            self.group.wait_durable(seq, self._sync_barrier)

    def _always_fsync(self) -> None:
        """One per-record fsync (``always`` policy), outside all locks."""
        self._always_pending = 0
        t0 = time.perf_counter()
        self.seg.fsync_active()
        self.fsync_wait_ms += (time.perf_counter() - t0) * 1000.0
        self.fsyncs += 1

    def _sync_barrier(self) -> None:
        """One fsync covering every buffered append (leader only).

        Safe across a rotation: the retiring segment was fsync'd before
        the handle switched, so fsyncing whatever handle is active now
        covers every record written so far.
        """
        fire(self.faults, "wal.fsync", record_type="group")
        t0 = time.perf_counter()
        self.seg.fsync_active()
        self.fsync_wait_ms += (time.perf_counter() - t0) * 1000.0
        self.fsyncs += 1

    def flush_pending(self) -> None:
        """Drain any un-synced appends (checkpoint/close)."""
        if self.sync_policy == "always":
            if self._always_pending:
                self._always_fsync()
            return
        if self.sync_policy != "group":
            return
        if self.group.pending() > 0:
            self.group.wait_durable(self.group.latest(), self._sync_barrier)

    # -- rotation / checkpoint ----------------------------------------------

    def rotate(self) -> int:
        """Seal the active segment; returns the checkpoint watermark."""
        return self.seg.rotate()

    def install_checkpoint(
        self, records: Iterator[dict[str, Any]] | list, watermark: int
    ) -> int:
        """Publish ``records`` as the checkpoint at ``watermark``.

        Segments at or below the watermark are compacted away; recovery
        becomes checkpoint + tail replay.  Fault points:
        ``checkpoint.write`` (before the side file is written),
        ``checkpoint.swap`` (after the side file is durable, before the
        manifest publishes it), ``wal.compact`` (before old segments are
        unlinked) — a crash at any of them recovers to exactly the old
        or the new organisation of the same committed state.
        """
        return self.seg.install_checkpoint(
            records,
            watermark,
            write_point="checkpoint.write",
            swap_point="checkpoint.swap",
            gc_point="wal.compact",
        )

    def size_bytes(self) -> int:
        """Current on-disk size of the log (0 when it does not exist)."""
        return self.seg.size_bytes()

    def info(self) -> dict[str, Any]:
        """Segment-level layout and counters (manifest, rotation, GC)."""
        return self.seg.info()

    def close(self) -> None:
        """Release file handles (reopened lazily on next append).

        Any still-buffered appends (a group-mode batch, or an
        ``always``-mode record whose deferred fsync was never claimed)
        are fsync'd first — a clean close never loses acknowledged work.
        """
        try:
            if self.seg.handle is not None:
                self.flush_pending()
        finally:
            self.seg.close()

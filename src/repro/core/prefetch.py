"""Speculative batch assembly ahead of the trainer (S5.4, Fig 11).

SAND's headline overlap result is that preprocessing hides behind the
GPU training step.  The demand path alone can't show that: ``get_batch``
assembles synchronously on the trainer's thread, so every cache miss is
trainer stall.  The :class:`BatchPrefetcher` closes the gap tf.data
style — background threads assemble the next K batches per task in
schedule order, and the trainer's ``get_batch`` *takes* a finished batch
instead of building one.

Invariants:

* **Byte-identical fallback.**  A prefetched batch is produced by the
  exact same assembly code as the demand path (materialization is
  deterministic), and any miss — not yet assembled, assembly faulted,
  plan-window roll — silently falls back to the synchronous path.
  Batches with prefetch on equal batches with prefetch off, byte for
  byte.
* **Strict priority.**  Prefetch claims defer to active demand feeding
  via the engine's :class:`~repro.core.scheduling.WorkGate`, and
  pre-materialization claims defer to both.  Running work is never
  interrupted — priority is enforced at claim time.
* **Memory-accounted backpressure.**  Queued batches count toward the
  engine's memory accounting; the claim loop pauses while the engine's
  scheduler-pressure probe reports pressure, so prefetch cannot push
  the engine into the SJF regime by itself and then keep inflating.
* **Faults never propagate.**  A speculative assembly that fails (after
  the engine's own bounded retries) marks the batch failed and is never
  retried speculatively; the demand path covers it with its own retry
  discipline and surfaces a hard failure only to the trainer.
* **Schedules are generations.**  :meth:`BatchPrefetcher.reload` (the
  source's schedule changed: an ownership re-scope) and
  :meth:`BatchPrefetcher.discard` (the engine was rolled away) replace
  every task's state wholesale and release what was queued; an assembly
  claimed under the old state is dropped when it lands, never filed
  under a position of the new order.

The stall clock (``stall_ns_saved``) measures the background assembly
time of batches the trainer then consumed without building — an
observability counter, not an input to any decision, hence the
wall-clock lint pragmas.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.locks import make_lock

BatchKey = Tuple[int, int]  # (epoch, iteration)

# An idle worker's re-check period, and how long ``take`` waits for the
# exact batch it wants while a worker is still assembling it.
POLL_INTERVAL_S = 0.001
WAIT_TIMEOUT_S = 60.0


class PrefetchSource:
    """What the prefetcher needs from the engine (structural protocol).

    Defined as a plain base class rather than ``typing.Protocol`` so the
    module stays import-light; the engine satisfies it structurally and
    never subclasses it.
    """

    def prefetch_tasks(self) -> List[str]:
        """Tasks whose batch schedules may be prefetched."""
        raise NotImplementedError

    def prefetch_order(self, task: str) -> List[BatchKey]:
        """``(epoch, iteration)`` pairs of ``task`` in schedule order."""
        raise NotImplementedError

    def assemble_speculative(
        self, task: str, epoch: int, iteration: int
    ) -> Tuple[Any, Dict[str, object]]:
        """Assemble one batch off the demand path (byte-identical).

        The payload is opaque to the prefetcher: any object with an
        ``nbytes`` attribute (an ndarray, or the engine's pooled
        :class:`~repro.core.dataplane.BatchLease`).  Payloads exposing
        ``release()`` are released when a queued batch is dropped as
        stale, so pooled buffers never leak through the queue.
        """
        raise NotImplementedError

    def prefetch_allowed(self) -> bool:
        """May a new speculative assembly start right now?"""
        raise NotImplementedError


@dataclass
class PrefetchStats:
    """Prefetcher observability counters (rolled into ``EngineStats``)."""

    hits: int = 0
    hits_after_wait: int = 0
    misses: int = 0
    assembled: int = 0
    faults: int = 0
    dropped_stale: int = 0
    queue_depth_high_water: int = 0
    queued_bytes_high_water: int = 0
    stall_ns_saved: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> "PrefetchStats":
        return replace(self)

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "hits_after_wait": self.hits_after_wait,
            "misses": self.misses,
            "assembled": self.assembled,
            "faults": self.faults,
            "dropped_stale": self.dropped_stale,
            "queue_depth_high_water": self.queue_depth_high_water,
            "queued_bytes_high_water": self.queued_bytes_high_water,
            "stall_ns_saved": self.stall_ns_saved,
        }


@dataclass
class _ReadyBatch:
    batch: Any  # ndarray or a pooled BatchLease (anything with .nbytes)
    metadata: Dict[str, object]
    nbytes: int
    assembly_ns: int

    def release(self) -> None:
        """Return a pooled payload to its pool (no-op for plain arrays)."""
        releaser = getattr(self.batch, "release", None)
        if callable(releaser):
            releaser()


@dataclass
class _TaskState:
    """One task's schedule window and hand-off queue."""

    order: List[BatchKey]
    position: Dict[BatchKey, int]
    consumed: int = 0  # schedule position the trainer will demand next
    ready: Dict[int, _ReadyBatch] = field(default_factory=dict)
    inflight: Dict[int, threading.Event] = field(default_factory=dict)
    failed: Set[int] = field(default_factory=set)
    # Positions a trainer is blocked on right now: below the consumption
    # pointer (take advances it before waiting) yet must not be swept as
    # stale when their assembly lands.
    waiting: Set[int] = field(default_factory=set)


class BatchPrefetcher:
    """Assembles the next ``depth`` batches per task on worker threads.

    The hand-off queue is bounded by construction: at most ``depth``
    batches per task are ever ready or in flight, and claims stop
    entirely while :meth:`PrefetchSource.prefetch_allowed` is False
    (demand feeding active, or memory pressure).
    """

    def __init__(
        self,
        source: PrefetchSource,
        depth: int = 2,
        workers: int = 1,
    ) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.source = source
        self.depth = int(depth)
        self.num_workers = int(workers)
        self.stats = PrefetchStats()
        self._lock = make_lock("engine.prefetch")
        self._tasks: Dict[str, _TaskState] = {}
        self._task_names: List[str] = []
        self._claim_cursor = 0
        self._queued_bytes = 0
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self.reload()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Launch prefetch workers (idempotent, restartable)."""
        if self._started:
            return
        self._stop.clear()
        self._threads = [t for t in self._threads if t.is_alive()]
        self._started = True
        for i in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"sand-prefetch-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, join: bool = True) -> None:
        """Signal and (with ``join``) join workers; queued batches stay
        takeable."""
        self._stop.set()
        if not join:
            return
        threads, self._threads = self._threads, []
        current = threading.current_thread()
        for thread in threads:
            if thread is current:  # pragma: no cover - defensive
                continue
            thread.join(timeout=10)
            if thread.is_alive():  # pragma: no cover - wedged worker
                self._threads.append(thread)
        self._started = False

    def reload(self) -> None:
        """Re-read the source's schedule as a new generation of task state.

        Everything queued under the old schedule goes back to the pool,
        and assemblies still in flight are dropped when they land (their
        state object is no longer the task's).  Safe while workers run.
        """
        self._replace(
            {
                task: list(self.source.prefetch_order(task))
                for task in self.source.prefetch_tasks()
            }
        )

    def discard(self) -> None:
        """Release every queued batch and prefetch nothing from here on
        (the engine behind this prefetcher was rolled away or shut down)."""
        self._replace({})

    def _replace(self, orders: Dict[str, List[BatchKey]]) -> None:
        with self._lock:
            states: Dict[str, _TaskState] = {}
            for task, order in orders.items():
                state = _TaskState(
                    order=order, position={key: i for i, key in enumerate(order)}
                )
                previous = self._tasks.get(task)
                if previous is not None and previous.consumed:
                    # Schedule order ascends, so the trainer's progress
                    # carries over as the last key it asked for.
                    state.consumed = bisect.bisect_right(
                        order, previous.order[previous.consumed - 1]
                    )
                states[task] = state
            for stale in self._tasks.values():
                for entry in stale.ready.values():
                    self._queued_bytes -= entry.nbytes
                    entry.release()
                    self.stats.dropped_stale += 1
                stale.ready.clear()
            self._tasks = states
            self._task_names = sorted(states)
            self._claim_cursor = 0

    def queued_bytes(self) -> int:
        """Bytes held by finished, not-yet-consumed batches."""
        with self._lock:
            return self._queued_bytes

    def queue_depth(self) -> int:
        with self._lock:
            return sum(len(state.ready) for state in self._tasks.values())

    # -- trainer side --------------------------------------------------------
    def take(
        self, task: str, epoch: int, iteration: int, wait: bool = True
    ) -> Optional[Tuple[Any, Dict[str, object]]]:
        """Hand over the batch if prefetched; ``None`` means assemble
        synchronously (the byte-identical fallback).

        Advances the task's consumption pointer either way, so claims
        always target batches at or after the trainer's position.  If
        the exact batch is being assembled right now, waits (bounded)
        for that assembly instead of duplicating the work.

        ``wait=False`` is the question "is it queued right now?": the
        lock is tried, never waited for, and ``None`` then means nothing
        happened — no miss counted, no pointer moved — so the caller can
        still ask again with ``wait=True``.  A queued batch is handed
        over exactly as above.
        """
        if not self._lock.acquire(blocking=wait):
            return None
        try:
            state = self._tasks.get(task)
            pos = None if state is None else state.position.get((epoch, iteration))
            if not wait and (state is None or pos not in state.ready):
                return None
            if state is None or pos is None:
                self.stats.misses += 1
                return None
            # Pop the requested batch *before* advancing the pointer and
            # sweeping stale entries — it sits below the new pointer.
            entry = state.ready.pop(pos, None)
            state.consumed = max(state.consumed, pos + 1)
            self._drop_stale_locked(state)
            if entry is not None:
                self._queued_bytes -= entry.nbytes
                self.stats.hits += 1
                self.stats.stall_ns_saved += entry.assembly_ns
                return entry.batch, entry.metadata
            event = state.inflight.get(pos)
            if event is not None:
                state.waiting.add(pos)
        finally:
            self._lock.release()
        if event is None:
            with self._lock:
                self.stats.misses += 1
            return None
        # The exact batch is mid-assembly on a worker: wait for it
        # rather than racing a duplicate synchronous assembly.  The
        # clock measures how much of the assembly the trainer still
        # absorbed (observability only).
        waited_from = time.perf_counter_ns()  # sandlint: ignore[wall-clock]
        finished = event.wait(WAIT_TIMEOUT_S)
        waited_ns = time.perf_counter_ns() - waited_from  # sandlint: ignore[wall-clock]
        with self._lock:
            state.waiting.discard(pos)
            entry = state.ready.pop(pos, None)
            if not finished or entry is None:
                # Timed out, or the assembly faulted: fall back.  An
                # entry popped on the timeout race goes back to the pool.
                if entry is not None:
                    self._queued_bytes -= entry.nbytes
                    entry.release()
                self.stats.misses += 1
                return None
            self._queued_bytes -= entry.nbytes
            self.stats.hits += 1
            self.stats.hits_after_wait += 1
            self.stats.stall_ns_saved += max(0, entry.assembly_ns - waited_ns)
            return entry.batch, entry.metadata

    def _drop_stale_locked(self, state: _TaskState) -> None:
        """Free batches the trainer skipped past (never consumable)."""
        for pos in [
            p for p in state.ready if p < state.consumed and p not in state.waiting
        ]:
            entry = state.ready.pop(pos)
            self._queued_bytes -= entry.nbytes
            entry.release()
            self.stats.dropped_stale += 1

    # -- worker side ---------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            claim = self._claim()
            if claim is None:
                if self._stop.wait(timeout=POLL_INTERVAL_S):
                    return
                continue
            task, state, pos, (epoch, iteration), event = claim
            try:
                self._assemble_one(task, state, pos, epoch, iteration)
            finally:
                with self._lock:
                    state.inflight.pop(pos, None)
                event.set()

    def _claim(
        self,
    ) -> Optional[Tuple[str, _TaskState, int, BatchKey, threading.Event]]:
        """Pick the next schedule position worth assembling, or None.

        Round-robin across tasks (fair progress when several tasks
        train concurrently); within a task, earliest unclaimed position
        in the ``depth``-wide window past the consumption pointer.
        Never claims while the source disallows prefetch — that check
        happens outside the lock, so demand feeding is never blocked on
        the prefetcher's lock.
        """
        if not self.source.prefetch_allowed():
            return None
        with self._lock:
            if not self._task_names:
                return None
            for offset in range(len(self._task_names)):
                task = self._task_names[
                    (self._claim_cursor + offset) % len(self._task_names)
                ]
                state = self._tasks[task]
                window_end = min(state.consumed + self.depth, len(state.order))
                for pos in range(state.consumed, window_end):
                    if (
                        pos in state.ready
                        or pos in state.inflight
                        or pos in state.failed
                    ):
                        continue
                    event = threading.Event()
                    state.inflight[pos] = event
                    self._claim_cursor = (
                        self._claim_cursor + offset + 1
                    ) % len(self._task_names)
                    return task, state, pos, state.order[pos], event
            return None

    def _assemble_one(
        self, task: str, state: _TaskState, pos: int, epoch: int, iteration: int
    ) -> None:
        started = time.perf_counter_ns()  # sandlint: ignore[wall-clock]
        try:
            batch, metadata = self.source.assemble_speculative(task, epoch, iteration)
        except Exception:
            # Exhausted the engine's bounded retries (or hit a hard
            # bug): never retry speculatively — the demand path owns
            # failure semantics for this batch.
            with self._lock:
                state.failed.add(pos)
                self.stats.faults += 1
            return
        assembly_ns = time.perf_counter_ns() - started  # sandlint: ignore[wall-clock]
        with self._lock:
            self.stats.assembled += 1
            if self._tasks.get(task) is not state or (
                pos < state.consumed and pos not in state.waiting
            ):
                # The schedule was reloaded, or the trainer moved past
                # this batch, while it was being assembled; it can never
                # be consumed.  Pooled payloads go straight back to the
                # pool.
                releaser = getattr(batch, "release", None)
                if callable(releaser):
                    releaser()
                self.stats.dropped_stale += 1
                return
            state.ready[pos] = _ReadyBatch(
                batch=batch,
                metadata=metadata,
                nbytes=int(batch.nbytes),
                assembly_ns=assembly_ns,
            )
            self._queued_bytes += int(batch.nbytes)
            depth_now = sum(len(s.ready) for s in self._tasks.values())
            if depth_now > self.stats.queue_depth_high_water:
                self.stats.queue_depth_high_water = depth_now
            if self._queued_bytes > self.stats.queued_bytes_high_water:
                self.stats.queued_bytes_high_water = self._queued_bytes

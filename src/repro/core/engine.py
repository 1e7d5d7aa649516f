"""The preprocessing engine: worker threads executing the plan (S5.4).

Two kinds of work, as in the paper:

* **Demand feeding** — ``get_batch`` runs on the caller's thread (the
  trainer's data loader).  It loads each sample leaf from memory or the
  cache, materializes anything missing immediately, and collates the
  batch.  Being synchronous with the trainer, it is by construction the
  highest-priority work in the system.
* **Pre-materialization** — background workers pull video subtrees off
  the scheduler (deadline order, SJF under memory pressure) and
  materialize each subtree's caching frontier ahead of need, releasing
  decoded raw frames as soon as the subtree completes.

Memory accounting sums every materializer's in-memory bytes; the
scheduler's memory-pressure probe reads it to trigger the SJF flip.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TypeVar

import numpy as np

from repro.analysis.locks import make_lock
from repro.analysis.sanitizers import SanitizerReport, collect_report, sanitizers_enabled
from repro.augment.fusion import TrafficLedger
from repro.augment.registry import OpRegistry
from repro.codec.incremental import AnchorCache
from repro.core.cache import CacheManager
from repro.core.concrete_graph import BatchAssembly, MaterializationPlan
from repro.core.dataplane import BatchLease, BufferPool, NotReady
from repro.core.materializer import VideoMaterializer
from repro.core.prefetch import BatchPrefetcher, PrefetchStats
from repro.core.pruning import PruningOutcome
from repro.core.scheduling import (
    MaterializationScheduler,
    WorkClass,
    WorkGate,
    build_jobs,
)
from repro.core.wire import BatchDescription
from repro.faults.errors import InjectedWorkerCrash, TransientDecodeError
from repro.faults.proxies import FaultyDecoder
from repro.storage.objectstore import TransientStorageError
from repro.storage.retry import RetryPolicy, call_with_retries

# Failures worth retrying: flaky I/O and flaky decode.  Anything else is
# a bug (or an injected crash) and must not be silently absorbed by a
# retry loop.
_RETRYABLE = (TransientStorageError, TransientDecodeError)

T = TypeVar("T")


def batch_metadata(
    plan: MaterializationPlan, dataset: Any, assembly: BatchAssembly
) -> Dict:
    """The batch's metadata mapping, a pure function of the plan (and the
    dataset's labels): built on first use, then the same read-only object
    for every request and every trainer."""
    if assembly.described is not None:
        return assembly.described
    videos, timestamps, labels, frame_lists = [], [], [], []
    label = getattr(dataset, "label", None)
    for video_id, leaf_key in assembly.samples:
        graph = plan.graphs[video_id]
        indices = list(graph.nodes[leaf_key].frame_indices or ())
        videos.append(video_id)
        frame_lists.append(indices)
        timestamps.append([round(i / graph.metadata.fps, 6) for i in indices])
        labels.append(label(video_id) if callable(label) else None)
    assembly.described = BatchDescription(
        task=assembly.task,
        epoch=assembly.epoch,
        iteration=assembly.iteration,
        videos=videos,
        frame_indices=frame_lists,
        timestamps=timestamps,
        labels=labels,
    )
    return assembly.described


@dataclass(frozen=True)
class DeadLetterRecord:
    """A pre-materialization job that exhausted its retries."""

    video_id: str
    attempts: int
    reason: str


@dataclass
class EngineStats:
    batches_served: int = 0
    demand_materializations: int = 0
    pre_materializations: int = 0
    # Frontier leaves written straight into their only consumer's batch
    # slot instead of being persisted; keys the worker then skipped.
    dead_stores_elided: int = 0
    consumed_skipped: int = 0
    peak_memory_bytes: int = 0
    frames_decoded: int = 0
    frames_reused_from_anchor_cache: int = 0
    frames_skipped_near_duplicate: int = 0
    raw_frame_releases: int = 0
    # Anchor-cache counter snapshot (global + per-video hit/miss/reuse),
    # refreshed on aggregation; always present so dashboards never branch.
    anchor_cache: Dict = field(default_factory=dict)
    # -- failure handling (S5.5 fault model) --------------------------------
    job_retries: int = 0
    demand_retries: int = 0
    worker_crashes: int = 0
    dead_letters: List[DeadLetterRecord] = field(default_factory=list)
    fallback_rematerializations: int = 0
    transient_storage_errors: int = 0
    corrupt_objects_evicted: int = 0
    quarantined_keys: List[str] = field(default_factory=list)
    # Memory traffic across the whole engine: batch assembly plus every
    # materializer's op executions (recomputed on aggregation).
    traffic: TrafficLedger = field(default_factory=TrafficLedger)
    # Demand-path pipelining: hand-off queue depth high-water, hit/miss
    # counts, trainer stall nanoseconds hidden by background assembly.
    # Always present (zeroed when prefetch is off) so dashboards and
    # tests never branch on its existence.
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)
    # Storage-layer failure ledger: remote retries/dead-letters and tier
    # transitions (demotions, failovers, heals, repairs), pulled from the
    # store's storage_failure_report() on aggregation.  Empty for plain
    # single-tier stores, so the block is always present but may be {}.
    storage: Dict = field(default_factory=dict)
    # Delivery-path counters: pooled-buffer lease health, socket sends,
    # and bytes copied per delivered batch (~0 on the in-process lease
    # path).  Always present so dashboards never branch.
    dataplane: Dict = field(default_factory=dict)
    # Runtime-sanitizer findings (lock-order inversions, write-after-share,
    # raw-frame leaks).  None when sanitizers are off; populated on stop()
    # and by sanitizer_report().
    sanitizer: Optional[SanitizerReport] = None

    @property
    def dead_letter_jobs(self) -> List[str]:
        return [record.video_id for record in self.dead_letters]

    def traffic_report(self) -> Dict:
        """The memory-traffic ledger with prefetch and anchor-cache blocks."""
        report: Dict = dict(self.traffic.as_dict())
        report["dead_stores_elided"] = self.dead_stores_elided
        report["consumed_skipped"] = self.consumed_skipped
        report["prefetch"] = self.prefetch.as_dict()
        report["anchor_cache"] = dict(self.anchor_cache)
        report["storage"] = dict(self.storage)
        report["dataplane"] = dict(self.dataplane)
        return report


class PreprocessingEngine:
    """Executes one plan window with real threads and real arrays."""

    def __init__(
        self,
        plan: MaterializationPlan,
        dataset,
        pruning: Optional[PruningOutcome] = None,
        cache: Optional[CacheManager] = None,
        num_workers: int = 2,
        memory_budget_bytes: int = 512 * 1024 * 1024,
        registry: Optional[OpRegistry] = None,
        anchor_cache: Optional[AnchorCache] = None,
        fault_schedule=None,
        retry_policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        prefetch_depth: int = 0,
        prefetch_workers: int = 1,
        reuse_threshold: float = 0.0,
        delivery_pool: Optional[BufferPool] = None,
    ):
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if prefetch_depth < 0:
            raise ValueError(f"prefetch_depth must be >= 0, got {prefetch_depth}")
        if reuse_threshold < 0:
            raise ValueError(f"reuse_threshold must be >= 0, got {reuse_threshold}")
        self.plan = plan
        self.dataset = dataset
        self.pruning = pruning
        self.cache = cache
        self.registry = registry
        self.memory_budget_bytes = memory_budget_bytes
        self.seed = int(seed)
        # Traffic charged by the engine itself (batch-buffer allocation
        # and writes); materializer ledgers are added when stats are read.
        self._engine_traffic = TrafficLedger()
        # The engine bumps counters here; readers go through ``stats``,
        # which folds the derived fields in first.
        self._stats = EngineStats()
        # Delivery buffers: batches are assembled straight into pooled,
        # single-owner leases (shared across engines when a service
        # passes one pool in).  Logical ledger charges are unchanged by
        # pooling; physical reuse shows up in the pool's report only.
        self._owns_pool = delivery_pool is None
        self.delivery_pool = (
            delivery_pool if delivery_pool is not None else BufferPool()
        )
        self._delivery_lock = make_lock("engine.delivery")
        self._delivery_sends = 0
        self._delivery_send_bytes = 0
        self._slot_writes_direct = 0
        self._slot_writes_copied = 0
        # Fault handling: the schedule injects (crash-at-job-N, decoder
        # faults via the wrapper below); the retry policy bounds how hard
        # jobs and demand reads fight transient failures before giving up.
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        # Backoff-jitter RNGs are thread-local and derived from the run
        # seed + thread identity: retried runs stay deterministic, and
        # concurrent retry loops never interleave draws from one stream.
        self._retry_rng_local = threading.local()
        self._decoder_wrapper = (
            (lambda decoder, video_id: FaultyDecoder(decoder, fault_schedule, video_id))
            if fault_schedule is not None
            else None
        )
        # One anchor cache for the whole engine (and, when the caller
        # passes a long-lived one, across successive plan windows): every
        # materializer's decoder publishes decoded anchors here, so sparse
        # re-access to a video after release_raw_frames resumes from the
        # nearest cached anchor instead of the GOP keyframe.  Budget 0
        # degrades to fully stateless decoding.
        self.anchor_cache = (
            anchor_cache if anchor_cache is not None else AnchorCache()
        )
        self.reuse_threshold = reuse_threshold

        self._materializers: Dict[str, VideoMaterializer] = {}
        self._mat_lock = make_lock("engine.materializers")
        self._progress: Dict[str, int] = {t: 0 for t in plan.tasks}
        self._progress_lock = make_lock("engine.progress")
        # Pre-materialization jobs claimed from the scheduler but not yet
        # finished: drain() must wait for these, not just pending_count.
        self._inflight = 0
        self._inflight_lock = make_lock("engine.inflight")
        # Monotone claim counter: gives crash-at-job-N a thread-stable,
        # 1-based job index.
        self._job_seq = 0

        # Batches whose background work (pre-materialization, prefetch)
        # is this engine's; None = every batch of the plan.  See rescope.
        self._owned: Optional[Set[Tuple[str, int, int]]] = None
        self.scheduler = MaterializationScheduler(
            build_jobs(plan, pruning),
            memory_fraction=self._memory_fraction,
        )
        self._num_workers = num_workers
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        # A warm engine's prefetch claims also wait while this says the
        # trainers of the live engines are busy (see warm); None once started.
        self._defer_to: Optional[Callable[[], bool]] = None
        # Claim-time priority: demand > prefetch > pre-materialization.
        self._work_gate = WorkGate()
        self._prefetcher: Optional[BatchPrefetcher] = (
            BatchPrefetcher(self, depth=prefetch_depth, workers=prefetch_workers)
            if prefetch_depth > 0
            else None
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Launch pre-materialization workers (idempotent, restartable).

        Calling ``start`` after ``stop`` relaunches workers: the stop
        signal is cleared first, so a stopped engine is reusable (the
        service restarts the same engine when a task re-opens its window).
        """
        if self._started:
            return
        self._defer_to = None
        self._stop.clear()
        self._threads = [t for t in self._threads if t.is_alive()]
        self._started = True
        for i in range(self._num_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"sand-premat-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        if self._prefetcher is not None:
            self._prefetcher.start()

    def warm(self, defer_to: Callable[[], bool]) -> None:
        """Start only the prefetcher, for an engine whose window is not
        live yet: it assembles each task's first batches, claiming only
        while ``defer_to()`` is false (the live engines' trainers are
        idle) on top of the usual checks.  ``start()`` ends the deferring
        and launches the pre-materialization workers."""
        self._defer_to = defer_to
        if self._prefetcher is not None:
            self._prefetcher.start()

    @property
    def running(self) -> bool:
        """Started and not stopped: ``start()`` would do nothing."""
        return self._started

    def stop(self, join: bool = True) -> None:
        """Signal and join workers, then fold the stats so a stopped (or
        rolled-away) engine's held stats object is final.  Idempotent and
        exception-safe: calling it twice, or after a worker thread died
        from an exception, neither hangs nor double-joins.

        ``join=False`` only signals: the workers finish what they hold
        and exit on their own, queued batches stay takeable and the
        demand path still serves; a later ``stop()`` joins them."""
        self._stop.set()
        if self._prefetcher is not None:
            self._prefetcher.stop(join)
        if not join:
            return
        threads, self._threads = self._threads, []
        current = threading.current_thread()
        for thread in threads:
            if thread is current:  # pragma: no cover - defensive
                continue
            thread.join(timeout=10)
            if thread.is_alive():
                # A wedged worker: leave it to the daemon reaper rather
                # than hang shutdown; keep tracking it so a second stop
                # (or start) still sees it.
                self._threads.append(thread)
        self._started = False
        if sanitizers_enabled():
            # Lease-leak check: beyond the speculative batches still
            # queued (takeable after a restart), an engine-owned pool
            # should have nothing outstanding — every served batch was
            # either detached (owned array) or released by its consumer.
            # A shared (service-owned) pool is checked by the service
            # instead, after every engine has stopped.
            if self._owns_pool:
                self.delivery_pool.note_leaks(held=self.prefetch_queue_depth())
            self._stats.sanitizer = collect_report()
        self._fold_stats()

    def rescope(self, owns: Optional[Callable[[BatchAssembly], bool]]) -> None:
        """Confine background work to the batches ``owns`` accepts.

        A shard of a fleet pre-materializes and prefetches only its own
        share of the window (``None`` lifts the scope).  The demand path
        is never scoped: any engine serves any batch of its plan.  Safe
        on a running engine and never joins a thread: the job table is
        swapped (finished videos stay finished), the prefetcher re-reads
        its schedule and releases what it had queued.
        """
        owned = None if owns is None else [a for a in self.plan.batches.values() if owns(a)]
        self._owned = (
            None if owned is None else {(a.task, a.epoch, a.iteration) for a in owned}
        )
        self.scheduler.replace_jobs(build_jobs(self.plan, self.pruning, owned))
        if self._prefetcher is not None:
            self._prefetcher.reload()

    def use_anchor_cache(self, cache: AnchorCache) -> None:
        """Decode through ``cache`` from now on: materializers built later
        and every existing one, its open decoder included.  Safe on a
        running engine, like :meth:`rescope`."""
        self.anchor_cache = cache
        with self._mat_lock:
            materializers = list(self._materializers.values())
        for materializer in materializers:
            materializer.use_anchor_cache(cache)

    def consumed_keys(self) -> Set[str]:
        """Frontier leaves already delivered to their only planned use
        (never persisted; nothing in the rest of the window reads them)."""
        with self._mat_lock:
            return set().union(*(m.consumed for m in self._materializers.values()))

    def scope_report(self) -> Dict[str, int]:
        """How much of the window's background work is this engine's."""
        owned = self._owned
        return {
            "owned_batches": len(self.plan.batches) if owned is None else len(owned),
            "jobs_scoped_out": len(self.plan.graphs) - len(self.scheduler.jobs),
        }

    def retire(self, join: bool = True) -> None:
        """``stop`` for an engine that will not be restarted (rolled away
        or shut down): its queued speculative batches go back to the pool
        and its memoized arrays are dropped now.  (The engine sits in
        reference cycles with its scheduler and prefetcher, so they would
        otherwise stay resident until the cyclic collector's next full
        pass; a straggling request simply recomputes.)  ``join=False``
        leaves the signalled workers to a later ``retire()``."""
        self.stop(join)
        if self._prefetcher is not None:
            self._prefetcher.discard()
        with self._mat_lock:
            materializers = list(self._materializers.values())
        for materializer in materializers:
            materializer.release_all()

    def drain(self) -> None:
        """Block until all pre-materialization jobs are done.

        With live workers this waits for them; without any (``num_workers=0``,
        not started, or every worker crashed), it runs the remaining jobs
        on the calling thread.  "Done" means no job is pending *and* no
        worker holds a claimed job mid-materialization — claiming marks
        the scheduler done before the work happens, so ``pending_count``
        alone would let ``drain`` return while frontier work is still in
        flight.
        """
        while any(t.is_alive() for t in self._threads):
            if self._stop.is_set():
                return
            with self._inflight_lock:
                inflight = self._inflight
            if not self.scheduler.pending_count and not inflight:
                return
            time.sleep(0.005)
        # No live workers (never started, or all crashed): finish inline.
        while True:
            try:
                if not self._run_one_job():
                    return
            except InjectedWorkerCrash:
                # The "worker" is the calling thread; treat the crash as
                # a lost job (the demand path will cover it) and go on.
                continue

    def __enter__(self) -> "PreprocessingEngine":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- demand feeding -------------------------------------------------------
    def get_batch(
        self, task: str, epoch: int, iteration: int
    ) -> Tuple[np.ndarray, Dict]:
        """Materialize and collate one training batch (demand path).

        The returned array is the pooled delivery buffer, *detached*
        from the pool: the caller owns it outright (the historical
        contract), with zero extra copies and no reuse hazard.  Callers
        that can release promptly should prefer :meth:`get_batch_lease`,
        which keeps the buffer recyclable.
        """
        lease, metadata = self.get_batch_lease(task, epoch, iteration)
        return lease.detach(), metadata

    def get_batch_lease(
        self, task: str, epoch: int, iteration: int, wait: bool = True
    ) -> Tuple[BatchLease, Dict]:
        """The demand path — prefetch hand-off or synchronous assembly —
        lending the pooled delivery buffer.

        The caller must ``release()`` the lease when the batch is
        consumed (the async server does so on client ACK/disconnect);
        the buffer then re-enters the pool for the next assembly.

        ``wait=False`` serves the batch only if that takes no waiting
        and no real work — it is in the prefetcher's ready queue, or
        (no prefetcher) every sample leaf is memoized and owes no store
        write, so assembly is a bounded memcpy — and raises
        :class:`NotReady` otherwise, *before anything has changed*: no
        miss counted, no pointer or clock moved.  A batch served this
        way leaves every counter exactly as ``wait=True`` would have.
        """
        key = (task, epoch, iteration)
        if key not in self.plan.batches:
            raise KeyError(f"no batch planned for {key}")
        assembly = self.plan.batches[key]
        ready = None
        held: List[VideoMaterializer] = []
        if not wait:
            # NotReady leaves from here, before anything has changed.
            if self._prefetcher is None:
                held = self._hold_memoized(assembly)
            else:
                ready = self._prefetcher.take(task, epoch, iteration, wait=False)
                if ready is None:
                    raise NotReady(f"{key} is not in the ready queue")
        try:
            step = self.plan.global_step(task, epoch, iteration)
            with self._progress_lock:
                self._progress[task] = max(self._progress[task], step)
            cache = self.cache
            if cache is not None and (cache.plan is None or cache.plan is self.plan):
                # The clock counts the registered window's steps: a
                # straggler of the window before must not move it.
                cache.advance(step)

            if wait and self._prefetcher is not None:
                ready = self._prefetcher.take(task, epoch, iteration)
            if ready is not None:
                lease, metadata = ready
            else:
                self._work_gate.enter(WorkClass.DEMAND)
                try:
                    metadata = batch_metadata(self.plan, self.dataset, assembly)
                    lease = self._assemble(assembly)
                finally:
                    self._work_gate.exit(WorkClass.DEMAND)
        finally:
            for materializer in held:
                materializer.unhold()
        self._stats.batches_served += 1
        self._note_memory()
        return lease, metadata

    def _hold_memoized(self, assembly: BatchAssembly) -> List[VideoMaterializer]:
        """Hold, without waiting, the materializer of every sample — all
        leaves memoized, none owing a store write — or hold nothing and
        raise :class:`NotReady`.  Under the hold, assembly cannot wait."""
        held: List[VideoMaterializer] = []
        for video_id, leaf_key in assembly.samples:
            materializer = self._materializers.get(video_id)
            if materializer is None or not materializer.hold_memoized(leaf_key):
                for holder in held:
                    holder.unhold()
                raise NotReady(f"{video_id}:{leaf_key} is not memoized")
            held.append(materializer)
        return held

    # -- prefetch source protocol ---------------------------------------------
    def prefetch_tasks(self) -> List[str]:
        return list(self.plan.tasks)

    def prefetch_order(self, task: str) -> List[Tuple[int, int]]:
        """(epoch, iteration) pairs of ``task``'s owned batches in
        schedule order."""
        owned = self._owned
        return sorted(
            (epoch, iteration)
            for (t, epoch, iteration) in (self.plan.batches if owned is None else owned)
            if t == task
        )

    def prefetch_allowed(self) -> bool:
        """Speculation runs only below demand work and memory pressure."""
        defer_to = self._defer_to
        return (
            not self._stop.is_set()
            and self._work_gate.clear_above(WorkClass.PREFETCH)
            and not self.memory_pressure()
            and (defer_to is None or not defer_to())
        )

    def memory_pressure(self) -> bool:
        return self._memory_fraction() >= self.scheduler.memory_threshold

    def foreground_idle(self) -> bool:
        """No demand or prefetch assembly is running: what the lowest
        priority work — a pre-materialization claim, the service's
        plan-ahead build and warm engine — waits for."""
        return self._work_gate.clear_above(WorkClass.PREMATERIALIZE)

    def prefetch_queue_depth(self) -> int:
        """Finished speculative batches still queued (0 when prefetch is off)."""
        return self._prefetcher.queue_depth() if self._prefetcher is not None else 0

    def assemble_speculative(
        self, task: str, epoch: int, iteration: int
    ) -> Tuple[BatchLease, Dict]:
        """Assemble one batch off-thread, exactly as the demand path would.

        Materialization is deterministic and memoized, so speculative
        assembly produces the same bytes the synchronous path would —
        which is what makes the prefetch-on/off differential exact.
        The ready queue holds the returned lease until the trainer takes
        it (or a stale drop releases it back to the pool).
        """
        assembly = self.plan.batches[(task, epoch, iteration)]
        self._work_gate.enter(WorkClass.PREFETCH)
        try:
            metadata = batch_metadata(self.plan, self.dataset, assembly)
            lease = self._assemble(assembly)
        finally:
            self._work_gate.exit(WorkClass.PREFETCH)
        self._note_memory()
        return lease, metadata

    # -- delivery accounting ---------------------------------------------------
    def _charge_delivery(self, nbytes: int, send: bool) -> None:
        """A lease this engine assembled was delivered once more: by a
        socket write (``send``) or a POSIX blob encode.  Either copies
        the batch at the trainer boundary, so the traffic ledger is
        charged and ``bytes_copied`` stays end-to-end truthful."""
        if send:
            with self._delivery_lock:
                self._delivery_sends += 1
                self._delivery_send_bytes += nbytes
        self._engine_traffic.note_delivery(nbytes)

    def dataplane_report(self) -> Dict:
        """The delivery-path block of ``traffic_report()`` (fresh)."""
        return dict(self.stats.dataplane)

    def _count_demand(self, materializer: VideoMaterializer, key: str) -> None:
        if not materializer.in_memory(key) and (
            self.cache is None or key not in self.cache
        ):
            self._stats.demand_materializations += 1

    def _assemble(self, assembly: BatchAssembly) -> BatchLease:
        """Collate into one pooled delivery buffer (copy elision).

        The batch's shape and dtype come from the plan, so the buffer
        exists before any sample does and *every* sample is computed (or
        copied) straight into its slot via the materializer's
        ``get_into`` fast path — with a fused normalize epilogue, that
        write *is* the final op, landing directly in the buffer the
        trainer (or the socket) will read.  Bytes copied at the trainer
        boundary: zero.
        """
        video_id, leaf_key = assembly.samples[0]  # plans never emit empty batches
        first = self._materializer(video_id)
        spec = first.leaf_spec(leaf_key)
        if spec is None:
            # Not static (clip-scoped ops, opaque op): learn it from the
            # first sample, which slot 0 then copies out of the memo.
            self._count_demand(first, leaf_key)
            array = self._retry(lambda: first.get(leaf_key), "demand_retries")
            spec = (array.shape, array.dtype)
        shape, dtype = spec
        lease = self.delivery_pool.acquire((len(assembly.samples),) + shape, dtype)
        lease.charge = self._charge_delivery
        batch = lease.array
        self._engine_traffic.bytes_allocated += batch.nbytes
        direct = 0
        try:
            for slot, (video_id, leaf_key) in enumerate(assembly.samples):
                materializer = self._materializer(video_id)
                self._count_demand(materializer, leaf_key)
                # Deterministic, so a retry after a transient failure
                # mid-write overwrites the slot with the same bytes.
                direct += self._retry(
                    lambda: materializer.get_into(leaf_key, batch[slot]),
                    "demand_retries",
                )
        except BaseException:
            lease.release()
            raise
        with self._delivery_lock:
            self._slot_writes_direct += direct
            self._slot_writes_copied += len(assembly.samples) - direct
        return lease

    def _jitter_rng(self) -> random.Random:
        """This thread's backoff-jitter RNG, seeded from run seed + thread name."""
        rng = getattr(self._retry_rng_local, "rng", None)
        if rng is None:
            rng = random.Random(
                f"engine-retry|{self.seed}|{threading.current_thread().name}"
            )
            self._retry_rng_local.rng = rng
        return rng

    def _retry(self, fn: Callable[[], T], counter: str) -> T:
        """``fn`` under the retry policy; each retry bumps ``stats.<counter>``.

        Storage faults already degrade to recomputation inside the
        materializer; what reaches here is flaky *compute* (decoder
        faults), retried with backoff so one transient blip never
        poisons a training batch.  Exhaustion re-raises: the trainer
        must see a hard, repeated failure (a job dead-letters it).
        """

        def note(_exc: BaseException, _attempt: int) -> None:
            setattr(self._stats, counter, getattr(self._stats, counter) + 1)

        return call_with_retries(
            fn, self.retry_policy, _RETRYABLE, self._jitter_rng(), note
        )

    # -- pre-materialization ---------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            # Claim-time priority: defer to running demand/prefetch work.
            if not self.foreground_idle():
                if self._stop.wait(timeout=0.002):
                    return
                continue
            try:
                ran = self._run_one_job()
            except InjectedWorkerCrash:
                # This worker dies for real; its claimed job is lost.
                # Peers and the demand path carry the window.
                return
            if not ran and self._stop.wait(timeout=0.01):
                return

    def _run_one_job(self) -> bool:
        job = self.scheduler.next_job(self._current_step())
        if job is None:
            return False
        # Count the job in flight, then claim it so other workers skip
        # it.  This order keeps (pending_count + inflight) > 0 visible to
        # drain() for the whole life of the job.
        with self._inflight_lock:
            self._inflight += 1
            self._job_seq += 1
            job_index = self._job_seq
        try:
            self.scheduler.mark_done(job.video_id)
            if self.fault_schedule is not None and self.fault_schedule.should_crash_job(
                job_index
            ):
                self._stats.worker_crashes += 1
                raise InjectedWorkerCrash(
                    f"injected crash at job #{job_index} ({job.video_id})"
                )
            materializer = self._materializer(job.video_id)
            self._materialize_job(job.video_id, materializer, sorted(job.frontier))
            released = materializer.release_raw_frames()
            self._stats.raw_frame_releases += released
            self._note_memory()
            self._maybe_trim_memory()
            return True
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _materialize_job(
        self, video_id: str, materializer: VideoMaterializer, frontier: List[str]
    ) -> None:
        """Run one job's frontier with bounded retry + dead-lettering.

        Keys a trainer already consumed straight into its batch slot are
        skipped: their one planned use is over.  Materialization is
        idempotent (memoized nodes are free on the second pass), so a
        retry only re-runs what actually failed.  A job that exhausts
        its retries is dead-lettered in the stats and skipped — the
        window stays alive, and the demand path recomputes anything the
        job failed to pre-materialize.
        """

        def run() -> None:
            done = 0
            for node_key in frontier:
                if self._stop.is_set():
                    return
                done += materializer.prematerialize(node_key)
            self._stats.pre_materializations += done
            self._stats.consumed_skipped += len(frontier) - done

        try:
            self._retry(run, "job_retries")
        except _RETRYABLE as exc:
            self._stats.dead_letters.append(
                DeadLetterRecord(
                    video_id=video_id,
                    attempts=self.retry_policy.max_retries + 1,
                    reason=f"{type(exc).__name__}: {exc}",
                )
            )

    # -- shared state ------------------------------------------------------------
    def _materializer(self, video_id: str) -> VideoMaterializer:
        # Entries are only ever added, so a lock-free read is safe; and
        # the encoded bytes (possibly a file read) are fetched before
        # the lock, which therefore never covers more than a dict insert.
        materializer = self._materializers.get(video_id)
        if materializer is not None:
            return materializer
        encoded = self.dataset.get_bytes(video_id)
        with self._mat_lock:
            if video_id not in self._materializers:
                frontier = (
                    self.pruning.frontier_of(video_id)
                    if self.pruning is not None
                    else None
                )
                self._materializers[video_id] = VideoMaterializer(
                    self.plan.graphs[video_id],
                    encoded,
                    cache=self.cache,
                    frontier=frontier,
                    registry=self.registry,
                    anchor_cache=self.anchor_cache,
                    decoder_wrapper=self._decoder_wrapper,
                    reuse_threshold=self.reuse_threshold,
                )
            return self._materializers[video_id]

    @property
    def stats(self) -> EngineStats:
        """This engine's one :class:`EngineStats` (the same object every
        time), with the derived fields folded in as of now."""
        self._fold_stats()
        return self._stats

    def _fold_stats(self) -> None:
        """Roll materializer, store, prefetch and delivery counters up
        into the stats object.  Runs when stats are read and when the
        engine stops — never on the serving path."""
        stats = self._stats
        with self._mat_lock:
            materializers = list(self._materializers.values())
        stats.frames_decoded = sum(m.stats.frames_decoded for m in materializers)
        stats.frames_reused_from_anchor_cache = sum(
            m.stats.frames_reused_from_anchor_cache for m in materializers
        )
        stats.frames_skipped_near_duplicate = sum(
            m.stats.frames_skipped_near_duplicate for m in materializers
        )
        stats.anchor_cache = self.anchor_cache.report()
        stats.fallback_rematerializations = sum(
            m.stats.fallback_rematerializations for m in materializers
        )
        stats.transient_storage_errors = sum(
            m.stats.transient_errors for m in materializers
        )
        stats.corrupt_objects_evicted = sum(
            m.stats.corrupt_evictions for m in materializers
        )
        stats.dead_stores_elided = sum(len(m.consumed) for m in materializers)
        traffic = TrafficLedger()
        traffic.add(self._engine_traffic)
        for m in materializers:
            traffic.add(m.stats.traffic)
        stats.traffic = traffic
        if self.cache is not None:
            store = self.cache.store
            stats.quarantined_keys = list(store.quarantined)
            # Storage-layer retries/dead-letters and tier transitions
            # happen inside the tiered store, below the materializer's
            # counters.  Pull them up here.
            reporter = getattr(store, "storage_failure_report", None)
            if reporter is not None:
                stats.storage = dict(reporter())
        if self._prefetcher is not None:
            stats.prefetch = self._prefetcher.stats.snapshot()
        served = stats.batches_served
        with self._delivery_lock:
            sends = self._delivery_sends
            send_bytes = self._delivery_send_bytes
            direct = self._slot_writes_direct
            fallback = self._slot_writes_copied
        stats.dataplane = {
            "sends": sends,
            "send_bytes": send_bytes,
            "delivery_passes": traffic.delivery_passes,
            "bytes_copied_per_batch": (
                round(traffic.delivery_bytes_copied / served, 2) if served else 0.0
            ),
            "slot_writes_direct": direct,
            "slot_writes_copied": fallback,
            **self.delivery_pool.report(),
        }

    def sanitizer_report(self) -> Optional[SanitizerReport]:
        """Snapshot sanitizer findings now (None when sanitizers are off)."""
        if not sanitizers_enabled():
            return None
        self._stats.sanitizer = collect_report()
        return self._stats.sanitizer

    def _current_step(self) -> int:
        with self._progress_lock:
            return max(self._progress.values(), default=0)

    def memory_bytes(self) -> int:
        with self._mat_lock:
            total = sum(m.stats.bytes_in_memory for m in self._materializers.values())
        if self._prefetcher is not None:
            # Queued speculative batches count against the budget, so the
            # scheduler's pressure probe (and prefetch_allowed) see them.
            total += self._prefetcher.queued_bytes()
        return total

    def _memory_fraction(self) -> float:
        if self.memory_budget_bytes <= 0:
            return 0.0
        return self.memory_bytes() / self.memory_budget_bytes

    def _note_memory(self) -> None:
        current = self.memory_bytes()
        if current > self._stats.peak_memory_bytes:
            self._stats.peak_memory_bytes = current

    def _maybe_trim_memory(self) -> None:
        """Over budget: drop memoized arrays that are safely in the cache."""
        if self._memory_fraction() < 1.0:
            return
        with self._mat_lock:
            materializers = list(self._materializers.values())
        for materializer in materializers:
            if self.cache is None:
                break
            materializer.release_all()
            if self._memory_fraction() < 0.5:
                break

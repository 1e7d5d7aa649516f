"""The SAND service: planning, engine and cache — one shard.

This is the composition root of the system.  Given task configs and one
or more datasets, the service:

1. builds abstract view graphs and groups tasks by shared dataset root
   (S5.2 — only tasks on the same root can merge objects),
2. builds, per group, the k-epoch concrete plan window with coordinated
   randomization (S5.2),
3. prunes it to the storage budget (S5.3, Algorithm 1),
4. runs a preprocessing engine over it (S5.4), rolling each group to its
   next window before the current one expires, and
5. answers its front end through a typed API: batches
   (``get_batch_lease``), decoded and augmented frames
   (``frame_array``/``aug_frame_array``), task lifecycle
   (``start_task``/``end_task``), and the window plans and datasets the
   front end answers metadata from (``window_plan``/``dataset_for``).

The view namespace applications reach through POSIX calls (S5.1, Fig 8,
Tables 1-2) is not here: :class:`~repro.core.sharding.ShardCoordinator`
is the one front end, and a plain service is the front end over one
shard (``SandClient.create`` mounts ``ShardCoordinator([service])``).

``dataset`` may be a single dataset object (used by every task) or a
mapping from ``video_dataset_path`` to dataset, one entry per distinct
root the task configs name.
"""

from __future__ import annotations

import queue
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.locks import make_condition, make_rlock
from repro.augment.registry import OpRegistry
from repro.codec.incremental import AnchorCache
from repro.core.abstract_graph import AbstractViewGraph, group_tasks_by_dataset
from repro.core.cache import CacheManager
from repro.core.concrete_graph import (
    BatchAssembly,
    MaterializationPlan,
    build_plan_window,
)
from repro.core.config import TaskConfig
from repro.core.dataplane import AsyncBatchServer, BatchLease, BufferPool, NotReady
from repro.core.engine import PreprocessingEngine
from repro.core.pruning import PruningOutcome, prune_plan
from repro.core.recovery import (
    RecoveryReport,
    read_checkpoint,
    recover,
    write_checkpoint,
)
from repro.storage.local import LocalStore
from repro.storage.tiering import TieredStore

PlannedWindow = Tuple[MaterializationPlan, PruningOutcome]


class PlanCache:
    """The last few planned windows, each built once (single flight).

    Plans and pruning outcomes are immutable once built, so every engine
    of a window — a service flipping between two adjacent windows, or
    the shards of a fleet sharing one cache — reads the same objects.
    The key names everything the build reads, so two services may share
    a cache exactly when they would plan identically.

    The previous, live and next window of every sharing service's live
    groups are pinned: a build of any other window (a metadata question
    about a far epoch) evicts the oldest unpinned entry instead, or, if
    every other entry is pinned, stays as the one entry over capacity.

    A build started *ahead* of need is the lowest-priority work in the
    process: between two videos it calls :meth:`defer`, which parks it
    while any service sharing the cache has demand or prefetch work
    running — until someone waits for the window, which sets the
    build's ``hurry`` event.  Another ahead caller waiting for the same
    build does not hurry it, unless its own ``hurry`` is set.
    """

    CAPACITY = 3  # previous, current, next (planned ahead)
    PARK_POLL_S = 0.002  # a parked build re-reads the gates this often
    AHEAD_WAIT_POLL_S = 0.05  # an ahead caller waiting for a build re-reads its hurry

    def __init__(self) -> None:
        self._cond = make_condition("service.plan-cache")
        self._windows: Dict[Hashable, PlannedWindow] = {}  # insertion = age order
        # Keys being built, each with its hurry event (None: a demand build).
        self._building: Dict[Hashable, Optional[threading.Event]] = {}
        # The services planning into this cache; replaced, never mutated.
        self._sharers: Tuple["weakref.ref[SandService]", ...] = ()
        self.builds = 0
        self.ahead_builds = 0  # of ``builds``, those plan-ahead ran off the demand path
        self.hits = 0
        self.waits = 0
        self.ahead_build_ms = 0.0  # CPU the ahead builds' threads used
        self.ahead_deferred_ms = 0.0  # ... and how long they sat parked behind trainers
        self.roll_wait_ms = 0.0  # callers waiting for a build in flight

    def share_with(self, service: "SandService") -> None:
        """Ahead builds into this cache defer to ``service``'s trainers too."""
        with self._cond:
            live = tuple(ref for ref in self._sharers if ref() not in (None, service))
            self._sharers = live + (weakref.ref(service),)

    def get(
        self,
        key: Hashable,
        build: Callable[[], PlannedWindow],
        hurry: Optional[threading.Event] = None,
        wait: bool = True,
    ) -> PlannedWindow:
        """The window under ``key``, built at most once.  ``wait=False``
        is a pure lookup: :class:`NotReady` unless it is already here.
        ``hurry`` marks an ahead build: the event its :meth:`defer` calls
        watch, set here by the first caller that waits for the window
        (an ahead caller passes it on only once its own is set)."""
        if not self._cond.acquire(blocking=wait):
            raise NotReady("plan cache is busy")
        try:
            if wait and key in self._building:
                awaited = self._building[key]
                if hurry is None:
                    self.waits += 1
                since = time.perf_counter()  # sandlint: ignore[wall-clock]
                while key in self._building:
                    if awaited is not None and (hurry is None or hurry.is_set()):
                        awaited.set()  # someone is behind this build now: no more deferring
                    self._cond.wait(None if hurry is None else self.AHEAD_WAIT_POLL_S)
                waited = time.perf_counter() - since  # sandlint: ignore[wall-clock]
                if hurry is None:
                    self.roll_wait_ms += waited * 1e3
            if key in self._windows:
                self.hits += 1
                return self._windows[key]
            if not wait:
                raise NotReady("window is not planned yet")
            self._building[key] = hurry
        finally:
            self._cond.release()
        cpu = time.thread_time()
        try:
            window = build()
            with self._cond:
                self.builds += 1
                if hurry is not None:
                    self.ahead_builds += 1
                    self.ahead_build_ms += (time.thread_time() - cpu) * 1e3
                self._windows[key] = window
                if len(self._windows) > self.CAPACITY:
                    pinned = self._pinned() | {key}
                    for old in [k for k in self._windows if k not in pinned]:
                        if len(self._windows) <= self.CAPACITY:
                            break
                        del self._windows[old]
        finally:
            with self._cond:
                del self._building[key]
                self._cond.notify_all()
        return window

    def defer(self, hurry: threading.Event) -> None:
        """Between two videos of an ahead build: let the trainers go first.

        Gives the GIL up, so a trainer waking from its step waits for one
        video's build rather than a switch interval; then parks for as
        long as demand or prefetch work runs on any sharing service and
        nobody has set ``hurry``.
        """
        if hurry.is_set():
            return
        time.sleep(0)
        if not self.trainers_busy():
            return
        since = time.perf_counter()  # sandlint: ignore[wall-clock]
        while not hurry.wait(self.PARK_POLL_S) and self.trainers_busy():
            pass
        parked = time.perf_counter() - since  # sandlint: ignore[wall-clock]
        with self._cond:
            self.ahead_deferred_ms += parked * 1e3

    def trainers_busy(self) -> bool:
        """Has a live engine of any sharing service demand or prefetch
        work running?  What every ahead build and warm engine waits out."""
        for ref in self._sharers:
            service = ref()
            if service is not None and service.trainers_busy():
                return True
        return False

    def _pinned(self) -> Set[Hashable]:
        keys: Set[Hashable] = set()
        for ref in self._sharers:
            service = ref()
            if service is not None:
                keys |= service.pinned_plan_keys()
        return keys

    def report(self) -> Dict[str, float]:
        with self._cond:
            return {
                "builds": self.builds,
                "ahead_builds": self.ahead_builds,
                "hits": self.hits,
                "waits": self.waits,
                "windows": len(self._windows),
                "ahead_build_ms": round(self.ahead_build_ms, 3),
                "ahead_deferred_ms": round(self.ahead_deferred_ms, 3),
                "roll_wait_ms": round(self.roll_wait_ms, 3),
            }


@dataclass(frozen=True)
class _Window:
    """One planned window and the engine that runs it (and, when it was
    warmed ahead, its :meth:`CacheManager.use_steps`)."""

    start: int
    plan: MaterializationPlan
    pruning: PruningOutcome
    engine: PreprocessingEngine
    use_steps: Optional[Dict[str, List[int]]] = None


class _Group:
    """One dataset root: its tasks and window state."""

    def __init__(self, path: str, tasks: List[TaskConfig], dataset):
        self.path = path
        self.tasks = tasks
        self.dataset = dataset
        self.live: Optional[_Window] = None
        # The window before the live one, kept for stragglers, and the
        # tasks that have asked for the live window since it went live.
        self.previous: Optional[_Window] = None
        self.arrived: Set[str] = set()
        # Rolling ahead: the start of the next window, the thread that
        # plans it and warms its engine (started once, ended and joined
        # by settle) and its job queue, the event that stops the current
        # job deferring to the trainers, the event the job sets when it
        # is done, and the warm window it left (None until then, or if
        # the build failed).
        self.ahead_start: Optional[int] = None
        self.planner: Optional[threading.Thread] = None
        self.jobs: "queue.SimpleQueue[Optional[Tuple[Any, ...]]]" = queue.SimpleQueue()
        self.hurry = threading.Event()
        self.warmed = threading.Event()
        self.warm: Optional[_Window] = None

    @property
    def engine(self) -> Optional[PreprocessingEngine]:
        return None if self.live is None else self.live.engine

    @property
    def window_start(self) -> Optional[int]:
        return None if self.live is None else self.live.start

    def settle(self) -> None:
        """End and join the planner and retire every engine but the live
        one.  The planner stops deferring first: whoever joins it may hold
        what the trainers it defers to are waiting for."""
        if self.planner is not None:
            self.hurry.set()
            self.jobs.put(None)
            self.planner.join()
            self.planner = None
        for window in (self.warm, self.previous):
            if window is not None:
                window.engine.retire()
        self.warm = self.previous = None
        self.ahead_start = None


class SandService:
    """One SAND shard: windows, plan-ahead, engines, ownership scope and
    checkpoints, behind a typed API.  Its POSIX front end is a
    :class:`~repro.core.sharding.ShardCoordinator` over it."""

    def __init__(
        self,
        tasks: Sequence[TaskConfig],
        dataset,
        storage_budget_bytes: int = 64 * 1024 * 1024,
        k_epochs: int = 2,
        num_workers: int = 2,
        seed: int = 0,
        coordinated: bool = True,
        registry: Optional[OpRegistry] = None,
        store: Optional[LocalStore] = None,
        remote_store=None,
        memory_budget_bytes: int = 512 * 1024 * 1024,
        fault_schedule=None,
        retry_policy=None,
        prefetch_depth: int = 2,
    ):
        if not tasks:
            raise ValueError("need at least one task config")
        self.tasks: Dict[str, TaskConfig] = {t.tag: t for t in tasks}
        self.k_epochs = k_epochs
        self.seed = seed
        self.coordinated = coordinated
        self.registry = registry
        self.num_workers = num_workers
        self.memory_budget_bytes = memory_budget_bytes
        # Fault-injection harness hooks (repro.faults): the schedule
        # drives injected failures inside every engine this service
        # builds; the retry policy bounds how the engines fight back.
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy
        # Demand-path pipelining: each engine speculatively assembles the
        # next K batches per task on background threads (0 disables).
        self.prefetch_depth = prefetch_depth

        self.abstract_graphs: Dict[str, AbstractViewGraph] = {
            t.tag: AbstractViewGraph.from_config(t) for t in tasks
        }
        self.dataset_groups = group_tasks_by_dataset(
            list(self.abstract_graphs.values())
        )

        self._groups: Dict[str, _Group] = {}
        self._task_group: Dict[str, str] = {}
        for path, graphs in self.dataset_groups:
            group_tasks = [self.tasks[g.task] for g in graphs]
            group_dataset = self._resolve_dataset(dataset, path)
            self._groups[path] = _Group(path, group_tasks, group_dataset)
            for config in group_tasks:
                self._task_group[config.tag] = path

        # Note: `store or ...` would be wrong — an empty ObjectStore has
        # len() == 0 and is falsy.
        base_store = store if store is not None else LocalStore(storage_budget_bytes)
        if remote_store is not None:
            # Tiered deployment: the remote tier replicates hot objects
            # (k=2) and absorbs demoted warm/cold spillover,
            # so byte pressure demotes instead of deleting and blob loss
            # recovers by copy instead of recompute.
            self.store = TieredStore(
                base_store, remote_store, fault_schedule=fault_schedule
            )
        else:
            self.store = base_store
        self.cache = CacheManager(self.store)
        # One anchor cache for the service's lifetime: rolling to a new
        # plan window rebuilds the engine, but decoded anchor state keeps
        # paying off across windows (videos recur every epoch); a
        # coordinator points its shards at one shared instance.
        self._anchor_cache = AnchorCache()

        self._window_lock = make_rlock("service.window")
        # Planned windows, re-used when the service flips back to a
        # window it just left; a coordinator points its shards at one
        # shared instance so a window is planned once per fleet.
        self.plan_cache = PlanCache()
        # Which batches' background work is this service's (set_scope).
        self._owns: Optional[Callable[[BatchAssembly], bool]] = None
        self._active_tasks: Set[str] = set()
        # One delivery pool for the service's lifetime: window rolls
        # rebuild engines, but delivery buffers (shape-stable across
        # windows) keep recycling, and the async server's leases stay
        # valid across a roll.
        self.delivery_pool = BufferPool(name="service-delivery")
        # Async servers created via serve_async, so status() can fold
        # their wire counters into the one operator report.
        self._servers: List[AsyncBatchServer] = []

    @staticmethod
    def _resolve_dataset(dataset, path: str):
        if isinstance(dataset, Mapping):
            if path not in dataset:
                raise KeyError(
                    f"no dataset provided for video_dataset_path {path!r}; "
                    f"known: {sorted(dataset)}"
                )
            return dataset[path]
        return dataset

    # -- group plumbing -------------------------------------------------------
    def _group(self, task: str) -> _Group:
        if task not in self._task_group:
            raise KeyError(f"unknown task {task!r}")
        return self._groups[self._task_group[task]]

    def _single_group(self) -> _Group:
        (group,) = self._groups.values()
        return group

    @property
    def dataset(self):
        """The dataset (single-group services; ambiguous otherwise)."""
        return self._single_group().dataset

    def dataset_for(self, task: str) -> Any:
        """The dataset ``task`` reads."""
        return self._group(task).dataset

    # Backward-compatible single-group accessors (most deployments have
    # every task on one dataset, like the paper's scenarios).
    @property
    def plan(self) -> Optional[MaterializationPlan]:
        live = self._single_group().live
        return None if live is None else live.plan

    @property
    def pruning(self) -> Optional[PruningOutcome]:
        live = self._single_group().live
        return None if live is None else live.pruning

    @property
    def engine(self) -> Optional[PreprocessingEngine]:
        return self._single_group().engine

    @property
    def plan_cache(self) -> PlanCache:
        return self._plan_cache

    @plan_cache.setter
    def plan_cache(self, cache: PlanCache) -> None:
        self._plan_cache = cache
        cache.share_with(self)  # whoever plans ahead into it defers to our trainers too

    @property
    def anchor_cache(self) -> AnchorCache:
        return self._anchor_cache

    @anchor_cache.setter
    def anchor_cache(self, cache: AnchorCache) -> None:
        """Decode through ``cache`` from now on.  Like :meth:`set_scope`,
        the live, warm and straggler engines are re-pointed in place (their
        materializers and open decoders too) and later windows start on it."""
        with self._window_lock:
            if cache is self._anchor_cache:
                return
            self._anchor_cache = cache
            for group in self._groups.values():
                for window in (group.live, group.warm, group.previous):
                    if window is not None:
                        window.engine.use_anchor_cache(cache)

    def trainers_busy(self) -> bool:
        """Is demand or prefetch work running on a live engine?  Takes no
        service lock (a roll holds the window lock while it waits for a
        build): a stale answer costs the asking builder one poll."""
        for group in self._groups.values():
            engine = group.engine
            if engine is not None and not engine.foreground_idle():
                return True
        return False

    def pinned_plan_keys(self) -> Set[Hashable]:
        """The plan-cache keys of each live group's previous, live and next
        window: what a straggler, a restart or a roll may still ask for.
        Takes no lock, like :meth:`trainers_busy`."""
        keys: Set[Hashable] = set()
        for group in self._groups.values():
            live = group.live
            if live is not None:
                for start in (live.start - self.k_epochs, live.start, live.start + self.k_epochs):
                    if start >= 0:
                        keys.add(self._plan_key(group, start))
        return keys

    # -- window management ----------------------------------------------------
    def ensure_window(
        self, epoch: int, task: Optional[str] = None, wait: bool = True
    ) -> PreprocessingEngine:
        """The engine serving the k-epoch window containing ``epoch``.

        That is the live window's engine, or the previous window's for a
        task still finishing it (a straggler).  The next window's engine,
        warmed ahead (:meth:`_roll_ahead`), goes live by pointer; any
        other window is planned, pruned and started on this thread.
        With multiple dataset groups, ``task`` selects which group;
        single-group services may omit it.  ``wait=False`` only answers
        when there is nothing to do — the window is live or the
        straggler's, its engine running, no roll-ahead to start — and
        raises :class:`NotReady` when anything would happen or the window
        lock is held (a roll in progress).
        """
        group = self._group(task) if task is not None else self._single_group()
        start = (epoch // self.k_epochs) * self.k_epochs
        if not self._window_lock.acquire(blocking=wait):
            raise NotReady("a window roll is in progress")
        try:
            live = group.live
            if live is None or live.start != start:
                previous = group.previous
                if previous is not None and previous.start == start:
                    return previous.engine
                if not wait:
                    raise NotReady(f"epoch {epoch} is outside the live window")
                live = self._roll(group, start)
            else:
                following = start + self.k_epochs
                kick = epoch == following - 1 and group.ahead_start != following
                if kick or not live.engine.running:
                    if not wait:
                        raise NotReady("the live window has work to start")
                    live.engine.start()  # no-op if already running
                    if kick:
                        self._roll_ahead(group)
            if task is not None and task not in group.arrived:
                group.arrived.add(task)
                if group.previous is not None and len(group.arrived) == len(group.tasks):
                    # Nobody is left in the window before: free it now;
                    # its workers are joined off this thread, later.
                    group.previous.engine.retire(join=False)
            return live.engine
        finally:
            self._window_lock.release()

    def _roll(self, group: _Group, start: int) -> _Window:
        """Make the window at ``start`` live: the warm one by pointer, or
        — the first window, a jump, a failed plan-ahead — one planned,
        pruned and started here."""
        if start == group.ahead_start:
            planned, _ = self._planned(group, start)  # a hit, or wait for (and hurry) the build
            group.hurry.set()  # ... and for the engine the planner warms next
            group.warmed.wait()
            warm = group.warm
            if warm is not None and warm.plan is planned:
                self._go_live(group, warm)
                self._roll_ahead(group)
                return warm
        plan, pruning = self._planned(group, start)
        group.settle()
        engine = self._engine(group, plan, pruning)
        return self._go_live(group, _Window(start, plan, pruning, engine))

    def _go_live(self, group: _Group, window: _Window) -> _Window:
        """Swap ``window`` in.  The live window before it becomes the
        straggler window: its background work is told to end (nothing is
        joined here) and it serves the tasks still finishing it; any
        other live window is retired."""
        old = group.live
        if old is not None and old.start + self.k_epochs == window.start:
            old.engine.stop(join=False)
            group.previous = old
        elif old is not None:
            old.engine.retire()
        self.cache.register_plan(window.plan, window.pruning, window.use_steps)
        window.engine.start()
        group.live, group.warm = window, None
        group.arrived = set()
        return window

    def _roll_ahead(self, group: _Group) -> None:
        """Plan the next window and warm its engine on a planner thread,
        in the trainers' idle time.

        Started by the swap that makes a warm window live; a window that
        went live cold (the first, a jump) starts it with the first
        request for its last epoch, as plan-ahead always did (in a fleet
        the shards' first windows go live before they share one cache,
        and a live window that is never read to its end plans nothing
        ahead).  A plan is a pure function of (seed, window, tasks): the
        build goes through the single-flight cache (in a fleet, one
        shard builds and the others' planners wait for it) and defers to
        every trainer of every service sharing the cache
        (:meth:`PlanCache.defer`) until a roll waits for it.  The warm
        engine is scoped like a live one and runs only its prefetcher,
        which claims only while those trainers are idle; the roll starts
        the rest.  Then the straggler window is retired here, off the
        trainers' threads.  A build that raises caches nothing and warms
        nothing; the roll then rebuilds on the trainer's thread and
        raises there.
        """
        assert group.live is not None
        group.ahead_start = group.live.start + self.k_epochs
        group.hurry = threading.Event()
        group.warmed = threading.Event()
        group.jobs.put((group.ahead_start, group.hurry, group.warmed, group.previous))
        if group.planner is None:
            group.planner = threading.Thread(
                target=self._planner, args=(group,), name="sand-plan-ahead", daemon=True
            )
            group.planner.start()

    def _planner(self, group: _Group) -> None:
        """The planner thread: one roll-ahead at a time, until ``settle``.
        A job that raises is reported as an uncaught thread exception
        would be, and the thread carries on."""
        while True:
            job = group.jobs.get()
            if job is None:
                return
            try:
                self._warm(group, *job)
            except Exception:
                exc_type, exc, trace = sys.exc_info()
                threading.excepthook(
                    threading.ExceptHookArgs((exc_type, exc, trace, threading.current_thread()))
                )

    def _warm(
        self,
        group: _Group,
        start: int,
        hurry: threading.Event,
        warmed: threading.Event,
        straggler: Optional[_Window],
    ) -> None:
        """One roll-ahead (see :meth:`_roll_ahead`)."""
        try:
            plan, pruning = self._planned(group, start, hurry)
            self.plan_cache.defer(hurry)  # building the engine is ahead work too
            engine = self._engine(group, plan, pruning)
            engine.warm(self.plan_cache.trainers_busy)
            group.warm = _Window(start, plan, pruning, engine, self.cache.use_steps(plan, pruning))
            # The setter re-points group.warm under the window lock, which
            # a roll holds while it waits for us: if it ran between
            # _engine and the line above, catch up here.
            if engine.anchor_cache is not self.anchor_cache:
                engine.use_anchor_cache(self.anchor_cache)
        finally:
            warmed.set()
            if straggler is not None:
                straggler.engine.retire()

    def window_plan(
        self, epoch: int, task: Optional[str] = None, wait: bool = True
    ) -> MaterializationPlan:
        """The plan of the window containing ``epoch`` — metadata only:
        no window is rolled and no engine touched.  ``wait=False`` never
        builds one: :class:`NotReady` unless it is cached."""
        group = self._group(task) if task is not None else self._single_group()
        start = (epoch // self.k_epochs) * self.k_epochs
        return self._planned(group, start, wait=wait)[0]

    def _planned(
        self,
        group: _Group,
        epoch_start: int,
        hurry: Optional[threading.Event] = None,
        wait: bool = True,
    ) -> PlannedWindow:
        """The planned window starting at ``epoch_start``; ``hurry`` makes
        it an ahead build, deferring between videos until the event is set."""
        budget = self.store.capacity_bytes
        cache = self.plan_cache

        def build() -> PlannedWindow:
            plan = build_plan_window(
                group.tasks,
                group.dataset,
                epoch_start,
                self.k_epochs,
                seed=self.seed,
                coordinated=self.coordinated,
                between_videos=None if hurry is None else partial(cache.defer, hurry),
            )
            return plan, prune_plan(plan, budget)

        return cache.get(self._plan_key(group, epoch_start), build, hurry, wait)

    def _plan_key(self, group: _Group, epoch_start: int) -> Hashable:
        """Everything the build of a window reads."""
        return (
            group.path,
            tuple(config.tag for config in group.tasks),
            epoch_start,
            self.k_epochs,
            self.seed,
            self.coordinated,
            self.store.capacity_bytes,  # the pruning budget
            len(group.dataset.video_ids),  # a streaming corpus grows per window
        )

    def set_scope(self, owns: Optional[Callable[[BatchAssembly], bool]]) -> None:
        """Confine background work to the batches ``owns`` accepts.

        Live and warm engines are re-scoped in place and later windows
        start scoped; ``None`` lifts the scope.  Serving is never scoped.
        """
        with self._window_lock:
            self._owns = owns
            for group in self._groups.values():
                for window in (group.live, group.warm):
                    if window is not None:
                        window.engine.rescope(owns)

    def scope_report(self) -> Dict[str, int]:
        """This service's share of its live windows' background work."""
        total = {"owned_batches": 0, "jobs_scoped_out": 0}
        for group in self._groups.values():
            engine = group.engine
            if engine is not None:
                for name, value in engine.scope_report().items():
                    total[name] += value
        return total

    def _engine(
        self, group: _Group, plan: MaterializationPlan, pruning: PruningOutcome
    ) -> PreprocessingEngine:
        """A scoped, not yet started engine for ``plan``."""
        engine = PreprocessingEngine(
            plan,
            group.dataset,
            pruning=pruning,
            cache=self.cache,
            num_workers=self.num_workers,
            memory_budget_bytes=self.memory_budget_bytes,
            registry=self.registry,
            anchor_cache=self.anchor_cache,
            fault_schedule=self.fault_schedule,
            retry_policy=self.retry_policy,
            seed=self.seed,
            prefetch_depth=self.prefetch_depth,
            delivery_pool=self.delivery_pool,
        )
        if self._owns is not None:
            engine.rescope(self._owns)
        return engine

    def shutdown(self) -> None:
        with self._window_lock:
            for group in self._groups.values():
                group.settle()
                if group.engine is not None:
                    group.engine.retire()
            # Lease-leak check over the shared delivery pool: with every
            # engine retired (warm and straggler ones too), no
            # speculative batch is queued, so nothing should hold a lease
            # (served batches were detached or released).  note_leaks
            # no-ops when sanitizers are off.
            self.delivery_pool.note_leaks()
            # Flush write-behind storage and release pack mappings.
            self.cache.close()
            # Decoded anchors are the service's largest allocation (in a
            # fleet, the shards' one shared cache).  A service that served
            # over a socket lives on until the cycle collector reaches its
            # batch server, so drop them now.
            self.anchor_cache.clear()

    # -- operations ------------------------------------------------------------
    def status(self) -> Dict:
        """Operator-facing snapshot: windows, storage health, failures.

        The storage block surfaces per-tier bytes, pack segment
        live/dead ratios, replication counters, and under-replicated
        key counts when the store is tiered (plain stores report their
        single-tier health).  JSON-serializable throughout.
        """
        with self._window_lock:
            storage: Dict = self.store.health()
            engines: Dict[str, Dict] = {}
            for path, group in self._groups.items():
                if group.engine is None:
                    continue
                stats = group.engine.stats
                engines[path] = {
                    "window_start": group.window_start,
                    "batches_served": stats.batches_served,
                    "demand_materializations": stats.demand_materializations,
                    "pre_materializations": stats.pre_materializations,
                    "dead_stores_elided": stats.dead_stores_elided,
                    "consumed_skipped": stats.consumed_skipped,
                    "job_retries": stats.job_retries,
                    "dead_letters": len(stats.dead_letters),
                    "fallback_rematerializations": stats.fallback_rematerializations,
                    "storage_failures": dict(stats.storage),
                    "dataplane": dict(stats.dataplane),
                    **group.engine.scope_report(),
                }
            # One endpoint for operators and the load generator: the
            # delivery-path block (pool health, per-engine wire ledger,
            # attached async servers) rides along with window/storage
            # state instead of needing a second scrape.
            dataplane = self.dataplane_report()
            dataplane["servers"] = [server.report() for server in self._servers]
            return {
                "tasks": sorted(self.tasks),
                "active_tasks": sorted(self._active_tasks),
                "cache": {
                    "evictions": self.cache.evictions,
                    "demotions": self.cache.demotions,
                },
                "storage": storage,
                "plan_cache": self.plan_cache.report(),
                "engines": engines,
                "dataplane": dataplane,
            }

    # -- fault tolerance (S5.5) -------------------------------------------------
    def checkpoint(self, directory) -> Path:
        """Persist the current window's manifest for crash recovery."""
        with self._window_lock:
            live = self._single_group().live
            if live is None:
                raise RuntimeError("no active window to checkpoint")
            return write_checkpoint(
                Path(directory),
                live.plan,
                live.pruning,
                self.seed,
                consumed=live.engine.consumed_keys(),
            )

    def recover_from(self, directory) -> RecoveryReport:
        """Three-step restart: replan, rescan the store, diff (S5.5).

        The window named in the manifest is rebuilt (plan construction is
        deterministic), the persistent store is rescanned, and the
        returned report lists exactly the objects that must be
        rematerialized — the engine then does so lazily on demand or
        eagerly via its pre-materialization workers.
        """
        manifest = read_checkpoint(Path(directory))
        report = recover(manifest, self.store)
        self.ensure_window(manifest["window_start"])
        return report

    # -- typed access (used by the front end and directly by trainers) -------------
    def batch(self, task: str, epoch: int, iteration: int) -> Tuple[np.ndarray, Dict]:
        engine = self.ensure_window(epoch, task=task)
        return engine.get_batch(task, epoch, iteration)

    # BatchSource protocol alias (trainers consume any batch source).
    get_batch = batch

    def get_batch_lease(
        self, task: str, epoch: int, iteration: int, wait: bool = True
    ) -> Tuple[BatchLease, Dict]:
        """``batch`` lending the pooled delivery buffer (zero-copy path).

        The in-process trainer API, and what
        :class:`~repro.core.dataplane.AsyncBatchServer` serves from; the
        caller releases the lease once the batch is consumed.
        ``wait=False`` (the server's first, on-loop attempt) raises
        :class:`NotReady` instead of rolling a window, waiting for a
        lock or assembling anything; see the engine's method.
        """
        engine = self.ensure_window(epoch, task=task, wait=wait)
        return engine.get_batch_lease(task, epoch, iteration, wait=wait)

    def dataplane_report(self) -> Dict:
        """Per-group delivery-path stats plus the shared pool's health."""
        with self._window_lock:
            report: Dict = {"pool": self.delivery_pool.report(), "engines": {}}
            for path, group in self._groups.items():
                if group.engine is not None:
                    report["engines"][path] = group.engine.dataplane_report()
            return report

    def serve_async(
        self,
        unix_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs,
    ) -> AsyncBatchServer:
        """An :class:`AsyncBatchServer` bound to this service.

        The caller owns the server lifecycle: ``await server.start()``
        on a running loop, or ``server.start_background()`` /
        ``server.shutdown()`` from synchronous code (``python -m repro
        --serve`` does the latter).
        """
        server = AsyncBatchServer(
            self, unix_path=unix_path, host=host, port=port, **kwargs
        )
        with self._window_lock:
            self._servers.append(server)
        return server

    def iterations_per_epoch(self, task: str, epoch: int = 0) -> int:
        """Iterations of ``epoch`` (streaming corpora can grow per window),
        from the window's plan: no window is rolled and no engine touched."""
        return self.window_plan(epoch, task).iterations_per_epoch[task]

    def frame_array(self, task: str, video: str, index: int) -> np.ndarray:
        group = self._group(task)
        engine = self.ensure_window(group.window_start or 0, task=task)
        graph = engine.plan.graphs.get(video)
        key = f"frame:{video}:{index}"
        if graph is None or key not in graph.nodes:
            raise KeyError(f"frame {index} of {video!r} is not in the current plan")
        return engine._materializer(video).get(key)

    def aug_frame_array(self, task: str, video: str, index: int, depth: int) -> np.ndarray:
        """Best-effort: the depth-``d`` augmented view of a planned frame."""
        group = self._group(task)
        engine = self.ensure_window(group.window_start or 0, task=task)
        graph = engine.plan.graphs.get(video)
        if graph is None:
            raise KeyError(f"video {video!r} is not in the current plan")
        # Chain depth of an aug node = number of aug ancestors + itself.
        candidates = []
        for node in graph.nodes.values():
            if node.kind != "aug":
                continue
            if not node.key.startswith(f"aug:{video}:{index}:"):
                continue
            d, cursor = 0, node
            while cursor.kind == "aug":
                d += 1
                cursor = graph.nodes[cursor.parents[0]]
            if d == depth:
                candidates.append(node.key)
        if not candidates:
            raise KeyError(
                f"no depth-{depth} augmented view of frame {index} of {video!r}"
            )
        return engine._materializer(video).get(sorted(candidates)[0])

    # -- task lifecycle --------------------------------------------------------------
    def start_task(self, task: str) -> None:
        if task not in self.tasks:
            raise KeyError(f"unknown task {task!r}")
        self._active_tasks.add(task)
        self.ensure_window(0, task=task)

    def end_task(self, task: str) -> None:
        self._active_tasks.discard(task)
        if not self._active_tasks:
            with self._window_lock:
                for group in self._groups.values():
                    group.settle()
                    if group.engine is not None:
                        group.engine.stop()

    @property
    def active_tasks(self) -> Set[str]:
        return set(self._active_tasks)

"""SAND's one front end: N shards behind a consistent-hash ring, with
tenant-fair admission and the POSIX view namespace.

N engine shards behind one coordinator.  Each shard is a
full :class:`~repro.core.service.SandService` built from the same task
configs, dataset, and seed, so planning is deterministic and *any* shard
can serve *any* batch byte-identically — correctness never depends on
placement, only load distribution and cache locality do.  That property
buys three things cheaply:

* **Routing** is a pure function of the plan and the ring: a batch's
  ring key is a digest of its assembly *sample signature* (the
  ``(video_id, leaf_key)`` sequence, :func:`content_key`), and a stable
  consistent-hash ring (:class:`HashRing`, virtual nodes, minimal
  movement on add/remove) places that key on an owner shard, where the
  coordinator serves the batch.
* **Cross-shard dedup** follows by construction: identical views
  requested by different tasks or tenants have one signature, hence one
  owner, and hit its already materialized objects.
* **Ownership-scoped background work**: because ownership is
  computable up front, each shard pre-materializes and prefetches only
  the batches it owns (:meth:`SandService.set_scope`), and the fleet
  plans each window once (one shared
  :class:`~repro.core.service.PlanCache`) and decodes each anchor once
  (one shared :class:`~repro.codec.incremental.AnchorCache`, under one
  budget).  Serving is never scoped.
* **Failover** is re-routing: when a shard is unreachable (the
  ``shard-down`` fault window, keyed by shard id), the coordinator walks
  the key's ring preference order to the next live shard, which serves
  the identical bytes from the same plan on its demand path.

Multi-tenancy rides on :mod:`repro.core.tenancy`: every request passes
the tenant-fair :class:`~repro.core.tenancy.AdmissionController` (quota
ceilings + weighted-deficit ordering), and the admission ticket is held
for the whole delivery: the coordinator hangs ``ticket.release`` on the
shard's :class:`~repro.core.dataplane.BatchLease` (``on_release``), so
the tenant's slot frees exactly when the delivery buffer does.

The coordinator is a lease-aware batch source (``AsyncBatchServer``
serves it over the wire unchanged; GET_BATCH may carry a ``tenant``) and
the only :class:`~repro.vfs.provider.FileSystemProvider` of the system;
a plain service is the front end over one shard (``mount_sand``).
Views served (S5.1, Tables 1-2):

* ``/{task}/{epoch}/{iteration}/view`` — a training batch (array blob),
  read through :meth:`ShardCoordinator.get_batch_lease` like a wire
  read (default tenant, ring, failover, booked as served); xattrs
  ``shape``, ``dtype``, ``videos``, ``labels``, ``timestamps``,
  ``frame_indices`` come from the fleet's plan,
* ``/{task}/{video}.mp4`` — the encoded source video, from the dataset,
* ``/{task}/{video}/frame{i}`` — a decoded frame, and
  ``/{task}/{video}/frame{i}/aug{d}`` — an augmented frame at depth d,
  both from one shard and not booked as served batches,
* ``/{task}/ctrl`` — the task-lifecycle control file: opening it starts
  the task on every shard, closing it ends it there (the paper's
  remaining "4 lines ... communicate the start and end of tasks").

``lookup``, ``listdir`` and every xattr except the ``shape``/``dtype``
of a leaf whose spec is not static read only the fleet's plan, the
task's dataset and the op registry: they roll no window, start no
engine and are not booked as routed or served.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.analysis.locks import make_lock
from repro.augment.registry import default_registry
from repro.codec.incremental import AnchorCache
from repro.core.concrete_graph import BatchAssembly, MaterializationPlan
from repro.core.dataplane import AsyncBatchServer, BatchLease, NotReady
from repro.core.engine import batch_metadata
from repro.core.materializer import leaf_spec
from repro.core.service import SandService
from repro.core.tenancy import DEFAULT_TENANT, AdmissionController, AdmissionTicket
from repro.core.views import BatchView, FrameView, VideoView, View, try_parse_view_path
from repro.faults.schedule import (
    SITE_COORD_PLACE,
    SITE_COORD_REBALANCE,
    SITE_SHARD_ROUTE,
    SITE_SHARD_SERVE,
    FaultSchedule,
)
from repro.storage.blobs import encode_array
from repro.storage.objectstore import TransientStorageError
from repro.vfs.errors import FileNotFoundVfsError, NoAttributeError, NotADirectoryVfsError
from repro.vfs.provider import FileHandle, FileSystemProvider, NodeInfo

CTRL_NAME = "ctrl"


class ShardingError(RuntimeError):
    """Coordinator misuse (unknown shard, empty ring)."""


class AllShardsDownError(TransientStorageError):
    """Every shard in the key's preference order failed; retryable."""


# -- the ring -----------------------------------------------------------------


def _ring_point(token: str) -> int:
    """A stable 64-bit point on the ring for ``token``."""
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Each shard contributes ``replicas`` points (``sha256(shard|i)``);
    a key is owned by the first point clockwise from ``sha256(key)``.
    Adding or removing one shard moves only the keys in that shard's
    arcs (~1/N of the space), never reshuffles the rest — the property
    the coordinator's :class:`RebalanceReport` reports on explicitly.

    Membership changes replace the point list instead of mutating it,
    so lookups (the shards' ownership predicates) need no lock.
    """

    def __init__(self, shard_ids: Sequence[str] = (), replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._points: List[Tuple[int, str]] = []
        self._shards: List[str] = []
        for shard_id in shard_ids:
            self.add(shard_id)

    def add(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ShardingError(f"shard {shard_id!r} already on the ring")
        self._shards = self._shards + [shard_id]
        self._points = sorted(
            self._points
            + [(_ring_point(f"{shard_id}|{i}"), shard_id) for i in range(self.replicas)]
        )

    def remove(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise ShardingError(f"shard {shard_id!r} not on the ring")
        self._shards = [s for s in self._shards if s != shard_id]
        self._points = [(p, s) for (p, s) in self._points if s != shard_id]

    def shards(self) -> List[str]:
        return sorted(self._shards)

    def owner(self, key: str) -> str:
        """The shard owning ``key``."""
        order = self.preference(key, k=1)
        return order[0]

    def preference(self, key: str, k: Optional[int] = None) -> List[str]:
        """Distinct shards in ring order from ``key``'s point.

        Index 0 is the owner; the rest is the failover order.
        """
        points, shards = self._points, self._shards
        if not points:
            raise ShardingError("ring is empty")
        want = len(shards) if k is None else min(k, len(shards))
        start = bisect.bisect(points, (_ring_point(key), ""))
        order: List[str] = []
        n = len(points)
        for step in range(n):
            _point, shard_id = points[(start + step) % n]
            if shard_id not in order:
                order.append(shard_id)
                if len(order) == want:
                    break
        return order


@dataclass
class RebalanceReport:
    """What one ring change moved."""

    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    tracked_keys: int = 0
    moved_keys: int = 0
    moves: Dict[str, Tuple[str, str]] = field(default_factory=dict)  # key -> (old, new)

    @property
    def moved_fraction(self) -> float:
        return self.moved_keys / self.tracked_keys if self.tracked_keys else 0.0


# -- the coordinator ----------------------------------------------------------

Signature = Sequence[Tuple[str, str]]
BatchId = Tuple[str, int, int]
T = TypeVar("T")


def content_key(samples: Signature) -> str:
    """A batch's ring key: a digest of its sample signature.

    Two batches collating the same ``(video_id, leaf_key)`` sequence are
    the same view, whatever task, tenant, epoch or iteration asked.
    """
    return hashlib.sha256(repr(list(samples)).encode()).hexdigest()[:32]


class ShardCoordinator(FileSystemProvider):
    """The front end: routes batches across N deterministic shards and
    answers the view namespace.

    ``shards`` is a mapping of shard id to :class:`SandService` (or a
    sequence, auto-named ``shard-0..N-1``).  All shards must be built
    from the same configs/dataset/seed; the coordinator never checks
    this (planning determinism is the system's core invariant, tested
    by the differential suites), it only routes — and, relying on it,
    makes the shards share one plan cache and one anchor cache and
    scopes each shard's background work to the batches the ring hands
    it.
    """

    def __init__(
        self,
        shards: Union[Mapping[str, SandService], Sequence[SandService]],
        admission: Optional[AdmissionController] = None,
        fault_schedule: Optional[FaultSchedule] = None,
    ):
        if isinstance(shards, Mapping):
            shard_map = dict(shards)
        else:
            shard_map = {f"shard-{i}": shard for i, shard in enumerate(shards)}
        if not shard_map:
            raise ShardingError("need at least one shard")
        self._shards: Dict[str, SandService] = shard_map
        self.ring = HashRing(list(shard_map))
        self.admission = admission or AdmissionController()
        self.fault_schedule = fault_schedule
        self._lock = make_lock("sharding.coordinator")
        # content key -> the first batch id seen with it: the views the
        # dedup counters and rebalance reports track.
        self._seen: Dict[str, BatchId] = {}
        self._routed: Dict[str, int] = {s: 0 for s in shard_map}
        self._served: Dict[str, int] = {s: 0 for s in shard_map}
        self._failovers = 0
        self._dedup_hits = 0
        self._dedup_misses = 0
        self._batch_bytes: Dict[str, int] = {}  # task -> last seen batch bytes
        # The fleet plans each window once: the first shard's cache
        # (which already holds whatever it planned) becomes everyone's.
        self.plan_cache = next(iter(shard_map.values())).plan_cache
        # ... and decodes each video's anchors once, under one budget:
        # the ring sends clips of one video to several shards, and
        # decoded bytes are a pure function of the container.
        self.anchor_cache = next(iter(shard_map.values())).anchor_cache
        for shard_id, shard in shard_map.items():
            self._adopt(shard_id, shard)

    # -- shard membership ----------------------------------------------------
    def shard_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._shards)

    def shard(self, shard_id: str) -> SandService:
        with self._lock:
            try:
                return self._shards[shard_id]
            except KeyError:
                raise ShardingError(f"unknown shard {shard_id!r}") from None

    def owns(self, shard_id: str, assembly: BatchAssembly) -> bool:
        """Does the live ring place ``assembly`` on ``shard_id``?"""
        return self.ring.owner(content_key(assembly.samples)) == shard_id

    def _adopt(self, shard_id: str, shard: SandService) -> None:
        """Share the fleet's plans and anchors with ``shard`` and scope
        (or, after a ring change, re-scope in place) its background work."""
        shard.plan_cache = self.plan_cache
        shard.anchor_cache = self.anchor_cache
        shard.set_scope(lambda assembly: self.owns(shard_id, assembly))

    def add_shard(self, shard_id: str, service: SandService) -> RebalanceReport:
        """Join a shard and report which tracked views moved to it."""
        self._apply_fault(SITE_COORD_REBALANCE, shard_id)
        with self._lock:
            if shard_id in self._shards:
                raise ShardingError(f"shard {shard_id!r} already present")
            before = self._owners_locked()
            self._shards[shard_id] = service
            self.ring.add(shard_id)
            self._routed.setdefault(shard_id, 0)
            self._served.setdefault(shard_id, 0)
            report = self._rebalance_locked(before, added=[shard_id], removed=[])
            shards = dict(self._shards)
        for sid, shard in shards.items():
            self._adopt(sid, shard)
        return report

    def remove_shard(self, shard_id: str) -> RebalanceReport:
        """Drain a shard off the ring (its service is NOT shut down; it
        now owns nothing, so its background work stops).  It leaves with
        an anchor cache of its own, so its ``shutdown()`` cannot clear
        the fleet's."""
        self._apply_fault(SITE_COORD_REBALANCE, shard_id)
        with self._lock:
            if shard_id not in self._shards:
                raise ShardingError(f"unknown shard {shard_id!r}")
            if len(self._shards) == 1:
                raise ShardingError("cannot remove the last shard")
            before = self._owners_locked()
            shards = dict(self._shards)
            del self._shards[shard_id]
            self.ring.remove(shard_id)
            report = self._rebalance_locked(before, added=[], removed=[shard_id])
        for sid, shard in shards.items():
            self._adopt(sid, shard)
        shards[shard_id].anchor_cache = AnchorCache(self.anchor_cache.budget_bytes)
        return report

    def _owners_locked(self) -> Dict[str, str]:
        return {key: self.ring.owner(key) for key in self._seen}

    def _rebalance_locked(
        self, before: Dict[str, str], added: List[str], removed: List[str]
    ) -> RebalanceReport:
        """What the ring change moved, over the tracked views (lock held).

        Ownership is the ring's, so consistent hashing's minimal movement
        is the report: a view moves only when its arc changed hands.
        """
        report = RebalanceReport(added=added, removed=removed, tracked_keys=len(before))
        for key, old_owner in before.items():
            new_owner = self.ring.owner(key)
            if new_owner != old_owner:
                report.moved_keys += 1
                report.moves[key] = (old_owner, new_owner)
        return report

    # -- fault plumbing ------------------------------------------------------
    def _apply_fault(self, site: str, key: str) -> None:
        if self.fault_schedule is not None:
            self.fault_schedule.apply(site, key)

    # -- placement -----------------------------------------------------------
    @staticmethod
    def placement_key(task: str, epoch: int, iteration: int) -> str:
        """The batch's *name* (fault-site key; ring key of unplanned batches)."""
        return f"{task}/{epoch}/{iteration}"

    def _front(self) -> SandService:
        """The shard whose configs, dataset and registry stand for the
        fleet's (every shard is built alike)."""
        with self._lock:
            return next(iter(self._shards.values()))

    def window_plan(
        self, epoch: int, task: str, wait: bool = True
    ) -> MaterializationPlan:
        """The fleet's (deterministic) plan of the window holding
        ``epoch``: read through the shared cache, so no shard's window
        moves and any shard's answer is every shard's."""
        return self._front().window_plan(epoch, task, wait=wait)

    def _assembly(
        self, task: str, epoch: int, iteration: int, wait: bool = True
    ) -> Optional[BatchAssembly]:
        """The batch's composition, from the fleet's plan."""
        try:
            return self.window_plan(epoch, task, wait).batches.get((task, epoch, iteration))
        except KeyError:  # unknown task: the serving shard reports it
            return None

    def route(self, task: str, epoch: int, iteration: int) -> List[str]:
        """The shard preference order for one batch (owner first).

        Content-addressed: the ring key is the digest of the batch's
        sample signature, so an identical view — any task, any tenant —
        has the same owner and is served from objects it already
        materialized.
        """
        name = self.placement_key(task, epoch, iteration)
        self._apply_fault(SITE_COORD_PLACE, name)
        assembly = self._assembly(task, epoch, iteration)
        if assembly is None:
            return self.ring.preference(name)
        key = content_key(assembly.samples)
        with self._lock:
            self._note_view_locked(key, (task, epoch, iteration))
            return self.ring.preference(key)

    def _note_view_locked(self, key: str, batch: BatchId) -> None:
        """Count one routed request for the view ``key`` (lock held)."""
        first = self._seen.get(key)
        if first is None:
            self._seen[key] = batch
            self._dedup_misses += 1
        elif first != batch:
            self._dedup_hits += 1

    # -- serving -------------------------------------------------------------
    def get_batch_lease(
        self,
        task: str,
        epoch: int,
        iteration: int,
        tenant: str = DEFAULT_TENANT,
        wait: bool = True,
    ) -> Tuple[BatchLease, Dict]:
        """Admit, route, and serve one batch; lease holds the quota slot.

        ``wait=False`` asks the same of admission, ring and owner shard
        without waiting anywhere; see :meth:`_serve_ready`.
        """
        if wait:
            ticket = self.admission.admit(tenant, nbytes=self._batch_bytes.get(task, 0))
            try:
                lease, metadata = self._serve(
                    task,
                    epoch,
                    iteration,
                    lambda shard: shard.get_batch_lease(task, epoch, iteration),
                )
            except BaseException:
                ticket.release()
                raise
        else:
            ticket, lease, metadata = self._serve_ready(task, epoch, iteration, tenant)
        lease.on_release = ticket.release
        with self._lock:
            self._batch_bytes[task] = lease.nbytes
        return lease, metadata

    def _serve_ready(
        self, task: str, epoch: int, iteration: int, tenant: str
    ) -> Tuple[AdmissionTicket, BatchLease, Dict]:
        """Serve from the owner shard if nothing on the way would wait.

        :class:`NotReady` — with the books as if nobody had asked — when
        a fault schedule is armed (its sites may sleep, and fail over),
        the window's plan is not cached, the tenant would have to queue,
        or the owner cannot serve at once.  The grant is the one thing
        taken before the owner answers, and ``cancel`` takes it back
        uncounted.  A served batch is then booked as :meth:`route` and
        :meth:`_serve` book it.
        """
        if self.fault_schedule is not None:
            raise NotReady("a fault schedule is armed")
        assembly = self._assembly(task, epoch, iteration, wait=False)
        if assembly is None:
            raise NotReady("not a planned batch")  # the waiting path reports it
        key = content_key(assembly.samples)
        shard_id = self.ring.owner(key)
        with self._lock:
            shard = self._shards.get(shard_id)
        if shard is None:
            raise NotReady(f"owner {shard_id!r} is leaving the ring")
        ticket = self.admission.admit(
            tenant, nbytes=self._batch_bytes.get(task, 0), wait=False
        )
        try:
            lease, metadata = shard.get_batch_lease(task, epoch, iteration, wait=False)
        except BaseException:
            ticket.cancel()
            raise
        with self._lock:
            self._note_view_locked(key, (task, epoch, iteration))
            self._routed[shard_id] = self._routed.get(shard_id, 0) + 1
            self._served[shard_id] = self._served.get(shard_id, 0) + 1
        return ticket, lease, metadata

    def get_batch(
        self,
        task: str,
        epoch: int,
        iteration: int,
        tenant: str = DEFAULT_TENANT,
    ) -> Tuple[np.ndarray, Dict]:
        """Owned-array compatibility path, byte-identical to a shard's."""
        lease, metadata = self.get_batch_lease(task, epoch, iteration, tenant=tenant)
        return lease.detach(), metadata

    def _serve(
        self,
        task: str,
        epoch: int,
        iteration: int,
        call: Callable[[SandService], T],
    ) -> T:
        """Run ``call`` on the owner shard, failing over down the ring."""
        order = self.route(task, epoch, iteration)
        last_error: Optional[BaseException] = None
        for position, shard_id in enumerate(order):
            with self._lock:
                shard = self._shards.get(shard_id)
                if shard is None:
                    continue
                self._routed[shard_id] = self._routed.get(shard_id, 0) + 1
            try:
                self._apply_fault(SITE_SHARD_ROUTE, shard_id)
                self._apply_fault(SITE_SHARD_SERVE, shard_id)
                result = call(shard)
            except TransientStorageError as exc:
                # This shard is (injected or genuinely) unreachable:
                # every shard's plan is deterministic-identical, so the
                # next shard in the preference order serves the same
                # bytes.
                last_error = exc
                with self._lock:
                    if position + 1 < len(order):
                        self._failovers += 1
                continue
            with self._lock:
                self._served[shard_id] = self._served.get(shard_id, 0) + 1
            return result
        raise AllShardsDownError(
            f"all {len(order)} shard(s) failed serving "
            f"{task}/{epoch}/{iteration}: {last_error}"
        )

    def iterations_per_epoch(self, task: str, epoch: int = 0) -> int:
        """Metadata query: answered from the fleet's plan, not counted
        as a routed batch and never rolling a window."""
        return self.window_plan(epoch, task).iterations_per_epoch[task]

    def serve_async(
        self,
        unix_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs: Any,
    ) -> AsyncBatchServer:
        """An :class:`AsyncBatchServer` routing through this coordinator."""
        return AsyncBatchServer(
            self, unix_path=unix_path, host=host, port=port, **kwargs
        )

    def shutdown(self) -> None:
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.shutdown()

    # -- observability -------------------------------------------------------
    def routing_report(self) -> Dict[str, Any]:
        with self._lock:
            shards = dict(self._shards)
        scopes = {sid: shard.scope_report() for sid, shard in sorted(shards.items())}
        with self._lock:
            total_served = sum(self._served.values())
            return {
                "shards": self.ring.shards(),
                "routed": dict(sorted(self._routed.items())),
                "served": dict(sorted(self._served.items())),
                "utilization": {
                    s: (self._served.get(s, 0) / total_served if total_served else 0.0)
                    for s in self.ring.shards()
                },
                "failovers": self._failovers,
                "dedup_hits": self._dedup_hits,
                "dedup_misses": self._dedup_misses,
                "dedup_tracked_views": len(self._seen),
                # Why is shard-N busy / who planned this window: each
                # shard's share of its live windows' background work, and
                # the fleet's one plan cache.
                "owned_batches": {s: r["owned_batches"] for s, r in scopes.items()},
                "jobs_scoped_out": {s: r["jobs_scoped_out"] for s, r in scopes.items()},
                "plan_cache": self.plan_cache.report(),
            }

    def dataplane_report(self) -> Dict[str, Any]:
        with self._lock:
            shards = dict(self._shards)
        return {
            "routing": self.routing_report(),
            "shards": {sid: shard.dataplane_report() for sid, shard in sorted(shards.items())},
        }

    def status(self) -> Dict[str, Any]:
        """The one endpoint a load generator scrapes: everything."""
        with self._lock:
            shards = dict(self._shards)
        fire_counts = (
            self.fault_schedule.fire_counts() if self.fault_schedule is not None else {}
        )
        return {
            "shards": {sid: shard.status() for sid, shard in sorted(shards.items())},
            "routing": self.routing_report(),
            "admission": self.admission.report(),
            "anchor_cache": self.anchor_cache.report(),
            "fault_fires": fire_counts,
        }

    # -- the view namespace (S5.1, Tables 1-2) ------------------------------
    # Metadata reads only the fleet's plan, the task's dataset and the op
    # registry: no window rolls, no engine starts, nothing is booked.
    def _view(self, path: str) -> View:
        """The Table-1 view ``path`` names, of a known task, or ENOENT."""
        view = try_parse_view_path(path)
        if view is None or view.task not in self._front().tasks:
            raise FileNotFoundVfsError(path)
        return view

    def lookup(self, path: str) -> NodeInfo:
        parts = _parts(path)
        if parts and parts[0] not in self._front().tasks:
            raise FileNotFoundVfsError(path)
        is_file = parts[1:] == [CTRL_NAME] or try_parse_view_path(path) is not None
        return NodeInfo(path, is_dir=not is_file)

    def open(self, path: str) -> FileHandle:
        parts = _parts(path)
        if parts[1:] == [CTRL_NAME] and parts[0] in self._front().tasks:
            with self._lock:
                shards = list(self._shards.values())
            for shard in shards:
                shard.start_task(parts[0])
            return _CtrlHandle(path, shards, parts[0])
        view = self._view(path)
        shard = self._front()
        try:
            if isinstance(view, BatchView):
                if self._assembly(view.task, view.epoch, view.iteration) is None:
                    raise FileNotFoundVfsError(path)  # before admission, ring or engine
                lease, _ = self.get_batch_lease(view.task, view.epoch, view.iteration)
                with lease:
                    # The blob encode duplicates the batch for the POSIX
                    # read path: a trainer-boundary copy, booked on the
                    # lease; the buffer then goes back to the pool.
                    lease.book_copy()
                    return FileHandle(encode_array(lease.array), path)
            if isinstance(view, VideoView):
                dataset = shard.dataset_for(view.task)
                if view.video not in dataset.video_ids:
                    raise FileNotFoundVfsError(path)
                return FileHandle(dataset.get_bytes(view.video), path)
            if isinstance(view, FrameView):
                array = shard.frame_array(view.task, view.video, view.index)
            else:
                array = shard.aug_frame_array(
                    view.task, view.video, view.index, view.depth
                )
        except KeyError as exc:
            raise FileNotFoundVfsError(path, str(exc)) from exc
        return FileHandle(encode_array(array), path)

    def getxattr(self, path: str, name: str) -> bytes:
        view = self._view(path)
        shard = self._front()
        dataset = shard.dataset_for(view.task)
        if isinstance(view, BatchView):
            key = (view.task, view.epoch, view.iteration)
            plan = self.window_plan(view.epoch, view.task)
            assembly = plan.batches.get(key)
            if assembly is None:
                raise FileNotFoundVfsError(path)
            if name in ("shape", "dtype"):
                # From the plan, as ``_assemble`` sizes its buffer; only a
                # leaf whose spec is not static needs the batch itself.
                video, leaf = assembly.samples[0]
                registry = shard.registry or default_registry()
                spec = leaf_spec(plan.graphs[video], registry, leaf)
                if spec is None:
                    lease, _ = self.get_batch_lease(*key)
                    with lease:
                        spec = (lease.array.shape[1:], lease.array.dtype)
                shape, dtype = spec
                if name == "shape":
                    return json.dumps([len(assembly.samples), *shape]).encode()
                return str(dtype).encode()
            metadata = batch_metadata(plan, dataset, assembly)
            if name in metadata:
                return json.dumps(metadata[name]).encode()
        elif view.video not in dataset.video_ids:
            raise FileNotFoundVfsError(path)
        elif isinstance(view, VideoView):
            if name == "metadata":
                md = dataset.metadata(view.video)
                return json.dumps(
                    {
                        "width": md.width,
                        "height": md.height,
                        "num_frames": md.num_frames,
                        "fps": md.fps,
                        "gop_size": md.gop_size,
                    }
                ).encode()
        elif name == "timestamp":
            fps = dataset.metadata(view.video).fps
            return json.dumps(round(view.index / fps, 6)).encode()
        elif name == "video":
            return view.video.encode()
        raise NoAttributeError(path, f"no xattr {name!r}")

    def listdir(self, path: str) -> List[str]:
        parts = _parts(path)
        tasks = self._front().tasks
        if not parts:
            return sorted(tasks)
        task = parts[0]
        if task not in tasks:
            raise FileNotFoundVfsError(path)
        if try_parse_view_path(path) is not None:
            raise NotADirectoryVfsError(path)
        if len(parts) == 1:
            # Window 0's epochs: shards may sit in different live windows.
            dataset = self._front().dataset_for(task)
            entries = {CTRL_NAME, *(f"{video}.mp4" for video in dataset.video_ids)}
            entries.update(str(epoch) for epoch in self.window_plan(0, task).epochs)
            return sorted(entries)
        if len(parts) == 2 and parts[1].isdigit():
            epoch = int(parts[1])
            iterations = sorted(
                b.iteration
                for b in self.window_plan(epoch, task).batches.values()
                if b.task == task and b.epoch == epoch
            )
            if iterations:
                return [str(i) for i in iterations]
        if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
            return ["view"]
        raise FileNotFoundVfsError(path)


def _parts(path: str) -> List[str]:
    return [p for p in path.split("/") if p]


class _CtrlHandle(FileHandle):
    """``/{task}/ctrl``: opened, the task started on every shard; closing
    it ends the task on each of them."""

    def __init__(self, path: str, shards: List[SandService], task: str) -> None:
        super().__init__(b"", path)
        self._shards = shards
        self._task = task

    def close(self) -> None:
        if not self.closed:
            for shard in self._shards:
                shard.end_task(self._task)
        super().close()

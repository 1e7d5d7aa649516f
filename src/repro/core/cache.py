"""The materialized-object cache manager (paper S6).

Wraps the budgeted local store with SAND's eviction policy: when usage
crosses 75% of the budget, evict in order

1. objects that have already been used and are not required again in the
   current plan window, then
2. objects with the longest deadlines (furthest future first use) —
   Belady's clairvoyant rule, exact here because tasks register their
   schedules up front; equal deadlines break toward larger blobs first,

until usage is back under the watermark.  Deadlines come from the plan's
batch table; the trainer's progress is reported via :meth:`advance`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.locks import make_lock, make_rlock
from repro.core.concrete_graph import MaterializationPlan
from repro.core.pruning import PruningOutcome
from repro.storage.local import LocalStore
from repro.storage.objectstore import StorageFullError, TransientStorageError


class CacheManager:
    """Deadline-aware eviction over a :class:`LocalStore`.

    ``policy`` selects the eviction order: ``"deadline"`` is the paper's
    S6 policy; ``"fifo"`` evicts oldest-inserted first, ignoring the
    plan — the ablation baseline showing why deadline awareness matters.
    """

    POLICIES = ("deadline", "fifo")

    def __init__(self, store: LocalStore, policy: str = "deadline"):
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, got {policy!r}")
        self.store = store
        self.policy = policy
        self._lock = make_rlock("cache-manager")
        # The progress clock has a lock of its own: ``put`` holds the
        # manager's lock across eviction I/O, and reporting progress (the
        # demand path, or the batch server's event loop) must not queue
        # behind that.
        self._clock_lock = make_lock("cache-manager.clock")
        # key -> sorted steps at which the object is consumed (min over
        # tasks per use; conservative for multi-task objects).
        self._use_steps: Dict[str, List[int]] = {}
        self._current_step = 0
        self._insert_seq: Dict[str, int] = {}
        self._next_seq = 0
        # The plan whose schedule the deadlines and the clock follow.
        self.plan: Optional[MaterializationPlan] = None
        self.evictions = 0
        self.demotions = 0

    # -- plan registration ----------------------------------------------------
    def register_plan(
        self,
        plan: MaterializationPlan,
        pruning: Optional[PruningOutcome] = None,
        use_steps: Optional[Dict[str, List[int]]] = None,
    ) -> None:
        """Record when each cacheable object will be needed.  ``use_steps``
        is :meth:`use_steps` of the same plan, when worked out ahead."""
        if use_steps is None:
            use_steps = self.use_steps(plan, pruning)
        with self._lock:
            self.plan = plan
            self._use_steps = use_steps
            with self._clock_lock:
                self._current_step = 0

    @staticmethod
    def use_steps(
        plan: MaterializationPlan, pruning: Optional[PruningOutcome] = None
    ) -> Dict[str, List[int]]:
        """Cacheable object -> the sorted steps at which it is needed."""
        use_steps: Dict[str, List[int]] = {}
        for video_id, graph in plan.graphs.items():
            frontier = (
                pruning.frontier_of(video_id)
                if pruning is not None
                else {leaf.key for leaf in graph.leaves()}
            )
            for key in frontier:
                node = graph.nodes[key]
                steps: List[int] = []
                # A cached node is needed whenever any leaf below it is.
                for desc_key in graph.subtree_keys(key):
                    desc = graph.nodes[desc_key]
                    for use in desc.uses:
                        steps.append(plan.global_step(use.task, use.epoch, use.iteration))
                if not steps and node.uses:
                    steps = [plan.global_step(u.task, u.epoch, u.iteration) for u in node.uses]
                use_steps[key] = sorted(steps)
        return use_steps

    def advance(self, step: int) -> None:
        """Report training progress (max step across tasks is fine)."""
        with self._clock_lock:
            self._current_step = max(self._current_step, step)

    # -- policy ------------------------------------------------------------------
    def deadline_of(self, key: str) -> Optional[int]:
        """Next future use step of ``key``; None if never needed again."""
        steps = self._use_steps.get(key)
        if not steps:
            return None
        for step in steps:
            if step >= self._current_step:
                return step
        return None

    def _eviction_order(self) -> List[Tuple[int, int, int, str]]:
        """Keys in eviction order (policy-dependent).

        The deadline policy is Belady's clairvoyant rule over the plan's
        batch table: class 1 is objects with no future use (Belady's
        "never used again" — always first out), class 2 ranks by exact
        next-use distance, farthest first.  Among equal deadlines, larger
        blobs go first — one eviction call frees more bytes, so byte
        pressure is relieved with fewer deletions — with the key as the
        final deterministic tie-break.
        """
        ranked: List[Tuple[int, int, int, str]] = []
        # Tiered stores distinguish the evictable hot set from the full
        # key set (remote-only keys hold their last replica — deleting
        # them would be data loss, and demoting them frees nothing).
        hot_keys = getattr(self.store, "hot_keys", self.store.keys)
        for key in hot_keys():
            if self.policy == "fifo":
                ranked.append((0, self._insert_seq.get(key, 0), 0, key))
                continue
            deadline = self.deadline_of(key)
            if deadline is None:
                ranked.append((0, 0, 0, key))  # class 1: never needed again
            else:
                size = self.store.size_of(key) or 0
                ranked.append((1, -deadline, -size, key))  # class 2
        ranked.sort()
        return ranked

    def maybe_evict(self) -> int:
        """Enforce the watermark; returns number of objects evicted."""
        with self._lock:
            if not self.store.above_watermark():
                return 0
            target = self.store.bytes_over_watermark()
            return self._evict_bytes(target)

    def _evict_bytes(self, nbytes: int) -> int:
        """Reclaim local bytes: demote where the store supports tiers.

        With a tiered store, eviction *demotes* — the bytes move to the
        warm tier and the object stays recoverable by copy instead of
        recompute (prune-and-demote, not prune-and-delete).  Demotion
        failure (warm tier down or full) falls back to deletion so byte
        pressure is always relieved.
        """
        freed = 0
        count = 0
        demoter = getattr(self.store, "demote", None)
        for _, _, _, key in self._eviction_order():
            if freed >= nbytes:
                break
            size = self.store.size_of(key) or 0
            if demoter is not None and demoter(key):
                freed += size
                count += 1
                self.demotions += 1
                continue
            if self.store.delete(key):
                freed += size
                count += 1
                self.evictions += 1
        return count

    # -- store facade ---------------------------------------------------------------
    def put(self, key: str, data: bytes) -> bool:
        """Store an object, evicting by policy if needed.

        Returns False when the object cannot fit even after eviction
        (e.g. larger than the whole budget) — the caller keeps it in
        memory or recomputes, it is never an error.
        """
        with self._lock:
            needed = len(data)
            if needed > self.store.capacity_bytes:
                return False
            if needed > self.store.free_bytes:
                self._evict_bytes(needed - self.store.free_bytes)
            try:
                self.store.put(key, data)
            except (StorageFullError, TransientStorageError):
                # Full: the object is simply not cacheable right now.
                # Transient: skip this persist — the caller keeps the
                # object in memory and a later access re-attempts it.
                return False
            self._insert_seq[key] = self._next_seq
            self._next_seq += 1
            self.maybe_evict()
            return True

    def get(self, key: str) -> Optional[bytes]:
        return self.store.get(key)

    def get_view(self, key: str) -> Optional[memoryview]:
        """Zero-copy read (packed segments serve a view over the mmap).

        The view is only valid until the next store mutation; callers
        must consume (decode) it before putting or evicting.
        """
        return self.store.get_view(key)

    def __contains__(self, key: str) -> bool:
        return key in self.store

    def delete(self, key: str) -> bool:
        with self._lock:
            return self.store.delete(key)

    def flush(self) -> int:
        """Force write-behind store buffers down; no-op otherwise."""
        return self.store.flush()

    def close(self) -> None:
        """Stop background store machinery (write-behind flusher)."""
        self.store.close()

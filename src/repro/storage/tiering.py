"""Tiered, replicated storage: the policy layer over local + remote.

SAND's recompute-or-cache tradeoff (S5) has so far treated storage as a
single budgeted local store: a lost blob always meant recompute, and the
only response to byte pressure was deletion.  This module ties the
existing stores into a two-tier policy (VStore-style tier management,
PAPERS.md):

* **hot tier** — the budgeted :class:`~repro.storage.local.LocalStore`
  (packed segments, watermark eviction, zero-copy reads);
* **replica/warm tier** — a bandwidth-limited
  :class:`~repro.storage.remote.RemoteStore` that holds a full replica
  of every hot object (k=2 while hot) and the demoted warm/cold
  spillover (k=1 once cold).

Policy, in order of importance:

1. **Replication.** ``put`` writes locally, then replicates to the
   remote tier.  Replication failures are absorbed (the local write
   already succeeded) and the key is tracked as *under-replicated*; the
   background :meth:`repair_scan` re-replicates it.  Losing any single
   replica — or the entire local tier — recovers by copy, not
   recompute.
2. **Failover + heal.** ``get``/``get_view`` serve locally; a miss or a
   corrupt local blob fails over to the remote replica and *heals* the
   local copy on the way back.  ``CorruptObjectError`` only propagates
   when every replica is bad.
3. **Demotion, not deletion.** Under byte pressure the cache manager
   calls :meth:`demote` instead of ``delete``: the blob moves to the
   remote tier and its local bytes are reclaimed, so graph pruning's
   budget enforcement no longer forces future recomputes.  A later
   access promotes it back.

Every tier transition is a registered fault-injection site
(``tier.demote`` / ``tier.promote`` / ``tier.repair``), and the remote
tier honours ``tier-down`` windows (see :mod:`repro.faults.schedule`):
while the tier is down, operations against it fail after their retry
budget, gets fail over, and repair catches up once the tier returns.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.analysis.locks import make_rlock
from repro.faults.schedule import (
    SITE_TIER_DEMOTE,
    SITE_TIER_PROMOTE,
    SITE_TIER_REPAIR,
    FaultSchedule,
)
from repro.storage.local import LocalStore
from repro.storage.objectstore import (
    CorruptObjectError,
    StorageFullError,
    StoreStats,
    TransientStorageError,
)
from repro.storage.remote import RemoteStore

__all__ = ["TieredStore", "TierStats"]

# Failures a tier operation absorbs when the other tier can still serve:
# retry-exhausted transients (incl. tier-down windows), capacity, and
# corruption (quarantined by the owning store).
_TIER_FAILURES = (TransientStorageError, StorageFullError, CorruptObjectError)


class TierStats:
    """Lifetime counters for tier transitions and replication health."""

    def __init__(self) -> None:
        self.demotions = 0
        self.promotions = 0
        self.failovers = 0
        self.heals = 0
        self.repairs = 0
        self.replication_failures = 0
        self.replica_losses = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "demotions": self.demotions,
            "promotions": self.promotions,
            "failovers": self.failovers,
            "heals": self.heals,
            "repairs": self.repairs,
            "replication_failures": self.replication_failures,
            "replica_losses": self.replica_losses,
        }


class TieredStore:
    """Two-tier replicated store, duck-compatible with ``LocalStore``.

    Drop-in for every consumer of the single-store interface (cache
    manager, materializer, recovery, service): same ``put``/``get``/
    ``get_view``/``delete``/``scan``/``verify`` surface and the same
    watermark accessors, all budgeted against the *local* tier.  On top
    it adds the tier policy verbs (:meth:`demote`, :meth:`promote`,
    :meth:`repair_scan`) and per-tier health reporting.

    ``replication`` is the target replica count for hot keys (k=2 by
    default: one local + one remote).  Demoted keys intentionally drop
    to k=1 (remote only) — that is the budget relief — so the
    no-recompute guarantee holds "while k>=2 replicas survive", exactly
    the paper-facing claim the capstone test checks.
    """

    def __init__(
        self,
        local: LocalStore,
        remote: RemoteStore,
        replication: int = 2,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if replication > 2:
            raise ValueError(
                f"two tiers can hold at most 2 replicas, got replication={replication}"
            )
        self.local = local
        self.remote = remote
        self.replication = int(replication)
        self.fault_schedule = fault_schedule
        self.tier_stats = TierStats()
        self._lock = make_rlock("storage.tiering")
        # Keys believed to have a remote replica.  Maintained inline and
        # rebuilt from the remote tier's own index at scan(); gets only
        # fail over for keys in this set, so cache misses for objects
        # that were never stored anywhere stay off the WAN.
        self._remote_keys: Set[str] = set(self.remote.keys())
        self._under_replicated: Set[str] = set()

    # -- budget / watermark (local tier is the budget) -----------------------
    @property
    def capacity_bytes(self) -> int:
        return self.local.capacity_bytes

    @property
    def used_bytes(self) -> int:
        return self.local.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.local.free_bytes

    def fraction_used(self) -> float:
        return self.local.fraction_used()

    def above_watermark(self) -> bool:
        return self.local.above_watermark()

    def bytes_over_watermark(self) -> int:
        return self.local.bytes_over_watermark()

    @property
    def stats(self) -> StoreStats:
        """Primary-tier I/O counters (the surface callers account)."""
        return self.local.stats

    @property
    def quarantined(self) -> List[str]:
        """Quarantine incidents across both tiers (engine ledger)."""
        return list(self.local.quarantined) + list(self.remote.quarantined)

    # -- fault plumbing -------------------------------------------------------
    def _inject(self, site: str, key: str) -> None:
        if self.fault_schedule is not None:
            self.fault_schedule.apply(site, key, error=TransientStorageError)

    # -- core operations ------------------------------------------------------
    def put(self, key: str, data: bytes) -> int:
        """Store locally, then replicate.

        The local write is authoritative: its failures (capacity,
        injected transients) propagate to the caller unchanged, so cache
        admission semantics are identical to the single-store path.
        Replication failure never fails the put — the key is recorded as
        under-replicated and repaired in the background.
        """
        with self._lock:
            written = self.local.put(key, data)
            if self.replication >= 2:
                self._replicate(key, data)
            return written

    def _replicate(self, key: str, data: bytes) -> bool:
        try:
            self.remote.put(key, data)
        except _TIER_FAILURES:
            self.tier_stats.replication_failures += 1
            self._under_replicated.add(key)
            return False
        self._remote_keys.add(key)
        self._under_replicated.discard(key)
        return True

    def get(self, key: str) -> Optional[bytes]:
        """Serve from the hot tier, failing over to the replica.

        A corrupt local blob is quarantined by the local store, then the
        remote replica is tried; a good replica heals the local copy.
        ``CorruptObjectError`` propagates only when no replica is
        readable.
        """
        with self._lock:
            local_error: Optional[CorruptObjectError] = None
            try:
                data = self.local.get(key)
            except CorruptObjectError as exc:
                local_error = exc
                data = None
            if data is not None:
                return data
            return self._failover_get(key, local_error)

    def get_view(self, key: str) -> Optional[memoryview]:
        """Zero-copy local read with the same failover discipline."""
        with self._lock:
            local_error: Optional[CorruptObjectError] = None
            view: Optional[memoryview] = None
            try:
                view = self.local.get_view(key)
            except CorruptObjectError as exc:
                local_error = exc
            if view is not None:
                return view
            data = self._failover_get(key, local_error)
            return None if data is None else memoryview(data)

    def _failover_get(
        self, key: str, local_error: Optional[CorruptObjectError]
    ) -> Optional[bytes]:
        """Read the remote replica; heal the local copy on success."""
        if key not in self._remote_keys:
            if local_error is not None:
                self.tier_stats.replica_losses += 1
                raise local_error
            return None
        try:
            data = self.remote.get(key)
        except _TIER_FAILURES:
            data = None
        if data is None:
            # Both replicas gone/bad: surface corruption if the local
            # side quarantined, else a plain miss (caller recomputes).
            self._remote_keys.discard(key)
            self.tier_stats.replica_losses += 1
            if local_error is not None:
                raise local_error
            return None
        self.tier_stats.failovers += 1
        self._heal_local(key, data)
        return data

    def _heal_local(self, key: str, data: bytes) -> bool:
        """Best-effort promotion of a replica back into the hot tier."""
        if key in self.local:
            return True
        if len(data) > self.local.free_bytes:
            # No headroom: stay remote-only until eviction/demotion
            # frees space.  The read still succeeded.
            return False
        try:
            self.local.put(key, data)
        except _TIER_FAILURES:
            return False
        self.tier_stats.heals += 1
        return True

    def delete(self, key: str) -> bool:
        """Delete every replica (a true delete, unlike demotion)."""
        with self._lock:
            removed_local = self.local.delete(key)
            removed_remote = False
            if key in self._remote_keys:
                try:
                    removed_remote = self.remote.delete(key)
                except _TIER_FAILURES:
                    removed_remote = False
                self._remote_keys.discard(key)
            self._under_replicated.discard(key)
            return removed_local or removed_remote

    # -- tier policy ----------------------------------------------------------
    def demote(self, key: str) -> bool:
        """Move ``key``'s bytes to the warm tier; reclaim local budget.

        The remote copy is written (or confirmed) *before* the local
        bytes are dropped, so demotion never reduces the replica count
        below one.  Returns False — leaving the store unchanged — when
        the key is not local or the warm tier cannot take it.
        """
        with self._lock:
            if key not in self.local:
                return False
            try:
                self._inject(SITE_TIER_DEMOTE, key)
                if key not in self._remote_keys:
                    data = self.local.get(key)
                    if data is None:
                        return False
                    self.remote.put(key, data)
                    self._remote_keys.add(key)
            except _TIER_FAILURES:
                return False
            self.local.delete(key)
            self._under_replicated.discard(key)
            self.tier_stats.demotions += 1
            return True

    def promote(self, key: str) -> bool:
        """Copy a warm/cold key back into the hot tier."""
        with self._lock:
            if key in self.local:
                return True
            if key not in self._remote_keys:
                return False
            try:
                self._inject(SITE_TIER_PROMOTE, key)
                data = self.remote.get(key)
            except _TIER_FAILURES:
                return False
            if data is None:
                self._remote_keys.discard(key)
                self.tier_stats.replica_losses += 1
                return False
            if not self._heal_local(key, data):
                return False
            self.tier_stats.promotions += 1
            return True

    def under_replicated(self) -> List[str]:
        """Hot keys currently below the replication target."""
        with self._lock:
            if self.replication < 2:
                return []
            missing = {
                key for key in self.local.keys() if key not in self._remote_keys
            }
            missing.update(k for k in self._under_replicated if k in self.local)
            return sorted(missing)

    def repair_scan(self, promote_missing: bool = False) -> Dict[str, int]:
        """Re-replicate under-replicated keys; optionally re-warm local.

        The background repair pass: every hot key missing its remote
        replica is re-uploaded (``tier.repair`` fault site), so a tier
        that was down catches back up to k=2 once it returns.  With
        ``promote_missing`` the scan also pulls remote-only keys back
        into local headroom — the recovery path after losing the entire
        hot tier.
        """
        with self._lock:
            report = {"repaired": 0, "failed": 0, "promoted": 0, "still_under": 0}
            for key in self.under_replicated():
                data: Optional[bytes]
                try:
                    self._inject(SITE_TIER_REPAIR, key)
                    data = self.local.get(key)
                except _TIER_FAILURES:
                    report["failed"] += 1
                    continue
                if data is None:
                    continue
                if self._replicate(key, data):
                    report["repaired"] += 1
                    self.tier_stats.repairs += 1
                else:
                    report["failed"] += 1
            if promote_missing:
                for key in sorted(self._remote_keys):
                    if key in self.local or self.local.above_watermark():
                        continue
                    if self.promote(key):
                        report["promoted"] += 1
            report["still_under"] = len(self.under_replicated())
            return report

    # -- integrity / recovery -------------------------------------------------
    def verify(self, key: str) -> bool:
        """Verify the key is readable from *some* replica; heal if so."""
        with self._lock:
            if self.local.verify(key):
                return True
            # Local copy bad or missing: a readable remote replica keeps
            # the key alive (and heals the local side).
            if key not in self._remote_keys:
                return False
            try:
                data = self.remote.get(key)
            except _TIER_FAILURES:
                return False
            if data is None:
                self._remote_keys.discard(key)
                return False
            self.tier_stats.failovers += 1
            self._heal_local(key, data)
            return True

    def verify_all(self) -> List[str]:
        with self._lock:
            return [key for key in list(self.keys()) if not self.verify(key)]

    def scan(self) -> int:
        """Rebuild both tier indexes after a restart (S5.5 rescan)."""
        with self._lock:
            found = self.local.scan()
            self.remote.scan()
            self._remote_keys = set(self.remote.keys())
            self._under_replicated &= self._remote_keys | set(self.local.keys())
            return found + sum(
                1 for key in self._remote_keys if key not in self.local
            )

    # -- index ----------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self.local or key in self._remote_keys

    def __len__(self) -> int:
        local_keys = set(self.local.keys())
        return len(local_keys | self._remote_keys)

    def keys(self) -> Iterator[str]:
        seen = set(self.local.keys())
        seen.update(self._remote_keys)
        return iter(sorted(seen))

    def hot_keys(self) -> Iterator[str]:
        """Keys with a local (hot-tier) copy — the evictable set.

        Eviction/demotion policy must iterate *this*, not :meth:`keys`:
        a remote-only key holds its last replica in the warm tier, and
        "evicting" it would be deletion of data, not reclamation of
        local bytes.
        """
        return self.local.keys()

    def size_of(self, key: str) -> Optional[int]:
        size = self.local.size_of(key)
        if size is None and key in self._remote_keys:
            size = self.remote.size_of(key)
        return size

    def checksum_of(self, key: str) -> Optional[int]:
        checksum = self.local.checksum_of(key)
        if checksum is None and key in self._remote_keys:
            checksum = self.remote.checksum_of(key)
        return checksum

    # -- compaction / durability ---------------------------------------------
    def compact_packs(
        self,
        min_dead_bytes: int = 1,
        interrupt: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, int]:
        """Compact the hot tier's tombstoned pack segments."""
        with self._lock:
            return self.local.compact_packs(min_dead_bytes, interrupt=interrupt)

    def flush(self) -> int:
        return self.local.flush() + self.remote.flush()

    def close(self) -> None:
        self.local.close()
        self.remote.close()

    # -- health / ledger -------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Per-tier occupancy, segment ratios, and replication health."""
        with self._lock:
            local_health = self.local.health()
            under = self.under_replicated()
            remote_only = sum(
                1 for key in self._remote_keys if key not in self.local
            )
            return {
                "replication": self.replication,
                "local": local_health,
                "remote": {
                    "capacity_bytes": self.remote.capacity_bytes,
                    "used_bytes": self.remote.used_bytes,
                    "objects": len(self.remote),
                    "bytes_uploaded": self.remote.bytes_uploaded,
                    "bytes_downloaded": self.remote.bytes_downloaded,
                    "retries": self.remote.retries,
                    "dead_letters": self.remote.dead_letters,
                    "quarantined_keys": list(self.remote.quarantined),
                },
                "tiering": self.tier_stats.as_dict(),
                "under_replicated": len(under),
                "under_replicated_keys": under[:32],
                "remote_only_objects": remote_only,
            }

    def storage_failure_report(self) -> Dict[str, int]:
        """Retry/dead-letter/tier counters for the engine failure ledger."""
        with self._lock:
            report = dict(self.tier_stats.as_dict())
            report["remote_retries"] = self.remote.retries
            report["remote_dead_letters"] = self.remote.dead_letters
            report["under_replicated"] = len(self.under_replicated())
            return report

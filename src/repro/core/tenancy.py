"""Multi-tenant quotas and fair admission control.

A sharded SAND service serves many tenants from one set of engines, so
two policies that were implicit in the single-trainer world become
explicit here:

* :class:`TenantQuota` — per-tenant ceilings: concurrently inflight
  batches and concurrently leased delivery bytes, plus a fairness
  weight.
* :class:`AdmissionController` — the blocking gate every request passes
  before it may touch an engine.  Admission is *tenant-fair*: when
  capacity frees up, the waiting tenant with the smallest weighted
  service deficit (``served / weight``) goes first, and within a tenant
  waiters are FIFO.  A tenant with a tiny quota therefore still makes
  steady progress while a heavy tenant saturates its own ceiling — no
  starvation, no global FIFO convoy behind one tenant's burst.

All waiting runs on a blessed condition variable from
:mod:`repro.analysis.locks`; counters are observability inputs to the
admission decision, never wall-clock readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.locks import make_condition
from repro.core.dataplane import NotReady

DEFAULT_TENANT = "default"


class AdmissionError(RuntimeError):
    """Admission misuse (bad quota, double release)."""


class AdmissionTimeout(AdmissionError):
    """A waiter's deadline expired before capacity was granted."""


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ceilings and fairness weight.

    ``max_inflight`` bounds concurrently admitted batch requests;
    ``max_bytes`` bounds the sum of admitted request sizes (delivery
    buffer bytes a tenant may hold at once); ``weight`` scales the
    tenant's fair share — a weight-2 tenant is served twice as often as
    a weight-1 tenant under contention, all else equal.
    """

    max_inflight: int = 4
    max_bytes: int = 1 << 30
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {self.max_bytes}")
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


class AdmissionTicket:
    """One admitted request; release exactly once (context-managed)."""

    __slots__ = ("_controller", "tenant", "nbytes", "_released")

    def __init__(self, controller: "AdmissionController", tenant: str, nbytes: int):
        self._controller = controller
        self.tenant = tenant
        self.nbytes = nbytes
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._controller._release(self)

    def cancel(self) -> None:
        """Give the slot back *and* take the admission off the books: the
        request is about to be admitted again (a ``wait=False`` attempt
        that the shard then could not serve)."""
        if self._released:
            return
        self._released = True
        self._controller._release(self, uncount=True)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class AdmissionController:
    """Blocking, tenant-fair admission to a shared capacity pool.

    Grant rule, evaluated whenever capacity changes: among tenants with
    a head-of-line waiter *and* headroom under their own quota, the
    tenant with the smallest weighted deficit ``served[t] / weight[t]``
    is eligible (ties broken by tenant name for determinism); its oldest
    waiter proceeds if global capacity allows.  Everything else waits.
    """

    def __init__(
        self,
        default_quota: Optional[TenantQuota] = None,
        global_max_inflight: Optional[int] = None,
    ):
        if global_max_inflight is not None and global_max_inflight < 1:
            raise ValueError(
                f"global_max_inflight must be >= 1, got {global_max_inflight}"
            )
        self.default_quota = default_quota or TenantQuota()
        self.global_max_inflight = global_max_inflight
        self._cond = make_condition("tenancy.admission")
        self._quotas: Dict[str, TenantQuota] = {}
        self._inflight: Dict[str, int] = {}
        self._bytes: Dict[str, int] = {}
        self._served: Dict[str, int] = {}
        self._waiters: List[Tuple[str, int]] = []  # (tenant, seq), arrival order
        self._seq = 0
        self._admitted_total = 0
        self._timeouts = 0
        self._waits = 0  # admissions that had to wait at least once

    # -- quota management ----------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        with self._cond:
            self._quotas[tenant] = quota
            self._cond.notify_all()

    def tenants(self) -> List[str]:
        with self._cond:
            names = set(self._quotas) | set(self._inflight) | set(self._served)
            return sorted(names)

    # -- admission -----------------------------------------------------------
    def admit(
        self,
        tenant: str = DEFAULT_TENANT,
        nbytes: int = 0,
        timeout: Optional[float] = None,
        wait: bool = True,
    ) -> AdmissionTicket:
        """Block until ``tenant`` may start one request of ``nbytes``.

        ``wait=False`` grants now or raises :class:`NotReady`, with
        nothing counted (not a wait, not a timeout)."""
        nbytes = int(nbytes)
        with self._cond:
            quota = self._quotas.get(tenant, self.default_quota)
            if nbytes > quota.max_bytes:
                raise AdmissionError(
                    f"request of {nbytes} bytes exceeds tenant {tenant!r} "
                    f"byte quota {quota.max_bytes}"
                )
            seq = self._seq
            self._seq += 1
            me = (tenant, seq)
            self._waiters.append(me)
            waited = False
            try:
                while not self._grantable(me, nbytes):
                    if not wait:
                        raise NotReady(f"tenant {tenant!r} must queue for admission")
                    waited = True
                    if not self._cond.wait(timeout=timeout):
                        self._timeouts += 1
                        raise AdmissionTimeout(
                            f"tenant {tenant!r} admission timed out after {timeout}s"
                        )
            finally:
                self._waiters.remove(me)
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
            self._bytes[tenant] = self._bytes.get(tenant, 0) + nbytes
            self._served[tenant] = self._served.get(tenant, 0) + 1
            self._admitted_total += 1
            if waited:
                self._waits += 1
            # Another tenant's head-of-line may also be grantable now
            # (e.g. global capacity still has room).
            self._cond.notify_all()
            return AdmissionTicket(self, tenant, nbytes)

    def _grantable(self, me: Tuple[str, int], nbytes: int) -> bool:
        """Caller holds the condition's lock."""
        tenant, seq = me
        quota = self._quotas.get(tenant, self.default_quota)
        if self._inflight.get(tenant, 0) >= quota.max_inflight:
            return False
        if self._bytes.get(tenant, 0) + nbytes > quota.max_bytes:
            return False
        if (
            self.global_max_inflight is not None
            and sum(self._inflight.values()) >= self.global_max_inflight
        ):
            return False
        # FIFO within the tenant: only its oldest waiter may go.
        for other_tenant, other_seq in self._waiters:
            if other_tenant == tenant and other_seq < seq:
                return False
        # Tenant-fair across tenants: the eligible tenant with the
        # smallest weighted deficit goes first.
        return tenant == self._chosen_tenant()

    def _eligible(self, tenant: str) -> bool:
        quota = self._quotas.get(tenant, self.default_quota)
        return self._inflight.get(tenant, 0) < quota.max_inflight

    def _chosen_tenant(self) -> Optional[str]:
        candidates = {t for t, _seq in self._waiters if self._eligible(t)}
        if not candidates:
            return None

        def deficit(t: str) -> Tuple[float, str]:
            quota = self._quotas.get(t, self.default_quota)
            return (self._served.get(t, 0) / quota.weight, t)

        return min(candidates, key=deficit)

    def _release(self, ticket: AdmissionTicket, uncount: bool = False) -> None:
        with self._cond:
            tenant = ticket.tenant
            inflight = self._inflight.get(tenant, 0)
            if inflight <= 0:
                raise AdmissionError(
                    f"release for tenant {tenant!r} with nothing inflight"
                )
            self._inflight[tenant] = inflight - 1
            self._bytes[tenant] = max(0, self._bytes.get(tenant, 0) - ticket.nbytes)
            if uncount:
                self._served[tenant] -= 1
                self._admitted_total -= 1
            self._cond.notify_all()

    # -- reporting -----------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        with self._cond:
            tenants = sorted(
                set(self._quotas) | set(self._inflight) | set(self._served)
            )
            per_tenant: Dict[str, Dict[str, Any]] = {}
            for t in tenants:
                quota = self._quotas.get(t, self.default_quota)
                per_tenant[t] = {
                    "inflight": self._inflight.get(t, 0),
                    "inflight_bytes": self._bytes.get(t, 0),
                    "served": self._served.get(t, 0),
                    "max_inflight": quota.max_inflight,
                    "max_bytes": quota.max_bytes,
                    "weight": quota.weight,
                }
            return {
                "admitted_total": self._admitted_total,
                "admissions_waited": self._waits,
                "admission_timeouts": self._timeouts,
                "waiting_now": len(self._waiters),
                "global_max_inflight": self.global_max_inflight,
                "tenants": per_tenant,
            }


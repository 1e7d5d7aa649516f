"""Multi-tenancy: quotas, fair admission, and quota-holding leases.

The hard invariants:

* quotas are ceilings — a tenant never exceeds its inflight or byte
  budget, and an oversized single request is rejected loudly;
* admission is tenant-fair — under contention the grant order follows
  the weighted service deficit, so a starved low-quota tenant still
  makes progress while a heavy tenant saturates its own ceiling;
* a tenant's admission slot is held by the delivery lease itself
  (``BatchLease.on_release``): it frees exactly when the buffer does,
  and a request that fails before a lease exists frees it at once;
* all of it holds with runtime sanitizers on (lock-order monitor,
  lease-leak checks) — the multi-tenant paths introduce no inversions
  and leak nothing.
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis.locks import set_sanitizers
from repro.analysis.sanitizers import collect_report, reset_sanitizers
from repro.core import (
    AdmissionController,
    AdmissionError,
    AdmissionTimeout,
    ShardCoordinator,
    TenantQuota,
)
from repro.core.loadgen import LoadGenerator, make_fleet

from tests.test_sharding import make_shard


@pytest.fixture
def sanitized():
    """Force sanitizers on with clean state; restore env control after."""
    set_sanitizers(True)
    reset_sanitizers()
    yield
    reset_sanitizers()
    set_sanitizers(None)


# -- quotas ------------------------------------------------------------------


def test_quota_validation():
    with pytest.raises(ValueError):
        TenantQuota(max_inflight=0)
    with pytest.raises(ValueError):
        TenantQuota(max_bytes=0)
    with pytest.raises(ValueError):
        TenantQuota(weight=0.0)


def test_inflight_ceiling_blocks_until_release():
    controller = AdmissionController(default_quota=TenantQuota(max_inflight=1))
    first = controller.admit("a")
    with pytest.raises(AdmissionTimeout):
        controller.admit("a", timeout=0.05)
    first.release()
    second = controller.admit("a", timeout=1.0)
    second.release()
    report = controller.report()
    assert report["tenants"]["a"]["inflight"] == 0
    assert report["tenants"]["a"]["served"] == 2
    assert report["admission_timeouts"] == 1


def test_byte_quota_blocks_and_oversized_request_is_rejected():
    controller = AdmissionController(
        default_quota=TenantQuota(max_inflight=8, max_bytes=100)
    )
    with pytest.raises(AdmissionError):
        controller.admit("a", nbytes=101)
    ticket = controller.admit("a", nbytes=60)
    with pytest.raises(AdmissionTimeout):
        controller.admit("a", nbytes=60, timeout=0.05)
    ticket.release()
    controller.admit("a", nbytes=60, timeout=1.0).release()


def test_quotas_are_per_tenant():
    controller = AdmissionController(default_quota=TenantQuota(max_inflight=1))
    held = controller.admit("a")
    # Tenant b is not gated by tenant a's ceiling.
    controller.admit("b", timeout=1.0).release()
    held.release()


def test_double_release_is_idempotent():
    controller = AdmissionController()
    ticket = controller.admit("a")
    ticket.release()
    ticket.release()
    assert controller.report()["tenants"]["a"]["inflight"] == 0


# -- fairness ----------------------------------------------------------------


def test_starved_low_quota_tenant_still_makes_progress():
    """A heavy tenant with a big served history waits behind the light
    tenant when one slot frees: smallest weighted deficit goes first."""
    controller = AdmissionController(
        default_quota=TenantQuota(max_inflight=8),
        global_max_inflight=1,
    )
    controller.set_quota("light", TenantQuota(max_inflight=1))
    # Build up tenant "heavy"'s service history.
    for _ in range(25):
        controller.admit("heavy").release()
    blocker = controller.admit("heavy")

    grants = []
    grants_lock = threading.Lock()

    def waiter(tenant):
        ticket = controller.admit(tenant, timeout=10.0)
        with grants_lock:
            grants.append(tenant)
        ticket.release()

    threads = [
        threading.Thread(target=waiter, args=(t,))
        for t in ("heavy", "heavy", "heavy", "light")
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 5.0
    while True:
        with controller._cond:
            if len(controller._waiters) == 4:
                break
        assert time.monotonic() < deadline, "waiters never queued"
        time.sleep(0.005)
    blocker.release()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    # The light tenant (deficit 0) outranks heavy (deficit 26).
    assert grants[0] == "light"


def test_weighted_deficit_orders_grants():
    controller = AdmissionController(global_max_inflight=1)
    controller.set_quota("gold", TenantQuota(max_inflight=4, weight=4.0))
    controller.set_quota("bronze", TenantQuota(max_inflight=4, weight=1.0))
    # Equal served history: 4 each.  gold's weighted deficit (1.0) beats
    # bronze's (4.0), so gold goes first when both wait.
    for _ in range(4):
        controller.admit("gold").release()
        controller.admit("bronze").release()
    blocker = controller.admit("gold")
    grants = []
    lock = threading.Lock()

    def waiter(tenant):
        ticket = controller.admit(tenant, timeout=10.0)
        with lock:
            grants.append(tenant)
        ticket.release()

    threads = [
        threading.Thread(target=waiter, args=(t,)) for t in ("bronze", "gold")
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 5.0
    while True:
        with controller._cond:
            if len(controller._waiters) == 2:
                break
        assert time.monotonic() < deadline
        time.sleep(0.005)
    blocker.release()
    for thread in threads:
        thread.join(timeout=10.0)
    assert grants[0] == "gold"


def test_fifo_within_one_tenant():
    controller = AdmissionController(
        default_quota=TenantQuota(max_inflight=1)
    )
    blocker = controller.admit("a")
    order = []
    lock = threading.Lock()
    started = threading.Barrier(parties=2)

    def waiter(rank, delay):
        if rank == 1:
            started.wait(timeout=5.0)
            time.sleep(delay)  # guarantee rank 0 queued first
        else:
            started.wait(timeout=5.0)
        ticket = controller.admit("a", timeout=10.0)
        with lock:
            order.append(rank)
        time.sleep(0.01)
        ticket.release()

    t0 = threading.Thread(target=waiter, args=(0, 0.0))
    t1 = threading.Thread(target=waiter, args=(1, 0.2))
    t0.start()
    t1.start()
    blocker.release()
    t0.join(timeout=10.0)
    t1.join(timeout=10.0)
    assert order == [0, 1]


# -- the lease holds the quota slot ------------------------------------------


def _inflight(coordinator, tenant):
    return coordinator.admission.report()["tenants"][tenant]["inflight"]


def test_admission_slot_is_released_exactly_when_the_buffer_is():
    coordinator = ShardCoordinator([make_shard()])
    pool = coordinator.shard("shard-0").delivery_pool
    try:
        lease, _ = coordinator.get_batch_lease("t", 0, 0, tenant="acme")
        assert lease.on_release is not None
        assert _inflight(coordinator, "acme") == 1  # buffer still out
        assert pool.leases_outstanding == 1
        lease.release()
        assert _inflight(coordinator, "acme") == 0
        assert pool.leases_outstanding == 0
        lease.release()  # again: neither pool nor quota double-frees
        assert _inflight(coordinator, "acme") == 0

        # The owned-array path frees the slot at the detach.
        lease, _ = coordinator.get_batch_lease("t", 0, 1, tenant="acme")
        assert _inflight(coordinator, "acme") == 1
        lease.detach()
        assert _inflight(coordinator, "acme") == 0
        lease.release()
        assert _inflight(coordinator, "acme") == 0
        assert coordinator.admission.report()["admitted_total"] == 2
    finally:
        coordinator.shutdown()


def test_failed_request_frees_its_slot_without_the_hook():
    """Assembly raised before the hook was set: the hook never fires and
    the coordinator's own ``except`` gives the ticket back."""
    coordinator = ShardCoordinator([make_shard()])
    shard = coordinator.shard("shard-0")
    leases = []

    def failing(task, epoch, iteration):
        lease = shard.delivery_pool.acquire((2,), np.uint8)
        leases.append(lease)
        lease.release()  # what assembly does when a slot write raises
        raise ValueError("assembly failed mid-write")

    try:
        with pytest.raises(KeyError):  # no lease was ever acquired
            coordinator.get_batch_lease("t", 0, 10_000, tenant="acme")
        shard.get_batch_lease = failing
        with pytest.raises(ValueError):
            coordinator.get_batch_lease("t", 0, 0, tenant="acme")
        assert leases[0].on_release is None
        report = coordinator.admission.report()
        assert report["tenants"]["acme"]["inflight"] == 0
        assert report["admitted_total"] == 2
        assert shard.delivery_pool.leases_outstanding == 0
    finally:
        coordinator.shutdown()


# -- sanitized multi-tenant contention ---------------------------------------


def test_multi_tenant_contention_under_sanitizers(sanitized):
    """Low-quota tenants progress under contention from heavy tenants,
    demand ordering holds per tenant, and the sanitizers observe no
    lock-order inversions and no leaked leases."""
    coordinator = ShardCoordinator(
        [make_shard(tags=("a", "b")) for _ in range(2)],
        admission=AdmissionController(
            default_quota=TenantQuota(max_inflight=2),
            global_max_inflight=4,
        ),
    )
    coordinator.admission.set_quota("small", TenantQuota(max_inflight=1))
    try:
        fleet = make_fleet(
            tenants=["big-0", "big-1", "big-2", "small"],
            trainers_per_tenant=2,
            tasks=["a", "b"],
            epochs=1,
        )
        report = LoadGenerator(coordinator, fleet).run(timeout_s=300.0)
        assert report["errors"] == []
        assert report["stuck_trainers"] == []
        # Every tenant, including the quota-1 one, finished its work.
        assert report["per_tenant"]["small"]["batches"] > 0
        for tenant_report in report["per_tenant"].values():
            assert tenant_report["errors"] == 0
        admitted = coordinator.admission.report()
        assert admitted["waiting_now"] == 0
        for tenant in admitted["tenants"].values():
            assert tenant["inflight"] == 0
    finally:
        coordinator.shutdown()
    sanitizer_report = collect_report()
    assert sanitizer_report.clean(), sanitizer_report.as_dict()

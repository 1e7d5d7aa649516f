"""A ready batch never leaves the event loop — and nobody can tell.

The batch server first asks its source for each batch *inline*, with
``wait=False``; only a ``NotReady`` pays the hop to the executor.  The
invariants:

* the socket stream is byte-identical to the in-process
  ``get_batch_lease`` stream over a run holding both inline hits and
  executor misses (cold start, drained, window roll, re-read);
* every counter — engine stats, prefetch hits/misses, admission and
  routing books, outstanding leases — ends exactly where the same run
  ends when the inline path never hits;
* the loop never waits: with a lock held elsewhere the request goes to
  the executor and other connections are answered meanwhile;
* a lease taken inline is released on ACK, on the next request, on
  disconnect and on cancellation, as an executor one is.
"""

import threading
import time

import pytest

from repro.analysis.sanitizers import collect_report
from repro.core import (
    AdmissionController,
    AsyncBatchServer,
    BatchSocketClient,
    NotReady,
    PreprocessingEngine,
    SandService,
    ShardCoordinator,
    TenantQuota,
    build_plan_window,
    wire,
)
from repro.datasets import DatasetSpec, SyntheticDataset

from tests.test_dataplane import make_config

K_EPOCHS = 2


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=6, min_frames=30, max_frames=45,
                    width=32, height=24, seed=3)
    )


class NeverReady:
    """``source`` behind a front that answers every inline ask with
    ``NotReady``: the same run, all of it through the executor."""

    def __init__(self, source):
        self._source = source

    def get_batch_lease(self, *args, wait=True, **kwargs):
        if not wait:
            raise NotReady("the inline path is switched off")
        return self._source.get_batch_lease(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._source, name)


def make_service(dataset, **kwargs):
    kwargs.setdefault("prefetch_depth", 0)
    return SandService(
        [make_config()], dataset, k_epochs=K_EPOCHS, num_workers=0, seed=11, **kwargs
    )


def epoch_keys(service, epoch):
    return [("t", epoch, i) for i in range(service.iterations_per_epoch("t", epoch))]


def wait_for(condition, what, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def engine_books(engine):
    stats = engine.stats
    prefetch = stats.prefetch
    return {
        "batches_served": stats.batches_served,
        "demand_materializations": stats.demand_materializations,
        "prefetch": (prefetch.hits, prefetch.misses, prefetch.hits_after_wait,
                     prefetch.dropped_stale),
        "slot_writes": (stats.dataplane["slot_writes_direct"],
                        stats.dataplane["slot_writes_copied"]),
        "sends": (stats.dataplane["sends"], stats.dataplane["send_bytes"]),
        "delivery_bytes_copied": stats.traffic.delivery_bytes_copied,
        "bytes_allocated": stats.traffic.bytes_allocated,
        "clip_passes": stats.traffic.clip_passes,
        # (Outstanding leases are checked once the client has hung up: an
        # ACK in flight is timing, not bookkeeping.)
        "pool": (stats.dataplane["leases_issued"], stats.dataplane["buffers_reused"]),
    }


# -- the differential: SandService --------------------------------------------

# cold start -> drained -> re-read -> window roll -> back -> re-read
SCRIPT = ("epoch:0", "drain", "epoch:1", "epoch:1", "epoch:0", "epoch:2",
          "epoch:1", "epoch:1", "epoch:0")


def run_script(service, fetch):
    """Drive SCRIPT; returns (stream of (key, bytes, metadata), engine
    books after every step)."""
    stream, books = [], []
    for step in SCRIPT:
        if step == "drain":
            service.engine.drain()
        else:
            for key in epoch_keys(service, int(step.split(":")[1])):
                array, metadata = fetch(key)
                stream.append((key, array.tobytes(), dict(metadata)))
        books.append(engine_books(service.engine))
    return stream, books


def over_socket(source, service, tmp_path, name):
    server = AsyncBatchServer(source, unix_path=str(tmp_path / name))
    server.start_background()
    try:
        with BatchSocketClient(server.address) as client:
            stream, books = run_script(service, lambda key: client.get_batch(*key))
    finally:
        server.shutdown()
    return stream, books, server.report()


def test_socket_stream_and_books_match_with_and_without_the_inline_path(
    dataset, tmp_path
):
    reference = make_service(dataset)
    inline = make_service(dataset)
    hopped = make_service(dataset)
    try:
        def in_process(key):
            lease, metadata = reference.get_batch_lease(*key)
            with lease:
                return lease.array.copy(), metadata

        want, _ = run_script(reference, in_process)
        got, books, report = over_socket(inline, inline, tmp_path, "inline.sock")
        got_hopped, books_hopped, report_hopped = over_socket(
            NeverReady(hopped), hopped, tmp_path, "hopped.sock"
        )
        assert got == want  # byte for byte, metadata included
        assert got_hopped == want
        # The run holds both ways of serving, and the front switched one off.
        assert report["served_inline"] > 0 and report["served_executor"] > 0
        assert report["served_inline"] + report["served_executor"] == len(want)
        assert report_hopped["served_inline"] == 0
        assert report_hopped["served_executor"] == len(want)
        assert report["executor_queue_high_water"] == 1  # misses only
        # Nobody can tell from the books which way a batch went.
        assert books == books_hopped
        for service in (inline, hopped):
            assert service.delivery_pool.leases_outstanding == 0
        # What was planned, not how long anyone waited for it (``waits``
        # and the ``*_ms`` keys depend on where the roll met the build),
        # once the roll-ahead the swap into window 2 started is done.
        for service in (inline, hopped):
            assert service._single_group().warmed.wait(10)
        planned = [
            {name: service.plan_cache.report()[name]
             for name in ("builds", "ahead_builds", "hits", "windows")}
            for service in (inline, hopped)
        ]
        assert planned[0] == planned[1]
    finally:
        for service in (reference, inline, hopped):
            service.shutdown()


def test_only_ready_batches_are_served_inline(dataset, tmp_path):
    """Cold, rolled-away and plan-ahead-kicking requests are misses; a
    drained window re-read is all hits."""
    service = make_service(dataset)
    server = service.serve_async(unix_path=str(tmp_path / "ready.sock"))
    server.start_background()
    try:
        with BatchSocketClient(server.address) as client:
            def served(keys):
                before = server.report()
                for key in keys:
                    client.get_batch(*key)
                after = client.stats()["server"]  # the STATS frame carries them
                return (after["served_inline"] - before["served_inline"],
                        after["served_executor"] - before["served_executor"])

            first = epoch_keys(service, 0)
            last = [("t", 1, iteration) for _, _, iteration in first]
            assert served(first) == (0, len(first))  # cold: real work
            # ... and again: single-use leaves went straight into the batch
            # slot, nothing was kept, so a re-read recomputes them.
            assert served(first) == (0, len(first))
            service.engine.drain()  # memoizes and persists the unconsumed
            # The window's last epoch: its first request starts plan-ahead
            # (something to do: a miss); the rest is a memcpy each.
            assert served(last) == (len(last) - 1, 1)
            assert service._single_group().warmed.wait(10)  # the roll-ahead is done
            assert service.plan_cache.report()["ahead_builds"] == 1
            assert served(last) == (len(last), 0)
            assert served(epoch_keys(service, 2)[:1]) == (0, 1)  # a roll
            assert served(last[:1]) == (0, 1)  # and back: a fresh engine
            assert served(last[:1]) == (1, 0)
    finally:
        server.shutdown()
        service.shutdown()
    assert service.delivery_pool.leases_outstanding == 0


# -- the differential: prefetcher ready queue ---------------------------------


def settle(engine):
    """Wait until the prefetcher can do no more: nothing in flight and
    every claimable position of the window assembled."""
    prefetcher = engine._prefetcher

    def idle():
        with prefetcher._lock:
            for state in prefetcher._tasks.values():
                window = range(
                    state.consumed, min(state.consumed + prefetcher.depth, len(state.order))
                )
                if state.inflight or any(
                    pos not in state.ready and pos not in state.failed for pos in window
                ):
                    return False
        return True

    wait_for(idle, "the prefetcher to settle")


def test_ready_queue_hits_are_inline_and_counted_like_executor_hits(dataset, tmp_path):
    plan = build_plan_window([make_config()], dataset, 0, K_EPOCHS, seed=5)
    keys = sorted(plan.batches)
    # In order, a jump ahead (a miss: nothing queued there, and what was
    # queued goes stale), on from there, and one step back (a miss).
    order = [keys[0], keys[1], keys[4], keys[5], keys[2]]

    def run(front, name):
        engine = PreprocessingEngine(
            plan, dataset, num_workers=0, prefetch_depth=2, seed=5
        )
        with engine:
            server = AsyncBatchServer(front(engine), unix_path=str(tmp_path / name))
            server.start_background()
            try:
                with BatchSocketClient(server.address) as client:
                    stream = []
                    for key in order:
                        settle(engine)
                        stream.append(client.get_batch(*key)[0].tobytes())
            finally:
                server.shutdown()
            settle(engine)
            books = engine_books(engine)
            books.pop("pool")  # speculative leases: timing decides reuse
            assert engine.delivery_pool.leases_outstanding == engine.prefetch_queue_depth()
        return stream, books, server.report()

    stream, books, report = run(lambda engine: engine, "queue.sock")
    stream_hopped, books_hopped, report_hopped = run(NeverReady, "queue-hopped.sock")
    assert stream == stream_hopped
    assert books == books_hopped
    hits, misses, _after_wait, dropped = books["prefetch"]
    assert (hits, misses) == (3, 2) and dropped > 0
    # Every queued batch was handed over on the loop, every miss hopped.
    assert (report["served_inline"], report["served_executor"]) == (hits, misses)
    assert report_hopped["served_inline"] == 0


# -- the differential: 2-shard coordinator with a tenant -----------------------


def make_coordinator(dataset, max_inflight=2):
    shards = [make_service(dataset) for _ in range(2)]
    for shard in shards:
        shard.ensure_window(0, task="t")
    return ShardCoordinator(
        shards, admission=AdmissionController(TenantQuota(max_inflight=max_inflight))
    )


def fleet_books(coordinator, settle=True):
    if settle:  # the last ACK has landed: the ticket goes back after the lease
        wait_for(
            lambda: not any(
                tenant["inflight"]
                for tenant in coordinator.admission.report()["tenants"].values()
            ),
            "the last lease to come back",
        )
    routing = coordinator.routing_report()
    routing.pop("plan_cache")  # lookups, not servings: an inline miss looks twice
    return {
        "admission": coordinator.admission.report(),
        "routing": routing,
        "engines": {
            sid: engine_books(coordinator.shard(sid).engine)
            for sid in coordinator.shard_ids()
        },
    }


def run_fleet(coordinator, front, tmp_path, name):
    server = AsyncBatchServer(front(coordinator), unix_path=str(tmp_path / name))
    server.start_background()
    stream, books = [], []
    try:
        with BatchSocketClient(server.address) as client:
            first = [("t", 0, i) for i in range(coordinator.iterations_per_epoch("t", 0))]
            # drained (hits) -> window roll -> back, from the store -> re-read
            for step in ("drain", "read", "roll", "read", "read"):
                if step == "drain":
                    for sid in coordinator.shard_ids():
                        coordinator.shard(sid).engine.drain()
                    continue
                keys = [("t", K_EPOCHS, 0)] if step == "roll" else first
                for key in keys:
                    array, metadata = client.get_batch(*key, tenant="acme")
                    stream.append((key, array.tobytes(), dict(metadata)))
                books.append(fleet_books(coordinator))
    finally:
        server.shutdown()
    return stream, books, server.report()


def test_coordinator_books_match_with_and_without_the_inline_path(dataset, tmp_path):
    reference = make_service(dataset)
    inline, hopped = make_coordinator(dataset), make_coordinator(dataset)
    try:
        stream, books, report = run_fleet(inline, lambda c: c, tmp_path, "fleet.sock")
        stream_hopped, books_hopped, report_hopped = run_fleet(
            hopped, NeverReady, tmp_path, "fleet-hopped.sock"
        )
        for key, data, metadata in stream:
            want, want_metadata = reference.get_batch(*key)
            assert data == want.tobytes(), key
            assert metadata == want_metadata
        assert stream == stream_hopped
        assert report["served_inline"] > 0 and report["served_executor"] > 0
        assert report_hopped["served_inline"] == 0
        assert books == books_hopped
        final = books[-1]["admission"]
        assert final["admitted_total"] == len(stream)  # a cancelled grant is uncounted
        assert final["tenants"]["acme"]["served"] == len(stream)
        assert final["tenants"]["acme"]["inflight"] == 0
        assert final["admissions_waited"] == final["admission_timeouts"] == 0
        for fleet in (inline, hopped):
            for sid in fleet.shard_ids():
                assert fleet.shard(sid).delivery_pool.leases_outstanding == 0
    finally:
        for source in (reference, inline, hopped):
            source.shutdown()


def test_coordinator_inline_ask_changes_nothing_on_a_miss(dataset):
    """Quota exhausted, plan not cached, shard cold: each is a NotReady
    that leaves the books as if nobody had asked."""
    coordinator = make_coordinator(dataset, max_inflight=1)
    try:
        held, _ = coordinator.get_batch_lease("t", 0, 0, tenant="acme")
        before = fleet_books(coordinator, settle=False)
        with pytest.raises(NotReady):  # the tenant's one slot is taken
            coordinator.get_batch_lease("t", 0, 1, tenant="acme", wait=False)
        assert fleet_books(coordinator, settle=False) == before
        held.release()
        before = fleet_books(coordinator)
        with pytest.raises(NotReady):  # the next window's plan is not cached
            coordinator.get_batch_lease("t", K_EPOCHS, 0, tenant="acme", wait=False)
        with pytest.raises(NotReady):  # granted, but the shard is cold: ungranted
            coordinator.get_batch_lease("t", 0, 1, tenant="acme", wait=False)
        assert fleet_books(coordinator) == before
        assert before["admission"]["admitted_total"] == 1
    finally:
        coordinator.shutdown()


# -- the loop never waits ------------------------------------------------------


def warm_service(dataset, tmp_path, name):
    """A service whose epoch-0 batches are all inline-ready, served."""
    service = make_service(dataset)
    service.ensure_window(0, task="t")
    service.engine.drain()
    keys = epoch_keys(service, 0)
    for key in keys:
        service.get_batch_lease(*key)[0].release()  # memoizes the leaves
    server = service.serve_async(unix_path=str(tmp_path / name))
    server.start_background()
    return service, server, keys


def hold(lock, seconds=0.6):
    """Hold ``lock`` on another thread; returns (held event, thread)."""
    held = threading.Event()

    def run():
        with lock:
            held.set()
            time.sleep(seconds)  # well past the stall monitor's 250 ms

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert held.wait(5)
    return thread


@pytest.mark.parametrize("which", ["window-lock", "materializer-lock"])
def test_a_held_lock_sends_the_request_to_the_executor(
    sanitized, dataset, tmp_path, which
):
    service, server, keys = warm_service(dataset, tmp_path, f"{which}.sock")
    try:
        with BatchSocketClient(server.address) as client, \
                BatchSocketClient(server.address) as bystander:
            client.get_batch(*keys[0])
            assert server.report()["served_inline"] == 1
            if which == "window-lock":
                lock = service._window_lock  # a roll in progress
            else:
                video_id, _leaf = service.plan.batches[keys[1]].samples[0]
                lock = service.engine._materializers[video_id]._lock
            holder = hold(lock)
            reply = []
            asker = threading.Thread(
                target=lambda: reply.append(client.get_batch(*keys[1])), daemon=True
            )
            asker.start()
            wait_for(
                lambda: server.report()["executor_queue_depth"] == 1,
                "the request to reach the executor",
            )
            # The loop is free: another connection is answered at once,
            # while the lock is still held and the request still waits.
            started = time.monotonic()
            assert bystander.ping()
            assert time.monotonic() - started < 0.25
            assert holder.is_alive() and not reply
            asker.join(10)
            holder.join(10)
            want, _ = service.get_batch(*keys[1])
            assert reply and reply[0][0].tobytes() == want.tobytes()
            report = server.report()
            assert (report["served_inline"], report["served_executor"]) == (1, 1)
    finally:
        server.shutdown()
        service.shutdown()
    stalls = collect_report().event_loop_stalls
    assert stalls == [], stalls
    assert collect_report().lock_order_violations == []
    assert service.delivery_pool.leases_outstanding == 0


def test_holding_every_materializer_of_a_batch_is_no_lock_order_violation(
    sanitized, dataset
):
    """The inline path try-locks several locks of one rank at once: a
    try-acquire cannot deadlock, and the monitor knows it."""
    service = make_service(dataset)
    try:
        service.ensure_window(0, task="t")
        service.engine.drain()
        key = epoch_keys(service, 0)[0]
        service.get_batch_lease(*key)[0].release()
        assert len({video for video, _ in service.plan.batches[key].samples}) > 1
        lease, _ = service.get_batch_lease(*key, wait=False)
        lease.release()
        assert collect_report().lock_order_violations == []
    finally:
        service.shutdown()


# -- an inline lease is released like any other ---------------------------------


def ask(client, key):
    """GET_BATCH without the ACK ``get_batch`` would send."""
    client._send(wire.json_frame(
        wire.FrameType.GET_BATCH, {"task": key[0], "epoch": key[1], "iteration": key[2]}
    ))
    ftype, _payload = client._read_frame()
    assert ftype is wire.FrameType.BATCH


def test_inline_lease_is_released_on_ack_next_request_disconnect_and_cancel(
    dataset, tmp_path
):
    service, server, keys = warm_service(dataset, tmp_path, "lease.sock")
    pool = service.delivery_pool
    try:
        client = BatchSocketClient(server.address)
        ask(client, keys[0])
        assert pool.leases_outstanding == 1  # held while the bytes are out
        client._send(wire.control_frame(wire.FrameType.ACK))
        wait_for(lambda: pool.leases_outstanding == 0, "the ACK to release the lease")
        ask(client, keys[1])
        ask(client, keys[2])  # implicitly ACKs the previous batch
        assert pool.leases_outstanding == 1
        client.close()  # vanish without ACKing
        wait_for(lambda: pool.leases_outstanding == 0, "the disconnect to release it")
        client = BatchSocketClient(server.address)
        ask(client, keys[0])
        assert pool.leases_outstanding == 1
        server.shutdown()  # cancels the connection's task
        assert pool.leases_outstanding == 0
        client.close()
        report = server.report()
        assert (report["served_inline"], report["served_executor"]) == (4, 0)
        assert report["acks"] == 1
    finally:
        server.shutdown()
        service.shutdown()


# -- loop thread and executor threads share the books ---------------------------


def test_many_tenants_race_the_inline_and_executor_paths(dataset, tmp_path):
    """More clients than cores, a tight tenant quota and a short switch
    interval: inline grants, cancelled grants and executor admissions
    interleave on the same books.  A lost update shows as a wrong count
    or a slot that never comes back."""
    import sys

    reference = make_service(dataset)
    coordinator = make_coordinator(dataset, max_inflight=1)
    for sid in coordinator.shard_ids():
        coordinator.shard(sid).engine.drain()
    keys = epoch_keys(reference, 0)
    want = {key: reference.get_batch(*key)[0].tobytes() for key in keys}
    server = coordinator.serve_async(unix_path=str(tmp_path / "race.sock"))
    server.start_background()
    rounds, clients, errors = 12, 6, []

    def trainer(rank):
        try:
            with BatchSocketClient(server.address, timeout=30.0) as client:
                for turn in range(rounds):
                    key = keys[(rank + turn) % len(keys)]
                    array, _ = client.get_batch(*key, tenant=f"tenant-{rank % 2}")
                    if array.tobytes() != want[key]:
                        errors.append(f"{rank}: wrong bytes for {key}")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(f"{rank}: {type(exc).__name__}: {exc}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=trainer, args=(r,)) for r in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
    try:
        assert errors == []
        report = server.report()
        assert report["served_inline"] + report["served_executor"] == rounds * clients
        assert report["served_inline"] > 0
        admission = coordinator.admission.report()
        assert admission["admitted_total"] == rounds * clients
        assert sum(t["served"] for t in admission["tenants"].values()) == rounds * clients
        assert all(t["inflight"] == 0 for t in admission["tenants"].values())
        assert admission["waiting_now"] == 0
        routing = coordinator.routing_report()
        assert sum(routing["served"].values()) == rounds * clients
        for sid in coordinator.shard_ids():
            assert coordinator.shard(sid).delivery_pool.leases_outstanding == 0
    finally:
        coordinator.shutdown()
        reference.shutdown()

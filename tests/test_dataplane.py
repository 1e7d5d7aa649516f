"""The async zero-copy data plane: wire framing, buffer leases, the
event-loop batch server, and the in-process lease path.

The hard invariants:

* every frame is CRC-guarded and version-checked — corruption, skew, and
  oversized payloads fail loudly before any allocation;
* batches served over a socket are byte-identical to ``engine.get_batch``
  across seeds and under the capstone fault schedule
  (clean ERR frame + retry, never a corrupt batch);
* the pooled delivery path leaks no leases: after every drain the pool
  reports zero outstanding.
"""

import io
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    AsyncBatchServer,
    BatchServerError,
    BatchSocketClient,
    BufferPool,
    NotReady,
    PreprocessingEngine,
    build_plan_window,
    load_task_config,
)
from repro.core import dataplane, wire
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.faults import (
    SITE_ENGINE_JOB,
    SITE_STORE_GET,
    SITE_STORE_PUT,
    FaultSchedule,
    FaultSpec,
)
from repro.storage import RetryPolicy

FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.0, max_delay_s=0.0)


def make_config(tag="t", vpb=2, frames=4, stride=2):
    return load_task_config({
        "dataset": {
            "tag": tag,
            "video_dataset_path": "/d",
            "sampling": {
                "videos_per_batch": vpb,
                "frames_per_video": frames,
                "frame_stride": stride,
            },
            "augmentation": [
                {
                    "branch_type": "single",
                    "inputs": ["frame"],
                    "outputs": ["a0"],
                    "config": [
                        {"resize": {"shape": [18, 24]}},
                        {"random_crop": {"size": [12, 12]}},
                        {"flip": {"flip_prob": 0.5}},
                    ],
                }
            ],
        }
    })


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=6, min_frames=30, max_frames=45,
                    width=32, height=24, seed=3)
    )


# -- wire: headers -----------------------------------------------------------


def test_header_roundtrip_every_frame_type():
    for ftype in wire.FrameType:
        header = wire.pack_header(ftype, 12345)
        assert len(header) == wire.HEADER_SIZE
        got_type, got_len = wire.unpack_header(header)
        assert got_type is ftype
        assert got_len == 12345


def test_header_crc_catches_any_corrupted_byte():
    header = bytearray(wire.pack_header(wire.FrameType.BATCH, 64))
    for offset in range(wire.HEADER_BODY_SIZE):
        corrupt = bytearray(header)
        corrupt[offset] ^= 0xFF
        with pytest.raises(wire.CorruptFrameError):
            wire.unpack_header(corrupt)


def test_header_rejects_wrong_size_and_unknown_type():
    with pytest.raises(wire.CorruptFrameError):
        wire.unpack_header(b"short")
    body = struct.pack("<4sBBHQ", wire.MAGIC, wire.PROTOCOL_VERSION, 99, 0, 0)
    import zlib
    framed = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(wire.CorruptFrameError, match="unknown frame type"):
        wire.unpack_header(framed)


def test_header_rejects_version_skew():
    import zlib
    body = struct.pack("<4sBBHQ", wire.MAGIC, wire.PROTOCOL_VERSION + 1,
                       int(wire.FrameType.PING), 0, 0)
    framed = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(wire.ProtocolVersionError, match="version"):
        wire.unpack_header(framed)


def test_header_rejects_oversized_payload_announcement():
    header = wire.pack_header(wire.FrameType.BATCH, 1 << 40)
    with pytest.raises(wire.FrameTooLargeError, match="limit"):
        wire.unpack_header(header)
    # ...unless the caller raised the ceiling.
    ftype, length = wire.unpack_header(header, max_payload=1 << 41)
    assert length == 1 << 40


# -- wire: batch payloads ----------------------------------------------------


def test_batch_payload_roundtrip_is_byte_identical():
    metadata = {"task": "t", "epoch": 1, "iteration": 2, "labels": [3, None]}
    array = np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(2, 3, 4, 5)
    parts = wire.batch_frame_parts(metadata, array)
    frame = bytearray()
    for part in parts:
        frame += part
    ftype, length = wire.unpack_header(frame[: wire.HEADER_SIZE])
    assert ftype is wire.FrameType.BATCH
    assert length == len(frame) - wire.HEADER_SIZE
    got_md, got = wire.decode_batch_payload(frame[wire.HEADER_SIZE:])
    assert got_md == metadata
    assert got.dtype == array.dtype and got.shape == array.shape
    assert np.array_equal(got, array)


def test_batch_decode_is_zero_copy_view():
    payload = bytearray()
    for part in wire.batch_frame_parts({}, np.zeros(8, dtype=np.uint8)):
        payload += part
    payload = payload[wire.HEADER_SIZE:]
    _, array = wire.decode_batch_payload(payload)
    payload[-1] = 77  # writing the buffer must show through the view
    assert array[-1] == 77


def test_batch_refuses_non_contiguous_arrays():
    array = np.zeros((4, 4), dtype=np.uint8)[:, ::2]
    with pytest.raises(wire.WireError, match="contiguous"):
        wire.batch_frame_parts({}, array)


def test_batch_decode_rejects_length_mismatch():
    frame = bytearray()
    for part in wire.batch_frame_parts({}, np.zeros(8, dtype=np.uint8)):
        frame += part
    with pytest.raises(wire.CorruptFrameError, match="length mismatch"):
        wire.decode_batch_payload(frame[wire.HEADER_SIZE:-1])


# -- wire: blocking streams --------------------------------------------------


def test_stream_write_read_roundtrip():
    buf = io.BytesIO()
    wire.write_frame(buf, wire.FrameType.PING, b"hello")
    wire.write_frame(buf, wire.FrameType.STATS, wire.encode_json({"a": 1}))
    buf.seek(0)
    assert wire.read_frame(buf) == (wire.FrameType.PING, bytearray(b"hello"))
    ftype, payload = wire.read_frame(buf)
    assert ftype is wire.FrameType.STATS
    assert wire.parse_json(payload) == {"a": 1}


def test_stream_write_guards_payload_ceiling_before_sending():
    buf = io.BytesIO()
    with pytest.raises(wire.FrameTooLargeError, match="refusing to send"):
        wire.write_frame(buf, wire.FrameType.PING, b"x" * 32, max_payload=16)
    assert buf.getvalue() == b""  # nothing hit the stream


def test_stream_eof_mid_frame_is_loud():
    buf = io.BytesIO(wire.control_frame(wire.FrameType.PING, b"full")[:-2])
    with pytest.raises(wire.WireEOFError, match="mid-frame"):
        wire.read_frame(buf)


# -- buffer pool and leases --------------------------------------------------


def test_pool_reuses_returned_buffers_by_shape_and_dtype():
    pool = BufferPool(name="test")
    lease = pool.acquire((2, 3), np.float32)
    first = lease.array
    lease.array[:] = 7.0
    lease.release()
    again = pool.acquire((2, 3), np.float32)
    assert again.array is first  # recycled, not reallocated
    other = pool.acquire((2, 4), np.float32)
    assert other.array is not first
    report = pool.report()
    assert report["buffers_allocated"] == 2
    assert report["buffers_reused"] == 1
    again.release()
    other.release()
    assert pool.leases_outstanding == 0


def test_detach_hands_ownership_out_of_the_pool():
    pool = BufferPool(name="test")
    lease = pool.acquire((4,), np.uint8)
    owned = lease.detach()
    owned[:] = 9
    lease.release()
    fresh = pool.acquire((4,), np.uint8)
    assert fresh.array is not owned  # detached buffer never recycled
    report = pool.report()
    assert report["buffers_detached"] == 1
    assert report["buffers_returned"] == 0


def test_pool_free_list_is_bounded():
    pool = BufferPool(name="test")
    leases = [
        pool.acquire((8,), np.uint8) for _ in range(dataplane.MAX_FREE_PER_SHAPE + 3)
    ]
    for lease in leases:
        lease.release()
    assert pool.report()["free_buffers"] == dataplane.MAX_FREE_PER_SHAPE


def test_lease_context_manager_releases():
    pool = BufferPool(name="test")
    with pool.acquire((4,), np.uint8) as lease:
        assert lease.nbytes == 4
    assert pool.leases_outstanding == 0


# -- the on_release hook -----------------------------------------------------


def test_on_release_fires_once_when_two_threads_release():
    """Two threads release one lease at once: the buffer goes back once
    and the hook fires once, and never again."""
    pool = BufferPool(name="test")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # make the two releases actually interleave
    try:
        for _ in range(200):
            fired = []
            lease = pool.acquire((4,), np.uint8)
            lease.on_release = lambda: fired.append(pool.leases_outstanding)
            start = threading.Barrier(2)

            def holder():
                start.wait(timeout=10)
                lease.release()

            threads = [threading.Thread(target=holder) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            # Fired after the buffer went back (outside the pool lock:
            # the hook itself read the pool's counter without deadlocking).
            assert fired == [0]
            lease.release()  # idempotent: no second firing
            assert fired == [0]
        assert pool.report()["buffers_returned"] == 200
    finally:
        sys.setswitchinterval(interval)


def test_on_release_fires_once_on_detach_and_never_on_later_release():
    pool = BufferPool(name="test")
    fired = []
    lease = pool.acquire((4,), np.uint8)
    lease.on_release = lambda: fired.append("left")
    lease.detach()
    assert fired == ["left"]
    lease.detach()  # idempotent
    lease.release()
    lease.release()
    assert fired == ["left"]
    assert pool.leases_outstanding == 0


# -- engine integration ------------------------------------------------------


def test_get_batch_still_returns_an_owned_array(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        keys = sorted(plan.batches)
        batch0, _ = engine.get_batch(*keys[0])
        frozen = batch0.copy()
        batch1, _ = engine.get_batch(*keys[1])
        batch1[:] = 0  # an owned array: must not alias batch0's bytes
        assert np.array_equal(batch0, frozen)
        assert engine.delivery_pool.leases_outstanding == 0


def test_lease_path_is_zero_copy_and_pool_recycles(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        keys = sorted(plan.batches)
        lease, _ = engine.get_batch_lease(*keys[0])
        with lease:
            first_buffer = lease.array
            assert lease.array.nbytes == lease.nbytes
        # Released: the next same-shape batch reuses the same buffer.
        lease, _ = engine.get_batch_lease(*keys[1])
        with lease:
            assert lease.array is first_buffer
        report = engine.dataplane_report()
        assert report["buffers_reused"] >= 1
        assert report["leases_outstanding"] == 0
        # No trainer-boundary copies on the lease path.
        assert report["bytes_copied_per_batch"] == 0.0
        # The stats block surfaces the same counters.
        assert engine.stats.traffic_report()["dataplane"] == report
    assert engine.stats.traffic.delivery_bytes_copied == 0


def test_lease_path_matches_get_batch_bytes(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=7)
    reference = PreprocessingEngine(plan, dataset, num_workers=0)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    for key in sorted(plan.batches):
        expected, expected_md = reference.get_batch(*key)
        lease, metadata = engine.get_batch_lease(*key)
        with lease:
            assert np.array_equal(lease.array, expected), key
            assert metadata == expected_md, key


def test_held_stats_reference_stays_fresh(dataset):
    """``engine.stats`` is one object per engine, folded when read: a
    held reference sees later batches through the property, and is final
    once the engine retires."""
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    keys = sorted(plan.batches)
    engine.get_batch(*keys[0])
    stats = engine.stats
    decoded, issued = stats.frames_decoded, stats.dataplane["leases_issued"]
    assert stats.batches_served == 1 and decoded > 0 and issued == 1
    for key in keys[1:]:
        engine.get_batch(*key)
    assert engine.stats is stats  # identity is stable
    assert stats.batches_served == len(keys)
    assert stats.frames_decoded > decoded
    assert stats.dataplane["leases_issued"] == len(keys)
    engine.get_batch(*keys[0])
    engine.retire()  # folds: no property read needed after this
    assert stats.batches_served == len(keys) + 1
    assert stats.dataplane["leases_issued"] == len(keys) + 1
    assert stats.dataplane["buffers_detached"] == len(keys) + 1


# -- the async server over a unix socket -------------------------------------


def serve(engine, tmp_path, name="dp.sock", **kwargs):
    server = AsyncBatchServer(engine, unix_path=str(tmp_path / name), **kwargs)
    server.start_background()
    return server


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_socket_batches_byte_identical_to_get_batch(dataset, tmp_path, seed):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=seed)
    reference = PreprocessingEngine(plan, dataset, num_workers=0, seed=seed)
    engine = PreprocessingEngine(plan, dataset, num_workers=0, seed=seed)
    with engine:
        server = serve(engine, tmp_path)
        try:
            with BatchSocketClient(server.address) as client:
                for key in sorted(plan.batches):
                    expected, expected_md = reference.get_batch(*key)
                    batch, metadata = client.get_batch(*key)
                    assert batch.tobytes() == expected.tobytes(), key
                    assert metadata == expected_md, key
        finally:
            server.shutdown()
        assert engine.delivery_pool.leases_outstanding == 0


def test_server_control_frames_ping_stats(dataset, tmp_path):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        server = serve(engine, tmp_path)
        try:
            with BatchSocketClient(server.address) as client:
                assert client.server_info["protocol"] == wire.PROTOCOL_VERSION
                assert client.ping()
                client.get_batch(*sorted(plan.batches)[0])
                stats = client.stats()
                assert stats["server"]["sends"] == 1
                assert stats["source"]["sends"] == 1
                assert stats["source"]["send_bytes"] > 0
        finally:
            server.shutdown()


def test_unknown_task_gets_clean_nonretryable_err(dataset, tmp_path):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        server = serve(engine, tmp_path)
        try:
            with BatchSocketClient(server.address) as client:
                with pytest.raises(BatchServerError) as err:
                    client.get_batch("no-such-task", 0, 0)
                assert not err.value.retryable
                # The connection survives the error: next request works.
                batch, _ = client.get_batch(*sorted(plan.batches)[0])
                assert batch.nbytes > 0
        finally:
            server.shutdown()
        assert engine.delivery_pool.leases_outstanding == 0


def test_disconnect_without_ack_returns_the_lease(dataset, tmp_path):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        server = serve(engine, tmp_path)
        try:
            client = BatchSocketClient(server.address)
            key = sorted(plan.batches)[0]
            client._send(wire.json_frame(
                wire.FrameType.GET_BATCH,
                {"task": key[0], "epoch": key[1], "iteration": key[2]},
            ))
            ftype, _ = client._read_frame()
            assert ftype is wire.FrameType.BATCH
            client.close()  # vanish without ACKing
            deadline = threading.Event()
            for _ in range(200):
                if engine.delivery_pool.leases_outstanding == 0:
                    break
                deadline.wait(0.05)
            assert engine.delivery_pool.leases_outstanding == 0
        finally:
            server.shutdown()


def test_server_rejects_lease_unaware_sources():
    with pytest.raises(TypeError, match="get_batch_lease"):
        AsyncBatchServer(object(), unix_path="/tmp/never-bound.sock")


def test_tenantless_get_batch_reaches_the_source_with_three_arguments(tmp_path):
    """A GET_BATCH frame without ``tenant`` must call a plain source as
    ``get_batch_lease(task, epoch, iteration)`` — no fourth argument, not
    even ``tenant=None`` — and one with a tenant must pass the keyword.
    Each request is first asked inline with ``wait=False``; after a
    ``NotReady`` the executor call carries no ``wait`` at all."""
    pool = BufferPool(name="arity")
    calls = []

    class Source:
        def get_batch_lease(self, task, epoch, iteration, **kwargs):
            calls.append(((task, epoch, iteration), kwargs))
            if not kwargs.get("wait", True):
                raise NotReady("always asks for the executor")
            lease = pool.acquire((2,), np.uint8)
            lease.array[:] = 1
            return lease, {"task": task, "epoch": epoch, "iteration": iteration}

    server = AsyncBatchServer(Source(), unix_path=str(tmp_path / "arity.sock"))
    server.start_background()
    try:
        with BatchSocketClient(server.address) as client:
            client.get_batch("t", 3, 4)
            client.get_batch("t", 3, 5, tenant="acme")
    finally:
        server.shutdown()
    assert calls == [
        (("t", 3, 4), {"wait": False}),
        (("t", 3, 4), {}),
        (("t", 3, 5), {"wait": False, "tenant": "acme"}),
        (("t", 3, 5), {"tenant": "acme"}),
    ]
    assert server.report()["served_inline"] == 0
    assert server.report()["served_executor"] == 2
    assert pool.leases_outstanding == 0


# -- concurrency and faults --------------------------------------------------


def capstone_schedule():
    return FaultSchedule(
        seed=0,
        specs=[
            FaultSpec(kind="transient-error", site=SITE_STORE_GET, rate=0.05),
            FaultSpec(kind="transient-error", site=SITE_STORE_PUT, rate=0.05),
            FaultSpec(kind="crash", site=SITE_ENGINE_JOB, at_count=2, max_fires=1),
        ],
    )


def run_trainers(address, keys, trainers):
    """Partition ``keys`` across trainer threads; return results + errors."""
    results = {}
    errors = []
    lock = threading.Lock()

    def trainer(rank):
        try:
            with BatchSocketClient(address) as client:
                for key in keys[rank::trainers]:
                    batch, md = client.get_batch_with_retry(*key)
                    with lock:
                        results[key] = (batch.tobytes(), md)
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert
            with lock:
                errors.append(f"trainer {rank}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=trainer, args=(rank,)) for rank in range(trainers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors


def test_concurrent_trainers_under_capstone_faults(dataset, tmp_path):
    """Many trainers over one socket server under the capstone schedule:
    every batch is either byte-identical to the fault-free reference or a
    clean retryable ERR frame that succeeds on retry — and once drained,
    no delivery lease is leaked."""
    from repro.core import CacheManager, prune_plan
    from repro.faults import FaultyStore
    from repro.storage.local import LocalStore

    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    reference = PreprocessingEngine(plan, dataset, num_workers=0, seed=5)
    expected = {
        key: reference.get_batch(*key) for key in sorted(plan.batches)
    }

    schedule = capstone_schedule()
    store = FaultyStore(LocalStore(10**8), schedule)
    cache = CacheManager(store)
    pruning = prune_plan(plan, plan.total_cached_bytes() * 1.01)
    cache.register_plan(plan, pruning)
    engine = PreprocessingEngine(
        plan, dataset, pruning=pruning, cache=cache, num_workers=2,
        fault_schedule=schedule, retry_policy=FAST_RETRY, seed=5,
    )
    with engine:
        engine.drain()
        server = serve(engine, tmp_path)
        try:
            keys = sorted(plan.batches)
            results, errors = run_trainers(server.address, keys, trainers=4)
            assert errors == [], errors
            for key in keys:
                want, want_md = expected[key]
                got, got_md = results[key]
                assert got == want.tobytes(), key
                assert got_md == want_md, key
        finally:
            server.shutdown()
        assert engine.delivery_pool.leases_outstanding == 0
    report = engine.dataplane_report()
    assert report["sends"] == len(plan.batches)
    assert report["leases_outstanding"] == 0


def test_many_concurrent_trainers_fault_free(dataset, tmp_path):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=6)
    reference = PreprocessingEngine(plan, dataset, num_workers=0, seed=6)
    expected = {
        key: reference.get_batch(*key) for key in sorted(plan.batches)
    }
    engine = PreprocessingEngine(plan, dataset, num_workers=2, seed=6)
    with engine:
        server = serve(engine, tmp_path)
        try:
            keys = sorted(plan.batches)
            results, errors = run_trainers(server.address, keys, trainers=8)
            assert errors == [], errors
            for key in keys:
                assert results[key][0] == expected[key][0].tobytes(), key
        finally:
            server.shutdown()
        assert engine.delivery_pool.leases_outstanding == 0


def test_prefetcher_ready_queue_holds_leases(dataset):
    """Prefetch + lease path compose: speculated batches ride pooled
    buffers end to end and the pool drains when the window closes."""
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=5)
    engine = PreprocessingEngine(
        plan, dataset, num_workers=0, seed=5,
        prefetch_depth=2, prefetch_workers=2,
    )
    with engine:
        for key in sorted(plan.batches):
            lease, _ = engine.get_batch_lease(*key)
            with lease:
                assert lease.nbytes > 0
    assert engine.delivery_pool.leases_outstanding == 0
    report = engine.stats.traffic_report()["dataplane"]
    assert report["leases_issued"] >= len(plan.batches)


# -- get_batch_with_retry failure paths --------------------------------------


class _FlakySource:
    """A lease-aware source that fails ``fail_times`` before serving."""

    def __init__(self, fail_times, exc_factory):
        self.pool = BufferPool(name="flaky-source")
        self.fail_times = fail_times
        self.exc_factory = exc_factory
        self.calls = 0

    def get_batch_lease(self, task, epoch, iteration, wait=True):
        if not wait:
            raise NotReady("a source that may block says so")
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.exc_factory()
        lease = self.pool.acquire((2, 3), np.uint8)
        lease.array[:] = 7
        return lease, {"task": task, "epoch": epoch, "iteration": iteration}


def test_retry_outlives_transient_server_errs(tmp_path):
    from repro.faults.errors import TransientDecodeError

    source = _FlakySource(2, lambda: TransientDecodeError("decode hiccup"))
    server = AsyncBatchServer(source, unix_path=str(tmp_path / "flaky.sock"))
    server.start_background()
    try:
        with BatchSocketClient(server.address) as client:
            batch, metadata = client.get_batch_with_retry("t", 0, 0, retries=3)
            assert batch.tobytes() == bytes([7] * 6)
            assert metadata["task"] == "t"
        assert source.calls == 3  # two ERR frames, then the batch
    finally:
        server.shutdown()
    assert source.pool.leases_outstanding == 0


def test_retry_exhaustion_surfaces_retryable_err(tmp_path):
    from repro.faults.errors import TransientDecodeError

    source = _FlakySource(10_000, lambda: TransientDecodeError("always down"))
    server = AsyncBatchServer(source, unix_path=str(tmp_path / "down.sock"))
    server.start_background()
    try:
        with BatchSocketClient(server.address) as client:
            with pytest.raises(BatchServerError) as err:
                client.get_batch_with_retry("t", 0, 0, retries=2)
            assert err.value.retryable
        assert source.calls == 3  # initial try + 2 retries, no more
    finally:
        server.shutdown()
    assert source.pool.leases_outstanding == 0


def test_nonretryable_err_is_not_retried(tmp_path):
    source = _FlakySource(10_000, lambda: ValueError("hard bug"))
    server = AsyncBatchServer(source, unix_path=str(tmp_path / "bug.sock"))
    server.start_background()
    try:
        with BatchSocketClient(server.address) as client:
            with pytest.raises(BatchServerError) as err:
                client.get_batch_with_retry("t", 0, 0, retries=3)
            assert not err.value.retryable
            assert "hard bug" in str(err.value)
        assert source.calls == 1
    finally:
        server.shutdown()
    assert source.pool.leases_outstanding == 0


def _scripted_server(script_after_get_batch, delay_s=0.0):
    """A fake batch server: real handshake, scripted GET_BATCH reply.

    Returns ``(address, thread)``; the server handles exactly one
    connection, writes the scripted bytes (after ``delay_s``) in response
    to GET_BATCH, and closes the connection.
    """
    import socket as socket_mod

    srv = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    address = srv.getsockname()

    def run():
        conn, _ = srv.accept()
        stream = conn.makefile("rwb")
        try:
            ftype, _payload = wire.read_frame(stream)
            assert ftype == wire.FrameType.HELLO
            wire.write_frame(
                stream,
                wire.FrameType.HELLO,
                wire.encode_json({"protocol": wire.PROTOCOL_VERSION}),
            )
            ftype, _payload = wire.read_frame(stream)
            assert ftype == wire.FrameType.GET_BATCH
            threading.Event().wait(delay_s)
            stream.write(script_after_get_batch)
            stream.flush()
        except OSError:
            pass  # the client hung up first: some tests want exactly that
        finally:
            stream.close()
            conn.close()
            srv.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return address, thread


def test_mid_stream_disconnect_is_a_clean_eof_error():
    # A valid BATCH header promising 100 payload bytes, then only 10
    # bytes before the server vanishes.
    script = wire.pack_header(wire.FrameType.BATCH, 100) + b"x" * 10
    address, thread = _scripted_server(script)
    client = BatchSocketClient(address, timeout=10.0)
    try:
        with pytest.raises(wire.WireEOFError) as err:
            client.get_batch_with_retry("t", 0, 0)
        assert "mid-frame" in str(err.value)
    finally:
        client.close()
        thread.join(timeout=5)


def test_corrupted_header_is_a_clean_corrupt_frame_error():
    corrupted = bytearray(wire.pack_header(wire.FrameType.BATCH, 64))
    corrupted[5] ^= 0xFF  # flip a header byte: CRC must catch it
    address, thread = _scripted_server(bytes(corrupted) + b"\0" * 64)
    client = BatchSocketClient(address, timeout=10.0)
    try:
        with pytest.raises(wire.CorruptFrameError):
            client.get_batch_with_retry("t", 0, 0)
    finally:
        client.close()
        thread.join(timeout=5)


def _batch_reply(task, epoch, iteration, fill):
    """One well-formed BATCH frame answering ``(task, epoch, iteration)``."""
    array = np.full((2, 3), fill, dtype=np.uint8)
    metadata = {"task": task, "epoch": epoch, "iteration": iteration}
    return b"".join(bytes(part) for part in wire.batch_frame_parts(metadata, array))


def test_reply_for_another_key_is_refused_and_the_client_closes():
    """The client must not hand request B the batch that answers A."""
    address, thread = _scripted_server(_batch_reply("t", 0, 0, fill=7))
    client = BatchSocketClient(address, timeout=10.0)
    try:
        with pytest.raises(wire.WireError, match="not the request"):
            client.get_batch("t", 0, 1)
        with pytest.raises(OSError):  # closed: unusable, never wrong
            client.get_batch("t", 0, 1)
    finally:
        client.close()
        thread.join(timeout=5)


def test_late_reply_after_a_timeout_is_never_the_next_calls_batch():
    """A reply landing after the client gave up used to sit on the open
    socket, and the next call decoded it as its own."""
    address, thread = _scripted_server(_batch_reply("t", 0, 0, fill=7), delay_s=0.5)
    client = BatchSocketClient(address, timeout=0.1)
    try:
        with pytest.raises(OSError):  # socket.timeout
            client.get_batch("t", 0, 0)
        thread.join(timeout=5)  # the stale frame has been written by now
        with pytest.raises(OSError):
            client.get_batch("t", 0, 1)
    finally:
        client.close()
        thread.join(timeout=5)


def test_a_server_err_leaves_the_connection_usable(dataset, tmp_path):
    """ERR is a complete, well-framed reply: nothing is left unread, so
    the client stays open (only timeouts and wire errors close it)."""
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=5)
    engine = PreprocessingEngine(plan, dataset, num_workers=0)
    with engine:
        server = serve(engine, tmp_path, name="err.sock")
        try:
            with BatchSocketClient(server.address) as client:
                for _ in range(2):
                    with pytest.raises(BatchServerError):
                        client.get_batch("no-such-task", 0, 0)
                key = sorted(plan.batches)[0]
                _batch, metadata = client.get_batch(*key)
                assert (metadata["task"], metadata["epoch"], metadata["iteration"]) == key
        finally:
            server.shutdown()

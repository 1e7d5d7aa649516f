"""Plan -> inflate -> reconstruct: the shared inflate changes nothing but time.

Differentials: a decode whose inflate step is shared with the helper pool
== the same decode forced inline == the test-side oracle
(``tests/reference_decoder.py``), byte for byte, with equal ``DecodeStats``
and equal anchor-cache books; ``AnchorCache.put_many`` == the same
sequence of ``put``; damaged payloads end in ``ContainerError`` on the
caller's thread; a one-core process never starts a helper.

CI runs this file a second time under ``taskset -c 0``: there the
process has no helper pool and every "shared" case below runs the inline
path, which must stay exercised on multi-core runners too.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.codec.incremental as incremental
from repro.analysis.sanitizers import buffer_sanitizer, collect_report
from repro.codec import (
    AnchorCache,
    ContainerError,
    IncrementalDecoder,
    SyntheticVideoSource,
    VideoMetadata,
    encode_video,
    read_container,
    read_delta_track,
    write_container,
)
from tests.reference_decoder import reference_decode

SRC = Path(__file__).resolve().parents[1] / "src"
W, H = 16, 12
FRAME_BYTES = W * H * 3
SHARED, INLINE = 1, 10**9  # values of incremental._SHARE_FROM_FRAMES


def helper_pool():
    """The process's helper pool — None on one core — sized by a first call."""
    incremental._HELPERS.settle(incremental._HELPERS.share(lambda: None, 0))
    return incremental._HELPERS._pool


def encoded_video(frames, gop, b, vid="v", motion=None):
    md = VideoMetadata(vid, width=W, height=H, num_frames=frames, gop_size=gop, b_frames=b)
    if motion is None:
        return encode_video(SyntheticVideoSource(md))
    return encode_video(SyntheticVideoSource(md, motion_scale=motion, noise_scale=0.0))


# (frames, gop, b_frames, calls): P chains; B frames with trailing Ps at the
# GOP's and the video's end (b=2, gop=12: 10, 11 and 34 have no next anchor);
# 1-frame GOPs; requests that span GOPs.
LAYOUTS = {
    "p-chain": (30, 10, 0, [[13], [4, 8, 27], [29, 0], list(range(30))]),
    "b-frames-trailing-p": (35, 12, 2, [[10, 11], [34], [1, 13, 26], [5, 22, 23], list(range(35))]),
    "one-frame-gops": (7, 1, 0, [[3], [0, 6], list(range(7))]),
    "multi-gop": (48, 12, 2, [[0, 47], [11, 12, 13, 35, 36], list(range(5, 44, 3))]),
}
# budget in frames (None = ample), and whether the cache is warmed first.
CACHE_STATES = {
    "cold": (None, False),
    "warm": (None, True),
    "partly-evicted": (3, True),
    "budget-0": (0, False),
}


def run_calls(monkeypatch, share_from, data, calls, budget, warm, threshold=0.0):
    monkeypatch.setattr(incremental, "_SHARE_FROM_FRAMES", share_from)
    cache = AnchorCache(10**8 if budget is None else budget * FRAME_BYTES)
    if warm:
        IncrementalDecoder(data, cache=cache).decode_all()
    decoder = IncrementalDecoder(data, cache=cache, reuse_threshold=threshold)
    outputs = [decoder.decode_frames(wanted) for wanted in calls]
    return outputs, decoder, cache


def eviction_order(cache):
    """Every key of the cache, the next victim first."""
    return [key for level in sorted(cache._levels) for key in cache._levels[level]]


@pytest.mark.parametrize("cache_state", CACHE_STATES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_shared_inline_and_oracle_agree(monkeypatch, layout, cache_state):
    frames, gop, b, calls = LAYOUTS[layout]
    budget, warm = CACHE_STATES[cache_state]
    data = encoded_video(frames, gop, b)
    shared, shared_dec, shared_cache = run_calls(monkeypatch, SHARED, data, calls, budget, warm)
    inline, inline_dec, inline_cache = run_calls(monkeypatch, INLINE, data, calls, budget, warm)
    for wanted, got_shared, got_inline in zip(calls, shared, inline):
        oracle = reference_decode(data, wanted)
        assert set(got_shared) == set(got_inline) == set(wanted)
        for index in wanted:
            assert got_shared[index].tobytes() == oracle[index].tobytes(), index
            assert got_inline[index].tobytes() == oracle[index].tobytes(), index
    # Same books: the helper pool is invisible to every counter.
    assert dataclasses.asdict(shared_dec.stats) == dataclasses.asdict(inline_dec.stats)
    assert shared_cache.report() == inline_cache.report()
    assert eviction_order(shared_cache) == eviction_order(inline_cache)


@pytest.mark.parametrize("share_from", [SHARED, INLINE])
def test_near_duplicate_collapse_is_unchanged(monkeypatch, share_from):
    data = encoded_video(48, 12, 2, motion=0.2)
    threshold = 2.0
    calls = [list(range(48)), [5, 17, 29]]
    outputs, decoder, _ = run_calls(
        monkeypatch, share_from, data, calls, None, False, threshold=threshold
    )
    effective = decoder.signals.effective_map(threshold)
    assert any(effective[i] != i for i in range(48))
    oracle = reference_decode(data, range(48))
    for wanted, got in zip(calls, outputs):
        for index in wanted:
            assert got[index].tobytes() == oracle[effective[index]].tobytes(), index
    assert decoder.stats.frames_skipped_near_duplicate > 0


def test_stats_count_what_the_serial_walk_counted(monkeypatch):
    """Field by field, against numbers derived from the plan by hand."""
    data = encoded_video(30, 10, 0)
    _, records = read_container(data)
    (_,), decoder, cache = run_calls(monkeypatch, SHARED, data, [[13, 17]], None, False)
    plan = list(range(10, 18))  # the GOP's chain up to the last wanted frame
    assert dataclasses.asdict(decoder.stats) == {
        "frames_requested": 2,
        "frames_decoded": len(plan),
        "frames_reused_from_anchor_cache": 0,
        "frames_skipped_near_duplicate": 0,
        "bytes_read": sum(records[i].length for i in plan),
        "decode_calls": 1,
    }
    decoder.decode_frames([19])  # resumes from cached anchor 17
    assert decoder.stats.frames_decoded == len(plan) + 2
    assert decoder.stats.frames_reused_from_anchor_cache == 8
    assert decoder.stats.decode_calls == 2
    report = cache.report()
    assert (report["hits"], report["misses"]) == (8, 10)


# -- put_many == the same puts ------------------------------------------------------


class LoggingCache(AnchorCache):
    def __init__(self, budget):
        super().__init__(budget)
        self.victims = []

    def _evict_one(self):
        before = eviction_order(self)
        super()._evict_one()
        self.victims.extend(key for key in before if key not in self)


def anchor_frames():
    rng = np.random.default_rng(7)
    small = lambda: rng.integers(0, 255, size=(H, W, 3), dtype=np.uint8)  # noqa: E731
    frames = [(index, small()) for index in (0, 3, 6, 9, 12, 15, 18)]
    frames.insert(3, (3, frames[1][1]))  # already present: refreshed, not re-inserted
    frames.insert(5, (99, rng.integers(0, 255, size=(4 * H, W, 3), dtype=np.uint8)))  # oversize
    return frames


def test_put_many_is_the_same_sequence_of_puts(sanitized):
    books = []
    for batched in (False, True):
        cache = LoggingCache(3 * FRAME_BYTES)
        cache.put("other", 1, np.zeros((H, W, 3), np.uint8))
        frames = anchor_frames()
        before = buffer_sanitizer().guarded
        if batched:
            cache.put_many("v", frames)
        else:
            for index, frame in frames:
                cache.put("v", index, frame)
        for index, frame in frames:
            if index != 99:
                assert not frame.flags.writeable  # frozen, evicted later or not
        assert frames[5][1].flags.writeable  # the oversize frame never went in
        books.append(
            (
                cache.report(),
                eviction_order(cache),
                cache.victims,
                cache.bytes_used,
                buffer_sanitizer().guarded - before,
            )
        )
    assert books[0] == books[1]
    report, keys, victims, _, guarded = books[0]
    assert report["evictions"] == len(victims) == 5
    assert ("v", 99) not in keys and len(keys) == 3
    assert guarded == 7  # every inserted frame, once
    assert collect_report().clean()


# -- damaged payloads ------------------------------------------------------------------


def rebuilt(data, index, payload):
    md, records = read_container(data)
    parts = [(r.frame_type, data[r.offset : r.offset + r.length]) for r in records]
    parts[index] = (parts[index][0], payload)
    return write_container(md, parts, deltas=read_delta_track(data))


def damaged(data, index, how):
    record = read_container(data)[1][index]
    if how == "flipped-byte":
        middle = record.offset + record.length // 2
        return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1 :]
    payload = data[record.offset : record.offset + record.length]
    if how == "truncated-record":
        return rebuilt(data, index, payload[: len(payload) // 2])
    assert how == "over-long"
    return rebuilt(data, index, zlib.compress(zlib.decompress(payload) + b"\0" * 5, 1))


@pytest.mark.parametrize("share_from", [SHARED, INLINE], ids=["shared", "inline"])
@pytest.mark.parametrize("how", ["flipped-byte", "truncated-record", "over-long"])
def test_damaged_payload_is_a_container_error(monkeypatch, how, share_from):
    monkeypatch.setattr(incremental, "_SHARE_FROM_FRAMES", share_from)
    good = encoded_video(30, 10, 0, vid="clip-7")
    bad = damaged(good, 14, how)
    cache = AnchorCache(10**8)
    decoder = IncrementalDecoder(bad, cache=cache)
    with pytest.raises(ContainerError, match=r"'clip-7' frame 14\b"):
        decoder.decode_frames([19])
    # Nothing of the failed call is kept: no anchor, no count.
    assert len(cache) == 0 and cache.bytes_used == 0
    assert decoder.stats.frames_decoded == 0 and decoder.stats.decode_calls == 0
    # Frames that do not depend on the damage still decode, and the pool
    # serves the next call as if nothing had happened.
    assert decoder.decode_frames([9])[9].tobytes() == reference_decode(good, [9])[9].tobytes()
    after = IncrementalDecoder(good, cache=AnchorCache(10**8)).decode_frames([19, 29])
    oracle = reference_decode(good, [19, 29])
    assert all(after[i].tobytes() == oracle[i].tobytes() for i in (19, 29))


def test_damage_found_by_a_helper_is_raised_on_the_caller(monkeypatch):
    pool = helper_pool()
    if pool is None:
        pytest.skip("one core: there is no helper to find it")
    monkeypatch.setattr(incremental, "_SHARE_FROM_FRAMES", SHARED)
    caller = threading.current_thread()
    helper_failed = threading.Event()
    real_inflate = incremental._inflate
    failed_on = []

    def gated(payload, size, video_id, index):
        if threading.current_thread() is caller:
            # Hold the caller on its first frame until a helper has met
            # the damaged one.
            assert helper_failed.wait(10)
            return real_inflate(payload, size, video_id, index)
        try:
            return real_inflate(payload, size, video_id, index)
        except ContainerError:
            failed_on.append(threading.current_thread().name)
            helper_failed.set()
            raise

    monkeypatch.setattr(incremental, "_inflate", gated)
    bad = damaged(encoded_video(30, 10, 0, vid="clip-7"), 14, "truncated-record")
    cache = AnchorCache(10**8)
    with pytest.raises(ContainerError, match=r"'clip-7' frame 14\b"):
        IncrementalDecoder(bad, cache=cache).decode_frames([19])
    assert failed_on and all(name.startswith("sand-inflate") for name in failed_on)
    assert len(cache) == 0


# -- the pool under contention ------------------------------------------------------------


def test_four_threads_share_one_pool_cleanly(sanitized, monkeypatch):
    monkeypatch.setattr(incremental, "_SHARE_FROM_FRAMES", SHARED)
    pool = helper_pool()
    # Helpers are for idle cores; claim plenty, so that all four callers
    # keep submitting to the pool however few cores this host has.
    monkeypatch.setattr(incremental._HELPERS, "_free_cores", 16)
    submitted = []
    if pool is not None:
        real_submit = pool.submit

        def recording_submit(*args, **kwargs):
            future = real_submit(*args, **kwargs)
            submitted.append(future)
            return future

        monkeypatch.setattr(pool, "submit", recording_submit)

    videos = {
        f"t{n}": encoded_video(36, 12, 2 * (n % 2), vid=f"t{n}") for n in range(4)
    }
    calls = [[35], [1, 14, 30], list(range(0, 36, 5)), list(range(36)), [23, 11]]
    cache = AnchorCache(20 * FRAME_BYTES)  # the four videos evict each other
    failures = []

    def work(video_id, data):
        try:
            decoder = IncrementalDecoder(data, cache=cache)
            for _ in range(3):
                for wanted in calls:
                    got = decoder.decode_frames(wanted)
                    oracle = reference_decode(data, wanted)
                    for index in wanted:
                        if got[index].tobytes() != oracle[index].tobytes():
                            failures.append((video_id, index))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append((video_id, repr(exc)))

    threads = [threading.Thread(target=work, args=item) for item in videos.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert cache.bytes_used <= cache.budget_bytes
    # Every task a call submitted was cancelled or joined by that call.
    if pool is not None:
        assert submitted and all(future.done() for future in submitted)
        assert pool._work_queue.qsize() <= sum(f.cancelled() for f in submitted)
    report = collect_report()
    assert report.lock_order_violations == []
    assert report.write_after_share == []


# -- a one-core process -----------------------------------------------------------------------

_ONE_CORE_SCRIPT = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import hashlib, threading
import repro.codec.incremental as incremental
from repro.codec import AnchorCache, IncrementalDecoder
incremental._SHARE_FROM_FRAMES = 1
data = sys.stdin.buffer.read()
decoder = IncrementalDecoder(data, cache=AnchorCache(10**8))
digest = hashlib.sha256()
for wanted in ([35], [1, 14, 30], list(range(36))):
    got = decoder.decode_frames(wanted)
    for index in wanted:
        digest.update(got[index].tobytes())
print(digest.hexdigest(), incremental._HELPERS._pool, sorted(t.name for t in threading.enumerate()))
"""


def test_one_core_process_decodes_identically_without_a_helper():
    data = encoded_video(36, 12, 2)
    digest = hashlib.sha256()
    for wanted in ([35], [1, 14, 30], list(range(36))):
        oracle = reference_decode(data, wanted)
        for index in wanted:
            digest.update(oracle[index].tobytes())
    env = dict(os.environ, PYTHONPATH=str(SRC), SAND_SANITIZERS="1")
    done = subprocess.run(
        [sys.executable, "-c", _ONE_CORE_SCRIPT],
        input=data, capture_output=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split(maxsplit=1) == [
        digest.hexdigest(),
        "None ['MainThread']\n",
    ]

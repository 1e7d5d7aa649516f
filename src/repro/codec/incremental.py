"""The SVC1 decoder: GOP-aware decode reuse over an anchor cache.

A decoder that keeps nothing re-decodes the full anchor chain from each
touched GOP's keyframe on *every* call, so repeated sparse accesses to
the same video (demand feeding racing pre-materialization, multi-task
frame sharing, cache misses after ``release_raw_frames``) pay the S3/Fig 3
amplification again and again.

This module keeps the decoded *anchor* frames (I and P — the only frames
anything depends on) in a byte-budgeted cache keyed by
``(video_id, frame_index)``.  A second decode on the same video resumes
from the nearest cached anchor instead of the GOP keyframe.  The cache
evicts the frames of the finest checkpoint level first (the trailing
zero bits of the frame index), so past its budget it keeps an evenly
spaced grid of every video rather than the videos decoded last.  Over a
zero-budget cache the same decoder is the stateless one.

A decode call is **plan → inflate → reconstruct**.  Inflating the plan's
payloads is bytes in, bytes out — no lock, cache or stats object — and
``zlib`` releases the GIL, so the caller shares it with a few
process-wide helper threads (:class:`_InflateHelpers`); everything that
touches shared state stays on the caller's thread.

:func:`frames_to_decode_with_cache` is the pure planning counterpart: it
prices a decode against a set of cached anchors without performing it,
so the materialization planner and the cost model can reason about reuse
(``len(plan)`` frames at the cost model's per-frame decode rate).  With
an empty cache it degrades exactly to
:func:`~repro.codec.decoder.frames_to_decode`.
"""

from __future__ import annotations

import os
import zlib
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.locks import make_lock, make_rlock
from repro.analysis.sanitizers import buffer_sanitizer
from repro.codec.container import (
    ContainerError,
    FrameRecord,
    read_container,
    read_delta_track,
)
from repro.codec.decoder import DecodeStats, frames_to_decode
from repro.codec.encoder import bidirectional_predictor
from repro.codec.model import FrameType, GopStructure, VideoMetadata
from repro.codec.signals import FrameSignals

DEFAULT_ANCHOR_CACHE_BYTES = 64 * 1024 * 1024
_TOP_LEVEL = 64  # frame 0: no frame index reaches 2**64

# Work-sharing rule of the inflate step.  Waking a thread on another core
# takes long enough that a plan cut in halves leaves the caller waiting
# for a helper that is still waking, so the plan's frames go on one deque
# that caller and helpers all pull from, a frame (~100 us of zlib) at a
# time: whoever is awake does the work and nobody idles at the tail.  A
# plan too short for a helper to arrive in time stays inline.
_SHARE_FROM_FRAMES = 8
_MAX_HELPERS = 3


class _InflateHelpers:
    """The process-wide helper threads of the inflate step.

    Sized once, at first use: one helper per core of the process's
    affinity mask beyond the caller's, at most ``_MAX_HELPERS``; a
    process confined to one core has none and never starts a thread
    (the pool itself starts its threads on demand).  Helpers are for
    cores that would otherwise idle: every inflating decode call takes
    a core off the count, and a call gets helpers only for the cores
    still free — two decodes running side by side already fill two
    cores, and a helper there only adds wake-ups and GIL hand-offs.
    """

    def __init__(self) -> None:
        self._lock = make_lock("codec.inflate-helpers")
        self._pool: Optional[ThreadPoolExecutor] = None
        self._free_cores: Optional[int] = None  # None until first use

    def share(self, drain: Callable[[], None], frames: int) -> List["Future[None]"]:
        """Count the caller in and start ``drain`` on the helpers it may have."""
        with self._lock:
            if self._free_cores is None:
                self._free_cores = len(os.sched_getaffinity(0))
                if self._free_cores > 1:
                    self._pool = ThreadPoolExecutor(
                        min(self._free_cores - 1, _MAX_HELPERS),
                        thread_name_prefix="sand-inflate",
                    )
            self._free_cores -= 1
            spare = min(self._free_cores, _MAX_HELPERS)
        tasks: List["Future[None]"] = []
        if self._pool is not None and frames >= _SHARE_FROM_FRAMES:
            try:
                for _ in range(spare):
                    tasks.append(self._pool.submit(drain))
            except RuntimeError:
                # The interpreter is exiting under a daemon thread's decode
                # and its pools take no new work: the caller drains alone.
                pass
        return tasks

    def settle(self, tasks: List["Future[None]"]) -> List[BaseException]:
        """Count the caller out; cancel tasks that never started, join the
        rest and return what they raised."""
        with self._lock:
            assert self._free_cores is not None
            self._free_cores += 1
        joined = [task.exception() for task in tasks if not task.cancel()]
        return [failure for failure in joined if failure is not None]


_HELPERS = _InflateHelpers()


def _inflate(payload: memoryview, size: int, video_id: str, index: int) -> bytes:
    """One frame record's payload as exactly ``size`` raw bytes."""
    try:
        raw = zlib.decompress(payload, 15, size)
    except zlib.error as exc:
        raise ContainerError(
            f"video {video_id!r} frame {index}: payload does not inflate ({exc})"
        ) from exc
    if len(raw) != size:
        raise ContainerError(
            f"video {video_id!r} frame {index}: payload inflates to "
            f"{len(raw)} bytes, expected {size}"
        )
    return raw


def _checkpoint_level(index: int) -> int:
    """A frame's checkpoint level: the trailing zero bits of its absolute
    index, frame 0 above every other.  The frames at level ``>= n`` are
    the multiples of ``2**n``, so each level's grid halves the one below."""
    return (index & -index).bit_length() - 1 if index else _TOP_LEVEL


def frames_to_decode_with_cache(
    gop: GopStructure,
    indices: Iterable[int],
    num_frames: int,
    cached_anchors: Iterable[int],
) -> List[int]:
    """Frames that must be decoded for ``indices`` given cached anchors.

    ``cached_anchors`` are frame indices whose decoded pixels are already
    available (anchor frames only — B frames are never cached because
    nothing depends on them).  Each requested frame's anchor chain is
    truncated at the nearest cached anchor at-or-before it; a cached
    anchor that is itself requested costs nothing.  With no cached
    anchors this is exactly :func:`frames_to_decode`.
    """
    cached: Set[int] = set(cached_anchors)
    needed: Set[int] = set()
    for index in indices:
        if not 0 <= index < num_frames:
            raise IndexError(f"frame {index} out of range [0, {num_frames})")
        ftype = gop.frame_type(index, num_frames)
        chain = gop.anchor_chain(index)
        start = 0
        for pos in range(len(chain) - 1, -1, -1):
            if chain[pos] in cached:
                start = pos + 1
                break
        needed.update(chain[start:])
        if ftype is FrameType.B:
            next_anchor = gop.next_anchor(index, num_frames)
            assert next_anchor is not None
            if next_anchor not in cached:
                needed.add(next_anchor)
            needed.add(index)
        elif chain[-1] != index:
            # Trailing P at a non-anchor position: never cached, always
            # decoded off its (possibly cached) previous anchor.
            needed.add(index)
    return sorted(needed)


class AnchorCache:
    """Byte-budgeted cache of decoded anchor frames, shared across videos.

    Keys are ``(video_id, frame_index)``; values are the exact pixel
    arrays the decoder produced (callers treat decoded frames as
    immutable, so entries are shared by reference, not copied).  The
    cache never holds more than ``budget_bytes`` of pixels: inserting
    past the budget evicts entries, and a frame larger than the whole
    budget is simply not cached (graceful degradation to stateless
    decoding).  Thread safe — engine workers on different videos share
    one cache, and a service shares one across its plan windows.

    Eviction is by checkpoint level (``_checkpoint_level``), one LRU
    per level: an insert past the budget evicts the least recently used
    entry of the lowest level held, and :meth:`get` and :meth:`snapshot`
    freshen what they return within its level.  What survives is a
    nested power-of-two grid of every video, as fine as the budget
    affords, and a cached frame cuts short the decode chain of every
    later request at or after it.  Eviction never changes decoded bytes,
    only how often a decode resumes from a cached anchor.
    """

    def __init__(self, budget_bytes: int = DEFAULT_ANCHOR_CACHE_BYTES):
        if budget_bytes < 0:
            raise ValueError(f"budget must be >= 0, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        # level -> that level's entries, least recently used first; a
        # level that empties is dropped, so min() is the lowest level held.
        self._levels: Dict[int, "OrderedDict[Tuple[str, int], np.ndarray]"] = {}
        # video -> frame index -> the level holding it
        self._by_video: Dict[str, Dict[int, "OrderedDict[Tuple[str, int], np.ndarray]"]] = {}
        self._bytes = 0
        self._lock = make_rlock("anchor-cache")
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- accounting -----------------------------------------------------------
    @property
    def bytes_used(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        with self._lock:  # an insert or eviction may add or drop a level
            return sum(map(len, self._levels.values()))

    def __contains__(self, key: Tuple[str, int]) -> bool:
        with self._lock:
            return key[1] in self._by_video.get(key[0], ())

    # -- access ---------------------------------------------------------------
    def get(self, video_id: str, index: int) -> Optional[np.ndarray]:
        with self._lock:
            entries = self._by_video.get(video_id, {}).get(index)
            if entries is None:
                self.misses += 1
                return None
            entries.move_to_end((video_id, index))
            self.hits += 1
            return entries[(video_id, index)]

    def snapshot(self, video_id: str) -> Dict[int, np.ndarray]:
        """All cached anchors of one video, atomically, freshened as used.

        Returning the arrays (not just the indices) pins them for the
        caller, so concurrent eviction cannot invalidate a decode plan
        built from this snapshot.
        """
        with self._lock:
            out: Dict[int, np.ndarray] = {}
            for index, entries in self._by_video.get(video_id, {}).items():
                out[index] = entries[(video_id, index)]
                entries.move_to_end((video_id, index))
            return out

    def note_reuse(self, video_id: str, count: int, misses: int = 0) -> None:
        """Credit ``hits``/``misses`` for one decode's realized cache use.

        ``snapshot`` itself cannot tell which entries will end up
        truncating a decode plan, so the decoder reports the realized
        reuse here (``count`` anchors served from cache, ``misses``
        anchors it had to decode); without this the counters would sit
        at zero on the cache's primary access path.
        """
        if not count and not misses:
            return
        with self._lock:
            self.hits += count
            self.misses += misses

    def put(self, video_id: str, index: int, frame: np.ndarray) -> bool:
        """Insert one decoded anchor; returns False when it cannot fit."""
        with self._lock:
            self.put_many(video_id, [(index, frame)])
            return (video_id, index) in self

    def put_many(
        self, video_id: str, frames: Iterable[Tuple[int, np.ndarray]]
    ) -> None:
        """Insert decoded anchors in order: one lock hold per decode call.

        An inserted array is frozen (``writeable=False``): entries are
        shared zero-copy with every future hit, so the bytes must never
        change after insertion.  The flag travels with the object — the
        decoder's own handle is this same array — and every view
        :meth:`get`/:meth:`snapshot` hand out inherits it.  Each entry is
        inserted and *then* evicted for, one at a time, so hits,
        evictions and victims are those of the same sequence of
        :meth:`put` calls — an entry of the lowest level held may be its
        own victim.
        """
        with self._lock:
            sanitizer = buffer_sanitizer()
            for index, frame in frames:
                key = (video_id, index)
                level = _checkpoint_level(index)
                entries = self._levels.get(level)
                if entries is not None and key in entries:
                    entries.move_to_end(key)
                    continue
                if frame.nbytes > self.budget_bytes:
                    continue
                if frame.flags.writeable:
                    frame.setflags(write=False)
                if sanitizer is not None:
                    sanitizer.guard(frame, f"anchor-cache entry {video_id}[{index}]")
                if entries is None:
                    entries = self._levels[level] = OrderedDict()
                entries[key] = frame
                self._by_video.setdefault(video_id, {})[index] = entries
                self._bytes += frame.nbytes
                while self._bytes > self.budget_bytes:
                    self._evict_one()

    def clear(self) -> None:
        with self._lock:
            self._levels.clear()
            self._by_video.clear()
            self._bytes = 0

    def _evict_one(self) -> None:
        level = min(self._levels)
        entries = self._levels[level]
        (video_id, index), frame = entries.popitem(last=False)
        if not entries:
            del self._levels[level]
        self._bytes -= frame.nbytes
        videos = self._by_video[video_id]
        del videos[index]
        if not videos:
            del self._by_video[video_id]
        self.evictions += 1

    def report(self) -> Dict[str, Any]:
        """Counter snapshot: hits, misses, evictions, occupancy.

        The engine folds it into ``EngineStats.anchor_cache`` whenever its
        stats are read.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self),
                "bytes_used": self._bytes,
                "budget_bytes": self.budget_bytes,
            }


class IncrementalDecoder:
    """SVC1 decoder that resumes from cached anchors instead of keyframes.

    Consults an :class:`AnchorCache` before planning: anchors already in
    the cache are not re-decoded, and every freshly decoded anchor is
    published back so *future* calls — on this decoder or any other
    sharing the cache — reuse it.  Output pixels are byte-identical to a
    frame-by-frame walk from the keyframe (the cache stores the exact
    arrays the decode produced, and P/B reconstruction is deterministic
    given the reference pixels).

    With ``reuse_threshold > 0`` the decoder additionally collapses
    near-duplicate frames using the container's stored delta track: a
    non-anchor frame whose delta magnitude is strictly below the
    threshold returns its predecessor's *effective* frame's pixels
    instead of being decoded (see
    :meth:`repro.codec.signals.FrameSignals.effective_frame`).  The
    mapping is a pure function of the container bytes and the threshold
    — never of cache state — and anchors never collapse, so the reduced
    plan is always a subset of the full plan.  At threshold 0 no frame
    ever collapses and output is byte-identical to today.
    """

    def __init__(
        self,
        data: bytes,
        cache: Optional[AnchorCache] = None,
        reuse_threshold: float = 0.0,
    ):
        if reuse_threshold < 0:
            raise ValueError(f"reuse_threshold must be >= 0, got {reuse_threshold}")
        self._data = data
        # Zero-copy payload access: slicing a memoryview does not copy
        # the record bytes the way slicing ``bytes`` would.
        self._view = memoryview(data)
        metadata, records = read_container(data)
        self.metadata: VideoMetadata = metadata
        self._records: List[FrameRecord] = records
        self.cache = cache if cache is not None else AnchorCache()
        self.stats = DecodeStats()
        self.reuse_threshold = reuse_threshold
        self._signals: Optional[FrameSignals] = None

    @property
    def signals(self) -> FrameSignals:
        """Metadata-only codec signals for this container (lazy)."""
        if self._signals is None:
            self._signals = FrameSignals(
                self.metadata, read_delta_track(self._data)
            )
        return self._signals

    def _inflate_plan(self, plan: Sequence[int]) -> List[bytes]:
        """The plan's payloads as raw frame bytes, in plan order.

        Pure bytes in, bytes out: nothing here touches a lock, the cache
        or the stats, which is what lets helper threads take part of it
        while the caller holds whatever locks it holds.  The caller pulls
        frames too, cancels helper tasks that never started and joins
        those that did, so nobody waits on queued work.  A payload that
        does not inflate to one frame raises :class:`ContainerError` here,
        on the caller's thread, whoever hit it; the remaining frames are
        abandoned.
        """
        md = self.metadata
        size = md.height * md.width * 3
        records = [self._records[index] for index in plan]
        payloads = [self._view[r.offset : r.offset + r.length] for r in records]
        count = len(plan)
        raws: List[bytes] = [b""] * count
        slots = deque(range(count))

        def drain() -> None:
            try:
                while True:
                    try:
                        slot = slots.popleft()
                    except IndexError:
                        return
                    raws[slot] = _inflate(payloads[slot], size, md.video_id, plan[slot])
            except BaseException:
                slots.clear()  # one bad payload fails the call: stop the others
                raise

        tasks = _HELPERS.share(drain, count)
        try:
            drain()
        finally:
            failures = _HELPERS.settle(tasks)
        if failures:
            raise failures[0]
        return raws

    def decode_frames(self, indices: Sequence[int]) -> Dict[int, np.ndarray]:
        """Decode the requested frames, reusing cached anchor state."""
        wanted: Set[int] = set(indices)
        md = self.metadata
        gop = md.gop
        # Near-duplicate collapse: map each wanted frame to its effective
        # frame and decode only the effective set.  Pure in the container
        # bytes + threshold, so identical across cache states.
        if self.reuse_threshold > 0 and self.signals.has_deltas:
            effective = {
                i: self.signals.effective_frame(i, self.reuse_threshold)
                for i in wanted
            }
        else:
            effective = {i: i for i in wanted}
        targets: Set[int] = set(effective.values())
        anchors = self.cache.snapshot(md.video_id)
        plan = frames_to_decode_with_cache(gop, targets, md.num_frames, anchors)
        stateless = frames_to_decode(gop, targets, md.num_frames)
        skipped = 0
        if targets != wanted:
            # Decode passes saved by the collapse alone (cache-independent):
            # full plan for the raw request minus full plan for the targets.
            skipped = len(frames_to_decode(gop, wanted, md.num_frames)) - len(stateless)

        raws = self._inflate_plan(plan)

        # Reconstruct, one walk over the plan (sorted, so every reference
        # precedes its dependants).  The working set starts from the
        # cached anchors: references outside the plan resolve from there.
        # Frame kinds follow GopStructure.frame_type: offset 0 in the GOP
        # is I, other multiples of the anchor step are P off the previous
        # anchor, the rest are B between two anchors — or a trailing P
        # where the GOP or the video ends before the next anchor.
        decoded: Dict[int, np.ndarray] = dict(anchors)
        fresh: List[Tuple[int, np.ndarray]] = []
        between: List[Tuple[int, int, int, np.ndarray]] = []
        size, step = gop.size, gop.anchor_step
        shape = (md.height, md.width, 3)
        for index, raw in zip(plan, raws):
            residual = np.frombuffer(raw, dtype=np.uint8).reshape(shape)
            offset = index % size
            past_anchor = offset % step
            if past_anchor == 0:
                pixels = residual if offset == 0 else decoded[index - step] + residual
                fresh.append((index, pixels))
            else:
                prev_idx = index - past_anchor
                next_idx = prev_idx + step
                if next_idx < min(index - offset + size, md.num_frames):
                    between.append((index, prev_idx, next_idx, residual))
                    continue
                pixels = decoded[prev_idx] + residual
            decoded[index] = pixels
        for index, prev_idx, next_idx, residual in between:
            predictor = bidirectional_predictor(decoded[prev_idx], decoded[next_idx])
            decoded[index] = predictor + residual

        self.cache.put_many(md.video_id, fresh)
        # A plan is a subset of the stateless plan: the difference is
        # what the cached anchors saved.
        reused = len(stateless) - len(plan)
        self.cache.note_reuse(md.video_id, reused, misses=len(fresh))
        stats = self.stats
        stats.frames_requested += len(wanted)
        stats.decode_calls += 1
        stats.frames_decoded += len(plan)
        stats.frames_reused_from_anchor_cache += reused
        stats.frames_skipped_near_duplicate += skipped
        stats.bytes_read += sum(self._records[index].length for index in plan)
        return {index: decoded[effective[index]] for index in wanted}

    def decode_all(self) -> Dict[int, np.ndarray]:
        return self.decode_frames(range(self.metadata.num_frames))

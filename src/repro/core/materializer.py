"""Turning graph nodes into real arrays: the per-video materializer.

A :class:`VideoMaterializer` executes one video's concrete graph: it
decodes the union of wanted frames in a dependency-aware, GOP-coalesced
pass ("decode once", the paper's core amortization), memoizes
intermediate arrays in memory, consults/fills the persistent cache for
nodes on the caching frontier, and applies augmentation ops
reconstructed (and memoized) from the node's stored
``(name, config, params)`` identity.  Once a window's work for the video
is done, :meth:`release_raw_frames` drops decoded frames from memory —
the S5.4 step that keeps memory pressure bounded — while the decoder's
byte-budgeted anchor cache survives, so later sparse accesses resume
from the nearest cached anchor instead of the GOP keyframe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.locks import make_lock, make_rlock
from repro.analysis.sanitizers import buffer_sanitizer
from repro.augment.fusion import TrafficLedger, plan_for
from repro.augment.ops import AugmentOp
from repro.augment.registry import OpRegistry, default_registry
from repro.codec.container import ContainerError
from repro.codec.incremental import AnchorCache, IncrementalDecoder
from repro.codec.registry import VideoDecoder, open_decoder
from repro.codec.signals import FrameSignals
from repro.core.concrete_graph import ObjectNode, VideoGraph
from repro.storage.blobs import BlobError, decode_array, encode_array
from repro.storage.objectstore import (
    CorruptObjectError,
    ObjectStore,
    StorageFullError,
    TransientStorageError,
)


@dataclass
class MaterializeStats:
    """Counters for one materializer's work."""

    frames_decoded: int = 0
    frames_reused_from_anchor_cache: int = 0
    frames_skipped_near_duplicate: int = 0
    ops_applied: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_stores: int = 0
    corrupt_evictions: int = 0
    transient_errors: int = 0
    fallback_rematerializations: int = 0
    bytes_in_memory: int = 0
    # Memory traffic (passes over clip data, bytes moved).
    traffic: TrafficLedger = field(default_factory=TrafficLedger)

    def count_op(self, name: str) -> None:
        self.ops_applied[name] = self.ops_applied.get(name, 0) + 1


@lru_cache(maxsize=4096)
def _op_from_args_cached(
    registry: OpRegistry, name: str, config_json: str, params_json: str
) -> Tuple[AugmentOp, dict]:
    op = registry.create(name, json.loads(config_json))
    return op, json.loads(params_json)


def _op_from_args(
    registry: OpRegistry, op_args: Tuple[str, str, str]
) -> Tuple[AugmentOp, dict]:
    # Hot path: node applications repeat the same (name, config, params)
    # identity thousands of times per window; reconstructing the op and
    # re-parsing both JSON blobs each time dominated `_compute`.  Ops are
    # stateless once created and `apply` treats params as read-only, so
    # the memoized instances are safe to share.
    name, config_json, params_json = op_args
    return _op_from_args_cached(registry, name, config_json, params_json)


def _aug_chain(
    graph: VideoGraph, key: str
) -> Tuple[Tuple[Tuple[str, str, str], ...], Optional[ObjectNode]]:
    """The whole aug chain ending at ``key`` — op identities in
    application order — and the node below it.  Ignores memoization
    state, so it is a pure function of the graph."""
    ops: List[Tuple[str, str, str]] = []
    node = graph.nodes.get(key)
    while node is not None and node.kind == "aug" and node.op_args is not None:
        ops.append(node.op_args)
        node = graph.nodes.get(node.parents[0])
    return tuple(reversed(ops)), node


def leaf_spec(
    graph: VideoGraph, registry: OpRegistry, key: str
) -> Optional[Tuple[Tuple[int, ...], np.dtype]]:
    """Shape and dtype of a sample leaf from the plan alone.

    ``None`` when they are not static: clip-scoped ops reshape the
    collated clip, and an opaque op's output dtype is only known by
    running it.  Decoded frames are ``(1, H, W, 3)`` uint8.
    """
    node = graph.nodes[key]
    if node.kind != "sample" or node.clip_ops or node.clip_shape is None:
        return None
    chain, _ = _aug_chain(graph, node.parents[0])
    metadata = graph.metadata
    plan = plan_for(registry, chain, (1, metadata.height, metadata.width, 3))
    dtype = plan.out_dtype(np.dtype(np.uint8))
    return None if dtype is None else (node.clip_shape, dtype)


class VideoMaterializer:
    """Computes any node of one video's graph, with memoization and cache.

    ``frontier`` (from pruning) is the set of node keys that should be
    persisted to ``cache``; other nodes are held in memory only.  Thread
    safe: concurrent ``get`` calls on the same materializer serialize on
    an internal lock (one video = one subtree = effectively one worker,
    per the paper's thread-per-subtree assignment, but demand feeding may
    race a pre-materialization worker on the same video).
    """

    def __init__(
        self,
        graph: VideoGraph,
        encoded: bytes,
        cache: Optional[ObjectStore] = None,
        frontier: Optional[Set[str]] = None,
        registry: Optional[OpRegistry] = None,
        anchor_cache: Optional[AnchorCache] = None,
        decoder_wrapper=None,
        reuse_threshold: float = 0.0,
    ):
        if reuse_threshold < 0:
            raise ValueError(f"reuse_threshold must be >= 0, got {reuse_threshold}")
        self.graph = graph
        self._encoded = encoded
        self.cache = cache
        self.frontier = frontier or set()
        self.registry = registry or default_registry()
        self.anchor_cache = anchor_cache
        self.reuse_threshold = reuse_threshold
        # Lazy codec signals for near-dup slot reuse; False = probed and
        # unavailable (all-intra container with no delta track).
        self._signals: Optional[FrameSignals] = None
        self._signals_probed = False
        # Optional hook (video_decoder, video_id) -> decoder, used by the
        # fault-injection harness to wrap decoders in failure proxies.
        self.decoder_wrapper = decoder_wrapper
        self.stats = MaterializeStats()
        # Frontier leaves whose single planned use already took them
        # through ``get_into``: nothing will read them again, so
        # ``prematerialize`` skips them.  ``get``/``get_into`` ignore the
        # marks (a re-request recomputes, byte-identically).
        self.consumed: Set[str] = set()
        self._memo: Dict[str, np.ndarray] = {}
        self._leaf_specs: Dict[str, Optional[Tuple[Tuple[int, ...], np.dtype]]] = {}
        self._decoder: Optional[VideoDecoder] = None
        self._lock = make_rlock("materializer")
        # Pairs ``anchor_cache`` with the open decoder's cache, so a
        # re-point and a decode call never leave them apart.
        self._cache_lock = make_lock("materializer.anchor-cache")

    # -- public API ---------------------------------------------------------
    def get(self, key: str) -> np.ndarray:
        """Materialize one node (frames: (1,H,W,3); samples: (T,h,w,C))."""
        with self._lock:
            return self._get_locked(key)

    def get_into(self, key: str, out: np.ndarray) -> bool:
        """Materialize ``key`` directly into ``out`` (copy elision).

        The fast path computes a single-use sample leaf that is neither
        memoized nor in the store straight into the caller's buffer (the
        batch slot) without memoizing it — with fusion's pointwise
        epilogue, the write into ``out`` is the op's only output pass,
        and with a pooled delivery buffer as the destination, the
        trainer reads these exact bytes.  The caller *is* the leaf's one
        planned use, so a frontier leaf taken this way is not persisted
        either (a store nobody would read); it is marked ``consumed``
        once the write succeeded.  Anything shared, memoized, stored, or
        clip-op-bearing falls back to ``get`` + copy so caching and
        reuse decisions are unchanged.  Returns True when the fast path
        wrote ``out`` directly, False on the fallback copy (the engine's
        dataplane stats count both).
        """
        with self._lock:
            node = self.graph.nodes.get(key)
            if node is None:
                raise KeyError(f"{self.graph.video_id}: unknown node {key!r}")
            if (
                node.kind == "sample"
                and not node.clip_ops
                and len(node.uses) <= 1
                and key not in self._memo
                and (self.cache is None or key not in self.cache)
            ):
                self._compute_sample(node, out=out)
                if self.cache is not None and key in self.frontier:
                    self.consumed.add(key)  # a store nobody would read, elided
                sanitizer = buffer_sanitizer()
                if sanitizer is not None:
                    # The slot now holds the leaf's final bytes; anything
                    # rewriting it before the trainer consumes the batch
                    # is a write-after-share on the copy-elision path.
                    sanitizer.guard(
                        out, f"copy-elision slot {self.graph.video_id}:{key}"
                    )
                return True
            array = self._get_locked(key)
            np.copyto(out, array, casting="no")
            self.stats.traffic.charge(out.nbytes, allocated=False)
            return False

    def leaf_spec(self, key: str) -> Optional[Tuple[Tuple[int, ...], np.dtype]]:
        """:func:`leaf_spec` of this video's graph, memoized."""
        try:
            return self._leaf_specs[key]
        except KeyError:
            spec = self._leaf_specs[key] = leaf_spec(self.graph, self.registry, key)
            return spec

    def prematerialize(self, key: str) -> bool:
        """``get`` ahead of use, for the pre-materialization worker.

        False, with nothing done, when the key's only planned use
        already consumed it: decided under the lock, so a worker that
        waited for that very ``get_into`` does not then compute and
        persist the leaf behind the trainer's back.
        """
        with self._lock:
            if key in self.consumed:
                return False
            self.get(key)
            return True

    def hold_memoized(self, key: str) -> bool:
        """Take the lock *without waiting*, and keep it, if ``get`` /
        ``get_into`` of ``key`` is a plain copy out of the memo: no
        decode, no store read and no store write owed.

        False — and nothing held — when the lock is contended or the key
        would need work.  While the hold lasts the answer cannot change
        (``release_all`` needs the lock), so a caller that must not wait
        holds every materializer of a batch, assembles, and then calls
        :meth:`unhold` on each.  The lock is reentrant: ``get`` and
        ``get_into`` run unchanged under the hold.
        """
        if not self._lock.acquire(blocking=False):
            return False
        if key in self._memo and not self._owes_persist(key):
            return True
        self._lock.release()
        return False

    def unhold(self) -> None:
        self._lock.release()

    def materialize_frontier(self) -> int:
        """Compute and persist every frontier node; returns nodes stored."""
        stored = 0
        for key in sorted(self.frontier):
            self.get(key)
            stored += 1
        return stored

    def release_raw_frames(self) -> int:
        """Drop decoded frames from memory (S5.4).

        The decoder survives the release: its anchor cache (byte-budgeted
        on its own) is what makes the *next* sparse access to this video
        cheap, so dropping raw frames no longer forfeits anchor state.
        """
        with self._lock:
            dropped = 0
            for key in list(self._memo):
                if self.graph.nodes[key].kind == "frame":
                    self.stats.bytes_in_memory -= self._memo[key].nbytes
                    del self._memo[key]
                    dropped += 1
            self._check_release_postconditions()
            return dropped

    def _check_release_postconditions(self) -> None:
        """Sanitizer leak check: release must leave no raw frame behind
        and the byte accounting must match the memo's actual contents."""
        sanitizer = buffer_sanitizer()
        if sanitizer is None:
            return
        survivors = [
            key for key in self._memo if self.graph.nodes[key].kind == "frame"
        ]
        if survivors:
            sanitizer.note_leak(
                f"{self.graph.video_id}: {len(survivors)} raw frame(s) "
                f"survived release_raw_frames: {sorted(survivors)[:4]}"
            )
        actual = sum(array.nbytes for array in self._memo.values())
        if actual != self.stats.bytes_in_memory:
            sanitizer.note_leak(
                f"{self.graph.video_id}: bytes_in_memory accounting drift "
                f"({self.stats.bytes_in_memory} tracked vs {actual} actual)"
            )

    def use_anchor_cache(self, cache: AnchorCache) -> None:
        """Decode through ``cache`` from now on, the open decoder too.

        Safe at any time: anchors are keyed by video id and decoded bytes
        never depend on which cache held them, so only reuse changes.
        Does not wait for the materializer's lock (a decode holds it for
        a whole video): a decode already running finishes on the cache
        it had, and every decode call re-points the decoder first.
        """
        with self._cache_lock:
            self.anchor_cache = cache
            self._point_decoder_locked()

    def _point_decoder_locked(self) -> None:
        decoder = getattr(self._decoder, "inner", self._decoder)  # under a fault proxy
        if isinstance(decoder, IncrementalDecoder) and self.anchor_cache is not None:
            decoder.cache = self.anchor_cache

    def release_all(self) -> None:
        with self._lock:
            self._memo.clear()
            self.stats.bytes_in_memory = 0
            self._decoder = None

    def in_memory(self, key: str) -> bool:
        with self._lock:
            return key in self._memo

    # -- internals ------------------------------------------------------------
    def _get_locked(self, key: str) -> np.ndarray:
        if key in self._memo:
            # Frames land in the memo in bulk (one decode pass covers the
            # whole wanted set), so a memoized frontier object may not
            # have been persisted yet — do it on first access.
            self._persist_if_frontier(key, self._memo[key])
            return self._memo[key]
        node = self.graph.nodes.get(key)
        if node is None:
            raise KeyError(f"{self.graph.video_id}: unknown node {key!r}")

        array = self._load_cached(key)
        if array is not None:
            self._remember(key, array)
            return array

        array = self._compute(node)
        if key not in self._memo:
            self._remember(key, array)
        self._persist_if_frontier(key, array)
        return array

    def _load_cached(self, key: str) -> Optional[np.ndarray]:
        """Fetch+decode a persisted object; ``None`` means recompute.

        Every failure mode degrades to re-materialization from the
        source video rather than poisoning the batch: a corrupt blob
        (checksum mismatch → already quarantined by the store, or a
        decode failure → evicted here) and a transient I/O error (the
        blob survives; only this read gives up) both report ``None``.
        """
        if self.cache is None or key not in self.cache:
            return None
        # The store's zero-copy read (packed segments serve a
        # memoryview over the segment mmap): the blob decompresses
        # straight out of the page cache with no intermediate copy.
        try:
            blob = self.cache.get_view(key)
        except CorruptObjectError:
            # The store quarantined the key; recompute from source.
            self.stats.corrupt_evictions += 1
            self.stats.fallback_rematerializations += 1
            return None
        except TransientStorageError:
            self.stats.transient_errors += 1
            self.stats.fallback_rematerializations += 1
            return None
        if blob is None:
            return None
        try:
            array = decode_array(blob)
            if isinstance(blob, memoryview) and array.size and np.shares_memory(
                array, np.frombuffer(blob, dtype=np.uint8)
            ):
                # An uncompressed blob decodes as a view over the mmap,
                # which later store mutations invalidate — detach it.
                # (Compressed blobs already copied during decompress.)
                array = np.array(array, copy=True)
        except BlobError:
            # Corrupted cache entry that slipped past the store's CRC
            # (e.g. in-flight corruption): drop it and recompute — the
            # graph can always regenerate.
            self.cache.delete(key)
            self.stats.corrupt_evictions += 1
            self.stats.fallback_rematerializations += 1
            return None
        self.stats.cache_hits += 1
        return array

    def _owes_persist(self, key: str) -> bool:
        return self.cache is not None and key in self.frontier and key not in self.cache

    def _persist_if_frontier(self, key: str, array: np.ndarray) -> None:
        if not self._owes_persist(key):
            return
        try:
            self.cache.put(key, encode_array(array))
            self.stats.cache_stores += 1
        except StorageFullError:
            # The cache manager is responsible for eviction; if space is
            # exhausted mid-window we keep the object in memory and
            # recompute later rather than fail the pipeline.
            pass
        except TransientStorageError:
            # Flaky write: skip the persist — the object stays in memory
            # and a later access re-attempts the store.
            self.stats.transient_errors += 1

    def _remember(self, key: str, array: np.ndarray) -> None:
        self._memo[key] = array
        self.stats.bytes_in_memory += array.nbytes

    def _compute(self, node: ObjectNode) -> np.ndarray:
        if node.kind == "video":
            raise ValueError("the encoded video is not a materializable array")
        if node.kind == "frame":
            self._decode_wanted()
            if node.key not in self._memo:  # pragma: no cover - defensive
                raise RuntimeError(f"decode did not produce {node.key}")
            return self._memo[node.key]
        if node.kind == "aug":
            assert node.op_args is not None
            return self._run_chain(node)
        if node.kind == "sample":
            return self._compute_sample(node)
        raise ValueError(f"unknown node kind {node.kind!r}")

    def _single_use_aug(self, key: str) -> bool:
        """Is ``key`` a single-use aug node nothing else will read?

        Only such a node may go unmaterialized — folded into its
        descendant's fused plan, computed straight into a clip slot, or
        skipped for a near-duplicate neighbor: it must not be memoized
        or persisted already, not on the caching frontier, and not
        shared with any other path (``ref_count > 1``).  Everything else
        materializes normally, which keeps caching/pruning decisions —
        and the concrete graph's node-merge keys — exactly as they were.
        """
        node = self.graph.nodes.get(key)
        return (
            node is not None
            and node.kind == "aug"
            and node.ref_count <= 1
            and key not in self._memo
            and key not in self.frontier
            and (self.cache is None or key not in self.cache)
        )

    def _run_chain(
        self, node: ObjectNode, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Run the longest skip-safe aug chain ending at ``node`` as one
        fused plan over its base — into ``out`` when the plan can write
        there (the pointwise epilogue), else into a fresh array."""
        chain = [node]
        base_key = node.parents[0]
        while self._single_use_aug(base_key):
            chain.append(self.graph.nodes[base_key])
            base_key = chain[-1].parents[0]
        chain.reverse()
        base = self._get_locked(base_key)
        plan = plan_for(
            self.registry, tuple(n.op_args for n in chain), base.shape
        )
        for link in chain:
            self.stats.count_op(link.op_args[0])
        return plan.run(base, self.stats.traffic, out=out)

    def _compute_sample(
        self, node: ObjectNode, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Collate a sample into one preallocated buffer (or ``out``)."""
        traffic = self.stats.traffic
        parents = node.parents
        first = self._get_locked(parents[0])
        clip_shape = (len(parents),) + first.shape[1:]
        use_out = (
            out is not None
            and not node.clip_ops
            and out.shape == clip_shape
            and out.dtype == first.dtype
        )
        if use_out:
            clip = out
        else:
            clip = np.empty(clip_shape, dtype=first.dtype)
            traffic.bytes_allocated += clip.nbytes
        clip[0:1] = first
        traffic.bytes_copied += first.nbytes
        prev_identity = self._slot_identity(parents[0])
        for t, parent_key in enumerate(parents[1:], start=1):
            identity = self._slot_identity(parent_key)
            if (
                identity is not None
                and identity == prev_identity
                and self._single_use_aug(parent_key)
            ):
                # Near-duplicate slot reuse: this parent's chain produces
                # byte-identical output to the previous slot (same
                # effective source frame, same op identities), so copy
                # the neighbor instead of re-running the chain.
                np.copyto(clip[t : t + 1], clip[t - 1 : t])
                traffic.note_slot_reuse(
                    clip[t].nbytes, passes_skipped=len(identity[1])
                )
            else:
                self._materialize_parent_into(parent_key, clip[t : t + 1])
            prev_identity = identity
        traffic.clip_passes += 1  # the collation write
        self.stats.count_op("collate")
        result: np.ndarray = clip
        for op_args in node.clip_ops:
            op, params = _op_from_args(self.registry, op_args)
            self.stats.count_op(op.name)
            applied = op.apply(result, params)
            if applied is result:  # identity returns are free
                traffic.identity_skips += 1
            else:
                traffic.charge(applied.nbytes)
            result = applied
        if use_out:
            return out
        if out is not None:
            np.copyto(out, result, casting="no")
            traffic.charge(out.nbytes, allocated=False)
            return out
        return result

    def _frame_signals(self) -> Optional[FrameSignals]:
        """Codec signals for this video, or None (no delta track / intra)."""
        if not self._signals_probed:
            self._signals_probed = True
            try:
                self._signals = FrameSignals.from_container(self._encoded)
            except ContainerError:
                # All-intra SVI1 (or any non-SVC1 container): no signals.
                self._signals = None
        return self._signals

    def _slot_identity(
        self, key: str
    ) -> Optional[Tuple[Tuple[str, object], Tuple[Tuple[str, str, str], ...]]]:
        """Content identity of a collation parent for near-dup slot reuse.

        Walks the parent's *full* augmentation chain down to its base
        (ignoring memoization state, so the identity is a pure function
        of the graph and the container bytes) and keys the base frame by
        its threshold-collapsed effective index.  Two parents with equal
        identities produce byte-identical output.  None disables reuse
        for this slot (threshold off, no delta track, or unrecognized
        chain shape).
        """
        if self.reuse_threshold <= 0:
            return None
        signals = self._frame_signals()
        if signals is None or not signals.has_deltas:
            return None
        ops, node = _aug_chain(self.graph, key)
        if node is None or node.kind == "aug":  # pragma: no cover - malformed graph
            return None
        if node.kind == "frame" and node.frame_index is not None:
            base: Tuple[str, object] = (
                "frame",
                signals.effective_frame(node.frame_index, self.reuse_threshold),
            )
        else:
            base = ("key", node.key)
        return (base, ops)

    def _materialize_parent_into(self, key: str, slot: np.ndarray) -> None:
        """Write one collation parent into its slot of the clip buffer.

        Single-use aug chains compute straight into the slot through
        their fused plan (the pointwise epilogue writes there); anything
        memoized, cached, or shared materializes normally and copies.
        """
        if self._single_use_aug(key):
            array = self._run_chain(self.graph.nodes[key], out=slot)
            if array is slot:
                return
        else:
            array = self._get_locked(key)
        np.copyto(slot, array, casting="no")
        self.stats.traffic.bytes_copied += slot.nbytes

    def _decode_wanted(self) -> None:
        """Decode the union of wanted frames, GOP by GOP, and memoize them.

        Frames already persisted in the object cache skip their payload
        reads entirely; the rest are coalesced per GOP and fed to the
        (persistent) decoder one GOP at a time, so anchor-cache reuse is
        priced per keyframe interval and decode stats accumulate as
        deltas — a decoder re-opened after ``release_all`` no longer
        resets the materializer's counters.
        """
        missing = [
            n.frame_index
            for n in self.graph.frames()
            if n.key not in self._memo and n.frame_index is not None
        ]
        if self.cache is not None:
            # Frames already persisted (frontier at frame level) load from
            # cache instead of decode; only truly absent ones decode.
            pending = []
            for index in missing:
                key = f"frame:{self.graph.video_id}:{index}"
                array = self._load_cached(key)
                if array is not None:
                    self._remember(key, array)
                else:
                    pending.append(index)
            missing = pending
        if not missing:
            return
        if self._decoder is None:
            self._decoder = open_decoder(
                self._encoded,
                anchor_cache=self.anchor_cache,
                reuse_threshold=self.reuse_threshold,
            )
            if self.decoder_wrapper is not None:
                self._decoder = self.decoder_wrapper(
                    self._decoder, self.graph.video_id
                )
        with self._cache_lock:
            self._point_decoder_locked()
        gop = self.graph.metadata.gop
        by_gop: Dict[int, List[int]] = {}
        for index in missing:
            by_gop.setdefault(gop.gop_of(index), []).append(index)
        for gop_id in sorted(by_gop):
            before = self._decoder.stats.frames_decoded
            before_reused = self._decoder.stats.frames_reused_from_anchor_cache
            before_skipped = self._decoder.stats.frames_skipped_near_duplicate
            frames = self._decoder.decode_frames(by_gop[gop_id])
            self.stats.frames_decoded += (
                self._decoder.stats.frames_decoded - before
            )
            self.stats.frames_reused_from_anchor_cache += (
                self._decoder.stats.frames_reused_from_anchor_cache - before_reused
            )
            self.stats.frames_skipped_near_duplicate += (
                self._decoder.stats.frames_skipped_near_duplicate - before_skipped
            )
            for index, pixels in frames.items():
                self._remember(
                    f"frame:{self.graph.video_id}:{index}", pixels[np.newaxis, ...]
                )

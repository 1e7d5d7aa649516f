"""Layer probes: one stable number per layer, independent of any workload.

Single thread, fixed seeded inputs (the first 16 videos of seed 0's
corpus), public functions timed directly.  Each probe repeats its call for
at least 0.15 s, five times, and reports the median rate.  Run as
``python bench/probes.py [--smoke]``; prints one JSON object.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import adapter
import corpus
from workloads import K_EPOCHS, SLOWFAST

REPEATS = 5
MIN_S = 0.15  # one timing lasts at least this long


def _rate(work: Callable[[], float], repeats: int, min_s: float) -> float:
    """Median over ``repeats`` timings of units of work per second; ``work``
    returns the units it did and is called until ``min_s`` has passed."""
    rates = []
    for _ in range(repeats):
        units, started = 0.0, time.perf_counter()
        while True:
            units += work()
            elapsed = time.perf_counter() - started
            if elapsed >= min_s:
                break
        rates.append(units / elapsed)
    return statistics.median(rates)


def run(smoke: bool) -> Dict[str, float]:
    repeats, min_s = (1, MIN_S / 10) if smoke else (REPEATS, MIN_S)
    directory, _ = corpus.ensure_corpus(4 if smoke else 16, seed=0)
    dataset = adapter.load_dataset_dir(directory)
    videos = dataset.video_ids
    encoded = [dataset.get_bytes(v) for v in videos]
    out: Dict[str, float] = {}

    def probe(name: str, call: Callable[[], Any], units: float = 1.0) -> None:
        def work() -> float:
            call()
            return units
        out[name] = _rate(work, repeats, min_s)

    # codec: the clip spans a slowfast sample asks for, on every video.
    spans = [[start + 4 * i for i in range(8)] for start in (0, 29, 58)]

    def decode(cache: Any) -> None:
        for data in encoded:
            decoder = adapter.IncrementalDecoder(data, cache=cache)
            for indices in spans:
                decoder.decode_frames(indices)

    frames = float(len(encoded) * len(spans) * len(spans[0]))
    probe("probe.codec.cold_frames_per_s", lambda: decode(adapter.AnchorCache(1 << 30)), frames)
    warm = adapter.AnchorCache(1 << 30)
    decode(warm)
    probe("probe.codec.anchored_frames_per_s", lambda: decode(warm), frames)

    # augment: the per-frame fused chains of one planned window.
    config = [SLOWFAST.config()]
    plan = adapter.build_plan_window(config, dataset, 0, K_EPOCHS, seed=0)
    decoded = adapter.IncrementalDecoder(encoded[0]).decode_frames(spans[0])
    frame = decoded[0][None]
    chains = _aug_chains(plan, limit=64)
    ledger = adapter.TrafficLedger()
    registry = adapter.default_registry()

    def augment(chain: Any, source: Any = frame) -> Any:
        return adapter.plan_for(registry, chain, source.shape).run(source, ledger)

    probe("probe.augment.fused_clips_per_s", lambda: [augment(c) for c in chains],
          len(chains) / SLOWFAST.frames)

    # blobs: a real augmented clip, so zlib sees real content.
    clip = np.ascontiguousarray(np.concatenate(
        [augment(chain, decoded[index][None]) for chain, index in zip(chains, spans[0])]))
    blob = adapter.encode_array(clip)
    probe("probe.blobs.encode_mb_per_s", lambda: adapter.encode_array(clip), clip.nbytes / 1e6)
    probe("probe.blobs.decode_mb_per_s", lambda: adapter.decode_array(blob), clip.nbytes / 1e6)

    # storage: memory tier vs packed directory, blob-sized objects.
    keys = [f"probe:{i}" for i in range(256)]
    scratch = corpus.CACHE / f"probe-store-{os.getpid()}"

    def put(store: Any) -> None:
        for key in keys:
            store.put(key, blob)
        store.flush()

    def get(store: Any) -> None:
        for key in keys:
            if store.get_view(key) is None:
                raise RuntimeError(f"probe store lost {key}")

    tiers = {
        "mem": lambda: adapter.LocalStore(1 << 30),
        "pack": lambda: adapter.LocalStore(1 << 30, root=scratch, pack_threshold=1 << 20),
    }
    try:
        for tier, make in tiers.items():
            store = make()
            probe(f"probe.storage.{tier}_put_ops_per_s", lambda: put(store), len(keys))
            probe(f"probe.storage.{tier}_get_ops_per_s", lambda: get(store), len(keys))
            store.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # wire: one ~300 KB batch, framed and parsed.
    batch = np.ascontiguousarray(np.stack([clip] * 4))
    metadata = {"task": "probe", "epoch": 0, "iteration": 0, "videos": videos[:4]}
    head, body = adapter.batch_frame_parts(metadata, batch)
    payload = bytearray(head[adapter.HEADER_SIZE:]) + bytearray(body)
    probe("probe.wire.encode_batches_per_s", lambda: adapter.batch_frame_parts(metadata, batch))
    probe("probe.wire.decode_batches_per_s", lambda: adapter.decode_batch_payload(payload))

    # dataplane, tenancy, sharding: the uncontended fast paths.
    pool = adapter.BufferPool("probe")
    probe("probe.dataplane.lease_cycle_ops_per_s",
          lambda: pool.acquire(batch.shape, batch.dtype).release())
    admission = adapter.AdmissionController()
    probe("probe.tenancy.admit_ops_per_s",
          lambda: admission.admit("probe", nbytes=batch.nbytes).release())
    ring = adapter.HashRing([f"shard-{i}" for i in range(4)])
    probe("probe.sharding.route_ops_per_s", lambda: ring.preference("slowfast/3/7"))

    # plan: one window over the probe corpus, scaled to 100 videos.
    probe("probe.plan.build_ms_per_100_videos",
          lambda: adapter.build_plan_window(config, dataset, 0, K_EPOCHS, seed=0))
    probe("probe.plan.prune_ms_per_100_videos", lambda: adapter.prune_plan(plan, 1 << 20))
    for name in ("probe.plan.build_ms_per_100_videos", "probe.plan.prune_ms_per_100_videos"):
        out[name] = 1e3 / out[name] * 100.0 / len(videos)
    return out


def _aug_chains(plan: Any, limit: int) -> List[Tuple[Tuple[str, str, str], ...]]:
    """``(name, config, params)`` chains from frame to last aug node."""
    chains = []
    for graph in plan.graphs.values():
        inner = {parent for node in graph.nodes.values() if node.kind == "aug"
                 for parent in node.parents}
        for node in graph.nodes.values():
            if node.kind != "aug" or node.key in inner:
                continue
            chain = []
            while node.kind == "aug":
                chain.append(node.op_args)
                node = graph.nodes[node.parents[0]]
            chains.append(tuple(reversed(chain)))
            if len(chains) == limit:
                return chains
    return chains


if __name__ == "__main__":
    print(json.dumps(run("--smoke" in sys.argv[1:])))

"""The input corpus: generated from the seed, encoded once, kept on disk.

Encoding videos is input generation, not program work, so it happens
before any clock starts.  Videos are written to a pool keyed by the
corpus parameters and the seed; a workload that wants the first N videos
gets a directory of hard links to them, because ``load_dataset_dir``
loads whatever the directory holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import adapter

# Long enough for several GOPs per clip span, small enough to encode in
# seconds: 90-150 frames of 96x64 at a GOP of 30.
SPEC = dict(min_frames=90, max_frames=150, width=96, height=64, gop_size=30)
CACHE = Path(__file__).resolve().parent / ".cache"


def _dataset(videos: int, seed: int) -> adapter.SyntheticDataset:
    return adapter.SyntheticDataset(adapter.DatasetSpec(num_videos=videos, seed=seed, **SPEC))


def _encode(videos: int, seed: int, pool: str, video_ids: List[str]) -> None:
    dataset = _dataset(videos, seed)
    for video_id in video_ids:
        target = Path(pool) / f"{video_id}.svc"
        partial = target.with_suffix(".part")
        partial.write_bytes(dataset.get_bytes(video_id))
        partial.rename(target)


def ensure_corpus(videos: int, seed: int) -> Tuple[Path, float]:
    """The directory holding the first ``videos`` videos of ``seed``'s
    corpus, and the seconds spent generating what was not there yet."""
    started = time.perf_counter()
    digest = hashlib.sha256(json.dumps([SPEC, seed], sort_keys=True).encode()).hexdigest()[:12]
    pool = CACHE / f"corpus-{digest}"
    pool.mkdir(parents=True, exist_ok=True)
    video_ids = _dataset(videos, seed).video_ids
    todo = [v for v in video_ids if not (pool / f"{v}.svc").exists()]
    if todo:
        # One plain child per core, each waited for: a multiprocessing pool
        # would leave its resource tracker running until after this process.
        workers = min(len(todo), len(os.sched_getaffinity(0)))
        children = [
            subprocess.Popen([sys.executable, __file__,
                              json.dumps([videos, seed, str(pool), todo[i::workers]])])
            for i in range(workers)]
        try:
            if any([child.wait() for child in children]):
                raise SystemExit("bench: encoding the corpus failed")
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
    view = pool / f"first-{videos}"
    if not view.is_dir():
        staging = pool / f"first-{videos}.{os.getpid()}"
        staging.mkdir()
        for video_id in video_ids:
            os.link(pool / f"{video_id}.svc", staging / f"{video_id}.svc")
        staging.rename(view)
    return view, time.perf_counter() - started


if __name__ == "__main__":
    _encode(*json.loads(sys.argv[1]))

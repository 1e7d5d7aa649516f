"""The benchmark's own closed-loop trainer and its statistics.

A trainer waits for its batch before it can step, so the load is a
closed loop: one thread asks for its task's batches in ``(epoch,
iteration)`` order, "trains" for a fixed GPU step, gives the batch back
and asks again.

*Stall* is the time from the instant the trainer is ready for its next
batch (previous step done, batch given back) to the batch in hand.  It
includes the ``iterations_per_epoch`` lookup at each epoch start, which
is where the service re-plans: a window roll is charged to the trainer
that waits for it.  The CRC of every batch is taken after the stall is
recorded, inside the GPU step, and the step's sleep is shortened by it.
"""

from __future__ import annotations

import math
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Key = Tuple[str, int, int]  # (task, epoch, iteration)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Trainer(threading.Thread):
    """One synthetic trainer.

    ``fetch(task, epoch, iteration)`` returns ``(array, give_back)``;
    ``iterations(task, epoch)`` the epoch's length.  The trainer starts at
    ``first_epoch``; whoever starts the thread sets ``start_ns`` first.  It
    stops at ``deadline_ns`` (checked after each batch) or after
    ``max_epochs`` epochs, whichever is set.  ``cycle`` makes epoch numbers
    wrap, for workloads that re-read one window.
    """

    def __init__(
        self,
        name: str,
        task: str,
        fetch: Callable[[str, int, int], Tuple[Any, Callable[[], None]]],
        iterations: Callable[[str, int], int],
        step_s: float,
        tracer: Any,
        observe: Callable[[], None],
        first_epoch: int = 0,
        max_epochs: Optional[int] = None,
        cycle: Optional[int] = None,
    ):
        super().__init__(name=f"bench-{name}", daemon=True)
        self.trainer_name = name
        self.task = task
        self._fetch = fetch
        self._iterations = iterations
        self._step_ns = int(step_s * 1e9)
        self._tracer = tracer
        self._observe = observe
        self._first_epoch = first_epoch
        self._max_epochs = max_epochs
        self._cycle = cycle
        self.start_ns = 0
        self.deadline_ns: Optional[int] = None
        self.samples: List[Tuple[int, int, int]] = []  # (ready, batch in hand, step done) ns
        self.requests = 0
        self.frames = 0
        self.bytes = 0
        self.crcs: Dict[Key, int] = {}
        self.errors: List[str] = []

    def run(self) -> None:
        clock = time.perf_counter_ns
        ready = self.start_ns
        turn = 0
        while self._max_epochs is None or turn < self._max_epochs:
            epoch = self._first_epoch + turn
            if self._cycle:
                epoch %= self._cycle
            iteration, length = 0, 1
            while iteration < length:
                key = (self.task, epoch, iteration)
                self.requests += 1
                self._tracer.open_stall(f"{self.trainer_name}:{self.task}/{epoch}/{iteration}", ready)
                try:
                    if iteration == 0:
                        length = self._iterations(self.task, epoch)
                    array, give_back = self._fetch(*key)
                except Exception as exc:  # a failed request is a counted result
                    self._tracer.close_stall(clock())
                    self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
                    if len(self.errors) >= 8:
                        return
                    ready = clock()
                    iteration += 1
                    continue
                got = clock()
                self._tracer.close_stall(got)
                crc = zlib.crc32(array)
                if self.crcs.setdefault(key, crc) != crc:
                    self.errors.append(f"{key}: bytes changed between two reads")
                self.frames += array.shape[0] * array.shape[1]
                self.bytes += array.nbytes
                self._observe()
                remaining = self._step_ns - (clock() - got)
                if remaining > 0:
                    time.sleep(remaining / 1e9)
                give_back()
                done = clock()
                self.samples.append((ready, got, done))
                ready = done
                if self.deadline_ns is not None and ready >= self.deadline_ns:
                    return
                iteration += 1
            turn += 1


def summarize(trainers: List[Trainer], marks: List[Tuple[int, float]],
              slowdown: float = 1.0) -> Dict[str, List[float]]:
    """The end-to-end numbers of each segment of a timed section.

    ``marks`` are ``(wall ns, process CPU s)`` readings at the segment
    boundaries; a batch belongs to the segment in which it came to hand.
    Time spent in the program (stall, CPU) is divided by ``slowdown``, the
    host's speed during this run against a quiet host (``hostspeed.py``);
    time spent stepping is not, because a GPU has no noisy neighbour.
    """
    out: Dict[str, List[float]] = {}
    for (start, cpu_from), (end, cpu_to) in zip(marks, marks[1:]):
        rows = [s for t in trainers for s in t.samples if start <= s[1] < end]
        stalls = [(got - ready) / 1e6 / slowdown for ready, got, _done in rows]
        step_ms = sum(done - got for _ready, got, done in rows) / 1e6
        batches = max(1, len(rows))
        # Each trainer is stalled or stepping: take the correction of its
        # stalls out of the segment's wall time.
        wall_ms = (end - start) / 1e6 - sum(stalls) * (slowdown - 1.0) / len(trainers)
        for name, value in (
            ("batches_per_s", len(rows) / (wall_ms / 1e3)),
            ("gpu_util", step_ms / (step_ms + sum(stalls)) if rows else 0.0),
            ("stall_mean_ms", sum(stalls) / batches),
            ("stall_p90_ms", percentile(stalls, 90)),
            ("cpu_ms_per_batch", (cpu_to - cpu_from) * 1e3 / batches / slowdown),
        ):
            out.setdefault(name, []).append(value)
    return out

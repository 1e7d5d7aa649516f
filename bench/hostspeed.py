"""How fast is the host right now?  A fixed piece of work, timed.

This machine is a few cores of a shared host.  For minutes at a time a
neighbour makes every instruction slower, by up to a third: identical
code then takes longer in wall *and* in CPU time, and no median inside a
20 s run can see past a phase that outlasts the run.  So each run times a
fixed reference mix (deflate, small-array numpy, interpreter loop: the
kinds of work the program's demand path is made of) for two seconds just
before set-up and two just after shutdown, while no other thread runs,
and ``rep.py`` divides the time spent in the program by ``slowdown`` =
measured / nominal.  Measured on this host: over 60 blocks of identical
work the spread between quartiles fell from 5-7 % of the median to 3 %,
and a block in a slow phase (x1.32) was corrected to within 6 %.

The reference is the benchmark's own code and touches nothing of the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

# Milliseconds one unit takes on this kind of host when it is quiet;
# corrected timings read as "ms on a quiet host".  Frozen, never re-derived.
NOMINAL_UNIT_MS = 1.9
MEASURE_S = 2.0

_RNG = np.random.default_rng(20250927)
_TEXT = (_RNG.integers(0, 64, size=48 * 1024, dtype=np.uint8) * 3).tobytes()
_FRAME = _RNG.integers(0, 256, size=(64, 96, 3), dtype=np.uint8)


def _unit() -> int:
    total = len(zlib.compress(_TEXT, 6))
    for _ in range(12):
        work = _FRAME.astype(np.float32)
        work *= 1.01
        work += 0.5
        np.clip(work, 0.0, 255.0, out=work)
        total += int(work.astype(np.uint8)[::7, ::5].sum())
    for index in range(12000):
        total += index * index & 255
    return total


def unit_ms(seconds: float = MEASURE_S) -> float:
    """Mean wall milliseconds of one unit over ``seconds`` of them.  The
    mean, because the host's speed wanders within a second and the run
    being corrected averages over that too; of the statistics tried it
    left the least spread."""
    clock = time.perf_counter
    _unit()
    units = 0
    started = clock()
    while True:
        _unit()
        units += 1
        elapsed = clock() - started
        if elapsed >= seconds:
            return elapsed * 1e3 / units


if __name__ == "__main__":
    print(unit_ms())

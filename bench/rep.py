"""One measured run of one workload, in a process of its own.

``run.py`` starts this with a JSON spec as its only argument and reads a
JSON result from the last line of standard output.  The run is:

1. load the corpus (every encoded video into memory);
2. set up the workload ``setups`` times, timing each, and keep the last;
3. warm up, untimed: every trainer reads the first plan window, so caches
   fill and lazy set-up finishes before the clock starts;
4. the timed section: the trainers carry on from the next epoch, either
   for ``seconds`` (split into ``segments`` equal parts, each measured on
   its own) or for a fixed number of ``epochs``;
5. shut down, time the reference again, then check: leases, the
   workload's shape, and sixteen batches re-derived through the plainest
   path.

The end-to-end timings are divided by ``slowdown``, the mean of the two
reference timings over the nominal one; ``raw_segments`` keeps them as the
clock read them.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import adapter
import hostspeed
import trace
from trainer import Trainer, percentile, summarize
from workloads import (K_EPOCHS, WORKLOADS, Rig, degenerate, layer_counters,
                       reference_crcs, sample_keys)


RSS_EVERY_S = 0.1
PAGE_MB = resource.getpagesize() / 2 ** 20


def resident_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_MB


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[spec["workload"]]
    if workload.one_core:  # before any thread starts: they inherit it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seed = spec["seed"]
    dataset = adapter.load_dataset_dir(Path(spec["corpus"]))
    for video_id in dataset.video_ids:  # the demand path never reads a file
        dataset.get_bytes(video_id)

    tracer: Any = trace.NullTracer()
    if spec["traced"]:
        tracer = trace.Tracer()
        tracer.install(adapter.TRACE_TARGETS, adapter.REQUEST_ENTRY_POINTS)

    unit_ms = [hostspeed.unit_ms(spec["reference_s"])]
    setups: List[float] = []
    rig: Any = None
    for index in range(spec["setups"]):
        if rig is not None:
            rig.quiesce()
            rig.close()
        started = time.perf_counter()
        rig = Rig(workload, dataset, seed, Path(spec["scratch"]) / str(index))
        setups.append(time.perf_counter() - started)

    def trainers(**how: Any) -> List[Trainer]:
        return [
            Trainer(name, task, rig.fetch_for(name), rig.iterations,
                    workload.step_ms / 1e3, tracer, rig.observe, cycle=workload.cycle, **how)
            for name, task in workload.trainers
        ]

    resident: List[List[float]] = []  # per segment: RSS readings, MB

    def drive(team: List[Trainer], seconds: float, segments: int) -> List[Tuple[int, float]]:
        """Start the team, read the clocks at each segment boundary and the
        resident set every ``RSS_EVERY_S`` on the way there, join."""
        marks = [(time.perf_counter_ns(), time.process_time())]
        for trainer in team:
            trainer.start_ns = marks[0][0]
            if seconds:
                trainer.deadline_ns = marks[0][0] + int(seconds * 1e9)
            trainer.start()
        for index in range(segments if seconds else 0):
            resident.append([])
            while True:
                left = (index + 1) * seconds / segments - (time.perf_counter_ns() - marks[0][0]) / 1e9
                if left <= 0:
                    break
                time.sleep(min(left, RSS_EVERY_S))
                resident[-1].append(resident_mb())
            marks.append((time.perf_counter_ns(), time.process_time()))
        for trainer in team:
            trainer.join()
        if not seconds:
            marks.append((time.perf_counter_ns(), time.process_time()))
        return marks

    try:
        drive(trainers(max_epochs=K_EPOCHS), 0.0, 0)  # warm-up
        team = trainers(first_epoch=K_EPOCHS, max_epochs=spec["epochs"])
        before = rig.counters()
        marks = drive(team, spec["seconds"], spec["segments"])
        end_ns = time.perf_counter_ns()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = rig.counters()
        rig.quiesce()
        leases = rig.leases_outstanding()
        unit_ms.append(hostspeed.unit_ms(spec["reference_s"]))
    finally:
        rig.close()
        shutil.rmtree(spec["scratch"], ignore_errors=True)

    start_ns = marks[0][0]
    wall_s = (end_ns - start_ns) / 1e9
    samples = [s for t in team for s in t.samples]
    stalls = [(got - ready) / 1e6 for ready, got, _done in samples]
    batches = len(samples)
    requests = sum(t.requests for t in team)
    slowdown = sum(unit_ms) / len(unit_ms) / hostspeed.NOMINAL_UNIT_MS
    segments = summarize(team, marks, slowdown)
    segments["rss_mb"] = [sum(readings) / len(readings) for readings in resident]
    segments["setup_s"] = [seconds / slowdown for seconds in setups]
    raw_segments = summarize(team, marks)
    raw_segments["setup_s"] = setups
    metrics = {
        "host.slowdown": slowdown,
        "trainer.peak_rss_mb": peak_rss_mb,
        "trainer.requests": float(requests),
        "trainer.stall_p50_ms": percentile(stalls, 50),
        "trainer.stall_p99_ms": percentile(stalls, 99),
        "trainer.stall_max_ms": max(stalls, default=0.0),
    }
    delta = {name: after[name] - before.get(name, 0.0) for name in after}
    delta["executor_high_water"] = after.get("executor_high_water", 0.0)
    metrics.update(layer_counters(
        delta, batches, sum(t.frames for t in team), sum(t.bytes for t in team), wall_s))
    metrics["dataplane.leases_outstanding"] = float(leases)

    failures: List[str] = [error for t in team for error in t.errors]
    crcs = {}
    for trainer in team:
        crcs.update(trainer.crcs)
    for key, crc in reference_crcs(workload, dataset, seed, sample_keys(list(crcs))).items():
        if crcs[key] != crc:
            failures.append(f"{key}: differs from the reference path")
    if leases and not workload.prefetch:
        # With prefetch on, a window roll abandons the old engine's queued
        # speculative batches: reported above, but not this run's failure.
        failures.append(f"{leases} delivery lease(s) never given back")
    if not spec["smoke"]:
        failures.extend(degenerate(workload.name, delta, requests))

    if spec["traced"]:
        tracer.uninstall()
        metrics.update(trace.analyse(tracer.spans, start_ns, end_ns, batches, adapter.LAYERS))
        metrics["trace.missing_targets"] = float(tracer.missing_targets)
        tracer.dump(spec["trace_file"])
    return {
        "segments": segments,
        "raw_segments": raw_segments,
        "slowdown": slowdown,
        "metrics": metrics,
        "batches": batches,
        "requests": requests,
        "wall_s": wall_s,
        "failed": len(failures),
        "failures": failures[:20],
        "crcs": [[list(key), crc] for key, crc in sorted(crcs.items())],
    }


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    print(json.dumps(result))

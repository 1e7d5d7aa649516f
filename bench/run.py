"""The repo's benchmark: ``python bench/run.py``.

    python bench/run.py                      every workload, both passes
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
    python bench/run.py --smoke              tiny corpus, seconds, all checks

Pass 0 measures the end-to-end metrics on an untraced run of --seconds;
pass 1 replays a fixed prefix of the same request sequence twice, untraced
then traced, runs the layer probes and yields the per-layer metrics.  Every
metric is printed by name with its unit, a result JSON is written under
``bench/results/`` and the exit code is non-zero on any failed check.
With one workload and one pass the last line of standard output is the
result object ``BENCHMARK.json``'s contract asks for.

See ``bench/README.md`` for the stall definition, the workloads and how
the metrics interact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

import corpus
import hostspeed
from adapter import REPO_ROOT
from workloads import K_EPOCHS, WORKLOADS

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SEGMENTS = 8  # equal parts of the timed section; a metric is their median
SETUPS = 3  # set-ups timed per run; setup_s is their median
REP_TIMEOUT_S = 170
SMOKE_EPOCHS = 2
SMOKE_REFERENCE_S = 0.1


def child(script: str, argument: str) -> Dict[str, Any]:
    """Run one of the benchmark's own scripts; its last stdout line is JSON."""
    done = subprocess.run(
        [sys.executable, str(BENCH / script), argument], cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"bench: {script} {argument} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    def __init__(self, args: argparse.Namespace, contract: Dict[str, Any]):
        self.args = args
        self.units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
        self.end_to_end = [m["name"] for m in contract["end_to_end"]]
        self.per_layer = [m["name"] for m in contract["per_layer"]]
        self.seconds = args.seconds if args.seconds else (1 if args.smoke else contract["run_seconds"])
        self.names = [args.workload] if args.workload else list(WORKLOADS)
        self.corpora: Dict[str, Path] = {}
        self.corpus_gen_s: Dict[str, float] = {}
        self.report: Dict[str, Dict[str, Any]] = {
            name: {"attempted": 0, "failed": 0, "failures": [], "crcs": {}} for name in self.names}
        self._rigs = 0

    def prepare(self) -> None:
        RESULTS.mkdir(exist_ok=True)
        for name in self.names:
            workload = WORKLOADS[name]
            videos = workload.smoke_videos if self.args.smoke else workload.videos
            self.corpora[name], self.corpus_gen_s[name] = corpus.ensure_corpus(videos, self.args.seed)

    # -- one measured run, in a process of its own -------------------------------------
    def measure(self, name: str, *, seconds: float = 0.0, epochs: Optional[int] = None,
                traced: bool = False) -> Dict[str, Any]:
        self._rigs += 1
        result = child("rep.py", json.dumps({
            "workload": name, "seed": self.args.seed, "corpus": str(self.corpora[name]),
            "scratch": f"bench/.cache/rig-{os.getpid()}-{self._rigs}",
            "seconds": seconds, "segments": SEGMENTS, "epochs": epochs,
            "setups": SETUPS if seconds else 1, "traced": traced, "smoke": self.args.smoke,
            "reference_s": SMOKE_REFERENCE_S if self.args.smoke else hostspeed.MEASURE_S,
            "trace_file": str(RESULTS / f"trace-{name}.jsonl"),
        }))
        entry = self.report[name]
        entry["attempted"] += result["requests"]
        entry["failed"] += result["failed"]
        entry["failures"] += result["failures"]
        for key, crc in result["crcs"]:
            if entry["crcs"].setdefault(tuple(key), crc) != crc:
                entry["failed"] += 1
                entry["failures"].append(f"{key}: two runs read different bytes")
        return result

    # -- pass 0: end-to-end, untraced ------------------------------------------------
    def measure_end_to_end(self) -> None:
        for name in self.names:
            result = self.measure(name, seconds=self.seconds)
            table = {}
            for metric in self.end_to_end:
                values = result["segments"][metric]
                median = statistics.median(values)
                low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
                table[metric] = {
                    "value": median, "unit": self.units[metric],
                    "raw": statistics.median(result["raw_segments"].get(metric, values)),
                    "spread": (high - low) / median if median else 0.0,
                    "samples": values,
                }
            self.report[name]["end_to_end"] = table
            self.report[name]["timed_s"] = result["wall_s"]
            self.report[name]["slowdown"] = result["slowdown"]
            self.report[name]["batches"] = result["batches"]

    # -- pass 1: per layer, traced ---------------------------------------------------
    def measure_per_layer(self) -> None:
        probes = child("probes.py", "--smoke" if self.args.smoke else "--full")
        for name in self.names:
            workload = WORKLOADS[name]
            epochs = min(workload.trace_epochs, SMOKE_EPOCHS) if self.args.smoke else workload.trace_epochs
            plain = self.measure(name, epochs=epochs)
            traced = self.measure(name, epochs=epochs, traced=True)
            metrics = dict(plain["metrics"])
            metrics.update({k: v for k, v in traced["metrics"].items()
                            if k not in plain["metrics"]})  # what only the spans can tell
            metrics.update(probes)
            metrics["trainer.corpus_gen_s"] = self.corpus_gen_s[name]
            metrics["trainer.error_rate"] = (
                self.report[name]["failed"] / max(1, self.report[name]["attempted"]))
            metrics["trace.overhead_pct"] = 100.0 * (
                (traced["wall_s"] / traced["batches"]) / (plain["wall_s"] / plain["batches"]) - 1.0)
            self.report[name]["per_layer"] = {
                metric: {"value": metrics[metric], "unit": self.units[metric]}
                for metric in self.per_layer}
            self.report[name]["traced_batches"] = traced["batches"]

    # -- output -------------------------------------------------------------------------
    def finish(self) -> int:
        for name in self.names:
            entry = self.report[name]
            workload = WORKLOADS[name]
            pairs = sorted((k, c) for k, c in entry.pop("crcs").items()
                           if k[1] < K_EPOCHS + workload.trace_epochs)
            entry["stream_digest"] = hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]
            entry["digest_batches"] = len(pairs)
            print(f"\n== {name}: {workload.why}")
            print(f"   requests={entry['attempted']} failed={entry['failed']} "
                  f"stream_digest={entry['stream_digest']} over {len(pairs)} batches")
            if "end_to_end" in entry:
                print(f"   end to end: untraced, {entry['batches']} batches in {entry['timed_s']:.1f} s,"
                      f" median of {SEGMENTS} segments ({SETUPS} set-ups),"
                      f" host slowdown {entry['slowdown']:.3f} taken out")
                for metric, cell in entry["end_to_end"].items():
                    print(f"   {metric:<44}{cell['value']:>14.4f} {cell['unit']:<10}"
                          f"{metric}.spread {cell['spread']:.3f}  (as clocked {cell['raw']:.4f})")
            if "per_layer" in entry:
                print(f"   per layer: fixed prefix of {entry['traced_batches']} batches, traced")
                for metric, cell in entry["per_layer"].items():
                    print(f"   {metric:<44}{cell['value']:>14.4f} {cell['unit']}")
            for failure in entry["failures"][:10]:
                print(f"   FAILED: {failure}")
        target = RESULTS / f"result-seed{self.args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
        target.write_text(json.dumps({
            "seed": self.args.seed, "seconds": self.seconds, "smoke": self.args.smoke,
            "workloads": self.report}, indent=1))
        print(f"\nresult written to {target.relative_to(REPO_ROOT)}")

        failed = sum(entry["failed"] for entry in self.report.values())
        if self.args.workload and self.args.trace is not None:
            entry = self.report[self.args.workload]
            cells = entry["per_layer" if self.args.trace else "end_to_end"]
            print(json.dumps({
                "correct": failed == 0, "attempted": entry["attempted"], "failed": entry["failed"],
                "metrics": {m: {"value": c["value"], "unit": c["unit"]} for m, c in cells.items()},
            }))
        return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0, help="corpus and service seed")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed seconds of pass 0 per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass only; 1: per-layer pass only; default both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, one second per workload, shape gates off")
    args = parser.parse_args()
    if len(os.sched_getaffinity(0)) < 2:
        raise SystemExit("bench: needs at least 2 cores (two trainers, one process)")
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    run = Run(args, contract)
    run.prepare()
    if args.trace != 1:
        run.measure_end_to_end()
    if args.trace != 0:
        run.measure_per_layer()
    return run.finish()


if __name__ == "__main__":
    sys.exit(main())

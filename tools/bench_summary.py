"""Aggregate every committed ``BENCH_*.json`` into one trajectory table.

Each perf benchmark persists its headline numbers to
``benchmark_results/BENCH_<name>.json``.  This tool reads them all and
renders a single summary table — the repo's performance trajectory at a
glance — so the CI perf job (and a human skimming a PR) sees every
standing baseline in one place instead of cat'ing files one by one.

Usage:
    python tools/bench_summary.py [results_dir]

Exit status is non-zero if the results directory holds no BENCH files
(a perf job that produced nothing is a broken perf job).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.metrics import Table  # noqa: E402

# The headline metrics per benchmark, as dotted paths into its JSON.
# Unknown benchmarks (and paths missing after a schema change) fall back
# to the flattened numeric leaves, so the tool never goes stale-silent.
HIGHLIGHTS: Dict[str, List[str]] = {
    "augment_fusion": [
        "fused.passes_per_clip",
        "unfused.passes_per_clip",
        "pass_reduction_x",
        "bytes_copied_reduction_x",
    ],
    "codec_signals": [
        "near_duplicate_reuse.low_motion_fraction",
        "near_duplicate_reuse.cache_only_reduction_x",
        "near_duplicate_reuse.signal_reduction_x",
    ],
    "dataplane": [
        "zero_copy.bytes_copied_per_batch",
        "zero_copy.leases_outstanding",
        "latency.concurrent_p50_ms",
        "latency.concurrent_p99_ms",
        "latency.batches_per_s",
    ],
    "decode_reuse": [
        "baseline_stateless.amplification",
        "reuse_incremental.amplification",
        "decode_reduction_x",
        "bytes_reduction_x",
    ],
    "prefetch": [
        "stall.stall_reduction_x",
        "fs_ops.fs_ops_reduction_x",
    ],
    "shard_service": [
        "workload.shards",
        "workload.tenants",
        "workload.trainers",
        "fleet.fleet.latency_s.p50",
        "fleet.fleet.latency_s.p99",
        "fleet.fleet.throughput_batches_per_s",
        "fleet.routing.dedup_hits",
        "fleet.routing.failovers",
    ],
}

MAX_FALLBACK_ROWS = 8


def flatten(payload: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Depth-first numeric/bool leaves of a JSON document, dotted paths."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from flatten(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(payload, bool) or isinstance(payload, (int, float)):
        yield prefix, payload


def lookup(payload: Any, path: str) -> Any:
    for part in path.split("."):
        if not isinstance(payload, dict) or part not in payload:
            return None
        payload = payload[part]
    return payload


def fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def rows_for(name: str, payload: Any) -> List[Tuple[str, str]]:
    rows: List[Tuple[str, str]] = []
    for path in HIGHLIGHTS.get(name, []):
        value = lookup(payload, path)
        if value is not None:
            rows.append((path, fmt(value)))
    if not rows:  # unknown benchmark or schema drift: show its leaves
        for path, value in list(flatten(payload))[:MAX_FALLBACK_ROWS]:
            rows.append((path, fmt(value)))
    return rows


def main(argv: List[str]) -> int:
    results_dir = Path(argv[1]) if len(argv) > 1 else Path("benchmark_results")
    files = sorted(results_dir.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json under {results_dir}", file=sys.stderr)
        return 1
    table = Table(
        f"Performance trajectory ({len(files)} standing benchmarks)",
        ["benchmark", "metric", "value"],
    )
    for path in files:
        name = path.stem[len("BENCH_"):]
        payload = json.loads(path.read_text())
        for metric, value in rows_for(name, payload):
            table.add_row(name, metric, value)
    print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

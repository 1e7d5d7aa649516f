"""Compare two result files of ``bench/run.py``: ``compare.py BASE.json NEW.json``.

One row per (workload, end-to-end metric): base, new, delta as a share of
the base, the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``regressed``  — worse than the base by more than the bound,
* ``improved``   — better than the base by more than the bound,
* ``unchanged``  — within the bound,
* ``unresolved`` — either side's segments spread wider than the bound,
  so the run cannot tell.

Per-layer metrics have no bound; the ones that moved are listed after.
Exits non-zero on any ``regressed`` row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def verdict(metric: Dict[str, Any], base: Dict[str, Any], new: Dict[str, Any]) -> str:
    bound = metric["bound"]
    if max(base.get("spread", 0.0), new.get("spread", 0.0)) > bound:
        return "unresolved"
    change = (new["value"] - base["value"]) / base["value"]
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "regressed"
    return "improved" if change < -bound else "unchanged"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Print the table; return the regressed rows."""
    regressed = []
    print(f"{'workload':<16}{'metric':<20}{'base':>12}{'new':>12}{'delta':>9}{'bound':>7}  verdict")
    for name, new_entry in new["workloads"].items():
        base_entry = base["workloads"].get(name)
        if base_entry is None:
            continue
        for metric in CONTRACT["end_to_end"]:
            old, cur = (entry.get("end_to_end", {}).get(metric["name"]) for entry in (base_entry, new_entry))
            if old is None or cur is None:
                continue
            outcome = verdict(metric, old, cur)
            delta = (cur["value"] - old["value"]) / old["value"]
            print(f"{name:<16}{metric['name']:<20}{old['value']:>12.4f}{cur['value']:>12.4f}"
                  f"{delta:>+9.1%}{metric['bound']:>7.0%}  {outcome}")
            if outcome == "regressed":
                regressed.append(f"{name} {metric['name']}")
        if base_entry["stream_digest"] != new_entry["stream_digest"]:
            print(f"{name:<16}stream_digest differs: {base_entry['stream_digest']} "
                  f"-> {new_entry['stream_digest']} (different seeds, or different output)")
    print("\nper-layer metrics that moved (no bound):")
    for name, new_entry in new["workloads"].items():
        layers = new_entry.get("per_layer", {})
        old_layers = base["workloads"].get(name, {}).get("per_layer", {})
        for metric, cur in layers.items():
            old = old_layers.get(metric)
            if old is not None and old["value"] != cur["value"]:
                delta = (cur["value"] - old["value"]) / old["value"] if old["value"] else float("inf")
                print(f"{name:<16}{metric:<44}{old['value']:>14.4f}{cur['value']:>14.4f}{delta:>+9.1%}")
    return regressed


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    rows = compare(*(json.loads(Path(path).read_text()) for path in sys.argv[1:]))
    if rows:
        raise SystemExit("regressed: " + ", ".join(rows))

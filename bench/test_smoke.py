"""``python -m pytest bench/test_smoke.py``: the benchmark runs end to end.

Outside tier-1's ``testpaths`` on purpose: it takes ~20 s and measures
nothing; it only shows that every declared metric is still produced.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_prints_every_declared_metric_with_its_unit():
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    sections = re.split(r"\n== ", done.stdout)[1:]
    assert [s.split(":", 1)[0] for s in sections] == [w["name"] for w in contract["workloads"]]
    for section in sections:
        printed = {
            fields[0]: fields[2]
            for fields in (line.split() for line in section.splitlines())
            if len(fields) >= 3
        }
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], (section[:40], metric)

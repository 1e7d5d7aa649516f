"""Two-tier mypy gate.

Tier 1 (strict): ``repro.analysis`` and the modules in ``STRICT_ARGS`` must be
``mypy --strict`` clean (generics over ``Any`` are allowed: numpy's
``ndarray`` is generic and the repo annotates it bare).  Any error fails.

Tier 2 (ratchet): the rest of the tree is checked with default settings
against ``mypy-baseline.txt``, a list of *grandfathered file paths*.
Errors in listed files are tolerated; errors anywhere else — including
every file added after the baseline was cut — fail.  Delete lines from
the baseline as files are cleaned up; never add lines for new files.

Usage:
    python tools/mypy_gate.py             # run both tiers
    python tools/mypy_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "mypy-baseline.txt"

STRICT_ARGS = [
    "--strict",
    "--allow-any-generics",
    "--follow-imports=silent",
    "-p",
    "repro.analysis",
    "-m",
    "repro.augment.fusion",
    "-m",
    "repro.codec.signals",
    "-m",
    "repro.core.prefetch",
    "-m",
    "repro.storage.packs",
    "-m",
    "repro.core.wire",
    "-m",
    "repro.core.dataplane",
    "-m",
    "repro.core.sharding",
    "-m",
    "repro.core.tenancy",
    "-m",
    "repro.core.scheduling",
]

TREE_ARGS = ["--follow-imports=normal", "-p", "repro"]

_ERROR_LINE = re.compile(r"^(?P<path>[^:\n]+\.py):\d+(?::\d+)?: error: ")


def run_mypy(args: List[str]) -> Tuple[int, str]:
    env = dict(os.environ, MYPYPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--no-error-summary", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    return proc.returncode, proc.stdout + proc.stderr


def error_paths(output: str) -> Set[str]:
    found: Set[str] = set()
    for line in output.splitlines():
        match = _ERROR_LINE.match(line.strip())
        if match:
            found.add(match.group("path").replace(os.sep, "/"))
    return found


def load_baseline() -> Set[str]:
    if not BASELINE.exists():
        return set()
    entries: Set[str] = set()
    for raw in BASELINE.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def strict_tier() -> int:
    code, output = run_mypy(STRICT_ARGS)
    modules = " / ".join(
        STRICT_ARGS[i + 1] for i, a in enumerate(STRICT_ARGS) if a in ("-p", "-m")
    )
    if code != 0:
        print(f"mypy --strict failed for {modules}:")
        print(output)
        return 1
    print(f"strict tier clean: {modules}")
    return 0


def ratchet_tier(update: bool) -> int:
    code, output = run_mypy(TREE_ARGS)
    failing = error_paths(output)
    if code != 0 and not failing:
        # mypy itself blew up (bad config, crash): surface that verbatim.
        print(output)
        return 1
    if update:
        body = "\n".join(sorted(failing))
        BASELINE.write_text(
            "# Files grandfathered by the mypy ratchet (tools/mypy_gate.py).\n"
            "# Remove lines as files are cleaned; never add new ones.\n"
            + (body + "\n" if body else "")
        )
        print(f"baseline updated: {len(failing)} file(s)")
        return 0
    baseline = load_baseline()
    fresh = sorted(failing - baseline)
    if fresh:
        print("mypy errors outside the baseline (new or newly-broken files):")
        for line in output.splitlines():
            match = _ERROR_LINE.match(line.strip())
            if match and match.group("path").replace(os.sep, "/") in fresh:
                print(f"  {line}")
        return 1
    fixed = sorted(baseline - failing)
    if fixed:
        print(f"note: {len(fixed)} baseline file(s) are now clean; trim the baseline:")
        for path in fixed:
            print(f"  {path}")
    print(f"ratchet tier clean ({len(failing)} grandfathered file(s) with errors)")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite mypy-baseline.txt from the current tree",
    )
    options = parser.parse_args(argv)
    if importlib.util.find_spec("mypy") is None:
        # A gate that cannot run has not passed: say so in one line and
        # fail, so "hand-checked" never stands in for a machine check.
        print(
            f"mypy gate: FAILED - mypy is not importable by {sys.executable}; "
            "nothing was checked"
        )
        return 2
    strict = strict_tier()
    ratchet = ratchet_tier(options.update_baseline)
    return strict or ratchet


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Fault tolerance and recovery (paper S5.5).

SAND persists all unpruned objects to the filesystem, so a crash loses
only in-memory state.  Recovery is the paper's three steps:

1. **Regenerate the concrete dependency tree from configuration files** —
   plan construction is deterministic given (configs, dataset, seed,
   window), so the rebuilt plan is bit-identical to the lost one; the
   checkpoint manifest records those inputs plus the pruning frontier.
2. **Scan disk for previously persisted objects** — the directory-backed
   object store rebuilds its index from files, quarantining torn writes.
3. **Determine optimal recovery points** — diff the frontier against the
   scanned store: only objects that are planned-but-missing need
   recomputation.  Survivors are checksum-validated first, so a blob
   that rotted while the service was down counts as missing, not as
   recovered.

A manifest that is itself damaged (truncated by the crash, version
skew, missing fields) raises :class:`RecoveryError` naming the manifest
path — never a raw ``JSONDecodeError``/``KeyError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, List, Set

from repro.core.concrete_graph import MaterializationPlan
from repro.core.pruning import PruningOutcome
from repro.storage.objectstore import ObjectStore

MANIFEST_NAME = "sand-checkpoint.json"
MANIFEST_VERSION = 1

_REQUIRED_MANIFEST_KEYS = ("seed", "window_start", "k_epochs", "frontier")


class RecoveryError(ValueError):
    """The checkpoint manifest cannot be used for recovery."""

    def __init__(self, path, reason: str):
        super().__init__(f"cannot recover from checkpoint {str(path)!r}: {reason}")
        self.path = Path(path)
        self.reason = reason


@dataclass
class RecoveryReport:
    """Result of step 3: what survives and what must be recomputed."""

    window_start: int
    k_epochs: int
    planned_objects: int
    recovered_objects: int
    missing: Dict[str, List[str]] = field(default_factory=dict)  # video -> keys
    stale_keys: List[str] = field(default_factory=list)  # on disk, not planned
    corrupt_keys: List[str] = field(default_factory=list)  # failed checksum
    # Quarantined during the rescan itself: torn per-object writes and
    # torn pack-segment tail records (keys, or "<pack:seg@off>" markers
    # when the tear destroyed the record's identity).
    scan_quarantined: List[str] = field(default_factory=list)
    # Tiered stores only: survivors whose replica count was restored to
    # target by the post-diff repair pass (0 for single-tier stores).
    replicas_repaired: int = 0

    @property
    def missing_count(self) -> int:
        return sum(len(keys) for keys in self.missing.values())

    @property
    def recovered_fraction(self) -> float:
        if self.planned_objects == 0:
            return 1.0
        return self.recovered_objects / self.planned_objects


def write_checkpoint(
    path: Path,
    plan: MaterializationPlan,
    pruning: PruningOutcome,
    seed: int,
    consumed: Collection[str] = (),
) -> Path:
    """Persist the manifest ("checkpointed every k epochs", S5.5).

    The frontier lists what must exist for the *rest* of the window:
    ``consumed`` objects (leaves whose only planned use already took
    them, so they were never persisted) have no reader left and are
    left out, so recovery does not report them missing.
    """
    manifest = {
        "version": MANIFEST_VERSION,
        "seed": seed,
        "window_start": plan.epoch_start,
        "k_epochs": plan.k_epochs,
        "tasks": sorted(plan.tasks),
        "frontier": {
            vid: sorted(k for k in pruning.frontier_of(vid) if k not in consumed)
            for vid in plan.graphs
        },
    }
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=1))
    tmp.replace(path)
    return path


def read_checkpoint(path: Path) -> dict:
    """Load and validate the manifest; :class:`RecoveryError` on damage."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    try:
        text = path.read_text()
    except OSError as exc:
        raise RecoveryError(path, f"manifest unreadable: {exc}") from exc
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecoveryError(
            path, f"manifest truncated or malformed: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise RecoveryError(path, "manifest is not a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise RecoveryError(
            path,
            f"unsupported checkpoint version {manifest.get('version')!r} "
            f"(expected {MANIFEST_VERSION})",
        )
    absent = [key for key in _REQUIRED_MANIFEST_KEYS if key not in manifest]
    if absent:
        raise RecoveryError(path, f"manifest missing required keys: {absent}")
    if not isinstance(manifest["frontier"], dict):
        raise RecoveryError(path, "manifest frontier must be a JSON object")
    return manifest


def recover(
    manifest: dict,
    store: ObjectStore,
) -> RecoveryReport:
    """Steps 2-3: rescan the store and diff it against the manifest.

    Every planned object found on disk is checksum-validated before it
    counts as recovered; a corrupt survivor is quarantined by the store
    and reported both in ``missing`` (it must be recomputed) and in
    ``corrupt_keys`` (so operators can see the rot).  Damage caught
    structurally by the rescan itself — torn per-object writes, torn
    pack-segment tail records — lands in ``scan_quarantined``; any such
    key that was planned also shows up in ``missing``.
    """
    already_quarantined = len(store.quarantined)
    store.scan()
    scan_quarantined = list(store.quarantined[already_quarantined:])
    on_disk: Set[str] = set(store.keys())
    planned = 0
    recovered = 0
    missing: Dict[str, List[str]] = {}
    corrupt: List[str] = []
    planned_keys: Set[str] = set()
    for video_id, keys in manifest["frontier"].items():
        lost = []
        for key in keys:
            planned += 1
            planned_keys.add(key)
            if key not in on_disk:
                lost.append(key)
            elif not store.verify(key):
                corrupt.append(key)
                lost.append(key)
            else:
                recovered += 1
        if lost:
            missing[video_id] = lost
    # Tiered stores: survivors may have lost a replica in the crash
    # (e.g. the write-behind replica never landed).  Repairing here
    # restores k=2 before training resumes, so a second failure during
    # the recovered epoch still does not force recompute.
    repairs = 0
    repairer = getattr(store, "repair_scan", None)
    if repairer is not None:
        repairs = int(repairer().get("repaired", 0))
    return RecoveryReport(
        window_start=manifest["window_start"],
        k_epochs=manifest["k_epochs"],
        planned_objects=planned,
        recovered_objects=recovered,
        missing=missing,
        stale_keys=sorted(on_disk - planned_keys),
        corrupt_keys=sorted(corrupt),
        scan_quarantined=scan_quarantined,
        replicas_repaired=repairs,
    )

"""The benchmark's one point of contact with the program under test.

Everything the benchmark imports from ``repro`` is imported here and
nowhere else, and every callable the tracer wraps is named here, so a
refactor of ``src/`` knows exactly what it must keep working:

* constructors and their keywords — ``SandService(tasks, dataset,
  k_epochs=, num_workers=, seed=, prefetch_depth=, memory_budget_bytes=,
  store=, remote_store=)``, ``ShardCoordinator(shards, admission=)``,
  ``AdmissionController(default_quota, global_max_inflight=)``,
  ``TenantQuota(max_inflight=)``, ``LocalStore(capacity, root=,
  pack_threshold=, write_behind=)``, ``RemoteStore(capacity)``,
  ``DatasetSpec(...)``, ``SyntheticDataset(spec)``,
  ``load_dataset_dir(path)``, ``load_task_config(mapping)``,
  ``BatchSocketClient(address)``;
* service / coordinator methods — ``ensure_window``,
  ``iterations_per_epoch``, ``get_batch``, ``get_batch_lease``,
  ``serve_async``, ``status``, ``shutdown``, ``engine.drain``,
  ``engine.stats``, ``engine.dataplane_report``, ``anchor_cache.report``,
  ``delivery_pool.report``, ``store.stats``, ``routing_report``,
  ``admission.report``, ``shard_ids``/``shard``;
* server methods — ``start_background``, ``shutdown``, ``report``;
* the layer functions the probes time (the second import block).

Trace targets are dotted names resolved at run time (see
``bench/trace.py``); one that no longer exists is skipped and counted,
never a crash.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"bench: no program to measure: {SRC / 'repro'} is missing")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# -- what the workloads drive -------------------------------------------------
from repro.core import (  # noqa: E402
    BatchSocketClient,
    SandService,
    ShardCoordinator,
    TenantQuota,
    load_task_config,
)
from repro.core.tenancy import AdmissionController  # noqa: E402
from repro.datasets import DatasetSpec, SyntheticDataset, load_dataset_dir  # noqa: E402
from repro.storage import LocalStore, RemoteStore  # noqa: E402

# -- what the layer probes time directly --------------------------------------
from repro.augment.fusion import TrafficLedger, plan_for  # noqa: E402
from repro.augment.registry import default_registry  # noqa: E402
from repro.codec.incremental import AnchorCache, IncrementalDecoder  # noqa: E402
from repro.core.concrete_graph import build_plan_window  # noqa: E402
from repro.core.dataplane import BufferPool  # noqa: E402
from repro.core.pruning import prune_plan  # noqa: E402
from repro.core.sharding import HashRing  # noqa: E402
from repro.core.wire import HEADER_SIZE, batch_frame_parts, decode_batch_payload  # noqa: E402
from repro.storage.blobs import decode_array, encode_array  # noqa: E402

__all__ = [
    "AdmissionController", "AnchorCache", "BatchSocketClient", "BufferPool",
    "DatasetSpec", "HEADER_SIZE", "HashRing", "IncrementalDecoder", "LocalStore",
    "RemoteStore", "SandService", "ShardCoordinator", "SyntheticDataset",
    "TenantQuota", "TrafficLedger", "batch_frame_parts", "build_plan_window",
    "decode_array", "decode_batch_payload", "default_registry", "encode_array",
    "load_dataset_dir", "load_task_config", "plan_for", "prune_plan",
]

# Layer -> public callables the traced run wraps, "module:attr.path".
# Functions imported by name are wrapped at the import site that calls them.
LAYERS = (
    "tenancy", "sharding", "service", "plan", "engine", "prefetch",
    "materializer", "cache", "codec", "augment", "blobs", "storage",
    "dataplane", "wire",
)
TRACE_TARGETS = {
    "tenancy": ["repro.core.tenancy:AdmissionController.admit"],
    "sharding": [
        "repro.core.sharding:ShardCoordinator.get_batch_lease",
        "repro.core.sharding:ShardCoordinator.route",
    ],
    "service": [
        "repro.core.service:SandService.get_batch_lease",
        "repro.core.service:SandService.ensure_window",
        "repro.core.service:SandService.iterations_per_epoch",
    ],
    "plan": [
        "repro.core.service:build_plan_window",
        "repro.core.service:prune_plan",
    ],
    "engine": [
        "repro.core.engine:PreprocessingEngine.get_batch_lease",
        "repro.core.engine:PreprocessingEngine.assemble_speculative",
        "repro.core.engine:PreprocessingEngine.drain",
    ],
    "prefetch": ["repro.core.prefetch:BatchPrefetcher.take"],
    "materializer": [
        "repro.core.materializer:VideoMaterializer.get",
        "repro.core.materializer:VideoMaterializer.get_into",
        "repro.core.materializer:VideoMaterializer.release_raw_frames",
    ],
    "cache": [
        "repro.core.cache:CacheManager.put",
        "repro.core.cache:CacheManager.get_view",
        "repro.core.cache:CacheManager.maybe_evict",
    ],
    "codec": ["repro.codec.incremental:IncrementalDecoder.decode_frames"],
    "augment": ["repro.augment.fusion:FusedPlan.run"],
    "blobs": [
        "repro.core.materializer:encode_array",
        "repro.core.materializer:decode_array",
    ],
    "storage": [
        "repro.storage.objectstore:ObjectStore.put",
        "repro.storage.objectstore:ObjectStore.get",
        "repro.storage.objectstore:ObjectStore.get_view",
        "repro.storage.objectstore:ObjectStore.delete",
        "repro.storage.tiering:TieredStore.demote",
        "repro.storage.tiering:TieredStore.promote",
        "repro.storage.packs:PackManager.append",
        "repro.storage.packs:PackManager.read",
        "repro.storage.packs:PackManager.flush",
    ],
    "dataplane": [
        "repro.core.dataplane:BufferPool.acquire",
        "repro.core.dataplane:BatchSocketClient.get_batch",
    ],
    "wire": [
        "repro.core.wire:batch_frame_parts",
        "repro.core.wire:decode_batch_payload",
        "repro.core.wire:read_frame",
    ],
}
# Entry points that may start on a server executor thread: the request
# identity is read from their (task, epoch, iteration[, tenant]) arguments.
REQUEST_ENTRY_POINTS = (
    "repro.core.sharding:ShardCoordinator.get_batch_lease",
    "repro.core.service:SandService.get_batch_lease",
)

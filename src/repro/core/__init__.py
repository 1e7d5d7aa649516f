"""SAND core: the paper's contribution.

The pieces, in dependency order:

* :mod:`repro.core.yamlmini` / :mod:`repro.core.config` — the Fig-9
  configuration API,
* :mod:`repro.core.views` — the Table-1 view types and path scheme,
* :mod:`repro.core.abstract_graph` — per-task abstract view dependency
  graphs (S5.2),
* :mod:`repro.core.coordination` — shared frame pool and shared crop
  windows preserving temporal/spatial randomness (S5.2),
* :mod:`repro.core.concrete_graph` — the k-epoch concrete object
  dependency graphs with cross-task node merging (S5.2),
* :mod:`repro.core.pruning` — Algorithm 1 under a storage budget (S5.3),
* :mod:`repro.core.scheduling` — deadline/SJF materialization scheduling
  (S5.4),
* :mod:`repro.core.materializer` / :mod:`repro.core.engine` — the
  threaded preprocessing engine executing plans on real arrays (S5.4),
* :mod:`repro.core.cache` — budgeted caching with the S6 eviction order,
* :mod:`repro.core.service` / :mod:`repro.core.posix` — the SAND service,
  its filesystem provider, and the Table-2 POSIX facade,
* :mod:`repro.core.recovery` — checkpoint/scan/replan fault tolerance
  (S5.5),
* :mod:`repro.core.wire` / :mod:`repro.core.dataplane` — the binary wire
  protocol and the async zero-copy batch-serving data plane (one pooled
  ``BatchLease`` per batch from assembly to socket or trainer;
  ``get_batch_lease`` is the in-process API),
* :mod:`repro.core.tenancy` / :mod:`repro.core.sharding` /
  :mod:`repro.core.loadgen` — per-tenant quotas + fair admission, the
  content-addressed consistent-hash shard coordinator, and the standing
  load-generator fleet.
"""

from repro.core.config import (
    ConfigError,
    SamplingPolicy,
    TaskConfig,
    load_task_config,
    load_task_configs,
)
from repro.core.views import (
    AugFrameView,
    BatchView,
    FrameView,
    VideoView,
    ViewKind,
    ViewPathError,
    parse_view_path,
    try_parse_view_path,
)
from repro.core.abstract_graph import AbstractViewGraph, group_tasks_by_dataset
from repro.core.coordination import (
    EpochSchedule,
    FramePoolCoordinator,
    SharedWindowSampler,
    TaskRequirement,
    stable_rng,
)
from repro.core.concrete_graph import (
    BatchAssembly,
    MaterializationPlan,
    ObjectNode,
    Use,
    VideoGraph,
    build_plan_window,
)
from repro.core.pruning import (
    PruningOutcome,
    cache_everything,
    naive_budgeted_leaves,
    prune_plan,
)
from repro.core.scheduling import (
    MaterializationScheduler,
    SchedulingMode,
    VideoJob,
    build_jobs,
)
from repro.core.materializer import MaterializeStats, VideoMaterializer
from repro.core.cache import CacheManager
from repro.core.dataplane import (
    AsyncBatchServer,
    BatchLease,
    BatchServerError,
    BatchSocketClient,
    BufferPool,
    NotReady,
)
from repro.core.engine import EngineStats, PreprocessingEngine
from repro.core.service import PlanCache, SandService
from repro.core.posix import SandClient, mount_sand
from repro.core.tenancy import (
    AdmissionController,
    AdmissionError,
    AdmissionTicket,
    AdmissionTimeout,
    TenantQuota,
)
from repro.core.sharding import (
    AllShardsDownError,
    HashRing,
    RebalanceReport,
    ShardCoordinator,
    ShardingError,
    content_key,
)
from repro.core.loadgen import (
    LoadGenerator,
    TrainerSpec,
    make_fleet,
    percentile,
)
from repro.core.recovery import (
    RecoveryError,
    RecoveryReport,
    read_checkpoint,
    recover,
    write_checkpoint,
)

__all__ = [
    "AbstractViewGraph",
    "AdmissionController",
    "AdmissionError",
    "AdmissionTicket",
    "AdmissionTimeout",
    "AllShardsDownError",
    "AsyncBatchServer",
    "AugFrameView",
    "BatchAssembly",
    "BatchLease",
    "BatchServerError",
    "BatchSocketClient",
    "BatchView",
    "BufferPool",
    "CacheManager",
    "ConfigError",
    "EngineStats",
    "EpochSchedule",
    "FramePoolCoordinator",
    "FrameView",
    "HashRing",
    "LoadGenerator",
    "MaterializationPlan",
    "MaterializationScheduler",
    "MaterializeStats",
    "NotReady",
    "ObjectNode",
    "PlanCache",
    "PreprocessingEngine",
    "PruningOutcome",
    "RebalanceReport",
    "RecoveryError",
    "RecoveryReport",
    "SamplingPolicy",
    "SandClient",
    "SandService",
    "SchedulingMode",
    "ShardCoordinator",
    "ShardingError",
    "SharedWindowSampler",
    "TaskConfig",
    "TaskRequirement",
    "TenantQuota",
    "TrainerSpec",
    "Use",
    "VideoGraph",
    "VideoJob",
    "VideoMaterializer",
    "VideoView",
    "ViewKind",
    "ViewPathError",
    "build_jobs",
    "build_plan_window",
    "cache_everything",
    "content_key",
    "group_tasks_by_dataset",
    "load_task_config",
    "load_task_configs",
    "make_fleet",
    "mount_sand",
    "naive_budgeted_leaves",
    "parse_view_path",
    "percentile",
    "prune_plan",
    "read_checkpoint",
    "recover",
    "stable_rng",
    "try_parse_view_path",
    "write_checkpoint",
]

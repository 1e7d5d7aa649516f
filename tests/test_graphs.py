"""Tests for abstract graphs, concrete plans, node merging, and pruning."""

import hashlib

import pytest

from repro.core import (
    AbstractViewGraph,
    build_plan_window,
    cache_everything,
    group_tasks_by_dataset,
    load_task_config,
    naive_budgeted_leaves,
    prune_plan,
)
from repro.datasets import DatasetSpec, SyntheticDataset


def make_config(tag="t", frames=8, stride=2, samples=1, vpb=4, crop=(16, 16),
                dataset_path="/data", extra_aug=None):
    aug = [
        {
            "name": "resize",
            "branch_type": "single",
            "inputs": ["frame"],
            "outputs": ["a0"],
            "config": [{"resize": {"shape": [24, 32]}}],
        },
        {
            "name": "crop",
            "branch_type": "single",
            "inputs": ["a0"],
            "outputs": ["a1"],
            "config": [{"random_crop": {"size": list(crop)}}],
        },
    ]
    if extra_aug:
        aug.extend(extra_aug)
    return load_task_config({
        "dataset": {
            "tag": tag,
            "video_dataset_path": dataset_path,
            "sampling": {
                "videos_per_batch": vpb,
                "frames_per_video": frames,
                "frame_stride": stride,
                "samples_per_video": samples,
            },
            "augmentation": aug,
        }
    })


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=12, min_frames=60, max_frames=90, seed=1)
    )


# -- abstract graphs ---------------------------------------------------------------


def test_abstract_graph_structure():
    graph = AbstractViewGraph.from_config(make_config())
    ids = [n.node_id for n in graph.nodes]
    assert ids == ["video", "frame", "aug0", "aug1", "batch"]
    ops = [e.operation for e in graph.edges]
    assert ops == ["decode", "single", "single", "collate"]


def test_abstract_sharing_detection():
    a = AbstractViewGraph.from_config(make_config("a"))
    b = AbstractViewGraph.from_config(make_config("b"))
    c = AbstractViewGraph.from_config(make_config("c", dataset_path="/other"))
    assert a.shares_dataset_with(b)
    assert not a.shares_dataset_with(c)
    assert a.shared_aug_prefix(b) == 2  # identical pipelines


def test_abstract_prefix_stops_at_divergence():
    a = AbstractViewGraph.from_config(make_config("a", crop=(16, 16)))
    b = AbstractViewGraph.from_config(make_config("b", crop=(8, 8)))
    assert a.shared_aug_prefix(b) == 1  # resize matches, crop differs


def test_group_tasks_by_dataset():
    graphs = [
        AbstractViewGraph.from_config(make_config("a")),
        AbstractViewGraph.from_config(make_config("b", dataset_path="/other")),
        AbstractViewGraph.from_config(make_config("c")),
    ]
    groups = group_tasks_by_dataset(graphs)
    assert [path for path, _ in groups] == ["/data", "/other"]
    assert [g.task for g in groups[0][1]] == ["a", "c"]


# -- concrete plan -------------------------------------------------------------------


def test_plan_has_batches_for_all_epochs(dataset):
    cfg = make_config(vpb=4)
    plan = build_plan_window([cfg], dataset, 0, 3, seed=1)
    assert plan.iterations_per_epoch["t"] == 3  # 12 videos / 4 per batch
    assert len(plan.batches) == 9
    for (task, epoch, iteration), assembly in plan.batches.items():
        assert len(assembly.samples) == 4  # one sample per video


def test_each_video_used_once_per_epoch(dataset):
    cfg = make_config(vpb=4)
    plan = build_plan_window([cfg], dataset, 0, 2, seed=1)
    for epoch in (0, 1):
        videos = [
            vid
            for (t, e, i), a in plan.batches.items()
            if e == epoch
            for vid, _ in a.samples
        ]
        assert sorted(videos) == sorted(dataset.video_ids)


def test_identical_tasks_fully_merge(dataset):
    a, b = make_config("a"), make_config("b")
    both = build_plan_window([a, b], dataset, 0, 2, seed=1)
    solo = build_plan_window([a], dataset, 0, 2, seed=1)
    # Same op counts: the second identical task adds no new unique work.
    assert both.operation_counts() == solo.operation_counts()
    # But twice the references.
    assert both.reference_counts()["random_crop"] == (
        2 * solo.reference_counts()["random_crop"]
    )


def test_coordination_reduces_unique_ops(dataset):
    tasks = [
        make_config("a", frames=8, stride=2),
        make_config("b", frames=4, stride=4),
    ]
    coord = build_plan_window(tasks, dataset, 0, 3, seed=1, coordinated=True)
    indep = build_plan_window(tasks, dataset, 0, 3, seed=1, coordinated=False)
    c, u = coord.operation_counts(), indep.operation_counts()
    assert c["decode"] < u["decode"]
    assert c["random_crop"] < u["random_crop"]
    # Reference counts (work without any merging) are identical: the same
    # number of samples is produced either way.
    assert coord.reference_counts()["collate"] == indep.reference_counts()["collate"]


def test_sample_leaf_has_uses_and_frame_indices(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=1)
    leaves = [leaf for g in plan.graphs.values() for leaf in g.leaves()]
    assert leaves
    for leaf in leaves:
        assert leaf.kind == "sample"
        assert leaf.frame_indices
        assert all(u.task == "t" for u in leaf.uses)


def test_samples_per_video_multiplies_leaves(dataset):
    plan = build_plan_window([make_config(samples=2)], dataset, 0, 1, seed=1)
    assembly = plan.batches[("t", 0, 0)]
    assert len(assembly.samples) == 8  # 4 videos x 2 samples


def test_plan_determinism(dataset):
    p1 = build_plan_window([make_config()], dataset, 0, 2, seed=9)
    p2 = build_plan_window([make_config()], dataset, 0, 2, seed=9)
    assert sorted(p1.graphs) == sorted(p2.graphs)
    for vid in p1.graphs:
        assert sorted(p1.graphs[vid].nodes) == sorted(p2.graphs[vid].nodes)
    p3 = build_plan_window([make_config()], dataset, 0, 2, seed=10)
    all_nodes = lambda p: sorted(k for g in p.graphs.values() for k in g.nodes)
    assert all_nodes(p1) != all_nodes(p3)


def test_global_step_and_first_use(dataset):
    plan = build_plan_window([make_config(vpb=4)], dataset, 0, 2, seed=1)
    assert plan.global_step("t", 0, 0) == 0
    assert plan.global_step("t", 1, 0) == 3
    assert plan.global_step("t", 1, 2) == 5
    steps = [
        plan.first_use_step(leaf)
        for g in plan.graphs.values()
        for leaf in g.leaves()
    ]
    assert min(steps) == 0
    assert max(steps) == 5


def test_decode_plan_covers_wanted_frames(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=1)
    for graph in plan.graphs.values():
        decoded = set(graph.decode_plan())
        assert graph.wanted_frames <= decoded


def test_rejects_batch_larger_than_dataset(dataset):
    with pytest.raises(ValueError):
        build_plan_window([make_config(vpb=100)], dataset, 0, 1)


def test_rejects_empty_inputs(dataset):
    with pytest.raises(ValueError):
        build_plan_window([], dataset, 0, 1)
    with pytest.raises(ValueError):
        build_plan_window([make_config()], dataset, 0, 0)


# -- pruning ----------------------------------------------------------------------


def test_full_budget_keeps_leaves(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=1)
    total = plan.total_cached_bytes()
    outcome = prune_plan(plan, total * 1.01)
    assert outcome.met_budget
    assert outcome.total_recompute_s == 0.0
    for vid, graph in plan.graphs.items():
        assert outcome.frontier_of(vid) == {leaf.key for leaf in graph.leaves()}


def test_pruning_meets_achievable_budget(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=1)
    total = plan.total_cached_bytes()
    outcome = prune_plan(plan, total * 0.5)
    assert outcome.met_budget
    assert outcome.final_bytes <= total * 0.5
    assert outcome.total_recompute_s > 0.0


def test_tighter_budget_means_more_recompute(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=1)
    total = plan.total_cached_bytes()
    loose = prune_plan(plan, total * 0.8)
    tight = prune_plan(plan, total * 0.35)
    assert tight.final_bytes <= loose.final_bytes
    assert tight.total_recompute_s >= loose.total_recompute_s


def test_unmeetable_budget_reported(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 2, seed=1)
    outcome = prune_plan(plan, 1.0)  # one byte
    assert not outcome.met_budget
    assert outcome.prune_steps > 0


def test_pruned_recompute_beats_naive_at_same_budget(dataset):
    # The Fig 17 shape: at a constrained budget, Algorithm 1's frontier
    # needs less feed-time recomputation than naive leaf caching, because
    # the naive policy pays full decode for every uncached sample.
    tasks = [make_config("a"), make_config("b", frames=4, stride=4)]
    plan = build_plan_window(tasks, dataset, 0, 3, seed=1)
    total = plan.total_cached_bytes()
    budget = total * 0.4
    pruned = prune_plan(plan, budget)
    naive = naive_budgeted_leaves(plan, budget)
    assert pruned.total_recompute_s < naive.total_recompute_s


def test_cache_everything_outcome(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=1)
    outcome = cache_everything(plan)
    assert outcome.met_budget
    assert outcome.total_recompute_s == 0.0
    assert outcome.final_bytes == pytest.approx(plan.total_cached_bytes())


def test_prune_rejects_nonpositive_budget(dataset):
    plan = build_plan_window([make_config()], dataset, 0, 1, seed=1)
    with pytest.raises(ValueError):
        prune_plan(plan, 0)
    with pytest.raises(ValueError):
        naive_budgeted_leaves(plan, -5)


# -- golden plans ------------------------------------------------------------------
# A plan is a pure function of (seed, window, tasks): these digests were
# captured before build_plan_window was made cheaper (PR 18) and pin every
# key, draw and float of it.  A change that moves one changes what is
# cached under which name — that is a format change, not an optimization.

GOLDEN_EXTRA_AUG = [
    {
        "branch_type": "random",
        "inputs": ["a1"],
        "outputs": ["a2"],
        "branches": [
            {"prob": 0.5, "config": [{"flip": {"flip_prob": 0.5}}]},
            {"prob": 0.5, "config": None},
        ],
    },
    {
        "branch_type": "conditional",
        "inputs": ["a2"],
        "outputs": ["a3"],
        "branches": [
            {"condition": "iteration >= 2", "config": [{"inv_sample": True}]},
            {"condition": "else", "config": None},
        ],
    },
]


def golden_tasks(count):
    return [
        make_config("a", samples=2, extra_aug=GOLDEN_EXTRA_AUG),
        make_config("b", frames=4, stride=4, crop=(12, 12)),
    ][:count]


def plan_digest(plan):
    digest = hashlib.sha256()

    def feed(*parts):
        digest.update(("\x1f".join(map(repr, parts)) + "\n").encode())

    for video_id, graph in plan.graphs.items():
        feed("graph", video_id, sorted(graph.wanted_frames))
        for node in graph.nodes.values():
            feed(
                node.key, node.kind, node.parents, node.size_bytes, node.op_name,
                node.op_cost_s, node.clip_shape, node.frame_index,
                node.frame_indices, node.op_args, node.clip_ops, node.ref_count,
                [(u.task, u.epoch, u.iteration, u.slot) for u in node.uses],
                graph.children(node.key),
            )
    for key, assembly in plan.batches.items():
        feed("batch", key, assembly.samples)
    feed("iterations", sorted(plan.iterations_per_epoch.items()))
    return digest.hexdigest()


GOLDEN_PLANS = {  # (tasks, window start, coordinated) -> sha256, from the parent of PR 18
    (1, 0, True): "9bbc93f6b80d5f14af08453ca2c0a506efd8125b2ffb2a6f97e9192ab16661bf",
    (1, 0, False): "f16cee388778917990e3bf5c770fef9569f2fe769fc87a02db4e71e806d5147f",
    (1, 2, True): "9a31a4b0e44a5bf7c0a367c32e193e67a5902a0bd7b9790366b97830da2fcd6e",
    (1, 2, False): "7e25df6da51b5150a27af25645ccbbfa798adabeb82cabe00c19b8ee270fe883",
    (2, 0, True): "e1576e908a1f9c82abfd6a14488684613f803439e8cec1b4000a051617301e23",
    (2, 0, False): "5209c6719c589d2f566d3168f81a4af7a2b019c0d6d6a97ac4cc447d33b493cf",
    (2, 2, True): "aea353140c9ac4060b9842ce7bf1bea4df190f6d770b71c7ac386721968ab714",
    (2, 2, False): "e8708edd4e270be184421f0749dea9d2ef6ebd2ae5f00458e99f51aa64e5c355",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PLANS))
def test_plan_matches_golden_digest(dataset, case):
    count, epoch_start, coordinated = case
    plan = build_plan_window(
        golden_tasks(count), dataset, epoch_start, 2, seed=7, coordinated=coordinated
    )
    assert plan_digest(plan) == GOLDEN_PLANS[case]

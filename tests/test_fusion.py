"""Differential tests for the augmentation plan compiler (fusion).

The hard invariant: a fused plan produces the *exact bytes* of the
step-by-step chain it compiles — across seeds, op orderings, pad modes,
and through the materializer/engine copy-elision paths, where the
step-by-step walk is ``tests/reference_materializer.py`` — while the
traffic ledger shows the fused path doing measurably less work.
"""

import itertools

import numpy as np
import pytest

from repro.augment.fusion import (
    GatherSegment,
    TrafficLedger,
    compile_steps,
    plan_for,
)
from repro.augment.ops import params_key_cache_info, stable_params_key
from repro.augment.pipeline import ResolvedStep, apply_steps
from repro.augment.registry import default_registry
from repro.core import (
    PreprocessingEngine,
    VideoMaterializer,
    build_plan_window,
    load_task_config,
)
from repro.datasets import DatasetSpec, SyntheticDataset
from repro.storage.objectstore import ObjectStore
from tests.reference_materializer import ReferenceMaterializer

REGISTRY = default_registry()


def step(name, config=None, params=None):
    return ResolvedStep(op=REGISTRY.create(name, config or {}), params=params or {})


def clip_for(seed, t=4, h=32, w=24):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8)


def assert_differential(chain, clip):
    expected = apply_steps(clip, chain)
    plan = compile_steps(chain, clip.shape)
    got = plan.run(clip, TrafficLedger())
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    return plan


# -- differential: seeds and orderings ----------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_standard_pipeline_bit_identical(seed):
    rng = np.random.default_rng(seed + 100)
    chain = [
        step("random_crop", {"size": [20, 16]},
             {"top": int(rng.integers(0, 13)), "left": int(rng.integers(0, 9))}),
        step("resize", {"shape": [16, 16]}),
        step("flip", params={"flipped": bool(rng.integers(0, 2))}),
        step("normalize", {}),
    ]
    assert_differential(chain, clip_for(seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_op_orderings_bit_identical(seed):
    # Geometry chosen so every permutation is valid: a 12x12 crop fits
    # both the 32x24 input and the 16x16 resize output.
    clip = clip_for(seed)
    ops = {
        "crop": step("random_crop", {"size": [12, 12]}, {"top": 2, "left": 1}),
        "resize": step("resize", {"shape": [16, 16]}),
        "flip": step("flip", params={"flipped": True}),
        "normalize": step("normalize", {}),
    }
    for order in itertools.permutations(ops):
        chain = [ops[name] for name in order]
        assert_differential(chain, clip)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pad_chains_bit_identical(seed):
    clip = clip_for(seed)
    cases = [
        # Edge pad composes through a downstream bilinear resize.
        [step("pad", {"padding": [2, 1, 3, 0], "mode": "edge"}),
         step("resize", {"shape": [20, 20]})],
        # Constant pad before resize forces a segment split.
        [step("pad", {"padding": [2, 2, 3, 3], "mode": "constant", "value": 7}),
         step("resize", {"shape": [20, 20]})],
        # Constant pad after resize stays in the segment (fill mask).
        [step("resize", {"shape": [20, 20]}),
         step("pad", {"padding": [1, 2, 0, 3], "mode": "constant", "value": 9}),
         step("flip", params={"flipped": True}),
         step("normalize", {})],
        # Two constant pads, same fill: one segment; crop in between.
        [step("pad", {"padding": [1, 1, 1, 1], "mode": "constant", "value": 4}),
         step("center_crop", {"size": [30, 22]}),
         step("pad", {"padding": [2, 0, 0, 2], "mode": "constant", "value": 4})],
        # Two constant pads, different fills: must split, still exact.
        [step("pad", {"padding": [1, 1, 1, 1], "mode": "constant", "value": 4}),
         step("pad", {"padding": [2, 0, 0, 2], "mode": "constant", "value": 200})],
        # Edge pad after constant pad replicates the fill border.
        [step("pad", {"padding": [1, 1, 1, 1], "mode": "constant", "value": 13}),
         step("pad", {"padding": [0, 2, 2, 0], "mode": "edge"}),
         step("normalize", {})],
    ]
    for chain in cases:
        assert_differential(chain, clip)


def test_two_resizes_split_preserves_intermediate_rounding():
    clip = clip_for(7)
    chain = [step("resize", {"shape": [20, 20]}), step("resize", {"shape": [11, 13]})]
    plan = assert_differential(chain, clip)
    assert len(plan.segments) == 2  # rounding point per segment


def test_opaque_ops_break_segments_but_stay_exact():
    clip = clip_for(8)
    chain = [
        step("center_crop", {"size": [28, 20]}),
        step("blur", {"sigma": 0.8}),
        step("resize", {"shape": [14, 14]}),
        step("color_jitter", {"brightness": 0.4, "contrast": 0.4},
             {"brightness": 1.2, "contrast": 0.9}),
        step("normalize", {}),
    ]
    plan = assert_differential(chain, clip)
    kinds = [type(s).__name__ for s in plan.segments]
    assert kinds == ["GatherSegment", "OpSegment", "GatherSegment", "OpSegment",
                     "PointwiseSegment"]


def test_float_input_resize_path_is_exact():
    # normalize first => later gather ops run on float32 clips.
    clip = clip_for(9)
    chain = [
        step("normalize", {}),
        step("resize", {"shape": [16, 16]}),
        step("flip", params={"flipped": True}),
    ]
    assert_differential(chain, clip)


# -- identity short-circuits ---------------------------------------------------


def test_identity_chain_returns_input_with_zero_traffic():
    clip = clip_for(10)
    chain = [
        step("resize", {"shape": [32, 24]}),       # input shape
        step("center_crop", {"size": [32, 24]}),   # full frame
        step("flip", params={"flipped": False}),
        step("pad", {"padding": [0, 0, 0, 0]}),
    ]
    plan = compile_steps(chain, clip.shape)
    assert plan.identity_ops == ("resize", "center_crop", "flip", "pad")
    assert plan.segments == []
    ledger = TrafficLedger()
    out = plan.run(clip, ledger)
    assert out is clip  # no copy at all
    assert ledger.clip_passes == 0
    assert ledger.bytes_allocated == 0
    assert ledger.bytes_copied == 0
    assert ledger.identity_skips == 4


def test_identity_ops_return_input_unfused_too():
    clip = clip_for(11)
    assert REGISTRY.create("resize", {"shape": [32, 24]}).apply(clip, {}) is clip
    assert REGISTRY.create("center_crop", {"size": [32, 24]}).apply(clip, {}) is clip
    assert REGISTRY.create("flip", {}).apply(clip, {"flipped": False}) is clip
    assert REGISTRY.create("pad", {"padding": [0, 0, 0, 0]}).apply(clip, {}) is clip


def test_mid_chain_identity_is_elided():
    clip = clip_for(12)
    chain = [
        step("center_crop", {"size": [24, 24]}),
        step("resize", {"shape": [24, 24]}),  # identity at this position
        step("flip", params={"flipped": True}),
    ]
    plan = assert_differential(chain, clip)
    assert plan.identity_ops == ("resize",)
    assert len(plan.segments) == 1


# -- fused pipelines do less work ---------------------------------------------


def test_fused_pipeline_halves_passes_and_bytes():
    clip = clip_for(13, t=8)
    chain = [
        step("random_crop", {"size": [20, 16]}, {"top": 3, "left": 2}),
        step("resize", {"shape": [16, 16]}),
        step("flip", params={"flipped": True}),
        step("normalize", {}),
    ]
    unfused = TrafficLedger()
    work = clip
    for s in chain:
        result = s.apply(work)
        if result is work:
            unfused.identity_skips += 1
        else:
            unfused.charge(result.nbytes)
        work = result
    fused = TrafficLedger()
    plan = compile_steps(chain, clip.shape)
    got = plan.run(clip, fused)
    assert np.array_equal(got, work)
    assert fused.clip_passes * 2 <= unfused.clip_passes
    assert fused.bytes_copied <= 0.6 * unfused.bytes_copied


def test_plan_for_is_memoized():
    chain = (
        ("resize", '{"shape": [16, 16]}', "{}"),
        ("flip", "{}", '{"flipped": true}'),
    )
    first = plan_for(REGISTRY, chain, (1, 32, 24, 3))
    second = plan_for(REGISTRY, chain, (1, 32, 24, 3))
    assert first is second
    assert isinstance(first.segments[0], GatherSegment)


# -- materializer integration --------------------------------------------------


def make_config(tag="t", vpb=2):
    return load_task_config({
        "dataset": {
            "tag": tag,
            "video_dataset_path": "/d",
            "sampling": {
                "videos_per_batch": vpb,
                "frames_per_video": 4,
                "frame_stride": 2,
            },
            "augmentation": [
                {
                    "branch_type": "single",
                    "inputs": ["frame"],
                    "outputs": ["a0"],
                    "config": [
                        {"random_crop": {"size": [18, 18]}},
                        {"resize": {"shape": [12, 12]}},
                        {"flip": {"flip_prob": 0.5}},
                        {"normalize": None},
                    ],
                }
            ],
        }
    })


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataset(
        DatasetSpec(num_videos=6, min_frames=30, max_frames=45, width=32,
                    height=24, seed=3)
    )


@pytest.fixture(scope="module")
def plan(dataset):
    return build_plan_window([make_config()], dataset, 0, 2, seed=5)


@pytest.mark.parametrize("stored", [False, True], ids=["no_store", "store"])
def test_materializer_fused_leaves_match_reference(dataset, plan, stored):
    """Every leaf of every video equals the oracle's: computed straight
    into a buffer, or persisted with every leaf on the frontier and read
    back by a cold materializer."""
    for vid, graph in plan.graphs.items():
        leaves = graph.leaves()
        store = ObjectStore(10**8) if stored else None
        frontier = {leaf.key for leaf in leaves} if stored else None
        fused = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store,
                                  frontier=frontier)
        reader = fused
        if stored:
            assert fused.materialize_frontier() == len(leaves)
            reader = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store,
                                       frontier=frontier)
        oracle = ReferenceMaterializer(plan, dataset)
        for leaf in leaves:
            expected = oracle.get(vid, leaf.key)
            out = np.empty_like(expected)
            reader.get_into(leaf.key, out)
            assert np.array_equal(out, expected), leaf.key
        # Same logical op counts either way; far fewer physical passes.
        assert fused.stats.ops_applied == oracle.ops_applied
        assert fused.stats.traffic.clip_passes * 2 <= oracle.traffic.clip_passes
        assert fused.stats.traffic.bytes_copied <= 0.6 * oracle.traffic.bytes_copied
        if stored:
            assert reader.stats.cache_hits == len(leaves)
            assert reader.stats.ops_applied == {}
            assert reader.stats.frames_decoded == 0


def test_materializer_get_into_matches_get(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    reference = VideoMaterializer(graph, dataset.get_bytes(vid))
    target = VideoMaterializer(graph, dataset.get_bytes(vid))
    for leaf in graph.leaves():
        expected = reference.get(leaf.key)
        out = np.empty(expected.shape, dtype=expected.dtype)
        target.get_into(leaf.key, out)
        assert np.array_equal(out, expected), leaf.key


def test_get_into_falls_back_for_memoized_and_cached_leaves(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    leaf = graph.leaves()[0]
    # Memoized: the fast path must not recompute past the memo.
    mat = VideoMaterializer(graph, dataset.get_bytes(vid))
    expected = mat.get(leaf.key)
    out = np.empty(expected.shape, dtype=expected.dtype)
    mat.get_into(leaf.key, out)
    assert np.array_equal(out, expected)
    # Cached: a fresh materializer serves the persisted bytes.
    store = ObjectStore(10**8)
    frontier = {leaf.key}
    warm = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store,
                             frontier=frontier)
    warm.materialize_frontier()
    cold = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store,
                             frontier=frontier)
    out2 = np.empty(expected.shape, dtype=expected.dtype)
    cold.get_into(leaf.key, out2)
    assert np.array_equal(out2, expected)
    assert cold.stats.cache_hits == 1
    assert cold.stats.frames_decoded == 0


def test_fused_materializer_still_persists_frontier(dataset, plan):
    vid = next(iter(plan.graphs))
    graph = plan.graphs[vid]
    store = ObjectStore(10**8)
    frontier = {leaf.key for leaf in graph.leaves()}
    mat = VideoMaterializer(graph, dataset.get_bytes(vid), cache=store,
                            frontier=frontier)
    mat.materialize_frontier()
    assert mat.stats.cache_stores == len(frontier)


# -- engine integration --------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_fused_batches_byte_identical_across_seeds(dataset, seed):
    window = build_plan_window([make_config()], dataset, 0, 1, seed=seed)
    fused = PreprocessingEngine(window, dataset, num_workers=0)
    oracle = ReferenceMaterializer(window, dataset)
    for key in sorted(window.batches):
        a, _ = fused.get_batch(*key)
        b = oracle.get_batch(*key)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), key
    assert fused.stats.traffic.clip_passes * 2 <= oracle.traffic.clip_passes
    assert fused.stats.traffic.bytes_copied <= 0.6 * oracle.traffic.bytes_copied
    assert fused.stats.traffic.fused_segments > 0


def test_engine_fused_with_premat_workers_matches_unfused(dataset, plan):
    fused = PreprocessingEngine(plan, dataset, num_workers=2)
    oracle = ReferenceMaterializer(plan, dataset)
    with fused:
        fused.drain()
        for key in sorted(plan.batches):
            a, _ = fused.get_batch(*key)
            b = oracle.get_batch(*key)
            assert np.array_equal(a, b), key


# -- stable_params_key memoization --------------------------------------------


def test_params_key_memo_hits_and_matches_plain_json():
    import json

    params = {"top": 3, "left": 2, "flipped": True, "scale": 0.5}
    expected = json.dumps(params, sort_keys=True, separators=(",", ":"))
    before = params_key_cache_info()
    assert stable_params_key(params) == expected
    assert stable_params_key(dict(params)) == expected  # distinct dict, same content
    after = params_key_cache_info()
    assert after["hits"] > before["hits"]


def test_params_key_distinguishes_bool_int_float():
    keys = {
        stable_params_key({"v": True}),
        stable_params_key({"v": 1}),
        stable_params_key({"v": 1.0}),
    }
    assert len(keys) == 3  # True/1/1.0 hash equal but serialize differently


def test_params_key_handles_nested_containers():
    import json

    params = {"window": [1, 2], "nested": {"a": [3, 4]}}
    expected = json.dumps(params, sort_keys=True, separators=(",", ":"))
    assert stable_params_key(params) == expected
    assert stable_params_key({"x": 1}) == '{"x":1}'


def test_resolved_step_key_is_cached_and_stable():
    s = step("resize", {"shape": [16, 16]})
    first = s.key
    assert s.key is first  # computed once
    assert first == ("resize", '{"shape":[16,16]}', "{}")

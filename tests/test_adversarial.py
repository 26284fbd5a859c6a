"""Adversarial trace transforms: determinism, composition, timing.

The contract under test (repro/workloads/adversarial.py):

* every transform's ``apply`` is a **pure function** of (transform
  params, input trace) — same seed, same base trace → bit-identical
  output arrays, across repeated applications and composition orders;
* transforms preserve the total op count unless documented otherwise
  (``PRESERVES_OP_COUNT``; :class:`ScanInterference` is the one
  exception and its growth is exactly ``injected_ops``);
* attached arrival schedules are int64, non-negative, nondecreasing,
  and survive ``Trace`` slicing and save/load round trips;
* :class:`Scenario` window labels line measurement windows up with
  ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.driver import ReplayConfig
from repro.workloads import kv_cache_trace
from repro.workloads.adversarial import (
    SCENARIOS,
    DiurnalWave,
    FlashCrowd,
    HotKeyMigration,
    Scenario,
    ScanInterference,
    SizeMixDrift,
    build_scenario,
    compose,
)
from repro.workloads.trace import OP_GET, Trace

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _base(num_ops=800, seed=7):
    return kv_cache_trace(num_ops=num_ops, num_keys=96, seed=seed)


def _trace_fingerprint(trace):
    arr = trace.arrivals_ns
    return (
        trace.ops.tobytes(),
        trace.keys.tobytes(),
        trace.sizes.tobytes(),
        None if arr is None else arr.tobytes(),
    )


ALL_TRANSFORMS = [
    lambda seed: DiurnalWave(period_ops=200, seed=seed),
    lambda seed: FlashCrowd(crowd_keys=32, seed=seed),
    lambda seed: HotKeyMigration(num_epochs=3, seed=seed),
    lambda seed: SizeMixDrift(end_scale=1.7, seed=seed),
    lambda seed: ScanInterference(every_ops=150, scan_run=16, seed=seed),
]


# ----------------------------------------------------------------------
# purity / determinism properties
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    base_seed=st.integers(0, 2**31 - 1),
    picks=st.lists(
        st.integers(0, len(ALL_TRANSFORMS) - 1), min_size=1, max_size=4
    ),
)
def test_composition_is_pure_function_of_seed_and_trace(
    seed, base_seed, picks
):
    """Any composition is bit-determined by (seeds, base trace)."""
    transforms = [ALL_TRANSFORMS[i](seed) for i in picks]
    base = _base(seed=base_seed)
    once = compose(base, transforms)
    again = compose(_base(seed=base_seed), transforms)
    assert _trace_fingerprint(once) == _trace_fingerprint(again)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    picks=st.lists(
        st.integers(0, len(ALL_TRANSFORMS) - 1), min_size=1, max_size=4
    ),
)
def test_op_count_preserved_unless_documented(seed, picks):
    """Op count changes only via the documented ScanInterference path."""
    transforms = [ALL_TRANSFORMS[i](seed) for i in picks]
    base = _base()
    out = base
    for t in transforms:
        before = len(out)
        grown = out
        out = t.apply(out)
        if t.PRESERVES_OP_COUNT:
            assert len(out) == before
        else:
            assert len(out) == before + t.injected_ops(len(grown))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    picks=st.lists(
        st.integers(0, len(ALL_TRANSFORMS) - 1), min_size=1, max_size=4
    ),
)
def test_arrival_schedules_are_valid(seed, picks):
    """Attached schedules are int64, non-negative, nondecreasing."""
    transforms = [ALL_TRANSFORMS[i](seed) for i in picks]
    out = compose(_base(), transforms)
    arr = out.arrivals_ns
    if arr is None:
        return
    assert arr.dtype == np.int64
    assert len(arr) == len(out)
    assert arr[0] >= 0
    assert bool(np.all(np.diff(arr) >= 0))


def test_transforms_do_not_mutate_input():
    base = _base()
    snapshot = _trace_fingerprint(base)
    for factory in ALL_TRANSFORMS:
        factory(3).apply(base)
    assert _trace_fingerprint(base) == snapshot


def test_different_seeds_diverge():
    base = _base()
    a = FlashCrowd(seed=1).apply(base)
    b = FlashCrowd(seed=2).apply(base)
    assert not np.array_equal(a.keys, b.keys)


# ----------------------------------------------------------------------
# per-transform behavior
# ----------------------------------------------------------------------


def test_diurnal_wave_modulates_rate_only():
    base = _base()
    out = DiurnalWave(
        base_interval_ns=100_000, period_ops=400, amplitude=0.5
    ).apply(base)
    assert np.array_equal(out.ops, base.ops)
    assert np.array_equal(out.keys, base.keys)
    assert np.array_equal(out.sizes, base.sizes)
    gaps = np.diff(out.arrivals_ns)
    # Rate swings ±50% → gaps span roughly [base/1.5, base/0.5].
    assert gaps.min() < 80_000 < 120_000 < gaps.max()


def test_flash_crowd_redirects_inside_window_only():
    base = _base(num_ops=1000)
    crowd = FlashCrowd(
        start_frac=0.4,
        duration_frac=0.2,
        crowd_keys=16,
        crowd_fraction=1.0,
        arrival_speedup=4.0,
        seed=5,
    )
    out = crowd.apply(base)
    start, stop = crowd._window(1000)
    # Outside the burst nothing moves.
    assert np.array_equal(out.keys[:start], base.keys[:start])
    assert np.array_equal(out.keys[stop:], base.keys[stop:])
    # Inside, every op lands on a fresh key above the base keyspace.
    assert (out.keys[start:stop] > base.keys.max()).all()
    assert len(np.unique(out.keys[start:stop])) <= 16
    # Burst gaps are compressed by the speedup.
    gaps = np.diff(out.arrivals_ns)
    in_burst = gaps[start : stop - 1]
    outside = gaps[: start - 1]
    assert in_burst.mean() < outside.mean() / 2


def test_flash_crowd_sizes_are_per_key_deterministic():
    base = _base(num_ops=1000)
    out = FlashCrowd(
        start_frac=0.2, duration_frac=0.6, crowd_fraction=1.0, seed=9
    ).apply(base)
    start, stop = FlashCrowd(
        start_frac=0.2, duration_frac=0.6, crowd_fraction=1.0, seed=9
    )._window(1000)
    keys = out.keys[start:stop]
    sizes = out.sizes[start:stop]
    for key in np.unique(keys)[:20]:
        assert len(np.unique(sizes[keys == key])) == 1


def test_hot_key_migration_epochs_are_disjoint():
    base = _base(num_ops=1200)
    mig = HotKeyMigration(num_epochs=3, top_fraction=0.05, seed=4)
    out = mig.apply(base)
    n = len(base)
    epochs = (np.arange(n) * 3) // n
    migrated = out.keys != base.keys
    # Epoch 0 keeps original identities.
    assert not migrated[epochs == 0].any()
    # Later epochs migrate something, onto disjoint fresh keyspaces.
    e1 = set(out.keys[(epochs == 1) & migrated].tolist())
    e2 = set(out.keys[(epochs == 2) & migrated].tolist())
    assert e1 and e2
    assert not (e1 & e2)
    assert min(e1 | e2) > int(base.keys.max())


def test_size_mix_drift_ramps_monotonically():
    base = _base()
    out = SizeMixDrift(end_scale=3.0).apply(base)
    ratio = out.sizes / np.maximum(base.sizes, 1)
    # Late ops are scaled more than early ops; end scale reaches ~3x.
    assert ratio[-1] > ratio[0]
    assert ratio[-1] == pytest.approx(3.0, rel=0.05)
    assert (out.sizes >= 1).all()


def test_scan_interference_injects_exact_run_lengths():
    base = _base(num_ops=1000)
    scan = ScanInterference(every_ops=300, scan_run=20, seed=2)
    out = scan.apply(base)
    assert len(out) == 1000 + scan.injected_ops(1000)
    # Injected ops are GETs over a fresh, strictly sequential keyspace.
    injected = ~np.isin(out.keys, base.keys)
    assert injected.sum() == scan.injected_ops(1000)
    scan_keys = out.keys[injected]
    assert (np.diff(scan_keys) == 1).all()
    assert (out.ops[injected] == OP_GET).all()


def test_scan_interference_keeps_arrivals_nondecreasing():
    base = DiurnalWave(base_interval_ns=50_000, amplitude=0.3).apply(
        _base(num_ops=1000)
    )
    out = ScanInterference(every_ops=250, scan_run=10).apply(base)
    assert bool(np.all(np.diff(out.arrivals_ns) >= 0))


# ----------------------------------------------------------------------
# scenarios and labels
# ----------------------------------------------------------------------


def test_scenario_window_labels_mark_the_burst():
    base = _base(num_ops=1000)
    crowd = FlashCrowd(start_frac=0.4, duration_frac=0.2, seed=1)
    scenario = Scenario("crowd", (crowd,))
    labels = scenario.window_labels(1000, 5)
    assert len(labels) == 5
    fracs = [lb["flash_crowd"] for lb in labels]
    # The burst occupies exactly window 2 of 5 ([400, 600)).
    assert fracs[2] == pytest.approx(1.0)
    assert fracs[0] == fracs[4] == 0.0


def test_scenario_preserves_op_count_flag():
    assert Scenario("a", (DiurnalWave(),)).preserves_op_count
    assert not Scenario(
        "b", (DiurnalWave(), ScanInterference())
    ).preserves_op_count


def test_build_scenario_registry():
    for name in SCENARIOS:
        scenario = build_scenario(name, seed=3)
        out = scenario.apply(_base())
        assert out.arrivals_ns is not None  # every row replays open loop
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("nope")


def test_build_scenario_benign_is_fixed_rate():
    out = build_scenario("benign", seed=0, base_interval_ns=123).apply(
        _base()
    )
    assert (np.diff(out.arrivals_ns) == 123).all()


# ----------------------------------------------------------------------
# Trace arrival-schedule plumbing
# ----------------------------------------------------------------------


def test_trace_arrivals_survive_slice_and_roundtrip(tmp_path):
    out = DiurnalWave(base_interval_ns=70_000).apply(_base())
    part = out.slice(100, 300)
    assert np.array_equal(part.arrivals_ns, out.arrivals_ns[100:300])
    path = tmp_path / "trace.csv.gz"
    out.save(path)
    loaded = Trace.load(path)
    assert np.array_equal(loaded.arrivals_ns, out.arrivals_ns)
    assert np.array_equal(loaded.keys, out.keys)


def test_trace_slice_indices_carries_arrivals():
    out = DiurnalWave().apply(_base())
    idx = [2, 5, 11, 400]
    part = out.slice_indices(idx)
    assert np.array_equal(part.arrivals_ns, out.arrivals_ns[idx])


def test_trace_rejects_bad_arrival_schedules():
    base = _base(num_ops=4)
    with pytest.raises(ValueError, match="nondecreasing"):
        Trace(
            base.ops,
            base.keys,
            base.sizes,
            arrivals_ns=np.array([3, 2, 1, 0], dtype=np.int64),
        )
    with pytest.raises(ValueError, match="match the op count"):
        Trace(
            base.ops,
            base.keys,
            base.sizes,
            arrivals_ns=np.array([1, 2], dtype=np.int64),
        )


def test_replay_config_schedule_validation():
    with pytest.raises(ValueError, match="mutually exclusive"):
        ReplayConfig(
            arrival_interval_ns=10,
            arrival_schedule_ns=np.array([1, 2], dtype=np.int64),
        )
    with pytest.raises(ValueError, match="nondecreasing"):
        ReplayConfig(arrival_schedule_ns=np.array([5, 1], dtype=np.int64))
    # The same rules as Trace.arrivals_ns: non-negative and 1-D too.
    with pytest.raises(ValueError, match="non-negative"):
        ReplayConfig(arrival_schedule_ns=np.array([-5, 1]))
    with pytest.raises(ValueError, match="one-dimensional"):
        ReplayConfig(arrival_schedule_ns=np.array([[1, 2], [3, 4]]))
    with pytest.raises(ValueError, match="one-dimensional"):
        ReplayConfig(arrival_schedule_ns=np.int64(7))
    cfg = ReplayConfig(arrival_schedule_ns=np.array([1, 5], dtype=np.int64))
    assert cfg.arrival_schedule_ns.dtype == np.int64

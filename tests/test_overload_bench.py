"""Overload bench: governor bit-identity, soak acceptance, provenance.

Three guarantees from the overload-robustness PR:

* **Bit-identity** — attaching a load governor to a fleet replaying
  benign closed-loop stationary traffic changes *nothing*: the device
  surfaces match a governor-less fleet exactly (same comparator as the
  batched-I/O differential harness) and every shed counter stays zero.
  Closed-loop replay bounds the device backlog far below the brownout
  threshold, so the governor observes but never acts.
* **Soak acceptance** — the flash-crowd soak's gate holds at smoke
  scale: the governed arm stays bounded through the burst and recovers,
  the ungoverned arm collapses, on the same seed and trace.
* **Provenance** — sweep failures carry their originating
  :class:`SweepPoint` parameters, and the scenario matrix pairs FDP
  arms on a shared per-row seed.
"""

from __future__ import annotations

import pytest

from repro.bench.driver import ReplayConfig
from repro.bench.overload import matrix_points
from repro.bench.parallel import SweepPoint, run_sweep
from repro.bench.runner import Scale, make_trace
from repro.bench.soak import make_crowd_trace, run_overload_soak
from repro.fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    GovernorConfig,
    ShardSpec,
)
from repro.workloads.adversarial import SCENARIOS
from tests.test_differential_batch import assert_identical
from tests.test_golden_regression import _check_golden

TINY = Scale(num_superblocks=32, num_ops=4_000)
UTILIZATION = 0.9


def _trace(seed):
    nvm = int(TINY.geometry().logical_bytes * UTILIZATION)
    return make_trace("kvcache", nvm, TINY, num_ops=4_000, seed=seed)


def _run(trace, governor):
    shards = [
        ShardSpec(
            f"s{i}", utilization=UTILIZATION, scale=TINY
        ).build()
        for i in range(2)
    ]
    fleet = FleetCache(shards, FleetConfig(ring_seed=7, governor=governor))
    FleetDriver(fleet).run(trace)
    return fleet


@pytest.mark.parametrize("seed", [13, 2026])
def test_attached_governor_is_bit_identical_on_benign_traffic(seed):
    """The core invariant: an idle governor perturbs nothing.

    Closed-loop replay keeps device backlog bounded by the replay
    config's backlog cap — far under the default 60 ms brownout
    threshold — so the governor must stay HEALTHY, where admit_set()
    and allow_retry() are stateless passes on the exact pre-PR path.
    """
    trace = _trace(seed)
    plain = _run(trace, None)
    governed = _run(trace, GovernorConfig())

    for sid in plain.shards:
        assert_identical(
            plain.shards[sid].backend.cache.device,
            governed.shards[sid].backend.cache.device,
        )
        a = plain.shards[sid].backend.cache
        b = governed.shards[sid].backend.cache
        assert b.resident_items() == a.resident_items()
        assert b.hits_by_layer == a.hits_by_layer
        assert b.shed_loc_admissions == 0

    counters = governed.governor_counters()
    assert counters["shed_sets"] == 0
    assert counters["brownout_transitions"] == 0
    assert counters["retry_budget_exhausted"] == 0
    assert set(counters["states"].values()) == {"healthy"}


def test_crowd_trace_is_deterministic_and_sized_to_fleet():
    t1, s1 = make_crowd_trace(2, 8_000, scale=TINY, seed=5)
    t2, _ = make_crowd_trace(2, 8_000, scale=TINY, seed=5)
    assert len(t1) == 8_000
    assert t1.arrivals_ns is not None
    assert (t1.arrivals_ns == t2.arrivals_ns).all()
    assert (t1.keys == t2.keys).all()
    assert s1.name == "flashcrowd"
    t3, _ = make_crowd_trace(2, 8_000, scale=TINY, seed=6)
    assert not (t3.keys == t1.keys).all()


@pytest.fixture(scope="module")
def smoke_soak():
    return run_overload_soak(num_shards=2, ops_per_shard=20_000)


def test_overload_soak_smoke_acceptance(smoke_soak):
    """The gate the CI smoke run enforces, at the same scale."""
    result = smoke_soak
    for gate in (
        "p99_bounded", "p99_recovered", "off_collapsed", "governor_engaged"
    ):
        assert result.gates[gate][0], result.summary_table()
    assert result.acceptance
    # The governed arm actually shed load, and the report says so.
    assert result.counters["governor_counters"]["shed_sets"] > 0
    on = result.arms["governor-on"]
    assert on["event"].shed_sets > 0
    # Open loop: every window reports its backlog and crowd overlap.
    assert on["event"].label == {"flash_crowd": 1.0}
    assert on["pre"].label == {"flash_crowd": 0.0}
    assert all(w.max_backlog_ns is not None for w in on.values())
    table = result.summary_table()
    assert "governor-on:event" in table and "governor-off:event" in table


def test_golden_overload_soak(smoke_soak, update_golden):
    _check_golden("overload_soak_smoke", smoke_soak.to_dict(), update_golden)


@pytest.mark.slow
def test_overload_soak_full_scale():
    # More shards push the open loop nearer critical load (fleet
    # arrival rate scales with N while hashing imbalance concentrates
    # the crowd), so the drained-but-jittery recovered p99 sits higher
    # over pre than at smoke scale; the CLI's full-scale default
    # tolerance (1.5) still separates it cleanly from the ungoverned
    # collapse (~23x over pre on this seed).
    result = run_overload_soak(
        num_shards=4, ops_per_shard=20_000, tolerance=1.5
    )
    assert result.acceptance, result.summary_table()


def test_point_failure_carries_sweep_point_provenance():
    point = SweepPoint(
        figure="overload_matrix",
        index=3,
        workload="kvcache",
        kwargs={"fdp": True, "does_not_exist": 1},
    )
    from repro.bench.parallel import PointFailure

    (failure,) = run_sweep([point], on_error="record")
    assert isinstance(failure, PointFailure)
    assert failure.workload == "kvcache"
    assert failure.params["fdp"] == "True"
    assert "does_not_exist" in failure.params
    row = failure.summary_row()
    assert "workload='kvcache'" in row
    assert "fdp=True" in row


def test_matrix_points_pair_fdp_arms_per_scenario():
    points = matrix_points(num_ops=1_000)
    assert len(points) == 2 * len(SCENARIOS)
    for row, name in enumerate(SCENARIOS):
        nonfdp, fdp = points[2 * row], points[2 * row + 1]
        # Both arms of a row replay the same seed and scenario object,
        # so the FDP column is the only varying factor.
        assert fdp.kwargs["seed"] == nonfdp.kwargs["seed"]
        assert fdp.kwargs["scenario"] is nonfdp.kwargs["scenario"]
        assert fdp.kwargs["scenario"].name == name
        assert fdp.kwargs["fdp"] and not nonfdp.kwargs["fdp"]
    # Distinct rows use distinct derived seeds.
    seeds = {p.kwargs["seed"] for p in points}
    assert len(seeds) == len(SCENARIOS)


def test_fleet_driver_open_loop_interval():
    trace = _trace(3).slice(0, 500)
    shard = ShardSpec("solo", utilization=UTILIZATION, scale=TINY).build()
    fleet = FleetCache([shard])
    driver = FleetDriver(
        fleet, ReplayConfig(arrival_interval_ns=1_000, poll_interval_ops=2000)
    )
    result = driver.run(trace)
    assert result.ops == 500
    # Open loop: the shard clock tracks arrivals, not completions.
    assert driver.ops_done == 500
    with pytest.raises(ValueError, match="mutually exclusive"):
        ReplayConfig(
            arrival_interval_ns=1_000, arrival_schedule_ns=[0, 1, 2]
        )

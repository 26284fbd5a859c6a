"""ArrivalClock: the replay clock policy both drivers share.

Each rung of the schedule precedence, the short-schedule check, and the
closed-loop think-time step with its backlog clamp are pinned here on
the clock itself; the end-to-end tests check that CacheBench and
FleetDriver put the clock's times on the simulated timeline unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.driver import ArrivalClock, CacheBench, ReplayConfig
from repro.bench.runner import Scale, build_experiment, make_trace
from repro.fleet import FleetCache, FleetDriver, ShardSpec
from repro.workloads.trace import OP_GET, Trace
from tests.test_differential_batch import assert_identical

TINY = Scale(num_superblocks=32, num_ops=4_000)
UTILIZATION = 0.9


def _trace(n, arrivals=None):
    return Trace(
        np.full(n, OP_GET, dtype=np.uint8),
        np.arange(n, dtype=np.int64),
        np.full(n, 100, dtype=np.int64),
        arrivals_ns=arrivals,
    )


def _kvcache(num_ops, seed=5):
    nvm = int(TINY.geometry().logical_bytes * UTILIZATION)
    return make_trace("kvcache", nvm, TINY, num_ops=num_ops, seed=seed)


# -- schedule precedence -------------------------------------------------


def test_explicit_schedule_beats_trace_schedule():
    cfg = ReplayConfig(arrival_schedule_ns=[10, 20, 30])
    clock = ArrivalClock(cfg, _trace(3, arrivals=[1, 2, 3]))
    assert clock.open_loop
    assert [clock.issue_ns(i) for i in range(3)] == [10, 20, 30]


def test_trace_schedule_beats_fixed_interval():
    cfg = ReplayConfig(arrival_interval_ns=1_000)
    clock = ArrivalClock(cfg, _trace(3, arrivals=[1, 2, 3]))
    assert clock.open_loop
    assert clock.interval_ns is None
    assert [clock.issue_ns(i) for i in range(3)] == [1, 2, 3]


def test_fixed_interval_without_schedules():
    clock = ArrivalClock(ReplayConfig(arrival_interval_ns=1_000), _trace(3))
    assert clock.open_loop
    assert [clock.issue_ns(i) for i in range(4)] == [0, 1_000, 2_000, 3_000]


def test_closed_loop_without_any_arrival_knob():
    clock = ArrivalClock(ReplayConfig(), _trace(3))
    assert not clock.open_loop
    assert clock.schedule is None and clock.interval_ns is None


def test_short_schedule_is_rejected():
    with pytest.raises(ValueError, match="2 entries for a 3-op trace"):
        ArrivalClock(ReplayConfig(arrival_schedule_ns=[1, 2]), _trace(3))
    # A longer schedule is fine: ops only read their own entries.
    clock = ArrivalClock(ReplayConfig(arrival_schedule_ns=[1, 2, 3]), _trace(2))
    assert clock.issue_ns(1) == 2


def test_short_schedule_fails_both_drivers():
    cfg = ReplayConfig(arrival_schedule_ns=[0, 1], poll_interval_ops=2000)
    trace = _kvcache(10)
    cache = build_experiment(fdp=True, utilization=UTILIZATION, scale=TINY)
    with pytest.raises(ValueError, match="entries for a 10-op trace"):
        CacheBench(cfg).run(cache, trace)
    shard = ShardSpec("solo", utilization=UTILIZATION, scale=TINY).build()
    with pytest.raises(ValueError, match="entries for a 10-op trace"):
        FleetDriver(FleetCache([shard]), cfg).run(trace)


# -- closed-loop step ----------------------------------------------------


def test_think_time_without_backlog():
    clock = ArrivalClock(
        ReplayConfig(think_ns=100, max_backlog_ns=1_000), _trace(1)
    )
    assert clock.after(5_000, None) == 5_100
    assert clock.after(5_000, 0) == 5_100
    # Exactly at the cap is not yet a stall.
    assert clock.after(5_000, 6_100) == 5_100


def test_backlog_clamp_stalls_the_host():
    clock = ArrivalClock(
        ReplayConfig(think_ns=100, max_backlog_ns=1_000), _trace(1)
    )
    # The device runs 1 ns past the cap: the host waits that 1 ns.
    assert clock.after(5_000, 6_101) == 5_101
    assert clock.after(5_000, 50_000) == 49_000


def test_backlog_clamp_needs_a_device_timeline():
    """Shards without a busy horizon (``busy_until() is None``) never
    stall, however large their think-time clock gets."""
    clock = ArrivalClock(
        ReplayConfig(think_ns=100, max_backlog_ns=0), _trace(1)
    )
    assert clock.after(10**12, None) == 10**12 + 100


# -- end to end ------------------------------------------------------------


def test_cache_bench_sim_time_follows_the_clock():
    trace = _kvcache(300)
    interval = ReplayConfig(arrival_interval_ns=2_000)
    cache = build_experiment(fdp=True, utilization=UTILIZATION, scale=TINY)
    # A fixed-rate clock ends on the next, unissued slot ...
    assert CacheBench(interval).run(cache, trace).sim_seconds == 300 * 2_000 / 1e9
    # ... a schedule on the last op's arrival.
    schedule = np.arange(300, dtype=np.int64) * 3_000 + 7
    cache = build_experiment(fdp=True, utilization=UTILIZATION, scale=TINY)
    result = CacheBench(ReplayConfig(arrival_schedule_ns=schedule)).run(
        cache, trace
    )
    assert result.sim_seconds == int(schedule[-1]) / 1e9


def test_first_op_offsets_only_the_fixed_interval():
    cfg = ReplayConfig(arrival_interval_ns=1_000)
    assert ArrivalClock(cfg, _trace(2), first_op=300).issue_ns(1) == 301_000
    scheduled = ArrivalClock(cfg, _trace(2, arrivals=[4, 9]), first_op=300)
    assert scheduled.issue_ns(1) == 9


def _fleet():
    shard = ShardSpec("solo", utilization=UTILIZATION, scale=TINY).build()
    return shard, FleetCache([shard])


def test_fleet_interval_continues_across_segmented_runs():
    """The soaks replay one trace window by window; the fixed interval
    must run on from the ops already replayed, not restart at zero."""
    trace = _kvcache(1_200)
    cfg = ReplayConfig(arrival_interval_ns=50_000, poll_interval_ops=2000)

    whole_shard, whole_fleet = _fleet()
    FleetDriver(whole_fleet, cfg).run(trace)

    seg_shard, seg_fleet = _fleet()
    driver = FleetDriver(seg_fleet, cfg)
    for start, stop in ((0, 500), (500, 900), (900, 1_200)):
        driver.run(trace.slice(start, stop))
    assert driver.ops_done == 1_200

    assert seg_shard.clock_ns == whole_shard.clock_ns
    assert_identical(
        whole_shard.backend.cache.device, seg_shard.backend.cache.device
    )
    assert (
        seg_shard.backend.cache.resident_items()
        == whole_shard.backend.cache.resident_items()
    )

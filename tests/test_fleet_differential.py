"""Differential arm: a 1-shard fleet is bit-identical to a bare cache.

The fleet layer (router, breakers, shadow map, monitor hooks) must be
pure orchestration: with one shard and no failures it may not perturb
a single device state transition relative to driving the same
:class:`~repro.cache.hybrid.HybridCache` directly with
:class:`~repro.bench.driver.CacheBench`.  Same trace, same closed-loop
clock arithmetic (think time + bounded backlog), same fill-on-miss
policy — then every observable surface of the two devices must match
exactly, down to the L2P table and the journal buffer.

Reuses the device-surface comparator from the batched-I/O differential
harness (tests/test_differential_batch.py) so any surface added there
is automatically enforced here too.
"""

from __future__ import annotations

import pytest

from repro.bench.driver import CacheBench, ReplayConfig
from repro.bench.runner import Scale, build_experiment, make_trace
from repro.fleet import FleetCache, FleetDriver, ShardSpec
from tests.test_differential_batch import assert_identical

TINY = Scale(num_superblocks=32, num_ops=4_000)
UTILIZATION = 0.9


def _trace(seed):
    nvm = int(TINY.geometry().logical_bytes * UTILIZATION)
    return make_trace("kvcache", nvm, TINY, num_ops=4_000, seed=seed)


def _bare_run(fdp, trace):
    cache = build_experiment(
        fdp=fdp, utilization=UTILIZATION, scale=TINY, sched=True
    )
    result = CacheBench(ReplayConfig()).run(cache, trace)
    return cache, result


def _fleet_run(fdp, trace):
    shard = ShardSpec(
        "solo",
        backend="fdp" if fdp else "nonfdp",
        utilization=UTILIZATION,
        scale=TINY,
    ).build()
    fleet = FleetCache([shard])
    result = FleetDriver(fleet).run(trace)
    return shard, fleet, result


@pytest.mark.parametrize("fdp", [False, True])
@pytest.mark.parametrize("seed", [13, 2026])
def test_single_shard_fleet_bit_identical_to_bare_cache(fdp, seed):
    trace = _trace(seed)
    bare_cache, bare_result = _bare_run(fdp, trace)
    shard, fleet, fleet_result = _fleet_run(fdp, trace)
    fleet_cache = shard.backend.cache

    # Device state: every observable surface, exact.
    assert_identical(bare_cache.device, fleet_cache.device)

    # Cache-level counters and residency.
    assert fleet_cache.gets == bare_cache.gets
    assert fleet_cache.sets == bare_cache.sets
    assert fleet_cache.deletes == bare_cache.deletes
    assert fleet_cache.nvm_gets == bare_cache.nvm_gets
    assert fleet_cache.hits_by_layer == bare_cache.hits_by_layer
    assert fleet_cache.app_set_bytes == bare_cache.app_set_bytes
    assert fleet_cache.resident_items() == bare_cache.resident_items()

    # Replay accounting: the fleet saw the same traffic and outcomes.
    assert fleet_result.ops == len(trace)
    assert fleet_result.degraded_misses == 0
    assert fleet_result.retries == 0
    assert fleet.hit_ratio == pytest.approx(
        sum(bare_cache.hits_by_layer.values()) / bare_cache.gets
    )
    # The closed-loop clocks advanced identically.
    assert shard.clock_ns > 0
    assert (
        fleet_cache.device.ftl.latency.busy_until
        == bare_cache.device.ftl.latency.busy_until
    )

    # And the shadow map agrees with reality (placement audit clean).
    audit = fleet.verify_placement()
    assert audit["misplaced"] == 0
    assert audit["duplicates"] == 0
    assert audit["shadow_mismatches"] == 0


def test_single_shard_fleet_matches_without_fill(fdp=True):
    """fill_on_miss=False is the other replay mode benches use."""
    trace = _trace(77)
    cache = build_experiment(
        fdp=fdp, utilization=UTILIZATION, scale=TINY, sched=True
    )
    CacheBench(ReplayConfig(fill_on_miss=False)).run(cache, trace)
    shard, _, _ = _fleet_run_no_fill(fdp, trace)
    assert_identical(cache.device, shard.backend.cache.device)
    assert shard.backend.cache.resident_items() == cache.resident_items()


def _fleet_run_no_fill(fdp, trace):
    shard = ShardSpec(
        "solo", backend="fdp" if fdp else "nonfdp",
        utilization=UTILIZATION, scale=TINY,
    ).build()
    fleet = FleetCache([shard])
    result = FleetDriver(
        fleet, ReplayConfig(fill_on_miss=False, poll_interval_ops=2000)
    ).run(trace)
    return shard, fleet, result

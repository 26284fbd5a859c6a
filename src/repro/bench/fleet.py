"""Fleet shard-loss soak: kill a shard mid-run, prove recovery.

The headline robustness experiment for the fleet subsystem
(:mod:`repro.fleet`): replay one trace against an 8–16-shard cluster,
kill one shard at the halfway point with no warning and no drain, and
require that

* the fleet keeps serving — shard failures surface as misses, never
  as exceptions or lost operations;
* service quality recovers — the final measurement window's miss
  ratio and fleet-merged p99 read latency return to within
  ``tolerance`` of the pre-kill steady state, as survivors re-fill
  the dead shard's keyspace;
* placement stays exactly-once — a full resident-key audit across
  survivors finds zero misplaced keys, zero duplicates, and zero
  shadow-map mismatches (PR 2's crash-soak methodology, lifted from
  one device to the cluster).

Measurement uses three equal windows on one continuous run: ``pre``
(just before the kill), ``spike`` (just after), ``recovered`` (the end
of the run).  Histograms are cleared at each window boundary so p99 is
a per-window figure, not a run-cumulative one.

CLI::

    python -m repro.bench.fleet --smoke          # CI: 4 shards, quick
    python -m repro.bench.fleet --shards 12 --mix mixed -v
"""

from __future__ import annotations

from typing import List, Optional

from ..fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetHealthMonitor,
    ScriptedShardEvent,
    ShardSpec,
)
from ..workloads.trace import Trace
from .metrics import FleetSoakResult, FleetWindow
from .runner import Scale, make_trace, point_seed

__all__ = [
    "FLEET_SCALE",
    "SMOKE_SCALE",
    "default_fleet_specs",
    "run_fleet_soak",
    "main",
]

# Per-shard device scale: small enough that an 8-shard soak stays in
# CI budget, large enough for real GC pressure on every shard.
FLEET_SCALE = Scale(num_superblocks=64, num_ops=160_000)
SMOKE_SCALE = Scale(num_superblocks=48, num_ops=60_000)

MIXES = ("fdp", "nonfdp", "mixed")
# The heterogeneous rotation: FDP-heavy with non-FDP and ZNS shards
# mixed in, "How to Write to SSDs"'s device-generation mix.
_MIXED_CYCLE = ("fdp", "nonfdp", "zns", "fdp")


def default_fleet_specs(
    num_shards: int,
    *,
    mix: str = "fdp",
    scale: Scale = FLEET_SCALE,
    utilization: float = 0.9,
    seed: Optional[int] = None,
) -> List[ShardSpec]:
    """Build the soak's shard specs (ids sorted, mix deterministic).

    ``seed`` derives a distinct per-shard ``admission_seed`` so that a
    randomized admission policy on any shard replays the same decision
    stream run to run — and shards never share an RNG stream.  ``None``
    leaves admission seeds unset (the historical behaviour).
    """
    if num_shards < 2:
        raise ValueError("a fleet soak needs at least 2 shards")
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; choose from {MIXES}")
    specs = []
    for i in range(num_shards):
        if mix == "mixed":
            backend = _MIXED_CYCLE[i % len(_MIXED_CYCLE)]
        else:
            backend = mix
        specs.append(
            ShardSpec(
                f"shard{i:02d}",
                backend=backend,
                utilization=utilization,
                scale=scale,
                admission_seed=(
                    None
                    if seed is None
                    else point_seed(f"fleet_admission_{seed}", i)
                ),
            )
        )
    return specs


def _harvest_window(
    fleet: FleetCache, name: str, ops: int, before: dict
) -> FleetWindow:
    gets = fleet.gets - before["gets"]
    hist = fleet.merged_histogram("read")
    return FleetWindow(
        name=name,
        ops=ops,
        gets=gets,
        misses=fleet.misses - before["misses"],
        storm_misses=fleet.storm_misses - before["storm"],
        degraded_misses=fleet.degraded_misses - before["degraded"],
        read_p99_ns=hist.p99(),
        live_shards=len(fleet.live_shards),
    )


def _counters(fleet: FleetCache) -> dict:
    return {
        "gets": fleet.gets,
        "misses": fleet.misses,
        "storm": fleet.storm_misses,
        "degraded": fleet.degraded_misses,
    }


def run_fleet_soak(
    *,
    num_shards: int = 8,
    mix: str = "fdp",
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 20_000,
    utilization: float = 0.9,
    scale: Scale = FLEET_SCALE,
    seed: Optional[int] = None,
    tolerance: float = 0.10,
    trace: Optional[Trace] = None,
    verbose: bool = False,
) -> FleetSoakResult:
    """Run the shard-loss soak and return the verdict.

    Deterministic end to end: the trace derives from ``seed`` (default
    ``point_seed("fleet_soak", 0)``), the kill victim from the seed and
    membership, and the kill op index from ``num_ops`` — two runs with
    the same arguments produce identical :class:`FleetSoakResult`\\ s.

    The trace length defaults to ``ops_per_shard * num_shards`` so
    per-shard load — and with it each device's GC regime — stays
    constant as the fleet grows; a fixed total would leave a large
    fleet's devices still filling when the run ends, and a fleet that
    never reaches GC has no tail latency to recover.
    """
    if seed is None:
        seed = point_seed("fleet_soak", 0)
    total = num_ops or ops_per_shard * num_shards

    specs = default_fleet_specs(
        num_shards, mix=mix, scale=scale, utilization=utilization, seed=seed
    )
    shards = [spec.build() for spec in specs]
    fleet = FleetCache(shards, FleetConfig(ring_seed=seed))

    # Seed-driven victim selection over the sorted membership — any
    # shard must be killable, so the victim rotates with the seed.
    shard_ids = sorted(fleet.shards)
    victim = shard_ids[seed % len(shard_ids)]

    # Window layout on one continuous op timeline:
    #   [warmup][pre][spike][drain][recovered]
    # The scripted kill fires on the first op after the pre window, so
    # pre is measured on the intact fleet and spike starts at the loss.
    window = max(2_000, total // 8)
    kill_at = total // 2
    if kill_at - window <= 0 or kill_at + 2 * window >= total:
        raise ValueError(
            f"num_ops={total} too small for window={window} around "
            f"kill_at={kill_at}"
        )
    plan = [ScriptedShardEvent(kill_at + 1, victim, "kill")]
    monitor = FleetHealthMonitor(fleet, plan=plan)
    driver = FleetDriver(fleet, monitor=monitor)

    if trace is None:
        per_shard_nvm = int(
            scale.geometry().logical_bytes * utilization
        )
        trace = make_trace(
            workload,
            per_shard_nvm * num_shards,
            scale,
            num_ops=total,
            seed=seed,
        )
    if len(trace) < total:
        raise ValueError("trace shorter than the requested op count")

    segments = [
        ("warmup", 0, kill_at - window, False),
        ("pre", kill_at - window, kill_at, True),
        ("spike", kill_at, kill_at + window, True),
        ("drain", kill_at + window, total - window, False),
        ("recovered", total - window, total, True),
    ]
    windows = {}
    for name, start, stop, measured in segments:
        if stop <= start:
            continue
        before = _counters(fleet)
        fleet.clear_histograms()
        driver.run(trace.slice(start, stop), name=f"fleet:{name}")
        if measured:
            windows[name] = _harvest_window(
                fleet, name, stop - start, before
            )
        if verbose:
            print(
                f"[{name:<9}] ops {start:>7}..{stop:<7} "
                f"miss={fleet.miss_ratio:.3f} "
                f"storm={fleet.storm_misses} live={len(fleet.live_shards)}"
            )

    # Control arm: the identical fleet replaying the identical trace
    # with no kill, measured over the same final window.  This is the
    # counterfactual steady state the recovered window is judged
    # against — per-window p99 drifts ±20% with GC bursts even on an
    # undisturbed fleet, so a paired control is the only baseline that
    # isolates the kill's effect (the repo's differential-arm idiom).
    control_fleet = FleetCache(
        [spec.build() for spec in specs], FleetConfig(ring_seed=seed)
    )
    control_driver = FleetDriver(control_fleet)
    control_driver.run(trace.slice(0, total - window), name="control:warm")
    before = _counters(control_fleet)
    control_fleet.clear_histograms()
    control_driver.run(
        trace.slice(total - window, total), name="control:recovered"
    )
    windows["control"] = _harvest_window(
        control_fleet, "control", window, before
    )
    if verbose:
        print(
            f"[control  ] ops {total - window:>7}..{total:<7} "
            f"miss={windows['control'].miss_ratio:.3f} (no kill)"
        )

    audit = fleet.verify_placement()
    kill_events = [
        t for t in monitor.transitions if t["event"] == "kill"
    ]
    assert kill_events, "the scripted kill never fired"
    shard_rows = [
        {
            "shard_id": s.shard_id,
            "backend": s.backend.kind,
            "state": s.state.value,
            "gets": s.gets,
            "sets": s.sets,
            "hit_ratio": s.hit_ratio,
            "dlwa": s.dlwa,
        }
        for s in (fleet.shards[sid] for sid in shard_ids)
    ]
    return FleetSoakResult(
        num_shards=num_shards,
        mix=mix,
        ops=total,
        seed=seed,
        killed_shard=victim,
        kill_at_ops=kill_events[0]["ops_done"],
        pre=windows["pre"],
        spike=windows["spike"],
        recovered=windows["recovered"],
        control=windows["control"],
        tolerance=tolerance,
        keys_resident=audit["keys_resident"],
        misplaced=audit["misplaced"],
        duplicates=audit["duplicates"],
        shadow_mismatches=audit["shadow_mismatches"],
        rebalance_moved_items=fleet.rebalance_moved_items,
        storm_misses_total=fleet.storm_misses,
        degraded_misses_total=fleet.degraded_misses,
        dropped_sets=fleet.dropped_sets,
        retries=fleet.retries,
        transitions=list(monitor.transitions),
        fleet_dlwa=fleet.fleet_dlwa(),
        energy_kwh=fleet.energy_kwh(),
        co2e_kg=fleet.co2e_kg(),
        shard_rows=shard_rows,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.bench.fleet [--smoke] [options]``."""
    import argparse
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.fleet",
        description=(
            "Fleet shard-loss soak: kill a shard mid-run, verify "
            "exactly-once placement and service recovery."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 4 shards at reduced scale, exit 1 on failure",
    )
    parser.add_argument(
        "--shards", type=int, default=8,
        help="number of shards (default 8; --smoke forces 4)",
    )
    parser.add_argument(
        "--mix", choices=MIXES, default="fdp",
        help="shard backend mix (default fdp)",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="trace length (default: the scale's num_ops)",
    )
    parser.add_argument(
        "--seed", type=lambda s: int(s, 0), default=None,
        help="override the point_seed-derived soak seed",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="recovery tolerance vs the pre-kill window (default 0.10)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        num_shards, scale = 4, SMOKE_SCALE
    else:
        num_shards, scale = args.shards, FLEET_SCALE

    start = time.perf_counter()
    result = run_fleet_soak(
        num_shards=num_shards,
        mix=args.mix,
        num_ops=args.ops,
        scale=scale,
        seed=args.seed,
        tolerance=args.tolerance,
        verbose=args.verbose,
    )
    elapsed = time.perf_counter() - start
    print(result.summary_table())
    print(f"({elapsed:.1f}s wall)")
    return 0 if result.acceptance else 1


if __name__ == "__main__":
    raise SystemExit(main())

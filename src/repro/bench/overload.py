"""Overload soak: flash crowd vs the load governor, open loop.

The overload-robustness headline experiment.  A flash crowd
(:class:`~repro.workloads.adversarial.FlashCrowd`) hits a small fleet
through **open-loop** replay — ops arrive on the trace's schedule no
matter how far behind the devices fall, so an under-provisioned burst
grows real queues instead of throttling the workload.  Two arms replay
the identical trace (same seed, same arrival schedule):

* **governor-off** — today's path, bit-identical to the pre-governor
  fleet.  During the burst every crowd miss fills, every fill is a
  flash write, GC amplifies it, and the device backlog — and with it
  p99 GET latency — grows without bound and *stays* collapsed after
  the burst ends (the backlog must drain through the same saturated
  device).
* **governor-on** — :class:`~repro.fleet.governor.LoadGovernor` senses
  the backlog, walks HEALTHY → BROWNOUT → SHED, and sheds writes
  (LOC admissions first, then whole SETs) while never touching GETs.
  Shed fills become later misses — which are cheap (bloom-side, no
  flash I/O) — so read service stays bounded and p99 returns to the
  pre-burst level once the crowd passes.  The price is a higher miss
  ratio: the explicit graceful-degradation trade.

The acceptance gate (see
:class:`~repro.bench.metrics.OverloadSoakResult`) requires all four:
burst p99 bounded relative to governor-off, post-burst recovery to the
arm's own pre-burst p99, *demonstrated* governor-off collapse on the
same seed, and nonzero shed counters.

:func:`scenario_matrix` is the standing regression sweep: every
:data:`~repro.workloads.adversarial.SCENARIOS` row × FDP on/off
through :func:`~repro.bench.parallel.run_sweep`, reporting DLWA, p99,
and miss ratio per cell.  Failures come back as
:class:`~repro.bench.parallel.PointFailure` records carrying the full
point parameterization.

CLI::

    python -m repro.bench.overload --smoke           # CI gate
    python -m repro.bench.overload --shards 4 -v
    python -m repro.bench.overload --matrix          # scenario sweep
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Union

from ..fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    GovernorConfig,
)
from ..workloads.adversarial import (
    SCENARIOS,
    FlashCrowd,
    Scenario,
    build_scenario,
)
from ..workloads.trace import Trace
from .fleet import SMOKE_SCALE, default_fleet_specs
from .metrics import OverloadSoakResult, OverloadWindow, RunResult
from .parallel import PointFailure, SweepPoint, run_sweep
from .runner import Scale, make_trace, point_seed

__all__ = [
    "OVERLOAD_SCALE",
    "PER_SHARD_INTERVAL_NS",
    "make_crowd_trace",
    "run_overload_soak",
    "scenario_matrix",
    "main",
]

# Per-shard device scale for the soak fleet; shares the fleet soak's
# smoke shape so per-shard GC pressure is real at CI size.
OVERLOAD_SCALE = SMOKE_SCALE

# Fleet-wide arrival interval is this divided by the shard count, so
# per-shard load is invariant as the fleet grows.  100 µs/shard-op is
# roughly 2× the latency soak's near-critical 200 µs single-device
# rate's headroom: benign traffic rides comfortably, and the crowd's
# compressed gaps push the write path over the cliff.
PER_SHARD_INTERVAL_NS = 200_000

# Burst shape: starts at 40% of the trace, lasts 25%, half the ops in
# the window concentrate on a fresh 4096-key crowd at 8× arrival rate.
# The crowd working set (4096 keys × ~2 KiB) deliberately exceeds the
# smoke fleet's DRAM, so crowd traffic is flash traffic.
_CROWD = dict(
    start_frac=0.4,
    duration_frac=0.25,
    crowd_keys=4096,
    crowd_fraction=0.5,
    arrival_speedup=8.0,
    size_range=(512, 8192),
)


def make_crowd_trace(
    num_shards: int,
    total_ops: int,
    *,
    workload: str = "kvcache",
    scale: Scale = OVERLOAD_SCALE,
    utilization: float = 0.9,
    seed: int = 0,
) -> tuple:
    """Build the soak's adversarial trace; returns ``(trace, scenario)``.

    The base trace is sized to the fleet the same way the fleet soak
    sizes it (working set tracks aggregate NVM capacity), so the
    steady-state portions exercise flash, not just DRAM.
    """
    per_shard_nvm = int(scale.geometry().logical_bytes * utilization)
    base = make_trace(
        workload,
        per_shard_nvm * num_shards,
        scale,
        num_ops=total_ops,
        seed=seed,
    )
    crowd = FlashCrowd(
        base_interval_ns=max(1, PER_SHARD_INTERVAL_NS // num_shards),
        seed=seed,
        **_CROWD,
    )
    scenario = Scenario("flashcrowd", (crowd,))
    return scenario.apply(base), scenario


def _window_label(
    scenario: Scenario, start: int, stop: int, total: int
) -> Dict[str, float]:
    label: Dict[str, float] = {}
    for t in scenario.transforms:
        label.update(t.window_label(start, stop, total))
    return label


def _shed_counters(fleet: FleetCache) -> Dict[str, int]:
    g = fleet.governor_counters()
    return {
        "shed_sets": int(g["shed_sets"]),
        "shed_loc_admissions": int(g["shed_loc_admissions"]),
    }


def _run_arm(
    specs,
    governor: Optional[GovernorConfig],
    trace: Trace,
    scenario: Scenario,
    segments,
    seed: int,
    verbose: bool,
) -> tuple:
    """Replay one arm; returns ``(windows, fleet)``."""
    fleet = FleetCache(
        [spec.build() for spec in specs],
        FleetConfig(ring_seed=seed, governor=governor),
    )
    driver = FleetDriver(fleet)
    total = len(trace)
    windows: Dict[str, OverloadWindow] = {}
    for name, start, stop, measured in segments:
        if stop <= start:
            continue
        before = {"gets": fleet.gets, "misses": fleet.misses}
        shed_before = _shed_counters(fleet)
        fleet.clear_histograms()
        driver.run(trace.slice(start, stop), name=f"overload:{name}")
        if measured:
            hist = fleet.merged_histogram("read")
            now = int(trace.arrivals_ns[stop - 1])
            backlog = max(
                (
                    s.backend.overload_signals(now).pressure_ns
                    for s in fleet.shards.values()
                ),
                default=0,
            )
            shed_after = _shed_counters(fleet)
            windows[name] = OverloadWindow(
                name=name,
                ops=stop - start,
                gets=fleet.gets - before["gets"],
                misses=fleet.misses - before["misses"],
                read_p99_ns=hist.p99(),
                max_backlog_ns=int(backlog),
                shed_sets=shed_after["shed_sets"]
                - shed_before["shed_sets"],
                shed_loc_admissions=shed_after["shed_loc_admissions"]
                - shed_before["shed_loc_admissions"],
                label=_window_label(scenario, start, stop, total),
            )
        if verbose:
            arm = "on " if governor is not None else "off"
            print(
                f"[gov-{arm}|{name:<9}] ops {start:>7}..{stop:<7} "
                f"miss={fleet.miss_ratio:.3f} "
                f"governor={fleet.governor_counters()}"
            )
    return windows, fleet


def run_overload_soak(
    *,
    num_shards: int = 4,
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 20_000,
    utilization: float = 0.9,
    scale: Scale = OVERLOAD_SCALE,
    seed: Optional[int] = None,
    governor: Optional[GovernorConfig] = None,
    tolerance: float = 0.5,
    collapse_factor: float = 3.0,
    burst_advantage: float = 1.5,
    verbose: bool = False,
) -> OverloadSoakResult:
    """Run the flash-crowd soak, governor-on vs governor-off.

    Deterministic end to end: trace, arrival schedule, crowd keyspace,
    and ring placement all derive from ``seed`` (default
    ``point_seed("overload_soak", 0)``), and both arms share every one
    of them.  ``tolerance`` judges the governor-on arm's recovery
    against its own pre-burst window — p99 over a few-thousand-op
    window jitters with GC phase, so the default is deliberately loose
    (50%) next to the collapse it must distinguish from (governor-off
    lands ~10× over baseline on the default shape).
    """
    if seed is None:
        seed = point_seed("overload_soak", 0)
    total = num_ops or ops_per_shard * num_shards
    specs = default_fleet_specs(
        num_shards, scale=scale, utilization=utilization
    )
    trace, scenario = make_crowd_trace(
        num_shards,
        total,
        workload=workload,
        scale=scale,
        utilization=utilization,
        seed=seed,
    )

    crowd = scenario.transforms[0]
    burst_start, burst_stop = crowd._window(total)
    window = max(2_000, total // 8)
    if burst_start - window <= 0 or burst_stop + window > total:
        raise ValueError(
            f"num_ops={total} too small for window={window} around "
            f"burst [{burst_start}, {burst_stop})"
        )
    segments = [
        ("warmup", 0, burst_start - window, False),
        ("pre", burst_start - window, burst_start, True),
        ("burst", burst_start, burst_stop, True),
        ("drain", burst_stop, total - window, False),
        ("recovered", total - window, total, True),
    ]

    on_windows, on_fleet = _run_arm(
        specs, governor or GovernorConfig(), trace, scenario, segments,
        seed, verbose,
    )
    off_windows, off_fleet = _run_arm(
        specs, None, trace, scenario, segments, seed, verbose
    )

    rejections: Dict[str, int] = {}
    for prefix, fleet in (("on", on_fleet), ("off", off_fleet)):
        for queue, count in fleet.queue_rejections().items():
            rejections[f"{prefix}:{queue}"] = count

    return OverloadSoakResult(
        num_shards=num_shards,
        ops=total,
        seed=seed,
        scenario=scenario.name,
        tolerance=tolerance,
        collapse_factor=collapse_factor,
        burst_advantage=burst_advantage,
        on_pre=dataclasses.replace(on_windows["pre"], name="on:pre"),
        on_burst=dataclasses.replace(on_windows["burst"], name="on:burst"),
        on_recovered=dataclasses.replace(
            on_windows["recovered"], name="on:recov"
        ),
        off_pre=dataclasses.replace(off_windows["pre"], name="off:pre"),
        off_burst=dataclasses.replace(
            off_windows["burst"], name="off:burst"
        ),
        off_recovered=dataclasses.replace(
            off_windows["recovered"], name="off:recov"
        ),
        governor_counters=on_fleet.governor_counters(),
        queue_rejections=rejections,
    )


# ----------------------------------------------------------------------
# the standing scenario × FDP regression matrix
# ----------------------------------------------------------------------

# Single-device scale for matrix cells: small enough that 12 cells
# finish in CI minutes, large enough to wrap the device under GC (at
# 60k ops the Non-FDP arm's DLWA reaches ~1.2 while FDP holds 1.0, so
# the cells discriminate placement).  The matrix base arrival interval
# is gentler than the soak's: run_experiment has no multi-queue
# scheduler, so GC stalls block the whole device — 400 µs keeps benign
# cells out of runaway queueing while adversarial rows still hurt.
MATRIX_SCALE = Scale(num_superblocks=128)
MATRIX_OPS = 60_000
MATRIX_INTERVAL_NS = 400_000


def matrix_points(
    *,
    num_ops: int = MATRIX_OPS,
    scale: Scale = MATRIX_SCALE,
    utilization: float = 0.9,
) -> List[SweepPoint]:
    """One sweep point per (scenario, FDP) cell.

    Paired cells (the FDP on/off arms of one scenario) share a
    ``point_seed`` derived from the scenario row, so each row compares
    placement on byte-identical adversarial traffic.
    """
    points = []
    for row, name in enumerate(SCENARIOS):
        seed = point_seed("overload_matrix", row)
        scenario = build_scenario(
            name, seed=seed, base_interval_ns=MATRIX_INTERVAL_NS
        )
        for fdp in (False, True):
            points.append(
                SweepPoint(
                    "overload_matrix",
                    len(points),
                    "kvcache",
                    {
                        "fdp": fdp,
                        "utilization": utilization,
                        "scale": scale,
                        "num_ops": num_ops,
                        "seed": seed,
                        "scenario": scenario,
                        "name": f"{name} {'FDP' if fdp else 'Non-FDP'}",
                    },
                )
            )
    return points


def scenario_matrix(
    *,
    num_ops: int = MATRIX_OPS,
    scale: Scale = MATRIX_SCALE,
    utilization: float = 0.9,
    workers: Optional[int] = None,
) -> List[Union[RunResult, PointFailure]]:
    """Run the scenario × FDP matrix; failures recorded, not raised."""
    return run_sweep(
        matrix_points(
            num_ops=num_ops, scale=scale, utilization=utilization
        ),
        workers=workers,
        on_error="record",
    )


def matrix_table(results: List[Union[RunResult, PointFailure]]) -> str:
    """Render the matrix as the standing-regression summary table."""
    lines = [
        f"{'cell':<24} {'DLWA':>6} {'p99r(us)':>9} {'miss%':>7} "
        f"{'kops':>8}"
    ]
    for r in results:
        if isinstance(r, PointFailure):
            lines.append(f"{r.name:<24} FAILED: {r.summary_row()}")
            continue
        lines.append(
            f"{r.name:<24} {r.dlwa:>6.2f} {r.p99_read_us:>9.0f} "
            f"{(1.0 - r.hit_ratio) * 100:>7.1f} "
            f"{r.throughput_kops:>8.1f}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.bench.overload [--smoke] [options]``."""
    import argparse
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.overload",
        description=(
            "Flash-crowd overload soak: governor-on must stay bounded "
            "and recover while governor-off collapses on the same seed."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 2 shards at reduced scale, exit 1 on gate failure",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="number of shards (default 4; --smoke forces 2)",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="trace length (default: 20000 per shard)",
    )
    parser.add_argument(
        "--seed", type=lambda s: int(s, 0), default=None,
        help="override the point_seed-derived soak seed",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help=(
            "recovery tolerance vs the pre-burst window (default 0.5 "
            "under --smoke, 1.5 at full scale — more shards run the "
            "open loop nearer critical load, so the drained-but-"
            "jittery recovered p99 sits higher over pre)"
        ),
    )
    parser.add_argument(
        "--matrix", action="store_true",
        help="also run the scenario x FDP regression matrix",
    )
    parser.add_argument(
        "--matrix-ops", type=int, default=MATRIX_OPS,
        help=f"ops per matrix cell (default {MATRIX_OPS})",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="matrix worker processes (default: CPU count)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    num_shards = 2 if args.smoke else args.shards
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = 0.5 if args.smoke else 1.5

    start = time.perf_counter()
    result = run_overload_soak(
        num_shards=num_shards,
        num_ops=args.ops,
        seed=args.seed,
        tolerance=tolerance,
        verbose=args.verbose,
    )
    print(result.summary_table())
    print(f"({time.perf_counter() - start:.1f}s wall)")
    ok = result.acceptance

    if args.matrix:
        start = time.perf_counter()
        results = scenario_matrix(
            num_ops=args.matrix_ops, workers=args.workers
        )
        print()
        print(matrix_table(results))
        failures = [r for r in results if isinstance(r, PointFailure)]
        print(
            f"matrix: {len(results) - len(failures)}/{len(results)} "
            f"cells ok ({time.perf_counter() - start:.1f}s wall)"
        )
        ok = ok and not failures

    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Fail-slow soak: inject a slow die mid-run, prove gray-failure containment.

The headline robustness experiment for the fail-slow subsystem
(:mod:`repro.faults.failslow` + the fleet reaction path): replay one
trace against three identical fleets and degrade one die on one shard
mid-run in two of them.

* ``control`` — no fault, detector and deadlines ON.  Baseline tail
  *and* the false-positive check: its reaction counters must stay
  zero.
* ``detector_on`` — the fault plus the full reaction path: deadline-
  bounded GETs keep the closed loop from blocking on the slow shard,
  the gray-failure detector compares per-shard rolling p99 against the
  fleet median, and a sustained-slow verdict quarantines the victim
  through the retirement drain.  Its final window must land near the
  control's tail.
* ``detector_off`` — the same fault, no reaction (no deadline, no
  monitor): what gray failure costs an unprotected fleet.  Its final
  window must stay inflated — the arm that proves the fault is real.

The injected fault is pure timing (the overlay invariant, pinned by
tests/test_differential_failslow.py): the victim's device serves every
read correctly, SMART stays healthy, only completion times stretch —
exactly the hazard class SMART-driven monitoring cannot see.

CLI::

    python -m repro.bench.failslow --smoke     # CI: 3 shards, quick
    python -m repro.bench.failslow --shards 4 -v
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetHealthMonitor,
    MonitorConfig,
    ShardSpec,
)
from ..faults.failslow import FailSlowConfig
from ..workloads.trace import Trace
from .metrics import FailSlowArm, FailSlowSoakResult, FailSlowWindow
from .runner import Scale, make_trace, point_seed

__all__ = [
    "FAILSLOW_SCALE",
    "SMOKE_SCALE",
    "DEADLINE_NS",
    "GRAY_FLOOR_NS",
    "SLOW_MULTIPLIER",
    "failslow_fleet_specs",
    "run_failslow_soak",
    "main",
]

# Per-shard device scale (the fleet soak's smoke scale: enough GC
# pressure for a real tail on every shard, still CI-sized).
FAILSLOW_SCALE = Scale(num_superblocks=64, num_ops=160_000)
SMOKE_SCALE = Scale(num_superblocks=48, num_ops=60_000)

# Read deadline: above the healthy fleet's worst observed read (~22 ms
# — a read parked behind a queued GC erase+migrate burst), far below
# the degraded die's tail, so the control arm never books a deadline
# miss while the slow die's 120 ms erase shadows blow through it.
DEADLINE_NS = 50_000_000
# Detector floor: healthy per-shard *rolling* p99 legitimately swings
# to ~4-8 ms when a GC burst lands inside the 512-sample window, so a
# pure peer-ratio test false-positives.  The floor sits above that
# healthy swing and below the victim's (deadline-censored) p99.
GRAY_FLOOR_NS = 20_000_000
# The injected degradation: one die's timings stretched 40x — the
# "order-of-magnitude slower, still working" gray-failure shape.
SLOW_MULTIPLIER = 40.0


def failslow_fleet_specs(
    num_shards: int,
    *,
    scale: Scale = FAILSLOW_SCALE,
    utilization: float = 0.9,
    seed: int = 0,
) -> List[ShardSpec]:
    """Shard specs with a quiescent fail-slow overlay on every shard.

    Every arm gets the same specs — the model is attached everywhere
    but degrades nothing until the soak activates it on the victim, so
    the control arm doubles as a live quiescent-overlay check.
    """
    if num_shards < 2:
        raise ValueError("a fail-slow soak needs at least 2 shards")
    return [
        ShardSpec(
            f"shard{i:02d}",
            backend="fdp",
            utilization=utilization,
            scale=scale,
            failslow=FailSlowConfig(seed=seed),
        )
        for i in range(num_shards)
    ]


def _harvest_window(
    fleet: FleetCache, name: str, ops: int, before: dict
) -> FailSlowWindow:
    hist = fleet.merged_histogram("read")
    return FailSlowWindow(
        name=name,
        ops=ops,
        gets=fleet.gets - before["gets"],
        misses=fleet.misses - before["misses"],
        deadline_misses=fleet.deadline_misses - before["deadline"],
        read_p99_ns=hist.p99(),
        live_shards=len(fleet.live_shards),
    )


def _counters(fleet: FleetCache) -> dict:
    return {
        "gets": fleet.gets,
        "misses": fleet.misses,
        "deadline": fleet.deadline_misses,
    }


def _run_arm(
    name: str,
    specs: List[ShardSpec],
    trace: Trace,
    segments: List[tuple],
    *,
    seed: int,
    detector: bool,
    inject: Optional[Callable[[FleetCache], None]],
    poll_interval_ops: int,
    deadline_ns: int,
    verbose: bool,
) -> FailSlowArm:
    """Replay one arm; ``inject`` (if any) fires before the fault window."""
    fleet = FleetCache(
        [spec.build() for spec in specs],
        FleetConfig(
            ring_seed=seed,
            deadline_ns=deadline_ns if detector else None,
        ),
    )
    monitor = None
    if detector:
        monitor = FleetHealthMonitor(
            fleet,
            MonitorConfig(
                poll_interval_ops=poll_interval_ops,
                latency_detector=True,
                latency_floor_ns=GRAY_FLOOR_NS,
            ),
        )
    driver = FleetDriver(fleet, monitor=monitor)
    windows = {}
    for seg_name, start, stop, measured in segments:
        if stop <= start:
            continue
        if seg_name == "fault" and inject is not None:
            inject(fleet)
        before = _counters(fleet)
        fleet.clear_histograms()
        driver.run(trace.slice(start, stop), name=f"{name}:{seg_name}")
        if measured:
            windows[seg_name] = _harvest_window(
                fleet, seg_name, stop - start, before
            )
        if verbose:
            print(
                f"[{name:<12}:{seg_name:<9}] ops {start:>7}..{stop:<7} "
                f"miss={fleet.miss_ratio:.3f} "
                f"ddl={fleet.deadline_misses} "
                f"live={len(fleet.live_shards)}"
            )
    return FailSlowArm(
        name=name,
        pre=windows["pre"],
        fault=windows["fault"],
        recovered=windows["recovered"],
        deadline_misses=fleet.deadline_misses,
        gray_detections=(
            0 if monitor is None else monitor.gray_failure_detections
        ),
        quarantines=0 if monitor is None else monitor.quarantines,
        transitions=[] if monitor is None else list(monitor.transitions),
    )


def run_failslow_soak(
    *,
    num_shards: int = 4,
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 30_000,
    utilization: float = 0.9,
    scale: Scale = FAILSLOW_SCALE,
    seed: Optional[int] = None,
    slow_multiplier: float = SLOW_MULTIPLIER,
    deadline_ns: int = DEADLINE_NS,
    recovery_factor: float = 1.5,
    inflation_factor: float = 3.0,
    trace: Optional[Trace] = None,
    verbose: bool = False,
) -> FailSlowSoakResult:
    """Run the three-arm fail-slow soak and return the verdict.

    Deterministic end to end: the trace derives from ``seed`` (default
    ``point_seed("failslow_soak", 0)``), the victim shard and slow die
    from the seed and membership, and the onset op index from
    ``num_ops`` — two runs with the same arguments produce identical
    :class:`~repro.bench.metrics.FailSlowSoakResult`\\ s.
    """
    if seed is None:
        seed = point_seed("failslow_soak", 0)
    total = num_ops or ops_per_shard * num_shards

    specs = failslow_fleet_specs(
        num_shards, scale=scale, utilization=utilization, seed=seed
    )
    shard_ids = sorted(spec.shard_id for spec in specs)
    victim = shard_ids[seed % len(shard_ids)]
    slow_die = seed % scale.geometry().dies

    window = max(2_000, total // 8)
    fault_at = total // 2
    if fault_at - window <= 0 or fault_at + 2 * window >= total:
        raise ValueError(
            f"num_ops={total} too small for window={window} around "
            f"fault_at={fault_at}"
        )
    # Detector cadence: adjacent polls must overlap the victim's
    # ~512-sample rolling window, or a GC-burst-driven slow episode
    # washes out of the window between polls and the confirmation
    # streak never forms (observed at 4 shards: the victim's p99
    # crossed the floor on isolated polls only).  At window // 16 the
    # per-shard sample window spans several polls, so a sustained
    # episode is seen by consecutive polls and the streak lands well
    # inside the fault + drain span.
    poll_interval_ops = max(250, window // 16)

    if trace is None:
        per_shard_nvm = int(scale.geometry().logical_bytes * utilization)
        trace = make_trace(
            workload,
            per_shard_nvm * num_shards,
            scale,
            num_ops=total,
            seed=seed,
        )
    if len(trace) < total:
        raise ValueError("trace shorter than the requested op count")

    # Window layout on one continuous op timeline:
    #   [warmup][pre] <inject> [fault][drain][recovered]
    segments = [
        ("warmup", 0, fault_at - window, False),
        ("pre", fault_at - window, fault_at, True),
        ("fault", fault_at, fault_at + window, True),
        ("drain", fault_at + window, total - window, False),
        ("recovered", total - window, total, True),
    ]

    def inject(fleet: FleetCache) -> None:
        # Degrade the victim's die directly on its live overlay model —
        # the same activation path a ScriptedSlowdown takes, pinned to
        # the segment boundary instead of a closed-loop timestamp.
        model = fleet.shards[victim].backend.cache.device.failslow
        model.slow_die(slow_die, slow_multiplier)

    arms = {}
    for name, detector, fault in (
        ("control", True, None),
        ("detector-on", True, inject),
        ("detector-off", False, inject),
    ):
        arms[name] = _run_arm(
            name,
            specs,
            trace,
            segments,
            seed=seed,
            detector=detector,
            inject=fault,
            poll_interval_ops=poll_interval_ops,
            deadline_ns=deadline_ns,
            verbose=verbose,
        )

    return FailSlowSoakResult(
        num_shards=num_shards,
        ops=total,
        seed=seed,
        victim_shard=victim,
        slow_die=slow_die,
        slow_multiplier=slow_multiplier,
        fault_at_ops=fault_at,
        deadline_ns=deadline_ns,
        recovery_factor=recovery_factor,
        inflation_factor=inflation_factor,
        control=arms["control"],
        detector_on=arms["detector-on"],
        detector_off=arms["detector-off"],
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.bench.failslow [--smoke] [options]``."""
    import argparse
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.failslow",
        description=(
            "Fail-slow soak: degrade one die mid-run; verify the "
            "gray-failure detector contains it (detector-on recovers "
            "near the no-fault control, detector-off stays inflated)."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 3 shards at reduced scale, exit 1 on failure",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="number of shards (default 4; --smoke forces 3)",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="trace length (default: 30k per shard)",
    )
    parser.add_argument(
        "--seed", type=lambda s: int(s, 0), default=None,
        help="override the point_seed-derived soak seed",
    )
    parser.add_argument(
        "--multiplier", type=float, default=SLOW_MULTIPLIER,
        help=f"slow-die latency multiplier (default {SLOW_MULTIPLIER:g})",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=DEADLINE_NS / 1e6,
        help=f"GET deadline in ms (default {DEADLINE_NS / 1e6:g})",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        num_shards, scale, ops_per_shard = 3, SMOKE_SCALE, 12_000
    else:
        # 30k/shard: long enough that the measurement windows (total/8)
        # average over several GC cycles per shard — at 20k/shard the
        # control's recovered window lands between GC bursts and reads
        # artificially quiet, souring both ratio gates.
        num_shards, scale, ops_per_shard = args.shards, FAILSLOW_SCALE, 30_000

    start = time.perf_counter()
    result = run_failslow_soak(
        num_shards=num_shards,
        num_ops=args.ops,
        ops_per_shard=ops_per_shard,
        scale=scale,
        seed=args.seed,
        slow_multiplier=args.multiplier,
        deadline_ns=int(args.deadline_ms * 1e6),
        verbose=args.verbose,
    )
    elapsed = time.perf_counter() - start
    print(result.summary_table())
    print(f"({elapsed:.1f}s wall)")
    return 0 if result.acceptance else 1


if __name__ == "__main__":
    raise SystemExit(main())

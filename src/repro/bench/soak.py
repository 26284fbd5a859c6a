"""One soak harness: every robustness soak behind one result type and CLI.

The three fleet soaks share one shape.  Each replays one seeded trace
through several identical fleets ("arms") that differ only in the
injected event and the reaction enabled, and judges measurement
windows cut from one op timeline::

    [warmup][pre][event][drain][recovered]

* **fleet** (shard loss) — kill one shard unannounced at the halfway
  point; the ``kill`` arm must keep serving, hold exactly-once
  placement across survivors, and recover miss ratio and merged p99
  to within ``tolerance`` of a no-kill ``control`` arm's final window.
* **overload** (flash crowd) — open-loop replay of an adversarial
  burst; the ``governor-on`` arm must stay bounded through the burst
  and recover, while ``governor-off`` collapses on the same seed.
* **failslow** (gray failure) — degrade one die 40x mid-run; the
  ``detector-on`` arm must land near the fault-free ``control`` arm's
  tail, ``detector-off`` must stay inflated, and the control arm's
  reaction counters must stay zero.

:func:`segments` builds the layout, :func:`run_arm` replays one arm
into :class:`SoakWindow`\\ s, and each soak returns one
:class:`SoakResult` whose gates carry their own evidence.

CLI::

    python -m repro.bench.soak NAME [--smoke] [--seed N] [--json PATH] [-v]

``NAME`` is one of ``integrity``, ``latency``, ``fleet``, ``overload``,
``overload-matrix``, ``failslow`` or ``ablation``; ``--smoke`` picks
the CI-sized preset, and the exit status is 1 when any gate fails.
The latency soak and the ablation keep their own result types (their
golden fixtures pin them); the integrity pair reports as a
:class:`SoakResult` without windows.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..faults.failslow import FailSlowConfig
from ..fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetHealthMonitor,
    GovernorConfig,
    MonitorConfig,
    ScriptedShardEvent,
    ShardSpec,
)
from ..workloads.adversarial import FlashCrowd, Scenario
from ..workloads.trace import Trace
from .ablation import ABLATION_OPS, ABLATION_SCALE, SMOKE_OPS, run_ablation
from .ablation import SMOKE_SCALE as ABLATION_SMOKE_SCALE
from .latency import SMOKE_OPS as LATENCY_SMOKE_OPS
from .latency import run_latency_soak
from .overload import scenario_matrix
from .parallel import PointFailure
from .runner import Scale, make_trace, point_seed, run_integrity_soak

__all__ = [
    "FLEET_SCALE",
    "SMOKE_SCALE",
    "DEADLINE_NS",
    "GRAY_FLOOR_NS",
    "SLOW_MULTIPLIER",
    "PER_SHARD_INTERVAL_NS",
    "SOAKS",
    "SoakWindow",
    "SoakResult",
    "within",
    "segments",
    "run_arm",
    "default_fleet_specs",
    "make_crowd_trace",
    "run_fleet_soak",
    "run_overload_soak",
    "run_failslow_soak",
    "main",
]

# Per-shard device scales: FLEET_SCALE is small enough that an 8-shard
# soak stays in CI budget, large enough for real GC pressure on every
# shard; SMOKE_SCALE is the CI-sized shape the smoke presets use.
FLEET_SCALE = Scale(num_superblocks=64)
SMOKE_SCALE = Scale(num_superblocks=48)

MIXES = ("fdp", "nonfdp", "mixed")
# The heterogeneous rotation: FDP-heavy with non-FDP and ZNS shards
# mixed in, "How to Write to SSDs"'s device-generation mix.
_MIXED_CYCLE = ("fdp", "nonfdp", "zns", "fdp")

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


# ----------------------------------------------------------------------
# result types
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SoakWindow:
    """Fleet service quality over one measurement window of one arm.

    Every counter is the window's delta of the matching
    :class:`~repro.fleet.FleetCache` counter; ``read_p99_ns`` is the
    fleet-merged p99 over the window alone (histograms are cleared at
    each boundary).  ``max_backlog_ns`` (the worst per-shard device
    backlog at the window edge — the open-loop collapse signal) and
    ``label`` (the scenario's ground truth for the window, e.g. its
    ``flash_crowd`` overlap) exist only for traces with an arrival
    schedule.
    """

    name: str
    ops: int
    gets: int
    misses: int
    storm_misses: int
    degraded_misses: int
    deadline_misses: int
    shed_sets: int
    shed_loc_admissions: int
    read_p99_ns: int
    live_shards: int
    max_backlog_ns: Optional[int] = None
    label: Optional[Dict[str, float]] = None

    HEADER = (
        f"{'window':<24} {'ops':>7} {'miss':>6} {'p99(us)':>9} "
        f"{'storm':>6} {'degr':>5} {'ddl':>5} {'shedSET':>7} "
        f"{'shedLOC':>7} {'alive':>5} {'bklg(ms)':>8}"
    )

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.gets if self.gets else 0.0

    def summary_row(self, label: str) -> str:
        backlog = (
            "-"
            if self.max_backlog_ns is None
            else f"{self.max_backlog_ns / 1e6:.1f}"
        )
        return (
            f"{label:<24} {self.ops:>7} {self.miss_ratio:>6.3f} "
            f"{self.read_p99_ns / 1000:>9.0f} {self.storm_misses:>6} "
            f"{self.degraded_misses:>5} {self.deadline_misses:>5} "
            f"{self.shed_sets:>7} {self.shed_loc_admissions:>7} "
            f"{self.live_shards:>5} {backlog:>8}"
        )


Gate = Tuple[bool, str]


@dataclasses.dataclass(frozen=True)
class SoakResult:
    """Verdict of one soak: windows per arm, counters, evidenced gates.

    ``arms`` maps arm → window name → :class:`SoakWindow`; ``params``
    holds the knobs and the injected event (victim, onset);
    ``counters`` holds run-level evidence (placement audit, governor
    and reaction counters, per-shard rows).  Each gate is
    ``(passed, evidence)``, and the soak passes only if all do.
    """

    name: str
    seed: Optional[int]
    ops: int
    params: Dict[str, object]
    arms: Dict[str, Dict[str, SoakWindow]]
    counters: Dict[str, object]
    gates: Dict[str, Gate]

    @property
    def acceptance(self) -> bool:
        return all(passed for passed, _ in self.gates.values())

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["gates"] = {
            gate: [passed, evidence]
            for gate, (passed, evidence) in self.gates.items()
        }
        out["acceptance"] = self.acceptance
        return out

    def summary_table(self) -> str:
        seed = "per-row" if self.seed is None else f"{self.seed:#x}"
        lines = [
            f"{self.name}-soak ops={self.ops} seed={seed} "
            f"{_fields(self.params)}".rstrip()
        ]
        if self.arms:
            lines.append(SoakWindow.HEADER)
            for arm, windows in self.arms.items():
                for window in windows.values():
                    lines.append(window.summary_row(f"{arm}:{window.name}"))
        scalars = _fields(self.counters)
        if scalars:
            lines.append(f"counters: {scalars}")
        for key, value in self.counters.items():
            if isinstance(value, dict) and _fields(value):
                lines.append(f"{key}: {_fields(value)}")
        for gate, (passed, evidence) in self.gates.items():
            lines.append(
                f"{gate}: {'PASS' if passed else 'FAIL'} ({evidence})"
            )
        lines.append(f"acceptance: {'PASS' if self.acceptance else 'FAIL'}")
        return "\n".join(lines)


def _fields(values: Dict[str, object]) -> str:
    """``key=value`` for the scalar entries (structured ones go to JSON)."""
    return " ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in values.items()
        if isinstance(value, (bool, int, float, str))
    )


def within(value: float, baseline: float, factor: float) -> bool:
    """``value`` is no worse than ``baseline`` × ``factor``.

    One-sided: beating the baseline always passes.  A zero baseline
    admits only zero — no ratio bound holds over nothing.
    """
    if baseline == 0:
        return value == 0
    return value <= baseline * factor


# ----------------------------------------------------------------------
# the shared replay
# ----------------------------------------------------------------------

Segment = Tuple[str, int, int, bool]


def _window_ops(total: int) -> int:
    return max(2_000, total // 8)


def segments(total: int, event_start: int, event_stop: int) -> List[Segment]:
    """The window layout ``[warmup][pre][event][drain][recovered]``.

    Each entry is ``(name, start, stop, measured)``.  ``pre`` ends where
    the event starts, so it is measured on the undisturbed fleet;
    ``pre`` and ``recovered`` are ``max(2000, total // 8)`` ops long,
    and both must leave room for an unmeasured warmup and drain.
    """
    window = _window_ops(total)
    if event_start - window <= 0 or event_stop + window >= total:
        raise ValueError(
            f"num_ops={total} too small for window={window} around "
            f"event [{event_start}, {event_stop})"
        )
    return [
        ("warmup", 0, event_start - window, False),
        ("pre", event_start - window, event_start, True),
        ("event", event_start, event_stop, True),
        ("drain", event_stop, total - window, False),
        ("recovered", total - window, total, True),
    ]


def _counters(fleet: FleetCache) -> Tuple[int, ...]:
    """The cumulative counters a window reports deltas of, in field order."""
    governor = fleet.governor_counters()
    return (
        fleet.gets,
        fleet.misses,
        fleet.storm_misses,
        fleet.degraded_misses,
        fleet.deadline_misses,
        int(governor["shed_sets"]),
        int(governor["shed_loc_admissions"]),
    )


def run_arm(
    specs: List[ShardSpec],
    trace: Trace,
    segments: List[Segment],
    *,
    fleet_config: FleetConfig,
    monitor: Optional[Callable[[FleetCache], FleetHealthMonitor]] = None,
    inject: Optional[Callable[[FleetCache], None]] = None,
    scenario: Optional[Scenario] = None,
    name: str = "arm",
    verbose: bool = False,
) -> Tuple[Dict[str, SoakWindow], FleetDriver]:
    """Replay one arm on a fresh fleet; returns its windows and driver.

    ``monitor`` builds the arm's health monitor from its fleet;
    ``inject`` (if any) fires right before the ``event`` segment;
    ``scenario`` labels the windows of an arrival-scheduled trace.
    The driver's ``fleet`` and ``monitor`` carry the run-level
    counters.
    """
    fleet = FleetCache([spec.build() for spec in specs], fleet_config)
    driver = FleetDriver(
        fleet, monitor=None if monitor is None else monitor(fleet)
    )
    total = len(trace)
    windows: Dict[str, SoakWindow] = {}
    for seg, start, stop, measured in segments:
        if stop <= start:
            continue
        if seg == "event" and inject is not None:
            inject(fleet)
        before = _counters(fleet)
        fleet.clear_histograms()
        driver.run(trace.slice(start, stop), name=f"{name}:{seg}")
        if measured:
            backlog = label = None
            if trace.arrivals_ns is not None:
                now = int(trace.arrivals_ns[stop - 1])
                backlog = int(
                    max(
                        (
                            s.backend.overload_signals(now).pressure_ns
                            for s in fleet.shards.values()
                        ),
                        default=0,
                    )
                )
                label = {}
                for transform in scenario.transforms if scenario else ():
                    label.update(transform.window_label(start, stop, total))
            deltas = (
                after - prior
                for after, prior in zip(_counters(fleet), before)
            )
            windows[seg] = SoakWindow(
                seg,
                stop - start,
                *deltas,
                read_p99_ns=fleet.merged_histogram("read").p99(),
                live_shards=len(fleet.live_shards),
                max_backlog_ns=backlog,
                label=label,
            )
        if verbose:
            print(
                f"[{name}:{seg:<9}] ops {start:>7}..{stop:<7} "
                f"miss={fleet.miss_ratio:.3f} storm={fleet.storm_misses} "
                f"ddl={fleet.deadline_misses} live={len(fleet.live_shards)}"
            )
    return windows, driver


def _fleet_trace(
    workload: str,
    num_shards: int,
    total: int,
    scale: Scale,
    utilization: float,
    seed: int,
) -> Trace:
    """The soak trace, its working set sized to aggregate NVM capacity."""
    per_shard_nvm = int(scale.geometry().logical_bytes * utilization)
    return make_trace(
        workload, per_shard_nvm * num_shards, scale, num_ops=total, seed=seed
    )


# ----------------------------------------------------------------------
# fleet: shard loss
# ----------------------------------------------------------------------


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
) -> SoakResult:
    """Kill a shard mid-run and judge recovery against a no-kill control.

    Deterministic end to end: the trace derives from ``seed`` (default
    ``point_seed("fleet_soak", 0)``), the kill victim from the seed and
    membership, and the kill op index from ``num_ops`` — two runs with
    the same arguments produce identical results.

    The trace length defaults to ``ops_per_shard * num_shards`` so
    per-shard load — and with it each device's GC regime — stays
    constant as the fleet grows; a fixed total would leave a large
    fleet's devices still filling when the run ends, and a fleet that
    never reaches GC has no tail latency to recover.

    The ``control`` arm is the identical fleet replaying the identical
    trace with no kill, measured over the same final window.  It is
    the baseline the ``recovered`` window is judged against: per-window
    p99 drifts ±20% with GC bursts even on an undisturbed fleet, so a
    paired control is the only baseline that isolates the kill's
    effect (the repo's differential-arm idiom).
    """
    if seed is None:
        seed = point_seed("fleet_soak", 0)
    total = num_ops or ops_per_shard * num_shards
    specs = default_fleet_specs(
        num_shards, mix=mix, scale=scale, utilization=utilization, seed=seed
    )
    # Seed-driven victim selection over the sorted membership — any
    # shard must be killable, so the victim rotates with the seed.
    shard_ids = sorted(spec.shard_id for spec in specs)
    victim = shard_ids[seed % len(shard_ids)]
    # The scripted kill fires on the first op after the pre window, so
    # pre is measured on the intact fleet and the event window starts
    # at the loss.
    kill_at = total // 2
    kill_segments = segments(total, kill_at, kill_at + _window_ops(total))
    recovered = kill_segments[-1]
    if trace is None:
        trace = _fleet_trace(workload, num_shards, total, scale, utilization, seed)
    if len(trace) < total:
        raise ValueError("trace shorter than the requested op count")

    config = FleetConfig(ring_seed=seed)
    plan = [ScriptedShardEvent(kill_at + 1, victim, "kill")]
    kill, driver = run_arm(
        specs,
        trace,
        kill_segments,
        fleet_config=config,
        monitor=lambda fleet: FleetHealthMonitor(fleet, plan=plan),
        name="kill",
        verbose=verbose,
    )
    control, _ = run_arm(
        specs,
        trace,
        [("warmup", 0, recovered[1], False), recovered],
        fleet_config=config,
        name="control",
        verbose=verbose,
    )

    fleet, monitor = driver.fleet, driver.monitor
    audit = fleet.verify_placement()
    kill_events = [t for t in monitor.transitions if t["event"] == "kill"]
    assert kill_events, "the scripted kill never fired"
    rec, ctl = kill["recovered"], control["recovered"]
    audit_counts = {
        key: audit[key]
        for key in (
            "keys_resident", "misplaced", "duplicates", "shadow_mismatches"
        )
    }
    return SoakResult(
        name="fleet",
        seed=seed,
        ops=total,
        params={
            "num_shards": num_shards,
            "mix": mix,
            "tolerance": tolerance,
            "killed_shard": victim,
            "kill_at_ops": kill_events[0]["ops_done"],
        },
        arms={"kill": kill, "control": control},
        counters={
            **audit_counts,
            "rebalance_moved_items": fleet.rebalance_moved_items,
            "storm_misses_total": fleet.storm_misses,
            "degraded_misses_total": fleet.degraded_misses,
            "dropped_sets": fleet.dropped_sets,
            "retries": fleet.retries,
            "fleet_dlwa": fleet.fleet_dlwa(),
            "energy_kwh": fleet.energy_kwh(),
            "co2e_kg": fleet.co2e_kg(),
            "transitions": list(monitor.transitions),
            "shard_rows": [
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
            ],
        },
        gates={
            # No key lost to routing, resident twice, or shadow-divergent.
            "placement_clean": (
                audit["misplaced"] == 0
                and audit["duplicates"] == 0
                and audit["shadow_mismatches"] == 0,
                _fields(audit_counts),
            ),
            "miss_ratio_recovered": (
                within(rec.miss_ratio, ctl.miss_ratio, 1.0 + tolerance),
                f"{rec.miss_ratio:.3f} vs control {ctl.miss_ratio:.3f}, "
                f"tol {tolerance:.0%}",
            ),
            "p99_recovered": (
                within(rec.read_p99_ns, ctl.read_p99_ns, 1.0 + tolerance),
                f"{rec.read_p99_ns / 1000:.0f}us vs control "
                f"{ctl.read_p99_ns / 1000:.0f}us, tol {tolerance:.0%}",
            ),
        },
    )


# ----------------------------------------------------------------------
# overload: flash crowd vs the load governor, open loop
# ----------------------------------------------------------------------


def make_crowd_trace(
    num_shards: int,
    total_ops: int,
    *,
    workload: str = "kvcache",
    scale: Scale = SMOKE_SCALE,
    utilization: float = 0.9,
    seed: int = 0,
) -> tuple:
    """Build the soak's adversarial trace; returns ``(trace, scenario)``.

    The base trace is sized to the fleet the same way the fleet soak
    sizes it (working set tracks aggregate NVM capacity), so the
    steady-state portions exercise flash, not just DRAM.
    """
    base = _fleet_trace(workload, num_shards, total_ops, scale, utilization, seed)
    crowd = FlashCrowd(
        base_interval_ns=max(1, PER_SHARD_INTERVAL_NS // num_shards),
        seed=seed,
        **_CROWD,
    )
    scenario = Scenario("flashcrowd", (crowd,))
    return scenario.apply(base), scenario


def run_overload_soak(
    *,
    num_shards: int = 4,
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 20_000,
    utilization: float = 0.9,
    scale: Scale = SMOKE_SCALE,
    seed: Optional[int] = None,
    governor: Optional[GovernorConfig] = None,
    tolerance: float = 0.5,
    collapse_factor: float = 3.0,
    burst_advantage: float = 1.5,
    verbose: bool = False,
) -> SoakResult:
    """Run the flash-crowd soak, governor-on vs governor-off.

    Both arms replay the identical adversarial trace open loop — ops
    arrive on the trace's schedule however far behind the devices
    fall — so admission control is the only degree of freedom.
    Governor-off fills every crowd miss, GC amplifies the writes, and
    the backlog (and p99) stays collapsed after the burst;
    :class:`~repro.fleet.governor.LoadGovernor` walks HEALTHY →
    BROWNOUT → SHED and sheds writes, never GETs, trading a higher
    miss ratio for bounded reads.

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
    burst = segments(total, *scenario.transforms[0]._window(total))

    arms: Dict[str, Dict[str, SoakWindow]] = {}
    fleets: Dict[str, FleetCache] = {}
    for arm, config in (
        ("on", governor or GovernorConfig()),
        ("off", None),
    ):
        arms[f"governor-{arm}"], driver = run_arm(
            specs,
            trace,
            burst,
            fleet_config=FleetConfig(ring_seed=seed, governor=config),
            scenario=scenario,
            name=f"governor-{arm}",
            verbose=verbose,
        )
        fleets[arm] = driver.fleet

    governor_counters = fleets["on"].governor_counters()
    shed = {k: governor_counters[k] for k in ("shed_sets", "shed_loc_admissions")}
    on_pre, on_burst, on_rec = (
        w.read_p99_ns for w in arms["governor-on"].values()
    )
    off_pre, off_burst, off_rec = (
        w.read_p99_ns for w in arms["governor-off"].values()
    )
    return SoakResult(
        name="overload",
        seed=seed,
        ops=total,
        params={
            "num_shards": num_shards,
            "scenario": scenario.name,
            "tolerance": tolerance,
            "collapse_factor": collapse_factor,
            "burst_advantage": burst_advantage,
        },
        arms=arms,
        counters={
            "governor_counters": governor_counters,
            "queue_rejections": {
                f"{arm}:{queue}": count
                for arm, fleet in fleets.items()
                for queue, count in fleet.queue_rejections().items()
            },
        },
        gates={
            # No unbounded queue growth while shedding is active.
            "p99_bounded": (
                on_burst * burst_advantage <= off_burst,
                f"on {on_burst / 1e6:.1f}ms x{burst_advantage:g} <= off "
                f"{off_burst / 1e6:.1f}ms",
            ),
            "p99_recovered": (
                within(on_rec, on_pre, 1.0 + tolerance),
                f"{on_rec / 1e6:.1f}ms vs pre {on_pre / 1e6:.1f}ms, "
                f"tol {tolerance:.0%}",
            ),
            # The arm proving the overload is real: if governor-off
            # shrugs the burst off, the scenario is too gentle to claim
            # anything.
            "off_collapsed": (
                off_rec >= off_pre * collapse_factor,
                f"{off_rec / 1e6:.1f}ms >= {collapse_factor:g}x pre "
                f"{off_pre / 1e6:.1f}ms",
            ),
            # The pass is attributable to admission control, not luck.
            "governor_engaged": (sum(shed.values()) > 0, _fields(shed)),
        },
    )


# ----------------------------------------------------------------------
# failslow: gray-failure containment
# ----------------------------------------------------------------------


def run_failslow_soak(
    *,
    num_shards: int = 4,
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 30_000,
    utilization: float = 0.9,
    scale: Scale = FLEET_SCALE,
    seed: Optional[int] = None,
    slow_multiplier: float = SLOW_MULTIPLIER,
    deadline_ns: int = DEADLINE_NS,
    recovery_factor: float = 1.5,
    inflation_factor: float = 3.0,
    trace: Optional[Trace] = None,
    verbose: bool = False,
) -> SoakResult:
    """Slow one die on one shard mid-run; judge the reaction path.

    Three arms replay the identical trace on identical fleets, every
    shard carrying a quiescent fail-slow overlay:

    * ``control`` — no fault, detector and deadlines ON: the baseline
      tail, and the false-positive check (its reaction counters must
      stay zero);
    * ``detector-on`` — the fault plus the full reaction path:
      deadline-bounded GETs, the gray-failure detector, and quarantine
      through the retirement drain;
    * ``detector-off`` — the same fault with no deadline and no
      monitor: what gray failure costs an unprotected fleet.

    The fault is pure timing (the overlay invariant, pinned by
    tests/test_differential_failslow.py): the victim serves every read
    correctly and SMART stays healthy — the hazard class SMART-driven
    monitoring cannot see.

    Deterministic end to end: the trace derives from ``seed`` (default
    ``point_seed("failslow_soak", 0)``), the victim shard and slow die
    from the seed and membership, and the onset op index from
    ``num_ops``.
    """
    if seed is None:
        seed = point_seed("failslow_soak", 0)
    total = num_ops or ops_per_shard * num_shards
    specs = [
        dataclasses.replace(spec, failslow=FailSlowConfig(seed=seed))
        for spec in default_fleet_specs(
            num_shards, scale=scale, utilization=utilization
        )
    ]
    shard_ids = sorted(spec.shard_id for spec in specs)
    victim = shard_ids[seed % len(shard_ids)]
    slow_die = seed % scale.geometry().dies
    window = _window_ops(total)
    fault_at = total // 2
    fault_segments = segments(total, fault_at, fault_at + window)
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
        trace = _fleet_trace(workload, num_shards, total, scale, utilization, seed)
    if len(trace) < total:
        raise ValueError("trace shorter than the requested op count")

    def inject(fleet: FleetCache) -> None:
        # Degrade the victim's die directly on its live overlay model —
        # the same activation path a ScriptedSlowdown takes, pinned to
        # the segment boundary instead of a closed-loop timestamp.
        model = fleet.shards[victim].backend.cache.device.failslow
        model.slow_die(slow_die, slow_multiplier)

    def detector(fleet: FleetCache) -> FleetHealthMonitor:
        return FleetHealthMonitor(
            fleet,
            MonitorConfig(
                poll_interval_ops=poll_interval_ops,
                latency_detector=True,
                latency_floor_ns=GRAY_FLOOR_NS,
            ),
        )

    arms: Dict[str, Dict[str, SoakWindow]] = {}
    reactions: Dict[str, Dict[str, object]] = {}
    for arm, react, fault in (
        ("control", True, None),
        ("detector-on", True, inject),
        ("detector-off", False, inject),
    ):
        arms[arm], driver = run_arm(
            specs,
            trace,
            fault_segments,
            fleet_config=FleetConfig(
                ring_seed=seed, deadline_ns=deadline_ns if react else None
            ),
            monitor=detector if react else None,
            inject=fault,
            name=arm,
            verbose=verbose,
        )
        monitor = driver.monitor
        reactions[arm] = {
            "deadline_misses": driver.fleet.deadline_misses,
            "gray_detections": (
                0 if monitor is None else monitor.gray_failure_detections
            ),
            "quarantines": 0 if monitor is None else monitor.quarantines,
            "transitions": [] if monitor is None else list(monitor.transitions),
        }

    baseline = arms["control"]["recovered"].read_p99_ns
    on_p99 = arms["detector-on"]["recovered"].read_p99_ns
    off_p99 = arms["detector-off"]["recovered"].read_p99_ns
    on, ctl = reactions["detector-on"], reactions["control"]
    return SoakResult(
        name="failslow",
        seed=seed,
        ops=total,
        params={
            "num_shards": num_shards,
            "victim_shard": victim,
            "slow_die": slow_die,
            "slow_multiplier": slow_multiplier,
            "fault_at_ops": fault_at,
            "deadline_ns": deadline_ns,
            "recovery_factor": recovery_factor,
            "inflation_factor": inflation_factor,
        },
        arms=arms,
        counters=reactions,
        gates={
            # Quarantine removed the slow shard; survivors carry the
            # traffic at healthy tails.
            "contained": (
                within(on_p99, baseline, recovery_factor),
                f"on {on_p99 / 1000:.0f}us <= {recovery_factor:g}x "
                f"control {baseline / 1000:.0f}us",
            ),
            # The arm proving the injected fault actually hurts.
            "off_inflated": (
                off_p99 >= baseline * inflation_factor,
                f"off {off_p99 / 1000:.0f}us >= {inflation_factor:g}x "
                f"control {baseline / 1000:.0f}us",
            ),
            # The pass is attributable to the reaction path, not luck.
            "detector_fired": (
                on["gray_detections"] >= 1
                and on["quarantines"] >= 1
                and on["deadline_misses"] > 0,
                _fields(on),
            ),
            # Reaction counters are nonzero only in faulted arms.
            "counters_clean": (
                ctl["deadline_misses"] == 0
                and ctl["gray_detections"] == 0
                and ctl["quarantines"] == 0,
                _fields(ctl),
            ),
        },
    )


# ----------------------------------------------------------------------
# the CLI: one entry point for every soak
# ----------------------------------------------------------------------


def _integrity_pair(
    *, seed: Optional[int] = None, verbose: bool = False, **kwargs
) -> SoakResult:
    """The latent-error soak's scrub-on and scrub-off arms on one seed.

    Scrub on must leak no undetected corruption (the final full patrol
    pass CRC-verifies every page) and must relocate pages that show up
    in the DLWA ledger; scrub off must leak — the failure mode the
    scrubber is there to fix.
    """
    if seed is None:
        seed = point_seed("integrity_soak", 0)
    on, off = (
        run_integrity_soak(scrub=scrub, seed=seed, verbose=verbose, **kwargs)
        for scrub in (True, False)
    )
    fields = (
        "corruptions_injected",
        "detected_corruptions",
        "undetected_corruptions",
        "reads_corrected",
        "scrub_pages_relocated",
        "scrub_blocks_retired",
        "dlwa",
    )
    ledger = (
        on.host_pages_written + on.gc_pages_migrated + on.scrub_pages_relocated
    )
    return SoakResult(
        name="integrity",
        seed=seed,
        ops=on.ops,
        params=dict(kwargs),
        arms={},
        counters={
            arm: {field: getattr(r, field) for field in fields}
            for arm, r in (("scrub-on", on), ("scrub-off", off))
        },
        gates={
            "scrub_on_clean": (
                on.undetected_corruptions == 0,
                f"undetected={on.undetected_corruptions}",
            ),
            "scrub_on_relocates": (
                on.scrub_pages_relocated > 0,
                f"relocated={on.scrub_pages_relocated}",
            ),
            "dlwa_ledger_balanced": (
                on.nand_pages_written == ledger,
                f"nand={on.nand_pages_written} host+gc+scrub={ledger}",
            ),
            "scrub_off_leaks": (
                off.undetected_corruptions > 0,
                f"undetected={off.undetected_corruptions}",
            ),
        },
    )


def _overload_matrix(**kwargs) -> SoakResult:
    """The scenario × FDP regression matrix; every cell must complete."""
    results = scenario_matrix(**kwargs)
    done = [r for r in results if not isinstance(r, PointFailure)]
    cells: Dict[str, object] = {}
    for r in results:
        if isinstance(r, PointFailure):
            cells[r.name] = {"failed": r.summary_row()}
        else:
            cells[r.name] = {
                "dlwa": r.dlwa,
                "p99_read_us": r.p99_read_us,
                "miss_ratio": 1.0 - r.hit_ratio,
                "kops": r.throughput_kops,
            }
    return SoakResult(
        name="overload-matrix",
        seed=None,
        ops=sum(r.ops for r in done),
        params=dict(kwargs),
        arms={},
        counters=cells,
        gates={
            "cells_ok": (
                len(done) == len(results),
                f"{len(done)}/{len(results)} cells",
            )
        },
    )


# name → (runner, --smoke kwargs, full kwargs).  Each runner returns a
# result with ``acceptance``, ``summary_table()`` and ``to_dict()``.
SOAKS: Dict[str, Tuple[Callable[..., object], dict, dict]] = {
    "integrity": (
        _integrity_pair,
        dict(span=512, phases=4, commands_per_phase=96),
        dict(span=1024, phases=6, commands_per_phase=160),
    ),
    "latency": (run_latency_soak, dict(num_ops=LATENCY_SMOKE_OPS), dict()),
    "fleet": (
        run_fleet_soak,
        dict(num_shards=4, ops_per_shard=20_000, scale=SMOKE_SCALE),
        dict(num_shards=8, ops_per_shard=20_000, scale=FLEET_SCALE),
    ),
    "overload": (
        run_overload_soak,
        dict(num_shards=2, ops_per_shard=20_000, tolerance=0.5),
        # More shards run the open loop nearer critical load, so the
        # drained-but-jittery recovered p99 sits higher over pre.
        dict(num_shards=4, ops_per_shard=20_000, tolerance=1.5),
    ),
    "overload-matrix": (_overload_matrix, dict(), dict()),
    "failslow": (
        run_failslow_soak,
        dict(num_shards=3, ops_per_shard=12_000, scale=SMOKE_SCALE),
        # 30k/shard: long enough that the measurement windows (total/8)
        # average over several GC cycles per shard — at 20k/shard the
        # control's recovered window lands between GC bursts and reads
        # artificially quiet, souring both ratio gates.
        dict(num_shards=4, ops_per_shard=30_000, scale=FLEET_SCALE),
    ),
    "ablation": (
        run_ablation,
        dict(num_ops=SMOKE_OPS, scale=ABLATION_SMOKE_SCALE, soak_ops=10_000),
        dict(num_ops=ABLATION_OPS, scale=ABLATION_SCALE, soak_ops=20_000),
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.bench.soak NAME [--smoke] [options]``."""
    import argparse
    import inspect
    import json
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.soak",
        description="Run one robustness soak; exit 1 when a gate fails.",
    )
    parser.add_argument("name", choices=list(SOAKS))
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized preset"
    )
    parser.add_argument(
        "--seed", type=lambda s: int(s, 0), default=None,
        help="override the point_seed-derived soak seed",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full result as JSON",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    run, smoke, full = SOAKS[args.name]
    kwargs = dict(smoke if args.smoke else full)
    accepted = inspect.signature(run).parameters
    for flag, key, value in (
        ("--seed", "seed", args.seed),
        ("-v", "verbose", args.verbose or None),
    ):
        if value is None:
            continue
        if key not in accepted:
            parser.error(f"{args.name} takes no {flag}")
        kwargs[key] = value

    start = time.perf_counter()
    result = run(**kwargs)
    print(result.summary_table())
    print(f"({time.perf_counter() - start:.1f}s wall)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if result.acceptance else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Run metrics: latency quantiles, interval DLWA series, run results.

The driver collects exactly the quantities the paper reports per
experiment: throughput, overall/DRAM/NVM hit ratios, ALWA, cumulative
and interval DLWA (the latter is what Figures 5/7/8/11 plot), p99
read/write latency, GC activity, and operational energy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "LatencyReservoir",
    "IntervalPoint",
    "RunResult",
    "CrashSoakResult",
    "IntegritySoakResult",
    "LatencyArm",
    "LatencySoakResult",
    "AblationCell",
    "AblationResult",
]


class LatencyReservoir:
    """Bounded latency sample that decimates itself when full.

    Keeps at most ``capacity`` samples; on overflow every second sample
    is dropped and the acceptance stride doubles, so the reservoir
    stays a uniform subsample of the stream — adequate for p50-p99
    estimation over millions of ops without unbounded memory.
    """

    def __init__(self, capacity: int = 131072) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = capacity
        self._samples: List[int] = []
        self._stride = 1
        self._seen = 0

    def add(self, latency_ns: int) -> None:
        self._seen += 1
        if self._seen % self._stride:
            return
        self._samples.append(latency_ns)
        if len(self._samples) >= self.capacity:
            self._samples = self._samples[::2]
            self._stride *= 2

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count_seen(self) -> int:
        return self._seen

    def percentile(self, p: float) -> float:
        """Latency percentile in nanoseconds (0 when empty)."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.array(self._samples), p))

    def p99_us(self) -> float:
        return self.percentile(99.0) / 1000.0

    def p50_us(self) -> float:
        return self.percentile(50.0) / 1000.0


@dataclasses.dataclass(frozen=True)
class IntervalPoint:
    """One DLWA poll (the paper polls every 10 minutes via nvme-cli)."""

    ops: int
    host_gib_written: float
    interval_dlwa: float
    cumulative_dlwa: float


@dataclasses.dataclass
class RunResult:
    """Everything one experiment arm produced."""

    name: str
    fdp: bool
    ops: int
    sim_seconds: float
    # cache metrics
    hit_ratio: float
    dram_hit_ratio: float
    nvm_hit_ratio: float
    alwa: float
    # device metrics
    dlwa: float
    steady_dlwa: float
    interval_series: List[IntervalPoint]
    gc_relocation_events: int
    gc_relocated_pages: int
    gc_victims: int
    host_pages_written: int
    nand_pages_written: int
    energy_kwh: float
    # latency metrics (microseconds)
    p50_read_us: float
    p99_read_us: float
    p50_write_us: float
    p99_write_us: float
    # fault/degradation metrics (all zero on a fault-free device;
    # appended with defaults so positional constructions stay valid)
    media_errors: int = 0
    read_errors: int = 0
    write_errors: int = 0
    write_drops: int = 0
    io_retries: int = 0
    retired_superblocks: int = 0
    available_spare_pct: float = 100.0
    # admission metrics (defaulted for positional constructions; the
    # policy-vs-placement ablation reads these off sweep results)
    flash_admits: int = 0
    flash_rejects: int = 0
    flash_admit_ratio: float = 1.0

    @property
    def throughput_kops(self) -> float:
        """Simulated throughput in thousands of ops per second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.ops / self.sim_seconds / 1000.0

    @property
    def kgets_per_sec(self) -> float:
        """Alias used by Table 2 (KGET/s); ops-level throughput."""
        return self.throughput_kops

    def summary_row(self) -> str:
        """One printable row, paper-style."""
        return (
            f"{self.name:<28} fdp={str(self.fdp):<5} "
            f"DLWA={self.dlwa:5.2f} (steady {self.steady_dlwa:5.2f}) "
            f"hit={self.hit_ratio * 100:5.1f}% nvm_hit={self.nvm_hit_ratio * 100:5.1f}% "
            f"ALWA={self.alwa:4.2f} kops={self.throughput_kops:7.1f} "
            f"p99r={self.p99_read_us:7.0f}us p99w={self.p99_write_us:7.0f}us "
            f"GCreloc={self.gc_relocation_events}"
        )

    def faults_row(self) -> str:
        """One printable row of fault/degradation counters."""
        return (
            f"{self.name:<28} media_err={self.media_errors:<6} "
            f"read_err={self.read_errors:<5} write_err={self.write_errors:<5} "
            f"drops={self.write_drops:<5} retries={self.io_retries:<5} "
            f"retired_sb={self.retired_superblocks:<3} "
            f"spare={self.available_spare_pct:5.1f}%"
        )


@dataclasses.dataclass(frozen=True)
class CrashSoakResult:
    """Outcome of one :func:`~repro.bench.runner.run_crash_soak` run.

    The soak loops write → power-cut → recover → verify cycles and
    reconciles the device's recovered L2P map against a host-side
    shadow reference after every cut.  ``verified_cycles`` equals
    ``cycles`` on success (the soak raises on the first divergence, so
    a returned result *is* the pass certificate).
    """

    cycles: int
    verified_cycles: int
    power_cuts: int
    scripted_cuts: int
    inflight_cuts: int
    quiescent_cuts: int
    commands_issued: int
    pages_written: int
    pages_verified: int
    pages_trimmed: int
    torn_writes: int
    torn_pages_discarded: int
    mappings_recovered_total: int
    journal_entries_replayed_total: int
    final_mapped_pages: int
    final_dlwa: float

    def summary_row(self) -> str:
        """One printable row, chaos-bench style."""
        return (
            f"crash-soak cycles={self.cycles} cuts={self.power_cuts} "
            f"(scripted={self.scripted_cuts} inflight={self.inflight_cuts} "
            f"quiescent={self.quiescent_cuts}) "
            f"pages={self.pages_written} torn={self.torn_pages_discarded} "
            f"recovered={self.mappings_recovered_total} "
            f"DLWA={self.final_dlwa:5.2f}"
        )


@dataclasses.dataclass(frozen=True)
class IntegritySoakResult:
    """Outcome of one :func:`~repro.bench.runner.run_integrity_soak` run.

    The soak drives a device with the latent-error model enabled and
    reconciles every logical page against a host-side shadow map at the
    end.  Pages fall into three buckets: *intact* (device content
    matches the shadow), *lost-detected* (the device knows the page is
    gone — CRC verification poisoned it, or it reads back unmapped),
    and *undetected* (the device serves content that differs from what
    the host wrote — the silent-corruption failure mode the end-to-end
    CRC + patrol scrub are there to eliminate).
    """

    ops: int
    pages_written: int
    pages_read: int
    scrub_enabled: bool
    # corruption accounting (shadow-map reconciliation)
    corruptions_injected: int
    detected_corruptions: int
    undetected_corruptions: int
    pages_intact: int
    pages_lost_detected: int
    # read-retry ladder counters
    reads_corrected: int
    soft_decode_retries: int
    read_uecc_errors: int
    # patrol scrub counters
    scrub_passes: int
    scrub_pages_scanned: int
    scrub_pages_relocated: int
    scrub_blocks_retired: int
    # DLWA accounting (scrub relocations must show up here)
    host_pages_written: int
    gc_pages_migrated: int
    nand_pages_written: int
    dlwa: float

    def summary_row(self) -> str:
        """One printable row, chaos-bench style."""
        return (
            f"integrity-soak scrub={'on ' if self.scrub_enabled else 'off'} "
            f"ops={self.ops} injected={self.corruptions_injected} "
            f"detected={self.detected_corruptions} "
            f"undetected={self.undetected_corruptions} "
            f"corrected={self.reads_corrected} "
            f"relocated={self.scrub_pages_relocated} "
            f"retired={self.scrub_blocks_retired} "
            f"DLWA={self.dlwa:5.2f}"
        )


@dataclasses.dataclass(frozen=True)
class LatencyArm:
    """One arm of the latency soak (FDP on or off).

    All latency figures are integer nanoseconds taken from the
    multi-queue scheduler's log-bucketed histograms (bucket upper
    bounds — deterministic, so golden fixtures compare exactly).
    ``per_queue`` maps queue name → op → ``{count, p50, p99, p999}``;
    the top-level read/write figures merge every queue.
    """

    name: str
    fdp: bool
    ops: int
    read_count: int
    read_p50_ns: int
    read_p99_ns: int
    read_p999_ns: int
    write_count: int
    write_p50_ns: int
    write_p99_ns: int
    write_p999_ns: int
    per_queue: Dict[str, Dict[str, Dict[str, int]]]
    gc_blocked_commands: int
    host_wait_ns: int
    background_ns: Dict[str, int]
    dlwa: float

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def summary_row(self) -> str:
        return (
            f"{self.name:<24} fdp={str(self.fdp):<5} "
            f"p50r={self.read_p50_ns / 1000:8.1f}us "
            f"p99r={self.read_p99_ns / 1000:8.1f}us "
            f"p999r={self.read_p999_ns / 1000:8.1f}us "
            f"p99w={self.write_p99_ns / 1000:8.1f}us "
            f"gc_blocked={self.gc_blocked_commands:<6} "
            f"DLWA={self.dlwa:5.2f}"
        )


@dataclasses.dataclass(frozen=True)
class LatencySoakResult:
    """FDP-on vs FDP-off tail latency under queue contention.

    The paper's Figure 13 direction: with placement segregation, SOC
    reads stop colliding with GC spans on the flash channels, so the
    FDP arm's p99 read latency drops below the Non-FDP arm's at high
    utilization (both arms replay the same seed).
    """

    workload: str
    utilization: float
    seed: int
    fdp_off: LatencyArm
    fdp_on: LatencyArm

    @property
    def p99_read_gain(self) -> float:
        """Non-FDP p99 read latency over FDP (>1 means FDP wins)."""
        if self.fdp_on.read_p99_ns == 0:
            return float("inf") if self.fdp_off.read_p99_ns else 1.0
        return self.fdp_off.read_p99_ns / self.fdp_on.read_p99_ns

    @property
    def acceptance(self) -> bool:
        """FDP-on p99 read strictly below FDP-off at ≥70% utilization."""
        return (
            self.utilization >= 0.70
            and self.fdp_on.read_p99_ns < self.fdp_off.read_p99_ns
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "utilization": self.utilization,
            "seed": self.seed,
            "fdp_off": self.fdp_off.to_dict(),
            "fdp_on": self.fdp_on.to_dict(),
        }

    def summary_table(self) -> str:
        lines = [
            f"latency-soak workload={self.workload} "
            f"util={self.utilization:.0%} seed={self.seed:#x}",
            self.fdp_off.summary_row(),
            self.fdp_on.summary_row(),
            f"p99 read gain (off/on): {self.p99_read_gain:5.2f}x  "
            f"acceptance(p99_on < p99_off @ util>=70%): "
            f"{'PASS' if self.acceptance else 'FAIL'}",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class AblationCell:
    """One policy × placement × engine cell of the ablation matrix."""

    policy: str
    engine: str
    fdp: bool
    dlwa: float
    steady_dlwa: float
    miss_ratio: float
    p99_read_us: float
    alwa: float
    admit_ratio: float
    nand_pages_written: int
    host_pages_written: int

    def summary_row(self) -> str:
        placement = "FDP" if self.fdp else "Non-FDP"
        return (
            f"{self.policy:<10} {self.engine:<10} {placement:<8} "
            f"{self.dlwa:>6.3f} {self.steady_dlwa:>7.3f} "
            f"{self.miss_ratio * 100:>6.1f} {self.p99_read_us:>9.0f} "
            f"{self.admit_ratio * 100:>7.1f}"
        )


@dataclasses.dataclass(frozen=True)
class AblationResult:
    """Verdict of the policy-vs-placement ablation.

    The matrix replays {policy} × {FDP on/off} × {engine} cells on one
    shared ``point_seed`` trace, so within a row the only degree of
    freedom is the axis under test.  Acceptance stresses the paper's
    claim from both sides on the ``gate_engine`` (Kangaroo — the
    paper's architecture) cells:

    * **survival_recovers** — survival admission without FDP recovers
      at least ``recovery_threshold`` of the DLWA gap AcceptAll/non-FDP
      leaves above the ideal 1.0 (admission alone is *not* nothing);
    * **composes** — survival + FDP lands at or below the better of
      the two single levers plus ``compose_tolerance`` (the levers
      don't fight);
    * **nemo_soak_ok** — the Nemo engine completed the integrity
      (chaos-fault replay + warm restart) and scheduler soak arms with
      invariants intact (the engine seam holds for a third engine).

    The miss-ratio column reports what admission *costs*: survival buys
    its DLWA recovery with extra misses, which is exactly the trade the
    paper's placement approach avoids.
    """

    ops: int
    seed: int
    gate_engine: str
    recovery_threshold: float
    compose_tolerance: float
    cells: List[AblationCell]
    nemo_soak: Dict[str, object]
    failures: List[str]

    def cell(
        self, policy: str, engine: str, fdp: bool
    ) -> Optional[AblationCell]:
        for c in self.cells:
            if c.policy == policy and c.engine == engine and c.fdp == fdp:
                return c
        return None

    @property
    def recovered_fraction(self) -> float:
        """Share of the non-FDP DLWA gap survival admission closes."""
        base = self.cell("acceptall", self.gate_engine, False)
        surv = self.cell("survival", self.gate_engine, False)
        if base is None or surv is None:
            return 0.0
        gap = base.dlwa - 1.0
        if gap <= 0:
            return 0.0
        return (base.dlwa - surv.dlwa) / gap

    @property
    def survival_recovers(self) -> bool:
        return self.recovered_fraction >= self.recovery_threshold

    @property
    def composes(self) -> bool:
        surv = self.cell("survival", self.gate_engine, False)
        fdp = self.cell("acceptall", self.gate_engine, True)
        both = self.cell("survival", self.gate_engine, True)
        if surv is None or fdp is None or both is None:
            return False
        return both.dlwa <= min(surv.dlwa, fdp.dlwa) + self.compose_tolerance

    @property
    def nemo_soak_ok(self) -> bool:
        return bool(self.nemo_soak.get("ok"))

    @property
    def acceptance(self) -> bool:
        return (
            not self.failures
            and self.survival_recovers
            and self.composes
            and self.nemo_soak_ok
        )

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["recovered_fraction"] = self.recovered_fraction
        out["acceptance"] = self.acceptance
        return out

    def summary_table(self) -> str:
        header = (
            f"{'policy':<10} {'engine':<10} {'place':<8} {'DLWA':>6} "
            f"{'steady':>7} {'miss%':>6} {'p99r(us)':>9} {'admit%':>7}"
        )
        lines = [
            f"ablation ops={self.ops} seed={self.seed:#x} "
            f"gate_engine={self.gate_engine}",
            header,
            *(c.summary_row() for c in self.cells),
            *(f"FAILED: {f}" for f in self.failures),
            f"survival recovers >= {self.recovery_threshold:.0%} of the "
            f"non-FDP DLWA gap: "
            f"{'PASS' if self.survival_recovers else 'FAIL'} "
            f"(recovered {self.recovered_fraction:.0%})",
            f"survival+FDP composes (<= best single lever "
            f"+{self.compose_tolerance:g}): "
            f"{'PASS' if self.composes else 'FAIL'}",
            f"nemo integrity+scheduler soaks: "
            f"{'PASS' if self.nemo_soak_ok else 'FAIL'} "
            f"({self.nemo_soak})",
            f"acceptance: {'PASS' if self.acceptance else 'FAIL'}",
        ]
        return "\n".join(lines)


def steady_state_dlwa(series: Sequence[IntervalPoint]) -> Optional[float]:
    """Mean interval DLWA over the last half of the run (post warm-up)."""
    if not series:
        return None
    tail = series[len(series) // 2 :]
    return float(np.mean([p.interval_dlwa for p in tail]))

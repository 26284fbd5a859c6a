"""The benchmark's named workloads and how one arm is set up.

Every workload goes through the public ``build_experiment`` ->
``make_trace`` -> ``CacheBench.run`` path, one single-threaded process
per run.  Names are fixed: later changes refer to them.  Each one's
reason is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional, Tuple

from repro.bench import LATENCY_SCALE
from repro.bench.driver import CacheBench, ReplayConfig
from repro.bench.runner import Scale, build_experiment, make_trace, point_seed
from repro.cache.hybrid import HybridCache
from repro.workloads.trace import Trace

__all__ = ["Workload", "WORKLOADS", "setup_arm", "trace_seed"]


def trace_seed(index: int) -> int:
    """The trace seed for ``--seed index`` (the sweep-seed contract)."""
    return point_seed("benchmark", index)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One replay arm: device and cache shape, trace, and arrival clock."""

    name: str
    trace: str
    fdp: bool
    utilization: float
    scale: Scale
    num_ops: int
    soc_engine: Optional[str] = None
    sched: bool = False
    arrival_interval_ns: Optional[int] = None

    def build(self, seed: int) -> HybridCache:
        overrides = {"soc_engine": self.soc_engine} if self.soc_engine else None
        return build_experiment(
            fdp=self.fdp,
            utilization=self.utilization,
            scale=self.scale,
            cache_overrides=overrides,
            sched=True if self.sched else None,
            admission_seed=seed,
        )

    def make_trace(self, cache: HybridCache, seed: int) -> Trace:
        return make_trace(
            self.trace,
            cache.config.nvm_bytes,
            self.scale,
            num_ops=self.num_ops,
            seed=seed,
        )

    def bench(self) -> CacheBench:
        return CacheBench(ReplayConfig(arrival_interval_ns=self.arrival_interval_ns))

    def config_dict(self) -> Dict[str, object]:
        """The arm's settings, for the printed report."""
        return {
            "trace": self.trace,
            "fdp": self.fdp,
            "utilization": self.utilization,
            "num_superblocks": self.scale.num_superblocks,
            "num_ops": self.num_ops,
            "soc_engine": self.soc_engine or "set-associative",
            "sched": self.sched,
            "loop": (
                f"open {self.arrival_interval_ns} ns/op"
                if self.arrival_interval_ns
                else "closed"
            ),
        }


# Run lengths.  twitter-gc's interval DLWA is still climbing at 200k ops
# (1.0 -> 5.3 per 50k window) and levels off near 7 from about 350k; at
# 400k the simulated p99 varies about 9% (quartile spread) across seeds,
# against 16% at 300k.  nemo-sched's GC starts near 150k ops and its
# DLWA still climbs at 400k (1.65, spread 3% across seeds); at 800k it
# is 1.86 with a spread of 1.7%.  kvcache-fdp never runs GC, and 300k
# ops keeps its spreads under 4%.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="kvcache-fdp",
            trace="kvcache",
            fdp=True,
            utilization=0.9,
            scale=Scale(),
            num_ops=300_000,
        ),
        Workload(
            name="twitter-gc",
            trace="twitter",
            fdp=False,
            utilization=1.0,
            scale=Scale(num_superblocks=128),
            num_ops=400_000,
        ),
        Workload(
            name="nemo-sched",
            trace="kvcache",
            fdp=False,
            utilization=0.9,
            scale=LATENCY_SCALE,
            num_ops=800_000,
            soc_engine="nemo",
            sched=True,
            arrival_interval_ns=200_000,
        ),
    )
}


def setup_arm(workload: Workload, seed: int) -> Tuple[HybridCache, Trace, float, float]:
    """Build the cache and its trace; returns both plus the two set-up times in seconds."""
    t0 = time.perf_counter()
    cache = workload.build(seed)
    t1 = time.perf_counter()
    trace = workload.make_trace(cache, seed)
    t2 = time.perf_counter()
    return cache, trace, t1 - t0, t2 - t1

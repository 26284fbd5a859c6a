"""CacheBench-style experiment harness: trace replayer, metrics, and
the scaled experiment builders every figure/table bench uses."""

import importlib

from .driver import CacheBench, ReplayConfig
from .latency import LATENCY_SCALE, run_latency_soak
from .metrics import (
    AblationCell,
    AblationResult,
    CrashSoakResult,
    IntegritySoakResult,
    IntervalPoint,
    LatencyArm,
    LatencyReservoir,
    LatencySoakResult,
    RunResult,
)
from .parallel import (
    PointFailure,
    SweepError,
    SweepPoint,
    point_seed,
    run_sweep,
    smoke_points,
)
from .plotting import ascii_chart, dlwa_timeline_chart
from .runner import (
    CHAOS_SCALE,
    CRASH_SCALE,
    DEFAULT_SCALE,
    INTEGRITY_SCALE,
    Scale,
    build_experiment,
    default_chaos_config,
    default_integrity_latent,
    make_trace,
    run_chaos_soak,
    run_crash_soak,
    run_experiment,
    run_integrity_soak,
)

# The soak, ablation and overload-matrix exports resolve lazily (PEP
# 562): repro.bench.soak imports repro.fleet, whose shard builder
# re-enters repro.bench.runner, so an eager import here would both
# risk a cycle and trigger the runpy double-execution warning under
# `python -m repro.bench.soak`.
_LAZY_EXPORTS = {
    "FLEET_SCALE": "soak",
    "SMOKE_SCALE": "soak",
    "SoakResult": "soak",
    "SoakWindow": "soak",
    "default_fleet_specs": "soak",
    "make_crowd_trace": "soak",
    "run_fleet_soak": "soak",
    "run_overload_soak": "soak",
    "run_failslow_soak": "soak",
    "ABLATION_SCALE": "ablation",
    "run_ablation": "ablation",
    "run_nemo_soak": "ablation",
    "scenario_matrix": "overload",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        module = importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CacheBench",
    "ReplayConfig",
    "IntervalPoint",
    "LatencyReservoir",
    "RunResult",
    "CrashSoakResult",
    "IntegritySoakResult",
    "LatencyArm",
    "LatencySoakResult",
    "LATENCY_SCALE",
    "run_latency_soak",
    "ascii_chart",
    "dlwa_timeline_chart",
    "Scale",
    "DEFAULT_SCALE",
    "CHAOS_SCALE",
    "CRASH_SCALE",
    "INTEGRITY_SCALE",
    "build_experiment",
    "make_trace",
    "run_experiment",
    "default_chaos_config",
    "run_chaos_soak",
    "run_crash_soak",
    "default_integrity_latent",
    "run_integrity_soak",
    "SweepPoint",
    "PointFailure",
    "SweepError",
    "point_seed",
    "run_sweep",
    "smoke_points",
    "AblationCell",
    "AblationResult",
    *_LAZY_EXPORTS,
]

"""repro — reproduction of "Towards Efficient Flash Caches with
Emerging NVMe Flexible Data Placement SSDs" (EuroSys '25).

Public API tour:

* :mod:`repro.ssd` — simulated FDP-capable NVMe SSD (FTL, GC, latency,
  energy).
* :mod:`repro.fdp` — NVMe TP4146 abstractions (RUHs, PIDs, events,
  statistics log).
* :mod:`repro.core` — the paper's contribution: placement handles, the
  allocator, the FDP-aware device layer, placement policies.
* :mod:`repro.cache` — CacheLib-style hybrid cache (DRAM LRU + SOC +
  LOC).
* :mod:`repro.workloads` — synthetic Meta KV Cache / Twitter cluster12
  traces.
* :mod:`repro.bench` — CacheBench-style replayer and the scaled
  experiment builders.
* :mod:`repro.faults` — deterministic media-fault injection (UECC,
  program/erase failures, block retirement, SMART-like health log).
* :mod:`repro.model` — Theorem 1 (DLWA) and Theorems 2-3 (carbon).
* :mod:`repro.fleet` — sharded cache cluster: consistent-hash routing,
  shard lifecycle, failure/rebalance, fleet-merged observability.

Quick start::

    from repro.bench import run_experiment

    result = run_experiment("kvcache", fdp=True, utilization=1.0)
    print(result.summary_row())
"""

from . import bench, cache, core, faults, fdp, fleet, model, ssd, workloads

__version__ = "1.0.0"

__all__ = [
    "bench",
    "cache",
    "core",
    "faults",
    "fdp",
    "fleet",
    "model",
    "ssd",
    "workloads",
    "__version__",
]

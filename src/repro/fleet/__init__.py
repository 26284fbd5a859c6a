"""Fleet-scale sharded caching: N single-device stacks as one cluster.

The paper's deployment target is a CacheLib *fleet*, not one SSD.
This package turns the repo's hardened single-device stack into a
fault-tolerant cluster:

* :mod:`repro.fleet.hashring` — consistent-hash placement (virtual
  nodes, deterministic under seed, bounded key movement);
* :mod:`repro.fleet.shard` — one cache+device pair behind a uniform
  shard API with an FDP / non-FDP / ZNS backend mix and the
  HEALTHY → DEGRADED → RETIRING → DEAD lifecycle;
* :mod:`repro.fleet.router` — :class:`FleetCache`: routing, bounded
  retry, per-shard circuit breakers, degraded (miss-not-error)
  service, retirement drains, shadow-map placement audits;
* :mod:`repro.fleet.monitor` — SMART-health-driven lifecycle control
  plus op-indexed scripted failure plans;
* :mod:`repro.fleet.driver` — trace replay across the fleet (serial
  closed-loop and partitioned parallel);
* :mod:`repro.fleet.errors` — the fleet error taxonomy
  (:class:`ShardUnavailableError` wraps device exceptions with the
  originating shard id).

The soak harness and CLI live in :mod:`repro.bench.soak`.
"""

from .driver import (
    FleetDriver,
    FleetIntervalPoint,
    FleetRunResult,
    ShardReplaySummary,
    partition_trace,
    replay_partitioned,
)
from .errors import (
    SHARD_UNAVAILABLE_CAUSES,
    FleetError,
    ShardUnavailableError,
    SlowShardError,
)
from .governor import GovernorConfig, GovernorState, LoadGovernor, OverloadSignals
from .hashring import ConsistentHashRouter
from .monitor import (
    FleetHealthMonitor,
    MonitorConfig,
    ScriptedShardEvent,
    ShardFailurePlan,
)
from .router import CircuitBreaker, FleetCache, FleetConfig, FleetGetResult, FleetOpResult
from .shard import BACKENDS, CacheShard, ShardSpec, ShardState

__all__ = [
    "BACKENDS",
    "CacheShard",
    "CircuitBreaker",
    "ConsistentHashRouter",
    "FleetCache",
    "FleetConfig",
    "FleetDriver",
    "FleetError",
    "FleetGetResult",
    "FleetHealthMonitor",
    "FleetIntervalPoint",
    "FleetOpResult",
    "FleetRunResult",
    "GovernorConfig",
    "GovernorState",
    "LoadGovernor",
    "MonitorConfig",
    "OverloadSignals",
    "SHARD_UNAVAILABLE_CAUSES",
    "ScriptedShardEvent",
    "ShardFailurePlan",
    "ShardReplaySummary",
    "ShardSpec",
    "ShardState",
    "ShardUnavailableError",
    "SlowShardError",
    "partition_trace",
    "replay_partitioned",
]

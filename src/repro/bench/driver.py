"""CacheBench-style trace replayer.

Drives a :class:`~repro.cache.hybrid.HybridCache` with a
:class:`~repro.workloads.trace.Trace`, closed-loop by default, while
collecting the paper's metrics:

* a simulated clock advances with each op's completion plus a host
  think time, so throughput and tail latency reflect device
  interference (GC bursts push the device busy horizon forward and
  subsequent flash reads queue behind it);
* a bounded device backlog models the finite buffering in front of the
  SSD — without it, asynchronous LOC flushes could run the device
  arbitrarily far ahead of the host clock;
* DLWA is polled on an op interval by differencing device counters,
  the same way the paper polls ``nvme get-log`` every 10 minutes;
* GETs that miss are optionally *filled* (read-through), which is how
  trace replay produces cache insertions for read-dominant workloads.

:class:`ArrivalClock` decides when each op is issued, closed or open
loop; the fleet driver (:mod:`repro.fleet.driver`) replays on the same
clock.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

import numpy as np

from ..cache.hybrid import HIT_DRAM, MISS, HybridCache
from ..workloads.trace import OP_GET, OP_SET, Trace, as_arrival_schedule
from .metrics import IntervalPoint, LatencyReservoir, RunResult, steady_state_dlwa

__all__ = ["ArrivalClock", "CacheBench", "ReplayConfig"]


@dataclasses.dataclass(frozen=True)
class ReplayConfig:
    """Replay knobs.

    ``think_ns`` is host-side per-op cost; ``max_backlog_ns`` bounds
    how far the device timeline may run ahead of the host clock
    (bounded queueing); ``poll_interval_ops`` is the DLWA sampling
    cadence.

    ``arrival_interval_ns`` switches the replay from closed-loop to
    **open-loop**: ops are issued on a fixed clock (one op per
    interval) regardless of completion times, the way a fixed-rate
    load generator drives a device under test.  Closed-loop replay
    couples the host clock to the device — an arm doing more GC gets
    throttled, which spaces its arrivals out and *masks* its
    contention — so tail-latency comparisons (the latency soak) must
    replay both arms open-loop at the same rate; throughput-oriented
    benches keep the closed loop.

    ``arrival_schedule_ns`` generalizes that to a **per-op arrival
    schedule**: an int64 array of absolute arrival times (one per op,
    nondecreasing) as produced by the adversarial timing transforms
    (diurnal waves, flash-crowd spikes).  Precedence: an explicit
    ``arrival_schedule_ns`` wins, then a schedule carried on the trace
    itself (``Trace.arrivals_ns``), then ``arrival_interval_ns``, then
    the closed loop (see :class:`ArrivalClock`).
    """

    fill_on_miss: bool = True
    think_ns: int = 100_000
    max_backlog_ns: int = 30_000_000
    poll_interval_ops: int = 50_000
    arrival_interval_ns: Optional[int] = None
    arrival_schedule_ns: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.think_ns < 0:
            raise ValueError("think_ns must be non-negative")
        if self.max_backlog_ns < 0:
            raise ValueError("max_backlog_ns must be non-negative")
        if self.poll_interval_ops <= 0:
            raise ValueError("poll_interval_ops must be positive")
        if self.arrival_interval_ns is not None and self.arrival_interval_ns <= 0:
            raise ValueError("arrival_interval_ns must be positive or None")
        if self.arrival_schedule_ns is not None:
            if self.arrival_interval_ns is not None:
                raise ValueError(
                    "arrival_schedule_ns and arrival_interval_ns are "
                    "mutually exclusive"
                )
            schedule = as_arrival_schedule(
                self.arrival_schedule_ns, "arrival_schedule_ns"
            )
            object.__setattr__(self, "arrival_schedule_ns", schedule)


class ArrivalClock:
    """When each op of one replay is issued: the one copy of that policy.

    Open loop, op ``i`` arrives at :meth:`issue_ns` — from the config's
    explicit ``arrival_schedule_ns``, else the trace's own
    ``arrivals_ns``, else every ``arrival_interval_ns``.  Closed loop
    (none of the three), the next op issues :meth:`after` the previous
    one completes.  ``first_op`` places this trace on a longer op
    timeline, so a fixed interval runs on across segmented replays.
    """

    __slots__ = (
        "schedule",
        "interval_ns",
        "open_loop",
        "first_op",
        "think_ns",
        "max_backlog_ns",
    )

    def __init__(
        self, config: ReplayConfig, trace: Trace, *, first_op: int = 0
    ) -> None:
        schedule = config.arrival_schedule_ns
        if schedule is None:
            schedule = trace.arrivals_ns
        if schedule is not None and len(schedule) < len(trace):
            raise ValueError(
                f"arrival schedule has {len(schedule)} entries for a "
                f"{len(trace)}-op trace"
            )
        self.schedule = schedule
        self.interval_ns = (
            config.arrival_interval_ns if schedule is None else None
        )
        self.open_loop = schedule is not None or self.interval_ns is not None
        self.first_op = first_op
        self.think_ns = config.think_ns
        self.max_backlog_ns = config.max_backlog_ns

    def issue_ns(self, i: int) -> int:
        """Open loop: when op ``i`` of the trace arrives.

        The op arrives then however far behind the device is — the
        regime where overload actually queues.
        """
        if self.schedule is not None:
            return int(self.schedule[i])
        return (self.first_op + i) * self.interval_ns

    def after(self, done: int, busy_until: Optional[int]) -> int:
        """Closed loop: when the next op issues, given this one's ``done``.

        The host thinks for ``think_ns``, then stalls while the device
        timeline (``busy_until``, ``None`` when the backend has none)
        runs more than ``max_backlog_ns`` ahead: the finite queue in
        front of the SSD.
        """
        now = done + self.think_ns
        if busy_until is not None and busy_until - now > self.max_backlog_ns:
            now = busy_until - self.max_backlog_ns
        return now


class CacheBench:
    """Replays traces against a hybrid cache and reports RunResults."""

    def __init__(self, config: Optional[ReplayConfig] = None) -> None:
        self.config = config or ReplayConfig()

    def run(
        self,
        cache: HybridCache,
        trace: Trace,
        *,
        name: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> RunResult:
        """Replay ``trace`` and return the collected metrics."""
        cfg = self.config
        device = cache.device
        page = device.page_size

        read_lat = LatencyReservoir()
        write_lat = LatencyReservoir()
        series: List[IntervalPoint] = []
        prev_snapshot = device.snapshot()

        now = 0
        ops_done = 0
        ftl_latency = device.ftl.latency

        ops_arr = trace.ops
        keys_arr = trace.keys
        sizes_arr = trace.sizes
        total = len(trace)
        fill = cfg.fill_on_miss
        poll_every = cfg.poll_interval_ops
        clock = ArrivalClock(cfg, trace)
        open_loop = clock.open_loop
        issue_ns = clock.issue_ns
        after = clock.after

        for i in range(total):
            if open_loop:
                now = issue_ns(i)
            op = ops_arr[i]
            key = int(keys_arr[i])
            if op == OP_GET:
                result = cache.get(key, now)
                done = result.completion_ns
                if result.where not in (HIT_DRAM,):
                    # Reached flash (hit or full miss): a read latency.
                    read_lat.add(max(0, done - now))
                if result.where == MISS and fill:
                    done = cache.set(key, int(sizes_arr[i]), done)
            elif op == OP_SET:
                done = cache.set(key, int(sizes_arr[i]), now)
                write_lat.add(max(0, done - now))
            else:  # OP_DEL
                done = cache.delete(key, now)

            if not open_loop:
                now = after(done, ftl_latency.busy_until)

            ops_done += 1
            if ops_done % poll_every == 0:
                snap = device.snapshot()
                series.append(
                    IntervalPoint(
                        ops=ops_done,
                        host_gib_written=(
                            snap.host_pages_written * page / 1024**3
                        ),
                        interval_dlwa=snap.interval_dlwa(prev_snapshot),
                        cumulative_dlwa=snap.dlwa,
                    )
                )
                prev_snapshot = snap
                if progress is not None:
                    progress(ops_done, total)

        if clock.interval_ns is not None:
            # A fixed-rate clock has run on to the next, unissued slot.
            now = issue_ns(ops_done)
        stats = device.stats
        steady = steady_state_dlwa(series)
        health = device.get_health_log()
        return RunResult(
            name=name or trace.name,
            fdp=cache.device.fdp_enabled and cache.io.allocator.placement_enabled,
            ops=ops_done,
            sim_seconds=now / 1e9,
            hit_ratio=cache.hit_ratio,
            dram_hit_ratio=cache.dram.hit_ratio,
            nvm_hit_ratio=cache.nvm_hit_ratio,
            alwa=cache.alwa,
            dlwa=stats.dlwa,
            steady_dlwa=steady if steady is not None else stats.dlwa,
            interval_series=series,
            gc_relocation_events=device.events.media_relocated_events,
            gc_relocated_pages=device.events.media_relocated_pages,
            gc_victims=stats.gc_victim_selections,
            host_pages_written=stats.host_pages_written,
            nand_pages_written=stats.nand_pages_written,
            energy_kwh=device.energy_kwh(now),
            p50_read_us=read_lat.p50_us(),
            p99_read_us=read_lat.p99_us(),
            p50_write_us=write_lat.p50_us(),
            p99_write_us=write_lat.p99_us(),
            media_errors=health.media_errors,
            read_errors=cache.read_errors,
            write_errors=cache.write_errors,
            write_drops=cache.write_drops,
            io_retries=cache.io.read_retries + cache.io.write_retries,
            retired_superblocks=health.retired_superblocks,
            available_spare_pct=health.available_spare_pct,
            flash_admits=cache.flash_admits,
            flash_rejects=cache.flash_rejects,
            flash_admit_ratio=cache.config.admission.admit_ratio,
        )

"""Differential harness: the multi-queue scheduler overlay vs the sync path.

The scheduler (``sched=True``) is a pure timing overlay, so a device
driven through ``submit_async``/``poll`` must be *bit-identical* — not
statistically similar — to one driven through the synchronous calls.
Both devices replay the same commands and then every observable
surface is compared: L2P/P2L arrays, OOB records (lba, seq, stream,
payload, ok, crc per physical page), the mapping journal's volatile
buffer and flushed entries, the stats snapshot and FDP statistics log
page, the FDP event stream, the busy-clock state, energy, and the
health log.  Arms cover synthetic and Zipf streams, media errors, and
power cuts mid-command and between commands.

The command generators and :func:`assert_identical` here are shared by
the other differential suites (admission, arrival clock, fleet,
fail-slow, overload).
"""

from __future__ import annotations

import random

import pytest

from repro.faults.model import FaultConfig
from repro.faults.plan import OP_POWER, ScriptedFault
from repro.fdp import PlacementIdentifier
from repro.ssd import Geometry, SimulatedSSD
from repro.ssd.errors import MediaError, PowerLossError

GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=32,
    op_fraction=0.10,
)
N_LBAS = GEOMETRY.logical_pages
MAX_EXTENT = 24  # spans > 1 superblock (16 pages), so writes cross RUs


def synthetic_commands(seed, num_ops, *, use_pids=False, max_extent=MAX_EXTENT):
    """A seeded mixed stream of multi-page writes, reads, and TRIMs."""
    rng = random.Random(seed)
    commands = []
    # Cap the written span at ~80% of the logical space: several open
    # FDP write points fragment the free pool, and a near-full device
    # would legitimately throw DeviceFullError on both arms.
    span = int(N_LBAS * 0.8)
    for i in range(num_ops):
        npages = rng.randrange(1, max_extent + 1)
        lba = rng.randrange(0, span - npages)
        pid = (
            PlacementIdentifier(0, rng.randrange(0, 4))
            if use_pids and rng.random() < 0.8
            else None
        )
        roll = rng.random()
        if roll < 0.70:
            commands.append(("write", lba, npages, pid, ("tok", seed, i)))
        elif roll < 0.85:
            commands.append(("read", lba, npages, None, None))
        else:
            commands.append(("trim", lba, npages, None, None))
    return commands


def zipf_commands(seed, num_ops, *, alpha=1.2):
    """Zipf-skewed single/multi-page writes — the cache-like pattern."""
    rng = random.Random(seed)
    # Precompute a Zipf-ish key popularity table over LBA starts.
    starts = N_LBAS // 8
    weights = [1.0 / (rank + 1) ** alpha for rank in range(starts)]
    commands = []
    for i in range(num_ops):
        start = rng.choices(range(starts), weights)[0] * 8
        npages = rng.randrange(1, 9)
        if rng.random() < 0.8:
            commands.append(("write", start, npages, None, ("z", seed, i)))
        else:
            commands.append(("read", start, npages, None, None))
    return commands


def replay(device, commands, *, recover_on_cut=True):
    """Apply commands, logging every outcome (including exceptions)."""
    now = 0
    log = []
    for op, lba, npages, pid, payload in commands:
        try:
            if op == "write":
                now = device.write(lba, npages, pid, now, payload)
                log.append(("w", now))
            elif op == "read":
                mapped, done = device.read(lba, npages, now)
                now = done
                log.append(("r", mapped, done))
            else:
                log.append(("t", device.deallocate(lba, npages)))
        except PowerLossError as exc:
            log.append(("cut", exc.pages_durable))
            if not recover_on_cut:
                break
            report = device.recover()
            log.append(("recovered", report.mappings_recovered,
                        report.journal_entries_replayed))
        except MediaError as exc:
            log.append(("err", type(exc).__name__))
    return log


def oob_image(device):
    return [
        None if rec is None
        else (rec.lba, rec.seq, rec.stream, rec.payload, rec.ok, rec.crc)
        for rec in device.ftl._oob
    ]


def assert_identical(a, b):
    """Every observable surface of the two devices must match exactly."""
    assert a.ftl._l2p == b.ftl._l2p
    assert a.ftl._p2l == b.ftl._p2l
    assert a.snapshot() == b.snapshot()
    assert a.get_log_page() == b.get_log_page()
    assert a.events.recent() == b.events.recent()
    assert a.ftl._journal.buffer == b.ftl._journal.buffer
    assert a.ftl._journal.flushed == b.ftl._journal.flushed
    assert oob_image(a) == oob_image(b)
    assert a.ftl.latency.busy_until == b.ftl.latency.busy_until
    assert a.ftl.latency.busy_ns_total == b.ftl.latency.busy_ns_total
    assert a.energy_kwh() == b.energy_kwh()
    assert a.get_health_log() == b.get_health_log()
    assert [
        (sb.state, sb.write_ptr, sb.valid_pages, sb.erase_count)
        for sb in a.ftl.superblocks
    ] == [
        (sb.state, sb.write_ptr, sb.valid_pages, sb.erase_count)
        for sb in b.ftl.superblocks
    ]
    a.check_invariants()
    b.check_invariants()


# --------------------------------------------------------------------
# scheduler-on vs scheduler-off differential arm
# --------------------------------------------------------------------
#
# The multi-queue scheduler is documented as a pure *timing overlay*
# (DESIGN.md §12): state mutations execute synchronously at submit, so
# a device driven through submit_async/poll must be bit-identical to a
# device driven through the sync calls for every non-timing surface —
# L2P/P2L, OOB, journal, stats/DLWA, events, energy, health, and even
# the busy-clock totals (both arms see the same now_ns schedule; the
# scheduler keeps its own channel horizons on the side).  Only
# IoCompletion latency/complete times have no sync counterpart.

ARRIVAL_NS = 100_000  # fixed arrival schedule shared by both arms


def replay_sync_clocked(device, commands, *, recover_on_cut=True):
    """Sync replay on a fixed arrival clock (comparable across arms)."""
    log = []
    for i, (op, lba, npages, pid, payload) in enumerate(commands):
        now = i * ARRIVAL_NS
        try:
            if op == "write":
                log.append(("w", device.write(lba, npages, pid, now, payload)))
            elif op == "read":
                mapped, done = device.read(lba, npages, now)
                log.append(("r", mapped, done))
            else:
                log.append(("t", device.deallocate(lba, npages)))
        except PowerLossError as exc:
            log.append(("cut", exc.pages_durable))
            if not recover_on_cut:
                break
            report = device.recover()
            log.append(("recovered", report.mappings_recovered,
                        report.journal_entries_replayed))
        except MediaError as exc:
            log.append(("err", type(exc).__name__))
    return log


def replay_async(device, commands, *, poll_every=7, recover_on_cut=True):
    """Drive the same stream through submit_async/poll on one queue.

    Polling is deliberately batched (every ``poll_every`` submissions,
    well under the queue depth) so completions are genuinely deferred;
    the state-bearing log is reassembled in ticket (= submission)
    order, which is the order the sync arm observed.
    """
    entries = {}
    tickets = []
    pending = 0

    def drain():
        nonlocal pending
        for comp in device.poll("diff"):
            pending -= 1
            if not comp.ok:
                entries[comp.ticket] = ("err", type(comp.error).__name__)
            elif comp.op == "write":
                entries[comp.ticket] = ("w", comp.result)
            elif comp.op == "read":
                entries[comp.ticket] = ("r", comp.result[0], comp.result[1])
            else:
                entries[comp.ticket] = ("t", comp.result)

    extra = []
    for i, (op, lba, npages, pid, payload) in enumerate(commands):
        now = i * ARRIVAL_NS
        try:
            tickets.append(
                device.submit_async(
                    op, lba, npages, pid, now, queue="diff", payload=payload
                )
            )
            pending += 1
        except PowerLossError as exc:
            extra.append((len(tickets), ("cut", exc.pages_durable)))
            if not recover_on_cut:
                break
            report = device.recover()
            extra.append((len(tickets), ("recovered",
                                         report.mappings_recovered,
                                         report.journal_entries_replayed)))
        if pending >= poll_every:
            drain()
    drain()
    assert pending == 0
    log = [entries[t] for t in tickets]
    # Splice power-cut markers back at their submission positions.
    for position, entry in reversed(extra):
        log.insert(position, entry)
    return log


def assert_identical_nontiming(sync_dev, async_dev):
    """assert_identical, including the busy clock: the overlay never
    touches it (both arms replayed the same now_ns schedule)."""
    assert_identical(sync_dev, async_dev)


@pytest.mark.parametrize("fdp", [False, True])
def test_scheduler_overlay_bit_identical_synthetic(fdp):
    commands = synthetic_commands(13, 3000, use_pids=fdp)
    plain = SimulatedSSD(GEOMETRY, fdp=fdp)
    sched = SimulatedSSD(GEOMETRY, fdp=fdp, sched=True)
    log_sync = replay_sync_clocked(plain, commands)
    log_async = replay_async(sched, commands)
    assert log_sync == log_async
    assert_identical_nontiming(plain, sched)
    # The overlay actually measured something.
    assert sched.scheduler.host_commands == len(commands)
    assert sched.scheduler.merged_histogram("read").count > 0


def test_scheduler_overlay_bit_identical_zipf():
    commands = zipf_commands(44, 3000)
    plain = SimulatedSSD(GEOMETRY)
    sched = SimulatedSSD(GEOMETRY, sched=True)
    assert replay_sync_clocked(plain, commands) == replay_async(
        sched, commands
    )
    assert_identical_nontiming(plain, sched)


def test_scheduler_overlay_identical_under_fault_plan():
    """Media errors surface as failed completions on the async arm but
    as exceptions on the sync arm — same commands, same error types,
    same state."""
    def faults():
        return FaultConfig(
            seed=0xBEEF,
            read_uecc_rate=2e-3,
            program_fail_rate=2e-3,
            plan=(ScriptedFault(op="erase", superblock=3, cycle=1),),
        )

    commands = synthetic_commands(17, 4000)
    plain = SimulatedSSD(GEOMETRY, faults=faults())
    sched = SimulatedSSD(GEOMETRY, faults=faults(), sched=True)
    log_sync = replay_sync_clocked(plain, commands)
    log_async = replay_async(sched, commands)
    assert log_sync == log_async
    assert any(entry[0] == "err" for entry in log_sync)
    assert_identical_nontiming(plain, sched)


@pytest.mark.parametrize("cut_index", [97, 1500])
def test_scheduler_overlay_identical_across_power_cut(cut_index):
    """An OP_POWER cut tears the same write on both arms; recovery
    rebuilds the same state and the replay continues identically (the
    async arm's in-flight window re-dispatches after recover)."""
    def faults():
        return FaultConfig(plan=(ScriptedFault(op=OP_POWER,
                                               op_index=cut_index),))

    commands = synthetic_commands(5, 2500)
    plain = SimulatedSSD(GEOMETRY, faults=faults())
    sched = SimulatedSSD(GEOMETRY, faults=faults(), sched=True)
    log_sync = replay_sync_clocked(plain, commands)
    log_async = replay_async(sched, commands)
    assert log_sync == log_async
    assert any(entry[0] == "cut" for entry in log_sync)
    assert_identical_nontiming(plain, sched)


def test_scheduler_overlay_identical_quiescent_power_cut():
    """External power_cut() between commands, then warm restart; the
    async arm polls everything down before the cut (quiescent CQ)."""
    first = synthetic_commands(21, 1500)
    second = synthetic_commands(22, 1500)
    plain = SimulatedSSD(GEOMETRY, fdp=True)
    sched = SimulatedSSD(GEOMETRY, fdp=True, sched=True)
    assert replay_sync_clocked(plain, first) == replay_async(sched, first)
    assert plain.power_cut().torn_writes == sched.power_cut().torn_writes
    plain.recover()
    sched.recover()
    assert_identical_nontiming(plain, sched)
    assert replay_sync_clocked(plain, second) == replay_async(sched, second)
    assert_identical_nontiming(plain, sched)

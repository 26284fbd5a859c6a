"""Flash Translation Layer with FDP-aware write points and greedy GC.

This is the heart of the simulated device.  It maintains the logical to
physical mapping at page granularity, services host reads/writes/
deallocations, and runs garbage collection over superblock-sized
reclaim units, with the placement semantics of NVMe FDP:

* Without FDP, every host write funnels through a single open
  superblock, so the SOC's hot random pages and the LOC's cold
  sequential pages intermix on the same erase unit — the paper's
  Insight 1, and the root cause of high DLWA.
* With FDP, each placement identifier (<reclaim group, RUH>) gets its
  own write point, so data written through different handles lands in
  disjoint reclaim units.
* GC destinations follow the RUH type: *initially isolated* handles
  share one GC write point per reclaim group (surviving data may
  intermix after GC, as TP4146 allows), while *persistently isolated*
  handles keep a private GC write point forever.

Validity is derived from mapping consistency: physical page ``ppn``
holds live data iff ``l2p[p2l[ppn]] == ppn``.  Each superblock caches a
valid-page count so greedy victim selection never touches page state.
"""

from __future__ import annotations

import collections
import random
from array import array
from bisect import bisect_left, insort
from typing import Deque, Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..fdp.config import FdpConfiguration
from ..fdp.events import FdpEvent, FdpEventLog, FdpEventType
from ..fdp.ruh import PlacementIdentifier, RuhType
from ..faults.latent import (
    OUTCOME_CLEAN,
    OUTCOME_CORRECTABLE,
    OUTCOME_SOFT_RETRY,
    LatentErrorModel,
)
from .energy import EnergyModel
from .errors import (
    DeviceFullError,
    DeviceOfflineError,
    InvalidPlacementError,
    OutOfRangeError,
    PowerLossError,
    ProgramFailError,
    UncorrectableReadError,
)
from .geometry import Geometry
from .latency import LatencyModel
from .oob import OobStore
from .recovery import (
    CHECKPOINT_INTERVAL_PAGES,
    CHECKPOINTS_KEPT,
    JOURNAL_FLUSH_INTERVAL,
    L2pCheckpoint,
    MappingJournal,
    OobRecord,
    PowerCutReport,
    RecoveryReport,
    TornWrite,
    payload_crc,
    rebuild_ftl_state,
)
from .scrub import PatrolScrubber, ScrubConfig
from .stats import DeviceStats
from .superblock import Superblock, SuperblockState
from .wear import (
    WearStats,
    collect_wear_stats,
    retention_acceleration,
    select_wear_victim,
)

if TYPE_CHECKING:  # avoid an import cycle at runtime; duck-typed use only
    from ..faults.model import FaultModel

__all__ = ["Ftl", "HOST_STREAM", "GC_STREAM", "MAX_PROGRAM_ATTEMPTS"]

HOST_STREAM = "host"
GC_STREAM = "gc"

# A stream key is (kind, reclaim_group, ruh_id-or-None); it names one
# write point.  Conventional devices use a single host stream.
StreamKey = Tuple[str, int, Optional[int]]

_CONVENTIONAL_HOST: StreamKey = (HOST_STREAM, 0, None)

# At most one static wear-leveling pass per this many GC victim
# selections (see Ftl._collect_one).
WEAR_LEVEL_PERIOD = 16

# A program that fails retries on the next page of the write point; a
# run of this many consecutive failures means the die is dying and the
# write completes with Write Fault (ProgramFailError) instead.
MAX_PROGRAM_ATTEMPTS = 8

# Recently completed host write commands tracked for power_cut(): a cut
# at time T tears every command whose completion lies beyond T.  The
# simulator is closed-loop (one command in flight per caller), so a
# small window bounds the candidates.
INFLIGHT_WINDOW = 8


class _InflightWrite:
    """One recent host write command, for power-cut tearing."""

    __slots__ = ("lba", "npages", "ppns", "ack_ns")

    def __init__(
        self, lba: int, npages: int, ppns: List[int], ack_ns: int
    ) -> None:
        self.lba = lba
        self.npages = npages
        self.ppns = ppns  # mapped ppn per page, in program order
        self.ack_ns = ack_ns

    def __getstate__(self):
        return (self.lba, self.npages, self.ppns, self.ack_ns)

    def __setstate__(self, state) -> None:
        self.lba, self.npages, self.ppns, self.ack_ns = state


class Ftl:
    """Page-mapped FTL over :class:`~repro.ssd.geometry.Geometry`.

    Parameters
    ----------
    geometry:
        NAND layout; one superblock is one reclaim unit.
    fdp_config:
        When given, FDP placement is enabled and writes may carry a
        placement identifier.  When ``None`` the device behaves like a
        conventional SSD (single implicit write point).
    gc_reserve_superblocks:
        Low-water mark for the free pool; GC runs while the pool is
        below it.  Must leave room for every concurrently open write
        point.
    faults:
        Optional :class:`~repro.faults.model.FaultModel` consulted on
        every read, program, and erase.  ``None`` (the default) keeps
        the device perfectly reliable and the I/O path bit-identical to
        a fault-free build.
    io_path:
        ``"batched"`` (default) programs multi-page writes in whole
        per-superblock extents, amortizing placement lookup, OOB
        stamping, journal appends, and accounting across each chunk;
        ``"scalar"`` keeps the page-at-a-time reference loop.  The two
        paths are bit-identical — same L2P, stats, events, latency,
        energy, and recovery trail — which the differential harness in
        ``tests/test_differential_batch.py`` enforces (DESIGN.md §10).

        **Fault interaction (decided at construction, never silently
        mid-run):** with a :class:`FaultModel` attached, or a latent-
        error model that can corrupt programs (``corrupts_writes``),
        multi-page writes always take the scalar loop so per-page
        fault and corruption interleave points (the Nth host program)
        keep their exact meaning.  Requesting ``io_path="batched"``
        in those configurations is *not* an error — the chaos benches
        do it deliberately — but the resolved path is exposed as
        :attr:`effective_io_path` and pinned by a regression test, so
        a ctor knob can never quietly disable injection.  A quiescent
        latent model (zero corruption rate, empty plan) keeps the
        fast path: read-side disturb tracking and CRC stamping do not
        need per-page write hooks.
    latent:
        Optional latent-error model (or its config): read-disturb
        accumulation, wear-accelerated retention aging, and silent
        corruption, feeding the ECC outcome ladder on reads.  Implies
        end-to-end CRC stamping of every programmed page.
    scrub:
        Optional background patrol scrubber (or its config): walks
        CLOSED superblocks on the device's busy clock, verifies page
        CRCs, relocates pages past the refresh threshold, and retires
        repeatedly failing blocks.  Also implies CRC stamping.
    """

    def __init__(
        self,
        geometry: Geometry,
        fdp_config: Optional[FdpConfiguration] = None,
        *,
        latency: Optional[LatencyModel] = None,
        energy: Optional[EnergyModel] = None,
        events: Optional[FdpEventLog] = None,
        stats: Optional[DeviceStats] = None,
        gc_reserve_superblocks: Optional[int] = None,
        gc_victim_sample: Optional[int] = None,
        wear_level_threshold: Optional[int] = None,
        victim_seed: int = 0x55D,
        faults: "Optional[FaultModel]" = None,
        checkpoint_interval_pages: int = CHECKPOINT_INTERVAL_PAGES,
        journal_flush_interval: int = JOURNAL_FLUSH_INTERVAL,
        power_seed: int = 0x9C7A,
        io_path: str = "batched",
        latent: "Optional[object]" = None,
        scrub: "Optional[object]" = None,
        sched: "Optional[object]" = None,
    ) -> None:
        self.geometry = geometry
        self.fdp_config = fdp_config
        self.faults = faults
        # Multi-queue scheduler (repro.ssd.sched): a pure timing
        # overlay.  When attached, GC/scrub work is additionally
        # reported as channel-occupancy spans; no state path branches
        # on it, which is what keeps scheduler-on runs bit-identical
        # to scheduler-off for L2P/P2L/OOB/journal/stats.
        self.sched = sched
        if io_path not in ("batched", "scalar"):
            raise ValueError(
                f"io_path must be 'batched' or 'scalar', got {io_path!r}"
            )
        self.io_path = io_path
        # Latent-error model: accept a config or a live model.
        if latent is not None and not isinstance(latent, LatentErrorModel):
            latent = LatentErrorModel(latent)
        self.latent: Optional[LatentErrorModel] = latent
        # Patrol scrubber: accept a config or a live scrubber.
        if scrub is not None and not isinstance(scrub, PatrolScrubber):
            scrub = PatrolScrubber(scrub)
        self.scrubber: Optional[PatrolScrubber] = scrub
        # End-to-end protection info (OOB CRC32) is stamped whenever
        # something downstream will verify it; otherwise pages carry
        # crc=None and the fault-free path stays bit-identical to a
        # build without the integrity subsystem.
        self._protect = latent is not None or scrub is not None
        # Resolved once here — the write path must never silently flip
        # between the batched extent programmer (no per-page hooks)
        # and the scalar loop (per-page fault / corruption draws).
        self._fast_path = (
            io_path == "batched"
            and faults is None
            and (latent is None or not latent.corrupts_writes)
        )
        self.latency = latency if latency is not None else LatencyModel()
        self.energy = energy if energy is not None else EnergyModel()
        self.events = events if events is not None else FdpEventLog()
        self.stats = stats if stats is not None else DeviceStats()

        if gc_reserve_superblocks is None:
            gc_reserve_superblocks = self._default_reserve()
        if gc_reserve_superblocks < 2:
            raise ValueError("gc_reserve_superblocks must be >= 2")
        self.gc_reserve = gc_reserve_superblocks
        if gc_victim_sample is not None and gc_victim_sample < 1:
            raise ValueError("gc_victim_sample must be positive or None")
        self.gc_victim_sample = gc_victim_sample
        if wear_level_threshold is not None and wear_level_threshold <= 0:
            raise ValueError("wear_level_threshold must be positive or None")
        self.wear_level_threshold = wear_level_threshold
        self._victim_rng = random.Random(victim_seed)

        pps = geometry.pages_per_superblock
        if geometry.num_superblocks <= self.gc_reserve + 1:
            raise ValueError("geometry too small for the GC reserve")

        self._pps = pps
        self._l2p = array("i", [-1] * geometry.logical_pages)
        self._p2l = array("i", [-1] * geometry.total_pages)
        self.superblocks: List[Superblock] = [
            Superblock(i) for i in range(geometry.num_superblocks)
        ]
        self._free: List[int] = list(range(geometry.num_superblocks))
        self._free.reverse()  # pop() hands out low indices first
        # CLOSED superblock indices in ascending order, maintained
        # incrementally so victim selection never rescans the whole
        # device (the scan order matches iterating ``superblocks``, so
        # selection and its RNG draws are unchanged).
        self._closed: List[int] = []
        # CLOSED superblocks whose last valid page has been invalidated
        # (ascending index order).  A CLOSED block's valid count only
        # ever decreases, so membership is monotone until the erase —
        # and the global-greedy victim scan's answer, "first occurrence
        # of the minimum over ``_closed``", is exactly the lowest entry
        # here whenever the list is non-empty.  Maintained at every
        # invalidation site; ``check_invariants`` rescans it.
        self._zero_closed: List[int] = []
        # Reusable superblock-sized source slice for the erase path's
        # P2L wipe (slice assignment copies the values out); the OOB
        # wipe goes through OobStore.clear_range.
        self._erased_p2l = array("i", [-1] * pps)
        self._write_points: Dict[StreamKey, Superblock] = {}
        # Host pages written per stream key, for per-handle accounting.
        self.stream_host_pages: Dict[StreamKey, int] = {}
        if self.latent is not None:
            self.latent.bind(geometry.total_pages, pps)

        # --- crash-consistency state (see repro.ssd.recovery) --------
        if checkpoint_interval_pages < 1:
            raise ValueError("checkpoint_interval_pages must be >= 1")
        self.checkpoint_interval_pages = checkpoint_interval_pages
        self.power_seed = power_seed
        # Per-physical-page OOB records: the persistent ground truth
        # recovery scans.  Columnar (struct-of-arrays) so the extent
        # fast paths deposit whole runs with slice stores; indexing
        # still yields None for an unprogrammed page (see ssd.oob).
        self._oob = OobStore(geometry.total_pages)
        # Global program sequence number (monotonic over device life).
        self._seq = 0
        self._journal = MappingJournal(journal_flush_interval)
        self._checkpoints: List[L2pCheckpoint] = []
        self._pages_since_checkpoint = 0
        self._inflight: Deque[_InflightWrite] = collections.deque(
            maxlen=INFLIGHT_WINDOW
        )
        self._offline = False

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------

    def _default_reserve(self) -> int:
        """Low-water mark for the free pool.

        Write points pin their open superblock *outside* the free pool,
        so the reserve only has to cover allocations that can happen
        while a single GC pass is in flight: one destination superblock
        for migrations plus the host block that triggered the pass.  A
        small constant keeps the reserve well below device OP — a large
        reserve would eat the very spare capacity that cushions SOC
        garbage collection (Insight 3) and inflate DLWA.
        """
        return max(3, self.geometry.num_superblocks // 128)

    @property
    def fdp_enabled(self) -> bool:
        return self.fdp_config is not None

    @property
    def effective_io_path(self) -> str:
        """The write path multi-page commands actually take.

        ``io_path`` records what the caller asked for; this property
        reports what the device resolved it to at construction —
        ``"scalar"`` whenever a fault model or a write-corrupting
        latent-error model needs per-page hooks.  Pinned by the
        regression tests so integrity faults can never be disabled by
        a ctor knob.
        """
        return "batched" if self._fast_path else "scalar"

    def _host_stream(self, pid: Optional[PlacementIdentifier]) -> StreamKey:
        """Resolve the write-point key for a host write."""
        if self.fdp_config is None:
            # Conventional device: placement directives are ignored, as
            # TP4146's backward compatibility requires.
            return _CONVENTIONAL_HOST
        if pid is None:
            # FDP without a directive places via the default RUH (0).
            return (HOST_STREAM, 0, 0)
        try:
            self.fdp_config.validate_pid(pid)
        except ValueError as exc:
            self.events.record(
                FdpEvent(
                    FdpEventType.INVALID_PLACEMENT_ID,
                    timestamp_ns=self.latency.busy_until,
                )
            )
            raise InvalidPlacementError(
                f"write tagged with PID <rg={pid.reclaim_group}, "
                f"ruh={pid.ruh_id}> but the device advertises "
                f"{self.fdp_config.num_reclaim_groups} reclaim group(s) x "
                f"{self.fdp_config.num_ruhs} RUH(s): {exc}"
            ) from exc
        return (HOST_STREAM, pid.reclaim_group, pid.ruh_id)

    def _gc_stream(self, victim: Superblock) -> StreamKey:
        """GC destination write point for a victim's surviving data.

        Initially isolated RUHs share a per-reclaim-group GC stream, so
        valid data from different handles may intermix after GC;
        persistently isolated RUHs get a private GC stream.
        """
        if self.fdp_config is None:
            return (GC_STREAM, 0, None)
        origin = victim.stream
        rg = origin[1] if isinstance(origin, tuple) else 0
        ruh_id = origin[2] if isinstance(origin, tuple) else None
        if ruh_id is None:
            return (GC_STREAM, rg, None)
        if self.fdp_config.ruh(ruh_id).ruh_type is RuhType.PERSISTENTLY_ISOLATED:
            return (GC_STREAM, rg, ruh_id)
        return (GC_STREAM, rg, None)

    # ------------------------------------------------------------------
    # superblock pool management
    # ------------------------------------------------------------------

    @property
    def free_superblocks(self) -> int:
        return len(self._free)

    def _pop_free(self, stream: StreamKey) -> Superblock:
        if not self._free:
            raise DeviceFullError(
                f"free superblock pool exhausted allocating for stream "
                f"{stream} (free=0, gc_reserve={self.gc_reserve}, "
                f"open_write_points={len(self._write_points)}, "
                f"retired={self.stats.superblocks_retired}/"
                f"{self.geometry.num_superblocks} superblocks, "
                f"occupancy={self.occupancy():.2f}); increase "
                "overprovisioning or the GC reserve"
            )
        if self.wear_level_threshold is None:
            idx = self._free.pop()
        else:
            # Wear-aware allocation: park GC survivors (cold data) on
            # the most-worn free block so it retires from the hot
            # rotation, and give host streams the least-worn block.
            # This swap is what actually closes a wear gap — recycling
            # young blocks alone only moves the minimum up by one per
            # pass.
            key = (lambda i: self.superblocks[i].erase_count)
            pos = (
                max(range(len(self._free)), key=lambda p: key(self._free[p]))
                if stream[0] == GC_STREAM
                else min(
                    range(len(self._free)), key=lambda p: key(self._free[p])
                )
            )
            idx = self._free.pop(pos)
        sb = self.superblocks[idx]
        sb.open_for(stream)
        return sb

    def _close_write_point(self, stream: StreamKey, now_ns: int) -> None:
        sb = self._write_points.pop(stream, None)
        if sb is None:
            return
        sb.close()
        insort(self._closed, sb.index)
        if not sb.valid_pages:
            insort(self._zero_closed, sb.index)
        rg, ruh = stream[1], stream[2]
        self.events.record(
            FdpEvent(
                FdpEventType.RU_SWITCHED,
                timestamp_ns=now_ns,
                ruh_id=ruh,
                reclaim_group=rg,
                superblock=sb.index,
            )
        )

    def _program_into(
        self,
        stream: StreamKey,
        lba: int,
        now_ns: int,
        payload: object = None,
        crc: Optional[int] = None,
    ) -> int:
        """Program one page for ``lba`` through ``stream``'s write point.

        Returns the physical page number.  Allocates (and garbage
        collects for) a fresh superblock when the current one fills.

        Every program — host or GC — deposits an OOB record (LBA,
        global sequence number, stream, payload) in the page's spare
        area and appends a journal entry; this is the persistent trail
        power-on recovery rebuilds the mapping from.  With end-to-end
        protection enabled the record also carries CRC32 protection
        info: freshly computed for host data (``crc=None``), or passed
        through unchanged for GC / scrub relocations so corruption
        that predates the move stays detectable at the new location.

        With fault injection enabled, a failed program consumes its
        page — real controllers mark it bad and move on — and retries
        on the next page of the write point, rolling over into a fresh
        superblock if the failure lands on the last page.  A run of
        ``MAX_PROGRAM_ATTEMPTS`` consecutive failures completes the
        command with Write Fault (:class:`ProgramFailError`).
        """
        for _ in range(MAX_PROGRAM_ATTEMPTS):
            sb = self._write_points.get(stream)
            if sb is None:
                if stream[0] == HOST_STREAM:
                    self._collect_until_reserve(now_ns)
                sb = self._pop_free(stream)
                self._write_points[stream] = sb
            ppn = sb.index * self._pps + sb.write_ptr
            if self.faults is not None and self.faults.fail_program(ppn):
                sb.write_ptr += 1  # the bad page is consumed, not mapped
                self._seq += 1
                self._oob[ppn] = OobRecord(-1, self._seq, stream, None, False)
                self.stats.program_failures += 1
                self.events.record(
                    FdpEvent(
                        FdpEventType.MEDIA_ERROR,
                        timestamp_ns=now_ns,
                        pages=1,
                        superblock=sb.index,
                    )
                )
                if sb.write_ptr == self._pps:
                    self._close_write_point(stream, now_ns)
                continue
            sb.write_ptr += 1
            sb.valid_pages += 1
            self._p2l[ppn] = lba
            self._l2p[lba] = ppn
            self._seq += 1
            if crc is None and self._protect:
                crc = payload_crc(payload)
            self._oob[ppn] = OobRecord(lba, self._seq, stream, payload, True, crc)
            self._journal.append(self._seq, lba, ppn)
            if sb.write_ptr == self._pps:
                self._close_write_point(stream, now_ns)
            return ppn
        raise ProgramFailError(
            f"program of LBA {lba} failed on {MAX_PROGRAM_ATTEMPTS} "
            f"consecutive pages of stream {stream}",
            lba=lba,
            attempts=MAX_PROGRAM_ATTEMPTS,
        )

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def _select_victim(self) -> Optional[Superblock]:
        """Greedy-min-valid victim over a bounded candidate window.

        Real controllers do not compute a global argmin over every
        superblock per GC event; they pick the emptiest block among a
        hardware-sized candidate window (per die/channel scan).  The
        window is modelled as ``gc_victim_sample`` closed superblocks
        taken from a rotating cursor with a randomized start, which is
        what produces the residual DLWA (~1.2-1.4) the paper measures
        on the Non-FDP baseline even at 50 % utilization.  Set
        ``gc_victim_sample=None`` for an idealized global greedy.
        """
        closed = self._closed
        if not closed:
            return None
        superblocks = self.superblocks
        if (
            self.gc_victim_sample is not None
            and len(closed) > self.gc_victim_sample
        ):
            start = self._victim_rng.randrange(len(closed))
            stop = start + self.gc_victim_sample
            if stop <= len(closed):
                window = closed[start:stop]
            else:
                window = closed[start:] + closed[: stop - len(closed)]
        else:
            # Global greedy: when any fully-invalid CLOSED block exists
            # the scan's answer is the lowest-indexed one, which the
            # ``_zero_closed`` cache holds at position 0 — no scan.
            if self._zero_closed:
                return superblocks[self._zero_closed[0]]
            window = closed
        # First occurrence of the minimum — the same victim a strict-<
        # scan with a zero-valid early break selects, but with the scan
        # itself (min + index) running at C speed over a flat list.
        valid = [superblocks[idx].valid_pages for idx in window]
        return superblocks[window[valid.index(min(valid))]]

    def _collect_one(self, now_ns: int) -> bool:
        """Run one GC pass: pick a victim, migrate, erase.

        Returns ``False`` when no victim exists (nothing closed yet).
        """
        victim = None
        if (
            self.wear_level_threshold is not None
            and self.stats.gc_victim_selections % WEAR_LEVEL_PERIOD == 0
        ):
            # Static wear leveling: recycle the least-worn closed block
            # when the erase-count spread grows past the threshold.
            # Rate-limited to one pass per WEAR_LEVEL_PERIOD normal GCs:
            # the least-worn block holds cold, mostly-valid data, so an
            # unthrottled leveler would turn every GC into a full-block
            # migration and destroy DLWA.
            victim = select_wear_victim(
                self.superblocks, self.wear_level_threshold
            )
        if victim is None:
            victim = self._select_victim()
        if victim is None:
            return False
        self.stats.gc_victim_selections += 1

        migrated = 0
        if victim.valid_pages:
            dest_stream = self._gc_stream(victim)
            base = victim.index * self._pps
            for off in range(self._pps):
                ppn = base + off
                lba = self._p2l[ppn]
                if lba < 0 or self._l2p[lba] != ppn:
                    continue
                # Move the live page: this is the DLWA the paper fights.
                # Program first — if the free pool is exhausted mid-GC
                # the exception must leave the victim's bookkeeping
                # intact for a later retry.  The OOB payload travels
                # with the data; the copy gets a fresh (higher)
                # sequence number, so recovery orders it after the
                # original.
                old_rec = self._oob[ppn]
                self._program_into(
                    dest_stream,
                    lba,
                    now_ns,
                    old_rec.payload if old_rec is not None else None,
                    old_rec.crc if old_rec is not None else None,
                )
                victim.valid_pages -= 1
                migrated += 1
            self.latency.gc_migrate(now_ns, migrated)
            if self.sched is not None:
                self.sched.note_background(
                    "gc_migrate", victim.index, migrated, now_ns
                )
            self.energy.add_reads(migrated)
            self.energy.add_programs(migrated)
            self.stats.gc_pages_read += migrated
            self.stats.gc_pages_migrated += migrated
            self.stats.nand_pages_written += migrated
            self.events.record(
                FdpEvent(
                    FdpEventType.MEDIA_RELOCATED,
                    timestamp_ns=now_ns,
                    pages=migrated,
                    superblock=victim.index,
                )
            )

        if victim.valid_pages != 0:
            raise RuntimeError(
                f"GC left {victim.valid_pages} valid pages in superblock "
                f"{victim.index}"
            )
        # Erase fence: a pending host program may have invalidated one
        # of the victim's pages, and once the erase destroys that page
        # the tear-time rollback of the newer copy can no longer fall
        # back to it.  The controller therefore completes outstanding
        # programs before erasing (erase latency dwarfs the in-flight
        # window), making everything issued so far durable.
        self._inflight.clear()
        base = victim.index * self._pps
        # The erase (or retirement) destroys the pages' OOB trail;
        # clearing it here keeps recovery from resurrecting stale
        # mappings out of recycled blocks.  (Slice stores: this runs
        # for every reclaimed superblock, so it is hot at high DLWA.)
        self._p2l[base : base + self._pps] = self._erased_p2l
        self._oob.clear_range(base, self._pps)
        # Erasing (or retiring) the block also clears its accumulated
        # read-disturb history — fresh cells start clean.
        if self.latent is not None:
            self.latent.on_erase(base, self._pps)
        # The victim leaves CLOSED on either branch below.
        del self._closed[bisect_left(self._closed, victim.index)]
        zpos = bisect_left(self._zero_closed, victim.index)
        if (
            zpos < len(self._zero_closed)
            and self._zero_closed[zpos] == victim.index
        ):
            del self._zero_closed[zpos]
        if self.faults is not None and self.faults.fail_erase(
            victim.index, victim.erase_count + 1
        ):
            # Erase failure: the block is retired in place.  It never
            # returns to the free pool, so effective overprovisioning
            # shrinks — the mechanism by which wear-driven retirement
            # feeds back into write amplification.  The host learns of
            # it only through the event log and health telemetry.
            victim.retire()
            self.stats.erase_failures += 1
            self.stats.superblocks_retired += 1
            self.latency.erase(now_ns)  # the failed attempt still busies the die
            if self.sched is not None:
                self.sched.note_background("erase", victim.index, 0, now_ns)
            self.energy.add_erases(self.geometry.blocks_per_superblock)
            self.events.record(
                FdpEvent(
                    FdpEventType.MEDIA_ERROR,
                    timestamp_ns=now_ns,
                    superblock=victim.index,
                )
            )
            return True
        victim.erase()
        self._free.append(victim.index)
        self.latency.erase(now_ns)
        if self.sched is not None:
            self.sched.note_background("erase", victim.index, 0, now_ns)
        self.energy.add_erases(self.geometry.blocks_per_superblock)
        self.stats.superblocks_erased += 1
        return True

    def _collect_until_reserve(self, now_ns: int) -> None:
        """Keep the free pool at or above the GC reserve."""
        # Bounded loop: each pass erases exactly one superblock, so
        # 2 * num_superblocks passes without reaching the reserve means
        # the device genuinely cannot reclaim space.
        for _ in range(2 * self.geometry.num_superblocks):
            if len(self._free) >= self.gc_reserve:
                return
            if not self._collect_one(now_ns):
                return  # nothing closed yet; pool drains legitimately
        if len(self._free) == 0:
            raise DeviceFullError(
                "GC cannot keep up: every superblock is almost fully valid "
                f"(free=0, gc_reserve={self.gc_reserve}, "
                f"retired={self.stats.superblocks_retired}/"
                f"{self.geometry.num_superblocks} superblocks, "
                f"occupancy={self.occupancy():.2f})"
            )

    # ------------------------------------------------------------------
    # host-facing operations
    # ------------------------------------------------------------------

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.geometry.logical_pages:
            raise OutOfRangeError(
                f"LBA {lba} outside [0, {self.geometry.logical_pages})"
            )

    def _inject_host_spike(self, done_ns: int) -> int:
        """Roll one per-command latency spike (fault injection)."""
        if self.faults is None:
            return done_ns
        spike = self.faults.latency_spike()
        if spike:
            self.stats.latency_spikes += 1
            done_ns = self.latency.stall(done_ns, spike)
        return done_ns

    def _inject_read_faults(self, lba: int, npages: int, now_ns: int) -> None:
        """Roll per-page UECC faults over a read command's mapped pages.

        Raises :class:`UncorrectableReadError` on the first failing
        page.  Latency and read counters have already been charged by
        the caller — a failed read costs the same media time as a
        successful one.
        """
        if self.faults is None:
            return
        for cur in range(lba, lba + npages):
            ppn = self._l2p[cur]
            if ppn < 0 or not self.faults.fail_read(cur):
                continue
            self.stats.read_uecc_errors += 1
            self.events.record(
                FdpEvent(
                    FdpEventType.MEDIA_ERROR,
                    timestamp_ns=now_ns,
                    pages=1,
                    superblock=ppn // self._pps,
                )
            )
            raise UncorrectableReadError(
                f"uncorrectable read error at LBA {cur} "
                f"(ppn {ppn}, superblock {ppn // self._pps})",
                lba=cur,
                ppn=ppn,
            )

    def _poison_page(self, lba: int, ppn: int, now_ns: int) -> None:
        """Quarantine a page whose protection info failed verification.

        Detected corruption: the controller marks the page's OOB
        integrity bit bad and drops the mapping, exactly as NVMe PI
        turns a guard-tag mismatch into an unrecovered read.  No
        journal entry is needed — recovery's OOB validation step drops
        ``ok=False`` pages on its own — and subsequent reads see the
        LBA unmapped, which the cache layer degrades like any media
        error.
        """
        rec = self._oob[ppn]
        if rec is not None:
            rec.ok = False
        if self._l2p[lba] == ppn:
            self._l2p[lba] = -1
            self._p2l[ppn] = -1
            sb = self.superblocks[ppn // self._pps]
            sb.valid_pages -= 1
            if not sb.valid_pages and sb.state is SuperblockState.CLOSED:
                insort(self._zero_closed, sb.index)
        self.stats.crc_detected_corruptions += 1
        self.events.record(
            FdpEvent(
                FdpEventType.MEDIA_ERROR,
                timestamp_ns=now_ns,
                pages=1,
                superblock=ppn // self._pps,
            )
        )

    def _latent_read_checks(
        self, lba: int, npages: int, now_ns: int, done_ns: int
    ) -> int:
        """End-to-end verification + ECC outcome ladder for host reads.

        Runs after PR 1's hard-fault injection so fault-free devices
        stay bit-identical.  Per mapped page:

        1. Verify the OOB CRC against the stored payload.  A mismatch
           is *detected* silent corruption: the page is poisoned (see
           :meth:`_poison_page`) and the read completes with UECC —
           the device-layer retry then observes the LBA unmapped.
        2. Record read disturb on the page's wordline neighbours.
        3. Classify the page's raw bit-error level (disturb + wear-
           accelerated retention) on the ladder: clean; correctable
           (SMART counter + latency penalty); soft-decode retry
           (bounded re-reads charged); uncorrectable (UECC raised to
           the retry path).

        Returns the command's completion time, pushed out by any
        correction penalties.
        """
        if not self._protect:
            return done_ns
        lat = self.latent
        l2p = self._l2p
        oob = self._oob
        pps = self._pps
        for cur in range(lba, lba + npages):
            ppn = l2p[cur]
            if ppn < 0:
                continue
            rec = oob[ppn]
            if (
                rec is not None
                and rec.crc is not None
                and payload_crc(rec.payload) != rec.crc
            ):
                self._poison_page(cur, ppn, now_ns)
                raise UncorrectableReadError(
                    f"end-to-end CRC mismatch at LBA {cur} (ppn {ppn}, "
                    f"superblock {ppn // pps}): silent corruption detected",
                    lba=cur,
                    ppn=ppn,
                )
            if lat is None:
                continue
            lat.note_read(ppn)
            level = 0.0
            if rec is not None:
                sb = self.superblocks[ppn // pps]
                level = lat.error_level(
                    ppn,
                    self._seq - rec.seq,
                    retention_acceleration(
                        sb.erase_count, lat.config.wear_factor
                    ),
                )
            outcome = lat.classify(level)
            if outcome == OUTCOME_CLEAN:
                continue
            if outcome == OUTCOME_CORRECTABLE:
                self.stats.reads_corrected += 1
                done_ns = self.latency.stall(
                    done_ns, lat.config.correctable_penalty_ns
                )
                continue
            if outcome == OUTCOME_SOFT_RETRY:
                retries = lat.soft_retries_for(level)
                self.stats.reads_corrected += 1
                self.stats.soft_decode_retries += retries
                self.energy.add_reads(retries)
                done_ns = self.latency.stall(
                    done_ns, retries * self.latency.timings.read_ns
                )
                continue
            # OUTCOME_UECC: the raw bit-error level exceeds what even
            # soft decode can recover.  Same surface as PR 1's UECC.
            self.stats.read_uecc_errors += 1
            self.events.record(
                FdpEvent(
                    FdpEventType.MEDIA_ERROR,
                    timestamp_ns=now_ns,
                    pages=1,
                    superblock=ppn // pps,
                )
            )
            raise UncorrectableReadError(
                f"uncorrectable read error at LBA {cur} (ppn {ppn}, "
                f"superblock {ppn // pps}): raw bit-error level "
                f"{level:.2f} exceeds soft-decode capability",
                lba=cur,
                ppn=ppn,
            )
        return done_ns

    def _check_online(self) -> None:
        if self._offline:
            raise DeviceOfflineError(
                "device lost power; call recover() before issuing I/O"
            )

    def _tear_current_page(self, stream: StreamKey) -> None:
        """Consume the page that was mid-program when power died.

        The NAND cell array saw a partial program pulse: the page is
        spent (it cannot be programmed again without an erase) and its
        OOB integrity check will fail at recovery.
        """
        sb = self._write_points.get(stream)
        if sb is None or sb.write_ptr >= self._pps:
            return
        ppn = sb.index * self._pps + sb.write_ptr
        sb.write_ptr += 1
        self._seq += 1
        self._oob[ppn] = OobRecord(-1, self._seq, stream, None, False)
        self.stats.torn_pages_discarded += 1

    def _host_write_page(
        self,
        lba: int,
        stream: StreamKey,
        now_ns: int,
        payload: object = None,
        ppns: Optional[List[int]] = None,
    ) -> None:
        """Mapping + accounting for one host page (no latency charge)."""
        if self.faults is not None and self.faults.power_loss_on_program():
            self._tear_current_page(stream)
            raise PowerLossError(
                f"power lost during host page program (LBA {lba}, "
                f"stream {stream})",
                lba=lba,
                now_ns=now_ns,
            )
        crc: Optional[int] = None
        if self._protect:
            # Protection info covers the *host's* data.  A silent
            # corruption stores mutated media content under the
            # original CRC — undetectable until some layer verifies.
            crc = payload_crc(payload)
            if self.latent is not None and self.latent.corrupt_program(lba):
                payload = self.latent.corrupted(payload)
        old = self._l2p[lba]
        if old >= 0:
            sb = self.superblocks[old // self._pps]
            sb.valid_pages -= 1
            if not sb.valid_pages and sb.state is SuperblockState.CLOSED:
                insort(self._zero_closed, sb.index)
            self._l2p[lba] = -1
        ppn = self._program_into(stream, lba, now_ns, payload, crc)
        if ppns is not None:
            ppns.append(ppn)
        self.stats.host_pages_written += 1
        self.stats.nand_pages_written += 1
        self.energy.add_programs(1)
        self.stream_host_pages[stream] = (
            self.stream_host_pages.get(stream, 0) + 1
        )
        self._pages_since_checkpoint += 1

    def _write_extent_fast(
        self,
        lba: int,
        npages: int,
        stream: StreamKey,
        now_ns: int,
        payload: object,
        ppns: List[int],
    ) -> None:
        """Program ``npages`` consecutive LBAs as whole extents.

        The batched twin of looping :meth:`_host_write_page`: the range
        is split into chunks at reclaim-unit (superblock) boundaries
        and each chunk is programmed in one tight loop with the hot
        state hoisted to locals, charging stats/energy/checkpoint
        counters once per chunk instead of once per page.  Per-page
        effects that recovery depends on — sequence numbers, OOB
        records, journal appends (and therefore journal flush
        boundaries) — stay per-page, so the persistent trail is
        byte-for-byte the trail the scalar loop leaves.

        GC ordering is preserved exactly: the scalar path invalidates a
        page's old mapping *before* the allocation that may trigger GC,
        so a collection pass never migrates a copy the in-flight
        command is about to supersede.  The fast path replicates that
        by invalidating the chunk-opening page before
        :meth:`_collect_until_reserve` runs; mid-chunk pages cannot
        trigger GC (the chunk never outgrows the open superblock), so
        their invalidations inside the loop are equivalent to the
        scalar interleaving.

        Only called with ``faults is None`` — per-page fault and
        power-loss draws are the scalar loop's job.
        """
        l2p = self._l2p
        p2l = self._p2l
        oob = self._oob
        superblocks = self.superblocks
        pps = self._pps
        write_points = self._write_points
        journal_run = self._journal.append_run
        stats = self.stats
        # One CRC per command: every page of the extent stores the same
        # payload object, so this matches the scalar loop's per-page
        # payload_crc() bit for bit.
        crc = payload_crc(payload) if self._protect else None
        cur = lba
        end = lba + npages
        while cur < end:
            sb = write_points.get(stream)
            if sb is None:
                # Scalar-path order: the page that triggers allocation
                # invalidates its old mapping first, then GC runs.
                old = l2p[cur]
                if old >= 0:
                    sbo = superblocks[old // pps]
                    sbo.valid_pages -= 1
                    if (
                        not sbo.valid_pages
                        and sbo.state is SuperblockState.CLOSED
                    ):
                        insort(self._zero_closed, sbo.index)
                    l2p[cur] = -1
                if stream[0] == HOST_STREAM:
                    self._collect_until_reserve(now_ns)
                sb = self._pop_free(stream)
                write_points[stream] = sb
            chunk = end - cur
            room = pps - sb.write_ptr
            if chunk > room:
                chunk = room
            base = sb.index * pps + sb.write_ptr
            # Invalidate the chunk's old mappings (snapshot the slice
            # first: the new ppns land in erased pages, so no old
            # mapping can alias the destination), then install the new
            # run with two C-level slice stores.
            for old in l2p[cur : cur + chunk]:
                if old >= 0:
                    sbo = superblocks[old // pps]
                    sbo.valid_pages -= 1
                    if (
                        not sbo.valid_pages
                        and sbo.state is SuperblockState.CLOSED
                    ):
                        insort(self._zero_closed, sbo.index)
            l2p[cur : cur + chunk] = array("i", range(base, base + chunk))
            p2l[base : base + chunk] = array("i", range(cur, cur + chunk))
            seq = self._seq
            oob[base : base + chunk] = [
                OobRecord(lb, sq, stream, payload, True, crc)
                for lb, sq in zip(
                    range(cur, cur + chunk),
                    range(seq + 1, seq + chunk + 1),
                )
            ]
            journal_run(seq + 1, cur, base, chunk)
            self._seq = seq + chunk
            ppns.extend(range(base, base + chunk))
            sb.write_ptr += chunk
            sb.valid_pages += chunk
            stats.host_pages_written += chunk
            stats.nand_pages_written += chunk
            self.energy.add_programs(chunk)
            self.stream_host_pages[stream] = (
                self.stream_host_pages.get(stream, 0) + chunk
            )
            self._pages_since_checkpoint += chunk
            cur += chunk
            if sb.write_ptr == pps:
                self._close_write_point(stream, now_ns)

    def write(
        self,
        lba: int,
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        payload: object = None,
    ) -> int:
        """Write one page at ``lba``; returns completion time (ns)."""
        return self.write_range(lba, 1, pid, now_ns, payload)

    def write_range(
        self,
        lba: int,
        npages: int,
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        payload: object = None,
    ) -> int:
        """Write ``npages`` consecutive pages as one striped command.

        The whole range is charged as a single multi-page operation, so
        sequential region flushes benefit from die/plane parallelism
        instead of serializing page by page.

        ``payload`` is an opaque object stored in each page's OOB area,
        modelling the command's content; :meth:`read_payload` returns
        it, including after a power cut + recovery — which is how the
        cache layer verifies seal markers and bucket checksums
        honestly.

        A scripted power cut mid-command raises
        :class:`~repro.ssd.errors.PowerLossError` whose
        ``pages_durable`` says how many leading pages survived; the
        command is *not* acknowledged and the device is offline until
        :meth:`recover`.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._check_online()
        self._check_lba(lba)
        self._check_lba(lba + npages - 1)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, now_ns)
        stream = self._host_stream(pid)
        ppns: List[int] = []
        try:
            if self._fast_path:
                self._write_extent_fast(
                    lba, npages, stream, now_ns, payload, ppns
                )
            else:
                for i in range(npages):
                    self._host_write_page(
                        lba + i, stream, now_ns, payload, ppns
                    )
        except PowerLossError as exc:
            exc.lba = lba
            exc.npages = npages
            exc.pages_durable = len(ppns)
            self.power_cut(now_ns, _torn_mid_command=True)
            raise
        done = self._inject_host_spike(self.latency.host_write(now_ns, npages))
        self._inflight.append(_InflightWrite(lba, npages, ppns, done))
        self._maybe_checkpoint()
        return done

    def read(self, lba: int, now_ns: int = 0) -> Tuple[bool, int]:
        """Read one page.

        Returns ``(mapped, completion_ns)`` where ``mapped`` says
        whether the LBA currently holds data (reading a deallocated LBA
        returns zeroes on a real device).
        """
        self._check_online()
        self._check_lba(lba)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, now_ns)
        self.stats.host_pages_read += 1
        self.energy.add_reads(1)
        done = self._inject_host_spike(self.latency.host_read(now_ns, 1))
        self._inject_read_faults(lba, 1, now_ns)
        done = self._latent_read_checks(lba, 1, now_ns, done)
        return self._l2p[lba] >= 0, done

    def read_range(
        self, lba: int, npages: int, now_ns: int = 0
    ) -> Tuple[bool, int]:
        """Read ``npages`` as one striped command.

        Returns ``(all_mapped, completion_ns)``.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._check_online()
        self._check_lba(lba)
        self._check_lba(lba + npages - 1)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, now_ns)
        self.stats.host_pages_read += npages
        self.energy.add_reads(npages)
        # The L2P map is a flat array("i"), so the mapped-range check is
        # one C-level slice + min instead of a Python loop per page.
        all_mapped = min(self._l2p[lba : lba + npages]) >= 0
        done = self._inject_host_spike(self.latency.host_read(now_ns, npages))
        self._inject_read_faults(lba, npages, now_ns)
        done = self._latent_read_checks(lba, npages, now_ns, done)
        return all_mapped, done

    def deallocate(self, lba: int, npages: int = 1) -> int:
        """TRIM ``npages`` starting at ``lba``; returns pages invalidated.

        Deallocations are journaled and the journal is flushed
        synchronously: a TRIM the host observed as complete must never
        be forgotten by recovery, or the stale mapping would resurrect
        as a phantom.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._check_online()
        self._check_lba(lba)
        self._check_lba(lba + npages - 1)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, self.latency.busy_until)
        # Wholly unmapped ranges (common for region TRIMs after a GC-
        # style eviction) are detected with one array-slice max — no
        # mapping changes, no journal traffic, no write barrier.
        if max(self._l2p[lba : lba + npages]) < 0:
            return 0
        invalidated = 0
        for cur in range(lba, lba + npages):
            ppn = self._l2p[cur]
            if ppn < 0:
                continue
            sb = self.superblocks[ppn // self._pps]
            sb.valid_pages -= 1
            if not sb.valid_pages and sb.state is SuperblockState.CLOSED:
                insort(self._zero_closed, sb.index)
            self._l2p[cur] = -1
            invalidated += 1
            self._seq += 1
            self._journal.append(self._seq, cur, -1)
        if invalidated:
            self._journal.force_flush()
            # The synchronous flush is a write barrier: once it lands
            # on media, every page program sequenced before it landed
            # too, so commands issued earlier can no longer tear in a
            # later power cut.
            self._inflight.clear()
        self.stats.pages_deallocated += invalidated
        return invalidated

    # ------------------------------------------------------------------
    # crash consistency: checkpoint, power cut, recovery
    # ------------------------------------------------------------------

    def _take_checkpoint(self) -> None:
        """Persist a full L2P copy and compact the journal behind it."""
        self._journal.force_flush()
        self._checkpoints.append(L2pCheckpoint(self._seq, self._l2p))
        if len(self._checkpoints) > CHECKPOINTS_KEPT:
            del self._checkpoints[: -CHECKPOINTS_KEPT]
        # Journal entries at or before the *oldest retained* checkpoint
        # can never be needed again (a retroactive tear falls back at
        # most one checkpoint).
        self._journal.compact_upto(self._checkpoints[0].seq)

    def _maybe_checkpoint(self) -> None:
        if self._pages_since_checkpoint >= self.checkpoint_interval_pages:
            self._pages_since_checkpoint = 0
            self._take_checkpoint()

    @property
    def powered_off(self) -> bool:
        """Whether the device is between power_cut() and recover()."""
        return self._offline

    def power_cut(
        self, now_ns: Optional[int] = None, *, _torn_mid_command: bool = False
    ) -> PowerCutReport:
        """Lose power at ``now_ns``: drop volatile state, tear in-flight
        writes, and take the device offline.

        ``now_ns`` defaults to the device's busy horizon — a quiescent
        cut with nothing in flight.  An earlier ``now_ns`` tears every
        recently issued command whose completion lies beyond it, at a
        single deterministic, seed-driven point in program order
        (power dies at one instant; everything sequenced after it is
        gone).  The report lists each torn command's durable prefix so
        a shadow reference can reconcile exactly.

        Volatile state (L2P, write points, free list, journal buffer)
        is *not* cleared here — recovery rebuilds it from media and the
        tests compare against the pre-cut mapping — but the device
        rejects all I/O until :meth:`recover` runs.
        """
        if self._offline:
            return PowerCutReport(now_ns=now_ns or 0, tear_seq=self._seq)
        if now_ns is None:
            now_ns = self.latency.busy_until
        torn_writes: List[TornWrite] = []
        discarded = 0
        tear_seq = self._seq
        if not _torn_mid_command:
            pending = [w for w in self._inflight if w.ack_ns > now_ns]
            if pending:
                # Flatten to (seq-ordered) pages and pick the one tear
                # point every in-flight command shares.
                flat: List[Tuple[int, int]] = []  # (ppn, command idx)
                for ci, w in enumerate(pending):
                    for ppn in w.ppns:
                        flat.append((ppn, ci))
                rng = random.Random(
                    (self.power_seed << 8) ^ (self.stats.power_cuts + 1)
                )
                keep = rng.randrange(len(flat) + 1)
                durable_per_cmd = [0] * len(pending)
                # Resolve tear_seq from the original OOB records before
                # any of them are overwritten below.
                if keep:
                    last_rec = self._oob[flat[keep - 1][0]]
                    tear_seq = last_rec.seq if last_rec else self._seq
                else:
                    first_rec = self._oob[flat[0][0]]
                    tear_seq = (
                        first_rec.seq - 1 if first_rec else self._seq
                    )
                for pi, (ppn, ci) in enumerate(flat):
                    if pi < keep:
                        durable_per_cmd[ci] += 1
                        continue
                    rec = self._oob[ppn]
                    lba = rec.lba if rec is not None else -1
                    if pi == keep:
                        # The page mid-program at the instant of the
                        # cut: consumed, fails its OOB check.
                        self._oob[ppn] = OobRecord(
                            -1,
                            rec.seq if rec is not None else self._seq,
                            rec.stream if rec is not None else None,
                            None,
                            False,
                        )
                        self.stats.torn_pages_discarded += 1
                    else:
                        # Sequenced after the cut: never programmed.
                        self._oob[ppn] = None
                        sb = self.superblocks[ppn // self._pps]
                        if sb.write_ptr > ppn % self._pps:
                            sb.write_ptr = ppn % self._pps
                    if lba >= 0 and self._l2p[lba] == ppn:
                        self._l2p[lba] = -1
                        self._p2l[ppn] = -1
                        sbo = self.superblocks[ppn // self._pps]
                        sbo.valid_pages -= 1
                        if (
                            not sbo.valid_pages
                            and sbo.state is SuperblockState.CLOSED
                        ):
                            insort(self._zero_closed, sbo.index)
                    discarded += 1
                for ci, w in enumerate(pending):
                    torn_writes.append(
                        TornWrite(w.lba, w.npages, durable_per_cmd[ci])
                    )
        # The journal write describing anything past the tear cannot
        # have completed either; neither can a newer checkpoint.
        lost = self._journal.drop_volatile()
        lost += self._journal.truncate_after(tear_seq)
        cps_before = len(self._checkpoints)
        self._checkpoints = [
            cp for cp in self._checkpoints if cp.seq <= tear_seq
        ]
        self._inflight.clear()
        self._offline = True
        self.stats.power_cuts += 1
        self.events.record(
            FdpEvent(FdpEventType.POWER_LOSS, timestamp_ns=now_ns)
        )
        return PowerCutReport(
            now_ns=now_ns,
            tear_seq=tear_seq,
            torn_writes=tuple(torn_writes),
            pages_discarded=discarded,
            journal_entries_lost=lost,
            checkpoints_dropped=cps_before - len(self._checkpoints),
        )

    def recover(self, now_ns: Optional[int] = None) -> RecoveryReport:
        """Power-on recovery: rebuild all volatile state from media.

        Safe to call on a live (never-cut) device — the rebuild is then
        a consistency no-op that reproduces the current mapping.  Emits
        ``RECOVERY_COMPLETE`` and takes a fresh checkpoint so a
        follow-up cut recovers from a compact base.
        """
        if now_ns is None:
            now_ns = self.latency.busy_until
        report = rebuild_ftl_state(self)
        self._offline = False
        self._inflight.clear()
        self._pages_since_checkpoint = 0
        self.stats.recoveries += 1
        self.events.record(
            FdpEvent(
                FdpEventType.RECOVERY_COMPLETE,
                timestamp_ns=now_ns,
                pages=report.mappings_recovered,
            )
        )
        self._take_checkpoint()
        return report

    def run_scrub_pass(
        self, now_ns: Optional[int] = None, *, verify_open: bool = True
    ):
        """Run one full patrol pass synchronously (see ``scrub.py``).

        Walks every CLOSED superblock (and, with ``verify_open``, the
        programmed prefix of OPEN ones, verify-only), verifying CRCs
        and relocating pages past the refresh threshold.  Returns the
        scrubber's :class:`~repro.ssd.scrub.ScrubStatus`.
        """
        if self.scrubber is None:
            raise ValueError("no patrol scrubber attached to this device")
        self._check_online()
        if now_ns is None:
            now_ns = self.latency.busy_until
        return self.scrubber.run_full_pass(self, now_ns, verify_open=verify_open)

    def is_mapped(self, lba: int) -> bool:
        """Whether an LBA currently holds data (no I/O charged)."""
        self._check_lba(lba)
        return self._l2p[lba] >= 0

    def read_payload(self, lba: int, npages: int = 1) -> List[object]:
        """Media-truth page payloads for ``npages`` starting at ``lba``.

        Returns one entry per page: the payload stored by the write
        that produced the page's current data, or ``None`` for
        unmapped LBAs.  A verification hook — no latency or counters
        are charged, and it works on an offline device (it models the
        recovery tooling reading raw NAND).
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._check_lba(lba)
        self._check_lba(lba + npages - 1)
        out: List[object] = []
        for cur in range(lba, lba + npages):
            ppn = self._l2p[cur]
            if ppn < 0:
                out.append(None)
                continue
            rec = self._oob[ppn]
            out.append(rec.payload if rec is not None and rec.ok else None)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def valid_page_total(self) -> int:
        """Live pages across the device (O(#superblocks))."""
        return sum(sb.valid_pages for sb in self.superblocks)

    def occupancy(self) -> float:
        """Fraction of physical pages currently holding live data."""
        return self.valid_page_total() / self.geometry.total_pages

    @property
    def retired_superblocks(self) -> int:
        """Superblocks permanently lost to erase failures."""
        return self.stats.superblocks_retired

    def effective_op_fraction(self) -> float:
        """Overprovisioning remaining after block retirement.

        Retired blocks shrink the physical pool while advertised
        capacity stays fixed, so effective OP = usable physical pages
        over logical pages, minus one.  Shrinking OP is what couples
        block retirement back into write amplification (GC has less
        slack, victims are fuller).
        """
        usable = (
            self.geometry.num_superblocks - self.stats.superblocks_retired
        ) * self._pps
        return usable / self.geometry.logical_pages - 1.0

    def wear_stats(self) -> WearStats:
        """Erase-count distribution (endurance telemetry)."""
        return collect_wear_stats(self.superblocks)

    def superblock_census(self) -> Dict[str, int]:
        """Counts of superblocks per state, for diagnostics and tests."""
        census = {s.value: 0 for s in SuperblockState}
        for sb in self.superblocks:
            census[sb.state.value] += 1
        return census

    def check_invariants(self) -> None:
        """Verify mapping/bookkeeping consistency; used by tests.

        Raises ``AssertionError`` on any violation.
        """
        pps = self._pps
        per_block = [0] * self.geometry.num_superblocks
        for lba in range(self.geometry.logical_pages):
            ppn = self._l2p[lba]
            if ppn < 0:
                continue
            assert self._p2l[ppn] == lba, (
                f"L2P/P2L disagree: lba={lba} ppn={ppn} p2l={self._p2l[ppn]}"
            )
            per_block[ppn // pps] += 1
        for sb in self.superblocks:
            assert sb.valid_pages == per_block[sb.index], (
                f"superblock {sb.index}: cached valid={sb.valid_pages} "
                f"actual={per_block[sb.index]}"
            )
            if sb.state in (SuperblockState.FREE, SuperblockState.RETIRED):
                assert sb.valid_pages == 0, (
                    f"{sb.state.value} superblock {sb.index} has valid pages"
                )
        retired = sum(
            1
            for sb in self.superblocks
            if sb.state is SuperblockState.RETIRED
        )
        assert retired == self.stats.superblocks_retired, (
            f"retired census {retired} != counter "
            f"{self.stats.superblocks_retired}"
        )
        free_set = set(self._free)
        assert len(free_set) == len(self._free), "duplicate free entries"
        for idx in free_set:
            assert (
                self.superblocks[idx].state is SuperblockState.FREE
            ), f"superblock {idx} in free pool but {self.superblocks[idx].state}"
        closed_scan = [
            sb.index
            for sb in self.superblocks
            if sb.state is SuperblockState.CLOSED
        ]
        assert self._closed == closed_scan, (
            f"closed-set cache {self._closed} != scan {closed_scan}"
        )
        zero_scan = [
            idx
            for idx in closed_scan
            if self.superblocks[idx].valid_pages == 0
        ]
        assert self._zero_closed == zero_scan, (
            f"zero-closed cache {self._zero_closed} != scan {zero_scan}"
        )

"""Property tests: multi-page writes against a shadow-dict oracle.

Hypothesis drives arbitrary command streams — write extents sized to
straddle reclaim-unit (superblock) boundaries, TRIMs, reads, multiple
placement IDs, and an optional quiescent power cut + recovery (at
the end of the stream if the drawn index falls past it) —
through one device, while a plain dict records what the host was told:
the payload of the last acknowledged write to each LBA.  Whatever GC,
write-point closes, journal flushes or recovery the stream provokes,
the device must agree with that record:

* ``read_payload`` returns the last acknowledged payload for every LBA
  and ``None`` once it has been TRIMmed (or never written);
* a read reports "mapped" exactly when every page in range is live;
* ``check_invariants`` holds;
* ``host_pages_written`` counts every page the host wrote, and every
  NAND program is either a host page or a GC migration.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fdp import PlacementIdentifier
from repro.ssd import Geometry, SimulatedSSD

GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=24,
    op_fraction=0.15,
)
PAGES_PER_SUPERBLOCK = GEOMETRY.pages_per_superblock
SPAN = int(GEOMETRY.logical_pages * 0.75)
# A short flush interval makes recovery lean on the durable journal
# (not only the OOB scan of unjournaled pages) after a handful of pages.
JOURNAL_FLUSH_INTERVAL = 8

# Extents up to 2.5 reclaim units cross superblock boundaries.
command = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=SPAN - 1),
        st.integers(min_value=1, max_value=PAGES_PER_SUPERBLOCK * 5 // 2),
        st.integers(min_value=0, max_value=3),
    ),
    st.tuples(
        st.just("trim"),
        st.integers(min_value=0, max_value=SPAN - 1),
        st.integers(min_value=1, max_value=PAGES_PER_SUPERBLOCK),
        st.just(0),
    ),
    st.tuples(
        st.just("read"),
        st.integers(min_value=0, max_value=SPAN - 1),
        st.integers(min_value=1, max_value=PAGES_PER_SUPERBLOCK),
        st.just(0),
    ),
)

common = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_matches_shadow(device, shadow):
    assert device.read_payload(0, SPAN) == [
        shadow.get(lba) for lba in range(SPAN)
    ]


def cut_and_recover(device, shadow):
    # Quiescent cut: every command already completed, so no
    # acknowledged write may be torn or lost by recovery.
    assert not device.power_cut().torn_writes
    device.recover()
    assert_matches_shadow(device, shadow)


@given(
    commands=st.lists(command, max_size=120),
    use_pids=st.booleans(),
    cut_at=st.none() | st.integers(min_value=0, max_value=119),
)
@common
def test_extents_match_shadow_oracle(commands, use_pids, cut_at):
    device = SimulatedSSD(
        GEOMETRY, fdp=use_pids, journal_flush_interval=JOURNAL_FLUSH_INTERVAL
    )
    shadow = {}
    pages_written = 0
    now = 0
    for i, (op, lba, npages, ruh) in enumerate(commands):
        if i == cut_at:
            cut_and_recover(device, shadow)
        npages = min(npages, SPAN - lba)
        if op == "write":
            pid = PlacementIdentifier(0, ruh) if use_pids else None
            payload = ("t", i)
            now = device.write(lba, npages, pid, now, payload)
            for cur in range(lba, lba + npages):
                shadow[cur] = payload
            pages_written += npages
        elif op == "trim":
            device.deallocate(lba, npages)
            for cur in range(lba, lba + npages):
                shadow.pop(cur, None)
        else:
            mapped, now = device.read(lba, npages, now)
            assert mapped == all(
                cur in shadow for cur in range(lba, lba + npages)
            )
    if cut_at is not None and cut_at >= len(commands):
        cut_and_recover(device, shadow)
    assert_matches_shadow(device, shadow)
    device.check_invariants()
    stats = device.snapshot()
    assert stats.host_pages_written == pages_written
    assert stats.nand_pages_written == (
        stats.host_pages_written + stats.gc_pages_migrated
    )

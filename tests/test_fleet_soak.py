"""End-to-end fleet soaks: shard loss and fail-slow, plus the soak CLI.

Tier-1 runs a compact 3-shard shard-loss soak: one shard dies
unannounced at the halfway point and the run must prove graceful
degradation — every op served (as a hit, miss, or degraded miss; never
an exception), the miss storm attributed to the dead shard's keyspace,
an exactly-once placement audit across survivors, and full
determinism.  Losing 1 of 3 shards permanently removes a third of the
cache, so the compact run is judged at a wider recovery tolerance; the
CI smoke job and the ``slow``-marked full-scale soak enforce the
paper-grade 10% bound where the lost fraction is realistic (1 of 8).

The compact fail-slow soak checks the three-arm harness shape at the
same scale: seed-derived victim and slow die, well-formed windows, a
fault-free control arm whose reaction counters stay zero.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import Scale
from repro.bench.soak import (
    SMOKE_SCALE,
    SOAKS,
    SoakResult,
    SoakWindow,
    default_fleet_specs,
    main,
    run_failslow_soak,
    run_fleet_soak,
    segments,
    within,
)
from tests.test_golden_regression import _check_golden

TINY = Scale(num_superblocks=32)

# What each --smoke preset may replay (shards x ops per shard), all
# arms sharing one trace: a CI smoke job that outgrows this is no
# longer a smoke job.
SMOKE_OPS_CEILING = {"fleet": 80_000, "overload": 40_000, "failslow": 36_000}


@pytest.fixture(scope="module")
def tiny_soak():
    return run_fleet_soak(
        num_shards=3, num_ops=24_000, scale=TINY, tolerance=0.25
    )


@pytest.fixture(scope="module")
def tiny_failslow():
    return run_failslow_soak(num_shards=3, ops_per_shard=8_000, scale=TINY)


class TestTinySoak:
    def test_serves_through_the_kill(self, tiny_soak):
        kill = tiny_soak.arms["kill"]
        # Every trace op was served; failures became misses, never
        # exceptions or lost ops.
        assert tiny_soak.ops >= sum(w.ops for w in kill.values())
        assert kill["event"].live_shards == kill["pre"].live_shards - 1
        assert kill["recovered"].live_shards == kill["pre"].live_shards - 1

    def test_kill_fired_as_scripted(self, tiny_soak):
        params = tiny_soak.params
        assert params["kill_at_ops"] == tiny_soak.ops // 2 + 1
        transitions = tiny_soak.counters["transitions"]
        kills = [t for t in transitions if t["event"] == "kill"]
        assert len(kills) == 1
        assert kills[0]["shard_id"] == params["killed_shard"]

    def test_miss_storm_attributed_to_dead_shard(self, tiny_soak):
        kill = tiny_soak.arms["kill"]
        assert kill["pre"].storm_misses == 0  # intact fleet: no storm
        assert kill["event"].storm_misses > 0  # the storm is visible...
        # ...and fading.
        assert kill["recovered"].storm_misses < kill["event"].storm_misses
        assert tiny_soak.arms["control"]["recovered"].storm_misses == 0

    def test_exactly_once_placement_across_survivors(self, tiny_soak):
        counters = tiny_soak.counters
        assert counters["keys_resident"] > 0
        assert tiny_soak.gates["placement_clean"][0]
        assert counters["misplaced"] == 0
        assert counters["duplicates"] == 0
        assert counters["shadow_mismatches"] == 0

    def test_recovers_within_tolerance_of_control(self, tiny_soak):
        assert tiny_soak.gates["miss_ratio_recovered"][0]
        assert tiny_soak.gates["p99_recovered"][0]
        assert tiny_soak.acceptance

    def test_windows_are_well_formed(self, tiny_soak):
        assert list(tiny_soak.arms["kill"]) == ["pre", "event", "recovered"]
        assert list(tiny_soak.arms["control"]) == ["recovered"]
        for windows in tiny_soak.arms.values():
            for window in windows.values():
                assert isinstance(window, SoakWindow)
                assert window.gets > 0
                assert 0.0 <= window.miss_ratio <= 1.0
                assert window.read_p99_ns > 0
                # Closed-loop trace: no backlog or scenario label.
                assert window.max_backlog_ns is None
                assert window.label is None

    def test_serialization_round_trip(self, tiny_soak):
        d = tiny_soak.to_dict()
        assert d["params"]["killed_shard"] == tiny_soak.params["killed_shard"]
        assert d["acceptance"] == tiny_soak.acceptance
        assert len(d["counters"]["shard_rows"]) == 3
        assert d["gates"]["p99_recovered"] == list(
            tiny_soak.gates["p99_recovered"]
        )
        table = tiny_soak.summary_table()
        assert "miss_ratio_recovered: PASS" in table
        assert "control:recovered" in table
        assert tiny_soak.params["killed_shard"] in table


def test_soak_is_deterministic(tiny_soak):
    again = run_fleet_soak(
        num_shards=3, num_ops=24_000, scale=TINY, tolerance=0.25
    )
    assert again == tiny_soak
    assert isinstance(again, SoakResult)


def test_golden_fleet_soak(tiny_soak, update_golden):
    _check_golden("fleet_soak_tiny", tiny_soak.to_dict(), update_golden)


def test_soak_validation():
    with pytest.raises(ValueError):
        run_fleet_soak(num_shards=1)
    with pytest.raises(ValueError):
        run_fleet_soak(num_shards=4, mix="tape")
    with pytest.raises(ValueError):
        # Too few ops to fit the measurement windows around the kill.
        run_fleet_soak(num_shards=2, num_ops=4_000, scale=TINY)
    with pytest.raises(ValueError):
        default_fleet_specs(0)


def test_segments_layout():
    layout = segments(24_000, 12_000, 15_000)
    assert [s[0] for s in layout] == [
        "warmup", "pre", "event", "drain", "recovered"
    ]
    # Contiguous cover of the whole trace; only pre/event/recovered
    # are measured.
    assert [s[1] for s in layout[1:]] == [s[2] for s in layout[:-1]]
    assert layout[0][1] == 0 and layout[-1][2] == 24_000
    assert [s[0] for s in layout if s[3]] == ["pre", "event", "recovered"]
    with pytest.raises(ValueError):
        segments(24_000, 12_000, 21_000)  # no room left for a drain


def test_within_is_one_sided_and_zero_strict():
    assert within(1.1, 1.0, 1.1)
    assert not within(1.2, 1.0, 1.1)
    assert within(0.5, 1.0, 1.1)  # beating the baseline always passes
    assert within(0, 0, 3.0)
    assert not within(1, 0, 3.0)


class TestTinyFailSlow:
    def test_rerun_is_equal(self, tiny_failslow):
        again = run_failslow_soak(
            num_shards=3, ops_per_shard=8_000, scale=TINY
        )
        assert again == tiny_failslow

    def test_victim_and_slow_die_come_from_the_seed(self, tiny_failslow):
        params = tiny_failslow.params
        seed = tiny_failslow.seed
        assert params["victim_shard"] == f"shard{seed % 3:02d}"
        assert params["slow_die"] == seed % TINY.geometry().dies
        assert params["fault_at_ops"] == tiny_failslow.ops // 2

    def test_windows_are_well_formed(self, tiny_failslow):
        assert list(tiny_failslow.arms) == [
            "control", "detector-on", "detector-off"
        ]
        for windows in tiny_failslow.arms.values():
            assert list(windows) == ["pre", "event", "recovered"]
            assert [w.ops for w in windows.values()] == [3_000] * 3
            for window in windows.values():
                assert window.gets > 0
                assert window.read_p99_ns > 0
                assert window.storm_misses == 0
                assert window.shed_sets == 0
            # Nothing is lost before the fault.
            assert windows["pre"].live_shards == 3

    def test_control_counters_are_clean(self, tiny_failslow):
        assert tiny_failslow.gates["counters_clean"][0]
        control = tiny_failslow.counters["control"]
        assert control["deadline_misses"] == 0
        assert control["gray_detections"] == 0
        assert control["quarantines"] == 0
        assert control["transitions"] == []
        assert all(
            w.deadline_misses == 0
            for w in tiny_failslow.arms["control"].values()
        )
        # The unprotected arm has no reaction path to book anything.
        off = tiny_failslow.counters["detector-off"]
        assert off["gray_detections"] == off["quarantines"] == 0

    def test_golden_failslow_soak(self, tiny_failslow, update_golden):
        _check_golden(
            "failslow_soak_tiny", tiny_failslow.to_dict(), update_golden
        )


@pytest.mark.slow
def test_full_scale_soak_meets_paper_grade_tolerance():
    """The headline run: 8 shards, default scale, 10% recovery bound."""
    r = run_fleet_soak(num_shards=8)
    assert r.acceptance, r.summary_table()
    assert r.gates["placement_clean"][0]


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SOAKS))
def test_cli_smoke_exits_zero(name):
    assert main([name, "--smoke"]) == 0


def test_cli_rejects_bad_args():
    with pytest.raises(SystemExit):
        main(["tape"])  # no such soak
    with pytest.raises(SystemExit):
        main(["overload-matrix", "--seed", "1"])  # seeds are per row


def test_smoke_scale_is_ci_sized():
    # Guard against someone "fixing" a smoke job into a 10-minute run:
    # bound what each --smoke preset actually replays.
    for name, ceiling in SMOKE_OPS_CEILING.items():
        smoke = SOAKS[name][1]
        assert smoke["num_shards"] * smoke["ops_per_shard"] <= ceiling, name
        assert smoke.get("scale", SMOKE_SCALE).num_superblocks <= 64

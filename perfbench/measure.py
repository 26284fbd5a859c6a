"""One benchmark run: untraced end-to-end replays, or one traced replay.

Imported by ``run.py`` after it has put the checkout's ``src`` on the
import path.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from gates import GateFailure, check_identical, check_run, error_count, fingerprint
from layers import LAYERS, attach, boundary_state, layer_metrics, metric_specs, reconcile
from scenarios import setup_arm
from spans import SpanLog

__all__ = ["END_TO_END", "REFERENCE_S", "at_reference_speed", "reference_s", "run_traced", "run_untraced"]

# Timed set-ups per run, after one untimed warm-up; set-up is cheap
# (0.05-0.2 s) and noisy, so its median is reported.
SETUP_REPEATS = 30

# Host speed on a shared VM drifts by up to +-20% over seconds to
# minutes, which no median within one run removes.  So the untraced run
# also times a fixed pure-Python reference loop, once after each set-up,
# once before each replay and once at every progress call of the replay
# (every ``poll_interval_ops`` ops), and reports its host times at the
# speed where one pass of that loop takes REFERENCE_S.  The loop's
# footprint is fixed (a 256k-entry list and a 1024-slot dict built once),
# so the program's heap does not change it.
REFERENCE_S = 0.070
_REF_ITERS = 100_000
_REF_MASK = (1 << 18) - 1
_REF_TABLE = list(range(1000, 1001 + _REF_MASK))
_REF_SLOTS = dict.fromkeys(range(1024), 0)

# End-to-end metrics with their units, in report order.
END_TO_END = {
    "replay_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "dlwa": "ratio",
    "hit_ratio": "ratio",
    "alwa": "ratio",
    "p99_read_us_sim": "us",
    "sim_kops": "Kops/s",
}


def reference_s() -> float:
    """Time one pass of the fixed reference loop, in seconds."""
    table, slots, x, s = _REF_TABLE, _REF_SLOTS, 12345, 0
    t0 = time.perf_counter()
    for _ in range(_REF_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        s += table[x & _REF_MASK]
        slots[x & 1023] = s & 0xFFFF
    return time.perf_counter() - t0


def at_reference_speed(first_pass: float, stretches: List[Tuple[float, float]], tail: float) -> float:
    """Replay seconds at the reference speed.

    ``stretches`` holds (replay seconds, reference pass seconds timed
    after them); ``first_pass`` was timed before the first stretch and
    ``tail`` follows the last pass.  Each stretch is scaled by the mean
    of the passes on either side, the tail by the last pass.
    """
    total, before = 0.0, first_pass
    for seconds, after in stretches:
        total += seconds * 2 * REFERENCE_S / (before + after)
        before = after
    return total + tail * REFERENCE_S / before


def _setups(workload, seed: int) -> Tuple[List[float], List[float], List[float]]:
    """One untimed warm-up set-up, then ``SETUP_REPEATS`` timed ones.

    Returns the build and trace times of each, and the reference pass
    timed right after each.
    """
    setup_arm(workload, seed)
    build_s, trace_s, refs = [], [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # so no set-up pays for collecting an earlier one's garbage
        _, _, b, t = setup_arm(workload, seed)
        build_s.append(b)
        trace_s.append(t)
        refs.append(reference_s())
    return build_s, trace_s, refs


def _replay(workload, seed: int):
    """Set up a fresh arm and replay it untraced.

    Returns ``(result, wall_s, setup_s, scaled_s, first_ref_s)``.  A
    reference pass is timed just before the replay (``first_ref_s``) and
    at every progress call; ``wall_s`` excludes those passes, and
    ``scaled_s`` is ``wall_s`` at the reference speed
    (``at_reference_speed``).
    """
    cache, trace, b, t = setup_arm(workload, seed)
    bench = workload.bench()
    stretches: List[Tuple[float, float]] = []  # (replay seconds, pass seconds after them)

    def progress(done: int, total: int) -> None:
        nonlocal last
        now = time.perf_counter()
        stretches.append((now - last, reference_s()))
        last = time.perf_counter()

    gc.collect()
    first_ref = reference_s()
    last = time.perf_counter()
    result = bench.run(cache, trace, progress=progress)
    end = time.perf_counter()
    check_run(cache, result)
    wall = sum(dt for dt, _ in stretches) + (end - last)
    return result, wall, b + t, at_reference_speed(first_ref, stretches, end - last), first_ref


def run_untraced(workload, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Replay until ``seconds`` are used up; report end-to-end medians.

    Host times are reported at the reference speed (see ``REFERENCE_S``
    and ``_replay``); each set-up time is scaled by the reference pass
    timed right after it.
    """
    build_s, trace_s, setup_refs = _setups(workload, seed)
    setup_s = [b + t for b, t in zip(build_s, trace_s)]
    rates: List[float] = []  # at the reference speed
    raw_rates: List[float] = []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while True:
        result, wall, setup, scaled_wall, first_ref = _replay(workload, seed)
        setup_s.append(setup)
        setup_refs.append(first_ref)
        raw_rates.append(result.ops / wall)
        rates.append(result.ops / scaled_wall)
        attempted += result.ops
        failed += error_count(result)
        if first is None:
            first = result
            # Peak RSS through the set-ups and the first replay: later
            # replays grow the heap by a varying amount, and how many fit
            # in the budget depends on host speed.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            check_identical("replay_determinism", fingerprint(first), fingerprint(result))
        # Start another replay only if it should end within the budget.
        if time.perf_counter() - start + wall > seconds:
            break
    metrics = {
        "replay_ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(s * REFERENCE_S / r for s, r in zip(setup_s, setup_refs)),
        "peak_rss_mib": peak_rss_mib,
        "dlwa": first.dlwa,
        "hit_ratio": first.hit_ratio,
        "alwa": first.alwa,
        "p99_read_us_sim": first.p99_read_us,
        "sim_kops": first.throughput_kops,
    }
    lines = [
        f"replays: {len(rates)}, ops/s each at reference speed: "
        + ", ".join(f"{r:.0f}" for r in rates)
        + "; unscaled: " + ", ".join(f"{r:.0f}" for r in raw_rates),
        f"set-ups: {len(setup_s)}, s each (unscaled): " + ", ".join(f"{s:.4f}" for s in setup_s),
        f"reference pass after each set-up: median {statistics.median(setup_refs) * 1e3:.2f} ms; "
        f"unscaled medians {statistics.median(raw_rates):.0f} ops/s, "
        f"set-up {statistics.median(setup_s):.4f} s",
        f"gc_relocated_pages: {first.gc_relocated_pages}, steady_dlwa: {first.steady_dlwa:.4f}",
    ]
    lines += [f"{name:<18} {metrics[name]:>14.6g} {unit}" for name, unit in END_TO_END.items()]
    # Always 0 on these fault-free devices (check_run enforces it), so it
    # is printed and fills ``failed`` rather than being a bounded metric.
    lines.append(f"{'error_ratio':<18} {failed / attempted:>14.6g} share")
    return metrics, attempted, failed, lines


def run_traced(workload, seed: int, out_dir: Path) -> Tuple[Dict[str, float], int, int, List[str]]:
    """One plain and one traced replay of the same arm; per-layer metrics.

    The spans are written to ``out_dir/spans-<workload>.npz``.
    """
    build_s, trace_s, _ = _setups(workload, seed)
    plain, plain_wall, _, _, _ = _replay(workload, seed)

    cache, trace, _, _ = setup_arm(workload, seed)
    bench = workload.bench()
    before = boundary_state(cache, bench)
    log = SpanLog()
    observer = attach(log, cache, bench)
    gc.collect()
    try:
        t0 = time.perf_counter()
        result = bench.run(cache, trace)
        traced_wall = time.perf_counter() - t0
    finally:
        log.restore()
    if boundary_state(cache, bench) != before:
        raise GateFailure("wrappers_restored", "a layer boundary still holds a wrapper")
    check_run(cache, result)
    check_identical("tracing_changes_nothing", fingerprint(plain), fingerprint(result))
    if observer.stale_reads:
        raise GateFailure(
            "stale_read_oracle",
            f"{observer.stale_reads} GET hits returned a stale size: "
            + "; ".join(observer.violations),
        )
    metrics = layer_metrics(log, cache, observer)
    reconcile(log, metrics, cache, traced_wall)
    metrics["setup.build_s"] = statistics.median(build_s)
    metrics["setup.trace_s"] = statistics.median(trace_s)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    out_dir.mkdir(exist_ok=True)
    log.save(str(out_dir / f"spans-{workload.name}.npz"))

    lines = [
        f"spans: {len(log)}, traced wall {traced_wall:.3f} s, plain wall {plain_wall:.3f} s, "
        f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB",
        f"{'layer':<10} {'self_s':>9} {'share':>7}",
    ]
    lines += [
        f"{layer:<10} {metrics[layer + '.self_s']:>9.3f} {metrics[layer + '.share']:>7.1%}"
        for layer in LAYERS
    ]
    units = {name: unit for name, unit, _ in metric_specs()}
    lines += [f"{name:<28} {value:>14.6g} {units[name]}" for name, value in metrics.items()]
    ops = plain.ops + result.ops
    return metrics, ops, error_count(plain) + error_count(result), lines

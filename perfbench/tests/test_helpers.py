"""Tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from gates import GateFailure, check_identical, check_run, fingerprint
from layers import attach, boundary_state, layer_metrics, metric_specs, reconcile
from measure import END_TO_END, REFERENCE_S, at_reference_speed, reference_s
from repro.bench.runner import Scale
from repro.cache.bloom import BloomFilter
from scenarios import WORKLOADS, Workload, setup_arm
from spans import SpanLog, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_nested_and_sibling_spans():
    # root [0,100] holds siblings a [10,40] and b [50,90]; a holds c [15,25].
    start = np.array([0, 10, 15, 50], dtype=np.int64)
    end = np.array([100, 40, 25, 90], dtype=np.int64)
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    assert self_times(start, end, parent).tolist() == [30.0, 20.0, 10.0, 40.0]
    assert self_times(start, end, parent).sum() == 100.0


def test_span_log_records_parents_values_and_restores():
    class Layer:
        def outer(self, n):
            return self.inner(n) + self.inner(n)

        def inner(self, n):
            return n

    obj = Layer()
    log = SpanLog()
    log.wrap(obj, "outer", "t.outer", value_of_result=lambda r: r)
    log.wrap(obj, "inner", "t.inner", value_of_call=lambda args, kwargs: args[0])
    assert obj.outer(3) == 6
    log.restore()
    assert "outer" not in vars(obj) and "inner" not in vars(obj)
    cols = log.columns()
    assert [log.names[i] for i in cols["name"]] == ["t.outer", "t.inner", "t.inner"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    assert cols["value"].tolist() == [6, 3, 3]
    assert (cols["end"] >= cols["start"]).all()


def test_host_time_is_scaled_by_the_passes_around_it():
    ref = REFERENCE_S
    # A host at reference speed throughout: nothing changes.
    assert at_reference_speed(ref, [(2.0, ref), (3.0, ref)], 0.5) == pytest.approx(5.5)
    # Passes twice as slow as the reference: the host ran at half speed,
    # so each stretch took twice what it would at the reference speed.
    assert at_reference_speed(2 * ref, [(2.0, 2 * ref)], 1.0) == pytest.approx(1.5)
    # A stretch between a slow and a fast pass is scaled by their mean.
    assert at_reference_speed(3 * ref, [(4.0, ref)], 0.0) == pytest.approx(2.0)
    assert reference_s() > 0


def test_metric_names_are_well_formed_and_unique():
    names = [name for name, _, _ in metric_specs()] + list(END_TO_END)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, better in metric_specs():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) and better in ("higher", "lower")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "workload",
    [
        Workload("tiny-soc", "twitter", fdp=False, utilization=1.0,
                 scale=Scale(num_superblocks=64), num_ops=4000),
        Workload("tiny-nemo", "kvcache", fdp=True, utilization=0.9,
                 scale=Scale(num_superblocks=64), num_ops=4000, soc_engine="nemo",
                 sched=True, arrival_interval_ns=200_000),
    ],
    ids=lambda w: w.name,
)
def test_traced_replay_matches_plain_and_restores_wrappers(workload):
    bloom_methods = {m: BloomFilter.__dict__[m] for m in ("add", "may_contain", "rebuild")}
    cache, trace, _, _ = setup_arm(workload, 7)
    plain = workload.bench().run(cache, trace)

    cache, trace, _, _ = setup_arm(workload, 7)
    bench = workload.bench()
    before = boundary_state(cache, bench)
    log = SpanLog()
    observer = attach(log, cache, bench)
    assert boundary_state(cache, bench) != before
    try:
        t0 = time.perf_counter()
        traced = bench.run(cache, trace)
        wall = time.perf_counter() - t0
    finally:
        log.restore()

    assert boundary_state(cache, bench) == before
    assert {m: BloomFilter.__dict__[m] for m in bloom_methods} == bloom_methods
    check_run(cache, traced)
    check_identical("tracing_changes_nothing", fingerprint(plain), fingerprint(traced))
    assert observer.stale_reads == 0
    assert log.op_index == len(trace) - 1
    metrics = layer_metrics(log, cache, observer)
    reconcile(log, metrics, cache, wall)
    set_by_runner = {"setup.build_s", "setup.trace_s", "trace.overhead_ratio"}
    assert set(metrics) | set_by_runner == {name for name, _, _ in metric_specs()}


# One call per layer made past its wrapper, as a hoisted bound method
# would be, and the reconciliation pair that must catch it.
ESCAPED_CALLS = {
    "hybrid.get.calls": lambda cache: cache.get(12345, 0),
    "dram.get.calls": lambda cache: cache.dram.get(12345),
    "soc.lookup.calls": lambda cache: cache.soc.lookup(12345),
    "loc.lookup.calls": lambda cache: cache.loc.lookup(12345),
    "ftl.read.pages": lambda cache: cache.device.ftl.read(0),
}


@pytest.mark.parametrize("pair", list(ESCAPED_CALLS))
def test_reconcile_catches_an_escaped_call(pair):
    workload = Workload("tiny", "kvcache", fdp=False, utilization=0.9,
                        scale=Scale(num_superblocks=64), num_ops=2000)
    cache, trace, _, _ = setup_arm(workload, 3)
    bench = workload.bench()
    log = SpanLog()
    observer = attach(log, cache, bench)
    try:
        t0 = time.perf_counter()
        bench.run(cache, trace)
        wall = time.perf_counter() - t0
    finally:
        log.restore()
    reconcile(log, layer_metrics(log, cache, observer), cache, wall)
    ESCAPED_CALLS[pair](cache)
    with pytest.raises(GateFailure, match=pair):
        reconcile(log, layer_metrics(log, cache, observer), cache, wall)

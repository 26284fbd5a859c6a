"""Layer boundaries, the traced replay's observers, and per-layer metrics.

Each ``repro`` layer is timed at its public functions by wrappers that
this file installs from outside; nothing under ``src/`` knows it is
being traced.  Counts are taken at the same boundaries, so ratios such
as the bloom reject ratio are measured where the work happens.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from gates import GateFailure
from repro.cache.bloom import BloomFilter
from repro.cache.hybrid import MISS, HybridCache
from spans import SpanLog, self_times

__all__ = [
    "BOUNDARIES",
    "LAYERS",
    "HybridObserver",
    "attach",
    "boundary_state",
    "layer_metrics",
    "metric_specs",
    "reconcile",
]

# Sum of per-layer self time against wall time measured around the
# traced ``CacheBench.run`` call.  The self times of a properly nested
# log telescope to the root span's duration, so this bounds only the
# root wrapper's own entry and exit (and would catch spans recorded
# outside the replay); a call that escapes its wrapper cannot trip it.
# The count pairs in ``reconcile`` catch those.
SELF_TIME_TOLERANCE = 0.02


def _hit(result) -> int:
    return int(result is not None)


def _engine_hit(result) -> int:
    return int(result[0] is not None)


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One wrapped public function.

    ``target`` picks the object from ``(cache, bench)``; a class is
    patched at class level.  ``pages`` is the name of the argument
    holding a page count, or a fixed page count.  ``outcome`` maps the
    return value to the span's value (1 for a hit, or a count).
    """

    layer: str
    method: str
    target: Callable[[HybridCache, object], object]
    pages: object = None
    outcome: Optional[Callable[[object], int]] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.method}"


def _bounds(layer, target, *methods, pages=None, outcomes=None) -> List[Boundary]:
    outcomes = outcomes or {}
    page_of = pages if isinstance(pages, dict) else dict.fromkeys(methods, pages)
    return [
        Boundary(layer, m, target, page_of.get(m), outcomes.get(m)) for m in methods
    ]


BOUNDARIES: List[Boundary] = [
    *_bounds("replay", lambda c, b: b, "run"),
    *_bounds(
        "hybrid", lambda c, b: c, "get", "set", "delete",
        outcomes={"get": lambda r: int(r.where != MISS)},
    ),
    *_bounds(
        "dram", lambda c, b: c.dram, "get", "set", "delete",
        outcomes={"get": _hit, "set": len},
    ),
    *_bounds("admission", lambda c, b: c.config.admission, "admit", outcomes={"admit": int}),
    *_bounds(
        "soc", lambda c, b: c.soc, "lookup", "insert", "invalidate", "delete",
        outcomes={"lookup": _engine_hit},
    ),
    # BloomFilter uses __slots__, so its instances cannot be shadowed.
    *_bounds(
        "bloom", lambda c, b: BloomFilter, "may_contain", "add", "rebuild",
        outcomes={"may_contain": int},
    ),
    *_bounds(
        "loc", lambda c, b: c.loc, "lookup", "insert", "invalidate", "delete",
        outcomes={"lookup": _engine_hit},
    ),
    *_bounds(
        "io", lambda c, b: c.io, "read", "write", "deallocate", "submit_batch",
        pages={"read": "npages", "write": "npages", "deallocate": "npages"},
    ),
    *_bounds(
        "ssd", lambda c, b: c.device, "read", "write", "deallocate",
        "submit_batch", "submit_async", "poll",
        pages={m: "npages" for m in ("read", "write", "deallocate", "submit_async")},
    ),
    # Ftl.write forwards to write_range, which counts the pages; GC has
    # no public boundary, so its time is ftl self time.
    *_bounds(
        "ftl", lambda c, b: c.device.ftl, "write", "write_range", "read",
        "read_range", "deallocate",
        pages={"write_range": "npages", "read": 1, "read_range": "npages",
               "deallocate": "npages"},
    ),
    *_bounds("sched", lambda c, b: c.device.scheduler, "submit", "poll"),
]

LAYERS: List[str] = list(dict.fromkeys(b.layer for b in BOUNDARIES))

# Layer metrics derived from spans and the program's own counters, with
# (unit, better).
_DERIVED: Dict[str, Tuple[str, str]] = {
    "hybrid.get.p50_us": ("us", "lower"),
    "hybrid.get.p99_us": ("us", "lower"),
    "hybrid.set.p50_us": ("us", "lower"),
    "hybrid.set.p99_us": ("us", "lower"),
    "dram.hit_ratio": ("ratio", "higher"),
    "dram.evictions": ("count", "lower"),
    "admission.admit_ratio": ("ratio", "lower"),
    "soc.flash_read_ratio": ("ratio", "lower"),
    "soc.read_hit_ratio": ("ratio", "higher"),
    "soc.write_pages": ("pages", "lower"),
    "bloom.rebuild.keys": ("count", "lower"),
    "bloom.reject_ratio": ("ratio", "higher"),
    "loc.flash_read_ratio": ("ratio", "lower"),
    "loc.read_hit_ratio": ("ratio", "higher"),
    "loc.write_pages": ("pages", "lower"),
    "io.retries": ("count", "lower"),
    "ftl.host_pages": ("pages", "lower"),
    "ftl.nand_pages": ("pages", "lower"),
    "ftl.gc_relocated_pages": ("pages", "lower"),
    "ftl.gc_victims": ("count", "lower"),
    "sched.gc_blocked_commands": ("count", "lower"),
    "sched.host_wait_ns": ("ns", "lower"),
    "sched.backlog_ms_end": ("ms", "lower"),
    "setup.build_s": ("s", "lower"),
    "setup.trace_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    specs = [(f"{b.name}.calls", "count", "lower") for b in BOUNDARIES]
    specs += [(f"{b.name}.pages", "pages", "lower") for b in BOUNDARIES if b.pages]
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.share", "ratio", "lower")]
    specs += [(name, unit, better) for name, (unit, better) in _DERIVED.items()]
    return specs


class HybridObserver:
    """Stale-read oracle and op numbering at the ``HybridCache`` boundary.

    A shadow map keeps each key's last-set size; every GET hit, from
    any layer, must return exactly that size.  Op numbering follows the
    replay loop: each top-level call starts a new op, except the SET
    that fills a GET miss of the same key.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.shadow: Dict[int, int] = {}
        self.violations: List[str] = []
        self.stale_reads = 0
        self.last_arrival_ns = 0
        self.last_completion_ns = 0
        self._missed_key: Optional[int] = None

    def _arrive(self, args: tuple, kwargs: dict, index: int) -> None:
        now = args[index] if len(args) > index else kwargs.get("now_ns", 0)
        if now > self.last_arrival_ns:
            self.last_arrival_ns = now

    def before_get(self, args, kwargs) -> None:
        if self.log.depth() == 1:
            self.log.op_index += 1
            self._arrive(args, kwargs, 1)

    def after_get(self, args, kwargs, result) -> None:
        key = args[0]
        self._missed_key = key if result.where == MISS else None
        if result.where != MISS:
            want = self.shadow.get(key)
            if want != result.item.size:
                self.stale_reads += 1
                if len(self.violations) < 5:
                    self.violations.append(
                        f"op {self.log.op_index}: GET {key} hit in "
                        f"{result.where} with size {result.item.size}, "
                        f"last set size {want}"
                    )

    def before_set(self, args, kwargs) -> None:
        if self.log.depth() == 1:
            if args[0] != self._missed_key:
                self.log.op_index += 1
                self._arrive(args, kwargs, 2)
            self._missed_key = None

    def after_set(self, args, kwargs, result) -> None:
        self.shadow[args[0]] = args[1] if len(args) > 1 else kwargs["size"]

    def before_delete(self, args, kwargs) -> None:
        if self.log.depth() == 1:
            self.log.op_index += 1
            self._arrive(args, kwargs, 1)
            self._missed_key = None

    def after_delete(self, args, kwargs, result) -> None:
        self.shadow.pop(args[0], None)

    def after_poll(self, args, kwargs, completions) -> None:
        """Track the scheduler's latest completion: the device busy horizon."""
        for comp in completions:
            if comp.complete_ns > self.last_completion_ns:
                self.last_completion_ns = comp.complete_ns


def _page_getter(func, pages) -> Optional[Callable[[tuple, dict], int]]:
    """Build the span-value function for a page-count argument."""
    if pages is None:
        return None
    if isinstance(pages, int):
        return lambda args, kwargs: pages
    params = inspect.signature(func).parameters
    pos = list(params).index(pages)
    default = params[pages].default
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs.get(pages, default)


def attach(log: SpanLog, cache: HybridCache, bench: object) -> HybridObserver:
    """Wrap every layer boundary of ``cache`` (and ``bench.run``)."""
    observer = HybridObserver(log)
    hooks = {
        "hybrid.get": (observer.before_get, observer.after_get),
        "hybrid.set": (observer.before_set, observer.after_set),
        "hybrid.delete": (observer.before_delete, observer.after_delete),
        "sched.poll": (None, observer.after_poll),
    }
    try:
        for b in BOUNDARIES:
            target = b.target(cache, bench)
            if target is None:  # no scheduler attached
                continue
            before, after = hooks.get(b.name, (None, None))
            log.wrap(
                target,
                b.method,
                b.name,
                value_of_call=_page_getter(getattr(target, b.method), b.pages),
                value_of_result=b.outcome,
                before=before,
                after=after,
            )
    except BaseException:
        log.restore()
        raise
    return observer


def boundary_state(cache: HybridCache, bench: object) -> Dict[str, object]:
    """What each boundary's owner holds under the method's name itself.

    Equal before and after a traced run exactly when every wrapper was
    removed again.
    """
    state = {}
    for b in BOUNDARIES:
        target = b.target(cache, bench)
        if target is not None:
            state[b.name] = vars(target).get(b.method)
    return state


def _percentile_us(durations_ns: np.ndarray, q: float) -> float:
    return float(np.percentile(durations_ns, q)) / 1e3 if len(durations_ns) else 0.0


def _lookup_reads(cols: Dict[str, np.ndarray], names: List[str], engine: str) -> Tuple[np.ndarray, int]:
    """``engine.lookup`` spans that issued an ``io.read``, and the pages those reads moved."""
    lookup = f"{engine}.lookup"
    if lookup not in names or "io.read" not in names:
        return np.empty(0, dtype=np.int64), 0
    name_ids, parent = cols["name"], cols["parent"]
    reads = np.flatnonzero(name_ids == names.index("io.read"))
    reads = reads[parent[reads] >= 0]
    under = reads[name_ids[parent[reads]] == names.index(lookup)]
    return np.unique(parent[under]), int(cols["value"][under].sum())


def layer_metrics(log: SpanLog, cache: HybridCache, observer: HybridObserver) -> Dict[str, float]:
    """Per-layer metrics from the spans and the program's counters."""
    cols = log.columns()
    name_ids, parent, value = cols["name"], cols["parent"], cols["value"]
    names = log.names
    n_names = len(names)
    selfs = self_times(cols["start"], cols["end"], parent)
    calls = np.bincount(name_ids, minlength=n_names)
    values = np.bincount(name_ids, weights=value, minlength=n_names)
    layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
    layer_self = np.bincount(layer_of_name[name_ids], weights=selfs, minlength=len(LAYERS))
    total_self = float(layer_self.sum())
    # Name id of each span's parent (-1 for the root).
    parent_name = np.where(parent >= 0, name_ids[np.maximum(parent, 0)], -1)

    def nid(name: str) -> int:
        return names.index(name) if name in names else -1

    def count(name: str) -> int:
        i = nid(name)
        return int(calls[i]) if i >= 0 else 0

    def total(name: str) -> int:
        i = nid(name)
        return int(values[i]) if i >= 0 else 0

    def spans_of(name: str) -> np.ndarray:
        return np.flatnonzero(name_ids == nid(name))

    out: Dict[str, float] = {}
    for b in BOUNDARIES:
        out[f"{b.name}.calls"] = count(b.name)
    for b in BOUNDARIES:
        if b.pages:
            out[f"{b.name}.pages"] = total(b.name)
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(layer_self[i]) / 1e9
        out[f"{layer}.share"] = float(layer_self[i]) / total_self if total_self else 0.0

    for op in ("get", "set"):
        idx = spans_of(f"hybrid.{op}")
        dur = cols["end"][idx] - cols["start"][idx]
        out[f"hybrid.{op}.p50_us"] = _percentile_us(dur, 50)
        out[f"hybrid.{op}.p99_us"] = _percentile_us(dur, 99)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["dram.hit_ratio"] = ratio(total("dram.get"), count("dram.get"))
    out["dram.evictions"] = total("dram.set")
    out["admission.admit_ratio"] = ratio(total("admission.admit"), count("admission.admit"))
    write_spans = spans_of("io.write")
    for engine in ("soc", "loc"):
        # Lookups that issued at least one io.read, and which of them hit.
        readers, _ = _lookup_reads(cols, names, engine)
        out[f"{engine}.flash_read_ratio"] = ratio(len(readers), count(f"{engine}.lookup"))
        out[f"{engine}.read_hit_ratio"] = ratio(int(value[readers].sum()), len(readers))
        engine_ids = [nid(f"{engine}.{m}") for m in ("insert", "delete", "lookup")]
        mine = np.isin(parent_name[write_spans], engine_ids)
        out[f"{engine}.write_pages"] = int(value[write_spans][mine].sum())
    add_spans = spans_of("bloom.add")
    out["bloom.rebuild.keys"] = int(np.count_nonzero(parent_name[add_spans] == nid("bloom.rebuild")))
    out["bloom.reject_ratio"] = ratio(
        count("bloom.may_contain") - total("bloom.may_contain"), count("bloom.may_contain")
    )
    out["io.retries"] = cache.io.read_retries + cache.io.write_retries

    device = cache.device
    stats = device.stats
    out["ftl.host_pages"] = stats.host_pages_written
    out["ftl.nand_pages"] = stats.nand_pages_written
    out["ftl.gc_relocated_pages"] = device.events.media_relocated_pages
    out["ftl.gc_victims"] = stats.gc_victim_selections
    sched = device.scheduler
    out["sched.gc_blocked_commands"] = sched.gc_blocked_commands if sched else 0
    out["sched.host_wait_ns"] = sched.host_wait_ns if sched else 0
    backlog_ns = observer.last_completion_ns - observer.last_arrival_ns
    out["sched.backlog_ms_end"] = max(0, backlog_ns) / 1e6
    return out


def reconcile(
    log: SpanLog, metrics: Dict[str, float], cache: HybridCache, traced_wall_s: float
) -> None:
    """Span counts must match the program's own counters.

    A bound method hoisted past its wrapper would under-count a layer;
    these checks make that fail instead.  Every layer with a counter of
    its own is paired: hybrid, DRAM, SOC and LOC lookups, the flash
    reads those lookups issued, the device layer's bytes, the FTL's
    pages and the scheduler's submissions.
    """
    device = cache.device
    sched = device.scheduler
    dram = cache.dram
    cols = log.columns()
    soc_readers, _ = _lookup_reads(cols, log.names, "soc")
    _, loc_read_pages = _lookup_reads(cols, log.names, "loc")
    pairs = [
        ("hybrid.get.calls", metrics["hybrid.get.calls"], cache.gets),
        ("hybrid.set.calls", metrics["hybrid.set.calls"], cache.sets),
        ("hybrid.delete.calls", metrics["hybrid.delete.calls"], cache.deletes),
        ("dram.get.calls", metrics["dram.get.calls"], dram.hits + dram.misses),
        ("dram.evictions", metrics["dram.evictions"], dram.evictions),
        ("soc.lookup.calls", metrics["soc.lookup.calls"], cache.soc.lookups),
        ("soc lookups that read flash", len(soc_readers), cache.soc.flash_reads),
        ("loc.lookup.calls", metrics["loc.lookup.calls"], cache.loc.lookups),
        ("loc lookup read pages", loc_read_pages, cache.loc.flash_reads),
        ("io.write.pages", metrics["io.write.pages"] * device.page_size,
         cache.io.bytes_written),
        ("ftl.write_range.pages", metrics["ftl.write_range.pages"],
         device.stats.host_pages_written),
        ("ftl.read.pages + ftl.read_range.pages",
         metrics["ftl.read.pages"] + metrics["ftl.read_range.pages"],
         device.stats.host_pages_read),
        ("sched.submit.calls", metrics["sched.submit.calls"],
         sum(q["submitted"] for q in sched.stats_dict()["queues"].values()) if sched else 0),
    ]
    for name, traced, counted in pairs:
        if traced != counted:
            raise GateFailure("span_reconciliation", f"{name}: traced {traced} != program {counted}")
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(self_sum - traced_wall_s) > SELF_TIME_TOLERANCE * traced_wall_s:
        raise GateFailure(
            "span_reconciliation",
            f"layer self times sum to {self_sum:.4f} s, traced wall is "
            f"{traced_wall_s:.4f} s (tolerance {SELF_TIME_TOLERANCE:.0%})",
        )

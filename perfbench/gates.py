"""Correctness gates run after every replay, traced or not.

Each gate raises :class:`GateFailure` naming the check that failed, so
the benchmark stops with that name instead of reporting a number from
a run whose outputs are wrong.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.metrics import RunResult
from repro.cache.hybrid import HybridCache

__all__ = ["GateFailure", "error_count", "fingerprint", "check_run", "check_identical"]


class GateFailure(Exception):
    """A correctness check failed; ``check`` names it."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


def error_count(result: RunResult) -> int:
    """Ops that hit a media error or lost their flash write."""
    return result.read_errors + result.write_errors + result.write_drops


def fingerprint(result: RunResult) -> Dict[str, object]:
    """The simulated outputs that must repeat exactly for one seed."""
    return {
        "dlwa": result.dlwa,
        "hit_ratio": result.hit_ratio,
        "alwa": result.alwa,
        "p99_read_us": result.p99_read_us,
        "throughput_kops": result.throughput_kops,
        "host_pages_written": result.host_pages_written,
        "nand_pages_written": result.nand_pages_written,
        "gc_relocated_pages": result.gc_relocated_pages,
    }


def check_run(cache: HybridCache, result: RunResult) -> None:
    """Device invariants, the NAND page ledger, and zero errors."""
    device = cache.device
    try:
        device.check_invariants()
    except AssertionError as exc:
        raise GateFailure("device.check_invariants", str(exc)) from exc
    stats = device.stats
    expected = (
        stats.host_pages_written
        + result.gc_relocated_pages
        + stats.scrub_pages_relocated
    )
    if stats.nand_pages_written != expected:
        raise GateFailure(
            "nand_page_ledger",
            f"nand {stats.nand_pages_written} != host {stats.host_pages_written}"
            f" + gc {result.gc_relocated_pages}"
            f" + scrub {stats.scrub_pages_relocated}",
        )
    errors = error_count(result)
    if errors:
        raise GateFailure(
            "error_ratio",
            f"{errors} errors in {result.ops} ops on a fault-free device",
        )


def check_identical(check: str, first: Dict[str, object], other: Dict[str, object]) -> None:
    """Two fingerprints of the same seeded replay must match bit for bit."""
    diffs = {k: (first[k], other[k]) for k in first if first[k] != other[k]}
    if diffs:
        raise GateFailure(check, f"simulated outputs differ: {diffs}")

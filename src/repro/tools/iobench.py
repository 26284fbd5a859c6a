"""fio-style micro-benchmark for the simulated device's write paths.

Measures raw FTL submission throughput (simulator wall-clock, not
simulated time) for the three ways a host can push the same pages:

* ``batched``   — multi-page commands down the extent fast path;
* ``scalar``    — the same multi-page commands forced through the
  reference per-page loop (``io_path="scalar"``);
* ``per-page``  — one single-page command per page, the pre-batching
  caller pattern.

The batched-vs-per-page ratio is the speedup the batching PR claims
(benchmarks/test_batch_throughput.py asserts it stays >= 3x)::

    python -m repro.tools.iobench
    python -m repro.tools.iobench --commands 20000 --npages 32
"""

from __future__ import annotations

import argparse
import gc
import random
import time
from typing import Dict, List, Optional

from ..ssd.device import SimulatedSSD
from ..ssd.geometry import Geometry

__all__ = ["run_case", "main"]


def _build_device(io_path: str, num_superblocks: int) -> SimulatedSSD:
    geometry = Geometry(
        page_size=4096,
        pages_per_block=32,
        planes_per_die=2,
        dies=2,
        num_superblocks=num_superblocks,
        op_fraction=0.07,
    )
    return SimulatedSSD(geometry, fdp=True, io_path=io_path)


def run_case(
    label: str,
    io_path: str,
    *,
    commands: int,
    npages: int,
    seed: int = 1234,
    num_superblocks: int = 256,
    split: bool = False,
    pattern: str = "seq",
) -> Dict[str, object]:
    """Time one submission pattern; returns pages/s and DLWA.

    ``split=True`` issues each command as ``npages`` single-page
    writes (the per-page caller pattern); the command stream — LBAs
    and total pages — is identical either way, so the simulated media
    state matches across cases and only host-side CPU cost differs.

    ``pattern="seq"`` wraps sequentially through the logical space
    (the LOC region-flush pattern, DLWA ~1: submission cost dominates,
    which is what batching accelerates).  ``pattern="rand"`` overwrites
    random extents; past the first device wrap that run is bounded by
    per-page GC migration, which the batched submission path does not
    claim to speed up.
    """
    device = _build_device(io_path, num_superblocks)
    geometry = device.geometry
    if pattern == "seq":
        span = geometry.logical_pages
        lbas = []
        cursor = 0
        for _ in range(commands):
            if cursor + npages > span:
                cursor = 0
            lbas.append(cursor)
            cursor += npages
    elif pattern == "rand":
        span = geometry.logical_pages - npages
        rng = random.Random(seed)
        lbas = [rng.randrange(0, span) for _ in range(commands)]
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    now = 0
    # Collect leftovers from prior cases and pause the cycle collector
    # for the timed region: a generational pass landing mid-run taxes a
    # short case proportionally more than a long one, which would skew
    # the cross-case ratios this tool exists to measure.  (Refcounting
    # still frees the per-command garbage; only cycle detection waits.)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if split:
            for lba in lbas:
                for i in range(npages):
                    now = device.write(lba + i, 1, now_ns=now)
        else:
            for lba in lbas:
                now = device.write(lba, npages, now_ns=now)
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    pages = commands * npages
    return {
        "label": label,
        "pages": pages,
        "wall_s": wall,
        "pages_per_s": pages / wall if wall else float("inf"),
        "dlwa": device.dlwa,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.iobench",
        description="Micro-benchmark the batched vs per-page write paths.",
    )
    parser.add_argument("--commands", type=int, default=12_000)
    parser.add_argument("--npages", type=int, default=32)
    parser.add_argument("--superblocks", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--pattern", choices=("seq", "rand"), default="seq",
        help="seq = LOC-like wrap (default); rand = GC-bound overwrites",
    )
    args = parser.parse_args(argv)
    kwargs = dict(
        commands=args.commands, npages=args.npages, seed=args.seed,
        num_superblocks=args.superblocks, pattern=args.pattern,
    )
    cases = [
        run_case("batched", "batched", **kwargs),
        run_case("scalar", "scalar", **kwargs),
        run_case("per-page", "scalar", split=True, **kwargs),
    ]
    baseline = cases[-1]["pages_per_s"]
    print(
        f"{'case':<10} {'pages':>10} {'wall(s)':>8} {'Mpages/s':>9} "
        f"{'DLWA':>6} {'vs per-page':>12}"
    )
    for case in cases:
        rate = case["pages_per_s"]
        print(
            f"{case['label']:<10} {case['pages']:>10} "
            f"{case['wall_s']:>8.2f} {rate / 1e6:>9.2f} "
            f"{case['dlwa']:>6.2f} {rate / baseline:>11.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

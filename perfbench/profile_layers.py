"""Cross-check the traced layer ranking with cProfile.

Replays one workload untraced under ``cProfile`` and groups self time
by the ``repro`` module each function lives in, so the ranking can be
compared with the per-layer self times of ``run.py --trace 1``.

    python3 perfbench/profile_layers.py --workload twitter-gc

cProfile charges a cost to every call, so shares differ from the span
trace; only the order of the top layers is expected to agree.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
from collections import defaultdict

from run import _load_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/profile_layers.py")
    parser.add_argument("--workload", default="twitter-gc")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    _load_program()
    from scenarios import WORKLOADS, setup_arm, trace_seed

    workload = WORKLOADS[args.workload]
    cache, trace, _, _ = setup_arm(workload, trace_seed(args.seed))
    bench = workload.bench()
    profiler = cProfile.Profile()
    profiler.runcall(bench.run, cache, trace)

    by_module = defaultdict(float)
    for (path, _line, _func), (_cc, _nc, tottime, _ct, _callers) in pstats.Stats(profiler).stats.items():
        marker = "/repro/"
        module = path.split(marker, 1)[1][:-3].replace("/", ".") if marker in path else "other"
        by_module[module] += tottime
    total = sum(by_module.values())
    for module, seconds in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"{module:<28} {seconds:8.3f} s {seconds / total:7.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

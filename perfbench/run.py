"""Replay benchmark for the FDP flash-cache simulator.

Replays one named workload through ``build_experiment`` -> ``make_trace``
-> ``CacheBench.run`` in this single-threaded process and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

    python3 perfbench/run.py --workload twitter-gc --seed 3 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics: host replay speed,
set-up time and peak memory, and the simulator's own outputs (DLWA,
hit ratio, ALWA, simulated p99 and throughput).  ``--trace 1`` replays
once plainly and once with every layer boundary wrapped, and reports
per-layer self time, call and page counts and ratios; its spans are
written to ``.perfbench_out/`` under the checkout root.

Every replay must pass the gates in ``gates.py``; a failed gate exits
with status 1 and names the check.  Run from the root of a checkout;
``NOTES.md`` describes the workloads, metrics and gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _load_program() -> None:
    """Put the checkout's own ``src`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {SRC / 'repro'} is missing; run from the root of a full checkout"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload index i; the trace seed is point_seed('benchmark', i)",
    )
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from gates import GateFailure
    from layers import metric_specs
    from measure import END_TO_END, run_traced, run_untraced
    from scenarios import WORKLOADS, trace_seed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = trace_seed(args.seed)
    print(f"workload {workload.name} (seed index {args.seed} -> {seed}): {workload.config_dict()}")
    try:
        if args.trace:
            metrics, attempted, failed, lines = run_traced(workload, seed, OUT_DIR)
            units = {name: unit for name, unit, _ in metric_specs()}
        else:
            metrics, attempted, failed, lines = run_untraced(workload, seed, args.seconds)
            units = END_TO_END
    except GateFailure as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

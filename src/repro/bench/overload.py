"""The standing scenario × FDP regression matrix.

:func:`scenario_matrix` replays every
:data:`~repro.workloads.adversarial.SCENARIOS` row × FDP on/off
through :func:`~repro.bench.parallel.run_sweep`, reporting DLWA, p99,
and miss ratio per cell.  Failures come back as
:class:`~repro.bench.parallel.PointFailure` records carrying the full
point parameterization.  The flash-crowd overload soak itself lives in
:mod:`repro.bench.soak`.

CLI::

    python -m repro.bench.soak overload-matrix
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..workloads.adversarial import SCENARIOS, build_scenario
from .metrics import RunResult
from .parallel import PointFailure, SweepPoint, run_sweep
from .runner import Scale, point_seed

__all__ = ["MATRIX_SCALE", "MATRIX_OPS", "matrix_points", "scenario_matrix"]

# Single-device scale for matrix cells: small enough that 12 cells
# finish in CI minutes, large enough to wrap the device under GC (at
# 60k ops the Non-FDP arm's DLWA reaches ~1.2 while FDP holds 1.0, so
# the cells discriminate placement).  The matrix base arrival interval
# is gentler than the soak's: run_experiment has no multi-queue
# scheduler, so GC stalls block the whole device — 400 µs keeps benign
# cells out of runaway queueing while adversarial rows still hurt.
MATRIX_SCALE = Scale(num_superblocks=128)
MATRIX_OPS = 60_000
MATRIX_INTERVAL_NS = 400_000


def matrix_points(
    *,
    num_ops: int = MATRIX_OPS,
    scale: Scale = MATRIX_SCALE,
    utilization: float = 0.9,
) -> List[SweepPoint]:
    """One sweep point per (scenario, FDP) cell.

    Paired cells (the FDP on/off arms of one scenario) share a
    ``point_seed`` derived from the scenario row, so each row compares
    placement on byte-identical adversarial traffic.
    """
    points = []
    for row, name in enumerate(SCENARIOS):
        seed = point_seed("overload_matrix", row)
        scenario = build_scenario(
            name, seed=seed, base_interval_ns=MATRIX_INTERVAL_NS
        )
        for fdp in (False, True):
            points.append(
                SweepPoint(
                    "overload_matrix",
                    len(points),
                    "kvcache",
                    {
                        "fdp": fdp,
                        "utilization": utilization,
                        "scale": scale,
                        "num_ops": num_ops,
                        "seed": seed,
                        "scenario": scenario,
                        "name": f"{name} {'FDP' if fdp else 'Non-FDP'}",
                    },
                )
            )
    return points


def scenario_matrix(
    *,
    num_ops: int = MATRIX_OPS,
    scale: Scale = MATRIX_SCALE,
    utilization: float = 0.9,
    workers: Optional[int] = None,
) -> List[Union[RunResult, PointFailure]]:
    """Run the scenario × FDP matrix; failures recorded, not raised."""
    return run_sweep(
        matrix_points(
            num_ops=num_ops, scale=scale, utilization=utilization
        ),
        workers=workers,
        on_error="record",
    )

"""Trace container and on-disk format.

A trace is three parallel numpy arrays (op, key, size) — the layout the
bench driver iterates — plus save/load in a simple gzipped CSV format
(``op,key,size`` per line) compatible with external tooling, in the
spirit of the CacheBench trace-replay inputs.

A trace may additionally carry a per-op **arrival schedule**
(``arrivals_ns``): absolute simulated arrival times, one per op,
nondecreasing.  Stationary traces leave it ``None`` and the replay
drivers fall back to their fixed-interval / closed-loop clocks; the
adversarial transforms (:mod:`repro.workloads.adversarial`) attach a
schedule so diurnal waves and flash-crowd rate spikes survive slicing
and composition as part of the trace itself.
"""

from __future__ import annotations

import dataclasses
import gzip
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

__all__ = [
    "OP_GET",
    "OP_SET",
    "OP_DEL",
    "OP_NAMES",
    "Trace",
    "Request",
    "as_arrival_schedule",
]

OP_GET = 0
OP_SET = 1
OP_DEL = 2
OP_NAMES = {OP_GET: "get", OP_SET: "set", OP_DEL: "del"}
_OP_CODES = {name: code for code, name in OP_NAMES.items()}

Request = Tuple[int, int, int]  # (op, key, size)


def as_arrival_schedule(values, name: str) -> np.ndarray:
    """``values`` as an int64 arrival schedule, or ``ValueError``.

    A schedule is 1-D, non-negative and nondecreasing; ``name`` labels
    the error.  Traces and replay configs validate schedules here.
    """
    schedule = np.asarray(values, dtype=np.int64)
    if schedule.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if len(schedule) and (
        int(schedule[0]) < 0 or bool(np.any(np.diff(schedule) < 0))
    ):
        raise ValueError(f"{name} must be non-negative and nondecreasing")
    return schedule


@dataclasses.dataclass
class Trace:
    """An immutable request stream.

    Attributes
    ----------
    ops:
        uint8 array of op codes (``OP_GET``/``OP_SET``/``OP_DEL``).
    keys:
        int64 array of object keys.
    sizes:
        int64 array of object sizes in bytes (meaningful for GET too:
        the driver uses it for fill-on-miss).
    name:
        Human-readable workload label.
    arrivals_ns:
        Optional int64 array of absolute per-op arrival times
        (nondecreasing).  ``None`` for stationary traces; set by the
        adversarial timing transforms and consumed by open-loop replay.
    """

    ops: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    name: str = "trace"
    arrivals_ns: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not (len(self.ops) == len(self.keys) == len(self.sizes)):
            raise ValueError("ops/keys/sizes must have equal length")
        self.ops = np.asarray(self.ops, dtype=np.uint8)
        self.keys = np.asarray(self.keys, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if len(self.sizes) and int(self.sizes.min()) <= 0:
            raise ValueError("all sizes must be positive")
        bad = set(np.unique(self.ops)) - set(OP_NAMES)
        if bad:
            raise ValueError(f"unknown op codes: {sorted(bad)}")
        if self.arrivals_ns is not None:
            self.arrivals_ns = as_arrival_schedule(
                self.arrivals_ns, "arrivals_ns"
            )
            if len(self.arrivals_ns) != len(self.ops):
                raise ValueError("arrivals_ns must match the op count")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Request]:
        for op, key, size in zip(
            self.ops.tolist(), self.keys.tolist(), self.sizes.tolist()
        ):
            yield op, key, size

    def slice(self, start: int, stop: int) -> "Trace":
        """A view-like sub-trace (arrays are numpy slices)."""
        return Trace(
            self.ops[start:stop],
            self.keys[start:stop],
            self.sizes[start:stop],
            name=f"{self.name}[{start}:{stop}]",
            arrivals_ns=(
                None
                if self.arrivals_ns is None
                else self.arrivals_ns[start:stop]
            ),
        )

    def slice_indices(self, indices, name: str = "") -> "Trace":
        """A sub-trace of the given row indices, order preserved.

        Fancy-indexed (copies, unlike :meth:`slice`); the fleet's
        partitioned replay uses this to split one trace into per-shard
        subsequences.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return Trace(
            self.ops[idx],
            self.keys[idx],
            self.sizes[idx],
            name=name or f"{self.name}[{len(idx)} rows]",
            arrivals_ns=(
                None if self.arrivals_ns is None else self.arrivals_ns[idx]
            ),
        )

    # ------------------------------------------------------------------
    # summary statistics (used by tests and examples)
    # ------------------------------------------------------------------

    def op_counts(self) -> dict:
        """Requests per op name."""
        values, counts = np.unique(self.ops, return_counts=True)
        return {OP_NAMES[int(v)]: int(c) for v, c in zip(values, counts)}

    def get_set_ratio(self) -> float:
        """GETs per SET (the paper quotes 4:1 for KV Cache)."""
        counts = self.op_counts()
        sets = counts.get("set", 0)
        return counts.get("get", 0) / sets if sets else float("inf")

    def unique_keys(self) -> int:
        return int(np.unique(self.keys).size)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write as gzipped CSV: ``op,key,size[,arrival_ns]`` per line."""
        path = Path(path)
        with gzip.open(path, "wt") as fh:
            if self.arrivals_ns is None:
                fh.write("# op,key,size\n")
                for op, key, size in self:
                    fh.write(f"{OP_NAMES[op]},{key},{size}\n")
            else:
                fh.write("# op,key,size,arrival_ns\n")
                arrivals = self.arrivals_ns.tolist()
                for (op, key, size), at in zip(self, arrivals):
                    fh.write(f"{OP_NAMES[op]},{key},{size},{at}\n")

    @classmethod
    def load(cls, path: Union[str, Path], name: str = "") -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        ops, keys, sizes, arrivals = [], [], [], []
        with gzip.open(path, "rt") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split(",")
                ops.append(_OP_CODES[fields[0]])
                keys.append(int(fields[1]))
                sizes.append(int(fields[2]))
                if len(fields) > 3:
                    arrivals.append(int(fields[3]))
        return cls(
            np.array(ops, dtype=np.uint8),
            np.array(keys, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            name=name or path.stem,
            arrivals_ns=(
                np.array(arrivals, dtype=np.int64) if arrivals else None
            ),
        )

"""In-memory span log and the wrappers that feed it.

A span is one call into a layer's public function: its name, start and
end (``time.perf_counter_ns``), the span that was open when it started
(its parent), the replay op it belongs to, and one integer ``value``
(pages moved, or 1 when a lookup or test succeeded).  Spans live in
flat ``array`` columns so a few million of them stay compact, and are
written out once, when the run ends.

Wrappers are installed on live objects (an instance attribute shadows
the class method) or, for classes with ``__slots__``, on the class
itself.  :meth:`SpanLog.restore` removes every one of them.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SpanLog", "self_times"]

_MISSING = object()


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest properly, so the children's durations are
    exactly the part of the parent's interval that they cover.
    """
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


class SpanLog:
    """Records spans from wrapped functions; undoes every wrap on restore."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self._stack: List[int] = []
        #: Replay op index stamped on new spans (-1 before the first op).
        self.op_index = -1
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def depth(self) -> int:
        """Number of spans currently open."""
        return len(self._stack)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        target: object,
        attr: str,
        name: str,
        *,
        value_of_call: Optional[Callable[[tuple, dict], int]] = None,
        value_of_result: Optional[Callable[[object], int]] = None,
        before: Optional[Callable[[tuple, dict], None]] = None,
        after: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        """Replace ``target.attr`` with a span-recording wrapper.

        ``target`` is an instance (the wrapper shadows the class method
        on that object only) or a class (the wrapper replaces the
        method for every instance and receives ``self`` first).
        ``value_of_call`` sets the span's value from the arguments,
        ``value_of_result`` from the return value.  ``before`` runs
        before the span opens and ``after`` after it closes, so their
        cost lands in the parent's self time, like the wrapper's own.
        """
        original = getattr(target, attr)
        saved = vars(target).get(attr, _MISSING)
        nid = self._name_id(name)
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, ops, values, stack = self.parent, self.op, self.value, self._stack
        clock = time.perf_counter_ns
        log = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(log.op_index)
            values.append(0 if value_of_call is None else value_of_call(args, kwargs))
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value_of_result is not None:
                values[idx] = value_of_result(result)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(target, attr, wrapper)
        self._patches.append((target, attr, saved))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            target, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, saved)

    def columns(self) -> Dict[str, np.ndarray]:
        """The span columns as NumPy arrays (``name`` holds name ids)."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write the spans and their name table as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.columns())

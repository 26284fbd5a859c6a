"""Columnar out-of-band (spare-area) metadata store.

The FTL keeps one OOB record per physical page — the persistent ground
truth recovery rebuilds the mapping from.  The seed implementation held
a ``List[Optional[OobRecord]]``; profiling the extent fast path showed
that *constructing* one Python record object per programmed page was
the single largest cost of a multi-page write (≈6x the cost of the
actual mapping updates).  This module replaces the record list with a
struct-of-arrays store: seven parallel columns (mapped flag, LBA,
sequence number, stream, payload, integrity bit, CRC), so no Python
object is kept per page.

Compatibility is preserved exactly:

* ``store[ppn]`` returns ``None`` for an unprogrammed page or an
  :class:`OobView` — a tiny write-through proxy whose attributes
  (``lba``/``seq``/``stream``/``payload``/``ok``/``crc``) read and
  write the underlying columns.  Code that mutates a record in place
  (``rec.ok = False`` in the poison path) therefore still works.
* ``store[ppn] = OobRecord(...)`` / ``= None`` decomposes into the
  columns; slice assignment from a list of records (the batched extent
  path, erase wipes) does the same per element.
* Iteration and ``len()`` behave like the old list, so differential
  tests imaging the whole OOB area run unchanged.

The fast path is :meth:`OobStore.clear_range` (erase wipe).
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from .recovery import OobRecord

__all__ = ["OobStore", "OobView"]


class OobView:
    """Write-through view of one page's OOB record.

    Behaves like an :class:`~repro.ssd.recovery.OobRecord` for attribute
    access; mutations (the in-place ``ok = False`` quarantine) land in
    the backing columns.  Views are created on demand and never stored,
    so holding one across a mutation of the same page observes the
    mutation — exactly like holding a reference to the old shared
    record object did.
    """

    __slots__ = ("_store", "_ppn")

    def __init__(self, store: "OobStore", ppn: int) -> None:
        self._store = store
        self._ppn = ppn

    @property
    def lba(self) -> int:
        return self._store._lba[self._ppn]

    @lba.setter
    def lba(self, value: int) -> None:
        self._store._lba[self._ppn] = value

    @property
    def seq(self) -> int:
        return self._store._seq[self._ppn]

    @seq.setter
    def seq(self, value: int) -> None:
        self._store._seq[self._ppn] = value

    @property
    def stream(self) -> object:
        return self._store._stream[self._ppn]

    @stream.setter
    def stream(self, value: object) -> None:
        self._store._stream[self._ppn] = value

    @property
    def payload(self) -> object:
        return self._store._payload[self._ppn]

    @payload.setter
    def payload(self, value: object) -> None:
        self._store._payload[self._ppn] = value

    @property
    def ok(self) -> bool:
        return bool(self._store._ok[self._ppn])

    @ok.setter
    def ok(self, value: bool) -> None:
        self._store._ok[self._ppn] = 1 if value else 0

    @property
    def crc(self) -> Optional[int]:
        return self._store._crc[self._ppn]

    @crc.setter
    def crc(self, value: Optional[int]) -> None:
        self._store._crc[self._ppn] = value

    def record(self) -> OobRecord:
        """Materialize a standalone :class:`OobRecord` copy."""
        return OobRecord(
            self.lba, self.seq, self.stream, self.payload, self.ok, self.crc
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.ok else " TORN"
        return f"OobView(ppn={self._ppn}, lba={self.lba}, seq={self.seq}{flag})"


class OobStore:
    """Struct-of-arrays OOB metadata for ``total_pages`` physical pages."""

    __slots__ = (
        "_total",
        "_mapped",
        "_lba",
        "_seq",
        "_stream",
        "_payload",
        "_ok",
        "_crc",
    )

    def __init__(self, total_pages: int) -> None:
        self._total = total_pages
        # 0 = unprogrammed (the old list's None); 1 = record present.
        self._mapped = bytearray(total_pages)
        self._lba = array("i", bytes(4 * total_pages))
        self._seq = array("q", bytes(8 * total_pages))
        self._stream: List[object] = [None] * total_pages
        self._payload: List[object] = [None] * total_pages
        self._ok = bytearray(total_pages)
        self._crc: List[Optional[int]] = [None] * total_pages

    # -- list-compatible surface --------------------------------------

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        if self._mapped[index]:
            return OobView(self, index)
        return None

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._total)
            assert step == 1, "OobStore only supports contiguous slices"
            for i, rec in zip(range(start, stop), value):
                self._set_one(i, rec)
            return
        self._set_one(index, value)

    def _set_one(self, ppn: int, rec) -> None:
        if rec is None:
            self._mapped[ppn] = 0
            self._stream[ppn] = None
            self._payload[ppn] = None
            self._crc[ppn] = None
            self._ok[ppn] = 0
            return
        self._mapped[ppn] = 1
        self._lba[ppn] = rec.lba
        self._seq[ppn] = rec.seq
        self._stream[ppn] = rec.stream
        self._payload[ppn] = rec.payload
        self._ok[ppn] = 1 if rec.ok else 0
        self._crc[ppn] = rec.crc

    def __iter__(self):
        mapped = self._mapped
        for ppn in range(self._total):
            yield OobView(self, ppn) if mapped[ppn] else None

    # -- fast path -----------------------------------------------------

    def clear_range(self, base: int, count: int) -> None:
        """Erase wipe: return ``count`` pages to the unprogrammed state."""
        end = base + count
        self._mapped[base:end] = bytes(count)
        self._ok[base:end] = bytes(count)
        self._stream[base:end] = [None] * count
        self._payload[base:end] = [None] * count
        self._crc[base:end] = [None] * count

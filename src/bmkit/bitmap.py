"""Buffer maps and the synthetic peers that produce them.

A buffer map is a window of ``n`` bits anchored at a chunk offset:
position ``i`` describes chunk ``offset + i``, so position 0 is the oldest
chunk still in the window and position ``n - 1`` the newest.  The age of
chunk ``c`` at a given map is therefore ``offset + n - 1 - c``.
"""

from __future__ import annotations

import numpy as np

from .errors import MonotonicityError
from .fillmodel import SCurve, sample_fill_delays

__all__ = ["BufferMap", "PeerBufferState", "check_monotone", "diff_new_fills"]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal(a, b)``: equal shapes, then the bytes compare first;
    only a mismatch compares the values, which decides when a bool array
    holds bytes other than 0 and 1."""
    return a.shape == b.shape and (a.tobytes() == b.tobytes() or not np.count_nonzero(a != b))


class BufferMap:
    """Immutable bitmap snapshot of one peer's buffer window."""

    __slots__ = ("offset", "bits")

    def __init__(self, offset: int, bits):
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        arr = np.asarray(bits, dtype=bool).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a one-dimensional, nonempty sequence")
        arr.flags.writeable = False
        self.offset = int(offset)
        self.bits = arr

    @classmethod
    def _owning(cls, offset: int, bits: np.ndarray) -> "BufferMap":
        """Map over a fresh bool array no one else holds, without copying
        or checking it; the array becomes read-only."""
        bits.setflags(write=False)
        bm = cls.__new__(cls)
        bm.offset = offset
        bm.bits = bits
        return bm

    @property
    def n(self) -> int:
        return self.bits.size

    @property
    def end(self) -> int:
        """One past the newest chunk id covered by the window."""
        return self.offset + self.bits.size

    def to_hex(self) -> str:
        return np.packbits(self.bits).tobytes().hex()

    @classmethod
    def from_hex(cls, offset: int, hexstr: str, n: int) -> "BufferMap":
        data = bytes.fromhex(hexstr)
        if len(data) != (n + 7) // 8:
            raise ValueError(f"hex bitmap has {len(data)} bytes, expected {(n + 7) // 8}")
        if data and data[-1] & ((1 << (8 * len(data) - n)) - 1):
            raise ValueError("padding bits past the window width must be zero")
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        if n <= 0:
            raise ValueError("bits must be a one-dimensional, nonempty sequence")
        # The unpacked array is fresh, so the map owns it without a copy;
        # the whole bytes unpack faster than a counted unpack.
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).view(bool)[:n]
        return cls._owning(int(offset), bits)

    def __eq__(self, other):
        return (
            isinstance(other, BufferMap)
            and self.offset == other.offset
            and _same_bits(self.bits, other.bits)
        )

    def __repr__(self):
        ones = int(self.bits.sum())
        return f"BufferMap(offset={self.offset}, n={self.n}, ones={ones})"


class PeerBufferState:
    """Generative peer: a sliding window over chunks whose fill delays are
    drawn once from the fill curve.

    The window advances one chunk per chunk-time; chunk ``c`` enters the
    window (at age 0) at time ``c - (base_offset + n - 1)``.  A chunk's bit is
    1 exactly when its age has reached its sampled fill delay, so bits never
    regress while a chunk stays in the window.
    """

    def __init__(self, peer_id, curve: SCurve, *, base_offset=0, rng=None):
        if base_offset < 0:
            raise ValueError("base_offset must be nonnegative")
        self.peer_id = peer_id
        self.curve = curve
        self.n = curve.n
        self.base_offset = int(base_offset)
        self._rng = rng if rng is not None else np.random.default_rng()
        # Delay of chunk (base_offset + k) lives at index k; n means "never
        # fills while in the window".
        self._delays = np.empty(0, dtype=np.int64)
        self._ages = np.arange(self.n - 1, -1, -1)

    def _ensure_delays(self, upto_chunk: int) -> None:
        need = upto_chunk - self.base_offset + 1
        if need <= self._delays.size:
            return
        # The first batch covers what is needed; later ones at least double
        # the table.  Split draws read the same stream, so every delay is
        # the same however the batches fall.
        grow = max(need - self._delays.size, self._delays.size)
        fresh = sample_fill_delays(self.curve, self._rng.random(grow))
        self._delays = np.concatenate([self._delays, fresh])

    def fill_delay(self, chunk_id: int) -> int:
        if chunk_id < self.base_offset:
            raise ValueError(f"chunk {chunk_id} predates this peer's stream")
        self._ensure_delays(chunk_id)
        return int(self._delays[chunk_id - self.base_offset])

    def snapshot(self, t: int) -> BufferMap:
        """Buffer map at time ``t`` (chunk-times since creation)."""
        if t < 0:
            raise ValueError("t must be at or after the state's creation time")
        end = t + self.n  # the window covers delays [t, end)
        if end > self._delays.size:
            self._ensure_delays(self.base_offset + end - 1)
        return BufferMap._owning(self.base_offset + t, self._delays[t:end] <= self._ages)


def check_monotone(prev: BufferMap, cur: BufferMap) -> None:
    """Raise :class:`MonotonicityError` if any chunk present in both windows
    went from filled in ``prev`` to unfilled in ``cur``."""
    if cur.offset < prev.offset:
        raise ValueError("current map must not start before the previous one")
    lo = cur.offset
    hi = min(prev.end, cur.end)
    if hi > lo:
        regressed = prev.bits[lo - prev.offset : hi - prev.offset] > cur.bits[: hi - lo]
        if np.count_nonzero(regressed):
            where = int(regressed.argmax()) + lo
            raise MonotonicityError(f"chunk {where} went from filled to unfilled")


def diff_new_fills(prev: BufferMap, cur: BufferMap) -> set:
    """Chunk ids filled in ``cur`` that were unfilled (or absent) in ``prev``.

    Raises :class:`MonotonicityError` if any chunk present in both windows
    went from filled back to unfilled.
    """
    check_monotone(prev, cur)
    # prev's bits over cur's window, zero past prev's end.
    seen = prev.bits[cur.offset - prev.offset : cur.end - prev.offset]
    new = cur.bits.copy()
    new[: seen.size] &= ~seen
    return set((np.flatnonzero(new) + cur.offset).tolist())

"""Buffer-map compression schemes built on synchronized support sets.

Three schemes share one wire envelope:

* ``sbms``  - every map is shipped whole, no shared state between
  messages.
* ``spbms`` - the sender never re-reports a position after announcing it
  filled.  Its *support set*, the chunk ids the receiver does not yet know
  filled, is therefore the previous map's unfilled positions plus the newly
  covered ones.  Each payload is the sender's bit at each support-set
  location of its window, in location order.
* ``ppbms`` - additionally, positions the counterpart has announced filled
  are never reported back.  Both peers of a pair maintain one shared support
  set, a bool mask, that every message in either direction updates.

Every ppbms message, sent or received, live or replayed from the reorder
archive, makes the same update (``_step``): append the window positions it
newly covers and purge those below its offset, read the payload off the
sender's bits (or write it into a window of ones at the receiver), then
clear the locations reported 1.  A message reports only support-set
locations inside its own window; members past it (the set covers both
peers' windows) stay for a later message.

Wire envelope (big-endian): 1-byte scheme tag, 4-byte offset, 2-byte
lbmr_seq, 2-byte cbmr_seq, 2-byte payload bit count, then the payload bits
packed most-significant-bit first and zero-padded to a byte boundary.
Readers reject nonzero padding, so each message has exactly one wire form.
"""

from __future__ import annotations

import copy
import struct
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .bitmap import BufferMap, check_monotone
from .errors import DesyncError, MissingReferenceError, MonotonicityError, ProtocolError

__all__ = [
    "SupportSet",
    "CompressedBM",
    "PartialBufferMap",
    "SpbmsEncoder",
    "SpbmsDecoder",
    "PpbmsSession",
    "sbms_encode",
    "sbms_decode",
    "pack_message",
    "unpack_envelope",
    "unpack_message",
    "unpack_stream",
    "HEADER_LEN",
]

HEADER_LEN = 11
_HEADER = struct.Struct(">BIHHH")
_SCHEME_TAGS = {"sbms": 1, "spbms": 2, "ppbms": 3}
_TAG_SCHEMES = {v: k for k, v in _SCHEME_TAGS.items()}
_RESYNC_FLAG = 0x80


# ======================================================================
# Support set
# ======================================================================

class SupportSet:
    """Chunk ids not yet known to be buffered, as a bool mask anchored at
    chunk id ``lo``: chunk ``lo + i`` is a member exactly when ``mask[i]``.

    The span may hold non-members at either end, so sets with the same
    members are equal whatever their anchors; memory follows the span.  The
    codecs anchor each set at the window offset, which makes a payload
    ``bits[mask[:n]]`` and the removal of reported locations a positional
    clear.  A published set is never changed: each ppbms update
    (``_advance``/``_step``) builds a new one, which makes archive
    snapshots free.  The spbms codecs derive theirs from the previous map.
    """

    __slots__ = ("lo", "mask")

    def __init__(self, locs=()):
        arr = np.asarray(locs, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("locations must be one-dimensional")
        if arr.size > 1 and np.any(np.diff(arr) <= 0):
            raise ValueError("locations must be strictly ascending")
        self.lo = int(arr[0]) if arr.size else 0
        self.mask = np.zeros(int(arr[-1]) + 1 - self.lo if arr.size else 0, dtype=bool)
        self.mask[arr - self.lo] = True

    @classmethod
    def _of(cls, lo: int, mask: np.ndarray) -> "SupportSet":
        out = cls.__new__(cls)
        out.lo = lo
        out.mask = mask
        return out

    @property
    def locs(self) -> np.ndarray:
        """Members as an ascending int64 array."""
        return np.flatnonzero(self.mask) + self.lo

    def __len__(self):
        return int(np.count_nonzero(self.mask))

    def __contains__(self, loc):
        i = loc - self.lo
        return 0 <= i < self.mask.size and bool(self.mask[i])

    def __eq__(self, other):
        if not isinstance(other, SupportSet):
            return False
        if self.lo == other.lo and self.mask.size == other.mask.size:
            return not np.count_nonzero(self.mask != other.mask)
        return np.array_equal(self.locs, other.locs)

    def __iter__(self):
        return iter(self.locs.tolist())

    def __repr__(self):
        return f"SupportSet({self.locs.tolist()!r})"


def _advance(ss: SupportSet, window_end, offset: int, cover_end: int):
    """Insert newly covered window positions and purge expired ones.

    ``window_end`` is the highest chunk id (exclusive) any earlier message
    covered, or None before the first message.  The result gets a fresh
    mask anchored at ``offset``, or higher where no member can lie, so a
    message far older than the set never widens it.
    """
    new_end = cover_end if window_end is None else max(window_end, cover_end)
    start = offset if window_end is None else max(window_end, offset)
    lo = max(offset, min(ss.lo, start))
    mask = np.zeros(max(new_end, ss.lo + ss.mask.size) - lo, dtype=bool)
    keep = ss.mask[max(lo - ss.lo, 0) :]
    at = max(ss.lo - lo, 0)
    mask[at : at + keep.size] = keep
    if start < cover_end:
        mask[start - lo : cover_end - lo] = True
    return SupportSet._of(lo, mask), new_end


def _step(ss: SupportSet, window_end, offset: int, n: int, bits=None, payload=None):
    """One message's update over the window [offset, offset + n): advance the
    set, read the payload off ``bits`` (sender, replay) or write ``payload``
    into a window of ones (receiver), then clear the locations reported 1.
    Returns (set, window_end, reported-location mask, mask of the locations
    reported 1, payload).
    """
    ss, window_end = _advance(ss, window_end, offset, offset + n)
    skip = ss.lo - offset  # window positions below the set's anchor: never members
    inside = ss.mask[: max(n - skip, 0)]
    if skip:
        win = np.zeros(n, dtype=bool)
        win[skip:] = inside
    else:
        win = inside.copy()
    if bits is None:
        bits = _fill(win, payload)
    else:
        payload = bits[win]
    ones = win & bits
    # ones[skip:] lies within inside, a view of _advance's own mask (no
    # published set changes), so the XOR clears exactly the reported ones.
    inside ^= ones[skip:]
    return ss, window_end, win, ones, payload


def _fill(win: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """A receiver's window: ``payload`` at the reported locations, else ones."""
    implied = int(np.count_nonzero(win))
    if payload.size != implied:
        raise DesyncError(
            f"payload carries {payload.size} bits but the support set implies {implied}"
        )
    bits = ~win
    bits[win] = payload
    return bits


def _check_offset(last_offset, offset: int):
    if last_offset is not None and offset < last_offset:
        raise ProtocolError(f"offset regressed from {last_offset} to {offset}")


def _check_bitmap(codec, bm: BufferMap, last_offset: int, what: str):
    """A sender's input checks: window width, offset progression and
    monotone filling against its previous bitmap."""
    if bm.n != codec.n:
        raise ProtocolError(f"bitmap width {bm.n} != {what} width {codec.n}")
    _check_offset(last_offset, bm.offset)
    if codec.last_bm is not None:
        try:
            check_monotone(codec.last_bm, bm)
        except MonotonicityError as exc:
            raise ProtocolError(f"non-monotone bitmap: {exc}") from exc


# ======================================================================
# Messages
# ======================================================================

@dataclass(frozen=True)
class CompressedBM:
    """One buffer-map message as it travels on the wire."""

    scheme: str
    offset: int
    lbmr_seq: int
    cbmr_seq: int
    payload: np.ndarray  # bool bits
    resync: bool = False

    def __post_init__(self):
        if self.scheme not in _SCHEME_TAGS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        bits = np.asarray(self.payload, dtype=bool)
        if bits.ndim != 1:
            raise ValueError("payload must be one-dimensional")
        object.__setattr__(self, "payload", bits)

    @classmethod
    def _of(cls, scheme, offset, lbmr_seq, cbmr_seq, payload, resync=False):
        """Message over a known scheme and a fresh 1-D bool payload the codec
        has just built, without the constructor's checks."""
        out = cls.__new__(cls)
        set_ = object.__setattr__  # the dataclass is frozen
        set_(out, "scheme", scheme)
        set_(out, "offset", offset)
        set_(out, "lbmr_seq", lbmr_seq)
        set_(out, "cbmr_seq", cbmr_seq)
        set_(out, "payload", payload)
        set_(out, "resync", resync)
        return out

    @property
    def n_bits(self) -> int:
        return int(self.payload.size)

    def __eq__(self, other):
        return (
            isinstance(other, CompressedBM)
            and self.scheme == other.scheme
            and self.offset == other.offset
            and self.lbmr_seq == other.lbmr_seq
            and self.cbmr_seq == other.cbmr_seq
            and self.resync == other.resync
            and np.array_equal(self.payload, other.payload)
        )


@dataclass(frozen=True)
class PartialBufferMap:
    """Statuses decoded from one ppbms message: exactly the reported
    locations, nothing else."""

    offset: int
    locations: np.ndarray
    bits: np.ndarray

    @property
    def pairs(self):
        return [(int(l), int(b)) for l, b in zip(self.locations, self.bits)]

    def filled(self) -> np.ndarray:
        """Chunk ids this message announced as buffered."""
        return self.locations[np.asarray(self.bits, dtype=bool)]

    def __eq__(self, other):
        return (
            isinstance(other, PartialBufferMap)
            and self.offset == other.offset
            and np.array_equal(self.locations, other.locations)
            and np.array_equal(self.bits, other.bits)
        )


def pack_message(msg: CompressedBM) -> bytes:
    if not 0 <= msg.offset < 2**32:
        raise ValueError("offset must fit in 4 bytes")
    if not (0 <= msg.lbmr_seq < 2**16 and 0 <= msg.cbmr_seq < 2**16):
        raise ValueError("sequence counters must fit in 2 bytes")
    if msg.n_bits >= 2**16:
        raise ValueError("payload too long for the 2-byte bit count")
    tag = _SCHEME_TAGS[msg.scheme] | (_RESYNC_FLAG if msg.resync else 0)
    head = _HEADER.pack(tag, msg.offset, msg.lbmr_seq, msg.cbmr_seq, msg.n_bits)
    body = np.packbits(msg.payload).tobytes()
    return head + body


def unpack_envelope(data: bytes, pos: int = 0):
    """Read the 11-byte envelope at ``pos``; returns (scheme, offset,
    lbmr_seq, cbmr_seq, n_bits, resync)."""
    if len(data) - pos < HEADER_LEN:
        raise ValueError("truncated message header")
    tag, offset, lbmr, cbmr, nbits = _HEADER.unpack_from(data, pos)
    scheme = _TAG_SCHEMES.get(tag & ~_RESYNC_FLAG)
    if scheme is None:
        raise ValueError(f"unknown scheme tag 0x{tag:02x}")
    return scheme, offset, lbmr, cbmr, nbits, bool(tag & _RESYNC_FLAG)


def unpack_message(data: bytes, pos: int = 0):
    """Decode one message starting at ``pos``; returns (message, next_pos)."""
    scheme, offset, lbmr, cbmr, nbits, resync = unpack_envelope(data, pos)
    end = pos + HEADER_LEN + (nbits + 7) // 8
    if len(data) < end:
        raise ValueError("truncated message payload")
    pad = -nbits % 8
    if pad and data[end - 1] & ((1 << pad) - 1):
        raise ValueError("padding bits past the payload must be zero")
    raw = np.frombuffer(data[pos + HEADER_LEN : end], dtype=np.uint8)
    bits = np.unpackbits(raw, count=nbits).view(bool)
    return CompressedBM._of(scheme, offset, lbmr, cbmr, bits, resync), end


def unpack_stream(data: bytes):
    pos = 0
    out = []
    while pos < len(data):
        msg, pos = unpack_message(data, pos)
        out.append(msg)
    return out


# ======================================================================
# SBMS: stateless whole-map shipping
# ======================================================================

def sbms_encode(bm: BufferMap) -> CompressedBM:
    """Wrap a whole buffer map."""
    return CompressedBM("sbms", bm.offset, 0, 0, bm.bits)


def sbms_decode(msg: CompressedBM, n: int) -> BufferMap:
    if msg.scheme != "sbms":
        raise ProtocolError(f"expected an sbms message, got {msg.scheme}")
    if msg.n_bits != n:
        raise DesyncError(f"expected {n} raw bits, got {msg.n_bits}")
    return BufferMap(msg.offset, msg.payload)


# ======================================================================
# SPBMS: per-sender support set
# ======================================================================

def _spbms_window(prev, offset: int, n: int) -> np.ndarray:
    """Support-set mask of the window at ``offset`` after map ``prev`` (None:
    a fresh stream): the unfilled positions of ``prev``, then the new ones."""
    win = np.ones(n, dtype=bool)
    shift = n if prev is None else offset - prev.offset
    if shift < n:
        np.invert(prev.bits[shift:], out=win[: n - shift])
    return win


class _SpbmsState:
    def __init__(self, n: int):
        if not 0 < n < 2**16:
            raise ValueError("window width must fit in the wire bit count")
        self.n = n
        self.last_bm = None  # the previous map; None on a fresh or resynced stream
        self.seq = 0

    @property
    def support_set(self) -> SupportSet:
        """The previous map's unfilled positions, built on demand."""
        prev = self.last_bm
        return SupportSet() if prev is None else SupportSet._of(prev.offset, ~prev.bits)


class _ReportsLocations:
    """A sending end that keeps its most recent message's window mask, from
    which the locations that message reported are derived on demand."""

    _last_window = None  # (offset, reported-location mask) of the most recent message

    @property
    def last_locations(self):
        """Locations reported by the most recent message, as int64, for
        diagnostics; None before the first message."""
        if self._last_window is None:
            return None
        offset, win = self._last_window
        return win.nonzero()[0] + offset


class SpbmsEncoder(_SpbmsState, _ReportsLocations):
    """Sender half of a one-direction spbms stream."""

    def encode(self, bm: BufferMap) -> CompressedBM:
        """Emit the bits of ``bm`` at every support-set location of its
        window, in location order; the first message carries the whole map."""
        prev = self.last_bm
        _check_bitmap(self, bm, None if prev is None else prev.offset, "codec")
        win = _spbms_window(prev, bm.offset, self.n)
        msg = CompressedBM._of("spbms", bm.offset, self.seq, 0, bm.bits[win])
        self.last_bm = bm
        self._last_window = (bm.offset, win)
        self.seq += 1
        return msg

    def make_resync(self, bm: BufferMap) -> CompressedBM:
        """Restart the stream: emit the whole bitmap and reset state, so the
        pair behaves exactly like a fresh bootstrap."""
        self.last_bm = None
        self.seq = 0
        return replace(self.encode(bm), resync=True)


class SpbmsDecoder(_SpbmsState):
    """Receiver half; rebuilds each full bitmap and keeps it, as the encoder does."""

    def decode(self, msg: CompressedBM) -> BufferMap:
        if msg.scheme != "spbms":
            raise ProtocolError(f"expected an spbms message, got {msg.scheme}")
        prev = None if msg.resync else self.last_bm
        if not msg.resync and msg.lbmr_seq != self.seq:
            raise MissingReferenceError(
                f"expected sequence {self.seq}, got {msg.lbmr_seq}",
                ahead=msg.lbmr_seq > self.seq,
            )
        _check_offset(None if prev is None else prev.offset, msg.offset)
        # Nothing is committed before these checks pass, so a rejected
        # message leaves the state untouched.
        bits = _fill(_spbms_window(prev, msg.offset, self.n), msg.payload)
        self.last_bm = BufferMap._owning(msg.offset, bits)
        self.seq = msg.lbmr_seq + 1
        return self.last_bm


# ======================================================================
# PPBMS: shared support set per peer pair
# ======================================================================

def _covers(log: OrderedDict, a: int, b: int) -> bool:
    """Whether ``log``, whose keys are consecutive message indices in
    ascending order, holds every index in [a, b)."""
    return a >= b or (bool(log) and next(iter(log)) <= a and b <= next(reversed(log)) + 1)


class PpbmsSession(_ReportsLocations):
    """One peer's end of a ppbms pairing.

    Both ends run the same state machine over the same message sequence
    (sends and receives alike mutate the shared support set), which keeps
    the two support sets identical after every delivered message.

    Messages are stamped with (lbmr_seq, cbmr_seq) = (messages this end has
    sent, messages it has received) so a receiver can tell exactly which
    state a message was encoded against.  Recent states are archived, and
    recently applied messages are kept as replayable effects (offset and
    window mask of the locations reported 1), so a message arriving late
    can still be decoded against the state it references.
    """

    def __init__(self, n: int, *, archive_depth: int = 8):
        if not 0 < n < 2**16:
            raise ValueError("window width must fit in the wire bit count")
        if archive_depth < 1:
            raise ValueError("archive depth must be at least 1")
        self.n = n
        self.archive_depth = archive_depth
        self.last_bm = None
        self._reset_epoch()

    # -- state bookkeeping -------------------------------------------------

    @property
    def support_set(self) -> SupportSet:
        return self.ss

    def _remember_state(self):
        self._archive[(self.sent_seq, self.recv_seq)] = (self.ss, self.window_end)
        while len(self._archive) > 2 * self.archive_depth + 1:
            self._archive.popitem(last=False)

    def _commit(self, log: OrderedDict, idx: int, offset: int, ones: np.ndarray):
        """Log a message's effect for replay and archive the new state."""
        log[idx] = (offset, ones)
        while len(log) > self.archive_depth:
            log.popitem(last=False)
        self._remember_state()

    def _resolve(self, sent: int, recv: int):
        """Support-set state after ``sent`` own and ``recv`` counterpart
        messages, rebuilt from the archive plus replay logs if needed."""
        if (sent, recv) == (self.sent_seq, self.recv_seq):
            return self.ss, self.window_end
        hit = self._archive.get((sent, recv))
        if hit is not None:
            return hit
        ahead = recv > self.recv_seq or sent > self.sent_seq
        for (s0, r0), (ss, we) in reversed(self._archive.items()):
            if s0 > sent or r0 > recv:
                continue
            if _covers(self._sent_log, s0, sent) and _covers(self._recv_log, r0, recv):
                effects = [self._sent_log[i] for i in range(s0, sent)]
                effects += [self._recv_log[i] for i in range(r0, recv)]
                effects.sort(key=lambda e: e[0])
                for offset, ones in effects:
                    ss, we = _step(ss, we, offset, self.n, bits=ones)[:2]
                return ss, we
        raise MissingReferenceError(
            f"no support-set snapshot for (sent={sent}, recv={recv}); "
            f"live state is (sent={self.sent_seq}, recv={self.recv_seq})",
            ahead=ahead,
        )

    def _reset_epoch(self):
        self.ss = SupportSet()
        self.window_end = None
        self.sent_seq = 0
        self.recv_seq = 0
        self.last_sent_offset = 0
        self._archive = OrderedDict()  # (sent, recv) -> (ss, window_end)
        self._sent_log = OrderedDict()  # own message index -> (offset, ones)
        self._recv_log = OrderedDict()  # counterpart message index -> (offset, ones)
        self._remember_state()

    def _apply(self, body, msg: CompressedBM) -> PartialBufferMap:
        """Run ``body(session, msg)`` on this session.  A resync message
        runs on a copy on a fresh epoch instead, whose state this session
        takes over only once every check has passed, so a rejected resync
        leaves it as it was."""
        if msg.scheme != "ppbms":
            raise ProtocolError(f"expected a ppbms message, got {msg.scheme}")
        if not msg.resync:
            return body(self, msg)
        fresh = copy.copy(self)
        fresh._reset_epoch()
        out = body(fresh, msg)
        self.__dict__.update(fresh.__dict__)
        return out

    # -- protocol ----------------------------------------------------------

    def encode(self, bm: BufferMap) -> CompressedBM:
        """Report own bits at every live shared-support-set location of the
        window of ``bm``."""
        _check_bitmap(self, bm, self.last_sent_offset, "session")
        self.ss, self.window_end, win, ones, payload = _step(
            self.ss, self.window_end, bm.offset, self.n, bits=bm.bits
        )
        msg = CompressedBM._of("ppbms", bm.offset, self.sent_seq, self.recv_seq, payload)
        self.last_sent_offset = bm.offset
        self.last_bm = bm
        self._last_window = (bm.offset, win)
        self.sent_seq += 1
        self._commit(self._sent_log, msg.lbmr_seq, bm.offset, ones)
        return msg

    def decode(self, msg: CompressedBM) -> PartialBufferMap:
        return self._apply(PpbmsSession._receive, msg)

    def _receive(self, msg: CompressedBM) -> PartialBufferMap:
        ss, we = self._resolve(msg.cbmr_seq, msg.lbmr_seq)
        if msg.lbmr_seq != self.recv_seq:
            raise MissingReferenceError(
                f"expected counterpart message {self.recv_seq}, got {msg.lbmr_seq}",
                ahead=msg.lbmr_seq > self.recv_seq,
            )
        ss, we, win, ones, _ = _step(ss, we, msg.offset, self.n, payload=msg.payload)
        if msg.cbmr_seq != self.sent_seq:
            # Encoded against an older state: clear its ones in the live set,
            # which is further along and already holds its appends and purges.
            ss, we = _step(self.ss, self.window_end, msg.offset, self.n, bits=ones)[:2]
        self.ss, self.window_end = ss, we
        self.recv_seq = msg.lbmr_seq + 1
        self._commit(self._recv_log, msg.lbmr_seq, msg.offset, ones)
        return PartialBufferMap(msg.offset, win.nonzero()[0] + msg.offset, msg.payload)

    def apply_sent(self, msg: CompressedBM) -> PartialBufferMap:
        """Replay one of this peer's own transmitted messages.

        Rebuilding a session from a message log (crash recovery, or an
        observer reconstructing a wiretapped exchange) needs both halves
        of the state transition: ``decode`` covers the counterpart's
        messages, this covers the peer's own.  It advances the shared
        support set exactly as ``encode`` did when the message was first
        produced, driven by the wire message instead of a bitmap.
        Messages must be replayed in their original send order.
        """
        return self._apply(PpbmsSession._replay_sent, msg)

    def _replay_sent(self, msg: CompressedBM) -> PartialBufferMap:
        if msg.lbmr_seq != self.sent_seq:
            raise MissingReferenceError(
                f"expected own message {self.sent_seq}, got {msg.lbmr_seq}",
                ahead=msg.lbmr_seq > self.sent_seq,
            )
        if msg.cbmr_seq != self.recv_seq:
            raise DesyncError(
                f"own message {msg.lbmr_seq} was stamped after {msg.cbmr_seq} received"
                f" messages, but this replica has processed {self.recv_seq}"
            )
        _check_offset(self.last_sent_offset, msg.offset)
        self.ss, self.window_end, win, ones, _ = _step(
            self.ss, self.window_end, msg.offset, self.n, payload=msg.payload
        )
        self.last_sent_offset = msg.offset
        self.last_bm = None  # the replica never sees the full bitmap
        self._last_window = (msg.offset, win)
        self.sent_seq += 1
        self._commit(self._sent_log, msg.lbmr_seq, msg.offset, ones)
        return PartialBufferMap(msg.offset, win.nonzero()[0] + msg.offset, msg.payload)

    def make_resync(self, bm: BufferMap) -> CompressedBM:
        """Restart the pairing from scratch: ship the whole bitmap; both
        ends rebuild the shared support set from it alone."""
        self._reset_epoch()
        self.last_bm = None
        return replace(self.encode(bm), resync=True)

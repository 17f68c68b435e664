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
  are never reported back.  Both peers of a pair hold one shared support
  set, derived at each end from two maps: its own last map and its last
  known map of the counterpart, which is the counterpart's payload at the
  reported locations and ones elsewhere.

Every window is one function of the maps that came before it
(``_window``): the positions filled in none of them, where a position past
a map's window counts as unfilled and one below a map's offset is never a
member.  spbms passes the previous map; ppbms passes its own map and the
known map, and its shared set is the window from the higher of their two
offsets.  A ppbms message arriving late is decoded against the own map its
sender had seen, kept for the last 2 * ``archive_depth`` + 1 messages.  A
message reports only support-set locations inside its own window; members
past it stay for a later message.

Wire envelope (big-endian): 1-byte scheme tag, 4-byte offset, 2-byte
lbmr_seq, 2-byte cbmr_seq, 2-byte payload bit count, then the payload bits
packed most-significant-bit first and zero-padded to a byte boundary.
Readers reject nonzero padding, so each message has exactly one wire form.
"""

from __future__ import annotations

import copy
import struct
from collections import deque
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
    codecs build each set on demand from the maps that imply it: spbms from
    the previous map, ppbms from an end's own map and its known map of the
    counterpart, as the window of the higher offset (``_window``).
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


def _window(offset: int, n: int, *maps) -> np.ndarray:
    """Mask of the positions in [offset, offset + n) filled in none of
    ``maps`` (None entries are skipped).  A position past a map's window
    counts as unfilled in it; one below a map's offset is never a member."""
    filled = np.zeros(n, dtype=bool)
    for bm in maps:
        if bm is None:
            continue
        shift = offset - bm.offset
        if shift < 0:  # the first -shift positions lie below the map's offset
            k = min(-shift, n)
            filled[:k] = True
            filled[k:] |= bm.bits[: n - k]
        elif shift < n:
            filled[: n - shift] |= bm.bits[shift:]
    return np.invert(filled, out=filled)


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


def _check_bitmap(bm: BufferMap, n: int, prev, last_offset, what: str):
    """A sender's input checks: window width, offset progression past
    ``last_offset`` and monotone filling against its previous bitmap
    ``prev`` (None where there is none to check against)."""
    if bm.n != n:
        raise ProtocolError(f"bitmap width {bm.n} != {what} width {n}")
    _check_offset(last_offset, bm.offset)
    if prev is not None:
        try:
            check_monotone(prev, bm)
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
    """Wrap a whole buffer map; the message shares its read-only bits."""
    return CompressedBM._of("sbms", bm.offset, 0, 0, bm.bits)


def sbms_decode(msg: CompressedBM, n: int) -> BufferMap:
    if msg.scheme != "sbms":
        raise ProtocolError(f"expected an sbms message, got {msg.scheme}")
    if msg.n_bits != n:
        raise DesyncError(f"expected {n} raw bits, got {msg.n_bits}")
    if not n:
        raise ValueError("bits must be a one-dimensional, nonempty sequence")
    return BufferMap._owning(msg.offset, msg.payload.copy())


# ======================================================================
# SPBMS: per-sender support set
# ======================================================================

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

    _last = None  # (offset, reported-location mask) of the most recent message

    @property
    def last_window(self):
        """Read-only mask over the most recent message's window, True at the
        positions it reported; None before the first message."""
        return None if self._last is None else self._last[1]

    @property
    def last_locations(self):
        """Locations reported by the most recent message, as int64, for
        diagnostics; None before the first message."""
        if self._last is None:
            return None
        offset, win = self._last
        return win.nonzero()[0] + offset

    def _keep_window(self, offset: int, win: np.ndarray):
        win.flags.writeable = False
        self._last = (offset, win)


class SpbmsEncoder(_SpbmsState, _ReportsLocations):
    """Sender half of a one-direction spbms stream."""

    def encode(self, bm: BufferMap) -> CompressedBM:
        """Emit the bits of ``bm`` at every support-set location of its
        window, in location order; the first message carries the whole map."""
        prev = self.last_bm
        _check_bitmap(bm, self.n, prev, None if prev is None else prev.offset, "codec")
        win = _window(bm.offset, self.n, prev)
        msg = CompressedBM._of("spbms", bm.offset, self.seq, 0, bm.bits[win])
        self.last_bm = bm
        self._keep_window(bm.offset, win)
        self.seq += 1
        return msg

    def make_resync(self, bm: BufferMap) -> CompressedBM:
        """Restart the stream: emit the whole bitmap and reset state, so the
        pair behaves exactly like a fresh bootstrap.  A bitmap a fresh stream
        rejects leaves the state as it was."""
        _check_bitmap(bm, self.n, None, None, "codec")
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
        bits = _fill(_window(msg.offset, self.n, prev), msg.payload)
        self.last_bm = BufferMap._owning(msg.offset, bits)
        self.seq = msg.lbmr_seq + 1
        return self.last_bm


# ======================================================================
# PPBMS: shared support set per peer pair
# ======================================================================

class PpbmsSession(_ReportsLocations):
    """One peer's end of a ppbms pairing.

    Each end keeps two maps: its own last map and its last known map of the
    counterpart, the counterpart's payload at the reported locations and
    ones elsewhere.  The shared support set is derived from them (see the
    module docstring), so both ends hold the same set after every delivered
    message.

    Messages are stamped with (lbmr_seq, cbmr_seq) = (messages this end has
    sent, messages it has received) so a receiver can tell exactly which
    state a message was encoded against.  The last 2 * ``archive_depth`` + 1
    own maps are kept with their receive stamps, so a message encoded before
    the sender saw this end's latest ones still decodes while it lags at
    most ``archive_depth`` receives and 2 * ``archive_depth`` messages in all.
    A sender's cbmr stamps never decrease within an epoch, so a message
    whose cbmr is below that of the counterpart message decoded before it
    raises MissingReferenceError (not ahead) and changes nothing.
    """

    def __init__(self, n: int, *, archive_depth: int = 8):
        if not 0 < n < 2**16:
            raise ValueError("window width must fit in the wire bit count")
        if archive_depth < 1:
            raise ValueError("archive depth must be at least 1")
        self.n = n
        self.archive_depth = archive_depth
        self.last_bm = None  # the last bitmap encoded (None for a replica): fills stay monotone
        self._reset_epoch()

    # -- state bookkeeping -------------------------------------------------

    def _reset_epoch(self):
        self.sent_seq = 0
        self.recv_seq = 0
        self._own = deque(maxlen=2 * self.archive_depth + 1)  # (own map, cbmr stamp)
        self._known = None  # the counterpart's last map as received
        self._known_cbmr = 0  # its cbmr stamp: a sender's stamps never decrease

    @property
    def _last_own(self):
        """This end's own last map in this epoch; None before its first."""
        return self._own[-1][0] if self._own else None

    @property
    def support_set(self) -> SupportSet:
        """Positions of one window, from the higher of the two maps'
        offsets, filled in neither map; built on demand."""
        own, known = self._last_own, self._known
        lo = max(-1 if own is None else own.offset, -1 if known is None else known.offset)
        if lo < 0:  # a fresh epoch: no map yet
            return SupportSet()
        return SupportSet._of(lo, _window(lo, self.n, own, known))

    def _own_map(self, c: int):
        """Own map ``c`` - 1, against which a message stamped cbmr = ``c``
        was encoded (None for ``c`` = 0).  An older state resolves while own
        message ``c`` lags the live state by at most ``archive_depth``
        receives and 2 * ``archive_depth`` messages in all."""
        S, R, d = self.sent_seq, self.recv_seq, self.archive_depth
        first = S - len(self._own)  # index of the oldest kept own map
        if c > S or (c < S and (
            c < first  # own message c is no longer kept
            or (lag := R - self._own[c - first][1]) > d
            or S - c + lag > 2 * d
        )):
            raise MissingReferenceError(
                f"no support-set state for (sent={c}, recv={R}); "
                f"live state is (sent={S}, recv={R})",
                ahead=c > S,
            )
        return self._own[c - 1 - first][0] if c else None

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

    def _commit_sent(self, own: BufferMap, win: np.ndarray):
        self._own.append((own, self.recv_seq))
        self._keep_window(own.offset, win)
        self.sent_seq += 1

    # -- protocol ----------------------------------------------------------

    def encode(self, bm: BufferMap) -> CompressedBM:
        """Report own bits at every shared-support-set location of the
        window of ``bm``."""
        own = self._last_own
        _check_bitmap(bm, self.n, self.last_bm, None if own is None else own.offset, "session")
        win = _window(bm.offset, self.n, own, self._known)
        msg = CompressedBM._of("ppbms", bm.offset, self.sent_seq, self.recv_seq, bm.bits[win])
        self.last_bm = bm
        self._commit_sent(bm, win)
        return msg

    def decode(self, msg: CompressedBM) -> PartialBufferMap:
        return self._apply(PpbmsSession._receive, msg)

    def _receive(self, msg: CompressedBM) -> PartialBufferMap:
        if msg.lbmr_seq != self.recv_seq:
            # Either stamp running ahead of this end means a hold may help.
            raise MissingReferenceError(
                f"expected counterpart message {self.recv_seq}, got {msg.lbmr_seq}",
                ahead=msg.lbmr_seq > self.recv_seq or msg.cbmr_seq > self.sent_seq,
            )
        if msg.cbmr_seq < self._known_cbmr:
            raise MissingReferenceError(
                f"counterpart message {msg.lbmr_seq} is stamped after {msg.cbmr_seq} of"
                f" this end's messages, its previous one after {self._known_cbmr}",
                ahead=False,
            )
        own = self._own_map(msg.cbmr_seq)
        win = _window(msg.offset, self.n, own, self._known)
        self._known = BufferMap._owning(msg.offset, _fill(win, msg.payload))
        self._known_cbmr = msg.cbmr_seq
        self.recv_seq += 1
        return PartialBufferMap(msg.offset, win.nonzero()[0] + msg.offset, msg.payload)

    def apply_sent(self, msg: CompressedBM) -> PartialBufferMap:
        """Replay one of this peer's own transmitted messages.

        Rebuilding a session from a message log (crash recovery, or an
        observer reconstructing a wiretapped exchange) needs both halves
        of the state transition: ``decode`` covers the counterpart's
        messages, this covers the peer's own.  Its own map is the payload
        at the reported locations and ones elsewhere, which implies the
        same support set as the bitmap ``encode`` saw.  Messages must be
        replayed in their original send order.
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
        own = self._last_own
        _check_offset(None if own is None else own.offset, msg.offset)
        win = _window(msg.offset, self.n, own, self._known)
        bits = _fill(win, msg.payload)
        self.last_bm = None  # the replica never sees the full bitmap
        self._commit_sent(BufferMap._owning(msg.offset, bits), win)
        return PartialBufferMap(msg.offset, win.nonzero()[0] + msg.offset, msg.payload)

    def make_resync(self, bm: BufferMap) -> CompressedBM:
        """Restart the pairing from scratch: ship the whole bitmap; both
        ends rebuild the shared support set from it alone.  A bitmap a
        fresh epoch rejects leaves the session as it was."""
        _check_bitmap(bm, self.n, None, None, "session")
        self._reset_epoch()
        self.last_bm = None
        return replace(self.encode(bm), resync=True)


def _unfilled_past(session: PpbmsSession, end: int) -> int:
    """Members of ``session``'s shared set at chunk ``end`` or later: the
    unfilled positions there of its known map of the counterpart.  Right
    after it sent a map ending at ``end``, these are the members its message
    could not report; the rest are the locations it reported 0."""
    known = session._known
    if known is None or known.end <= end:
        return 0
    tail = known.bits[max(end - known.offset, 0) :]
    return tail.size - int(np.count_nonzero(tail))

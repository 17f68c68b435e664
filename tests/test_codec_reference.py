"""The spbms and ppbms codec ends against a plain reference.

Each end builds its window in one pass per map: a sender checks and masks
with one slice of its previous map, a receiver fills and locates with one
``nonzero``.  The reference below does every step separately and plainly:
``check_monotone`` for the sender's check, a position-by-position window,
and a count-then-fill receiver.  Both sides take the same random streams of
maps and messages, and must agree on every message, reconstruction and
report, on their state after each step, and on the type, text and cause of
every exception.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from bmkit.bitmap import BufferMap, check_monotone
from bmkit.errors import DesyncError, MonotonicityError, ProtocolError
from bmkit.schemes import (
    CompressedBM,
    PartialBufferMap,
    PpbmsSession,
    SpbmsDecoder,
    SpbmsEncoder,
    SupportSet,
)

N = 12

# How a peer's next map moves against its previous one: its offset stays,
# steps inside the window or jumps past it; or, in a map the sender must
# reject, goes back, has the wrong width or unfills a position the previous
# map had filled.  Repeats weight the draw towards valid steps.
MOVES = ("step",) * 4 + ("same", "jump", "back", "wide", "unfill")
# What reaches the receiver: the message, or its payload one bit short or long.
TAMPERS = ("none",) * 8 + ("short", "long")


def plain_window(offset, n, *maps):
    """Positions of [offset, offset + n) filled in none of ``maps``: a
    position below a map's offset counts as filled in it, one past its
    window as unfilled."""
    pos = np.arange(offset, offset + n)
    win = np.ones(n, dtype=bool)
    for m in maps:
        if m is None:
            continue
        for i, p in enumerate(pos):
            if p < m.offset or (p < m.end and m.bits[p - m.offset]):
                win[i] = False
    return win


def plain_fill(win, payload):
    implied = int(np.count_nonzero(win))
    if payload.size != implied:
        raise DesyncError(
            f"payload carries {payload.size} bits but the support set implies {implied}"
        )
    bits = ~win
    bits[win] = payload
    return bits


def plain_check(bm, n, prev, last_offset, what):
    if bm.n != n:
        raise ProtocolError(f"bitmap width {bm.n} != {what} width {n}")
    if last_offset is not None and bm.offset < last_offset:
        raise ProtocolError(f"offset regressed from {last_offset} to {bm.offset}")
    if prev is not None:
        try:
            check_monotone(prev, bm)
        except MonotonicityError as exc:
            raise ProtocolError(f"non-monotone bitmap: {exc}") from exc


class PlainSpbmsEncoder(SpbmsEncoder):
    def encode(self, bm):
        prev = self.last_bm
        plain_check(bm, self.n, prev, None if prev is None else prev.offset, "codec")
        win = plain_window(bm.offset, self.n, prev)
        msg = CompressedBM("spbms", bm.offset, self.seq, 0, bm.bits[win])
        self.last_bm = bm
        self._keep_window(bm.offset, win)
        self.seq += 1
        return msg

    def make_resync(self, bm):
        plain_check(bm, self.n, None, None, "codec")
        self.last_bm = None
        self.seq = 0
        return CompressedBM("spbms", bm.offset, 0, 0, self.encode(bm).payload, resync=True)


class PlainSpbmsDecoder(SpbmsDecoder):
    def decode(self, msg):
        if not msg.resync and msg.lbmr_seq != self.seq:
            return SpbmsDecoder.decode(self, msg)  # raises the sequence error
        prev = None if msg.resync else self.last_bm
        if prev is not None and msg.offset < prev.offset:
            raise ProtocolError(f"offset regressed from {prev.offset} to {msg.offset}")
        bits = plain_fill(plain_window(msg.offset, self.n, prev), msg.payload)
        self.last_bm = BufferMap(msg.offset, bits)
        self.seq = msg.lbmr_seq + 1
        return self.last_bm


class PlainPpbmsSession(PpbmsSession):
    def encode(self, bm):
        own = self._last_own
        last = own if self.last_bm is None else self.last_bm
        plain_check(bm, self.n, self.last_bm, None if last is None else last.offset, "session")
        win = plain_window(bm.offset, self.n, own, self._known)
        msg = CompressedBM("ppbms", bm.offset, self.sent_seq, self.recv_seq, bm.bits[win])
        self.last_bm = bm
        self._commit_sent(bm, win)
        return msg

    def make_resync(self, bm):
        plain_check(bm, self.n, None, None, "session")
        self._reset_epoch()
        self.last_bm = None
        return CompressedBM("ppbms", bm.offset, 0, 0, self.encode(bm).payload, resync=True)

    def decode(self, msg):
        return self._apply(PlainPpbmsSession._receive, msg)

    def apply_sent(self, msg):
        return self._apply(PlainPpbmsSession._replay_sent, msg)

    def _receive(self, msg):
        if msg.lbmr_seq != self.recv_seq or msg.cbmr_seq < self._known_cbmr:
            return PpbmsSession._receive(self, msg)  # raises the stamp errors
        own = self._own_map(msg.cbmr_seq)
        win = plain_window(msg.offset, self.n, own, self._known)
        self._known = BufferMap(msg.offset, plain_fill(win, msg.payload))
        self._known_cbmr = msg.cbmr_seq
        self.recv_seq += 1
        return PartialBufferMap(msg.offset, np.flatnonzero(win) + msg.offset, msg.payload)

    def _replay_sent(self, msg):
        if msg.lbmr_seq != self.sent_seq or msg.cbmr_seq != self.recv_seq:
            return PpbmsSession._replay_sent(self, msg)  # raises the stamp errors
        own = self._last_own
        if own is not None and msg.offset < own.offset:
            raise ProtocolError(f"offset regressed from {own.offset} to {msg.offset}")
        win = plain_window(msg.offset, self.n, own, self._known)
        bits = plain_fill(win, msg.payload)
        self.last_bm = None
        self._commit_sent(BufferMap(msg.offset, bits), win)
        return PartialBufferMap(msg.offset, np.flatnonzero(win) + msg.offset, msg.payload)


class Peer:
    """A random stream of maps that mostly fill monotonically."""

    def __init__(self, rng, offset):
        self.rng = rng
        self.bm = BufferMap(offset, rng.random(N) < 0.5)

    def next(self, move):
        rng, prev = self.rng, self.bm
        offset = prev.offset + {
            "step": int(rng.integers(1, N)),
            "jump": N + int(rng.integers(0, N)),
            "back": -int(rng.integers(1, N)),
        }.get(move, 0)
        width = N + 1 if move == "wide" else N
        pos = np.arange(max(offset, 0), max(offset, 0) + width)
        kept = (pos >= prev.offset) & (pos < prev.end)
        carried = np.zeros(width, dtype=bool)
        carried[kept] = prev.bits[pos[kept] - prev.offset]
        bits = carried | (rng.random(width) < 0.2)
        if move == "unfill" and carried.any():
            bits[carried.argmax()] = False
        bm = BufferMap(int(pos[0]), bits)
        if move not in ("back", "wide", "unfill"):
            self.bm = bm
        return bm


def outcome(fn, *args):
    """What a call returned, or the type, text and cause of what it raised."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not handled
        return None, (type(exc), str(exc), type(exc.__cause__))


def same_outcome(real, plain):
    (got, err), (want, want_err) = real, plain
    assert err == want_err
    assert got == want
    if isinstance(got, PartialBufferMap):
        assert got.locations.dtype == want.locations.dtype == np.int64


def state(end):
    """Every attribute of a codec end, with maps and masks as bytes."""
    out = {}
    for key, value in vars(end).items():
        if isinstance(value, BufferMap):
            value = (value.offset, value.bits.tobytes())
        elif key == "_own":
            value = [(m.offset, m.bits.tobytes(), c) for m, c in value]
        elif key == "_last":
            value = (value[0], value[1].tobytes())
        out[key] = value
    return out


def plain_set(lo, n, *maps):
    return SupportSet(np.flatnonzero(plain_window(lo, n, *maps)) + lo)


def plain_end_set(end):
    """The set a codec end holds, by ``plain_set`` over its maps: a ppbms
    end's from the higher of its own and known maps' offsets, an spbms
    end's over its previous map; empty with no map."""
    if isinstance(end, PpbmsSession):
        maps = [m for m in (end._last_own, end._known) if m is not None]
        lo = max((m.offset for m in maps), default=0)
        return plain_set(lo, end.n, *maps) if maps else SupportSet()
    prev = end.last_bm
    return SupportSet() if prev is None else plain_set(prev.offset, end.n, prev)


def same_state(real, plain):
    assert state(real) == state(plain)
    assert real.support_set == plain_end_set(real)
    if getattr(real, "_last", None) is not None:
        assert np.array_equal(real.last_locations, plain.last_locations)


def tamper(msg, how):
    payload = msg.payload
    if how == "short" and payload.size:
        payload = payload[:-1]
    elif how != "none":
        payload = np.append(payload, False)
    return CompressedBM(msg.scheme, msg.offset, msg.lbmr_seq, msg.cbmr_seq, payload, msg.resync)


STEP = st.tuples(st.sampled_from(("send",) * 4 + ("resync",)), st.sampled_from(MOVES),
                 st.sampled_from(TAMPERS))


@given(seed=st.integers(0, 2**16), steps=st.lists(STEP, min_size=5, max_size=30))
@example(seed=3, steps=[
    ("send", "same", "none"), ("send", "same", "none"), ("send", "step", "none"),
    ("send", "jump", "none"), ("send", "back", "none"), ("send", "wide", "none"),
    ("send", "unfill", "none"), ("send", "step", "short"), ("resync", "step", "long"),
    ("resync", "step", "none"), ("send", "step", "none"),
])
def test_spbms_ends_match_the_plain_reference(seed, steps):
    peer = Peer(np.random.default_rng(seed), N)
    enc, dec = SpbmsEncoder(N), SpbmsDecoder(N)
    plain_enc, plain_dec = PlainSpbmsEncoder(N), PlainSpbmsDecoder(N)
    for kind, move, how in steps:
        bm = peer.next(move)
        name = "make_resync" if kind == "resync" else "encode"
        sent = outcome(getattr(enc, name), bm)
        same_outcome(sent, outcome(getattr(plain_enc, name), bm))
        same_state(enc, plain_enc)
        if sent[0] is not None:
            msg = tamper(sent[0], how)
            same_outcome(outcome(dec.decode, msg), outcome(plain_dec.decode, msg))
            same_state(dec, plain_dec)


PP_STEP = st.tuples(st.sampled_from(("A", "B")),
                    st.sampled_from(("send",) * 3 + ("deliver",) * 3 + ("resync", "replica-sends")),
                    st.sampled_from(MOVES), st.sampled_from(TAMPERS))


@given(seed=st.integers(0, 2**16), lag=st.integers(-N, 2 * N),
       steps=st.lists(PP_STEP, min_size=10, max_size=40))
@example(seed=5, lag=4, steps=[
    ("A", "send", "same", "none"), ("B", "deliver", "same", "none"),
    ("B", "send", "same", "none"), ("A", "deliver", "same", "none"),
    ("A", "send", "step", "none"), ("B", "send", "same", "none"),
    ("B", "deliver", "same", "none"), ("A", "deliver", "same", "none"),
    ("A", "send", "jump", "none"), ("B", "deliver", "same", "short"),
    ("A", "send", "back", "none"), ("A", "send", "wide", "none"),
    ("A", "send", "unfill", "none"), ("A", "replica-sends", "step", "none"),
    ("B", "deliver", "same", "long"), ("B", "resync", "step", "none"),
    ("A", "deliver", "same", "none"), ("A", "send", "step", "none"),
    ("B", "deliver", "same", "none"), ("B", "send", "jump", "none"),
    ("A", "deliver", "same", "none"),
])
def test_ppbms_ends_match_the_plain_reference(seed, lag, steps):
    """Peers A and B at offsets ``lag`` apart, so a receiver's own map may
    lie behind, on or ahead of a message's window.  Messages queue per
    direction and arrive in order when delivered, possibly after the
    receiver has sent more of its own, so late ones decode against older own
    maps.  A replica of A replays A's messages and decodes B's; sometimes it
    sends A's next map itself instead, from own maps it never saw whole."""
    rng = np.random.default_rng(seed)
    peers = {"A": Peer(rng, 2 * N), "B": Peer(rng, 2 * N + lag)}
    real = {p: PpbmsSession(N, archive_depth=2) for p in ("A", "B", "R")}
    plain = {p: PlainPpbmsSession(N, archive_depth=2) for p in ("A", "B", "R")}
    queue = {"A": [], "B": []}  # messages each peer has sent, not yet delivered
    for who, kind, move, how in steps:
        other = "B" if who == "A" else "A"
        if kind == "deliver":  # ``who`` receives the oldest message in flight to it
            if not queue[other]:
                continue
            msg = tamper(queue[other].pop(0), how)
            receivers = ("A", "R") if who == "A" else ("B",)
            for p in receivers:
                same_outcome(outcome(real[p].decode, msg), outcome(plain[p].decode, msg))
                same_state(real[p], plain[p])
            continue
        bm = peers[who].next(move)
        name = "make_resync" if kind == "resync" else "encode"
        sent = outcome(getattr(real[who], name), bm)
        same_outcome(sent, outcome(getattr(plain[who], name), bm))
        same_state(real[who], plain[who])
        if sent[0] is None:
            continue
        queue[who].append(sent[0])
        if who == "A":
            if kind == "replica-sends":
                step = (real["R"].encode, plain["R"].encode, bm)
            else:
                step = (real["R"].apply_sent, plain["R"].apply_sent, sent[0])
            same_outcome(outcome(step[0], step[2]), outcome(step[1], step[2]))
            same_state(real["R"], plain["R"])


def test_ppbms_support_set_matches_the_plain_reference_in_each_branch():
    """Every branch of a ppbms end's set, by the offsets of its (own, known)
    maps: a fresh epoch, a known map only (decoded, not yet sent), equal
    offsets, and either map ahead of the other, overlapping it or past its
    window.  ``test_ppbms_ends_match_the_plain_reference`` reaches each only
    through its random draws."""
    def stream(offset, every):  # chunk c is filled when c % every == 0, so maps stay monotone
        return BufferMap(offset, np.arange(offset, offset + N) % every == 0)

    def offsets(end):
        return tuple(None if m is None else m.offset for m in (end._last_own, end._known))

    a, b = PpbmsSession(N), PpbmsSession(N)
    seen = []

    def check():
        for end in (a, b):
            assert end.support_set == plain_end_set(end), offsets(end)
            seen.append(offsets(end))

    check()  # a fresh epoch at both ends
    b.decode(a.encode(stream(20, 3)))  # b has decoded a message but sent none
    check()
    a.decode(b.encode(stream(20, 4)))  # equal offsets at a
    check()
    # b fills chunk 31 in a map a has not seen when it encodes its next one.
    b.encode(BufferMap(20, stream(20, 4).bits | (np.arange(20, 32) == 31)))
    b.decode(a.encode(stream(31, 3)))  # b's known map ahead of its own, overlapping at chunk 31
    check()
    assert 31 not in b.support_set
    b.decode(a.encode(stream(40, 3)))  # b's known map past its own window
    check()
    assert {(None, None), (None, 20), (20, 20), (20, 31), (31, 20), (20, 40), (40, 20)} <= set(seen)

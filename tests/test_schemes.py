"""Support-set codecs: sbms/spbms/ppbms state machines and the wire envelope."""

import copy
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from bmkit.bitmap import BufferMap, PeerBufferState
from bmkit.coders import CODER_NAMES, decode_bits, encode_bits
from bmkit.errors import DesyncError, MissingReferenceError, ProtocolError
from bmkit.fillmodel import two_segment_curve
from bmkit.schemes import (
    HEADER_LEN,
    CompressedBM,
    PartialBufferMap,
    PpbmsSession,
    SpbmsDecoder,
    SpbmsEncoder,
    SupportSet,
    _window,
    pack_message,
    sbms_decode,
    sbms_encode,
    unpack_envelope,
    unpack_message,
    unpack_stream,
)


def _bm(offset, bits):
    return BufferMap(offset, [int(b) for b in bits])


# ----------------------------------------------------------------------
# SupportSet
# ----------------------------------------------------------------------

def test_support_set_basics():
    ss = SupportSet(range(3, 8))
    assert len(ss) == 5
    assert list(ss) == [3, 4, 5, 6, 7]
    assert 5 in ss and 8 not in ss and 2 not in ss
    assert ss == SupportSet([3, 4, 5, 6, 7])
    assert ss != SupportSet([3, 4])
    assert ss.locs.dtype == np.int64
    assert repr(ss) == "SupportSet([3, 4, 5, 6, 7])"


def test_support_set_must_be_strictly_ascending():
    with pytest.raises(ValueError):
        SupportSet([1, 1, 2])
    with pytest.raises(ValueError):
        SupportSet([5, 3])


def test_window_matches_a_position_oracle():
    """``_window`` position by position: a map behind, ahead of and past the
    window, no map, and two maps."""
    assert _window(0, 4).tolist() == [True] * 4
    assert _window(0, 4, None).tolist() == [True] * 4
    assert _window(3, 4, _bm(2, "1100")).tolist() == [False, True, True, True]  # behind
    assert _window(0, 4, _bm(2, "1000")).tolist() == [False, False, False, True]  # ahead
    assert _window(9, 4, _bm(2, "1111")).tolist() == [True] * 4  # past the map
    assert _window(0, 2, _bm(5, "0000")).tolist() == [False] * 2  # below the map
    two = _window(2, 4, _bm(2, "1000"), None, _bm(3, "0100"))
    assert two.tolist() == [False, True, False, True]

    def oracle(offset, n, maps):
        return [
            not any(p < m.offset or (p < m.end and m.bits[p - m.offset]) for m in maps)
            for p in range(offset, offset + n)
        ]

    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        maps = [BufferMap(int(rng.integers(0, 30)), rng.random(n) < 0.4)
                for _ in range(int(rng.integers(0, 3)))]
        offset = int(rng.integers(0, 40))
        got = _window(offset, n, *maps)
        assert got.dtype == bool and got.tolist() == oracle(offset, n, maps)


def test_support_set_purge_and_remove():
    """Members below a message's offset leave the shared set with it, and so
    do the locations the message reports filled."""
    a, b = PpbmsSession(10), PpbmsSession(10)
    b.decode(a.encode(_bm(0, "1011101101")))
    assert list(b.support_set) == [1, 5, 8]
    msg = b.encode(_bm(4, "0100000001"))  # holds chunks 5 and 13
    assert b.last_locations.tolist() == [5, 8, 10, 11, 12, 13]
    assert msg.payload.tolist() == [True, False, False, False, False, True]
    a.decode(msg)
    for ses in (a, b):  # 1 lies below offset 4; 5 and 13 were reported filled
        assert list(ses.support_set) == [8, 10, 11, 12]


# ----------------------------------------------------------------------
# Wire envelope
# ----------------------------------------------------------------------

def test_pack_unpack_round_trip_every_scheme():
    rng = np.random.default_rng(7)
    for scheme in ("sbms", "spbms", "ppbms"):
        for nbits in (0, 1, 7, 8, 9, 456):
            msg = CompressedBM(scheme, 12345, 6, 7, rng.integers(0, 2, nbits),
                               resync=bool(rng.integers(0, 2)))
            blob = pack_message(msg)
            assert len(blob) == HEADER_LEN + (nbits + 7) // 8
            back, end = unpack_message(blob)
            assert end == len(blob)
            assert back == msg


def test_unpack_stream_splits_consecutive_messages():
    m1 = CompressedBM("spbms", 0, 0, 0, [1, 0, 1])
    m2 = CompressedBM("ppbms", 9, 2, 3, [0] * 11, resync=True)
    out = unpack_stream(pack_message(m1) + pack_message(m2))
    assert out == [m1, m2]


def test_unpack_rejects_garbage():
    good = pack_message(CompressedBM("spbms", 0, 0, 0, [1] * 9))
    with pytest.raises(ValueError):
        unpack_message(good[:HEADER_LEN - 1])  # truncated header
    with pytest.raises(ValueError):
        unpack_message(good[:-1])  # truncated payload
    with pytest.raises(ValueError):
        unpack_message(b"\x7f" + good[1:])  # unknown scheme tag


def test_pack_enforces_field_widths():
    with pytest.raises(ValueError):
        pack_message(CompressedBM("sbms", 2**32, 0, 0, [1]))
    with pytest.raises(ValueError):
        pack_message(CompressedBM("sbms", 0, 2**16, 0, [1]))
    with pytest.raises(ValueError):
        pack_message(CompressedBM("sbms", 0, 0, 0, [0] * 2**16))
    with pytest.raises(ValueError):
        CompressedBM("nope", 0, 0, 0, [1])


def test_message_payload_must_be_one_dimensional():
    for payload in (np.ones((2, 3), dtype=bool), True):
        with pytest.raises(ValueError, match="^payload must be one-dimensional$"):
            CompressedBM("spbms", 0, 0, 0, payload)


def test_unpack_rejects_nonzero_padding():
    """Each message has one wire form: the bits past the payload are zero."""
    rng = np.random.default_rng(5)
    for nbits in (0, 3, 8, 456):
        msg = CompressedBM("spbms", 7, 1, 2, rng.integers(0, 2, nbits))
        blob = pack_message(msg)
        assert unpack_message(blob) == (msg, len(blob))
    blob = pack_message(CompressedBM("spbms", 7, 1, 2, [1, 0, 1]))
    for pad in range(5):  # the 5 low bits of the last byte
        dirty = blob[:-1] + bytes([blob[-1] | 1 << pad])
        with pytest.raises(ValueError, match="^padding bits past the payload must be zero$"):
            unpack_message(dirty)


def test_codec_messages_match_the_checking_constructor():
    """The encoders and unpack_message skip the constructor's checks: each
    message must equal the constructor's, field by field, over a 1-D bool
    payload of its own."""
    n = 64
    curve = two_segment_curve(n, 6, 0.8)
    pa = PeerBufferState("a", curve, rng=np.random.default_rng(3))
    pb = PeerBufferState("b", curve, rng=np.random.default_rng(4))
    enc, dec = SpbmsEncoder(n), SpbmsDecoder(n)
    a, b = PpbmsSession(n), PpbmsSession(n)
    for i in range(200):
        snap_a, snap_b = pa.snapshot(4 * i), pb.snapshot(4 * i + 1)
        sent = [(enc.encode(snap_a), snap_a), (a.encode(snap_a), snap_a)]
        parts = [(b.decode(sent[1][0]), a)]
        sent.append((b.encode(snap_b), snap_b))
        parts.append((a.decode(sent[2][0]), b))
        assert enc.last_locations.dtype == np.int64
        assert enc.last_locations.size == sent[0][0].n_bits
        for part, sender in parts:  # the receiver reads the sender's locations
            assert part.locations.dtype == np.int64
            assert np.array_equal(part.locations, sender.last_locations)
        for msg, bm in sent:
            assert not np.shares_memory(msg.payload, bm.bits)
            rx, _ = unpack_message(pack_message(msg))
            for m in (msg, rx):
                ref = CompressedBM(m.scheme, m.offset, m.lbmr_seq, m.cbmr_seq, m.payload,
                                   resync=m.resync)
                assert m.payload.dtype == bool and m.payload.ndim == 1
                assert ref.payload is m.payload  # nothing for the constructor to convert
                for f in fields(CompressedBM):
                    assert type(getattr(m, f.name)) is type(getattr(ref, f.name))
                assert m == ref
        assert dec.decode(unpack_message(pack_message(sent[0][0]))[0]) == snap_a


# ----------------------------------------------------------------------
# SBMS
# ----------------------------------------------------------------------

def test_sbms_ships_the_whole_map():
    bm = _bm(40, "10110011")
    msg = sbms_encode(bm)
    assert msg.scheme == "sbms" and msg.offset == 40
    assert msg.payload.tolist() == [bool(int(c)) for c in "10110011"]
    assert sbms_decode(msg, 8) == bm


def test_sbms_decode_checks_the_message_and_owns_its_bits():
    payload = np.array([1, 0, 1, 1], dtype=bool)
    msg = CompressedBM("sbms", 5, 0, 0, payload)  # shares the caller's array
    out = sbms_decode(msg, 4)
    payload[0] = False
    assert out == _bm(5, "1011") and not out.bits.flags.writeable
    with pytest.raises(ProtocolError):
        sbms_decode(CompressedBM("spbms", 5, 0, 0, payload), 4)
    with pytest.raises(DesyncError):
        sbms_decode(msg, 5)
    with pytest.raises(ValueError, match="nonempty"):
        sbms_decode(CompressedBM("sbms", 5, 0, 0, []), 0)


def test_sbms_round_trips_through_generic_coders():
    """The coder blob follows the envelope, whose bit count is the map's."""
    rng = np.random.default_rng(3)
    bm = BufferMap(7, rng.integers(0, 2, 456))
    for coder in CODER_NAMES:
        msg = sbms_encode(bm)
        blob = encode_bits(coder, msg.payload)
        scheme, offset, lbmr, cbmr, nbits, resync = unpack_envelope(pack_message(msg))
        bits = decode_bits(coder, blob, nbits)
        back = CompressedBM(scheme, offset, lbmr, cbmr, bits, resync=resync)
        assert sbms_decode(back, 456) == bm


# ----------------------------------------------------------------------
# SPBMS: frozen worked trace, N=8
# ----------------------------------------------------------------------
#
# Hand-traced update rule: the first message bootstraps the support set to
# the whole window, so its payload is the entire bitmap 10100000 and the
# two reported 1s (locations 0, 2) leave the set.  The second map 10110011
# is then read at the surviving locations (1,3,4,5,6,7) giving 010011, and
# the three new 1s shrink the set to {1,4,5}.

def test_spbms_bootstrap_degenerates_to_whole_map():
    enc = SpbmsEncoder(8)
    m1 = enc.encode(_bm(0, "10100000"))
    assert m1.payload.tolist() == [True, False, True, False, False, False, False, False]
    assert list(enc.support_set) == [1, 3, 4, 5, 6, 7]


def test_spbms_worked_trace_payload_and_support_set():
    enc = SpbmsEncoder(8)
    enc.encode(_bm(0, "10100000"))
    m2 = enc.encode(_bm(0, "10110011"))
    assert m2.payload.tolist() == [False, True, False, False, True, True]
    assert list(enc.support_set) == [1, 4, 5]


def test_spbms_worked_trace_wire_bytes():
    enc = SpbmsEncoder(8)
    m1 = enc.encode(_bm(0, "10100000"))
    m2 = enc.encode(_bm(0, "10110011"))
    assert pack_message(m1).hex() == "0200000000000000000008a0"
    assert pack_message(m2).hex() == "02000000000001000000064c"


def test_spbms_decoder_reconstructs_exactly():
    enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)
    for bits in ("10100000", "10110011", "10110011"):
        bm = _bm(0, bits)
        out = dec.decode(enc.encode(bm))
        assert out == bm
        assert dec.support_set == enc.support_set


def test_spbms_unchanged_map_costs_all_zero_payload():
    enc = SpbmsEncoder(8)
    enc.encode(_bm(0, "10100000"))
    repeat = enc.encode(_bm(0, "10100000"))
    assert repeat.n_bits == 6  # |SS| after the bootstrap
    assert not repeat.payload.any()


def test_spbms_window_slide_purges_and_appends():
    enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)
    dec.decode(enc.encode(_bm(0, "10100000")))
    # Slide by 3: locations 0..2 expire, 8..10 appear.  The payload covers
    # surviving unknowns {3,4,5,6,7} plus the three appended positions.
    cur = _bm(3, "10000110")
    msg = enc.encode(cur)
    assert msg.n_bits == 5 + 3
    assert dec.decode(msg) == cur
    assert dec.support_set == enc.support_set
    assert all(loc >= 3 for loc in enc.support_set)


def test_spbms_payload_length_law():
    """Each payload is exactly |surviving support set| + appended count."""
    rng = np.random.default_rng(11)
    curve = two_segment_curve(24, 5, 0.7)
    peer = PeerBufferState("p", curve, rng=np.random.default_rng(1))
    enc, dec = SpbmsEncoder(24), SpbmsDecoder(24)
    for i in range(50):
        bm = peer.snapshot(4 * i)
        before = set(enc.support_set)
        appended = 4 * 24 if i == 0 else 4  # bootstrap covers the window
        expected = len([l for l in before if l >= bm.offset]) + min(appended, 24)
        msg = enc.encode(bm)
        assert msg.n_bits == expected
        dec.decode(msg)


def test_spbms_random_traces_stay_synchronized():
    """Decoder mirrors the encoder bit-for-bit over long random traces."""
    curve = two_segment_curve(64, 6, 0.8)
    for seed in range(3):
        peer = PeerBufferState("p", curve, rng=np.random.default_rng(seed))
        enc, dec = SpbmsEncoder(64), SpbmsDecoder(64)
        for i in range(1000):
            bm = peer.snapshot(4 * i)
            assert dec.decode(enc.encode(bm)) == bm
            assert dec.support_set == enc.support_set


def test_spbms_codecs_match_a_step_oracle():
    """Seeded monotone streams with offset steps of 0, 1, 2, n/2 + 1, n and
    n + 3, and random resyncs: each message's payload, reported locations,
    reconstruction and both ends' support sets equal those of a reference
    support set updated message by message with Python set arithmetic."""
    rng = np.random.default_rng(20261018)
    for n in (1, 2, 5, 8, 33, 64):
        steps = (0, 1, 2, n // 2 + 1, n, n + 3)
        enc, dec = SpbmsEncoder(n), SpbmsDecoder(n)
        ref, covered, offset, filled = set(), None, 0, set()
        for i in range(200):
            offset += int(rng.choice(steps)) if i else 0
            bits = [c in filled or rng.random() < 0.3 for c in range(offset, offset + n)]
            filled.update(c for c, bit in zip(range(offset, offset + n), bits) if bit)
            bm = BufferMap(offset, bits)
            if i and rng.random() < 0.05:
                msg = enc.make_resync(bm)
                ref, covered = set(), None
            else:
                msg = enc.encode(bm)
            start = offset if covered is None else max(covered, offset)
            ref = {c for c in ref if c >= offset} | set(range(start, offset + n))
            covered = offset + n if covered is None else max(covered, offset + n)
            reported = sorted(c for c in ref if c < offset + n)
            ref -= {c for c in reported if bm.bit_for(c)}
            assert msg.payload.tolist() == [bm.bit_for(c) for c in reported]
            assert enc.last_locations.tolist() == reported
            assert dec.decode(unpack_message(pack_message(msg))[0]) == bm
            assert enc.support_set == SupportSet(sorted(ref)) == dec.support_set
            assert list(enc.support_set) == sorted(ref)


# ----------------------------------------------------------------------
# SPBMS: protocol violations and atomicity
# ----------------------------------------------------------------------

def test_spbms_encoder_rejects_bad_input():
    enc = SpbmsEncoder(8)
    enc.encode(_bm(5, "10100000"))
    with pytest.raises(ProtocolError):
        enc.encode(_bm(5, [1] * 4))  # width mismatch
    with pytest.raises(ProtocolError):
        enc.encode(_bm(3, "10100000"))  # offset regression
    with pytest.raises(ProtocolError):
        enc.encode(_bm(5, "01100000"))  # a 1 flipped back to 0


def test_spbms_decode_desync_leaves_state_untouched():
    enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)
    dec.decode(enc.encode(_bm(0, "10100000")))
    ss_before = dec.support_set
    msg = enc.encode(_bm(0, "10110011"))
    # Tamper: drop one payload bit so the length no longer matches the SS.
    bad = CompressedBM(msg.scheme, msg.offset, msg.lbmr_seq, msg.cbmr_seq,
                       msg.payload[:-1])
    with pytest.raises(DesyncError):
        dec.decode(bad)
    assert dec.support_set == ss_before
    assert dec.decode(msg) == _bm(0, "10110011")  # intact message still lands


def test_spbms_rejected_input_leaves_both_ends_unchanged():
    """Nothing is committed before every check passes, so after a rejected
    map or message the next valid message still round-trips."""
    enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)
    dec.decode(enc.encode(_bm(4, "10100000")))

    def state(end):
        return end.seq, end.last_bm, list(end.support_set)

    before, locs = state(enc), enc.last_locations.tolist()
    for bad in (_bm(4, [1] * 4), _bm(3, "10100000"), _bm(4, "00100000")):
        with pytest.raises(ProtocolError):  # width, regressed offset, a 1 back to 0
            enc.encode(bad)
        assert state(enc) == before and enc.last_locations.tolist() == locs
    cur = _bm(6, "10011001")
    msg = enc.encode(cur)
    before = state(dec)
    rejected = [
        (DesyncError, replace(msg, payload=msg.payload[:-1])),
        (MissingReferenceError, replace(msg, lbmr_seq=msg.lbmr_seq + 1)),
        (MissingReferenceError, replace(msg, lbmr_seq=msg.lbmr_seq - 1)),
        (ProtocolError, replace(msg, offset=3)),
        (ProtocolError, replace(msg, scheme="ppbms")),
        (DesyncError, replace(msg, lbmr_seq=0, resync=True)),  # a resync carries all 8 bits
    ]
    for error, bad in rejected:
        with pytest.raises(error):
            dec.decode(bad)
        assert state(dec) == before
    assert dec.decode(msg) == cur
    assert dec.support_set == enc.support_set


def test_spbms_decoded_map_is_read_only_and_stays_put():
    """A decoded map owns its bits: later decodes never write into it."""
    n = 64
    peer = PeerBufferState("p", two_segment_curve(n, 6, 0.8), rng=np.random.default_rng(8))
    enc, dec = SpbmsEncoder(n), SpbmsDecoder(n)
    first = dec.decode(enc.encode(peer.snapshot(0)))
    kept = first.bits.copy()
    assert not first.bits.flags.writeable
    for t in range(1, 51):
        dec.decode(unpack_message(pack_message(enc.encode(peer.snapshot(3 * t))))[0])
    assert np.array_equal(first.bits, kept)


def test_spbms_decode_rejects_a_negative_offset():
    """The wire cannot carry a negative offset, so no message of any scheme
    holds one; a ppbms session would report negative locations for it."""
    for scheme in ("sbms", "spbms", "ppbms"):
        with pytest.raises(ValueError, match="^offset must be nonnegative$"):
            CompressedBM(scheme, -3, 0, 0, [1] * 8)
    dec = SpbmsDecoder(8)
    assert dec.decode(CompressedBM("spbms", 0, 0, 0, [1] * 8)) == _bm(0, "11111111")


def test_spbms_out_of_order_sequence_raises_missing_reference():
    enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)
    m0 = enc.encode(_bm(0, "10100000"))
    m1 = enc.encode(_bm(0, "10110011"))
    with pytest.raises(MissingReferenceError) as info:
        dec.decode(m1)
    assert info.value.ahead  # from the future: caller may hold and retry
    dec.decode(m0)
    dec.decode(m1)
    with pytest.raises(MissingReferenceError) as info:
        dec.decode(m1)  # replay of an already-consumed message
    assert not info.value.ahead


def test_spbms_resync_restarts_the_pair():
    enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)
    dec.decode(enc.encode(_bm(0, "10100000")))
    dec.decode(enc.encode(_bm(0, "10110011")))
    # A fresh decoder (as after a crash) cannot read the next increment...
    fresh = SpbmsDecoder(8)
    with pytest.raises((MissingReferenceError, DesyncError)):
        fresh.decode(enc.encode(_bm(0, "10110111")))
    # ...but a resync message carries the whole map and resets both ends.
    msg = enc.make_resync(_bm(0, "10110111"))
    assert msg.resync and msg.n_bits == 8
    assert fresh.decode(msg) == _bm(0, "10110111")
    assert fresh.support_set == enc.support_set
    follow = enc.encode(_bm(0, "11110111"))
    assert fresh.decode(follow) == _bm(0, "11110111")


# ----------------------------------------------------------------------
# PPBMS: frozen worked trace, N=8
# ----------------------------------------------------------------------

def _paired_sessions():
    """Bootstrap a pair so the shared support set is {1,3,5,7}."""
    a, b = PpbmsSession(8), PpbmsSession(8)
    boot = b.encode(_bm(0, "10101010"))  # B announces 1s at 0,2,4,6
    a.decode(boot)
    assert list(a.support_set) == [1, 3, 5, 7]
    assert a.support_set == b.support_set
    return a, b


def test_ppbms_worked_trace_payload_and_shared_set():
    a, b = _paired_sessions()
    msg = a.encode(_bm(0, "00010001"))  # A holds 1s at locations 3 and 7
    assert msg.payload.tolist() == [False, True, False, True]
    assert list(a.support_set) == [1, 5]
    got = b.decode(msg)
    assert got.pairs == [(1, 0), (3, 1), (5, 0), (7, 1)]
    assert got.filled().tolist() == [3, 7]
    assert b.support_set == a.support_set


def test_ppbms_counterpart_fills_are_never_reported_back():
    """After one side announces everything, the other has nothing to say."""
    a, b = PpbmsSession(8), PpbmsSession(8)
    a.decode(b.encode(_bm(0, "11111111")))
    reply = a.encode(_bm(0, "00000000"))
    assert reply.n_bits == 0  # no appends, nothing unknown
    assert b.decode(reply).pairs == []


def test_ppbms_symmetric_peers_report_joint_gaps_once():
    a, b = PpbmsSession(8), PpbmsSession(8)
    bits = "11001010"
    a.decode(b.encode(_bm(0, bits)))
    reply = a.encode(_bm(0, bits))
    # Only positions unfilled on both sides remain in the set, and A's own
    # bits there are 0 by construction.
    assert reply.n_bits == bits.count("0")
    assert not reply.payload.any()


def test_ppbms_decode_mirrors_the_exact_extracted_bits():
    rng = np.random.default_rng(5)
    a, b = _paired_sessions()
    bm = BufferMap(0, rng.integers(0, 2, 8).astype(bool) | _bm(0, "00010001").bits)
    msg = a.encode(bm)
    part = b.decode(msg)
    assert part.offset == 0
    assert np.array_equal(part.bits, msg.payload)
    assert np.array_equal(part.locations[part.bits], part.filled())


def test_partial_buffer_maps_compare_by_their_arrays():
    locs, bits = np.array([2, 5, 7]), np.array([True, False, True])
    part = PartialBufferMap(0, locs, bits)
    assert part == PartialBufferMap(0, locs.copy(), bits.copy())
    assert not part == PartialBufferMap(0, np.array([2, 5, 6]), bits)
    assert not part == PartialBufferMap(0, locs, np.array([True, True, True]))
    assert not part == PartialBufferMap(1, locs, bits)
    assert part != "not a map"


def test_ppbms_shared_set_matches_set_arithmetic_oracle():
    """Replay raw bitmaps with plain set arithmetic and demand the session's
    shared support set agrees after every message, in both directions."""
    n, T, tau = 32, 4, 1
    curve = two_segment_curve(n, 4, 0.75)
    for seed in range(3):
        pa = PeerBufferState("a", curve, rng=np.random.default_rng(seed))
        pb = PeerBufferState("b", curve, rng=np.random.default_rng(seed + 100))
        a, b = PpbmsSession(n), PpbmsSession(n)
        oracle, covered = set(), 0
        for i in range(400):
            for ses, other, bm in (
                (b, a, pb.snapshot(i * T)),
                (a, b, pa.snapshot(i * T + tau)),
            ):
                oracle |= set(range(max(covered, bm.offset), bm.end))
                covered = max(covered, bm.end)
                oracle = {l for l in oracle if l >= bm.offset}
                reported = {l for l in oracle if bm.bit_for(l)}
                oracle -= reported
                msg = ses.encode(bm)
                got = other.decode(msg)
                assert set(got.filled().tolist()) == reported
                assert set(ses.support_set) == oracle
                assert other.support_set == ses.support_set


def test_ppbms_every_fill_reaches_the_counterpart_exactly_once():
    """Whatever A fills, B either filled and announced first or hears about
    it in exactly one of A's messages (the coverage law behind the scheme)."""
    n = 16
    rng = np.random.default_rng(42)
    a, b = PpbmsSession(n), PpbmsSession(n)
    bits_a, bits_b = np.zeros(n, bool), np.zeros(n, bool)
    heard_by_b, announced = [], {"a": set(), "b": set()}
    for _ in range(30):
        for who, ses, other, bits in (("b", b, a, bits_b), ("a", a, b, bits_a)):
            empty = np.flatnonzero(~bits)
            if empty.size:
                bits[rng.choice(empty)] = True
            part = other.decode(ses.encode(BufferMap(0, bits)))
            filled = part.filled().tolist()
            assert not (set(filled) & announced["a"] | set(filled) & announced["b"])
            announced[who] |= set(filled)
            if who == "a":
                heard_by_b.extend(filled)
    assert len(heard_by_b) == len(set(heard_by_b))  # exactly once each
    a_fills = set(np.flatnonzero(bits_a).tolist())
    assert set(heard_by_b) == a_fills - announced["b"]


def test_ppbms_rejects_protocol_violations():
    a, _ = _paired_sessions()
    a.encode(_bm(2, "00010001"))
    with pytest.raises(ProtocolError):
        a.encode(_bm(1, "00010001"))  # own offset regression
    with pytest.raises(ProtocolError):
        a.encode(_bm(2, [1, 0, 1]))  # width mismatch
    with pytest.raises(ProtocolError):
        a.encode(_bm(2, "00000000"))  # non-monotone vs own history
    with pytest.raises(ValueError):
        PpbmsSession(0)
    with pytest.raises(ValueError):
        PpbmsSession(2**16)
    with pytest.raises(ValueError):
        PpbmsSession(8, archive_depth=0)


def test_ppbms_desync_is_atomic():
    a, b = _paired_sessions()
    msg = a.encode(_bm(0, "00010001"))
    bad = CompressedBM(msg.scheme, msg.offset, msg.lbmr_seq, msg.cbmr_seq,
                       list(msg.payload) + [True])
    ss_before = b.support_set
    with pytest.raises(DesyncError):
        b.decode(bad)
    assert b.support_set == ss_before
    assert b.decode(msg).filled().tolist() == [3, 7]


# ----------------------------------------------------------------------
# PPBMS: reorder archive and resync
# ----------------------------------------------------------------------

def test_archive_resolves_live_state_for_in_order_traffic():
    """A message stamped with the receiver's live state decodes however long
    the exchange and however shallow the archive."""
    n = 16
    curve = two_segment_curve(n, 4, 0.75)
    pa = PeerBufferState("a", curve, rng=np.random.default_rng(8))
    pb = PeerBufferState("b", curve, rng=np.random.default_rng(9))
    a, b = PpbmsSession(n, archive_depth=1), PpbmsSession(n, archive_depth=1)
    for i in range(50):
        for tx, rx, peer in ((a, b, pa), (b, a, pb)):
            msg = tx.encode(peer.snapshot(3 * i))
            assert (msg.lbmr_seq, msg.cbmr_seq) == (rx.recv_seq, rx.sent_seq)
            assert rx.decode(msg).locations.tolist() == tx.last_locations.tolist()
            assert rx.support_set == tx.support_set


def test_archive_resolves_stale_cross_references():
    """Messages encoded before the sender saw our latest sends still decode:
    their stamps resolve through the archive, and both sets reconverge."""
    n = 16
    a, b = PpbmsSession(n), PpbmsSession(n)
    a.decode(b.encode(_bm(0, "1000100010001000")))
    b.decode(a.encode(_bm(0, "0100000001000000")))
    # B fires three messages that A has not yet seen...
    in_flight = [b.encode(_bm(0, "1100100010001000")),
                 b.encode(_bm(0, "1110100010001000")),
                 b.encode(_bm(0, "1111100010001000"))]
    # ...while A's next message still references B's old state.
    stale = a.encode(_bm(0, "0100000001000001"))
    assert stale.cbmr_seq == 1  # encoded having seen only B's bootstrap
    part = b.decode(stale)
    assert part.filled().tolist() == [15]
    for msg in in_flight:
        a.decode(msg)
    assert a.support_set == b.support_set


def test_delayed_message_beyond_archive_depth_is_unrecoverable():
    n = 8
    a, b = PpbmsSession(n, archive_depth=4), PpbmsSession(n, archive_depth=4)
    first = a.encode(_bm(0, "10000000"))
    for sends in (12, 30):  # push the bootstrap state out of B's archive, then far past it
        while b.sent_seq < sends:
            b.encode(_bm(0, "01000000"))
        with pytest.raises(MissingReferenceError) as info:
            b.decode(first)
        assert not info.value.ahead  # a hold-and-retry cannot help; resync needed


def test_message_from_the_future_is_flagged_ahead():
    a, b = _paired_sessions()
    a.encode(_bm(0, "00010001"))
    m2 = a.encode(_bm(0, "00110001"))
    with pytest.raises(MissingReferenceError) as info:
        b.decode(m2)
    assert info.value.ahead


def test_ppbms_resync_rebuilds_both_ends():
    a, b = _paired_sessions()
    a.encode(_bm(0, "00010001"))  # lost in transit: the pair is now desynced
    boot = a.make_resync(_bm(1, "00100011"))
    assert boot.resync and boot.n_bits == 8
    part = b.decode(boot)
    assert part.filled().tolist() == [3, 7, 8]
    assert a.support_set == b.support_set
    # Traffic flows normally again in both directions.
    a.decode(b.encode(_bm(1, "01010100")))
    b.decode(a.encode(_bm(1, "00100011")))
    assert a.support_set == b.support_set


def _two_map_window(offset, n, *maps):
    """Positions of [offset, offset + n) at or above every map's offset and
    filled in none of them; a map is (offset, filled chunk ids) or None."""
    maps = [m for m in maps if m is not None]
    floor = max([offset] + [off for off, _ in maps])
    return sorted(p for p in range(floor, offset + n) if not any(p in f for _, f in maps))


def _two_map_set(n, own, known):
    """The shared set the two maps imply: one window from the higher offset."""
    if own is None and known is None:
        return []
    lo = max(m[0] for m in (own, known) if m is not None)
    return _two_map_window(lo, n, own, known)


def _resolves(S, R, stamps, d, lbmr, c, known_c=0):
    """Whether an end that sent S messages (own message i stamped after
    ``stamps[i]`` receives) and received R, the last of them stamped cbmr =
    ``known_c``, decodes a message stamped (lbmr, cbmr = c) at archive
    depth d.  A sender's stamps never decrease, so c below known_c fails."""
    if lbmr != R or c > S or c < known_c:
        return False
    if c == S:
        return True
    lag = R - stamps[c]
    return lag <= d and (S - c) + lag <= 2 * d


class _OracleEnd:
    """One end of the two-map oracle: its session, the chunks its peer holds,
    its own maps as sent and the counterpart's map as received."""

    def __init__(self, n, d, lag):
        self.ses = PpbmsSession(n, archive_depth=d)
        self.lag, self.offset, self.filled = lag, lag, set()
        self.maps, self.stamps = [], []  # own message i: (offset, filled ids), cbmr stamp
        self.known, self.known_c = None, 0  # and the cbmr stamp it came with
        self.in_flight = []  # (message, sender's map) not yet delivered

    def check(self, n):
        own = self.maps[-1] if self.maps else None
        assert list(self.ses.support_set) == _two_map_set(n, own, self.known)


def test_ppbms_state_is_two_maps_and_late_messages_resolve_by_rule():
    """Two sessions with crossing, lagged traffic.  After every message each
    end's shared set is the two-map set: the positions of one window from the
    higher offset that are filled neither in the end's own last map nor in its
    last map of the counterpart, read off the payload with ones elsewhere.  A
    message stamped (lbmr, cbmr = c) decodes exactly when lbmr is the next
    counterpart index, c is no lower than the cbmr of the counterpart message
    decoded before it, and either c is the live stamp S or, with r_c the
    receive stamp of own message c, R - r_c <= d and (S - c) + (R - r_c) <= 2d;
    every other stamp c it is probed with raises MissingReferenceError, ahead
    when c > S.  A decoded message reports the window of own map c - 1 and the
    known map."""
    rng = random.Random(20261018)
    seen = {"live": 0, "archive": 0, "miss": 0}
    for _ in range(80):
        n, d = rng.randrange(4, 40), rng.randrange(1, 5)
        p_fill, flight = rng.uniform(0.1, 0.6), rng.randrange(1, 6)
        a, b = _OracleEnd(n, d, 0), _OracleEnd(n, d, rng.randrange(0, 2 * n + 1))
        clock = 0
        for _ in range(rng.randrange(10, 60)):
            clock += rng.choice((0, 1, 2, n // 2 + 1))
            tx = rng.choice((a, b))
            rx = b if tx is a else a
            if len(tx.in_flight) < flight and rng.random() < 0.5:
                tx.offset = max(tx.offset, clock + tx.lag)
                window = range(tx.offset, tx.offset + n)
                tx.filled |= {c for c in window if rng.random() < p_fill}
                expect = _two_map_window(tx.offset, n, tx.maps[-1] if tx.maps else None,
                                         tx.known)
                msg = tx.ses.encode(BufferMap(tx.offset, [c in tx.filled for c in window]))
                assert (msg.lbmr_seq, msg.cbmr_seq) == (len(tx.maps), tx.ses.recv_seq)
                assert tx.ses.last_locations.tolist() == expect
                tx.maps.append((tx.offset, tx.filled & set(window)))
                tx.stamps.append(msg.cbmr_seq)
                tx.in_flight.append((msg, tx.maps[-1]))
                tx.check(n)
                continue
            if not tx.in_flight:
                continue
            msg, sent_map = tx.in_flight.pop(0)
            S, R = len(rx.maps), rx.ses.recv_seq
            probes = [(msg.lbmr_seq, c) for c in range(max(S - 2 * d - 1, 0), S + 2)]
            probes += [(R + 1, msg.cbmr_seq), (R + 1, S + 1)]
            probes += [(R - 1, msg.cbmr_seq), (R - 1, S + 1)] if R else []
            for lbmr, c in probes:
                probe = replace(msg, lbmr_seq=lbmr, cbmr_seq=c)
                try:
                    copy.deepcopy(rx.ses).decode(probe)
                    resolved = True
                except MissingReferenceError as exc:
                    resolved = False
                    assert exc.ahead == (lbmr > R or c > S), (lbmr, c, S, R)
                except DesyncError:
                    resolved = True  # resolved, then the payload length disagreed
                assert resolved == _resolves(S, R, rx.stamps, d, lbmr, c, rx.known_c), (
                    lbmr, c, S, R)
            c = msg.cbmr_seq
            if not _resolves(S, R, rx.stamps, d, msg.lbmr_seq, c, rx.known_c):
                with pytest.raises(MissingReferenceError):
                    rx.ses.decode(msg)
                seen["miss"] += 1
                break
            seen["live" if c == S else "archive"] += 1
            part = rx.ses.decode(msg)
            own = rx.maps[c - 1] if c else None
            assert part.locations.tolist() == _two_map_window(msg.offset, n, own, rx.known)
            assert part.bits.tolist() == [loc in sent_map[1] for loc in part.locations.tolist()]
            unfilled = {loc for loc, bit in part.pairs if not bit}
            rx.known = (msg.offset, set(range(msg.offset, msg.offset + n)) - unfilled)
            rx.known_c = c
            rx.check(n)
            tx.check(n)
    assert min(seen.values()) >= 20, seen


def _ppbms_ten_exchanges():
    """A and B after ten in-order exchanges at n=64 (A speaks first in each),
    and a replica rebuilt from A's wire log."""
    n = 64
    curve = two_segment_curve(n, 6, 0.8)
    pa = PeerBufferState("a", curve, rng=np.random.default_rng(5))
    pb = PeerBufferState("b", curve, rng=np.random.default_rng(6))
    a, b, replica = PpbmsSession(n), PpbmsSession(n), PpbmsSession(n)
    for i in range(10):
        from_a = a.encode(pa.snapshot(4 * i))
        b.decode(from_a)
        replica.apply_sent(from_a)
        from_b = b.encode(pb.snapshot(4 * i + 1))
        a.decode(from_b)
        replica.decode(from_b)
    return a, b, replica, pa.snapshot(40)


def _session_state(ses):
    own = [(bm.offset, bm.bits.tobytes(), stamp) for bm, stamp in ses._own]
    known = ses._known and (ses._known.offset, ses._known.bits.tobytes(), ses._known_cbmr)
    return (ses.sent_seq, ses.recv_seq, list(ses.support_set), ses.last_bm,
            ses.last_locations.tolist(), own, known)


def test_a_rejected_ppbms_resync_leaves_the_session_unchanged():
    """A resync runs against a fresh epoch and commits nothing before every
    check passes: a rejected one leaves the session and its own-map archive
    as they were, and the next valid message, stamped with an older state,
    still decodes (and replays)."""
    a, b, replica, snap = _ppbms_ten_exchanges()
    extra = b.encode(b.last_bm)  # in flight to A: A's next message lags B by one
    assert (b.sent_seq, b.recv_seq) == (11, 10)
    resync = copy.deepcopy(a).make_resync(snap)
    normal = copy.deepcopy(a).encode(snap)
    rejected = [
        (DesyncError, replace(resync, payload=resync.payload[:-1])),  # one bit short
        (MissingReferenceError, replace(normal, resync=True)),  # stamped (10, 10)
        (ProtocolError, replace(resync, scheme="spbms")),
    ]
    for ses, apply in ((b, b.decode), (replica, replica.apply_sent)):
        before = _session_state(ses)
        for error, bad in rejected:
            with pytest.raises(error):
                apply(bad)
            assert _session_state(ses) == before
    msg = a.encode(snap)
    assert msg.cbmr_seq == b.sent_seq - 1
    assert b.decode(msg).locations.tolist() == a.last_locations.tolist()
    assert replica.apply_sent(msg).locations.tolist() == a.last_locations.tolist()
    a.decode(extra)
    replica.decode(extra)
    assert a.support_set == b.support_set == replica.support_set
    # A valid resync still restarts the pairing at both ends.
    boot = a.make_resync(snap)
    b.decode(boot)
    assert (b.sent_seq, b.recv_seq) == (0, 1) and a.support_set == b.support_set


def test_ppbms_decode_rejects_a_cbmr_below_the_previous_one():
    """A sender's cbmr stamps never decrease within an epoch.  A message
    stamped below the counterpart message decoded before it names an own map
    its sender had already moved past: it raises MissingReferenceError, not
    ahead, and changes nothing; the genuine message still decodes."""
    a, b = PpbmsSession(8), PpbmsSession(8)
    for offset in range(3):
        a.decode(b.encode(_bm(offset, "00000000")))
    b.decode(a.encode(_bm(0, "00000000")))
    msg = a.encode(_bm(0, "00010000"))
    assert (msg.lbmr_seq, msg.cbmr_seq) == (1, 3)
    before = copy.deepcopy(b)
    for c in (0, 1, 2):
        with pytest.raises(MissingReferenceError) as exc:
            b.decode(replace(msg, cbmr_seq=c))
        assert not exc.value.ahead
        assert _session_state(b) == _session_state(before)
    assert b.decode(msg).filled().tolist() == [3]


def test_a_rejected_resync_bitmap_leaves_the_sender_unchanged():
    """``make_resync`` checks the bitmap before it resets the sending end, so
    a bitmap of the wrong width raises and the next valid message decodes."""
    a, b = PpbmsSession(8), PpbmsSession(8)
    enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)
    for offset, bits in ((0, "10100000"), (1, "01000000"), (2, "10000000")):
        b.decode(a.encode(_bm(offset, bits)))
        dec.decode(enc.encode(_bm(offset, bits)))

    def state():
        return (a.sent_seq, a.recv_seq, list(a.support_set), a.last_locations.tolist(),
                enc.seq, enc.last_bm, enc.last_locations.tolist())

    before = state()
    assert before[:2] == (3, 0) and before[4] == 3
    for end in (a, enc):
        with pytest.raises(ProtocolError, match="bitmap width 3 != "):
            end.make_resync(BufferMap(3, [1, 0, 1]))
        assert state() == before
    nxt = _bm(3, "00000001")
    assert b.decode(a.encode(nxt)).locations.tolist() == a.last_locations.tolist()
    assert a.support_set == b.support_set
    assert dec.decode(enc.encode(nxt)) == nxt


def test_last_locations_are_derived_from_the_last_window():
    """Senders keep the last window mask; ``last_locations`` is read-only,
    None before the first message, then that message's int64 locations."""
    enc, a, b = SpbmsEncoder(8), PpbmsSession(8), PpbmsSession(8)
    for end in (enc, a):
        assert end.last_locations is None and end.last_window is None
        with pytest.raises(AttributeError):
            end.last_locations = np.arange(3)
        with pytest.raises(AttributeError):
            end.last_window = np.ones(8, dtype=bool)
    enc.encode(_bm(4, "10100000"))
    assert enc.last_locations.dtype == np.int64
    assert enc.last_locations.tolist() == list(range(4, 12))  # the whole first window
    enc.encode(_bm(6, "10011001"))
    assert enc.last_locations.tolist() == [7, 8, 9, 10, 11, 12, 13]  # 6 was reported filled
    assert enc.last_window.tolist() == [False] + [True] * 7
    with pytest.raises(ValueError):
        enc.last_window[0] = True  # the mask is read-only
    sent = a.encode(_bm(0, "10100000"))
    part = b.decode(sent)
    assert a.last_locations.dtype == np.int64
    assert a.last_locations.tolist() == part.locations.tolist() == list(range(8))
    replica = PpbmsSession(8)
    assert replica.apply_sent(sent) == part
    assert replica.last_locations.tolist() == list(range(8))


# ----------------------------------------------------------------------
# PPBMS: replaying a peer's own messages (replica / wiretap observer)
# ----------------------------------------------------------------------

def test_apply_sent_rebuilds_a_session_from_its_wire_log():
    """An observer holding every message A sent and received reconstructs
    A's shared support set exactly, without ever seeing A's bitmaps."""
    n, T, tau = 32, 4, 1
    curve = two_segment_curve(n, 4, 0.75)
    pa = PeerBufferState("a", curve, rng=np.random.default_rng(1))
    pb = PeerBufferState("b", curve, rng=np.random.default_rng(2))
    a, b = PpbmsSession(n), PpbmsSession(n)
    replica = PpbmsSession(n)
    for i in range(300):
        from_b = b.encode(pb.snapshot(i * T))
        a.decode(from_b)
        replica.decode(from_b)
        from_a = a.encode(pa.snapshot(i * T + tau))
        b.decode(from_a)
        part = replica.apply_sent(from_a)
        assert np.array_equal(part.bits, from_a.payload)
        assert replica.support_set == a.support_set
        assert replica.sent_seq == a.sent_seq and replica.recv_seq == a.recv_seq


def test_apply_sent_validates_stamps():
    a, b = _paired_sessions()
    m1 = a.encode(_bm(0, "00010001"))
    m2 = a.encode(_bm(0, "00110001"))
    replica = PpbmsSession(8)
    with pytest.raises(MissingReferenceError) as info:
        replica.apply_sent(m2)  # replay must start from the beginning
    assert info.value.ahead
    with pytest.raises(DesyncError):
        replica.apply_sent(m1)  # stamped after a receive the replica lacks
    boot = CompressedBM("ppbms", 0, 0, 0,
                        _bm(0, "10101010").bits, resync=True)
    replica.apply_sent(boot)  # resync replays reset the replica first
    assert list(replica.support_set) == [1, 3, 5, 7]


def test_ppbms_reports_only_the_senders_window():
    """The shared set spans both peers' windows; a sender whose window ends
    earlier reports only the members inside its own, and the rest stay."""
    a, b = PpbmsSession(8), PpbmsSession(8)
    boot = a.encode(_bm(5, "10100000"))  # A's window is [5, 13)
    b.decode(boot)
    assert list(b.support_set) == [6, 8, 9, 10, 11, 12]
    msg = b.encode(_bm(0, "00000011"))  # B's window is [0, 8): only 6 lies in it
    assert msg.payload.tolist() == [True]
    got = a.decode(msg)
    assert got.pairs == [(6, 1)]
    assert list(a.support_set) == [8, 9, 10, 11, 12]
    assert a.support_set == b.support_set
    replica = PpbmsSession(8)
    replica.decode(boot)
    part = replica.apply_sent(msg)
    assert part.locations.tolist() == [6]
    assert replica.support_set == b.support_set


def test_ppbms_far_older_offset_does_not_widen_the_mask():
    """A window far below the shared set's span has no member to report, and
    the set's mask stays window-sized instead of stretching down to it."""
    far = 2**24
    a, b = PpbmsSession(8), PpbmsSession(8)
    b.decode(a.encode(_bm(far, "10100000")))
    msg = b.encode(_bm(0, "11111111"))
    assert msg.n_bits == 0
    a.decode(msg)
    for ses in (a, b):
        assert list(ses.support_set) == [far + 1] + list(range(far + 3, far + 8))
        assert ses.support_set.mask.size <= 8

# ----------------------------------------------------------------------
# SupportSet equality
# ----------------------------------------------------------------------

def test_support_set_equality_ignores_the_anchor_and_span():
    masked = SupportSet._of(0, np.arange(10) % 2 == 1)
    masked.mask[[1, 7, 9]] = False
    assert masked == SupportSet([3, 5]) and SupportSet([3, 5]) == masked
    assert masked != SupportSet([3, 5, 9])
    empty = SupportSet()
    assert empty == SupportSet._of(4, np.zeros(3, dtype=bool))
    assert empty == SupportSet._of(50, np.zeros(0, dtype=bool))
    assert len(empty) == 0 and list(empty) == [] and 0 not in empty
    assert SupportSet([3, 5]) != [3, 5]


def test_unpack_envelope_reads_the_header_only():
    msg = CompressedBM("ppbms", 70000, 513, 9, [1, 0, 1], resync=True)
    blob = pack_message(msg)
    assert unpack_envelope(blob) == ("ppbms", 70000, 513, 9, 3, True)
    assert unpack_envelope(b"\x00" + blob, 1) == ("ppbms", 70000, 513, 9, 3, True)
    with pytest.raises(ValueError, match="truncated message header"):
        unpack_envelope(blob[: HEADER_LEN - 1])
    with pytest.raises(ValueError, match="unknown scheme tag 0x7f"):
        unpack_envelope(b"\x7f" + blob[1:])

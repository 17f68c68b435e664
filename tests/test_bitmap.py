import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmkit.bitmap import BufferMap, PeerBufferState, _same_bits, check_monotone, diff_new_fills
from bmkit.errors import MonotonicityError
from bmkit.fillmodel import SCurve, sample_fill_delays, two_segment_curve
from bmkit.schemes import CompressedBM, SupportSet


def test_buffer_map_basics():
    bm = BufferMap(10, [0, 0, 1, 1])
    assert bm.n == 4
    assert bm.end == 14
    # position 0 is the oldest chunk; chunk id = offset + position
    assert bm.bits[12 - bm.offset] and bm.bits[13 - bm.offset]
    assert not bm.bits[10 - bm.offset]
    assert bm.end - 1 - 13 == 0  # newest
    assert bm.end - 1 - 10 == 3  # oldest
    assert repr(bm) == "BufferMap(offset=10, n=4, ones=2)"


def test_buffer_map_validation():
    with pytest.raises(ValueError):
        BufferMap(-1, [1])
    with pytest.raises(ValueError):
        BufferMap(0, [])
    with pytest.raises(ValueError):
        BufferMap(0, [[1, 0]])
    bm = BufferMap(0, [1, 0])
    with pytest.raises(ValueError):
        bm.bits[0] = False


def test_buffer_map_equality_reads_bool_values_not_bytes():
    """Bytes 0/2 viewed as bool are the same bits as 0/1; only a real
    difference makes two maps unequal."""
    bits = np.array([0, 1, 1, 0, 1], dtype=bool)
    raw = np.array([0, 2, 2, 0, 2], dtype=np.uint8).view(bool)
    assert raw.tobytes() != bits.tobytes()
    assert BufferMap(4, bits) == BufferMap._owning(4, raw)
    assert BufferMap(4, bits) != BufferMap._owning(4, raw[::-1].copy())


# Bool arrays whose bytes may be other than 0 and 1: a True stored as 2 or 255.
_RAW_BITS = st.lists(st.sampled_from([0, 1, 2, 255]), max_size=10).map(
    lambda v: np.array(v, dtype=np.uint8).view(bool))


@given(a=_RAW_BITS, b=_RAW_BITS, lo_a=st.integers(0, 3), lo_b=st.integers(0, 3))
def test_bit_arrays_compare_as_np_array_equal(a, b, lo_a, lo_b):
    """``_same_bits``, ``BufferMap ==``, ``CompressedBM ==`` and ``SupportSet
    ==``, over one span or by members, agree with ``np.array_equal``,
    whatever the bytes and shapes."""
    for x, y in ((a, b), (a.reshape(-1, 1), b), (a.reshape(-1, 1), a)):
        assert _same_bits(x, y) is bool(np.array_equal(x, y))
    same = bool(np.array_equal(a, b))
    if a.size and b.size:
        maps = BufferMap._owning(lo_a, a.copy()), BufferMap._owning(lo_b, b.copy())
        assert (maps[0] == maps[1]) is (lo_a == lo_b and same)
    msgs = (CompressedBM._of("spbms", lo_a, 0, 0, a), CompressedBM._of("spbms", lo_b, 0, 0, b))
    assert (msgs[0] == msgs[1]) is (lo_a == lo_b and same)
    if a.size == b.size:
        assert (SupportSet._of(lo_a, a) == SupportSet._of(lo_a, b)) is same
    # Over other anchors or spans, two sets are equal when their members are.
    members = [{lo + i for i in range(v.size) if not v[i]} for lo, v in ((lo_a, a), (lo_b, b))]
    assert (SupportSet._of(lo_a, a) == SupportSet._of(lo_b, b)) is (members[0] == members[1])


def test_hex_round_trip():
    bm = BufferMap(3, [1, 0, 1, 1, 0, 0, 0, 0, 1])
    assert BufferMap.from_hex(3, bm.to_hex(), 9) == bm
    # MSB-first packing: 1011 0000 | 1000 0000 -> b080
    assert bm.to_hex() == "b080"
    # Every padding width, and the widest window the wire carries, reads
    # back as a fresh, contiguous bool window of exactly n bits.
    rng = np.random.default_rng(9)
    for n in (*range(1, 18), 455, 456, 457, 2**16 - 1):
        bm = BufferMap(7, rng.integers(0, 2, n))
        back = BufferMap.from_hex(7, bm.to_hex(), n)
        assert back == bm
        assert back.bits.dtype == bool and back.bits.shape == (n,)
        assert back.bits.flags.c_contiguous and not back.bits.flags.writeable
        assert not np.shares_memory(back.bits, bm.bits)


def test_from_hex_rejects_dirty_padding():
    with pytest.raises(ValueError):
        BufferMap.from_hex(0, "b081", 9)  # a padding bit is set
    with pytest.raises(ValueError):
        BufferMap.from_hex(0, "b0", 9)  # too short
    with pytest.raises(ValueError, match="nonempty"):
        BufferMap.from_hex(0, "", 0)  # no window at all


def test_diff_new_fills_contract():
    """Only 0->1 transitions inside the overlap plus filled appends count."""
    prev = BufferMap.from_hex(10, "30", 4)  # chunks 10..13 = 0,0,1,1
    cur = BufferMap.from_hex(11, "70", 4)  # chunks 11..14 = 0,1,1,1
    assert diff_new_fills(prev, cur) == {14}


def test_diff_new_fills_richer_case():
    prev = BufferMap(100, [0, 1, 0, 0, 1, 0])
    cur = BufferMap(102, [1, 0, 1, 1, 1, 0, 1, 0])
    # overlap 102..105: 0->1 at 102 and 105; appended 106..109 add 106, 108
    assert diff_new_fills(prev, cur) == {102, 105, 106, 108}


def test_diff_new_fills_same_offset():
    prev = BufferMap(5, [0, 0, 1])
    cur = BufferMap(5, [1, 0, 1])
    assert diff_new_fills(prev, cur) == {5}
    assert diff_new_fills(cur, cur) == set()


def test_diff_new_fills_detects_regression():
    prev = BufferMap(0, [1, 1, 0])
    cur = BufferMap(0, [1, 0, 0])
    with pytest.raises(MonotonicityError):
        diff_new_fills(prev, cur)
    # current window may never start before the previous one
    with pytest.raises(ValueError):
        diff_new_fills(BufferMap(4, [1]), BufferMap(3, [1, 1]))


@given(data=st.data(), layout=st.sampled_from(["identical", "overlapping", "abutting", "disjoint"]))
def test_diff_new_fills_matches_a_set_reference(data, layout):
    """The new fills are cur's filled chunks that prev did not hold filled,
    for identical, overlapping, abutting and disjoint windows of equal or
    different widths.  A map that unfills a chunk raises MonotonicityError,
    and one that starts before prev raises ValueError."""
    def bits(k):
        return data.draw(st.lists(st.booleans(), min_size=k, max_size=k))

    m = data.draw(st.integers(1, 24))
    prev = BufferMap(data.draw(st.integers(1, 50)), bits(m))
    held = {prev.offset + int(i) for i in np.flatnonzero(prev.bits)}
    if layout == "identical":
        cur = BufferMap(prev.offset, prev.bits)
    else:
        if layout == "overlapping":
            shift = data.draw(st.integers(0, m - 1))
        elif layout == "abutting":
            shift = m
        else:
            shift = data.draw(st.integers(m + 1, 3 * m))
        k = data.draw(st.integers(1, 24))
        lo = prev.offset + shift
        cur = BufferMap(lo, [b or lo + i in held for i, b in enumerate(bits(k))])
    filled = {cur.offset + int(i) for i in np.flatnonzero(cur.bits)}
    new = diff_new_fills(prev, cur)
    assert new == filled - held and all(type(c) is int for c in new)
    regress = sorted(held & filled)
    if regress:
        bad = cur.bits.copy()
        bad[regress[0] - cur.offset] = False
        with pytest.raises(MonotonicityError, match=f"^chunk {regress[0]} went"):
            diff_new_fills(prev, BufferMap(cur.offset, bad))
    with pytest.raises(ValueError, match="must not start before"):
        diff_new_fills(prev, BufferMap(prev.offset - 1, cur.bits))


def test_check_monotone_raises_what_diff_new_fills_raises():
    prev = BufferMap(10, [1, 0, 1, 0])
    assert check_monotone(prev, BufferMap(11, [0, 1, 1, 0])) is None
    assert check_monotone(prev, BufferMap(30, [0, 0])) is None  # windows disjoint
    bad = BufferMap(11, [0, 0, 1, 0])  # chunk 12 went back to unfilled
    for check in (check_monotone, diff_new_fills):
        with pytest.raises(MonotonicityError, match="^chunk 12 went from filled to unfilled$"):
            check(prev, bad)
        with pytest.raises(ValueError, match="must not start before"):
            check(prev, BufferMap(9, [1, 1, 1, 1]))
    # Windows [10, 14) and [11, 15) share chunks 11 to 13; the first
    # regressed one is named.
    full = BufferMap(10, [1, 1, 1, 1])
    for bits, chunk in (([0, 1, 1, 1], 11), ([1, 1, 0, 1], 13), ([1, 0, 0, 1], 12)):
        for check in (check_monotone, diff_new_fills):
            with pytest.raises(MonotonicityError, match=f"^chunk {chunk} went"):
                check(full, BufferMap(11, bits))

def test_peer_state_snapshots_are_monotone():
    curve = two_segment_curve(24, 5, 0.7)
    for seed in range(10):
        peer = PeerBufferState("p", curve, rng=np.random.default_rng(seed))
        prev = peer.snapshot(0)
        for t in range(1, 40):
            cur = peer.snapshot(t)
            assert cur.offset == t
            assert cur.n == 24
            diff_new_fills(prev, cur)  # raises on any regression
            prev = cur


def test_peer_state_instant_fill_curve():
    peer = PeerBufferState("p", SCurve(np.ones(8)), rng=np.random.default_rng(0))
    assert peer.snapshot(0).bits.all()
    assert peer.snapshot(123).bits.all()


def test_peer_state_never_fill_curve():
    peer = PeerBufferState("p", SCurve(np.zeros(8)), rng=np.random.default_rng(0))
    assert not peer.snapshot(0).bits.any()
    assert not peer.snapshot(50).bits.any()


def test_peer_state_bits_match_sampled_delays():
    curve = two_segment_curve(16, 4, 0.5)
    peer = PeerBufferState("p", curve, rng=np.random.default_rng(42))
    t = 30
    snap = peer.snapshot(t)
    for chunk in range(snap.offset, snap.end):
        expect = peer.fill_delay(chunk) <= snap.end - 1 - chunk
        assert snap.bits[chunk - snap.offset] == expect


def test_peer_state_base_offset_and_lazy_growth():
    curve = two_segment_curve(8, 2, 0.9)
    peer = PeerBufferState("p", curve, base_offset=100, rng=np.random.default_rng(1))
    assert peer.snapshot(0).offset == 100
    with pytest.raises(ValueError):
        peer.fill_delay(99)
    with pytest.raises(ValueError, match="^base_offset must be nonnegative$"):
        PeerBufferState("p", curve, base_offset=-1)
    # far beyond one allocation batch
    snap = peer.snapshot(10_000)
    assert snap.offset == 10_100
    with pytest.raises(ValueError):
        peer.snapshot(-1)


def test_peer_state_snapshots_are_reproducible():
    curve = two_segment_curve(12, 3, 0.6)
    a = PeerBufferState("p", curve, rng=np.random.default_rng(9))
    b = PeerBufferState("p", curve, rng=np.random.default_rng(9))
    for t in (0, 3, 17):
        assert a.snapshot(t) == b.snapshot(t)


def test_peer_state_delays_follow_one_stream_however_batched():
    curve = two_segment_curve(16, 4, 0.5)
    whole = sample_fill_delays(curve, np.random.default_rng(5).random(3000))
    ages = np.arange(15, -1, -1)
    peer = PeerBufferState("p", curve, rng=np.random.default_rng(5))
    for t in (0, 1, 40, 41, 700, 2000):
        snap = peer.snapshot(t)
        assert np.array_equal(snap.bits, whole[t : t + 16] <= ages)
        assert not snap.bits.flags.writeable
    assert [peer.fill_delay(c) for c in range(3000)] == whole.tolist()

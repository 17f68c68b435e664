import numpy as np
import pytest
from hypothesis import settings

from bmkit.coders import ESC, write_varint
from bmkit.entropy import calibrate_curve

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline, so tier-1 stays deterministic.
settings.register_profile(
    "bmkit", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("bmkit")


@pytest.fixture(scope="session")
def calibrated_curve():
    """The default 456-wide curve tuned so a whole map carries ~77 bits."""
    return calibrate_curve(77.0, 456).to_curve(456)


def random_monotone_curve(rng, n):
    """A random valid fill curve, occasionally with hard 0/1 stretches."""
    probs = np.sort(rng.random(n))
    style = rng.integers(4)
    if style == 1:  # starts impossible
        probs[: rng.integers(1, max(2, n // 4))] = 0.0
    elif style == 2:  # ends certain
        probs[-rng.integers(1, max(2, n // 4)) :] = 1.0
    elif style == 3:  # flat plateau in the middle
        a = rng.integers(0, n - 1)
        b = rng.integers(a + 1, n)
        probs[a:b] = probs[a]
    return probs


def hostile_blob(coder, size=2**62):
    """A coder blob whose one run claims ``size`` bits: an rle stream, or a
    Huffman blob whose one-entry table {ESC: 1} escapes to that run."""
    run = bytearray()
    write_varint(size, run)
    if coder == "rle":
        return b"\x00" + bytes(run)
    table = bytearray(b"\x00\x01\x01")  # first bit, one run, one table entry
    write_varint(ESC, table)
    table.append(1)
    stream = "0" + "".join(f"{b:08b}" for b in run)
    stream += "0" * (-len(stream) % 8)
    return bytes(table) + int(stream, 2).to_bytes(len(stream) // 8, "big")

"""
Generic bit-string coders, and why they can't beat the schemes
==============================================================

Three self-contained entropy coders for arbitrary bit strings:

  rle      -- run lengths, Elias-gamma style
  huffman  -- canonical Huffman over run-length symbols
  ac       -- adaptive binary arithmetic coding

Any of them can wrap a buffer-map payload on the wire.  They earn their
keep on sbms payloads (long runs of 1s at the old end) but win almost
nothing over spbms/ppbms output: those payloads are already conditioned
bits near 50/50, i.e. close to incompressible.
"""

import numpy as np

from bmkit.coders import CODER_NAMES, decode_bits, encode_bits
from bmkit.entropy import calibrate_curve
from bmkit.sim import SimConfig, run_synthetic

# -- round-tripping arbitrary strings ---------------------------------------
rng = np.random.default_rng(99)
print("exact round-trips on assorted strings:")
for name, s in (
    ("all zeros", np.zeros(456, dtype=bool)),
    ("alternating", (np.arange(300) % 2).astype(bool)),
    ("sparse 5%", rng.random(400) < 0.05),
    ("fair coin", rng.random(400) < 0.5),
):
    sizes = []
    for coder in CODER_NAMES:
        blob = encode_bits(coder, s)
        assert np.array_equal(decode_bits(coder, blob, s.size), s)
        sizes.append(f"{coder} {8 * len(blob):4d}b")
    print(f"  {name:12s} ({s.size:3d} bits) -> " + "  ".join(sizes))

# -- squeezing real payload streams ------------------------------------------
# Concatenate every payload a 2000-round session produced, per scheme, and
# let the arithmetic coder try its best.
curve = calibrate_curve(77.0, 456).to_curve(456)
res = run_synthetic(SimConfig(curve, T=20, tau=5, rounds=2000, seed=0))

print("\nadaptive arithmetic coding over whole payload streams:")
for scheme in ("sbms", "spbms", "ppbms"):
    bits = res.concat_payload(scheme)
    blob = encode_bits("ac", bits)
    shrink = 1.0 - 8.0 * len(blob) / bits.size
    print(f"  {scheme:6s}: {bits.size:8d} bits -> {8 * len(blob):8d} bits "
          f"(squeezed {100 * shrink:5.1f}%)")

print("\nsbms left plenty on the table; the support-set schemes did not.")

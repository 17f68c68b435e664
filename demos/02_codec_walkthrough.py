"""
Buffer-map codecs, message by message
=====================================

Three ways to tell a neighbour what you hold, in decreasing order of cost:

  sbms   -- ship the whole bitmap every time
  spbms  -- never re-report a position you already reported filled
  ppbms  -- additionally skip positions the *other* side announced first

The trick behind the last two is the support set: the sorted list of
locations that still need reporting.  Sender and receiver update it from
the message stream alone, so it never travels on the wire.
"""

import numpy as np

from bmkit.bitmap import BufferMap
from bmkit.schemes import (
    PpbmsSession,
    SpbmsDecoder,
    SpbmsEncoder,
    pack_message,
    sbms_encode,
)


def bm(offset, bits):
    return BufferMap(offset, np.array([c == "1" for c in bits]))


def show(tag, msg):
    bits = "".join("1" if b else "0" for b in msg.payload)
    print(f"  {tag}: payload {bits or '(empty)'} ({msg.n_bits} bits), "
          f"wire {pack_message(msg).hex()}")


# -- sbms: the baseline ----------------------------------------------------
print("sbms sends all 8 bits no matter what:")
show("m1", sbms_encode(bm(0, "10100000")))
show("m2", sbms_encode(bm(0, "10110011")))

# -- spbms: report each fill once ------------------------------------------
# The first message has nothing to suppress, so it degenerates to the full
# map.  Afterwards the support set drops every location reported 1, and
# only those locations are sent again.
print("\nspbms reports every fill exactly once:")
enc, dec = SpbmsEncoder(8), SpbmsDecoder(8)

m1 = enc.encode(bm(0, "10100000"))
show("m1", m1)
print("    support set after m1:", list(enc.support_set))

m2 = enc.encode(bm(0, "10110011"))  # chunks 3, 6, 7 filled since m1
show("m2", m2)
print("    support set after m2:", list(enc.support_set))

# The receiver rebuilds the exact bitmap from the 6-bit payload: the
# support set tells it which positions those bits belong to, and every
# position already retired is known to be 1.
out = dec.decode(m1)
out = dec.decode(m2)
print("    decoder reconstructed:",
      "".join("1" if b else "0" for b in out.bits), "(exact)")

# When the window slides, surviving support-set entries keep their chunk
# ids and the freshly exposed positions join at the top.
m3 = enc.encode(bm(2, "11001110"))
show("m3", m3)
print("    support set after the slide:", list(enc.support_set))

# -- ppbms: a pairing shares one support set --------------------------------
# Both ends run the same state machine; sends and receives alike shrink
# the one shared set, so whatever the counterpart announced first never
# gets reported back at it.
print("\nppbms never repeats what the counterpart already said:")
a, b = PpbmsSession(8), PpbmsSession(8)

boot = b.encode(bm(0, "10101010"))   # B announces 1s at 0, 2, 4, 6
a.decode(boot)
print("    shared support set:", list(a.support_set))

msg = a.encode(bm(0, "00010001"))    # A holds 1s at 3 and 7
show("a->b", msg)
got = b.decode(msg)
print("    B decoded (location, bit):",
      list(zip(got.locations.tolist(), got.bits.astype(int).tolist())))
print("    shared support set now:", list(a.support_set),
      "==", list(b.support_set))

# A's reply costs 4 bits instead of 8: locations 0, 2, 4, 6 were B's own
# news, so reporting them back would be pure redundancy.

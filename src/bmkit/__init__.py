"""bmkit: buffer-map compression for P2P streaming protocols.

Support-set codecs (spbms/ppbms), generic bit-sequence coders, information
content analysis over buffer fill curves, and a two-peer exchange simulator
with trace tooling.
"""

__version__ = "0.1.0"

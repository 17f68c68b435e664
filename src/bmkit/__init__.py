"""bmkit: buffer-map compression for P2P streaming protocols.

Support-set codecs (spbms/ppbms), generic bit-sequence coders, information
content analysis over buffer fill curves, and a two-peer exchange simulator
with trace tooling.
"""

from .bitmap import BufferMap, PeerBufferState, diff_new_fills
from .coders import (
    arith_decode,
    arith_encode,
    chi_square_uniform,
    decode_bits,
    encode_bits,
    huffman_decode,
    huffman_encode,
    rle_decode,
    rle_encode,
    symbol_distribution,
)
from .entropy import (
    EntropyReport,
    EntropyRow,
    ExchangeParams,
    calibrate_curve,
    h_ab,
    h_ba,
    h_binary,
    h_ppbms,
    h_sbms,
    h_spbms,
    overhead,
    report_grid,
)
from .errors import (
    BmkitError,
    CalibrationError,
    CodingError,
    DesyncError,
    InsufficientDataError,
    InvariantError,
    MissingReferenceError,
    MonotonicityError,
    ProtocolError,
    TraceError,
    UndefinedConditionalError,
)
from .fillmodel import (
    SCurve,
    TwoSegmentParams,
    fit_two_segment,
    load_curve,
    sample_fill_delay,
    sample_fill_delays,
    save_curve,
    transition_prob,
    two_segment_curve,
)
from .schemes import (
    CompressedBM,
    PartialBufferMap,
    PpbmsSession,
    SpbmsDecoder,
    SpbmsEncoder,
    SupportSet,
    pack_message,
    sbms_decode,
    sbms_encode,
    unpack_message,
    unpack_stream,
)
from .sim import (
    ReorderScript,
    SchemeDirStats,
    SimConfig,
    SimResult,
    reorder_fault_run,
    run_synthetic,
    run_trace,
)
from .traceio import TraceRecord, dedupe, generate, parse_trace, write_trace

__version__ = "0.1.0"

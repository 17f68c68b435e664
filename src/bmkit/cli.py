"""Command-line front end.

One executable, six subcommands, CSV in and out:

* ``analyze``    -- per-message information and overhead grid over T and tau
* ``simulate``   -- synthetic two-peer run, or a replay of a recorded trace
* ``encode``     -- trace file -> framed wire-format dump
* ``decode``     -- framed wire-format dump -> trace file (or fill-report CSV)
* ``gen-trace``  -- write a synthetic trace
* ``fit-curve``  -- fit the two-segment fill curve to delay samples

Exit codes: 0 success, 1 usage error, 2 invalid input or protocol failure
(bad trace, desync, calibration out of reach, too few samples), 3 internal
invariant breach.

Dump format: a dump file is ``BMD1`` followed by one frame per message.
A frame carries the transport metadata a real network would deliver
out-of-band (timestamp, sender name, direction, coder id, body length)
followed by the message body: the fixed 11-byte wire header plus either
the packed payload bits or, when a coder was selected, the coder's blob.
"""

from __future__ import annotations

import argparse
import struct
import sys

import numpy as np

from .coders import CODER_NAMES, decode_bits, encode_bits
from .entropy import calibrate_curve, report_grid
from .errors import BmkitError, InsufficientDataError, InvariantError
from .fillmodel import fit_two_segment, load_curve, save_curve
from .schemes import (
    HEADER_LEN,
    CompressedBM,
    PpbmsSession,
    SpbmsDecoder,
    SpbmsEncoder,
    pack_message,
    sbms_decode,
    sbms_encode,
    unpack_envelope,
    unpack_message,
)
from .sim import SCHEMES, SimConfig, run_synthetic, run_trace
from .traceio import TraceRecord, generate, parse_trace, write_trace

__all__ = ["main"]

_DEFAULT_N = 456
_DEFAULT_TARGET_BITS = 77.0
_DUMP_MAGIC = b"BMD1"
_FRAME_HEAD = struct.Struct(">IB")  # timestamp, peer-name length
_FRAME_TAIL = struct.Struct(">BBH")  # direction, coder id, body length
_CODER_IDS = {None: 0, "rle": 1, "huffman": 2, "ac": 3}
_ID_CODERS = {v: k for k, v in _CODER_IDS.items()}
_DIR_IDS = {"sent": 0, "received": 1}
_ID_DIRS = {v: k for k, v in _DIR_IDS.items()}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap to this tool's code 1."""

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise SystemExit(1 if status else 0)


# ----------------------------------------------------------------------
# shared flag handling
# ----------------------------------------------------------------------

def _add_curve_flags(p):
    p.add_argument("--curve", metavar="FILE", help="fill-curve file (index probability lines)")
    p.add_argument(
        "--calibrate-hsbms",
        type=float,
        metavar="BITS",
        help=f"calibrate a two-segment curve to this whole-map information "
        f"(default {_DEFAULT_TARGET_BITS} when --curve is absent)",
    )
    p.add_argument("--n", type=int, default=_DEFAULT_N, help="window width in chunks")


def _resolve_curve(args):
    if args.curve is not None and args.calibrate_hsbms is not None:
        raise _UsageError("--curve and --calibrate-hsbms are mutually exclusive")
    if args.curve is not None:
        return load_curve(args.curve)
    target = args.calibrate_hsbms if args.calibrate_hsbms is not None else _DEFAULT_TARGET_BITS
    return calibrate_curve(target, args.n).to_curve(args.n)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    if not args.T:
        raise _UsageError("at least one --T value is required")
    curve = _resolve_curve(args)
    taus = args.tau
    if taus and taus not in (["min"], ["sweep"]):
        try:
            taus = [int(t) for t in taus]
        except ValueError:
            raise _UsageError(f"--tau takes integers, 'min', or 'sweep'; got {args.tau}")
    else:
        taus = (taus or ["min"])[0]
    report = report_grid(curve, args.T, taus=taus)
    _emit(report.to_csv(), args.out)
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    schemes = tuple(args.scheme) if args.scheme else SCHEMES
    coders = tuple(args.coder) if args.coder else ()
    if args.trace:
        result = run_trace(args.trace, schemes=schemes, coders=coders)
    else:
        curve = _resolve_curve(args)
        T = args.T if args.T is not None else 20
        tau = args.tau if args.tau is not None else max(1, T // 4)
        if not 0 < tau <= T:
            raise _UsageError(f"need 0 < tau <= T, got tau={tau} T={T}")
        if T > curve.n:
            raise _UsageError(f"need T <= n, got T={T} n={curve.n}")
        cfg = SimConfig(
            curve=curve,
            T=T,
            tau=tau,
            rounds=args.rounds,
            seed=args.seed,
            schemes=schemes,
            coders=coders,
        )
        result = run_synthetic(cfg)
    _emit(result.to_csv(), args.out)
    return 0


# ----------------------------------------------------------------------
# encode / decode
# ----------------------------------------------------------------------

def _frame(rec: TraceRecord, msg: CompressedBM, coder) -> bytes:
    peer = rec.peer.encode("utf-8")
    if len(peer) > 255:
        raise ValueError(f"peer name too long: {rec.peer!r}")
    if rec.timestamp >= 1 << 32:
        raise ValueError(f"timestamp {rec.timestamp} does not fit the frame field")
    wire = pack_message(msg)
    if coder is None:
        body = wire
    elif msg.n_bits == 0:
        body = wire  # nothing to code; keep the bare header
    else:
        body = wire[:HEADER_LEN] + encode_bits(coder, msg.payload)
    if len(body) > 0xFFFF:
        raise ValueError("message body exceeds frame capacity")
    return (
        _FRAME_HEAD.pack(rec.timestamp, len(peer))
        + peer
        + _FRAME_TAIL.pack(_DIR_IDS[rec.direction], _CODER_IDS[coder], len(body))
        + body
    )


def _read_frames(data: bytes):
    """Yield (timestamp, peer, direction, message) from a dump."""
    if data[: len(_DUMP_MAGIC)] != _DUMP_MAGIC:
        raise ValueError("not a message dump (bad magic)")
    pos = len(_DUMP_MAGIC)
    while pos < len(data):
        if len(data) - pos < _FRAME_HEAD.size:
            raise ValueError("truncated frame header")
        ts, plen = _FRAME_HEAD.unpack_from(data, pos)
        pos += _FRAME_HEAD.size
        if len(data) - pos < plen + _FRAME_TAIL.size:
            raise ValueError("truncated frame header")
        peer = data[pos : pos + plen].decode("utf-8")
        pos += plen
        dir_id, coder_id, body_len = _FRAME_TAIL.unpack_from(data, pos)
        pos += _FRAME_TAIL.size
        if dir_id not in _ID_DIRS or coder_id not in _ID_CODERS:
            raise ValueError(f"corrupt frame for peer {peer!r}")
        if len(data) - pos < body_len or body_len < HEADER_LEN:
            raise ValueError("truncated frame body")
        body = data[pos : pos + body_len]
        pos += body_len
        coder = _ID_CODERS[coder_id]
        if coder is None:
            msg, used = unpack_message(body)
            if used != len(body):
                raise ValueError("frame length disagrees with message length")
        else:
            scheme, offset, lbmr, cbmr, nbits, resync = unpack_envelope(body)
            if nbits == 0:
                bits = np.zeros(0, dtype=bool)
            else:
                bits = decode_bits(coder, bytes(body[HEADER_LEN:]), nbits)
            # unpack_envelope has checked the tag; the bits are fresh.
            msg = CompressedBM._of(scheme, offset, lbmr, cbmr, bits, resync)
        yield ts, peer, _ID_DIRS[dir_id], msg


def _cmd_encode(args) -> int:
    records = parse_trace(args.trace)
    if not records:
        raise ValueError(f"trace {args.trace} holds no records")
    n = records[0].bm.n
    peers = []
    for rec in records:
        if rec.peer not in peers:
            peers.append(rec.peer)
    coder = args.coder
    frames = [_DUMP_MAGIC]
    if args.scheme == "sbms":
        for rec in records:
            frames.append(_frame(rec, sbms_encode(rec.bm), coder))
    elif args.scheme == "spbms":
        encoders = {p: SpbmsEncoder(n) for p in peers}
        for rec in records:
            frames.append(_frame(rec, encoders[rec.peer].encode(rec.bm), coder))
    else:
        if len(peers) != 2:
            raise ValueError(
                f"ppbms needs a two-peer trace (both directions); "
                f"{args.trace} names {len(peers)} peer(s)"
            )
        sessions = {p: PpbmsSession(n) for p in peers}
        for rec in records:
            other = peers[1 - peers.index(rec.peer)]
            msg = sessions[rec.peer].encode(rec.bm)
            sessions[other].decode(msg)
            frames.append(_frame(rec, msg, coder))
    with open(args.out, "wb") as fh:
        fh.write(b"".join(frames))
    return 0


def _cmd_decode(args) -> int:
    with open(args.dump, "rb") as fh:
        data = fh.read()
    frames = list(_read_frames(data))
    if not frames:
        raise ValueError(f"{args.dump} holds no frames")
    schemes = {m.scheme for _, _, _, m in frames}
    if len(schemes) != 1:
        raise ValueError(f"dump mixes schemes {sorted(schemes)}")
    scheme = schemes.pop()
    if args.scheme and args.scheme != scheme:
        raise _UsageError(f"dump holds {scheme} messages, not {args.scheme}")
    if scheme != "ppbms" and not args.out:
        raise _UsageError(f"decoding a {scheme} dump writes a trace file; --out is required")
    n = frames[0][3].n_bits
    if scheme == "sbms":
        records = [
            TraceRecord(ts, peer, direction, sbms_decode(msg, n))
            for ts, peer, direction, msg in frames
        ]
        write_trace(args.out, records)
        return 0
    if scheme == "spbms":
        decoders = {}
        records = []
        for ts, peer, direction, msg in frames:
            dec = decoders.setdefault(peer, SpbmsDecoder(n))
            records.append(TraceRecord(ts, peer, direction, dec.decode(msg)))
        write_trace(args.out, records)
        return 0
    peers = []
    for _, peer, _, _ in frames:
        if peer not in peers:
            peers.append(peer)
    if len(peers) != 2:
        raise ValueError(f"ppbms dump needs both directions; found peer(s) {peers}")
    # One replica, playing the first peer, reconstructs the whole shared
    # support-set evolution: its own sends replayed, the other's decoded.
    replica = PpbmsSession(n)
    lines = ["timestamp,peer,direction,offset,location,bit"]
    for ts, peer, direction, msg in frames:
        if peer == peers[0]:
            out = replica.apply_sent(msg)
        else:
            out = replica.decode(msg)
        for loc, bit in out.pairs:
            lines.append(f"{ts},{peer},{direction},{out.offset},{loc},{int(bit)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# gen-trace / fit-curve
# ----------------------------------------------------------------------

def _cmd_gen_trace(args) -> int:
    curve = _resolve_curve(args)
    T = args.T if args.T is not None else 20
    tau = args.tau
    if tau is not None and not 0 < tau <= T:
        raise _UsageError(f"need 0 < tau <= T, got tau={tau} T={T}")
    if T > curve.n:
        raise _UsageError(f"need T <= n, got T={T} n={curve.n}")
    records = generate(curve, T, rounds=args.rounds, seed=args.seed, tau=tau)
    write_trace(args.out, records)
    return 0


def _cmd_fit_curve(args) -> int:
    data = np.loadtxt(args.samples, dtype=np.float64, comments="#", ndmin=2)
    if data.shape[1] == 1:
        # Raw fill delays; turn them into the empirical per-age fill
        # frequency (values of n or more mean "never filled in window").
        delays = data[:, 0]
        if delays.size < 3:
            raise InsufficientDataError(
                f"need at least 3 delay samples, got {delays.size}"
            )
        if delays.min() < 0 or np.any(delays != np.rint(delays)):
            raise ValueError("delay samples must be nonnegative integers")
        ages = np.arange(args.n, dtype=np.float64)
        # The share of delays at most each age, in O(samples) memory.
        freq = np.searchsorted(np.sort(delays), ages, side="right") / delays.size
        points = np.stack([ages, freq], axis=1)
    elif data.shape[1] == 2:
        points = data  # (age, probability) pairs as-is
    else:
        raise ValueError(
            "samples file needs 1 column (delays) or 2 columns (age probability)"
        )
    params = fit_two_segment(points, args.n)
    if args.out:
        save_curve(params.to_curve(args.n), args.out)
    sys.stdout.write(
        "breakpoint,p_break,terminal,initial\n"
        f"{params.breakpoint},{params.p_break:.6f},{params.terminal:.6f},{params.initial:.6f}\n"
    )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="bmkit", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="information/overhead grid as CSV")
    _add_curve_flags(p)
    p.add_argument("--T", type=int, nargs="*", default=[8, 16, 24, 32],
                   help="sending periods to evaluate")
    p.add_argument("--tau", nargs="*", default=["min"],
                   help="offsets: integers, 'min' (tau=1), or 'sweep' (1..T)")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="two-peer run (synthetic or trace replay)")
    _add_curve_flags(p)
    p.add_argument("--trace", metavar="FILE",
                   help="replay this one- or two-peer trace instead of sampling")
    p.add_argument("--T", type=int, default=None, help="sending period (default 20)")
    p.add_argument("--tau", type=int, default=None, help="reply offset (default T//4)")
    p.add_argument("--rounds", type=int, default=1000, help="measured periods")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheme", nargs="*", choices=list(SCHEMES),
                   help="schemes to run (default: all)")
    p.add_argument("--coder", nargs="*", choices=list(CODER_NAMES),
                   help="also entropy-code every payload")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("encode", help="trace file -> wire-format dump")
    p.add_argument("--trace", required=True, metavar="FILE")
    p.add_argument("--scheme", required=True, choices=list(SCHEMES))
    p.add_argument("--coder", choices=list(CODER_NAMES),
                   help="entropy-code each payload inside its frame")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="wire-format dump -> trace (ppbms: fill CSV)")
    p.add_argument("dump", metavar="DUMP")
    p.add_argument("--scheme", choices=list(SCHEMES),
                   help="assert the dump holds this scheme")
    p.add_argument("--out", metavar="FILE",
                   help="output path (required for sbms/spbms; stdout otherwise)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("gen-trace", help="write a synthetic two-peer trace")
    _add_curve_flags(p)
    p.add_argument("--T", type=int, default=None, help="sending period (default 20)")
    p.add_argument("--tau", type=int, default=None, help="reply offset (default T//4)")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("fit-curve", help="fit the two-segment fill curve to samples")
    p.add_argument("--samples", required=True, metavar="FILE",
                   help="one column: fill delays (n = never filled); "
                        "two columns: 'age probability' pairs")
    p.add_argument("--n", type=int, default=_DEFAULT_N, help="window width in chunks")
    p.add_argument("--out", metavar="FILE", help="also write the fitted curve file")
    p.set_defaults(func=_cmd_fit_curve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"bmkit: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except InvariantError as exc:
        print(f"bmkit: internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except (BmkitError, ValueError, OSError) as exc:
        print(f"bmkit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug in this tool
        print(f"bmkit: internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

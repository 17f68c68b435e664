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
import warnings
from dataclasses import replace

import numpy as np

from .coders import CODER_NAMES, decode_bits, encode_bits
from .entropy import calibrate_curve, report_grid
from .errors import BmkitError, DesyncError, InsufficientDataError, InvariantError
from .fillmodel import fit_two_segment, load_curve, save_curve
from .schemes import (
    HEADER_LEN,
    CompressedBM,
    PpbmsSession,
    SpbmsDecoder,
    SpbmsEncoder,
    pack_envelope,
    pack_message,
    sbms_decode,
    sbms_encode,
    unpack_envelope,
    unpack_payload,
)
from .sim import SCHEMES, SimConfig, run_synthetic, run_trace
from .traceio import TraceRecord, generate, parse_trace, write_trace

__all__ = ["main"]

_DEFAULT_N = 456
_MAX_N = 2**16 - 1  # the widest window the 2-byte wire bit count carries
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
    p.add_argument("--n", type=int, help=f"window width in chunks (default {_DEFAULT_N})")


def _check_width(n: int) -> None:
    """Reject an ``--n`` wider than the wire carries before calibrating or
    fitting a curve that wide, which would only take longer."""
    if n > _MAX_N:
        raise _UsageError(f"--n {n} exceeds {_MAX_N}, the widest window the wire carries")


def _resolve_curve(args):
    if args.curve is not None and args.calibrate_hsbms is not None:
        raise _UsageError("--curve and --calibrate-hsbms are mutually exclusive")
    if args.curve is not None and args.n is not None:
        raise _UsageError("--curve and --n are mutually exclusive")
    if args.curve is not None:
        return load_curve(args.curve)
    target = args.calibrate_hsbms if args.calibrate_hsbms is not None else _DEFAULT_TARGET_BITS
    n = args.n if args.n is not None else _DEFAULT_N
    _check_width(n)
    return calibrate_curve(target, n).to_curve(n)


def _timing(args, curve, rounds: int) -> SimConfig:
    """The synthetic run over ``curve`` of ``--T`` (default 20), ``--tau``
    (default a quarter period, at least 1), ``--rounds`` (default
    ``rounds``) and ``--seed`` (default 0), with every scheme and no coder;
    a parameter ``SimConfig`` rejects is a usage error."""
    T = args.T if args.T is not None else 20
    try:
        return SimConfig(
            curve,
            T=T,
            tau=args.tau if args.tau is not None else max(1, T // 4),
            rounds=args.rounds if args.rounds is not None else rounds,
            seed=args.seed if args.seed is not None else 0,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


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
    try:
        report = report_grid(curve, args.T, taus=taus)
    except ValueError as exc:  # a T the window cannot hold, or no admissible tau
        raise _UsageError(str(exc))
    _emit(report.to_csv(), args.out)
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    schemes = tuple(args.scheme) if args.scheme else SCHEMES
    coders = tuple(args.coder) if args.coder else ()
    if args.trace:  # a synthetic run's flags default to None, so given ones show
        given = [f"--{flag.replace('_', '-')}"
                 for flag in ("curve", "calibrate_hsbms", "n", "T", "tau", "rounds", "seed")
                 if getattr(args, flag) is not None]
        if given:
            raise _UsageError(f"--trace replays a recorded run; {' '.join(given)} cannot apply")
        result = run_trace(args.trace, schemes=schemes, coders=coders)
    else:
        cfg = _timing(args, _resolve_curve(args), 1000)
        result = run_synthetic(replace(cfg, schemes=schemes, coders=coders))
    _emit(result.to_csv(), args.out)
    return 0


# ----------------------------------------------------------------------
# encode / decode
# ----------------------------------------------------------------------

def _peer_name(peer: str) -> bytes:
    """A peer's name as its frames carry it."""
    name = peer.encode("utf-8")
    if len(name) > 255:
        raise ValueError(f"peer name too long: {peer!r}")
    return name


def _frame(out: list, rec: TraceRecord, name: bytes, msg: CompressedBM, coder) -> None:
    """Append the frame of ``rec``'s message ``msg`` to ``out`` as pieces
    for one join; ``name`` is ``_peer_name(rec.peer)``."""
    if rec.timestamp >= 1 << 32:
        raise ValueError(f"timestamp {rec.timestamp} does not fit the frame field")
    if coder is None or msg.n_bits == 0:  # nothing to code: the whole message
        head, blob = pack_message(msg), b""
    else:  # the header, then the coder's blob of the payload
        head, blob = pack_envelope(msg), encode_bits(coder, msg.payload)
    size = len(head) + len(blob)
    if size > 0xFFFF:
        raise ValueError("message body exceeds frame capacity")
    out += (
        _FRAME_HEAD.pack(rec.timestamp, len(name)),
        name,
        _FRAME_TAIL.pack(_DIR_IDS[rec.direction], _CODER_IDS[coder], size),
        head,
        blob,
    )


def _read_frames(data: bytes):
    """Yield (timestamp, peer, direction, message) from a dump.  Each
    frame's scheme and bit count are checked against the first frame's
    before its payload is decoded."""
    if data[: len(_DUMP_MAGIC)] != _DUMP_MAGIC:
        raise ValueError("not a message dump (bad magic)")
    names = {}  # each peer name's bytes -> its decoded name
    first = n = None  # the first frame's scheme and bit count: the whole window
    pos = len(_DUMP_MAGIC)
    end = len(data)
    while pos < end:
        if end - pos < _FRAME_HEAD.size:
            raise ValueError("truncated frame header")
        ts, plen = _FRAME_HEAD.unpack_from(data, pos)
        pos += _FRAME_HEAD.size
        if end - pos < plen + _FRAME_TAIL.size:
            raise ValueError("truncated frame header")
        raw = data[pos : pos + plen]
        peer = names.get(raw)
        if peer is None:
            peer = names[raw] = raw.decode("utf-8")
        pos += plen
        dir_id, coder_id, body_len = _FRAME_TAIL.unpack_from(data, pos)
        pos += _FRAME_TAIL.size
        if dir_id not in _ID_DIRS or coder_id not in _ID_CODERS:
            raise ValueError(f"corrupt frame for peer {peer!r}")
        if end - pos < body_len or body_len < HEADER_LEN:
            raise ValueError("truncated frame body")
        scheme, offset, lbmr, cbmr, nbits, resync = unpack_envelope(data, pos)
        if first is None:
            first, n = scheme, nbits
        elif scheme != first:
            raise ValueError(f"dump mixes schemes {sorted((first, scheme))}")
        elif nbits > n or (scheme == "sbms" and nbits != n):
            what = f"{n} raw" if scheme == "sbms" else f"at most {n} payload"
            raise DesyncError(f"expected {what} bits, got {nbits}")
        coder = _ID_CODERS[coder_id]
        stop = pos + body_len
        if coder is None or nbits == 0:  # the packed payload, as the writer leaves it
            bits, used = unpack_payload(data, pos + HEADER_LEN, nbits, stop)
            if used != stop:
                raise ValueError("frame length disagrees with message length")
        else:  # the coder's blob, read in place
            bits = decode_bits(coder, data[pos + HEADER_LEN : stop], nbits)
        # unpack_envelope has checked the tag; the bits are fresh.
        msg = CompressedBM._of(scheme, offset, lbmr, cbmr, bits, resync)
        pos = stop
        yield ts, peer, _ID_DIRS[dir_id], msg


def _cmd_encode(args) -> int:
    records = parse_trace(args.trace)
    if not records:
        raise ValueError(f"trace {args.trace} holds no records")
    n = records[0].bm.n
    peers = list(dict.fromkeys(rec.peer for rec in records))
    if args.scheme == "ppbms" and len(peers) != 2:
        raise ValueError(
            f"ppbms needs a two-peer trace (both directions); "
            f"{args.trace} names {len(peers)} peer(s)"
        )
    # Each peer's sending end; sbms keeps none.
    end_type = {"sbms": None, "spbms": SpbmsEncoder, "ppbms": PpbmsSession}[args.scheme]
    ends = {p: end_type(n) if end_type else None for p in peers}
    names = {}  # each peer's name as its frames carry it, checked at its first frame
    frames = [_DUMP_MAGIC]
    for rec in records:
        end = ends[rec.peer]
        msg = sbms_encode(rec.bm) if end is None else end.encode(rec.bm)
        if args.scheme == "ppbms":  # the other peer's session takes it in
            ends[peers[1 - peers.index(rec.peer)]].decode(msg)
        name = names.get(rec.peer)
        if name is None:
            name = names[rec.peer] = _peer_name(rec.peer)
        _frame(frames, rec, name, msg, args.coder)
    with open(args.out, "wb") as fh:
        fh.write(b"".join(frames))
    return 0


def _cmd_decode(args) -> int:
    with open(args.dump, "rb") as fh:
        data = fh.read()
    frames = list(_read_frames(data))
    if not frames:
        raise ValueError(f"{args.dump} holds no frames")
    scheme = frames[0][3].scheme
    if args.scheme and args.scheme != scheme:
        raise _UsageError(f"dump holds {scheme} messages, not {args.scheme}")
    if scheme != "ppbms" and not args.out:
        raise _UsageError(f"decoding a {scheme} dump writes a trace file; --out is required")
    n = frames[0][3].n_bits
    peers = list(dict.fromkeys(peer for _, peer, _, _ in frames))
    if scheme != "ppbms":
        # Each peer's receiving end; sbms keeps none.
        decoders = {} if scheme == "sbms" else {peer: SpbmsDecoder(n) for peer in peers}
        records = []
        for ts, peer, direction, msg in frames:
            dec = decoders.get(peer)
            bm = sbms_decode(msg, n) if dec is None else dec.decode(msg)
            records.append(TraceRecord(ts, peer, direction, bm))
        write_trace(args.out, records)
        return 0
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
        head, bits = f"{ts},{peer},{direction},{out.offset},", out.bits.tolist()
        lines += [f"{head}{loc},{'01'[bit]}" for loc, bit in zip(out.locations.tolist(), bits)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# gen-trace / fit-curve
# ----------------------------------------------------------------------

def _cmd_gen_trace(args) -> int:
    cfg = _timing(args, _resolve_curve(args), 100)
    records = generate(cfg.curve, cfg.T, rounds=cfg.rounds, seed=cfg.seed, tau=cfg.tau)
    write_trace(args.out, records)
    return 0


def _cmd_fit_curve(args) -> int:
    _check_width(args.n)  # the fit's time grows with n squared
    with warnings.catch_warnings():
        # A file with no samples reads as zero delays and fails below.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
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
    p.add_argument("--rounds", type=int, help="measured periods (default 1000)")
    p.add_argument("--seed", type=int, help="default 0")
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
    p.add_argument("--rounds", type=int, help="default 100")
    p.add_argument("--seed", type=int, help="default 0")
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

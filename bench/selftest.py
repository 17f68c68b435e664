"""Self-test of the benchmark's checks.

A check that silently passes everything would report a clean run, so every
run also feeds each workload's verifier deliberately wrong results: bmkit's
decoders are patched to return one flipped bit or one missing fill row, a
small instance of the workload runs one operation through its ordinary
code path, and the operation must be counted as failed.  The same small
instance must pass when nothing is patched, so a check that fails
everything is caught too.
"""

from __future__ import annotations

import contextlib
import io
import os

from bmkit import schemes

import workloads
from tracing import rebind, replace_method, restore


def _flip_map(bm):
    bits = bm.bits.copy()
    bits[0] = not bits[0]
    return type(bm)(bm.offset, bits)


def _flip_partial(out):
    if out.bits.size == 0:
        return out
    bits = out.bits.copy()
    bits[0] = not bits[0]
    return schemes.PartialBufferMap(out.offset, out.locations, bits)


def _drop_row(out):
    if out.locations.size == 0:
        return out
    return schemes.PartialBufferMap(out.offset, out.locations[1:], out.bits[1:])


@contextlib.contextmanager
def _corrupt(target: str, mangle):
    """Make one bmkit decoder return ``mangle(result)``."""
    undo = []
    if target == "sbms":
        original = schemes.sbms_decode
        rebind(original, lambda *a, **k: mangle(original(*a, **k)), undo)
    else:
        cls, attr = {
            "spbms": (schemes.SpbmsDecoder, "decode"),
            "ppbms": (schemes.PpbmsSession, "decode"),
        }[target]
        original = cls.__dict__[attr]
        replace_method(cls, attr, lambda self, *a, **k: mangle(original(self, *a, **k)), undo)
    try:
        yield
    finally:
        restore(undo)


CORRUPTIONS = {
    "exchange": [
        ("sbms flipped bit", "sbms", _flip_map),
        ("spbms flipped bit", "spbms", _flip_map),
        ("ppbms flipped bit", "ppbms", _flip_partial),
        ("ppbms missing fill row", "ppbms", _drop_row),
    ],
    "sweep": [
        ("sbms flipped bit", "sbms", _flip_map),
        ("spbms flipped bit", "spbms", _flip_map),
        ("ppbms flipped bit", "ppbms", _flip_partial),
        ("ppbms missing fill row", "ppbms", _drop_row),
    ],
    "cli-trace": [
        ("sbms flipped bit", "sbms", _flip_map),
        ("spbms flipped bit", "spbms", _flip_map),
        ("ppbms flipped bit", "ppbms", _flip_partial),
        ("ppbms missing fill row", "ppbms", _drop_row),
    ],
}


def _small(name: str, workdir: str):
    """A quick instance of a workload with its ordinary checks."""
    if name == "exchange":
        wl = workloads.Exchange(0, n=64, h_sbms=20.0, T=8, tau=3)
    elif name == "sweep":
        wl = workloads.Sweep(0, grid=((64, 20.0),), periods=(4,), rounds=8)
    else:
        wl = workloads.CliTrace(0, workdir, rounds=10)
    wl.setup()
    return wl


def _failed_ops(name: str, workdir: str, scheme=None) -> int:
    """Failed operations in one pass of a small instance: a round for
    exchange, a full epoch (or its runs of ``scheme``) for sweep, and every
    scheme x coder round trip for cli-trace."""
    wl = _small(name, workdir)
    tally = workloads.Tally()
    if name == "sweep":
        for k in range(len(wl.combos)):
            if scheme is None or wl.run_spec(k)[0].schemes[0] == scheme:
                wl.next = k
                wl.op(tally)
    elif name == "cli-trace":
        for _ in workloads.PAIRS:
            wl.op(tally)
    else:
        wl.op(tally)
    return tally.failed


def run(workdir: str) -> list:
    """Every check as {"check", "ok"}; ok means the verdict was right."""
    sub = os.path.join(workdir, "selftest")
    os.makedirs(sub, exist_ok=True)
    results = []
    for name, cases in CORRUPTIONS.items():
        results.append({"check": f"{name}: clean pass", "ok": _failed_ops(name, sub) == 0})
        for label, target, mangle in cases:
            # The CLI reports the corruption on stderr; only the count matters.
            with _corrupt(target, mangle), contextlib.redirect_stderr(io.StringIO()):
                failed = _failed_ops(name, sub, target)
            results.append({"check": f"{name}: {label}", "ok": failed > 0})
    return results

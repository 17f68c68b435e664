"""The package's public surface: what it exports resolves, and what was
retired stays gone."""

import ast
import importlib
import inspect
import pkgutil
import tomllib
from pathlib import Path

import pytest

import bmkit
from bmkit import bitmap, coders, entropy, fillmodel, schemes, sim, traceio

MODULES = tuple(m.name for m in pkgutil.iter_modules(bmkit.__path__))
INIT = Path(bmkit.__file__)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"bmkit.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    for attr in module.__all__:
        assert hasattr(module, attr), f"bmkit.{name}.__all__ names missing {attr!r}"


def test_the_package_binds_only_its_version():
    """``bmkit`` holds its docstring and ``__version__``: every other name is
    imported from its module, so each has one import path."""
    tree = ast.parse(INIT.read_text())
    assert ast.get_docstring(tree)
    assert [(type(node), [t.id for t in node.targets]) for node in tree.body[1:]] == [
        (ast.Assign, ["__version__"])]


def test_the_version_is_the_one_pyproject_declares():
    with open(INIT.parents[2] / "pyproject.toml", "rb") as fh:
        assert bmkit.__version__ == tomllib.load(fh)["project"]["version"]


def test_retired_api_stays_gone():
    exported = set(dir(bmkit))
    for name in MODULES:
        exported |= set(importlib.import_module(f"bmkit.{name}").__all__)
    assert "full_resync" not in exported and not hasattr(schemes, "full_resync")
    for attr in ("from_range", "insert_range", "purge_below", "remove"):
        assert not hasattr(schemes.SupportSet, attr)
    assert not hasattr(schemes.PpbmsSession, "archive_and_resolve")
    # The spbms codecs keep only the previous map and the sequence stamp.
    for codec in (schemes.SpbmsEncoder(8), schemes.SpbmsDecoder(8)):
        for attr in ("ss", "window_end", "last_offset"):
            assert not hasattr(codec, attr)
    assert not hasattr(schemes.PpbmsSession(8), "last_recv_offset")
    # A ppbms end keeps two maps and derives its shared set from them.
    for attr in ("ss", "window_end", "last_sent_offset"):
        assert not hasattr(schemes.PpbmsSession(8), attr)
    # A support set is its filled window; an end exposes it as support_set alone.
    assert not hasattr(schemes.SupportSet, "mask") and not hasattr(schemes, "_SharedSet")
    for end in (schemes.SpbmsEncoder(8), schemes.SpbmsDecoder(8), schemes.PpbmsSession(8)):
        assert not hasattr(end, "_shared") and not hasattr(end, "_maps")
    # Every coder is two functions over bytes, encode(bits) and decode(blob,
    # n_bits); one integer kernel per direction codes every arithmetic-coded
    # payload.
    for name in ("ArithEncoder", "ArithDecoder", "RleStream", "HuffmanModel", "huffman_build",
                 "symbol_distribution", "chi_square_uniform"):
        assert name not in exported and not hasattr(coders, name)
    # The arithmetic coder is adaptive only: no static per-position model.
    assert not hasattr(coders, "_scale_probs")
    # A peer's window at time t starts at base_offset + t: snapshot(t).offset.
    assert not hasattr(bitmap.PeerBufferState, "offset_at")
    # Consecutive messages are read with unpack_message(data, pos).
    assert "unpack_stream" not in exported and not hasattr(schemes, "unpack_stream")
    # A ppbms report is read through its locations and bits.
    assert not hasattr(schemes.PartialBufferMap, "pairs")
    # The simulator sizes each sent set as the sender's len(support_set): the ends
    # keep no count, and the simulator keeps no second count nor the reports it read.
    for end in (schemes.SpbmsEncoder(8), schemes.SpbmsDecoder(8), schemes.PpbmsSession(8)):
        assert not hasattr(end, "_set_size")
    assert not hasattr(sim, "_set_size") and not hasattr(sim._Link("ab", None, None), "report")
    # A value has one reader: bm.bits, curve.probs and curve.n, part.locations[part.bits],
    # and a report's rows.
    for cls, attr in ((bitmap.BufferMap, "age_of"), (bitmap.BufferMap, "bit_for"),
                      (fillmodel.SCurve, "eval"), (fillmodel.SCurve, "__len__"),
                      (schemes.PartialBufferMap, "filled"), (entropy.EntropyReport, "select")):
        assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"
    # A run's timing is checked by SimConfig, and only the CLI defaults tau.
    assert "ExchangeParams" not in exported and not hasattr(entropy, "ExchangeParams")
    assert inspect.signature(traceio.generate).parameters["tau"].default is inspect.Parameter.empty
    # A record's offset is rec.bm.offset, and a report prints through to_csv.
    assert not hasattr(traceio.TraceRecord, "offset")
    assert not hasattr(entropy.EntropyRow, "as_csv")
    # An engine holds its one fault script; a link keeps no copy of it.
    for attr in ("drop_at", "swap_at", "delay_at"):
        assert not hasattr(sim._Link("ab", None, None), attr)
    # A pairing's loss recovery lives in its one _Recovery, and _deliver holds envelopes.
    engine = sim._Engine("ppbms", ("ab", "ba"), 8, 8, False, sim.ReorderScript(), None)
    for attr in ("send_epoch", "recv_epoch", "needs_resync", "dirty", "_hold"):
        assert not hasattr(engine, attr), attr
    # A link's coder byte totals are counted off its measured payloads when
    # its row is built, so neither an engine nor a link takes the coders; an
    # engine's resyncs are its recovery's epoch, and the drained check reads
    # what is in flight itself.
    for cls in (sim._Engine, sim._Link):
        assert "coders" not in inspect.signature(cls).parameters, cls.__name__
    assert not hasattr(sim._Recovery(), "resyncs") and not hasattr(sim._Engine, "_outstanding")
    # The conditional fill probability has one home, next to the curve.
    assert entropy._cond_fill is fillmodel._cond_fill and sim._cond_fill is fillmodel._cond_fill
    params = {
        schemes.sbms_encode: ["bm"],
        schemes.sbms_decode: ["msg", "n"],
        coders.huffman_encode: ["bits"],
        coders.arith_encode: ["bits"],
        coders.arith_decode: ["data", "n_bits"],
        bitmap.PeerBufferState: ["peer_id", "curve", "base_offset", "rng"],
        entropy.calibrate_curve: ["target_h_sbms", "n"],
        entropy.report_grid: ["curve", "T_list", "taus"],
        entropy.EntropyReport.mean_gain: ["self", "scheme", "baseline"],
    }
    for fn, names in params.items():
        assert list(inspect.signature(fn).parameters) == names, fn
    # The expected bit count bounds every run-length decoder.
    for fn in (coders.rle_decode, coders.huffman_decode):
        assert inspect.signature(fn).parameters["n_bits"].default is inspect.Parameter.empty


@pytest.mark.parametrize("module, source", [("cli", None), ("sim", "schemes")])
def test_module_imports_no_private_name(module, source):
    """``cli`` imports no ``_``-prefixed name from bmkit, and ``sim`` none
    from ``schemes``: each goes through the other modules' public names."""
    tree = ast.parse((INIT.parent / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        where = node.module or ""
        if node.level == 0:
            if where.split(".")[0] != "bmkit":
                continue  # the standard library and numpy
            where = where.removeprefix("bmkit").lstrip(".")
        if source in (None, where):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"{module} imports {private} from {node.module or '.'}"


@pytest.mark.parametrize("name", MODULES + ("__init__",))
def test_module_uses_every_name_it_imports(name):
    """Each module, the package's ``__init__`` too, reads every name it
    imports.  ``from __future__`` imports are compiler directives."""
    tree = ast.parse((INIT.parent / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"bmkit.{name} imports {sorted(imported - used)} unused"

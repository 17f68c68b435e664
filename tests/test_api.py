"""The package's public surface: what it exports resolves, and what was
retired stays gone."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import bmkit
from bmkit import bitmap, coders, entropy, schemes

MODULES = ("bitmap", "cli", "coders", "entropy", "errors", "fillmodel", "schemes", "sim",
           "traceio")
INIT = Path(bmkit.__file__)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"bmkit.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    for attr in module.__all__:
        assert hasattr(module, attr), f"bmkit.{name}.__all__ names missing {attr!r}"


def test_the_package_imports_only_what_modules_export():
    tree = ast.parse(INIT.read_text())
    imported = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imported
    for node in imported:
        module = importlib.import_module(f"bmkit.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} not in bmkit.{node.module}"


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
    # Every coder is two functions over bytes, encode(bits) and decode(blob,
    # n_bits); one integer kernel per direction codes every arithmetic-coded
    # payload.
    for name in ("ArithEncoder", "ArithDecoder", "RleStream", "HuffmanModel", "huffman_build"):
        assert name not in exported and not hasattr(coders, name)
    params = {
        schemes.sbms_encode: ["bm"],
        schemes.sbms_decode: ["msg", "n"],
        coders.huffman_encode: ["bits"],
        bitmap.PeerBufferState: ["peer_id", "curve", "base_offset", "rng"],
        entropy.calibrate_curve: ["target_h_sbms", "n"],
    }
    for fn, names in params.items():
        assert list(inspect.signature(fn).parameters) == names, fn
    # The expected bit count bounds every run-length decoder.
    for fn in (coders.rle_decode, coders.huffman_decode):
        assert inspect.signature(fn).parameters["n_bits"].default is inspect.Parameter.empty

"""The benchmark under ``bench/`` reaches bmkit by name from outside the
package: its tracer rebinds layer entry points, and its sweep swaps the
encoders ``sim`` builds.  These tests fail when one of those names moves."""

import sys
from pathlib import Path

import pytest

from bmkit import coders, schemes, sim
from bmkit.fillmodel import two_segment_curve

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench(monkeypatch):
    """Import the benchmark's modules from ``bench/``, as ``bench/run.py`` does."""
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)


def test_the_tracer_installs_and_uninstalls(bench):
    import tracing

    originals = (schemes.pack_message, coders.encode_bits)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert schemes.pack_message is not originals[0]
        assert coders.encode_bits is not originals[1]
    finally:
        tracer.uninstall()
    assert schemes.pack_message is originals[0] and coders.encode_bits is originals[1]


class _Owner:
    log = None


@pytest.mark.parametrize("scheme, name", [("sbms", "sbms_encode"),
                                          ("spbms", "SpbmsEncoder"),
                                          ("ppbms", "PpbmsSession")])
def test_the_sweep_stand_ins_replace_names_a_run_looks_up(bench, monkeypatch, scheme, name):
    """Every stand-in the sweep sets on ``sim`` replaces a module global
    that a run reads when it runs: each send goes through sbms's encoder,
    and one stateful end per sender is built through its class."""
    import workloads

    assert set(workloads.logging_standins(_Owner)) <= set(vars(sim))
    original, used = getattr(sim, name), []
    if isinstance(original, type):
        class Counting(original):
            def __init__(self, *args, **kwargs):
                used.append(self)
                super().__init__(*args, **kwargs)
    else:
        def Counting(*args, **kwargs):
            used.append(args)
            return original(*args, **kwargs)

    monkeypatch.setattr(sim, name, Counting)
    cfg = sim.SimConfig(two_segment_curve(32, 4, 0.8), T=8, tau=2, rounds=5, schemes=(scheme,))
    sim.reorder_fault_run(cfg, None)
    sends = 2 * (cfg.warmup_periods + cfg.rounds)
    assert len(used) == (sends if scheme == "sbms" else 2)

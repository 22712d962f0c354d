"""The benchmark's tracer (perfbench/tracing.py) replaces dhp functions under
the names the modules bind them by, so it breaks when a binding it names goes
away. This keeps that visible without a traced benchmark run."""

from pathlib import Path

import dhp.netsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_netsim_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = dhp.netsim.append_block
    tracer = tracing.Tracer("bindings")
    try:
        tracer.install()
        assert dhp.netsim.append_block is not original
    finally:
        tracer.uninstall()
    assert dhp.netsim.append_block is original

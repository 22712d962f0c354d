"""The benchmark's tracer (perfbench/tracing.py) replaces dhp functions under
the names the modules bind them by, so it breaks when a binding it names goes
away. This keeps that visible without a traced benchmark run."""

import os
import sys
from pathlib import Path

import dhp.cli  # noqa: F401  (the tracer patches every dhp module)
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


def bindings() -> dict:
    """Every name a dhp module binds, every attribute of the classes it
    defines, and os.fsync, by identity."""
    found = {("os", "fsync"): os.fsync}
    for module_name, module in list(sys.modules.items()):
        if module_name != "dhp" and not module_name.startswith("dhp."):
            continue
        for name, value in vars(module).items():
            found[(module_name, name)] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, raw in vars(value).items():
                    found[(module_name, name, attr)] = raw
    return found


def test_the_whole_tracer_installs_and_restores_every_binding(monkeypatch):
    """Every TARGETS entry resolves and is wrapped, and uninstall puts back
    every binding it touched, so a renamed target fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = bindings()
    tracer = tracing.Tracer("bindings")
    try:
        tracer.install()
        during = bindings()
        for module_name, attr, name, _ in tracing.TARGETS:
            key = (module_name, *attr.split("."))
            assert key in before, name
            assert during[key] is not before[key], name
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

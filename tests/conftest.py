import hashlib
import sys
from datetime import date

import pytest

from dhp.core import Registry, Role, TestMethod, TravelDocument
from dhp.crypto import keygen
from dhp.ledger import ChainState


def make_doc(i: int, country: str = "GRC") -> TravelDocument:
    return TravelDocument(f"P{i:08d}", country, date(2033, 6, 1))


def seeded_key(role: Role, tag: str):
    return keygen(role, hashlib.sha256(f"seed:{role.name}:{tag}".encode()).digest())


class Consortium:
    """A small deterministic consortium for tests."""

    def __init__(self, num_hsa=2, num_thf=2, num_bm=1, genesis_time=1_700_000_000):
        self.hsa_keys = [seeded_key(Role.HSA, f"hsa{i}") for i in range(num_hsa)]
        self.thf_keys = [seeded_key(Role.THF, f"thf{i}") for i in range(num_thf)]
        self.bm_keys = [seeded_key(Role.BM, f"bm{i}") for i in range(num_bm)]
        self.registry = Registry(
            members=tuple(k.owner for k in self.hsa_keys + self.thf_keys + self.bm_keys)
        )
        self.genesis_time = genesis_time
        self.state = ChainState.genesis(self.registry, genesis_time=genesis_time)
        self.method = TestMethod.named("RT-qPCR")


@pytest.fixture
def consortium():
    return Consortium()


def counted(monkeypatch, name):
    """The calls of the function bound as name, counted at every dhp module
    that binds it, as the benchmark's tracer wraps it."""
    calls = []
    for key, module in list(sys.modules.items()):
        original = getattr(module, name, None) if key == "dhp" or key.startswith("dhp.") else None
        if callable(original):
            def counting(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return calls


_acceptance_results: list[tuple[object, str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        status = "PASS" if report.passed else "FAIL"
        _acceptance_results.append((marker.args[0], marker.args[1], status))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num, description, status in sorted(_acceptance_results, key=lambda r: str(r[0])):
        terminalreporter.write_line(f"  criterion {num} [{status}]: {description}")

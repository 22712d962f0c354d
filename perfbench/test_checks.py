"""The benchmark's correctness checks catch a planted wrong output.

    python3 -m pytest perfbench/test_checks.py -q

For each workload a small real output is made with dhp, shown to pass its
check, and then altered in one place, which the check must report.
"""

from __future__ import annotations

import dataclasses
import io
from contextlib import redirect_stdout
from random import Random

import pytest

from common import load_dhp

load_dhp()

import inputs  # noqa: E402
from checks import check_outcome, check_receipt_log, check_registration, check_sim  # noqa: E402
from dhp import cli  # noqa: E402
from dhp.core import Registry, Role  # noqa: E402
from dhp.crypto import keygen  # noqa: E402
from dhp.ledger import ChainState  # noqa: E402
from dhp.protocol import OutcomeStatus, bm_verify, hsa_register, parse_policy, thf_issue  # noqa: E402
from dhp.storage import BlockLog, ReceiptLog  # noqa: E402


@pytest.fixture(scope="module")
def small_chain():
    """Four credentials in one block, their documents and tokens."""
    rng = Random(5)
    hsa, thf, bm = (keygen(role, rng.randbytes(32)) for role in (Role.HSA, Role.THF, Role.BM))
    registry = Registry((hsa.owner, thf.owner, bm.owner))
    state = ChainState.genesis(registry, genesis_time=inputs.GENESIS_TIME)
    docs = [inputs.make_doc(rng, i) for i in range(4)]
    pending = [thf_issue(thf, d, True, inputs.METHOD, inputs.HISTORY_TIME - 3600, now=inputs.HISTORY_TIME, rng=rng)
               for d in docs]
    state, tokens = hsa_register(hsa, state, pending, inputs.HISTORY_TIME)
    return registry, bm, state, docs, pending, tokens


def test_checkin_outcome_check_catches_a_wrong_status(small_chain):
    registry, bm, state, docs, _, tokens = small_chain
    check = inputs.Check("first", tokens[0], docs[0], inputs.CHECK_TIME, OutcomeStatus.VALID, None,
                         (1, tokens[0].record_index))
    policy = parse_policy(inputs.POLICY_TEXT)
    outcome, receipt = bm_verify(bm, state, check.token, check.doc, policy, check.at)
    assert check_outcome(check, outcome, receipt) == []
    planted = dataclasses.replace(outcome, status=OutcomeStatus.COMMITMENT_MISMATCH)
    assert check_outcome(check, planted, receipt)


def test_checkin_receipt_check_catches_a_foreign_signature(small_chain, tmp_path):
    registry, bm, state, docs, _, tokens = small_chain
    policy = parse_policy(inputs.POLICY_TEXT)
    log = ReceiptLog(tmp_path / "receipts.log")
    expected = []
    for token, doc in zip(tokens, docs):
        _, receipt = bm_verify(bm, state, token, doc, policy, inputs.CHECK_TIME)
        log.append(receipt)
        expected.append((token.header_hash, token.record_index, OutcomeStatus.VALID.value, inputs.CHECK_TIME))
    assert check_receipt_log(log.path, expected, bm.public, bm.owner.id) == []
    impostor = keygen(Role.BM, bytes(32))
    _, forged = bm_verify(dataclasses.replace(bm, secret=impostor.secret), state, tokens[0], docs[0], policy,
                          inputs.CHECK_TIME)
    log.append(forged)
    problems = check_receipt_log(log.path, expected + [expected[0]], bm.public, bm.owner.id)
    assert any("signature" in p for p in problems)


def test_register_check_catches_a_token_naming_another_record(small_chain, tmp_path):
    _, _, state, docs, pending, tokens = small_chain
    block = state.blocks[1]
    log = BlockLog(tmp_path / "blocks.log")
    log.append(block)
    logs = [log.path.read_bytes()] * 3
    issued = [(d, p.salt.value, p.record.commitment) for d, p in zip(docs, pending)]
    records = [block.records[t.record_index] for t in tokens]
    assert check_registration(issued, tokens, records, logs, 4) == []
    swapped = [records[1], records[0]] + records[2:]
    assert check_registration(issued, tokens, swapped, logs, 4)


def test_sim_check_catches_a_zero_delay(tmp_path):
    sim = dict(inputs.SIM, rounds=3)
    config = tmp_path / "sim.cfg"
    config.write_text(inputs.sim_config_text(1).replace(f"rounds = {inputs.SIM['rounds']}", "rounds = 3"))
    export = tmp_path / "report.txt"
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["sim", "run", "--config", str(config), "--export", str(export)])
    args = (sim["num_hsa"], sim["num_bm"], sim["rounds"], sim["submission_rate"], sim["max_delay"])
    report = export.read_text()
    assert check_sim(rc, out.getvalue(), report, *args) == []
    first = report.splitlines()[0]
    planted = report.replace(first, first.rsplit(" ", 1)[0] + " 0", 1)
    assert check_sim(rc, out.getvalue(), planted, *args)
    assert check_sim(rc, out.getvalue().replace("lost: 0", "lost: 1"), report, *args)


def test_every_workload_reports_the_manifest_metrics():
    """The result line of every workload names exactly the metrics of
    BENCHMARK.json, in their units."""
    import json

    import checkin
    import register
    import run
    import sim
    import tracing
    from common import ROOT

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.UNITS
    assert [m["name"] for m in manifest["per_layer"]] == list(tracing.PER_LAYER)
    units = {name: unit for name, (_, unit) in tracing.layer_metrics(tracing.Merged([]), 0, 0, {}).items()}
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {name: units[name] for name in tracing.PER_LAYER}
    assert {w["name"] for w in manifest["workloads"]} == {"checkin", "register", "sim"}
    for workload in (checkin, register, sim):
        assert set(workload.MEANING) == set(run.E2E)

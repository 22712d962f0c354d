import socket
import struct
import subprocess
import sys
import time

import pytest

from dhp.cli import main
from dhp.core import Role
from dhp.crypto import keygen
from dhp.ledger import header_hash, token_bytes
from dhp.protocol import bm_verify, parse_pending, pending_bytes, thf_issue
from dhp.storage import (
    BlockLog,
    ReceiptLog,
    load_keypair,
    save_keypair,
    save_registry,
    write_genesis_time,
)

from conftest import Consortium, make_doc
from test_protocol import POLICY, POLICY_TEXT, issue_and_register
from test_ledger import grow_chain

T0 = 1_700_000_000


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_keygen_and_registry_flow(tmp_path, capsys):
    key_path = tmp_path / "thf.key"
    code, out, _ = run_cli(capsys, "keygen", "--role", "thf", "--out", str(key_path))
    assert code == 0
    key = load_keypair(key_path)
    assert key.owner.role is Role.THF

    registry_path = tmp_path / "registry.txt"
    code, out, _ = run_cli(capsys, "registry", "add", "--registry", str(registry_path), "--key", str(key_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "registry", "list", "--registry", str(registry_path))
    assert code == 0
    assert key.owner.id.hex() in out

    # adding the same member twice fails
    code, _, err = run_cli(capsys, "registry", "add", "--registry", str(registry_path), "--key", str(key_path))
    assert code == 1
    assert "duplicate" in err


def test_keygen_seeded_is_deterministic(tmp_path, capsys):
    seed = "ab" * 32
    code, out1, _ = run_cli(capsys, "keygen", "--role", "hsa", "--out", str(tmp_path / "a.key"), "--seed", seed)
    code, out2, _ = run_cli(capsys, "keygen", "--role", "hsa", "--out", str(tmp_path / "b.key"), "--seed", seed)
    assert out1 == out2
    assert load_keypair(tmp_path / "a.key") == load_keypair(tmp_path / "b.key")


def test_thf_issue_prints_parseable_frame(tmp_path, capsys):
    c = Consortium()
    key_path = tmp_path / "thf.key"
    save_keypair(key_path, c.thf_keys[0])
    code, out, _ = run_cli(
        capsys, "thf", "issue", "--key", str(key_path),
        "--doc-number", "AB1234567", "--doc-country", "GRC", "--doc-expiry", "2031-05-17",
        "--method", "RT-qPCR", "--result", "true", "--tested-at", str(T0),
    )
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    pending = parse_pending(bytes.fromhex(lines["pending"]), c.state.issuer_registry)
    assert pending.record.commitment.hex() == lines["commitment"]
    assert pending.record.tested_at == T0


def test_thf_issue_refuses_risky_result(tmp_path, capsys):
    c = Consortium()
    key_path = tmp_path / "thf.key"
    save_keypair(key_path, c.thf_keys[0])
    code, _, err = run_cli(
        capsys, "thf", "issue", "--key", str(key_path),
        "--doc-number", "AB1234567", "--doc-country", "GRC", "--doc-expiry", "2031-05-17",
        "--method", "RT-qPCR", "--result", "false",
    )
    assert code == 1
    assert "risk" in err.lower()


def make_data_dir(tmp_path, blocks=4):
    c = Consortium()
    state = grow_chain(c, blocks, per_block=2)
    data_dir = tmp_path / "node"
    data_dir.mkdir()
    log = BlockLog(data_dir / "blocks.log")
    for block in state.blocks[1:]:
        log.append(block)
    save_registry(data_dir / "registry.txt", c.registry)
    write_genesis_time(data_dir, c.genesis_time)
    return c, state, data_dir


def test_chain_audit_ok(tmp_path, capsys):
    c, state, data_dir = make_data_dir(tmp_path)
    code, out, _ = run_cli(capsys, "chain", "audit", "--data-dir", str(data_dir))
    assert code == 0
    assert f"height {state.height}" in out
    assert f"{len(state.index)} record signatures checked" in out


def test_chain_audit_detects_corruption_with_offset(tmp_path, capsys):
    c, state, data_dir = make_data_dir(tmp_path)
    path = data_dir / "blocks.log"
    data = bytearray(path.read_bytes())
    # find the offset of the second frame and flip one payload byte
    pos = 5
    (n,) = struct.unpack_from(">I", data, pos)
    second = pos + 4 + n
    data[second + 30] ^= 0x08
    path.write_bytes(bytes(data))
    code, _, err = run_cli(capsys, "chain", "audit", "--data-dir", str(data_dir))
    assert code == 2
    assert f"offset {second}" in err


def test_chain_audit_uses_env_data_dir(tmp_path, capsys, monkeypatch):
    c, state, data_dir = make_data_dir(tmp_path)
    monkeypatch.setenv("DHP_DATA_DIR", str(data_dir))
    code, out, _ = run_cli(capsys, "chain", "audit")
    assert code == 0


def test_bm_verify_cli_happy_and_stale(tmp_path, capsys):
    c = Consortium()
    doc = make_doc(3)
    state, tokens, _ = issue_and_register(c, [doc], tested_at=T0, now=T0 + 60)
    data_dir = tmp_path / "bm"
    data_dir.mkdir()
    log = BlockLog(data_dir / "blocks.log")
    for block in state.blocks[1:]:
        log.append(block)
    save_registry(data_dir / "registry.txt", c.registry)
    write_genesis_time(data_dir, c.genesis_time)
    policy_path = tmp_path / "policy.txt"
    policy_path.write_text(POLICY_TEXT)
    key_path = tmp_path / "bm.key"
    save_keypair(key_path, c.bm_keys[0])

    doc_args = [
        "--doc-number", doc.doc_number, "--doc-country", doc.issuing_country,
        "--doc-expiry", doc.expiry.isoformat(),
    ]
    code, out, _ = run_cli(
        capsys, "bm", "verify",
        "--token", token_bytes(tokens[0]).hex(),
        "--policy", str(policy_path), "--key", str(key_path),
        "--data-dir", str(data_dir), "--at", str(T0 + 3600), *doc_args,
    )
    assert code == 0
    assert out.startswith("Valid")
    receipts = ReceiptLog(data_dir / "receipts.log").read_all(c.registry)
    assert len(receipts) == 1

    code, out, _ = run_cli(
        capsys, "bm", "verify",
        "--token", token_bytes(tokens[0]).hex(),
        "--policy", str(policy_path), "--key", str(key_path),
        "--data-dir", str(data_dir), "--at", str(T0 + 73 * 3600), *doc_args,
    )
    assert code == 1
    assert "TEST_TOO_OLD" in out
    assert len(ReceiptLog(data_dir / "receipts.log").read_all(c.registry)) == 2


def test_audit_manifest_cli(tmp_path, capsys):
    c = Consortium()
    docs = [make_doc(i) for i in range(5)]
    state, tokens, _ = issue_and_register(c, docs, tested_at=T0, now=T0 + 60)
    receipts_path = tmp_path / "receipts.log"
    log = ReceiptLog(receipts_path)
    for token, doc in zip(tokens[1:], docs[1:]):  # withhold the first receipt
        _, receipt = bm_verify(c.bm_keys[0], state, token, doc, POLICY, T0 + 3600)
        log.append(receipt)
    registry_path = tmp_path / "registry.txt"
    save_registry(registry_path, c.registry)
    manifest_path = tmp_path / "manifest.txt"
    manifest_path.write_text(
        "".join(f"{t.header_hash.hex()} {t.record_index}\n" for t in tokens)
    )
    code, out, _ = run_cli(
        capsys, "audit", "manifest", "--receipts", str(receipts_path),
        "--manifest", str(manifest_path), "--registry", str(registry_path),
    )
    assert code == 1
    assert out.count("missing") == 1
    assert f"{tokens[0].header_hash.hex()} {tokens[0].record_index}" in out

    _, receipt = bm_verify(c.bm_keys[0], state, tokens[0], docs[0], POLICY, T0 + 3600)
    log.append(receipt)
    code, out, _ = run_cli(
        capsys, "audit", "manifest", "--receipts", str(receipts_path),
        "--manifest", str(manifest_path), "--registry", str(registry_path),
    )
    assert code == 0
    assert "audit ok" in out


def test_sim_run_cli(tmp_path, capsys):
    config_path = tmp_path / "sim.cfg"
    config_path.write_text(
        "rng_seed = 3\nnum_hsa = 1\nnum_bm = 1\nrounds = 10\nsubmission_rate = 1\n"
        "delay_model = zero\ntheta = 1\n"
    )
    export_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "sim", "run", "--config", str(config_path), "--export", str(export_path))
    assert code == 0
    assert "consistency: true" in out
    lines = export_path.read_text().splitlines()
    assert lines[-1] == "consistency true"
    assert len(lines) == 10 * 2 + 1  # one line per (credential, node)


def test_sim_run_cli_rejects_bad_config(tmp_path, capsys):
    config_path = tmp_path / "sim.cfg"
    config_path.write_text("rounds = 5\n")
    code, _, err = run_cli(capsys, "sim", "run", "--config", str(config_path))
    assert code == 1
    assert "rng_seed" in err


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_hsa_run_daemon_subprocess(tmp_path):
    c = Consortium(num_hsa=1)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "hsa.key", c.hsa_keys[0])
    port = free_port()
    (tmp_path / "node.cfg").write_text(
        f"role = hsa\nlisten = 127.0.0.1:{port}\ndata_dir = hsa-data\n"
        "registry = registry.txt\nkey = hsa.key\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "dhp.cli", "hsa", "run", "--config", str(tmp_path / "node.cfg")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening" in line
        from dhp.service import NodeClient

        deadline = time.monotonic() + 5
        head = None
        while time.monotonic() < deadline:
            try:
                with NodeClient.connect("127.0.0.1", port, key=c.thf_keys[0], registry=c.registry) as client:
                    head = client.get_head()
                break
            except OSError:
                time.sleep(0.05)
        assert head is not None and head.height == 0
    finally:
        proc.terminate()
        proc.wait(timeout=5)


@pytest.mark.parametrize("forgotten", [False, True])
def test_thf_submit_cli_round_trip(tmp_path, capsys, monkeypatch, forgotten):
    """With forgotten, the authority acks the first submission and then
    loses it, as a restart would: --wait resubmits once and gets the token."""
    from dhp.core import Role
    from dhp.service import HsaNode, NodeConfig

    submits = []
    handle_submit = HsaNode._handle_submit

    def forgetful(self, member, r):
        with self._lock:
            reply = handle_submit(self, member, r)
            if forgotten and not submits:
                self._mempool.clear()
            submits.append(reply)
        return reply

    monkeypatch.setattr(HsaNode, "_handle_submit", forgetful)

    c = Consortium(num_hsa=1)
    registry_path = tmp_path / "registry.txt"
    save_registry(registry_path, c.registry)
    thf_key_path = tmp_path / "thf.key"
    save_keypair(thf_key_path, c.thf_keys[0])
    save_keypair(tmp_path / "hsa.key", c.hsa_keys[0])
    node = HsaNode(NodeConfig(
        role=Role.HSA,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "hsa-data",
        registry_file=registry_path,
        key_file=tmp_path / "hsa.key",
        block_interval=0.02,
        genesis_time=0,
    ))
    node.start()
    try:
        code, out, _ = run_cli(
            capsys, "thf", "issue", "--key", str(thf_key_path),
            "--doc-number", "SUBMIT001", "--doc-country", "GRC", "--doc-expiry", "2031-01-01",
            "--method", "RT-qPCR", "--result", "true",
        )
        assert code == 0
        pending_hex = out.splitlines()[0].split(" ", 1)[1]
        code, out, _ = run_cli(
            capsys, "thf", "submit", "--key", str(thf_key_path),
            "--node", f"127.0.0.1:{node.address[1]}",
            "--pending", pending_hex, "--registry", str(registry_path), "--wait",
        )
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert "ack" in lines and "token" in lines
        from dhp.ledger import parse_token

        token = parse_token(bytes.fromhex(lines["token"]))
        assert node.state.header_index[token.header_hash] == 1
        assert len(submits) == (2 if forgotten else 1)
    finally:
        node.stop()


def test_cli_reports_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "registry", "list", "--registry", str(tmp_path / "nope.txt"))
    assert code == 1
    assert "error" in err


def test_thf_submit_cli_rejects_a_bad_node_address(tmp_path, capsys):
    c = Consortium()
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "thf.key", c.thf_keys[0])
    pending = thf_issue(c.thf_keys[0], make_doc(1), True, c.method, T0, now=T0)
    for address in ("127.0.0.1:nope", "127.0.0.1:99999"):  # not a port; wraps to 34463 if connected
        code, _, err = run_cli(
            capsys, "thf", "submit", "--key", str(tmp_path / "thf.key"), "--node", address,
            "--pending", pending_bytes(pending).hex(), "--registry", str(tmp_path / "registry.txt"),
        )
        assert code == 1
        assert f"bad address '{address}', expected host:port" in err

"""Command-line front end for every consortium role.

Exit status is 0 only on success; failures print a message to stderr and
return non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from datetime import date
from pathlib import Path

from .core import DhpError, Registry, Role, TestMethod, TravelDocument
from .crypto import keygen
from .ledger import header_hash, parse_token, token_bytes
from .netsim import check_theta_liveness, format_report, parse_sim_config, run_simulation, summarize_report
from .protocol import (
    OutcomeStatus,
    audit_manifest,
    bm_verify,
    parse_pending,
    parse_policy,
    pending_bytes,
    thf_issue,
)
from .service import ERR_NOT_FOUND, NodeClient, ServiceError, build_node, parse_hostport, parse_node_config
from .storage import (
    CorruptLog,
    load_keypair,
    load_registry,
    open_receipts,
    parse_manifest,
    read_receipts,
    replay_data_dir,
    save_keypair,
    save_registry,
)


def _data_dir(args) -> Path:
    value = getattr(args, "data_dir", None) or os.environ.get("DHP_DATA_DIR")
    if not value:
        raise DhpError("no data dir: pass --data-dir or set DHP_DATA_DIR")
    return Path(value)


def cmd_keygen(args) -> int:
    seed = bytes.fromhex(args.seed) if args.seed else None
    key = keygen(Role[args.role.upper()], seed)
    save_keypair(args.out, key)
    print(f"{key.owner.role.name} {key.owner.id.hex()} pub {key.public.hex()}")
    return 0


def cmd_registry_add(args) -> int:
    key = load_keypair(args.key)
    path = Path(args.registry)
    registry = load_registry(path) if path.exists() else Registry(members=())
    registry = registry.with_member(key.owner)
    save_registry(path, registry)
    print(f"added {key.owner.role.name} {key.owner.id.hex()}")
    return 0


def cmd_registry_list(args) -> int:
    registry = load_registry(args.registry)
    for member in registry.members:
        print(f"{member.role.name} {member.id.hex()} {member.public_key.hex()}")
    return 0


def _parse_doc(args) -> TravelDocument:
    return TravelDocument(
        doc_number=args.doc_number,
        issuing_country=args.doc_country,
        expiry=date.fromisoformat(args.doc_expiry),
    )


def cmd_thf_issue(args) -> int:
    thf = load_keypair(args.key)
    tested_at = args.tested_at if args.tested_at is not None else int(time.time())
    pending = thf_issue(
        thf,
        _parse_doc(args),
        result=args.result == "true",
        method=TestMethod.named(args.method),
        tested_at=tested_at,
    )
    print(f"pending {pending_bytes(pending).hex()}")
    print(f"commitment {pending.record.commitment.hex()}")
    return 0


def cmd_thf_submit(args) -> int:
    thf = load_keypair(args.key)
    registry = load_registry(args.registry)
    pending = parse_pending(bytes.fromhex(args.pending), registry.issuers())
    with NodeClient.connect(*parse_hostport(args.node), key=thf, registry=registry) as client:
        commitment, duplicate = client.submit_dhp(pending)
        print(f"ack {commitment.hex()}{' (duplicate)' if duplicate else ''}")
        if args.wait:
            try:
                token = client.wait_for_token(commitment, timeout=args.timeout)
            except ServiceError as exc:
                if exc.code != ERR_NOT_FOUND:
                    raise
                # The authority lost it (a restart empties its mempool and
                # tokens): a resubmission is admitted again or mints its token.
                client.submit_dhp(pending)
                token = client.wait_for_token(commitment, timeout=args.timeout)
            print(f"token {token_bytes(token).hex()}")
    return 0


def _run_node(config_path: str, expected: Role) -> int:
    config = parse_node_config(Path(config_path).read_text(), base_dir=Path(config_path).parent)
    if config.role is not expected:
        raise DhpError(f"config role is {config.role.name}, expected {expected.name}")
    node = build_node(config)
    node.start()
    print(f"{expected.name} node listening on {node.address[0]}:{node.address[1]}", flush=True)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        node.stop()
    return 0


def cmd_hsa_run(args) -> int:
    return _run_node(args.config, Role.HSA)


def cmd_bm_run(args) -> int:
    return _run_node(args.config, Role.BM)


def cmd_bm_verify(args) -> int:
    bm = load_keypair(args.key)
    data_dir = _data_dir(args)
    policy = parse_policy(Path(args.policy).read_text())
    state = replay_data_dir(data_dir, args.registry, int(time.time()), strict=False)
    token = parse_token(bytes.fromhex(args.token))
    at = args.at if args.at is not None else int(time.time())
    outcome, receipt = bm_verify(bm, state, token, _parse_doc(args), policy, at)
    with open_receipts(data_dir) as log:
        log.append(receipt)
    receipt_id = hashlib.sha256(receipt.bm_signature).hexdigest()[:16]
    if outcome.status is OutcomeStatus.VALID:
        print(f"Valid (receipt {receipt_id})")
        return 0
    reason = f"/{outcome.violation_reason.name}" if outcome.violation_reason else ""
    print(f"{outcome.status.name}{reason} (receipt {receipt_id})")
    return 1


def cmd_sim_run(args) -> int:
    config = parse_sim_config(Path(args.config).read_text())
    report = run_simulation(config)
    if args.export:
        Path(args.export).write_text(format_report(report))
    print(summarize_report(report), end="")
    violations = check_theta_liveness(report, config.theta)
    if violations:
        print(f"theta violations: {len(violations)}", file=sys.stderr)
        return 1
    if not report.consistent or report.lost or report.duplicated:
        return 1
    return 0


def cmd_chain_audit(args) -> int:
    state = replay_data_dir(_data_dir(args), args.registry, int(time.time()), strict=True)
    print(f"chain audit ok: {len(state.blocks)} blocks, height {state.height}, "
          f"{len(state.index)} records, {len(state.index)} record signatures checked, "
          f"tip {header_hash(state.tip.header).hex()[:16]}")
    return 0


def cmd_audit_manifest(args) -> int:
    registry = load_registry(args.registry)
    receipts = read_receipts(args.receipts, registry)
    manifest = parse_manifest(Path(args.manifest).read_text())
    missing = audit_manifest(receipts, manifest, registry)
    if not missing:
        print(f"audit ok: {len(manifest)} manifest entries covered by {len(receipts)} receipts")
        return 0
    for block_hash, index in missing:
        print(f"missing {block_hash.hex()} {index}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dhp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="create a consortium key pair")
    p.add_argument("--role", required=True, choices=["thf", "hsa", "bm"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", help="32-byte hex seed (tests only)")
    p.set_defaults(func=cmd_keygen)

    registry = sub.add_parser("registry", help="manage the consortium registry")
    rsub = registry.add_subparsers(dest="registry_command", required=True)
    p = rsub.add_parser("add", help="add a key file's owner to the registry")
    p.add_argument("--registry", required=True)
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_registry_add)
    p = rsub.add_parser("list", help="print registry members")
    p.add_argument("--registry", required=True)
    p.set_defaults(func=cmd_registry_list)

    thf = sub.add_parser("thf", help="testing facility commands")
    tsub = thf.add_subparsers(dest="thf_command", required=True)
    p = tsub.add_parser("issue", help="issue a credential, print its frame")
    p.add_argument("--key", required=True)
    p.add_argument("--doc-number", required=True)
    p.add_argument("--doc-country", required=True)
    p.add_argument("--doc-expiry", required=True, help="YYYY-MM-DD")
    p.add_argument("--method", required=True)
    p.add_argument("--result", required=True, choices=["true", "false"])
    p.add_argument("--tested-at", type=int, help="unix seconds, default now")
    p.set_defaults(func=cmd_thf_issue)
    p = tsub.add_parser("submit", help="submit a pending frame to an authority node")
    p.add_argument("--key", required=True)
    p.add_argument("--node", required=True, help="host:port")
    p.add_argument("--pending", required=True, help="hex frame from `thf issue`")
    p.add_argument("--registry", required=True)
    p.add_argument("--wait", action="store_true", help="poll until the token is minted")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=cmd_thf_submit)

    hsa = sub.add_parser("hsa", help="authority commands")
    hsub = hsa.add_subparsers(dest="hsa_command", required=True)
    p = hsub.add_parser("run", help="run an authority node")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_hsa_run)

    bm = sub.add_parser("bm", help="read-only member commands")
    bsub = bm.add_subparsers(dest="bm_command", required=True)
    p = bsub.add_parser("run", help="run a member node")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bm_run)
    p = bsub.add_parser("verify", help="verify a token + document against the local chain")
    p.add_argument("--token", required=True, help="hex token")
    p.add_argument("--doc-number", required=True)
    p.add_argument("--doc-country", required=True)
    p.add_argument("--doc-expiry", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--data-dir")
    p.add_argument("--registry")
    p.add_argument("--at", type=int, help="verification time, default now")
    p.set_defaults(func=cmd_bm_verify)

    sim = sub.add_parser("sim", help="consortium simulator")
    ssub = sim.add_subparsers(dest="sim_command", required=True)
    p = ssub.add_parser("run", help="run one seeded simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--export", help="write the per-credential delay report here")
    p.set_defaults(func=cmd_sim_run)

    chain = sub.add_parser("chain", help="chain maintenance")
    csub = chain.add_subparsers(dest="chain_command", required=True)
    p = csub.add_parser("audit", help="revalidate the block log from genesis, record signatures included")
    p.add_argument("--data-dir")
    p.add_argument("--registry")
    p.set_defaults(func=cmd_chain_audit)

    audit = sub.add_parser("audit", help="verification audits")
    asub = audit.add_subparsers(dest="audit_command", required=True)
    p = asub.add_parser("manifest", help="check receipts cover a manifest")
    p.add_argument("--receipts", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--registry", required=True)
    p.set_defaults(func=cmd_audit_manifest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorruptLog as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DhpError, OSError, ValueError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Inputs for every workload, made only from the workload seed.

The same seed gives byte-identical keys, documents, salts, histories and
request lists; dhp sees only these generated inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from random import Random

from dhp.core import Registry, Role, TestMethod, TravelDocument
from dhp.crypto import KeyPair, keygen
from dhp.ledger import ChainState, DhpToken, scheduled_authority
from dhp.protocol import OutcomeStatus, PendingDhp, ViolationReason, hsa_register, thf_issue
from dhp.storage import BlockLog, save_keypair, save_registry

METHOD = TestMethod.named("RT-qPCR")
POLICY_TEXT = "accepted_methods = RT-qPCR\nmax_test_age_hours = 72\nrequire_risk_free = true\n"
MAX_AGE_S = 72 * 3600
COUNTRIES = ("GRC", "DEU", "FRA", "ITA", "ESP", "PRT", "NLD", "AUT")

# checkin: a member's history and the requests of one pass over it.
CHECK_TIME = 1_700_000_000          # first check of a pass; fixed, not the wall clock
HISTORY_TIME = CHECK_TIME - 600     # issuance and block time of the history
GENESIS_TIME = HISTORY_TIME - 86_400
HISTORY_RECORDS = 10_240
HISTORY_BLOCK = 256                 # 40 blocks
HISTORY_AUTHORITIES = 3
HISTORY_FACILITIES = 4
# Shares of one pass of PASS_REQUESTS checks (sum to PASS_REQUESTS).
MIX = {"first": 100, "repeat": 50, "wrong_doc": 20, "unknown": 10, "stale": 20}
PASS_REQUESTS = sum(MIX.values())

# register: one facility, two rotating authorities, one member.
REGISTER_AUTHORITIES = 2
BATCH = 128

# sim: as `dhp sim run` reads it; rng_seed comes from the workload seed.
SIM = {"num_hsa": 3, "num_bm": 3, "rounds": 20, "submission_rate": 5, "max_delay": 2}


def key_for(rng: Random, role: Role) -> KeyPair:
    return keygen(role, rng.randbytes(32))


def make_doc(rng: Random, i: int) -> TravelDocument:
    return TravelDocument(
        f"X{i:07d}{rng.randrange(10**4):04d}",
        rng.choice(COUNTRIES),
        date(2030, 1, 1) + timedelta(days=rng.randrange(3650)),
    )


def write_member_files(root: Path, registry: Registry, keys: dict[str, KeyPair]) -> None:
    """Registry, one key file per node, and the members' policy."""
    root.mkdir(parents=True, exist_ok=True)
    save_registry(root / "registry.txt", registry)
    for name, key in keys.items():
        save_keypair(root / f"{name}.key", key)
    (root / "policy.txt").write_text(POLICY_TEXT)


def node_config(root: Path, name: str, role: str, port: int, peers: list[int], genesis_time: int) -> Path:
    lines = [
        f"role = {role}",
        f"listen = 127.0.0.1:{port}",
        f"data_dir = {root / (name + '-data')}",
        f"registry = {root / 'registry.txt'}",
        f"key = {root / (name + '.key')}",
        "block_interval = 3600",  # parks the proposer's own timer
        f"genesis_time = {genesis_time}",
    ]
    if role == "bm":
        lines.append(f"policy = {root / 'policy.txt'}")
    if peers:
        lines.append("peers = " + ",".join(f"127.0.0.1:{p}" for p in peers))
    path = root / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


# --- checkin -----------------------------------------------------------------


@dataclass(frozen=True)
class Traveller:
    doc: TravelDocument
    token: DhpToken
    tested_at: int
    location: tuple[int, int]


@dataclass(frozen=True)
class Check:
    kind: str
    token: DhpToken
    doc: TravelDocument
    at: int
    status: OutcomeStatus
    violation: ViolationReason | None
    location: tuple[int, int] | None


@dataclass
class History:
    registry: Registry
    member: KeyPair
    state: ChainState
    travellers: list[Traveller]
    checks: list[Check]


def build_history(seed: int) -> History:
    """A chain of HISTORY_RECORDS credentials from several facilities under
    rotating authorities, and one pass of checks against it."""
    rng = Random(f"checkin:{seed}")
    hsas = [key_for(rng, Role.HSA) for _ in range(HISTORY_AUTHORITIES)]
    thfs = [key_for(rng, Role.THF) for _ in range(HISTORY_FACILITIES)]
    member = key_for(rng, Role.BM)
    registry = Registry(tuple(k.owner for k in hsas + thfs + [member]))
    by_id = {k.owner.id: k for k in hsas}
    state = ChainState.genesis(registry, genesis_time=GENESIS_TIME)
    travellers: list[Traveller] = []
    for start in range(0, HISTORY_RECORDS, HISTORY_BLOCK):
        batch: list[tuple[TravelDocument, PendingDhp]] = []
        for i in range(start, start + HISTORY_BLOCK):
            doc = make_doc(rng, i)
            tested_at = HISTORY_TIME - rng.randrange(3600, 48 * 3600)
            pending = thf_issue(thfs[i % len(thfs)], doc, True, METHOD, tested_at, now=HISTORY_TIME, rng=rng)
            batch.append((doc, pending))
        hsa = by_id[scheduled_authority(state.height + 1, state.authority_set).id]
        state, tokens = hsa_register(hsa, state, [p for _, p in batch], HISTORY_TIME)
        for (doc, pending), token in zip(batch, tokens):
            travellers.append(Traveller(doc, token, pending.record.tested_at, (state.height, token.record_index)))
    return History(registry, member, state, travellers, make_checks(rng, travellers))


def make_checks(rng: Random, travellers: list[Traveller]) -> list[Check]:
    """One pass: first checks, repeat checks of an already-checked traveller
    later in the pass, wrong documents, unknown tokens and stale tests, each
    with the outcome that follows from how the benchmark paired them."""
    picked = rng.sample(travellers, MIX["first"] + MIX["wrong_doc"] * 2 + MIX["stale"])
    firsts = picked[:MIX["first"]]
    wrong = picked[MIX["first"]:MIX["first"] + MIX["wrong_doc"] * 2]
    stale = picked[MIX["first"] + MIX["wrong_doc"] * 2:]
    valid = OutcomeStatus.VALID
    items: list[tuple] = [("first", t.token, t.doc, 0, valid, None, t.location) for t in firsts]
    for a, b in zip(wrong[0::2], wrong[1::2]):
        items.append(("wrong_doc", a.token, b.doc, 0, OutcomeStatus.COMMITMENT_MISMATCH, None, a.location))
    for t in stale:
        at = t.tested_at + MAX_AGE_S + 1 + rng.randrange(86_400)
        items.append(("stale", t.token, t.doc, at, OutcomeStatus.POLICY_VIOLATION,
                      ViolationReason.TEST_TOO_OLD, t.location))
    for _ in range(MIX["unknown"]):
        token = DhpToken(rng.randbytes(32), rng.randrange(HISTORY_BLOCK), travellers[0].token.salt)
        items.append(("unknown", token, rng.choice(travellers).doc, 0, OutcomeStatus.NOT_FOUND, None, None))
    rng.shuffle(items)
    for _ in range(MIX["repeat"]):
        first_positions = [i for i, item in enumerate(items) if item[0] == "first"]
        src = rng.choice(first_positions)
        pos = rng.randrange(src + 1, len(items) + 1)
        items.insert(pos, ("repeat",) + items[src][1:])
    checks = []
    for i, (kind, token, doc, at, status, violation, location) in enumerate(items):
        checks.append(Check(kind, token, doc, at or CHECK_TIME + i, status, violation, location))
    return checks


def write_history(history: History, root: Path) -> Path:
    """Member files plus the history's block log; returns the node config."""
    write_member_files(root, history.registry, {"member": history.member})
    log = BlockLog(root / "member-data" / "blocks.log")
    for block in history.state.blocks[1:]:
        log.append(block)
    return node_config(root, "member", "bm", 0, [], GENESIS_TIME)


# --- register ----------------------------------------------------------------


@dataclass
class Consortium:
    registry: Registry
    authorities: list[KeyPair]
    facility: KeyPair
    member: KeyPair


def register_consortium(seed: int) -> Consortium:
    rng = Random(f"register-keys:{seed}")
    hsas = [key_for(rng, Role.HSA) for _ in range(REGISTER_AUTHORITIES)]
    facility = key_for(rng, Role.THF)
    member = key_for(rng, Role.BM)
    return Consortium(Registry(tuple(k.owner for k in hsas + [facility, member])), hsas, facility, member)


class Credentials:
    """Seeded stream of travellers for the facility to test and issue."""

    def __init__(self, seed: int):
        self.rng = Random(f"register-credentials:{seed}")  # also draws the salts
        self._next = 0

    def next_batch(self) -> list[tuple[TravelDocument, int]]:
        """BATCH (document, test age in seconds) pairs."""
        out = []
        for _ in range(BATCH):
            out.append((make_doc(self.rng, self._next), self.rng.randrange(60, 86_400)))
            self._next += 1
        return out


# --- sim ---------------------------------------------------------------------


def sim_config_text(seed: int) -> str:
    rng_seed = int.from_bytes(hashlib.sha256(f"sim:{seed}".encode()).digest()[:4], "big")
    return (
        f"rng_seed = {rng_seed}\n"
        f"num_hsa = {SIM['num_hsa']}\n"
        f"num_bm = {SIM['num_bm']}\n"
        f"rounds = {SIM['rounds']}\n"
        f"submission_rate = {SIM['submission_rate']}\n"
        f"delay_model = uniform:{SIM['max_delay']}\n"
        f"theta = {SIM['num_hsa'] + SIM['max_delay']}\n"
    )

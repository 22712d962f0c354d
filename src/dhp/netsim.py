"""Deterministic multi-node simulation of the consortium.

Time is discretized into rounds, each with three phases: facilities submit
fresh credentials to their authority's mempool, the authority scheduled for
the next height proposes a block on the canonical chain, and block
announcements are delivered to node replicas subject to the configured delay
model. A partitioned node neither proposes nor receives; when the scheduled
authority is partitioned its height simply waits for it (slot skipping).

Proposal never stalls on message propagation: authority-side replication is
treated as synchronous at proposal time, and the delay model governs when
each node's *observed* replica catches up. That keeps the chain advancing one
height per round whenever the scheduled mempool is non-empty, which is what
bounds inclusion delay by (number of authorities + max announcement delay).

After the final round a quiescence phase heals partitions, flushes in-flight
messages with zero delay, and drains leftover mempools through merged
rotation proposals so that every submitted credential lands on-chain exactly
once. Everything is a pure function of the config: one seeded RNG drives key
generation, salts, document numbers, and delays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import date
from enum import Enum
from random import Random

from .core import DhpError, HygienePolicy, Registry, Role, TestMethod, TravelDocument
from .crypto import keygen
from .ledger import (
    MAX_BLOCK_RECORDS,
    Block,
    ChainState,
    DhpToken,
    append_block,
    chain_bytes,
    fork_choice,
    header_hash,
    propose_block,
    scheduled_authority,
)
# bm_verify is not called here, but the benchmark's tracer wraps dhp.netsim.bm_verify by name.
from .protocol import PendingDhp, bm_verify, check_credential, thf_issue  # noqa: F401

ROUND_SECONDS = 60
SIM_BASE_TIME = 1_600_000_000


class InvalidConfig(DhpError):
    pass


@dataclass(frozen=True)
class ZeroDelay:
    pass


@dataclass(frozen=True)
class UniformBounded:
    max_rounds: int


@dataclass(frozen=True)
class PartitionInterval:
    """Node `node` is isolated during rounds start <= r < end."""

    node: str
    start: int
    end: int


@dataclass(frozen=True)
class Partition:
    intervals: tuple[PartitionInterval, ...]


DelayModel = ZeroDelay | UniformBounded | Partition


@dataclass(frozen=True)
class SimConfig:
    rng_seed: int
    num_hsa: int = 1
    num_bm: int = 1
    rounds: int = 10
    submission_rate: int = 1
    delay_model: DelayModel = ZeroDelay()
    theta: int = 4


class EventKind(Enum):
    SUBMIT = "Submit"
    PROPOSE = "Propose"
    DELIVER = "Deliver"


@dataclass(frozen=True)
class SimEvent:
    at_round: int
    kind: EventKind
    payload: tuple

    def sort_key(self) -> tuple:
        digest = hashlib.sha256(repr((self.kind.value, self.payload)).encode()).hexdigest()
        return (self.at_round, digest)


@dataclass
class SimReport:
    """Everything a run produced, sufficient to re-derive its own numbers.

    delays maps (dhp_id, node_id) to the inclusion delay in rounds, counted
    as first-appearance round minus submission round plus one (a same-round
    inclusion counts as 1).
    """

    config: SimConfig
    delays: dict[tuple[int, str], int]
    final_heights: dict[str, int]
    consistent: bool
    max_inclusion_delay: int
    submitted: int
    included: int
    lost: int
    duplicated: int
    quiescence_rounds: int
    events: tuple[SimEvent, ...]


class _Replica:
    """One node's observed chain: buffers out-of-order blocks, applies
    contiguous extensions, and lets fork choice pick the resulting chain."""

    def __init__(self, name: str, genesis: ChainState):
        self.name = name
        self.state = genesis
        self.buffer: dict[int, Block] = {}

    def receive(self, block: Block, now: int) -> list[int]:
        self.buffer[block.header.height] = block
        return self._apply(now)

    def adopt(self, canon: ChainState, now: int) -> list[int]:
        for block in canon.blocks[len(self.state.blocks):]:
            self.buffer[block.header.height] = block
        return self._apply(now)

    def _apply(self, now: int) -> list[int]:
        applied = []
        extended = self.state
        while len(extended.blocks) in self.buffer:
            height = len(extended.blocks)
            extended = append_block(extended, self.buffer.pop(height), now)
            applied.append(height)
        self.state = fork_choice([self.state, extended])
        return applied


def _partitioned(node: str, at_round: int, model: DelayModel) -> bool:
    if not isinstance(model, Partition):
        return False
    return any(iv.node == node and iv.start <= at_round < iv.end for iv in model.intervals)


def _heal_round(node: str, at_round: int, model: DelayModel) -> int:
    """First round >= at_round at which `node` is reachable."""
    r = at_round
    while _partitioned(node, r, model):
        r = max(iv.end for iv in model.intervals if iv.node == node and iv.start <= r < iv.end)
    return r


def _validate(config: SimConfig) -> None:
    if config.rounds < 1:
        raise InvalidConfig("rounds must be >= 1")
    if not 1 <= config.num_hsa <= 255:
        raise InvalidConfig("num_hsa must be in 1..255")
    if not 0 <= config.num_bm <= 255:
        raise InvalidConfig("num_bm must be in 0..255")
    if config.submission_rate < 0:
        raise InvalidConfig("submission_rate must be >= 0")
    if config.theta < 1:
        raise InvalidConfig("theta must be >= 1")
    if isinstance(config.delay_model, UniformBounded) and config.delay_model.max_rounds < 0:
        raise InvalidConfig("UniformBounded max_rounds must be >= 0")
    if isinstance(config.delay_model, Partition):
        names = {f"hsa-{i}" for i in range(config.num_hsa)} | {f"bm-{i}" for i in range(config.num_bm)}
        for iv in config.delay_model.intervals:
            if iv.node not in names:
                raise InvalidConfig(f"partition interval names unknown node {iv.node!r}")
            if iv.start < 1 or iv.end < iv.start:
                raise InvalidConfig(f"bad partition interval {iv}")


def round_time(r: int) -> int:
    return SIM_BASE_TIME + r * ROUND_SECONDS


def run_simulation(config: SimConfig) -> SimReport:
    """Run one deterministic consortium simulation. Same config, same report."""
    _validate(config)
    rng = Random(config.rng_seed)

    hsa_names = [f"hsa-{i}" for i in range(config.num_hsa)]
    bm_names = [f"bm-{i}" for i in range(config.num_bm)]
    hsa_keys = [keygen(Role.HSA, rng.randbytes(32)) for _ in hsa_names]
    thf_keys = [keygen(Role.THF, rng.randbytes(32)) for _ in hsa_names]
    bm_keys = [keygen(Role.BM, rng.randbytes(32)) for _ in bm_names]
    if not bm_keys:
        rng.randbytes(32)  # a member-less config still draws one member seed: seeded reports rely on it

    registry = Registry(
        members=tuple(k.owner for k in hsa_keys + thf_keys + bm_keys)
    )
    genesis = ChainState.genesis(registry, genesis_time=SIM_BASE_TIME)
    authority_index = {k.owner.id: i for i, k in enumerate(hsa_keys)}

    canon = genesis
    replicas = {name: _Replica(name, genesis) for name in hsa_names + bm_names}
    mempools: list[list[tuple[int, PendingDhp]]] = [[] for _ in hsa_names]
    method = TestMethod.named("RT-qPCR")

    events: list[SimEvent] = []
    submissions: dict[int, tuple[bytes, int]] = {}   # dhp_id -> (commitment, round)
    block_dhps: dict[int, tuple[int, ...]] = {}      # height -> dhp ids
    issued: list[tuple[DhpToken | None, TravelDocument, int]] = []
    delays: dict[tuple[int, str], int] = {}
    queue: list[tuple[int, int, str, Block]] = []     # (deliver_round, seq, dest, block)
    next_dhp = 0
    next_seq = 0

    def note_appearance(node: str, heights: list[int], r: int) -> None:
        for h in heights:
            for dhp_id in block_dhps.get(h, ()):
                delays.setdefault((dhp_id, node), r - submissions[dhp_id][1] + 1)

    def submit(hsa_i: int, r: int) -> None:
        nonlocal next_dhp
        doc = TravelDocument(f"D{next_dhp:08d}", "GRC", date(2035, 1, 1))
        pending = thf_issue(
            thf_keys[hsa_i], doc, True, method,
            tested_at=round_time(r), now=round_time(r), rng=rng,
        )
        submissions[next_dhp] = (pending.record.commitment, r)
        mempools[hsa_i].append((next_dhp, pending))
        issued.append((None, doc, next_dhp))  # token filled at inclusion
        events.append(SimEvent(r, EventKind.SUBMIT, (next_dhp, hsa_names[hsa_i])))
        next_dhp += 1

    def propose(proposer_i: int, batch: list[tuple[int, PendingDhp]], r: int, delays_off: bool) -> None:
        nonlocal canon, next_seq
        block = propose_block(canon, [p.record for _, p in batch], hsa_keys[proposer_i], round_time(r))
        canon = append_block(canon, block, round_time(r))
        height = block.header.height
        block_hash = header_hash(block.header)
        position = {rec.commitment: i for i, rec in enumerate(block.records)}
        for dhp_id, p in batch:
            token = DhpToken(block_hash, position[p.record.commitment], p.salt)
            _, doc, _ = issued[dhp_id]
            issued[dhp_id] = (token, doc, dhp_id)
        block_dhps[height] = tuple(dhp_id for dhp_id, _ in batch)
        events.append(
            SimEvent(r, EventKind.PROPOSE, (height, block_hash.hex(), hsa_names[proposer_i], block_dhps[height]))
        )
        proposer = hsa_names[proposer_i]
        note_appearance(proposer, replicas[proposer].adopt(canon, round_time(r)), r)
        for dest in hsa_names + bm_names:
            if dest == proposer:
                continue
            if delays_off:
                d = 0
            elif isinstance(config.delay_model, UniformBounded):
                d = rng.randint(0, config.delay_model.max_rounds)
            else:
                d = 0
            deliver = _heal_round(dest, r + d, config.delay_model) if not delays_off else r + d
            queue.append((deliver, next_seq, dest, block))
            next_seq += 1

    def deliver_due(r: int) -> None:
        due = sorted((m for m in queue if m[0] <= r), key=lambda m: (m[0], m[1]))
        queue[:] = [m for m in queue if m[0] > r]
        for _, _, dest, block in due:
            note_appearance(dest, replicas[dest].receive(block, round_time(r)), r)
            events.append(
                SimEvent(r, EventKind.DELIVER, (block.header.height, header_hash(block.header).hex(), dest))
            )

    for r in range(1, config.rounds + 1):
        for i in range(config.num_hsa):
            for _ in range(config.submission_rate):
                submit(i, r)
        sched = scheduled_authority(len(canon.blocks), canon.authority_set)
        i = authority_index[sched.id]
        if not _partitioned(hsa_names[i], r, config.delay_model) and mempools[i]:
            batch = mempools[i][:MAX_BLOCK_RECORDS]
            mempools[i] = mempools[i][len(batch):]
            propose(i, batch, r, delays_off=False)
        deliver_due(r)

    # Quiescence: partitions healed, zero delay, merged mempool drain.
    qr = config.rounds
    queue[:] = [(min(dr, config.rounds + 1), seq, dest, block) for dr, seq, dest, block in queue]
    while True:
        qr += 1
        merged = [entry for pool in mempools for entry in pool]
        if merged:
            batch = merged[:MAX_BLOCK_RECORDS]
            taken = {dhp_id for dhp_id, _ in batch}
            for i in range(config.num_hsa):
                mempools[i] = [e for e in mempools[i] if e[0] not in taken]
            sched = scheduled_authority(len(canon.blocks), canon.authority_set)
            propose(authority_index[sched.id], batch, qr, delays_off=True)
        deliver_due(qr)
        if not queue and not any(mempools):
            break

    final_states = {name: rep.state for name, rep in replicas.items()}
    policy = HygienePolicy(
        accepted_methods=frozenset({method.code}),
        max_test_age=max(72, (qr * ROUND_SECONDS) // 3600 + 1),
    )
    verify_at = round_time(qr)
    consistent = check_consistency(
        list(final_states.values()),
        issued=[(t, doc) for t, doc, _ in issued if t is not None],
        policy=policy,
        at=verify_at,
    )

    on_chain: dict[bytes, int] = {}
    for block in canon.blocks[1:]:
        for record in block.records:
            on_chain[record.commitment] = on_chain.get(record.commitment, 0) + 1
    lost = sum(1 for c, _ in submissions.values() if c not in on_chain)
    duplicated = sum(1 for n in on_chain.values() if n > 1)

    return SimReport(
        config=config,
        delays=delays,
        final_heights={name: s.height for name, s in final_states.items()},
        consistent=consistent,
        max_inclusion_delay=max(delays.values(), default=0),
        submitted=len(submissions),
        included=sum(1 for t, _, _ in issued if t is not None),
        lost=lost,
        duplicated=duplicated,
        quiescence_rounds=qr - config.rounds,
        events=tuple(sorted(events, key=SimEvent.sort_key)),
    )


def check_theta_liveness(report: SimReport, theta: int) -> list[tuple[int, str, int | None]]:
    """Violations (dhp, node, delay) where a credential missed the bound.

    Empty list means every submitted credential appeared on every node within
    theta rounds. A credential missing from some node entirely reports a
    delay of None.
    """
    nodes = list(report.final_heights)
    violations = []
    for dhp_id in range(report.submitted):
        for node in nodes:
            delay = report.delays.get((dhp_id, node))
            if delay is None:
                violations.append((dhp_id, node, None))
            elif delay > theta:
                violations.append((dhp_id, node, delay))
    return violations


def check_consistency(
    states: list[ChainState],
    issued: list[tuple[DhpToken, TravelDocument]] | None = None,
    policy: HygienePolicy | None = None,
    at: int | None = None,
) -> bool:
    """True iff all nodes hold byte-identical chains and, when tokens are
    supplied, every token verifies to the same outcome on every node.

    Every node runs the receipt-free member checks; the first node's outcome
    is the reference.
    """
    if not states:
        return True
    reference = chain_bytes(states[0])
    if any(chain_bytes(s) != reference for s in states[1:]):
        return False
    if issued and policy is not None and at is not None:
        for token, doc in issued:
            outcome = check_credential(states[0], token, doc, policy, at)
            if any(check_credential(s, token, doc, policy, at) != outcome for s in states[1:]):
                return False
    return True


def format_report(report: SimReport) -> str:
    """Line-oriented export: `dhp_id node_id delay_rounds` plus a footer."""
    lines = []
    for (dhp_id, node), delay in sorted(report.delays.items()):
        lines.append(f"dhp-{dhp_id} {node} {delay}")
    lines.append(f"consistency {'true' if report.consistent else 'false'}")
    return "\n".join(lines) + "\n"


def parse_sim_config(text: str) -> SimConfig:
    """Parse the key = value simulation config.

    delay_model is `zero`, `uniform:N`, or
    `partition:node:start:end[,node:start:end...]`.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()

    known = {"rng_seed", "num_hsa", "num_bm", "rounds", "submission_rate", "delay_model", "theta"}
    unknown = set(values) - known
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")

    def int_of(key: str, default: int | None = None) -> int:
        if key not in values:
            if default is None:
                raise InvalidConfig(f"config missing key {key!r}")
            return default
        try:
            return int(values[key])
        except ValueError:
            raise InvalidConfig(f"{key} must be an integer") from None

    model_text = values.get("delay_model", "zero").lower()
    model: DelayModel
    if model_text == "zero":
        model = ZeroDelay()
    elif model_text.startswith("uniform:"):
        try:
            model = UniformBounded(int(model_text.split(":", 1)[1]))
        except ValueError:
            raise InvalidConfig("uniform delay bound must be an integer") from None
    elif model_text.startswith("partition:"):
        intervals = []
        for part in model_text[len("partition:"):].split(","):
            bits = part.strip().split(":")
            if len(bits) != 3:
                raise InvalidConfig(f"bad partition interval {part!r}")
            try:
                intervals.append(PartitionInterval(bits[0], int(bits[1]), int(bits[2])))
            except ValueError:
                raise InvalidConfig(f"bad partition interval {part!r}") from None
        model = Partition(tuple(intervals))
    else:
        raise InvalidConfig(f"unknown delay model {model_text!r}")

    return SimConfig(
        rng_seed=int_of("rng_seed"),
        num_hsa=int_of("num_hsa", 1),
        num_bm=int_of("num_bm", 1),
        rounds=int_of("rounds", 10),
        submission_rate=int_of("submission_rate", 1),
        delay_model=model,
        theta=int_of("theta", 4),
    )


def summarize_report(report: SimReport) -> str:
    heights = ", ".join(f"{n}={h}" for n, h in sorted(report.final_heights.items()))
    return (
        f"rounds: {report.config.rounds} (+{report.quiescence_rounds} quiescence)\n"
        f"submitted: {report.submitted}  included: {report.included}  "
        f"lost: {report.lost}  duplicated: {report.duplicated}\n"
        f"max inclusion delay: {report.max_inclusion_delay} rounds (theta {report.config.theta})\n"
        f"final heights: {heights}\n"
        f"consistency: {'true' if report.consistent else 'false'}\n"
    )

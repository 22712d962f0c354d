import hashlib
import re
from dataclasses import replace
from datetime import date
from math import inf

import pytest

import dhp.netsim as netsim
from dhp.core import InvalidDocument, TravelDocument, canonical_doc_bytes
from dhp.crypto import Salt
from dhp.ledger import DhpToken, chain_bytes
from dhp.netsim import (
    EventKind,
    InvalidConfig,
    Partition,
    PartitionInterval,
    SimConfig,
    UniformBounded,
    ZeroDelay,
    check_consistency,
    check_theta_liveness,
    format_report,
    parse_sim_config,
    run_simulation,
)
from dhp.protocol import OutcomeStatus, check_credential, hsa_register

from conftest import counted, make_doc


def replay_delays(report):
    """Independent oracle: recompute every (dhp, node) delay from the event log.

    A node possesses height h at the earliest round by which ALL heights <= h
    have arrived (delivery, or adoption when the node itself proposed a later
    height). Delay = that round - submission round + 1.
    """
    submits = {}
    proposes = {}
    arrivals = {node: {} for node in report.final_heights}
    for e in report.events:
        if e.kind is EventKind.SUBMIT:
            dhp_id, hsa = e.payload
            submits[dhp_id] = e.at_round
        elif e.kind is EventKind.PROPOSE:
            height, _, authority, dhp_ids = e.payload
            proposes[height] = (e.at_round, dhp_ids)
            for g in range(1, height + 1):
                prev = arrivals[authority].get(g, inf)
                arrivals[authority][g] = min(prev, e.at_round)
        elif e.kind is EventKind.DELIVER:
            height, _, dest = e.payload
            prev = arrivals[dest].get(height, inf)
            arrivals[dest][height] = min(prev, e.at_round)

    delays = {}
    for node, arr in arrivals.items():
        have_all_by = 0
        for h in sorted(proposes):
            have_all_by = max(have_all_by, arr.get(h, inf))
            for dhp_id in proposes[h][1]:
                if have_all_by is not inf:
                    delays[(dhp_id, node)] = have_all_by - submits[dhp_id] + 1
    return delays


def test_zero_delay_single_proposer_example():
    report = run_simulation(SimConfig(rng_seed=5, num_hsa=1, num_bm=1, rounds=10, submission_rate=1))
    assert report.final_heights == {"hsa-0": 10, "bm-0": 10}
    assert report.max_inclusion_delay == 1
    assert report.consistent
    assert report.submitted == report.included == 10
    assert report.lost == 0 and report.duplicated == 0
    assert not check_theta_liveness(report, 1)


def test_determinism_identical_reports():
    config = SimConfig(rng_seed=77, num_hsa=3, num_bm=2, rounds=25, submission_rate=2,
                       delay_model=UniformBounded(2))
    a, b = run_simulation(config), run_simulation(config)
    assert format_report(a) == format_report(b)
    assert a.events == b.events
    assert a.delays == b.delays


def test_different_seeds_differ():
    base = dict(num_hsa=2, num_bm=1, rounds=15, submission_rate=1, delay_model=UniformBounded(2))
    a = run_simulation(SimConfig(rng_seed=1, **base))
    b = run_simulation(SimConfig(rng_seed=2, **base))
    assert a.events != b.events


def test_uniform_bounded_matches_replay_oracle():
    config = SimConfig(rng_seed=21, num_hsa=3, num_bm=2, rounds=50, submission_rate=1,
                       delay_model=UniformBounded(2))
    report = run_simulation(config)
    assert report.consistent
    oracle = replay_delays(report)
    assert report.delays == oracle
    assert report.max_inclusion_delay == max(oracle.values())
    assert report.max_inclusion_delay <= 3 + 2  # authorities + max announcement delay


def test_zero_delay_generalized_bound():
    for n in (1, 2, 3):
        report = run_simulation(SimConfig(rng_seed=n, num_hsa=n, num_bm=1, rounds=12))
        assert report.consistent and report.lost == 0
        assert report.max_inclusion_delay <= n
        # synchronous: every announcement lands in its proposal round, so all
        # replicas are identical at the end of every round
        propose_rounds = {
            p[0]: e.at_round for e in report.events if e.kind is EventKind.PROPOSE
            for p in [e.payload]
        }
        for e in report.events:
            if e.kind is EventKind.DELIVER:
                assert e.at_round == propose_rounds[e.payload[0]]


def test_theta_maximal_bound_always_passes():
    config = SimConfig(rng_seed=9, num_hsa=3, num_bm=1, rounds=20, submission_rate=1,
                       delay_model=UniformBounded(2))
    report = run_simulation(config)
    assert not check_theta_liveness(report, config.rounds)
    assert not check_theta_liveness(report, config.rounds + report.quiescence_rounds)


def test_record_conservation_from_event_log():
    # every submitted credential is proposed exactly once, and nothing that
    # was never submitted appears in any block
    config = SimConfig(rng_seed=17, num_hsa=3, num_bm=1, rounds=18, submission_rate=2,
                       delay_model=UniformBounded(2))
    report = run_simulation(config)
    submitted = [e.payload[0] for e in report.events if e.kind is EventKind.SUBMIT]
    proposed = [
        dhp_id
        for e in report.events
        if e.kind is EventKind.PROPOSE
        for dhp_id in e.payload[3]
    ]
    assert sorted(proposed) == sorted(submitted)
    assert len(set(proposed)) == len(proposed)


def test_partition_of_scheduled_authority_threshold():
    # one authority isolated for k rounds right as work arrives: the liveness
    # bound of 3 rounds is breached exactly when k reaches it
    for k, expect_violations in ((1, False), (2, False), (3, True), (5, True)):
        config = SimConfig(
            rng_seed=8, num_hsa=1, num_bm=1, rounds=12, submission_rate=1,
            delay_model=Partition((PartitionInterval("hsa-0", 4, 4 + k),)), theta=3,
        )
        report = run_simulation(config)
        violations = check_theta_liveness(report, 3)
        assert bool(violations) == expect_violations, (k, violations)
        assert report.consistent and report.lost == 0 and report.duplicated == 0
        oracle = replay_delays(report)
        assert report.delays == oracle


def test_partition_of_replica_only_delays_it():
    config = SimConfig(
        rng_seed=4, num_hsa=2, num_bm=1, rounds=10, submission_rate=1,
        delay_model=Partition((PartitionInterval("bm-0", 2, 8),)),
    )
    report = run_simulation(config)
    assert report.consistent
    assert report.lost == 0 and report.duplicated == 0
    bm_delays = [d for (_, node), d in report.delays.items() if node == "bm-0"]
    hsa_delays = [d for (_, node), d in report.delays.items() if node.startswith("hsa")]
    assert max(bm_delays) > max(hsa_delays)


def test_quiescence_drains_when_run_is_shorter_than_rotation():
    # five authorities, two rounds: most mempools never see their slot
    report = run_simulation(SimConfig(rng_seed=3, num_hsa=5, num_bm=1, rounds=2, submission_rate=1))
    assert report.lost == 0 and report.duplicated == 0
    assert report.included == report.submitted == 10
    assert report.consistent


def test_no_loss_or_duplication_across_models():
    models = [
        ZeroDelay(),
        UniformBounded(1),
        UniformBounded(3),
        Partition((PartitionInterval("hsa-1", 3, 7), PartitionInterval("bm-0", 5, 9))),
    ]
    for i, model in enumerate(models):
        report = run_simulation(
            SimConfig(rng_seed=40 + i, num_hsa=3, num_bm=1, rounds=12, submission_rate=2,
                      delay_model=model)
        )
        assert report.lost == 0 and report.duplicated == 0
        assert report.consistent


def test_eventual_consistency_property_suite():
    for seed in range(20):
        config = SimConfig(
            rng_seed=seed, num_hsa=3, num_bm=2, rounds=15, submission_rate=1,
            delay_model=UniformBounded(3),
        )
        report = run_simulation(config)
        assert report.consistent, seed


def test_check_consistency_detects_divergence(consortium):
    from conftest import Consortium, make_doc
    from test_ledger import grow_chain
    from test_protocol import HOUR, POLICY, T0, issue_and_register

    a = grow_chain(Consortium(), 3)
    b = grow_chain(Consortium(), 4)
    assert check_consistency([a, a], [], POLICY, T0)
    assert not check_consistency([a, b], [], POLICY, T0)

    # Byte-equal chains, but one replica cannot find a block by its hash:
    # only verifying the tokens on every replica shows it.
    docs = [make_doc(i) for i in range(3)]
    state, tokens, _ = issue_and_register(consortium, docs)
    verify = dict(issued=list(zip(tokens, docs)), policy=POLICY, at=T0 + HOUR)
    blind = replace(state, header_index={h: n for h, n in state.header_index.items() if n != 1})
    assert chain_bytes(blind) == chain_bytes(state)
    assert check_consistency([state, state, state], **verify)
    assert not check_consistency([state, state, blind], **verify)


def test_check_consistency_opens_each_located_credential_once(monkeypatch):
    """The opening depends only on the token and the document, so it is
    made once per credential, not once per node: 300 for the sim workload's
    300 credentials on 6 nodes."""
    config = PINNED_REPORTS[0][0]
    opened, calls = counted(monkeypatch, "commit"), []
    check = netsim.check_consistency

    def counting(*args, **kwargs):
        before = len(opened)
        result = check(*args, **kwargs)
        calls.append(len(opened) - before)
        return result

    monkeypatch.setattr(netsim, "check_consistency", counting)
    report = run_simulation(config)
    assert report.consistent and report.submitted == 300
    assert calls == [300]


def test_check_consistency_locates_and_compares_on_every_node(consortium):
    """Byte-equal chains, but one replica's header index sends a token's
    block hash to another height: its record there has another commitment,
    which only a per-node comparison with the opening catches."""
    from test_protocol import HOUR, POLICY, T0, issue_and_register, issue_for

    docs = [make_doc(i) for i in range(6)]
    state, tokens, _ = issue_and_register(consortium, docs[:3])
    pendings = [issue_for(consortium, doc, i) for i, doc in enumerate(docs[3:], start=3)]
    state, more = hsa_register(consortium.hsa_keys[0], state, pendings, T0 + 180)
    swapped = {h: {1: 2, 2: 1}.get(n, n) for h, n in state.header_index.items()}
    misdirected = replace(state, header_index=swapped)
    assert chain_bytes(misdirected) == chain_bytes(state)
    verify = dict(issued=list(zip(tokens + more, docs)), policy=POLICY, at=T0 + HOUR)
    assert check_consistency([state, state], **verify)
    outcome = check_credential(misdirected, tokens[0], docs[0], POLICY, T0 + HOUR)
    assert (outcome.status, outcome.dhp_location) == (OutcomeStatus.COMMITMENT_MISMATCH, (2, tokens[0].record_index))
    assert not check_consistency([state, state, misdirected], **verify)
    assert not check_consistency([misdirected, state], **verify)


def test_check_consistency_never_opens_a_token_no_node_locates(consortium):
    """A document without a canonical encoding cannot be opened, yet a
    token that no node locates is an outcome before any opening."""
    from test_protocol import HOUR, POLICY, T0, issue_and_register

    state, _, _ = issue_and_register(consortium, [make_doc(1)])
    ghost = DhpToken(b"\x07" * 32, 0, Salt(b"\x01" * 16))
    bad_doc = TravelDocument("no", "??", date(2033, 6, 1))
    with pytest.raises(InvalidDocument):
        canonical_doc_bytes(bad_doc)
    assert check_credential(state, ghost, bad_doc, POLICY, T0 + HOUR).status is OutcomeStatus.NOT_FOUND
    assert check_consistency([state, state, state], [(ghost, bad_doc)], POLICY, T0 + HOUR)


# sha256 of format_report(report) + repr(report.events) for three seeded
# configs. Every random draw of a run (keys, salts, delays) feeds its output,
# so a draw added or dropped anywhere shows here.
PINNED_REPORTS = [
    (SimConfig(rng_seed=1, num_hsa=3, num_bm=3, rounds=20, submission_rate=5,
               delay_model=UniformBounded(2), theta=5),
     "93a19c513163e054840b3de100c4aafc1b413e25327a2b244d2b11a174ead118"),
    (SimConfig(rng_seed=2, num_hsa=2, num_bm=0, rounds=12, submission_rate=2,
               delay_model=UniformBounded(1)),
     "5252d12c81dc7d848013fca7f8b4ad2bec8ea4cc85073e239e097e0672f2bdd1"),
    (SimConfig(rng_seed=3, num_hsa=3, num_bm=2, rounds=15, submission_rate=2,
               delay_model=Partition((PartitionInterval("hsa-1", 3, 7), PartitionInterval("bm-1", 5, 11)))),
     "ae1914049f8e75670240bae6c1691cfee7b67623a9841c5f04f3f085d355fc3b"),
]


@pytest.mark.parametrize("config,digest", PINNED_REPORTS, ids=["sim-workload", "no-members", "partition"])
def test_seeded_reports_are_pinned(config, digest):
    report = run_simulation(config)
    assert report.consistent
    assert hashlib.sha256((format_report(report) + repr(report.events)).encode()).hexdigest() == digest


def test_submission_rate_zero_produces_nothing():
    report = run_simulation(SimConfig(rng_seed=1, num_hsa=2, num_bm=1, rounds=5, submission_rate=0))
    assert report.submitted == 0
    assert report.final_heights == {"hsa-0": 0, "hsa-1": 0, "bm-0": 0}
    assert report.consistent


def test_event_log_is_ordered():
    report = run_simulation(SimConfig(rng_seed=2, num_hsa=2, num_bm=1, rounds=8))
    keys = [e.sort_key() for e in report.events]
    assert keys == sorted(keys)


def test_report_export_format():
    report = run_simulation(SimConfig(rng_seed=2, num_hsa=2, num_bm=1, rounds=5))
    text = format_report(report)
    lines = text.splitlines()
    assert lines[-1] == "consistency true"
    triple = re.compile(r"^dhp-\d+ (hsa|bm)-\d+ \d+$")
    assert len(lines) - 1 == len(report.delays)
    for line in lines[:-1]:
        assert triple.match(line), line


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rounds=0),
        dict(num_hsa=0),
        dict(num_bm=-1),
        dict(submission_rate=-1),
        dict(theta=0),
        dict(delay_model=UniformBounded(-1)),
        dict(delay_model=Partition((PartitionInterval("hsa-9", 1, 2),))),
        dict(delay_model=Partition((PartitionInterval("hsa-0", 3, 2),))),
    ],
)
def test_invalid_configs(kwargs):
    base = dict(rng_seed=0, num_hsa=1, num_bm=1, rounds=5, submission_rate=1)
    base.update(kwargs)
    with pytest.raises(InvalidConfig):
        run_simulation(SimConfig(**base))


def test_parse_sim_config():
    config = parse_sim_config(
        "# suite\nrng_seed = 11\nnum_hsa = 3\nnum_bm = 2\nrounds = 50\n"
        "submission_rate = 1\ndelay_model = uniform:2\ntheta = 6\n"
    )
    assert config == SimConfig(11, 3, 2, 50, 1, UniformBounded(2), 6)
    partition = parse_sim_config(
        "rng_seed = 1\ndelay_model = partition:hsa-0:2:5,bm-0:3:4\n"
    )
    assert partition.delay_model == Partition(
        (PartitionInterval("hsa-0", 2, 5), PartitionInterval("bm-0", 3, 4))
    )
    zero = parse_sim_config("rng_seed = 0\n")
    assert zero.delay_model == ZeroDelay()


@pytest.mark.parametrize(
    "text",
    [
        "num_hsa = 1\n",                       # seed is required
        "rng_seed = x\n",
        "rng_seed = 1\ndelay_model = warp\n",
        "rng_seed = 1\ndelay_model = uniform:q\n",
        "rng_seed = 1\ndelay_model = partition:hsa-0:1\n",
        "rng_seed = 1\nmystery = 3\n",
        "rng_seed = 1\nbroken line\n",
        "rng_seed = 1\nrng_seed = 2\n",      # a repeated key
    ],
)
def test_parse_sim_config_errors(text):
    with pytest.raises(InvalidConfig):
        parse_sim_config(text)

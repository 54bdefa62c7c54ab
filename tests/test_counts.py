"""Exact counts and trace digests of bundled scenarios at their own seeds.

The bus is deterministic, so these counts are exact. A change that adds or
removes a message or an Ed25519 operation fails here and must update the pin
on purpose. The SHA-256 of each bundled scenario's trace file is pinned too,
so a refactor that claims to keep traffic unchanged proves it byte for byte.
Each scenario's traffic digest hashes the same events with every
`payload_digest` left out, so a change to message bodies alone re-pins the
byte digests and must leave the traffic digests as they are.
The `iin.query`, `anchor.memberlist.request`, `anchor.witness.request`,
`iin.order` and `agent.countersign.request` sends are pinned on their own, so
that a change that widens registry reads again, asks the anchor for a
memberlist the registry read already carries, refreshes a holder's witness on
every challenge or twice at once again, orders registry writes one
transaction at a time again, or asks a countersigner once per record again
fails even when other sends move.
Beside the logical Ed25519 verifies, each scenario pins the verifies its
world's verdict memo executes: one per distinct triple checked inside the bus
loop, so a memo that shares verdicts too widely or too narrowly fails. In the
same way each scenario pins the record decodes asked for inside the bus loop
and the entries of its world's decode memo, one per distinct (record class,
bytes) pair: a nested record is decoded only when its enclosing one misses.
A presentation is decoded in the memo: its initiator's decode serves every
countersigner it is forwarded to.
Every scenario signs exactly one presentation per holder challenge, so a
holder that signs its bundle apart from its membership fails even where the
other pins would move with it.
Each scenario's plaintext bytes handed to the bus are pinned too: every
message and its body are records of the one codec, so a second codec (hex
or JSON in a body) creeping back moves them even where no send does.
The benchmark's sweep world, k orgs in each of two networks, pins one
initiator's full sync as closed forms in k for k = 2..6.
"""

import hashlib
from dataclasses import replace

import pytest

from idplane import credentials as creds
from idplane import bus, crypto, harness
from idplane import encoding as enc

from conftest import fixed_latency, readmitted_carrier_world, scenario_config

SCENARIOS = ("two-network", "concurrent-commit", "revoke-carrier", "rotate-resync")


@pytest.mark.parametrize(
    "name, sends, queries, memberlists, witnesses, orders, countersigns, signs, verifies",
    [
        # a countersign batch that reaches an org while its own sync round
        # checks the same holder joins that check before it decides: in
        # concurrent-commit Seller's batch reaches Buyer during Buyer's own
        # check of Carrier, and Buyer, which read a snapshot for it (104
        # sends, 14 queries, 93 verifies), now answers from the check's
        # cached identity with no read (-4 sends, -2 queries, -1 verify: the
        # read's memberlist). Two-network's countersigner, Seller, judges the
        # presentations each initiator forwards and challenges no holder
        # (126 sends and 71 signs while it challenged each one itself: -4
        # challenges and their replies, -4 presentations). Concurrent-commit's
        # countersigners decide from their joined checks, as before. Each
        # registry read asks the sequencer alone, one query and one reply
        # where two replicas were asked (118 sends and 16 queries, 100 and 12).
        # Replica acks ride the authenticated bus unsigned: each of the 21
        # orders' acks loses its sign, and the sequencer's and the writer's
        # verifies of 2f acks per batch go (67 and 59 signs, 144 and 92
        # verifies while each replica signed its ack)
        ("two-network", 102, 8, 0, 1, 21, 2, 46, 116),
        ("concurrent-commit", 88, 6, 0, 0, 21, 2, 38, 64),
    ],
    ids=("two-network", "concurrent-commit"),  # stable across re-pins
)
def test_bundled_scenario_counts(
    monkeypatch, name, sends, queries, memberlists, witnesses, orders, countersigns, signs,
    verifies,
):
    calls = {"sign": 0, "verify": 0}

    def counting(op, fn):
        def wrapped(*args, **kwargs):
            calls[op] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(crypto, "sign", counting("sign", crypto.sign))
    monkeypatch.setattr(crypto, "verify", counting("verify", crypto.verify))
    runner = harness.ScenarioRunner(scenario_config(name))
    report = runner.run()
    assert report.ok, report.errors
    sent = [e.detail["msg_kind"] for e in runner.world.trace.events if e.kind == "bus.send"]
    got = (
        len(sent),
        sent.count("iin.query"),
        sent.count("anchor.memberlist.request"),
        sent.count("anchor.witness.request"),
        sent.count("iin.order"),
        sent.count("agent.countersign.request"),
        calls["sign"],
        calls["verify"],
    )
    assert got == (sends, queries, memberlists, witnesses, orders, countersigns, signs, verifies)


@pytest.mark.parametrize("name, plaintext_bytes", [
    # each countersign request forwards one presentation, with its bundle,
    # per ACTIVE statement in place of the hints, and the countersigners'
    # challenges go (81,561, 60,489, 113,395 and 83,604 B while they
    # challenged); a challenge's nonce is its statement's encoding
    # (`agent.StatementNonce`, 89 B here), which the holder reads, not 16
    # random bytes, in the challenge, its presentation and each copy
    # forwarded (80,773, 62,507, 112,697 and 87,404 B with its 32-byte
    # digest). A registry read gets one snapshot, the sequencer's, where
    # two replicas each sent one (81,457, 62,849, 113,723 and 88,430 B).
    # Revoke-carrier's countersigners read no ledger records for its two
    # flips: two `ledger.query` sends and their replies go (94,238 B). An
    # `iin.ack` is the unsigned `Ack`, and a receipt names its acking
    # replicas without their signatures (70,707, 56,755, 91,934 and 77,672 B
    # while each replica signed its ack)
    ("two-network", 68_033),
    ("concurrent-commit", 54_081),
    ("revoke-carrier", 88_878),
    ("rotate-resync", 74_998),
], ids=SCENARIOS)  # stable across re-pins
def test_bundled_scenario_wire_bytes(monkeypatch, name, plaintext_bytes):
    sent = []
    send = bus.SimBus.send

    def counting(self, sender, to, kind, plaintext):
        sent.append(len(plaintext))
        return send(self, sender, to, kind, plaintext)

    monkeypatch.setattr(bus.SimBus, "send", counting)
    report = harness.run_scenario(scenario_config(name))
    assert report.ok, report.errors
    assert sum(sent) == plaintext_bytes


@pytest.mark.parametrize(
    "name, logical, outside, executed",
    [
        # concurrent-commit: Buyer's joined batch reads no memberlist, a memo
        # hit (-1 logical); revoke-carrier and rotate-resync: the two
        # initiators' last statements are made at different ticks, so the
        # endorsements of them share no verdict. Every countersigner verifies
        # the presentation its initiator forwards, the triple its initiator
        # verified, so each forwarded one runs Ed25519 once (54, 36, 65 and
        # 49 executed while each countersigner verified its own challenge's).
        # Two initiators that challenge a holder in one tick do so under one
        # statement nonce and verify one presentation. With each registry read
        # of one send and one reply the bus draws other latencies: the
        # initiators of rotate-resync's resync now challenge Carrier and
        # Seller in one tick (-4; 47 before), and those of concurrent-commit
        # challenge Carrier a tick apart (+3; 33 while in one tick). Replica
        # acks are unsigned, so no one verifies them: per batch, the sequencer
        # and the writer each verified 2f acks (4 logical verifies), 2 of them
        # distinct triples run once by the memo (144, 92, 170 and 136 logical
        # and 50, 36, 61 and 43 executed while each replica signed its ack)
        ("two-network", 116, 4, 36),
        ("concurrent-commit", 64, 0, 22),
        ("revoke-carrier", 138, 2, 45),
        ("rotate-resync", 108, 4, 29),
    ],
    ids=SCENARIOS,  # stable across re-pins
)
def test_bundled_scenario_executed_verifies(monkeypatch, name, logical, outside, executed):
    runner = harness.ScenarioRunner(scenario_config(name))
    memo = runner.world.bus._verdicts
    calls, in_run = [], set()
    verify = crypto.verify

    def wrapped(public_key, message, signature):
        calls.append(crypto._verdicts is memo)
        if calls[-1]:
            in_run.add((public_key, message, signature.bytes_))
        return verify(public_key, message, signature)

    monkeypatch.setattr(crypto, "verify", wrapped)
    report = runner.run()
    assert report.ok, report.errors
    assert (len(calls), calls.count(False), len(memo)) == (logical, outside, executed)
    assert memo.keys() == in_run



@pytest.mark.parametrize(
    "name, in_loop, entries, presentations",
    [
        # the decodes move with the gate reads above (concurrent-commit: the
        # joined batch's memberlist, -1), the memo's entries with the
        # endorsements. Each presentation is decoded in the memo, once for
        # its initiator and each countersigner it is forwarded to (275, 225,
        # 329 and 272 decodes and 102, 79, 117 and 99 entries while each was
        # decoded outside the memo, by its one verifier). Each holder decodes
        # its challenge's nonce to read the statement's `made_at`: one call
        # per challenge, one entry per distinct nonce (283, 227, 340 and 280
        # decodes and 106, 78, 124 and 105 entries before). The entries move
        # with the shared presentations of the executed verifies above
        # (concurrent-commit 79 and 1 presentation, rotate-resync 111 and 6).
        # Revoke-carrier's countersigners send no records read, so decode no
        # records reply (347 while each of its two flips' did)
        ("two-network", 287, 110, 4),
        ("concurrent-commit", 229, 83, 2),
        ("revoke-carrier", 343, 131, 7),
        ("rotate-resync", 286, 104, 4),
    ],
    ids=SCENARIOS,  # stable across re-pins
)
def test_bundled_scenario_decodes(monkeypatch, name, in_loop, entries, presentations):
    runner = harness.ScenarioRunner(scenario_config(name))
    memo = runner.world.bus._decoded
    calls = []
    from_bytes = enc.Record.from_bytes.__func__

    def wrapped(cls, data):
        if enc._decoded is memo:
            calls.append((cls, data))
        return from_bytes(cls, data)

    monkeypatch.setattr(enc.Record, "from_bytes", classmethod(wrapped))
    report = runner.run()
    assert report.ok, report.errors
    assert (len(calls), len(memo)) == (in_loop, entries)
    assert memo.keys() == set(calls)
    # one entry per distinct presentation answered: each challenge's but the
    # two of rotate-resync's resync that its initiators make in one tick of
    # the same holders, who answer both with the same presentation
    assert sum(cls is creds.VerifiablePresentation for cls, _ in memo) == presentations


def test_revoke_carrier_flip_lands_14_ticks_after_its_resync():
    """The resync's memberlist gate settles the revoked Carrier's flip, so
    its step D batch starts at the gate, alongside steps B and C of the
    listed members, and each countersigner reads its gate and no ledger
    records: with every latency fixed at 2 ticks, the
    APPLIED REVOKED commit lands 14 ticks after the resync starts. The bus
    draws every latency from one seeded stream, so at the scenario's own
    latencies a set-up of fewer or more sends moves the draws: 13 with the
    two-round-trip step A, 16 with the one-round-trip one, and 17 once no
    holder refreshes the witness step A gave it (24 while the flip waited
    for every target to end, 15 while the countersigner read its records
    before its gate)."""
    runner = harness.ScenarioRunner(fixed_latency("revoke-carrier"))
    report = runner.run()
    assert report.ok, report.errors
    events = runner.world.trace.events
    resync = next(e.tick for e in events if e.kind == "agent.resync")
    commit = next(
        e.tick for e in events
        if e.kind == "ledger.commit" and e.detail["status"] == "REVOKED"
        and e.detail["outcome"] == "APPLIED"
    )
    assert commit - resync == 14


def test_readmitted_carrier_resync_takes_20_ticks():
    """Two-network with Carrier revoked, SWT resynced and Carrier re-admitted
    (`readmitted_carrier_world`): in SWT's next resync Carrier is a new
    target, whose step D batch leaves as soon as its own checks end, while
    Seller's held target ends UNCHANGED. With every latency fixed at 2
    ticks, the resync's last event comes 20 ticks after it starts, with 16
    sends (20 while each registry read asked two replicas). At the
    scenario's own latencies the set-up's sends move the
    bus's seeded draws: 26 with the two-round-trip step A, 20 with the
    one-round-trip one and 22 once no holder refreshes the witness step A
    gave it (31 while Carrier's batch waited for Seller's target)."""
    world = readmitted_carrier_world(fixed_latency("two-network"))
    start = len(world.trace.events)
    buyer = world.agents["Buyer"]
    record = buyer.start_session("resync", buyer.resync("SWT", "periodic"))
    world.settle()
    assert record.error is None, record.error
    events = world.trace.events[start:]
    resync = next(e.tick for e in events if e.kind == "agent.resync")
    assert max(e.tick for e in events) - resync == 20
    assert sum(e.kind == "bus.send" for e in events) == 16


# re-pinned as each registry read asks the sequencer alone: one query and
# one reply where two replicas were asked, so the sends, their seqs and the
# bus's seeded latency draws after the first read move (the traffic digests
# below with them). Re-pinned again as no countersigner reads its ledger's
# records for a REVOKED statement (revoke-carrier's two records reads go)
# and a full sync starts its checks when its gate returns, before its
# records read is joined (two-network's, revoke-carrier's and
# rotate-resync's challenges leave earlier, and the draws move). Re-pinned
# again as replica acks and receipts carry no signatures: the `iin.ack` and
# `iin.submit.reply` payload digests move, and the traffic digests do not
TRACE_DIGESTS = {
    "concurrent-commit": "8b95fb30c4f8cf3997c67755ad5b33bdfe74dc971ec72534d11e015ca720b967",
    "concurrent-commit-serial": "6f173462bfe05e242d9ff2c34cc03eec28bbfdc43b77707de3be41d3c8035c09",
    "digest-mismatch-retry": "fdbaf1b9d930c663e9b2012813669dc930e206699f6fe1b2e76c3168794fdae4",
    "revoke-carrier": "46be9419330c70e6aef654a2d121c27c0affad4369711f4ba2e3fe0be3a01a63",
    "rotate-resync": "d1885bc5f0aa8cd1910d8948265a3de230f9c24f755b5e456c7f4020c9f3cfe7",
    "two-network": "d95d1ed376e026079d0f950c1834afd0772fdbb632c9a66dd323766520eee1d6",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


TRAFFIC_DIGESTS = {
    "concurrent-commit": "34f66737b61a0966c0675ff8839d1ee8933434158d561e085245dd104f1ae4da",
    "concurrent-commit-serial": "94236582dcb480152a1eaf7ec1730fa0df440ad9fb568d9c6f28756846faab19",
    "digest-mismatch-retry": "68e503d8fee47894ed9ec4e2fd976def6c28e58b312551d3bd308dae54a4c65b",
    "revoke-carrier": "5f159886df67587d06b48d9d4bd6d68c9321490887a1639a59c569408e4590d0",
    "rotate-resync": "f67e327af466858c592b32141ac9e9fac1e641ea73c7fc6ae1bc521f6cdc90a1",
    "two-network": "b3ef8138d01ec5b4ff58a0e4a4eceb5a14b17f848f9b44285fa3a91363e5bd9f",
}


@pytest.mark.parametrize("name", sorted(TRAFFIC_DIGESTS))
def test_bundled_scenario_traffic_digest(name):
    runner = harness.ScenarioRunner(scenario_config(name))
    report = runner.run()
    assert report.ok, report.errors
    digest = hashlib.sha256()
    for event in runner.world.trace.events:
        detail = {k: v for k, v in event.detail.items() if k != "payload_digest"}
        digest.update((replace(event, detail=detail).to_json() + "\n").encode())
    assert digest.hexdigest() == TRAFFIC_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TRAFFIC_DIGESTS))
def test_no_agent_asks_an_anchor_for_a_memberlist(name):
    """Every memberlist gate reads the list from the registry: no agent sends
    `anchor.memberlist.request` in any bundled scenario."""
    runner = harness.ScenarioRunner(scenario_config(name))
    report = runner.run()
    assert report.ok, report.errors
    asked = [
        e for e in runner.world.trace.events
        if e.kind == "bus.send" and e.detail["msg_kind"] == "anchor.memberlist.request"
    ]
    assert asked == []


@pytest.mark.parametrize("name", sorted(TRAFFIC_DIGESTS))
def test_each_challenge_is_answered_with_one_presentation(monkeypatch, name):
    """Every presentation signed is one holder's answer to one challenge, so
    a holder that signs its bundle apart from its membership fails here; and
    no replica signs an ack, which the bus authenticates by its channel."""
    signed = []
    sign = crypto.sign

    def counting(secret_key, message):
        signed.append(message[0])
        return sign(secret_key, message)

    monkeypatch.setattr(crypto, "sign", counting)
    runner = harness.ScenarioRunner(scenario_config(name))
    report = runner.run()
    assert report.ok, report.errors
    challenges = [
        e for e in runner.world.trace.events
        if e.kind == "bus.send" and e.detail["msg_kind"] == "agent.membership_vp.request"
    ]
    assert signed.count(enc.TAG_VP) == len(challenges) > 0
    assert enc.TAG_ACK not in signed


def two_networks(k: int) -> dict:
    """Two networks of `k` orgs with one peer each on one 4-node IIN, each
    network's anchor validating its own orgs: the benchmark's sweep world."""
    orgs = {net: [f"{net}o{i:02d}" for i in range(k)] for net in ("NA", "NB")}
    other = {"NA": "NB", "NB": "NA"}
    return {
        "name": f"sweep-k{k}",
        "seed": 0,
        "identity_seed": 7,
        "tick_ceiling": 10_000_000,
        "cert_lifetime": 20_000,
        "latency": [1, 3],
        "iins": [{"id": "iin0", "nodes": 4}],
        "anchors": [
            {"name": f"Anchor{net}", "iin": "iin0", "whitelist": orgs[net], "represents": [net]}
            for net in orgs
        ],
        "networks": [
            {
                "id": net,
                "orgs": [{"name": o, "peers": 1} for o in orgs[net]],
                "interop": [other[net]],
                "trust": [{"iin": "iin0", "anchor": f"Anchor{other[net]}", "network": other[net]}],
                "pmv": f"Anchor{net}",
            }
            for net in orgs
        ],
        "script": [{"step": "bootstrap"}, {"step": "step_a", "orgs": "all"}],
    }


@pytest.mark.parametrize("k", range(2, 7))
def test_sync_costs_are_closed_forms_in_k(monkeypatch, k):
    """One initiator's full sync of the k members of the other network, with
    k orgs per network: each term of each formula is one kind of message or
    check, so a change that makes the sync grow faster in k fails here."""
    runner = harness.ScenarioRunner(
        harness.parse_scenario(two_networks(k), source=f"<sweep-k{k}>"), seed=k
    )
    assert runner.run().ok
    world = runner.world
    calls = {"sign": 0, "verify": 0, "executed": 0}

    def counting(op, fn):
        def wrapped(*args):
            calls[op] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(crypto, "sign", counting("sign", crypto.sign))
    monkeypatch.setattr(crypto, "verify", counting("verify", crypto.verify))
    monkeypatch.setattr(
        crypto, "_ed25519_verify", counting("executed", crypto._ed25519_verify)
    )
    first = len(world.trace.events)
    agent = world.agents["NAo00"]
    agent.start_session("sync", agent.sync_network("NA", "NB"))
    world.settle()
    sent = [e.detail["msg_kind"] for e in world.trace.events[first:] if e.kind == "bus.send"]
    # step A leaves each holder a witness at its anchor's current epoch, so
    # no challenge waits on a refresh. Each countersigner judges the
    # presentations the initiator forwards, so only the initiator challenges
    # (2k^2 + 6k + 2 sends, of which 2k^2 challenges and replies, while each
    # org challenged each holder; 8k + 2 while each registry read asked two
    # replicas)
    assert len(sent) == 6 * k + 2
    # k gate reads, the initiator's and each countersigner's, of 2 sends
    # each: one query to the sequencer and its reply
    assert sum(m.startswith("iin.query") for m in sent) == 2 * k
    assert not any(m.startswith("anchor.witness.") for m in sent)
    # one presentation per holder and one endorsement batch per org (k^2 + k
    # while each org's challenge drew a presentation of its own)
    assert calls["sign"] == 2 * k
    # every org still checks every holder, so no check is skipped
    assert calls["verify"] == 5 * k * k + 3 * k
    # the world's verdict memo runs each forwarded presentation's Ed25519
    # once for all its verifiers (k^2 + 4k + 1 while each verified its own)
    assert calls["executed"] == 5 * k + 1
    assert sum(m.startswith("agent.membership_vp.") for m in sent) == 2 * k
    assert sum(m.startswith("agent.countersign.") for m in sent) == 2 * (k - 1)
    assert sum(m.startswith("cmdac.") for m in sent) == 2  # one submit per step-D batch
    # the initiator's one records read; the policy is each agent's own
    assert sum(m.startswith("ledger.") for m in sent) == 2
    state = world.ledger_state("NA")
    assert all(state.get_record("NB", f"NBo{i:02d}").status == "ACTIVE" for i in range(k))

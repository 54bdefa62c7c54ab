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
A challenge's presentation is bound to its fresh nonce, so it is decoded
outside the memo and no memo keeps one.
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
        # read's memberlist). Two-network's early challenges replace the
        # ones that followed each countersigner's gate read, one for one
        ("two-network", 126, 16, 0, 1, 21, 2, 71, 144),
        ("concurrent-commit", 100, 12, 0, 0, 21, 2, 59, 92),
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
    # each countersign request carries its initiator's gate-read epochs and
    # one holder endpoint per statement (two-network +242 B over its two
    # requests); concurrent-commit also loses Buyer's joined gate read
    ("two-network", 81_561),
    ("concurrent-commit", 60_489),
    ("revoke-carrier", 113_395),
    ("rotate-resync", 83_604),
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
        # endorsements of them share no verdict
        ("two-network", 144, 4, 54),
        ("concurrent-commit", 92, 0, 36),
        ("revoke-carrier", 170, 2, 65),
        ("rotate-resync", 136, 4, 49),
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
    "name, in_loop, entries",
    [
        # the decodes move with the gate reads above (concurrent-commit: the
        # joined batch's memberlist, -1), the memo's entries with the
        # endorsements
        ("two-network", 275, 102),
        ("concurrent-commit", 225, 79),
        ("revoke-carrier", 329, 117),
        ("rotate-resync", 272, 99),
    ],
    ids=SCENARIOS,  # stable across re-pins
)
def test_bundled_scenario_decodes(monkeypatch, name, in_loop, entries):
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
    assert not any(cls is creds.VerifiablePresentation for cls, _ in memo)


def test_revoke_carrier_flip_lands_14_ticks_after_its_resync():
    """The resync's memberlist gate settles the revoked Carrier's flip, so
    its step D batch starts at the gate, alongside steps B and C of the
    listed members, and each countersigner reads its ledger's records
    alongside its own gate: with every latency fixed at 2 ticks, the
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
    ticks, the resync's last event comes 20 ticks after it starts, with 20
    sends. At the scenario's own latencies the set-up's sends move the
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
    assert sum(e.kind == "bus.send" for e in events) == 20


# re-pinned as each countersigner's challenges leave with its gate read, and
# a batch joins its countersigner's own check of the same holder
TRACE_DIGESTS = {
    "concurrent-commit": "55d4208eaf9c8d2aa72be78f15ef18200c3fc7f0c547bff2da8a49c9e0afd07f",
    "concurrent-commit-serial": "e09cf507f16edbbcc83e7150d65b82a39d37d05cb160e06cc4444d8c53f7fa6e",
    "digest-mismatch-retry": "44319fd28f1aa9092ba1e3efddf9c056487e526b5dd8e500ac729203a61300f2",
    "revoke-carrier": "cd376e48ca3b83b83272bf937aa864a5a8061fc47a4c146e0ba6bd6bab25e55e",
    "rotate-resync": "4c5fabba6efdf3300c7bc6f36be1b22edcba2a33bd4ccd142f8513624c750465",
    "two-network": "bf57dc9218f5b38d2dad776645af89687f8d7e1ee3a9beeede3429b3d6cf2810",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


TRAFFIC_DIGESTS = {
    "concurrent-commit": "da12d22537b2327b32d8434bd00dfe9a3bdb81e1dc542c4bc000d739790d5b7c",
    "concurrent-commit-serial": "d834c271f20763fd998b778c9e86b97bc88d0bc89ac5caa338399d652d24b1c1",
    "digest-mismatch-retry": "453a8e71d8f8f7af4e1fc270ce8a1fc0c6abc12520b33d6b5ea973e597e82926",
    "revoke-carrier": "96bf26a9c07945fa9c65bb15798f766f773a055ab7f098086c5ab785366b46c1",
    "rotate-resync": "036b0637266f3caaf465b76c7108a7fc3ef23a88d84aaf3feeb49ea3c6be1a00",
    "two-network": "74628befa8ecda2c6283f8dd4453b8b0f98142e9bb777f764be38e4d2538ea37",
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
    a holder that signs its bundle apart from its membership fails here."""
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
    # no challenge waits on a refresh (2k^2 + 6k + 4 while one did)
    assert len(sent) == 2 * k * k + 6 * k + 2
    assert not any(m.startswith("anchor.witness.") for m in sent)
    assert calls["sign"] == k * k + k
    assert calls["verify"] == 5 * k * k + 3 * k
    assert calls["executed"] == k * k + 4 * k + 1
    assert sum(m.startswith("agent.membership_vp.") for m in sent) == 2 * k * k
    assert sum(m.startswith("agent.countersign.") for m in sent) == 2 * (k - 1)
    assert sum(m.startswith("cmdac.") for m in sent) == 2  # one submit per step-D batch
    # the initiator's one records read; the policy is each agent's own
    assert sum(m.startswith("ledger.") for m in sent) == 2
    state = world.ledger_state("NA")
    assert all(state.get_record("NB", f"NBo{i:02d}").status == "ACTIVE" for i in range(k))

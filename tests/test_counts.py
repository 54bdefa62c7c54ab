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

from conftest import readmitted_carrier_world, scenario_config

SCENARIOS = ("two-network", "concurrent-commit", "revoke-carrier", "rotate-resync")


@pytest.mark.parametrize(
    "name, sends, queries, memberlists, witnesses, orders, countersigns, signs, verifies",
    [
        ("two-network", 128, 16, 0, 2, 21, 2, 71, 144),
        ("concurrent-commit", 102, 12, 0, 1, 21, 2, 59, 92),
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
    ("two-network", 81_524),
    ("concurrent-commit", 60_482),
    ("revoke-carrier", 113_344),
    ("rotate-resync", 83_443),
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
        ("two-network", 144, 4, 54),
        ("concurrent-commit", 92, 0, 36),
        ("revoke-carrier", 170, 2, 63),
        ("rotate-resync", 136, 4, 47),
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
        ("two-network", 276, 103),
        ("concurrent-commit", 226, 80),
        ("revoke-carrier", 330, 116),
        ("rotate-resync", 273, 97),
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


def test_revoke_carrier_flip_lands_16_ticks_after_its_resync():
    """The resync's memberlist gate settles the revoked Carrier's flip, so
    its step D batch starts at the gate, alongside steps B and C of the
    listed members, and each countersigner reads its ledger's records
    alongside its own gate: the APPLIED REVOKED commit lands 16 ticks after
    the resync starts (24 while the flip waited for every target to end, 15
    while the countersigner read its records before its gate). The bus
    draws every latency from one seeded stream, so a set-up of fewer sends
    moves the draws: with the two-round-trip step A it was 13, and with
    every latency fixed at 2 ticks both take 14."""
    runner = harness.ScenarioRunner(scenario_config("revoke-carrier"))
    report = runner.run()
    assert report.ok, report.errors
    events = runner.world.trace.events
    resync = next(e.tick for e in events if e.kind == "agent.resync")
    commit = next(
        e.tick for e in events
        if e.kind == "ledger.commit" and e.detail["status"] == "REVOKED"
        and e.detail["outcome"] == "APPLIED"
    )
    assert commit - resync == 16


def test_readmitted_carrier_resync_takes_20_ticks():
    """Two-network with Carrier revoked, SWT resynced and Carrier re-admitted
    (`readmitted_carrier_world`): in SWT's next resync Carrier is a new
    target, whose step D batch leaves as soon as its own checks end, while
    Seller's held target ends UNCHANGED. The resync's last event comes 20
    ticks after it starts (31 while Carrier's batch waited for Seller's
    target), with 20 sends. With the two-round-trip step A it came after
    26: its extra sends moved the bus's seeded latency draws, and with every
    latency fixed at 2 ticks both take 20."""
    world = readmitted_carrier_world()
    start = len(world.trace.events)
    buyer = world.agents["Buyer"]
    record = buyer.start_session("resync", buyer.resync("SWT", "periodic"))
    world.settle()
    assert record.error is None, record.error
    events = world.trace.events[start:]
    resync = next(e.tick for e in events if e.kind == "agent.resync")
    assert max(e.tick for e in events) - resync == 20
    assert sum(e.kind == "bus.send" for e in events) == 20


TRACE_DIGESTS = {
    "concurrent-commit": "b7956f6dbad50ced520096f349b9f4da09133d07e8dfb4ce794e399070612846",
    "concurrent-commit-serial": "82af928eb52df6156092d6a5cfd1b0b77ebd612d83817351273d237f7054c820",
    "digest-mismatch-retry": "c21620faed51f698343ca6d914e98e39961709d68a102a50217eee5fef1c3451",
    "revoke-carrier": "70a80abc5b3ebbdaa424a8967cef94d9efd164f7bb3798ecf7b6c09d1f59fefb",
    "rotate-resync": "3a4b2da54b9df3dc315fd3ccc1c377532d45731a208d3afec40c58c395e475f9",
    "two-network": "80d9afe854d60ce8a440f8eb7510bb292651b3eb05ae6f849d24dc63a033356c",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


TRAFFIC_DIGESTS = {
    "concurrent-commit": "dc0c5f9c5adfb479768fe35a573d2248d6b23d3a708ffd89d1b5e3559d7a5749",
    "concurrent-commit-serial": "d9c7d2eede551a30b59972348948f27b1593e41fe8c474a3c8671a6184e45284",
    "digest-mismatch-retry": "fd9b92415aa4d627049cf8935cba539e426e44e91886f90e7bb2a026c7d22159",
    "revoke-carrier": "58d7889d41854b56d72c2b05075a90469aee282f987e8c7f23952b7f5b7b810b",
    "rotate-resync": "12b0c9f7279572afe95bd98721f03026d05eac2b1080f15d929473e726d901dc",
    "two-network": "aa95f833f511dba2cddc4b23f79af53e0d6adf53903744d3aa74da8bc0f745a0",
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
    assert len(sent) == 2 * k * k + 6 * k + 4
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

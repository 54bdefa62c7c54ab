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
        # an anchor answers a credential once the writes queued behind its
        # batch have ended, with a witness at the epoch they leave: Buyer's
        # challenge of Carrier no longer waits on a refresh (128 -> 126
        # sends, 2 -> 1 witness requests). In concurrent-commit no holder
        # refreshes (1 -> 0), but the shifted timing makes Buyer's countersign
        # batch miss its cached gate and read the registry (12 -> 14 queries,
        # 92 -> 93 verifies: the read's memberlist), so sends rise 102 -> 104
        ("two-network", 126, 16, 0, 1, 21, 2, 71, 144),
        ("concurrent-commit", 104, 14, 0, 0, 21, 2, 59, 93),
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
    # no set-up witness refresh (-205 B); concurrent-commit's extra gate read +4,449 B
    ("two-network", 81_319),
    ("concurrent-commit", 64_931),
    ("revoke-carrier", 113_137),
    ("rotate-resync", 83_238),
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
        # concurrent-commit: the extra gate read's memberlist, a memo hit;
        # revoke-carrier and rotate-resync: the two initiators' last
        # statements are now made at different ticks, so the endorsements of
        # them no longer share one verdict (+2)
        ("two-network", 144, 4, 54),
        ("concurrent-commit", 93, 0, 36),
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
        # the decodes move with the witness replies and gate reads above,
        # the memo's entries with the endorsements
        ("two-network", 275, 102),
        ("concurrent-commit", 226, 79),
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


TRACE_DIGESTS = {
    "concurrent-commit": "5c1b74f356779a89bde03197faeb11207fb6b19b7eacbcf3715a0b586a4c173b",
    "concurrent-commit-serial": "38d1c02101de41eecd01ee5dc3bb6f96386d91b71a0d8429053a3642e5b02ee9",
    "digest-mismatch-retry": "b94471195284e2789d3af583dafe3871c47463a2e4fc654a7a2adfe0c79051ac",
    "revoke-carrier": "9419f662f91527e4da67d23f45509b121e2e96795dfb19a111631e34cda350d7",
    "rotate-resync": "761da9fb216c82c2c64f353f37d8f15d9c45b95634e246c85b1887b80392fbbf",
    "two-network": "6c0a9b6e1337ee9c38db46ee3e8db2ec1bb06be619c22443294181aa7b95d290",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


TRAFFIC_DIGESTS = {
    "concurrent-commit": "102193dd12fca5f4e41c47eb677a4fbc2f7c39f31c4d2209db334d83c559ea4c",
    "concurrent-commit-serial": "5b2ab7ba17f8f9b62455d71d2ef517f24aa6459705e68ec5a11ba3dd8a501059",
    "digest-mismatch-retry": "f31efb9ff7346cddc6f5da23fb018d9d0a07bafc1fb58686717bedac494ea1f9",
    "revoke-carrier": "d782d505ac2c0b094f88f603e14b7bd304bb53ce9e50e959899888fdc222e5f2",
    "rotate-resync": "411836f672c876fde4aa2520a5c24d86a235adcc9ca910ae8dda3d7c1dd8d6c6",
    "two-network": "18b47499375a996faa3b9c00af3d347c9185a9464b02c47a7ce4c9ab6a262545",
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

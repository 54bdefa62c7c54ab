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
"""

import hashlib
from dataclasses import replace

import pytest

from idplane import crypto, harness
from idplane import encoding as enc

from conftest import scenario_config


@pytest.mark.parametrize(
    "name, sends, queries, memberlists, witnesses, orders, countersigns, signs, verifies",
    [
        ("two-network", 170, 16, 0, 2, 30, 2, 116, 226),
        ("concurrent-commit", 136, 12, 0, 1, 30, 2, 94, 170),
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


@pytest.mark.parametrize(
    "name, logical, outside, executed",
    [
        ("two-network", 226, 12, 96),
        ("concurrent-commit", 170, 0, 68),
        ("revoke-carrier", 249, 6, 110),
        ("rotate-resync", 222, 12, 93),
    ],
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
        ("two-network", 284, 116),
        ("concurrent-commit", 225, 81),
        ("revoke-carrier", 334, 133),
        ("rotate-resync", 274, 110),
    ],
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

TRACE_DIGESTS = {
    "concurrent-commit": "0e5545e6d370f420cf69e2ae4702e0ffd8c5b9eaf56a3eb1f3b7bb33f0a63ddc",
    "concurrent-commit-serial": "f9bcaa20b1e87c22f71ef29f0152b8028946da978ba662099ec7617f5512032b",
    "digest-mismatch-retry": "316cf1c3201c11cea440c81f1a87c39bec097c9206f734b9c0380013fa4d67c8",
    "revoke-carrier": "1bf3d896fe78ed076c1d01cffebe2d194a1e1d73daa45825c1e54503f7d61235",
    "rotate-resync": "7322526f24dd17cbcad91d34c71f149f81b56ebcd483f64557a705d7ca7cf54a",
    "two-network": "13800b854011b819978f17295c4a65a8f36e032757514a277828af2deb993547",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


TRAFFIC_DIGESTS = {
    "concurrent-commit": "a33d05960e9b616b720f2b4b64840bd94941850442d253374586b870b4102fb1",
    "concurrent-commit-serial": "3c7c609d0503c4f4ee0da1810be1bcae6ef922c8d6103df061fea9f80f5c132c",
    "digest-mismatch-retry": "becee92e442bf932b2a9f34b0229171fb928c4c3198bc6f708cc268d4b2f9bfc",
    "revoke-carrier": "d43018b8fe37c7fb7583dda1dbac4fadb3c999473e3dab78268fb8d359d6ea7a",
    "rotate-resync": "82e84b1cf044e14a769b0628ebef052ed0c5faf97f0f4868ddacc18ac7fa1572",
    "two-network": "5857205d01a2506811a5de047f0d26be323c88dc417a96309d141abe17a9d9c4",
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

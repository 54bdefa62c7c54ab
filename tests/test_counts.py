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
that a change that widens registry reads again, fetches the foreign memberlist
per target again, refreshes a holder's witness on every challenge again,
orders registry writes one transaction at a time again, or asks a
countersigner once per record again fails even when other sends move.
Beside the logical Ed25519 verifies, each scenario pins the verifies its
world's verdict memo executes: one per distinct triple checked inside the bus
loop, so a memo that shares verdicts too widely or too narrowly fails.
"""

import hashlib
from dataclasses import replace

import pytest

from idplane import crypto, harness

from conftest import scenario_config


@pytest.mark.parametrize(
    "name, sends, queries, memberlists, witnesses, orders, countersigns, signs, verifies",
    [
        ("two-network", 186, 20, 4, 2, 30, 2, 120, 230),
        ("concurrent-commit", 142, 12, 2, 2, 30, 2, 96, 172),
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
        ("two-network", 230, 12, 100),
        ("concurrent-commit", 172, 0, 70),
        ("revoke-carrier", 257, 6, 118),
        ("rotate-resync", 226, 12, 97),
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


TRACE_DIGESTS = {
    "concurrent-commit": "25350246adafee1adb05d3930690f5b83e723e27006a61eca5c12444a0061be6",
    "concurrent-commit-serial": "df33d22071609a9a23e2f9863ab143793c2856aa639070772343da3188fa1a31",
    "digest-mismatch-retry": "ea80934b8dab46d57d579c9a8dee4001d1c65491a8460fefc2636ee1e4d7ecd6",
    "revoke-carrier": "8e75be92b7e78c2e7f6edc347dd57ecc6809ff5d423d9e1b48f91d41c7b21649",
    "rotate-resync": "5a8b5ec4b0df6507dea49592862bd37278d039b281c749d9c2eacbbf84f83ecc",
    "two-network": "c9b5a72c471ac002767d128ef81223907af3d13e2317416e403ceb721cfdd96c",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


TRAFFIC_DIGESTS = {
    "concurrent-commit": "531cb7cbf0ab984e70f4b41a8335f3c7f0ea5abef882102c95f8044ead95f86d",
    "concurrent-commit-serial": "d8bfbece18f54edb106681df27a5f0dc5ca67849c809ec8ce5ec3b396765bae2",
    "digest-mismatch-retry": "18b91f998047819696dd86a76b9be070bc4972c2ae7536c56bbff068498880b5",
    "revoke-carrier": "efd0243457b7117a054270397c0e20da3334273691717491770dcc54fc9f36c9",
    "rotate-resync": "3b6e9e4588aea058ae74b62ee7ce0f40f42d94153e9472581b01a08b5f88c53c",
    "two-network": "752d4a2b2cb6ec197b5b617e33152f957b362bb9876ff93a0d97bef321b44d91",
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

"""Exact counts and trace digests of bundled scenarios at their own seeds.

The bus is deterministic, so these counts are exact. A change that adds or
removes a message or an Ed25519 operation fails here and must update the pin
on purpose. The SHA-256 of each bundled scenario's trace file is pinned too,
so a refactor that claims to keep traffic unchanged proves it byte for byte.
The `iin.query`, `anchor.memberlist.request`, `anchor.witness.request`,
`iin.order` and `agent.countersign.request` sends are pinned on their own, so
that a change that widens registry reads again, fetches the foreign memberlist
per target again, refreshes a holder's witness on every challenge again,
orders registry writes one transaction at a time again, or asks a
countersigner once per record again fails even when other sends move.
"""

import hashlib

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


TRACE_DIGESTS = {
    "concurrent-commit": "556fc398408ecd6418a8bb44c338f1fb7c19520369ab908a56794eb4c4b644d1",
    "concurrent-commit-serial": "0c09dd817791c368d51a25df40f54c94279672976c16d59888fa4b5d3be248e5",
    "digest-mismatch-retry": "b144de7e648499690f9bf774c905e8da8d55e2b3d12f2b84276bae6aaa7d4657",
    "revoke-carrier": "5f74d7714b4f015ae52077051759701f7c88c79be2ad31ceae09c6a08d8f9f23",
    "rotate-resync": "6b6c545ea3e4f0e840b2521353ef6df4300baddff4e6a67414bbbbe7e5eb1fcc",
    "two-network": "7e35919e81b5ca759f08fa7c4db08431762ea75d90a165852b106a9487d9ecc9",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

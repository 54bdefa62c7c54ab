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
        ("two-network", 194, 24, 4, 2, 30, 2, 120, 230),
        ("concurrent-commit", 150, 16, 2, 2, 30, 2, 96, 172),
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
    "concurrent-commit": "a76db8c10208c721a807047e6ef15183698ba9420dc28b77763b06cf0df46463",
    "concurrent-commit-serial": "2c933794d151c5dbd8cc1e82f8dacb7b87fd6c559687bf3a2c1a1512f7138c76",
    "digest-mismatch-retry": "71d85e959ba907e954e60da253d07228db29e4ac0faa0c0434071e965bcef5f8",
    "revoke-carrier": "340c4b9331984cd3b202cd9f8fa0465f389e4596a01e80cd5f1ac62897826b58",
    "rotate-resync": "394f555843749a5ecc9e247e5a670f9399588a918c802b04195501154d97ba1b",
    "two-network": "4ff4febcb677c916d802087c8adb7b6a62e87c881b7033aac9d14226cc720174",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

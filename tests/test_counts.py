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
    "revoke-carrier": "0067db7d1d55efe3b3250cc8f3eab5e8643582f653b24d8a1ccca6271e4d65fc",
    "rotate-resync": "65a9783dc41b79b6ccd191c9bc024cca8f2cf7b72d4e5ee3a0c4a8f8e33fcf9e",
    "two-network": "d607e0de7e350b854a5db97fccd5ffcda2ad99c87ee927c851713d1faccf40c9",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

"""Exact counts and trace digests of bundled scenarios at their own seeds.

The bus is deterministic, so these counts are exact. A change that adds or
removes a message or an Ed25519 operation fails here and must update the pin
on purpose. The SHA-256 of each bundled scenario's trace file is pinned too,
so a refactor that claims to keep traffic unchanged proves it byte for byte.
The `iin.query`, `anchor.memberlist.request` and `anchor.witness.request`
sends are pinned on their own, so that a change that widens registry reads
again, fetches the foreign memberlist per target again, or refreshes a
holder's witness on every challenge again fails even when other sends move.
"""

import hashlib

import pytest

from idplane import crypto, harness

from conftest import scenario_config


@pytest.mark.parametrize(
    "name, sends, queries, memberlists, witnesses, signs, verifies",
    [
        ("two-network", 354, 54, 4, 2, 170, 285),
        ("concurrent-commit", 266, 28, 2, 2, 146, 227),
    ],
    ids=("two-network", "concurrent-commit"),  # stable across re-pins
)
def test_bundled_scenario_counts(
    monkeypatch, name, sends, queries, memberlists, witnesses, signs, verifies
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
        calls["sign"],
        calls["verify"],
    )
    assert got == (sends, queries, memberlists, witnesses, signs, verifies)


TRACE_DIGESTS = {
    "concurrent-commit": "dd2a701e7b539d0801cf5cce7a6faf7fa13e97db921edd2753c0af4e687339ec",
    "concurrent-commit-serial": "d0a75250fd5ed5f9fe2139f40e6097357dfe5699371a27ef38ff60fbfb049fee",
    "digest-mismatch-retry": "6562a0885f731a33fe66eb19cfa0d2fed0e2080bd619d258c81de4c089ad2717",
    "revoke-carrier": "f7b25d3b8c7d03ef6b18b3126e76f0827495d9045a761848d42665065f42435a",
    "rotate-resync": "2c217c518f84dc463e25444e83732fb1f70aab1c15a15d9bce81bc45e44d3177",
    "two-network": "dcafe1e83d3a0b48346bbaa4388e6fe0588d9cd571f5a8693a6012b381acfef3",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

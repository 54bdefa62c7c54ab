"""Exact counts and trace digests of bundled scenarios at their own seeds.

The bus is deterministic, so these counts are exact. A change that adds or
removes a message or an Ed25519 operation fails here and must update the pin
on purpose. The SHA-256 of each bundled scenario's trace file is pinned too,
so a refactor that claims to keep traffic unchanged proves it byte for byte. The `iin.query` and `anchor.memberlist.request` sends are pinned
on their own, so that a change that widens registry reads again, or fetches
the foreign memberlist per target again, fails even when other sends move.
"""

import hashlib

import pytest

from idplane import crypto, harness

from conftest import scenario_config


@pytest.mark.parametrize(
    "name, sends, queries, memberlists, signs, verifies",
    [
        ("two-network", 414, 70, 4, 170, 285),
        ("concurrent-commit", 278, 32, 2, 146, 227),
    ],
    ids=("two-network", "concurrent-commit"),  # stable across re-pins
)
def test_bundled_scenario_counts(
    monkeypatch, name, sends, queries, memberlists, signs, verifies
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
        calls["sign"],
        calls["verify"],
    )
    assert got == (sends, queries, memberlists, signs, verifies)


TRACE_DIGESTS = {
    "concurrent-commit": "82973c43176694b2f540fc9571f611f4d26c2e6f1b7906d132535e13663959d0",
    "concurrent-commit-serial": "df287199754152e3b0b3978e0c1a92aff55fa1ba5062b32d7c70877756c5f46b",
    "digest-mismatch-retry": "c57a116f0a1ba9f3d458626cf048d5d9f845b832ab8ffe68cd7f9d1256da9043",
    "revoke-carrier": "cd28b9665950d8e7f79b0ab9e27dffdb262adefdc24f236dabec6236975c7022",
    "rotate-resync": "892b1ae4c1110cdc3f2ba0343f62fe17be6959d19cbad4885a2f05c90d292368",
    "two-network": "5b7c0c799eb79678b5e2796463fa45bf3dc52b8903d3880ae593b672edc63c24",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

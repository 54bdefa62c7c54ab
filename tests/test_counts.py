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
        ("two-network", 382, 54, 4, 170, 285),
        ("concurrent-commit", 270, 28, 2, 146, 227),
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
    "concurrent-commit": "cd1c18b6038915b6368c81a92951ee4c3de88d2c79f4c73c309772fde23cd343",
    "concurrent-commit-serial": "c1b565380a012ec9eb51ae61722ec57714018790f05c991144839f48ea442149",
    "digest-mismatch-retry": "305b7fc25f8a83a7e496cf9d3aa86ca4f49ec50ac847d14793146e6c54578908",
    "revoke-carrier": "3abc4343e9c5ed7c5b373cef7131d4aa2067b40f5bd40a64673a9e6ea127353d",
    "rotate-resync": "d07e5eaa370b3006e678afbc5996791b04e89d098a4298461e961b817bb99d89",
    "two-network": "a83b00de5e2f9c5bcec7d61091f2a1669de064b87a29649860360ac90140700f",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

"""Exact counts and trace digests of bundled scenarios at their own seeds.

The bus is deterministic, so these counts are exact. A change that adds or
removes a message or an Ed25519 operation fails here and must update the pin
on purpose. The SHA-256 of each bundled scenario's trace file is pinned too,
so a refactor that claims to keep traffic unchanged proves it byte for byte.
The `iin.query`, `anchor.memberlist.request`, `anchor.witness.request` and
`iin.order` sends are pinned on their own, so that a change that widens
registry reads again, fetches the foreign memberlist per target again,
refreshes a holder's witness on every challenge again, or orders registry
writes one transaction at a time again fails even when other sends move.
"""

import hashlib

import pytest

from idplane import crypto, harness

from conftest import scenario_config


@pytest.mark.parametrize(
    "name, sends, queries, memberlists, witnesses, orders, signs, verifies",
    [
        ("two-network", 266, 54, 4, 2, 30, 120, 230),
        ("concurrent-commit", 182, 30, 2, 1, 30, 98, 177),
    ],
    ids=("two-network", "concurrent-commit"),  # stable across re-pins
)
def test_bundled_scenario_counts(
    monkeypatch, name, sends, queries, memberlists, witnesses, orders, signs, verifies
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
        calls["sign"],
        calls["verify"],
    )
    assert got == (sends, queries, memberlists, witnesses, orders, signs, verifies)


TRACE_DIGESTS = {
    "concurrent-commit": "20a58a0d3473478a526d354d632ff951c743846dcf641e784fab3378caed286f",
    "concurrent-commit-serial": "8a559cf0be59f59df69c72305c598471a06cd372081ace8e05c2529d89a55fb2",
    "digest-mismatch-retry": "2da481cb6d47ebc52c133012bf649d92960fe319efbd4c4f4b71668c300c3827",
    "revoke-carrier": "a89dc962571bef9f3811e4eae111f6bf822d0f12b2aca1a499bd551af4424e73",
    "rotate-resync": "ab08f41d44f95f9d97e06e5945e98c4cf77f25bf15aa955f974d857197fc6aff",
    "two-network": "0ba8559f1e2e82796d9e5d37fc1e2febd1a3b2194055b18539610b08ce57c213",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

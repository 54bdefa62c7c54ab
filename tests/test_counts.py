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
    "concurrent-commit": "fdca7a27c45454f21e2e07c051921a970fba9374c59d565f08fb2dfc48f47ab1",
    "concurrent-commit-serial": "e7de298d95f8728d2a08db24cffd69ffcc9e40ce99a26277b1d88bc885cb064b",
    "digest-mismatch-retry": "93a7b18dd7d0d005683e5f98a047a8aa9c6c52ef6977e0daad7a4e1dfb1c9ba1",
    "revoke-carrier": "4cdb8c6c547d60ffb731eca3223a3eed46fa9c536eb4bfb62dc06912d6d3b6a8",
    "rotate-resync": "37921d6ce5b5ddbeb630cc980ee11c9abef271669835e8784c06517e5d446535",
    "two-network": "15cf524bb50cee60ba87d479dd327855b66ce283a2663934876cbe56854e62ca",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

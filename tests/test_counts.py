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
        ("two-network", 246, 46, 4, 2, 30, 2, 120, 230),
        ("concurrent-commit", 180, 30, 2, 1, 30, 2, 96, 172),
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
    "concurrent-commit": "4a0bd7adfcf23eaefa1eecd5eed169ba47ca915c4b1b2bc2a3c9b9c6ee6fcad0",
    "concurrent-commit-serial": "317597ff81613c617c5e9ae6e2b23a4ec8fed09a87d249ece3cea197ca0d38eb",
    "digest-mismatch-retry": "265cb6b86193f7ec8ffed04380e1f7a9487e14ef4abb4ba014e4feafdc1285a1",
    "revoke-carrier": "000a42e619a98e19cc99871e54c393f0aed50e7136dd488d5ad1969debe91c5f",
    "rotate-resync": "430d0d8743aa7e35af54b89b2f4027989ba9f4898e914f1ad1d02d30bb3ef1d4",
    "two-network": "b8d718cbffa482ea8bbfe523d46f34d791a7bb21f6ccd53541c4ea2c21799ac7",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

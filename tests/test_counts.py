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
    "concurrent-commit": "38d2acf001f2d1b8e486d40be2ce1011b612be7709736a1bbf2ccbb65cdfe3d1",
    "concurrent-commit-serial": "b531a73dbe55628f23ad1e5d13064159ed35f69049e3a353f31ca5493a012906",
    "digest-mismatch-retry": "ea597e1728aa50080dba77ccf453cd83354f07ecd8afd7b8fb91e0746c9bd6f7",
    "revoke-carrier": "92f99baa954741ab6dfee01a6f6bd1e6f418798de6d27b53e4aa5cd0f45f83a8",
    "rotate-resync": "ed6e2df5cb38c4f38abc59d8dd2366d5854b8c9d64cb364c9f27d58bd4909895",
    "two-network": "da58d5e140b106e53b55fe42b891c0a41932aa98a0a6f9345facb7a0ec1bdcd1",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_scenario_trace_digest(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    report = harness.run_scenario(scenario_config(name), trace_path=path)
    assert report.ok, report.errors
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]

"""Exact message and signature counts of bundled scenarios at their own seeds.

The bus is deterministic, so these counts are exact. A change that adds or
removes a message or an Ed25519 operation fails here and must update the pin
on purpose.
"""

import pytest

from idplane import crypto, harness

from conftest import scenario_config


@pytest.mark.parametrize(
    "name, sends, signs, verifies",
    [
        ("two-network", 714, 172, 424),
        ("concurrent-commit", 358, 146, 322),
    ],
)
def test_bundled_scenario_counts(monkeypatch, name, sends, signs, verifies):
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
    got_sends = sum(1 for e in runner.world.trace.events if e.kind == "bus.send")
    assert (got_sends, calls["sign"], calls["verify"]) == (sends, signs, verifies)

"""Shared fixtures: bootstrapped scenario worlds driven step by step."""

import hashlib
from dataclasses import replace

import pytest

from idplane import harness
from idplane.actors import Actor, Request
from idplane.bus import BoxKeyPair


def scenario_config(name: str) -> harness.ScenarioConfig:
    return harness.load_scenario(harness.bundled_scenarios()[name])


def bootstrapped_runner(name: str = "two-network", seed=None, through_step_a=True):
    """A runner with bootstrap (and optionally step A) already executed; tests
    drive agents and anchors directly from there."""
    runner = harness.ScenarioRunner(scenario_config(name), seed=seed)
    runner._execute(0, {"step": "bootstrap"})
    if through_step_a:
        runner._execute(1, {"step": "step_a", "orgs": "all"})
    assert not runner.report.errors, runner.report.errors
    return runner


def fixed_latency(name: str, ticks: int = 2) -> harness.ScenarioConfig:
    """Bundled scenario `name` with every bus latency `ticks`: its tick
    counts do not move with the seeded latency draws that a send more or
    less elsewhere in the run shifts."""
    return replace(scenario_config(name), latency=(ticks, ticks))


def readmitted_carrier_world(config=None):
    """The world of two-network (or `config`) run to its end, then STL's
    Carrier revoked, flipped to REVOKED by Buyer's resync of SWT, and
    re-admitted by its step A: SWT's next resync commits Carrier ACTIVE
    again and finds Seller unchanged."""
    runner = harness.ScenarioRunner(config or scenario_config("two-network"))
    report = runner.run()
    assert report.ok, report.errors
    world = runner.world
    anchor = world.anchors["AnchorSTL"]
    anchor.enqueue_serialized(
        "revoke", lambda: anchor.revoke_membership(world.org_dids["Carrier"], "STL")
    )
    world.settle()
    buyer, carrier = world.agents["Buyer"], world.agents["Carrier"]
    for agent, gen in ((buyer, buyer.resync("SWT", "periodic")), (carrier, carrier.step_a())):
        record = agent.start_session("readmit", gen)
        world.settle()
        assert record.error is None, record.error
    assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "REVOKED"
    return world


@pytest.fixture
def runner():
    return bootstrapped_runner()


@pytest.fixture
def world(runner):
    return runner.world


class Raw:
    """A message body given as its bytes, which need not decode as any
    record: for a request or a reply that does not decode."""

    def __init__(self, data: bytes):
        self.data = data

    def to_bytes(self) -> bytes:
        return self.data


class Probe(Actor):
    """Outside observer actor for poking services directly."""


def ask(probe, world, to, kind, body, timeout=600):
    """Send one request from `probe` and settle the world; returns its Reply,
    or None when none came within `timeout`."""
    result = {}

    def asking():
        result["reply"] = yield Request(to, kind, body, timeout=timeout)

    probe.start_session("ask", asking())
    world.settle()
    return result["reply"]


def add_probe(world, address="probe") -> Probe:
    probe = Probe(address)
    probe.bind(world.bus)
    seed = hashlib.sha256(address.encode()).digest()
    world.bus.register(probe, BoxKeyPair.from_seed(seed))
    return probe

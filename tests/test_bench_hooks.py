"""The benchmark's tracer still attaches to the program, and its workloads
still send the traffic they did.

`perfbench/tracer.py` wraps program attributes by name; a rename on the
program's side would break the benchmark without failing any other test.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from idplane import agent, anchors, harness, registry

from conftest import scenario_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer_module():
    return load_perfbench_module("tracer")


def test_tracer_installs_counts_and_uninstalls():
    tr = load_tracer_module()
    quorum_query = registry.quorum_query
    enqueue_serialized = anchors.AnchorService.enqueue_serialized
    tracer = tr.Tracer()
    inst = tr.install(tracer)
    try:
        report = harness.run_scenario(scenario_config("two-network"))
    finally:
        inst.uninstall()
    assert report.ok, report.errors
    assert tracer.n_calls("anchors.issue") > 0
    assert tracer.n_calls("harness.bootstrap") > 0
    assert tracer.n_calls("harness.step_a") > 0
    assert tracer.n_calls("crypto.accumulator") > 0
    # run.py reads phase B and the countersign re-validations from where the
    # validate spans nest; step C runs inside step B's span
    assert tracer.tick_spans("agent.validate", "agent.sync_target")
    assert tracer.tick_spans("agent.validate", "agent.countersign")
    assert tracer.n_calls("agent.fetch") > 0
    # every registry read is a member snapshot, and the tracer files it so
    assert tracer.counters["registry.read.member.calls"] == tracer.n_calls("registry.read") > 0
    assert registry.quorum_query is quorum_query
    assert anchors.AnchorService.enqueue_serialized is enqueue_serialized


def test_traced_methods_keep_their_names_and_shapes():
    """The tracer drives these agent and anchor methods as generators and
    wraps the anchor's two read-side handlers as plain calls, each by name.
    It reads each method from its class's `__dict__`, so an inherited one
    breaks it."""
    for name in (
        "_sync_target", "_validate_member", "_fetch_identity", "_commit_identity",
        "_handle_countersign",
    ):
        assert inspect.isgeneratorfunction(agent.IinAgent.__dict__.get(name)), name
    methods = anchors.AnchorService.__dict__
    for name in ("_issue_membership", "revoke_membership"):
        assert inspect.isgeneratorfunction(methods.get(name)), name
    for name in ("_serve_memberlist", "_refresh_witness"):
        assert inspect.isfunction(methods.get(name)), name
        assert not inspect.isgeneratorfunction(methods[name]), name


def test_benchmark_worlds_parse():
    """The benchmark builds its worlds from scenario mappings of its own."""
    sc = load_perfbench_module("scenarios")
    for raw in (sc.two_networks("t", 2), sc.criterion05_shape(7)):
        config = harness.parse_scenario(raw)
        assert [step["step"] for step in config.script] == ["bootstrap", "step_a"]


@pytest.mark.parametrize("workload, sends, applied, sync_ticks", [
    # each countersigner judges the presentations its initiator forwards
    # and challenges no holder: wide-sync's two syncs send 66 each, 8k + 2
    # at k = 8 (356 -> 132 sends), and take 27/25 -> 24/23 ticks as the
    # draws move with the sends. In commit-race's race each countersigner
    # decides from its joined check, as before. Each registry read then
    # asks the sequencer alone: wide-sync's syncs send 50 each, 6k + 2 (132
    # -> 100 sends; 24/23 -> 25/27 ticks as the draws move), and
    # commit-race's unit 16 (20)
    ("wide-sync", 100, 16, [25, 27]),
    ("commit-race", 16, 1, [16]),
    # a re-admission is one credential round trip, one holder read and one
    # batch; the resync after it sends no countersigner challenge either
    # (164 -> 166 sends, 20/26/39 -> 16/18/46 ticks). A countersigner keeps
    # no identity checked on a forwarded presentation, so in the rotation
    # resync, whose first attempt the prefetcher's stale copy refuses, the
    # two other countersigners read their gates rather than answer from a
    # stale copy of their own (158 sends and 16/18/36 ticks while they kept
    # one). Each registry read asking the sequencer alone makes it 132
    # sends and 17/20/42 ticks
    ("proof-churn", 132, 3, [17, 20, 42]),
], ids=("wide-sync", "commit-race", "proof-churn"))  # stable across re-pins
def test_one_unit_of_each_workload_keeps_its_exact_traffic(
    monkeypatch, workload, sends, applied, sync_ticks
):
    """One seeded unit of each benchmark workload: the bus sends, APPLIED
    commits and sync tick spans its end-to-end metrics are made of."""
    run = run_one_unit(monkeypatch, workload)
    assert (run.sends, run.applied, run.sync_ticks) == (sends, applied, sync_ticks)


def test_every_commit_race_unit_sends_16(monkeypatch):
    """Both SWT orgs race to commit Carrier. Each one's countersign batch
    reaches the other while that org checks Carrier itself, or after: it
    joins that check and answers from the identity it caches, with no
    registry read, whatever the latency draws. Answering mid-check with a
    read of its own made 3 of these 8 units send 24, and each of the two
    gate reads asking two replicas made every unit send 20."""
    workloads = load_workloads(monkeypatch)
    run = workloads.Run(seed=7, n_units=8)
    workloads.WORKLOADS["commit-race"][0](run)
    assert run.failed == 0, run.failures
    races = [[item[2] for item in unit if str(item[0]).startswith("race ")] for unit, _ in run.units]
    assert races == [[16]] * 8


def test_a_proof_churn_re_admission_takes_12_sends(monkeypatch):
    """The revoked member's step A asks its identity validator once, with
    the document the registry already holds: the request and its reply, the
    anchor's holder read of the sequencer (2 sends) and one registry batch
    holding only the revocation update (8 sends). Asking for the verinym
    apart made it 24, and a read of two replicas 14."""
    run = run_one_unit(monkeypatch, "proof-churn")
    [(_, _, sends, applied)] = [
        item for item in run.units[0][0] if str(item[0]).startswith("re-admit ")
    ]
    assert (sends, applied) == (12, 0)


@pytest.mark.parametrize("workload", ["wide-sync", "commit-race"])
def test_timed_syncs_refresh_no_witness(monkeypatch, workload):
    """Each anchor answers a credential once the writes queued behind its
    batch have ended, so in these worlds every holder leaves step A with a
    witness at its anchor's epoch, and no timed sync asks for a witness."""
    workloads = load_workloads(monkeypatch)
    step = workloads.step
    timed = []

    def recording(run, world, label, start, is_sync=False):
        first = len(world.trace.events)
        records = step(run, world, label, start, is_sync)
        if is_sync and not label.startswith("oracle"):  # commit-race's set-up syncs
            timed.extend(
                e.detail["msg_kind"] for e in world.trace.events[first:] if e.kind == "bus.send"
            )
        return records

    monkeypatch.setattr(workloads, "step", recording)
    run_one_unit(monkeypatch, workload, workloads)
    assert timed
    assert [kind for kind in timed if kind.startswith("anchor.witness.")] == []


def load_workloads(monkeypatch):
    """perfbench's `workloads` module, loaded afresh."""
    # workloads.py imports the other two by bare name; all three leave
    # sys.modules when the test ends
    for name in ("scenarios", "probe", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


def run_one_unit(monkeypatch, workload: str, workloads=None):
    """A run of one unit of `workload` at seed 7, which must not fail."""
    workloads = workloads or load_workloads(monkeypatch)
    run = workloads.Run(seed=7, n_units=1)
    workloads.WORKLOADS[workload][0](run)
    assert run.failed == 0, run.failures
    return run

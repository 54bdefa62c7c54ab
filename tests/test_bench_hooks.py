"""The benchmark's tracer still attaches to the program.

`perfbench/tracer.py` wraps program attributes by name; a rename on the
program's side would break the benchmark without failing any other test.
"""

import importlib.util
import inspect
from pathlib import Path

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
    """The tracer drives these agent methods as generators and wraps the
    anchor's witness handler as a plain call, each by name."""
    for name in ("_validate_member", "_fetch_identity", "_commit_identity"):
        assert inspect.isgeneratorfunction(getattr(agent.IinAgent, name)), name
    assert callable(getattr(anchors.AnchorService, "_refresh_witness", None))


def test_benchmark_worlds_parse():
    """The benchmark builds its worlds from scenario mappings of its own."""
    sc = load_perfbench_module("scenarios")
    for raw in (sc.two_networks("t", 2), sc.criterion05_shape(7)):
        config = harness.parse_scenario(raw)
        assert [step["step"] for step in config.script] == ["bootstrap", "step_a"]

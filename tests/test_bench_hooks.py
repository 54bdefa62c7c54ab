"""The benchmark's tracer still attaches to the program.

`perfbench/tracer.py` wraps program attributes by name; a rename on the
program's side would break the benchmark without failing any other test.
"""

import importlib.util
import inspect
from pathlib import Path

from idplane import agent, anchors, harness, registry

from conftest import scenario_config

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert tracer.n_calls("crypto.accumulator") > 0
    assert registry.quorum_query is quorum_query
    assert anchors.AnchorService.enqueue_serialized is enqueue_serialized


def test_traced_methods_keep_their_names_and_shapes():
    """The tracer drives these agent methods as generators and wraps the
    anchor's witness handler as a plain call, each by name."""
    for name in ("_validate_member", "_fetch_identity", "_commit_identity"):
        assert inspect.isgeneratorfunction(getattr(agent.IinAgent, name)), name
    assert callable(getattr(anchors.AnchorService, "_refresh_witness", None))

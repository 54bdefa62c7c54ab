"""idplane benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload wide-sync --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/idplane` of that checkout. With `--trace 0` the run is untraced and
reports the end-to-end metrics; with `--trace 1` every layer boundary is
wrapped, the run reports the per-layer metrics, writes its spans to
`.bench_out/spans-<workload>.jsonl.gz`, and then replays the first unit
untraced to check that tracing changed no exact count.

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "idplane" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'idplane'}; "
                 "run from the root of an idplane checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import idplane

    if Path(idplane.__file__).resolve().parent != (src / "idplane").resolve():
        sys.exit(f"perfbench: imported idplane from {idplane.__file__}, not from {src}")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, never
    below the median; returns (value, label)."""
    n = len(values)
    if n <= 20:
        return median(values), "p50"
    q = (n - 10) / n
    ordered = sorted(values)
    return ordered[math.ceil(q * n) - 1], f"p{100 * q:.0f}"


def end_to_end(run) -> tuple[dict, list[str]]:
    """Timed metrics are at the reference machine speed (see probe.py); the
    notes also give them as measured."""
    from probe import REFERENCE_S

    setup_s = run.at_reference(run.setup)
    sync_s = run.at_reference(run.syncs)
    proof_s = sum(run.at_reference(run.proof_batches))
    sync_wall = [wall for wall, _ in run.syncs]
    proof_wall = sum(wall for wall, _ in run.proof_batches)
    sync_tail, tail_label = tail(sync_s)
    ticks_tail, ticks_label = tail(run.sync_ticks)
    probes = run.probe.times
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "sync_s.p50": (median(sync_s), "s"),
        "sync_s.tail": (sync_tail, "s"),
        "sync_ticks.p50": (median(run.sync_ticks), "ticks"),
        "sync_ticks.tail": (ticks_tail, "ticks"),
        "records_per_s": (run.applied / sum(sync_s) if sync_s else 0.0, "1/s"),
        "proofs_per_s": (run.proofs / proof_s if proof_s else 0.0, "1/s"),
        "msgs_per_record": (run.sends / run.applied if run.applied else 0.0, "msgs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"speed probe: median {median(probes) * 1e3:.3f} ms over {len(probes)} probes, "
        f"min {min(probes) * 1e3:.3f}, max {max(probes) * 1e3:.3f}; "
        f"reference {REFERENCE_S * 1e3:.3f} ms",
        f"setup_s: median of {len(setup_s)} world set-ups; "
        f"as measured {median([wall for wall, _ in run.setup]):.6f} s",
        f"sync_s.tail / sync_ticks.tail: {tail_label} / {ticks_label} of {len(sync_s)} "
        f"sync steps; as measured p50 {median(sync_wall):.6f} s, tail {tail(sync_wall)[0]:.6f} s",
        f"records: {run.applied} APPLIED in {sum(sync_s):.3f} s of sync steps "
        f"({sum(sync_wall):.3f} s as measured); {run.sends} sends in the timed phase",
        f"proofs: {run.proofs} in {proof_s:.3f} s ({proof_wall:.3f} s as measured)",
        f"failed_ratio: {run.failed / max(1, run.attempted):.6f} "
        f"({run.failed} of {run.attempted} operations)",
    ]
    return metrics, notes


def per_layer(t, overhead_s: float) -> dict:
    """Counts and self times from the traced run's spans. Harness phases
    report inclusive wall time; bus.loop.self_s is the event loop's time
    outside actor handlers."""
    from tracer import SEND_GROUPS, TAGS

    c = t.counters
    m: dict = {}

    def calls(metric: str, span: str | None = None) -> None:
        m[metric] = (t.n_calls(span or metric[: -len(".calls")]), "count")

    def self_s(metric: str) -> None:
        m[metric] = (t.self_time(metric[: -len(".s")]), "s")

    def count(metric: str) -> None:
        m[metric] = (c.get(metric, 0), "count")

    def ticks_p50(metric: str, span: str, parent: str | None = None) -> None:
        m[metric] = (median(t.tick_spans(span, parent)), "ticks")

    for phase in ("world_build", "bootstrap", "step_a"):
        m[f"harness.{phase}.s"] = (t.incl_time(f"harness.{phase}"), "s")

    calls("encoding.record.calls")
    m["encoding.record.bytes"] = (c.get("encoding.record.bytes", 0), "bytes")
    self_s("encoding.record.s")

    for op in ("sign", "verify"):
        calls(f"crypto.{op}.calls")
        self_s(f"crypto.{op}.s")
    count("crypto.verify.rejected")
    for op in ("sign", "verify"):
        for _, tag in TAGS:
            count(f"crypto.{op}.{tag}.calls")
    for layer in ("chain_verify", "accumulator", "digest"):
        calls(f"crypto.{layer}.calls")
        self_s(f"crypto.{layer}.s")
    m["crypto.digest.bytes"] = (c.get("crypto.digest.bytes", 0), "bytes")

    calls("bus.send.calls")
    m["bus.send.bytes"] = (c.get("bus.send.bytes", 0), "bytes")
    self_s("bus.send.s")
    for group in SEND_GROUPS:
        count(f"bus.send.{group}.calls")
    for event in ("deliver", "drop", "reject"):
        count(f"bus.{event}.calls")
    m["bus.loop.self_s"] = (
        t.incl_time("bus.loop") - t.child_time("bus.loop", "actors.handler"), "s"
    )

    self_s("actors.handler.s")
    calls("actors.sessions.started", "actors.session_start")
    for name in ("actors.sessions.failed", "actors.timeouts", "actors.late_replies"):
        count(name)

    calls("registry.apply.calls")
    self_s("registry.apply.s")
    calls("registry.submit.calls")
    count("registry.submit.failed")
    ticks_p50("registry.submit.ticks.p50", "registry.submit")
    calls("registry.read.calls")
    for what in ("did", "schema", "cred_def", "revocation"):
        count(f"registry.read.{what}.calls")
    count("registry.read.failed")
    ticks_p50("registry.read.ticks.p50", "registry.read")
    reads = t.n_calls("registry.read")
    m["registry.read.msgs_per_read"] = (
        c.get("bus.send.registry_read.calls", 0) / reads if reads else 0.0, "msgs"
    )

    for op in ("issue", "memberlist", "witness", "revoke"):
        calls(f"anchors.{op}.calls")

    for op in ("verify_vp", "verify_self_vp", "build_vp"):
        calls(f"credentials.{op}.calls")
        self_s(f"credentials.{op}.s")
    count("credentials.verify_vp.failed")

    for op in ("validate", "fetch", "commit", "countersign"):
        calls(f"agent.{op}.calls")
    commits = t.n_calls("agent.commit")
    revalidations = len(t.tick_spans("agent.validate", "agent.countersign"))
    m["agent.revalidations_per_commit"] = (revalidations / commits if commits else 0.0, "ratio")
    count("agent.retries")
    for phase, span in (("b", "agent.validate"), ("c", "agent.fetch"), ("d", "agent.commit")):
        ticks_p50(f"agent.phase_{phase}.ticks.p50", span, "agent.sync_target")

    calls("network.cmdac.calls")
    for outcome in ("applied", "noop", "rejected"):
        count(f"network.cmdac.{outcome}")
    self_s("network.cmdac.s")
    for op in ("proof_generate", "proof_verify"):
        calls(f"network.{op}.calls")
        self_s(f"network.{op}.s")
    count("network.proof_verify.failed")

    calls("trace.events", "trace.record")
    self_s("trace.record.s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} not found; run from the checkout root")
    spec = json.loads(spec_path.read_text())
    _import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload][0]
    run = wl.Run(seed=args.seed, n_units=wl.units_for(args.workload, args.seconds))
    notes: list[str] = []

    if args.trace:
        import tracer as tr

        t = tr.Tracer()
        inst = tr.install(t)
        try:
            workload(run)
        finally:
            inst.uninstall()
        replay = wl.Run(seed=args.seed, n_units=1)
        workload(replay)
        same = run.units[0][0] == replay.units[0][0]
        run.check(same, "traced and untraced first units differ in exact counts")
        if not same:
            notes.append(f"traced   unit 0: {run.units[0][0]}")
            notes.append(f"untraced unit 0: {replay.units[0][0]}")
        overhead = run.units[0][1] - replay.units[0][1]
        notes.append(
            f"tracing overhead on unit 0: {overhead:.3f} s "
            f"({run.units[0][1]:.3f} s traced vs {replay.units[0][1]:.3f} s untraced)"
        )
        spans = t.write(ROOT / ".bench_out" / f"spans-{args.workload}.jsonl.gz")
        notes.append(f"{spans} spans written to .bench_out/spans-{args.workload}.jsonl.gz")
        metrics = per_layer(t, overhead)
        wanted = spec["per_layer"]
    else:
        workload(run)
        metrics, more = end_to_end(run)
        notes.extend(more)
        wanted = spec["end_to_end"]

    names = [w["name"] for w in wanted]
    if set(names) != set(metrics) or any(metrics[w["name"]][1] != w["unit"] for w in wanted):
        sys.exit("perfbench: metric names or units differ between the code and BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed}: {len(run.units)} units, "
          f"trace={args.trace}")
    for line in notes:
        print(f"  {line}")
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Diagnostics that go with the benchmark; none of them is a gated workload.

    python3 perfbench/check.py baseline     # traced counts of bundled scenarios
    python3 perfbench/check.py determinism  # exact counts: traced vs untraced, run vs rerun
    python3 perfbench/check.py sweep        # orgs-per-network sweep, k = 2, 4, 8, 16
    python3 perfbench/check.py              # all three

Run from the root of a source checkout. `baseline` compares sends, signs and
verifies of the bundled two-network and concurrent-commit scenarios, at their
own seeds, with the figures in BASELINE below; a mismatch means a call slipped
past the wrapped attributes or the program's message or signature count
changed, and the exit code is 1. `determinism` runs the first unit of every
workload twice untraced and twice traced on one seed and requires identical
exact counts. `sweep` prints set-up and sync costs of one single-initiator
sync for each k.
"""

from __future__ import annotations

import sys
import time

import run as bench

# (bus sends, Ed25519 signs, Ed25519 verifies) at the scenario's own seed
BASELINE = {
    "two-network": (714, 886, 1138),
    "concurrent-commit": (358, 504, 680),
}
SWEEP_K = (2, 4, 8, 16)
DETERMINISM_SEED = 20211


def _traced(fn):
    import tracer as tr

    t = tr.Tracer()
    inst = tr.install(t)
    try:
        result = fn()
    finally:
        inst.uninstall()
    return t, result


def baseline() -> bool:
    from idplane import harness

    ok = True
    for name, expected in BASELINE.items():
        config = harness.load_scenario(harness.bundled_scenarios()[name])
        t, report = _traced(lambda: harness.run_scenario(config))
        got = tuple(t.n_calls(n) for n in ("bus.send", "crypto.sign", "crypto.verify"))
        match = got == expected and report.ok
        ok &= match
        print(f"baseline {name:18s} sends/signs/verifies {got} expected {expected} "
              f"scenario {'PASS' if report.ok else 'FAIL'} -> {'ok' if match else 'MISMATCH'}")
    return ok


def determinism() -> bool:
    import workloads as wl

    ok = True
    for name, (workload, _) in wl.WORKLOADS.items():
        untraced = []
        for _ in range(2):
            run = wl.Run(seed=DETERMINISM_SEED, n_units=1)
            workload(run)
            untraced.append(run)
        traced = []
        for _ in range(2):
            run = wl.Run(seed=DETERMINISM_SEED, n_units=1)
            t, _ = _traced(lambda: workload(run))
            traced.append((run, t.exact_counts()))
        fingerprints = [r.units[0][0] for r in untraced] + [r.units[0][0] for r, _ in traced]
        same_units = all(f == fingerprints[0] for f in fingerprints)
        same_counts = traced[0][1] == traced[1][1]
        clean = all(r.failed == 0 for r in untraced) and all(r.failed == 0 for r, _ in traced)
        ok &= same_units and same_counts and clean
        walls = [r.units[0][1] for r in untraced] + [r.units[0][1] for r, _ in traced]
        print(f"determinism {name:12s} fingerprints {'equal' if same_units else 'DIFFER'}, "
              f"{len(traced[0][1])} traced counts {'equal' if same_counts else 'DIFFER'}, "
              f"checks {'pass' if clean else 'FAIL'}; unit wall untraced "
              f"{min(walls[:2]):.3f} s, traced {min(walls[2:]):.3f} s, "
              f"overhead {min(walls[2:]) - min(walls[:2]):+.3f} s")
        if not same_counts:
            a, b = traced[0][1], traced[1][1]
            print("  differing:", {k: (a.get(k), b.get(k)) for k in set(a) | set(b)
                                   if a.get(k) != b.get(k)})
    return ok


def sweep() -> bool:
    import scenarios as sc
    import workloads as wl

    keys = (("sends", "bus.send.calls"), ("signs", "crypto.sign.calls"),
            ("verifies", "crypto.verify.calls"), ("reads", "registry.read.calls"))
    print("sweep: one world per k, then one initiator syncs every foreign member")
    print(f"{'k':>3} {'phase':6} {'sends':>7} {'signs':>7} {'verifies':>9} {'reads':>6} "
          f"{'reval':>6} {'wall_s':>7}")
    ok = True
    for k in SWEEP_K:
        run = wl.Run(seed=k, n_units=0)
        config = sc.config(sc.two_networks(f"sweep-k{k}", k))
        phases = {}

        def measure(label, fn):
            t0 = time.perf_counter()
            t, result = _traced(fn)
            counts = t.exact_counts()
            row = {short: counts.get(key, 0) for short, key in keys}
            row["reval"] = len(t.tick_spans("agent.validate", "agent.countersign"))
            row["wall_s"] = time.perf_counter() - t0
            phases[label] = row
            return result

        world = measure("setup", lambda: wl.build_world(run, config, seed=k))
        agent = world.agents[sc.org_names(sc.NET_A, k)[0]]
        measure("sync", lambda: wl.sync(run, world, "sweep sync",
                                        [(agent, agent.sync_network(sc.NET_A, sc.NET_B))]))
        wl.check_records(run, world, sc.NET_A, sc.NET_B, sc.org_names(sc.NET_B, k))
        ok &= run.failed == 0
        total = {key: phases["setup"][key] + phases["sync"][key] for key in phases["setup"]}
        for label, row in (*phases.items(), ("total", total)):
            print(f"{k:>3} {label:6} {row['sends']:>7} {row['signs']:>7} {row['verifies']:>9} "
                  f"{row['reads']:>6} {row['reval']:>6} {row['wall_s']:>7.2f}")
    return ok


def main(argv: list[str]) -> int:
    bench._import_program()
    checks = {"baseline": baseline, "determinism": determinism, "sweep": sweep}
    chosen = argv or list(checks)
    unknown = [c for c in chosen if c not in checks]
    if unknown:
        sys.exit(f"perfbench: unknown check {unknown}; choose from {', '.join(checks)}")
    results = {name: checks[name]() for name in chosen}
    print("checks:", ", ".join(f"{n} {'ok' if r else 'FAILED'}" for n, r in results.items()))
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

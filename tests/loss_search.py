"""Exhaustive single-drop search over bundled scenarios, and a drop-rate sweep.

The bus is deterministic, so a scenario's lossless run fixes its sends in
order. `single` runs each scenario once per send n with one
`FaultRule(action="drop", occurrence=n)`, which drops the n-th envelope of
the run, and prints how many runs failed, per dropped message kind. `rates`
runs two-network at a few `drop_rate`s over a range of bus seeds and prints
how many runs passed. Both modes print every wrongful revocation: an APPLIED
REVOKED `ledger.commit` of an org whose holder no `anchor.revoked` event of
the run names in that network (revoke-carrier revokes Carrier; the other
scenarios revoke no one). They also count the `ledger.commit` entries the
contract refused, by outcome name (a `StaleStatement` is a statement that a
commit overtook under loss). `single` runs all four scenarios in about 25 s
on 2 vCPUs.

Pytest does not collect this file (its name does not start with `test_`);
`tests/test_loss.py` pins `single` on concurrent-commit. Run it from the
repository root:

    PYTHONPATH=src python3 tests/loss_search.py single [scenario ...]
    PYTHONPATH=src python3 tests/loss_search.py rates [--seeds N] [rate ...]
"""

import argparse
import collections
from dataclasses import replace

from idplane import harness
from idplane.bus import FaultRule

from conftest import scenario_config

SCENARIOS = ("two-network", "concurrent-commit", "revoke-carrier", "rotate-resync")
RATES = (0.005, 0.01, 0.02)


def wrongful_revocations(runner: harness.ScenarioRunner) -> list:
    """The APPLIED REVOKED `ledger.commit` events whose org's holder was not
    revoked in that foreign network during the run."""
    events = runner.world.trace.events
    revoked = {
        (e.detail["network"], e.detail["holder"]) for e in events if e.kind == "anchor.revoked"
    }
    dids = runner.world.org_dids
    return [
        e for e in events
        if e.kind == "ledger.commit" and e.detail["status"] == "REVOKED"
        and e.detail["outcome"] == "APPLIED"
        and (e.detail["foreign_network"], dids[e.detail["foreign_org"]]) not in revoked
    ]


def refusals(runner: harness.ScenarioRunner) -> list[str]:
    """The outcome of each `ledger.commit` entry the contract refused."""
    return [
        e.detail["outcome"] for e in runner.world.trace.events
        if e.kind == "ledger.commit" and e.detail["outcome"] not in ("APPLIED", "NOOP")
    ]


def run(cfg: harness.ScenarioConfig, seed=None, rules=()) -> harness.ScenarioRunner:
    runner = harness.ScenarioRunner(cfg, seed=seed)
    runner.world.bus.config.rules[:0] = rules
    runner.run()
    return runner


def single(
    name: str, refused: collections.Counter
) -> tuple[collections.Counter, collections.Counter, list]:
    """Drop each send of `name`'s lossless run in turn; counts refused
    commits in `refused` and returns the runs and the failed runs per
    dropped kind, and the wrongful revocations."""
    cfg = scenario_config(name)
    lossless = run(cfg)
    assert lossless.report.ok, lossless.report.errors
    sends = sum(1 for e in lossless.world.trace.events if e.kind == "bus.send")
    runs, failed = collections.Counter(), collections.Counter()
    revoked = []
    for n in range(1, sends + 1):
        runner = run(cfg, rules=[FaultRule(action="drop", occurrence=n)])
        [drop] = [e for e in runner.world.trace.events if e.kind == "bus.drop"]
        kind = drop.detail["msg_kind"]
        runs[kind] += 1
        failed[kind] += not runner.report.ok
        refused.update(refusals(runner))
        for e in wrongful_revocations(runner):
            revoked.append((name, f"drop {n} ({kind})", e.tick, e.detail["foreign_org"]))
    return runs, failed, revoked


def print_single(name: str, runs: collections.Counter, failed: collections.Counter) -> None:
    print(f"{name}: {sum(failed.values())} of {sum(runs.values())} single drops fail the run")
    for kind in sorted(runs, key=lambda k: (-failed[k], k)):
        print(f"  {kind:32} {failed[kind]:3} of {runs[kind]:3} fail")


def sweep(rates: tuple[float, ...], seeds: int, refused: collections.Counter) -> list:
    """Two-network at each drop rate over bus seeds 0..seeds-1; prints the
    passing runs per rate, counts refused commits in `refused` and returns
    the wrongful revocations."""
    revoked = []
    passed_total = 0
    for rate in rates:
        cfg = replace(scenario_config("two-network"), drop_rate=rate)
        passed = 0
        for seed in range(seeds):
            runner = run(cfg, seed=seed)
            passed += runner.report.ok
            refused.update(refusals(runner))
            for e in wrongful_revocations(runner):
                revoked.append(("two-network", f"rate {rate} seed {seed}", e.tick,
                                e.detail["foreign_org"]))
        passed_total += passed
        print(f"two-network drop_rate {rate}: {passed} of {seeds} seeds pass")
    print(f"two-network: {passed_total} passing runs in all")
    return revoked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_single = sub.add_parser("single", help="drop each send of a lossless run in turn")
    p_single.add_argument("scenarios", nargs="*", metavar="scenario", help=", ".join(SCENARIOS))
    p_rates = sub.add_parser("rates", help="sweep two-network over drop rates and seeds")
    p_rates.add_argument("rates", nargs="*", type=float, default=RATES)
    p_rates.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args(argv)
    refused = collections.Counter()
    if args.mode == "single":
        unknown = set(args.scenarios) - set(SCENARIOS)
        if unknown:
            parser.error(f"no single-drop search for {', '.join(sorted(unknown))}")
        revoked = []
        for name in args.scenarios or SCENARIOS:
            runs, failed, found = single(name, refused)
            print_single(name, runs, failed)
            revoked += found
    else:
        revoked = sweep(tuple(args.rates), args.seeds, refused)
    for scenario, cause, tick, org in revoked:
        print(f"wrongful APPLIED REVOKED commit: {scenario}, {cause}, tick {tick}, {org}")
    print(f"{len(revoked)} wrongful APPLIED REVOKED commits")
    for outcome, count in sorted(refused.items()):
        print(f"refused ledger.commit: {outcome} {count}")
    print(f"{sum(refused.values())} refused ledger.commit entries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

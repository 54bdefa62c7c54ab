"""Exhaustive single-fault search over bundled scenarios, and a drop-rate sweep.

The bus is deterministic, so a scenario's lossless run fixes its sends in
order, and a run with one fault sends the same ones up to it. `single` runs
each scenario once per send n with one `FaultRule(occurrence=n)`, which
drops, duplicates, tampers with or delays (by `--delay` ticks) the n-th
envelope of the run, and prints how many runs failed, per message kind
faulted. `rates` runs two-network at a few `drop_rate`s over a range of bus
seeds and prints how many runs passed. Both modes print every wrongful
revocation: an APPLIED REVOKED `ledger.commit` of an org whose holder no
`anchor.revoked` event of the run names in that network (revoke-carrier
revokes Carrier; the other scenarios revoke no one) and the registry's
final memberlist of that network still lists (a revocation that applied
though its anchor declared the write failed revokes its holder all the
same). They also count the `ledger.commit` entries the contract refused,
by outcome name (a `StaleStatement` is a statement that a commit overtook
under loss), and `single` counts the REVOKED flips that failed
(`agent.revoke_failed`) per scenario: each is a countersign round spent on a
flip that no one endorsed. For duplicates and delays `single` also prints,
per faulted kind, the sends and Ed25519 signatures its runs made beyond the
lossless run's, summed over those runs: a request served twice shows up
there before it fails anything. With `--seeds N` `single` runs each scenario
at bus seeds 0..N-1, not its own, and prints each seed's failed runs and the
totals; each wrongful revocation then names its seed.
`single` runs all four scenarios in about 30 s on 2 vCPUs.

Pytest does not collect this file (its name does not start with `test_`);
`tests/test_loss.py` pins `single` on concurrent-commit. Run it from the
repository root:

    PYTHONPATH=src python3 tests/loss_search.py single [--action A] [--delay N] [--seeds N]
        [scenario ...]
    PYTHONPATH=src python3 tests/loss_search.py rates [--seeds N] [rate ...]
"""

import argparse
import collections
from dataclasses import replace

from idplane import crypto, harness
from idplane.bus import FaultRule

from conftest import scenario_config

SCENARIOS = ("two-network", "concurrent-commit", "revoke-carrier", "rotate-resync")
RATES = (0.005, 0.01, 0.02)
ACTIONS = ("drop", "duplicate", "tamper", "delay")


def wrongful_revocations(runner: harness.ScenarioRunner) -> list:
    """The APPLIED REVOKED `ledger.commit` events whose org's holder was not
    revoked in that foreign network during the run, and is still on the
    registry's final memberlist of that network."""
    world = runner.world
    events = world.trace.events
    revoked = {
        (e.detail["network"], e.detail["holder"]) for e in events if e.kind == "anchor.revoked"
    }
    listed = {
        (memberlist.network_id, did)
        for nodes in world.iin_nodes.values()
        for memberlist in nodes[0].state.memberlists.values()  # the sequencer's
        for did in memberlist.member_dids
    }
    return [
        e for e in events
        if e.kind == "ledger.commit" and e.detail["status"] == "REVOKED"
        and e.detail["outcome"] == "APPLIED"
        and (key := (e.detail["foreign_network"], world.org_dids[e.detail["foreign_org"]]))
        not in revoked and key in listed
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


def signed(fn):
    """`fn()`'s result and the Ed25519 signatures made while it ran."""
    signs = 0
    sign = crypto.sign

    def counting(*args):
        nonlocal signs
        signs += 1
        return sign(*args)

    crypto.sign = counting
    try:
        return fn(), signs
    finally:
        crypto.sign = sign


def single(
    name: str, refused: collections.Counter, action: str = "drop", delay: int = 1,
    kind: str | None = None, work: dict | None = None, seed: int | None = None,
) -> tuple[collections.Counter, collections.Counter, list, int]:
    """Apply `action` to each send of `name`'s lossless run in turn, or to
    each send of `kind` only, at bus seed `seed` (the scenario's own when
    None); counts refused commits in `refused`, adds the sends and
    signatures beyond the lossless run's to `work[kind]` when given, and
    returns the runs and the failed runs per faulted kind, the wrongful
    revocations and the failed REVOKED flips."""
    cfg = scenario_config(name)
    lossless, lossless_signs = signed(lambda: run(cfg, seed=seed))
    assert lossless.report.ok, lossless.report.errors
    sends = [e.detail["msg_kind"] for e in lossless.world.trace.events if e.kind == "bus.send"]
    runs, failed = collections.Counter(), collections.Counter()
    revoked, flips_failed = [], 0
    for n, sent in enumerate(sends, 1):
        if kind is not None and sent != kind:
            continue
        rules = [FaultRule(action=action, occurrence=n, delay=delay)]
        runner, signs = signed(lambda: run(cfg, seed=seed, rules=rules))
        faulted = [e for e in runner.world.trace.events if e.kind == "bus.send"]
        assert faulted[n - 1].detail["msg_kind"] == sent  # the runs agree up to the fault
        if work is not None:
            extra = work.setdefault(sent, [0, 0])
            extra[0] += len(faulted) - len(sends)
            extra[1] += signs - lossless_signs
        runs[sent] += 1
        failed[sent] += not runner.report.ok
        refused.update(refusals(runner))
        flips_failed += sum(e.kind == "agent.revoke_failed" for e in runner.world.trace.events)
        cause = f"{action} {n} ({sent})" if seed is None else f"seed {seed}, {action} {n} ({sent})"
        for e in wrongful_revocations(runner):
            revoked.append((name, cause, e.tick, e.detail["foreign_org"]))
    return runs, failed, revoked, flips_failed


def print_single(
    name: str, action: str, runs: collections.Counter, failed: collections.Counter,
    flips_failed: int, work: dict | None = None,
) -> None:
    print(f"{name}: {sum(failed.values())} of {sum(runs.values())} single {action}s fail the run")
    print(f"  {flips_failed} failed REVOKED flips")
    if work is not None:
        print(f"  {'faulted kind, beyond the lossless run:':50} {'sends':>7} {'signs':>6}")
    for kind in sorted(runs, key=lambda k: (-failed[k], k)):
        line = f"  {kind:32} {failed[kind]:3} of {runs[kind]:3} fail"
        if work is not None:
            line += f" {work[kind][0]:+7} {work[kind][1]:+6}"
        print(line)


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
    p_single = sub.add_parser("single", help="fault each send of a lossless run in turn")
    p_single.add_argument("scenarios", nargs="*", metavar="scenario", help=", ".join(SCENARIOS))
    p_single.add_argument("--action", choices=ACTIONS, default="drop")
    p_single.add_argument("--delay", type=int, default=1, help="ticks added by --action delay")
    p_single.add_argument("--seeds", type=int, help="run at bus seeds 0..N-1, not the scenario's")
    p_rates = sub.add_parser("rates", help="sweep two-network over drop rates and seeds")
    p_rates.add_argument("rates", nargs="*", type=float, default=RATES)
    p_rates.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args(argv)
    refused = collections.Counter()
    if args.mode == "single":
        unknown = set(args.scenarios) - set(SCENARIOS)
        if unknown:
            parser.error(f"no single-fault search for {', '.join(sorted(unknown))}")
        revoked = []
        for name in args.scenarios or SCENARIOS:
            work = {} if args.action in ("duplicate", "delay") else None
            runs, failed, flips_failed = collections.Counter(), collections.Counter(), 0
            for seed in range(args.seeds) if args.seeds else (None,):
                seed_runs, seed_failed, found, seed_flips = single(
                    name, refused, args.action, args.delay, work=work, seed=seed
                )
                if seed is not None:
                    print(f"{name} seed {seed}: {sum(seed_failed.values())} of "
                          f"{sum(seed_runs.values())} single {args.action}s fail the run, "
                          f"{seed_flips} failed REVOKED flips, {len(found)} wrongful revocations")
                runs.update(seed_runs)
                failed.update(seed_failed)
                flips_failed += seed_flips
                revoked += found
            total = name if args.seeds is None else f"{name}, bus seeds 0-{args.seeds - 1} in all"
            print_single(total, args.action, runs, failed, flips_failed, work)
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

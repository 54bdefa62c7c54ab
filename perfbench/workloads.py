"""The benchmark workloads: closed loops over the program's public entry
points (`harness.parse_scenario`, `ScenarioRunner`/`World`, the agent and
anchor session generators, `network.generate_data_proof`/`verify_data_proof`).

One process, one thread. Each harness step starts its sessions, then runs the
bus to quiescence before the next step is sent. A workload is a sequence of
units (a world, a seed, or a round) drawn from the workload seed; a run does
as many units as fill its measuring time at the reference machine speed.
Every unit checks its own outputs. The speed probe runs before every timed
step, so each timed sample is also reported at the reference speed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from idplane import harness, network, trace

import scenarios as sc
from probe import Probe

_now = time.perf_counter


@dataclass
class Run:
    """Accumulates one run's samples, counts and failures. Timed samples are
    kept as measured, each with the index of the speed probe taken just
    before it, so that they can be reported at the reference speed."""

    seed: int
    n_units: int
    rng: random.Random = field(init=False)
    probe: Probe = field(default_factory=Probe)
    setup: list = field(default_factory=list)  # (wall s, probe index)
    syncs: list = field(default_factory=list)  # (wall s, probe index)
    sync_ticks: list = field(default_factory=list)
    proof_batches: list = field(default_factory=list)  # (wall s, probe index)
    applied: int = 0
    sends: int = 0
    proofs: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    units: list = field(default_factory=list)  # per-unit fingerprint and wall time

    def __post_init__(self):
        self.rng = random.Random(self.seed)
        self._unit: list = []

    def more(self) -> bool:
        return len(self.units) < self.n_units

    def reset_timed(self) -> None:
        """Forget sync samples and counts taken during set-up."""
        self.syncs.clear()
        self.sync_ticks.clear()
        self.applied = self.sends = 0

    def begin_unit(self) -> None:
        self._unit = []
        self._unit_t0 = _now()

    def end_unit(self) -> None:
        self.units.append((tuple(self._unit), _now() - self._unit_t0))
        self.probe.sample()

    def at_reference(self, samples: list) -> list[float]:
        return [self.probe.scale(wall, index) for wall, index in samples]

    def note(self, *item) -> None:
        """Add an exact, seed-determined value to the unit's fingerprint."""
        self._unit.append(item)

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count `attempted` operations of which `failed` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(what)


# --- steps --------------------------------------------------------------------


def build_world(run: Run, config: harness.ScenarioConfig, seed: int) -> harness.World:
    """Make one world ready: construction, IIN bootstrap, anchor publication
    and step A for every org. Its wall time is one `setup_s` sample."""
    probe = run.probe.sample()
    t0 = _now()
    runner = harness.ScenarioRunner(config, seed=seed)
    report = runner.run()
    run.setup.append((_now() - t0, probe))
    run.check(report.ok, f"setup {config.name} seed {seed}: {report.errors}")
    return runner.world


def step(run: Run, world: harness.World, label: str, start, is_sync: bool = False) -> list:
    """One closed-loop harness step: `start()` starts sessions and returns
    their records; then the bus runs to quiescence. Counts the step's sends,
    APPLIED ledger commits and failed sessions from the world's trace."""
    events = world.trace.events
    first, tick0 = len(events), world.bus.now
    probe = run.probe.sample()
    t0 = _now()
    records = start()
    world.settle()
    wall = _now() - t0
    ticks = world.bus.now - tick0
    sends = applied = failed_sessions = 0
    for e in events[first:]:
        kind = e.kind
        if kind == "bus.send":
            sends += 1
        elif kind == "ledger.commit":
            if e.detail.get("outcome") == network.OUTCOME_APPLIED:
                applied += 1
        elif kind == "session.failed":
            failed_sessions += 1
    run.sends += sends
    run.applied += applied
    if is_sync:
        run.syncs.append((wall, probe))
        run.sync_ticks.append(ticks)
    run.note(label, ticks, sends, applied)
    run.check(failed_sessions == 0, f"{label}: {failed_sessions} failed sessions")
    for record in records:
        run.check(
            record.error is None and _all_done(record.result),
            f"{label}: session {record.label} -> {record.error or record.result}",
        )
    return records


def _all_done(result) -> bool:
    """True iff every per-target result in a sync or resync result is DONE."""
    if not isinstance(result, dict):
        return True
    if "status" in result:
        return result["status"] == "DONE"
    return all(_all_done(v) for v in result.values())


def sync(run: Run, world, label: str, starts: list) -> None:
    """A sync step: every (agent, generator) pair starts at the same tick."""
    step(
        run, world, label,
        lambda: [agent.start_session(label, gen) for agent, gen in starts],
        is_sync=True,
    )


def proof_batch(run: Run, world, source: str, dest: str, signers, n: int, expect: str) -> None:
    """`n` data-plane proofs from `source`, each generated by its signers and
    verified against `dest`'s committed records; each outcome must be `expect`."""
    policy = network.VerificationPolicy(source_network_id=source, required_orgs=tuple(signers))
    organizations = {org: world.organizations[(source, org)] for org in signers}
    payloads = [run.rng.randbytes(32) for _ in range(n)]
    ledger, now = world.ledger_state(dest), world.bus.now
    outcomes = []
    probe = run.probe.sample()
    t0 = _now()
    for payload in payloads:
        proof = network.generate_data_proof(organizations, payload, policy)
        try:
            network.verify_data_proof(ledger, source, proof, policy, now)
            outcomes.append("ok")
        except network.DataProofError as e:
            outcomes.append(type(e).__name__)
    run.proof_batches.append((_now() - t0, probe))
    run.proofs += n
    bad = sum(1 for o in outcomes if o != expect)
    run.tally(n, bad, f"proofs {source}->{dest}: {bad}/{n} not {expect}")
    run.note("proofs", source, dest, n, expect, bad)


def check_records(run: Run, world, home: str, foreign: str, orgs, status: str = "ACTIVE") -> None:
    """Every listed foreign org has a record with `status` whose digest equals
    that org's current bundle digest."""
    state = world.ledger_state(home)
    for org in orgs:
        record = state.get_record(foreign, org)
        expected = world.organizations[(foreign, org)].bundle_digest()
        run.check(
            record is not None and record.status == status and record.bundle_digest == expected,
            f"record {home}<-{foreign}/{org}: "
            + (f"{record.status} {record.bundle_digest.hex()[:12]}" if record else "missing")
            + f", want {status} {expected.hex()[:12]}",
        )


def check_trace(run: Run, world) -> None:
    violations = trace.verify_events(world.trace.events)
    run.check(not violations, f"trace invariants: {violations[:3]}")


def ledger_hashes(world) -> tuple:
    return tuple(
        (n, world.ledger_state(n).state_hash().hex()[:16]) for n in sorted(world.ledgers)
    )


# --- wide-sync ----------------------------------------------------------------

WIDE_K = 8
WIDE_PROOFS = 20


def wide_sync(run: Run) -> None:
    """Fresh world per unit: two networks of 8 orgs; one initiator per network
    syncs every foreign member, then proofs in both directions must verify."""
    k = WIDE_K
    while run.more():
        run.begin_unit()
        config = sc.config(
            sc.two_networks("wide-sync", k, identity_seed=run.rng.getrandbits(31))
        )
        world = build_world(run, config, run.rng.getrandbits(31))
        for home, foreign in ((sc.NET_A, sc.NET_B), (sc.NET_B, sc.NET_A)):
            agent = world.agents[sc.org_names(home, k)[0]]
            sync(run, world, f"sync {home}<-{foreign}",
                 [(agent, agent.sync_network(home, foreign))])
            check_records(run, world, home, foreign, sc.org_names(foreign, k))
        for source, dest in ((sc.NET_A, sc.NET_B), (sc.NET_B, sc.NET_A)):
            proof_batch(run, world, source, dest, sc.org_names(source, k), WIDE_PROOFS, "ok")
        check_trace(run, world)
        run.note("ledgers", ledger_hashes(world))
        run.end_unit()


# --- commit-race --------------------------------------------------------------

RACE_PROOFS = 10


def commit_race(run: Run) -> None:
    """Fresh world per seed in the criterion-05 shape; both SWT orgs sync the
    STL Carrier at the same tick. The SWT ledger must hash to the serial
    oracle, computed once in set-up."""
    config = sc.config(sc.criterion05_shape(identity_seed=run.rng.getrandbits(31)))
    oracle_world = build_world(run, config, run.rng.getrandbits(31))
    carrier = oracle_world.org_dids["Carrier"]
    for org in ("Buyer", "Seller"):
        agent = oracle_world.agents[org]
        sync(run, oracle_world, f"oracle {org}",
             [(agent, agent.sync_network("SWT", "STL", (carrier,)))])
    oracle = oracle_world.ledger_state("SWT").state_hash()
    check_trace(run, oracle_world)
    run.reset_timed()

    while run.more():
        run.begin_unit()
        world = build_world(run, config, run.rng.getrandbits(31))
        carrier = world.org_dids["Carrier"]
        sync(run, world, "race SWT<-STL", [
            (world.agents[org], world.agents[org].sync_network("SWT", "STL", (carrier,)))
            for org in ("Buyer", "Seller")
        ])
        got = world.ledger_state("SWT").state_hash()
        run.check(got == oracle, f"oracle mismatch: {got.hex()[:16]} != {oracle.hex()[:16]}")
        check_records(run, world, "SWT", "STL", ("Carrier",))
        proof_batch(run, world, "STL", "SWT", ("Carrier",), RACE_PROOFS, "ok")
        check_trace(run, world)
        run.note("ledgers", ledger_hashes(world))
        run.end_unit()


# --- proof-churn ----------------------------------------------------------------

CHURN_K = 4
CHURN_SETUPS = 5
CHURN_PROOFS = 400  # per direction per round
CHURN_REVOKED_PROOFS = 20


def proof_churn(run: Run) -> None:
    """One world of 4 orgs per network, synced both ways in set-up. Each timed
    round: proof batches both ways; revoke a member, resync to REVOKED, proofs
    expect RevokedMember; re-admit it through step A, resync to ACTIVE; rotate
    another member's certificates against a stale prefetched copy, see a proof
    fail, resync (step D retries) and see proofs pass again."""
    k = CHURN_K
    identity_seed = run.rng.getrandbits(31)
    config = sc.config(sc.two_networks(
        "proof-churn", k, identity_seed=identity_seed,
        cert_lifetime=10**9, tick_ceiling=10**15,
    ))
    for _ in range(CHURN_SETUPS):
        world = build_world(run, config, run.rng.getrandbits(31))
        check_trace(run, world)
    a_orgs, b_orgs = sc.org_names(sc.NET_A, k), sc.org_names(sc.NET_B, k)
    for home, foreign in ((sc.NET_B, sc.NET_A), (sc.NET_A, sc.NET_B)):
        agent = world.agents[sc.org_names(home, k)[0]]
        sync(run, world, f"setup sync {home}<-{foreign}",
             [(agent, agent.sync_network(home, foreign))])
        check_records(run, world, home, foreign, sc.org_names(foreign, k))
    run.reset_timed()

    anchor = world.anchors[f"Anchor{sc.NET_A}"]
    initiator = world.agents[b_orgs[0]]
    prefetcher = world.agents[b_orgs[1]]

    def resync(label: str, trigger: str) -> None:
        sync(run, world, label, [(initiator, initiator.resync(sc.NET_B, trigger))])

    while run.more():
        run.begin_unit()
        r = len(run.units)
        revoked = a_orgs[1 + r % (k - 1)]
        rotated = a_orgs[1 + (r + 1) % (k - 1)]
        revoked_did, rotated_did = world.org_dids[revoked], world.org_dids[rotated]

        proof_batch(run, world, sc.NET_A, sc.NET_B, a_orgs, CHURN_PROOFS, "ok")
        proof_batch(run, world, sc.NET_B, sc.NET_A, b_orgs, CHURN_PROOFS, "ok")

        def revoke():
            anchor.enqueue_serialized(
                "revoke", lambda: anchor.revoke_membership(revoked_did, sc.NET_A)
            )
            return []

        step(run, world, f"revoke {revoked}", revoke)
        run.check(revoked_did not in anchor.rosters[sc.NET_A].members,
                  f"{revoked} still on the roster")
        resync(f"resync {revoked} revoked", "periodic")
        check_records(run, world, sc.NET_B, sc.NET_A, (revoked,), status="REVOKED")
        proof_batch(run, world, sc.NET_A, sc.NET_B, a_orgs, CHURN_REVOKED_PROOFS,
                    "RevokedMember")

        readmit = world.agents[revoked]
        step(run, world, f"re-admit {revoked}",
             lambda: [readmit.start_session("step_a", readmit.step_a())])
        resync(f"resync {revoked} re-admitted", "periodic")
        check_records(run, world, sc.NET_B, sc.NET_A, a_orgs)

        step(run, world, f"prefetch {rotated}", lambda: [prefetcher.start_session(
            "prefetch", prefetcher.prefetch(sc.NET_B, sc.NET_A, rotated_did))])
        world.organizations[(sc.NET_A, rotated)].rotate(world.bus.now)
        proof_batch(run, world, sc.NET_A, sc.NET_B, a_orgs, 1, "BadProofSignature")
        resync(f"resync {rotated} rotated", "proof_failure")
        check_records(run, world, sc.NET_B, sc.NET_A, a_orgs)
        run.note("ledgers", ledger_hashes(world))
        run.end_unit()
    check_trace(run, world)


# Workload -> (function, seconds one unit takes at the reference speed). A
# run of `--seconds` does round(seconds / unit time) units, so every run of a
# workload does the same work and its exact counts repeat.
WORKLOADS = {
    "wide-sync": (wide_sync, 3.8),
    "commit-race": (commit_race, 0.3),
    "proof-churn": (proof_churn, 2.8),
}


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload][1]))

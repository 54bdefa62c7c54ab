"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import hashlib
import itertools
import time

import pytest

from idplane import agent
from idplane import credentials as creds
from idplane import crypto, harness
from idplane import network as net

from conftest import add_probe, ask, bootstrapped_runner, scenario_config


def criterion(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number:02d}] {status} {description}"
          + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {number} ({description}): {detail}"


@pytest.fixture(scope="module")
def two_network_run():
    config = scenario_config("two-network")
    started = time.monotonic()
    report = harness.run_scenario(config)
    elapsed = time.monotonic() - started
    return report, elapsed


def test_criterion_01_two_network_end_to_end(two_network_run):
    report, elapsed = two_network_run
    record_asserts = [
        a for a in report.assertions
        if a.name.endswith("byte-equal") or a.name.startswith(("swt-holds", "stl-holds"))
    ]
    ok = (
        not report.errors
        and len(record_asserts) == 8
        and all(a.ok for a in record_asserts)
        and elapsed < 10.0
    )
    criterion(
        1,
        "two-network end-to-end: both ledgers hold ACTIVE byte-equal records",
        ok,
        f"{sum(a.ok for a in record_asserts)}/8 record checks, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_data_plane_gate(two_network_run):
    report, _ = two_network_run
    pre = report.proof_outcomes.get("pre-sync")
    post = report.proof_outcomes.get("post-sync")
    criterion(
        2,
        "data-plane gate: proof fails NoIdentityRecord before sync, true after",
        pre == "NoIdentityRecord" and post == "ok",
        f"pre={pre} post={post}",
    )


def test_criterion_03_revocation_exclusion():
    report = harness.run_scenario(scenario_config("revoke-carrier"))
    validate = report.validate_outcomes.get("carrier-after-revoke", {})
    vp_failed_check_6 = (
        validate.get("status") == "failed" and validate.get("check") == 6
    )
    flipped = next(a for a in report.assertions if a.name == "carrier-flipped-revoked")
    proof = report.proof_outcomes.get("post-revoke")
    ok = (
        not report.errors
        and vp_failed_check_6
        and flipped.ok
        and proof == "RevokedMember"
    )
    criterion(
        3,
        "revocation exclusion: VP fails check 6, record REVOKED, proof RevokedMember",
        ok,
        f"vp_check={validate.get('check')} record={flipped.detail} proof={proof}",
    )


def test_criterion_04_unilateral_write_impossible():
    orgs = ("OrgA", "OrgB", "OrgC")
    keys = {o: crypto.KeyPair.from_seed(hashlib.sha256(o.encode()).digest()) for o in orgs}
    ledger = net.LocalLedgerState(
        network_id="HOME",
        interop_networks=("AWAY",),
        trust_entries=(),
        admin_keys={o: keys[o].public_key for o in orgs},
    )
    source = net.Organization.create(
        "FarOrg", "AWAY",
        lambda label: hashlib.sha256(b"acc4" + label.encode()).digest(),
        peer_count=1, now=0, cert_lifetime=1000,
    )
    bundle = source.bundle_bytes()
    holder = "did:iin:iin0:far"
    statement = net.Endorsement(
        "HOME", "AWAY", "FarOrg", holder, crypto.digest(bundle), "ACTIVE", 0
    )
    batch = net.Endorsed((statement.digest(),))
    rejected, committed = 0, 0
    for r in range(len(orgs) + 1):
        for subset in itertools.combinations(orgs, r):
            sigs = tuple((o, batch, keys[o].sign(batch.to_bytes()).bytes_) for o in subset)
            state, outcome = net.cmdac_update_foreign_identity(
                ledger, statement, bundle, sigs, now=1
            )
            if set(subset) == set(orgs):
                committed += outcome == "APPLIED"
            else:
                rejected += outcome.startswith("MissingEndorsement")
    criterion(
        4,
        "unilateral-write impossibility: all 7 proper subsets rejected, full set commits",
        rejected == 7 and committed == 1,
        f"rejected={rejected}/7 committed={committed}/1",
    )


def test_criterion_04_replayed_endorsements_rejected():
    """A fully endorsed submission replayed later (revoke-carrier's first
    commit for Carrier, the old ACTIVE one) must not roll the REVOKED record
    back: it was made before the flip, so it is stale."""
    runner = harness.ScenarioRunner(scenario_config("revoke-carrier"))
    assert runner.run().ok
    ledger = runner.world.ledgers["SWT"]
    old = next(e for e in ledger.state.block_log if e.statement.foreign_org == "Carrier")
    assert (old.statement.status, old.outcome) == ("ACTIVE", "APPLIED")
    state, outcome = net.cmdac_update_foreign_identity(
        ledger.state, old.statement, old.bundle, old.endorsements, now=runner.world.bus.now,
    )
    assert outcome == net.OUTCOME_STALE
    assert state.get_record("STL", "Carrier").content.status == net.STATUS_REVOKED
    assert state.state_hash() == ledger.state.state_hash()
    assert net.replay_block_log(ledger.genesis, state.block_log).state_hash() == state.state_hash()


def hold(world, probe, content):
    """A statement of `content` into SWT that Seller countersigns and Buyer
    signs, held by Buyer instead of submitted: (statement, endorsements)."""
    statement = content.statement("SWT", world.bus.now)
    reply = ask(probe, world, "agent:Seller", "agent.countersign.request",
                agent.CountersignRequest((statement,)))
    [answer] = reply.body.results
    assert answer.result == agent.RESULT_SIGNED, answer
    own = net.Endorsed((statement.digest(),))
    signature = world.agents["Buyer"].keys.sign(own.to_bytes()).bytes_
    return statement, (
        ("Buyer", own, signature), ("Seller", reply.body.endorsed, reply.body.signature)
    )


def submit_held(world, probe, content, held):
    """Buyer submits its held statement of `content`; returns the outcome."""
    statement, endorsements = held
    body = net.CommitRequest(((statement, content.bundle),), endorsements)
    reply = ask(probe, world, world.agents["Buyer"].config.ledgers["SWT"], "cmdac.submit", body)
    return reply.error or reply.body.outcomes[0]


def resync(world):
    buyer = world.agents["Buyer"]
    record = buyer.start_session("resync", buyer.resync("SWT", "periodic"))
    world.settle()
    assert record.error is None
    return world.ledger_state("SWT").get_record("STL", "Carrier").content


def revoke_carrier(world):
    anchor = world.anchors["AnchorSTL"]
    anchor.enqueue_serialized(
        "revoke", lambda: anchor.revoke_membership(world.org_dids["Carrier"], "STL")
    )
    world.settle()


def test_criterion_04_held_active_statement_is_stale_after_revocation():
    """Buyer holds an ACTIVE statement for Carrier that every org signed,
    Carrier is revoked and the record flipped, and Buyer submits the held
    statement alone: the ledger refuses it and Carrier stays REVOKED."""
    world = bootstrapped_runner().world
    probe = add_probe(world)
    carrier = resync(world)
    assert carrier.status == net.STATUS_ACTIVE
    held = hold(world, probe, carrier)
    revoke_carrier(world)
    assert resync(world).status == net.STATUS_REVOKED
    before = world.ledger_state("SWT")
    outcome = submit_held(world, probe, carrier, held)
    after = world.ledger_state("SWT")
    criterion(
        4,
        "a held ACTIVE statement cannot undo a revocation",
        outcome == net.OUTCOME_STALE and after.foreign == before.foreign,
        f"outcome={outcome} carrier={after.get_record('STL', 'Carrier').content.status}",
    )


def test_criterion_04_held_revoked_statement_is_stale_after_readmission():
    """The reverse: Buyer holds a REVOKED statement for the revoked Carrier
    that every org signed, Carrier is re-admitted and the record flipped
    back, and Buyer submits the held statement alone: the ledger refuses it
    and Carrier stays ACTIVE."""
    world = bootstrapped_runner().world
    probe = add_probe(world)
    assert resync(world).status == net.STATUS_ACTIVE
    revoke_carrier(world)
    revoked = resync(world)
    assert revoked.status == net.STATUS_REVOKED
    held = hold(world, probe, revoked)
    carrier = world.agents["Carrier"]
    record = carrier.start_session("step_a", carrier.step_a())
    world.settle()
    assert record.error is None
    assert resync(world).status == net.STATUS_ACTIVE
    before = world.ledger_state("SWT")
    outcome = submit_held(world, probe, revoked, held)
    after = world.ledger_state("SWT")
    criterion(
        4,
        "a held REVOKED statement cannot undo a re-admission",
        outcome == net.OUTCOME_STALE and after.foreign == before.foreign,
        f"outcome={outcome} carrier={after.get_record('STL', 'Carrier').content.status}",
    )


def test_criterion_04_statement_from_the_future_is_not_countersigned():
    """A statement that names a tick later than the countersigner's clock
    could be held past any later commit without going stale: Seller refuses
    the whole batch by name and signs nothing."""
    world = bootstrapped_runner().world
    probe = add_probe(world)
    carrier = resync(world)
    future = carrier.statement("SWT", world.bus.now + 1000)
    start = len(world.trace.events)
    reply = ask(probe, world, "agent:Seller", "agent.countersign.request",
                agent.CountersignRequest((future,)))
    signed = [e for e in world.trace.events[start:] if e.kind == "agent.countersigned"]
    assert reply.body.results == (
        agent.Answer(agent.RESULT_VALIDATION_FAILED, reason="FutureStatement"),
    )
    assert signed == []


def test_criterion_04_lying_revoked_initiator_refused():
    """One org asking to revoke a member that still validates, naming no DID,
    is refused by the other org, which re-validates the DID the record was
    committed under; the record stays ACTIVE."""
    world = bootstrapped_runner().world
    buyer = world.agents["Buyer"]
    record = buyer.start_session("sync", buyer.sync_network("SWT", "STL"))
    world.settle()
    assert record.error is None
    carrier = world.ledger_state("SWT").get_record("STL", "Carrier").content
    assert carrier.status == net.STATUS_ACTIVE
    seller = world.agents["Seller"]
    lie = net.RecordContent(
        "STL", "Carrier", "", carrier.bundle, carrier.bundle_digest, net.STATUS_REVOKED
    )
    record = seller.start_session("revoke", seller._commit_identity("SWT", [lie], [(world.bus.now, b"")]))
    world.settle()
    [verdict] = record.result
    assert isinstance(verdict, agent.CounterpartyValidationFailed), verdict
    assert str(verdict) == "Buyer:MemberStillValid"
    assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == net.STATUS_ACTIVE


def test_criterion_05_concurrent_idempotent_commit_100_seeds():
    serial = harness.run_scenario(scenario_config("concurrent-commit-serial"))
    assert serial.ok, serial.summary_lines()
    oracle = serial.state_hashes["ledger:SWT"]
    config = scenario_config("concurrent-commit")
    mismatches = []
    for seed in range(100):
        report = harness.run_scenario(config, seed=seed)
        if not report.ok or report.state_hashes["ledger:SWT"] != oracle:
            mismatches.append(seed)
    criterion(
        5,
        "concurrent step D under 100 seeds matches the serial-execution oracle hash",
        not mismatches,
        f"oracle={oracle[:16]} mismatched_seeds={mismatches or 'none'}",
    )


def test_criterion_06_retry_on_divergence():
    report = harness.run_scenario(scenario_config("digest-mismatch-retry"))
    names = {a.name: a.ok for a in report.assertions}
    ok = (
        not report.errors
        and names.get("exactly-one-digest-mismatch")
        and names.get("second-attempt-succeeded")
        and names.get("attempts-within-retry-budget")
        and names.get("carrier-active-after-retry")
    )
    criterion(
        6,
        "retry-on-divergence: one DIGEST_MISMATCH then success, attempts <= R=3",
        bool(ok),
        "; ".join(f"{k}={v}" for k, v in sorted(names.items())),
    )


def test_criterion_07_accumulator_oracle_equivalence():
    started = time.monotonic()
    universe = [hashlib.sha256(b"cred%d" % i).digest() for i in range(6)]
    agree = True
    for r in range(7):
        for subset in itertools.combinations(universe, r):
            state, leaves = crypto.accumulator_init("issuer", subset)
            for element in universe:
                member = element in subset
                if member:
                    witness = crypto.witness_for(state, leaves, element)
                    agree &= crypto.witness_verify(state, witness)
                else:
                    full_state, full_leaves = crypto.accumulator_init("issuer", universe)
                    foreign = crypto.witness_for(full_state, full_leaves, element)
                    agree &= not crypto.witness_verify(state, foreign)
    # every pre-revocation witness fails after each revocation
    state, leaves = crypto.accumulator_init("issuer", universe)
    witnesses = [crypto.witness_for(state, leaves, e) for e in universe]
    invalidated = True
    for element in universe:
        state, leaves = crypto.accumulator_revoke(state, leaves, element)
        invalidated &= all(not crypto.witness_verify(state, w) for w in witnesses)
    elapsed = time.monotonic() - started
    criterion(
        7,
        "accumulator oracle equivalence over all 64 subsets, stale witnesses die",
        agree and invalidated and elapsed < 1.0,
        f"agree={agree} invalidated={invalidated} {elapsed:.3f}s < 1s",
    )


def test_criterion_08_membership_verification_fault_matrix():
    from test_credentials import VerificationWorld

    world = VerificationWorld()
    nonce = b"n" * 16
    failures = {}

    def expect(case, check, vp, expected_net="NETB", use_nonce=nonce, **overrides):
        trusted = overrides.pop("trusted", world.trusted)
        try:
            creds.verify_membership_vp(
                vp, expected_net, use_nonce, trusted, world.artifacts(**overrides)
            )
            failures[case] = "verified (no failure)"
        except creds.MembershipVerificationError as e:
            failures[case] = e.check

        return failures[case] == check

    rogue = crypto.KeyPair.from_seed(hashlib.sha256(b"rogue").digest())
    revoked_state, _ = crypto.accumulator_revoke(
        world.acc_state, world.acc_leaves, world.vc_b.credential_id
    )
    junk_unsigned = creds.VerifiablePresentation(
        kind=creds.VP_MEMBERSHIP, body=b"\x01junk", presenter_did=world.holder_did,
        challenge_nonce=nonce, presenter_signature=crypto.Signature(b""),
    )
    junk = creds.VerifiablePresentation(
        kind=junk_unsigned.kind, body=junk_unsigned.body,
        presenter_did=junk_unsigned.presenter_did,
        challenge_nonce=junk_unsigned.challenge_nonce,
        presenter_signature=world.holder_keys.sign(junk_unsigned.signing_bytes()),
    )
    results = [
        expect("wrong-nonce", 1, world.vp(nonce=b"x" * 16)),
        expect("wrong-key", 2, world.vp(keys=rogue)),
        expect("no-verinym", 3, world.vp(), presenter_verinym=False),
        expect("nonconforming", 4, junk),
        expect("untrusted-issuer", 5, world.vp(), trusted=frozenset()),
        expect("revoked", 6, world.vp(), revocation_state=revoked_state),
        expect("wrong-network", 7, world.vp(network="NETC")),
    ]
    criterion(
        8,
        "verification fault matrix: 7 sabotages fail at exactly their check index",
        all(results),
        " ".join(f"{k}->{v}" for k, v in failures.items()),
    )


def test_criterion_09_dual_membership_privacy():
    runner = bootstrapped_runner("two-network")
    seller = runner.world.agents["Seller"]
    vc, witness = seller.wallet["SWT"]
    vp = creds.build_membership_vp(seller.did, seller.keys, vc, witness, b"p" * 16)
    data = vp.to_bytes()
    ok = b"STL" not in data and b"SWT" in data
    criterion(
        9,
        "privacy: dual-membership Seller's SWT presentation carries no STL bytes",
        ok,
        f"len={len(data)} contains_STL={b'STL' in data}",
    )


def test_criterion_10_trace_determinism(tmp_path):
    config = scenario_config("two-network")
    paths = [tmp_path / f"run{i}.jsonl" for i in range(2)]
    for path in paths:
        harness.run_scenario(config, seed=2024, trace_path=path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    criterion(
        10,
        "determinism: equal seeds produce byte-identical trace files",
        identical,
        f"{paths[0].stat().st_size} bytes each",
    )


def test_criterion_11_certificate_rotation_resync():
    report = harness.run_scenario(scenario_config("rotate-resync"))
    names = {a.name: a.ok for a in report.assertions}
    sequence_ok = names.get("fail-resync-retry-sequence")
    proofs = (
        report.proof_outcomes.get("expired-proof") == "ExpiredCertificate"
        and report.proof_outcomes.get("retried-proof") == "ok"
    )
    ok = not report.errors and bool(sequence_ok) and proofs and all(names.values())
    criterion(
        11,
        "rotation resync: ExpiredCertificate -> proof_failure resync -> proof verifies",
        ok,
        f"sequence={sequence_ok} proofs={report.proof_outcomes}",
    )

"""Agent protocol behavior: policy gates, countersigning, retries, resync."""

import os
from dataclasses import replace

import pytest

from idplane import agent as agent_mod
from idplane import credentials as creds
from idplane import crypto, harness, registry
from idplane import encoding as enc
from idplane import network as net
from idplane.actors import Reply, Request, Sleep
from idplane.anchors import schema_id_for
from idplane.bus import FaultRule
from idplane.trace import verify_events

from conftest import (
    Raw, add_probe, ask, bootstrapped_runner, fixed_latency, readmitted_carrier_world,
    scenario_config,
)
from critical_path import critical_path, sync_steps


def run_sync(world, initiator, home, foreign, targets=None):
    agent = world.agents[initiator]
    record = agent.start_session("sync", agent.sync_network(home, foreign, targets))
    world.settle()
    return record


def gates(world, org, since=0):
    """The memberlist gates `org`'s agent passed: each is one registry read
    that verified the list it carried."""
    return agent_events(world, org, {"agent.memberlist"}, since)


def lose_read(world, org, answered=0):
    """Lose every reply to the registry read that `org` makes after its next
    `answered` reads, each of which the sequencer alone answers: the lost
    read asks the sequencer and, on no answer, the other three nodes. A
    dropping rule hides its envelope from the rules after it, so the later
    occurrences go first."""
    for occurrence in range(answered + 4, answered, -1):
        world.bus.config.rules.append(FaultRule(
            action="drop", to=f"agent:{org}", kind="iin.query.reply", occurrence=occurrence,
        ))


def agent_events(world, org, kinds, since=0):
    """The trace events of `kinds` that `org`'s agent recorded, in order."""
    return [
        e for e in world.trace.events[since:]
        if e.actor == f"agent:{org}" and e.kind in kinds
    ]


def record_queries(monkeypatch) -> list:
    """The arguments, `what` first, of every `registry.quorum_query` call
    from now on."""
    calls = []
    quorum_query = registry.quorum_query

    def recording(pool, *args):
        calls.append(args)
        return quorum_query(pool, *args)

    monkeypatch.setattr(registry, "quorum_query", recording)
    return calls


def sends_from(world, org, kind, since=0):
    return [
        e for e in world.trace.events[since:]
        if e.kind == "bus.send" and e.detail["from"] == f"agent:{org}"
        and e.detail["msg_kind"] == kind
    ]


def witness_requests(world, org, since=0):
    return sends_from(world, org, "anchor.witness.request", since)


def stale_witnesses(world):
    """Revoke Seller from STL and re-admit it by its step A: two epoch bumps
    after step A, which leave Carrier's STL witness, current after step A,
    behind its anchor's epoch."""
    anchor = world.anchors["AnchorSTL"]
    epoch = anchor.acc_state.epoch
    anchor.enqueue_serialized(
        "revoke", lambda: anchor.revoke_membership(world.org_dids["Seller"], "STL")
    )
    world.settle()
    seller = world.agents["Seller"]
    record = seller.start_session("readmit", seller.step_a())
    world.settle()
    assert record.error is None, record.error
    assert anchor.acc_state.epoch == epoch + 2


def challenge(probe, world, holder, network_id, **extra):
    """Challenge `holder`'s agent from `probe`; returns (reply, nonce)."""
    nonce = os.urandom(16)
    result = {}

    def ask():
        result["reply"] = yield Request(
            f"agent:{holder}",
            "agent.membership_vp.request",
            creds.Challenge(network_id, nonce, **extra),
            timeout=500,
        )

    probe.start_session("ask", ask())
    world.settle()
    return result["reply"], nonce


def presented(reply) -> creds.VerifiablePresentation:
    """The presentation an answered challenge carries."""
    assert reply.error == "", reply.error
    return creds.VerifiablePresentation.from_bytes(reply.body.vp)


def statement(
    probe, foreign_did, digest, status, org="Carrier", foreign_network="STL", home_network="SWT",
):
    """The statement of a commit of `foreign_network`'s `org` into
    `home_network`, made at `probe`'s tick."""
    return net.Endorsement(
        home_network, foreign_network, org, foreign_did, digest, status, probe.bus.now
    )


def countersign_request(statements):
    """The body of a countersign request for `statements`."""
    return agent_mod.CountersignRequest(tuple(statements))


def answering(seller, change):
    """Make `seller` answer each statement with `change(statement, answer)`
    in place of the answer it gives; the batch it signs is unchanged."""
    countersign = seller._handle_countersign

    def changed(sender, request):
        reply = yield from countersign(sender, request)
        return replace(reply, results=tuple(
            change(s, answer) for s, answer in zip(request.statements, reply.results)
        ))

    seller._handle_countersign = changed


def for_carrier(answer):
    """A `change` for `answering`: `answer` to Carrier's statements."""
    return lambda s, given: answer if s.foreign_org == "Carrier" else given


def ask_countersign_batch(probe, world, statements):
    """Ask Seller to countersign `statements` in one request; returns the
    reply."""
    result = {}

    def ask():
        result["reply"] = yield Request(
            "agent:Seller",
            "agent.countersign.request",
            countersign_request(statements),
            timeout=2000,
        )

    probe.start_session("ask", ask())
    world.settle()
    return result["reply"]


def ask_countersign(
    probe, world, foreign_did, digest, status, home_network="SWT", foreign_network="STL",
):
    """Ask Seller to countersign a commit of STL's Carrier into SWT, alone in
    its batch; returns Seller's answer to it."""
    reply = ask_countersign_batch(
        probe, world,
        [statement(
            probe, foreign_did, digest, status,
            foreign_network=foreign_network, home_network=home_network,
        )],
    )
    [answer] = reply.body.results
    return answer


def assert_only_failed(world, record, start, error, org="Carrier", **named):
    """Buyer's sync of STL ran to its end: `org`'s target failed with `error`
    (and the `named` outcome fields), the other STL member's committed, and
    no session failed. Returns the failed target's `agent.sync_failed`
    event."""
    assert record.error is None
    assert agent_events(world, "Buyer", {"session.failed"}, start) == []
    target = world.org_dids[org]
    other = world.org_dids["Seller" if org == "Carrier" else "Carrier"]
    assert record.result[other]["status"] == "DONE"
    assert record.result[target] == {"status": "FAILED", "error": error, **named}
    [failed] = agent_events(world, "Buyer", {"agent.sync_failed"}, start)
    assert failed.detail["target"] == target
    return failed


class TestPolicyGates:
    def test_network_off_interop_list_refused_before_any_anchor_traffic(self, world):
        sends_before = [
            e for e in world.trace.events
            if e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
            and e.detail["to"].startswith("anchor:")
        ]
        agent = world.agents["Buyer"]
        record = agent.start_session("sync", agent.sync_network("SWT", "SWT"))
        world.settle()
        assert isinstance(record.error, agent_mod.PolicyViolation)
        sends_after = [
            e for e in world.trace.events
            if e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
            and e.detail["to"].startswith("anchor:")
        ]
        assert len(sends_after) == len(sends_before)

    def test_trust_list_gating_over_full_trace(self):
        runner = bootstrapped_runner()
        world = runner.world
        run_sync(world, "Buyer", "SWT", "STL")
        run_sync(world, "Carrier", "STL", "SWT")
        allowed_common = set(world.pools["iin0"].node_addresses) | {"probe"}
        ledger_of = {"Seller": {"ledger:STL", "ledger:SWT"},
                     "Buyer": {"ledger:SWT"}, "Carrier": {"ledger:STL"}}
        # anchors reachable per agent: its own issuers plus trusted foreign ones
        anchors_of = {
            "Seller": {"anchor:AnchorSTL", "anchor:AnchorSWT"},
            "Buyer": {"anchor:AnchorSWT", "anchor:AnchorSTL"},
            "Carrier": {"anchor:AnchorSTL", "anchor:AnchorSWT"},
        }
        agent_peers = {"agent:Seller", "agent:Buyer", "agent:Carrier"}
        for e in world.trace.events:
            if e.kind != "bus.send":
                continue
            sender = e.detail["from"]
            if not sender.startswith("agent:"):
                continue
            org = sender.split(":", 1)[1]
            target = e.detail["to"]
            allowed = allowed_common | ledger_of[org] | anchors_of[org] | agent_peers
            assert target in allowed, f"{sender} -> {target}"


class TestCountersigning:
    def test_validation_failed_when_member_already_revoked(self, world):
        # Buyer syncs normally first so we know the pre-revocation digest
        record = run_sync(world, "Buyer", "SWT", "STL",
                          targets=(world.org_dids["Carrier"],))
        assert record.error is None
        old_digest = world.agents["Buyer"].cache[
            ("STL", world.org_dids["Carrier"])
        ].bundle_digest
        anchor = world.anchors["AnchorSTL"]
        anchor.enqueue_serialized(
            "revoke",
            lambda: anchor.revoke_membership(world.org_dids["Carrier"], "STL"),
        )
        world.settle()
        # a countersign request for the now-revoked member, cold cache
        world.agents["Seller"].cache.clear()
        probe = add_probe(world)
        answer = ask_countersign(probe, world, world.org_dids["Carrier"], old_digest, "ACTIVE")
        assert answer.result == "validation_failed"

    def test_digest_mismatch_reply_carries_own_digest_and_drops_cache(self, world):
        seller = world.agents["Seller"]
        record = seller.start_session(
            "prefetch", seller.prefetch("SWT", "STL", world.org_dids["Carrier"])
        )
        world.settle()
        assert record.error is None
        own_digest = bytes.fromhex(record.result)
        probe = add_probe(world)
        answer = ask_countersign(
            probe, world, world.org_dids["Carrier"], b"\x00" * 32, "ACTIVE"
        )
        assert answer == agent_mod.Answer("digest_mismatch", own_digest=own_digest)
        assert ("STL", world.org_dids["Carrier"]) not in seller.cache

    def test_permanent_mismatch_exhausts_retries_before_ceiling(self, world):
        seller = world.agents["Seller"]

        def always_mismatch(sender, request):
            answer = agent_mod.Answer("digest_mismatch", own_digest=bytes(32))
            return agent_mod.Countersigned((answer,) * len(request.statements))
            yield  # a session handler

        seller._handle_countersign = always_mismatch
        record = run_sync(world, "Buyer", "SWT", "STL",
                          targets=(world.org_dids["Carrier"],))
        assert record.error is None
        outcome = record.result[world.org_dids["Carrier"]]
        assert outcome == {"status": "FAILED", "error": "RetriesExhausted"}
        mismatches = [
            e for e in world.trace.events if e.kind == "agent.sync.digest_mismatch"
        ]
        assert len(mismatches) == 3  # one per attempt, budget R=3
        [failed] = agent_events(world, "Buyer", {"agent.sync_failed"})
        assert failed.detail["attempts"] == 3
        assert failed.detail["error"] == "RetriesExhausted"

    def test_failed_memberlist_refetch_on_retry_fails_only_that_target(self, world):
        answering(world.agents["Seller"], for_carrier(
            agent_mod.Answer("digest_mismatch", own_digest=bytes(32))
        ))
        # Buyer's first read is sync_network's gate, its second the gate of
        # the retry round, which holds Carrier alone
        lose_read(world, "Buyer", answered=1)
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(world, record, start, "InconsistentReplicas")
        # B, C and D once, a digest mismatch, then the second round's gate fails
        assert failed.detail["attempts"] == 2
        assert "no 2 matching replies" in failed.detail["detail"]

    def test_failed_memberlist_refetch_fails_every_target_of_the_retry_round(self, world):
        seller = world.agents["Seller"]

        def always_mismatch(sender, request):
            answer = agent_mod.Answer("digest_mismatch", own_digest=bytes(32))
            return agent_mod.Countersigned((answer,) * len(request.statements))
            yield  # a session handler

        seller._handle_countersign = always_mismatch
        # Buyer's first read is sync_network's gate, its second the one gate
        # of the retry round, which holds both targets
        lose_read(world, "Buyer", answered=1)
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert agent_events(world, "Buyer", {"session.failed"}, start) == []
        targets = {world.org_dids["Carrier"], world.org_dids["Seller"]}
        assert record.result == {
            did: {"status": "FAILED", "error": "InconsistentReplicas"} for did in targets
        }
        failed = agent_events(world, "Buyer", {"agent.sync_failed"}, start)
        assert {e.detail["target"] for e in failed} == targets
        for e in failed:
            # B, C and D once, a digest mismatch, then the round's gate fails
            assert e.detail["attempts"] == 2
            assert e.detail["error"] == "InconsistentReplicas"
            assert "no 2 matching replies" in e.detail["detail"]
        # two gates, one read each: the first passed, the second was lost
        assert len(gates(world, "Buyer", start)) == 1
        assert len(sends_from(world, "Buyer", "iin.query", start)) == 1 + 4

    def test_unreachable_countersigner_reported_as_missing(self, world):
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="agent.countersign.request")
        )
        record = run_sync(world, "Buyer", "SWT", "STL",
                          targets=(world.org_dids["Carrier"],))
        assert record.error is None
        outcome = record.result[world.org_dids["Carrier"]]
        assert outcome["status"] == "FAILED"
        assert outcome["error"] == "MissingCountersignature"

    def test_raising_countersigner_fails_the_initiator_by_name(self, world):
        seller = world.agents["Seller"]

        def broken(sender, request):
            raise KeyError("digest")
            yield  # a session handler, failing part-way

        seller._handle_countersign = broken
        record = run_sync(world, "Buyer", "SWT", "STL",
                          targets=(world.org_dids["Carrier"],))
        asked = next(
            e for e in world.trace.events
            if e.kind == "bus.send" and e.detail["msg_kind"] == "agent.countersign.request"
        )
        assert record.error is None
        outcome = record.result[world.org_dids["Carrier"]]
        assert outcome == {"status": "FAILED", "error": "CounterpartyValidationFailed"}
        [failed] = agent_events(world, "Buyer", {"agent.sync_failed"})
        assert failed.detail["detail"] == "Seller:KeyError"
        assert failed.tick - asked.tick <= 100  # not the 1,500-tick gather timeout

    def test_undecodable_presentation_fails_only_its_own_target(self, world):
        carrier = world.agents["Carrier"]
        serve = carrier._serve_membership_vp

        def garbled(sender, challenge):
            reply = yield from serve(sender, challenge)
            return creds.Presented(b"zz" + reply.vp)

        carrier._serve_membership_vp = garbled
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(world, record, start, "BadPresentation")
        assert "undecodable VerifiablePresentation" in failed.detail["detail"]

    def test_signed_reply_without_a_signature_fails_only_its_own_target(self, world):
        """Seller answers SIGNED for Carrier but signs a batch that leaves
        Carrier's statement out: the initiator submits it, and the contract
        refuses it by name."""
        seller = world.agents["Seller"]
        countersign = seller._handle_countersign

        def unlisted(sender, request):
            reply = yield from countersign(sender, request)
            carrier = {s.digest() for s in request.statements if s.foreign_org == "Carrier"}
            batch = net.Endorsed(tuple(d for d in reply.endorsed.statements if d not in carrier))
            signature = seller.keys.sign(batch.to_bytes()).bytes_
            return replace(reply, endorsed=batch, signature=signature)

        seller._handle_countersign = unlisted
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(world, record, start, "CommitRejected")
        assert failed.detail["detail"] == "BadEndorsementSignature:Seller"

    def test_answer_of_an_unknown_result_fails_only_its_own_target(self, world):
        answering(world.agents["Seller"], for_carrier(agent_mod.Answer("maybe")))
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(
            world, record, start, "CounterpartyValidationFailed"
        )
        assert failed.detail["detail"] == "Seller:NoSignature"

    @pytest.mark.parametrize("synced", [True, False], ids=["with-record", "without-record"])
    def test_revoked_countersign_of_another_digest_answers_the_records(self, world, synced):
        if synced:
            run_sync(world, "Buyer", "SWT", "STL", targets=(world.org_dids["Carrier"],))
        record = world.ledger_state("SWT").get_record("STL", "Carrier")
        assert (record is not None) == synced
        answer = ask_countersign(
            add_probe(world), world, world.org_dids["Carrier"], b"\x00" * 32, "REVOKED"
        )
        own_digest = record.content.bundle_digest if synced else b""
        assert answer == agent_mod.Answer("digest_mismatch", own_digest=own_digest)

    def test_listed_holder_whose_revalidation_is_refuted_is_revoked(self, world, monkeypatch):
        """Carrier stays listed, but answers every challenge with a
        presentation signed by a key its DID document does not hold: Seller's
        own re-validation refutes it, so Seller endorses Buyer's flip."""
        carrier_did = world.org_dids["Carrier"]
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        monkeypatch.setattr(
            world.agents["Carrier"], "keys", crypto.KeyPair.from_seed(b"\x17" * 32)
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert record.result[carrier_did]["status"] == "FAILED"
        assert record.result["revoke:Carrier"] == {
            "status": "DONE", "org_id": "Carrier", "outcome": "APPLIED"
        }
        assert carrier_did in world.anchors["AnchorSTL"].memberlists["STL"].member_dids
        # Seller challenged Carrier itself, and signed the flip on that
        challenged = [
            e for e in sends_from(world, "Seller", "agent.membership_vp.request", start)
            if e.detail["to"] == "agent:Carrier"
        ]
        assert len(challenged) == 1
        assert agent_events(world, "Seller", {"agent.countersign_refused"}, start) == []
        [signed] = agent_events(world, "Seller", {"agent.countersigned"}, start)
        assert (signed.detail["org"], signed.detail["status"]) == ("Carrier", "REVOKED")
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "REVOKED"

    def test_lost_revocation_commit_reply_fails_the_revocation_by_name(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        TestMemberlistReuse.revoke_carrier(world)
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Buyer", kind="cmdac.reply")
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.result["revoke:Carrier"] == {"status": "FAILED", "error": "LedgerUnreachable"}
        [failed] = agent_events(world, "Buyer", {"agent.revoke_failed"}, start)
        assert failed.detail == {
            "network": "STL", "org": "Carrier", "error": "LedgerUnreachable", "detail": "SWT",
        }

    def test_revocation_of_another_digest_is_traced_as_a_mismatch(self, world, monkeypatch):
        """Buyer's records read returns Carrier's record with another digest,
        so the REVOKED statement names a bundle the countersigner's ledger
        does not hold."""
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        TestMemberlistReuse.revoke_carrier(world)
        buyer = world.agents["Buyer"]
        read_records = buyer._ledger_records

        def another_digest_for_carrier(home_network, foreign_network):
            records = yield from read_records(home_network, foreign_network)
            return [
                replace(r, bundle_digest=b"\x00" * 32) if r.org_id == "Carrier" else r
                for r in records
            ]

        monkeypatch.setattr(buyer, "_ledger_records", another_digest_for_carrier)
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.result["revoke:Carrier"] == {"status": "FAILED", "error": "DigestMismatch"}
        [failed] = agent_events(world, "Buyer", {"agent.revoke_failed"}, start)
        held = world.ledger_state("SWT").get_record("STL", "Carrier").content
        # the detail names the digest each countersigner's ledger holds
        assert failed.detail == {
            "network": "STL", "org": "Carrier", "error": "DigestMismatch",
            "detail": f"Seller:{held.bundle_digest.hex()}",
        }
        assert held.status == "ACTIVE"

    def test_countersigner_without_ledger_names_the_failure(self, world):
        """A REVOKED statement needs the countersigner's read of its ledger's
        records: when that read is lost, Seller refuses the flip by name, and
        Buyer's flip fails long before the countersign gather's wait ends,
        naming Seller's reason in Buyer's trace."""
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        TestMemberlistReuse.revoke_carrier(world)
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="ledger.reply")
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert record.result["revoke:Carrier"] == {
            "status": "FAILED", "error": "CounterpartyValidationFailed"
        }
        [refusal] = agent_events(world, "Seller", {"agent.countersign_refused"}, start)
        assert refusal.detail == {"network": "STL", "org": "Carrier", "reason": "LedgerUnreachable"}
        [asked] = sends_from(world, "Buyer", "agent.countersign.request", start)
        [failed] = agent_events(world, "Buyer", {"agent.revoke_failed"}, start)
        assert failed.detail["detail"] == "Seller:LedgerUnreachable"
        assert failed.tick - asked.tick < 1500 // 2  # the countersign gather waits 1500
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "ACTIVE"

    @pytest.mark.parametrize("networks, reason", [
        ({"home_network": "NOWHERE"}, "NotLocal"),
        ({"foreign_network": "SWT"}, "PolicyViolation"),
    ])
    def test_request_outside_the_countersigners_policy_is_refused(self, world, networks, reason):
        probe = add_probe(world)
        start = len(world.trace.events)
        carrier = world.org_dids["Carrier"]
        answer = ask_countersign(probe, world, carrier, b"\x00" * 32, "ACTIVE", **networks)
        assert answer == agent_mod.Answer("validation_failed", reason=reason)
        assert agent_events(world, "Seller", {"agent.countersigned"}, start) == []

    def test_revoked_countersign_without_ledger_records_names_the_failure(self, world):
        # an empty holder DID skips re-validation
        run_sync(world, "Buyer", "SWT", "STL", targets=(world.org_dids["Carrier"],))
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="ledger.reply")
        )
        probe = add_probe(world)
        answer = ask_countersign(probe, world, "", b"\x00" * 32, "REVOKED")
        assert answer == agent_mod.Answer("validation_failed", reason="LedgerUnreachable")


class TestSnapshotArtifacts:
    """A validation takes every registry input of its checks from its one
    member snapshot, which names the ids of the verifier's own trust list,
    never the ids a presentation carries."""

    @staticmethod
    def validate(world, holder="Carrier"):
        agent = world.agents["Buyer"]
        record = agent.start_session(
            "validate", agent._validate_member("SWT", "STL", world.org_dids[holder])
        )
        world.settle()
        return record

    def test_tampered_cred_def_id_fails_check_5_with_the_honest_reads(self, world, monkeypatch):
        reads = record_queries(monkeypatch)
        assert self.validate(world).error is None
        honest = list(reads)
        reads.clear()
        build = creds.build_membership_vp

        def tampered(holder_did, holder_keys, vc, witness, nonce, bundle=b""):
            vc = replace(vc, cred_def_id="creddef:chosen-by-the-holder")
            return build(holder_did, holder_keys, vc, witness, nonce, bundle)

        monkeypatch.setattr(creds, "build_membership_vp", tampered)
        record = self.validate(world)
        assert isinstance(record.error, creds.MembershipVerificationError)
        assert str(record.error) == (
            "check 5 (issuer_trust) failed: credential definition mismatch"
        )
        assert reads == honest
        assert {what for what, *_ in reads} == {registry.QUERY_MEMBER}

    def test_anchor_trusted_for_another_network_fails_check_6(self, world, monkeypatch):
        """Seller, a member of both networks, answers Buyer's STL challenge
        with its SWT credential, whose anchor SWT's trust list names for
        SWT: the snapshot holds that anchor's credential definition but no
        revocation state, as it names only STL's anchors' states."""
        policies = world.agents["Buyer"].config.policies
        interop, entries = policies["SWT"]
        own_anchor = world.anchors["AnchorSWT"].profile.did
        monkeypatch.setitem(
            policies, "SWT", (interop, entries + (("iin0", own_anchor, "SWT"),))
        )
        seller = world.agents["Seller"]
        monkeypatch.setitem(seller.wallet, "STL", seller.wallet["SWT"])
        record = self.validate(world, holder="Seller")
        assert isinstance(record.error, creds.MembershipVerificationError)
        assert str(record.error) == "check 6 (revocation) failed"

    def test_validation_before_the_schema_is_published_fails_check_4(self, world):
        replicas = world.iin_nodes[world.agents["Buyer"].pool.iin_id]
        published = [node.state for node in replicas]
        for node in replicas:
            node.state = replace(node.state, schemas={})
        record = self.validate(world)
        assert isinstance(record.error, creds.MembershipVerificationError)
        assert str(record.error) == (
            "check 4 (schema_conformance) failed: membership schema unavailable"
        )
        for node, state in zip(replicas, published):
            node.state = state
        assert self.validate(world).error is None


class TestMemberSnapshot:
    """Member validation reads the holder's document and the revocation
    state in one quorum read, made before the challenge."""

    def test_cold_validation_makes_one_changing_read(self, world, monkeypatch):
        reads = record_queries(monkeypatch)
        agent = world.agents["Buyer"]
        record = agent.start_session(
            "validate", agent.validate_org("SWT", "STL", world.org_dids["Carrier"])
        )
        world.settle()
        assert record.result["status"] == "ok", record.result
        assert [what for what, *_ in reads] == [registry.QUERY_MEMBER]

    def test_an_endpoint_no_actor_holds_is_an_unreachable_holder(self, world):
        """A DID document's service endpoint is its holder's own input, and
        no anchor or registry check ties it to an actor. With Carrier's actor
        gone from the bus, Buyer's challenge to its endpoint is a lost reply
        at once: the validation fails MemberUnreachable, with no timeout
        waited out, and the run goes on."""
        carrier = world.agents["Carrier"]
        del world.bus._actors[carrier.address]
        agent = world.agents["Buyer"]
        start = world.bus.now
        record = agent.start_session("validate", agent.validate_org("SWT", "STL", carrier.did))
        end = world.settle()
        assert record.result == {"status": "failed", "error": "MemberUnreachable", "check": 0}
        assert end - start < 400  # the challenge's timeout

    def test_every_read_of_a_two_network_run_is_a_member_snapshot(self, monkeypatch):
        reads = record_queries(monkeypatch)
        report = harness.run_scenario(scenario_config("two-network"))
        assert report.ok, report.errors
        assert reads
        assert {what for what, *_ in reads} == {registry.QUERY_MEMBER}

    def test_revocation_committed_before_the_snapshot_read_fails_check_6(self, world):
        agent = world.agents["Buyer"]
        carrier_did = world.org_dids["Carrier"]
        record = agent.start_session("fetch", agent._fetch_memberlist("SWT", "STL"))
        world.settle()
        memberlist, _ = record.result
        assert carrier_did in memberlist.member_dids
        # Buyer's first-stage snapshot queries reach the replicas late, so the
        # revocation, started with the validation, commits before they answer
        world.bus.config.rules.append(FaultRule(
            action="delay", from_="agent:Buyer", kind="iin.query", times=2, delay=40,
        ))
        start = len(world.trace.events)
        record = agent.start_session(
            "validate", agent._validate_member("SWT", "STL", carrier_did, memberlist)
        )
        TestMemberlistReuse.revoke_carrier(world)
        assert isinstance(record.error, creds.MembershipVerificationError)
        assert record.error.check == creds.CHECK_REVOCATION
        events = world.trace.events[start:]
        commits = [
            e.tick for e in events
            if e.kind == "registry.commit" and e.detail["tx_kind"] == registry.KIND_REVOC_UPDATE
        ]
        first_send = next(
            e for e in events if e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
        )
        snapshot_read = next(
            e.tick for e in events
            if e.kind == "bus.deliver" and e.detail["from"] == "agent:Buyer"
            and e.detail["msg_kind"] == "iin.query"
        )
        assert first_send.detail["msg_kind"] == "iin.query"  # the snapshot query
        assert first_send.tick < min(commits) <= max(commits) < snapshot_read

    def test_epoch_moved_during_the_challenge_rereads_the_snapshot(self, world, monkeypatch):
        """STL's anchor revokes Seller after Buyer's snapshot read and before
        Carrier makes its witness, so Carrier presents a witness one epoch
        ahead of the snapshot: Buyer reads the snapshot again and Carrier,
        never revoked, still validates."""
        stale_witnesses(world)
        reads = record_queries(monkeypatch)
        anchor = world.anchors["AnchorSTL"]
        epoch = anchor.acc_state.epoch
        # Carrier's witness predates the epoch bumps, so it is behind the
        # challenge's epoch and Carrier refreshes it
        _, witness = world.agents["Carrier"].wallet["STL"]
        assert witness.epoch < epoch
        world.bus.config.rules.append(FaultRule(
            action="delay", from_="agent:Buyer", kind="agent.membership_vp.request",
            times=1, delay=100,
        ))
        agent = world.agents["Buyer"]
        start = len(world.trace.events)
        record = agent.start_session(
            "validate", agent.validate_org("SWT", "STL", world.org_dids["Carrier"])
        )

        def revoke_seller():
            yield Sleep(20)
            yield from anchor.revoke_membership(world.org_dids["Seller"], "STL")

        anchor.enqueue_serialized("revoke", revoke_seller)
        world.settle()
        assert record.result["status"] == "ok", record.result
        assert anchor.acc_state.epoch == epoch + 1
        assert [what for what, *_ in reads] == [registry.QUERY_MEMBER] * 2
        events = world.trace.events[start:]
        snapshot_answered = next(
            e.tick for e in events
            if e.kind == "bus.deliver" and e.detail["to"] == "agent:Buyer"
            and e.detail["msg_kind"] == "iin.query.reply"
        )
        commit = next(
            e.tick for e in events
            if e.kind == "registry.commit" and e.detail["tx_kind"] == registry.KIND_REVOC_UPDATE
        )
        witness_asked = next(
            e.tick for e in events
            if e.kind == "bus.send" and e.detail["from"] == "agent:Carrier"
            and e.detail["msg_kind"] == "anchor.witness.request"
        )
        assert snapshot_answered < commit < witness_asked


class TestMemberlistReuse:
    def test_each_countersigner_fetches_the_memberlist_once_per_round(self, world):
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert len(record.result) == 2  # Seller and Carrier
        assert all(r["status"] == "DONE" for r in record.result.values()), record.result
        for org in ("Buyer", "Seller"):
            assert len(gates(world, org, start)) == 1
            # the gate is the one registry read, of the sequencer alone
            assert len(sends_from(world, org, "iin.query", start)) == 1

    def test_countersign_request_carries_the_statements_alone(self, world):
        seller = world.agents["Seller"]
        countersign = seller._handle_countersign
        requests = []

        def capturing(sender, request):
            requests.append(request)
            return (yield from countersign(sender, request))

        seller._handle_countersign = capturing
        for initiator, home, foreign in (("Buyer", "SWT", "STL"), ("Carrier", "STL", "SWT")):
            record = run_sync(world, initiator, home, foreign)
            assert record.error is None
            assert all(r["status"] == "DONE" for r in record.result.values()), record.result
        assert [
            {(s.home_network, s.foreign_network) for s in r.statements} for r in requests
        ] == [{("SWT", "STL")}, {("STL", "SWT")}]

    @staticmethod
    def revoke_carrier(world):
        anchor = world.anchors["AnchorSTL"]
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(world.org_dids["Carrier"], "STL")
        )
        world.settle()

    @classmethod
    def readmit_after_seller_cached(cls, world):
        """Revoke Carrier, let Seller verify the memberlist without it, then
        re-admit Carrier. Returns Seller's stale list."""
        cls.revoke_carrier(world)
        seller = world.agents["Seller"]
        record = seller.start_session("ml", seller._fetch_memberlist("SWT", "STL"))
        world.settle()
        stale, _ = record.result
        assert world.org_dids["Carrier"] not in stale.member_dids
        carrier = world.agents["Carrier"]
        record = carrier.start_session("step_a", carrier.step_a())
        world.settle()
        assert record.error is None
        assert world.anchors["AnchorSTL"].memberlists["STL"].roster_version > stale.roster_version
        return stale

    def test_list_naming_every_active_holder_is_reused(self, world):
        """Seller's cached list names Carrier though the anchor's roster has
        moved on since (Seller's own STL membership is revoked): the gate is
        Seller's own, and the request names no list version. Seller's own
        sync warms it: it caches only what its own challenges checked."""
        assert run_sync(world, "Seller", "SWT", "STL").error is None
        seller = world.agents["Seller"]
        carrier_did = world.org_dids["Carrier"]
        cached = seller._memberlists["STL"]
        assert carrier_did in cached.member_dids
        anchor = world.anchors["AnchorSTL"]
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(world.org_dids["Seller"], "STL")
        )
        world.settle()
        assert anchor.memberlists["STL"].roster_version > cached.roster_version
        digest = seller.cache[("STL", carrier_did)].bundle_digest
        probe = add_probe(world)
        start = len(world.trace.events)
        answer = ask_countersign(probe, world, carrier_did, digest, "ACTIVE")
        assert answer.result == "signed"
        assert gates(world, "Seller", start) == []
        assert sends_from(world, "Seller", "iin.query", start) == []

    def test_list_lacking_a_readmitted_holder_is_fetched_afresh(self, world):
        """Seller's cached list lacks the re-admitted Carrier, so it fetches
        the list once and signs."""
        carrier_did = world.org_dids["Carrier"]
        stale = self.readmit_after_seller_cached(world)
        digest = world.organizations[("STL", "Carrier")].bundle_digest()
        probe = add_probe(world)
        start = len(world.trace.events)
        assert carrier_did not in stale.member_dids
        answer = ask_countersign(probe, world, carrier_did, digest, "ACTIVE")
        assert answer.result == "signed"
        assert len(gates(world, "Seller", start)) == 1

    def test_member_revoked_since_the_cache_filled_is_still_refused(self, world):
        """Seller's list still names Carrier, but its identity is no longer
        cached: the batch reads, and its read carries the registry's current
        list, which no longer lists Carrier."""
        record = run_sync(world, "Seller", "SWT", "STL")
        assert record.error is None
        seller = world.agents["Seller"]
        cached = seller._memberlists["STL"]
        carrier_did = world.org_dids["Carrier"]
        assert carrier_did in cached.member_dids
        digest = seller.cache[("STL", carrier_did)].bundle_digest
        self.revoke_carrier(world)
        seller.cache.clear()
        probe = add_probe(world)
        start = len(world.trace.events)
        answer = ask_countersign(probe, world, carrier_did, digest, "ACTIVE")
        assert answer == agent_mod.Answer("validation_failed", reason="NotListed")
        assert len(gates(world, "Seller", start)) == 1
        assert carrier_did not in seller._memberlists["STL"].member_dids

    def test_revoked_request_always_fetches_a_fresh_memberlist(self, world):
        carrier_did = world.org_dids["Carrier"]
        # a REVOKED request is checked against the committed record
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        self.readmit_after_seller_cached(world)
        probe = add_probe(world)
        start = len(world.trace.events)
        digest = world.organizations[("STL", "Carrier")].bundle_digest()
        answer = ask_countersign(probe, world, carrier_did, digest, "REVOKED")
        assert answer == agent_mod.Answer("validation_failed", reason="MemberStillValid")
        assert len(gates(world, "Seller", start)) == 1


def reissued_memberlist(anchor, keys=None, network_id="STL"):
    """AnchorSTL's STL memberlist issued again, by `keys` or for `network_id`."""
    memberlist = anchor.memberlists["STL"]
    return creds.issue_memberlist_credential(
        keys or anchor.keys, anchor.profile.did, anchor.memberlist_cred_def_id,
        network_id, memberlist.member_dids, memberlist.roster_version,
    )


def plant(world, memberlist):
    """Hold `memberlist` as AnchorSTL's STL list in every registry replica,
    so that a read agrees on it; None removes the list."""
    key = (world.anchors["AnchorSTL"].profile.did, "STL")
    for node in world.iin_nodes["iin0"]:
        lists = {k: v for k, v in node.state.memberlists.items() if k != key}
        if memberlist is not None:
            lists[key] = memberlist
        node.state = replace(node.state, memberlists=lists)


def drop_last_holder(world):
    """Every replica answers a member read with its last holder left out."""
    for node in world.iin_nodes["iin0"]:
        def query(sender, body, answer=node._query):
            snapshot = registry.MemberSnapshot.from_bytes(answer(sender, body).snapshot)
            return registry.QueryResult(replace(snapshot, holders=snapshot.holders[:-1]).to_bytes())

        node._query = query


def foreign_anchors_list(world):
    """A list of STL's members issued and signed by AnchorSWT."""
    anchor, stl = world.anchors["AnchorSWT"], world.anchors["AnchorSTL"]
    return creds.issue_memberlist_credential(
        anchor.keys, anchor.profile.did, anchor.memberlist_cred_def_id, "STL",
        stl.memberlists["STL"].member_dids, stl.memberlists["STL"].roster_version,
    )


class TestMemberlistTrust:
    """A memberlist the agent cannot trust fails with NoTrustedPMV at its own
    check. The registry holds each list below at every replica, as it would
    one its issuer wrote: it does not verify a list's signature."""

    @pytest.mark.parametrize("sabotage, foreign, message", [
        (lambda world: None, "XNET", "no trusted membership validator for XNET"),
        (lambda world: plant(world, reissued_memberlist(
            world.anchors["AnchorSTL"], keys=crypto.KeyPair.from_seed(b"\x66" * 32)
        )), "STL", "memberlist signature invalid"),
        (lambda world: plant(world, reissued_memberlist(
            world.anchors["AnchorSTL"], network_id="SWT"
        )), "STL", "memberlist not issued by the trusted validator"),
        (lambda world: plant(world, foreign_anchors_list(world)),
         "STL", "memberlist not issued by the trusted validator"),
        (lambda world: plant(world, None), "STL", "registry holds no memberlist for STL"),
        (drop_last_holder, "STL", "snapshot holders are not the memberlist's members"),
    ], ids=[
        "network-off-the-trust-list", "signed-by-another-key", "for-another-network",
        "issued-by-another-anchor", "absent-from-the-registry", "snapshot-missing-a-member",
    ])
    def test_untrusted_memberlist_is_refused(self, world, sabotage, foreign, message):
        sabotage(world)
        agent = world.agents["Buyer"]
        record = agent.start_session("ml", agent._fetch_memberlist("SWT", foreign))
        world.settle()
        assert isinstance(record.error, agent_mod.NoTrustedPMV)
        assert message in str(record.error)


class TestConcurrentSync:
    def test_targets_are_challenged_before_the_first_commit(self, world):
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert all(r["status"] == "DONE" for r in record.result.values()), record.result
        sent = [
            e.detail for e in world.trace.events[start:]
            if e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
        ]
        first_submit = next(i for i, d in enumerate(sent) if d["msg_kind"] == "cmdac.submit")
        challenged = {
            d["to"] for d in sent[:first_submit]
            if d["msg_kind"] == "agent.membership_vp.request"
        }
        assert challenged == {"agent:Seller", "agent:Carrier"}

    @staticmethod
    def countersign_both_at_once(world):
        """Ask Seller, with cold caches, to countersign STL's Seller and
        Carrier at the same time; returns the reply bodies."""
        probe = add_probe(world)
        replies = {}

        def ask(org):
            s = statement(
                probe, world.org_dids[org], world.organizations[("STL", org)].bundle_digest(),
                "ACTIVE", org=org,
            )
            reply = yield Request(
                "agent:Seller", "agent.countersign.request", countersign_request([s]),
                timeout=2000,
            )
            [replies[org]] = reply.body.results

        for org in ("Seller", "Carrier"):
            probe.start_session(f"ask-{org}", ask(org))
        world.settle()
        return replies

    def test_concurrent_cold_countersigns_each_read_their_own(self, world):
        """Each request passes its own memberlist gate; the policy is the
        agent's own, so neither asks the ledger anything."""
        start = len(world.trace.events)
        replies = self.countersign_both_at_once(world)
        assert {org: r.result for org, r in replies.items()} == {
            "Seller": "signed", "Carrier": "signed"
        }
        assert sends_from(world, "Seller", "ledger.query", start) == []
        assert len(gates(world, "Seller", start)) == 2

    def test_lost_memberlist_fails_each_concurrent_request_by_name(self, world):
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="iin.query.reply")
        )
        start = len(world.trace.events)
        replies = self.countersign_both_at_once(world)
        assert {org: (r.result, r.reason) for org, r in replies.items()} == {
            "Seller": ("validation_failed", "InconsistentReplicas"),
            "Carrier": ("validation_failed", "InconsistentReplicas"),
        }
        # each request's gate asked all four replicas, and none answered
        assert len(sends_from(world, "Seller", "iin.query", start)) == 2 * 4
        assert gates(world, "Seller", start) == []
        assert not [e for e in world.trace.events[start:] if e.kind == "session.failed"]


class TestCountersignOverlap:
    """A countersigner judges the presentations its initiator forwards while
    nothing moved the epoch, so its leg is its gate read alone, and a batch
    that reaches an org during that org's own check of the same holder joins
    the check: both at every latency fixed at 2 ticks."""

    def test_no_countersigner_challenges_in_a_lossless_sync(self):
        """In both of two-network's syncs, Seller reads its gate in the tick
        the request arrives and answers from the forwarded presentations,
        challenging no holder: Buyer's sync of STL takes 20 ticks and
        Carrier's of SWT 24, as when Seller's own challenges left with its
        gate read (24 and 28 while they left after it). No agent but the
        sync's initiator sends `agent.membership_vp.request`."""
        runner = harness.ScenarioRunner(fixed_latency("two-network"))
        assert runner.run().ok
        ticks = {}
        for step, events in sync_steps(runner):
            [org] = step["initiators"]
            path = critical_path(events, f"agent:{org}")
            [signer] = path["signers"].values()
            assert signer["request"] == signer["gate"] and signer["challenged"] is None
            ticks[org] = path["committed"] - path["start"]
            assert {
                e.detail["from"] for e in events if e.kind == "bus.send"
                and e.detail["msg_kind"] == "agent.membership_vp.request"
            } == {f"agent:{org}"}
            assert not [e for e in events if e.kind == "agent.challenge_fallback"]
        assert ticks == {"Buyer": 20, "Carrier": 24}

    @pytest.mark.parametrize("name, signer, occurrence, sends", [
        # Seller's batch reaches Buyer during Buyer's own sync of STL (104
        # sends while Buyer read a snapshot for it; 100 while each registry
        # read asked two replicas)
        ("concurrent-commit", "Buyer", 1, 88),
        # Buyer's batch reaches Seller during Seller's own resync, whose
        # cleared cache made it read again (134 sends while it did). Seller's
        # challenge of Carrier there is its first: as the first sync's
        # countersigner it judges the presentations Buyer forwards, and
        # sends 4 fewer (130 while it challenged each holder itself; 126
        # while each registry read asked two replicas)
        ("rotate-resync", "Seller", 1, 110),
    ], ids=("concurrent-commit", "rotate-resync"))
    def test_a_batch_joins_its_countersigners_own_check_of_the_holder(
        self, name, signer, occurrence, sends
    ):
        """With Carrier's reply to `signer`'s challenge 4 ticks late, the
        other initiator's batch reaches `signer` while its own sync still
        checks Carrier. `signer` joins that check, answers from the identity
        it cached in the tick the check ends, and reads nothing."""
        runner = harness.ScenarioRunner(fixed_latency(name))
        runner.world.bus.config.rules.append(FaultRule(
            "delay", from_="agent:Carrier", to=f"agent:{signer}",
            kind="agent.membership_vp.reply", occurrence=occurrence, delay=4,
        ))
        assert runner.run().ok
        events = runner.world.trace.events
        asked = [
            e.tick for e in events if e.kind == "bus.send" and e.detail["to"] == f"agent:{signer}"
            and e.detail["msg_kind"] == "agent.countersign.request"
        ][-1]
        checked = next(
            e.tick for e in events if e.tick >= asked and e.actor == f"agent:{signer}"
            and e.kind == "agent.identity_fetched" and e.detail["org"] == "Carrier"
        )
        answered = next(
            e.tick for e in events if e.tick >= asked and e.kind == "bus.send"
            and e.detail["from"] == f"agent:{signer}"
            and e.detail["msg_kind"] == "agent.countersign.reply"
        )
        assert asked + 2 < checked == answered  # delivered mid-check; answered as it ends
        assert [e for e in sends_from(runner.world, signer, "iin.query") if e.tick > asked] == []
        assert sum(e.kind == "bus.send" for e in events) == sends


def commit_alone(world, org_id, foreign_did, bundle):
    """Buyer alone asks for an ACTIVE commit of STL's `org_id` into SWT, the
    one record of its batch, stated now and forwarding no presentation;
    returns the verdict on it."""
    buyer = world.agents["Buyer"]
    content = net.RecordContent(
        "STL", org_id, foreign_did, bundle, crypto.digest(bundle), "ACTIVE"
    )

    record = buyer.start_session(
        "commit", buyer._commit_identity("SWT", [content], [(world.bus.now, b"")])
    )
    world.settle()
    [verdict] = record.result
    return verdict


class TestCountersignGate:
    @staticmethod
    def revoke_carrier_and_resync(world):
        """Revoke Carrier; only Buyer resyncs, which flips its record to
        REVOKED while Seller keeps Carrier's identity cached."""
        TestMemberlistReuse.revoke_carrier(world)
        buyer = world.agents["Buyer"]
        record = buyer.start_session("resync", buyer.resync("SWT", "periodic"))
        world.settle()
        assert record.error is None
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "REVOKED"

    def test_cached_identity_of_a_revoked_member_is_not_signed_back_to_active(self, world):
        carrier_did = world.org_dids["Carrier"]
        # Seller's own sync caches Carrier's identity
        assert run_sync(world, "Seller", "SWT", "STL").error is None
        seller = world.agents["Seller"]
        assert ("STL", carrier_did) in seller.cache
        self.revoke_carrier_and_resync(world)
        # countersigning the REVOKED flip left Seller a list without Carrier
        assert carrier_did not in seller._memberlists["STL"].member_dids
        assert ("STL", carrier_did) in seller.cache
        old = world.ledger_state("SWT").get_record("STL", "Carrier").content
        start = len(world.trace.events)
        verdict = commit_alone(world, "Carrier", carrier_did, old.bundle)
        assert isinstance(verdict, agent_mod.CounterpartyValidationFailed)
        assert str(verdict) == "Seller:NotListed"
        assert len(gates(world, "Seller", start)) == 1
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "REVOKED"

    @staticmethod
    def refuted_carrier_world():
        """The world of two-network run to its end, with Carrier still
        listed but answering every challenge with a presentation signed by a
        key its DID document does not hold: every check of it refutes it,
        so SWT's resync flips its record."""
        runner = harness.ScenarioRunner(scenario_config("two-network"))
        assert runner.run().ok
        world = runner.world
        world.agents["Carrier"].keys = crypto.KeyPair.from_seed(b"\x17" * 32)
        return world

    def assert_flip_refused(self, world, reason):
        """Buyer's resync refutes Carrier and sends its flip, which Seller
        refuses by `reason`: Carrier's record stays ACTIVE."""
        start = len(world.trace.events)
        results, added = TestResync.resync(world)
        carrier = results[world.org_dids["Carrier"]]
        assert (carrier["status"], carrier["error"]) == ("FAILED", "MembershipVerificationError")
        assert results["revoke:Carrier"] == {
            "status": "FAILED", "error": "CounterpartyValidationFailed"
        }
        assert added == []
        [refusal] = agent_events(world, "Seller", {"agent.countersign_refused"}, start)
        assert refusal.detail == {"network": "STL", "org": "Carrier", "reason": reason}
        assert agent_events(world, "Seller", {"agent.countersigned"}, start) == []
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "ACTIVE"

    def test_a_lost_gate_read_refuses_a_revocation_and_the_member_stays_active(self):
        """Buyer refutes Carrier, but every registry read reply to Seller is
        lost, so Seller's memberlist gate fails. The failed gate refuses the
        REVOKED statement by name; it is no evidence that Carrier was
        revoked."""
        world = self.refuted_carrier_world()
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="iin.query.reply")
        )
        self.assert_flip_refused(world, "InconsistentReplicas")

    def test_a_lost_revalidation_refuses_a_revocation_and_the_member_stays_active(self):
        """Buyer refutes Carrier, but Seller's own challenge to Carrier is
        lost, so Seller's re-validation gets no answer. A validation that
        could not check the holder is no evidence that it was revoked:
        Seller refuses the REVOKED statement by name."""
        world = self.refuted_carrier_world()
        world.bus.config.rules.append(FaultRule(
            action="drop", from_="agent:Seller", to="agent:Carrier",
            kind="agent.membership_vp.request",
        ))
        self.assert_flip_refused(world, "MemberUnreachable")

    def test_bundle_committed_under_another_orgs_name_is_refused(self, world):
        bundle = world.organizations[("STL", "Seller")].bundle_bytes()
        verdict = commit_alone(world, "Carrier", world.org_dids["Seller"], bundle)
        assert isinstance(verdict, agent_mod.CounterpartyValidationFailed)
        assert str(verdict) == "Seller:OrgMismatch"
        assert world.ledger_state("SWT").get_record("STL", "Carrier") is None

    def test_readmitted_member_is_committed_active_by_a_full_resync(self, world):
        """Its bundle is the one the REVOKED record holds, and only the
        status differs, so the resync commits it; Seller is unchanged."""
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        self.revoke_carrier_and_resync(world)
        revoked = world.ledger_state("SWT").get_record("STL", "Carrier").content
        carrier = world.agents["Carrier"]
        record = carrier.start_session("step_a", carrier.step_a())
        world.settle()
        assert record.error is None
        results, added = TestResync.resync(world)
        assert added == [("Carrier", "ACTIVE", "APPLIED")]
        assert TestResync.outcomes(world, results) == {
            "Seller": ("DONE", "UNCHANGED"), "Carrier": ("DONE", "APPLIED"),
        }
        ledger = world.ledger_state("SWT")
        assert ledger.get_record("STL", "Carrier").content == replace(revoked, status="ACTIVE")
        last = ledger.block_log[-1]
        assert {org for org, _, _ in last.endorsements} == {"Buyer", "Seller"}


class TestWitnessSource:
    def test_holder_asks_its_issuer_only(self, world):
        probe = add_probe(world)

        start = len(world.trace.events)
        reply, _ = challenge(probe, world, "Buyer", "SWT")
        assert reply.error == ""
        sent = [
            e.detail["msg_kind"] for e in world.trace.events[start:]
            if e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
        ]
        assert "iin.query" not in sent
        assert sent.count("anchor.witness.request") == 1


class TestBundleValidation:
    def test_internally_inconsistent_chain_fails_session(self, world):
        # corrupt the Carrier's served bundle: leaf re-signed by a rogue key
        organization = world.organizations[("STL", "Carrier")]
        peer = organization.peers[0]
        rogue = crypto.KeyPair.from_seed(b"\x66" * 32)
        leaf = peer.chain[-1]
        forged_leaf = crypto.Certificate(
            subject_name=leaf.subject_name,
            subject_public_key=leaf.subject_public_key,
            issuer_name=leaf.issuer_name,
            valid_from=leaf.valid_from,
            valid_to=leaf.valid_to,
            issuer_signature=rogue.sign(leaf.signing_bytes()),
        )
        peer.chain = peer.chain[:-1] + (forged_leaf,)
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL",
                          targets=(world.org_dids["Carrier"],))
        assert record.error is None
        outcome = record.result[world.org_dids["Carrier"]]
        assert outcome["status"] == "FAILED"
        assert outcome["error"] == "BrokenLink"
        # step B passed, step C failed, step D never ran
        phases = agent_events(world, "Buyer", PHASE_EVENTS, start)
        assert [e.kind for e in phases] == ["agent.member_validated", "agent.sync_failed"]
        assert world.ledger_state("SWT").get_record("STL", "Carrier") is None


class TestServingPresentations:
    def test_membership_vp_request_for_unheld_network_refused(self, world):
        reply, _ = challenge(add_probe(world), world, "Buyer", "STL")
        assert reply == Reply("NoCredential")

    def test_dual_member_serves_each_network_separately(self, world):
        probe = add_probe(world)
        results = {}

        def ask(net_id):
            nonce = os.urandom(16)
            reply = yield Request(
                "agent:Seller",
                "agent.membership_vp.request",
                creds.Challenge(net_id, nonce),
                timeout=500,
            )
            results[net_id] = reply.body.vp

        probe.start_session("a", ask("STL"))
        probe.start_session("b", ask("SWT"))
        world.settle()
        vp_stl = creds.VerifiablePresentation.from_bytes(results["STL"])
        vc_stl = creds.MembershipBody.from_bytes(vp_stl.body).vc
        assert vc_stl.network_id == "STL"
        assert b"SWT" not in results["STL"]
        assert b"STL" not in results["SWT"]

    def test_challenge_asking_for_the_bundle_returns_the_requested_networks_bundle(self, world):
        seller = world.agents["Seller"]
        probe = add_probe(world)
        reply, nonce = challenge(probe, world, "Seller", "STL", bundle=1)
        vp = presented(reply)
        doc = registry.new_did_document(seller.pool.iin_id, seller.keys, seller.address)
        assert vp.challenge_nonce == nonce
        assert crypto.verify(doc.primary_key(), vp.signing_bytes(), vp.presenter_signature)
        bundle = net.Bundle.from_bytes(creds.MembershipBody.from_bytes(vp.body).bundle)
        assert (bundle.org_id, bundle.network_id) == ("Seller", "STL")
        assert bundle.chains  # one per peer

    def test_a_challenge_is_answered_with_one_signature_with_or_without_the_bundle(
        self, world, monkeypatch
    ):
        signs = []
        sign = crypto.sign
        monkeypatch.setattr(crypto, "sign", lambda *args: signs.append(1) or sign(*args))
        probe = add_probe(world)
        bundles = []
        for extra in ({}, {"bundle": 0}, {"bundle": 1}):
            reply, _ = challenge(probe, world, "Seller", "STL", **extra)
            vp = presented(reply)
            bundles.append(creds.MembershipBody.from_bytes(vp.body).bundle)
        assert bundles[:2] == [b"", b""]
        assert bundles[2] == world.organizations[("STL", "Seller")].bundle_bytes()
        assert len(signs) == 3


class TestOnePresentation:
    """A holder answers a challenge with one membership presentation, whose
    one signature covers its credential, its witness and its bundle. Each
    way of presenting a bundle that the same presentation does not vouch for
    is refused by name, and fails only its own target."""

    @staticmethod
    def presenting(monkeypatch, world, org, build):
        """Have `org`'s agent make each membership presentation with `build`,
        called as `creds.build_membership_vp` is, with the honest builder
        first; every other holder presents honestly."""
        did, honest = world.org_dids[org], creds.build_membership_vp

        def patched(holder_did, keys, vc, witness, nonce, bundle=b""):
            if holder_did != did:
                return honest(holder_did, keys, vc, witness, nonce, bundle)
            return build(honest, holder_did, keys, vc, witness, nonce, bundle)

        monkeypatch.setattr(creds, "build_membership_vp", patched)

    def test_a_bundle_signed_under_another_key_fails_check_2(self, world, monkeypatch):
        rogue = crypto.KeyPair.from_seed(b"\x66" * 32)
        self.presenting(
            monkeypatch, world, "Carrier",
            lambda honest, did, keys, *rest: honest(did, rogue, *rest),
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(world, record, start, "MembershipVerificationError", check=2)
        assert failed.detail["detail"] == "check 2 (presenter_signature) failed"
        assert world.ledger_state("SWT").get_record("STL", "Carrier") is None

    def test_a_presentation_replayed_from_another_challenge_fails_check_1(
        self, world, monkeypatch
    ):
        # a presentation, bundle and all, that Carrier made for a probe's challenge
        reply, _ = challenge(add_probe(world), world, "Carrier", "STL", bundle=1)
        replayed = presented(reply)
        assert creds.MembershipBody.from_bytes(replayed.body).bundle
        self.presenting(monkeypatch, world, "Carrier", lambda *args: replayed)
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(world, record, start, "MembershipVerificationError", check=1)
        assert failed.detail["detail"] == "check 1 (nonce) failed"

    def test_a_signed_bundle_of_another_network_is_malformed(self, world, monkeypatch):
        # Seller belongs to both networks: it presents its SWT bundle for STL
        other = world.organizations[("SWT", "Seller")].bundle_bytes()
        self.presenting(
            monkeypatch, world, "Seller",
            lambda honest, *args: honest(*args[:-1], other),
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(world, record, start, "MalformedBundle", org="Seller")
        assert failed.detail["detail"] == "bundle for 'SWT' with 2 chains"
        # step B passed: the presentation itself is sound
        validated = agent_events(world, "Buyer", {"agent.member_validated"}, start)
        assert world.org_dids["Seller"] in [e.detail["holder"] for e in validated]

    @pytest.mark.parametrize("bundle, detail", [
        (b"", "undecodable Bundle: truncated input"),
        (b"junk", "undecodable Bundle: expected tag 0x14, got 0x6a"),
    ], ids=("empty", "undecodable"))
    def test_an_empty_or_undecodable_bundle_is_malformed(
        self, world, monkeypatch, bundle, detail
    ):
        self.presenting(
            monkeypatch, world, "Carrier",
            lambda honest, *args: honest(*args[:-1], bundle),
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_failed(world, record, start, "MalformedBundle")
        assert failed.detail["detail"] == f"{world.org_dids['Carrier']}: {detail}"


class TestChallengeEpochs:
    """The challenge names the epoch of the verifier's snapshot per issuer,
    and the holder refreshes its witness only when it is older."""

    @staticmethod
    def validate(world, verifier, holder):
        agent = world.agents[verifier]
        record = agent.start_session(
            "validate", agent.validate_org("SWT", "STL", world.org_dids[holder])
        )
        world.settle()
        return record.result

    @staticmethod
    def revoke_seller_from_stl(world):
        anchor = world.anchors["AnchorSTL"]
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(world.org_dids["Seller"], "STL")
        )
        world.settle()

    def test_holder_at_the_challenges_epoch_does_not_refresh(self, world):
        assert self.validate(world, "Buyer", "Carrier")["status"] == "ok"
        start = len(world.trace.events)
        assert self.validate(world, "Seller", "Carrier")["status"] == "ok"
        assert witness_requests(world, "Carrier", start) == []

    def test_holder_behind_a_moved_anchor_refreshes_once(self, world):
        assert self.validate(world, "Buyer", "Carrier")["status"] == "ok"
        self.revoke_seller_from_stl(world)
        start = len(world.trace.events)
        assert self.validate(world, "Buyer", "Carrier")["status"] == "ok"
        assert len(witness_requests(world, "Carrier", start)) == 1
        _, witness = world.agents["Carrier"].wallet["STL"]
        assert witness.epoch == world.anchors["AnchorSTL"].acc_state.epoch

    def test_revoked_holder_still_fails_check_6(self, world):
        TestMemberlistReuse.revoke_carrier(world)
        start = len(world.trace.events)
        assert self.validate(world, "Buyer", "Carrier") == {
            "status": "failed",
            "error": "MembershipVerificationError",
            "check": creds.CHECK_REVOCATION,
        }
        assert len(witness_requests(world, "Carrier", start)) == 1  # refused

    def test_a_stale_epoch_fails_only_its_own_verifier(self, world):
        anchor = world.anchors["AnchorSTL"]
        stale = anchor.acc_state
        self.revoke_seller_from_stl(world)
        assert self.validate(world, "Buyer", "Carrier")["status"] == "ok"
        probe = add_probe(world)
        start = len(world.trace.events)
        reply, nonce = challenge(
            probe, world, "Carrier", "STL", epochs=((anchor.profile.did, stale.epoch),)
        )
        assert witness_requests(world, "Carrier", start) == []
        vp = presented(reply)
        vc = creds.MembershipBody.from_bytes(vp.body).vc
        replica = world.iin_nodes[world.agents["Buyer"].pool.iin_id][0]
        ids = (
            world.org_dids["Carrier"], anchor.profile.did,
            schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME), vc.cred_def_id,
        )
        snapshot = registry.MemberSnapshot.of(replica.state, *((i,) for i in ids))
        artifacts = snapshot.artifacts(*ids)
        artifacts.revocation_state = stale
        trusted = frozenset({(anchor.profile.did, "STL")})
        with pytest.raises(creds.MembershipVerificationError) as refused:
            creds.verify_membership_vp(vp, "STL", nonce, trusted, artifacts)
        assert refused.value.check == creds.CHECK_REVOCATION
        assert self.validate(world, "Seller", "Carrier")["status"] == "ok"

    def test_membership_body_that_does_not_decode_fails_check_4(self, world, monkeypatch):
        def junk_body(holder_did, holder_keys, vc, witness, nonce, bundle=b""):
            return creds.VerifiablePresentation.sign(
                holder_keys, kind=creds.VP_MEMBERSHIP, body=b"junk",
                presenter_did=holder_did, challenge_nonce=nonce,
            )

        monkeypatch.setattr(creds, "build_membership_vp", junk_body)
        agent = world.agents["Buyer"]
        record = agent.start_session(
            "validate", agent._validate_member("SWT", "STL", world.org_dids["Carrier"])
        )
        world.settle()
        assert isinstance(record.error, creds.MembershipVerificationError)
        assert str(record.error) == "check 4 (schema_conformance) failed: truncated input"

    @staticmethod
    def challenge_twice_at_once(world, epoch):
        """Two challenges of Carrier, sent at once, each naming AnchorSTL's
        `epoch`; returns the replies."""
        anchor = world.anchors["AnchorSTL"]
        probe = add_probe(world)
        replies = []

        def ask():
            reply = yield Request(
                "agent:Carrier", "agent.membership_vp.request",
                creds.Challenge("STL", os.urandom(16), ((anchor.profile.did, epoch),)),
                timeout=500,
            )
            replies.append(reply)

        for i in range(2):
            probe.start_session(f"ask-{i}", ask())
        world.settle()
        return replies

    def test_concurrent_challenges_share_one_refresh(self, world):
        """The second challenge finds the first one's refresh in flight (its
        reply held back), joins it and presents the witness it brought."""
        self.revoke_seller_from_stl(world)
        epoch = world.anchors["AnchorSTL"].acc_state.epoch
        assert world.agents["Carrier"].wallet["STL"][1].epoch < epoch
        world.bus.config.rules.append(FaultRule(
            action="delay", to="agent:Carrier", kind="anchor.witness.reply", times=1, delay=20,
        ))
        start = len(world.trace.events)
        epochs = [
            creds.MembershipBody.from_bytes(presented(reply).body).witness.epoch
            for reply in self.challenge_twice_at_once(world, epoch)
        ]
        assert epochs == [epoch, epoch]
        assert len(witness_requests(world, "Carrier", start)) == 1

    def test_a_challenge_whose_joined_refresh_is_lost_asks_on_its_own(self, world):
        """The joined refresh left the witness behind the named epoch, so the
        second challenge rechecks it and refreshes once more: the first
        challenge is refused, the second answered."""
        self.revoke_seller_from_stl(world)
        epoch = world.anchors["AnchorSTL"].acc_state.epoch
        world.bus.config.rules.append(FaultRule(
            action="drop", from_="agent:Carrier", kind="anchor.witness.request", times=1,
        ))
        start = len(world.trace.events)
        replies = self.challenge_twice_at_once(world, epoch)
        assert sorted(r.error for r in replies) == ["", "WitnessUnavailable"]
        assert len(witness_requests(world, "Carrier", start)) == 2

    def test_lost_refresh_behind_the_named_epoch_is_witness_unavailable(self, world):
        self.revoke_seller_from_stl(world)
        world.bus.config.rules.append(FaultRule(
            action="drop", from_="agent:Carrier", kind="anchor.witness.request", times=1,
        ))
        agent = world.agents["Buyer"]
        start = len(world.trace.events)
        record = agent.start_session(
            "validate", agent._validate_member("SWT", "STL", world.org_dids["Carrier"])
        )
        world.settle()
        assert isinstance(record.error, agent_mod.MemberUnreachable)
        assert str(record.error).endswith(": WitnessUnavailable")
        failed = agent_events(world, "Carrier", ("session.failed",), start)
        assert [e.detail["error"] for e in failed] == ["WitnessUnavailable"]

    def test_undecodable_refresh_is_witness_unavailable(self, world):
        """A witness reply that does not decode is no refusal (NotAMember):
        the holder answers WitnessUnavailable, as for a lost refresh, and
        does not present its stored witness."""
        stale_witnesses(world)  # so that Carrier asks for a refresh
        world.anchors["AnchorSTL"]._refresh_witness = lambda sender, request: Raw(b"\x00")
        agent = world.agents["Buyer"]
        start = len(world.trace.events)
        record = agent.start_session(
            "validate", agent._validate_member("SWT", "STL", world.org_dids["Carrier"])
        )
        world.settle()
        assert isinstance(record.error, agent_mod.MemberUnreachable)
        assert str(record.error).endswith(": WitnessUnavailable")
        failed = agent_events(world, "Carrier", ("session.failed",), start)
        assert [e.detail["detail"] for e in failed] == ["anchor:AnchorSTL: undecodable witness reply"]


class TestResync:
    """A full sync reads its ledger's records once, before step D: a target
    whose checked record the ledger already holds ends DONE as UNCHANGED and
    is not committed. A targeted sync reads no records and commits every
    target."""

    @staticmethod
    def resync(world, org="Buyer"):
        """`org`'s resync of SWT; returns its STL results and the block log
        entries it added, as (org, status, outcome)."""
        before = len(world.ledger_state("SWT").block_log)
        agent = world.agents[org]
        record = agent.start_session("resync", agent.resync("SWT", "periodic"))
        world.settle()
        assert record.error is None
        added = [
            (e.statement.foreign_org, e.statement.status, e.outcome)
            for e in world.ledger_state("SWT").block_log[before:]
        ]
        return record.result["STL"], added

    @staticmethod
    def outcomes(world, results):
        org_of = {did: org for org, did in world.org_dids.items()}
        return {
            org_of.get(key, key): (r["status"], r.get("outcome")) for key, r in results.items()
        }

    def test_unchanged_resync_sends_no_step_d(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert sends_from(world, "Buyer", "agent.countersign.request", start) == []
        assert sends_from(world, "Buyer", "cmdac.submit", start) == []
        assert added == []
        assert self.outcomes(world, results) == {
            "Seller": ("DONE", "UNCHANGED"), "Carrier": ("DONE", "UNCHANGED"),
        }
        done = agent_events(world, "Buyer", {"agent.sync_done"}, start)
        assert sorted((e.detail["org"], e.detail["outcome"]) for e in done) == [
            ("Carrier", "UNCHANGED"), ("Seller", "UNCHANGED"),
        ]

    def test_rotation_resync_commits_only_the_rotated_record(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        world.organizations[("STL", "Carrier")].rotate(world.bus.now)
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert added == [("Carrier", "ACTIVE", "APPLIED")]
        assert self.outcomes(world, results) == {
            "Seller": ("DONE", "UNCHANGED"), "Carrier": ("DONE", "APPLIED"),
        }
        record = world.ledger_state("SWT").get_record("STL", "Carrier").content
        assert record.bundle_digest == world.organizations[("STL", "Carrier")].bundle_digest()
        # one records read, before step D's one request: Seller kept no copy
        # of Carrier from the presentation Buyer forwarded in its first sync,
        # so no stale copy sends Carrier's target into a retry round
        [query] = sends_from(world, "Buyer", "ledger.query", start)
        [first] = sends_from(world, "Buyer", "agent.countersign.request", start)
        assert query.detail["seq"] < first.detail["seq"]

    def test_revoke_resync_flips_the_revoked_member_and_skips_the_rest(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        TestMemberlistReuse.revoke_carrier(world)
        results, added = self.resync(world)
        assert added == [("Carrier", "REVOKED", "APPLIED")]
        outcomes = self.outcomes(world, results)
        assert outcomes["Seller"] == ("DONE", "UNCHANGED")
        assert outcomes["revoke:Carrier"] == ("DONE", "APPLIED")
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "REVOKED"

    def test_two_flips_are_one_step_d_batch(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        anchor = world.anchors["AnchorSTL"]
        for org in ("Seller", "Carrier"):
            anchor.enqueue_serialized(
                "revoke", lambda did=world.org_dids[org]: anchor.revoke_membership(did, "STL")
            )
        world.settle()
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert self.outcomes(world, record.result) == {
            "revoke:Seller": ("DONE", "APPLIED"), "revoke:Carrier": ("DONE", "APPLIED"),
        }
        assert len(sends_from(world, "Buyer", "agent.countersign.request", start)) == 1
        # the countersigner reads its records and a fresh list once for the batch
        assert len(sends_from(world, "Seller", "ledger.query", start)) == 1
        assert len(gates(world, "Seller", start)) == 1
        for org in ("Seller", "Carrier"):
            assert world.ledger_state("SWT").get_record("STL", org).content.status == "REVOKED"
        revoked = agent_events(world, "Buyer", {"agent.record_revoked"}, start)
        assert sorted(e.detail["org"] for e in revoked) == ["Carrier", "Seller"]

    def test_each_revocation_is_sent_before_any_listed_target_ends(self):
        """revoke-carrier's resync: the fresh list lacks the revoked Carrier,
        which settles its flip, so each initiator sends the flip's one
        countersign request at its gate, before any listed target ends."""
        runner = harness.ScenarioRunner(scenario_config("revoke-carrier"))
        report = runner.run()
        assert report.ok, report.errors
        world = runner.world
        resyncs = [
            (i, e.actor.removeprefix("agent:"))
            for i, e in enumerate(world.trace.events) if e.kind == "agent.resync"
        ]
        assert sorted(org for _, org in resyncs) == ["Buyer", "Seller"]
        for start, org in resyncs:
            [request] = sends_from(world, org, "agent.countersign.request", start)
            ended = agent_events(world, org, {"agent.sync_done", "agent.sync_failed"}, start)
            assert ended and request.tick < min(e.tick for e in ended)
            [revoked] = agent_events(world, org, {"agent.record_revoked"}, start)
            assert revoked.detail["org"] == "Carrier"
        assert [
            (e.statement.foreign_org, e.statement.status, e.outcome)
            for e in world.ledger_state("SWT").block_log[-2:]
        ] == [("Carrier", "REVOKED", "APPLIED"), ("Carrier", "REVOKED", "NOOP")]

    def test_a_flip_and_a_rotation_are_in_flight_at_once(self):
        """After two-network's syncs, Carrier leaves STL and Seller rotates
        its STL certificates: SWT's resync flips Carrier from its gate while
        Seller's new bundle goes through its rounds, and both commit. The
        flip leaves once the resync's records read and its gate have both
        returned; with every latency fixed at 2 ticks the gate returns last,
        whereas the seeded draws can order them either way as the set-up's
        sends move."""
        runner = harness.ScenarioRunner(fixed_latency("two-network"))
        report = runner.run()
        assert report.ok, report.errors
        world = runner.world
        TestMemberlistReuse.revoke_carrier(world)
        seller = world.organizations[("STL", "Seller")]
        seller.rotate(world.bus.now)
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert sorted(added) == [("Carrier", "REVOKED", "APPLIED"), ("Seller", "ACTIVE", "APPLIED")]
        # the target's result, then the flip's, though the flip's batch started first
        assert list(self.outcomes(world, results).items()) == [
            ("Seller", ("DONE", "APPLIED")), ("revoke:Carrier", ("DONE", "APPLIED")),
        ]
        # the flip's batch is sent at the gate, and the rotation's while the
        # flip's is still open
        flip, *rotation = sends_from(world, "Buyer", "agent.countersign.request", start)
        [revoked] = agent_events(world, "Buyer", {"agent.record_revoked"}, start)
        assert flip.tick == gates(world, "Buyer", start)[0].tick
        assert flip.tick < rotation[0].tick < revoked.tick
        # the countersigner reads the flip's records and its gate at once
        [query] = sends_from(world, "Seller", "ledger.query", start)
        assert query.tick == sends_from(world, "Seller", "iin.query", start)[0].tick
        state = world.ledger_state("SWT")
        assert state.get_record("STL", "Carrier").content.status == "REVOKED"
        record = state.get_record("STL", "Seller").content
        assert (record.status, record.bundle_digest) == ("ACTIVE", seller.bundle_digest())
        assert verify_events(world.trace.events) == []
        genesis = world.ledgers["SWT"].genesis
        assert net.replay_block_log(genesis, state.block_log).state_hash() == state.state_hash()

    def test_a_readmitted_member_commits_before_the_held_targets_end(self):
        """Carrier, re-admitted, has no ACTIVE record on SWT's ledger, so
        its step D batch leaves as soon as its own checks end, before
        Seller's target, which the ledger holds ACTIVE, ends UNCHANGED."""
        world = readmitted_carrier_world()
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert added == [("Carrier", "ACTIVE", "APPLIED")]
        assert self.outcomes(world, results) == {
            "Seller": ("DONE", "UNCHANGED"), "Carrier": ("DONE", "APPLIED"),
        }
        [request] = sends_from(world, "Buyer", "agent.countersign.request", start)
        [seller] = [
            e for e in agent_events(world, "Buyer", {"agent.sync_done"}, start)
            if e.detail["org"] == "Seller"
        ]
        assert request.tick < seller.tick

    def test_a_readmission_and_a_rotation_commit_in_two_batches(self):
        """Carrier re-admitted and Seller's STL certificates rotated before
        one SWT resync: the new Carrier commits in a batch of its own while
        the held Seller is checked, and Seller's new bundle in another.
        Seller, countersigning its own rotated bundle, checks itself afresh
        rather than answer from its stale cached copy, so both commit at
        attempt 1: with every latency fixed at 2 ticks, 22 sends and 24
        ticks (38 and 49 while that copy sent Seller's target into a retry
        round; 28 ticks while each countersigner challenged only once its
        gate read had returned, not in the same tick; 30 sends while Seller
        challenged itself, where it now judges its own presentation that
        Buyer forwards; 28 while each registry read asked two replicas, not
        the sequencer alone). At the scenario's own
        latencies the set-up's sends move the bus's seeded draws: 30 ticks
        with the two-round-trip step A, 28 with the one-round-trip one, and
        30 once no holder refreshes the witness step A gave it."""
        world = readmitted_carrier_world(fixed_latency("two-network"))
        seller = world.organizations[("STL", "Seller")]
        seller.rotate(world.bus.now)
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert sorted(added) == [("Carrier", "ACTIVE", "APPLIED"), ("Seller", "ACTIVE", "APPLIED")]
        assert self.outcomes(world, results) == {
            "Seller": ("DONE", "APPLIED"), "Carrier": ("DONE", "APPLIED"),
        }
        assert {r["attempts"] for r in results.values()} == {1}
        assert agent_events(world, "Seller", {"agent.countersign_mismatch"}, start) == []
        events = world.trace.events[start:]
        resync = next(e.tick for e in events if e.kind == "agent.resync")
        assert max(e.tick for e in events) - resync == 24
        assert sum(e.kind == "bus.send" for e in events) == 22
        state = world.ledger_state("SWT")
        assert state.get_record("STL", "Carrier").content.status == "ACTIVE"
        record = state.get_record("STL", "Seller").content
        assert (record.status, record.bundle_digest) == ("ACTIVE", seller.bundle_digest())
        assert verify_events(world.trace.events) == []
        genesis = world.ledgers["SWT"].genesis
        assert net.replay_block_log(genesis, state.block_log).state_hash() == state.state_hash()

    def test_results_list_the_targets_then_the_refuted_and_the_gone_flips(self):
        """Carrier, still listed, is refuted (`refuted_carrier_world`), and
        AnchorSTL revokes Seller from STL: SWT's resync flips Carrier in its
        round's batch and Seller, whom the fresh list lacks, in a batch of
        its own. Its results hold each target by DID, then the refuted
        holder's flip, then the gone one's."""
        world = TestCountersignGate.refuted_carrier_world()
        anchor = world.anchors["AnchorSTL"]
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(world.org_dids["Seller"], "STL")
        )
        world.settle()
        results, added = self.resync(world)
        assert list(self.outcomes(world, results).items()) == [
            ("Carrier", ("FAILED", None)),
            ("revoke:Carrier", ("DONE", "APPLIED")),
            ("revoke:Seller", ("DONE", "APPLIED")),
        ]
        assert sorted(added) == [
            ("Carrier", "REVOKED", "APPLIED"), ("Seller", "REVOKED", "APPLIED"),
        ]

    def test_unchecked_holders_send_no_revocation(self):
        """Buyer's and Seller's challenges to Seller are lost after
        two-network's syncs: Buyer's resync could not check Seller, which is
        no evidence that it was revoked, so its target fails by name and no
        REVOKED statement is sent."""
        runner = harness.ScenarioRunner(scenario_config("two-network"))
        assert runner.run().ok
        world = runner.world
        world.bus.config.rules += [
            FaultRule(action="drop", from_=f"agent:{org}", to="agent:Seller",
                      kind="agent.membership_vp.request")
            for org in ("Buyer", "Seller")
        ]
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert results == {
            world.org_dids["Seller"]: {"status": "FAILED", "error": "MemberUnreachable"},
            world.org_dids["Carrier"]: {
                "status": "DONE", "org_id": "Carrier", "outcome": "UNCHANGED", "attempts": 1,
            },
        }
        assert sends_from(world, "Buyer", "agent.countersign.request", start) == []
        assert added == []
        assert world.ledger_state("SWT").get_record("STL", "Seller").content.status == "ACTIVE"

    def test_a_rotation_whose_countersign_reply_is_lost_sends_no_revocation(self, world):
        """A failed step D is no evidence against the holder: Carrier's
        rotated bundle fails MissingCountersignature, and its record is not
        flipped."""
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        world.organizations[("STL", "Carrier")].rotate(world.bus.now)
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Buyer", kind="agent.countersign.reply")
        )
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert results[world.org_dids["Carrier"]] == {
            "status": "FAILED", "error": "MissingCountersignature"
        }
        assert "revoke:Carrier" not in results
        [request] = sends_from(world, "Buyer", "agent.countersign.request", start)
        assert agent_events(world, "Buyer", {"agent.revoke_failed"}, start) == []
        assert added == []
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.status == "ACTIVE"

    def test_a_refuted_holder_and_a_rotated_one_commit_in_one_batch(self):
        """Carrier, still listed, is refuted (`refuted_carrier_world`) and
        Seller rotates its STL certificates: the round that checks both
        sends Carrier's flip and Seller's new bundle in one step D batch."""
        world = TestCountersignGate.refuted_carrier_world()
        seller = world.organizations[("STL", "Seller")]
        seller.rotate(world.bus.now)
        start = len(world.trace.events)
        results, added = self.resync(world)
        assert sorted(added) == [("Carrier", "REVOKED", "APPLIED"), ("Seller", "ACTIVE", "APPLIED")]
        # each target by DID, then the flip
        assert list(self.outcomes(world, results).items()) == [
            ("Carrier", ("FAILED", None)),
            ("Seller", ("DONE", "APPLIED")),
            ("revoke:Carrier", ("DONE", "APPLIED")),
        ]
        [request] = sends_from(world, "Buyer", "agent.countersign.request", start)
        assert len(sends_from(world, "Buyer", "cmdac.submit", start)) == 1
        state = world.ledger_state("SWT")
        assert state.get_record("STL", "Carrier").content.status == "REVOKED"
        assert state.get_record("STL", "Seller").content.bundle_digest == seller.bundle_digest()
        assert verify_events(world.trace.events) == []

    def test_lost_records_read_fails_the_sync_before_step_d(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        world.organizations[("STL", "Carrier")].rotate(world.bus.now)
        world.bus.config.rules.append(
            FaultRule(action="drop", from_="agent:Buyer", kind="ledger.query")
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert isinstance(record.error, agent_mod.LedgerUnreachable)
        assert str(record.error) == "SWT"
        assert sends_from(world, "Buyer", "agent.countersign.request", start) == []
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.bundle_digest != (
            world.organizations[("STL", "Carrier")].bundle_digest()
        )

    def test_targeted_sync_reads_no_records_and_commits_its_target(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        carrier = world.org_dids["Carrier"]
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL", targets=(carrier,))
        assert record.error is None
        assert record.result[carrier]["outcome"] == "NOOP"
        assert sends_from(world, "Buyer", "ledger.query", start) == []
        assert len(sends_from(world, "Buyer", "cmdac.submit", start)) == 1

    def test_racing_targeted_syncs_both_submit_and_match_the_serial_oracle(self, monkeypatch):
        serial = harness.run_scenario(scenario_config("concurrent-commit-serial"))
        assert serial.ok, serial.errors
        asked = []
        serve = net.LedgerNode._query

        def recording(ledger, sender, query):
            asked.append(query.what)
            return serve(ledger, sender, query)

        monkeypatch.setattr(net.LedgerNode, "_query", recording)
        runner = harness.ScenarioRunner(scenario_config("concurrent-commit"))
        report = runner.run()
        assert report.ok, report.errors
        assert "records" not in asked
        world = runner.world
        for org in ("Buyer", "Seller"):
            assert len(sends_from(world, org, "cmdac.submit")) == 1
        log = world.ledger_state("SWT").block_log
        assert sorted(e.outcome for e in log) == ["APPLIED", "NOOP"]
        assert report.state_hashes["ledger:SWT"] == serial.state_hashes["ledger:SWT"]


class TestLedgerRecords:
    def read_records(self, world):
        buyer = world.agents["Buyer"]
        record = buyer.start_session("records", buyer._ledger_records("SWT", "STL"))
        world.settle()
        return record

    def test_records_reply_carries_each_records_content(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        expected = [r.content for r in world.ledger_state("SWT").records_for("STL")]
        assert len(expected) == 2
        assert self.read_records(world).result == tuple(expected)

    def test_undecodable_record_is_refused_by_name(self, world):
        """A records reply one of whose records does not decode does not
        decode as a whole: the agent names the decode error."""
        reply = Raw(enc.encode_list([enc.encode_bytes(b"\x00")]))
        world.ledgers["SWT"]._query = lambda sender, query: reply
        record = self.read_records(world)
        assert isinstance(record.error, agent_mod.LedgerRefused)
        assert str(record.error) == "SWT: DecodeError"


class TestUndecodableLedgerReplies:
    """A ledger reply that does not decode as its kind's record reaches the
    agent as a reply naming DecodeError, and is LedgerRefused, as any error
    reply is: it fails what needed the reply, by name, and nothing else."""

    def test_undecodable_records_fail_the_full_sync_before_step_d(self, world):
        world.ledgers["SWT"]._query = lambda sender, query: Raw(b"\x00")
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert isinstance(record.error, agent_mod.LedgerRefused)
        assert str(record.error) == "SWT: DecodeError"
        assert sends_from(world, "Buyer", "agent.countersign.request") == []

    @staticmethod
    def doctor_submit(world, change, org):
        """Pass SWT's ledger's reply to each submit that carries a statement
        for `org` through `change`."""
        ledger = world.ledgers["SWT"]
        serve = ledger._submit

        def doctored(sender, request):
            reply = serve(sender, request)
            carries = any(s.foreign_org == org for s, _ in request.statements)
            return change(reply) if carries else reply

        ledger._submit = doctored

    def test_undecodable_submit_reply_fails_only_its_target(self, world):
        """A targeted sync submits a one-statement batch: an undecodable
        reply fails its one target as LedgerRefused, and the other org's
        batch commits."""
        self.doctor_submit(world, lambda reply: Raw(b""), "Carrier")
        start = len(world.trace.events)
        seller, carrier = world.org_dids["Seller"], world.org_dids["Carrier"]
        assert run_sync(world, "Buyer", "SWT", "STL", targets=(seller,)).result == {
            seller: {"status": "DONE", "org_id": "Seller", "outcome": "APPLIED", "attempts": 1},
        }
        record = run_sync(world, "Buyer", "SWT", "STL", targets=(carrier,))
        assert record.result == {carrier: {"status": "FAILED", "error": "LedgerRefused"}}
        [failed] = agent_events(world, "Buyer", {"agent.sync_failed"}, start)
        assert (failed.detail["target"], failed.detail["detail"]) == (carrier, "SWT: DecodeError")
        assert agent_events(world, "Buyer", {"session.failed"}, start) == []

    @pytest.mark.parametrize("change, detail", [
        (lambda reply: Raw(b""), "SWT: DecodeError"),
        (lambda reply: net.Committed(reply.outcomes[:1]), "SWT: answered 1 of 2 statements"),
    ], ids=["undecodable", "too-few-outcomes"])
    def test_submit_error_reply_fails_each_target_of_its_batch_by_name(
        self, world, change, detail
    ):
        """A full sync submits both records in one batch: a reply that names
        an error, or answers another number of statements, fails each of
        its targets as LedgerRefused naming it, though the ledger judged and
        applied both."""
        self.doctor_submit(world, change, "Carrier")
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert list(record.result.values()) == [{"status": "FAILED", "error": "LedgerRefused"}] * 2
        failed = agent_events(world, "Buyer", {"agent.sync_failed"}, start)
        assert sorted(e.detail["target"] for e in failed) == sorted(
            world.org_dids[org] for org in ("Seller", "Carrier")
        )
        assert [e.detail["detail"] for e in failed] == [detail] * 2
        assert agent_events(world, "Buyer", {"agent.committed", "session.failed"}, start) == []
        assert [e.outcome for e in world.ledger_state("SWT").block_log] == ["APPLIED"] * 2


# the events that mark a sync target's phases: B validated, C fetched, D
# committed or mismatched, then the target's outcome
PHASE_EVENTS = {
    "agent.member_validated",
    "agent.identity_fetched",
    "agent.sync.digest_mismatch",
    "agent.committed",
    "agent.sync_done",
    "agent.sync_failed",
}


def two_networks_world(k):
    """Two networks of `k` orgs each, NA (NA0..) and NB (NB0..), on one IIN,
    after step A."""
    networks = {net_id: [f"{net_id}{i}" for i in range(k)] for net_id in ("NA", "NB")}
    config = harness.parse_scenario({
        "name": f"two-networks-{k}",
        "seed": 0,
        "identity_seed": 7,
        "tick_ceiling": 60_000,
        "cert_lifetime": 20_000,
        "iins": [{"id": "iin0", "nodes": 4}],
        "anchors": [
            {"name": f"Anchor{n}", "iin": "iin0", "whitelist": orgs, "represents": [n]}
            for n, orgs in networks.items()
        ],
        "networks": [
            {
                "id": n,
                "orgs": [{"name": o, "peers": 1} for o in orgs],
                "interop": [other],
                "trust": [{"iin": "iin0", "anchor": f"Anchor{other}", "network": other}],
                "pmv": f"Anchor{n}",
            }
            for (n, orgs), other in zip(networks.items(), ("NB", "NA"))
        ],
        "script": [{"step": "bootstrap"}, {"step": "step_a", "orgs": "all"}],
    })
    runner = harness.ScenarioRunner(config)
    report = runner.run()
    assert report.ok, report.errors
    return runner.world


class TestBatchedStepD:
    """Step D asks each countersigner once per round, for every statement
    of the round, and each agent reads the registry snapshot of a round's
    holders once; every check stays per statement."""

    def test_one_member_read_per_agent_per_round(self, monkeypatch):
        world = two_networks_world(4)
        reads = record_queries(monkeypatch)
        start = len(world.trace.events)
        record = run_sync(world, "NA0", "NA", "NB")
        assert record.error is None
        assert [r["status"] for r in record.result.values()] == ["DONE"] * 4
        members = sorted(world.org_dids[f"NB{i}"] for i in range(4))
        anchor = world.anchors["AnchorNB"].profile.did
        # the initiator and each countersigner read once: the gate, which
        # names the anchor's list and no holder, as the list brings its
        # members along
        assert len(reads) == 4
        for what, holders, issuers, _, _, memberlists, applied in reads:
            assert (what, holders, issuers) == (registry.QUERY_MEMBER, (), (anchor,))
            assert memberlists == ((anchor, "NB"),)
            assert applied == ()
        for org in [f"NA{i}" for i in range(4)]:
            [gate] = gates(world, org, start)
            assert gate.detail["members"] == len(members)
        requests = [
            e.detail["to"] for e in world.trace.events[start:]
            if e.kind == "bus.send" and e.detail["msg_kind"] == "agent.countersign.request"
        ]
        assert sorted(requests) == [f"agent:NA{i}" for i in range(1, 4)]

    def test_one_refused_statement_leaves_the_others_signed(self, world):
        probe = add_probe(world)
        carrier, seller = world.org_dids["Carrier"], world.org_dids["Seller"]
        digest = world.organizations[("STL", "Carrier")].bundle_digest()
        start = len(world.trace.events)
        reply = ask_countersign_batch(probe, world, [
            statement(probe, carrier, digest, "ACTIVE"),
            statement(probe, seller, digest, "ACTIVE"),  # Seller's DID presented as Carrier
        ])
        signed, refused = reply.body.results
        assert signed.result == "signed"
        assert refused == agent_mod.Answer("validation_failed", reason="OrgMismatch")
        [countersigned] = agent_events(world, "Seller", {"agent.countersigned"}, start)
        assert countersigned.detail["org"] == "Carrier"

    def test_a_refused_statement_cannot_apply_with_the_batch_signature(self, world):
        """Seller refuses one statement of a two-statement batch and signs one
        batch that lists only the other. Buyer, signing both, submits both
        with that batch, the refused one first: it is refused by name and
        changes nothing, and the signed one still applies."""
        probe = add_probe(world)
        carrier, seller = world.org_dids["Carrier"], world.org_dids["Seller"]
        bundle = world.organizations[("STL", "Carrier")].bundle_bytes()
        signed, refused = (
            statement(probe, did, crypto.digest(bundle), "ACTIVE") for did in (carrier, seller)
        )
        reply = ask_countersign_batch(probe, world, [signed, refused])
        assert [a.result for a in reply.body.results] == ["signed", "validation_failed"]
        assert reply.body.endorsed == net.Endorsed((signed.digest(),))
        both = net.Endorsed((signed.digest(), refused.digest()))
        endorsements = (
            ("Buyer", both, world.agents["Buyer"].keys.sign(both.to_bytes()).bytes_),
            ("Seller", reply.body.endorsed, reply.body.signature),
        )
        ledger = world.agents["Buyer"].config.ledgers["SWT"]
        body = net.CommitRequest(((refused, bundle), (signed, bundle)), endorsements)
        reply = ask(probe, world, ledger, "cmdac.submit", body)
        assert reply.body.outcomes == ("BadEndorsementSignature:Seller", "APPLIED")
        assert list(world.ledger_state("SWT").foreign) == ["STL/Carrier"]
        assert world.ledger_state("SWT").get_record("STL", "Carrier").content.holder_did == carrier

    @pytest.mark.parametrize("body, reason", [
        (agent_mod.Countersigned(()), "NoSignature"),
        (net.Committed("APPLIED"), "DecodeError"),
        (Raw(agent_mod.Countersigned((agent_mod.Answer("signed"),) * 2).to_bytes()[:-1]),
         "DecodeError"),
    ], ids=["too-few-results", "another-kinds-record", "truncated"])
    def test_results_of_the_wrong_shape_sign_no_statement(self, world, body, reason):
        def answer(sender, request):
            return body
            yield  # a session handler

        world.agents["Seller"]._handle_countersign = answer
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert list(record.result.values()) == [
            {"status": "FAILED", "error": "CounterpartyValidationFailed"}
        ] * 2
        failed = agent_events(world, "Buyer", {"agent.sync_failed"}, start)
        assert [e.detail["detail"] for e in failed] == [f"Seller:{reason}"] * 2
        assert agent_events(world, "Buyer", {"session.failed"}, start) == []

    def test_lost_gate_read_fails_the_sync_before_any_challenge(self, world):
        """A full sync's one read is its gate: losing it fails the sync by
        name, and no target is challenged."""
        lose_read(world, "Buyer")
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert isinstance(record.error, registry.InconsistentReplicas)
        assert gates(world, "Buyer", start) == []
        sent = [
            e.detail["msg_kind"] for e in world.trace.events[start:]
            if e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
        ]
        assert "agent.membership_vp.request" not in sent

    @staticmethod
    def ask_both_active(world):
        """Ask Seller to countersign ACTIVE commits of STL's Seller and
        Carrier in one batch; returns its answers."""
        probe = add_probe(world)
        reply = ask_countersign_batch(probe, world, [
            statement(
                probe, world.org_dids[org], world.organizations[("STL", org)].bundle_digest(),
                "ACTIVE", org=org,
            )
            for org in ("Seller", "Carrier")
        ])
        return reply.body.results

    def test_lost_gate_of_a_warm_countersigner_refuses_each_active_statement(self, world):
        """A countersigner that has not cached every holder reads, and its
        one read is the gate, which carries a fresh list: a lost gate
        refuses every ACTIVE statement, the cached holder's too."""
        assert run_sync(world, "Seller", "SWT", "STL").error is None
        seller = world.agents["Seller"]
        seller.cache.pop(("STL", world.org_dids["Carrier"]))
        lose_read(world, "Seller")
        start = len(world.trace.events)
        assert self.ask_both_active(world) == (
            agent_mod.Answer("validation_failed", reason="InconsistentReplicas"),
        ) * 2
        assert gates(world, "Seller", start) == []
        assert agent_events(world, "Seller", {"session.failed"}, start) == []

    def test_lost_merged_read_refuses_each_active_statement(self, world, monkeypatch):
        """A cold countersigner's one read, made with its memberlist fetch,
        is its gate: losing it refuses every ACTIVE statement by name."""
        lose_read(world, "Seller")
        reads = record_queries(monkeypatch)
        start = len(world.trace.events)
        assert self.ask_both_active(world) == (
            agent_mod.Answer("validation_failed", reason="InconsistentReplicas"),
        ) * 2
        [(_, holders, _, _, _, memberlists, applied)] = reads
        assert holders == () and applied == ()
        assert memberlists == ((world.anchors["AnchorSTL"].profile.did, "STL"),)
        assert agent_events(world, "Seller", {"session.failed"}, start) == []
        assert sends_from(world, "Seller", "agent.membership_vp.request", start) == []

    def test_one_submit_per_batch_with_each_orgs_endorsement_once(self, world):
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert [r["status"] for r in record.result.values()] == ["DONE"] * 2
        [submit] = sends_from(world, "Buyer", "cmdac.submit", start)
        log = world.ledger_state("SWT").block_log
        assert sorted((e.statement.foreign_org, e.outcome) for e in log) == [
            ("Carrier", "APPLIED"), ("Seller", "APPLIED"),
        ]
        # each entry keeps the batch's one endorsement per org
        assert log[0].endorsements == log[1].endorsements
        assert [org for org, _, _ in log[0].endorsements] == ["Buyer", "Seller"]
        commits = [e for e in world.trace.events[start:] if e.kind == "ledger.commit"]
        assert len({e.tick for e in commits}) == 1

    def test_lost_submit_fails_each_target_of_its_batch(self, world):
        world.bus.config.rules.append(
            FaultRule(action="drop", from_="agent:Buyer", kind="cmdac.submit")
        )
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert list(record.result.values()) == [
            {"status": "FAILED", "error": "LedgerUnreachable"}
        ] * 2
        failed = agent_events(world, "Buyer", {"agent.sync_failed"}, start)
        assert sorted(e.detail["target"] for e in failed) == sorted(
            world.org_dids[org] for org in ("Seller", "Carrier")
        )
        assert [e.detail["detail"] for e in failed] == ["SWT"] * 2
        assert agent_events(world, "Buyer", {"session.failed"}, start) == []
        assert world.ledger_state("SWT").block_log == ()

    @pytest.mark.parametrize("lost, outcome", [
        (FaultRule(action="drop", from_="agent:Buyer", kind="cmdac.submit", occurrence=1),
         "APPLIED"),
        (FaultRule(action="drop", to="agent:Buyer", kind="cmdac.reply", occurrence=1), "NOOP"),
    ], ids=["submit", "reply"])
    def test_a_batch_whose_submit_or_reply_is_lost_is_sent_once_more(
        self, world, lost, outcome
    ):
        """The resend is safe: a ledger that applied the batch before its
        reply was lost answers each statement of the resent one NOOP."""
        world.bus.config.rules.append(lost)
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert [r["status"] for r in record.result.values()] == ["DONE"] * 2
        assert len(sends_from(world, "Buyer", "cmdac.submit", start)) == 2
        log = world.ledger_state("SWT").block_log
        assert [e.outcome for e in log] == ["APPLIED"] * 2 + ["NOOP"] * 2 * (outcome == "NOOP")
        committed = agent_events(world, "Buyer", {"agent.committed"}, start)
        assert [e.detail["outcome"] for e in committed] == [outcome] * 2
        for org in ("Seller", "Carrier"):
            assert world.ledger_state("SWT").get_record("STL", org).status == "ACTIVE"

    def test_retry_round_starts_once_the_rounds_submits_have_settled(self, world):
        """Seller's mismatch on Carrier sends Carrier into a retry round while
        Seller's own record is submitted; the retry's first registry read
        goes out only after the ledger has answered that submit."""
        def mismatch_for_carrier_once(s, answer):
            if s.foreign_org != "Carrier" or mismatched:
                return answer
            mismatched.append(s)
            return agent_mod.Answer("digest_mismatch", own_digest=bytes(32))

        mismatched = []
        answering(world.agents["Seller"], mismatch_for_carrier_once)
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.result[world.org_dids["Carrier"]]["attempts"] == 2
        assert record.result[world.org_dids["Seller"]]["attempts"] == 1
        events = world.trace.events[start:]
        mismatch = next(
            i for i, e in enumerate(events) if e.kind == "agent.sync.digest_mismatch"
        )
        submit = next(
            i for i, e in enumerate(events)
            if e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
            and e.detail["msg_kind"] == "cmdac.submit"
        )
        retry_read = next(
            i for i, e in enumerate(events)
            if i > mismatch and e.kind == "bus.send" and e.detail["from"] == "agent:Buyer"
            and e.detail["msg_kind"] == "iin.query"
        )
        ledger_reply = next(
            i for i, e in enumerate(events)
            if e.kind == "bus.deliver" and e.detail["to"] == "agent:Buyer"
            and e.detail["msg_kind"] == "cmdac.reply"
        )
        assert submit < ledger_reply < retry_read


class TestOneReadPerGate:
    """Every memberlist gate is one registry read, with no anchor round
    trip: it carries the list and the document of every member the list
    names, so the checks of the holders it gates read nothing more. So it
    goes for a full sync, a targeted sync's first round, every retry round,
    a countersign batch that reads and `prefetch`."""

    @staticmethod
    def queries_before_challenge(world, org, start=0):
        """The `iin.query` sends of `org`'s agent before its first challenge."""
        sent = [
            e.detail["msg_kind"] for e in world.trace.events[start:]
            if e.kind == "bus.send" and e.detail["from"] == f"agent:{org}"
        ]
        return sent[:sent.index("agent.membership_vp.request")].count("iin.query")

    def test_countersigner_that_fetches_its_list_reads_once_and_challenges_no_one(self, world):
        """Its one read, of the sequencer, judges every forwarded presentation."""
        start = len(world.trace.events)
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        assert len(gates(world, "Seller", start)) == 1
        assert len(sends_from(world, "Seller", "iin.query", start)) == 1
        assert sends_from(world, "Seller", "agent.membership_vp.request", start) == []

    def test_full_sync_reads_once_before_its_challenges(self, world):
        """A first sync and a resync each read once: the gate's snapshot
        holds every listed member."""
        for _ in range(2):
            start = len(world.trace.events)
            buyer = world.agents["Buyer"]
            record = buyer.start_session("resync", buyer.resync("SWT", "periodic"))
            world.settle()
            assert record.error is None
            assert self.queries_before_challenge(world, "Buyer", start) == 1
            assert len(sends_from(world, "Buyer", "iin.query", start)) == 1

    def test_targeted_sync_reads_once_before_its_challenges(self):
        runner = harness.ScenarioRunner(scenario_config("concurrent-commit"))
        report = runner.run()
        assert report.ok, report.errors
        for org in ("Buyer", "Seller"):
            assert self.queries_before_challenge(runner.world, org) == 1, org

    def test_full_sync_asks_for_its_records_before_the_memberlist_arrives(self, world):
        start = len(world.trace.events)
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        events = world.trace.events[start:]
        [query] = sends_from(world, "Buyer", "ledger.query", start)
        memberlist = next(
            e for e in events
            if e.kind == "bus.deliver" and e.detail["to"] == "agent:Buyer"
            and e.detail["msg_kind"] == "iin.query.reply"
        )
        assert events.index(query) < events.index(memberlist)

    def test_two_revoked_statements_share_the_gates_read(self, world, monkeypatch):
        """Both members still validate, so Seller refuses both revocations,
        having read the registry once for its list and both re-validations."""
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        probe = add_probe(world)
        reads = record_queries(monkeypatch)
        start = len(world.trace.events)
        reply = ask_countersign_batch(probe, world, [
            statement(
                probe, world.org_dids[org],
                world.ledger_state("SWT").get_record("STL", org).content.bundle_digest,
                "REVOKED", org=org,
            )
            for org in ("Seller", "Carrier")
        ])
        assert reply.body.results == (
            agent_mod.Answer("validation_failed", reason="MemberStillValid"),
        ) * 2
        assert len(gates(world, "Seller", start)) == 1
        assert len(sends_from(world, "Seller", "agent.membership_vp.request", start)) == 2
        assert [what for what, *_ in reads] == [registry.QUERY_MEMBER]

    def test_retry_round_reads_once_before_its_challenges(self, world):
        seller = world.agents["Seller"]
        countersign = seller._handle_countersign

        def mismatch_once(sender, request):
            reply = yield from countersign(sender, request)
            if mismatched:
                return reply
            mismatched.append(request)
            answer = agent_mod.Answer("digest_mismatch", own_digest=bytes(32))
            return agent_mod.Countersigned((answer,) * len(reply.results))

        mismatched = []
        seller._handle_countersign = mismatch_once
        carrier = world.org_dids["Carrier"]
        record = run_sync(world, "Buyer", "SWT", "STL", targets=(carrier,))
        assert record.result[carrier]["attempts"] == 2
        retry = next(
            i for i, e in enumerate(world.trace.events)
            if e.kind == "agent.sync.digest_mismatch"
        )
        assert self.queries_before_challenge(world, "Buyer", retry) == 1

    def test_prefetch_reads_once(self, world, monkeypatch):
        reads = record_queries(monkeypatch)
        seller = world.agents["Seller"]
        carrier = world.org_dids["Carrier"]
        record = seller.start_session("prefetch", seller.prefetch("SWT", "STL", carrier))
        world.settle()
        assert record.error is None
        assert ("STL", carrier) in seller.cache
        assert [what for what, *_ in reads] == [registry.QUERY_MEMBER]


class TestStepA:
    def test_lost_credential_reply_is_asked_once_more(self):
        world = bootstrapped_runner(through_step_a=False).world
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Buyer", kind="anchor.vc.reply", occurrence=1)
        )
        buyer = world.agents["Buyer"]
        record = buyer.start_session("step_a", buyer.step_a())
        world.settle()
        assert record.error is None
        vc, witness = buyer.wallet["SWT"]
        anchor = world.anchors["AnchorSWT"]
        assert buyer.did in anchor.memberlists["SWT"].member_dids
        assert anchor.rosters["SWT"].members[buyer.did] == vc
        assert crypto.witness_verify(anchor.acc_state, witness)
        asked = [
            e for e in world.trace.events
            if e.kind == "bus.send" and e.detail["msg_kind"] == "anchor.vc.request"
        ]
        assert len(asked) == 2


class TestSessionBookkeeping:
    def test_phase_history_monotone_through_retry(self):
        from idplane import harness as h

        runner = h.ScenarioRunner(
            h.load_scenario(h.bundled_scenarios()["digest-mismatch-retry"])
        )
        report = runner.run()
        assert report.ok
        phases = agent_events(runner.world, "Buyer", PHASE_EVENTS)
        assert [e.kind for e in phases] == [
            "agent.member_validated",
            "agent.identity_fetched",
            "agent.sync.digest_mismatch",
            "agent.member_validated",
            "agent.identity_fetched",
            "agent.committed",
            "agent.sync_done",
        ]
        assert phases[-1].detail["attempts"] == 2

    def test_sessions_record_phase_and_digest(self, world):
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        assert record.result and all(
            r["status"] == "DONE" and r["attempts"] == 1 for r in record.result.values()
        )
        validated = agent_events(world, "Buyer", {"agent.member_validated"}, start)
        assert {e.detail["holder"] for e in validated} == set(record.result)
        fetched = {
            e.detail["org"]: e.detail["digest"]
            for e in agent_events(world, "Buyer", {"agent.identity_fetched"}, start)
        }
        state = world.ledger_state("SWT")
        assert fetched == {
            r["org_id"]: state.get_record("STL", r["org_id"]).content.bundle_digest.hex()
            for r in record.result.values()
        }

    def test_step_a_rerun_keeps_credentials_and_refreshes_witness(self, world):
        agent = world.agents["Carrier"]
        vcs_before = {k: vc.to_bytes() for k, (vc, _) in agent.wallet.items()}
        record = agent.start_session("again", agent.step_a())
        world.settle()
        assert record.error is None
        vcs_after = {k: vc.to_bytes() for k, (vc, _) in agent.wallet.items()}
        assert vcs_after == vcs_before  # same credential, no re-mint
        anchor = world.anchors["AnchorSTL"]
        _, witness = agent.wallet["STL"]
        assert crypto.witness_verify(anchor.acc_state, witness)  # fresh for current epoch

"""Trust-anchor services inside a bootstrapped world."""

import importlib.util
import itertools
import os
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from idplane import credentials as creds
from idplane import crypto, harness, registry
from idplane.actors import Reply, Request, Sleep
from idplane.agent import AgentError
from idplane.anchors import (
    AnchorError, Issued, NotAMember, VcRequest, WitnessRequest, schema_id_for,
)
from idplane.bus import FaultRule

from conftest import add_probe, bootstrapped_runner, scenario_config
from conftest import ask as request

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def assert_accumulator_published(world, anchor):
    """The anchor's accumulator is the one over its rosters' credential ids,
    each of its memberlists lists its roster, and every registry replica
    holds that state and those lists."""
    cred_ids = [
        vc.credential_id for roster in anchor.rosters.values() for vc in roster.members.values()
    ]
    state, _ = crypto.accumulator_init(anchor.profile.did, cred_ids)
    assert state.root == anchor.acc_state.root
    for network_id, roster in anchor.rosters.items():
        assert anchor.memberlists[network_id].member_dids == tuple(sorted(roster.members))
    for node in world.iin_nodes[anchor.pool.iin_id]:
        assert node.state.revocation[anchor.profile.did] == anchor.acc_state
        for network_id, memberlist in anchor.memberlists.items():
            assert node.state.memberlists[(anchor.profile.did, network_id)] == memberlist


class TestVerinymRegistration:
    def test_whitelisted_orgs_got_verinyms(self, world):
        node = world.iin_nodes["iin0"][0]
        for org in ("Seller", "Buyer", "Carrier"):
            did = world.org_dids[org]
            assert node.state.verinym_status(did), org

    def test_unwhitelisted_key_is_rejected_without_any_transaction(self):
        world = bootstrapped_runner(through_step_a=False).world
        anchor = world.anchors["AnchorSWT"]
        del anchor.profile.evidence_whitelist["Buyer"]  # eligible, but not vouched for
        start = len(world.trace.events)
        record = ask_vc(world, anchor, "Buyer")
        world.settle()
        assert record.result == "EvidenceMismatch"
        assert anchor_sends(world, anchor, {"iin.query", "iin.submit"}, start) == []

    @pytest.mark.parametrize("changes", [
        {"verification_keys": (crypto.KeyPair.from_seed(b"\x37" * 32).public_key,)},
        {"did": registry.make_did("iin0", crypto.KeyPair.from_seed(b"\x37" * 32).public_key)},
        {"verification_keys": ()},
    ], ids=["another-key", "another-did", "no-key"])
    def test_a_document_that_fails_vetting_is_refused_by_name_and_writes_nothing(
        self, changes
    ):
        """The anchor checks a document as the registry would check its NYM,
        against the key its whitelist holds for the holder's org: a bad one
        is refused by name, and no transaction leaves the anchor."""
        world = bootstrapped_runner(through_step_a=False).world
        anchor = world.anchors["AnchorSWT"]
        start = len(world.trace.events)
        record = ask_vc(world, anchor, "Buyer", **changes)
        world.settle()
        assert record.result == "EvidenceMismatch"
        assert anchor_sends(world, anchor, {"iin.submit"}, start) == []
        assert world.org_dids["Buyer"] not in world.iin_nodes["iin0"][0].state.docs

    def test_reregistration_writes_no_second_nym(self, world):
        """A re-run step A carries the document the registry already holds:
        the anchor writes no NYM for it, and no registry batch at all."""
        agent = world.agents["Buyer"]
        start = len(world.trace.events)
        record = agent.start_session("again", agent.step_a())
        world.settle()
        assert record.error is None
        assert anchor_sends(world, world.anchors["AnchorSWT"], {"iin.submit"}, start) == []
        assert logged_nyms(world, agent.did) == [1] * 4

    def test_a_step_a_whose_credential_reply_is_lost_registers_once(self):
        """Buyer's first credential reply is lost: step A asks once more,
        with the same document, and the anchor answers from the credential
        it issued, writing neither the NYM nor the credential again."""
        world = bootstrapped_runner(through_step_a=False).world
        world.bus.config.rules.append(FaultRule(
            action="drop", to="agent:Buyer", kind="anchor.vc.reply", occurrence=1
        ))
        agent, anchor = world.agents["Buyer"], world.anchors["AnchorSWT"]
        start = len(world.trace.events)
        record = agent.start_session("step_a", agent.step_a())
        world.settle()
        assert record.error is None, record.error
        assert [e.kind for e in world.trace.events if e.kind == "bus.drop"] == ["bus.drop"]
        # the NYM and the credential in one batch; the repeat writes nothing
        assert anchor_sends(world, anchor, {"iin.submit"}, start) == ["iin.submit"]
        assert anchor.acc_state.epoch == 1
        assert agent.wallet["SWT"][0] == anchor.rosters["SWT"].members[agent.did]
        assert logged_nyms(world, agent.did) == [1] * 4
        assert world.iin_nodes["iin0"][0].state.verinym_status(agent.did)

    def test_conflicting_reregistration_is_refused_as_a_stale_epoch(self, world):
        """A document at the stored version whose content differs is no
        duplicate: the registry refuses it and no replica changes. Carrier,
        revoked from STL, asks to rejoin with it: it gets no credential, and
        the accumulator and the roster stay as they were."""
        anchor = world.anchors["AnchorSTL"]
        carrier = world.org_dids["Carrier"]
        anchor.enqueue_serialized("revoke", lambda: anchor.revoke_membership(carrier, "STL"))
        world.settle()
        epoch, memberlist = anchor.acc_state.epoch, anchor.memberlists["STL"]
        record = ask_vc(world, anchor, "Carrier", service_endpoint="agent:Elsewhere")
        world.settle()
        assert record.result == "StaleEpoch"
        assert (anchor.acc_state.epoch, anchor.memberlists["STL"]) == (epoch, memberlist)
        assert carrier not in anchor.rosters["STL"].members
        for node in world.iin_nodes["iin0"]:
            assert node.state.docs[carrier].service_endpoint == "agent:Carrier"
            assert node.state.revocation[anchor.profile.did].epoch == epoch
        assert_accumulator_published(world, anchor)


class TestMembershipIssuance:
    def test_issuance_bumped_epoch_and_roster(self, world):
        anchor = world.anchors["AnchorSTL"]
        assert anchor.acc_state.epoch == 2  # Carrier + Seller joined STL
        roster = anchor.rosters["STL"]
        assert set(roster.members) == {world.org_dids["Carrier"], world.org_dids["Seller"]}
        assert anchor.memberlists["STL"].roster_version == 2

    def test_roster_accumulator_coherence(self, world):
        for anchor in world.anchors.values():
            assert_accumulator_published(world, anchor)

    def test_duplicate_issue_returns_same_credential_no_epoch_bump(self, world):
        anchor = world.anchors["AnchorSWT"]
        agent = world.agents["Buyer"]
        vc_before, _ = agent.wallet["SWT"]
        epoch_before = anchor.acc_state.epoch
        record = agent.start_session("again", agent.step_a())
        world.settle()
        assert record.error is None
        vc_after, witness_after = agent.wallet["SWT"]
        assert vc_after.credential_id == vc_before.credential_id
        assert anchor.acc_state.epoch == epoch_before
        assert crypto.witness_verify(anchor.acc_state, witness_after)

    def test_registry_mirror_matches_anchor_accumulator(self, world):
        anchor = world.anchors["AnchorSTL"]
        node = world.iin_nodes["iin0"][0]
        mirrored = node.state.revocation[anchor.profile.did]
        assert mirrored == anchor.acc_state


class TestMemberlist:
    def fetch_memberlist(self, world, anchor_name, network_id):
        probe = add_probe(world, address=f"probe:{anchor_name}:{network_id}")
        nonce = os.urandom(16)
        reply = request(
            probe, world, f"anchor:{anchor_name}", "anchor.memberlist.request",
            creds.Challenge(network_id, nonce), timeout=200,
        )
        return reply, nonce

    def test_memberlist_vp_lists_roster(self, world):
        reply, nonce = self.fetch_memberlist(world, "AnchorSTL", "STL")
        assert reply.error == ""
        vp = creds.VerifiablePresentation.from_bytes(reply.body.vp)
        anchor = world.anchors["AnchorSTL"]
        node = world.iin_nodes["iin0"][0]
        payload = creds.verify_self_signed_vp(
            vp, nonce, node.state.docs[anchor.profile.did], True
        )
        memberlist = creds.MemberlistCredential.from_bytes(payload)
        assert memberlist.network_id == "STL"
        assert set(memberlist.member_dids) == {
            world.org_dids["Carrier"], world.org_dids["Seller"]
        }
        assert memberlist.roster_version == 2

    def test_empty_roster_memberlist_still_verifiable(self):
        runner = bootstrapped_runner(through_step_a=False)
        world = runner.world
        reply, nonce = self.fetch_memberlist(world, "AnchorSWT", "SWT")
        assert reply.error == ""
        vp = creds.VerifiablePresentation.from_bytes(reply.body.vp)
        anchor = world.anchors["AnchorSWT"]
        node = world.iin_nodes["iin0"][0]
        payload = creds.verify_self_signed_vp(
            vp, nonce, node.state.docs[anchor.profile.did], True
        )
        memberlist = creds.MemberlistCredential.from_bytes(payload)
        assert memberlist.member_dids == ()
        assert memberlist.roster_version == 0

    def test_registry_holds_each_list_from_bootstrap_on(self):
        """The epoch-0 revocation init carries each represented network's
        empty list, so a reader finds a list before any issuance."""
        world = bootstrapped_runner(through_step_a=False).world
        assert world.anchors["AnchorSWT"].memberlists["SWT"].member_dids == ()
        for anchor in world.anchors.values():
            assert_accumulator_published(world, anchor)

    def test_unrepresented_network_refused(self, world):
        reply, _ = self.fetch_memberlist(world, "AnchorSTL", "SWT")
        assert reply == Reply("NotRepresented")


class TestIssuanceGates:
    def test_no_issuance_without_verinym(self):
        # bootstrap only: the orgs are eligible but have no registered DIDs yet
        runner = bootstrapped_runner(through_step_a=False)
        world = runner.world
        reply = request(
            add_probe(world), world, "anchor:AnchorSWT", "anchor.vc.request",
            VcRequest(world.org_dids["Buyer"], "SWT"),
        )
        assert reply == Reply("NoVerinym")

    def test_unreadable_registry_is_named_in_step_a(self):
        runner = bootstrapped_runner(through_step_a=False)
        world = runner.world
        world.bus.config.rules.append(
            FaultRule(action="drop", to="anchor:AnchorSWT", kind="iin.query.reply")
        )
        agent = world.agents["Buyer"]
        start = world.bus.now
        record = agent.start_session("step_a", agent.step_a())
        world.settle()
        assert isinstance(record.error, AgentError)
        assert str(record.error) == "InconsistentReplicas"
        failed = next(
            e for e in world.trace.events
            if e.kind == "session.failed" and e.detail["label"] == "step_a"
        )
        assert failed.tick - start < 600 // 2  # step A waits 600 for the credential

    def test_unrepresented_network_refused(self, world):
        reply = request(
            add_probe(world), world, "anchor:AnchorSWT", "anchor.vc.request",
            VcRequest(world.org_dids["Carrier"], "STL"),
        )
        assert reply == Reply("NotRepresented")

    def test_ineligible_holder_refused(self, world):
        # Carrier has a verinym but is not on SWT's eligibility roster
        reply = request(
            add_probe(world), world, "anchor:AnchorSWT", "anchor.vc.request",
            VcRequest(world.org_dids["Carrier"], "SWT"),
        )
        assert reply == Reply("NotEligible")


class TestCredentialDefinitionOwnership:
    def test_anchor_cannot_publish_a_definition_in_another_anchors_name(self, world):
        swt, stl = world.anchors["AnchorSWT"], world.anchors["AnchorSTL"]
        forged = creds.CredentialDefinition(
            cred_def_id="creddef:forged",
            schema_id=schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME),
            issuer_did=stl.profile.did,
            authentication_public_key=swt.keys.public_key,
        )
        batch = registry.sign_batch(swt.keys, registry.RegistryTransaction(
            registry.KIND_CRED_DEF, forged.to_bytes(), swt.profile.did
        ))
        record = swt.start_session("forge", registry.submit_transaction(swt.pool, batch))
        world.settle()
        assert record.result.outcomes == ("UnauthorizedRole",)
        for node in world.iin_nodes[swt.pool.iin_id]:
            assert "creddef:forged" not in node.state.cred_defs

    def test_rejected_definition_fails_publication(self, world):
        anchor = world.anchors["AnchorSWT"]  # its definitions are already registered
        record = anchor.start_session("republish", anchor.publish_artifacts())
        world.settle()
        assert isinstance(record.error, AnchorError)
        assert str(record.error) == "credential definition rejected: Duplicate"


class TestMemberlistFreshness:
    def test_agent_rejects_roster_version_rollback(self, world):
        agent = world.agents["Buyer"]
        record = agent.start_session(
            "ml", agent._fetch_memberlist("SWT", "STL")
        )
        world.settle()
        assert record.error is None
        memberlist, _ = record.result
        fresh_version = memberlist.roster_version
        # a registry that serves an older roster than previously observed
        # (every replica rolled back, so the read still agrees) is stale
        anchor = world.anchors["AnchorSTL"]
        rolled_back = creds.issue_memberlist_credential(
            anchor.keys,
            anchor.profile.did,
            anchor.memberlist_cred_def_id,
            "STL",
            (),
            roster_version=fresh_version - 1,
        )
        for node in world.iin_nodes["iin0"]:
            lists = {**node.state.memberlists, (anchor.profile.did, "STL"): rolled_back}
            node.state = replace(node.state, memberlists=lists)
        record = agent.start_session("ml2", agent._fetch_memberlist("SWT", "STL"))
        world.settle()
        from idplane.agent import StaleMemberlist

        assert isinstance(record.error, StaleMemberlist)


class TestRevocation:
    def test_revoke_bumps_epoch_and_updates_roster(self, world):
        anchor = world.anchors["AnchorSTL"]
        carrier_did = world.org_dids["Carrier"]
        epoch_before = anchor.acc_state.epoch
        version_before = anchor.memberlists["STL"].roster_version
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(carrier_did, "STL")
        )
        world.settle()
        assert anchor.acc_state.epoch == epoch_before + 1
        assert carrier_did not in anchor.rosters["STL"].members
        assert_accumulator_published(world, anchor)
        assert anchor.memberlists["STL"].roster_version == version_before + 1

    def test_outstanding_witnesses_invalidated_then_refreshable_for_survivors(self, world):
        anchor = world.anchors["AnchorSTL"]
        carrier_did = world.org_dids["Carrier"]
        seller_agent = world.agents["Seller"]
        _, seller_witness = seller_agent.wallet["STL"]
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(carrier_did, "STL")
        )
        world.settle()
        assert not crypto.witness_verify(anchor.acc_state, seller_witness)
        # survivor refreshes; the revoked holder is refused
        probe = add_probe(world)
        seller_vc, _ = seller_agent.wallet["STL"]
        carrier_vc, _ = world.agents["Carrier"].wallet["STL"]
        results = {}

        def ask(tag, cred_id):
            results[tag] = yield Request(
                "anchor:AnchorSTL", "anchor.witness.request", WitnessRequest(cred_id), timeout=200,
            )

        probe.start_session("s", ask("seller", seller_vc.credential_id))
        probe.start_session("c", ask("carrier", carrier_vc.credential_id))
        world.settle()
        assert results["seller"].error == ""
        assert crypto.witness_verify(anchor.acc_state, results["seller"].body.witness)
        assert results["carrier"] == Reply("NotAMember")

    def test_revoking_non_member_raises(self, world):
        anchor = world.anchors["AnchorSTL"]
        buyer_did = world.org_dids["Buyer"]  # Buyer is not an STL member
        records = {}

        def capture():
            try:
                yield from anchor.revoke_membership(buyer_did, "STL")
            except NotAMember as e:
                records["error"] = e
                return

        anchor.enqueue_serialized("revoke", capture)
        world.settle()
        assert isinstance(records["error"], NotAMember)

    def test_failed_serialized_op_does_not_block_the_next(self, world):
        anchor = world.anchors["AnchorSTL"]
        buyer_did = world.org_dids["Buyer"]  # not an STL member: the op raises
        carrier_did = world.org_dids["Carrier"]
        epoch_before = anchor.acc_state.epoch
        version_before = anchor.memberlists["STL"].roster_version
        first_event = len(world.trace.events)
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(buyer_did, "STL")
        )
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(carrier_did, "STL")
        )
        world.settle()
        kinds = [
            (e.kind, e.detail.get("error") or e.detail.get("holder"))
            for e in world.trace.events[first_event:]
            if e.actor == anchor.address and e.kind in ("session.failed", "anchor.revoked")
        ]
        assert kinds == [("session.failed", "NotAMember"), ("anchor.revoked", carrier_did)]
        assert anchor.acc_state.epoch == epoch_before + 1
        assert anchor.memberlists["STL"].roster_version == version_before + 1
        assert carrier_did not in anchor.rosters["STL"].members

    def test_revoke_then_reissue_mints_fresh_credential_id(self, world):
        anchor = world.anchors["AnchorSTL"]
        carrier = world.agents["Carrier"]
        old_vc, _ = carrier.wallet["STL"]
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(carrier.did, "STL")
        )
        world.settle()
        record = carrier.start_session("rejoin", carrier.step_a())
        world.settle()
        assert record.error is None
        new_vc, new_witness = carrier.wallet["STL"]
        assert new_vc.credential_id != old_vc.credential_id
        assert crypto.witness_verify(anchor.acc_state, new_witness)


class TestLostRevocationReceipt:
    """An update the registry applied stays applied for the anchor even when
    its receipt is lost: the anchor reads back whether the registry applied
    its transaction."""

    def test_lost_receipt_of_an_applied_issuance_keeps_members_valid(self, tmp_path):
        raw = yaml.safe_load(
            (harness.SCENARIO_DIR / "two_network.yaml").read_text(encoding="utf-8")
        )
        # after bootstrap AnchorSWT's first write is a NYM and its first REVOC_UPDATE
        raw["script"].insert(1, {
            "step": "fault", "action": "drop", "to": "anchor:AnchorSWT",
            "kind": "iin.submit.reply", "occurrence": 1,
        })
        path = tmp_path / "lost-receipt.yaml"
        path.write_text(yaml.safe_dump(raw))
        runner = harness.ScenarioRunner(harness.load_scenario(path))
        report = runner.run()
        world = runner.world
        anchor = world.anchors["AnchorSWT"]
        updates = [
            e.tick for e in world.trace.events
            if e.kind == "registry.commit" and e.actor == anchor.pool.sequencer
            and e.detail["submitter"] == anchor.profile.did
            and e.detail["tx_kind"] == registry.KIND_REVOC_UPDATE
        ]
        dropped = [e for e in world.trace.events if e.kind == "bus.drop"]
        assert len(dropped) == 1 and updates[0] <= dropped[0].tick < updates[1]
        assert report.ok, (report.errors, [a for a in report.assertions if not a.ok])
        assert any(
            e.kind == "agent.member_validated" and e.actor == "agent:Carrier"
            and e.detail["holder"] == world.org_dids["Buyer"]
            for e in world.trace.events
        )
        assert_accumulator_published(world, anchor)

    def test_lost_receipt_of_an_applied_revocation_completes_it(self, world):
        anchor = world.anchors["AnchorSTL"]
        carrier_did = world.org_dids["Carrier"]
        world.bus.config.rules.append(
            FaultRule(action="drop", to=anchor.address, kind="iin.submit.reply")
        )
        anchor.enqueue_serialized("revoke", lambda: anchor.revoke_membership(carrier_did, "STL"))
        world.settle()
        assert carrier_did not in anchor.rosters["STL"].members
        assert_accumulator_published(world, anchor)

    def test_lost_submission_still_fails_the_revocation(self, world):
        anchor = world.anchors["AnchorSTL"]
        carrier_did = world.org_dids["Carrier"]
        epoch_before = anchor.acc_state.epoch
        world.bus.config.rules.append(
            FaultRule(action="drop", from_=anchor.address, kind="iin.submit")
        )
        record = anchor.start_session("revoke", anchor.revoke_membership(carrier_did, "STL"))
        world.settle()
        assert isinstance(record.error, registry.QuorumUnavailable)
        assert anchor.acc_state.epoch == epoch_before
        assert carrier_did in anchor.rosters["STL"].members
        assert_accumulator_published(world, anchor)


class TestLostVerinymReceipt:
    """A NYM the registry applied is registered for the anchor even when its
    receipt is lost: the anchor reads the NYM's transaction digest back from
    the registry's applied set."""

    def test_lost_receipt_of_an_applied_nym_keeps_step_a(self, tmp_path):
        raw = yaml.safe_load(
            (harness.SCENARIO_DIR / "two_network.yaml").read_text(encoding="utf-8")
        )
        # the first write after bootstrap is an SWT org's NYM and credential
        raw["script"].insert(1, {
            "step": "fault", "action": "drop", "from": "iin:iin0:0",
            "to": "anchor:AnchorSWT", "kind": "iin.submit.reply", "occurrence": 1,
        })
        path = tmp_path / "lost-nym-receipt.yaml"
        path.write_text(yaml.safe_dump(raw))
        runner = harness.ScenarioRunner(harness.load_scenario(path))
        report = runner.run()
        world = runner.world
        dropped = [e for e in world.trace.events if e.kind == "bus.drop"]
        assert len(dropped) == 1
        assert not [e for e in report.errors if e.startswith("step_a")], report.errors
        assert report.ok, (report.errors, [a for a in report.assertions if not a.ok])
        record = world.ledger_state("STL").get_record("SWT", "Buyer")
        assert record is not None and record.content.status == "ACTIVE"


class TestLostBootstrapReceipt:
    """The steward's bootstrap and an anchor's publication write through the
    one registry write path: a lost receipt is read back from the registry's
    applied set, so neither fails the run."""

    @staticmethod
    def bootstrap_losing_receipt(to):
        """Two-network's bootstrap with the first receipt sent to `to` lost."""
        runner = harness.ScenarioRunner(scenario_config("two-network"))
        world = runner.world
        world.bus.config.rules.append(
            FaultRule(action="drop", to=to, kind="iin.submit.reply", occurrence=1)
        )
        runner._execute(0, {"step": "bootstrap"})
        assert not runner.report.errors, runner.report.errors
        [dropped] = [e for e in world.trace.events if e.kind == "bus.drop"]
        assert (dropped.detail["to"], dropped.detail["msg_kind"]) == (to, "iin.submit.reply")
        return world

    def test_lost_receipt_of_the_bootstrap_completes_it(self):
        world = self.bootstrap_losing_receipt("steward:iin0")
        done = [e.actor for e in world.trace.events if e.kind == "steward.bootstrap_complete"]
        assert done == ["steward:iin0"]
        for anchor in world.anchors.values():
            assert_accumulator_published(world, anchor)

    def test_lost_receipt_of_a_publication_adopts_the_epoch_0_state(self):
        world = self.bootstrap_losing_receipt("anchor:AnchorSWT")
        anchor = world.anchors["AnchorSWT"]
        assert anchor.acc_state.epoch == 0
        assert set(anchor.memberlists) == set(anchor.profile.represented_networks)
        assert_accumulator_published(world, anchor)


def two_networks_runner(k: int):
    """The benchmark's world of two networks of `k` orgs each, one anchor per
    network, after bootstrap and step A."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", SCENARIOS)
    sc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sc)
    runner = harness.ScenarioRunner(sc.config(sc.two_networks(f"group-commit-{k}", k)))
    runner._execute(0, {"step": "bootstrap"})
    start = runner.world.bus.now
    runner._execute(1, {"step": "step_a", "orgs": "all"})
    assert not runner.report.errors, runner.report.errors
    return runner, runner.world.bus.now - start


def ask(anchor, kind, body):
    """Start one request's handler on `anchor` now, as its runtime does when
    the request is delivered; the session's result is the reply body, or
    the error it names."""
    handler, *_ = anchor.REQUESTS[kind]
    return anchor.start_session(kind, getattr(anchor, handler)("probe", body))


def timed_ask(world, anchor, body, ticks):
    """`ask` for a credential; `ticks["answered"]` is the tick of its reply."""

    def asking():
        reply = yield from anchor._issue_membership("probe", body)
        ticks["answered"] = world.bus.now
        return reply

    return anchor.start_session("anchor.vc.request", asking())


def hold(anchor, ticks=5):
    """Keep `anchor`'s queue busy for `ticks`, so that the requests asked
    next wait and go out as one batch."""

    def busy():
        yield Sleep(ticks)

    anchor.enqueue_serialized("hold", busy)


def ask_vc(world, anchor, org, **changes):
    """Ask `anchor` for `org`'s credential of the network it represents,
    with the document `org`'s agent registers in step A, `changes` made to
    it, as the org asks its identity validator."""
    agent = world.agents[org]
    doc = registry.new_did_document(agent.pool.iin_id, agent.keys, agent.address)
    (network,) = anchor.profile.represented_networks
    body = VcRequest(agent.did, network, (replace(doc, **changes),))
    return ask(anchor, "anchor.vc.request", body)


def logged_nyms(world, did) -> list[int]:
    """How many NYMs of `did` each registry replica's log holds."""
    return [
        sum(
            tx.kind == registry.KIND_NYM and registry.DidDocument.from_bytes(tx.payload).did == did
            for entry in node.log for tx in entry.batch.txs
        )
        for node in world.iin_nodes["iin0"]
    ]


def anchor_sends(world, anchor, kinds, since=0):
    return [
        e.detail["msg_kind"] for e in world.trace.events[since:]
        if e.kind == "bus.send" and e.detail["from"] == anchor.address
        and e.detail["msg_kind"] in kinds
    ]


class TestGroupCommit:
    """While one registry write is in flight, an anchor's credential
    requests queue; the next write takes all of them at once."""

    @pytest.mark.parametrize("k", [8, 16])
    def test_two_networks_set_up_with_seven_submits(self, k):
        runner, step_a_ticks = two_networks_runner(k)
        world = runner.world
        submits = [
            e for e in world.trace.events
            if e.kind == "bus.send" and e.detail["msg_kind"] == "iin.submit"
        ]
        # the bootstrap, two publications, then per anchor a first NYM and
        # credential alone, and the rest as one batch
        assert len(submits) == 7
        assert step_a_ticks <= 40  # 32 and 30; 48 and 45 with a verinym round trip first
        for anchor in world.anchors.values():
            assert anchor.acc_state.epoch == 2
            assert all(len(roster.members) == k for roster in anchor.rosters.values())
            assert_accumulator_published(world, anchor)

    def test_a_whitelist_mismatch_fails_alone(self):
        world = bootstrapped_runner(through_step_a=False).world
        anchor = world.anchors["AnchorSWT"]
        node = world.iin_nodes["iin0"][0]
        mallory = crypto.KeyPair.from_seed(b"\x13" * 32)
        start = len(world.trace.events)
        hold(anchor)
        seller = ask_vc(world, anchor, "Seller")
        lying = ask_vc(world, anchor, "Buyer", verification_keys=(mallory.public_key,))
        buyer = ask_vc(world, anchor, "Buyer")
        world.settle()
        assert lying.result == "EvidenceMismatch"
        for record, org in ((seller, "Seller"), (buyer, "Buyer")):
            assert (record.result.already_member, org) == (0, org)
            assert node.state.verinym_status(world.org_dids[org]), org
        assert anchor.acc_state.epoch == 1
        assert anchor_sends(world, anchor, {"iin.submit"}, start) == ["iin.submit"]
        mismatches = [
            e.detail["org"] for e in world.trace.events[start:]
            if e.kind == "anchor.evidence_mismatch"
        ]
        assert mismatches == ["Buyer"]

    def test_a_repeated_credential_request_in_one_batch_is_already_member(self):
        world = bootstrapped_runner(through_step_a=False).world
        anchor = world.anchors["AnchorSWT"]
        buyer_did = world.org_dids["Buyer"]
        start = len(world.trace.events)
        hold(anchor)
        first, second = (ask_vc(world, anchor, "Buyer") for _ in range(2))
        world.settle()
        assert (first.result.already_member, second.result.already_member) == (0, 1)
        assert first.result.vc == second.result.vc
        assert anchor.acc_state.epoch == 1
        for record in (first, second):
            assert crypto.witness_verify(anchor.acc_state, record.result.witness)
        # one read, of the sequencer alone, and one submit, with one NYM,
        # serve both requests
        assert sorted(anchor_sends(world, anchor, {"iin.query", "iin.submit"}, start)) == [
            "iin.query", "iin.submit"
        ]
        assert logged_nyms(world, buyer_did) == [1] * 4
        issued = [e for e in world.trace.events[start:] if e.kind == "anchor.vc_issued"]
        assert [e.detail["holder"] for e in issued] == [buyer_did]

    def test_a_revocation_runs_between_the_batch_in_flight_and_the_next(self, world):
        anchor = world.anchors["AnchorSTL"]
        seller_did, carrier_did = world.org_dids["Seller"], world.org_dids["Carrier"]
        epoch = anchor.acc_state.epoch
        start = len(world.trace.events)
        before = ask(anchor, "anchor.vc.request", VcRequest(seller_did, "STL"))
        anchor.enqueue_serialized("revoke", lambda: anchor.revoke_membership(carrier_did, "STL"))
        after = [
            ask(anchor, "anchor.vc.request", VcRequest(seller_did, "STL"))
            for _ in range(2)
        ]
        world.settle()
        # the batch in flight is answered once the revocation queued behind
        # it has ended, so its witness is at the revocation's epoch too
        # (epoch, epoch + 1, epoch + 1 while it was answered at its own end)
        epochs = [r.result.witness.epoch for r in (before, *after)]
        assert epochs == [epoch + 1] * 3
        # a read, the revocation's update, then one read for both later requests
        sends = anchor_sends(world, anchor, {"iin.query", "iin.submit"}, start)
        assert [kind for kind, _ in itertools.groupby(sends)] == [
            "iin.query", "iin.submit", "iin.query"
        ]
        assert sends.count("iin.query") == 2  # two reads of the sequencer alone
        assert carrier_did not in anchor.rosters["STL"].members

    @pytest.mark.parametrize("name", sorted(harness.bundled_scenarios()))
    def test_step_a_leaves_every_witness_at_its_anchors_epoch(self, name):
        """After step A each wallet's witness is at its anchor's epoch,
        unless every epoch step since came from a request that reached the
        anchor after the holder's reply had left: a reply waits for no later
        arrival. In two-network and revoke-carrier that is Buyer's SWT
        witness, as Seller asks AnchorSWT only once its STL credential is
        in."""
        world = bootstrapped_runner(name).world
        events = world.trace.events
        anchors = {anchor.profile.did: anchor for anchor in world.anchors.values()}
        orgs = {did: org for org, did in world.org_dids.items()}
        wallets = [
            (org, vc, witness)
            for org, agent in world.agents.items()
            for vc, witness in agent.wallet.values()
        ]
        assert wallets
        for org, vc, witness in wallets:
            anchor = anchors[vc.issuer_did]
            if witness.epoch == anchor.acc_state.epoch:
                assert crypto.witness_verify(anchor.acc_state, witness), org
                continue
            replied = max(
                e.tick for e in events if e.kind == "bus.send" and e.actor == anchor.address
                and e.detail["to"] == f"agent:{org}" and e.detail["msg_kind"] == "anchor.vc.reply"
            )
            later = [
                orgs[e.detail["holder"]] for e in events
                if e.kind == "anchor.vc_issued" and e.actor == anchor.address
                and e.detail["epoch"] > witness.epoch
            ]
            assert later, org
            for holder in later:
                asked = min(
                    e.tick for e in events if e.kind == "bus.deliver"
                    and e.detail["to"] == anchor.address and e.detail["from"] == f"agent:{holder}"
                    and e.detail["msg_kind"] == "anchor.vc.request"
                )
                assert asked > replied, (org, holder)

    def test_a_reply_waits_for_the_writes_queued_behind_its_batch_only(self, world):
        """Seller's request goes out as a batch at once; a write queued while
        that batch is in flight holds the reply until it has ended, and one
        queued after the batch has ended does not."""
        anchor = world.anchors["AnchorSTL"]
        ticks = {}

        def write(name, then=None):
            def op():
                yield Sleep(1)
                if then is not None:
                    anchor.enqueue_serialized(then, write(then))
                yield Sleep(10)
                ticks[name] = world.bus.now
            return op

        record = timed_ask(world, anchor, VcRequest(world.org_dids["Seller"], "STL"), ticks)
        anchor.enqueue_serialized("behind", write("behind", then="later"))
        world.settle()
        assert isinstance(record.result, Issued)
        assert ticks["behind"] == ticks["answered"] < ticks["later"]

    def test_an_op_that_queues_the_next_at_once_runs_before_it(self, world):
        """A serialized op that queues the next one before its first wait
        still runs alone: the next starts only once it has ended."""
        anchor = world.anchors["AnchorSTL"]
        spans = {}

        def write(name, then=None):
            def op():
                if then is not None:
                    anchor.enqueue_serialized(then, write(then))
                start = world.bus.now
                yield Sleep(10)
                spans[name] = (start, world.bus.now)
            return op

        anchor.enqueue_serialized("first", write("first", then="second"))
        world.settle()
        (_, first_end), (second_start, _) = spans["first"], spans["second"]
        assert first_end <= second_start

    def test_a_holder_revoked_behind_its_batch_keeps_the_write_time_witness(self, world):
        """Carrier asks again, and its revocation is queued while that batch
        is in flight: the reply waits for the revocation and carries the
        witness made at write time, and a challenge refutes it by check 6."""
        anchor = world.anchors["AnchorSTL"]
        carrier = world.org_dids["Carrier"]
        epoch = anchor.acc_state.epoch
        buyer = world.agents["Buyer"]
        fetch = buyer.start_session("fetch", buyer._fetch_memberlist("SWT", "STL"))
        world.settle()
        memberlist, _ = fetch.result  # listing Carrier
        ticks = {}
        record = timed_ask(world, anchor, VcRequest(carrier, "STL"), ticks)
        anchor.enqueue_serialized("revoke", lambda: anchor.revoke_membership(carrier, "STL"))
        world.settle()
        [revoked] = [e.tick for e in world.trace.events if e.kind == "anchor.revoked"]
        assert ticks["answered"] == revoked
        assert (record.result.already_member, record.result.witness.epoch) == (1, epoch)
        assert anchor.acc_state.epoch == epoch + 1
        world.agents["Carrier"].wallet["STL"] = (record.result.vc, record.result.witness)
        validate = buyer.start_session(
            "validate", buyer._validate_member("SWT", "STL", carrier, memberlist)
        )
        world.settle()
        assert isinstance(validate.error, creds.MembershipVerificationError)
        assert validate.error.check == creds.CHECK_REVOCATION

    def test_lost_receipt_of_an_applied_batch_applies_every_request(self, monkeypatch):
        world = bootstrapped_runner(through_step_a=False).world
        anchor = world.anchors["AnchorSWT"]
        buyer_did, seller_did = world.org_dids["Buyer"], world.org_dids["Seller"]
        reads = []
        resolve_member = registry.resolve_member

        def recording(pool, holders, issuers, *rest, applied=(), **kw):
            reads.append((tuple(holders), tuple(issuers), applied))
            return (yield from resolve_member(pool, holders, issuers, *rest, applied=applied, **kw))

        monkeypatch.setattr(registry, "resolve_member", recording)
        world.bus.config.rules.append(
            FaultRule(action="drop", to=anchor.address, kind="iin.submit.reply")
        )
        hold(anchor)
        seller = ask_vc(world, anchor, "Seller")
        buyer = ask_vc(world, anchor, "Buyer")
        world.settle()
        # the holders' document read, then the recovery read of the batch's
        # transaction digests, which names nothing else
        lost = world.iin_nodes["iin0"][0].log[-1].batch.txs
        assert [tx.kind for tx in lost] == [registry.KIND_NYM] * 2 + [registry.KIND_REVOC_UPDATE]
        assert reads == [
            ((seller_did, buyer_did), (), ()), ((), (), tuple(tx.digest() for tx in lost))
        ]
        for record, did in ((seller, seller_did), (buyer, buyer_did)):
            assert isinstance(record.result, Issued)
            assert did in anchor.rosters["SWT"].members
            assert world.iin_nodes["iin0"][0].state.verinym_status(did)
        assert_accumulator_published(world, anchor)

    def test_lost_receipt_with_one_payload_missing_fails_only_its_request(self):
        world = bootstrapped_runner(through_step_a=False).world
        anchor = world.anchors["AnchorSWT"]
        node = world.iin_nodes["iin0"][0]
        buyer_did, seller_did = world.org_dids["Buyer"], world.org_dids["Seller"]
        ask_vc(world, anchor, "Buyer")
        world.settle()
        lost_receipt = FaultRule(action="drop", to=anchor.address, kind="iin.submit.reply")
        world.bus.config.rules.append(lost_receipt)
        hold(anchor)
        seller, skipped = (
            ask_vc(world, anchor, "Seller"),
            # a version skip the registry refuses: its document is never written
            ask_vc(world, anchor, "Buyer", version=3),
        )
        world.settle()
        # each request is answered from its own payloads' read-back
        assert skipped.result == "no reply from sequencer"
        assert node.state.docs[buyer_did].version == 1
        assert seller.result.already_member == 0
        assert node.state.verinym_status(seller_did)
        assert crypto.witness_verify(anchor.acc_state, seller.result.witness)
        # the anchor keeps the revocation state the registry holds, so it can
        # still update it, traces the issuance, and answers the credential's
        # next request from it
        assert_accumulator_published(world, anchor)
        issued = [e.detail["holder"] for e in world.trace.events if e.kind == "anchor.vc_issued"]
        assert issued == [buyer_did, seller_did]
        world.bus.config.rules.remove(lost_receipt)
        again = ask(anchor, "anchor.vc.request", VcRequest(seller_did, "SWT"))
        world.settle()
        assert again.result.already_member == 1

    def test_a_holder_revoked_after_batched_issuance_fails_check_6(self):
        runner, _ = two_networks_runner(4)
        world = runner.world
        anchor = world.anchors["AnchorNA"]
        revoked, kept = world.org_dids["NAo02"], world.org_dids["NAo01"]
        assert anchor.acc_state.epoch == 2  # NAo01-NAo03 were issued in one batch
        anchor.enqueue_serialized("revoke", lambda: anchor.revoke_membership(revoked, "NA"))
        world.settle()
        verifier = world.agents["NBo00"]
        outcomes = {}
        for did in (revoked, kept):
            record = verifier.start_session("validate", verifier.validate_org("NB", "NA", did))
            world.settle()
            outcomes[did] = record.result
        assert outcomes[revoked]["check"] == 6, outcomes[revoked]
        assert outcomes[kept]["status"] == "ok", outcomes[kept]

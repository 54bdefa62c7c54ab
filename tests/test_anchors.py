"""Trust-anchor services inside a bootstrapped world."""

import yaml

from idplane import credentials as creds
from idplane import crypto, harness, registry
from idplane.actors import Request
from idplane.agent import AgentError
from idplane.anchors import AnchorError, NotAMember, schema_id_for
from idplane.bus import FaultRule

from conftest import add_probe, bootstrapped_runner


def assert_accumulator_published(world, anchor):
    """The anchor's accumulator is the one over its rosters' credential ids,
    and every registry replica holds that state."""
    cred_ids = [
        vc.credential_id for roster in anchor.rosters.values() for vc in roster.members.values()
    ]
    state, _ = crypto.accumulator_init(anchor.profile.did, cred_ids)
    assert state.root == anchor.acc_state.root
    for node in world.iin_nodes[anchor.pool.iin_id]:
        assert node.state.revocation[anchor.profile.did] == anchor.acc_state


class TestVerinymRegistration:
    def test_whitelisted_orgs_got_verinyms(self, world):
        node = world.iin_nodes["iin0"][0]
        for org in ("Seller", "Buyer", "Carrier"):
            did = world.org_dids[org]
            assert node.state.verinym_status(did), org

    def test_unwhitelisted_key_is_rejected_without_any_transaction(self, world):
        probe = add_probe(world)
        node = world.iin_nodes["iin0"][0]
        log_before = len(node.log)
        mallory = crypto.KeyPair.from_seed(b"\x13" * 32)
        doc = registry.new_did_document("iin0", mallory, "probe")
        result = {}

        def ask():
            reply = yield Request(
                "anchor:AnchorSWT",
                "anchor.verinym.request",
                {"org_name": "Mallory", "doc": doc.to_bytes().hex()},
                timeout=200,
            )
            result["reply"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["reply"] == {"ok": False, "error": "EvidenceMismatch"}
        assert len(node.log) == log_before  # nothing was submitted

    def test_wrong_key_for_whitelisted_name_is_rejected(self, world):
        probe = add_probe(world)
        mallory = crypto.KeyPair.from_seed(b"\x37" * 32)
        doc = registry.new_did_document("iin0", mallory, "probe")
        result = {}

        def ask():
            reply = yield Request(
                "anchor:AnchorSWT",
                "anchor.verinym.request",
                {"org_name": "Buyer", "doc": doc.to_bytes().hex()},
                timeout=200,
            )
            result["reply"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["reply"]["error"] == "EvidenceMismatch"

    def test_reregistration_surfaces_registry_duplicate(self, world):
        agent = world.agents["Buyer"]
        record = agent.start_session("again", agent.step_a())
        world.settle()
        assert record.error is None
        duplicates = [
            e for e in world.trace.events
            if e.kind == "registry.commit" and e.detail.get("outcome") == "Duplicate"
        ]
        assert duplicates  # the rerun NYM committed as an explicit rejection


class TestMembershipIssuance:
    def test_issuance_bumped_epoch_and_roster(self, world):
        anchor = world.anchors["AnchorSTL"]
        assert anchor.acc_state.epoch == 2  # Carrier + Seller joined STL
        roster = anchor.rosters["STL"]
        assert set(roster.members) == {world.org_dids["Carrier"], world.org_dids["Seller"]}
        assert roster.version == 2

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
        nonce = probe.nonce()
        result = {}

        def ask():
            reply = yield Request(
                f"anchor:{anchor_name}",
                "anchor.memberlist.request",
                {"network_id": network_id, "nonce": nonce.hex()},
                timeout=200,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        return result["body"], nonce

    def test_memberlist_vp_lists_roster(self, world):
        body, nonce = self.fetch_memberlist(world, "AnchorSTL", "STL")
        assert body["ok"]
        vp = creds.VerifiablePresentation.from_bytes(bytes.fromhex(body["vp"]))
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
        body, nonce = self.fetch_memberlist(world, "AnchorSWT", "SWT")
        assert body["ok"]
        vp = creds.VerifiablePresentation.from_bytes(bytes.fromhex(body["vp"]))
        anchor = world.anchors["AnchorSWT"]
        node = world.iin_nodes["iin0"][0]
        payload = creds.verify_self_signed_vp(
            vp, nonce, node.state.docs[anchor.profile.did], True
        )
        memberlist = creds.MemberlistCredential.from_bytes(payload)
        assert memberlist.member_dids == ()
        assert memberlist.roster_version == 0

    def test_unrepresented_network_refused(self, world):
        body, _ = self.fetch_memberlist(world, "AnchorSTL", "SWT")
        assert body == {"ok": False, "error": "NotRepresented"}


class TestIssuanceGates:
    def test_no_issuance_without_verinym(self):
        # bootstrap only: the orgs are eligible but have no registered DIDs yet
        runner = bootstrapped_runner(through_step_a=False)
        world = runner.world
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "anchor:AnchorSWT",
                "anchor.vc.request",
                {"holder_did": world.org_dids["Buyer"], "network_id": "SWT"},
                timeout=600,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["body"] == {"ok": False, "error": "NoVerinym"}

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
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "anchor:AnchorSWT",
                "anchor.vc.request",
                {"holder_did": world.org_dids["Carrier"], "network_id": "STL"},
                timeout=600,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["body"] == {"ok": False, "error": "NotRepresented"}

    def test_ineligible_holder_refused(self, world):
        # Carrier has a verinym but is not on SWT's eligibility roster
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "anchor:AnchorSWT",
                "anchor.vc.request",
                {"holder_did": world.org_dids["Carrier"], "network_id": "SWT"},
                timeout=600,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["body"] == {"ok": False, "error": "NotEligible"}


class TestCredentialDefinitionOwnership:
    def test_anchor_cannot_publish_a_definition_in_another_anchors_name(self, world):
        swt, stl = world.anchors["AnchorSWT"], world.anchors["AnchorSTL"]
        forged = creds.CredentialDefinition(
            cred_def_id="creddef:forged",
            schema_id=schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME),
            issuer_did=stl.profile.did,
            authentication_public_key=swt.keys.public_key,
        )
        tx = registry.make_transaction(
            registry.KIND_CRED_DEF, forged.to_bytes(), swt.profile.did, swt.keys
        )
        record = swt.start_session("forge", registry.submit_transaction(swt.pool, tx))
        world.settle()
        assert record.result["outcomes"] == ["UnauthorizedRole"]
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
        fresh_version = record.result.roster_version
        # an anchor serving an older roster than previously observed is stale
        anchor = world.anchors["AnchorSTL"]
        rolled_back = creds.issue_memberlist_credential(
            anchor.keys,
            anchor.profile.did,
            anchor.memberlist_cred_def_id,
            "STL",
            (),
            roster_version=fresh_version - 1,
        )
        anchor.memberlists["STL"] = rolled_back
        record = agent.start_session("ml2", agent._fetch_memberlist("SWT", "STL"))
        world.settle()
        from idplane.agent import StaleMemberlist

        assert isinstance(record.error, StaleMemberlist)


class TestRevocation:
    def test_revoke_bumps_epoch_and_updates_roster(self, world):
        anchor = world.anchors["AnchorSTL"]
        carrier_did = world.org_dids["Carrier"]
        epoch_before = anchor.acc_state.epoch
        version_before = anchor.rosters["STL"].version
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(carrier_did, "STL")
        )
        world.settle()
        assert anchor.acc_state.epoch == epoch_before + 1
        assert carrier_did not in anchor.rosters["STL"].members
        assert anchor.rosters["STL"].version == version_before + 1
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
            reply = yield Request(
                "anchor:AnchorSTL",
                "anchor.witness.request",
                {"credential_id": cred_id.hex()},
                timeout=200,
            )
            results[tag] = reply.body

        probe.start_session("s", ask("seller", seller_vc.credential_id))
        probe.start_session("c", ask("carrier", carrier_vc.credential_id))
        world.settle()
        assert results["seller"]["ok"]
        fresh = crypto.AccumulatorWitness.from_bytes(
            bytes.fromhex(results["seller"]["witness"])
        )
        assert crypto.witness_verify(anchor.acc_state, fresh)
        assert results["carrier"] == {"ok": False, "error": "NotAMember"}

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
        version_before = anchor.rosters["STL"].version
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
        assert anchor.rosters["STL"].version == version_before + 1
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
    its receipt is lost: the anchor reads its own revocation state back."""

    def test_lost_receipt_of_an_applied_issuance_keeps_members_valid(self, tmp_path):
        raw = yaml.safe_load(
            (harness.SCENARIO_DIR / "two_network.yaml").read_text(encoding="utf-8")
        )
        # after bootstrap AnchorSWT writes two verinym NYMs, then its first REVOC_UPDATE
        raw["script"].insert(1, {
            "step": "fault", "action": "drop", "to": "anchor:AnchorSWT",
            "kind": "iin.submit.reply", "occurrence": 3,
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
    receipt is lost: the anchor resolves the DID and compares the document."""

    def test_lost_receipt_of_an_applied_nym_keeps_step_a(self, tmp_path):
        raw = yaml.safe_load(
            (harness.SCENARIO_DIR / "two_network.yaml").read_text(encoding="utf-8")
        )
        # the first write after bootstrap is the verinym NYM of an SWT org
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

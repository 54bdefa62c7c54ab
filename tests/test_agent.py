"""Agent protocol behavior: policy gates, countersigning, retries, resync."""

import pytest

from idplane import agent as agent_mod
from idplane import credentials as creds
from idplane import crypto, harness, registry
from idplane import network as net
from idplane.actors import Request, Sleep
from idplane.anchors import schema_id_for
from idplane.bus import FaultRule

from conftest import add_probe, bootstrapped_runner, scenario_config


def run_sync(world, initiator, home, foreign, targets=None):
    agent = world.agents[initiator]
    record = agent.start_session("sync", agent.sync_network(home, foreign, targets))
    world.settle()
    return record


def memberlist_requests(world, sender, since=0):
    return [
        e for e in world.trace.events[since:]
        if e.kind == "bus.send" and e.detail["from"] == sender
        and e.detail["msg_kind"] == "anchor.memberlist.request"
    ]


def agent_events(world, org, kinds, since=0):
    """The trace events of `kinds` that `org`'s agent recorded, in order."""
    return [
        e for e in world.trace.events[since:]
        if e.actor == f"agent:{org}" and e.kind in kinds
    ]


def count_query_kinds(monkeypatch) -> list:
    """The `what` of every `registry.quorum_query` call from now on."""
    kinds = []
    quorum_query = registry.quorum_query

    def counting(pool, what, *rest):
        kinds.append(what)
        return quorum_query(pool, what, *rest)

    monkeypatch.setattr(registry, "quorum_query", counting)
    return kinds


def witness_requests(world, org, since=0):
    return [
        e for e in world.trace.events[since:]
        if e.kind == "bus.send" and e.detail["from"] == f"agent:{org}"
        and e.detail["msg_kind"] == "anchor.witness.request"
    ]


def challenge(probe, world, holder, network_id, **extra):
    """Challenge `holder`'s agent from `probe`; returns (reply body, nonce)."""
    nonce = probe.nonce()
    result = {}

    def ask():
        reply = yield Request(
            f"agent:{holder}",
            "agent.membership_vp.request",
            {"network_id": network_id, "nonce": nonce.hex(), **extra},
            timeout=500,
        )
        result["body"] = reply.body

    probe.start_session("ask", ask())
    world.settle()
    return result["body"], nonce


def countersign_request(
    probe, foreign_did, digest, status, org="Carrier", home_network="SWT",
    foreign_network="STL", **extra,
):
    """The body of a countersign request for a commit of `foreign_network`'s
    `org` into `home_network`: the statement, under a fresh nonce of `probe`."""
    statement = net.Endorsement(foreign_network, org, foreign_did, digest, status, probe.nonce())
    return {"home_network": home_network, "statement": statement.to_bytes().hex(), **extra}


def statement_of(msg) -> net.Endorsement:
    """The statement a countersign request carries."""
    return net.Endorsement.from_bytes(bytes.fromhex(msg.body["statement"]))


def ask_countersign(probe, world, foreign_did, digest, status, **extra):
    """Ask Seller to countersign a commit of STL's Carrier into SWT; returns
    the reply body."""
    result = {}

    def ask():
        reply = yield Request(
            "agent:Seller",
            "agent.countersign.request",
            countersign_request(probe, foreign_did, digest, status, **extra),
            timeout=2000,
        )
        result["body"] = reply.body

    probe.start_session("ask", ask())
    world.settle()
    return result["body"]


def assert_only_carrier_failed(world, record, start, error):
    """Buyer's sync of STL ran to its end: Carrier's target failed with
    `error`, Seller's committed, and no session failed. Returns Carrier's
    `agent.sync_failed` event."""
    assert record.error is None
    assert agent_events(world, "Buyer", {"session.failed"}, start) == []
    carrier, seller = world.org_dids["Carrier"], world.org_dids["Seller"]
    assert record.result[seller]["status"] == "DONE"
    assert record.result[carrier] == {"status": "FAILED", "error": error}
    [failed] = agent_events(world, "Buyer", {"agent.sync_failed"}, start)
    assert failed.detail["target"] == carrier
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
        ].digest
        anchor = world.anchors["AnchorSTL"]
        anchor.enqueue_serialized(
            "revoke",
            lambda: anchor.revoke_membership(world.org_dids["Carrier"], "STL"),
        )
        world.settle()
        # a countersign request for the now-revoked member, cold cache
        world.agents["Seller"].cache.clear()
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "agent:Seller",
                "agent.countersign.request",
                countersign_request(probe, world.org_dids["Carrier"], old_digest, "ACTIVE"),
                timeout=2000,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["body"]["result"] == "validation_failed"

    def test_digest_mismatch_reply_carries_own_digest_and_drops_cache(self, world):
        seller = world.agents["Seller"]
        record = seller.start_session(
            "prefetch", seller.prefetch("SWT", "STL", world.org_dids["Carrier"])
        )
        world.settle()
        assert record.error is None
        own_digest = bytes.fromhex(record.result)
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "agent:Seller",
                "agent.countersign.request",
                countersign_request(probe, world.org_dids["Carrier"], b"\x00" * 32, "ACTIVE"),
                timeout=2000,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["body"]["result"] == "digest_mismatch"
        assert result["body"]["own_digest"] == own_digest.hex()
        assert ("STL", world.org_dids["Carrier"]) not in seller.cache

    def test_permanent_mismatch_exhausts_retries_before_ceiling(self, world):
        seller = world.agents["Seller"]

        def always_mismatch(sender, msg):
            seller.reply(
                sender, msg, "agent.countersign.reply",
                {"result": "digest_mismatch", "own_digest": "00" * 32, "org": "Seller"},
            )
            return
            yield  # generator form expected by the dispatcher

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
        seller = world.agents["Seller"]

        def always_mismatch(sender, msg):
            seller.reply(
                sender, msg, "agent.countersign.reply",
                {"result": "digest_mismatch", "own_digest": "00" * 32, "org": "Seller"},
            )
            return
            yield  # generator form expected by the dispatcher

        seller._handle_countersign = always_mismatch
        # the first reply answers sync_network's fetch, the second the retry
        # refetch of whichever of the two concurrent targets gets it first
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Buyer", kind="anchor.memberlist.reply",
                      occurrence=2)
        )
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        errors = {did: r["error"] for did, r in record.result.items() if r["status"] == "FAILED"}
        assert sorted(errors.values()) == ["NoTrustedPMV", "RetriesExhausted"]
        refetch_lost = next(did for did, error in errors.items() if error == "NoTrustedPMV")
        failed = {
            e.detail["target"]: e.detail
            for e in agent_events(world, "Buyer", {"agent.sync_failed"})
        }
        # B, C and D once, a digest mismatch, then the second attempt's B fails
        assert failed[refetch_lost]["attempts"] == 2
        assert failed[refetch_lost]["error"] == "NoTrustedPMV"
        assert "unavailable" in failed[refetch_lost]["detail"]

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

        def broken(sender, msg):
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

    @pytest.mark.parametrize("field, error", [
        ("vp", "MemberUnreachable"), ("identity_vp", "MalformedBundle"),
    ])
    def test_undecodable_presentation_fails_only_its_own_target(self, world, field, error):
        carrier = world.agents["Carrier"]
        serve = carrier._serve_membership_vp

        def garbled(sender, msg):
            body = yield from serve(sender, msg)
            return {**body, field: "zz"}

        carrier._serve_membership_vp = garbled
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_carrier_failed(world, record, start, error)
        assert "undecodable VerifiablePresentation" in failed.detail["detail"]

    def test_signed_reply_without_a_signature_fails_only_its_own_target(self, world):
        seller = world.agents["Seller"]
        countersign = seller._handle_countersign

        def unsigned_for_carrier(sender, msg):
            if statement_of(msg).foreign_org == "Carrier":
                return {"result": "signed", "org": "Seller"}
            return countersign(sender, msg)

        seller._handle_countersign = unsigned_for_carrier
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_carrier_failed(
            world, record, start, "CounterpartyValidationFailed"
        )
        assert failed.detail["detail"] == "Seller:NoSignature"

    def test_mismatch_reply_without_a_string_digest_fails_only_its_own_target(self, world):
        seller = world.agents["Seller"]
        countersign = seller._handle_countersign

        def listed_digest_for_carrier(sender, msg):
            if statement_of(msg).foreign_org == "Carrier":
                return {"result": "digest_mismatch", "own_digest": ["00"], "org": "Seller"}
            return countersign(sender, msg)

        seller._handle_countersign = listed_digest_for_carrier
        start = len(world.trace.events)
        record = run_sync(world, "Buyer", "SWT", "STL")
        failed = assert_only_carrier_failed(
            world, record, start, "CounterpartyValidationFailed"
        )
        assert failed.detail["detail"] == "Seller:NoSignature"

    @pytest.mark.parametrize("synced", [True, False], ids=["with-record", "without-record"])
    def test_revoked_countersign_of_another_digest_answers_the_records(self, world, synced):
        if synced:
            run_sync(world, "Buyer", "SWT", "STL", targets=(world.org_dids["Carrier"],))
        record = world.ledger_state("SWT").get_record("STL", "Carrier")
        assert (record is not None) == synced
        body = ask_countersign(
            add_probe(world), world, world.org_dids["Carrier"], b"\x00" * 32, "REVOKED"
        )
        assert body == {
            "result": "digest_mismatch",
            "org": "Seller",
            "own_digest": record.bundle_digest.hex() if synced else "",
        }

    def test_lost_revocation_commit_reply_fails_the_revocation_by_name(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        TestMemberlistReuse.revoke_carrier(world)
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Buyer", kind="cmdac.reply")
        )
        buyer = world.agents["Buyer"]
        carrier = world.ledger_state("SWT").get_record("STL", "Carrier")
        start = len(world.trace.events)
        record = buyer.start_session("revoke", buyer._revoke_record("SWT", "STL", carrier))
        world.settle()
        assert record.result == {"status": "FAILED", "error": "LedgerUnreachable"}
        [failed] = agent_events(world, "Buyer", {"agent.revoke_failed"}, start)
        assert failed.detail == {"network": "STL", "org": "Carrier", "error": "LedgerUnreachable"}

    def test_countersigner_without_ledger_names_the_failure(self, world):
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="ledger.reply")
        )
        start = world.bus.now
        record = run_sync(world, "Buyer", "SWT", "STL",
                          targets=(world.org_dids["Carrier"],))
        assert record.error is None
        outcome = record.result[world.org_dids["Carrier"]]
        assert outcome == {"status": "FAILED", "error": "CounterpartyValidationFailed"}
        failed = next(e for e in world.trace.events if e.kind == "agent.sync_failed")
        assert failed.detail["detail"] == "Seller:LedgerUnreachable"
        assert failed.tick - start < 1500 // 2  # the countersign gather waits 1500

    @pytest.mark.parametrize("networks, reason", [
        ({"home_network": "NOWHERE"}, "NotLocal"),
        ({"foreign_network": "SWT"}, "PolicyViolation"),
    ])
    def test_request_outside_the_countersigners_policy_is_refused(self, world, networks, reason):
        probe = add_probe(world)
        start = len(world.trace.events)
        carrier = world.org_dids["Carrier"]
        body = ask_countersign(probe, world, carrier, b"\x00" * 32, "ACTIVE", **networks)
        assert (body["result"], body["reason"]) == ("validation_failed", reason)
        assert agent_events(world, "Seller", {"agent.countersigned"}, start) == []

    def test_revoked_countersign_without_ledger_records_names_the_failure(self, world):
        # a first sync fills Seller's interop cache, so the drop below hits
        # the records query; an empty holder DID skips re-validation
        run_sync(world, "Buyer", "SWT", "STL", targets=(world.org_dids["Carrier"],))
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="ledger.reply")
        )
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "agent:Seller",
                "agent.countersign.request",
                countersign_request(probe, "", b"\x00" * 32, "REVOKED"),
                timeout=1500,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["body"]["result"] == "validation_failed"
        assert result["body"]["reason"] == "LedgerUnreachable"


class TestWriteOnceCache:
    def test_missing_schema_is_read_again_after_publication(self):
        runner = harness.ScenarioRunner(scenario_config("two-network"))
        world = runner.world
        agent = world.agents["Buyer"]
        schema_id = schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME)

        def read():
            record = agent.start_session(
                "read",
                agent._read_once(
                    (registry.QUERY_SCHEMA, schema_id),
                    registry.read_schema(agent.pool, schema_id),
                ),
            )
            world.settle()
            return record

        assert isinstance(read().error, registry.NotFound)
        runner._execute(0, {"step": "bootstrap"})
        after = read()
        assert after.error is None
        assert after.result.schema_id == schema_id

    def test_verification_artifacts_are_read_once_per_agent(self, world, monkeypatch):
        kinds = count_query_kinds(monkeypatch)
        write_once = (registry.QUERY_SCHEMA, registry.QUERY_CRED_DEF)

        def validate(org):
            kinds.clear()
            agent = world.agents[org]
            record = agent.start_session(
                "validate", agent.validate_org("SWT", "STL", world.org_dids["Carrier"])
            )
            world.settle()
            assert record.result["status"] == "ok", record.result
            return [k for k in kinds if k in write_once]

        assert sorted(validate("Buyer")) == sorted(write_once)
        assert validate("Buyer") == []
        assert sorted(validate("Seller")) == sorted(write_once)


class TestMemberSnapshot:
    """Member validation reads the holder's document and the revocation
    state in one quorum read, made before the challenge."""

    def test_cold_validation_makes_one_changing_read(self, world, monkeypatch):
        kinds = count_query_kinds(monkeypatch)
        agent = world.agents["Buyer"]
        record = agent.start_session(
            "validate", agent.validate_org("SWT", "STL", world.org_dids["Carrier"])
        )
        world.settle()
        assert record.result["status"] == "ok", record.result
        write_once = (registry.QUERY_SCHEMA, registry.QUERY_CRED_DEF)
        assert [k for k in kinds if k not in write_once] == [registry.QUERY_MEMBER]

    def test_revocation_committed_before_the_snapshot_read_fails_check_6(self, world):
        agent = world.agents["Buyer"]
        carrier_did = world.org_dids["Carrier"]
        record = agent.start_session("fetch", agent._fetch_memberlist("SWT", "STL"))
        world.settle()
        memberlist = record.result
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
        kinds = count_query_kinds(monkeypatch)
        anchor = world.anchors["AnchorSTL"]
        epoch = anchor.acc_state.epoch
        # Carrier's witness predates the last step-A issuance, so it is behind
        # the challenge's epoch and Carrier refreshes it
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
        assert kinds.count(registry.QUERY_MEMBER) == 2
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
        for agent in ("agent:Buyer", "agent:Seller"):
            assert len(memberlist_requests(world, agent, start)) == 1

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
        re-admit Carrier. Returns (Seller's stale list, the new version)."""
        cls.revoke_carrier(world)
        seller = world.agents["Seller"]
        record = seller.start_session("ml", seller._fetch_memberlist("SWT", "STL"))
        world.settle()
        stale = record.result
        assert world.org_dids["Carrier"] not in stale.member_dids
        carrier = world.agents["Carrier"]
        record = carrier.start_session("step_a", carrier.step_a())
        world.settle()
        assert record.error is None
        version = world.anchors["AnchorSTL"].memberlists["STL"].roster_version
        assert version > stale.roster_version
        return stale, version

    def test_newer_hint_after_readmission_makes_the_countersigner_refetch(self, world):
        carrier_did = world.org_dids["Carrier"]
        stale, version = self.readmit_after_seller_cached(world)
        digest = world.organizations[("STL", "Carrier")].bundle_digest()
        probe = add_probe(world)
        # a hint no newer than the cached list is trusted: Carrier is not listed
        body = ask_countersign(probe, world, carrier_did, digest, "ACTIVE",
                               roster_version=stale.roster_version)
        assert body["result"] == "validation_failed"
        assert body["reason"] == "NotListed"
        start = len(world.trace.events)
        body = ask_countersign(probe, world, carrier_did, digest, "ACTIVE",
                               roster_version=version)
        assert body["result"] == "signed"
        assert len(memberlist_requests(world, "agent:Seller", start)) == 1

    def test_member_revoked_since_the_cache_filled_is_still_refused(self, world):
        record = run_sync(world, "Buyer", "SWT", "STL")
        assert record.error is None
        seller = world.agents["Seller"]
        cached = seller._memberlists["STL"]
        carrier_did = world.org_dids["Carrier"]
        assert carrier_did in cached.member_dids
        digest = seller.cache[("STL", carrier_did)].digest
        self.revoke_carrier(world)
        seller.cache.clear()
        probe = add_probe(world)
        start = len(world.trace.events)
        body = ask_countersign(probe, world, carrier_did, digest, "ACTIVE",
                               roster_version=cached.roster_version)
        assert body["result"] == "validation_failed"
        assert body["reason"] == "MembershipVerificationError"
        assert memberlist_requests(world, "agent:Seller", start) == []

    def test_revoked_request_always_fetches_a_fresh_memberlist(self, world):
        carrier_did = world.org_dids["Carrier"]
        # a REVOKED request is checked against the committed record
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        stale, _ = self.readmit_after_seller_cached(world)
        probe = add_probe(world)
        start = len(world.trace.events)
        digest = world.organizations[("STL", "Carrier")].bundle_digest()
        body = ask_countersign(probe, world, carrier_did, digest, "REVOKED",
                               roster_version=stale.roster_version)
        assert body["result"] == "validation_failed"
        assert body["reason"] == "MemberStillValid"
        assert len(memberlist_requests(world, "agent:Seller", start)) == 1


def reissued_memberlist(anchor, keys=None, network_id="STL"):
    """AnchorSTL's STL memberlist issued again, by `keys` or for `network_id`."""
    memberlist = anchor.memberlists["STL"]
    return creds.issue_memberlist_credential(
        keys or anchor.keys, anchor.profile.did, anchor.memberlist_cred_def_id,
        network_id, memberlist.member_dids, memberlist.roster_version,
    )


class TestMemberlistTrust:
    """A memberlist the agent cannot trust fails with NoTrustedPMV at its own
    check; the anchor serves each one inside its own valid presentation."""

    @pytest.mark.parametrize("sabotage, foreign, message", [
        (lambda anchor: None, "XNET", "no trusted membership validator for XNET"),
        (lambda anchor: anchor.memberlists.update(STL=reissued_memberlist(
            anchor, keys=crypto.KeyPair.from_seed(b"\x66" * 32)
        )), "STL", "memberlist signature invalid"),
        (lambda anchor: anchor.memberlists.update(STL=reissued_memberlist(
            anchor, network_id="SWT"
        )), "STL", "memberlist not issued by the trusted validator"),
        (lambda anchor: setattr(
            anchor, "_serve_memberlist", lambda sender, msg: {"ok": True, "vp": "zz"}
        ), "STL", "undecodable VerifiablePresentation"),
        (lambda anchor: setattr(anchor, "_serve_memberlist", lambda sender, msg: {
            "ok": True,
            "vp": creds.build_self_signed_vp(
                anchor.profile.did, anchor.keys, b"junk", bytes.fromhex(msg.body["nonce"])
            ).to_bytes().hex(),
        }), "STL", "undecodable MemberlistCredential"),
    ], ids=[
        "network-off-the-trust-list", "signed-by-another-key", "for-another-network",
        "undecodable-presentation", "undecodable-memberlist",
    ])
    def test_untrusted_memberlist_is_refused(self, world, sabotage, foreign, message):
        sabotage(world.anchors["AnchorSTL"])
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
        Carrier at the same time; returns the reply bodies and the ledger
        queries Seller ran."""
        seller = world.agents["Seller"]
        queries = []
        ledger_query = seller._ledger_query

        def counting(home_network, body):
            queries.append(body["what"])
            return (yield from ledger_query(home_network, body))

        seller._ledger_query = counting
        probe = add_probe(world)
        replies = {}

        def ask(org):
            reply = yield Request(
                "agent:Seller",
                "agent.countersign.request",
                countersign_request(
                    probe, world.org_dids[org],
                    world.organizations[("STL", org)].bundle_digest(), "ACTIVE", org=org,
                ),
                timeout=2000,
            )
            replies[org] = reply.body

        for org in ("Seller", "Carrier"):
            probe.start_session(f"ask-{org}", ask(org))
        world.settle()
        return replies, queries

    def test_concurrent_countersigns_share_cold_reads(self, world):
        start = len(world.trace.events)
        replies, queries = self.countersign_both_at_once(world)
        assert {org: r["result"] for org, r in replies.items()} == {
            "Seller": "signed", "Carrier": "signed"
        }
        assert queries.count("interop") == 1
        assert len(memberlist_requests(world, "agent:Seller", start)) == 1

    def test_lost_shared_memberlist_fails_each_request_by_name(self, world):
        world.bus.config.rules.append(
            FaultRule(action="drop", to="agent:Seller", kind="anchor.memberlist.reply")
        )
        start = len(world.trace.events)
        replies, _ = self.countersign_both_at_once(world)
        assert {org: (r["result"], r["reason"]) for org, r in replies.items()} == {
            "Seller": ("validation_failed", "NoTrustedPMV"),
            "Carrier": ("validation_failed", "NoTrustedPMV"),
        }
        assert len(memberlist_requests(world, "agent:Seller", start)) == 1
        assert not [e for e in world.trace.events[start:] if e.kind == "session.failed"]


def commit_alone(world, org_id, foreign_did, bundle, **kwargs):
    """Buyer alone asks for an ACTIVE commit of STL's `org_id` into SWT;
    returns the session record."""
    buyer = world.agents["Buyer"]
    record = buyer.start_session(
        "commit",
        buyer._commit_identity(
            "SWT", "STL", org_id, foreign_did, bundle, crypto.digest(bundle), "ACTIVE",
            **kwargs,
        ),
    )
    world.settle()
    return record


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
        assert world.ledger_state("SWT").get_record("STL", "Carrier").status == "REVOKED"

    def test_cached_identity_of_a_revoked_member_is_not_signed_back_to_active(self, world):
        carrier_did = world.org_dids["Carrier"]
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        assert ("STL", carrier_did) in world.agents["Seller"].cache
        roster_version = world.agents["Buyer"]._memberlists["STL"].roster_version
        self.revoke_carrier_and_resync(world)
        old = world.ledger_state("SWT").get_record("STL", "Carrier")
        record = commit_alone(world, "Carrier", carrier_did, old.bundle,
                              roster_version=roster_version)
        assert isinstance(record.error, agent_mod.CounterpartyValidationFailed)
        assert str(record.error) == "Seller:NotListed"
        assert world.ledger_state("SWT").get_record("STL", "Carrier").status == "REVOKED"

    def test_bundle_committed_under_another_orgs_name_is_refused(self, world):
        bundle = world.organizations[("STL", "Seller")].bundle_bytes()
        record = commit_alone(world, "Carrier", world.org_dids["Seller"], bundle)
        assert isinstance(record.error, agent_mod.CounterpartyValidationFailed)
        assert str(record.error) == "Seller:OrgMismatch"
        assert world.ledger_state("SWT").get_record("STL", "Carrier") is None

    def test_readmitted_member_is_committed_active_by_a_full_resync(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        self.revoke_carrier_and_resync(world)
        carrier = world.agents["Carrier"]
        record = carrier.start_session("step_a", carrier.step_a())
        world.settle()
        assert record.error is None
        buyer = world.agents["Buyer"]
        record = buyer.start_session("resync", buyer.resync("SWT", "periodic"))
        world.settle()
        assert record.error is None
        ledger = world.ledger_state("SWT")
        assert ledger.get_record("STL", "Carrier").status == "ACTIVE"
        last = [e for e in ledger.block_log if e.statement.foreign_org == "Carrier"][-1]
        assert (last.statement.status, last.outcome) == ("ACTIVE", "APPLIED")
        assert {org for org, _ in last.endorsements} == {"Buyer", "Seller"}


class TestWitnessSource:
    def test_holder_asks_its_issuer_only(self, world):
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "agent:Buyer",
                "agent.membership_vp.request",
                {"network_id": "SWT", "nonce": probe.nonce().hex()},
                timeout=500,
            )
            result["body"] = reply.body

        start = len(world.trace.events)
        probe.start_session("ask", ask())
        world.settle()
        assert result["body"]["ok"]
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
        probe = add_probe(world)
        result = {}

        def ask():
            reply = yield Request(
                "agent:Buyer",
                "agent.membership_vp.request",
                {"network_id": "STL", "nonce": probe.nonce().hex()},
                timeout=500,
            )
            result["body"] = reply.body

        probe.start_session("ask", ask())
        world.settle()
        assert result["body"] == {"ok": False, "error": "NoCredential"}

    def test_dual_member_serves_each_network_separately(self, world):
        probe = add_probe(world)
        results = {}

        def ask(net_id):
            nonce = probe.nonce()
            reply = yield Request(
                "agent:Seller",
                "agent.membership_vp.request",
                {"network_id": net_id, "nonce": nonce.hex()},
                timeout=500,
            )
            results[net_id] = bytes.fromhex(reply.body["vp"])

        probe.start_session("a", ask("STL"))
        probe.start_session("b", ask("SWT"))
        world.settle()
        vp_stl = creds.VerifiablePresentation.from_bytes(results["STL"])
        vc_stl = creds.MembershipBody.from_bytes(vp_stl.body).vc
        assert vc_stl.network_id == "STL"
        assert b"SWT" not in results["STL"]
        assert b"STL" not in results["SWT"]

    def test_challenge_with_bundle_nonce_returns_the_requested_networks_bundle(self, world):
        seller = world.agents["Seller"]
        probe = add_probe(world)
        bundle_nonce = b"b" * 16
        body, _ = challenge(probe, world, "Seller", "STL", bundle_nonce=bundle_nonce.hex())
        vp = creds.VerifiablePresentation.from_bytes(bytes.fromhex(body["identity_vp"]))
        doc = registry.new_did_document(seller.pool.iin_id, seller.keys, seller.address)
        payload = creds.verify_self_signed_vp(vp, bundle_nonce, doc, True)
        bundle = net.Bundle.from_bytes(payload)
        assert (bundle.org_id, bundle.network_id) == ("Seller", "STL")
        assert bundle.chains  # one per peer

    def test_challenge_without_bundle_nonce_signs_only_the_membership_vp(
        self, world, monkeypatch
    ):
        signs = []
        sign = crypto.sign
        monkeypatch.setattr(crypto, "sign", lambda *args: signs.append(1) or sign(*args))
        probe = add_probe(world)
        body, _ = challenge(probe, world, "Seller", "STL")
        assert body["ok"] and "identity_vp" not in body
        assert len(signs) == 1
        body, _ = challenge(probe, world, "Seller", "STL", bundle_nonce=(b"b" * 16).hex())
        assert "identity_vp" in body
        assert len(signs) == 3


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
        body, nonce = challenge(
            probe, world, "Carrier", "STL", epochs={anchor.profile.did: stale.epoch}
        )
        assert witness_requests(world, "Carrier", start) == []
        vp = creds.VerifiablePresentation.from_bytes(bytes.fromhex(body["vp"]))
        vc = creds.MembershipBody.from_bytes(vp.body).vc
        replica = world.iin_nodes[world.agents["Buyer"].pool.iin_id][0]
        artifacts = registry.artifacts_from_state(
            replica.state, world.org_dids["Carrier"], anchor.profile.did,
            schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME), vc.cred_def_id,
        )
        artifacts.revocation_state = stale
        trusted = frozenset({(anchor.profile.did, "STL")})
        with pytest.raises(creds.MembershipVerificationError) as refused:
            creds.verify_membership_vp(vp, "STL", nonce, trusted, artifacts)
        assert refused.value.check == creds.CHECK_REVOCATION
        assert self.validate(world, "Seller", "Carrier")["status"] == "ok"

    def test_membership_body_that_does_not_decode_fails_check_4(self, world, monkeypatch):
        def junk_body(holder_did, holder_keys, vc, witness, nonce):
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


class TestResync:
    def test_no_upstream_changes_means_only_noops(self, world):
        run_sync(world, "Buyer", "SWT", "STL")
        applied_before = [
            e for e in world.ledger_state("SWT").block_log if e.outcome == "APPLIED"
        ]
        agent = world.agents["Buyer"]
        record = agent.start_session("resync", agent.resync("SWT", "periodic"))
        world.settle()
        assert record.error is None
        log = world.ledger_state("SWT").block_log
        applied_after = [e for e in log if e.outcome == "APPLIED"]
        assert len(applied_after) == len(applied_before)
        assert any(e.outcome == "NOOP" for e in log)


class TestLedgerRecords:
    def read_records(self, world):
        buyer = world.agents["Buyer"]
        record = buyer.start_session("records", buyer._ledger_records("SWT", "STL"))
        world.settle()
        return record

    def test_records_reply_carries_each_records_content(self, world):
        assert run_sync(world, "Buyer", "SWT", "STL").error is None
        expected = [r.content() for r in world.ledger_state("SWT").records_for("STL")]
        assert len(expected) == 2
        assert self.read_records(world).result == expected

    def test_undecodable_record_is_refused_by_name(self, world):
        world.ledgers["SWT"]._query = lambda sender, msg: {"records": ["00"]}
        record = self.read_records(world)
        assert isinstance(record.error, agent_mod.LedgerRefused)
        assert "ledger:SWT: undecodable RecordContent" in str(record.error)


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
            r["org_id"]: state.get_record("STL", r["org_id"]).bundle_digest.hex()
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

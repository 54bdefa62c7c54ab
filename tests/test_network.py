"""Local ledger contract and data-plane proof hook."""

import copy
import hashlib
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idplane import crypto
from idplane import encoding as enc
from idplane import network as net
from idplane.bus import BusConfig, SimBus


def seed32(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


def seed_fn(label: str) -> bytes:
    return seed32("world:" + label)


FAR_DID = "did:iin:iin0:far"  # the holder DID every test record is endorsed under

ORG_KEYS = {name: crypto.KeyPair.from_seed(seed32("admin:" + name)) for name in
            ("OrgA", "OrgB", "OrgC")}


def make_ledger(orgs=("OrgA", "OrgB"), network_id="HOME") -> net.LocalLedgerState:
    return net.LocalLedgerState(
        network_id=network_id,
        interop_networks=("AWAY",),
        trust_entries=(("iin0", "did:iin:iin0:anchor", "AWAY"),),
        admin_keys={o: ORG_KEYS[o].public_key for o in orgs},
    )


def make_source_org(org_id="FarOrg", peers=1, now=0, lifetime=1000) -> net.Organization:
    return net.Organization.create(
        org_id=org_id,
        network_id="AWAY",
        seed_fn=seed_fn,
        peer_count=peers,
        now=now,
        cert_lifetime=lifetime,
    )


def statement(foreign_net, foreign_org, bundle, status, made_at, home="HOME") -> net.Endorsement:
    """The statement, made at tick `made_at`, that admits `bundle` under
    FAR_DID into `home`'s ledger."""
    return net.Endorsement(
        home, foreign_net, foreign_org, FAR_DID, crypto.digest(bundle), status, made_at
    )


def sign_batch(org, *statements):
    """`org`'s endorsement of `statements` in one step-D batch: (org, the
    batch of their digests, its signature over the batch)."""
    batch = net.Endorsed(tuple(s.digest() for s in statements))
    return org, batch, ORG_KEYS[org].sign(batch.to_bytes()).bytes_


def endorse(orgs, foreign_net, foreign_org, bundle, status, made_at, home="HOME"):
    endorsed = statement(foreign_net, foreign_org, bundle, status, made_at, home)
    return tuple(sign_batch(o, endorsed) for o in orgs)


class TestCmdacContract:
    def test_full_endorsement_commits(self):
        ledger = make_ledger()
        org = make_source_org()
        bundle = org.bundle_bytes()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", 0)
        state, outcome = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", 0),
            bundle, sigs, now=5,
        )
        assert outcome == "APPLIED"
        record = state.get_record("AWAY", "FarOrg")
        assert record.content.status == "ACTIVE"
        assert record.content.bundle_digest == crypto.digest(bundle)
        assert record.synced_at == 5

    def test_unilateral_write_impossible_3_org_exhaustive(self):
        """All 7 proper endorsement subsets rejected; only the full set commits."""
        orgs = ("OrgA", "OrgB", "OrgC")
        ledger = make_ledger(orgs)
        bundle = make_source_org().bundle_bytes()
        for r in range(len(orgs) + 1):
            for subset in itertools.combinations(orgs, r):
                sigs = endorse(subset, "AWAY", "FarOrg", bundle, "ACTIVE", 0)
                state, outcome = net.cmdac_update_foreign_identity(
                    ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", 0),
                    bundle, sigs, now=1,
                )
                if set(subset) == set(orgs):
                    assert outcome == "APPLIED"
                    assert state.get_record("AWAY", "FarOrg") is not None
                else:
                    assert outcome.startswith("MissingEndorsement"), subset
                    assert state.get_record("AWAY", "FarOrg") is None

    def test_bad_endorsement_signature_names_org(self):
        ledger = make_ledger()
        bundle = make_source_org().bundle_bytes()
        good = endorse(("OrgA",), "AWAY", "FarOrg", bundle, "ACTIVE", 0)
        _, batch, _ = good[0]
        forged = (("OrgB", batch, ORG_KEYS["OrgB"].sign(b"something else").bytes_),)
        state, outcome = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", 0),
            bundle, good + forged, now=1,
        )
        assert outcome == "BadEndorsementSignature:OrgB"
        assert state.get_record("AWAY", "FarOrg") is None

    def test_endorsement_bound_to_made_at(self):
        """A statement held across a change is stale, and restamping it as
        made after that change breaks every endorsement of it."""
        bundle = make_source_org().bundle_bytes()
        state, _ = commit(make_ledger(), "ACTIVE", 0, now=1)
        held = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", 2)
        state, outcome = commit(state, "REVOKED", 3, now=4)
        assert outcome == "APPLIED"
        for made_at, refusal in ((2, "StaleStatement"), (5, "BadEndorsementSignature:OrgA")):
            after, outcome = net.cmdac_update_foreign_identity(
                state, statement("AWAY", "FarOrg", bundle, "ACTIVE", made_at),
                bundle, held, now=6,
            )
            assert outcome == refusal
            assert after.foreign == state.foreign

    def test_identical_recommit_is_noop(self):
        ledger = make_ledger()
        bundle = make_source_org().bundle_bytes()
        sigs1 = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", 0)
        state, _ = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", 0),
            bundle, sigs1, now=1,
        )
        # a second initiator's statement of the same content, made before
        # the first was applied: identical content is checked first
        sigs2 = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", 0)
        state2, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", bundle, "ACTIVE", 0),
            bundle, sigs2, now=9,
        )
        assert outcome == "NOOP"
        assert state2.get_record("AWAY", "FarOrg").synced_at == 1  # unchanged
        assert state2.block_log[-1].outcome == "NOOP"
        assert state2.state_hash() == state.state_hash()

    def test_differing_payload_replaces_record(self):
        ledger = make_ledger()
        org = make_source_org()
        old_bundle = org.bundle_bytes()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", old_bundle, "ACTIVE", 0)
        state, _ = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", old_bundle, "ACTIVE", 0),
            old_bundle, sigs, now=1,
        )
        org.rotate(now=10)
        new_bundle = org.bundle_bytes()
        assert new_bundle != old_bundle
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", new_bundle, "ACTIVE", 10)
        state2, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", new_bundle, "ACTIVE", 10),
            new_bundle, sigs, now=12,
        )
        assert outcome == "APPLIED"
        record = state2.get_record("AWAY", "FarOrg")
        assert record.content.bundle == new_bundle
        assert record.synced_at == 12

    def test_status_flip_keeps_audit_history(self):
        ledger = make_ledger()
        bundle = make_source_org().bundle_bytes()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", 0)
        state, _ = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", 0),
            bundle, sigs, now=1,
        )
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "REVOKED", 2)
        state2, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", bundle, "REVOKED", 2),
            bundle, sigs, now=3,
        )
        assert outcome == "APPLIED"
        assert state2.get_record("AWAY", "FarOrg").content.status == "REVOKED"
        assert len(state2.block_log) == 2  # history preserved, record not deleted

    def test_statement_of_another_bundle_is_refused_first(self):
        """The ledger digests the bundle it stores: a statement every org
        endorsed is refused, before any signature check, when its digest is
        not that bundle's, and changes nothing."""
        ledger = make_ledger()
        org = make_source_org()
        bundle = org.bundle_bytes()
        org.rotate(now=10)
        endorsed = statement("AWAY", "FarOrg", org.bundle_bytes(), "ACTIVE", 0)
        for sigs in (endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", org.bundle_bytes(),
                             "ACTIVE", 0), ()):
            state, outcome = net.cmdac_update_foreign_identity(
                ledger, endorsed, bundle, sigs, now=1
            )
            assert outcome == "BundleDigestMismatch"
            assert state.foreign == ledger.foreign
            assert state.state_hash() == ledger.state_hash()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", 0)
        state, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", bundle, "ACTIVE", 0), bundle, sigs, now=2
        )
        assert outcome == "APPLIED"
        assert state.get_record("AWAY", "FarOrg").content.bundle == bundle
        assert [e.outcome for e in state.block_log] == ["BundleDigestMismatch", "APPLIED"]
        replayed = net.replay_block_log(ledger, state.block_log)
        assert replayed.state_hash() == state.state_hash()

    def test_replay_block_log_reproduces_state(self):
        ledger = make_ledger()
        org = make_source_org()
        state = ledger
        # (status, made at): the fourth was held across the third
        for i, (status, made_at) in enumerate(
            (("ACTIVE", 0), ("REVOKED", 2), ("ACTIVE", 4), ("REVOKED", 4))
        ):
            sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", org.bundle_bytes(), status, made_at)
            state, _ = net.cmdac_update_foreign_identity(
                state, statement("AWAY", "FarOrg", org.bundle_bytes(), status, made_at),
                org.bundle_bytes(), sigs, now=2 * i + 1,
            )
        assert [e.outcome for e in state.block_log] == ["APPLIED"] * 3 + ["StaleStatement"]
        replayed = net.replay_block_log(ledger, state.block_log)
        assert replayed.state_hash() == state.state_hash()
        assert replayed.foreign == state.foreign


def commit(state, status, made_at, orgs=("OrgA", "OrgB"), now=1, home="HOME"):
    """Commit FarOrg's bundle with `status` by a statement for `home`'s
    ledger made at `made_at`, endorsed by `orgs`."""
    bundle = make_source_org().bundle_bytes()
    sigs = endorse(orgs, "AWAY", "FarOrg", bundle, status, made_at, home)
    return net.cmdac_update_foreign_identity(
        state, statement("AWAY", "FarOrg", bundle, status, made_at, home), bundle, sigs, now=now
    )


class TestHeldStatements:
    def test_held_statement_is_stale_after_several_noop_resyncs(self):
        ledger = make_ledger()
        state, outcome = commit(ledger, "ACTIVE", 0)
        assert outcome == "APPLIED"
        for i in range(4):
            state, outcome = commit(state, "ACTIVE", 1 + i, now=2 + i)
            assert outcome == "NOOP"
        state, outcome = commit(state, "REVOKED", 8, now=9)
        assert outcome == "APPLIED"
        for made_at in (0, 3, 9):  # the first commit's, a resync's, and one made at the flip
            held, outcome = commit(state, "ACTIVE", made_at, now=10)
            assert outcome == "StaleStatement"
            assert held.get_record("AWAY", "FarOrg").content.status == "REVOKED"
            assert held.foreign == state.foreign
        state, outcome = commit(state, "ACTIVE", 10, now=11)
        assert outcome == "APPLIED"

    def test_refused_entry_changes_nothing_and_the_statement_then_applies(self):
        ledger = make_ledger()
        state, outcome = commit(ledger, "ACTIVE", 0, orgs=("OrgA",))
        assert outcome == "MissingEndorsement:OrgB"
        assert state.foreign == ledger.foreign
        state, outcome = commit(state, "ACTIVE", 0, now=2)
        assert outcome == "APPLIED"

    def test_statement_for_another_ledger_is_refused(self):
        """Two ledgers with the same orgs: a statement every org endorsed
        for one is refused by name on the other, and changes nothing."""
        home, other = make_ledger(), make_ledger(network_id="HOME2")
        refused, outcome = commit(other, "ACTIVE", 0, home="HOME")
        assert outcome == "WrongLedger"
        assert refused.foreign == other.foreign
        assert commit(home, "ACTIVE", 0, home="HOME")[1] == "APPLIED"

    def test_statement_of_a_network_off_the_interop_list_is_refused(self):
        """A statement every org endorsed is refused by name when its foreign
        network is not on the ledger's interoperation list, and changes
        nothing. The check follows WrongLedger and precedes the digest
        check, and replaying the log reproduces each refusal from the
        genesis list: under a list that names the network it diverges."""
        ledger = make_ledger()
        bundle = make_source_org().bundle_bytes()
        far = statement("ELSEWHERE", "FarOrg", bundle, "ACTIVE", 0)
        state = ledger
        for endorsed, expected in (
            (far, "PolicyViolation"),
            (replace(far, bundle_digest=bytes(32)), "PolicyViolation"),
            (replace(far, home_network="HOME2"), "WrongLedger"),
        ):
            sigs = tuple(sign_batch(o, endorsed) for o in ("OrgA", "OrgB"))
            state, outcome = net.cmdac_update_foreign_identity(
                state, endorsed, bundle, sigs, now=1
            )
            assert outcome == expected
        assert state.foreign == ledger.foreign
        assert state.state_hash() == ledger.state_hash()
        state, outcome = commit(state, "ACTIVE", 0, now=2)
        assert outcome == "APPLIED"
        replayed = net.replay_block_log(ledger, state.block_log)
        assert replayed.state_hash() == state.state_hash()
        listed = replace(ledger, interop_networks=("AWAY", "ELSEWHERE"))
        with pytest.raises(net.NetworkError, match="replay divergence at block 0: APPLIED"):
            net.replay_block_log(listed, state.block_log)


class TestBatchEndorsements:
    """Each org signs one list of statement digests per step-D batch, and
    every statement of the batch presents that list and signature."""

    def two_statements(self, home="HOME"):
        """ACTIVE statements for FarOrg and OtherOrg, with their bundles."""
        bundles = [make_source_org(org).bundle_bytes() for org in ("FarOrg", "OtherOrg")]
        statements = [
            statement("AWAY", org, bundle, "ACTIVE", 0, home)
            for org, bundle in zip(("FarOrg", "OtherOrg"), bundles)
        ]
        return statements, bundles

    def test_one_batch_commits_each_statement_with_one_verify_per_org(self, monkeypatch):
        statements, bundles = self.two_statements()
        sigs = tuple(sign_batch(o, *statements) for o in ("OrgA", "OrgB"))
        executed = []
        real = crypto._ed25519_verify
        monkeypatch.setattr(crypto, "_ed25519_verify",
                            lambda *args: executed.append(args) or real(*args))
        state = make_ledger()
        with crypto.verdict_memo({}):
            for endorsed, bundle in zip(statements, bundles):
                state, outcome = net.cmdac_update_foreign_identity(
                    state, endorsed, bundle, sigs, now=1
                )
                assert outcome == "APPLIED"
        assert [args[1][0] for args in executed].count(enc.TAG_ENDORSED) == 2
        assert net.replay_block_log(make_ledger(), state.block_log).foreign == state.foreign

    def test_valid_batch_for_a_statement_it_does_not_list_is_refused(self):
        """OrgB's batch and signature are genuine, but list only FarOrg's
        statement: presented for OtherOrg's, they endorse nothing."""
        (far, other), (_, other_bundle) = self.two_statements()
        sigs = (sign_batch("OrgA", far, other), sign_batch("OrgB", far))
        ledger = make_ledger()
        state, outcome = net.cmdac_update_foreign_identity(
            ledger, other, other_bundle, sigs, now=1
        )
        assert outcome == "BadEndorsementSignature:OrgB"
        assert state.foreign == ledger.foreign

    def test_digest_added_to_a_signed_batch_is_refused(self):
        """OrgB signed a batch of FarOrg's statement alone; the same signature
        over a batch with OtherOrg's digest added verifies over nothing."""
        (far, other), (_, other_bundle) = self.two_statements()
        _, batch, sig = sign_batch("OrgB", far)
        padded = net.Endorsed(batch.statements + (other.digest(),))
        sigs = (sign_batch("OrgA", far, other), ("OrgB", padded, sig))
        ledger = make_ledger()
        state, outcome = net.cmdac_update_foreign_identity(
            ledger, other, other_bundle, sigs, now=1
        )
        assert outcome == "BadEndorsementSignature:OrgB"
        assert state.foreign == ledger.foreign

    def test_an_org_named_twice_is_judged_by_its_last_entry_in_replay_too(self):
        """The contract reads the last of an org's entries; the block log
        keeps them in that order, so replay reaches the same outcome."""
        (far, _), (far_bundle, _) = self.two_statements()
        good = sign_batch("OrgB", far)
        forged = ("OrgB", good[1], ORG_KEYS["OrgB"].sign(b"something else").bytes_)
        ledger = make_ledger()
        for entries, outcome in (((good, forged), "BadEndorsementSignature:OrgB"),
                                 ((forged, good), "APPLIED")):
            sigs = (sign_batch("OrgA", far),) + entries
            state, got = net.cmdac_update_foreign_identity(ledger, far, far_bundle, sigs, now=1)
            assert got == outcome
            assert net.replay_block_log(ledger, state.block_log).foreign == state.foreign

    def test_batch_endorsed_for_one_ledger_is_refused_by_another(self):
        """Two ledgers with the same orgs: each statement of a batch every org
        endorsed for one is refused by name on the other."""
        statements, bundles = self.two_statements()
        sigs = tuple(sign_batch(o, *statements) for o in ("OrgA", "OrgB"))
        other = make_ledger(network_id="HOME2")
        for endorsed, bundle in zip(statements, bundles):
            state, outcome = net.cmdac_update_foreign_identity(
                other, endorsed, bundle, sigs, now=1
            )
            assert outcome == "WrongLedger"
            assert state.foreign == other.foreign


def two_bundles(org_id):
    """`org_id`'s bundle at its first enrolment and after one rotation."""
    source = make_source_org(org_id)
    first = source.bundle_bytes()
    source.rotate(now=0)
    return first, source.bundle_bytes()


class TestBatchSubmit:
    """One `cmdac.submit` carries a step-D batch: the ledger folds its
    statements in order through the contract, one block entry and one
    `ledger.commit` event each, and answers one outcome per statement."""

    ORGS = ("FarA", "FarB", "FarC")
    BUNDLES = {org: two_bundles(org) for org in ORGS}

    @staticmethod
    def submit(state, statements, endorsements, now=3):
        """`statements`, (statement, bundle) pairs, submitted as one batch to
        a ledger node holding `state`; returns (node, outcomes, trace)."""
        bus = SimBus(BusConfig())
        bus.now = now
        node = net.LedgerNode("ledger:HOME", state)
        node.bind(bus)
        reply = node._submit("agent:OrgA", net.CommitRequest(tuple(statements), endorsements))
        return node, reply.outcomes, bus.trace.events

    def three(self):
        return [
            (statement("AWAY", org, self.BUNDLES[org][0], "ACTIVE", 0), self.BUNDLES[org][0])
            for org in self.ORGS
        ]

    def test_a_statement_refused_mid_batch_leaves_its_neighbours_applied(self):
        batch = self.three()
        first, middle, last = (s for s, _ in batch)
        endorsements = (sign_batch("OrgA", first, middle, last), sign_batch("OrgB", first, last))
        node, outcomes, events = self.submit(make_ledger(), batch, endorsements)
        assert outcomes == ("APPLIED", "BadEndorsementSignature:OrgB", "APPLIED")
        assert sorted(node.state.foreign) == ["AWAY/FarA", "AWAY/FarC"]
        assert [e.outcome for e in node.state.block_log] == list(outcomes)
        assert [e.detail["outcome"] for e in events if e.kind == "ledger.commit"] == list(outcomes)

    def test_a_statement_listed_twice_applies_then_is_a_noop(self):
        [(s, bundle), *_] = self.three()
        endorsements = (sign_batch("OrgA", s), sign_batch("OrgB", s))
        node, outcomes, _ = self.submit(make_ledger(), [(s, bundle)] * 2, endorsements)
        assert outcomes == ("APPLIED", "NOOP")
        assert len(node.state.block_log) == 2

    def test_an_empty_batch_changes_nothing(self):
        ledger = make_ledger()
        node, outcomes, events = self.submit(ledger, [], ())
        assert (outcomes, node.state, events) == ((), ledger, [])

    ONE_IN_FIVE = st.integers(0, 4).map(lambda n: n == 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ORGS), st.integers(0, 1), st.sampled_from(("ACTIVE", "REVOKED")),
                st.integers(0, 6), ONE_IN_FIVE, ONE_IN_FIVE,
            ),
            min_size=1, max_size=6,
        ),
        st.booleans(),
    )
    def test_a_batch_submit_equals_its_statements_submitted_one_at_a_time(self, drawn, seeded):
        """Whatever the batch holds, stale, duplicate, mis-digested or
        unlisted statements included, the batch gives the same state, block
        log outcomes and replay as its statements submitted in order, one
        per request, with the same endorsements."""
        genesis = make_ledger()
        if seeded:  # FarA's first bundle already held, committed at tick 3
            [(held, bundle), *_] = self.three()
            endorsed = (sign_batch("OrgA", held), sign_batch("OrgB", held))
            genesis = self.submit(genesis, [(held, bundle)], endorsed)[0].state
        batch, listed = [], {"OrgA": [], "OrgB": []}
        for org, rotation, status, made_at, b_omits, other_bundle in drawn:
            bundle = self.BUNDLES[org][rotation]
            s = statement("AWAY", org, bundle, status, made_at)
            batch.append((s, self.BUNDLES[org][1 - rotation] if other_bundle else bundle))
            listed["OrgA"].append(s)
            if not b_omits:
                listed["OrgB"].append(s)
        endorsements = tuple(sign_batch(org, *listed[org]) for org in ("OrgA", "OrgB"))
        node, outcomes, _ = self.submit(genesis, batch, endorsements, now=4)
        state = genesis
        for pair in batch:
            one, (outcome,), _ = self.submit(state, [pair], endorsements, now=4)
            state = one.state
        assert [e.outcome for e in node.state.block_log] == [e.outcome for e in state.block_log]
        assert list(outcomes) == [e.outcome for e in state.block_log[len(genesis.block_log):]]
        assert node.state.state_hash() == state.state_hash()
        assert node.state.foreign == state.foreign
        replayed = net.replay_block_log(make_ledger(), node.state.block_log)
        assert replayed.state_hash() == node.state.state_hash()


class TestDataProofs:
    def setup_method(self):
        self.org_a = make_source_org("FarA", peers=2)
        self.org_b = make_source_org("FarB", peers=1)
        self.policy = net.VerificationPolicy("AWAY", ("FarA", "FarB"))
        self.sources = {"FarA": self.org_a, "FarB": self.org_b}
        self.ledger = make_ledger()
        for org in (self.org_a, self.org_b):
            self.ledger = self.commit(self.ledger, org.org_id, org.bundle_bytes(), now=1)

    def test_honest_proof_verifies(self):
        proof = net.generate_data_proof(self.sources, b"BL#1", self.policy)
        assert len(proof.signatures) == 2
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=10)

    def test_empty_data_still_valid(self):
        proof = net.generate_data_proof(self.sources, b"", self.policy)
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=10)

    def test_unknown_org_in_policy(self):
        policy = net.VerificationPolicy("AWAY", ("Ghost",))
        with pytest.raises(net.UnknownOrg):
            net.generate_data_proof(self.sources, b"x", policy)

    def test_missing_record_before_sync(self):
        empty = make_ledger()
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        with pytest.raises(net.NoIdentityRecord):
            net.verify_data_proof(empty, "AWAY", proof, self.policy, now=10)

    def test_revoked_member_rejected(self):
        sigs = endorse(
            ("OrgA", "OrgB"), "AWAY", "FarA", self.org_a.bundle_bytes(), "REVOKED", 2
        )
        ledger, _ = net.cmdac_update_foreign_identity(
            self.ledger, statement("AWAY", "FarA", self.org_a.bundle_bytes(), "REVOKED", 2),
            self.org_a.bundle_bytes(), sigs, now=3,
        )
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        with pytest.raises(net.RevokedMember) as err:
            net.verify_data_proof(ledger, "AWAY", proof, self.policy, now=10)
        assert err.value.org_id == "FarA"

    def test_rotated_but_unsynced_peer_fails_expired(self):
        self.org_a.rotate(now=2000)  # verifier still holds the old bundle
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        with pytest.raises(net.ExpiredCertificate) as err:
            # old leaf validity [0, 1000) has lapsed by now=1500
            net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=1500)
        assert err.value.org_id == "FarA"

    def test_signature_by_unrecorded_peer_rejected(self):
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        rogue = crypto.KeyPair.from_seed(seed32("rogue"))
        forged = net.DataProof(
            data=proof.data,
            signatures=tuple(
                (org, peer, rogue.sign(net.proof_signing_bytes(proof.data)))
                if org == "FarB"
                else (org, peer, sig)
                for org, peer, sig in proof.signatures
            ),
        )
        with pytest.raises(net.BadProofSignature) as err:
            net.verify_data_proof(self.ledger, "AWAY", forged, self.policy, now=10)
        assert err.value.org_id == "FarB"

    def test_proof_signature_binds_data(self):
        proof = net.generate_data_proof(self.sources, b"payload-1", self.policy)
        swapped = net.DataProof(data=b"payload-2", signatures=proof.signatures)
        with pytest.raises(net.BadProofSignature):
            net.verify_data_proof(self.ledger, "AWAY", swapped, self.policy, now=10)

    # --- the chains a record derives when it is made ---------------------------

    def count_verifies(self, monkeypatch):
        calls = []
        real = crypto.verify

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(crypto, "verify", counting)
        return calls

    @staticmethod
    def link_checks(calls) -> list:
        return [args for args in calls if args[1][0] == enc.TAG_CERT]

    def commit(self, ledger, org_id, bundle, now=3):
        """Commit `bundle` by a statement made the tick before `now`."""
        sigs = endorse(("OrgA", "OrgB"), "AWAY", org_id, bundle, "ACTIVE", now - 1)
        ledger, outcome = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", org_id, bundle, "ACTIVE", now - 1),
            bundle, sigs, now=now,
        )
        assert outcome == "APPLIED"
        return ledger

    def test_links_are_checked_when_the_record_is_made_and_no_proof_rechecks_them(
        self, monkeypatch
    ):
        calls = self.count_verifies(monkeypatch)
        ledger = make_ledger()
        for org in (self.org_a, self.org_b):
            ledger = self.commit(ledger, org.org_id, org.bundle_bytes(), now=1)
        assert len(self.link_checks(calls)) == 2 * 3  # root and leaf of each of 3 peers
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        for now in (10, 11):
            calls.clear()
            assert net.verify_data_proof(ledger, "AWAY", proof, self.policy, now=now)
            assert len(calls) == len(self.policy.required_orgs)  # the data signatures only

    def test_window_still_checked_after_a_memoized_success(self):
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=10)
        with pytest.raises(net.ExpiredCertificate) as err:
            net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=1500)
        assert err.value.org_id == "FarA"

    def test_forged_link_in_an_endorsed_bundle_fails_every_proof(self, monkeypatch):
        rogue = crypto.KeyPair.from_seed(seed32("rogue"))
        root, leaf = self.org_a.peers[0].chain
        forged_leaf = crypto.Certificate(
            leaf.subject_name, leaf.subject_public_key, leaf.issuer_name,
            leaf.valid_from, leaf.valid_to, rogue.sign(leaf.signing_bytes()),
        )
        bundle = net.Bundle("FarA", "AWAY", (crypto.Chain((root, forged_leaf)),)).to_bytes()
        calls = self.count_verifies(monkeypatch)
        ledger = self.commit(self.ledger, "FarA", bundle)
        assert len(self.link_checks(calls)) == 2  # the links, once, as the record is made
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        calls.clear()
        for _ in range(2):
            with pytest.raises(net.BadProofSignature) as err:
                net.verify_data_proof(ledger, "AWAY", proof, self.policy, now=10)
            assert err.value.org_id == "FarA"
            assert "BrokenLink at link 1" in str(err.value)
        assert calls == []  # each proof raises the recorded verdict again

    def test_rotated_bundle_s_new_record_checks_its_own_links(self, monkeypatch):
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=10)
        self.org_a.rotate(now=5)
        calls = self.count_verifies(monkeypatch)
        ledger = self.commit(self.ledger, "FarA", self.org_a.bundle_bytes())
        assert len(self.link_checks(calls)) == 2 * 2  # FarA's two new chains
        calls.clear()
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        assert net.verify_data_proof(ledger, "AWAY", proof, self.policy, now=10)
        assert len(calls) == 2  # both data signatures

    def test_derived_chains_are_no_part_of_equality_repr_or_state(self):
        other = make_ledger()
        for org in (self.org_a, self.org_b):
            other = self.commit(other, org.org_id, org.bundle_bytes(), now=1)
        record = other.get_record("AWAY", "FarA")
        assert sorted(record.chains) == [p.name for p in self.org_a.peers]
        bare = copy.copy(record)
        object.__setattr__(bare, "chains", {})
        stripped = replace(other, foreign={**other.foreign, "AWAY/FarA": bare})
        for ledger in (other, stripped):
            assert ledger.foreign == self.ledger.foreign
            assert repr(ledger.foreign) == repr(self.ledger.foreign)
            assert ledger.state_hash() == self.ledger.state_hash()

    def test_undecodable_recorded_bundle_fails_proofs_by_name(self):
        ledger = self.commit(self.ledger, "FarA", b"\x14not a bundle")
        assert ledger.get_record("AWAY", "FarA").chains == {}
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        with pytest.raises(net.BadProofSignature) as err:
            net.verify_data_proof(ledger, "AWAY", proof, self.policy, now=10)
        assert err.value.org_id == "FarA"

    def test_policy_requires_nonempty_signers(self):
        with pytest.raises(net.NetworkError):
            net.VerificationPolicy("AWAY", ())


class TestBundles:
    def test_bundle_roundtrip_and_digest(self):
        org = make_source_org(peers=3)
        payload = org.bundle_bytes()
        bundle = net.Bundle.from_bytes(payload)
        assert (bundle.org_id, bundle.network_id) == ("FarOrg", "AWAY")
        assert len(bundle.chains) == 3
        for chain in bundle.chains:
            assert crypto.verify_certificate_chain(chain.certificates, now=10)
        assert org.bundle_digest() == crypto.digest(payload)

    def test_bundle_is_kept_until_a_peer_chain_changes(self, monkeypatch):
        org = make_source_org(peers=2)
        codec = enc._codec(net.Bundle)
        encode, encodes = codec.encode, []
        monkeypatch.setattr(codec, "encode", lambda b: encodes.append(b) or encode(b))
        first = org.bundle_bytes()
        assert (org.bundle_bytes(), len(encodes)) == (first, 1)
        org.rotate(now=5)
        rotated = org.bundle_bytes()
        assert (rotated != first, len(encodes)) == (True, 2)
        # a leaf re-signed in place, as a test may forge one
        peer = org.peers[1]
        root, leaf = peer.chain
        rogue = crypto.KeyPair.from_seed(seed32("rogue"))
        peer.chain = (root, replace(leaf, issuer_signature=rogue.sign(leaf.signing_bytes())))
        forged = net.Bundle.from_bytes(org.bundle_bytes())
        assert len(encodes) == 3
        assert forged.chains[1].certificates == peer.chain
        assert org.bundle_bytes() == forged.to_bytes() and len(encodes) == 3

    def test_rotation_changes_leaves_not_root(self):
        org = make_source_org()
        before = [c.certificates for c in net.Bundle.from_bytes(org.bundle_bytes()).chains]
        org.rotate(now=50)
        after = [c.certificates for c in net.Bundle.from_bytes(org.bundle_bytes()).chains]
        assert before[0][0] == after[0][0]  # same root cert
        assert before[0][-1] != after[0][-1]  # fresh leaf
        assert after[0][-1].valid_from == 50

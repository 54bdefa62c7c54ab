"""Local ledger contract and data-plane proof hook."""

import hashlib
import itertools

import pytest

from idplane import crypto
from idplane import network as net


def seed32(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


def seed_fn(label: str) -> bytes:
    return seed32("world:" + label)


FAR_DID = "did:iin:iin0:far"  # the holder DID every test record is endorsed under

ORG_KEYS = {name: crypto.KeyPair.from_seed(seed32("admin:" + name)) for name in
            ("OrgA", "OrgB", "OrgC")}


def make_ledger(orgs=("OrgA", "OrgB")) -> net.LocalLedgerState:
    return net.LocalLedgerState(
        network_id="HOME",
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


def statement(foreign_net, foreign_org, bundle, status, nonce) -> net.Endorsement:
    """The statement that admits `bundle` under FAR_DID."""
    return net.Endorsement(foreign_net, foreign_org, FAR_DID, crypto.digest(bundle), status, nonce)


def endorse(orgs, foreign_net, foreign_org, bundle, status, nonce):
    message = statement(foreign_net, foreign_org, bundle, status, nonce).to_bytes()
    return tuple((o, ORG_KEYS[o].sign(message).bytes_) for o in orgs)


class TestCmdacContract:
    def test_full_endorsement_commits(self):
        ledger = make_ledger()
        org = make_source_org()
        bundle = org.bundle_bytes()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", b"n1")
        state, outcome = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"n1"),
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
                sigs = endorse(subset, "AWAY", "FarOrg", bundle, "ACTIVE", b"n")
                state, outcome = net.cmdac_update_foreign_identity(
                    ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"n"),
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
        good = endorse(("OrgA",), "AWAY", "FarOrg", bundle, "ACTIVE", b"n")
        forged = (("OrgB", ORG_KEYS["OrgB"].sign(b"something else").bytes_),)
        state, outcome = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"n"),
            bundle, good + forged, now=1,
        )
        assert outcome == "BadEndorsementSignature:OrgB"
        assert state.get_record("AWAY", "FarOrg") is None

    def test_endorsement_bound_to_nonce(self):
        ledger = make_ledger()
        bundle = make_source_org().bundle_bytes()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", b"n1")
        _, outcome = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"other-nonce"),
            bundle, sigs, now=1,
        )
        assert outcome.startswith("BadEndorsementSignature")

    def test_identical_recommit_is_noop(self):
        ledger = make_ledger()
        bundle = make_source_org().bundle_bytes()
        sigs1 = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", b"n1")
        state, _ = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"n1"),
            bundle, sigs1, now=1,
        )
        # a second initiator, different nonce, same content
        sigs2 = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", b"n2")
        state2, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"n2"),
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
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", old_bundle, "ACTIVE", b"n1")
        state, _ = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", old_bundle, "ACTIVE", b"n1"),
            old_bundle, sigs, now=1,
        )
        org.rotate(now=10)
        new_bundle = org.bundle_bytes()
        assert new_bundle != old_bundle
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", new_bundle, "ACTIVE", b"n2")
        state2, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", new_bundle, "ACTIVE", b"n2"),
            new_bundle, sigs, now=12,
        )
        assert outcome == "APPLIED"
        record = state2.get_record("AWAY", "FarOrg")
        assert record.content.bundle == new_bundle
        assert record.synced_at == 12

    def test_status_flip_keeps_audit_history(self):
        ledger = make_ledger()
        bundle = make_source_org().bundle_bytes()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", b"n1")
        state, _ = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"n1"),
            bundle, sigs, now=1,
        )
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "REVOKED", b"n2")
        state2, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", bundle, "REVOKED", b"n2"),
            bundle, sigs, now=2,
        )
        assert outcome == "APPLIED"
        assert state2.get_record("AWAY", "FarOrg").content.status == "REVOKED"
        assert len(state2.block_log) == 2  # history preserved, record not deleted

    def test_statement_of_another_bundle_is_refused_first(self):
        """The ledger digests the bundle it stores: a statement every org
        endorsed is refused, before any signature check, when its digest is
        not that bundle's, and consumes no nonce."""
        ledger = make_ledger()
        org = make_source_org()
        bundle = org.bundle_bytes()
        org.rotate(now=10)
        endorsed = statement("AWAY", "FarOrg", org.bundle_bytes(), "ACTIVE", b"n1")
        for sigs in (endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", org.bundle_bytes(),
                             "ACTIVE", b"n1"), ()):
            state, outcome = net.cmdac_update_foreign_identity(
                ledger, endorsed, bundle, sigs, now=1
            )
            assert outcome == "BundleDigestMismatch"
            assert state.foreign == ledger.foreign
            assert state.state_hash() == ledger.state_hash()
        sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", bundle, "ACTIVE", b"n1")
        state, outcome = net.cmdac_update_foreign_identity(
            state, statement("AWAY", "FarOrg", bundle, "ACTIVE", b"n1"), bundle, sigs, now=2
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
        for i, status in enumerate(("ACTIVE", "REVOKED", "ACTIVE")):
            nonce = bytes([i]) * 4
            sigs = endorse(("OrgA", "OrgB"), "AWAY", "FarOrg", org.bundle_bytes(), status, nonce)
            state, _ = net.cmdac_update_foreign_identity(
                state, statement("AWAY", "FarOrg", org.bundle_bytes(), status, nonce),
                org.bundle_bytes(), sigs, now=i,
            )
        replayed = net.replay_block_log(ledger, state.block_log)
        assert replayed.state_hash() == state.state_hash()
        assert replayed.foreign == state.foreign


def commit(state, status, nonce, orgs=("OrgA", "OrgB"), now=1):
    """Commit FarOrg's bundle with `status` under `nonce`, endorsed by `orgs`."""
    bundle = make_source_org().bundle_bytes()
    sigs = endorse(orgs, "AWAY", "FarOrg", bundle, status, nonce)
    return net.cmdac_update_foreign_identity(
        state, statement("AWAY", "FarOrg", bundle, status, nonce), bundle, sigs, now=now
    )


class TestNonceReplay:
    def test_replay_is_refused_after_several_noop_resyncs(self):
        ledger = make_ledger()
        state, outcome = commit(ledger, "ACTIVE", b"first")
        assert outcome == "APPLIED"
        for i in range(4):
            state, outcome = commit(state, "ACTIVE", bytes([i]) * 4, now=2 + i)
            assert outcome == "NOOP"
        state, outcome = commit(state, "REVOKED", b"flip", now=9)
        assert outcome == "APPLIED"
        for nonce in (b"first", b"\x02" * 4):
            replayed, outcome = commit(state, "ACTIVE", nonce, now=10)
            assert outcome == "ReplayedNonce"
            assert replayed.get_record("AWAY", "FarOrg").content.status == "REVOKED"

    def test_nonce_of_a_rejected_entry_stays_usable(self):
        ledger = make_ledger()
        state, outcome = commit(ledger, "ACTIVE", b"n1", orgs=("OrgA",))
        assert outcome == "MissingEndorsement:OrgB"
        state, outcome = commit(state, "ACTIVE", b"n1", now=2)
        assert outcome == "APPLIED"


class TestDataProofs:
    def setup_method(self):
        self.org_a = make_source_org("FarA", peers=2)
        self.org_b = make_source_org("FarB", peers=1)
        self.policy = net.VerificationPolicy("AWAY", ("FarA", "FarB"))
        self.sources = {"FarA": self.org_a, "FarB": self.org_b}
        self.ledger = make_ledger()
        for org in (self.org_a, self.org_b):
            self.ledger = self.commit(self.ledger, org.org_id, org.bundle_bytes(), b"n", now=1)

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
            ("OrgA", "OrgB"), "AWAY", "FarA", self.org_a.bundle_bytes(), "REVOKED", b"r"
        )
        ledger, _ = net.cmdac_update_foreign_identity(
            self.ledger, statement("AWAY", "FarA", self.org_a.bundle_bytes(), "REVOKED", b"r"),
            self.org_a.bundle_bytes(), sigs, now=2,
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

    # --- the per-record memo of recorded chains --------------------------------

    def count_verifies(self, monkeypatch):
        calls = []
        real = crypto.verify

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(crypto, "verify", counting)
        return calls

    def commit(self, ledger, org_id, bundle, nonce, now=3):
        sigs = endorse(("OrgA", "OrgB"), "AWAY", org_id, bundle, "ACTIVE", nonce)
        ledger, outcome = net.cmdac_update_foreign_identity(
            ledger, statement("AWAY", org_id, bundle, "ACTIVE", nonce),
            bundle, sigs, now=now,
        )
        assert outcome == "APPLIED"
        return ledger

    def test_second_proof_verifies_only_the_data_signatures(self, monkeypatch):
        calls = self.count_verifies(monkeypatch)
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=10)
        assert len(calls) == 6  # per org: root and leaf links, then the data
        calls.clear()
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=11)
        assert len(calls) == len(self.policy.required_orgs)

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
        ledger = self.commit(self.ledger, "FarA", bundle, b"forged")
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        calls = self.count_verifies(monkeypatch)
        for _ in range(2):
            with pytest.raises(net.BadProofSignature) as err:
                net.verify_data_proof(ledger, "AWAY", proof, self.policy, now=10)
            assert err.value.org_id == "FarA"
            assert "BrokenLink at link 1" in str(err.value)
        assert len(calls) == 2  # the links once; the second proof re-raises

    def test_rotated_bundle_pays_its_own_link_verifies(self, monkeypatch):
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=10)
        self.org_a.rotate(now=5)
        ledger = self.commit(self.ledger, "FarA", self.org_a.bundle_bytes(), b"rotated")
        calls = self.count_verifies(monkeypatch)
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        assert net.verify_data_proof(ledger, "AWAY", proof, self.policy, now=10)
        assert len(calls) == 2 + 2  # FarA's new links, then both data signatures

    def test_memo_is_per_ledger_and_no_part_of_the_state(self, monkeypatch):
        proof = net.generate_data_proof(self.sources, b"x", self.policy)
        assert net.verify_data_proof(self.ledger, "AWAY", proof, self.policy, now=10)
        other = make_ledger()
        for org in (self.org_a, self.org_b):
            other = self.commit(other, org.org_id, org.bundle_bytes(), b"n", now=1)
        # warm records equal, print and hash like the cold ones
        assert other.foreign == self.ledger.foreign
        assert repr(other.foreign) == repr(self.ledger.foreign)
        assert other.state_hash() == self.ledger.state_hash()
        calls = self.count_verifies(monkeypatch)
        assert net.verify_data_proof(other, "AWAY", proof, self.policy, now=10)
        assert len(calls) == 6

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

    def test_rotation_changes_leaves_not_root(self):
        org = make_source_org()
        before = [c.certificates for c in net.Bundle.from_bytes(org.bundle_bytes()).chains]
        org.rotate(now=50)
        after = [c.certificates for c in net.Bundle.from_bytes(org.bundle_bytes()).chains]
        assert before[0][0] == after[0][0]  # same root cert
        assert before[0][-1] != after[0][-1]  # fresh leaf
        assert after[0][-1].valid_from == 50

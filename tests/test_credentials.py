"""Credential and presentation verification: the seven-check discipline, the
sabotage matrix, disclosure privacy, and replay binding."""

import hashlib
from dataclasses import replace

import pytest

from idplane import credentials as creds
from idplane import crypto, registry
from idplane.anchors import cred_def_id_for, membership_schema, schema_id_for


def seed32(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


IIN = "iin0"
NET_B = "NETB"
NET_C = "NETC"


class VerificationWorld:
    """Hand-built registry view: a steward, a PMV anchor trusted for NET_B and
    NET_C, and a holder org with a verinym and membership credentials."""

    def __init__(self):
        self.steward_keys = crypto.KeyPair.from_seed(seed32("steward"))
        self.steward_did = registry.make_did(IIN, self.steward_keys.public_key)
        steward_doc = registry.DidDocument(
            did=self.steward_did,
            verification_keys=(self.steward_keys.public_key,),
            service_endpoint="steward",
            attestations=(),
        )
        self.anchor_keys = crypto.KeyPair.from_seed(seed32("anchor"))
        self.anchor_did = registry.make_did(IIN, self.anchor_keys.public_key)
        anchor_doc = self._attested(
            registry.DidDocument(
                did=self.anchor_did,
                verification_keys=(self.anchor_keys.public_key,),
                service_endpoint="anchor",
                attestations=(),
            )
        )
        self.holder_keys = crypto.KeyPair.from_seed(seed32("holder"))
        self.holder_did = registry.make_did(IIN, self.holder_keys.public_key)
        self.holder_doc = self._attested(
            registry.DidDocument(
                did=self.holder_did,
                verification_keys=(self.holder_keys.public_key,),
                service_endpoint="agent:holder",
                attestations=(),
            )
        )
        self.schema = membership_schema()
        self.cred_def = creds.CredentialDefinition(
            cred_def_id=cred_def_id_for(self.anchor_did, self.schema.schema_id),
            schema_id=self.schema.schema_id,
            issuer_did=self.anchor_did,
            authentication_public_key=self.anchor_keys.public_key,
        )
        self.vc_b = creds.issue_membership_credential(
            self.anchor_keys, self.anchor_did, self.cred_def.cred_def_id,
            self.holder_did, NET_B, issuance_counter=1,
        )
        self.vc_c = creds.issue_membership_credential(
            self.anchor_keys, self.anchor_did, self.cred_def.cred_def_id,
            self.holder_did, NET_C, issuance_counter=2,
        )
        other = crypto.digest(b"other-cred")
        self.acc_state, self.acc_leaves = crypto.accumulator_init(
            self.anchor_did, (self.vc_b.credential_id, self.vc_c.credential_id, other)
        )
        self.state = registry.RegistryState(
            docs={
                self.steward_did: steward_doc,
                self.anchor_did: anchor_doc,
                self.holder_did: self.holder_doc,
            },
            schemas={self.schema.schema_id: self.schema},
            cred_defs={self.cred_def.cred_def_id: self.cred_def},
            revocation={self.anchor_did: self.acc_state},
            roles={
                self.steward_did: frozenset({"STEWARD"}),
                self.anchor_did: frozenset({"OIV", "PMV"}),
            },
        )
        self.trusted = frozenset({(self.anchor_did, NET_B), (self.anchor_did, NET_C)})

    def _attested(self, doc: registry.DidDocument) -> registry.DidDocument:
        sig = self.steward_keys.sign(doc.attestation_bytes())
        return replace(doc, attestations=((self.steward_did, sig),))

    def witness(self, vc) -> crypto.AccumulatorWitness:
        return crypto.witness_for(self.acc_state, self.acc_leaves, vc.credential_id)

    def artifacts(self, **overrides) -> creds.VerificationArtifacts:
        ids = (self.holder_did, self.anchor_did, self.schema.schema_id, self.cred_def.cred_def_id)
        base = registry.MemberSnapshot.of(self.state, *((i,) for i in ids)).artifacts(*ids)
        for key, value in overrides.items():
            setattr(base, key, value)
        return base

    def vp(self, network=NET_B, nonce=b"n" * 16, keys=None, vc=None, witness=None):
        vc = vc if vc is not None else (self.vc_b if network == NET_B else self.vc_c)
        witness = witness if witness is not None else self.witness(vc)
        return creds.build_membership_vp(
            self.holder_did, keys or self.holder_keys, vc, witness, nonce
        )


@pytest.fixture(scope="module")
def world():
    return VerificationWorld()


class TestHonestPath:
    def test_all_seven_checks_pass(self, world):
        claim = creds.verify_membership_vp(
            world.vp(), NET_B, b"n" * 16, world.trusted, world.artifacts()
        )
        assert claim.holder_did == world.holder_did
        assert claim.network_id == NET_B

    def test_vp_serialization_roundtrip(self, world):
        vp = world.vp()
        assert creds.VerifiablePresentation.from_bytes(vp.to_bytes()) == vp


class TestSabotageMatrix:
    """Each single sabotage fails at exactly its check index."""

    def check(self, world, vp, expected_check, nonce=b"n" * 16, expected=NET_B, **art):
        with pytest.raises(creds.MembershipVerificationError) as err:
            creds.verify_membership_vp(
                vp, expected, nonce, world.trusted, world.artifacts(**art)
            )
        assert err.value.check == expected_check

    def test_1_wrong_nonce(self, world):
        self.check(world, world.vp(nonce=b"x" * 16), creds.CHECK_NONCE)

    def test_2_wrong_presenter_key(self, world):
        rogue = crypto.KeyPair.from_seed(seed32("rogue"))
        self.check(world, world.vp(keys=rogue), creds.CHECK_PRESENTER_SIGNATURE)

    def test_3_no_verinym(self, world):
        self.check(world, world.vp(), creds.CHECK_VERINYM, presenter_verinym=False)

    def test_4_nonconforming_attributes(self, world):
        # body replaced by junk the membership schema cannot account for,
        # signed properly so checks 1-3 pass first
        unsigned = creds.VerifiablePresentation(
            kind=creds.VP_MEMBERSHIP,
            body=b"\x01junk",
            presenter_did=world.holder_did,
            challenge_nonce=b"n" * 16,
            presenter_signature=crypto.Signature(b""),
        )
        signed = creds.VerifiablePresentation(
            kind=unsigned.kind,
            body=unsigned.body,
            presenter_did=unsigned.presenter_did,
            challenge_nonce=unsigned.challenge_nonce,
            presenter_signature=world.holder_keys.sign(unsigned.signing_bytes()),
        )
        self.check(world, signed, creds.CHECK_SCHEMA)

    def test_4_holder_binding_enforced(self, world):
        # a VC issued to someone else, wrapped and signed by the presenter
        stranger_keys = crypto.KeyPair.from_seed(seed32("stranger"))
        stranger_did = registry.make_did(IIN, stranger_keys.public_key)
        foreign_vc = creds.issue_membership_credential(
            world.anchor_keys, world.anchor_did, world.cred_def.cred_def_id,
            stranger_did, NET_B, issuance_counter=9,
        )
        body = creds.MembershipBody(foreign_vc, world.witness(world.vc_b), b"").to_bytes()
        unsigned = creds.VerifiablePresentation(
            kind=creds.VP_MEMBERSHIP,
            body=body,
            presenter_did=world.holder_did,
            challenge_nonce=b"n" * 16,
            presenter_signature=crypto.Signature(b""),
        )
        vp = creds.VerifiablePresentation(
            kind=unsigned.kind, body=unsigned.body, presenter_did=unsigned.presenter_did,
            challenge_nonce=unsigned.challenge_nonce,
            presenter_signature=world.holder_keys.sign(unsigned.signing_bytes()),
        )
        self.check(world, vp, creds.CHECK_SCHEMA)

    def test_5_untrusted_issuer(self, world):
        vp = world.vp()
        with pytest.raises(creds.MembershipVerificationError) as err:
            creds.verify_membership_vp(
                vp, NET_B, b"n" * 16, frozenset(), world.artifacts()
            )
        assert err.value.check == creds.CHECK_ISSUER

    def test_6_revoked_credential(self, world):
        revoked_state, _ = crypto.accumulator_revoke(
            world.acc_state, world.acc_leaves, world.vc_b.credential_id
        )
        self.check(
            world, world.vp(), creds.CHECK_REVOCATION, revocation_state=revoked_state
        )

    def test_7_wrong_network(self, world):
        self.check(world, world.vp(network=NET_C), creds.CHECK_NETWORK, expected=NET_B)

    @pytest.mark.parametrize("expected_check, detail, sabotage", [
        (creds.CHECK_PRESENTER_SIGNATURE, "presenter unresolved",
         lambda w: (w.vp(), {"presenter_doc": None})),
        (creds.CHECK_SCHEMA, "not a membership presentation", lambda w: (
            creds.build_self_signed_vp(w.holder_did, w.holder_keys, b"payload", b"n" * 16), {}
        )),
        (creds.CHECK_SCHEMA, "membership schema unavailable",
         lambda w: (w.vp(), {"schema": None})),
        (creds.CHECK_ISSUER, "credential definition mismatch", lambda w: (
            w.vp(), {"cred_def": replace(w.cred_def, issuer_did=w.holder_did)}
        )),
        (creds.CHECK_ISSUER, "issuer signature invalid", lambda w: (
            w.vp(vc=creds.issue_membership_credential(
                crypto.KeyPair.from_seed(seed32("rogue")), w.anchor_did,
                w.cred_def.cred_def_id, w.holder_did, NET_B, issuance_counter=1,
            )), {},
        )),
    ], ids=[
        "2-presenter-document-missing", "4-self-signed-presentation", "4-schema-missing",
        "5-cred-def-of-another-issuer", "5-vc-signed-by-a-rogue-key",
    ])
    def test_sabotage(self, world, expected_check, detail, sabotage):
        vp, artifacts = sabotage(world)
        with pytest.raises(creds.MembershipVerificationError, match=detail) as err:
            creds.verify_membership_vp(
                vp, NET_B, b"n" * 16, world.trusted, world.artifacts(**artifacts)
            )
        assert err.value.check == expected_check

    def test_build_time_holder_mismatch(self, world):
        stranger_keys = crypto.KeyPair.from_seed(seed32("stranger"))
        stranger_did = registry.make_did(IIN, stranger_keys.public_key)
        with pytest.raises(creds.HolderKeyMismatch):
            creds.build_membership_vp(
                stranger_did, stranger_keys, world.vc_b, world.witness(world.vc_b), b"n" * 16
            )


class TestPrivacy:
    def test_presentation_discloses_only_requested_network(self, world):
        vp_b = world.vp(network=NET_B)
        data = vp_b.to_bytes()
        assert NET_B.encode() in data
        assert NET_C.encode() not in data

    def test_other_direction_too(self, world):
        vp_c = world.vp(network=NET_C)
        data = vp_c.to_bytes()
        assert NET_C.encode() in data
        assert NET_B.encode() not in data


class TestReplayResistance:
    def test_captured_vp_fails_under_fresh_nonce(self, world):
        captured = world.vp(nonce=b"a" * 16)
        claim = creds.verify_membership_vp(
            captured, NET_B, b"a" * 16, world.trusted, world.artifacts()
        )
        assert claim.network_id == NET_B
        with pytest.raises(creds.MembershipVerificationError) as err:
            creds.verify_membership_vp(
                captured, NET_B, b"b" * 16, world.trusted, world.artifacts()
            )
        assert err.value.check == creds.CHECK_NONCE

    def test_signature_covers_nonce(self, world):
        vp = world.vp(nonce=b"a" * 16)
        # swapping the nonce in place breaks the presenter signature
        forged = creds.VerifiablePresentation(
            kind=vp.kind, body=vp.body, presenter_did=vp.presenter_did,
            challenge_nonce=b"b" * 16, presenter_signature=vp.presenter_signature,
        )
        with pytest.raises(creds.MembershipVerificationError) as err:
            creds.verify_membership_vp(
                forged, NET_B, b"b" * 16, world.trusted, world.artifacts()
            )
        assert err.value.check == creds.CHECK_PRESENTER_SIGNATURE


class TestSelfSignedVp:
    def test_payload_returned_byte_equal(self, world):
        payload = b"\x00\x01arbitrary bundle bytes\xff"
        vp = creds.build_self_signed_vp(world.holder_did, world.holder_keys, payload, b"z" * 16)
        out = creds.verify_self_signed_vp(vp, b"z" * 16, world.holder_doc, True)
        assert out == payload

    def test_empty_payload_is_valid(self, world):
        vp = creds.build_self_signed_vp(world.holder_did, world.holder_keys, b"", b"z" * 16)
        assert creds.verify_self_signed_vp(vp, b"z" * 16, world.holder_doc, True) == b""

    def test_unresolved_presenter(self, world):
        vp = creds.build_self_signed_vp(world.holder_did, world.holder_keys, b"p", b"z" * 16)
        with pytest.raises(creds.PresenterNotFound):
            creds.verify_self_signed_vp(vp, b"z" * 16, None, True)

    def test_pseudonymous_presenter_rejected(self, world):
        vp = creds.build_self_signed_vp(world.holder_did, world.holder_keys, b"p", b"z" * 16)
        with pytest.raises(creds.NoVerinym):
            creds.verify_self_signed_vp(vp, b"z" * 16, world.holder_doc, False)

    def test_nonce_mismatch(self, world):
        vp = creds.build_self_signed_vp(world.holder_did, world.holder_keys, b"p", b"z" * 16)
        with pytest.raises(creds.NonceMismatch):
            creds.verify_self_signed_vp(vp, b"y" * 16, world.holder_doc, True)

    def test_signature_by_key_outside_document(self, world):
        rogue = crypto.KeyPair.from_seed(seed32("rogue"))
        vp = creds.build_self_signed_vp(world.holder_did, rogue, b"p", b"z" * 16)
        with pytest.raises(creds.BadSignature):
            creds.verify_self_signed_vp(vp, b"z" * 16, world.holder_doc, True)


class TestSchemas:
    def test_membership_schema_attributes(self):
        schema = membership_schema()
        assert schema.attribute_names == ("holder_did", "network_id")
        assert schema.schema_id == schema_id_for("membership")

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(creds.CredentialError):
            creds.CredentialSchema("s", "n", "1", ("a", "a"))

    def test_vc_serialization_roundtrip(self, world):
        assert creds.MembershipCredential.from_bytes(world.vc_b.to_bytes()) == world.vc_b

    def test_memberlist_roundtrip(self, world):
        ml = creds.issue_memberlist_credential(
            world.anchor_keys, world.anchor_did,
            cred_def_id_for(world.anchor_did, schema_id_for("memberlist")),
            NET_B, (world.holder_did,), roster_version=3,
        )
        assert creds.MemberlistCredential.from_bytes(ml.to_bytes()) == ml
        assert ml.roster_version == 3

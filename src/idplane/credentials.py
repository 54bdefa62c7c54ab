"""Membership and memberlist credentials, and verifiable presentations.

A membership VC binds (holder DID, network id) under an issuing anchor's
credential-definition key; a memberlist VC enumerates a network's member DIDs
at a roster version. Holders package credentials into challenge-bound
verifiable presentations: a MEMBERSHIP presentation carries exactly one VC plus
its revocation witness (so other memberships are never disclosed) and, when
the challenge asks for it, the holder's certificate bundle for that VC's
network, all under the one presenter signature. A SELF_SIGNED presentation
carries an opaque payload under the presenter's own DID key; only the
anchor's memberlist endpoint serves one.

Verification of a membership presentation runs seven checks in a fixed order
so failures are reported deterministically:

  1 challenge nonce matches
  2 presenter signature verifies against the resolved DID document key
  3 presenter is a verinym (anchor-attested)
  4 body conforms to the membership schema and the claim binds the presenter
  5 issuer is on the verifier's trust list and the VC signature verifies under
    the issuer's registered credential-definition key
  6 revocation witness verifies against the current registry state
  7 the claimed network is the expected one
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import crypto
from . import encoding as enc

if TYPE_CHECKING:
    from .registry import DidDocument

VP_MEMBERSHIP = "MEMBERSHIP"
VP_SELF_SIGNED = "SELF_SIGNED"

MEMBERSHIP_SCHEMA_NAME = "membership"
MEMBERLIST_SCHEMA_NAME = "memberlist"
MEMBERSHIP_ATTRS = ("holder_did", "network_id")
MEMBERLIST_ATTRS = ("network_id", "member_dids", "roster_version")

CHECK_NONCE = 1
CHECK_PRESENTER_SIGNATURE = 2
CHECK_VERINYM = 3
CHECK_SCHEMA = 4
CHECK_ISSUER = 5
CHECK_REVOCATION = 6
CHECK_NETWORK = 7

_CHECK_NAMES = {
    CHECK_NONCE: "nonce",
    CHECK_PRESENTER_SIGNATURE: "presenter_signature",
    CHECK_VERINYM: "verinym",
    CHECK_SCHEMA: "schema_conformance",
    CHECK_ISSUER: "issuer_trust",
    CHECK_REVOCATION: "revocation",
    CHECK_NETWORK: "network_match",
}


class CredentialError(Exception):
    pass


class HolderKeyMismatch(CredentialError):
    pass


class MembershipVerificationError(CredentialError):
    """A membership presentation failed; names the first failing check."""

    def __init__(self, check: int, detail: str = ""):
        self.check = check
        name = _CHECK_NAMES.get(check, str(check))
        super().__init__(f"check {check} ({name}) failed" + (f": {detail}" if detail else ""))


class NonceMismatch(CredentialError):
    pass


class NoVerinym(CredentialError):
    pass


class BadSignature(CredentialError):
    pass


class PresenterNotFound(CredentialError):
    pass


@dataclass(frozen=True)
class CredentialSchema(enc.Record):
    TAG = enc.TAG_SCHEMA
    schema_id: str
    name: str
    version: str
    attribute_names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.attribute_names)) != len(self.attribute_names):
            raise CredentialError("schema attribute names must be unique")


def schema_id_for(schema_name: str) -> str:
    return f"schema:{schema_name}:1"


def cred_def_id_for(issuer_did: str, schema_id: str) -> str:
    """The one id the registry admits for `issuer_did`'s definition over
    `schema_id`, so no anchor can take another's id first."""
    return f"creddef:{issuer_did}:{schema_id}"


@dataclass(frozen=True)
class CredentialDefinition(enc.Record):
    TAG = enc.TAG_CRED_DEF
    cred_def_id: str
    schema_id: str
    issuer_did: str
    authentication_public_key: bytes


@dataclass(frozen=True)
class MembershipCredential(enc.Signed):
    TAG = enc.TAG_MEMBERSHIP_VC
    credential_id: bytes
    holder_did: str
    network_id: str
    issuer_did: str
    cred_def_id: str
    issuer_signature: crypto.Signature


@dataclass(frozen=True)
class CredentialIdSeed(enc.Record):
    """What a membership credential's id is the digest of."""

    TAG = enc.TAG_CREDENTIAL_ID
    holder_did: str
    network_id: str
    issuance_counter: int


def issue_membership_credential(
    issuer_keys: crypto.KeyPair,
    issuer_did: str,
    cred_def_id: str,
    holder_did: str,
    network_id: str,
    issuance_counter: int,
) -> MembershipCredential:
    """Mint a membership VC; the credential id commits to holder, network, and
    the issuer's monotone issuance counter so re-issued credentials differ."""
    seed = CredentialIdSeed(holder_did, network_id, issuance_counter).to_bytes()
    return MembershipCredential.sign(
        issuer_keys, crypto.digest(seed), holder_did, network_id, issuer_did, cred_def_id
    )


@dataclass(frozen=True)
class MemberlistCredential(enc.Signed):
    TAG = enc.TAG_MEMBERLIST_VC
    network_id: str
    member_dids: tuple[str, ...]
    roster_version: int
    issuer_did: str
    cred_def_id: str
    issuer_signature: crypto.Signature


def issue_memberlist_credential(
    issuer_keys: crypto.KeyPair,
    issuer_did: str,
    cred_def_id: str,
    network_id: str,
    member_dids: tuple[str, ...],
    roster_version: int,
) -> MemberlistCredential:
    return MemberlistCredential.sign(
        issuer_keys, network_id, member_dids, roster_version, issuer_did, cred_def_id
    )


@dataclass(frozen=True)
class VerifiablePresentation(enc.Signed):
    TAG = enc.TAG_VP
    kind: str  # VP_MEMBERSHIP or VP_SELF_SIGNED
    body: bytes
    presenter_did: str
    challenge_nonce: bytes
    presenter_signature: crypto.Signature


@dataclass(frozen=True)
class Challenge(enc.Record):  # a request for a presentation of `network_id`, bound to `nonce`
    network_id: str
    nonce: bytes
    epochs: tuple[tuple[str, int], ...] = ()  # (issuer DID, the epoch of its state read)
    bundle: int = 0  # 1: carry the holder's bundle of the network too


@dataclass(frozen=True)
class Presented(enc.Record):  # a challenge's reply; step D forwards `vp` undecoded
    vp: bytes


@dataclass(frozen=True)
class MembershipBody(enc.Record):
    """A MEMBERSHIP presentation's body: one VC, its revocation witness and
    the holder's certificate bundle for the VC's network (empty when the
    challenge did not ask for it)."""

    vc: enc.Framed[MembershipCredential]
    witness: enc.Framed[crypto.AccumulatorWitness]
    bundle: bytes


def build_membership_vp(
    holder_did: str,
    holder_keys: crypto.KeyPair,
    vc: MembershipCredential,
    witness: crypto.AccumulatorWitness,
    challenge_nonce: bytes,
    bundle: bytes = b"",
) -> VerifiablePresentation:
    """Presentation carrying exactly the one VC for the requested network and,
    when given, the bundle for that network, all under one signature; the
    serialization discloses no other membership the holder may have."""
    if vc.holder_did != holder_did:
        raise HolderKeyMismatch(f"credential held by {vc.holder_did}, presenter {holder_did}")
    body = MembershipBody(vc, witness, bundle).to_bytes()
    return VerifiablePresentation.sign(
        holder_keys, VP_MEMBERSHIP, body, holder_did, challenge_nonce
    )


def build_self_signed_vp(
    signer_did: str, signer_keys: crypto.KeyPair, payload: bytes, challenge_nonce: bytes
) -> VerifiablePresentation:
    return VerifiablePresentation.sign(
        signer_keys, VP_SELF_SIGNED, payload, signer_did, challenge_nonce
    )


@dataclass(frozen=True)
class VerifiedClaim:
    holder_did: str
    network_id: str
    credential_id: bytes


@dataclass
class VerificationArtifacts:
    """Registry-sourced inputs to presentation verification. Entries are None
    when the corresponding registry read found nothing; the matching check then
    fails with its own index."""

    presenter_doc: Optional["DidDocument"] = None
    presenter_verinym: bool = False
    schema: Optional[CredentialSchema] = None
    cred_def: Optional[CredentialDefinition] = None
    revocation_state: Optional[crypto.RevocationRegistryState] = None


def read_membership_body(vp: VerifiablePresentation) -> MembershipBody | enc.DecodeError:
    """The presentation's body, or the error its decoding raised."""
    try:
        return MembershipBody.from_bytes(vp.body)
    except enc.DecodeError as e:
        return e


def verify_membership_vp(
    vp: VerifiablePresentation,
    expected_network_id: str,
    challenge_nonce: bytes,
    trusted_issuers: frozenset[tuple[str, str]],  # (anchor did, represented network)
    artifacts: VerificationArtifacts,
    body: MembershipBody | enc.DecodeError | None = None,
) -> VerifiedClaim:
    """Run the seven verification checks in order; raises
    MembershipVerificationError naming the first failing check. `body` is
    `read_membership_body(vp)` when the caller has read it already."""
    if vp.challenge_nonce != challenge_nonce:
        raise MembershipVerificationError(CHECK_NONCE)

    doc = artifacts.presenter_doc
    if doc is None or vp.presenter_did != doc.did:
        raise MembershipVerificationError(CHECK_PRESENTER_SIGNATURE, "presenter unresolved")
    if not crypto.verify(doc.primary_key(), vp.signing_bytes(), vp.presenter_signature):
        raise MembershipVerificationError(CHECK_PRESENTER_SIGNATURE)

    if not artifacts.presenter_verinym:
        raise MembershipVerificationError(CHECK_VERINYM)

    if vp.kind != VP_MEMBERSHIP:
        raise MembershipVerificationError(CHECK_SCHEMA, "not a membership presentation")
    if body is None:
        body = read_membership_body(vp)
    if isinstance(body, enc.DecodeError):
        raise MembershipVerificationError(CHECK_SCHEMA, str(body))
    vc, witness = body.vc, body.witness
    schema = artifacts.schema
    if schema is None or schema.attribute_names != MEMBERSHIP_ATTRS:
        raise MembershipVerificationError(CHECK_SCHEMA, "membership schema unavailable")
    if vc.holder_did != vp.presenter_did:
        raise MembershipVerificationError(CHECK_SCHEMA, "claim does not bind presenter")

    cred_def = artifacts.cred_def
    if (vc.issuer_did, vc.network_id) not in trusted_issuers:
        raise MembershipVerificationError(CHECK_ISSUER, "issuer not on trust list")
    if (
        cred_def is None
        or cred_def.issuer_did != vc.issuer_did
        or cred_def.cred_def_id != vc.cred_def_id
        or cred_def.schema_id != schema.schema_id
    ):
        raise MembershipVerificationError(CHECK_ISSUER, "credential definition mismatch")
    if not crypto.verify(
        cred_def.authentication_public_key, vc.signing_bytes(), vc.issuer_signature
    ):
        raise MembershipVerificationError(CHECK_ISSUER, "issuer signature invalid")

    revocation = artifacts.revocation_state
    if (
        revocation is None
        or revocation.issuer_did != vc.issuer_did
        or witness.element != vc.credential_id
        or not crypto.witness_verify(revocation, witness)
    ):
        raise MembershipVerificationError(CHECK_REVOCATION)

    if vc.network_id != expected_network_id:
        raise MembershipVerificationError(CHECK_NETWORK)

    return VerifiedClaim(
        holder_did=vc.holder_did, network_id=vc.network_id, credential_id=vc.credential_id
    )


def verify_self_signed_vp(
    vp: VerifiablePresentation,
    challenge_nonce: bytes,
    presenter_doc: Optional["DidDocument"],
    presenter_verinym: bool,
) -> bytes:
    """Validate a self-signed presentation against the presenter's registry
    document; returns the payload bytes intact."""
    if presenter_doc is None:
        raise PresenterNotFound(vp.presenter_did)
    if not presenter_verinym:
        raise NoVerinym(vp.presenter_did)
    if vp.challenge_nonce != challenge_nonce:
        raise NonceMismatch()
    if vp.kind != VP_SELF_SIGNED or vp.presenter_did != presenter_doc.did:
        raise BadSignature("presentation does not bind presenter")
    if not crypto.verify(
        presenter_doc.primary_key(), vp.signing_bytes(), vp.presenter_signature
    ):
        raise BadSignature()
    return vp.body

"""Trust-anchor services on the identity network.

An anchor validates organizations out-of-band and vouches for them on the
registry: as an organization identity validator (OIV) it attests DID documents
against an evidence whitelist and submits the verinym registration; as a
participant membership validator (PMV) it issues and revokes membership
credentials for the networks it represents, maintains the per-network rosters
(holder DID -> membership credential) and the memberlist credential, and runs
the revocation registry: a Merkle accumulator whose leaves are the credential
ids of every roster, re-published to the registry at every epoch bump.

Issuance and revocation are serialized per anchor, each op a session that
first Joins the op enqueued before it, so accumulator epochs never race;
holders whose witnesses go stale after someone else's epoch bump come back for
a witness refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from . import credentials as creds
from . import crypto
from . import registry
from .actors import Actor, Join, Message, SessionRecord
from .credentials import cred_def_id_for, schema_id_for


class AnchorError(Exception):
    pass


class NotRepresented(AnchorError):
    pass


class NotAMember(AnchorError):
    pass


@dataclass
class TrustAnchorProfile:
    name: str
    did: str
    roles: frozenset[str]
    represented_networks: tuple[str, ...] = ()
    evidence_whitelist: dict[str, bytes] = field(default_factory=dict)  # org name -> key


@dataclass
class MembershipRoster:
    network_id: str
    members: dict[str, creds.MembershipCredential] = field(default_factory=dict)  # by holder DID
    version: int = 0


class AnchorService(Actor):
    """One trust anchor (possibly holding both OIV and PMV roles)."""

    def __init__(
        self,
        address: str,
        profile: TrustAnchorProfile,
        keys: crypto.KeyPair,
        pool: registry.PoolInfo,
        eligibility: dict[str, dict[str, str]],  # network -> holder DID -> org name
    ):
        super().__init__(address)
        self.profile = profile
        self.keys = keys
        self.pool = pool
        self.eligibility = eligibility
        self.rosters: dict[str, MembershipRoster] = {
            net: MembershipRoster(network_id=net) for net in profile.represented_networks
        }
        self.acc_state: Optional[crypto.RevocationRegistryState] = None
        self.memberlists: dict[str, creds.MemberlistCredential] = {}
        self.issuance_counter = 0
        self._last_op: Optional[SessionRecord] = None

    @property
    def membership_cred_def_id(self) -> str:
        return cred_def_id_for(self.profile.did, schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME))

    @property
    def memberlist_cred_def_id(self) -> str:
        return cred_def_id_for(self.profile.did, schema_id_for(creds.MEMBERLIST_SCHEMA_NAME))

    # --- serialized mutating operations -------------------------------------

    def enqueue_serialized(self, label: str, gen_factory) -> None:
        """Run `gen_factory()` as a session once the op enqueued before it has
        ended, whether or not that op failed."""
        previous = self._last_op

        def op() -> Generator:
            if previous is not None:
                try:
                    yield Join((previous,))
                except Exception:
                    pass  # the runtime traced it as session.failed
            return (yield from gen_factory())

        self._last_op = self.start_session(label, op())

    def _leaves(self) -> tuple[bytes, ...]:
        """The accumulator's leaves: the credential ids of every roster, sorted."""
        return tuple(sorted(
            vc.credential_id for roster in self.rosters.values() for vc in roster.members.values()
        ))

    # --- bootstrap ------------------------------------------------------------

    def publish_artifacts(self) -> Generator:
        """Register credential definitions and the epoch-0 revocation registry.
        Run once after the steward has granted this anchor its roles."""
        if registry.ROLE_PMV not in self.profile.roles:
            return
        writes = []
        for schema_name in (creds.MEMBERSHIP_SCHEMA_NAME, creds.MEMBERLIST_SCHEMA_NAME):
            schema_id = schema_id_for(schema_name)
            cred_def = creds.CredentialDefinition(
                cred_def_id=cred_def_id_for(self.profile.did, schema_id),
                schema_id=schema_id,
                issuer_did=self.profile.did,
                authentication_public_key=self.keys.public_key,
            )
            writes.append(
                (registry.KIND_CRED_DEF, cred_def.to_bytes(), "credential definition rejected")
            )
        state, _ = crypto.accumulator_init(self.profile.did)
        writes.append((registry.KIND_REVOC_INIT, state.to_bytes(), "revocation init rejected"))
        yield from submit_all(self.pool, self.profile.did, self.keys, writes)
        self.acc_state = state
        for net in self.profile.represented_networks:
            self._rebuild_memberlist(net)
        self.trace("anchor.ready", anchor=self.profile.name)

    # --- message handling -------------------------------------------------

    REQUESTS = {
        "anchor.verinym.request": ("_register_verinym", "anchor.verinym.reply"),
        "anchor.vc.request": ("_issue_membership", "anchor.vc.reply"),
        "anchor.memberlist.request": ("_serve_memberlist", "anchor.memberlist.reply"),
        "anchor.witness.request": ("_refresh_witness", "anchor.witness.reply"),
    }

    def on_message(self, sender: str, msg: Message) -> None:
        # the two requests that write the registry run one at a time
        if msg.kind in ("anchor.verinym.request", "anchor.vc.request"):
            entry = self.REQUESTS[msg.kind]
            self.enqueue_serialized(msg.kind, lambda: self._serve(sender, msg, *entry))
        else:
            super().on_message(sender, msg)

    # --- OIV: verinym registration ---------------------------------------

    def _register_verinym(self, sender: str, msg: Message) -> Generator:
        org_name, doc_hex = msg.fields("org_name", "doc")
        try:
            doc = registry.DidDocument.from_bytes(bytes.fromhex(doc_hex))
        except ValueError:
            return {"ok": False, "error": "BadDocument"}
        expected = self.profile.evidence_whitelist.get(org_name)
        if expected is None or doc.primary_key() != expected:
            # out-of-band vetting failed: no transaction leaves the anchor
            self.trace("anchor.evidence_mismatch", org=org_name)
            return {"ok": False, "error": "EvidenceMismatch"}
        attested = registry.attest(doc, self.profile.did, self.keys)

        def read_back() -> Generator:
            resolved, _ = yield from registry.resolve_did(self.pool, doc.did)
            return resolved.to_bytes()

        try:
            outcome = yield from self._submit_read_back(
                registry.KIND_NYM, attested.to_bytes(), read_back
            )
        except registry.QuorumUnavailable as e:
            return {"ok": False, "error": str(e)}
        if outcome not in (registry.OUTCOME_APPLIED, "Duplicate"):
            return {"ok": False, "error": outcome}
        self.trace("anchor.verinym_registered", org=org_name, did=doc.did, outcome=outcome)
        return {"ok": True, "did": doc.did, "doc": attested.to_bytes().hex(), "outcome": outcome}

    # --- PMV: membership issuance / revocation ------------------------------

    def _issue_membership(self, sender: str, msg: Message) -> Generator:
        holder_did, network_id = msg.fields("holder_did", "network_id")
        if network_id not in self.profile.represented_networks or self.acc_state is None:
            return {"ok": False, "error": "NotRepresented"}
        try:
            _, verinym = yield from registry.resolve_did(self.pool, holder_did)
        except registry.NotFound:
            verinym = False
        if not verinym:
            return {"ok": False, "error": "NoVerinym"}
        if self.eligibility.get(network_id, {}).get(holder_did) is None:
            return {"ok": False, "error": "NotEligible"}

        roster = self.rosters[network_id]
        if holder_did in roster.members:
            # idempotent re-issue: same credential, fresh witness, no epoch bump
            vc = roster.members[holder_did]
            witness = crypto.witness_for(self.acc_state, self._leaves(), vc.credential_id)
            return {"ok": True, "vc": vc.to_bytes().hex(), "witness": witness.to_bytes().hex(),
                    "already_member": True}

        self.issuance_counter += 1
        vc = creds.issue_membership_credential(
            issuer_keys=self.keys,
            issuer_did=self.profile.did,
            cred_def_id=self.membership_cred_def_id,
            holder_did=holder_did,
            network_id=network_id,
            issuance_counter=self.issuance_counter,
        )
        new_state, _ = crypto.accumulator_add(self.acc_state, self._leaves(), vc.credential_id)
        try:
            yield from self._publish_revocation_state(new_state)
        except (registry.QuorumUnavailable, AnchorError) as e:
            return {"ok": False, "error": str(e)}
        self.acc_state = new_state
        roster.members[holder_did] = vc
        roster.version += 1
        self._rebuild_memberlist(network_id)
        witness = crypto.witness_for(self.acc_state, self._leaves(), vc.credential_id)
        self.trace(
            "anchor.vc_issued",
            network=network_id,
            holder=holder_did,
            epoch=self.acc_state.epoch,
            roster_version=roster.version,
        )
        return {"ok": True, "vc": vc.to_bytes().hex(), "witness": witness.to_bytes().hex()}

    def revoke_membership(self, holder_did: str, network_id: str) -> Generator:
        """Remove the holder's credential from the accumulator (next epoch),
        publish the update, and drop the holder from the roster. Run via
        enqueue_serialized."""
        if network_id not in self.profile.represented_networks:
            raise NotRepresented(network_id)
        roster = self.rosters[network_id]
        if holder_did not in roster.members:
            raise NotAMember(holder_did)
        new_state, _ = crypto.accumulator_revoke(
            self.acc_state, self._leaves(), roster.members[holder_did].credential_id
        )
        yield from self._publish_revocation_state(new_state)
        self.acc_state = new_state
        del roster.members[holder_did]
        roster.version += 1
        self._rebuild_memberlist(network_id)
        self.trace(
            "anchor.revoked",
            network=network_id,
            holder=holder_did,
            epoch=self.acc_state.epoch,
            roster_version=roster.version,
        )

    def _publish_revocation_state(self, new_state: crypto.RevocationRegistryState) -> Generator:
        """Submit `new_state` as this anchor's next revocation state, so that
        the anchor does not keep an epoch the registry has left. Raises
        QuorumUnavailable, or AnchorError when the registry refused it."""
        did = self.profile.did

        def read_back() -> Generator:
            _, _, states = yield from registry.resolve_member(self.pool, did, (did,))
            return states[did].to_bytes() if did in states else None

        outcome = yield from self._submit_read_back(
            registry.KIND_REVOC_UPDATE, new_state.to_bytes(), read_back
        )
        if outcome != registry.OUTCOME_APPLIED:
            raise AnchorError(f"revocation update rejected: {outcome}")

    def _submit_read_back(self, kind: str, payload: bytes, read_back) -> Generator:
        """Submit one transaction and return its outcome. When no receipt comes
        back, `read_back()` reads from the pool the value the transaction
        writes: bytes equal to `payload` mean the write applied. Raises
        QuorumUnavailable otherwise."""
        tx = registry.make_transaction(kind, payload, self.profile.did, self.keys)
        try:
            receipt = yield from registry.submit_transaction(self.pool, tx)
        except registry.QuorumUnavailable as lost:
            try:
                applied = yield from read_back()
            except registry.RegistryError:
                raise lost from None
            if applied != payload:
                raise lost
            return registry.OUTCOME_APPLIED
        return receipt["outcomes"][0]

    # --- PMV: read-side services ---------------------------------------------

    def _rebuild_memberlist(self, network_id: str) -> None:
        roster = self.rosters[network_id]
        self.memberlists[network_id] = creds.issue_memberlist_credential(
            issuer_keys=self.keys,
            issuer_did=self.profile.did,
            cred_def_id=self.memberlist_cred_def_id,
            network_id=network_id,
            member_dids=tuple(sorted(roster.members)),
            roster_version=roster.version,
        )

    def _serve_memberlist(self, sender: str, msg: Message) -> dict:
        network_id, nonce = msg.fields("network_id", "nonce")
        nonce = bytes.fromhex(nonce)
        memberlist = self.memberlists.get(network_id)
        if memberlist is None:
            return {"ok": False, "error": "NotRepresented"}
        vp = creds.build_self_signed_vp(self.profile.did, self.keys, memberlist.to_bytes(), nonce)
        return {"ok": True, "vp": vp.to_bytes().hex()}

    def _refresh_witness(self, sender: str, msg: Message) -> dict:
        credential_id = bytes.fromhex(msg.body["credential_id"])
        leaves = self._leaves()
        if self.acc_state is None or credential_id not in leaves:
            return {"ok": False, "error": "NotAMember"}
        witness = crypto.witness_for(self.acc_state, leaves, credential_id)
        return {"ok": True, "witness": witness.to_bytes().hex()}


def membership_schema() -> creds.CredentialSchema:
    return creds.CredentialSchema(
        schema_id=schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME),
        name=creds.MEMBERSHIP_SCHEMA_NAME,
        version="1",
        attribute_names=creds.MEMBERSHIP_ATTRS,
    )


def memberlist_schema() -> creds.CredentialSchema:
    return creds.CredentialSchema(
        schema_id=schema_id_for(creds.MEMBERLIST_SCHEMA_NAME),
        name=creds.MEMBERLIST_SCHEMA_NAME,
        version="1",
        attribute_names=creds.MEMBERLIST_ATTRS,
    )


class StewardService(Actor):
    """Genesis steward: registers anchors (verinym + role grants) and the
    credential schemas during bootstrap."""

    def __init__(
        self,
        address: str,
        did: str,
        keys: crypto.KeyPair,
        pool: registry.PoolInfo,
    ):
        super().__init__(address)
        self.did = did
        self.keys = keys
        self.pool = pool

    def bootstrap(
        self, anchor_docs: list[tuple[registry.DidDocument, frozenset[str]]]
    ) -> Generator:
        writes = [
            (registry.KIND_SCHEMA, schema.to_bytes(), "schema rejected")
            for schema in (membership_schema(), memberlist_schema())
        ]
        for doc, roles in anchor_docs:
            attested = registry.attest(doc, self.did, self.keys)
            writes.append((registry.KIND_NYM, attested.to_bytes(), "anchor registration rejected"))
            writes += [
                (
                    registry.KIND_ANCHOR_GRANT,
                    registry.AnchorGrant(doc.did, role).to_bytes(),
                    "role grant rejected",
                )
                for role in sorted(roles)
            ]
        yield from submit_all(self.pool, self.did, self.keys, writes)
        self.trace("steward.bootstrap_complete", anchors=len(anchor_docs))


def submit_all(
    pool: registry.PoolInfo,
    submitter_did: str,
    keys: crypto.KeyPair,
    writes: list[tuple[str, bytes, str]],
) -> Generator:
    """Submit one transaction per (kind, payload, refusal) in `writes` as one
    registry batch. Raises AnchorError("<refusal>: <outcome>") for the first
    transaction that did not apply, and QuorumUnavailable as the registry
    does."""
    txs = [
        registry.make_transaction(kind, payload, submitter_did, keys)
        for kind, payload, _ in writes
    ]
    receipt = yield from registry.submit_transaction(pool, *txs)
    for (_, _, refusal), outcome in zip(writes, receipt["outcomes"]):
        if outcome != registry.OUTCOME_APPLIED:
            raise AnchorError(f"{refusal}: {outcome}")

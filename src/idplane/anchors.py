"""Trust-anchor services on the identity network.

An anchor validates organizations out-of-band and vouches for them on the
registry: as a participant membership validator (PMV) it issues and revokes
membership credentials for the networks it represents, maintains the
per-network rosters (holder DID -> membership credential) and the memberlist
credential, and runs the revocation registry: a Merkle accumulator whose
leaves are the credential ids of every roster, re-published to the registry
at every epoch bump. As an organization identity validator (OIV) it vets a
DID document against its evidence whitelist and registers it as a verinym,
in the same request: an org's OIV is the PMV of one of its home networks,
and the org's request for that network's credential carries its document.

The memberlist lives in the registry beside the revocation state. Every
roster change is an epoch bump, so the anchor signs the next list of each
network the change touches (roster version + 1) before it writes, and that
one revocation transaction carries both (`registry.RevocationUpdate`); the
epoch-0 init carries each network's empty list. The anchor adopts state and
lists only once the write applies, so the registry, the anchor and every
reader see the same list at the same epoch. Verifiers read the list from the
registry; `_serve_memberlist` still answers anyone who asks the anchor.

An anchor writes the registry one write at a time, from one queue, so
accumulator epochs never race. While a write is in flight, credential
requests queue; when it ends, the anchor takes every request queued before
the next serialized op (a revocation) as one batch, in the manner of
database group commit: one registry read of every holder's document, then
one registry batch holding a NYM per document the registry does not hold
yet, then one revocation update that adds every new credential id in a
single epoch step. Each request is answered from its own checks and its own
transactions' outcomes, so one bad request fails alone. A serialized op
runs alone, in its turn. Nothing waits on purpose: a request that finds the
queue idle goes out at once. A credential is answered once the writes
queued behind its batch when that ended have ended too (never later ones),
with a witness at the epoch they leave. Holders whose witnesses go stale
after a later epoch bump come back for a witness refresh.

Every registry writer, the steward included, writes through `submit`, which
reads a lost receipt's outcomes back from the registry's applied set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile
from typing import Callable, Generator, Optional, Union

from . import credentials as creds
from . import crypto
from . import encoding as enc
from . import registry
from .actors import Actor, Join, SessionRecord
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


@dataclass(eq=False)
class _Queued:
    """One write waiting its turn at an anchor: a credential request (its
    checked fields and attested document), served in a batch with the
    requests queued beside it, or a serialized op (its session label as
    `kind`, and its `factory`), run alone."""

    kind: str
    args: tuple = ()
    doc: Optional[registry.DidDocument] = None
    factory: Optional[Callable[[], Generator]] = None
    write: Optional[SessionRecord] = None  # the write session that took it
    reply: Union[enc.Record, str, Exception, None] = None  # a reply, or the error it raises


# --- message bodies: one record per request and reply kind (`AnchorService.REQUESTS`)


@dataclass(frozen=True)
class VcRequest(enc.Record):  # anchor.vc.request
    holder_did: str
    network_id: str
    doc: tuple[enc.Framed[registry.DidDocument], ...] = ()  # to its OIV: the one to register


@dataclass(frozen=True)
class Issued(enc.Record):  # anchor.vc.reply
    vc: enc.Framed[creds.MembershipCredential]
    witness: enc.Framed[crypto.AccumulatorWitness]
    already_member: int  # 1 when the holder held the credential before, else 0


@dataclass(frozen=True)
class WitnessRequest(enc.Record):  # anchor.witness.request
    credential_id: bytes


@dataclass(frozen=True)
class Witness(enc.Record):  # anchor.witness.reply
    witness: enc.Framed[crypto.AccumulatorWitness]


@dataclass
class MembershipRoster:
    network_id: str
    members: dict[str, creds.MembershipCredential] = field(default_factory=dict)  # by holder DID


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
        self._queue: list[_Queued] = []
        self._taken: Optional[_Queued] = None  # the last entry taken: its write is the latest

    @property
    def membership_cred_def_id(self) -> str:
        return cred_def_id_for(self.profile.did, schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME))

    @property
    def memberlist_cred_def_id(self) -> str:
        return cred_def_id_for(self.profile.did, schema_id_for(creds.MEMBERLIST_SCHEMA_NAME))

    # --- the write queue ---------------------------------------------------

    def enqueue_serialized(self, label: str, gen_factory) -> None:
        """Run `gen_factory()` alone, as a session labelled `label`, once every
        write queued before it has ended, whether or not that write failed."""
        self.start_session(label, self._queued(_Queued(label, factory=gen_factory)))

    def _queued(self, entry: _Queued) -> Generator:
        """Queue `entry` and wait until the write that takes it has ended,
        and for a credential, as in group commit, until the writes queued
        behind its batch when that ended have ended too; whenever no write
        is in flight, start the next one. Returns the entry's reply, or
        raises the error it holds."""
        self._queue.append(entry)
        last = entry
        while last.write is None or not last.write.done:
            if self._taken is None or self._taken.write.done:
                self._start_write()
            try:
                yield Join((self._taken.write,))
            except Exception:
                pass  # a serialized op's own session traced its failure
            if last is entry and isinstance(entry.reply, Issued):  # set as its batch ends
                # queued last, or taken last by a write a batch mate started
                last = self._queue[-1] if self._queue else self._taken
        if isinstance(entry.reply, Exception):
            raise entry.reply
        return entry.reply

    def _start_write(self) -> None:
        """Start the next write: the serialized op at the head of the queue
        alone, or every request queued before the next op as one batch."""
        head = self._queue[0]
        if head.factory is not None:
            taken, label, gen = [head], head.kind, head.factory()
        else:
            taken = list(takewhile(lambda e: e.factory is None, self._queue))
            label, gen = "anchor.batch", self._write_batch(taken)
        del self._queue[:len(taken)]
        record = self._new_session(label, gen)
        for entry in taken:
            entry.write = record
        self._taken = taken[-1]
        # run only now: a write the op queues before its first wait sees this one in flight
        self._advance(record.sid, None)

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
        lists = [self._memberlist(net, (), 0) for net in self.profile.represented_networks]
        init = registry.RevocationUpdate(state, tuple(lists))
        writes.append((registry.KIND_REVOC_INIT, init.to_bytes(), "revocation init rejected"))
        yield from submit_all(self.pool, self.profile.did, self.keys, writes)
        self._adopt(init)
        self.trace("anchor.ready", anchor=self.profile.name)

    # --- message handling -------------------------------------------------

    REQUESTS = {
        "anchor.vc.request": ("_issue_membership", VcRequest, "anchor.vc.reply", Issued),
        "anchor.memberlist.request":
            ("_serve_memberlist", creds.Challenge, "anchor.memberlist.reply", creds.Presented),
        "anchor.witness.request":
            ("_refresh_witness", WitnessRequest, "anchor.witness.reply", Witness),
    }

    # --- PMV: membership issuance (OIV: with verinym registration) ----------

    def _issue_membership(self, sender: str, request: VcRequest) -> Generator:
        holder_did, network_id = request.holder_did, request.network_id
        if network_id not in self.profile.represented_networks or self.acc_state is None:
            return "NotRepresented"
        org_name = self.eligibility.get(network_id, {}).get(holder_did)
        if org_name is None:
            return "NotEligible"
        doc = None
        if request.doc:
            # out-of-band vetting: the holder's one document, under its org's whitelisted key
            (doc, *more) = request.doc
            expected = self.profile.evidence_whitelist.get(org_name)
            if (more or doc.did != holder_did or doc.verification_keys[:1] != (expected,)
                    or not registry.did_matches_key(doc.did, expected)):
                self.trace("anchor.evidence_mismatch", org=org_name)
                return "EvidenceMismatch"  # no transaction leaves the anchor
            doc = registry.attest(doc, self.profile.did, self.keys)
        reply = yield from self._queued(_Queued("anchor.vc.request", (holder_did, network_id), doc))
        if isinstance(reply, Issued):  # at the epoch the writes queued behind its batch left
            fresh = self._refresh_witness(sender, WitnessRequest(reply.vc.credential_id))
            if isinstance(fresh, Witness):  # else they revoked it: the write-time witness
                reply = Issued(reply.vc, fresh.witness, reply.already_member)
        return reply

    def _write_batch(self, batch: list[_Queued]) -> Generator:
        """Serve queued credential requests as one registry write: the
        holders' document read (`_mint`), then one registry batch of a NYM
        per document to register and one revocation update that adds every
        new credential id in one epoch step, carrying the next memberlist of
        each network it adds to. Each request is answered from its own checks
        and transactions: a refused NYM fails it by the registry's reason. A
        holder asked for twice gets the one credential, the second time
        `already_member`, as does a holder already on the roster (no epoch
        bump). Each witness made here is made again when the credential is
        answered (`_issue_membership`). On a lost receipt (`submit`), a
        transaction the registry did not apply fails its request with the
        lost receipt's error, and the others are answered as if it had come."""
        minted, nyms = yield from self._mint(batch)
        writes = [(registry.KIND_NYM, doc.to_bytes()) for doc in nyms]
        if minted:
            new_state, _ = crypto.accumulator_add(
                self.acc_state, self._leaves(), *(vc.credential_id for vc in minted.values())
            )
            # the same transaction carries the next list of each network it adds to
            update = registry.RevocationUpdate(new_state, tuple(
                self._next_memberlist(net, added=tuple(h for h, n in minted if n == net))
                for net in dict.fromkeys(network_id for _, network_id in minted)
            ))
            writes.append((registry.KIND_REVOC_UPDATE, update.to_bytes()))
        outcomes = ()
        if writes:
            outcomes = yield from submit(self.pool, self.profile.did, self.keys, writes)
        registered = dict(zip(nyms, outcomes))
        if minted and outcomes[-1] == registry.OUTCOME_APPLIED:
            # the registry holds the new state, even when a request of the
            # batch failed: an anchor left at the old epoch could never
            # update it again
            for (holder_did, network_id), vc in minted.items():
                self.rosters[network_id].members[holder_did] = vc
            self._adopt(update)
            for holder_did, network_id in minted:
                self.trace(
                    "anchor.vc_issued",
                    network=network_id,
                    holder=holder_did,
                    epoch=self.acc_state.epoch,
                    roster_version=self.memberlists[network_id].roster_version,
                )
        leaves = self._leaves()
        for entry in batch:
            if entry.reply is not None:
                continue
            holder_did, network_id = entry.args
            nym = registered.get(entry.doc, registry.OUTCOME_APPLIED)
            vc = self.rosters[network_id].members.get(holder_did)
            if nym != registry.OUTCOME_APPLIED:
                entry.reply = str(nym)  # a refusal, or the lost receipt's error
            elif vc is None:  # the revocation update that adds it did not apply
                error = outcomes[-1]
                lost = isinstance(error, Exception)
                entry.reply = str(error) if lost else f"revocation update rejected: {error}"
            else:
                witness = crypto.witness_for(self.acc_state, leaves, vc.credential_id)
                # the first request for a new credential is its issuance
                entry.reply = Issued(vc, witness, int(minted.pop(entry.args, None) is None))

    def _mint(self, requests: list[_Queued]) -> Generator:
        """Read the document of every request's holder at once, answer those
        with no verinym and none to register, and mint one credential for
        each other holder not yet on its roster, however often it is asked
        for. A document is to register unless the registry holds it, and one
        the fold would refuse as `StaleEpoch` gets no credential. Returns the
        new credentials by (holder DID, network) and the documents to
        register. A failed read fails every request with its error."""
        try:
            snapshot = yield from registry.resolve_member(
                self.pool, tuple(dict.fromkeys(e.args[0] for e in requests)), ()
            )
        except registry.RegistryError as e:
            for entry in requests:
                entry.reply = e
            return {}, ()
        minted: dict[tuple[str, str], creds.MembershipCredential] = {}
        nyms: dict[registry.DidDocument, None] = {}  # in batch order, each once
        for entry in requests:
            holder_did, network_id = entry.args
            try:
                held, verinym = snapshot.holder(holder_did)
            except registry.NotFound:
                held, verinym = None, False
            if entry.doc is not None and entry.doc != held:
                nyms[entry.doc] = None
                verinym = held is None or entry.doc.version == held.version + 1
                if not verinym:
                    continue  # the NYM's refusal answers it
            if not verinym:
                entry.reply = "NoVerinym"
            elif holder_did not in self.rosters[network_id].members and entry.args not in minted:
                self.issuance_counter += 1
                minted[entry.args] = creds.issue_membership_credential(
                    issuer_keys=self.keys,
                    issuer_did=self.profile.did,
                    cred_def_id=self.membership_cred_def_id,
                    holder_did=holder_did,
                    network_id=network_id,
                    issuance_counter=self.issuance_counter,
                )
        return minted, tuple(nyms)

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
        update = registry.RevocationUpdate(
            new_state, (self._next_memberlist(network_id, removed=holder_did),)
        )
        # the anchor keeps its epoch until the registry holds the next one
        yield from submit_all(self.pool, self.profile.did, self.keys, [
            (registry.KIND_REVOC_UPDATE, update.to_bytes(), "revocation update rejected")
        ])
        del roster.members[holder_did]
        self._adopt(update)
        self.trace(
            "anchor.revoked",
            network=network_id,
            holder=holder_did,
            epoch=self.acc_state.epoch,
            roster_version=self.memberlists[network_id].roster_version,
        )

    # --- PMV: memberlists ------------------------------------------------------

    def _memberlist(
        self, network_id: str, member_dids, roster_version: int
    ) -> creds.MemberlistCredential:
        return creds.issue_memberlist_credential(
            issuer_keys=self.keys,
            issuer_did=self.profile.did,
            cred_def_id=self.memberlist_cred_def_id,
            network_id=network_id,
            member_dids=tuple(sorted(member_dids)),
            roster_version=roster_version,
        )

    def _next_memberlist(
        self, network_id: str, added: tuple[str, ...] = (), removed: Optional[str] = None
    ) -> creds.MemberlistCredential:
        """The list of `network_id` after one roster step that adds the
        holders `added` and drops `removed`: at the next roster version."""
        members = set(self.rosters[network_id].members).union(added) - {removed}
        return self._memberlist(
            network_id, members, self.memberlists[network_id].roster_version + 1
        )

    def _adopt(self, update: registry.RevocationUpdate) -> None:
        """Take `update`, once the registry holds it, as this anchor's
        revocation state and current lists."""
        self.acc_state = update.state
        self.memberlists.update((m.network_id, m) for m in update.memberlists)

    # --- PMV: read-side services ---------------------------------------------

    def _serve_memberlist(self, sender: str, request: creds.Challenge) -> creds.Presented | str:
        memberlist = self.memberlists.get(request.network_id)
        if memberlist is None:
            return "NotRepresented"
        vp = creds.build_self_signed_vp(
            self.profile.did, self.keys, memberlist.to_bytes(), request.nonce
        )
        return creds.Presented(vp.to_bytes())

    def _refresh_witness(self, sender: str, request: WitnessRequest) -> Witness | str:
        leaves = self._leaves()
        if self.acc_state is None or request.credential_id not in leaves:
            return "NotAMember"
        return Witness(crypto.witness_for(self.acc_state, leaves, request.credential_id))


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


def submit(
    pool: registry.PoolInfo,
    submitter_did: str,
    keys: crypto.KeyPair,
    writes: list[tuple[str, bytes]],
) -> Generator:
    """The one registry write path: submit one transaction per (kind,
    payload) in `writes` as one batch, signed once with `keys`, and return
    their outcomes in order. When no receipt comes back, one member read of
    the sequencer, which applies a batch before it orders it, names the
    batch's transaction digests: each that it applied counts as APPLIED, and
    each other's outcome is the QuorumUnavailable that lost the receipt, as
    is every outcome when that read fails too. The registry records only
    applied transactions, so a refused one and one that never arrived look
    the same."""
    txs = [registry.RegistryTransaction(kind, payload, submitter_did) for kind, payload in writes]
    try:
        receipt = yield from registry.submit_transaction(pool, registry.sign_batch(keys, *txs))
    except registry.QuorumUnavailable as lost:
        digests = tuple(tx.digest() for tx in txs)
        try:
            snapshot = yield from registry.resolve_member(pool, (), (), applied=digests)
        except registry.RegistryError:
            return (lost,) * len(txs)
        return tuple(registry.OUTCOME_APPLIED if d in snapshot.applied else lost for d in digests)
    return receipt.outcomes


def submit_all(
    pool: registry.PoolInfo,
    submitter_did: str,
    keys: crypto.KeyPair,
    writes: list[tuple[str, bytes, str]],
) -> Generator:
    """`submit` one transaction per (kind, payload, refusal) in `writes`, all
    of which must apply. Raises, for the first that did not, the lost
    receipt's QuorumUnavailable or AnchorError("<refusal>: <outcome>")."""
    outcomes = yield from submit(
        pool, submitter_did, keys, [(kind, payload) for kind, payload, _ in writes]
    )
    for (_, _, refusal), outcome in zip(writes, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        if outcome != registry.OUTCOME_APPLIED:
            raise AnchorError(f"{refusal}: {outcome}")

"""Interoperation identity network: a replicated verifiable data registry.

A pool of N = 3f+1 nodes maintains DID documents, credential schemas,
credential definitions, revocation registry states, memberlists, and anchor
roles. A writer submits its transactions as one batch with one signature
over their ordered digests (`SignedBatch`); every replica checks it once,
when it applies the batch, and a batch whose signature fails rejects each of
its transactions. A designated sequencer orders each batch at contiguous
sequence numbers first..last, in one order message, and every other replica
acks it with a signature over (first, last, batch digest), where the batch
digest covers the ordered list of transaction digests. The sequencer's
receipt carries 2f of those acks, and counts as its own: a client takes a
reply only from the node it asked (`Actor.on_delivery`), so a receipt that
reached it came from the sequencer over the bus's authenticated channel, as
PBFT authenticates its replies. A receipt thus proves that 2f+1 replicas
applied the batch at first..last: 2f by signatures that no other node can
forge, and the sequencer by sending it. Every
replica folds the same ordered log with the same pure validation rules, so
non-faulty replicas stay byte-identical; invalid transactions commit to the
log as explicit rejections. Reads are open: any client may query. A client asks
the sequencer alone, which applies each batch before it orders it and so holds
every batch any replica holds, as Raft's leader serves reads; only when that
reply is missing at the timeout, or names an error, does it ask the other nodes
and take the answer f+1 of them match byte for byte. The registry's one read, a
member snapshot (`resolve_member`), names holder DIDs, issuer DIDs, schema ids,
credential-definition ids, memberlists by (issuer, network) and transaction
digests; a replica answers with each one it holds, with the document of every
member each named list lists, and with each named digest its applied set holds,
from its one current state, so none of them can come from a different registry
state. Each attestation is verified once, when its NYM applies, so a DID read
looks up verinym status; only a DID's owner or a STEWARD/OIV may rewrite its
document.

A membership validator's memberlist credential lives here, one per (issuer,
network), beside its revocation state. Both arrive in one transaction: a
REVOC_INIT or REVOC_UPDATE carries the issuer's next revocation state and the
next list of each network whose roster that step changes (`RevocationUpdate`),
and applies whole or not at all, so a read never finds a list and a
revocation state of different roster steps. Only a list's issuer writes it,
each write raises its `roster_version`, and each DID it lists must have a
document at that point of the fold: a holder's first NYM may ride ahead of
the update that lists it, and when the NYM is refused, so is the update. The
fold does not verify the list's signature: every reader does, under the
issuer's memberlist credential definition, as it would a list it was handed.

The sequencer is assumed honest (it may crash but not equivocate or lie), for
ordering and lossless reads alike; Byzantine ordering is out of scope.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, replace
from typing import Generator, Optional, Sequence

from . import crypto
from . import encoding as enc
from .actors import Actor, Gather, Reply, Request
from .credentials import (
    CredentialDefinition,
    CredentialError,
    CredentialSchema,
    MemberlistCredential,
    VerificationArtifacts,
    cred_def_id_for,
)

ROLE_STEWARD = "STEWARD"
ROLE_OIV = "OIV"
ROLE_PMV = "PMV"
ROLES = (ROLE_STEWARD, ROLE_OIV, ROLE_PMV)
ANCHOR_ROLES = frozenset(ROLES)
VERINYM_ATTESTER_ROLES = frozenset({ROLE_STEWARD, ROLE_OIV})

KIND_NYM = "NYM"
KIND_SCHEMA = "SCHEMA"
KIND_CRED_DEF = "CRED_DEF"
KIND_REVOC_INIT = "REVOC_INIT"
KIND_REVOC_UPDATE = "REVOC_UPDATE"
KIND_ANCHOR_GRANT = "ANCHOR_GRANT"

OUTCOME_APPLIED = "APPLIED"

# The registry's one read. QUERY_REVOCATION names no read; the benchmark
# tracer files reads by it.
QUERY_MEMBER = "member"
QUERY_REVOCATION = "revocation_state"


class RegistryError(Exception):
    pass


class QuorumUnavailable(RegistryError):
    pass


class InconsistentReplicas(RegistryError):
    pass


class NotFound(RegistryError):
    pass


class EmptyBatch(RegistryError):
    pass


def make_did(iin_id: str, public_key: bytes) -> str:
    suffix = base64.b32encode(crypto.digest(public_key)).decode("ascii").rstrip("=").lower()
    return f"did:iin:{iin_id}:{suffix}"


def did_matches_key(did: str, public_key: bytes) -> bool:
    parts = did.split(":")
    if len(parts) != 4 or parts[0] != "did" or parts[1] != "iin":
        return False
    return make_did(parts[2], public_key) == did


@dataclass(frozen=True)
class DidDocument(enc.Record):
    TAG = enc.TAG_DID_DOC
    did: str
    verification_keys: tuple[bytes, ...]
    service_endpoint: str
    attestations: tuple[tuple[str, crypto.Signature], ...]
    version: int = 1

    def primary_key(self) -> bytes:
        return self.verification_keys[0]

    def attestation_bytes(self) -> bytes:
        return Attestation(self.did, self.verification_keys, self.service_endpoint).to_bytes()


@dataclass(frozen=True)
class Attestation(enc.Record):
    """What an anchor signs to attest a DID document: all but its attestations and version."""

    TAG = enc.TAG_ATTESTATION
    did: str
    verification_keys: tuple[bytes, ...]
    service_endpoint: str


def new_did_document(
    iin_id: str, keys: crypto.KeyPair, service_endpoint: str
) -> DidDocument:
    did = make_did(iin_id, keys.public_key)
    return DidDocument(
        did=did,
        verification_keys=(keys.public_key,),
        service_endpoint=service_endpoint,
        attestations=(),
    )


def attest(doc: DidDocument, signer_did: str, signer_keys: crypto.KeyPair) -> DidDocument:
    """The document with the signer's attestation as its only one."""
    return replace(doc, attestations=((signer_did, signer_keys.sign(doc.attestation_bytes())),))


@dataclass(frozen=True)
class RegistryTransaction(enc.Record):
    """One write; its batch's signature authorizes it (`SignedBatch`)."""

    TAG = enc.TAG_REGISTRY_TX
    kind: str
    payload: bytes
    submitter_did: str


@dataclass(frozen=True)
class WriteAuthorization(enc.Record):
    """What a writer signs to submit a batch: its transactions' digests, in
    the order they apply."""

    TAG = enc.TAG_TX
    tx_digests: tuple[bytes, ...]


@dataclass(frozen=True)
class SignedBatch(enc.Record):  # iin.submit: one writer's batch, in the order it applies
    txs: tuple[enc.Framed[RegistryTransaction], ...]
    signature: crypto.Signature  # the writer's, of `authorization(txs)`


def authorization(txs: Sequence[RegistryTransaction]) -> bytes:
    """What a writer signs to submit `txs` as one batch."""
    return WriteAuthorization(tuple(tx.digest() for tx in txs)).to_bytes()


def sign_batch(keys: crypto.KeyPair, *txs: RegistryTransaction) -> SignedBatch:
    """`txs` as one batch, signed once with the writer's `keys`."""
    return SignedBatch(txs, keys.sign(authorization(txs)))


@dataclass(frozen=True)
class AnchorGrant(enc.Record):
    """The payload of an ANCHOR_GRANT transaction."""

    TAG = enc.TAG_ANCHOR_GRANT
    target_did: str
    role: str


@dataclass(frozen=True)
class RevocationUpdate(enc.Record):
    """The payload of a REVOC_INIT or REVOC_UPDATE transaction: the
    issuer's next revocation state, and the next memberlist of each network
    whose roster the same step changes."""

    TAG = enc.TAG_REVOCATION_UPDATE
    state: enc.Framed[crypto.RevocationRegistryState]
    memberlists: tuple[enc.Framed[MemberlistCredential], ...] = ()


@dataclass(frozen=True)
class RegistryState:
    """Deterministic fold of the ordered transaction log."""

    docs: dict[str, DidDocument] = field(default_factory=dict)
    schemas: dict[str, CredentialSchema] = field(default_factory=dict)
    cred_defs: dict[str, CredentialDefinition] = field(default_factory=dict)
    revocation: dict[str, crypto.RevocationRegistryState] = field(default_factory=dict)
    roles: dict[str, frozenset[str]] = field(default_factory=dict)
    applied: frozenset[bytes] = frozenset()
    # (issuer DID, network id) -> the issuer's current memberlist of that network
    memberlists: dict[tuple[str, str], MemberlistCredential] = field(default_factory=dict)

    @staticmethod
    def genesis(steward_docs: tuple[DidDocument, ...]) -> "RegistryState":
        return RegistryState(
            docs={d.did: d for d in sorted(steward_docs, key=lambda d: d.did)},
            roles={d.did: frozenset({ROLE_STEWARD}) for d in steward_docs},
        )

    def has_role(self, did: str, role: str) -> bool:
        return role in self.roles.get(did, frozenset())

    def verinym_status(self, did: str) -> bool:
        """A STEWARD's document, or one carrying an attestation. A lookup
        suffices: `_apply_nym` admits a document only when each attestation
        verifies under the primary key of a STEWARD or OIV signer;
        `did_matches_key` pins that key to the signer's DID, so no later NYM
        changes it; and roles are only ever granted. A stored attestation
        stays valid."""
        doc = self.docs.get(did)
        if doc is None:
            return False
        # genesis stewards are the root of trust
        return self.has_role(did, ROLE_STEWARD) or bool(doc.attestations)

    def state_hash(self) -> bytes:
        tables = (self.docs, self.schemas, self.cred_defs, self.revocation, self.memberlists)
        image = RegistryImage(
            *(tuple(table[k] for k in sorted(table)) for table in tables),
            tuple((did, tuple(sorted(self.roles[did]))) for did in sorted(self.roles)),
            tuple(sorted(self.applied)),
        )
        return crypto.digest(image.to_bytes())


@dataclass(frozen=True)
class RegistryImage(enc.Record):
    """What a replica's state hash digests: each table, and each DID's roles, sorted."""

    TAG = enc.TAG_REGISTRY_STATE
    docs: tuple[enc.Framed[DidDocument], ...]
    schemas: tuple[enc.Framed[CredentialSchema], ...]
    cred_defs: tuple[enc.Framed[CredentialDefinition], ...]
    revocation: tuple[enc.Framed[crypto.RevocationRegistryState], ...]
    memberlists: tuple[enc.Framed[MemberlistCredential], ...]
    roles: tuple[tuple[str, tuple[str, ...]], ...]
    applied: tuple[bytes, ...]


def apply_batch(
    state: RegistryState, batch: SignedBatch
) -> tuple[RegistryState, tuple[str, ...]]:
    """Pure, deterministic application of one writer's batch: the next state
    and one outcome per transaction, in order. The batch's signature is
    checked once, under the key of the one DID that submits every
    transaction: its document's, or for a first registration the key of the
    batch's own NYM of that DID. A batch naming two submitters, or whose
    signature does not verify, rejects each transaction as BadSignature and
    changes nothing; otherwise each transaction folds in turn."""
    key = _batch_key(state, batch.txs)
    if key is None or not crypto.verify(key, authorization(batch.txs), batch.signature):
        return state, ("BadSignature",) * len(batch.txs)
    outcomes = []
    for tx in batch.txs:
        state, outcome = apply_transaction(state, tx)
        outcomes.append(outcome)
    return state, tuple(outcomes)


def _batch_key(state: RegistryState, txs: Sequence[RegistryTransaction]) -> Optional[bytes]:
    """The key that must sign a batch of `txs`, or None when none can."""
    submitters = {tx.submitter_did for tx in txs}
    if len(submitters) != 1:
        return None
    (did,) = submitters
    if did in state.docs:
        return state.docs[did].primary_key()
    return next((doc.primary_key() for doc in map(_self_nym, txs) if doc is not None), None)


def _self_nym(tx: RegistryTransaction) -> Optional[DidDocument]:
    """The document of a NYM that registers its own submitter, else None."""
    if tx.kind != KIND_NYM:
        return None
    try:
        doc = DidDocument.from_bytes(tx.payload)
    except enc.DecodeError:
        return None
    return doc if doc.did == tx.submitter_did and doc.verification_keys else None


def apply_transaction(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    """Pure, deterministic validation and application of one transaction of
    a batch whose signature `apply_batch` has checked. Returns the next state
    and an outcome: APPLIED, or a rejection reason leaving the state unchanged.

    The checks run in one order: a submitter the registry holds no document
    of, unless the transaction registers it (BadSignature), Duplicate, an
    unknown kind (BadSignature), the kind's role gate (UnauthorizedRole), the
    payload's decoding (BadSignature), then the kind's own rules."""
    gate, payload_type, apply = TX_RULES.get(tx.kind, (None, None, None))
    if tx.submitter_did not in state.docs and _self_nym(tx) is None:
        return state, "BadSignature"
    if tx.digest() in state.applied:
        return state, "Duplicate"
    if apply is None:
        return state, "BadSignature"
    if gate is not None and not state.roles.get(tx.submitter_did, frozenset()) & gate:
        return state, "UnauthorizedRole"
    try:
        payload = payload_type.from_bytes(tx.payload)
    except (enc.DecodeError, CredentialError):
        return state, "BadSignature"
    changes = apply(state, tx, payload)
    if isinstance(changes, str):
        return state, changes
    return replace(state, applied=state.applied | {tx.digest()}, **changes), OUTCOME_APPLIED


# Each kind's rules below return the tables a valid transaction changes, or
# the reason it is rejected.


def _apply_nym(
    state: RegistryState, tx: RegistryTransaction, doc: DidDocument
) -> dict | str:
    if not doc.verification_keys or not did_matches_key(doc.did, doc.primary_key()):
        return "BadSignature"
    for signer, sig in doc.attestations:
        signer_doc = state.docs.get(signer)
        if signer_doc is None or not (
            state.roles.get(signer, frozenset()) & VERINYM_ATTESTER_ROLES
        ):
            return "UnauthorizedRole"
        if not crypto.verify(signer_doc.primary_key(), doc.attestation_bytes(), sig):
            return "BadSignature"
    existing = state.docs.get(doc.did)
    if existing is not None:
        if tx.submitter_did != doc.did and not (
            state.roles.get(tx.submitter_did, frozenset()) & VERINYM_ATTESTER_ROLES
        ):
            return "UnauthorizedRole"  # only the owner or a validator rewrites
        if doc == existing:
            return "Duplicate"
        if doc.version != existing.version + 1:
            return "StaleEpoch"
    return {"docs": {**state.docs, doc.did: doc}}


def _apply_schema(
    state: RegistryState, tx: RegistryTransaction, schema: CredentialSchema
) -> dict | str:
    if schema.schema_id in state.schemas:
        return "DuplicateId"
    return {"schemas": {**state.schemas, schema.schema_id: schema}}


def _apply_cred_def(
    state: RegistryState, tx: RegistryTransaction, cred_def: CredentialDefinition
) -> dict | str:
    own_id = cred_def_id_for(tx.submitter_did, cred_def.schema_id)
    if cred_def.issuer_did != tx.submitter_did or cred_def.cred_def_id != own_id:
        return "UnauthorizedRole"  # the id names its issuer: no one takes another's
    if cred_def.cred_def_id in state.cred_defs:
        return "DuplicateId"
    return {"cred_defs": {**state.cred_defs, cred_def.cred_def_id: cred_def}}


def _apply_revoc_init(
    state: RegistryState, tx: RegistryTransaction, update: RevocationUpdate
) -> dict | str:
    reg = update.state
    if reg.issuer_did != tx.submitter_did:
        return "UnauthorizedRole"
    if reg.issuer_did in state.revocation:
        return "DuplicateId"
    if reg.epoch != 0:
        return "StaleEpoch"
    return _committed_revocation(state, tx, update)


def _apply_revoc_update(
    state: RegistryState, tx: RegistryTransaction, update: RevocationUpdate
) -> dict | str:
    reg = update.state
    current = state.revocation.get(reg.issuer_did)
    if current is None or reg.issuer_did != tx.submitter_did:
        return "UnauthorizedRole"
    if reg.epoch != current.epoch + 1:
        return "StaleEpoch"
    return _committed_revocation(state, tx, update)


def _committed_revocation(
    state: RegistryState, tx: RegistryTransaction, update: RevocationUpdate
) -> dict | str:
    """The tables that commit the update's revocation state and memberlists
    together, or the reason none of them commits: a list its submitter did
    not issue is UnauthorizedRole, one whose `roster_version` does not rise
    above the list the registry holds for its (issuer, network) is
    StaleRoster, and one naming a DID the registry holds no document of (one
    it adds) is UnregisteredMember. The list's signature is its readers' to
    verify."""
    memberlists = dict(state.memberlists)
    for memberlist in update.memberlists:
        key = (memberlist.issuer_did, memberlist.network_id)
        if memberlist.issuer_did != tx.submitter_did:
            return "UnauthorizedRole"
        if key in memberlists and memberlist.roster_version <= memberlists[key].roster_version:
            return "StaleRoster"
        if not state.docs.keys() >= set(memberlist.member_dids):
            return "UnregisteredMember"
        memberlists[key] = memberlist
    reg = update.state
    return {"revocation": {**state.revocation, reg.issuer_did: reg}, "memberlists": memberlists}


def _apply_anchor_grant(
    state: RegistryState, tx: RegistryTransaction, grant: AnchorGrant
) -> dict | str:
    if grant.role not in ROLES:
        return "BadSignature"
    held = state.roles.get(grant.target_did, frozenset())
    if grant.role in held:
        return "Duplicate"
    return {"roles": {**state.roles, grant.target_did: held | {grant.role}}}


# kind -> (roles of which the submitter must hold one, or None; payload Record; apply)
TX_RULES = {
    KIND_NYM: (None, DidDocument, _apply_nym),
    KIND_SCHEMA: (ANCHOR_ROLES, CredentialSchema, _apply_schema),
    KIND_CRED_DEF: (ANCHOR_ROLES, CredentialDefinition, _apply_cred_def),
    KIND_REVOC_INIT: (frozenset({ROLE_PMV}), RevocationUpdate, _apply_revoc_init),
    KIND_REVOC_UPDATE: (None, RevocationUpdate, _apply_revoc_update),
    KIND_ANCHOR_GRANT: (frozenset({ROLE_STEWARD}), AnchorGrant, _apply_anchor_grant),
}


def replay_log(genesis: RegistryState, entries: Sequence["Logged"]) -> RegistryState:
    """Refold a recorded log on a fresh state, batch by batch, checking each
    batch's signature once; the batches must follow each other seq by seq,
    and the recorded outcomes must reproduce exactly."""
    state, seq = genesis, 0
    for entry in entries:
        if entry.first != seq:
            raise RegistryError(f"replay gap at seq {seq}: the next batch begins at {entry.first}")
        seq += len(entry.batch.txs)
        state, outcomes = apply_batch(state, entry.batch)
        if outcomes != entry.outcomes:
            raise RegistryError(
                f"replay divergence at seq {entry.first}: {outcomes} != {entry.outcomes}"
            )
    return state


# --- pool --------------------------------------------------------------------


@dataclass(frozen=True)
class PoolInfo:
    iin_id: str
    node_addresses: tuple[str, ...]  # sequencer first
    node_public_keys: dict[str, bytes]

    @property
    def n(self) -> int:
        return len(self.node_addresses)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def write_quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def read_quorum(self) -> int:
        return self.f + 1

    @property
    def sequencer(self) -> str:
        return self.node_addresses[0]


@dataclass(frozen=True)
class Batch(enc.Record):
    """An ordered batch, by its transactions' digests."""

    tx_digests: tuple[bytes, ...]


def batch_digest(tx_digests: list[bytes]) -> bytes:
    return crypto.digest(Batch(tuple(tx_digests)).to_bytes())


@dataclass(frozen=True)
class Ack(enc.Record):
    """What a replica signs to acknowledge the batch it ordered at first..last."""

    TAG = enc.TAG_ACK
    first: int
    last: int
    batch_digest: bytes


# --- message bodies: one record per request and reply kind (`IinNode.REQUESTS`)


@dataclass(frozen=True)
class Receipt(enc.Record):  # iin.submit.reply
    first: int
    last: int
    outcomes: tuple[str, ...]
    tx_digests: tuple[bytes, ...]
    # (address, its signature of the `Ack`) of 2f replicas other than the sequencer
    acks: tuple[tuple[str, bytes], ...]


@dataclass(frozen=True)
class Order(enc.Record):  # iin.order: the sequencer's batch, applied from seq `first` on
    first: int
    batch: SignedBatch


@dataclass(frozen=True)
class Acked(enc.Record):  # iin.ack: a replica's signature of the `Ack` of the batch it applied
    address: str
    ack: Ack
    signature: bytes


@dataclass(frozen=True)
class Fetch(enc.Record):  # iin.fetch: the logged batches that begin at seqs first..last
    first: int
    last: int


@dataclass(frozen=True)
class Logged(enc.Record):
    """One applied batch as a replica's log keeps it: its first seq, the
    signed batch, which `replay_log` re-checks, and each transaction's outcome."""

    first: int
    batch: SignedBatch
    outcomes: tuple[str, ...]


@dataclass(frozen=True)
class Entries(enc.Record):  # iin.fetch.reply: the logged batches that begin in the range
    entries: tuple[Logged, ...]


@dataclass(frozen=True)
class Query(enc.Record):  # iin.query: a read of `what`, of the ids it names
    what: str
    holders: tuple[str, ...]
    issuers: tuple[str, ...]
    schemas: tuple[str, ...]
    cred_defs: tuple[str, ...]
    memberlists: tuple[tuple[str, str], ...]
    applied: tuple[bytes, ...] = ()  # transaction digests


@dataclass(frozen=True)
class QueryResult(enc.Record):  # iin.query.reply: the sequencer's, or compared across replicas
    snapshot: bytes  # a `MemberSnapshot`'s bytes


class IinNode(Actor):
    """One registry replica; the pool's first node doubles as sequencer."""

    def __init__(
        self,
        address: str,
        node_id: str,
        keys: crypto.KeyPair,
        genesis: RegistryState,
        pool: PoolInfo,
    ):
        super().__init__(address)
        self.node_id = node_id
        self.keys = keys
        self.pool = pool
        self.state = genesis
        self.genesis = genesis
        self.log: list[Logged] = []  # one entry per batch, in seq order
        self.next_seq = 0

    @property
    def is_sequencer(self) -> bool:
        return self.address == self.pool.sequencer

    # --- shared apply path ---------------------------------------------------

    def _apply_in_order(self, batch: SignedBatch) -> tuple[str, ...]:
        """Apply a decoded batch at the next seqs and log it; the trace names
        each transaction by its kept digest."""
        first = self.next_seq
        self.state, outcomes = apply_batch(self.state, batch)
        self.log.append(Logged(first, batch, outcomes))
        self.next_seq += len(outcomes)
        for seq, tx, outcome in zip(range(first, self.next_seq), batch.txs, outcomes):
            self.trace(
                "registry.commit",
                iin=self.pool.iin_id,
                seq=seq,
                tx_kind=tx.kind,
                tx_digest=tx.digest().hex(),
                submitter=tx.submitter_did,
                outcome=outcome,
            )
        return outcomes

    # --- message handling ------------------------------------------------

    REQUESTS = {
        "iin.submit": ("_sequence", SignedBatch, "iin.submit.reply", Receipt),
        "iin.order": ("_handle_order", Order, "iin.ack", Acked),
        "iin.fetch": ("_serve_fetch", Fetch, "iin.fetch.reply", Entries),
        "iin.query": ("_query", Query, "iin.query.reply", QueryResult),
    }

    def _sequence(self, client: str, batch: SignedBatch) -> Generator:
        """Apply a client's batch at the next seqs, order it to every other
        replica in one message, and answer with a receipt once 2f of them
        have acked the batch; the receipt is this replica's own ack."""
        if not self.is_sequencer:
            return "NotSequencer"
        if not batch.txs:
            raise EmptyBatch("a batch needs at least one transaction")
        first = self.next_seq
        outcomes = self._apply_in_order(batch)
        last = self.next_seq - 1
        # the encoding is canonical: these are the digests a client computes
        tx_digests = tuple(tx.digest() for tx in batch.txs)
        ack = Ack(first, last, batch_digest(tx_digests))

        others = tuple(a for a in self.pool.node_addresses if a != self.address)
        need = self.pool.write_quorum - 1  # the receipt is the sequencer's ack

        verdicts: dict[int, bool] = {}  # reply index -> valid ack; checked once per reply

        def valid_acks(results: list) -> list[Acked]:
            for i, r in enumerate(results):
                if r is not None and i not in verdicts:
                    verdicts[i] = self._valid_ack(r, ack)
            return [r.body for i, r in enumerate(results) if verdicts.get(i)]

        replies = yield Gather(
            tuple((a, "iin.order", Order(first, batch)) for a in others),
            timeout=60,
            early=lambda results: len(valid_acks(results)) >= need,
        )
        acks = valid_acks(replies)
        if len(acks) < need:
            return "QuorumUnavailable"
        signatures = tuple(sorted((a.address, a.signature) for a in acks))
        return Receipt(first, last, outcomes, tx_digests, signatures)

    def _valid_ack(self, reply: Reply, ack: Ack) -> bool:
        if reply.error or reply.body.ack != ack:
            return False
        node_key = self.pool.node_public_keys.get(reply.body.address)
        return node_key is not None and crypto.verify(
            node_key, ack.to_bytes(), crypto.Signature(reply.body.signature)
        )

    def _handle_order(self, sender: str, order: Order) -> Generator:
        """Apply an ordered batch and ack it once. A replica whose log ends
        before the batch's first seq first fetches the missing batches from
        the sequencer. A batch whose range is already applied is acked only
        when the log holds exactly this signed batch from that seq. Only the
        sequencer orders; anything else stays unanswered."""
        if sender != self.pool.sequencer:
            return None
        first, batch = order.first, order.batch
        if not batch.txs:
            raise EmptyBatch("a batch needs at least one transaction")
        if first > self.next_seq:
            yield from self._catch_up(first - 1)
        if first == self.next_seq:
            self._apply_in_order(batch)
        elif not any(e.first == first and e.batch == batch for e in self.log):
            return None  # the log holds another batch there, or none yet
        last = first + len(batch.txs) - 1
        ack = Ack(first, last, batch_digest([tx.digest() for tx in batch.txs]))
        return Acked(self.address, ack, self.keys.sign(ack.to_bytes()).bytes_)

    def _catch_up(self, upto: int) -> Generator:
        """Apply the sequencer's log entries from this replica's next seq
        through `upto`."""
        fetch = Fetch(self.next_seq, upto)
        reply = yield Request(self.pool.sequencer, "iin.fetch", fetch, timeout=60)
        if reply is not None and not reply.error:
            for entry in reply.body.entries:
                if entry.first == self.next_seq:
                    self._apply_in_order(entry.batch)

    # --- open reads --------------------------------------------------------

    def _serve_fetch(self, sender: str, fetch: Fetch) -> Entries:
        """The logged batches that begin in the range asked for; a range that
        ends before it starts holds none."""
        return Entries(tuple(e for e in self.log if fetch.first <= e.first <= fetch.last))

    def _query(self, sender: str, query: Query) -> QueryResult:
        """Answer a member read with a `MemberSnapshot` of this replica's
        current state. Anyone may read: a query of another `what` gets the
        snapshot of nothing (a miss)."""
        ids = (
            query.holders, query.issuers, query.schemas, query.cred_defs, query.memberlists,
            query.applied,
        )
        if query.what != QUERY_MEMBER:
            ids = ((),) * 6
        return QueryResult(MemberSnapshot.of(self.state, *ids).to_bytes())


@dataclass(frozen=True)
class MemberEntry(enc.Record):
    """One holder of a member read: its DID, its document (none when the
    registry holds no document for it) and its verinym status, 1 or 0."""

    did: str
    doc: tuple[enc.Framed[DidDocument], ...]
    verinym: int


@dataclass(frozen=True)
class MemberSnapshot(enc.Record):
    """A member read's answer: one entry per holder asked for, in the order
    asked, then one per member of the lists read that was not asked for, in
    list order; the revocation state of each issuer, each schema and each
    credential definition asked for that the registry holds; the
    memberlist of each (issuer, network) asked for that it holds; and each
    transaction digest asked for that its applied set holds."""

    holders: tuple[MemberEntry, ...]
    states: tuple[enc.Framed[crypto.RevocationRegistryState], ...]
    schemas: tuple[enc.Framed[CredentialSchema], ...]
    cred_defs: tuple[enc.Framed[CredentialDefinition], ...]
    memberlists: tuple[enc.Framed[MemberlistCredential], ...] = ()
    applied: tuple[bytes, ...] = ()

    @staticmethod
    def of(
        state: RegistryState,
        holders: Sequence[str],
        issuers: Sequence[str],
        schemas: Sequence[str],
        cred_defs: Sequence[str],
        memberlists: Sequence[tuple[str, str]] = (),
        applied: Sequence[bytes] = (),
    ) -> "MemberSnapshot":
        """A replica's answer, at `state`, to a member read of these ids."""
        lists = tuple(state.memberlists[k] for k in memberlists if k in state.memberlists)
        listed = (did for memberlist in lists for did in memberlist.member_dids)
        return MemberSnapshot(
            tuple(
                MemberEntry(
                    did,
                    (state.docs[did],) if did in state.docs else (),
                    int(state.verinym_status(did)),
                )
                for did in dict.fromkeys([*holders, *listed])
            ),
            tuple(state.revocation[i] for i in issuers if i in state.revocation),
            tuple(state.schemas[s] for s in schemas if s in state.schemas),
            tuple(state.cred_defs[c] for c in cred_defs if c in state.cred_defs),
            lists,
            tuple(d for d in applied if d in state.applied),
        )

    def holder(self, did: str) -> tuple[DidDocument, bool]:
        """`did`'s document and verinym status; raises NotFound when the
        registry holds no document for it, or the read did not ask for it."""
        entry = next((e for e in self.holders if e.did == did and e.doc), None)
        if entry is None:
            raise NotFound(did)
        return entry.doc[0], entry.verinym == 1

    def revocation(self) -> dict[str, crypto.RevocationRegistryState]:
        """The revocation states read, by issuer DID."""
        return {s.issuer_did: s for s in self.states}

    def cred_def(self, cred_def_id: str) -> Optional[CredentialDefinition]:
        return next((c for c in self.cred_defs if c.cred_def_id == cred_def_id), None)

    def artifacts(
        self, presenter_did: str, issuer_did: str, schema_id: str, cred_def_id: str
    ) -> VerificationArtifacts:
        """The registry inputs of the seven checks: what the read did not ask
        for, or the registry does not hold, is None. Raises NotFound for a
        presenter it holds no document of."""
        doc, verinym = self.holder(presenter_did)
        return VerificationArtifacts(
            presenter_doc=doc,
            presenter_verinym=verinym,
            schema=next((s for s in self.schemas if s.schema_id == schema_id), None),
            cred_def=self.cred_def(cred_def_id),
            revocation_state=self.revocation().get(issuer_did),
        )


# --- client-side pool protocols (run inside an actor session) ----------------


def submit_transaction(pool: PoolInfo, batch: SignedBatch) -> Generator:
    """Submit a signed batch to the sequencer, applied in its order at
    contiguous seqs, and await a quorum-backed receipt. Returns the
    `Receipt`, whose `outcomes` align with the batch's transactions; raises
    QuorumUnavailable when the pool cannot commit the batch, or when the
    receipt names other transactions or carries fewer than 2f valid acks
    over this batch from pool nodes other than the sequencer. The receipt
    itself is the sequencer's ack: this session takes a reply only from the
    node it asked."""
    tx_digests = tuple(tx.digest() for tx in batch.txs)
    reply = yield Request(pool.sequencer, "iin.submit", batch, timeout=150)
    if reply is None:
        raise QuorumUnavailable("no reply from sequencer")
    if reply.error:
        raise QuorumUnavailable(reply.error)
    receipt = reply.body
    if receipt.tx_digests != tx_digests or len(receipt.outcomes) != len(tx_digests):
        raise QuorumUnavailable("receipt names other transactions")
    signed = Ack(receipt.first, receipt.last, batch_digest(tx_digests)).to_bytes()
    valid = {
        address
        for address, signature in receipt.acks
        if address != pool.sequencer
        and address in pool.node_public_keys
        and crypto.verify(pool.node_public_keys[address], signed, crypto.Signature(signature))
    }
    if 1 + len(valid) < pool.write_quorum:
        raise QuorumUnavailable(f"receipt carries {len(valid)} valid replica acks")
    return receipt


def quorum_query(
    pool: PoolInfo,
    what: str,
    holders: tuple[str, ...] = (),
    issuers: tuple[str, ...] = (),
    schemas: tuple[str, ...] = (),
    cred_defs: tuple[str, ...] = (),
    memberlists: tuple[tuple[str, str], ...] = (),
    applied: tuple[bytes, ...] = (),
) -> Generator:
    """Read from the sequencer alone, whose state holds every applied batch,
    and return its payload. Only when its reply is missing at the timeout, or
    names an error, ask the other nodes, and return the payload that f+1 of
    their replies match byte for byte; raise InconsistentReplicas when none
    does. The registry answers only QUERY_MEMBER, for the ids named (`_query`)."""
    threshold = pool.read_quorum
    body = Query(what, holders, issuers, schemas, cred_defs, memberlists, applied)
    reply = yield Request(pool.sequencer, "iin.query", body, timeout=90)
    if reply is not None and not reply.error:
        return reply.body.snapshot

    def tally(results: list) -> dict[bytes, int]:
        counts: dict[bytes, int] = {}
        for r in results:
            if r is not None and not r.error:
                counts[r.body.snapshot] = counts.get(r.body.snapshot, 0) + 1
        return counts

    replies = yield Gather(
        tuple((a, "iin.query", body) for a in pool.node_addresses if a != pool.sequencer),
        timeout=90,
        early=lambda results: max(tally(results).values(), default=0) >= threshold,
    )
    for value, n in tally(replies).items():
        if n >= threshold:
            return value
    raise InconsistentReplicas(f"{what} read had no {threshold} matching replies")


def resolve_did(pool: PoolInfo, did: str) -> Generator:
    """Resolve a DID document plus its verinym status; raises NotFound."""
    snapshot = yield from resolve_member(pool, (did,), ())
    return snapshot.holder(did)


def resolve_member(
    pool: PoolInfo,
    holder_dids: tuple[str, ...],
    issuer_dids: tuple[str, ...],
    schema_ids: tuple[str, ...] = (),
    cred_def_ids: tuple[str, ...] = (),
    memberlists: tuple[tuple[str, str], ...] = (),
    applied: tuple[bytes, ...] = (),
) -> Generator:
    """The registry's one read: a `MemberSnapshot` of each holder's DID
    document and verinym status, and of the revocation state of each issuer,
    each schema, each credential definition and each (issuer, network)
    memberlist named that the registry holds, with the document and verinym
    status of every member each of those lists names, and of each named
    transaction digest that the registry applied. A verifier reads a
    memberlist, its members and every artifact their checks need at once; a
    writer whose receipt was lost reads which of its transactions applied
    (`anchors.submit`). All of it comes
    from one replica state: the sequencer's, or, when its reply is lost, one
    that f+1 other replicas match on all of it, so a fallback read answered
    from mixed states raises InconsistentReplicas and fails every holder it
    names."""
    payload = yield from quorum_query(
        pool, QUERY_MEMBER, holder_dids, issuer_dids, schema_ids, cred_def_ids, memberlists,
        applied,
    )
    return MemberSnapshot.from_bytes(payload)

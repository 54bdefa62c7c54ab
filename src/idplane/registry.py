"""Interoperation identity network: a replicated verifiable data registry.

A pool of N = 3f+1 nodes maintains DID documents, credential schemas,
credential definitions, revocation registry states, and anchor roles. A
designated sequencer orders each submitted batch of transactions at contiguous
sequence numbers first..last, in one order message; a commit receipt requires
acknowledgment signatures from a 2f+1 quorum over (first, last, batch digest),
where the batch digest covers the ordered list of transaction digests. Every
replica folds the same ordered log with the same pure validation rules, so
non-faulty replicas stay byte-identical; invalid transactions commit to the
log as explicit rejections. Reads are open: any client may query, and a result
counts once f+1 replicas return byte-identical answers. A client asks the first
f+1 nodes (the sequencer first, since it holds the freshest state) and asks
the other nodes only when those replies disagree or one is missing at the
timeout, so a read fails only when no f+1 replies of the whole pool match.
The registry's one read, a member snapshot (`resolve_member`), names holder
DIDs, issuer DIDs, schema ids and credential-definition ids; a replica answers
with each one it holds from its one current state, so none of them can come
from a different registry state. Each attestation is verified once, when its
NYM applies, so a DID read looks up verinym status; only a DID's owner or a
STEWARD/OIV may rewrite its document.

The sequencer is assumed honest (it may crash but not equivocate); Byzantine
ordering is out of scope for this registry.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, replace
from typing import Generator, Optional, Sequence

from . import crypto
from . import encoding as enc
from .actors import Actor, Gather, Message, Request
from .credentials import (
    CredentialDefinition,
    CredentialError,
    CredentialSchema,
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
class RegistryTransaction(enc.Signed):
    TAG = enc.TAG_TX
    kind: str
    payload: bytes
    submitter_did: str
    submitter_signature: crypto.Signature

    def digest(self) -> bytes:
        return crypto.digest(self.to_bytes())


def make_transaction(
    kind: str, payload: bytes, submitter_did: str, submitter_keys: crypto.KeyPair
) -> RegistryTransaction:
    return RegistryTransaction.sign(submitter_keys, kind, payload, submitter_did)


@dataclass(frozen=True)
class AnchorGrant(enc.Record):
    """The payload of an ANCHOR_GRANT transaction."""

    TAG = enc.TAG_ANCHOR_GRANT
    target_did: str
    role: str


@dataclass(frozen=True)
class RegistryState:
    """Deterministic fold of the ordered transaction log."""

    docs: dict[str, DidDocument] = field(default_factory=dict)
    schemas: dict[str, CredentialSchema] = field(default_factory=dict)
    cred_defs: dict[str, CredentialDefinition] = field(default_factory=dict)
    revocation: dict[str, crypto.RevocationRegistryState] = field(default_factory=dict)
    roles: dict[str, frozenset[str]] = field(default_factory=dict)
    applied: frozenset[bytes] = frozenset()

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
        tables = (self.docs, self.schemas, self.cred_defs, self.revocation)
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
    roles: tuple[tuple[str, tuple[str, ...]], ...]
    applied: tuple[bytes, ...]


def apply_transaction(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    """Pure, deterministic validation and application. Returns the next state
    and an outcome: APPLIED, or a rejection reason leaving the state unchanged.

    The checks run in one order: the submitter's key, its signature,
    Duplicate, an unknown kind (BadSignature), the kind's role gate
    (UnauthorizedRole), the payload's decoding (BadSignature), then the
    kind's own rules. A payload that passes the gate is decoded once, up
    front, as a first NYM's document also gives its submitter's key."""
    gate, payload_type, apply = TX_RULES.get(tx.kind, (None, None, None))
    allowed = apply is not None and (
        gate is None or bool(state.roles.get(tx.submitter_did, frozenset()) & gate)
    )
    payload = None
    if allowed:
        try:
            payload = payload_type.from_bytes(tx.payload)
        except (enc.DecodeError, CredentialError):
            pass

    submitter_doc = state.docs.get(tx.submitter_did)
    if submitter_doc is not None:
        submitter_key = submitter_doc.primary_key()
    elif (
        # self-certifying first registration: the submitter is the document
        tx.kind == KIND_NYM
        and payload is not None
        and payload.did == tx.submitter_did
        and payload.verification_keys
    ):
        submitter_key = payload.primary_key()
    else:
        return state, "BadSignature"

    if not crypto.verify(submitter_key, tx.signing_bytes(), tx.submitter_signature):
        return state, "BadSignature"
    if tx.digest() in state.applied:
        return state, "Duplicate"
    if apply is None:
        return state, "BadSignature"
    if not allowed:
        return state, "UnauthorizedRole"
    if payload is None:
        return state, "BadSignature"
    return apply(state, tx, payload)


def _committed(state: RegistryState, tx: RegistryTransaction, **changes) -> tuple[RegistryState, str]:
    return replace(state, applied=state.applied | {tx.digest()}, **changes), OUTCOME_APPLIED


def _apply_nym(
    state: RegistryState, tx: RegistryTransaction, doc: DidDocument
) -> tuple[RegistryState, str]:
    if not doc.verification_keys or not did_matches_key(doc.did, doc.primary_key()):
        return state, "BadSignature"
    for signer, sig in doc.attestations:
        signer_doc = state.docs.get(signer)
        if signer_doc is None or not (
            state.roles.get(signer, frozenset()) & VERINYM_ATTESTER_ROLES
        ):
            return state, "UnauthorizedRole"
        if not crypto.verify(signer_doc.primary_key(), doc.attestation_bytes(), sig):
            return state, "BadSignature"
    existing = state.docs.get(doc.did)
    if existing is not None:
        if tx.submitter_did != doc.did and not (
            state.roles.get(tx.submitter_did, frozenset()) & VERINYM_ATTESTER_ROLES
        ):
            return state, "UnauthorizedRole"  # only the owner or a validator rewrites
        if doc.version == existing.version:
            return state, "Duplicate"
        if doc.version != existing.version + 1:
            return state, "StaleEpoch"
    return _committed(state, tx, docs={**state.docs, doc.did: doc})


def _apply_schema(
    state: RegistryState, tx: RegistryTransaction, schema: CredentialSchema
) -> tuple[RegistryState, str]:
    if schema.schema_id in state.schemas:
        return state, "DuplicateId"
    return _committed(state, tx, schemas={**state.schemas, schema.schema_id: schema})


def _apply_cred_def(
    state: RegistryState, tx: RegistryTransaction, cred_def: CredentialDefinition
) -> tuple[RegistryState, str]:
    own_id = cred_def_id_for(tx.submitter_did, cred_def.schema_id)
    if cred_def.issuer_did != tx.submitter_did or cred_def.cred_def_id != own_id:
        return state, "UnauthorizedRole"  # the id names its issuer: no one takes another's
    if cred_def.cred_def_id in state.cred_defs:
        return state, "DuplicateId"
    return _committed(state, tx, cred_defs={**state.cred_defs, cred_def.cred_def_id: cred_def})


def _apply_revoc_init(
    state: RegistryState, tx: RegistryTransaction, reg: crypto.RevocationRegistryState
) -> tuple[RegistryState, str]:
    if reg.issuer_did != tx.submitter_did:
        return state, "UnauthorizedRole"
    if reg.issuer_did in state.revocation:
        return state, "DuplicateId"
    if reg.epoch != 0:
        return state, "StaleEpoch"
    return _committed(state, tx, revocation={**state.revocation, reg.issuer_did: reg})


def _apply_revoc_update(
    state: RegistryState, tx: RegistryTransaction, reg: crypto.RevocationRegistryState
) -> tuple[RegistryState, str]:
    current = state.revocation.get(reg.issuer_did)
    if current is None or reg.issuer_did != tx.submitter_did:
        return state, "UnauthorizedRole"
    if reg.epoch != current.epoch + 1:
        return state, "StaleEpoch"
    return _committed(state, tx, revocation={**state.revocation, reg.issuer_did: reg})


def _apply_anchor_grant(
    state: RegistryState, tx: RegistryTransaction, grant: AnchorGrant
) -> tuple[RegistryState, str]:
    if grant.role not in ROLES:
        return state, "BadSignature"
    held = state.roles.get(grant.target_did, frozenset())
    if grant.role in held:
        return state, "Duplicate"
    return _committed(state, tx, roles={**state.roles, grant.target_did: held | {grant.role}})


# kind -> (roles of which the submitter must hold one, or None; payload Record; apply)
TX_RULES = {
    KIND_NYM: (None, DidDocument, _apply_nym),
    KIND_SCHEMA: (ANCHOR_ROLES, CredentialSchema, _apply_schema),
    KIND_CRED_DEF: (ANCHOR_ROLES, CredentialDefinition, _apply_cred_def),
    KIND_REVOC_INIT: (frozenset({ROLE_PMV}), crypto.RevocationRegistryState, _apply_revoc_init),
    KIND_REVOC_UPDATE: (None, crypto.RevocationRegistryState, _apply_revoc_update),
    KIND_ANCHOR_GRANT: (frozenset({ROLE_STEWARD}), AnchorGrant, _apply_anchor_grant),
}


def replay_log(
    genesis: RegistryState, entries: list[tuple[int, bytes, str]]
) -> RegistryState:
    """Refold a recorded log (seq, tx bytes, outcome) on a fresh state; the
    recorded outcomes must reproduce exactly."""
    state = genesis
    for seq, tx_bytes, recorded_outcome in entries:
        state, outcome = apply_transaction(state, RegistryTransaction.from_bytes(tx_bytes))
        if outcome != recorded_outcome:
            raise RegistryError(
                f"replay divergence at seq {seq}: {outcome} != {recorded_outcome}"
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


def decode_batch(hexes) -> list[tuple[bytes, RegistryTransaction]]:
    """Each hex-encoded transaction of a batch, as (bytes, transaction).
    Raises TypeError unless `hexes` is a list of strings, ValueError for an
    entry that is no transaction, and EmptyBatch for an empty list."""
    if not isinstance(hexes, list):
        raise TypeError("txs must be a list")
    if not hexes:
        raise EmptyBatch("a batch needs at least one transaction")
    batch = [bytes.fromhex(h) for h in hexes]
    return [(tx_bytes, RegistryTransaction.from_bytes(tx_bytes)) for tx_bytes in batch]


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
        self.log: list[tuple[int, bytes, str]] = []  # entry i holds seq i
        self.next_seq = 0

    @property
    def is_sequencer(self) -> bool:
        return self.address == self.pool.sequencer

    # --- shared apply path ---------------------------------------------------

    def _apply_in_order(self, tx_bytes: bytes, tx: RegistryTransaction) -> str:
        seq = self.next_seq
        self.state, outcome = apply_transaction(self.state, tx)
        self.log.append((seq, tx_bytes, outcome))
        self.next_seq += 1
        self.trace(
            "registry.commit",
            iin=self.pool.iin_id,
            seq=seq,
            tx_kind=tx.kind,
            tx_digest=crypto.digest(tx_bytes).hex(),
            submitter=tx.submitter_did,
            outcome=outcome,
        )
        return outcome

    def _ack_body(self, first: int, last: int, digest: bytes) -> dict:
        sig = self.keys.sign(Ack(first, last, digest).to_bytes())
        return {
            "first": first,
            "last": last,
            "node": self.node_id,
            "address": self.address,
            "batch_digest": digest.hex(),
            "ack": sig.bytes_.hex(),
        }

    # --- message handling ------------------------------------------------

    REQUESTS = {
        "iin.submit": ("_sequence", "iin.submit.reply"),
        "iin.order": ("_handle_order", "iin.ack"),
        "iin.fetch": ("_serve_fetch", "iin.fetch.reply"),
        "iin.query": ("_query", "iin.query.reply"),
    }

    def _sequence(self, client: str, msg: Message) -> Generator:
        """Apply a client's batch at the next seqs, order it to every other
        replica in one message, and answer with a receipt once 2f+1 replicas,
        this one included, have acked the batch."""
        if not self.is_sequencer:
            return {"error": "NotSequencer"}
        batch = decode_batch(msg.body["txs"])
        first = self.next_seq
        outcomes = [self._apply_in_order(tx_bytes, tx) for tx_bytes, tx in batch]
        last = self.next_seq - 1
        # the encoding is canonical: these are the digests a client computes
        tx_digests = [crypto.digest(tx_bytes) for tx_bytes, _ in batch]
        digest = batch_digest(tx_digests)
        own_ack = self._ack_body(first, last, digest)

        others = tuple(a for a in self.pool.node_addresses if a != self.address)
        need = self.pool.write_quorum - 1  # own ack counts

        verdicts: dict[int, bool] = {}  # reply index -> valid ack; checked once per reply

        def valid_acks(results: list) -> list:
            for i, r in enumerate(results):
                if r is not None and i not in verdicts:
                    verdicts[i] = self._valid_ack(r, first, last, digest)
            return [r.body for i, r in enumerate(results) if verdicts.get(i)]

        order = {"first": first, "txs": msg.body["txs"]}
        replies = yield Gather(
            tuple((a, "iin.order", order) for a in others),
            timeout=60,
            early=lambda results: len(valid_acks(results)) >= need,
        )
        acks = [own_ack] + valid_acks(replies)
        if len(acks) < self.pool.write_quorum:
            return {"error": "QuorumUnavailable"}
        return {
            "first": first,
            "last": last,
            "outcomes": outcomes,
            "tx_digests": [d.hex() for d in tx_digests],
            "acks": [[a["address"], a["ack"]] for a in sorted(acks, key=lambda a: a["address"])],
        }

    def _valid_ack(self, reply: Optional[Message], first: int, last: int, digest: bytes) -> bool:
        if reply is None or reply.kind != "iin.ack":
            return False
        body = reply.body
        if (body.get("first"), body.get("last"), body.get("batch_digest")) != (
            first, last, digest.hex()
        ):
            return False
        address, ack = body.get("address"), body.get("ack")
        node_key = self.pool.node_public_keys.get(address) if isinstance(address, str) else None
        if node_key is None or not isinstance(ack, str):
            return False
        try:
            signature = crypto.Signature(bytes.fromhex(ack))
        except ValueError:
            return False
        return crypto.verify(node_key, Ack(first, last, digest).to_bytes(), signature)

    def _handle_order(self, sender: str, msg: Message) -> Generator:
        """Apply an ordered batch and ack it once. A replica whose log ends
        before the batch's first seq first fetches the missing entries from
        the sequencer. A batch whose range is already applied is acked only
        when the log holds exactly its transactions at those seqs. Only the
        sequencer orders; anything else stays unanswered."""
        if sender != self.pool.sequencer:
            return None
        first, batch = int(msg.body["first"]), decode_batch(msg.body["txs"])
        if first > self.next_seq:
            yield from self._catch_up(first - 1)
        last = first + len(batch) - 1
        if first == self.next_seq:
            for tx_bytes, tx in batch:
                self._apply_in_order(tx_bytes, tx)
        elif [entry[1] for entry in self.log[first:last + 1]] != [b for b, _ in batch]:
            return None  # the log holds other transactions there, or none yet
        return self._ack_body(first, last, batch_digest([crypto.digest(b) for b, _ in batch]))

    def _catch_up(self, upto: int) -> Generator:
        """Apply the sequencer's log entries from this replica's next seq
        through `upto`."""
        reply = yield Request(
            self.pool.sequencer,
            "iin.fetch",
            {"from": self.next_seq, "to": upto},
            timeout=60,
        )
        if reply is not None and reply.kind == "iin.fetch.reply":
            for seq, tx_hex, _outcome in reply.body["entries"]:
                if seq == self.next_seq:
                    tx_bytes = bytes.fromhex(tx_hex)
                    self._apply_in_order(tx_bytes, RegistryTransaction.from_bytes(tx_bytes))

    # --- open reads --------------------------------------------------------

    def _serve_fetch(self, sender: str, msg: Message) -> dict:
        lo, hi = msg.body.get("from"), msg.body.get("to")
        if not (isinstance(lo, int) and isinstance(hi, int)):
            lo, hi = 0, -1  # a malformed fetch gets no entries
        entries = [[seq, tx.hex(), outcome] for seq, tx, outcome in self.log if lo <= seq <= hi]
        return {"entries": entries}

    def _query(self, sender: str, msg: Message) -> dict:
        """Answer a member read with a `MemberSnapshot` of this replica's
        current state. Anyone may read: a malformed query, or one of another
        `what`, gets the snapshot of nothing (a miss)."""
        ids = [msg.body.get(name, []) for name in ("holders", "issuers", "schemas", "cred_defs")]
        if msg.body.get("what") != QUERY_MEMBER or not all(
            isinstance(names, list) and all(isinstance(n, str) for n in names) for names in ids
        ):
            ids = [[]] * 4
        return {"result": MemberSnapshot.of(self.state, *ids).to_bytes().hex()}


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
    asked, then the revocation state of each issuer, each schema and each
    credential definition asked for that the registry holds."""

    holders: tuple[MemberEntry, ...]
    states: tuple[enc.Framed[crypto.RevocationRegistryState], ...]
    schemas: tuple[enc.Framed[CredentialSchema], ...]
    cred_defs: tuple[enc.Framed[CredentialDefinition], ...]

    @staticmethod
    def of(
        state: RegistryState,
        holders: Sequence[str],
        issuers: Sequence[str],
        schemas: Sequence[str],
        cred_defs: Sequence[str],
    ) -> "MemberSnapshot":
        """A replica's answer, at `state`, to a member read of these ids."""
        return MemberSnapshot(
            tuple(
                MemberEntry(
                    did,
                    (state.docs[did],) if did in state.docs else (),
                    int(state.verinym_status(did)),
                )
                for did in holders
            ),
            tuple(state.revocation[i] for i in issuers if i in state.revocation),
            tuple(state.schemas[s] for s in schemas if s in state.schemas),
            tuple(state.cred_defs[c] for c in cred_defs if c in state.cred_defs),
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


def submit_transaction(pool: PoolInfo, *txs: RegistryTransaction) -> Generator:
    """Submit `txs` to the sequencer as one batch, applied in this order at
    contiguous seqs, and await a quorum-backed receipt. Returns the receipt
    body, whose `outcomes` align with `txs`; raises QuorumUnavailable when the
    pool cannot commit the batch, or when the receipt names other
    transactions or carries fewer than 2f+1 valid acks over this batch."""
    tx_digests = [tx.digest() for tx in txs]
    reply = yield Request(
        pool.sequencer, "iin.submit", {"txs": [tx.to_bytes().hex() for tx in txs]}, timeout=150
    )
    if reply is None:
        raise QuorumUnavailable("no reply from sequencer")
    if reply.body.get("error"):
        raise QuorumUnavailable(reply.body["error"])
    receipt = reply.body
    if receipt.get("tx_digests") != [d.hex() for d in tx_digests] or len(
        receipt.get("outcomes", ())
    ) != len(txs):
        raise QuorumUnavailable("receipt names other transactions")
    signed = Ack(receipt["first"], receipt["last"], batch_digest(tx_digests)).to_bytes()
    valid = {
        address
        for address, sig_hex in receipt.get("acks", [])
        if address in pool.node_public_keys
        and crypto.verify(
            pool.node_public_keys[address], signed, crypto.Signature(bytes.fromhex(sig_hex))
        )
    }
    if len(valid) < pool.write_quorum:
        raise QuorumUnavailable(f"receipt carries {len(valid)} valid acks")
    return receipt


def quorum_query(
    pool: PoolInfo,
    what: str,
    holders: tuple[str, ...] = (),
    issuers: tuple[str, ...] = (),
    schemas: tuple[str, ...] = (),
    cred_defs: tuple[str, ...] = (),
) -> Generator:
    """Read from the first f+1 pool nodes (the sequencer first); ask the other
    nodes only when those replies disagree or one is missing at the timeout.
    Succeed once f+1 byte-identical replies agree across both rounds, and
    return the agreed payload; raise InconsistentReplicas otherwise. The
    registry answers only QUERY_MEMBER, for the ids named (`_query`)."""
    threshold = pool.read_quorum
    body = {
        "what": what, "holders": list(holders), "issuers": list(issuers),
        "schemas": list(schemas), "cred_defs": list(cred_defs),
    }

    def tally(results: list) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in results:
            value = r.body.get("result") if r is not None and r.kind == "iin.query.reply" else None
            if isinstance(value, str):  # any other result matches no reply
                counts[value] = counts.get(value, 0) + 1
        return counts

    def agreed(results: list) -> bool:
        return any(n >= threshold for n in tally(results).values())

    first, rest = pool.node_addresses[:threshold], pool.node_addresses[threshold:]
    replies = yield Gather(tuple((addr, "iin.query", body) for addr in first), timeout=90)
    if not agreed(replies):
        more = yield Gather(
            tuple((addr, "iin.query", body) for addr in rest),
            timeout=90,
            early=lambda later: agreed(replies + later),
        )
        replies = replies + more
    for value, n in tally(replies).items():
        if n >= threshold:
            return bytes.fromhex(value)
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
) -> Generator:
    """The registry's one read: a `MemberSnapshot` of each holder's DID
    document and verinym status, and of the revocation state of each issuer,
    each schema and each credential definition named that the registry
    holds. A verifier reads all the holders it is about to validate at once,
    with every artifact its checks need; an anchor reads back its own
    revocation state with no holders. All of it comes from one replica state,
    and f+1 replies must match on all of it, so a read answered from mixed
    states raises InconsistentReplicas and fails every holder it names."""
    payload = yield from quorum_query(
        pool, QUERY_MEMBER, holder_dids, issuer_dids, schema_ids, cred_def_ids
    )
    return MemberSnapshot.from_bytes(payload)

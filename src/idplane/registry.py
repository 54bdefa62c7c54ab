"""Interoperation identity network: a replicated verifiable data registry.

A pool of N = 3f+1 nodes maintains DID documents, credential schemas,
credential definitions, revocation registry states, and anchor roles. A
designated sequencer orders submitted transactions; a commit receipt requires
acknowledgment signatures from a 2f+1 quorum over (sequence, tx digest). Every
replica folds the same ordered log with the same pure validation rules, so
non-faulty replicas stay byte-identical; invalid transactions commit to the
log as explicit rejections. Reads are open: any client may query, and a result
counts once f+1 replicas return byte-identical answers. A client asks the first
f+1 nodes (the sequencer first, since it holds the freshest state) and asks
the other nodes only when those replies disagree or one is missing at the
timeout, so a read fails only when no f+1 replies of the whole pool match.
Member validation makes one such read (`resolve_member`): a replica answers
with the holder's DID document, its verinym status and the revocation state
of each issuer asked for, all from its one current state, so the three
cannot come from different registry states.
Each attestation is verified once, when its NYM applies, so a DID read looks
up verinym status; only a DID's owner or a STEWARD/OIV may rewrite its document.

The sequencer is assumed honest (it may crash but not equivocate); Byzantine
ordering is out of scope for this registry.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, replace
from typing import Generator, Optional

from . import crypto
from . import encoding as enc
from .actors import Actor, Gather, Message, Request
from .credentials import (
    CredentialDefinition,
    CredentialError,
    CredentialSchema,
    VerificationArtifacts,
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

QUERY_DID = "did"
QUERY_SCHEMA = "schema"
QUERY_CRED_DEF = "cred_def"
# Revocation states are read only inside a QUERY_MEMBER snapshot; the kind
# name stays because the benchmark tracer files reads by it.
QUERY_REVOCATION = "revocation_state"
QUERY_MEMBER = "member"


class RegistryError(Exception):
    pass


class QuorumUnavailable(RegistryError):
    pass


class InconsistentReplicas(RegistryError):
    pass


class NotFound(RegistryError):
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
class DidDocument:
    did: str
    verification_keys: tuple[bytes, ...]
    service_endpoint: str
    attestations: tuple[tuple[str, crypto.Signature], ...]
    version: int = 1

    def primary_key(self) -> bytes:
        return self.verification_keys[0]

    def attestation_bytes(self) -> bytes:
        # what an anchor signs: did + keys + endpoint, independent of version
        return enc.record(
            enc.TAG_ATTESTATION,
            enc.encode_str(self.did),
            enc.encode_list(enc.encode_bytes(k) for k in self.verification_keys),
            enc.encode_str(self.service_endpoint),
        )

    def to_bytes(self) -> bytes:
        return enc.record(
            enc.TAG_DID_DOC,
            enc.encode_str(self.did),
            enc.encode_list(enc.encode_bytes(k) for k in self.verification_keys),
            enc.encode_str(self.service_endpoint),
            enc.encode_list(
                enc.encode_str(signer) + sig.to_bytes() for signer, sig in self.attestations
            ),
            enc.encode_u64(self.version),
        )

    @staticmethod
    def from_bytes(data: bytes) -> "DidDocument":
        reader = enc.Reader(data, expect_tag=enc.TAG_DID_DOC)
        did = reader.str_()
        keys = tuple(reader.bytes_() for _ in range(reader.count()))
        endpoint = reader.str_()
        attestations = tuple(
            (reader.str_(), crypto.Signature.read(reader)) for _ in range(reader.count())
        )
        version = reader.u64()
        reader.done()
        return DidDocument(
            did=did,
            verification_keys=keys,
            service_endpoint=endpoint,
            attestations=attestations,
            version=version,
        )


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
class RegistryTransaction:
    kind: str
    payload: bytes
    submitter_did: str
    submitter_signature: crypto.Signature

    def signing_bytes(self) -> bytes:
        return enc.record(
            enc.TAG_TX,
            enc.encode_str(self.kind),
            enc.encode_bytes(self.payload),
            enc.encode_str(self.submitter_did),
        )

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + self.submitter_signature.to_bytes()

    def digest(self) -> bytes:
        return crypto.digest(self.to_bytes())

    @staticmethod
    def from_bytes(data: bytes) -> "RegistryTransaction":
        reader = enc.Reader(data, expect_tag=enc.TAG_TX)
        tx = RegistryTransaction(
            kind=reader.str_(),
            payload=reader.bytes_(),
            submitter_did=reader.str_(),
            submitter_signature=crypto.Signature.read(reader),
        )
        reader.done()
        return tx


def make_transaction(
    kind: str, payload: bytes, submitter_did: str, submitter_keys: crypto.KeyPair
) -> RegistryTransaction:
    unsigned = RegistryTransaction(
        kind=kind,
        payload=payload,
        submitter_did=submitter_did,
        submitter_signature=crypto.Signature(b""),
    )
    return replace(unsigned, submitter_signature=submitter_keys.sign(unsigned.signing_bytes()))


def anchor_grant_payload(target_did: str, role: str) -> bytes:
    return enc.record(enc.TAG_ANCHOR_GRANT, enc.encode_str(target_did), enc.encode_str(role))


def parse_anchor_grant(payload: bytes) -> tuple[str, str]:
    reader = enc.Reader(payload, expect_tag=enc.TAG_ANCHOR_GRANT)
    target, role = reader.str_(), reader.str_()
    reader.done()
    return target, role


@dataclass(frozen=True)
class RegistryState:
    """Deterministic fold of the ordered transaction log."""

    docs: dict[str, DidDocument] = field(default_factory=dict)
    schemas: dict[str, CredentialSchema] = field(default_factory=dict)
    cred_defs: dict[str, CredentialDefinition] = field(default_factory=dict)
    revocation: dict[str, crypto.RevocationRegistryState] = field(default_factory=dict)
    roles: dict[str, frozenset[str]] = field(default_factory=dict)
    verinym_threshold: int = 1
    applied: frozenset[bytes] = frozenset()

    @staticmethod
    def genesis(
        steward_docs: tuple[DidDocument, ...], verinym_threshold: int = 1
    ) -> "RegistryState":
        return RegistryState(
            docs={d.did: d for d in sorted(steward_docs, key=lambda d: d.did)},
            roles={d.did: frozenset({ROLE_STEWARD}) for d in steward_docs},
            verinym_threshold=verinym_threshold,
        )

    def has_role(self, did: str, role: str) -> bool:
        return role in self.roles.get(did, frozenset())

    def verinym_status(self, did: str) -> bool:
        """A STEWARD's document, or one carrying `verinym_threshold`
        attestations. A lookup suffices: `_apply_nym` admits a document only
        when each attestation verifies under the primary key of a STEWARD or
        OIV signer; `did_matches_key` pins that key to the signer's DID, so
        no later NYM changes it; roles are only ever granted; and the
        threshold is fixed at genesis. A stored attestation stays valid."""
        doc = self.docs.get(did)
        if doc is None:
            return False
        return (
            self.has_role(did, ROLE_STEWARD)  # genesis stewards are the root of trust
            or len(doc.attestations) >= self.verinym_threshold
        )

    def to_bytes(self) -> bytes:
        return enc.record(
            enc.TAG_REGISTRY_STATE,
            enc.encode_list(
                enc.encode_bytes(self.docs[k].to_bytes()) for k in sorted(self.docs)
            ),
            enc.encode_list(
                enc.encode_bytes(self.schemas[k].to_bytes()) for k in sorted(self.schemas)
            ),
            enc.encode_list(
                enc.encode_bytes(self.cred_defs[k].to_bytes()) for k in sorted(self.cred_defs)
            ),
            enc.encode_list(
                enc.encode_bytes(self.revocation[k].to_bytes())
                for k in sorted(self.revocation)
            ),
            enc.encode_list(
                enc.encode_str(did) + enc.encode_list(
                    enc.encode_str(r) for r in sorted(self.roles[did])
                )
                for did in sorted(self.roles)
            ),
            enc.encode_u64(self.verinym_threshold),
            enc.encode_list(enc.encode_bytes(d) for d in sorted(self.applied)),
        )

    def state_hash(self) -> bytes:
        return crypto.digest(self.to_bytes())


def apply_transaction(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    """Pure, deterministic validation and application. Returns the next state
    and an outcome: APPLIED, or a rejection reason leaving the state unchanged."""
    submitter_doc = state.docs.get(tx.submitter_did)
    if submitter_doc is not None:
        submitter_key = submitter_doc.primary_key()
    elif tx.kind == KIND_NYM:
        # self-certifying first registration: the submitter is the document
        try:
            doc = DidDocument.from_bytes(tx.payload)
        except enc.DecodeError:
            return state, "BadSignature"
        if doc.did != tx.submitter_did or not doc.verification_keys:
            return state, "BadSignature"
        submitter_key = doc.primary_key()
    else:
        return state, "BadSignature"

    if not crypto.verify(submitter_key, tx.signing_bytes(), tx.submitter_signature):
        return state, "BadSignature"

    if tx.digest() in state.applied:
        return state, "Duplicate"

    if tx.kind == KIND_NYM:
        return _apply_nym(state, tx)
    if tx.kind == KIND_SCHEMA:
        return _apply_schema(state, tx)
    if tx.kind == KIND_CRED_DEF:
        return _apply_cred_def(state, tx)
    if tx.kind == KIND_REVOC_INIT:
        return _apply_revoc_init(state, tx)
    if tx.kind == KIND_REVOC_UPDATE:
        return _apply_revoc_update(state, tx)
    if tx.kind == KIND_ANCHOR_GRANT:
        return _apply_anchor_grant(state, tx)
    return state, "BadSignature"


def _committed(state: RegistryState, tx: RegistryTransaction, **changes) -> tuple[RegistryState, str]:
    return replace(state, applied=state.applied | {tx.digest()}, **changes), OUTCOME_APPLIED


def _apply_nym(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    try:
        doc = DidDocument.from_bytes(tx.payload)
    except enc.DecodeError:
        return state, "BadSignature"
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


def _apply_schema(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    if not (state.roles.get(tx.submitter_did, frozenset()) & ANCHOR_ROLES):
        return state, "UnauthorizedRole"
    try:
        schema = CredentialSchema.from_bytes(tx.payload)
    except (enc.DecodeError, CredentialError):
        return state, "BadSignature"
    if schema.schema_id in state.schemas:
        return state, "DuplicateId"
    return _committed(state, tx, schemas={**state.schemas, schema.schema_id: schema})


def _apply_cred_def(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    if not (state.roles.get(tx.submitter_did, frozenset()) & ANCHOR_ROLES):
        return state, "UnauthorizedRole"
    try:
        cred_def = CredentialDefinition.from_bytes(tx.payload)
    except enc.DecodeError:
        return state, "BadSignature"
    if cred_def.cred_def_id in state.cred_defs:
        return state, "DuplicateId"
    return _committed(state, tx, cred_defs={**state.cred_defs, cred_def.cred_def_id: cred_def})


def _apply_revoc_init(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    if not state.has_role(tx.submitter_did, ROLE_PMV):
        return state, "UnauthorizedRole"
    try:
        reg = crypto.RevocationRegistryState.from_bytes(tx.payload)
    except enc.DecodeError:
        return state, "BadSignature"
    if reg.issuer_did != tx.submitter_did:
        return state, "UnauthorizedRole"
    if reg.issuer_did in state.revocation:
        return state, "DuplicateId"
    if reg.epoch != 0:
        return state, "StaleEpoch"
    return _committed(state, tx, revocation={**state.revocation, reg.issuer_did: reg})


def _apply_revoc_update(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    try:
        reg = crypto.RevocationRegistryState.from_bytes(tx.payload)
    except enc.DecodeError:
        return state, "BadSignature"
    current = state.revocation.get(reg.issuer_did)
    if current is None or reg.issuer_did != tx.submitter_did:
        return state, "UnauthorizedRole"
    if reg.epoch != current.epoch + 1:
        return state, "StaleEpoch"
    return _committed(state, tx, revocation={**state.revocation, reg.issuer_did: reg})


def _apply_anchor_grant(state: RegistryState, tx: RegistryTransaction) -> tuple[RegistryState, str]:
    if not state.has_role(tx.submitter_did, ROLE_STEWARD):
        return state, "UnauthorizedRole"
    try:
        target, role = parse_anchor_grant(tx.payload)
    except enc.DecodeError:
        return state, "BadSignature"
    if role not in ROLES:
        return state, "BadSignature"
    held = state.roles.get(target, frozenset())
    if role in held:
        return state, "Duplicate"
    return _committed(state, tx, roles={**state.roles, target: held | {role}})


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


def ack_bytes(seq: int, tx_digest: bytes) -> bytes:
    return enc.record(enc.TAG_ACK, enc.encode_u64(seq), enc.encode_bytes(tx_digest))


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
        self.log: list[tuple[int, bytes, str]] = []
        self.next_seq = 0
        self._holdback: dict[int, tuple[bytes, str, Message]] = {}
        self._fetching = False

    @property
    def is_sequencer(self) -> bool:
        return self.address == self.pool.sequencer

    # --- shared apply path ---------------------------------------------------

    def _apply_in_order(self, seq: int, tx_bytes: bytes, tx_digest: bytes) -> str:
        assert seq == self.next_seq
        tx = RegistryTransaction.from_bytes(tx_bytes)
        self.state, outcome = apply_transaction(self.state, tx)
        self.log.append((seq, tx_bytes, outcome))
        self.next_seq += 1
        self.trace(
            "registry.commit",
            iin=self.pool.iin_id,
            seq=seq,
            tx_kind=tx.kind,
            tx_digest=tx_digest.hex(),
            submitter=tx.submitter_did,
            outcome=outcome,
        )
        return outcome

    def _ack_body(self, seq: int, tx_digest: bytes) -> dict:
        sig = self.keys.sign(ack_bytes(seq, tx_digest))
        return {
            "seq": seq,
            "node": self.node_id,
            "address": self.address,
            "tx_digest": tx_digest.hex(),
            "ack": sig.bytes_.hex(),
        }

    # --- message handling ------------------------------------------------

    def on_message(self, sender: str, msg: Message) -> None:
        if msg.kind == "iin.submit":
            if not self.is_sequencer:
                self.reply(sender, msg, "iin.submit.reply", {"error": "NotSequencer"})
                return
            self.start_session("sequence", self._sequence(sender, msg))
            return
        if msg.kind == "iin.order":
            if sender != self.pool.sequencer:
                return
            self._handle_order(sender, msg)
            return
        if msg.kind == "iin.fetch":
            lo, hi = int(msg.body["from"]), int(msg.body["to"])
            entries = [
                [seq, tx.hex(), outcome]
                for seq, tx, outcome in self.log
                if lo <= seq <= hi
            ]
            self.reply(sender, msg, "iin.fetch.reply", {"entries": entries})
            return
        if msg.kind == "iin.query":
            self.reply(sender, msg, "iin.query.reply", {"result": self._query(msg.body).hex()})
            return

    def _sequence(self, client: str, msg: Message) -> Generator:
        tx_bytes = bytes.fromhex(msg.body["tx"])
        seq = self.next_seq
        tx_digest = crypto.digest(tx_bytes)  # the encoding is canonical
        outcome = self._apply_in_order(seq, tx_bytes, tx_digest)
        own_ack = self._ack_body(seq, tx_digest)

        others = tuple(a for a in self.pool.node_addresses if a != self.address)
        need = self.pool.write_quorum - 1  # own ack counts

        verdicts: dict[int, bool] = {}  # reply index -> valid ack; checked once per reply

        def valid_acks(results: list) -> list:
            for i, r in enumerate(results):
                if r is not None and i not in verdicts:
                    verdicts[i] = self._valid_ack(r, seq, tx_digest)
            return [r.body for i, r in enumerate(results) if verdicts.get(i)]

        replies = yield Gather(
            tuple((a, "iin.order", {"seq": seq, "tx": msg.body["tx"]}) for a in others),
            timeout=60,
            early=lambda results: len(valid_acks(results)) >= need,
        )
        acks = [own_ack] + valid_acks(replies)
        if len(acks) < self.pool.write_quorum:
            self.reply(client, msg, "iin.submit.reply", {"error": "QuorumUnavailable"})
            return
        self.reply(
            client,
            msg,
            "iin.submit.reply",
            {
                "seq": seq,
                "outcome": outcome,
                "tx_digest": tx_digest.hex(),
                "acks": [
                    [a["address"], a["ack"]] for a in sorted(acks, key=lambda a: a["address"])
                ],
            },
        )

    def _valid_ack(self, reply: Optional[Message], seq: int, tx_digest: bytes) -> bool:
        if reply is None or reply.kind != "iin.ack":
            return False
        body = reply.body
        if body.get("seq") != seq or body.get("tx_digest") != tx_digest.hex():
            return False
        node_key = self.pool.node_public_keys.get(body.get("address", ""))
        if node_key is None:
            return False
        return crypto.verify(
            node_key, ack_bytes(seq, tx_digest), crypto.Signature(bytes.fromhex(body["ack"]))
        )

    def _handle_order(self, sender: str, msg: Message) -> None:
        seq = int(msg.body["seq"])
        tx_bytes = bytes.fromhex(msg.body["tx"])
        if seq < self.next_seq:
            self.reply(sender, msg, "iin.ack", self._ack_body(seq, crypto.digest(tx_bytes)))
            return
        if seq == self.next_seq:
            tx_digest = crypto.digest(tx_bytes)
            self._apply_in_order(seq, tx_bytes, tx_digest)
            self.reply(sender, msg, "iin.ack", self._ack_body(seq, tx_digest))
            self._drain_holdback()
            return
        # gap: hold the order back and catch up from the sequencer
        self._holdback[seq] = (tx_bytes, sender, msg)
        if not self._fetching:
            self._fetching = True
            self.start_session("catchup", self._catch_up(seq - 1))

    def _catch_up(self, upto: int) -> Generator:
        try:
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
                        self._apply_in_order(seq, tx_bytes, crypto.digest(tx_bytes))
                self._drain_holdback()
        finally:
            self._fetching = False

    def _drain_holdback(self) -> None:
        while self.next_seq in self._holdback:
            tx_bytes, sender, msg = self._holdback.pop(self.next_seq)
            seq = self.next_seq
            tx_digest = crypto.digest(tx_bytes)
            self._apply_in_order(seq, tx_bytes, tx_digest)
            self.reply(sender, msg, "iin.ack", self._ack_body(seq, tx_digest))

    # --- open reads --------------------------------------------------------

    def _query(self, body: dict) -> bytes:
        what, ident = body.get("what", ""), body.get("id", "")
        issuers = body.get("issuers", [])
        if not (
            isinstance(what, str)
            and isinstance(ident, str)
            and isinstance(issuers, list)
            and all(isinstance(i, str) for i in issuers)
        ):
            what, ident, issuers = "", "", []  # anyone may query: a malformed one misses
        found = 0
        payload = b""
        verinym = 0
        if what in (QUERY_DID, QUERY_MEMBER):
            doc = self.state.docs.get(ident)
            if doc is not None:
                found, payload = 1, doc.to_bytes()
                verinym = 1 if self.state.verinym_status(ident) else 0
                if what == QUERY_MEMBER:
                    payload = enc.encode_bytes(payload) + enc.encode_list(
                        enc.encode_bytes(self.state.revocation[issuer].to_bytes())
                        for issuer in issuers
                        if issuer in self.state.revocation
                    )
        elif what == QUERY_SCHEMA:
            schema = self.state.schemas.get(ident)
            if schema is not None:
                found, payload = 1, schema.to_bytes()
        elif what == QUERY_CRED_DEF:
            cred_def = self.state.cred_defs.get(ident)
            if cred_def is not None:
                found, payload = 1, cred_def.to_bytes()
        return enc.record(
            enc.TAG_QUERY_REPLY,
            enc.encode_str(what),
            enc.encode_str(ident),
            enc.encode_u64(found),
            enc.encode_bytes(payload),
            enc.encode_u64(verinym),
        )


def parse_query_reply(data: bytes) -> tuple[str, str, bool, bytes, bool]:
    reader = enc.Reader(data, expect_tag=enc.TAG_QUERY_REPLY)
    what = reader.str_()
    ident = reader.str_()
    found = reader.u64() == 1
    payload = reader.bytes_()
    verinym = reader.u64() == 1
    reader.done()
    return what, ident, found, payload, verinym


# --- client-side pool protocols (run inside an actor session) ----------------


def submit_transaction(pool: PoolInfo, tx: RegistryTransaction) -> Generator:
    """Submit to the sequencer and await a quorum-backed receipt. Returns the
    receipt body; raises QuorumUnavailable when the pool cannot commit."""
    reply = yield Request(pool.sequencer, "iin.submit", {"tx": tx.to_bytes().hex()}, timeout=150)
    if reply is None:
        raise QuorumUnavailable("no reply from sequencer")
    if reply.body.get("error"):
        raise QuorumUnavailable(reply.body["error"])
    receipt = reply.body
    tx_digest = bytes.fromhex(receipt["tx_digest"])
    valid = 0
    for address, sig_hex in receipt.get("acks", []):
        key = pool.node_public_keys.get(address)
        if key is not None and crypto.verify(
            key, ack_bytes(receipt["seq"], tx_digest), crypto.Signature(bytes.fromhex(sig_hex))
        ):
            valid += 1
    if valid < pool.write_quorum:
        raise QuorumUnavailable(f"receipt carries {valid} valid acks")
    return receipt


def quorum_query(
    pool: PoolInfo, what: str, ident: str, issuers: tuple[str, ...] = ()
) -> Generator:
    """Read from the first f+1 pool nodes (the sequencer first); ask the other
    nodes only when those replies disagree or one is missing at the timeout.
    Succeed once f+1 byte-identical replies agree across both rounds.
    `issuers` names the revocation states a QUERY_MEMBER read asks for.
    Returns (found, payload, verinym); raises InconsistentReplicas otherwise."""
    threshold = pool.read_quorum
    body: dict = {"what": what, "id": ident}
    if issuers:
        body["issuers"] = list(issuers)

    def tally(results: list) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in results:
            if r is not None and r.kind == "iin.query.reply":
                value = r.body.get("result", "")
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
            _, _, found, payload, verinym = parse_query_reply(bytes.fromhex(value))
            return found, payload, verinym
    raise InconsistentReplicas(f"{what}:{ident} had no {threshold} matching replies")


def resolve_did(pool: PoolInfo, did: str) -> Generator:
    """Resolve a DID document plus its verinym status; raises NotFound."""
    found, payload, verinym = yield from quorum_query(pool, QUERY_DID, did)
    if not found:
        raise NotFound(did)
    return DidDocument.from_bytes(payload), verinym


def read_schema(pool: PoolInfo, schema_id: str) -> Generator:
    found, payload, _ = yield from quorum_query(pool, QUERY_SCHEMA, schema_id)
    if not found:
        raise NotFound(schema_id)
    return CredentialSchema.from_bytes(payload)


def read_cred_def(pool: PoolInfo, cred_def_id: str) -> Generator:
    found, payload, _ = yield from quorum_query(pool, QUERY_CRED_DEF, cred_def_id)
    if not found:
        raise NotFound(cred_def_id)
    return CredentialDefinition.from_bytes(payload)


def resolve_member(pool: PoolInfo, holder_did: str, issuer_dids: tuple[str, ...]) -> Generator:
    """One snapshot read for member validation: the holder's DID document, its
    verinym status, and the revocation state of each issuer in `issuer_dids`
    that has one, keyed by issuer DID. All three come from one replica state,
    and f+1 replies must match on all of them, so a read answered from mixed
    states raises InconsistentReplicas. The validator makes this read before
    it challenges the holder, so the revocation state is as of the start of
    the validation, not of the presentation's arrival: a revocation committed
    before the read is seen. The validator reads again once when the holder's
    witness is for a later epoch than the snapshot's state (an issuance or
    revocation by that issuer committed during the challenge round trip).
    Raises NotFound for an unknown holder."""
    found, payload, verinym = yield from quorum_query(
        pool, QUERY_MEMBER, holder_did, issuer_dids
    )
    if not found:
        raise NotFound(holder_did)
    reader = enc.Reader(payload)
    doc = DidDocument.from_bytes(reader.bytes_())
    states = [
        crypto.RevocationRegistryState.from_bytes(reader.bytes_())
        for _ in range(reader.count())
    ]
    reader.done()
    return doc, verinym, {s.issuer_did: s for s in states}


def artifacts_from_state(
    state: RegistryState, presenter_did: str, issuer_did: str, schema_id: str, cred_def_id: str
) -> VerificationArtifacts:
    """Local-view artifact bundle for direct (non-networked) verification."""
    return VerificationArtifacts(
        presenter_doc=state.docs.get(presenter_did),
        presenter_verinym=state.verinym_status(presenter_did),
        schema=state.schemas.get(schema_id),
        cred_def=state.cred_defs.get(cred_def_id),
        revocation_state=state.revocation.get(issuer_did),
    )

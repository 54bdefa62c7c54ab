"""Simulated permissioned network: MSP-style certificate hierarchies per
organization, a shared local ledger holding foreign identity records under
an interoperation policy fixed in its genesis state, the configuration-
management contract that admits those records under an all-orgs endorsement
policy, and the data-plane proof hook.

The ledger is a single-writer state machine per network; the contract is a
pure function of (state, statement, bundle, endorsements, tick), so replaying
the block log reproduces the state exactly. Foreign identity records flip
between ACTIVE and REVOKED only through committed contract transactions;
revocation keeps the record (status flip) for auditability.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import crypto
from . import encoding as enc
from .actors import Actor

STATUS_ACTIVE = "ACTIVE"
STATUS_REVOKED = "REVOKED"

OUTCOME_APPLIED = "APPLIED"
OUTCOME_NOOP = "NOOP"
OUTCOME_STALE = "StaleStatement"
OUTCOME_WRONG_LEDGER = "WrongLedger"
OUTCOME_POLICY_VIOLATION = "PolicyViolation"
OUTCOME_DIGEST_MISMATCH = "BundleDigestMismatch"
OUTCOME_RECORD_MISMATCH = "RecordMismatch"


class NetworkError(Exception):
    pass


class UnknownOrg(NetworkError):
    pass


class DataProofError(NetworkError):
    """Data-plane verification failure; names the offending organization."""

    def __init__(self, org_id: str, detail: str = ""):
        self.org_id = org_id
        super().__init__(f"{type(self).__name__}({org_id})" + (f": {detail}" if detail else ""))


class NoIdentityRecord(DataProofError):
    pass


class RevokedMember(DataProofError):
    pass


class BadProofSignature(DataProofError):
    pass


class ExpiredCertificate(DataProofError):
    pass


# --- organizations and MSP bundles -------------------------------------------


@dataclass
class PeerIdentity:
    name: str
    keys: crypto.KeyPair
    chain: tuple[crypto.Certificate, ...]  # root first, peer leaf last


@dataclass
class Organization:
    """One org's presence inside one network: an MSP certificate hierarchy and
    the peers enrolled under it."""

    org_id: str
    network_id: str
    root_keys: crypto.KeyPair
    root_cert: crypto.Certificate
    peers: list[PeerIdentity]
    cert_lifetime: int
    _seed_fn: Callable[[str], bytes]
    _rotation: int = 0
    _bundle: Optional["Bundle"] = field(default=None, compare=False, repr=False)

    @staticmethod
    def create(
        org_id: str,
        network_id: str,
        seed_fn: Callable[[str], bytes],
        peer_count: int,
        now: int,
        cert_lifetime: int,
    ) -> "Organization":
        root_keys = crypto.KeyPair.from_seed(seed_fn(f"msp-root:{network_id}:{org_id}"))
        root_name = f"{network_id}.{org_id}.root"
        org = Organization(
            org_id=org_id,
            network_id=network_id,
            root_keys=root_keys,
            # self-signed; roots outlive several leaf rotations
            root_cert=crypto.Certificate.sign(
                root_keys, root_name, root_keys.public_key, root_name,
                now, now + 100 * cert_lifetime,
            ),
            peers=[],
            cert_lifetime=cert_lifetime,
            _seed_fn=seed_fn,
        )
        org._enroll_peers(peer_count, now)
        return org

    def _enroll_peers(self, count: int, now: int) -> None:
        self.peers = []
        for i in range(count):
            label = f"peer:{self.network_id}:{self.org_id}:{i}:r{self._rotation}"
            keys = crypto.KeyPair.from_seed(self._seed_fn(label))
            leaf = crypto.Certificate.sign(
                self.root_keys,
                subject_name=f"{self.network_id}.{self.org_id}.peer{i}",
                subject_public_key=keys.public_key,
                issuer_name=self.root_cert.subject_name,
                valid_from=now,
                valid_to=now + self.cert_lifetime,
            )
            chain = (self.root_cert, leaf)
            self.peers.append(PeerIdentity(name=leaf.subject_name, keys=keys, chain=chain))

    def rotate(self, now: int) -> None:
        """Re-enroll every peer with fresh keys and a fresh validity window;
        the root stays put, so the bundle digest changes but the trust root
        does not."""
        self._rotation += 1
        self._enroll_peers(len(self.peers), now)

    def _current_bundle(self) -> "Bundle":
        """The bundle of the peers' chains, kept until one changes (`rotate`,
        or a leaf replaced in place), and with it its bytes and digest."""
        chains = tuple(p.chain for p in self.peers)
        if self._bundle is None or tuple(c.certificates for c in self._bundle.chains) != chains:
            self._bundle = Bundle(self.org_id, self.network_id, tuple(map(crypto.Chain, chains)))
        return self._bundle

    def bundle_bytes(self) -> bytes:
        return self._current_bundle().to_bytes()

    def bundle_digest(self) -> bytes:
        return self._current_bundle().digest()


@dataclass(frozen=True)
class Bundle(enc.Record):
    """An org's MSP bundle in one network: one certificate chain per peer."""

    TAG = enc.TAG_BUNDLE
    org_id: str
    network_id: str
    chains: tuple[enc.Framed[crypto.Chain], ...]


# --- local ledger -------------------------------------------------------------


@dataclass(frozen=True)
class ForeignIdentityRecord:
    """A committed foreign identity: its replicated `content` and the tick it
    was committed at. The record derives `chains`, peer name -> (chain, its
    `crypto.chain_link_failure` verdict), once, when the contract makes it:
    the bundle bytes never change, so no proof re-checks a link. A bundle
    that does not decode records no chain. The chains come from the content
    alone, so they take no part in equality, repr or the state hash."""

    content: "RecordContent"
    synced_at: int
    chains: dict[str, tuple[tuple[crypto.Certificate, ...], Optional[crypto.BrokenLink]]] = (
        field(init=False, compare=False, repr=False)
    )

    # perfbench/workloads.py's record check reads these two off the record
    status = property(lambda self: self.content.status)
    bundle_digest = property(lambda self: self.content.bundle_digest)

    def __post_init__(self):
        try:
            recorded = Bundle.from_bytes(self.content.bundle).chains
        except enc.DecodeError:
            recorded = ()
        chains = {}
        for chain in recorded:
            certs = chain.certificates
            if certs and certs[-1].subject_name not in chains:
                chains[certs[-1].subject_name] = certs, crypto.chain_link_failure(certs)
        object.__setattr__(self, "chains", chains)


@dataclass(frozen=True)
class RecordContent(enc.Record):
    """A foreign identity record's replicated content: all but its timing, `synced_at`."""

    network_id: str
    org_id: str
    holder_did: str  # the DID every endorser validated the org under
    bundle: bytes  # canonical bundle payload
    bundle_digest: bytes
    status: str

    def statement(self, home_network: str, made_at: int) -> "Endorsement":
        """The statement, made at tick `made_at`, of this content into `home_network`."""
        return Endorsement(
            home_network, self.network_id, self.org_id, self.holder_did,
            self.bundle_digest, self.status, made_at,
        )


@dataclass(frozen=True)
class Endorsement(enc.Record):
    """The statement, made by an initiator at tick `made_at`, that admits a
    foreign identity record into `home_network`'s ledger: every local org
    endorses it, by listing its digest in the batch it signs (`Endorsed`),
    and step D carries it through each countersigner."""

    TAG = enc.TAG_ENDORSEMENT
    home_network: str
    foreign_network: str
    foreign_org: str
    holder_did: str
    bundle_digest: bytes
    status: str
    made_at: int


@dataclass(frozen=True)
class Endorsed(enc.Record):
    """What one org signs in one step-D batch: the digests of the statements
    it endorses there, in request order. The signature over these bytes
    endorses each listed statement and nothing else, since the digest is
    collision resistant; every statement of the batch shares it."""

    TAG = enc.TAG_ENDORSED
    statements: tuple[bytes, ...]


# An org's endorsement of a statement: (org, the batch that lists the
# statement's digest, the org's signature over that batch's bytes).
Endorsements = tuple[tuple[str, Endorsed, bytes], ...]


@dataclass(frozen=True)
class BlockEntry:
    seq: int
    statement: Endorsement
    bundle: bytes
    endorsements: Endorsements
    outcome: str
    tick: int


@dataclass(frozen=True)
class LocalLedgerState:
    network_id: str
    interop_networks: tuple[str, ...]
    trust_entries: tuple[tuple[str, str, str], ...]  # (iin id, anchor did, network)
    admin_keys: dict[str, bytes]  # org id -> endorsement verification key
    foreign: dict[str, ForeignIdentityRecord] = field(default_factory=dict)
    block_log: tuple[BlockEntry, ...] = ()

    @staticmethod
    def record_key(network_id: str, org_id: str) -> str:
        return f"{network_id}/{org_id}"

    def get_record(self, network_id: str, org_id: str) -> Optional[ForeignIdentityRecord]:
        return self.foreign.get(self.record_key(network_id, org_id))

    def records_for(self, network_id: str) -> list[ForeignIdentityRecord]:
        return [
            self.foreign[k]
            for k in sorted(self.foreign)
            if self.foreign[k].content.network_id == network_id
        ]

    def state_hash(self) -> bytes:
        """Hash of replicated content: policy config plus foreign records
        (bundle, digest, status). Excludes block ordering and the sync ticks
        that replaying it reproduces, so equivalent interleavings hash alike."""
        image = LedgerImage(
            self.network_id,
            self.interop_networks,
            self.trust_entries,
            tuple(sorted(self.admin_keys.items())),
            tuple(self.foreign[k].content for k in sorted(self.foreign)),
        )
        return crypto.digest(image.to_bytes())


@dataclass(frozen=True)
class LedgerImage(enc.Record):
    """What a ledger's state hash digests: its policy, then its records sorted by key."""

    TAG = enc.TAG_LEDGER_STATE
    network_id: str
    interop_networks: tuple[str, ...]
    trust_entries: tuple[tuple[str, str, str], ...]
    admin_keys: tuple[tuple[str, bytes], ...]
    foreign: tuple[enc.Framed[RecordContent], ...]


def cmdac_update_foreign_identity(
    state: LocalLedgerState,
    statement: Endorsement,
    bundle: bytes,
    endorsements: Endorsements,
    now: int,
) -> tuple[LocalLedgerState, str]:
    """The configuration-management contract: commit `bundle` as the foreign
    identity record that `statement` names iff the statement is for this
    ledger and a foreign network on its interoperation list, its digest is
    the bundle's and every local organization endorsed it: listed its digest
    in a batch signed with its registered admin key, and, for a REVOKED
    statement, it names the holder DID and bundle digest of the record it
    would replace (RecordMismatch otherwise, and when there is none).
    Identical-content re-commits are no-op successes. Different content
    replaces the record only when the statement was made after the record's
    last change (`synced_at`); one made at or before it is StaleStatement. A
    refused entry changes nothing."""
    outcome = _refusal(state, statement, bundle, endorsements)
    key = state.record_key(statement.foreign_network, statement.foreign_org)
    foreign = state.foreign
    if outcome is None:
        content = RecordContent(
            statement.foreign_network, statement.foreign_org, statement.holder_did,
            bundle, statement.bundle_digest, statement.status,
        )
        existing = state.foreign.get(key)
        if existing is not None and existing.content == content:
            outcome = OUTCOME_NOOP
        elif existing is not None and statement.made_at <= existing.synced_at:
            outcome = OUTCOME_STALE
        else:
            outcome = OUTCOME_APPLIED
            foreign = {**state.foreign, key: ForeignIdentityRecord(content, now)}

    entry = BlockEntry(
        seq=len(state.block_log),
        statement=statement,
        bundle=bundle,
        # by org alone: batches do not order, and a stable sort keeps an org
        # named twice judged by its last entry on replay too
        endorsements=tuple(sorted(endorsements, key=lambda e: e[0])),
        outcome=outcome,
        tick=now,
    )
    return (
        replace(state, foreign=foreign, block_log=state.block_log + (entry,)),
        outcome,
    )


def _refusal(
    state: LocalLedgerState,
    statement: Endorsement,
    bundle: bytes,
    endorsements: Endorsements,
) -> Optional[str]:
    """Why the contract refuses an entry, or None: a statement for another
    ledger, then one of a network off its interoperation list, a digest that
    is not the bundle's, then each local org's endorsement in org order: its
    batch must list the statement's digest and its signature must verify
    over the batch. Every statement of a batch presents the same batch and
    signature, so the world's verdict memo runs Ed25519 once per org and
    batch. Last, a REVOKED statement must name the holder DID and bundle
    digest of its org's record (RecordMismatch): the countersigners judged
    the holder it names, so a flip of a record held under another DID, or of
    none, would revoke a member no one checked."""
    if statement.home_network != state.network_id:
        return OUTCOME_WRONG_LEDGER
    if statement.foreign_network not in state.interop_networks:
        return OUTCOME_POLICY_VIOLATION
    if statement.bundle_digest != crypto.digest(bundle):
        return OUTCOME_DIGEST_MISMATCH
    digest = statement.digest()
    provided = {org: (batch, sig) for org, batch, sig in endorsements}
    for org in sorted(state.admin_keys):
        if org not in provided:
            return f"MissingEndorsement:{org}"
        batch, sig = provided[org]
        if digest not in batch.statements or not crypto.verify(
            state.admin_keys[org], batch.to_bytes(), crypto.Signature(sig)
        ):
            return f"BadEndorsementSignature:{org}"
    if statement.status == STATUS_REVOKED:
        record = state.get_record(statement.foreign_network, statement.foreign_org)
        if record is None or (record.content.holder_did, record.bundle_digest) != (
            statement.holder_did, statement.bundle_digest
        ):
            return OUTCOME_RECORD_MISMATCH
    return None


def replay_block_log(genesis: LocalLedgerState, log: tuple[BlockEntry, ...]) -> LocalLedgerState:
    """Refold recorded contract transactions; recorded outcomes must match."""
    state = genesis
    for entry in log:
        state, outcome = cmdac_update_foreign_identity(
            state, entry.statement, entry.bundle, entry.endorsements, entry.tick
        )
        if outcome != entry.outcome:
            raise NetworkError(f"replay divergence at block {entry.seq}: {outcome}")
    return state


@dataclass(frozen=True)
class CommitRequest(enc.Record):
    """cmdac.submit: one step-D batch, its (statement, bundle) pairs in
    order, and each org's batch and signature once, shared by them all."""

    statements: tuple[tuple[enc.Framed[Endorsement], bytes], ...]
    endorsements: tuple[tuple[str, enc.Framed[Endorsed], bytes], ...]


@dataclass(frozen=True)
class Committed(enc.Record):  # cmdac.reply: the contract's outcome per statement, in order
    outcomes: tuple[str, ...]


@dataclass(frozen=True)
class LedgerQuery(enc.Record):  # ledger.query: the records of foreign `network`
    network: str


@dataclass(frozen=True)
class LedgerAnswer(enc.Record):  # ledger.reply: their contents, in key order
    records: tuple[enc.Framed[RecordContent], ...]


class LedgerNode(Actor):
    """Single sequencer for one network's shared ledger: applies submitted
    batches in arrival order, the statements of each in order, and answers
    record queries. Its policy is fixed in its genesis state, which every
    member's agent is configured with, so no query asks for it."""

    def __init__(self, address: str, genesis: LocalLedgerState):
        super().__init__(address)
        self.state = genesis
        self.genesis = genesis

    REQUESTS = {
        "cmdac.submit": ("_submit", CommitRequest, "cmdac.reply", Committed),
        "ledger.query": ("_query", LedgerQuery, "ledger.reply", LedgerAnswer),
    }

    def _submit(self, sender: str, request: CommitRequest) -> Committed:
        """Fold the batch's statements through the contract in order, each a
        transaction and block entry of its own: a refused one changes
        nothing, and its neighbours are judged as if it were not there."""
        endorsers = ",".join(sorted(org for org, _, _ in request.endorsements))
        outcomes = []
        for statement, bundle in request.statements:
            self.state, outcome = cmdac_update_foreign_identity(
                self.state, statement, bundle, request.endorsements, self.bus.now
            )
            self.trace(
                "ledger.commit",
                network=self.state.network_id,
                foreign_network=statement.foreign_network,
                foreign_org=statement.foreign_org,
                status=statement.status,
                made_at=statement.made_at,
                outcome=outcome,
                endorsers=endorsers,
                payload_digest=statement.bundle_digest.hex(),
            )
            outcomes.append(outcome)
        return Committed(tuple(outcomes))

    def _query(self, sender: str, query: LedgerQuery) -> LedgerAnswer:
        return LedgerAnswer(tuple(r.content for r in self.state.records_for(query.network)))


# --- data plane hook ----------------------------------------------------------


@dataclass(frozen=True)
class VerificationPolicy:
    source_network_id: str
    required_orgs: tuple[str, ...]

    def __post_init__(self):
        if not self.required_orgs:
            raise NetworkError("verification policy needs at least one signer org")


@dataclass(frozen=True)
class DataProof:
    data: bytes
    signatures: tuple[tuple[str, str, crypto.Signature], ...]  # (org, peer name, sig)


@dataclass(frozen=True)
class ProofStatement(enc.Record):
    """What each required org's peer signs in a data proof."""

    TAG = enc.TAG_DATA_PROOF
    data_digest: bytes


def proof_signing_bytes(data: bytes) -> bytes:
    return ProofStatement(crypto.digest(data)).to_bytes()


def generate_data_proof(
    organizations: dict[str, Organization], data: bytes, policy: VerificationPolicy
) -> DataProof:
    """One peer signature per required org over the data digest."""
    signatures = []
    message = proof_signing_bytes(data)
    for org_id in sorted(policy.required_orgs):
        org = organizations.get(org_id)
        if org is None or not org.peers:
            raise UnknownOrg(org_id)
        peer = org.peers[0]
        signatures.append((org_id, peer.name, peer.keys.sign(message)))
    return DataProof(data=data, signatures=tuple(signatures))


def verify_data_proof(
    ledger_state: LocalLedgerState,
    source_network_id: str,
    proof: DataProof,
    policy: VerificationPolicy,
    now: int,
) -> bool:
    """True iff every required org has an ACTIVE foreign identity record, the
    signing peer's certificate chains (validly, at `now`) to the recorded
    bundle, and its signature over the data digest verifies. Failures raise
    NoIdentityRecord / RevokedMember / ExpiredCertificate / BadProofSignature,
    which callers may convert into a proof-failure resync trigger.

    The chain's links were checked when the record was made
    (`ForeignIdentityRecord.chains`), and a recorded broken link is raised
    again on every proof; the validity windows and the data signature are
    checked on every call, since `now` and the data differ each time."""
    message = proof_signing_bytes(proof.data)
    by_org = {org: (peer, sig) for org, peer, sig in proof.signatures}
    for org_id in sorted(policy.required_orgs):
        record = ledger_state.get_record(source_network_id, org_id)
        if record is None:
            raise NoIdentityRecord(org_id)
        if record.content.status != STATUS_ACTIVE:
            raise RevokedMember(org_id)
        entry = by_org.get(org_id)
        if entry is None:
            raise BadProofSignature(org_id, "no signature supplied")
        peer_name, sig = entry
        found = record.chains.get(peer_name)
        if found is None:
            raise BadProofSignature(org_id, f"peer {peer_name} not in recorded bundle")
        chain, link_failure = found
        try:
            crypto.check_chain_windows(chain, now, link_failure)
        except crypto.Expired as e:
            raise ExpiredCertificate(org_id, str(e))
        except crypto.ChainVerificationError as e:
            raise BadProofSignature(org_id, str(e))
        if not crypto.verify(chain[-1].subject_public_key, message, sig):
            raise BadProofSignature(org_id)
    return True

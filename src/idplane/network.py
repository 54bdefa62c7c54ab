"""Simulated permissioned network: MSP-style certificate hierarchies per
organization, a shared local ledger holding interoperation policy and foreign
identity records, the configuration-management contract that admits those
records under an all-orgs endorsement policy, and the data-plane proof hook.

The ledger is a single-writer state machine per network; the contract is a
pure function of (state, statement, bundle, endorsements), so replaying the
block log reproduces the state exactly. Foreign identity records flip between
ACTIVE and REVOKED only through committed contract transactions; revocation
keeps the record (status flip) for auditability.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import crypto
from . import encoding as enc
from .actors import Actor, Message

STATUS_ACTIVE = "ACTIVE"
STATUS_REVOKED = "REVOKED"

OUTCOME_APPLIED = "APPLIED"
OUTCOME_NOOP = "NOOP"
OUTCOME_REPLAYED = "ReplayedNonce"
OUTCOME_DIGEST_MISMATCH = "BundleDigestMismatch"


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

    def bundle_bytes(self) -> bytes:
        chains = tuple(crypto.Chain(p.chain) for p in self.peers)
        return Bundle(self.org_id, self.network_id, chains).to_bytes()

    def bundle_digest(self) -> bytes:
        return crypto.digest(self.bundle_bytes())


@dataclass(frozen=True)
class Bundle(enc.Record):
    """An org's MSP bundle in one network: one certificate chain per peer."""

    TAG = enc.TAG_BUNDLE
    org_id: str
    network_id: str
    chains: tuple[enc.Framed[crypto.Chain], ...]


# --- local ledger -------------------------------------------------------------


class _BundleMemo:
    """What a record has learnt about its bundle: the chains by peer name,
    parsed on the first proof, and each peer's link verdict, checked on the
    first proof that names that peer."""

    __slots__ = ("chains", "links")

    def __init__(self):
        self.chains: Optional[dict[str, tuple[crypto.Certificate, ...]]] = None
        self.links: dict[str, Optional[crypto.BrokenLink]] = {}


@dataclass(frozen=True)
class ForeignIdentityRecord:
    """A committed foreign identity: its replicated `content` and the tick it
    was committed at."""

    content: "RecordContent"
    synced_at: int
    # derived from the bundle alone, so it is no part of the record's content
    _memo: _BundleMemo = field(
        default_factory=_BundleMemo, init=False, compare=False, repr=False
    )

    # perfbench/workloads.py's record check reads these two off the record
    status = property(lambda self: self.content.status)
    bundle_digest = property(lambda self: self.content.bundle_digest)

    def peer_chain(
        self, peer_name: str
    ) -> Optional[tuple[tuple[crypto.Certificate, ...], Optional[crypto.BrokenLink]]]:
        """The recorded chain whose leaf is `peer_name` and its
        `crypto.chain_link_failure` verdict, or None if the bundle holds no
        such chain. The bundle bytes never change, so the record parses them
        once and checks each peer's links once; a record committed later
        starts with an empty memo."""
        memo = self._memo
        if memo.chains is None:
            chains: dict[str, tuple[crypto.Certificate, ...]] = {}
            for chain in Bundle.from_bytes(self.content.bundle).chains:
                if chain.certificates:
                    chains.setdefault(chain.certificates[-1].subject_name, chain.certificates)
            memo.chains = chains
        chain = memo.chains.get(peer_name)
        if chain is None:
            return None
        if peer_name not in memo.links:
            memo.links[peer_name] = crypto.chain_link_failure(chain)
        return chain, memo.links[peer_name]


@dataclass(frozen=True)
class RecordContent(enc.Record):
    """A foreign identity record's replicated content: all but its timing, `synced_at`."""

    network_id: str
    org_id: str
    holder_did: str  # the DID every endorser validated the org under
    bundle: bytes  # canonical bundle payload
    bundle_digest: bytes
    status: str

    def statement(self, nonce: bytes) -> "Endorsement":
        """The statement that commits this content under `nonce`."""
        return Endorsement(
            self.network_id, self.org_id, self.holder_did, self.bundle_digest, self.status, nonce
        )


@dataclass(frozen=True)
class Endorsement(enc.Record):
    """The statement that admits a foreign identity record: every local org
    signs it, and step D carries it from the initiator, through each
    countersigner, into the block log."""

    TAG = enc.TAG_ENDORSEMENT
    foreign_network: str
    foreign_org: str
    holder_did: str
    bundle_digest: bytes
    status: str
    nonce: bytes


@dataclass(frozen=True)
class BlockEntry:
    seq: int
    statement: Endorsement
    bundle: bytes
    endorsements: tuple[tuple[str, bytes], ...]
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
        (bundle, digest, status). Excludes block ordering and sync ticks so
        equivalent interleavings hash identically."""
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
    endorsements: tuple[tuple[str, bytes], ...],
    now: int,
) -> tuple[LocalLedgerState, str]:
    """The configuration-management contract: commit `bundle` as the foreign
    identity record that `statement` names iff the statement's digest is the
    bundle's, every local organization signed the statement with its
    registered admin key, and no APPLIED or NOOP entry for the same record
    used the statement's nonce before. Identical-content re-commits are no-op
    successes; different content replaces the record. Rejected entries
    consume no nonce, so no single org can burn one ahead of an honest
    commit."""
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
        else:
            outcome = OUTCOME_APPLIED
            foreign = {**state.foreign, key: ForeignIdentityRecord(content, now)}

    entry = BlockEntry(
        seq=len(state.block_log),
        statement=statement,
        bundle=bundle,
        endorsements=tuple(sorted(endorsements)),
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
    endorsements: tuple[tuple[str, bytes], ...],
) -> Optional[str]:
    """Why the contract refuses an entry, or None: a digest that is not the
    bundle's, then each local org's endorsement in org order, then a nonce an
    accepted entry for the same record used before."""
    if statement.bundle_digest != crypto.digest(bundle):
        return OUTCOME_DIGEST_MISMATCH
    message = statement.to_bytes()
    provided = dict(endorsements)
    for org in sorted(state.admin_keys):
        sig = provided.get(org)
        if sig is None:
            return f"MissingEndorsement:{org}"
        if not crypto.verify(state.admin_keys[org], message, crypto.Signature(sig)):
            return f"BadEndorsementSignature:{org}"
    record = (statement.foreign_network, statement.foreign_org)
    if any(
        e.outcome in (OUTCOME_APPLIED, OUTCOME_NOOP)
        and e.statement.nonce == statement.nonce
        and (e.statement.foreign_network, e.statement.foreign_org) == record
        for e in state.block_log
    ):
        # endorsements bind (network, org), so a replay reuses both as well
        return OUTCOME_REPLAYED
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


class LedgerNode(Actor):
    """Single sequencer for one network's shared ledger: applies contract
    submissions in arrival order and answers policy/record queries."""

    def __init__(self, address: str, genesis: LocalLedgerState):
        super().__init__(address)
        self.state = genesis
        self.genesis = genesis

    REQUESTS = {
        "cmdac.submit": ("_submit", "cmdac.reply"),
        "ledger.query": ("_query", "ledger.reply"),
    }

    def _submit(self, sender: str, msg: Message) -> dict:
        statement, bundle = msg.fields("statement", "bundle")
        statement = Endorsement.from_bytes(bytes.fromhex(statement))
        endorsements = tuple(
            (org, bytes.fromhex(sig)) for org, sig in msg.body["endorsements"]
        )
        endorsers = ",".join(sorted(org for org, _ in endorsements))  # orgs must be strings
        self.state, outcome = cmdac_update_foreign_identity(
            self.state, statement, bytes.fromhex(bundle), endorsements, self.bus.now
        )
        self.trace(
            "ledger.commit",
            network=self.state.network_id,
            foreign_network=statement.foreign_network,
            foreign_org=statement.foreign_org,
            status=statement.status,
            nonce=statement.nonce.hex(),
            outcome=outcome,
            endorsers=endorsers,
            payload_digest=statement.bundle_digest.hex(),
        )
        return {"outcome": outcome, "seq": len(self.state.block_log) - 1}

    def _query(self, sender: str, msg: Message) -> dict:
        (what,) = msg.fields("what")
        if what == "policy":
            return {
                "networks": list(self.state.interop_networks),
                "entries": [list(e) for e in self.state.trust_entries],
            }
        if what == "records":
            (network,) = msg.fields("network")
            records = self.state.records_for(network)
            return {"records": [r.content.to_bytes().hex() for r in records]}
        raise NetworkError(f"unknown query {what!r}")


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

    The chain's links are checked once per record and peer
    (`ForeignIdentityRecord.peer_chain`), a stored broken link is raised
    again on every proof, and the validity windows and the data signature are
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
        found = record.peer_chain(peer_name)
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

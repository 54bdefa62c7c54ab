"""Cryptographic substrate: signatures, hashing, certificate chains, and the
Merkle-accumulator revocation registry.

Signatures are Ed25519 with deterministic keygen from a 32-byte seed, so
scenario identities are reproducible. The revocation registry is a Merkle tree
over the sorted set of currently valid credential ids, padded with tagged
padding leaves to a power of two; each update bumps an epoch and invalidates
every witness issued for earlier epochs. All values are immutable; operations
return new states.

`verify` is a pure function of its (public key, message, signature) triple.
While a verdict memo is active (`verdict_memo`, which each `SimBus` installs
for the length of its event loop), it runs Ed25519 once per distinct triple
and answers a repeat from the memo, a failed verdict as failed. Outside such
a block every call runs Ed25519.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import encoding as enc

SCHEME_ED25519 = "ed25519"
PUBLIC_KEY_LEN = 32
SECRET_KEY_LEN = 32
SIGNATURE_LEN = 64


class CryptoError(Exception):
    pass


class ElementNotPresent(CryptoError):
    """Accumulator operation on an element outside the private leaf set."""


class ChainVerificationError(CryptoError):
    """Base for certificate chain failures; carries the failing link index."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        self.detail = detail
        super().__init__(f"{type(self).__name__} at link {index}" + (f": {detail}" if detail else ""))


class BrokenLink(ChainVerificationError):
    pass


class Expired(ChainVerificationError):
    pass


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def digest(data: bytes) -> bytes:
    """32-byte collision-resistant digest of already domain-tagged bytes."""
    return sha256(data)


# --- signatures -------------------------------------------------------------


@dataclass(frozen=True)
class Signature(enc.Record):
    bytes_: bytes
    scheme_id: str = SCHEME_ED25519


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    secret_key: bytes

    @staticmethod
    def from_seed(seed: bytes) -> "KeyPair":
        if len(seed) != SECRET_KEY_LEN:
            raise CryptoError(f"seed must be {SECRET_KEY_LEN} bytes")
        private = _private_key(seed)  # the key object every later sign reuses
        from cryptography.hazmat.primitives.serialization import (
            Encoding,
            PublicFormat,
        )

        public = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(public_key=public, secret_key=seed)

    def sign(self, message: bytes) -> Signature:
        return sign(self.secret_key, message)


@lru_cache(maxsize=4096)
def _private_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@lru_cache(maxsize=4096)
def _public_key(raw: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(raw)


def sign(secret_key: bytes, message: bytes) -> Signature:
    return Signature(_private_key(secret_key).sign(message))


# the active verdict memo, (public key, message, signature bytes) -> verdict;
# None outside a `verdict_memo` block
_verdicts: dict[tuple[bytes, bytes, bytes], bool] | None = None


@contextmanager
def verdict_memo(memo: dict[tuple[bytes, bytes, bytes], bool]) -> Iterator[None]:
    """Make `verify` consult and fill `memo` until the block exits, then
    restore the memo active before it. The caller owns `memo` and decides its
    lifetime; a `SimBus` keeps one per world."""
    global _verdicts
    previous, _verdicts = _verdicts, memo
    try:
        yield
    finally:
        _verdicts = previous


def _ed25519_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        _public_key(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify(public_key: bytes, message: bytes, signature: Signature) -> bool:
    """True iff the signature is valid; never raises on malformed input. A
    wrong scheme, a wrong key or signature length, or a message that is not
    `bytes` is False before any memo is consulted. Inside a `verdict_memo`
    block, the Ed25519 check runs only for a triple the memo does not hold."""
    if signature.scheme_id != SCHEME_ED25519 or not isinstance(message, bytes):
        return False
    if len(signature.bytes_) != SIGNATURE_LEN or len(public_key) != PUBLIC_KEY_LEN:
        return False
    memo = _verdicts
    if memo is None:
        return _ed25519_verify(public_key, message, signature.bytes_)
    triple = (public_key, message, signature.bytes_)
    verdict = memo.get(triple)
    if verdict is None:
        verdict = memo[triple] = _ed25519_verify(*triple)
    return verdict


# --- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class Certificate(enc.Signed):
    TAG = enc.TAG_CERT
    subject_name: str
    subject_public_key: bytes
    issuer_name: str
    valid_from: int
    valid_to: int
    issuer_signature: Signature


@dataclass(frozen=True)
class Chain(enc.Record):
    """A certificate chain, root first, as an MSP bundle carries it."""

    TAG = enc.TAG_CHAIN
    certificates: tuple[enc.Framed[Certificate], ...]


def chain_link_failure(chain: Sequence[Certificate]) -> BrokenLink | None:
    """The first link, root first, whose issuer name or issuer signature does
    not check, as a BrokenLink; None when chain[0] is a self-signed root and
    every later link is signed by its predecessor. The result depends only on
    the certificates, not on the time, so a holder of immutable chain bytes
    may keep it."""
    if not chain:
        return BrokenLink(0, "empty chain")
    for i, cert in enumerate(chain):
        signer = cert if i == 0 else chain[i - 1]
        if cert.issuer_name != signer.subject_name:
            return BrokenLink(i, "issuer name mismatch")
        if not verify(signer.subject_public_key, cert.signing_bytes(), cert.issuer_signature):
            return BrokenLink(i)
    return None


def check_chain_windows(
    chain: Sequence[Certificate], now: int, link_failure: BrokenLink | None
) -> bool:
    """Finish a chain check from its `chain_link_failure` verdict: raise
    Expired(i) for the first certificate before the broken link whose validity
    window excludes `now`, else a fresh copy of the broken link, else return
    True. The first failing link thus wins, and at one index a broken link
    comes before an expired window."""
    end = len(chain) if link_failure is None else link_failure.index
    for i in range(end):
        if not chain[i].valid_from <= now < chain[i].valid_to:
            raise Expired(i)
    if link_failure is not None:
        raise BrokenLink(link_failure.index, link_failure.detail)
    return True


def verify_certificate_chain(chain: Sequence[Certificate], now: int) -> bool:
    """True iff chain[0] is a self-signed root, every link signature verifies,
    and every validity window contains `now`. Raises BrokenLink or Expired
    naming the first failing link. It is `chain_link_failure` followed by
    `check_chain_windows`; a caller that keeps the link verdict runs only the
    second.

    The root is trusted because of where the chain comes from, not because of
    a pinned certificate: it travels in an org's identity bundle, which its DID
    signs when step C fetches it and which every local org endorses before the
    ledger records it.
    """
    return check_chain_windows(chain, now, chain_link_failure(chain))


# --- Merkle accumulator revocation registry ---------------------------------


@dataclass(frozen=True)
class RevocationRegistryState(enc.Record):
    TAG = enc.TAG_REVOCATION_STATE
    issuer_did: str
    epoch: int
    root: bytes
    size_hint: int


@dataclass(frozen=True)
class AccumulatorWitness(enc.Record):
    TAG = enc.TAG_WITNESS
    element: bytes
    epoch: int
    path: tuple[tuple[bytes, int], ...]  # (sibling digest, side); side 0 = sibling left

    SIBLING_LEFT = 0
    SIBLING_RIGHT = 1


def _leaf_hash(element: bytes) -> bytes:
    return sha256(bytes([enc.TAG_LEAF]) + element)


def _pad_hash() -> bytes:
    return sha256(bytes([enc.TAG_PAD]))


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(bytes([enc.TAG_NODE]) + left + right)


def _padded_size(n: int) -> int:
    # a lone real leaf still gets one padding sibling
    if n == 0:
        return 1
    size = 2
    while size < n:
        size *= 2
    return size


def _leaf_level(elements: tuple[bytes, ...]) -> list[bytes]:
    size = _padded_size(len(elements))
    level = [_leaf_hash(e) for e in elements]
    level.extend(_pad_hash() for _ in range(size - len(elements)))
    return level


def _root_of(level: list[bytes]) -> bytes:
    while len(level) > 1:
        level = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def _normalize(elements) -> tuple[bytes, ...]:
    return tuple(sorted(set(elements)))


def _accumulator(
    issuer_did: str, epoch: int, leaves: tuple[bytes, ...]
) -> tuple[RevocationRegistryState, tuple[bytes, ...]]:
    root = _root_of(_leaf_level(leaves))
    state = RevocationRegistryState(
        issuer_did=issuer_did, epoch=epoch, root=root, size_hint=_padded_size(len(leaves))
    )
    return state, leaves


def accumulator_init(
    issuer_did: str, elements=()
) -> tuple[RevocationRegistryState, tuple[bytes, ...]]:
    """Epoch-0 registry over the sorted, deduplicated element set. Returns the
    public state and the issuer-private leaf set."""
    return _accumulator(issuer_did, 0, _normalize(elements))


def accumulator_add(
    state: RevocationRegistryState, leaves: tuple[bytes, ...], *elements: bytes
) -> tuple[RevocationRegistryState, tuple[bytes, ...]]:
    """Next-epoch registry with every element included: one epoch step
    however many elements join."""
    return _accumulator(state.issuer_did, state.epoch + 1, _normalize(leaves + elements))


def accumulator_revoke(
    state: RevocationRegistryState, leaves: tuple[bytes, ...], element: bytes
) -> tuple[RevocationRegistryState, tuple[bytes, ...]]:
    """Next-epoch registry with the element removed; witnesses for earlier
    epochs no longer verify."""
    if element not in leaves:
        raise ElementNotPresent(element.hex())
    return _accumulator(
        state.issuer_did, state.epoch + 1, tuple(e for e in leaves if e != element)
    )


def witness_for(
    state: RevocationRegistryState, leaves: tuple[bytes, ...], element: bytes
) -> AccumulatorWitness:
    """Membership witness for the current epoch."""
    ordered = _normalize(leaves)
    if element not in ordered:
        raise ElementNotPresent(element.hex())
    level = _leaf_level(ordered)
    index = ordered.index(element)
    path: list[tuple[bytes, int]] = []
    while len(level) > 1:
        sibling = index ^ 1
        side = AccumulatorWitness.SIBLING_LEFT if sibling < index else AccumulatorWitness.SIBLING_RIGHT
        path.append((level[sibling], side))
        level = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        index //= 2
    return AccumulatorWitness(element=element, epoch=state.epoch, path=tuple(path))


def witness_verify(state: RevocationRegistryState, witness: AccumulatorWitness) -> bool:
    """True iff the witness is for the state's epoch and its path recomputes
    the state's root. Returns False on any mismatch."""
    if witness.epoch != state.epoch:
        return False
    acc = _leaf_hash(witness.element)
    for sibling, side in witness.path:
        if side == AccumulatorWitness.SIBLING_LEFT:
            acc = _node_hash(sibling, acc)
        elif side == AccumulatorWitness.SIBLING_RIGHT:
            acc = _node_hash(acc, sibling)
        else:
            return False
    return acc == state.root

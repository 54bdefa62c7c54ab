"""Signature scheme and certificate chain behavior."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idplane import crypto
from idplane import network as net


def seeded_keys(label: str) -> crypto.KeyPair:
    return crypto.KeyPair.from_seed(hashlib.sha256(label.encode()).digest())


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestSignatures:
    def test_roundtrip_1000_random_pairs(self):
        rng = random.Random(1234)
        for i in range(1000):
            keys = crypto.KeyPair.from_seed(rng.randbytes(32))
            message = rng.randbytes(rng.randint(1, 64))
            sig = keys.sign(message)
            assert crypto.verify(keys.public_key, message, sig), f"pair {i}"

    def test_random_single_bit_mutations_fail(self):
        rng = random.Random(99)
        for i in range(1000):
            keys = crypto.KeyPair.from_seed(rng.randbytes(32))
            message = rng.randbytes(32)
            sig = keys.sign(message)
            target = rng.choice(["message", "signature", "key"])
            if target == "message":
                mutated = flip_bit(message, rng.randrange(len(message) * 8))
                assert not crypto.verify(keys.public_key, mutated, sig)
            elif target == "signature":
                mutated_sig = crypto.Signature(
                    flip_bit(sig.bytes_, rng.randrange(len(sig.bytes_) * 8))
                )
                assert not crypto.verify(keys.public_key, message, mutated_sig)
            else:
                mutated_key = flip_bit(keys.public_key, rng.randrange(256))
                assert not crypto.verify(mutated_key, message, sig)

    def test_exhaustive_bit_sweep_on_sample_pairs(self):
        rng = random.Random(7)
        for _ in range(3):
            keys = crypto.KeyPair.from_seed(rng.randbytes(32))
            message = rng.randbytes(16)
            sig = keys.sign(message)
            for bit in range(len(message) * 8):
                assert not crypto.verify(keys.public_key, flip_bit(message, bit), sig)
            for bit in range(len(sig.bytes_) * 8):
                assert not crypto.verify(
                    keys.public_key, message, crypto.Signature(flip_bit(sig.bytes_, bit))
                )
            for bit in range(len(keys.public_key) * 8):
                assert not crypto.verify(flip_bit(keys.public_key, bit), message, sig)

    def test_wrong_key_fails(self):
        a, b = seeded_keys("a"), seeded_keys("b")
        sig = a.sign(b"msg")
        assert crypto.verify(a.public_key, b"msg", sig)
        assert not crypto.verify(b.public_key, b"msg", sig)

    def test_deterministic_keygen_and_signatures(self):
        k1 = seeded_keys("same")
        k2 = seeded_keys("same")
        assert k1.public_key == k2.public_key
        assert k1.sign(b"x").bytes_ == k2.sign(b"x").bytes_

    def test_wrong_scheme_id_rejected(self):
        keys = seeded_keys("s")
        sig = keys.sign(b"m")
        bad = crypto.Signature(sig.bytes_, scheme_id="other")
        assert not crypto.verify(keys.public_key, b"m", bad)


def make_chain(depth3: bool = True, now: int = 50, lifetime: int = 100):
    """A self-signed root, then (with `depth3`) an intermediate and a leaf,
    each signed by its predecessor's key."""
    root_keys = seeded_keys("root")
    inter_keys = seeded_keys("inter")
    leaf_keys = seeded_keys("leaf")
    root = crypto.Certificate.sign(
        root_keys, "net.org.root", root_keys.public_key, "net.org.root", 0, lifetime * 10
    )
    if not depth3:
        return (root,), root_keys, leaf_keys
    inter = crypto.Certificate.sign(
        root_keys, "net.org.ica", inter_keys.public_key, "net.org.root", 0, lifetime * 5
    )
    leaf = crypto.Certificate.sign(
        inter_keys, "net.org.peer0", leaf_keys.public_key, "net.org.ica", 0, lifetime
    )
    return (root, inter, leaf), root_keys, leaf_keys


class TestCertificateChains:
    def test_root_only_chain_verifies(self):
        chain, _, _ = make_chain(depth3=False)
        assert len(chain) == 1
        assert crypto.verify_certificate_chain(chain, now=10)

    def test_depth3_chain_verifies_inside_validity(self):
        chain, _, _ = make_chain()
        assert len(chain) == 3
        for now in (0, 50, 99):
            assert crypto.verify_certificate_chain(chain, now=now)

    def test_truncating_root_gives_untrusted_root(self):
        chain, _, _ = make_chain()
        # Without its root, the chain's first certificate is not self-signed;
        # an empty chain has no root at all.
        for truncated in (chain[1:], ()):
            with pytest.raises(crypto.BrokenLink) as err:
                crypto.verify_certificate_chain(truncated, now=50)
            assert err.value.index == 0

    def test_middle_cert_resigned_with_wrong_key_breaks_link_1(self):
        chain, _, _ = make_chain()
        rogue = seeded_keys("rogue")
        tampered_middle = crypto.Certificate(
            subject_name=chain[1].subject_name,
            subject_public_key=chain[1].subject_public_key,
            issuer_name=chain[1].issuer_name,
            valid_from=chain[1].valid_from,
            valid_to=chain[1].valid_to,
            issuer_signature=rogue.sign(chain[1].signing_bytes()),
        )
        tampered = (chain[0], tampered_middle, chain[2])
        with pytest.raises(crypto.BrokenLink) as err:
            crypto.verify_certificate_chain(tampered, now=50)
        assert err.value.index == 1

    def test_expired_leaf_names_its_index(self):
        chain, _, _ = make_chain(lifetime=100)
        with pytest.raises(crypto.Expired) as err:
            crypto.verify_certificate_chain(chain, now=100)
        assert err.value.index == 2

    def test_time_before_validity_is_expired(self):
        root_keys = seeded_keys("root")
        chain = (crypto.Certificate.sign(root_keys, "r", root_keys.public_key, "r", 10, 20),)
        with pytest.raises(crypto.Expired):
            crypto.verify_certificate_chain(chain, now=5)
        assert crypto.verify_certificate_chain(chain, now=10)

    def test_chain_serialization_roundtrip(self):
        chain, _, _ = make_chain()
        data = crypto.Chain(chain).to_bytes()
        assert crypto.Chain.from_bytes(data).certificates == chain


# --- split link and window checks against the single-loop check ---------------


def single_loop_chain_check(chain, now):
    """The one-pass chain check the split replaced, kept as the oracle: links
    and windows interleaved per index, root first."""
    if not chain:
        raise crypto.BrokenLink(0, "empty chain")
    for i, cert in enumerate(chain):
        signer = cert if i == 0 else chain[i - 1]
        if cert.issuer_name != signer.subject_name:
            raise crypto.BrokenLink(i, "issuer name mismatch")
        if not crypto.verify(
            signer.subject_public_key, cert.signing_bytes(), cert.issuer_signature
        ):
            raise crypto.BrokenLink(i)
        if not cert.valid_from <= now < cert.valid_to:
            raise crypto.Expired(i)
    return True


def outcome(check, *args):
    try:
        return check(*args)
    except crypto.ChainVerificationError as e:
        return type(e), e.index


LINK_KEYS = [seeded_keys(f"link{i}") for i in range(3)]
ROGUE = seeded_keys("rogue")
KEY_BY_PUBLIC = {k.public_key: k for k in LINK_KEYS + [ROGUE]}


def signed(cert, keys):
    return crypto.Certificate(
        cert.subject_name, cert.subject_public_key, cert.issuer_name,
        cert.valid_from, cert.valid_to, keys.sign(cert.signing_bytes()),
    )


def mutated(cert, kind, shift, keys):
    if kind == "issuer":
        return crypto.Certificate(
            cert.subject_name, cert.subject_public_key, "x" + cert.issuer_name,
            cert.valid_from, cert.valid_to, cert.issuer_signature,
        )
    if kind == "forge":
        return signed(cert, ROGUE)
    if kind == "swap_key":
        return crypto.Certificate(
            cert.subject_name, ROGUE.public_key, cert.issuer_name,
            cert.valid_from, cert.valid_to, cert.issuer_signature,
        )
    # "shift": a moved window, re-signed by the rightful issuer
    moved = crypto.Certificate(
        cert.subject_name, cert.subject_public_key, cert.issuer_name,
        max(0, cert.valid_from + shift), max(0, cert.valid_to + shift),
        cert.issuer_signature,
    )
    return signed(moved, keys)


@st.composite
def mutated_chains(draw):
    depth = draw(st.integers(1, 3))
    chain = []
    for i in range(depth):
        start = draw(st.integers(0, 60))
        cert = crypto.Certificate(
            f"link{i}", LINK_KEYS[i].public_key, f"link{max(i - 1, 0)}",
            start, start + draw(st.integers(1, 300)), crypto.Signature(b""),
        )
        chain.append(signed(cert, LINK_KEYS[max(i - 1, 0)]))
    mutations = st.tuples(
        st.sampled_from(("issuer", "forge", "swap_key", "shift")),
        st.integers(0, depth - 1),
        st.integers(-100, 100),
    )
    for kind, i, shift in draw(st.lists(mutations, max_size=3)):
        chain[i] = mutated(chain[i], kind, shift, LINK_KEYS[max(i - 1, 0)])
    return tuple(chain)


def data_proof_outcome(ledger, chain, now):
    """verify_data_proof's verdict on a proof signed by the chain's leaf, as
    the chain error class and index it wraps."""
    policy = net.VerificationPolicy("AWAY", ("FarOrg",))
    leaf = KEY_BY_PUBLIC[chain[-1].subject_public_key]
    proof = net.DataProof(b"d", (("FarOrg", chain[-1].subject_name,
                                  leaf.sign(net.proof_signing_bytes(b"d"))),))
    try:
        return net.verify_data_proof(ledger, "AWAY", proof, policy, now)
    except (net.ExpiredCertificate, net.BadProofSignature) as e:
        return type(e.__context__), e.__context__.index


@settings(max_examples=150, deadline=None)
@given(mutated_chains(), st.lists(st.integers(0, 200), min_size=1, max_size=4))
def test_split_chain_check_matches_single_loop(chain, nows):
    """The link check, then the window check, raises what the single loop
    raises: the first failing link, an expired window before a later broken
    link, a broken link before an expired window at the same index. That
    holds for a link verdict computed once and reused at later times, and
    for a ledger record that keeps the verdict across proofs."""
    verdict = crypto.chain_link_failure(chain)
    bundle = net.Bundle("FarOrg", "AWAY", (crypto.Chain(chain),)).to_bytes()
    record = net.ForeignIdentityRecord(
        "AWAY", "FarOrg", "did:iin:iin0:far", bundle, crypto.digest(bundle), net.STATUS_ACTIVE, 0
    )
    ledger = net.LocalLedgerState(
        "HOME", ("AWAY",), (), {}, foreign={net.LocalLedgerState.record_key("AWAY", "FarOrg"): record}
    )
    for now in nows:
        expected = outcome(single_loop_chain_check, chain, now)
        assert outcome(crypto.verify_certificate_chain, chain, now) == expected
        assert outcome(crypto.check_chain_windows, chain, now, verdict) == expected
        assert data_proof_outcome(ledger, chain, now) == expected

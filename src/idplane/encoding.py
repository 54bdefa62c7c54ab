"""Canonical byte encoding for every hashed or signed structure.

Every structure that gets hashed or signed serializes the same way: a 1-byte
domain tag followed by its fields in declared order, each field length-prefixed.
Distinct domain tags keep signatures and digests of different structure kinds
from colliding. The encoding is part of the wire/test surface: fixtures compare
these bytes exactly.
"""

from __future__ import annotations

import json
import struct
from typing import Iterable

# Domain tags. One per structure kind; never reuse a value.
TAG_LEAF = 0x01
TAG_NODE = 0x02
TAG_PAD = 0x03
TAG_CERT = 0x04
TAG_CHAIN = 0x05
TAG_DID_DOC = 0x06
TAG_TX = 0x07
TAG_REGISTRY_STATE = 0x08
TAG_SCHEMA = 0x09
TAG_CRED_DEF = 0x0A
TAG_MEMBERSHIP_VC = 0x0B
TAG_MEMBERLIST_VC = 0x0C
TAG_VP = 0x0D
TAG_REVOCATION_STATE = 0x0E
TAG_WITNESS = 0x0F
TAG_ENVELOPE = 0x10
TAG_ENDORSEMENT = 0x11
TAG_ACK = 0x12
TAG_LEDGER_STATE = 0x13
TAG_BUNDLE = 0x14
TAG_DATA_PROOF = 0x15
TAG_ATTESTATION = 0x16
TAG_CREDENTIAL_ID = 0x17
TAG_QUERY_REPLY = 0x18
TAG_ANCHOR_GRANT = 0x19
TAG_LEDGER_BLOCK = 0x1A


def encode_bytes(value: bytes) -> bytes:
    """Length-prefixed byte string (4-byte big-endian length)."""
    return struct.pack(">I", len(value)) + value


def encode_str(value: str) -> bytes:
    return encode_bytes(value.encode("utf-8"))


def encode_u64(value: int) -> bytes:
    if value < 0:
        raise ValueError("unsigned field cannot be negative")
    return encode_bytes(struct.pack(">Q", value))


def encode_list(items: Iterable[bytes]) -> bytes:
    """A counted sequence of already-encoded items."""
    items = list(items)
    return struct.pack(">I", len(items)) + b"".join(items)


def record(tag: int, *fields: bytes) -> bytes:
    """Tagged concatenation of encoded fields in declared order."""
    if not 0 <= tag <= 0xFF:
        raise ValueError(f"domain tag out of range: {tag}")
    return bytes([tag]) + b"".join(fields)


class Reader:
    """Sequential decoder for the encoding above."""

    def __init__(self, data: bytes, expect_tag: int | None = None):
        self._data = data
        self._pos = 0
        if expect_tag is not None:
            tag = self.u8()
            if tag != expect_tag:
                raise DecodeError(f"expected tag {expect_tag:#x}, got {tag:#x}")

    def u8(self) -> int:
        if self._pos >= len(self._data):
            raise DecodeError("truncated input")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError("truncated input")
        value = self._data[self._pos : self._pos + n]
        self._pos += n
        return value

    def bytes_(self) -> bytes:
        (length,) = struct.unpack(">I", self.raw(4))
        return self.raw(length)

    def str_(self) -> str:
        return self.bytes_().decode("utf-8")

    def u64(self) -> int:
        payload = self.bytes_()
        if len(payload) != 8:
            raise DecodeError("bad u64 width")
        (value,) = struct.unpack(">Q", payload)
        return value

    def count(self) -> int:
        (n,) = struct.unpack(">I", self.raw(4))
        return n

    def done(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")


class DecodeError(ValueError):
    pass


def canonical_json(obj) -> bytes:
    """Deterministic JSON (sorted keys, compact separators) used for actor
    messages and trace records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")

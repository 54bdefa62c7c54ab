"""Canonical byte encoding for every hashed, signed or sent structure.

Every such structure serializes the same way: a 1-byte domain tag followed by
its fields in declared order, each field length-prefixed. Distinct domain tags
keep signatures and digests of different structure kinds from colliding. It is
the one wire codec: every message and its body is a Record (`actors.Message`),
and fixtures compare these bytes exactly.

Every format is a dataclass declared once, by its field types, through the
`Record` and `Signed` mixins: str, bytes and int (u64) fields are
length-prefixed, a nested Record is inline, `Framed[R]` is the Record R as a
length-prefixed byte string, `tuple[T, ...]` is a counted list and
`tuple[A, B]` is A then B. A Record without a tag is untagged bytes. The
functions below serve the codec; no other module of the program calls them.

Two hashed formats stay hand-composed: the accumulator's leaf, node and pad
hashes (`crypto._leaf_hash`, `_node_hash`, `_pad_hash`: a tag byte, then the
raw inputs) and the harness's key seeds (`harness._derive_bytes`: a prefix,
the 8-byte seed, then the label). Neither length-prefixes its inputs, so as
Records they would hash other bytes and move every accumulator root and every
scenario identity.

Every Record keeps its canonical bytes: `to_bytes` encodes on its first call
and keeps the result, `from_bytes` keeps the exact bytes it decoded, and a
Signed record keeps its signing bytes (for a decoded one, the kept bytes up
to where the decoder began the signature field), so no record is encoded
twice; `digest` hashes them once in the same way. The kept bytes and digest
are instance attributes, not fields: equality, hashing, repr and
`dataclasses.replace` ignore them, and a replaced copy encodes and hashes
its own.

Decoding is a pure function of (record class, bytes). While a decode memo is
active (`decode_memo`, which each `bus.SimBus` installs for the length of its
event loop, beside its verdict memo), `from_bytes` decodes each distinct
(class, bytes) pair once and hands every later caller the same record. That
sharing is safe because records are frozen and hold only str, bytes, int,
tuples and records. Bytes that fail to decode are never kept: they raise
again on every call. Outside such a block every call decodes.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import sys
from contextlib import contextmanager
from functools import cache
from typing import Annotated, Any, Callable, ClassVar, Iterable, Iterator, TypeVar
from typing import get_args, get_origin, get_type_hints

# Domain tags. One per structure kind; never reuse a value.
TAG_LEAF = 0x01
TAG_NODE = 0x02
TAG_PAD = 0x03
TAG_CERT = 0x04
TAG_CHAIN = 0x05
TAG_DID_DOC = 0x06
TAG_TX = 0x07  # what a registry writer signs: its batch's transaction digests
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
# 0x18 tagged the retired registry.QueryReply; it is never reused.
TAG_ANCHOR_GRANT = 0x19
TAG_REVOCATION_UPDATE = 0x1A
TAG_MESSAGE = 0x1B
TAG_ENDORSED = 0x1C
TAG_REGISTRY_TX = 0x1D  # an unsigned registry transaction
TAG_NONCE = 0x1E  # an initiator's challenge nonce: its statement-to-be


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
        # where the last Signed record read began its signature field
        self.signature_at: int | None = None
        if expect_tag is not None:
            self.tag(expect_tag)

    def tag(self, expected: int) -> None:
        tag = self.raw(1)[0]
        if tag != expected:
            raise DecodeError(f"expected tag {expected:#x}, got {tag:#x}")

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError("truncated input")
        value = self._data[self._pos : self._pos + n]
        self._pos += n
        return value

    def bytes_(self) -> bytes:
        return self.raw(self.count())

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as e:
            raise DecodeError(f"invalid UTF-8: {e.reason}") from None

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


class Record:
    """Mixin for a frozen dataclass written as its `TAG` (None for one only ever
    nested in another record), then its fields in declared order."""

    TAG: ClassVar[int | None] = None
    # the record's canonical bytes, set on the instance once known
    _encoding: ClassVar[bytes | None] = None
    # the digest of the canonical bytes, set on the instance once hashed
    _digest: ClassVar[bytes | None] = None

    def to_bytes(self) -> bytes:
        data = self._encoding
        if data is None:
            data = _codec(type(self)).encode(self)
            object.__setattr__(self, "_encoding", data)
        return data

    def digest(self) -> bytes:
        """`crypto.digest` of the canonical bytes, hashed once and kept as they are."""
        if self._digest is None:
            from .crypto import digest  # crypto's records build on this module
            object.__setattr__(self, "_digest", digest(self.to_bytes()))
        return self._digest

    @classmethod
    def read(cls, reader: Reader) -> Any:
        return _codec(cls).read(reader)

    @classmethod
    def from_bytes(cls, data: bytes) -> Any:
        memo = _decoded
        if memo is not None:
            value = memo.get((cls, data))
            if value is not None:
                return value
        reader = Reader(data)
        value = _codec(cls).read(reader)
        reader.done()
        object.__setattr__(value, "_encoding", data)
        if isinstance(value, Signed):
            object.__setattr__(value, "_signing", data[: reader.signature_at])
        if memo is not None:
            memo[cls, data] = value
        return value


class Signed(Record):
    """A Record whose last field signs the others: `signing_bytes` is their
    tagged encoding, and `to_bytes` is that followed by the signature."""

    # the tagged encoding of all fields but the signature, set once known
    _signing: ClassVar[bytes | None] = None

    @classmethod
    def sign(cls, keys: Any, *values: Any, **fields: Any) -> Any:
        """The record of all fields but the last, given as to the constructor,
        with the last set to `keys.sign` of its signing bytes."""
        codec = _codec(cls)
        message = codec.encode(cls(*values, **fields, **{codec.signature: None}))
        signed = cls(*values, **fields, **{codec.signature: keys.sign(message)})
        object.__setattr__(signed, "_signing", message)
        return signed

    def signing_bytes(self) -> bytes:
        data = self._signing
        if data is None:
            data = _codec(type(self)).encode(self)
            object.__setattr__(self, "_signing", data)
        return data

    def to_bytes(self) -> bytes:
        data = self._encoding
        if data is None:
            signature = getattr(self, _codec(type(self)).signature)
            data = self.signing_bytes() + signature.to_bytes()
            object.__setattr__(self, "_encoding", data)
        return data


# the active decode memo, (record class, bytes) -> record; None outside a
# `decode_memo` block
_decoded: dict[tuple[type, bytes], Record] | None = None


@contextmanager
def decode_memo(memo: dict[tuple[type, bytes], Record] | None) -> Iterator[None]:
    """Make `Record.from_bytes` consult and fill `memo` until the block exits,
    then restore the memo active before it; with None, decode without one.
    The caller owns `memo` and decides its lifetime; a `SimBus` keeps one
    per world."""
    global _decoded
    previous, _decoded = _decoded, memo
    try:
        yield
    finally:
        _decoded = previous


R = TypeVar("R")
_FRAMED = "framed"
# A field of type Framed[R] holds a Record R, written as a byte string: its
# length, then its encoding. A field of type R writes the encoding inline.
Framed = Annotated[R, _FRAMED]


class _Codec:
    """A Record class's field plan, built on its first use, once the dataclass
    decorator has made its fields. `encode` writes all but a Signed class's
    signature; it is generated, as dataclasses generates `__init__`, because a
    loop over the fields costs about 1 us more per call."""

    def __init__(self, cls: type):
        hints = get_type_hints(cls, include_extras=True)
        names = [f.name for f in dataclasses.fields(cls)]
        self.cls, self.tag = cls, cls.TAG
        self.decoders = tuple(_field(hints[name])[1] for name in names)
        self.signature = names.pop() if issubclass(cls, Signed) else None
        env = {"enc": sys.modules[__name__]}  # enc.record is looked up at each call
        env.update((f"encode_{name}", _field(hints[name])[0]) for name in names)
        fields = ", ".join(f"encode_{name}(obj.{name})" for name in names)
        body = f'b"".join([{fields}])' if self.tag is None else f"enc.record({self.tag}, {fields})"
        exec(f"def encode(obj):\n    return {body}\n", env)
        self.encode = env["encode"]

    def read(self, reader: Reader) -> Record:
        if self.tag is not None:
            reader.tag(self.tag)
        if self.signature is None:
            return self.cls(*[decode(reader) for decode in self.decoders])
        values = [decode(reader) for decode in self.decoders[:-1]]
        reader.signature_at = reader._pos
        return self.cls(*values, self.decoders[-1](reader))


@cache
def _codec(cls: type) -> _Codec:
    return _Codec(cls)


def _field(tp: Any) -> tuple[Callable[[Any], bytes], Callable[[Reader], Any]]:
    """The encoder and the decoder of one field type."""
    if tp in _PRIMITIVES:
        return _PRIMITIVES[tp]
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.to_bytes, tp.read
    if get_origin(tp) is Annotated and tp.__metadata__ == (_FRAMED,):
        inner = get_args(tp)[0]
        return (
            lambda value: encode_bytes(value.to_bytes()),
            lambda reader: inner.from_bytes(reader.bytes_()),
        )
    if get_origin(tp) is not tuple:
        raise TypeError(f"no wire format for field type {tp!r}")
    items = get_args(tp)
    if items[-1] is Ellipsis:
        encode, decode = _field(items[0])
        return (
            lambda values: encode_list([encode(v) for v in values]),
            lambda reader: tuple([decode(reader) for _ in range(reader.count())]),
        )
    parts = [_field(t) for t in items]
    return (
        lambda values: b"".join([encode(v) for (encode, _), v in zip(parts, values)]),
        lambda reader: tuple([decode(reader) for _, decode in parts]),
    )


_PRIMITIVES = {
    str: (encode_str, Reader.str_),
    bytes: (encode_bytes, Reader.bytes_),
    int: (encode_u64, Reader.u64),
}


def canonical_json(obj) -> bytes:
    """Deterministic JSON (sorted keys, compact separators), for traces and
    reports only: messages are Records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")

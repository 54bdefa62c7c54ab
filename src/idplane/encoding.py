"""Canonical byte encoding for every hashed or signed structure.

Every structure that gets hashed or signed serializes the same way: a 1-byte
domain tag followed by its fields in declared order, each field length-prefixed.
Distinct domain tags keep signatures and digests of different structure kinds
from colliding. The encoding is part of the wire/test surface: fixtures compare
these bytes exactly.

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
"""

from __future__ import annotations

import dataclasses
import json
import struct
import sys
from functools import cache
from typing import Annotated, Any, Callable, ClassVar, Iterable, TypeVar
from typing import get_args, get_origin, get_type_hints

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
# 0x18 tagged the retired registry.QueryReply; it is never reused.
TAG_ANCHOR_GRANT = 0x19


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

    def to_bytes(self) -> bytes:
        return _codec(type(self)).encode(self)

    @classmethod
    def read(cls, reader: Reader) -> Any:
        return _codec(cls).read(reader)

    @classmethod
    def from_bytes(cls, data: bytes) -> Any:
        reader = Reader(data)
        value = _codec(cls).read(reader)
        reader.done()
        return value


class Signed(Record):
    """A Record whose last field signs the others: `signing_bytes` is their
    tagged encoding, and `to_bytes` is that followed by the signature."""

    @classmethod
    def sign(cls, keys: Any, *values: Any, **fields: Any) -> Any:
        """The record of all fields but the last, given as to the constructor,
        with the last set to `keys.sign` of its signing bytes."""
        codec = _codec(cls)
        unsigned = cls(*values, **fields, **{codec.signature: None})
        return cls(*values, **fields, **{codec.signature: keys.sign(codec.encode(unsigned))})

    def signing_bytes(self) -> bytes:
        return _codec(type(self)).encode(self)

    def to_bytes(self) -> bytes:
        codec = _codec(type(self))
        return codec.encode(self) + getattr(self, codec.signature).to_bytes()


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
        return self.cls(*[decode(reader) for decode in self.decoders])


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
    """Deterministic JSON (sorted keys, compact separators) used for actor
    messages and trace records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")

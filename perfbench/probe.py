"""Machine-speed probe.

The benchmark shares a 2-vCPU machine with other tenants, and that machine's
speed drifts: a fixed pure-Python loop measured on it ran between 21 and
39 ms over 30 seconds, in slow and fast phases lasting many seconds, and whole
benchmark runs differed by up to 1.5x on identical work. The probe is a fixed
piece of reference work with the same mix of costs as the program (Ed25519
through `cryptography`, SHA-256, canonical JSON, dict-heavy Python), built
from the standard library and `cryptography` only, so that no change to the
program can move it. Runs time it before every measured step and after every
unit, and scale each wall time by `(REFERENCE_S / probe time) ** ELASTICITY`
around it, which reports it at the reference machine speed.

The program slows down less than the probe when the machine slows: over 110
to 120 alternations of probe and 4-org sync on the reference machine, the sync's wall
time moved 0.61 and 0.75 times as much as the probe's (log-log slope), and
scaling with an exponent of 0.7 to 0.8 left the least spread (0.080 of the
median, against 0.111 with exponent 1 and 0.201 unscaled).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# About the median probe time on the reference machine: 2 shared vCPU,
# Python 3.11.7, cryptography 48.0.0.
REFERENCE_S = 0.0040
ELASTICITY = 0.75

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(200))
_SIGNATURE = _KEY.sign(_MESSAGE)
_DOC = {f"field{i:02d}": {"n": i, "hex": bytes([i]).hex() * 16, "list": list(range(8))}
        for i in range(24)}


def _reference_work() -> int:
    for _ in range(10):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    for _ in range(6):
        _KEY.sign(_MESSAGE)
    total = 0
    for _ in range(12):
        text = json.dumps(_DOC, sort_keys=True, separators=(",", ":")).encode()
        total += len(hashlib.sha256(text).digest())
        back = json.loads(text)
        for key, value in back.items():
            total += len(key) + value["n"] + len(value["list"])
    return total


class Probe:
    """Times the reference work on demand. A wall time measured right after
    probe `i` is scaled by the median of the probes `i-4 .. i+4`, which
    bracket it in time."""

    HALF_WINDOW = 4

    def __init__(self):
        self.times: list[float] = []

    def sample(self) -> int:
        """Time the reference work once; returns the probe's index."""
        t0 = time.perf_counter()
        _reference_work()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def scale(self, wall_s: float, index: int) -> float:
        """`wall_s` at the reference speed."""
        window = self.times[max(0, index - self.HALF_WINDOW):index + self.HALF_WINDOW + 1]
        return wall_s * (REFERENCE_S / statistics.median(window)) ** ELASTICITY

"""Counter-based random streams and deterministic seed derivation.

Label sampling must be a pure function of (seed, edge index) so that huge
networks never require materializing all N^2*K draws.  A SplitMix64-style
finalizer gives a stateless, vectorizable map from a 64-bit key and a
64-bit counter to a uniform double with 53 random bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "counter_uniforms"]

# Stream tags: ``derive_seed(seed, tag)`` fans one user seed out into
# independent sub-streams, one per use.  The values are fixed, since
# every draw depends on them.
(TAG_TRUTH, TAG_LABELS, TAG_MASK, TAG_TRAIN, TAG_EVAL,
 TAG_NEGATIVES) = range(6)

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_INIT = np.uint64(0x243F6A8885A308D3)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0**-53)


def _finalize(z: np.ndarray) -> np.ndarray:
    # SplitMix64 output function; wraps mod 2^64 by uint64 arithmetic.
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer (any sign)."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def derive_seed(*parts: int) -> int:
    """Mix integer parts into a single 64-bit seed, order-sensitively.

    Used wherever one user-facing seed has to fan out into independent
    streams (truth / labels / mask / training, replicate grids).  Parts
    are reduced mod 2^64 before mixing; one that is not an integer, which
    ``int`` would truncate onto another seed, raises ``ValueError``.
    """
    with np.errstate(over="ignore"):
        acc = _INIT
        for part in parts:
            check_seed(part)
            word = np.uint64(int(part) & 0xFFFFFFFFFFFFFFFF)
            acc = _finalize((acc ^ word) * _GOLDEN + _GOLDEN)
    return int(acc)


def counter_uniforms(key: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles for the given counters under a fixed key.

    The value at a counter never depends on any other counter, so edge
    labels can be realized lazily and in any order.
    """
    c = np.atleast_1d(np.asarray(counters, dtype=np.uint64))
    with np.errstate(over="ignore"):
        base = np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF)
        z = _finalize(base + (c + np.uint64(1)) * _GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * _INV53

"""Shared primitives: token ids, categorical distributions, log-space helpers.

Validated ``CategoricalDistribution`` objects are the type at file and API
boundaries; the decoder's hot loop works on raw float64 rows through
``draw``, ``sample`` and ``log_ratio``.  Log-ratio arithmetic is floored at
``LOG_FLOOR`` so that "impossible" outcomes stay representable without NaNs.
"""

from __future__ import annotations

import math

import numpy as np

TokenId = int
TokenSequence = tuple[int, ...]

# below the log of half the smallest positive double (about -745.13), so
# exp() of anything at or below it is exactly 0.0 and the floor doubles as
# the deterministic-reject sentinel for zero-probability tokens: even a
# uniform draw of 0.0 does not pass ``exp(score) > u``.
LOG_FLOOR = -746.0

# absolute tolerance on sum(probs) == 1
PROB_SUM_TOL = 1e-9


class InvalidWeight(ValueError):
    """A weight or probability vector has a negative or non-finite entry, or
    a probability row does not sum to 1."""


class AllZeroWeights(ValueError):
    """Every weight is zero; no distribution can be formed."""


class DrafterZeroProb(ValueError):
    """The drafted token has zero probability under the drafter.

    The probability ratio p/q is undefined; callers must treat the candidate
    as non-verifiable rather than abort the decode.
    """


class CategoricalDistribution:
    """Normalized probability vector over a vocabulary of size V.

    Immutable after construction (the underlying array is write-locked) and
    safe to share across threads.
    """

    __slots__ = ("probs",)

    def __init__(self, probs) -> None:
        arr = np.ascontiguousarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        _check_rows(arr, "probabilities")
        arr.setflags(write=False)
        self.probs = arr

    @property
    def vocab_size(self) -> int:
        return int(self.probs.shape[0])

    def prob(self, v: TokenId) -> float:
        return float(self.probs[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoricalDistribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())

    def __repr__(self) -> str:
        return f"CategoricalDistribution({self.probs.tolist()!r})"


def normalize(weights) -> CategoricalDistribution:
    """Scale non-negative weights to a categorical distribution.

    Bitwise idempotent: a vector whose sum is already within PROB_SUM_TOL of
    1.0 is returned unchanged, so normalizing twice equals normalizing once.
    (Iterated division cannot guarantee this: near sum = 1.0 the division can
    oscillate between two adjacent float vectors.)
    """
    arr = np.ascontiguousarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidWeight("weights must be a non-empty 1-D vector")
    # the signs are checked before scaling, which a negative total would hide
    _check_rows(arr, "weights", summed=False)
    return CategoricalDistribution(normalize_rows(arr))


def _check_rows(rows: np.ndarray, what: str, summed: bool = True) -> None:
    """The rule for probability rows: every entry of the ``(..., V)`` array
    rows is finite and non-negative and, if summed, every row sums to 1
    within PROB_SUM_TOL.  A failure raises InvalidWeight naming what, and
    for a 2-D array the row whose sum is furthest from 1."""
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise InvalidWeight(f"{what} must be finite and non-negative")
    if not summed:
        return
    sums = rows.sum(axis=-1)
    error = np.abs(sums - 1.0)
    if np.any(error > PROB_SUM_TOL):
        if rows.ndim == 1:
            raise InvalidWeight(f"{what} sum to {float(sums)}, not 1")
        bad = int(np.argmax(error))
        raise InvalidWeight(f"{what}: row {bad} sums to {sums[bad]}, not 1")


def normalize_rows(weights: np.ndarray) -> np.ndarray:
    """``normalize``'s rule on every row of a finite, non-negative
    ``(..., V)`` array in one pass: a row whose sum is within PROB_SUM_TOL of
    1.0 is kept bit for bit, any other is divided by its sum."""
    total = weights.sum(axis=-1, keepdims=True)
    if not total.all():
        raise AllZeroWeights("all weights are zero")
    return np.where(np.abs(total - 1.0) > PROB_SUM_TOL, weights / total, weights)


def log_ratio(pv: float, qv: float) -> float:
    """log pv - log qv, floored at LOG_FLOOR.

    Raises DrafterZeroProb when qv = 0; returns the floor sentinel when
    pv = 0 so downstream acceptance probability is exactly 0.
    """
    if qv == 0.0:
        raise DrafterZeroProb("drafted token has zero drafter probability")
    if pv == 0.0:
        return LOG_FLOOR
    return max(math.log(pv) - math.log(qv), LOG_FLOOR)


def sample(probs: np.ndarray, rng: np.random.Generator) -> int | np.ndarray:
    """Inverse-CDF draw of one token from a row ``probs`` of shape ``(V,)``,
    or one per row of a ``(W, V)`` batch; rows must be non-negative.  See
    ``draw``."""
    return draw(probs.cumsum(axis=-1), rng)


def draw(cdf: np.ndarray, rng: np.random.Generator) -> int | np.ndarray:
    """Inverse-CDF draw of one token from a cumulative row ``cdf`` of shape
    ``(V,)``, or one per row of a ``(W, V)`` batch (each row non-decreasing).

    Each row consumes one uniform, in row order, so a ``(W, V)`` batch leaves
    the generator exactly where W one-row draws would.  The draw is
    ``min(#{v : cdf[v] <= u * cdf[-1]}, V - 1)``.  A row returns a Python
    int, a batch an integer array.
    """
    if cdf.ndim == 1:
        # a binary search of the sorted cdf counts the entries <= u * total
        return min(int(cdf.searchsorted(rng.random() * cdf[-1], "right")), len(cdf) - 1)
    return pick(cdf, rng.random(len(cdf)))


def pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``draw``'s rule on a ``(W, V)`` batch of cumulative rows, row j
    taking the given uniform ``u[j]``; returns an integer array."""
    above = cdf > (u * cdf[:, -1])[:, None]
    # cdf is sorted, so the first True is the count of entries <= u * total;
    # forcing the last entry clamps a u that rounds up to the total to V - 1
    above[:, -1] = True
    return above.argmax(axis=1)

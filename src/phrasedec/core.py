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

# log of the smallest positive double.  exp() of anything at or below this
# underflows to 0, so the floor doubles as the deterministic-reject sentinel
# for zero-probability tokens.
LOG_FLOOR = -745.0

# absolute tolerance on sum(probs) == 1
PROB_SUM_TOL = 1e-9


class InvalidWeight(ValueError):
    """A weight vector contains a negative or non-finite entry."""


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
        if not np.all(np.isfinite(arr)):
            raise InvalidWeight("probabilities must be finite")
        if np.any(arr < 0):
            raise InvalidWeight("probabilities must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
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
    if not np.all(np.isfinite(arr)):
        raise InvalidWeight("weights must be finite")
    if np.any(arr < 0):
        raise InvalidWeight("weights must be non-negative")
    return CategoricalDistribution(normalize_rows(arr))


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

"""Shared primitives: token ids, categorical distributions, log-space helpers,
the checks of settings and the package's two file formats.  Both configs
settle every field with ``plain`` before any check reads it, so a real is
judged on its float, and after their range checks refuse with
``check_kinds`` a field not of its kind: the type of its default, or a str
or None where that is None.  ``CategoricalDistribution`` is the theory
oracles' input and ``MarkovModel.conditional``'s return; the decoder's hot
loop works on raw float64 rows and the uniform-space draw tables of
``breakpoints`` (read by ``locate``), and inlines ``log_ratio``'s checks and
arithmetic.  ``log_ratio`` and ``normalize`` serve the frozen reference
oracles and ``theory``.  Log-ratio arithmetic is floored at ``LOG_FLOOR`` so
that "impossible" outcomes stay representable without NaNs.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import fields
from numbers import Integral, Real
from typing import NamedTuple

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


def plain(value, kind: type):
    """``value`` as the plain Python value of a setting whose default is of
    type ``kind``: a real (NumPy's included) as its float where the setting
    is real or the value no integer, unless no double holds it (``10**400``
    stays, for the kind check to refuse); else a bool (Python or NumPy)
    as ``bool`` but for an int setting, an integer as its ``operator.index``,
    and anything else as given."""
    if isinstance(value, Real) and (kind is float or not isinstance(value, Integral)):
        try:
            return float(value)
        except OverflowError:
            return value
    if isinstance(value, (bool, np.bool_)) and kind is not int:
        return bool(value)
    if isinstance(value, Integral):
        return operator.index(value)
    return value


def count_at_least(value, least: int, name: str) -> int:
    """``value`` as an int, if it is an integer (``operator.index`` takes
    it: ints, bools and NumPy integers) of at least ``least``; otherwise
    ValueError naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def check_kinds(config) -> None:
    """ValueError naming the first field of the dataclass config not of its
    kind: the type of its default, or a str or None where that is None."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = str if f.default is None and value is not None else type(f.default)
        if not isinstance(value, kind):
            word = {int: "an integer", float: "a real number"}.get(kind, f"a {kind.__name__}")
            raise ValueError(f"{f.name} must be {word}, not {value!r}")


def text_lines(path, error: type[Exception]):
    """The stripped lines of the UTF-8 text file at path as ``(number, line)``,
    numbered from 1 as text mode splits them, skipping blank and '#' lines.
    Each line is checked when reached (a byte that is not UTF-8 is read as a
    lone surrogate), so a caller rejects a line before a later non-UTF-8
    byte raises error; the file closes with the iterator."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for number, line in enumerate(f, 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}: not a UTF-8 text file ({exc.reason})") from exc
            line = line.strip()
            if line and not line.startswith("#"):
                yield number, line


class Container(NamedTuple):
    """The binary file format of PSDM models and PSDL libraries: the 4-byte
    magic, then ``<HII`` (the format version and two fields), then a body.
    A file that is not one raises error, naming kind."""

    magic: bytes
    version: int
    kind: str
    error: type[Exception]

    def write(self, path, fields: tuple[int, int], body) -> None:
        with open(path, "wb") as f:
            f.write(self.magic + struct.pack("<HII", self.version, *fields))
            f.write(body)

    def read(self, path) -> tuple[int, int, memoryview]:
        """The two fields and the uncopied body of the file at path."""
        with open(path, "rb") as f:
            data = f.read()
        if data[:4] != self.magic:
            raise self.error(f"not a {self.magic.decode()} {self.kind} file")
        if len(data) < 14:  # the magic and the header
            raise self.error(f"{self.kind} file is truncated")
        version, first, second = struct.unpack_from("<HII", data, 4)
        if version != self.version:
            raise self.error(f"unknown {self.kind} format version {version}")
        return first, second, memoryview(data)[14:]


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
            raise InvalidWeight("probs must be a non-empty 1-D vector")
        _check_rows(arr, "probabilities")
        arr.setflags(write=False)
        self.probs = arr

    @property
    def vocab_size(self) -> int:
        return int(self.probs.shape[0])

    def prob(self, v: TokenId) -> float:
        return float(self.probs[v])


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


def draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one token, a Python int, from a non-decreasing
    cumulative row ``cdf`` of shape ``(V,)``, consuming one uniform u: the
    token is ``min(#{v : cdf[v] <= u * cdf[-1]}, V - 1)``.  The total of
    the float64 row is read as a Python float, so the threshold u * total is
    one double multiply of Python floats.

    The model's tables apply this rule in uniform space instead: a row of
    ``breakpoints`` holds the least u that counts each token, so the count
    of its entries <= u is the same token, with no multiply, because
    fl(u * T) is monotone in u; its +inf last column is the clamp.
    """
    # a binary search of the sorted cdf counts the entries <= u * total
    return min(int(cdf.searchsorted(rng.random() * cdf.item(-1), "right")), len(cdf) - 1)


def breakpoints(cdf: np.ndarray) -> np.ndarray:
    """``draw``'s rule in uniform space, for a ``(..., V)`` array of
    non-decreasing cumulative rows whose totals T = ``cdf[..., -1]`` are 0 or
    in [0.5, 2], as those of probability rows are.

    Entry v of a row is the least double u >= 0 at which the rule counts
    token v, that is at which ``cdf[v] <= u * T`` in floating point, and the
    last entry is +inf.  Rounding is monotone, so u -> fl(u * T) is
    non-decreasing and the u that count token v are exactly those >= entry
    v.  Hence, for every double u >= 0, 1.0 included,
    ``#{v : breaks[v] <= u} == min(#{v : cdf[v] <= u * T}, V - 1)``: the
    same uniform draws the same token with no multiply, and the +inf column
    is the clamp to V - 1.  Each row is non-decreasing; a row with T = 0 is
    0 up to its last entry, so it always draws V - 1, as ``draw`` does.
    Another total raises ValueError.
    """
    total = cdf[..., -1:]
    if not np.all((total == 0.0) | ((0.5 <= total) & (total <= 2.0))):
        raise ValueError("cumulative rows must total 0 or lie in [0.5, 2]")
    breaks = np.divide(cdf, total, out=np.zeros_like(cdf), where=total > 0.0)
    # with T in [0.5, 2] an ulp of the product spans at most a few ulps of
    # u, so the guess cdf / T lies a few ulps from the least such u: step
    # each entry an ulp at a time until every entry meets that definition
    product = np.empty_like(cdf)
    while True:
        low = np.multiply(breaks, total, out=product) < cdf
        np.nextafter(breaks, 0.0, out=product)
        high = np.multiply(product, total, out=product) >= cdf
        high &= breaks > 0.0
        if not (low.any() or high.any()):
            break
        np.copyto(breaks, np.nextafter(breaks, 0.0), where=high)
        np.copyto(breaks, np.nextafter(breaks, np.inf), where=low)
    breaks[..., -1] = np.inf
    return breaks


def locate(breaks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The token row j of the ``(W, V)`` table ``breaks`` (see
    ``breakpoints``) draws for the uniform ``u[j]``, as an integer array:
    the count of entries <= u[j], which is the first entry above it, since
    rows are sorted and end with +inf."""
    return (breaks > u[:, None]).argmax(axis=1)

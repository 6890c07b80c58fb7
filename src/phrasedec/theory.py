"""Exact and Monte Carlo oracles for speculative acceptance-rate analysis.

Provides the expected acceptance rate of the accept-resample test, its
token-wise product over a sequence, the phrase-level joint-ratio rate, and
checks of the min-function inequality that orders the two.
These rate oracles treat all positions as independent.

The exact-law enumerators read a model only through ``evaluate``, and
follow a decode's correlated drafting: ``target_joint`` is its joint law
of L-token sequences, and ``decoder_law(model, cfg, L)`` the law of the
first L tokens ``decode(model, None, cfg, L, rng)`` commits (ValueError for
any mode but sjd and jacobi), both flat arrays indexed by ``seq_index``.
A bad count raises ValueError, and they and ``proposition1_sweep`` raise
EnumerationTooLarge for more than ``ENUMERATION_LIMIT`` outcomes, before
any ``evaluate`` call or draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from .core import CategoricalDistribution, count_at_least, normalize

# exact joint enumeration is capped at this many outcomes
ENUMERATION_LIMIT = 10**7

# rounding slack allowed when checking that a rate inequality holds
_GAP_TOL = 1e-12


class EnumerationTooLarge(ValueError):
    """V^L exceeds the exact-enumeration guard."""


def _check_enumeration(base: int, power: int, what: str) -> None:
    """Raise EnumerationTooLarge if base ** power passes ENUMERATION_LIMIT."""
    # any base >= 2 to the limit's bit length passes it, so the power is
    # capped there and a huge power builds no huge int
    if base ** min(power, ENUMERATION_LIMIT.bit_length()) > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(f"{what} has more than {ENUMERATION_LIMIT} joint outcomes")


def _rate(p: np.ndarray, q: np.ndarray) -> float:
    """E_{x~q}[min(1, p(x)/q(x))] over arrays of one shape; q(x) = 0 adds 0."""
    mask = q > 0
    return float(np.dot(q[mask], np.minimum(1.0, p[mask] / q[mask])))


def _check_pairs(p_list, q_list) -> None:
    """Raise ValueError unless the lists are non-empty, equally long and pairwise one size."""
    if len(p_list) != len(q_list) or not p_list:
        raise ValueError("p_list and q_list must be non-empty and equal length")
    for i, (p, q) in enumerate(zip(p_list, q_list)):
        if p.vocab_size != q.vocab_size:
            raise ValueError(f"position {i}: p and q must share a vocabulary size")


def alpha(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """Expected acceptance rate E_{x~q}[min(1, p(x)/q(x))]."""
    return alpha_seq([p], [q])


def alpha_seq(p_list, q_list) -> float:
    """Token-wise sequence acceptance rate: the product of per-position rates."""
    _check_pairs(p_list, q_list)
    return float(np.prod([_rate(p.probs, q.probs) for p, q in zip(p_list, q_list)]))


def _joint(dists) -> np.ndarray:
    return reduce(np.multiply.outer, [d.probs for d in dists]).ravel()


def alpha_phr_exact(p_list, q_list) -> float:
    """Phrase-level acceptance rate E_{x~q}[min(1, prod p_i(x_i)/q_i(x_i))]
    by exact enumeration of all joint outcomes."""
    _check_pairs(p_list, q_list)
    outcomes = math.prod(d.vocab_size for d in q_list)
    if outcomes > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(f"{outcomes} joint outcomes exceed the guard")
    return _rate(_joint(p_list), _joint(q_list))


def alpha_phr_mc(
    p_list, q_list, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of the phrase-level rate: (mean, standard error)."""
    _check_pairs(p_list, q_list)
    samples = count_at_least(samples, 1, "samples")
    ratios = np.ones(samples)
    for p, q in zip(p_list, q_list):
        idx = rng.choice(q.vocab_size, size=samples, p=q.probs)
        ratios *= p.probs[idx] / q.probs[idx]
    values = np.minimum(1.0, ratios)
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return estimate, std_error


class MinInequalityResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def min_inequality_check(ratios) -> MinInequalityResult:
    """Check min(1, prod r_i) >= prod min(1, r_i) for non-negative ratios."""
    arr = np.asarray(ratios, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("ratios must be non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("ratios must be finite and non-negative")
    lhs = min(1.0, float(np.prod(arr)))
    rhs = float(np.prod(np.minimum(1.0, arr)))
    return MinInequalityResult(lhs, rhs, lhs >= rhs - _GAP_TOL)


@dataclass
class Proposition1Summary:
    """Aggregate of a random sweep checking alpha_phr >= alpha_seq."""

    trials: int
    violations: int
    gaps: list[float] = field(default_factory=list)

    @property
    def min_gap(self) -> float:
        return min(self.gaps) if self.gaps else 0.0


def random_instance(
    vocab_size: int, length: int, rng: np.random.Generator
) -> tuple[list[CategoricalDistribution], list[CategoricalDistribution]]:
    """Random (p_i, q_i) pairs from symmetric Dirichlets whose concentration
    is drawn log-uniform in [0.1, 10], spanning peaked and flat regimes; a
    bad count raises ValueError before rng is drawn from."""
    vocab_size = count_at_least(vocab_size, 1, "vocab_size")
    length = count_at_least(length, 0, "length")
    conc = float(10.0 ** rng.uniform(-1.0, 1.0))
    alpha_vec = np.full(vocab_size, conc)
    p_list = [normalize(rng.dirichlet(alpha_vec)) for _ in range(length)]
    q_list = [normalize(rng.dirichlet(alpha_vec)) for _ in range(length)]
    return p_list, q_list


def proposition1_sweep(
    trials: int, v_max: int, l_max: int, rng: np.random.Generator
) -> Proposition1Summary:
    """Draw random instances and count violations of alpha_phr >= alpha_seq.

    Before rng is drawn from, bad counts raise ValueError, and a grid whose
    largest instance, ``v_max ** l_max`` joint outcomes, passes
    ``ENUMERATION_LIMIT`` raises EnumerationTooLarge.
    """
    trials = count_at_least(trials, 0, "trials")
    v_max = count_at_least(v_max, 2, "v_max")
    l_max = count_at_least(l_max, 1, "l_max")
    _check_enumeration(v_max, l_max, f"v_max={v_max}, l_max={l_max}: the largest instance")
    summary = Proposition1Summary(trials=trials, violations=0)
    for _ in range(trials):
        vocab_size = int(rng.integers(2, v_max + 1))
        length = int(rng.integers(1, l_max + 1))
        p_list, q_list = random_instance(vocab_size, length, rng)
        gap = alpha_phr_exact(p_list, q_list) - alpha_seq(p_list, q_list)
        summary.gaps.append(gap)
        if gap < -_GAP_TOL:
            summary.violations += 1
    return summary


def seq_index(seq, vocab):
    """The position of a sequence in a flat law: its tokens as base-V digits."""
    n = 0
    for tok in seq:
        n = n * vocab + tok
    return n


def target_joint(model, length):
    """The model's joint law of length-token sequences, one ``evaluate``
    call per sequence: the probability of each token at its own row."""
    length = count_at_least(length, 1, "length")
    _check_enumeration(model.vocab_size, length, f"the joint law of {length} tokens")
    out = np.empty(model.vocab_size**length)
    for n, seq in enumerate(itertools.product(range(model.vocab_size), repeat=length)):
        rows = model.evaluate((), seq)
        out[n] = np.prod([rows.probs[i, v] for i, v in zip(rows.idx, seq)])
    return out


def decoder_law(model, cfg, length):
    """The exact law of the first length tokens ``decode(model, None, cfg,
    length, rng)`` commits, for cfg.mode "sjd" or "jacobi"."""
    length = count_at_least(length, 0, "length")
    if cfg.mode not in ("sjd", "jacobi"):
        raise ValueError(
            f"no exact law of mode {cfg.mode!r}: only sjd and jacobi are "
            "enumerated (sjd_pv's phrase branches are ROADMAP item 8)"
        )
    V, order = model.vocab_size, model.order
    _check_enumeration(V, length, f"the law of {length} tokens")
    _check_enumeration(V, cfg.window_size, f"a window of {cfg.window_size} drafts")
    begin = model.evaluate((), (0,))
    # per row: the law of a draft, or of a fixed-point rule's fresh draw
    laws = (np.eye(V)[list(begin.argmax)] if cfg.greedy else begin.probs).tolist()
    sjd = cfg.mode == "sjd" and not cfg.greedy

    def ends(idx, drafts, codes):
        """(committed tokens, probability) of every way one iteration ends."""
        out, chunk, prob = [], (), 1.0
        for t, d in enumerate(drafts):
            p = laws[idx[t]]
            if sjd:
                q = laws[codes[t]]
                keep = min(1.0, p[d] / q[d])
                residual = [max(a - b, 0.0) for a, b in zip(p, q)]
                # a rejection (probability 1 - keep) draws from the residual
                scale = (1.0 - keep) / sum(residual) if keep < 1.0 else 0.0
                stop = [scale * x for x in residual]
            else:  # the fixed-point rule: the draft survives iff a fresh draw matches it
                keep, stop = p[d], [0.0 if v == d else x for v, x in enumerate(p)]
            out += [(chunk + (v,), prob * x) for v, x in enumerate(stop) if x > 0.0]
            prob *= keep
            chunk += (d,)
            if prob == 0.0:
                return out
        return out + [(chunk, prob)]

    @cache
    def iteration(tail, codes, drafts):  # the iteration's rows and ends
        idx = model.evaluate(tail, drafts).idx
        return idx, ends(idx, drafts, codes)

    @cache
    def law(r, tail, codes):
        """The law of the next r committed tokens, as a flat array, when the
        next window is drafted at codes and tail is the prefix."""
        out = np.zeros(V**r)
        for drafts in itertools.product(range(V), repeat=len(codes)):
            q = np.prod([laws[c][d] for c, d in zip(codes, drafts)])
            if q == 0.0:
                continue
            idx, outcomes = iteration(tail, codes, drafts)
            for chunk, prob in outcomes:
                n = len(chunk)
                if n >= r:
                    out[seq_index(chunk[:r], V)] += q * prob
                    continue
                refill = tuple(idx[n:] + idx[-1:] * n)
                block = V ** (r - n)
                start = seq_index(chunk, V) * block
                out[start : start + block] += q * prob * law(r - n, (tail + chunk)[-order:], refill)
        return out

    return law(length, (), tuple(begin.idx * cfg.window_size))

"""Frozen per-slot reference decoder: the differential oracle for the dense core.

This is the engine's former hot loop, kept verbatim in behaviour: every slot
builds validated ``CategoricalDistribution`` objects from
``model.conditional(prefix)``, neighbourhoods are frozensets, and every draw is
a scalar inverse-CDF ``sample`` call.  ``test_dense_core.py`` asserts that the
dense engine returns the same tokens and the same ``DecodeMetrics`` from the
same generator state.  Do not optimise or otherwise edit this module; it is
the specification the dense core is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from phrasedec.core import (
    LOG_FLOOR,
    CategoricalDistribution,
    DrafterZeroProb,
    log_ratio,
    normalize,
)
from phrasedec.decoder import (
    DecodeMetrics,
    DegenerateResidual,
    NonTermination,
    VerifyConfig,
)


def sample(dist: CategoricalDistribution, rng: np.random.Generator) -> int:
    cdf = np.cumsum(dist.probs)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, dist.vocab_size - 1)


def batched_conditionals(model, prefix, drafts):
    prefix = tuple(prefix)
    return [model.conditional(prefix + tuple(drafts[:j])) for j in range(len(drafts))]


def ancestral_sample(model, length, rng):
    out: list[int] = []
    for _ in range(length):
        out.append(sample(model.conditional(tuple(out)), rng))
    return tuple(out)


@dataclass(frozen=True)
class JacobiWindow:
    drafts: tuple
    drafter_dists: tuple
    window_start: int

    def __post_init__(self) -> None:
        if len(self.drafts) != len(self.drafter_dists):
            raise ValueError("drafts and drafter_dists must have equal length")
        for tok, dist in zip(self.drafts, self.drafter_dists):
            if dist.prob(tok) <= 0.0:
                raise ValueError(f"draft token {tok} has zero drafter probability")

    def __len__(self) -> int:
        return len(self.drafts)


def build_neighborhood(p, drafted, tau):
    diffs = np.abs(p.probs - p.probs[drafted])
    return frozenset(int(v) for v in np.nonzero(diffs < tau)[0])


def phrase_acceptance_score(verifier_dists, drafter_dists, phrase):
    score = 0.0
    for p, q, v in zip(verifier_dists, drafter_dists, phrase.tokens):
        score += log_ratio(p.prob(v), q.prob(v))
    return max(score, LOG_FLOOR)


def verify_phrase(score, rng):
    if score >= 0.0:
        return True
    return math.exp(max(score, LOG_FLOOR)) > rng.random()


def verify_token(p, q, drafted, rng):
    qd = q.prob(drafted)
    if qd == 0.0:
        raise DrafterZeroProb(f"drafted token {drafted} has zero drafter probability")
    if rng.random() < p.prob(drafted) / qd:
        return True, drafted
    residual = np.maximum(p.probs - q.probs, 0.0)
    if residual.sum() == 0.0:
        raise DegenerateResidual("rejection with p == q; arithmetic fault")
    return False, sample(normalize(residual), rng)


def _find_phrase(lib, drafts, t, neighborhoods, cfg):
    remaining = len(drafts) - t
    for phrase in lib.index.get(drafts[t], ()):
        n = len(phrase)
        if n > remaining or n > cfg.max_phrase_len:
            continue
        if all(phrase.tokens[k] in neighborhoods[t + k] for k in range(n)):
            return phrase
    return None


def _draw(dist, greedy, rng):
    if greedy:
        return int(np.argmax(dist.probs))
    return sample(dist, rng)


def verify_window(prefix, window, target, lib, cfg: VerifyConfig, rng):
    if cfg.mode == "sjd_pv" and lib is None:
        raise ValueError("sjd_pv mode requires a phrase library")
    W = len(window)
    verifier = batched_conditionals(target, prefix, window.drafts)
    metrics = DecodeMetrics(nfe=1)

    neighborhoods = None
    if cfg.mode == "sjd_pv":
        neighborhoods = [
            build_neighborhood(verifier[j], window.drafts[j], cfg.tau) for j in range(W)
        ]

    committed: list[int] = []
    t = 0
    while t < W:
        if cfg.mode == "sjd_pv":
            phrase = _find_phrase(lib, window.drafts, t, neighborhoods, cfg)
            if phrase is not None:
                metrics.phrase_attempts += 1
                n = len(phrase)
                try:
                    score = phrase_acceptance_score(
                        verifier[t : t + n], window.drafter_dists[t : t + n], phrase
                    )
                except DrafterZeroProb:
                    score = None
                if score is not None and verify_phrase(score, rng):
                    metrics.phrase_accepts += 1
                    committed.extend(phrase.tokens)
                    t += n
                    continue

        p, q, drafted = verifier[t], window.drafter_dists[t], window.drafts[t]
        if cfg.mode == "jacobi" or cfg.greedy:
            fresh = _draw(p, cfg.greedy, rng)
            accepted, emitted = fresh == drafted, (drafted if fresh == drafted else fresh)
        else:
            accepted, emitted = verify_token(p, q, drafted, rng)
        committed.append(emitted)
        t += 1
        if accepted:
            metrics.token_accepts += 1
        else:
            metrics.token_rejects += 1
            break

    new_drafts: list[int] = []
    new_dists: list[CategoricalDistribution] = []
    for j in range(t, W):
        new_dists.append(verifier[j])
        new_drafts.append(_draw(verifier[j], cfg.greedy, rng))
    while len(new_drafts) < W:
        new_dists.append(verifier[W - 1])
        new_drafts.append(_draw(verifier[W - 1], cfg.greedy, rng))

    next_window = JacobiWindow(
        tuple(new_drafts), tuple(new_dists), window.window_start + len(committed)
    )
    metrics.tokens_emitted = len(committed)
    metrics.tokens_per_iteration.append(len(committed))
    return tuple(committed), next_window, metrics


def decode(target, lib, cfg: VerifyConfig, total_len, rng):
    if total_len < 1:
        raise ValueError("total_len must be >= 1")
    W = cfg.window_size
    begin_row = target.conditional(())
    window = JacobiWindow(
        tuple(_draw(begin_row, cfg.greedy, rng) for _ in range(W)),
        (begin_row,) * W,
        0,
    )

    committed: list[int] = []
    metrics = DecodeMetrics()
    iterations = 0
    while len(committed) < total_len:
        iterations += 1
        if iterations > 10 * total_len:
            raise NonTermination(f"no convergence after {iterations - 1} iterations")
        out, window, delta = verify_window(tuple(committed), window, target, lib, cfg, rng)
        committed.extend(out)
        metrics.merge(delta)

    excess = len(committed) - total_len
    if excess:
        committed = committed[:total_len]
        metrics.tokens_emitted -= excess
        metrics.tokens_per_iteration[-1] -= excess
    return tuple(committed), metrics

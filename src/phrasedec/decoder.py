"""The decoding engine: plain Jacobi iteration, token-wise speculative
verification, and phrase-level verification with adaptive neighborhoods.

One decode iteration costs exactly one target-model window evaluation (one
NFE).  In ``sjd_pv`` mode the scan first tries to commit a whole library
phrase whose tokens all fall inside their adaptive neighborhoods; on any
failure it falls back to the standard token-wise accept-resample test.

The hot loop works on dense ``(W, V)`` arrays and plain indices: one row
gather per window, one boolean neighborhood mask, accept tests on plain
floats and one vectorised inverse-CDF refill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LOG_FLOOR,
    PROB_SUM_TOL,
    DrafterZeroProb,
    TokenId,
    TokenSequence,
    log_ratio,
    sample,
)
from .models import MarkovModel, batched_conditionals
from .phrase_lib import Phrase, PhraseLibrary, match_prefix

MODES = ("jacobi", "sjd", "sjd_pv")


class DegenerateResidual(RuntimeError):
    """Rejection occurred although p == q exactly; signals an arithmetic fault."""


class NonTermination(RuntimeError):
    """Decode exceeded the iteration guard without committing enough tokens."""


class LibraryVocabMismatch(ValueError):
    """The phrase library's vocabulary is larger than the target model's."""


@dataclass(frozen=True)
class JacobiWindow:
    """Draft buffer: W candidate tokens plus the ``(W, V)`` drafter rows they
    were drawn from."""

    drafts: TokenSequence
    drafter_rows: np.ndarray
    window_start: int

    def __post_init__(self) -> None:
        if len(self.drafts) != len(self.drafter_rows):
            raise ValueError("drafts and drafter_rows must have equal length")
        if not (self.drafter_rows[np.arange(len(self.drafts)), self.drafts] > 0.0).all():
            raise ValueError("a draft token has zero drafter probability")

    def __len__(self) -> int:
        return len(self.drafts)


@dataclass(frozen=True)
class VerifyConfig:
    mode: str = "sjd"
    window_size: int = 16
    tau: float = 0.01
    max_phrase_len: int = 8
    greedy: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if self.max_phrase_len < 2:
            raise ValueError("max_phrase_len must be >= 2")


@dataclass
class DecodeMetrics:
    nfe: int = 0
    tokens_emitted: int = 0
    tokens_per_iteration: list[int] = field(default_factory=list)
    phrase_attempts: int = 0
    phrase_accepts: int = 0
    token_accepts: int = 0
    token_rejects: int = 0

    def merge(self, other: "DecodeMetrics") -> None:
        self.nfe += other.nfe
        self.tokens_emitted += other.tokens_emitted
        self.tokens_per_iteration.extend(other.tokens_per_iteration)
        self.phrase_attempts += other.phrase_attempts
        self.phrase_accepts += other.phrase_accepts
        self.token_accepts += other.token_accepts
        self.token_rejects += other.token_rejects

    @property
    def iterations(self) -> int:
        return len(self.tokens_per_iteration)


def build_neighborhood(p: np.ndarray, drafts: TokenSequence, tau: float) -> np.ndarray:
    """Neighborhood mask of a ``(W, V)`` window: entry (j, v) is set iff
    |p[j, v] - p[j, drafts[j]]| is strictly below tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    return np.abs(p - p[np.arange(len(p)), drafts, None]) < tau


def phrase_acceptance_score(verifier_rows, drafter_rows, phrase: Phrase) -> float:
    """Joint log acceptance score: sum of per-position log p/q over the phrase."""
    if not len(verifier_rows) == len(drafter_rows) == len(phrase):
        raise ValueError("row stacks and phrase must have equal length")
    score = 0.0
    for p, q, v in zip(verifier_rows, drafter_rows, phrase.tokens):
        score += log_ratio(float(p[v]), float(q[v]))
    return max(score, LOG_FLOOR)


def verify_phrase(score: float, rng: np.random.Generator) -> bool:
    """Stochastic joint test: accept iff exp(score) exceeds a uniform draw."""
    if score >= 0.0:
        return True
    return math.exp(max(score, LOG_FLOOR)) > rng.random()


def verify_token(
    p: np.ndarray, q: np.ndarray, drafted: TokenId, rng: np.random.Generator
) -> tuple[bool, TokenId]:
    """Accept-resample test on verifier row p and drafter row q: keep the
    draft with probability min(1, p/q), otherwise emit a token from the
    residual normalize(max(0, p - q))."""
    qd = float(q[drafted])
    if qd == 0.0:
        raise DrafterZeroProb(f"drafted token {drafted} has zero drafter probability")
    if rng.random() < float(p[drafted]) / qd:
        return True, drafted
    residual = np.maximum(p - q, 0.0)
    total = float(residual.sum())
    if total == 0.0:
        raise DegenerateResidual("rejection with p == q; arithmetic fault")
    if abs(total - 1.0) > PROB_SUM_TOL:
        residual = residual / total
    return False, int(sample(residual, rng))


def _find_phrase(
    lib: PhraseLibrary,
    drafts: TokenSequence,
    t: int,
    neighborhoods: np.ndarray,
    cfg: VerifyConfig,
) -> Phrase | None:
    remaining = len(drafts) - t
    for phrase in match_prefix(lib, drafts[t]):
        tokens = phrase.tokens
        n = len(tokens)
        if n > remaining or n > cfg.max_phrase_len:
            continue
        # tokens[0] is drafts[t], always inside its own neighborhood
        if all(neighborhoods[t + k, tokens[k]] for k in range(1, n)):
            return phrase
    return None


def _draw(rows: np.ndarray, greedy: bool, rng: np.random.Generator) -> np.ndarray:
    """One token per row: the argmax in greedy mode, else an inverse-CDF draw."""
    if greedy:
        return rows.argmax(axis=-1)
    return sample(rows, rng)


def verify_window(
    prefix: TokenSequence,
    window: JacobiWindow,
    target: MarkovModel,
    lib: PhraseLibrary | None,
    cfg: VerifyConfig,
    rng: np.random.Generator,
) -> tuple[TokenSequence, JacobiWindow, DecodeMetrics]:
    """Run one verification iteration over the window.

    Only the last ``target.order`` tokens of prefix are read.  Returns the
    committed tokens, the refilled next window, and a metrics delta with
    nfe = 1.  Token-wise scanning stops at the first rejection; a committed
    phrase jumps the scan forward by its length.
    """
    if cfg.mode == "sjd_pv" and lib is None:
        raise ValueError("sjd_pv mode requires a phrase library")
    drafts, drafter = window.drafts, window.drafter_rows
    W = len(drafts)
    verifier = batched_conditionals(target, prefix, drafts)
    metrics = DecodeMetrics(nfe=1)

    if cfg.mode == "sjd_pv":
        neighborhoods = build_neighborhood(verifier, drafts, cfg.tau)

    committed: list[TokenId] = []
    t = 0
    while t < W:
        if cfg.mode == "sjd_pv":
            phrase = _find_phrase(lib, drafts, t, neighborhoods, cfg)
            if phrase is not None:
                metrics.phrase_attempts += 1
                n = len(phrase)
                try:
                    score = phrase_acceptance_score(
                        verifier[t : t + n], drafter[t : t + n], phrase
                    )
                except DrafterZeroProb:
                    score = None  # non-verifiable: fall back to the token path
                if score is not None and verify_phrase(score, rng):
                    metrics.phrase_accepts += 1
                    committed.extend(phrase.tokens)
                    t += n
                    continue

        drafted = drafts[t]
        if cfg.mode == "jacobi" or cfg.greedy:
            # fixed-point rule: the draft survives iff it matches a fresh
            # draw (argmax in greedy mode) from the verifier conditional
            emitted = int(_draw(verifier[t], cfg.greedy, rng))
            accepted = emitted == drafted
        else:
            accepted, emitted = verify_token(verifier[t], drafter[t], drafted, rng)
        committed.append(emitted)
        t += 1
        if accepted:
            metrics.token_accepts += 1
        else:
            metrics.token_rejects += 1
            break

    # Jacobi refill: surviving slots are re-drafted from the verifier rows
    # just computed; appended slots reuse the last one
    rows = verifier[np.minimum(np.arange(t, t + W), W - 1)]
    next_window = JacobiWindow(
        tuple(_draw(rows, cfg.greedy, rng).tolist()),
        rows,
        window.window_start + len(committed),
    )
    metrics.tokens_emitted = len(committed)
    metrics.tokens_per_iteration.append(len(committed))
    return tuple(committed), next_window, metrics


def decode(
    target: MarkovModel,
    lib: PhraseLibrary | None,
    cfg: VerifyConfig,
    total_len: int,
    rng: np.random.Generator,
) -> tuple[TokenSequence, DecodeMetrics]:
    """Decode total_len tokens by repeated window verification.

    The first window is drafted from the target's begin-context conditional;
    the final window is truncated so exactly total_len tokens are returned.
    """
    if total_len < 1:
        raise ValueError("total_len must be >= 1")
    if lib is not None and lib.vocab_size > target.vocab_size:
        raise LibraryVocabMismatch(
            f"library vocabulary {lib.vocab_size} exceeds the model's {target.vocab_size}"
        )
    W = cfg.window_size
    begin_rows = target.rows[[target.context_code(())] * W]
    window = JacobiWindow(tuple(_draw(begin_rows, cfg.greedy, rng).tolist()), begin_rows, 0)

    committed: list[TokenId] = []
    metrics = DecodeMetrics()
    iterations = 0
    while len(committed) < total_len:
        iterations += 1
        if iterations > 10 * total_len:
            raise NonTermination(
                f"no convergence after {iterations - 1} iterations "
                f"({len(committed)}/{total_len} tokens committed)"
            )
        out, window, delta = verify_window(
            committed[-target.order :], window, target, lib, cfg, rng
        )
        committed.extend(out)
        metrics.merge(delta)

    # truncate the final window's overshoot, keeping the per-iteration
    # accounting consistent with the emitted length
    excess = len(committed) - total_len
    if excess:
        committed = committed[:total_len]
        metrics.tokens_emitted -= excess
        metrics.tokens_per_iteration[-1] -= excess
    return tuple(committed), metrics

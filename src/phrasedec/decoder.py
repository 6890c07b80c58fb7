"""The decoding engine: plain Jacobi iteration, token-wise speculative
verification, and phrase-level verification with adaptive neighborhoods.

One decode iteration costs exactly one target-model window evaluation (one
NFE).  In ``sjd_pv`` mode the scan first tries to commit a whole library
phrase whose tokens all fall inside their adaptive neighborhoods; on any
failure it falls back to the standard token-wise accept-resample test.

The hot loop works on dense ``(W, V)`` arrays and plain indices: one row
gather per window, a walk of the start token's phrase trie with one scalar
neighborhood test per node it reaches, accept tests on scalars read in place
and one inverse-CDF refill that gathers rows of the model's cumulative
table.  A window is its drafts and the context codes of the target rows they
were drawn from.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .core import (
    LOG_FLOOR,
    PROB_SUM_TOL,
    DrafterZeroProb,
    TokenId,
    TokenSequence,
    draw,
    log_ratio,
    sample,
)
from .models import MarkovModel, batched_conditionals, window_codes
from .phrase_lib import DEFAULT_MAX_PHRASE_LEN, Phrase, PhraseLibrary

MODES = ("jacobi", "sjd", "sjd_pv")


class DegenerateResidual(RuntimeError):
    """Rejection occurred although p == q exactly; signals an arithmetic fault."""


class NonTermination(RuntimeError):
    """Decode exceeded the iteration guard without committing enough tokens."""


class LibraryVocabMismatch(ValueError):
    """The phrase library's vocabulary is larger than the target model's."""


class JacobiWindow(NamedTuple):
    """Draft buffer: W candidate tokens, and for each the context code of
    the target row it was drawn from (its drafter row)."""

    drafts: TokenSequence
    codes: list[int]


@dataclass(frozen=True)
class VerifyConfig:
    mode: str = "sjd"
    window_size: int = 16
    tau: float = 0.01
    max_phrase_len: int = DEFAULT_MAX_PHRASE_LEN
    greedy: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown decode mode {self.mode!r}: must be one of {MODES}")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if self.max_phrase_len < 2:
            raise ValueError("max_phrase_len must be >= 2")


@dataclass
class DecodeMetrics:
    # the int counters, in the order reports print them, then the list
    nfe: int = 0
    tokens_emitted: int = 0
    token_accepts: int = 0
    token_rejects: int = 0
    phrase_attempts: int = 0
    phrase_accepts: int = 0
    tokens_per_iteration: list[int] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """The int counters by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[:-1]}

    def merge(self, other: "DecodeMetrics") -> None:
        # adds the counters and extends tokens_per_iteration in place
        for f in fields(self):
            setattr(self, f.name, operator.iadd(getattr(self, f.name), getattr(other, f.name)))

    @property
    def iterations(self) -> int:
        return len(self.tokens_per_iteration)


def in_neighborhood(
    p: np.ndarray, j: int, v: TokenId, drafted: TokenId, tau: float
) -> bool:
    """Whether token v lies in the neighborhood of slot j's drafted token
    under the ``(W, V)`` verifier window p: |p[j, v] - p[j, drafted]|
    strictly below tau."""
    return abs(p.item(j, v) - p.item(j, drafted)) < tau


def phrase_acceptance_score(
    verifier: np.ndarray, t: int, rows: np.ndarray, drafter: list[int], phrase: Phrase
) -> float:
    """Joint log acceptance score of the phrase placed at slot t: the sum over
    its tokens v_k of log p/q, with p = verifier[t + k, v_k] from the
    ``(W, V)`` verifier window and q = rows[drafter[t + k], v_k] from the
    model row of slot t + k's drafter code.  Reads scalars in place."""
    score = 0.0
    for j, v in enumerate(phrase.tokens, t):
        score += log_ratio(verifier.item(j, v), rows.item(drafter[j], v))
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
    return False, sample(residual, rng)


def _draft(
    target: MarkovModel, codes: list[int], greedy: bool, rng: np.random.Generator
) -> JacobiWindow:
    """A window drafted from the target rows of the given context codes:
    each row's argmax in greedy mode, else one inverse-CDF draw over the
    gathered ``cdf`` rows."""
    if greedy:
        drafts = tuple([target.argmax[c] for c in codes])
    else:
        drafts = tuple(draw(target.cdf.take(codes, axis=0), rng).tolist())
    return JacobiWindow(drafts, codes)


def _find_phrase(
    lib: PhraseLibrary,
    drafts: TokenSequence,
    t: int,
    verifier: np.ndarray,
    cfg: VerifyConfig,
) -> Phrase | None:
    """The first phrase, in trial order, that starts at slot t, fits the
    window and has every token inside its slot's neighborhood.

    A walk of drafts[t]'s trie: each node reached costs one neighborhood
    test, a failed test prunes every phrase below the node, and a subtree
    whose best rank cannot beat the phrase found so far is skipped.
    """
    root = lib.trie.get(drafts[t])
    if root is None:
        return None
    limit = min(len(drafts) - t, cfg.max_phrase_len)
    tau = cfg.tau
    # the root is drafts[t], always inside its own neighborhood
    found, found_rank = root.phrase, root.rank
    # sibling groups still to walk, each with its tokens' offset from t
    stack = [(1, root.children)]
    while stack:
        k, siblings = stack.pop()
        if k >= limit:
            continue
        j, drafted = t + k, drafts[t + k]
        i = 0
        for token, best, rank, phrase, children in siblings:
            i += 1
            if best >= found_rank:
                break  # siblings come in ascending best rank
            if in_neighborhood(verifier, j, token, drafted, tau):
                if rank < found_rank:
                    found, found_rank = phrase, rank
                if children:
                    # depth first: this node's subtree before its later siblings
                    stack.append((k, siblings[i:]))
                    stack.append((k + 1, children))
                    break
    return found


def verify_window(
    prefix: TokenSequence,
    window: JacobiWindow,
    target: MarkovModel,
    lib: PhraseLibrary | None,
    cfg: VerifyConfig,
    rng: np.random.Generator,
    metrics: DecodeMetrics,
) -> tuple[TokenSequence, JacobiWindow]:
    """Run one verification iteration over the window.

    Only the last ``target.order`` tokens of prefix are read.  Returns the
    committed tokens and the refilled next window, and counts the iteration
    (one NFE) into metrics.  Token-wise scanning stops at the first
    rejection; a committed phrase jumps the scan forward by its length.
    Raises ValueError if a draft has zero probability under its drafter row.
    sjd_pv mode needs lib; ``decode`` checks that once per decode.
    """
    drafts, drafter = window.drafts, window.codes
    rows = target.rows
    # one Python float per slot: far fewer NumPy calls than a fancy index
    if min(map(rows.item, drafter, drafts)) <= 0.0:
        raise ValueError("a draft token has zero drafter probability")
    W = len(drafts)
    codes = window_codes(target, prefix, drafts)
    verifier = batched_conditionals(target, codes)
    phrases = cfg.mode == "sjd_pv"
    greedy = cfg.greedy
    fresh_draw = cfg.mode == "jacobi"

    committed: list[TokenId] = []
    attempts = accepts = token_accepts = token_rejects = 0
    t = 0
    while t < W:
        if phrases:
            phrase = _find_phrase(lib, drafts, t, verifier, cfg)
            if phrase is not None:
                attempts += 1
                n = len(phrase)
                try:
                    score = phrase_acceptance_score(verifier, t, rows, drafter, phrase)
                except DrafterZeroProb:
                    score = None  # non-verifiable: fall back to the token path
                if score is not None and verify_phrase(score, rng):
                    accepts += 1
                    committed.extend(phrase.tokens)
                    t += n
                    continue

        drafted = drafts[t]
        # fixed-point rule (jacobi, and any greedy mode): the draft survives
        # iff it matches a fresh draw (argmax in greedy mode) from the
        # verifier conditional
        if greedy:
            emitted = target.argmax[codes[t]]
            accepted = emitted == drafted
        elif fresh_draw:
            emitted = draw(target.cdf[codes[t]], rng)
            accepted = emitted == drafted
        else:
            accepted, emitted = verify_token(verifier[t], rows[drafter[t]], drafted, rng)
        committed.append(emitted)
        t += 1
        if not accepted:
            token_rejects = 1
            break
        token_accepts += 1

    n = len(committed)
    metrics.nfe += 1
    metrics.tokens_emitted += n
    metrics.tokens_per_iteration.append(n)
    metrics.phrase_attempts += attempts
    metrics.phrase_accepts += accepts
    metrics.token_accepts += token_accepts
    metrics.token_rejects += token_rejects
    # Jacobi refill: surviving slots are re-drafted from the verifier rows
    # just computed; appended slots reuse the last one
    return tuple(committed), _draft(target, codes[t:] + codes[-1:] * t, greedy, rng)


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
    Raises ValueError, before any draft, for sjd_pv mode without a library
    and LibraryVocabMismatch for a library wider than the model.
    """
    if total_len < 1:
        raise ValueError("total_len must be >= 1")
    if cfg.mode == "sjd_pv" and lib is None:
        raise ValueError("sjd_pv mode requires a phrase library")
    if lib is not None and lib.vocab_size > target.vocab_size:
        raise LibraryVocabMismatch(
            f"library vocabulary {lib.vocab_size} exceeds the model's {target.vocab_size}"
        )
    window = _draft(target, [target.context_code(())] * cfg.window_size, cfg.greedy, rng)

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
        out, window = verify_window(
            committed[-target.order :], window, target, lib, cfg, rng, metrics
        )
        committed.extend(out)

    # truncate the final window's overshoot, keeping the per-iteration
    # accounting consistent with the emitted length
    excess = len(committed) - total_len
    if excess:
        committed = committed[:total_len]
        metrics.tokens_emitted -= excess
        metrics.tokens_per_iteration[-1] -= excess
    return tuple(committed), metrics

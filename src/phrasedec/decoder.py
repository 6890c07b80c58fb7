"""The decoding engine: plain Jacobi iteration, token-wise speculative
verification, and phrase-level verification with adaptive neighborhoods.

One decode iteration is one ``MarkovModel.evaluate`` call (one NFE), and it
reads the model only through the ``Rows`` that call returns: p at the row
``idx[t]`` of slot t, and q at the window's code for slot t, a row of the
call that drafted the window.  Every read is in place, at plain indices;
nothing copies the window.  In ``sjd_pv`` mode the scan first tries to
commit a whole library phrase whose tokens all fall inside their adaptive
neighborhoods; on any failure it falls back to the token-wise
accept-resample test.

``verify_window`` verifies only the windows ``_draft`` drew from the table
its ``evaluate`` call reads, and refuses any other before any draw; both of
``_draft``'s rules pick a token of positive probability under its row.

Each rule of an iteration has one home, which ``theory.decoder_law`` reads
too: ``window_codes`` gives the drafter rows of every window drafted, the
first and each refill, and ``residual_row`` the row a rejected token test
draws from.

``decode`` serves every uniform of a decode from blocks of one generator
call each (``_Uniforms``), handing out, and leaving the generator as, one
call per uniform would.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    LOG_FLOOR,
    PROB_SUM_TOL,
    DrafterZeroProb,
    TokenId,
    TokenSequence,
    check_kinds,
    count_at_least,
    draw,
    locate,
    plain,
)
from .models import MarkovModel, Rows
from .phrase_lib import DEFAULT_MAX_PHRASE_LEN, Phrase, PhraseLibrary

MODES = ("jacobi", "sjd", "sjd_pv")


class DegenerateResidual(RuntimeError):
    """Rejection occurred although p == q exactly; signals an arithmetic fault."""


class NonTermination(RuntimeError):
    """Decode exceeded the iteration guard without committing enough tokens."""


class LibraryVocabMismatch(ValueError):
    """The phrase library's vocabulary is larger than the target model's."""


class JacobiWindow(NamedTuple):
    """Draft buffer: W candidate tokens, and for each the index of the
    target row it was drawn from (its drafter row) in the tables of the
    ``evaluate`` call that drafted it.  ``verify_window`` refuses one the
    decoder did not draft from the target's table, before any draw."""

    drafts: TokenSequence
    codes: Sequence[int]


class _DrawnWindow(JacobiWindow):
    """A window ``_draft`` drew from ``table``: each draft has positive
    probability under its drafter row there, and its fields are tuples.
    Only ``_draft`` sets ``table``; a window rebuilt from this one
    (``_replace``, ``_make``) has none, so ``verify_window`` refuses it."""

    table: np.ndarray


@dataclass(frozen=True)
class VerifyConfig:
    mode: str = "sjd"
    window_size: int = 16
    tau: float = 0.01
    max_phrase_len: int = DEFAULT_MAX_PHRASE_LEN
    greedy: bool = False

    def __post_init__(self) -> None:
        # settled first, so the hot loop computes with the values checked (a
        # float32 tau would run the float64 neighborhood test in float32)
        for f in fields(self):
            object.__setattr__(self, f.name, plain(getattr(self, f.name), type(f.default)))
        if self.mode not in MODES:
            raise ValueError(f"unknown decode mode {self.mode!r}: must be one of {MODES}")
        count_at_least(self.window_size, 1, "window_size")
        if not (isinstance(self.tau, float) and 0.0 < self.tau < 1.0):
            raise ValueError("tau must be in (0, 1)")
        count_at_least(self.max_phrase_len, 2, "max_phrase_len")
        check_kinds(self)


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


def phrase_acceptance_score(
    probs: np.ndarray, t: int, codes: Sequence[int], drafter: Sequence[int], phrase: Phrase
) -> float:
    """Joint log acceptance score of the phrase placed at slot t: the sum over
    its tokens v_k of log p/q, with p = probs[codes[t + k], v_k] and
    q = probs[drafter[t + k], v_k], read in place, floored at LOG_FLOOR.  A
    token with p = 0 floors the whole phrase, whatever the other ratios; a
    token with q = 0 raises DrafterZeroProb first, wherever it stands.
    Raises ValueError for a phrase that does not fit the window at slot t.

    One pass over the phrase, each term ``core.log_ratio``'s checks and
    arithmetic inline, with no Python-level call but the table reads and
    logs: the bounds check reads the tokens' length once, and each floor is
    a comparison."""
    tokens = phrase.tokens
    end = t + len(tokens)
    if t < 0 or end > len(codes) or end > len(drafter):
        raise ValueError(f"a phrase of {len(tokens)} tokens at slot {t} runs past the window")
    item, log, floor = probs.item, math.log, LOG_FLOOR
    score = 0.0
    impossible = False
    for j, v in enumerate(tokens, t):
        qv = item(drafter[j], v)
        if qv == 0.0:
            raise DrafterZeroProb("drafted token has zero drafter probability")
        pv = item(codes[j], v)
        if pv == 0.0:
            impossible = True
        else:
            # max(term, floor), which returns term unless floor is larger
            term = log(pv) - log(qv)
            score += floor if floor > term else term
    return floor if impossible or floor > score else score


def verify_phrase(score: float, rng: np.random.Generator) -> bool:
    """Stochastic joint test: accept iff exp(score) exceeds a uniform draw.
    A score at ``phrase_acceptance_score``'s floor has exp 0.0: never accepted."""
    if score >= 0.0:
        return True
    return math.exp(score) > rng.random()


def residual_row(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The accept-resample residual max(0, p - q) of verifier row p and
    drafter row q, in one new buffer, so p and q may be rows of the model
    table; divided by its total unless that is within PROB_SUM_TOL of 1.
    ``verify_token`` draws a rejection's token from it with ``core.draw``,
    whose law is the row divided by its cumulative total.  A row of total 0
    (p <= q everywhere, so no rejection was possible) raises
    DegenerateResidual."""
    residual = np.subtract(p, q)
    np.maximum(residual, 0.0, out=residual)
    total = float(np.add.reduce(residual))
    if total == 0.0:
        raise DegenerateResidual("rejection with p == q; arithmetic fault")
    if abs(total - 1.0) > PROB_SUM_TOL:
        residual /= total
    return residual


def verify_token(
    p: np.ndarray, q: np.ndarray, drafted: TokenId, rng: np.random.Generator
) -> tuple[bool, TokenId]:
    """Accept-resample test on verifier row p and drafter row q: keep the
    draft with probability min(1, p/q), otherwise emit a token from
    ``residual_row(p, q)``.

    The accept test reads two scalars; only a rejection builds a row.  The
    residual is drawn by ``core.draw`` on its cumulative sum, whose total
    ``draw`` reads as a Python float."""
    qd = q.item(drafted)
    if qd == 0.0:
        raise DrafterZeroProb(f"drafted token {drafted} has zero drafter probability")
    if rng.random() < p.item(drafted) / qd:
        return True, drafted
    return False, draw(np.add.accumulate(residual_row(p, q)), rng)


def window_codes(idx: Sequence[int], t: int, width: int) -> tuple[int, ...]:
    """The drafter rows of the next window, the one rule for every window
    the decoder drafts: after slots [0, t) of a window at rows idx commit,
    its surviving slots are re-drafted from their rows ``idx[t:]``, and the
    slots appended to fill ``width`` reuse the last row computed,
    ``idx[-1]``.  The first window is the begin row's, ``width`` times:
    ``window_codes(begin.idx, 0, W)``."""
    return tuple(idx[t:]) + (idx[-1],) * (width - len(idx) + t)


def _draft(rows: Rows, codes: Sequence[int], greedy: bool, rng: np.random.Generator) -> JacobiWindow:
    """A window drafted from the given rows of an ``evaluate`` call's
    tables: each row's argmax in greedy mode, read in one C-level gather,
    else one draw per row, one uniform per slot in slot order, located in
    the gathered ``breaks`` rows.  Either rule picks a token of positive
    probability under its row (a draw lands where the row's cumulative sum
    rises), so the window is a ``_DrawnWindow`` of the table ``rows.probs``,
    built, as ``evaluate`` builds ``Rows``, without the named tuple's
    Python-level ``__new__``.  ``table`` is the window's provenance:
    ``verify_window`` verifies no window without it."""
    if not greedy:
        drafts = tuple(locate(rows.breaks.take(codes, axis=0), rng.random(len(codes))).tolist())
    elif len(codes) > 1:
        drafts = operator.itemgetter(*codes)(rows.argmax)
    else:
        drafts = (rows.argmax[codes[0]],)  # itemgetter of one key returns the item
    window = tuple.__new__(_DrawnWindow, (drafts, tuple(codes)))
    window.table = rows.probs
    return window


def _find_phrase(
    lib: PhraseLibrary,
    drafts: TokenSequence,
    t: int,
    probs: np.ndarray,
    codes: Sequence[int],
    cfg: VerifyConfig,
) -> Phrase | None:
    """The first phrase, in trial order, that starts at slot t, fits the
    window and has every token inside its slot's neighborhood: token v at
    slot j is inside iff |p[v] - p[drafts[j]]| < tau, strictly, on the row
    p = ``probs[codes[j]]``.

    A walk of drafts[t]'s trie: each node reached costs one neighborhood
    test, with the drafted token's probability read once per sibling
    group; a failed test prunes every phrase below the node, and a subtree
    whose best rank cannot beat the phrase found so far is skipped.  The
    walk holds the group it is in and keeps a stack of later siblings only
    once a node with children has any: most walks never make one.
    """
    root = lib.trie.get(drafts[t])
    if root is None:
        return None
    limit = len(drafts) - t
    if limit > cfg.max_phrase_len:
        limit = cfg.max_phrase_len
    tau = cfg.tau
    item = probs.item
    # the root is drafts[t], always inside its own neighborhood; its fields
    # in one unpacking, not three named reads
    _, _, found_rank, found, siblings = root
    # the sibling group being walked is at offset k from t; later holds the
    # later siblings of the nodes above it, each group with its offset
    k, later = 1, None
    while True:
        if k < limit:
            j = codes[t + k]
            p_drafted = item(j, drafts[t + k])
            deeper = None
            i = 0
            for token, best, rank, phrase, children in siblings:
                i += 1
                if best >= found_rank:
                    break  # siblings come in ascending best rank
                if abs(item(j, token) - p_drafted) < tau:
                    if rank < found_rank:
                        found, found_rank = phrase, rank
                    if children:
                        deeper = children
                        break
            if deeper is not None:
                # depth first: this node's subtree before its later siblings
                if i < len(siblings):
                    if later is None:
                        later = []
                    later.append((k, siblings[i:]))
                k, siblings = k + 1, deeper
                continue
        if not later:
            return found
        k, siblings = later.pop()


def _check_library(cfg: VerifyConfig, lib: PhraseLibrary | None, vocab_size: int) -> None:
    """Raise ValueError for sjd_pv mode without a library and
    LibraryVocabMismatch for a library wider than the model."""
    if cfg.mode == "sjd_pv" and lib is None:
        raise ValueError("sjd_pv mode requires a phrase library")
    if lib is not None and lib.vocab_size > vocab_size:
        msg = f"library vocabulary {lib.vocab_size} exceeds the model's {vocab_size}"
        raise LibraryVocabMismatch(msg)


_NOT_DRAFTED = "the window was not drafted by the decoder from this model"


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

    Returns the committed tokens and the refilled next window, and counts
    the iteration (one NFE) and each test's outcome into metrics as it
    happens.  Token-wise scanning stops at the first rejection; a committed
    phrase jumps the scan forward by its length.
    It calls ``target.evaluate`` once, on the whole prefix, reads p only at
    the rows that call returns and q only at the window's codes, and copies
    no row.
    Raises ValueError, before any draw and in every mode, for an empty
    window or a prefix token outside ``[0, V)`` (``evaluate``'s checks), for
    sjd_pv mode without lib (LibraryVocabMismatch for a library wider than
    target), and for any window the decoder did not draft from target's
    table: built by hand, rebuilt from a drafted one, or drafted from
    another model, even an equal one, whose drafts may lie past target's
    tables.  So the window ``decode`` drafts first and each one
    ``verify_window`` returns are the only windows it verifies.
    """
    mode = cfg.mode
    phrases = mode == "sjd_pv"
    if phrases:
        _check_library(cfg, lib, target.vocab_size)
    try:
        rows = target.evaluate(prefix, window.drafts)
    except IndexError:
        # a draft past the target's tables, which no window drafted from them holds
        raise ValueError(_NOT_DRAFTED) from None
    probs, breaks, argmax, idx = rows
    if getattr(window, "table", None) is not probs:
        raise ValueError(_NOT_DRAFTED)
    drafts, drafter = window
    W = len(drafts)
    greedy = cfg.greedy
    fresh_draw = mode == "jacobi"

    committed: list[TokenId] = []
    t = 0
    while t < W:
        if phrases:
            phrase = _find_phrase(lib, drafts, t, probs, idx, cfg)
            if phrase is not None:
                metrics.phrase_attempts += 1
                try:
                    accepted = verify_phrase(
                        phrase_acceptance_score(probs, t, idx, drafter, phrase), rng
                    )
                except DrafterZeroProb:
                    accepted = False  # non-verifiable: fall back to the token path
                if accepted:
                    metrics.phrase_accepts += 1
                    tokens = phrase.tokens
                    committed.extend(tokens)
                    t += len(tokens)
                    continue

        drafted = drafts[t]
        # fixed-point rule (jacobi, and any greedy mode): the draft survives
        # iff it matches a fresh draw (argmax in greedy mode) from the
        # verifier conditional
        if greedy:
            emitted = argmax[idx[t]]
            accepted = emitted == drafted
        elif fresh_draw:
            emitted = int(breaks[idx[t]].searchsorted(rng.random(), "right"))
            accepted = emitted == drafted
        else:
            accepted, emitted = verify_token(probs[idx[t]], probs[drafter[t]], drafted, rng)
        committed.append(emitted)
        t += 1
        if not accepted:
            metrics.token_rejects += 1
            break
        metrics.token_accepts += 1

    n = len(committed)
    metrics.nfe += 1
    metrics.tokens_emitted += n
    metrics.tokens_per_iteration.append(n)
    return tuple(committed), _draft(rows, window_codes(idx, t, W), greedy, rng)


# uniforms a decode draws from its generator per call; see _Uniforms
BLOCK = 1024


class _Uniforms:
    """One decode's uniform stream: ``random()`` and ``random(n)`` as the
    generator's, served from blocks drawn by one ``rng.random(BLOCK)`` call
    each, or ``rng.random(n)`` for a request wider than BLOCK.  The first
    block is drawn at the first request, so a decode that draws nothing, as
    greedy jacobi and sjd do, draws none.
    ``Generator.random(n)`` yields the same doubles as n scalar calls, so
    the stream hands out exactly the uniforms one-by-one draws would:
    scalars as Python floats, vectors as read-only views of the block.

    Only the generator runs ahead, by the block's unused tail.  ``sync``
    puts it back where one-by-one draws would leave it: if part of the
    block is unused, it restores the state saved before the block and
    redraws the ``pos`` uniforms handed out; a block handed out whole has
    left the generator there already.  ``decode`` syncs when it returns or
    raises, and ``random`` before a request that outruns the block."""

    __slots__ = ("rng", "saved", "block", "floats", "pos")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.saved, self.pos = rng, None, 0
        self._take(np.zeros(0))

    def _take(self, block: np.ndarray) -> None:
        block.setflags(write=False)
        # a memoryview of float64 items reads each as a Python float
        self.block, self.floats = block, memoryview(block)

    def random(self, n: int | None = None):
        pos = self.pos
        if n is None:
            if pos < len(self.floats):
                self.pos = pos + 1
                return self.floats[pos]
        elif pos + n <= len(self.floats):
            self.pos = pos + n
            return self.block[pos : pos + n]
        self.sync()
        self.saved = self.rng.bit_generator.state
        self._take(self.rng.random(max(BLOCK, n or 0)))
        return self.random(n)

    def sync(self) -> None:
        if self.pos < len(self.floats):
            self.rng.bit_generator.state = self.saved
            self.rng.random(self.pos)
        self.floats, self.pos = self.floats[:0], 0


def decode(
    target: MarkovModel,
    lib: PhraseLibrary | None,
    cfg: VerifyConfig,
    total_len: int,
    rng: np.random.Generator,
) -> tuple[TokenSequence, DecodeMetrics]:
    """Decode total_len tokens by repeated window verification.

    The first window is drafted from the target's begin-context row, read
    from a one-slot ``evaluate`` before the first counted iteration: the one
    row a decode reads outside its NFE count, at most 1/total_len NFE per
    token.  Each iteration passes ``verify_window`` the whole committed prefix.
    The final window is truncated so exactly total_len tokens are returned.
    Raises ValueError, before any draft, for a bad total_len or sjd_pv without
    a library, and LibraryVocabMismatch for a library wider than the model.

    The decode reads rng only through ``random()`` and ``random(n)``, served
    from blocks of one call each (``_Uniforms``), and rng ends as if each
    uniform had been drawn on its own, also on an exception; a greedy
    decode draws only for sjd_pv's phrase tests, so greedy jacobi and sjd
    leave it untouched.
    """
    total_len = count_at_least(total_len, 1, "total_len")
    _check_library(cfg, lib, target.vocab_size)
    # the begin row is row 0 of a one-slot window, whose draft is never read
    begin = target.evaluate((), (0,))
    uniforms = _Uniforms(rng)
    committed: list[TokenId] = []
    metrics = DecodeMetrics()
    guard = 10 * total_len
    try:
        window = _draft(begin, window_codes(begin.idx, 0, cfg.window_size), cfg.greedy, uniforms)
        while len(committed) < total_len:
            if metrics.nfe >= guard:
                raise NonTermination(
                    f"no convergence after {metrics.nfe} iterations "
                    f"({len(committed)}/{total_len} tokens committed)"
                )
            out, window = verify_window(committed, window, target, lib, cfg, uniforms, metrics)
            committed.extend(out)
    finally:
        uniforms.sync()

    # truncate the final window's overshoot, keeping the per-iteration
    # accounting consistent with the emitted length
    excess = len(committed) - total_len
    if excess:
        committed = committed[:total_len]
        metrics.tokens_emitted -= excess
        metrics.tokens_per_iteration[-1] -= excess
    return tuple(committed), metrics

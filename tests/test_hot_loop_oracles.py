"""The decoder's per-iteration code against the versions it replaced.

``phrase_acceptance_score``, ``_draft`` and ``draw`` below are the previous
versions of ``decoder.phrase_acceptance_score``, ``decoder._draft`` and
``core.draw``, copied verbatim as oracles, as ``test_decoder._find_phrase``
keeps the linear phrase scan.  The rewrites must score the same phrases,
draft the same windows and draw the same tokens, bit for bit, consuming the
same uniforms, so that they leave a generator in the same state.
"""

import struct
from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_core import BELOW_ONE, FixedRng
from phrasedec import core, decoder
from phrasedec.core import LOG_FLOOR, DrafterZeroProb, locate, log_ratio, normalize
from phrasedec.decoder import JacobiWindow, _DrawnWindow
from phrasedec.models import MarkovModel, Rows, context_codes, markov_contexts
from phrasedec.phrase_lib import Phrase


def phrase_acceptance_score(
    probs: np.ndarray, t: int, codes: Sequence[int], drafter: Sequence[int], phrase: Phrase
) -> float:
    """Joint log acceptance score of the phrase placed at slot t: the sum over
    its tokens v_k of log p/q, with p = probs[codes[t + k], v_k] and
    q = probs[drafter[t + k], v_k], read in place, floored at LOG_FLOOR.  A
    token with p = 0 floors the whole phrase, whatever the other ratios; a
    token with q = 0 raises DrafterZeroProb first.  Raises ValueError for a
    phrase that does not fit the window at slot t."""
    if not 0 <= t <= min(len(codes), len(drafter)) - len(phrase):
        raise ValueError(f"a phrase of {len(phrase)} tokens at slot {t} runs past the window")
    score = 0.0
    impossible = False
    for j, v in enumerate(phrase.tokens, t):
        pv = probs.item(codes[j], v)
        impossible |= pv == 0.0
        score += log_ratio(pv, probs.item(drafter[j], v))
    return LOG_FLOOR if impossible else max(score, LOG_FLOOR)


def _draft(rows: Rows, codes: list[int], greedy: bool, rng: np.random.Generator) -> JacobiWindow:
    """A window drafted from the given rows of an ``evaluate`` call's
    tables: each row's argmax in greedy mode, else one draw per row, one
    uniform per slot in slot order, located in the gathered ``breaks`` rows.
    Either rule picks a token of positive probability under its row (a draw
    lands where the row's cumulative sum rises), so the window is a
    ``_DrawnWindow`` of the table ``rows.probs``."""
    if greedy:
        argmax = rows.argmax  # one field read, not one per slot
        drafts = tuple([argmax[c] for c in codes])
    else:
        drafts = tuple(locate(rows.breaks.take(codes, axis=0), rng.random(len(codes))).tolist())
    window = _DrawnWindow(drafts, tuple(codes))
    window.table = rows.probs
    return window


def draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one token, a Python int, from a non-decreasing
    cumulative row ``cdf`` of shape ``(V,)``, consuming one uniform u: the
    token is ``min(#{v : cdf[v] <= u * cdf[-1]}, V - 1)``.

    The model's tables apply this rule in uniform space instead: a row of
    ``breakpoints`` holds the least u that counts each token, so the count
    of its entries <= u is the same token, with no multiply, because
    fl(u * T) is monotone in u; its +inf last column is the clamp.
    """
    # a binary search of the sorted cdf counts the entries <= u * total
    return min(int(cdf.searchsorted(rng.random() * cdf[-1], "right")), len(cdf) - 1)


# exact zeros, the smallest subnormal, tiny and ordinary values
LEVELS = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.25, 0.5, 1.0, 3.0])
# a fixed uniform at either end of [0, 1), or a seeded generator
UNIFORMS = st.one_of(st.sampled_from([0.0, BELOW_ONE]), st.integers(0, 2**32 - 1))


def twin_rngs(u):
    """Two generators that return the same uniforms."""
    if isinstance(u, float):
        return FixedRng(u), FixedRng(u)
    return np.random.default_rng(u), np.random.default_rng(u)


def state(rng):
    return rng.u if isinstance(rng, FixedRng) else rng.bit_generator.state


def outcome(fn, *args):
    """A score's bits, or the type and message of what it raised."""
    try:
        return "score", struct.pack("<d", fn(*args))
    except (ValueError, DrafterZeroProb) as error:
        return type(error), str(error)


def levels_model(order, vocab, data):
    """An order-k model whose rows are drawn from LEVELS and normalized."""
    rows = []
    for _ in markov_contexts(order, vocab):
        weights = data.draw(st.lists(LEVELS, min_size=vocab, max_size=vocab))
        if sum(weights) == 0.0:
            weights[data.draw(st.integers(0, vocab - 1))] = 1.0
        rows.append(normalize(weights).probs)
    return MarkovModel(order, vocab, rows)


class TestDraftMatchesParent:
    @given(order=st.integers(1, 2), vocab=st.integers(2, 5), greedy=st.booleans(),
           u=UNIFORMS, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_window_and_generator_state(self, order, vocab, greedy, u, data):
        model = levels_model(order, vocab, data)
        rows = model.evaluate((), (0,))
        reachable = context_codes(order, vocab).tolist()
        codes = data.draw(st.lists(st.sampled_from(reachable), min_size=1, max_size=16))
        sequence = data.draw(st.sampled_from([list, tuple]))
        # every example also drafts a 1-slot window, where a gather of one
        # key returns the item rather than a tuple
        for slots in (codes, codes[:1]):
            old_rng, new_rng = twin_rngs(u)
            want = _draft(rows, list(slots), greedy, old_rng)
            got = decoder._draft(rows, sequence(slots), greedy, new_rng)
            assert type(got) is _DrawnWindow
            assert type(got.drafts) is tuple and type(got.codes) is tuple
            assert [type(v) for v in got.drafts] == [int] * len(slots)
            assert got == want
            assert got.table is want.table is rows.probs
            assert state(new_rng) == state(old_rng)


class TestPhraseScoreMatchesParent:
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_same_score_or_error(self, data):
        V = data.draw(st.integers(1, 4))
        R = data.draw(st.integers(1, 6))
        probs = np.array(data.draw(st.lists(st.lists(LEVELS, min_size=V, max_size=V),
                                            min_size=R, max_size=R)))
        W = data.draw(st.integers(1, 16))
        codes = data.draw(st.lists(st.integers(0, R - 1), min_size=W, max_size=W))
        drafter = data.draw(st.lists(st.integers(0, R - 1), min_size=W, max_size=W))
        tokens = data.draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=6))
        # slots -1 and past W - len(tokens) do not fit the window
        t = data.draw(st.integers(-1, W))
        args = (probs, t, codes, drafter, Phrase(tuple(tokens), 1, 1))
        assert outcome(decoder.phrase_acceptance_score, *args) == outcome(
            phrase_acceptance_score, *args
        )

    def test_zero_drafter_probability_after_an_impossible_token(self):
        # p = 0 at slot 0, q = 0 at slot 2: both versions raise, not floor
        probs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        args = (probs, 0, [0, 1, 1], [1, 1, 2], Phrase((0, 0, 1), 1, 1))
        expected = outcome(phrase_acceptance_score, *args)
        assert expected[0] is DrafterZeroProb
        assert outcome(decoder.phrase_acceptance_score, *args) == expected


class TestDrawMatchesParent:
    @given(row=st.lists(LEVELS, min_size=1, max_size=12), u=UNIFORMS,
           residual=st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_same_token_and_generator_state(self, row, u, residual):
        row = np.array(row)
        if residual:
            # verify_token's path: the cumulative sum taken in place
            cdf = np.add.accumulate(row, out=row)
        else:
            cdf = row.cumsum()
        old_rng, new_rng = twin_rngs(u)
        want = draw(cdf, old_rng)
        got = core.draw(cdf, new_rng)
        assert type(got) is int
        assert got == want
        assert state(new_rng) == state(old_rng)

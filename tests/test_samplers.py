"""Differential tests: the table-driven samplers against the frozen per-row
and per-token ones.

``random_markov`` and ``planted_phrase_corpus`` draw every transition row
with one ``dirichlet`` call and normalise them in one pass; ``ancestral_sample``
draws every uniform with one call and binary-searches the model's ``breaks``.
Each must build the same rows and sequences as ``reference_models.py`` and
``reference_decoder.py`` and leave its generator in the same state.  Every
table draw must be exactly ``core.draw`` on the row's cumulative sum.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decoder
import reference_models as ref
from test_core import BELOW_ONE, FixedRng
from phrasedec.core import (
    PROB_SUM_TOL,
    AllZeroWeights,
    breakpoints,
    draw,
    locate,
    normalize,
    normalize_rows,
)
from phrasedec.harness import planted_phrase_corpus
from phrasedec.models import (
    PAD,
    MarkovModel,
    ancestral_sample,
    context_codes,
    load_markov,
    markov_contexts,
    random_markov,
    save_markov,
)

SEEDS = (0, 1, 7, 601)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order, vocab", [(1, 9), (2, 6), (2, 32), (3, 4)])
@pytest.mark.parametrize("concentration", [0.05, 0.3, 2.0])
def test_random_markov_matches_reference(seed, order, vocab, concentration):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    model = random_markov(order, vocab, concentration, new)
    expected = ref.random_markov(order, vocab, concentration, old)
    assert model.rows.tobytes() == expected.rows.tobytes()
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "vocab, phrases, phrase_len, rate, concentration",
    [(32, 6, 5, 0.95, 0.3), (16, 3, 4, 1.0, 0.3), (12, 2, 3, 0.5, 0.05), (8, 1, 8, 0.9, 2.0)],
)
def test_planted_phrase_corpus_matches_reference(
    seed, vocab, phrases, phrase_len, rate, concentration
):
    args = (vocab, phrases, phrase_len, 12, 80, rate)
    new, old = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0])
    corpus, model = planted_phrase_corpus(*args, new, concentration=concentration)
    ref_corpus, ref_model = ref.planted_phrase_corpus(*args, old, concentration=concentration)
    assert model.rows.tobytes() == ref_model.rows.tobytes()
    assert corpus == ref_corpus
    assert all(type(tok) is int for seq in corpus for tok in seq)
    assert new.bit_generator.state == old.bit_generator.state


def sparse_model(order, vocab, zeros, trailing, seed):
    """A Markov model whose rows hold exact zeros, and whose last
    ``trailing`` columns are zero wherever that leaves mass in the row."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in markov_contexts(order, vocab):
        row = rng.dirichlet(np.full(vocab, 0.5)) * (rng.random(vocab) >= zeros)
        if row[: vocab - trailing].sum() > 0.0:
            row[vocab - trailing :] = 0.0
        if row.sum() == 0.0:
            row[rng.integers(vocab)] = 1.0
        rows.append(normalize(row).probs)
    return MarkovModel(order, vocab, rows)


@given(
    order=st.integers(1, 3),
    vocab=st.integers(2, 6),
    zeros=st.sampled_from([0.0, 0.5, 0.8]),
    trailing=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    length=st.integers(0, 40),
    u=st.sampled_from([None, 0.0, BELOW_ONE]),
)
@settings(max_examples=150, deadline=None)
def test_ancestral_sample_matches_reference(order, vocab, zeros, trailing, seed, length, u):
    model = sparse_model(order, vocab, zeros, min(trailing, vocab - 1), seed)
    if u is None:
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    else:
        new, old = FixedRng(u), FixedRng(u)
    seq = ancestral_sample(model, length, new)
    assert seq == reference_decoder.ancestral_sample(model, length, old)
    assert all(type(tok) is int for tok in seq)
    if u is None:
        assert new.bit_generator.state == old.bit_generator.state
    else:
        # the smallest and the largest uniform never pick a zero-mass token
        assert all(model.conditional(seq[:i]).prob(tok) > 0.0 for i, tok in enumerate(seq))


@pytest.mark.parametrize("order, vocab", [(1, 5), (2, 4), (3, 3)])
def test_breaks_is_a_locked_table_shaped_like_rows(order, vocab):
    model = sparse_model(order, vocab, 0.5, 1, seed=order)
    breaks = model.breaks
    assert not breaks.flags.writeable
    with pytest.raises(ValueError):
        breaks[0, 0] = 1.0
    assert breaks.shape == model.rows.shape
    assert breaks.tobytes() == breakpoints(np.cumsum(model.rows, axis=1)).tobytes()
    # sorted rows in [0, 1], each ending with the +inf that clamps a draw
    assert np.all(breaks[:, -1] == np.inf)
    assert np.all((0.0 <= breaks[:, :-1]) & (breaks[:, :-1] <= 1.0))
    assert np.all(np.diff(breaks, axis=1) >= 0.0)
    for code, row in enumerate(model.rows):
        assert model.argmax[code] == int(np.argmax(row))


@pytest.mark.parametrize("order, vocab", [(1, 5), (2, 4), (3, 3)])
def test_next_row_is_a_locked_int32_table_of_next_row_starts(order, vocab, tmp_path):
    model = sparse_model(order, vocab, 0.5, 1, seed=order)
    next_row = model.next_row
    assert not next_row.flags.writeable
    with pytest.raises(ValueError):
        next_row[0] = 0
    assert next_row.dtype == np.int32
    assert next_row.shape == (model.rows.size,)
    base = vocab + 1
    for code in range(len(model.rows)):
        # the code's base-(V+1) digits, PAD as 0, unreachable codes included
        digits = [code // base**k % base for k in reversed(range(order))]
        for v in range(vocab):
            after = 0
            for digit in digits[1:] + [v + 1]:
                after = after * base + digit
            assert next_row[code * vocab + v] == vocab * after
    # on every reachable context, the row context_code gives the context
    # followed by v, PAD dropped as conditional drops it
    for code, context in zip(context_codes(order, vocab), markov_contexts(order, vocab)):
        tokens = tuple(tok for tok in context if tok != PAD)
        for v in range(vocab):
            assert next_row[code * vocab + v] == vocab * model.context_code(tokens + (v,))
    path = tmp_path / "model.psdm"
    save_markov(model, path)
    loaded = load_markov(path).next_row
    assert loaded.dtype == np.int32 and loaded.tobytes() == next_row.tobytes()


TINY = float(np.finfo(float).tiny)


@st.composite
def model_rows(draw_from, vocab):
    """A row a model holds: all zeros, as its unreachable rows are, or a
    probability row with exact zeros and entries of the smallest normal
    size, whose sum is within PROB_SUM_TOL of 1 but often not equal to it."""
    if draw_from(st.integers(0, 5)) == 0:
        return np.zeros(vocab)
    # -1.0 marks an entry of the smallest normal size
    weights = np.array(draw_from(st.lists(st.sampled_from([0.0, -1.0]) | st.floats(0.0, 1e3),
                                          min_size=vocab, max_size=vocab)))
    mass = draw_from(st.integers(0, vocab - 1))
    weights[mass] = abs(weights[mass]) + 1.0
    tiny = weights < 0.0
    weights[tiny] = 0.0
    scale = 1.0 + draw_from(st.floats(-PROB_SUM_TOL / 2, PROB_SUM_TOL / 2))
    row = weights / weights.sum() * scale
    row[tiny] = TINY
    assert abs(row.sum() - 1.0) <= PROB_SUM_TOL
    return row


@given(data=st.data(), vocab=st.integers(1, 9), count=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_breaks_draw_what_draw_draws_on_the_cumulative_row(data, vocab, count):
    rows = np.array([data.draw(model_rows(vocab)) for _ in range(count)])
    breaks = breakpoints(np.cumsum(rows, axis=1))
    for i, (row, edges) in enumerate(zip(rows, breaks)):
        cdf = np.cumsum(row)
        uniforms = [0.0, BELOW_ONE, 1.0, *data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))]
        for edge in edges[:-1].tolist():
            uniforms += [edge, float(np.nextafter(edge, 0.0))]
        flat = edges.tolist()
        for u in uniforms:
            expected = draw(cdf, FixedRng(u))
            # the rules of the fresh draw, ancestral_sample and the batches
            assert int(edges.searchsorted(u, "right")) == expected
            assert bisect_right(flat, u) == expected
            assert locate(breaks[i : i + 1], np.array([u])).tolist() == [expected]


@given(points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), total=st.floats(0.5, 2.0))
@settings(max_examples=300, deadline=None)
def test_each_breakpoint_is_the_least_uniform_that_counts_its_token(points, total):
    # on a total far from 1 the guess cdf / T is often an ulp above the least
    # such uniform (a quarter of the time at T = 0.75), so the fix-up runs
    cdf = np.array([*sorted(points), 1.0]) * total
    edges = breakpoints(cdf[None])[0]
    for c, edge in zip(cdf[:-1].tolist(), edges[:-1].tolist()):
        assert c <= edge * total
        assert edge == 0.0 or float(np.nextafter(edge, 0.0)) * total < c
    assert edges[-1] == np.inf


@pytest.mark.parametrize("row", [[1e-300, 0.0], [0.25, 0.2], [3.0, 0.0]])
def test_breakpoints_reject_a_total_outside_their_range(row):
    with pytest.raises(ValueError, match="must total 0 or lie in"):
        breakpoints(np.cumsum(row)[None])


@given(
    rows=st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    ),
    unit=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_normalize_rows_matches_normalize(rows, unit):
    weights = np.array(rows)
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    if unit:  # rows already within tolerance of 1 must stay bit for bit
        weights = np.array([normalize(w).probs for w in weights])
    expected = np.array([normalize(w).probs for w in weights])
    assert normalize_rows(weights).tobytes() == expected.tobytes()


def test_normalize_rows_keeps_rows_within_tolerance_bit_for_bit():
    near = [0.5, 0.5 + 1e-12]  # sums within PROB_SUM_TOL of 1, not to 1
    out = normalize_rows(np.array([near, [1.0, 3.0]]))
    assert out[0].tolist() == near
    assert out[1].tolist() == [0.25, 0.75]
    assert out[0].tobytes() == normalize(near).probs.tobytes()


def test_normalize_rows_rejects_an_all_zero_row():
    with pytest.raises(AllZeroWeights):
        normalize_rows(np.array([[0.5, 0.5], [0.0, 0.0]]))

"""Differential oracle: the flat-array library builder against the frozen one.

Both builders see the same corpus and must return equal ``PhraseLibrary``
objects that save to identical ``.psdl`` bytes, or reject the corpus with the
same error type.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_builder as ref
from phrasedec.harness import planted_phrase_corpus
from phrasedec.models import ancestral_sample, random_markov
from phrasedec.phrase_lib import (
    EmptyCorpus,
    InvalidToken,
    PhraseLibrary,
    build_library,
    save_library,
)

SYMBOLS = st.integers(0, 5)
# equal-symbol runs such as aaaaa, and repeated cycles such as abababab
RUNS = st.lists(st.tuples(SYMBOLS, st.integers(1, 9)), max_size=5).map(
    lambda runs: [s for s, n in runs for _ in range(n)]
)
CYCLES = st.tuples(st.lists(SYMBOLS, min_size=1, max_size=3), st.integers(1, 8)).map(
    lambda t: t[0] * t[1]
)
SEQUENCES = st.one_of(
    st.lists(SYMBOLS, max_size=1), st.lists(SYMBOLS, max_size=24), RUNS, CYCLES
)
# tokens the old builder accepted (integral floats, bools) or rejected
ODD_TOKENS = st.sampled_from([2.5, 0.5, -1, -7, 1.0, 3.0, True])
CONTAINERS = st.sampled_from([
    list,
    tuple,
    np.asarray,
    lambda s: [np.int32(t) if type(t) is int else t for t in s],
])


@st.composite
def corpora(draw):
    seqs = draw(st.lists(SEQUENCES, max_size=8))
    if seqs and draw(st.booleans()):
        row = draw(st.integers(0, len(seqs) - 1))
        at = draw(st.integers(0, len(seqs[row])))
        seqs[row] = seqs[row][:at] + [draw(ODD_TOKENS)] + seqs[row][at:]
    container = draw(CONTAINERS)
    return draw(st.sampled_from([list, tuple]))(container(s) for s in seqs)


@st.composite
def vocab_sizes(draw, corpus):
    """None, a size below the largest token, or one at or above it."""
    if draw(st.booleans()):
        return None
    top = max((t for s in corpus for t in s), default=-1)
    return max(0, int(top) + 1 + draw(st.integers(-2, 2) | st.integers(3, 2**31)))


def _outcome(build, corpus, merges, max_len, vocab):
    try:
        return build(corpus, merges, max_len, vocab_size=vocab)
    except (EmptyCorpus, InvalidToken) as exc:
        return type(exc)


def _psdl_bytes(lib, directory):
    path = directory / "lib.psdl"
    save_library(lib, path)
    return path.read_bytes()


@given(
    data=st.data(),
    corpus=corpora(),
    merges=st.integers(1, 40),
    max_len=st.integers(2, 6),
)
@settings(max_examples=300, deadline=None)
def test_matches_reference_builder(tmp_path_factory, data, corpus, merges, max_len):
    vocab = data.draw(vocab_sizes(corpus))
    got = _outcome(build_library, corpus, merges, max_len, vocab)
    want = _outcome(ref.build_library, corpus, merges, max_len, vocab)
    assert got == want
    if isinstance(want, PhraseLibrary):
        directory = tmp_path_factory.mktemp("psdl")
        assert _psdl_bytes(got, directory) == _psdl_bytes(want, directory)


def _planted(merges):
    corpus, _ = planted_phrase_corpus(16, 3, 4, 30, 100, 0.9, np.random.default_rng(7))
    return corpus, merges, 16


def _markov(merges):
    model = random_markov(2, 6, 0.4, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    return [ancestral_sample(model, 120, rng) for _ in range(25)], merges, 6


@pytest.mark.parametrize(
    "case",
    [
        lambda: _planted(64),
        # more merges than the corpus can take
        lambda: _planted(2000),
        lambda: _markov(256),
    ],
    ids=["planted", "planted_exhausted", "markov"],
)
def test_matches_reference_on_larger_corpora(tmp_path, case):
    corpus, merges, vocab = case()
    got = build_library(corpus, merges, vocab_size=vocab)
    want = ref.build_library(corpus, merges, vocab_size=vocab)
    assert got == want
    assert _psdl_bytes(got, tmp_path) == _psdl_bytes(want, tmp_path)


def test_zero_merges_is_the_empty_library():
    assert build_library([[1, 2, 1, 2]], 0) == PhraseLibrary(3, (), ())
    assert build_library([[1, 2]], 0, vocab_size=9) == PhraseLibrary(9, (), ())
    with pytest.raises(ValueError):
        build_library([[1, 2, 1, 2]], -1)
    # refused before the corpus is read, whose bad token would say otherwise
    for bad in (2.5, "3", None):
        with pytest.raises(ValueError, match="merges must be an integer"):
            build_library([[1, "x"]], bad)


def test_phrases_shorter_than_two_tokens_rejected():
    with pytest.raises(ValueError, match="max_phrase_len must be >= 2"):
        build_library([[1, 2, 1, 2]], 8, max_phrase_len=1)
    with pytest.raises(ValueError, match="max_phrase_len must be an integer"):
        build_library([[1, 2, 1, 2]], 8, max_phrase_len=2.5)
    assert build_library([[1, 2, 1, 2]], 1, max_phrase_len=np.int64(2)).phrases


@pytest.mark.parametrize(
    "corpus",
    [
        [[1, math.nan]],
        [[1, math.inf]],
        [["1", "2"]],
        [[[1, 2], [3, 4]]],
        [[1, None]],
    ],
    ids=["nan", "inf", "strings", "nested", "none"],
)
def test_non_token_values_rejected(corpus):
    with pytest.raises(InvalidToken):
        build_library(corpus, 4)

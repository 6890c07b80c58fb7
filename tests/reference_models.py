"""Frozen per-row model synthesis and per-token ancestral sampling: the
differential oracle for the table-driven samplers.

These are the engine's former ``random_markov``, ``planted_phrase_corpus``
and ``ancestral_sample``, kept verbatim: one ``dirichlet`` and one
``normalize`` call per context row, and one ``sample`` call (one uniform)
per token.  ``test_samplers.py`` asserts that the engine builds the same
rows and corpora and leaves its generator in the same state.  Do not
optimise or otherwise edit this module; it is the specification the
samplers are checked against.

Two one-line rules the engine applies only inline live here too, for the
tests that check them: ``sample``, one row's draw, and ``in_neighborhood``,
the phrase search's neighborhood test.
"""

from __future__ import annotations

import numpy as np

from phrasedec.core import TokenSequence, draw, normalize
from phrasedec.harness import CapacityExceeded, ConfigInvalid
from phrasedec.models import MarkovModel, markov_contexts


def sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one token from a non-negative row ``probs`` of
    shape ``(V,)``: ``core.draw`` on its cumulative sum."""
    return draw(probs.cumsum(), rng)


def in_neighborhood(p: np.ndarray, j: int, v: int, drafted: int, tau: float) -> bool:
    """Whether token v lies in the neighborhood of a drafted token under row
    j of the table p: |p[j, v] - p[j, drafted]| strictly below tau, the
    test ``decoder._find_phrase`` applies inline."""
    return abs(p[j, v] - p[j, drafted]) < tau


def ancestral_sample(
    model: MarkovModel, length: int, rng: np.random.Generator
) -> TokenSequence:
    """Sample a sequence from the exact joint via the chain rule."""
    if length < 0:
        raise ValueError("length must be >= 0")
    rows, base, contexts = model.rows, model.vocab_size + 1, model.rows.shape[0]
    out: list[int] = []
    code = 0
    for _ in range(length):
        tok = sample(rows[code], rng)
        out.append(tok)
        code = (code * base + tok + 1) % contexts
    return tuple(out)


def random_markov(
    order: int, vocab_size: int, concentration: float, rng: np.random.Generator
) -> MarkovModel:
    """Random Markov model with symmetric-Dirichlet transition rows."""
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    alpha = np.full(vocab_size, concentration)
    rows = [
        normalize(rng.dirichlet(alpha)).probs
        for _ in markov_contexts(order, vocab_size)
    ]
    return MarkovModel(order, vocab_size, rows)


def planted_phrase_corpus(
    vocab_size: int,
    phrase_count: int,
    phrase_len: int,
    sequences: int,
    seq_len: int,
    planting_rate: float,
    rng: np.random.Generator,
    concentration: float = 0.3,
) -> tuple[list[TokenSequence], MarkovModel]:
    if phrase_len < 2:
        raise ConfigInvalid("phrase_len must be >= 2")
    if not 0.0 < planting_rate <= 1.0:
        raise ConfigInvalid("planting_rate must be in (0, 1]")
    if sequences < 1 or seq_len < 1:
        raise ConfigInvalid("sequences and seq_len must be >= 1")
    needed = phrase_count * phrase_len
    if needed > vocab_size * vocab_size:
        raise CapacityExceeded(
            f"{needed} phrase tokens exceed the {vocab_size * vocab_size} available contexts"
        )
    if needed > vocab_size:
        raise CapacityExceeded(
            f"{needed} phrase tokens need disjoint blocks in a vocabulary of {vocab_size}"
        )

    perm = [int(t) for t in rng.permutation(vocab_size)]
    next_in_phrase: dict[int, int] = {}
    for i in range(phrase_count):
        block = perm[i * phrase_len : (i + 1) * phrase_len]
        for a, b in zip(block, block[1:]):
            next_in_phrase[a] = b

    order = 2
    alpha = np.full(vocab_size, concentration)
    rows = []
    for ctx in markov_contexts(order, vocab_size):
        noise = rng.dirichlet(alpha)
        nxt = next_in_phrase.get(ctx[-1])
        if nxt is None:
            rows.append(normalize(noise).probs)
        else:
            row = (1.0 - planting_rate) * noise
            row[nxt] += planting_rate
            rows.append(normalize(row).probs)
    model = MarkovModel(order, vocab_size, rows)

    corpus = [ancestral_sample(model, seq_len, rng) for _ in range(sequences)]
    return corpus, model

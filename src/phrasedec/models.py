"""Conditional sequence models: order-k Markov tables and batched/ancestral
evaluation helpers.

These stand in for a large autoregressive backbone at desk scale.  A model
maps a prefix to a categorical conditional over the next token.  The decoder
and ``ancestral_sample`` read a ``MarkovModel``'s dense ``rows`` array and its
cumulative copy ``cdf`` directly, indexed by a rolling context code, so their
cost per token does not depend on prefix length.  ``ancestral_corpus`` draws
many independent samples in lockstep, one row gather per position.
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_right

import numpy as np

from .core import (
    CategoricalDistribution,
    TokenSequence,
    _check_rows,
    normalize_rows,
    pick,
)

# begin-of-sequence padding context symbol; deliberately outside [0, V) so the
# vocabulary stays identical to the phrase library's symbol space
PAD = -1

MODEL_MAGIC = b"PSDM"
MODEL_FORMAT_VERSION = 1
# format version, order, vocab_size
HEADER = "<HII"


class UnsupportedModelFormat(ValueError):
    """Model file has a bad magic or an unknown format version."""


def markov_contexts(order: int, vocab_size: int):
    """Canonical enumeration of begin-padded contexts, shortest real suffix first."""
    for j in range(order + 1):
        for tail in itertools.product(range(vocab_size), repeat=j):
            yield (PAD,) * (order - j) + tail


def context_count(order: int, vocab_size: int) -> int:
    """Number of contexts ``markov_contexts`` enumerates."""
    return sum(vocab_size**j for j in range(order + 1))


def context_codes(order: int, vocab_size: int) -> np.ndarray:
    """Dense row index of each context of ``markov_contexts``, in that order.

    A context's code reads its symbols as base-(V+1) digits, PAD as 0 and
    token v as v + 1, so appending token v to a context with code c gives
    ``(c * (V + 1) + v + 1) % (V + 1) ** order``.
    """
    return np.array(
        [_code(ctx, vocab_size + 1) for ctx in markov_contexts(order, vocab_size)],
        dtype=np.intp,
    )


def _code(symbols, base: int) -> int:
    code = 0
    for sym in symbols:
        code = code * base + sym + 1
    return code


class MarkovModel:
    """Order-k Markov chain over a finite vocabulary.

    ``rows`` is the dense, read-only transition array of shape
    ``((V+1)**order, V)``: row ``c`` is the conditional after the context
    whose base-(V+1) code is c (see ``context_codes``).  Rows of codes that
    place PAD after a real token are never reached and hold zeros.  The
    constructor takes the reachable rows stacked in ``markov_contexts``
    order, the layout of the PSDM file, and validates them once.

    Every draw from the model reads ``cdf = rows.cumsum(axis=1)``, built
    once and read-only, with ``core.draw``'s rule; greedy decoding reads
    ``argmax``, the most likely token after each code.
    """

    def __init__(self, order: int, vocab_size: int, context_rows) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        stack = np.asarray(context_rows, dtype=np.float64)
        contexts = context_count(order, vocab_size)
        if stack.shape != (contexts, vocab_size):
            raise ValueError(
                f"expected {contexts} transition rows of width {vocab_size}, "
                f"got shape {stack.shape}"
            )
        _check_rows(stack, "transition probabilities")
        rows = np.zeros(((vocab_size + 1) ** order, vocab_size))
        rows[context_codes(order, vocab_size)] = stack
        rows.setflags(write=False)
        cdf = rows.cumsum(axis=1)
        cdf.setflags(write=False)
        self.order = order
        self.vocab_size = vocab_size
        self.rows = rows
        self.cdf = cdf
        self.argmax = tuple(rows.argmax(axis=1).tolist())

    def context_code(self, prefix: TokenSequence) -> int:
        """Code of the context formed by the last ``order`` tokens of prefix."""
        return _code(prefix[-self.order :], self.vocab_size + 1)

    def conditional(self, prefix: TokenSequence) -> CategoricalDistribution:
        return CategoricalDistribution(self.rows[self.context_code(prefix)])


def batched_conditionals(model: MarkovModel, codes) -> np.ndarray:
    """Conditionals for a whole draft window as one ``(W, V)`` row gather:
    row j is the conditional after context code ``codes[j]`` (see
    ``window_codes``).

    The cost does not depend on prefix length.  By the metrics contract one
    call counts as a single target-model forward pass (one NFE), regardless
    of window size.
    """
    return model.rows.take(codes, axis=0)


def window_codes(model: MarkovModel, prefix: TokenSequence, drafts: TokenSequence) -> list[int]:
    """Context codes of a draft window's rows: code j is the context of
    prefix + drafts[:j].  Only the last ``order`` tokens of prefix are read.

    Raises ValueError for an empty window.
    """
    if not drafts:
        raise ValueError("draft window must contain at least one token")
    base, contexts = model.vocab_size + 1, model.rows.shape[0]
    code = model.context_code(prefix)
    codes = [code]
    for tok in drafts[:-1]:
        code = (code * base + tok + 1) % contexts
        codes.append(code)
    return codes


def ancestral_sample(
    model: MarkovModel, length: int, rng: np.random.Generator
) -> TokenSequence:
    """Sample a sequence from the exact joint via the chain rule.

    All uniforms come from one ``rng.random(length)`` call, the stream of
    ``length`` one-row draws.  Each token is ``core.draw``'s rule on its
    context's ``cdf`` row: a binary search of the flat table between the
    row's bounds for ``u`` times the row total, clamped to ``V - 1``.  The
    loop does only that rule's work per token: one ``bisect_right`` call, a
    comparison for the clamp, the append and the context-code update.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    V, base, contexts = model.vocab_size, model.vocab_size + 1, model.rows.shape[0]
    top = V - 1
    cdf = memoryview(model.cdf.reshape(-1))
    out: list[int] = []
    append = out.append
    code = 0
    for u in rng.random(length).tolist():
        lo = code * V
        tok = bisect_right(cdf, u * cdf[lo + top], lo, lo + V) - lo
        if tok > top:
            tok = top
        append(tok)
        code = (code * base + tok + 1) % contexts
    return tuple(out)


def ancestral_corpus(
    model: MarkovModel, sequences: int, length: int, rng: np.random.Generator
) -> list[TokenSequence]:
    """``sequences`` independent ancestral samples of ``length`` tokens,
    drawn in lockstep.

    All uniforms come from one ``rng.random((sequences, length))`` call, the
    stream of ``sequences`` calls of ``ancestral_sample``, so the tokens and
    the generator's final state are theirs too.  Each position gathers the
    ``cdf`` rows of every sequence's context at once and applies
    ``core.pick`` to them.
    """
    if sequences < 0 or length < 0:
        raise ValueError("sequences and length must be >= 0")
    base, contexts = model.vocab_size + 1, model.rows.shape[0]
    u = rng.random((sequences, length))
    out = np.empty((sequences, length), dtype=np.intp)
    codes = np.zeros(sequences, dtype=np.intp)
    for t in range(length):
        tok = pick(model.cdf.take(codes, axis=0), u[:, t])
        out[:, t] = tok
        codes = (codes * base + tok + 1) % contexts
    return [tuple(seq) for seq in out.tolist()]


def random_markov(
    order: int, vocab_size: int, concentration: float, rng: np.random.Generator
) -> MarkovModel:
    """Random Markov model with symmetric-Dirichlet transition rows, drawn
    in ``markov_contexts`` order by one ``dirichlet`` call."""
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rows = rng.dirichlet(np.full(vocab_size, concentration), size=context_count(order, vocab_size))
    return MarkovModel(order, vocab_size, normalize_rows(rows))


def save_markov(model: MarkovModel, path) -> None:
    """Write a Markov model in the versioned PSDM binary format."""
    rows = model.rows[context_codes(model.order, model.vocab_size)]
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack(HEADER, MODEL_FORMAT_VERSION, model.order, model.vocab_size))
        f.write(rows.astype("<f8").tobytes())


def load_markov(path) -> MarkovModel:
    """Read a PSDM model file.

    Bad magics, unknown versions, impossible shapes and truncated or
    oversized files raise UnsupportedModelFormat; rows that are not
    probability vectors raise InvalidWeight.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MODEL_MAGIC:
        raise UnsupportedModelFormat("not a PSDM model file")
    offset = len(MODEL_MAGIC) + struct.calcsize(HEADER)
    if len(data) < offset:
        raise UnsupportedModelFormat("model file header is truncated")
    version, order, vocab_size = struct.unpack_from(HEADER, data, len(MODEL_MAGIC))
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedModelFormat(f"unknown model format version {version}")
    if order < 1 or vocab_size < 2:
        raise UnsupportedModelFormat(f"invalid model shape: order {order}, V={vocab_size}")
    row_bytes = vocab_size * 8
    available = (len(data) - offset) // row_bytes
    # a model has at least 2**order contexts: rejecting a larger order first
    # keeps a corrupt header from asking for an astronomically large count
    if order > available.bit_length():
        raise UnsupportedModelFormat(f"model file is too short for order {order}")
    contexts = context_count(order, vocab_size)
    if offset + contexts * row_bytes != len(data):
        raise UnsupportedModelFormat("model file has trailing or missing bytes")
    rows = np.frombuffer(data, dtype="<f8", offset=offset).reshape(contexts, vocab_size)
    return MarkovModel(order, vocab_size, rows)

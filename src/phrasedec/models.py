"""Conditional sequence models: order-k Markov tables, window evaluation
and ancestral sampling.

These stand in for a large autoregressive backbone at desk scale.  A model
maps a prefix to a categorical conditional over the next token.  The decoder
reads a model only through ``MarkovModel.evaluate``, one call per window
(one NFE), which indexes the uncopied tables by a rolling context code, so
its cost does not depend on prefix length; nor does ``ancestral_sample``'s,
which follows the context by one read of ``next_row`` per token.
``ancestral_corpus`` draws many independent samples in lockstep, one row
gather per position, and ``exact_marginals`` gives the exact law of each
position with no draw.

Every draw from a model compares a raw uniform u with a row of its
``breaks`` table (``core.breakpoints``), with no multiply and no clamp: the
token is the count of the row's entries <= u.  That is ``core.draw``'s
inverse-CDF rule ``min(#{v : cdf[v] <= u * T}, V - 1)`` on the row's
cumulative sum, exactly, since fl(u * T) is monotone in u; the +inf last
column is the clamp.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .core import (
    CategoricalDistribution,
    Container,
    TokenSequence,
    _check_rows,
    breakpoints,
    count_at_least,
    locate,
    normalize_rows,
    plain,
)

# begin-of-sequence padding context symbol; deliberately outside [0, V) so the
# vocabulary stays identical to the phrase library's symbol space
PAD = -1


# the most entries a model table may hold: 2**26 entries, 512 MiB each for
# the float64 rows and breaks and 256 MiB for the int32 next_row, 1.25 GiB,
# plus the argmax tuple's 8 bytes per context (8/V per entry), at most
# 134 MB (V=3, order 12)
TABLE_LIMIT = 2**26


class UnsupportedModelFormat(ValueError):
    """Model file has a bad magic or an unknown format version."""


MODEL_FILE = Container(b"PSDM", 1, "model", UnsupportedModelFormat)


def check_shape(order: int, vocab_size: int) -> None:
    """The one rule for a model's shape: integers ``order >= 1`` and
    ``vocab_size >= 2``, and a table of ``(vocab_size + 1) ** order *
    vocab_size`` entries within ``TABLE_LIMIT``; another raises ValueError."""
    order = count_at_least(order, 1, "order")
    vocab_size = count_at_least(vocab_size, 2, "vocab_size")
    # any base >= 3 to the limit's bit length passes it, so the power is
    # capped there and a huge order builds no huge int
    power = min(order, TABLE_LIMIT.bit_length())
    if (vocab_size + 1) ** power * vocab_size > TABLE_LIMIT:
        raise ValueError(
            f"vocab_size={vocab_size}, order={order}: the model table "
            f"has more than {TABLE_LIMIT} entries"
        )


def check_concentration(concentration: float) -> float:
    """The one rule for a Dirichlet concentration: a real whose float
    (``core.plain``) is finite and > 0, returned as that float; else
    ValueError.  An int too large for a float is refused too."""
    value = plain(concentration, float)
    if isinstance(value, float) and 0.0 < value < np.inf:
        return value
    raise ValueError("concentration must be finite and > 0")


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
    ``(c * (V + 1) + v + 1) % (V + 1) ** order``: the contexts with j real
    tokens append each token in turn to those with j - 1.
    """
    groups, base = [np.zeros(1, dtype=np.intp)], vocab_size + 1
    for _ in range(order):
        groups.append((groups[-1][:, None] * base + np.arange(1, base)).ravel())
    return np.concatenate(groups)


class Rows(NamedTuple):
    """What one ``MarkovModel.evaluate`` call computed: the model's tables,
    read-only and not copied (the conditionals ``probs``, their uniform-space
    draw table ``breaks`` and the most likely token ``argmax`` of each row),
    and ``idx[j]``, the row of window slot j."""

    probs: np.ndarray
    breaks: np.ndarray
    argmax: tuple[int, ...]
    idx: list[int]


class MarkovModel:
    """Order-k Markov chain over a finite vocabulary.

    ``rows`` is the dense, read-only transition array of shape
    ``((V+1)**order, V)``: row ``c`` is the conditional after the context
    whose base-(V+1) code is c (see ``context_codes``).  Rows of codes that
    place PAD after a real token are never reached and hold zeros.  The
    constructor takes the reachable rows stacked in ``markov_contexts``
    order, the layout of the PSDM file, and validates them once; a shape
    ``check_shape`` refuses raises ValueError before any table is allocated.

    Every draw from the model reads ``breaks``, built once from
    ``rows.cumsum(axis=1)`` by ``core.breakpoints`` and read-only: row c
    draws for a uniform u the count of its entries <= u, the token
    ``core.draw`` draws from u on the cumulative row, since fl(u * T) is
    monotone in u; its +inf last column is the clamp to V - 1.  Greedy
    decoding reads ``argmax``, the most likely token after each code.
    ``next_row``, read-only int32 of ``rows.size`` entries, is the step
    table that ``ancestral_sample``, ``ancestral_corpus`` and
    ``exact_marginals`` follow the context by: entry ``c * V + v`` is the
    flat start, ``V`` times the code, of the row after appending token v to
    code c.
    """

    def __init__(self, order: int, vocab_size: int, context_rows) -> None:
        check_shape(order, vocab_size)
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
        breaks = breakpoints(rows.cumsum(axis=1))
        breaks.setflags(write=False)
        # V * ((c * (V + 1) + v + 1) % contexts) for every (c, v) cell, in
        # int32 with no wider temporary: c * (V + 1) + v + 1 is below
        # 1.5 * rows.size <= 1.5 * TABLE_LIMIT < 2**31
        contexts = np.int32(len(rows))
        next_row = np.add.outer(
            np.arange(contexts, dtype=np.int32) * np.int32(vocab_size + 1),
            np.arange(1, vocab_size + 1, dtype=np.int32),
        )
        next_row %= contexts
        next_row *= np.int32(vocab_size)
        next_row = next_row.reshape(-1)
        next_row.setflags(write=False)
        self.order = order
        self.vocab_size = vocab_size
        self.rows = rows
        self.breaks = breaks
        self.next_row = next_row
        self.argmax = tuple(rows.argmax(axis=1).tolist())

    def context_code(self, prefix: TokenSequence) -> int:
        """Code of the context of the last ``order`` tokens of prefix, the one
        rule from prefix to row: a token read outside [0, V) raises ValueError."""
        V, code = self.vocab_size, 0
        for tok in prefix[-self.order :]:
            if not 0 <= tok < V:
                raise ValueError(f"prefix token {tok} is outside [0, {V})")
            code = code * (V + 1) + tok + 1
        return code

    def evaluate(self, prefix: TokenSequence, drafts: TokenSequence) -> Rows:
        """The rows of a draft window, in one call (one NFE): ``idx[j]`` is
        the row of the context prefix + drafts[:j], by ``context_code``.
        Raises ValueError for an empty window or a prefix token outside
        [0, V); the decoder checks the drafts where a window enters it."""
        if not drafts:
            raise ValueError("draft window must contain at least one token")
        base, contexts, code = self.vocab_size + 1, len(self.rows), self.context_code(prefix)
        idx = [code]
        for tok in drafts[:-1]:
            code = (code * base + tok + 1) % contexts
            idx.append(code)
        # Rows(...) without its Python-level __new__, once per NFE
        return tuple.__new__(Rows, (self.rows, self.breaks, self.argmax, idx))

    def conditional(self, prefix: TokenSequence) -> CategoricalDistribution:
        """The conditional after prefix: ``context_code`` of prefix without the
        leading PADs ``markov_contexts`` writes, so another PAD raises ValueError."""
        start = next((i for i, tok in enumerate(prefix) if tok != PAD), len(prefix))
        return CategoricalDistribution(self.rows[self.context_code(prefix[start:])])


def ancestral_sample(
    model: MarkovModel, length: int, rng: np.random.Generator
) -> TokenSequence:
    """Sample a sequence from the exact joint via the chain rule.

    All uniforms come from one ``rng.random(length)`` call, the stream of
    ``length`` one-row draws.  Each token is the count of its context's
    ``breaks`` entries <= u: a binary search of the flat table between the
    row's bounds, whose flat cell ``c * V + token`` indexes ``next_row`` at
    the next context's row start.  The loop does only that per token: one
    ``bisect_right`` call, the append of the cell less the row start and
    one table read.
    """
    length = count_at_least(length, 0, "length")
    V = model.vocab_size
    breaks = memoryview(model.breaks.reshape(-1))
    next_row = memoryview(model.next_row)
    out: list[int] = []
    append = out.append
    lo = 0
    for u in rng.random(length).tolist():
        cell = bisect_right(breaks, u, lo, lo + V)
        append(cell - lo)
        lo = next_row[cell]
    return tuple(out)


def ancestral_corpus(
    model: MarkovModel, sequences: int, length: int, rng: np.random.Generator
) -> list[TokenSequence]:
    """``sequences`` independent ancestral samples of ``length`` tokens,
    drawn in lockstep.

    All uniforms come from one ``rng.random((sequences, length))`` call, the
    stream of ``sequences`` calls of ``ancestral_sample``, so the tokens and
    the generator's final state are theirs too.  It is ``ancestral_sample``'s
    walk of ``next_row`` for every sequence at once: each position gathers
    the ``breaks`` rows at the sequences' flat row starts, applies
    ``core.locate`` to them and reads the next starts from ``next_row`` at
    each start plus its token.
    """
    sequences = count_at_least(sequences, 0, "sequences")
    length = count_at_least(length, 0, "length")
    V = model.vocab_size
    u = rng.random((sequences, length))
    out = np.empty((sequences, length), dtype=np.intp)
    start = np.zeros(sequences, dtype=np.intp)
    for t in range(length):
        tok = locate(model.breaks.take(start // V, axis=0), u[:, t])
        out[:, t] = tok
        start = model.next_row.take(start + tok)
    return [tuple(seq) for seq in out.tolist()]


def exact_marginals(model: MarkovModel, length: int) -> np.ndarray:
    """The exact ``(length, V)`` marginals of an ancestral sample: row t is
    the law of its token t.

    Forward propagation over context codes, with no draw: the probability
    mass of every code starts on the begin context, code 0, and each step
    takes ``joint = mass[:, None] * rows``, reads the marginal as its column
    sums and moves each cell's mass to the code its token leads to, its
    ``next_row`` entry over V, with one ``bincount``.
    """
    length = count_at_least(length, 0, "length")
    V, contexts = model.vocab_size, model.rows.shape[0]
    # cast once: bincount would cast the int32 table at every step
    dest = (model.next_row // V).astype(np.intp)
    mass = np.zeros(contexts)
    mass[0] = 1.0
    out = np.empty((length, V))
    for t in range(length):
        joint = mass[:, None] * model.rows
        out[t] = joint.sum(axis=0)
        mass = np.bincount(dest, joint.ravel(), contexts)
    return out


def random_markov(
    order: int, vocab_size: int, concentration: float, rng: np.random.Generator
) -> MarkovModel:
    """Random Markov model with symmetric-Dirichlet transition rows, drawn
    in ``markov_contexts`` order by one ``dirichlet`` call, after the
    shape and concentration rules."""
    check_shape(order, vocab_size)
    alpha = np.full(vocab_size, check_concentration(concentration))
    rows = rng.dirichlet(alpha, size=context_count(order, vocab_size))
    return MarkovModel(order, vocab_size, normalize_rows(rows))


def save_markov(model: MarkovModel, path) -> None:
    """Write a Markov model in the versioned PSDM binary format."""
    rows = model.rows[context_codes(model.order, model.vocab_size)]
    MODEL_FILE.write(path, (model.order, model.vocab_size), rows.astype("<f8").tobytes())


def load_markov(path) -> MarkovModel:
    """Read a PSDM model file.

    Bad magics, unknown versions, shapes ``check_shape`` refuses (checked
    before the table is built) and truncated or oversized files raise
    UnsupportedModelFormat; rows that are not probability vectors raise
    InvalidWeight.
    """
    order, vocab_size, body = MODEL_FILE.read(path)
    try:
        check_shape(order, vocab_size)
    except ValueError as exc:
        raise UnsupportedModelFormat(f"invalid model shape: {exc}") from exc
    contexts = context_count(order, vocab_size)
    if contexts * vocab_size * 8 != len(body):
        raise UnsupportedModelFormat("model file has trailing or missing bytes")
    rows = np.frombuffer(body, dtype="<f8").reshape(contexts, vocab_size)
    return MarkovModel(order, vocab_size, rows)

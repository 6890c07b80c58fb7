"""Frozen reference loop that calibrates the benchmark's timings.

Every gated timing is a *cost*: a measured time divided by the time of one
step of the loop below, so that a slower or faster machine moves the engine
and the loop alike and the ratio stays put.  The loop is plain ancestral
sampling over a dict of 32-wide probability rows, the same kind of work
(small NumPy calls driven from Python) the engine does per token.

The chain has order 3, so its table (35,937 rows, ~13 MB) does not stay in
cache.  An order-2 table (~0.3 MB) does, and reacted less than the engine to
the host's slow phases: 10 library builds calibrated against it spread by
±11%, against the order-3 table by ±6.5%, and decodes alike with both.

Do not change this file.  It imports nothing from ``phrasedec`` on purpose,
so no change to the engine can move it; any edit here rescales every
baseline the benchmark has recorded.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

VOCAB = 32
ORDER = 3
CONCENTRATION = 0.3
TABLE_SEED = 20260
PAD = -1


class ReferenceLoop:
    def __init__(self) -> None:
        rng = np.random.default_rng(TABLE_SEED)
        alpha = np.full(VOCAB, CONCENTRATION)
        contexts = itertools.product(range(PAD, VOCAB), repeat=ORDER)
        self.table = {ctx: rng.dirichlet(alpha) for ctx in contexts}
        self.rng = np.random.default_rng([TABLE_SEED, 1])
        self.ctx = (PAD,) * ORDER

    def run(self, steps: int) -> float:
        """Sample `steps` more tokens of the chain; returns the seconds taken."""
        table, rng, ctx = self.table, self.rng, self.ctx
        start = time.perf_counter()
        for _ in range(steps):
            cdf = np.cumsum(table[ctx])
            tok = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            ctx = ctx[1:] + (min(tok, VOCAB - 1),)
        elapsed = time.perf_counter() - start
        self.ctx = ctx
        return elapsed

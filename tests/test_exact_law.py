"""The exact law of a decode, computed with no draw, against the model's
joint law.

``decoder_law`` follows ``decoder.decode`` step by step: it drafts the first
window from the begin row, and in each iteration makes one ``evaluate`` call,
enumerates every way the token tests can end (each accept, and each token a
rejected slot can emit) and every refill, and sums the probability of each
committed sequence.  The law of the next r tokens depends only on r, the last
``order`` committed tokens and the codes the next window is drafted from, so
it is computed once per such state.  ``sjd`` and non-greedy ``jacobi`` are
lossless: their law is the joint.
"""

import itertools

import numpy as np
import pytest

from test_decoder import chi2_against
from phrasedec.decoder import VerifyConfig, decode
from phrasedec.harness import planted_phrase_corpus
from phrasedec.models import random_markov

LENGTH = 5


def seq_index(seq, vocab):
    """The position of a sequence in a flat law: its tokens as base-V digits."""
    n = 0
    for tok in seq:
        n = n * vocab + tok
    return n


def target_joint(model, length):
    """The model's joint law of length-token sequences, one ``evaluate``
    call per sequence: the probability of each token at its own row."""
    out = np.empty(model.vocab_size**length)
    for n, seq in enumerate(itertools.product(range(model.vocab_size), repeat=length)):
        rows = model.evaluate((), seq)
        out[n] = np.prod([rows.probs[i, v] for i, v in zip(rows.idx, seq)])
    return out


def decoder_law(model, mode, window, length, greedy=False):
    """The exact law of the first length tokens ``decode`` commits in
    ``mode`` ("sjd" or "jacobi") with the given window size."""
    V, order = model.vocab_size, model.order
    begin = model.evaluate((), (0,))
    # per row: the law of a draft, or of a fixed-point rule's fresh draw
    laws = (np.eye(V)[list(begin.argmax)] if greedy else begin.probs).tolist()
    sjd = mode == "sjd" and not greedy

    def ends(idx, drafts, codes):
        """(committed tokens, probability) of every way one iteration ends."""
        out, chunk, prob = [], (), 1.0
        for t, d in enumerate(drafts):
            p = laws[idx[t]]
            if sjd:
                q = laws[codes[t]]
                keep = min(1.0, p[d] / q[d])
                residual = [max(a - b, 0.0) for a, b in zip(p, q)]
                # a rejection (probability 1 - keep) draws from the residual
                scale = (1.0 - keep) / sum(residual) if keep < 1.0 else 0.0
                stop = [scale * x for x in residual]
            else:  # the fixed-point rule: the draft survives iff a fresh draw matches it
                keep, stop = p[d], [0.0 if v == d else x for v, x in enumerate(p)]
            out += [(chunk + (v,), prob * x) for v, x in enumerate(stop) if x > 0.0]
            prob *= keep
            chunk += (d,)
            if prob == 0.0:
                return out
        return out + [(chunk, prob)]

    iterations = {}  # (tail, codes, drafts) -> the iteration's rows and ends

    def iteration(tail, codes, drafts):
        if (tail, codes, drafts) not in iterations:
            idx = model.evaluate(tail, drafts).idx
            iterations[tail, codes, drafts] = idx, ends(idx, drafts, codes)
        return iterations[tail, codes, drafts]

    memo = {}

    def law(r, tail, codes):
        """The law of the next r committed tokens, as a flat array, when the
        next window is drafted at codes and tail is the prefix."""
        if (r, tail, codes) in memo:
            return memo[r, tail, codes]
        out = np.zeros(V**r)
        for drafts in itertools.product(range(V), repeat=len(codes)):
            q = np.prod([laws[c][d] for c, d in zip(codes, drafts)])
            if q == 0.0:
                continue
            idx, outcomes = iteration(tail, codes, drafts)
            for chunk, prob in outcomes:
                n = len(chunk)
                if n >= r:
                    out[seq_index(chunk[:r], V)] += q * prob
                    continue
                refill = tuple(idx[n:] + idx[-1:] * n)
                block = V ** (r - n)
                start = seq_index(chunk, V) * block
                out[start : start + block] += q * prob * law(r - n, (tail + chunk)[-order:], refill)
        memo[r, tail, codes] = out
        return out

    return law(length, (), tuple(begin.idx * window))


def random_model():
    return random_markov(1, 3, 0.3, np.random.default_rng([5, 0]))


MODELS = {
    "random": random_model,
    "random_order2": lambda: random_markov(2, 3, 0.3, np.random.default_rng([6, 0])),
    # order 2, V=3: one phrase of two tokens, planted at rate 0.6
    "planted": lambda: planted_phrase_corpus(3, 1, 2, 1, 1, 0.6, np.random.default_rng([3, 0]))[1],
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("mode", ["sjd", "jacobi"])
def test_law_is_the_joint(model, mode, window):
    joint = target_joint(model, LENGTH)
    law = decoder_law(model, mode, window, LENGTH)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.5 * np.abs(law - joint).sum() < 1e-12


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("mode", ["sjd", "jacobi"])
def test_greedy_law_is_the_argmax_path(model, mode, window):
    path = ()
    for _ in range(LENGTH):
        rows = model.evaluate(path, (0,))
        path += (rows.argmax[rows.idx[0]],)
    law = decoder_law(model, mode, window, LENGTH, greedy=True)
    assert law[seq_index(path, model.vocab_size)] == 1.0
    assert law.sum() == 1.0


def test_sampled_sjd_decodes_follow_the_computed_law():
    # the engine's draws against the law above, one cell per 5-token
    # sequence, with the bounds of TestSjdExactMarginals
    model, runs = random_model(), 4000
    law = decoder_law(model, "sjd", 3, LENGTH)
    cfg = VerifyConfig(mode="sjd", window_size=3)
    cells = [
        [seq_index(decode(model, None, cfg, LENGTH, np.random.default_rng([23, r]))[0], 3)]
        for r in range(runs)
    ]
    mean_ratio, z_max, impossible = chi2_against(cells, law[None])
    assert impossible == 0
    assert mean_ratio < 1.4
    assert z_max < 5.5

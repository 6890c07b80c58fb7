"""Differential oracle: the dense engine against the frozen per-slot decoder.

Both run from generators in the same state and must return the same tokens,
the same ``DecodeMetrics`` and leave their generators in the same state, so
the dense core consumes randomness in exactly the order and with exactly the
arithmetic of the per-slot decoder it replaced.
"""

import numpy as np
import pytest

import reference_decoder as ref
from phrasedec import decoder
from phrasedec.decoder import VerifyConfig, decode
from phrasedec.harness import planted_phrase_corpus
from phrasedec.models import ancestral_sample, random_markov
from phrasedec.phrase_lib import build_library

MODES = {
    "sjd": dict(mode="sjd"),
    "sjd_pv": dict(mode="sjd_pv"),
    "jacobi": dict(mode="jacobi"),
    "jacobi_greedy": dict(mode="jacobi", greedy=True),
    "sjd_greedy": dict(mode="sjd", greedy=True),
    "sjd_pv_greedy": dict(mode="sjd_pv", greedy=True),
}
WINDOWS = (1, 3, 16)
# not multiples of any window size, so final windows overshoot
LENGTHS = (29, 47)


def _random_case(order, vocab, concentration, tau):
    model = random_markov(order, vocab, concentration, np.random.default_rng([17, order]))
    rng = np.random.default_rng([18, order])
    corpus = [ancestral_sample(model, 150, rng) for _ in range(20)]
    return model, build_library(corpus, 48, 6, vocab_size=vocab), tau


def _planted_case(rate):
    corpus, model = planted_phrase_corpus(16, 3, 4, 30, 100, rate, np.random.default_rng(3))
    return model, build_library(corpus, 64, vocab_size=16), 0.01


CASES = {
    "order1": lambda: _random_case(1, 6, 0.5, 0.2),
    "order2": lambda: _random_case(2, 5, 0.3, 0.05),
    "order3": lambda: _random_case(3, 4, 0.4, 0.1),
    "planted": lambda: _planted_case(0.95),
    # one-hot phrase rows: zero verifier and drafter probabilities
    "planted_exact": lambda: _planted_case(1.0),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def _metrics(m):
    return (
        m.nfe,
        m.tokens_emitted,
        m.tokens_per_iteration,
        m.token_accepts,
        m.token_rejects,
        m.phrase_attempts,
        m.phrase_accepts,
    )


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_decode_matches_reference(case, mode, window):
    model, lib, tau = case
    cfg = VerifyConfig(window_size=window, tau=tau, **MODES[mode])
    lib = lib if cfg.mode == "sjd_pv" else None
    for run, length in enumerate(LENGTHS):
        rng_new, rng_ref = np.random.default_rng([run, window]), np.random.default_rng([run, window])
        seq, metrics = decode(model, lib, cfg, length, rng_new)
        ref_seq, ref_metrics = ref.decode(model, lib, cfg, length, rng_ref)
        assert seq == ref_seq
        assert all(type(tok) is int for tok in seq)
        assert _metrics(metrics) == _metrics(ref_metrics)
        assert rng_new.random() == rng_ref.random()


def test_ancestral_matches_reference(case):
    model, _, _ = case
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for length in (0, 1, 57):
        assert ancestral_sample(model, length, rng_new) == ref.ancestral_sample(
            model, length, rng_ref
        )
    assert rng_new.random() == rng_ref.random()


def test_grid_exercises_truncation(monkeypatch):
    """The final window commits past total_len, so truncation is compared above."""
    model, lib, tau = CASES["planted"]()
    commits = []
    inner = decoder.verify_window

    def recording(*args):
        out = inner(*args)
        commits.append(len(out[0]))
        return out

    monkeypatch.setattr(decoder, "verify_window", recording)
    cfg = VerifyConfig(mode="sjd_pv", window_size=16, tau=tau)
    overshoots = 0
    for run in range(4):
        commits.clear()
        decode(model, lib, cfg, LENGTHS[1], np.random.default_rng([run, 16]))
        overshoots += sum(commits) > LENGTHS[1]
    assert overshoots > 0

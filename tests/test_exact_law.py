"""The exact law of a decode, computed with no draw, against the model's
joint law.

``theory.decoder_law`` follows ``decoder.decode`` step by step: it drafts
the first window from the begin row, and in each iteration makes one
``evaluate`` call, enumerates every way the token tests can end (each
accept, and each token a rejected slot can emit) and every refill, and sums
the probability of each committed sequence; each window's codes and each
rejection's residual row are the decoder's own (``window_codes``,
``residual_row``).  The law of the next r tokens
depends only on r, the last ``order`` committed tokens and the codes the
next window is drafted from, so it is computed once per such state.
``sjd`` and non-greedy ``jacobi`` are lossless: their law is the joint.
"""

import numpy as np
import pytest

from test_decoder import chi2_against
from phrasedec import decoder
from phrasedec.decoder import VerifyConfig, decode
from phrasedec.harness import planted_phrase_corpus
from phrasedec.models import MarkovModel, random_markov
from phrasedec.theory import (
    ENUMERATION_LIMIT,
    EnumerationTooLarge,
    decoder_law,
    seq_index,
    target_joint,
)

LENGTH = 5


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
    law = decoder_law(model, VerifyConfig(mode=mode, window_size=window), LENGTH)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.5 * np.abs(law - joint).sum() < 1e-12


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("mode", ["sjd", "jacobi"])
def test_greedy_law_is_the_argmax_path(model, mode, window):
    path = ()
    for _ in range(LENGTH):
        rows = model.evaluate(path, (0,))
        path += (rows.argmax[rows.idx[0]],)
    cfg = VerifyConfig(mode=mode, window_size=window, greedy=True)
    law = decoder_law(model, cfg, LENGTH)
    assert law[seq_index(path, model.vocab_size)] == 1.0
    assert law.sum() == 1.0


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Every ``MarkovModel.evaluate`` call's arguments, in order."""
    calls = []
    evaluate = MarkovModel.evaluate

    def spy(self, prefix, drafts):
        calls.append((prefix, drafts))
        return evaluate(self, prefix, drafts)

    monkeypatch.setattr(MarkovModel, "evaluate", spy)
    return calls


def test_the_law_reads_the_decoders_window_and_residual_rules(monkeypatch):
    # each rule is counted through the decoder's module attribute, as
    # test_decoder's TestSeams counts the seams: the decode and the law both
    # call the decoder's functions, so neither holds a copy of its own
    calls = dict.fromkeys(("window_codes", "residual_row"), 0)

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(decoder, name, counted(name, getattr(decoder, name)))
    model, cfg = random_model(), VerifyConfig(mode="sjd", window_size=3)
    _, metrics = decode(model, None, cfg, 40, np.random.default_rng(7))
    # the first window and one refill per iteration; one residual per rejection
    assert calls == {"window_codes": metrics.nfe + 1, "residual_row": metrics.token_rejects}
    assert metrics.token_rejects > 0
    calls.update(window_codes=0, residual_row=0)
    decoder_law(model, cfg, LENGTH)
    assert calls["window_codes"] > 0 and calls["residual_row"] > 0


def test_sjd_pv_has_no_law_yet(evaluate_calls):
    # the phrase branches are not enumerated; before, any mode but "sjd"
    # silently gave jacobi's law
    with pytest.raises(ValueError, match="'sjd_pv'.*ROADMAP item 8"):
        decoder_law(random_model(), VerifyConfig(mode="sjd_pv", window_size=3), LENGTH)
    assert evaluate_calls == []


def test_a_law_past_the_limit_is_refused_before_any_evaluate(evaluate_calls):
    # 40**12 outcomes; NumPy used to fail allocating them
    model = random_markov(1, 40, 0.3, np.random.default_rng(0))
    message = f"the (joint )?law of 12 tokens has more than {ENUMERATION_LIMIT} joint outcomes"
    with pytest.raises(EnumerationTooLarge, match=message):
        target_joint(model, 12)
    with pytest.raises(EnumerationTooLarge, match=message):
        decoder_law(model, VerifyConfig(mode="sjd", window_size=3), 12)
    assert evaluate_calls == []


def test_a_window_past_the_limit_is_refused_before_any_evaluate(evaluate_calls):
    # 3**15 draft vectors for the first window, at a law of only 3**2 cells
    assert 3**14 < ENUMERATION_LIMIT < 3**15
    with pytest.raises(EnumerationTooLarge, match="a window of 15 drafts"):
        decoder_law(random_model(), VerifyConfig(mode="jacobi", window_size=15), 2)
    assert evaluate_calls == []


def sampled_decodes_follow_the_law(mode, stream):
    # the engine's draws against the law above, one cell per 5-token
    # sequence, with the bounds of TestSjdExactMarginals
    model, runs, cfg = random_model(), 4000, VerifyConfig(mode=mode, window_size=3)
    law = decoder_law(model, cfg, LENGTH)
    cells = [
        [seq_index(decode(model, None, cfg, LENGTH, np.random.default_rng([stream, r]))[0], 3)]
        for r in range(runs)
    ]
    mean_ratio, z_max, impossible = chi2_against(cells, law[None])
    assert impossible == 0
    assert mean_ratio < 1.4
    assert z_max < 5.5


def test_sampled_sjd_decodes_follow_the_computed_law():
    sampled_decodes_follow_the_law("sjd", 23)


def test_sampled_jacobi_decodes_follow_the_computed_law():
    # non-greedy jacobi's draw-and-match walk, which pool-drafted chains reuse
    sampled_decodes_follow_the_law("jacobi", 24)

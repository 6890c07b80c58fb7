import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decoder as ref
from test_core import BELOW_ONE, FixedRng
from phrasedec import decoder
from phrasedec.core import (
    LOG_FLOOR,
    CategoricalDistribution,
    DrafterZeroProb,
    TokenSequence,
    normalize,
)
from phrasedec.decoder import (
    MODES,
    DecodeMetrics,
    DegenerateResidual,
    JacobiWindow,
    LibraryVocabMismatch,
    NonTermination,
    VerifyConfig,
    decode,
    in_neighborhood,
    phrase_acceptance_score,
    verify_phrase,
    verify_token,
    verify_window,
)
from phrasedec.models import (
    MarkovModel,
    ancestral_sample,
    markov_contexts,
    random_markov,
    window_codes,
)
from phrasedec.phrase_lib import (
    MergeRule,
    Phrase,
    PhraseLibrary,
    build_library,
)


def dist(probs):
    """A validated probability row, as the engine's dense arrays hold them."""
    return CategoricalDistribution(probs).probs


def hood(p, drafted, tau):
    """Members of one row's neighborhood, one scalar test per token, as the
    phrase scan builds it lazily."""
    return {v for v in range(len(p)) if in_neighborhood(p[None], 0, v, drafted, tau)}


class TestBuildNeighborhood:
    P = dist([0.40, 0.39, 0.21])

    def test_hand_enumeration(self):
        assert hood(self.P, 0, 0.02) == {0, 1}

    def test_strict_inequality_boundary(self):
        assert hood(self.P, 0, 0.01) == {0}
        # dyadic values: the differences are exact, so tau sits on them
        exact = dist([0.5, 0.25, 0.25])
        assert hood(exact, 0, 0.25) == {0}
        assert hood(exact, 0, math.nextafter(0.25, 1.0)) == {0, 1, 2}

    def test_uniform_full_vocabulary(self):
        uniform = dist([0.25] * 4)
        assert hood(uniform, 2, 0.001) == {0, 1, 2, 3}

    def test_contains_drafted(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = normalize(rng.random(6) + 1e-9).probs
            drafted = int(rng.integers(6))
            assert drafted in hood(p, drafted, 0.005)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = normalize(rng.random(8) + 1e-9).probs
            drafted = int(rng.integers(8))
            small = hood(p, drafted, 0.01)
            large = hood(p, drafted, 0.05)
            assert small <= large

    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        data=st.data(),
        tau=st.floats(1e-6, 1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_neighborhood(self, weights, data, tau):
        if sum(weights) == 0.0:
            weights[0] = 1.0
        p = normalize(weights)
        drafted = data.draw(st.integers(0, len(weights) - 1))
        assert hood(p.probs, drafted, tau) == ref.build_neighborhood(p, drafted, tau)


class TestPhraseScore:
    def test_identity_distributions(self):
        p = dist([0.6, 0.4])
        phrase = Phrase((0, 1), 1, 1)
        assert phrase_acceptance_score(np.array([p, p]), 0, p[None], [0, 0], phrase) == 0.0

    def test_hand_product(self):
        # ratios 1.4 and 0.6 -> ln(0.84), the phrase at slot 1 of 3: slot 0's
        # rows and drafter code are never read
        verifier = np.array([dist([0.0, 1.0]), dist([0.7, 0.3]), dist([0.3, 0.7])])
        rows = np.array([dist([1.0, 0.0]), dist([0.5, 0.5])])
        phrase = Phrase((0, 0), 1, 1)
        score = phrase_acceptance_score(verifier, 1, rows, [0, 1, 1], phrase)
        assert score == pytest.approx(math.log(0.84), rel=1e-12)

    def test_impossible_token_floor(self):
        verifier = np.array([dist([1.0, 0.0]), dist([0.5, 0.5])])
        rows = dist([0.5, 0.5])[None]
        phrase = Phrase((1, 0), 1, 1)
        score = phrase_acceptance_score(verifier, 0, rows, [0, 0], phrase)
        assert score == LOG_FLOOR
        # exp of the floor is the smallest subnormal double: acceptance
        # probability is effectively zero
        assert math.exp(score) <= 5e-324

    def test_drafter_zero_propagates(self):
        verifier = dist([0.5, 0.5])[None]
        rows = dist([1.0, 0.0])[None]
        with pytest.raises(DrafterZeroProb):
            phrase_acceptance_score(verifier, 0, rows, [0], Phrase((1,), 1, 1))


def _find_phrase(
    lib: PhraseLibrary,
    drafts: TokenSequence,
    t: int,
    verifier: np.ndarray,
    cfg: VerifyConfig,
) -> Phrase | None:
    """The first phrase, in trial order, that starts at slot t, fits the
    window and has every token inside its slot's neighborhood."""
    limit = min(len(drafts) - t, cfg.max_phrase_len)
    tau = cfg.tau
    for phrase in lib.index.get(drafts[t], ()):
        tokens = phrase.tokens
        n = len(tokens)
        if n > limit:
            continue
        # tokens[0] is drafts[t], always inside its own neighborhood
        for k in range(1, n):
            if not in_neighborhood(verifier, t + k, tokens[k], drafts[t + k], tau):
                break
        else:
            return phrase
    return None


class TestFindPhrase:
    """The trie walk against the linear scan of the trial order it replaced
    (``_find_phrase`` above, kept as the oracle)."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_linear_scan(self, data):
        # a small alphabet, so phrases share prefixes and two rules often
        # spell the same tokens; tokens above it have empty buckets
        vocab = data.draw(st.integers(1, 4))
        spellings = data.draw(
            st.lists(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=12), max_size=16)
        )
        counts = data.draw(st.lists(st.integers(0, 2), min_size=len(spellings),
                                    max_size=len(spellings)))
        phrases = tuple(
            Phrase(tuple(tokens), rank, count)
            for rank, (tokens, count) in enumerate(zip(spellings, counts), 1)
        )
        lib = PhraseLibrary(vocab + 1, (), phrases)
        W = data.draw(st.integers(1, 10))
        drafts = tuple(data.draw(st.lists(st.integers(0, vocab), min_size=W, max_size=W)))
        # dyadic probabilities and tau: |p - p'| lands exactly on tau
        levels = st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5])
        verifier = np.array(
            data.draw(st.lists(st.lists(levels, min_size=vocab + 1, max_size=vocab + 1),
                               min_size=W, max_size=W))
        )
        cfg = VerifyConfig(
            mode="sjd_pv",
            window_size=W,
            tau=data.draw(st.sampled_from([0.125, 0.25, 0.3])),
            max_phrase_len=data.draw(st.integers(2, 9)),
        )
        for t in range(W):
            expected = _find_phrase(lib, drafts, t, verifier, cfg)
            assert decoder._find_phrase(lib, drafts, t, verifier, cfg) is expected

    def test_five_thousand_token_phrase_decodes(self):
        # 4,999 chained rules spelling 5,000 zeros: the trie is built and
        # walked without recursion, and the walk stops at the window's end
        rules = tuple(MergeRule(max(k - 1, 0), 0, k, k) for k in range(1, 5000))
        lib = PhraseLibrary(1, rules, (Phrase((0,) * 5000, 4999, 1),))
        model = random_markov(2, 4, 0.5, np.random.default_rng(0))
        cfg = VerifyConfig(mode="sjd_pv", window_size=16)
        tokens, metrics = decode(model, lib, cfg, 64, np.random.default_rng(1))
        assert len(tokens) == 64
        assert metrics.phrase_attempts == 0


class TestVerifyPhrase:
    def test_zero_score_always_accepts(self):
        rng = np.random.default_rng(0)
        assert all(verify_phrase(0.0, rng) for _ in range(1000))

    def test_floor_never_accepts(self):
        rng = np.random.default_rng(1)
        assert not any(verify_phrase(LOG_FLOOR, rng) for _ in range(1000))

    @pytest.mark.parametrize("score", [LOG_FLOOR, LOG_FLOOR - 1.0, float("-inf")])
    def test_floor_rejects_a_zero_uniform(self, score):
        # a zero-probability phrase stays rejected even when the uniform is
        # exactly 0.0, and the test still draws exactly one uniform
        class ZeroUniform:
            draws = 0

            def random(self):
                self.draws += 1
                return 0.0

        rng = ZeroUniform()
        assert math.exp(LOG_FLOOR) == 0.0
        assert not verify_phrase(score, rng)
        assert rng.draws == 1

    def test_monte_carlo_frequency(self):
        rng = np.random.default_rng(2)
        n = 10**5
        hits = sum(verify_phrase(math.log(0.84), rng) for _ in range(n))
        assert abs(hits / n - 0.84) < 0.01


class TestVerifyToken:
    def test_identity_always_accepts(self):
        p = dist([0.3, 0.7])
        rng = np.random.default_rng(0)
        for _ in range(500):
            accepted, emitted = verify_token(p, p, 1, rng)
            assert accepted and emitted == 1

    def test_residual_formula(self):
        p, q = dist([0.7, 0.3]), dist([0.5, 0.5])
        rng = np.random.default_rng(3)
        n = 10**5
        accepts = 0
        for _ in range(n):
            accepted, emitted = verify_token(p, q, 1, rng)
            if accepted:
                accepts += 1
                assert emitted == 1
            else:
                # residual normalize(max(0, p - q)) = [1, 0]
                assert emitted == 0
        assert abs(accepts / n - 0.6) < 0.01

    def test_zero_target_mass_always_rejects(self):
        p, q = dist([1.0, 0.0]), dist([0.5, 0.5])
        rng = np.random.default_rng(4)
        for _ in range(200):
            accepted, emitted = verify_token(p, q, 1, rng)
            assert not accepted and emitted == 0

    def test_zero_drafter_prob(self):
        p, q = dist([0.5, 0.5]), dist([1.0, 0.0])
        with pytest.raises(DrafterZeroProb):
            verify_token(p, q, 1, np.random.default_rng(0))

    def test_degenerate_residual_guard(self):
        class RiggedRng:
            def random(self):
                return 1.0  # unreachable for a real generator

        p = dist([0.5, 0.5])
        with pytest.raises(DegenerateResidual):
            verify_token(p, p, 0, RiggedRng())


class TestVerifyWindow:
    def test_greedy_fixed_point_commits_whole_window(self):
        model = random_markov(1, 4, 0.4, np.random.default_rng(8))
        cfg = VerifyConfig(mode="sjd", window_size=6, greedy=True)
        prefix = (0,)
        drafts = []
        ctx = prefix
        for _ in range(6):
            drafts.append(int(np.argmax(model.conditional(ctx).probs)))
            ctx = ctx + (drafts[-1],)
        window = JacobiWindow(tuple(drafts), window_codes(model, prefix, drafts))
        metrics = DecodeMetrics()
        committed, _ = verify_window(
            prefix, window, model, None, cfg, np.random.default_rng(0), metrics
        )
        assert committed == tuple(drafts)
        assert metrics.nfe == 1
        assert metrics.token_accepts == 6

    def test_identity_distributions_phrase_accept(self):
        model = random_markov(1, 4, 0.4, np.random.default_rng(12))
        prefix = ()
        drafts = (1, 2, 3)
        window = JacobiWindow(drafts, window_codes(model, prefix, drafts))
        lib = PhraseLibrary(4, (), (Phrase(drafts, 1, 1),))
        cfg = VerifyConfig(mode="sjd_pv", window_size=3, tau=0.5)
        metrics = DecodeMetrics()
        committed, _ = verify_window(
            prefix, window, model, lib, cfg, np.random.default_rng(0), metrics
        )
        assert metrics.phrase_attempts == 1
        assert metrics.phrase_accepts == 1
        assert committed[:3] == drafts

    def test_sjd_pv_requires_library(self):
        # checked once, by decode, before the first window is drafted
        model = random_markov(1, 2, 1.0, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sjd_pv mode requires a phrase library"):
            decode(model, None, VerifyConfig(mode="sjd_pv"), 8, rng)
        assert rng.bit_generator.state == state


class TestDecodeMetrics:
    COUNTERS = ("nfe", "tokens_emitted", "token_accepts", "token_rejects",
                "phrase_attempts", "phrase_accepts")

    def test_counts_are_the_int_counters_in_report_order(self):
        metrics = DecodeMetrics(*range(1, 7), tokens_per_iteration=[3, 4])
        assert list(metrics.counts().items()) == list(zip(self.COUNTERS, range(1, 7)))

    def test_merge_adds_counters_and_extends_iterations(self):
        totals = DecodeMetrics(*range(1, 7), tokens_per_iteration=[3])
        part = DecodeMetrics(*range(10, 70, 10), tokens_per_iteration=[5, 6])
        iterations = totals.tokens_per_iteration
        totals.merge(part)
        assert totals.counts() == dict(zip(self.COUNTERS, (11, 22, 33, 44, 55, 66)))
        assert totals.tokens_per_iteration == [3, 5, 6]
        assert totals.tokens_per_iteration is iterations
        assert part.tokens_per_iteration == [5, 6]


def sparse_markov(order, vocab, zeros, seed):
    """A random Markov model whose rows hold exact zeros (at least one
    positive entry each)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in markov_contexts(order, vocab):
        row = rng.dirichlet(np.full(vocab, 0.5)) * (rng.random(vocab) >= zeros)
        if row.sum() == 0.0:
            row[rng.integers(vocab)] = 1.0
        rows.append(normalize(row).probs)
    return MarkovModel(order, vocab, rows)


class TestRefillDrafts:
    @given(
        order=st.integers(1, 2),
        vocab=st.integers(2, 6),
        zeros=st.sampled_from([0.0, 0.5, 0.8]),
        seed=st.integers(0, 2**16),
        window=st.integers(1, 8),
        mode=st.sampled_from(["sjd", "sjd_pv", "jacobi"]),
        greedy=st.booleans(),
        u=st.sampled_from([None, 0.0, BELOW_ONE]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_refill_draft_has_positive_drafter_probability(
        self, order, vocab, zeros, seed, window, mode, greedy, u
    ):
        model = sparse_markov(order, vocab, zeros, seed)
        corpus = [ancestral_sample(model, 30, np.random.default_rng([seed, k])) for k in range(4)]
        lib = build_library(corpus, 12, vocab_size=vocab)
        cfg = VerifyConfig(mode=mode, window_size=window, tau=0.2, greedy=greedy)
        rng = np.random.default_rng(seed) if u is None else FixedRng(u)
        prefix = ()
        codes = [model.context_code(())] * window
        win = JacobiWindow(tuple(int(np.flatnonzero(model.rows[c])[0]) for c in codes), codes)
        metrics = DecodeMetrics()
        for _ in range(6):
            committed, win = verify_window(prefix, win, model, lib, cfg, rng, metrics)
            prefix = (prefix + committed)[-order:]
            drafter_probs = [model.rows[c, d] for c, d in zip(win.codes, win.drafts)]
            assert min(drafter_probs) > 0.0


class TestDecode:
    def test_window_one_degenerates_to_ancestral(self):
        model = random_markov(1, 3, 0.7, np.random.default_rng(2))
        cfg = VerifyConfig(mode="sjd", window_size=1)
        seq, metrics = decode(model, None, cfg, 32, np.random.default_rng(0))
        assert len(seq) == 32
        assert metrics.nfe == 32

    def test_nfe_equals_iterations(self):
        model = random_markov(1, 4, 0.5, np.random.default_rng(6))
        cfg = VerifyConfig(mode="sjd", window_size=8)
        _, metrics = decode(model, None, cfg, 100, np.random.default_rng(1))
        assert metrics.nfe == metrics.iterations
        assert metrics.tokens_emitted == sum(metrics.tokens_per_iteration) == 100

    def test_greedy_jacobi_matches_sequential_greedy(self):
        for seed in range(5):
            model = random_markov(1, 6, 0.4, np.random.default_rng(seed))
            n = 48
            sequential = []
            for _ in range(n):
                row = model.conditional(tuple(sequential))
                sequential.append(int(np.argmax(row.probs)))
            cfg = VerifyConfig(mode="jacobi", window_size=8, greedy=True)
            seq, metrics = decode(model, None, cfg, n, np.random.default_rng(0))
            assert list(seq) == sequential
            assert metrics.iterations <= n

    def test_sjd_preserves_marginals(self):
        # light version of the losslessness check; the acceptance suite runs
        # the full-scale criterion
        model = random_markov(1, 3, 0.6, np.random.default_rng(4))
        n, runs = 12, 3000
        cfg = VerifyConfig(mode="sjd", window_size=4)
        from phrasedec.models import ancestral_sample

        rng_a, rng_b = np.random.default_rng(10), np.random.default_rng(11)
        decoded = np.array([decode(model, None, cfg, n, rng_a)[0] for _ in range(runs)])
        reference = np.array([ancestral_sample(model, n, rng_b) for _ in range(runs)])
        for pos in range(n):
            fa = np.bincount(decoded[:, pos], minlength=3) / runs
            fb = np.bincount(reference[:, pos], minlength=3) / runs
            assert 0.5 * np.abs(fa - fb).sum() < 0.05

    def test_non_termination_guard(self, monkeypatch):
        model = random_markov(1, 2, 1.0, np.random.default_rng(0))

        def stuck(prefix, window, target, lib, cfg, rng, metrics):
            metrics.nfe += 1
            metrics.tokens_per_iteration.append(0)
            return (), window

        monkeypatch.setattr(decoder, "verify_window", stuck)
        with pytest.raises(NonTermination):
            decode(model, None, VerifyConfig(mode="sjd"), 4, np.random.default_rng(0))

    def test_phrase_mode_reduces_nfe_on_planted_benchmark(self):
        from phrasedec.harness import planted_phrase_corpus

        corpus, model = planted_phrase_corpus(
            32, 6, 5, 40, 192, 0.95, np.random.default_rng(21)
        )
        lib = build_library(corpus, 256, vocab_size=32)
        nfe = {}
        for mode in ("sjd", "sjd_pv"):
            cfg = VerifyConfig(mode=mode, window_size=16, tau=0.01)
            total = 0
            for run in range(8):
                rng = np.random.default_rng([99, run])
                _, metrics = decode(
                    model, lib if mode == "sjd_pv" else None, cfg, 192, rng
                )
                total += metrics.nfe
            nfe[mode] = total
        assert nfe["sjd_pv"] < nfe["sjd"]

    def test_library_vocab_exceeds_model(self, monkeypatch):
        model = random_markov(1, 4, 0.5, np.random.default_rng(0))
        lib = PhraseLibrary(40, (), (Phrase((0, 39), 1, 1),))
        calls = []
        monkeypatch.setattr(decoder, "verify_window", lambda *a: calls.append(a))
        for mode in ("sjd", "sjd_pv"):
            with pytest.raises(LibraryVocabMismatch):
                decode(model, lib, VerifyConfig(mode=mode), 8, np.random.default_rng(0))
        assert calls == []  # raised before the first NFE

    def test_library_vocab_within_model(self):
        model = random_markov(1, 4, 0.5, np.random.default_rng(0))
        lib = PhraseLibrary(3, (), (Phrase((0, 2), 1, 1),))
        seq, _ = decode(model, lib, VerifyConfig(mode="sjd_pv"), 8, np.random.default_rng(0))
        assert len(seq) == 8


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            VerifyConfig(mode="turbo")

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            VerifyConfig(tau=0.0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            VerifyConfig(window_size=0)

    def test_bad_max_phrase_len(self):
        for bad in (-1, 0, 1):
            with pytest.raises(ValueError):
                VerifyConfig(max_phrase_len=bad)
        assert VerifyConfig(max_phrase_len=2).max_phrase_len == 2

    def test_window_invariant(self):
        # the begin row puts no mass on token 0, so a window drafting 0 there
        # cannot be verified
        model = MarkovModel(1, 2, [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        window = JacobiWindow((0,), [model.context_code(())])
        lib = PhraseLibrary(2, (), ())
        for mode in MODES:
            with pytest.raises(ValueError, match="a draft token has zero drafter probability"):
                verify_window((), window, model, lib, VerifyConfig(mode=mode, greedy=True),
                              np.random.default_rng(0), DecodeMetrics())

import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decoder as ref
from reference_models import in_neighborhood
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
    phrase_acceptance_score,
    verify_phrase,
    verify_token,
    verify_window,
)
from phrasedec.harness import ExperimentConfig, planted_phrase_corpus
from phrasedec.models import (
    MarkovModel,
    ancestral_corpus,
    ancestral_sample,
    context_codes,
    exact_marginals,
    markov_contexts,
    random_markov,
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
    """p and q are both read from one table: p at the slot's verifier row
    codes[j], q at its drafter row drafter[j]."""

    def test_identity_distributions(self):
        p = dist([0.6, 0.4])
        phrase = Phrase((0, 1), 1, 1)
        assert phrase_acceptance_score(p[None], 0, [0, 0], [0, 0], phrase) == 0.0

    def test_hand_product(self):
        # ratios 1.4 and 0.6 -> ln(0.84), the phrase at slot 1 of 3: slot 0's
        # verifier row and drafter code are never read
        probs = np.array([dist([1.0, 0.0]), dist([0.5, 0.5]), dist([0.7, 0.3]), dist([0.3, 0.7])])
        phrase = Phrase((0, 0), 1, 1)
        score = phrase_acceptance_score(probs, 1, [9, 2, 3], [9, 1, 1], phrase)
        assert score == pytest.approx(math.log(0.84), rel=1e-12)

    def test_impossible_token_floor(self):
        probs = np.array([dist([0.5, 0.5]), dist([1.0, 0.0])])
        phrase = Phrase((1, 0), 1, 1)
        score = phrase_acceptance_score(probs, 0, [1, 0], [0, 0], phrase)
        assert score == LOG_FLOOR
        # exp of the floor is the smallest subnormal double: acceptance
        # probability is effectively zero
        assert math.exp(score) <= 5e-324

    @pytest.mark.parametrize("q", [1e-320, 0.05], ids=["tiny_drafter", "ordinary_drafter"])
    def test_impossible_token_floors_the_whole_phrase(self, q):
        # slot 0's token has p = 0; slots 1-2 have ratio 0.5 / q, which once
        # lifted the floored sum back up (to 726.3 with q = 1e-320, an
        # accept without a draw, and to -741.4 with q = 0.05, whose exp is
        # positive, so a uniform of 0.0 accepted it)
        probs = np.array([dist([0.0, 1.0]), dist([0.5, 0.5]), dist([q, 1.0 - q])])
        score = phrase_acceptance_score(probs, 0, [0, 1, 1], [1, 2, 2], Phrase((0, 0, 0), 1, 1))
        assert score == LOG_FLOOR
        assert not verify_phrase(score, FixedRng(0.0))

    def test_drafter_zero_propagates(self):
        probs = np.array([dist([0.5, 0.5]), dist([1.0, 0.0])])
        with pytest.raises(DrafterZeroProb):
            phrase_acceptance_score(probs, 0, [0], [1], Phrase((1,), 1, 1))

    def test_drafter_zero_outranks_an_impossible_token(self):
        # p = 0 at slot 0 and q = 0 at slot 1: every drafter probability is
        # read, so the phrase is non-verifiable rather than floored
        probs = np.array([dist([0.0, 1.0]), dist([0.5, 0.5]), dist([1.0, 0.0])])
        with pytest.raises(DrafterZeroProb):
            phrase_acceptance_score(probs, 0, [0, 1], [1, 2], Phrase((0, 1), 1, 1))

    @pytest.mark.parametrize("t, tokens", [(2, (0, 1)), (0, (0, 1, 0, 1)), (-1, (0,))])
    def test_phrase_past_the_window_rejected(self, t, tokens):
        probs = dist([0.5, 0.5])[None]
        with pytest.raises(ValueError, match=f"a phrase of {len(tokens)} tokens at slot {t} "
                                             "runs past the window"):
            phrase_acceptance_score(probs, t, [0, 0, 0], [0, 0, 0], Phrase(tokens, 1, 1))


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
            assert decoder._find_phrase(lib, drafts, t, verifier, range(W), cfg) is expected

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
        # the greedy draft from the window's own rows is that argmax window
        rows = model.evaluate(prefix, drafts)
        window = decoder._draft(rows, rows.idx, True, np.random.default_rng(0))
        assert window.drafts == tuple(drafts)
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
        rows = model.evaluate(prefix, drafts)
        window = marked_drawn(rows.probs, drafts, rows.idx)
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

    @pytest.mark.parametrize("greedy", [False, True])
    def test_sjd_pv_without_library_rejected_before_any_draw(self, greedy):
        model = random_markov(1, 2, 1.0, np.random.default_rng(0))
        window = drafted(model, [0], greedy)
        rng, metrics = np.random.default_rng(0), DecodeMetrics()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sjd_pv mode requires a phrase library"):
            verify_window((), window, model, None, VerifyConfig(mode="sjd_pv", greedy=greedy),
                          rng, metrics)
        assert rng.bit_generator.state == state
        assert metrics == DecodeMetrics()

    @pytest.mark.parametrize("prefix", [(-3,), (9,), (1, -1)])
    def test_prefix_token_outside_the_vocabulary_rejected(self, prefix):
        # order 1, V=4: unchecked, (-3,) would verify against row -2 and
        # return a window of code -2, and (9,) would index past the table
        model = random_markov(1, 4, 0.5, np.random.default_rng(0))
        lib = PhraseLibrary(4, (), ())
        for mode in MODES:
            for greedy in (False, True):
                window = drafted(model, [0] * 3, greedy)
                rng, metrics = np.random.default_rng(0), DecodeMetrics()
                state = rng.bit_generator.state
                with pytest.raises(ValueError, match=rf"prefix token {prefix[-1]} is outside"):
                    verify_window(prefix, window, model, lib,
                                  VerifyConfig(mode=mode, window_size=3, greedy=greedy),
                                  rng, metrics)
                assert rng.bit_generator.state == state
                assert metrics == DecodeMetrics()


def drafted(model, codes, greedy, rng=None):
    """A window the decoder drafts from the given rows of model."""
    rng = np.random.default_rng(2) if rng is None else rng
    return decoder._draft(model.evaluate((), (0,)), codes, greedy, rng)


def marked_drawn(table, drafts, codes):
    """A hand-built window marked, as ``_draft`` marks its windows, as drawn
    from a model's table: for a test that needs exact drafts."""
    window = decoder._DrawnWindow(tuple(drafts), tuple(codes))
    window.table = table
    return window


NOT_DRAFTED = "the window was not drafted by the decoder from this model"

# order 1, V=3: code 0 is the begin context, whose row gives token 0 no mass
BOUNDARY_ROWS = [[0.0, 0.5, 0.5], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.4, 0.3, 0.3]]
BOUNDARY_MODEL = MarkovModel(1, 3, BOUNDARY_ROWS)


class TestWindowBoundary:
    """verify_window verifies only the windows the decoder drafted from the
    target's table; it refuses any other, valid or not, before any draw and
    in every mode."""

    @pytest.mark.parametrize(
        "build, message",
        [
            # built by hand: malformed, then valid (a copy of a drafted window)
            (lambda: JacobiWindow((), []), "draft window must contain at least one token"),
            (lambda: JacobiWindow((1, 2), [0]), NOT_DRAFTED),
            (lambda: JacobiWindow((1,), [0, 1]), NOT_DRAFTED),
            (lambda: JacobiWindow((1, -1), [0, 2]), NOT_DRAFTED),
            (lambda: JacobiWindow((1, 3), [0, 2]), NOT_DRAFTED),
            (lambda: JacobiWindow((1, 2), [0, -1]), NOT_DRAFTED),
            (lambda: JacobiWindow((1, 2), [0, 4]), NOT_DRAFTED),
            (lambda: JacobiWindow((0, 2), [0, 1]), NOT_DRAFTED),
            # a draft past the target's tables, which evaluate cannot read
            (lambda: JacobiWindow((10**6, 0), [0, 1]), NOT_DRAFTED),
            (lambda: JacobiWindow(*drafted(BOUNDARY_MODEL, [0, 1, 2], False)), NOT_DRAFTED),
            # rebuilt from a drafted window, unchanged: still a _DrawnWindow
            (lambda: drafted(BOUNDARY_MODEL, [0, 1, 2], False)._replace(), NOT_DRAFTED),
            # drafted from another model: order 2, V=8, whose code 40 is
            # outside the order-1 table's 4 rows; one of the same shape whose
            # begin row drafts token 0, which the target's gives no mass; and
            # a valid one, drafting token 1 from every row
            (lambda: drafted(random_markov(2, 8, 0.5, np.random.default_rng(0)), [40] * 3, True),
             NOT_DRAFTED),
            (lambda: drafted(MarkovModel(1, 3, [[1.0, 0.0, 0.0]] * 4), [0] * 3, True),
             NOT_DRAFTED),
            (lambda: drafted(MarkovModel(1, 3, [[0.0, 1.0, 0.0]] * 4), [0, 1, 2], True),
             NOT_DRAFTED),
            # order 1, V=8, drafting token 7 from every row: its drafts
            # (7, 7, 7) walk past the target's tables
            (lambda: drafted(MarkovModel(1, 8, [[0.0] * 7 + [1.0]] * 9), [0] * 3, True),
             NOT_DRAFTED),
            # drafted from a second, equal instance of the target
            (lambda: drafted(MarkovModel(1, 3, BOUNDARY_ROWS), [0, 1, 2], False), NOT_DRAFTED),
        ],
        ids=[
            "hand-empty", "hand-more-drafts", "hand-more-codes", "hand-negative-token",
            "hand-token-past-vocab", "hand-negative-code", "hand-code-past-rows",
            "hand-zero-drafter-prob", "hand-token-past-tables", "hand-valid", "replaced",
            "foreign-code-past-rows", "foreign-zero-drafter-prob", "foreign-valid",
            "foreign-token-past-tables", "equal-target",
        ],
    )
    def test_undrafted_window_is_refused(self, build, message):
        window = build()
        lib = PhraseLibrary(3, (), ())
        for mode in MODES:
            for greedy in (False, True):
                rng = np.random.default_rng(0)
                state = rng.bit_generator.state
                metrics = DecodeMetrics()
                with pytest.raises(ValueError, match=message):
                    verify_window((), window, BOUNDARY_MODEL, lib,
                                  VerifyConfig(mode=mode, window_size=3, greedy=greedy),
                                  rng, metrics)
                assert rng.bit_generator.state == state
                assert metrics == DecodeMetrics()

    def test_decode_verifies_only_windows_drawn_from_its_target(self, monkeypatch):
        model = random_markov(2, 5, 0.5, np.random.default_rng(3))
        lib = PhraseLibrary(5, (), (Phrase((1, 2), 1, 1),))
        table = model.evaluate((), (0,)).probs
        windows = []
        verify = decoder.verify_window

        def spy(prefix, window, *rest):
            windows.append(window)
            return verify(prefix, window, *rest)

        monkeypatch.setattr(decoder, "verify_window", spy)
        for mode in MODES:
            for greedy in (False, True):
                cfg = VerifyConfig(mode=mode, window_size=4, greedy=greedy)
                _, metrics = decode(model, lib, cfg, 40, np.random.default_rng(1))
                assert len(windows) == metrics.nfe
                for window in windows:
                    assert type(window) is decoder._DrawnWindow
                    assert window.table is table
                windows.clear()


class LoggedTable(np.ndarray):
    """A model table that logs each read as (table, op, key); what a read
    returns is a plain array or scalar, so reads of a returned row are not
    logged."""

    def _plain(self, op, key):
        self.log.append((self.name, op, key))
        return self.view(np.ndarray)

    def item(self, *args):
        return self._plain("item", args).item(*args)

    def __getitem__(self, key):
        return self._plain("getitem", key)[key]

    def take(self, indices, *args, **kwargs):
        return self._plain("take", indices).take(indices, *args, **kwargs)


class LoggedTuple(tuple):
    """The model's argmax table, logging each lookup like ``LoggedTable``."""

    def __getitem__(self, key):
        self.log.append((self.name, "getitem", key))
        return tuple.__getitem__(self, key)


def read_rows(op, key):
    """The rows one logged read touches, and whether it gathers several."""
    if op == "take":
        return list(key), True
    if op == "item" or isinstance(key, tuple):
        key = key[0]
    if isinstance(key, (int, np.integer)):
        return [key], False
    return [None], True  # a fancy index or a slice: its rows count as unpaid


class TestRowHonesty:
    """Each ``verify_window`` call makes one ``evaluate`` call and reads the
    model's tables only at the rows that call returned (``idx``) and at the
    window's codes, rows of the call that drafted the window; no read
    gathers a copy of the window's probability rows.  A spy swaps the
    model's tables for ones that log every read, so a read that bypasses
    ``evaluate`` is logged too."""

    @pytest.fixture(scope="class")
    def spied(self):
        c = ExperimentConfig()
        corpus, model = planted_phrase_corpus(
            c.vocab_size, c.phrase_count, c.phrase_len, 20, 128, c.planting_rate,
            np.random.default_rng([0, 0]),
        )
        lib = build_library(corpus, 64, vocab_size=c.vocab_size)
        log, calls = [], []
        for name, attr in (("probs", "rows"), ("breaks", "breaks")):
            table = getattr(model, attr).view(LoggedTable)
            table.name, table.log = name, log
            setattr(model, attr, table)
        model.argmax = LoggedTuple(model.argmax)
        model.argmax.name, model.argmax.log = "argmax", log
        evaluate = model.evaluate
        model.evaluate = lambda *a: calls.append(evaluate(*a)) or calls[-1]
        return model, lib, log, calls

    def iterations(self, monkeypatch, spied, mode, greedy):
        """Decode 256 tokens; per verify_window call: its evaluate calls,
        the reads outside its rows and the window's codes, and its gathers
        of probability rows.  Also the reads made outside any call, at rows
        no evaluate call since the previous one returned."""
        model, lib, log, calls = spied
        records, stray = [], []
        verify = decoder.verify_window

        def watching(prefix, window, *rest):
            allowed = {i for rows in calls for i in rows.idx}
            stray.extend(e for e in log if not set(read_rows(*e[1:])[0]) <= allowed)
            log.clear()
            calls.clear()
            out = verify(prefix, window, *rest)
            allowed = set(window.codes).union(calls[0].idx if calls else ())
            reads = [(name, *read_rows(op, key)) for name, op, key in log]
            records.append((
                len(calls),
                [r for r in reads if not set(r[1]) <= allowed],
                [r for r in reads if r[0] == "probs" and r[2]],
                len(reads),
            ))
            log.clear()
            calls.clear()
            return out

        monkeypatch.setattr(decoder, "verify_window", watching)
        log.clear()
        calls.clear()
        cfg = VerifyConfig(mode=mode, tau=0.05, greedy=greedy)
        _, metrics = decode(model, lib, cfg, 256, np.random.default_rng(7))
        monkeypatch.setattr(decoder, "verify_window", verify)
        assert len(records) == metrics.nfe
        return records, stray, metrics

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_each_iteration_reads_only_rows_computed_for_it(
        self, monkeypatch, spied, mode, greedy
    ):
        records, stray, metrics = self.iterations(monkeypatch, spied, mode, greedy)
        assert stray == []
        for evaluates, outside, gathers, reads in records:
            assert evaluates == 1
            assert outside == []
            assert gathers == []
            assert reads > 0
        if mode == "sjd_pv":
            assert metrics.phrase_attempts > 0

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_refill_from_an_uncomputed_row_is_caught(self, monkeypatch, spied, mode, greedy):
        # the cheat drafts slot 0 of the next window from the row after the
        # committed tokens, which no evaluate call computed: it decodes sjd at
        # about half the NFE, and only the spy notices
        honest = decoder.verify_window

        def cheat(prefix, window, target, lib, cfg, rng, metrics):
            committed, refill = honest(prefix, window, target, lib, cfg, rng, metrics)
            code = target.context_code((tuple(prefix) + committed)[-target.order :])
            if cfg.greedy:
                slot0 = target.argmax[code]
            else:
                slot0 = int(target.breaks[code].searchsorted(rng.random(), "right"))
            # forged as the decoder's own draft, as a cheating decoder would
            forged = marked_drawn(refill.table, (slot0, *refill.drafts[1:]),
                                  (code, *refill.codes[1:]))
            return committed, forged

        monkeypatch.setattr(decoder, "verify_window", cheat)
        records, _, _ = self.iterations(monkeypatch, spied, mode, greedy)
        assert any(outside for _, outside, _, _ in records)


class TestScanEndsAfterADifferingPhrase:
    """Later slots of a window are tested against rows conditioned on the
    drafts, so once an accepted phrase commits tokens that differ from
    them, the iteration must test nothing more: the refill re-drafts those
    slots from the committed tokens.  Wrappers log each iteration's tests,
    as ``TestRowHonesty`` wraps ``verify_window``; the joint score's call
    gives each phrase test its slot and tokens."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 9: verify_window keeps scanning after an accepted "
        "phrase that differs from its drafts",
    )
    def test_no_test_after_an_accepted_phrase_that_differs(self, monkeypatch):
        model = random_markov(2, 6, 0.3, np.random.default_rng(3))
        corpus = ancestral_corpus(model, 40, 64, np.random.default_rng(4))
        lib = build_library(corpus, 64, vocab_size=6)
        iterations, placed = [], []
        originals = {
            name: getattr(decoder, name)
            for name in ("verify_window", "phrase_acceptance_score", "verify_phrase", "verify_token")
        }

        def verify_window(prefix, window, *rest):
            iterations.append((window.drafts, []))
            return originals["verify_window"](prefix, window, *rest)

        def phrase_acceptance_score(probs, t, codes, drafter, phrase):
            placed.append((t, phrase.tokens))
            return originals["phrase_acceptance_score"](probs, t, codes, drafter, phrase)

        def verify_phrase(score, rng):
            accepted = originals["verify_phrase"](score, rng)
            iterations[-1][1].append((accepted, *placed[-1]))
            return accepted

        def verify_token(*args):
            iterations[-1][1].append((None, None, None))
            return originals["verify_token"](*args)

        for wrapper in (verify_window, phrase_acceptance_score, verify_phrase, verify_token):
            monkeypatch.setattr(decoder, wrapper.__name__, wrapper)
        cfg = VerifyConfig(mode="sjd_pv", tau=0.2)
        decode(model, lib, cfg, 512, np.random.default_rng(5))

        differing = 0
        for drafts, tests in iterations:
            for i, (accepted, t, tokens) in enumerate(tests):
                if accepted and tokens != drafts[t : t + len(tokens)]:
                    differing += 1
                    assert tests[i + 1 :] == []
                    break
        assert differing > 0


class TestTargetInterface:
    """The decoder treats its target as a black box: it reads only
    ``evaluate`` and ``vocab_size``, so another model needs no decoder edit."""

    def test_decoder_reads_only_evaluate_and_vocab_size(self):
        tree = ast.parse(inspect.getsource(decoder))
        reads = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "target"
        }
        assert reads == {"evaluate", "vocab_size"}


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
        # a uniform of 0.0 draws each row's first positive token
        code = model.context_code(())
        win = drafted(model, [code] * window, False, FixedRng(0.0))
        assert win.drafts == (int(np.flatnonzero(model.rows[code])[0]),) * window
        metrics = DecodeMetrics()
        for _ in range(6):
            committed, win = verify_window(prefix, win, model, lib, cfg, rng, metrics)
            prefix = (prefix + committed)[-order:]
            drafter_probs = [model.rows[c, d] for c, d in zip(win.codes, win.drafts)]
            assert min(drafter_probs) > 0.0


class TestDraftInvariant:
    """Each rule of ``_draft`` picks a token of positive probability under
    its row, the fact that lets verify_window skip checking the windows the
    decoder drafts."""

    # order 1, V=5; every row is zero at both ends.  The begin row's 1e-300
    # is lost to its cumulative sum, and the last row's 1e-300 is its first
    # positive entry
    ROWS = [
        [0.0, 0.5, 0.5, 1e-300, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.3, 0.0, 0.7, 0.0],
        [0.0, 0.25, 0.5, 0.25, 0.0],
        [0.0, 0.6, 0.4, 0.0, 0.0],
        [0.0, 1e-300, 0.0, 1.0, 0.0],
    ]

    @pytest.mark.parametrize(
        "greedy, u, tokens",
        [
            (False, 0.0, [1, 2, 1, 1, 1, 1]),
            (False, BELOW_ONE, [2, 2, 3, 3, 2, 3]),
            (True, 0.0, [1, 2, 3, 2, 1, 3]),
            (True, BELOW_ONE, [1, 2, 3, 2, 1, 3]),
        ],
    )
    def test_begin_and_zero_edged_rows(self, greedy, u, tokens):
        model = MarkovModel(1, 5, self.ROWS)
        begin = model.evaluate((), (0,)).idx
        for codes in (begin * 4, list(range(len(self.ROWS)))):
            window = drafted(model, codes, greedy, FixedRng(u))
            assert type(window) is decoder._DrawnWindow
            assert window.codes == tuple(codes)
            assert list(window.drafts) == [tokens[c] for c in codes]
            assert min(model.rows[c, d] for c, d in zip(window.codes, window.drafts)) > 0.0

    @given(
        order=st.integers(1, 2),
        vocab=st.integers(2, 6),
        zeros=st.sampled_from([0.0, 0.5, 0.8]),
        seed=st.integers(0, 2**16),
        greedy=st.booleans(),
        u=st.sampled_from([None, 0.0, BELOW_ONE]),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_reachable_row(self, order, vocab, zeros, seed, greedy, u):
        model = sparse_markov(order, vocab, zeros, seed)
        codes = context_codes(order, vocab).tolist()
        rng = np.random.default_rng(seed) if u is None else FixedRng(u)
        window = drafted(model, codes, greedy, rng)
        assert type(window) is decoder._DrawnWindow
        assert min(model.rows[c, d] for c, d in zip(window.codes, window.drafts)) > 0.0


def chi2_against(seqs, marginals, min_expected=5.0):
    """Per position, over independent sequences: the chi-square statistic
    per degree of freedom against the exact marginals, with the tokens whose
    expected count is below min_expected pooled into one cell.  Returns the
    mean over positions, the largest |z| of an unpooled cell and the number
    of tokens drawn where their marginal is zero."""
    seqs = np.asarray(seqs)
    n, length = seqs.shape
    ratios, z_max, impossible = [], 0.0, 0
    for t in range(length):
        p = marginals[t]
        observed = np.bincount(seqs[:, t], minlength=len(p))
        expected = n * p
        impossible += int(observed[p == 0.0].sum())
        big = expected >= min_expected
        obs = np.append(observed[big], observed[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        keep = exp > 0.0
        ratios.append(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum() / (keep.sum() - 1))
        z = (observed[big] - expected[big]) / np.sqrt(expected[big] * (1.0 - p[big]))
        z_max = max(z_max, float(np.abs(z).max()))
    return float(np.mean(ratios)), z_max, impossible


def planted_model():
    """The planted generator's model at the config defaults (V=32, order 2)."""
    c = ExperimentConfig()
    _, model = planted_phrase_corpus(c.vocab_size, c.phrase_count, c.phrase_len, 1, 1,
                                     c.planting_rate, np.random.default_rng([0, 0]))
    return model


class TestSjdExactMarginals:
    # Bounds: over 200 seeds of 2,000 ancestral samples, the mean ratio
    # reached at most 1.28 on either model (sd 0.08 and 0.09) and the
    # largest |z| 4.8.  Drawing a rejected slot from p instead of the
    # residual gives 2.45 and 10.4 on the random model; on the planted one,
    # where slot 0 accepts 7% of drafts, that fault stays below the noise
    @pytest.mark.parametrize(
        "build",
        [planted_model, lambda: random_markov(2, 8, 1.0, np.random.default_rng([0, 0]))],
        ids=["planted", "random"],
    )
    def test_sjd_matches_exact_marginals_position_by_position(self, build):
        # 2,000 decodes of 32 tokens (two windows) against the exact
        # marginals; ancestral sampling meets the same bounds
        model = build()
        runs, length = 2000, 32
        marginals = exact_marginals(model, length)
        cfg = VerifyConfig(mode="sjd")
        decoded = [decode(model, None, cfg, length, np.random.default_rng([19, 1, r]))[0]
                   for r in range(runs)]
        sampled = [ancestral_sample(model, length, np.random.default_rng([19, 2, r]))
                   for r in range(runs)]
        for seqs in (sampled, decoded):
            mean_ratio, z_max, impossible = chi2_against(seqs, marginals)
            assert impossible == 0
            assert mean_ratio < 1.4
            assert z_max < 5.5


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
        calls = []

        def stuck(prefix, window, target, lib, cfg, rng, metrics):
            calls.append(1)
            metrics.nfe += 1
            metrics.tokens_per_iteration.append(0)
            return (), window

        monkeypatch.setattr(decoder, "verify_window", stuck)
        with pytest.raises(NonTermination, match="no convergence after 40 iterations"):
            decode(model, None, VerifyConfig(mode="sjd"), 4, np.random.default_rng(0))
        # the guard's bound, 10 * total_len NFEs, read from metrics.nfe
        assert len(calls) == 10 * 4

    def test_phrase_mode_reduces_nfe_on_planted_benchmark(self):
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

    def test_request_wider_than_the_block_is_a_read_only_view(self, monkeypatch):
        """A request wider than BLOCK is served from a block of its own
        width, read-only like every other, and sync still replays it."""
        monkeypatch.setattr(decoder, "BLOCK", 7)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        stream = decoder._Uniforms(rng)
        first, wide = stream.random(), stream.random(16)
        assert not wide.flags.writeable
        assert [first, *wide.tolist()] == [ref_rng.random() for _ in range(17)]
        stream.sync()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_library_vocab_within_model(self):
        model = random_markov(1, 4, 0.5, np.random.default_rng(0))
        lib = PhraseLibrary(3, (), (Phrase((0, 2), 1, 1),))
        seq, _ = decode(model, lib, VerifyConfig(mode="sjd_pv"), 8, np.random.default_rng(0))
        assert len(seq) == 8


class TestPlainSettings:
    """VerifyConfig keeps each setting as the plain Python value the hot
    loop computes with, whatever scalar it was given."""

    def test_numpy_scalars_are_stored_as_python_values(self):
        cfg = VerifyConfig("sjd_pv", np.int64(4), np.float32(0.01), np.int32(3), np.bool_(True))
        stored = (cfg.window_size, cfg.tau, cfg.max_phrase_len, cfg.greedy)
        assert [type(value) for value in stored] == [int, float, int, bool]
        assert stored == (4, float(np.float32(0.01)), 3, True)

    def test_float32_tau_keeps_a_neighbor_the_float64_test_keeps(self):
        # the phrase's token 1 lies 0.00999999975 from the drafted token 2:
        # inside tau = float(float32(0.01)) = 0.0099999997765 in float64,
        # as the harness stores tau, while float32(0.00999999975) equals
        # float32(0.01), so a float32 test (NumPy 2's rule for a float32
        # tau) drops it
        phrase = Phrase((0, 1), 1, 1)
        lib = PhraseLibrary(3, (), (phrase,))
        probs = np.array([[1.0, 0.0, 0.0], [0.99000000025, 0.00999999975, 0.0]])
        assert 0.00999999975 < float(np.float32(0.01))
        for tau in (np.float32(0.01), float(np.float32(0.01))):
            cfg = VerifyConfig("sjd_pv", 2, tau)
            assert decoder._find_phrase(lib, (0, 2), 0, probs, [0, 1], cfg) is phrase


class TestSeams:
    """perfbench's PhraseWatch rebuilds each phrase decision from the calls
    it observes: one ``verify_window`` per iteration, one ``verify_token``
    per token test, and one ``phrase_acceptance_score`` then, unless the
    score raised DrafterZeroProb, one ``verify_phrase`` per phrase test.
    Each seam is counted through the module attribute the tracer patches,
    so a seam inlined into its caller goes uncounted."""

    SEAMS = ("verify_window", "verify_token", "phrase_acceptance_score", "verify_phrase")

    @staticmethod
    def inputs(build):
        """A model, a 256-merge library of its corpus, and a tau; the sparse
        model's zeros make some phrase scores raise DrafterZeroProb."""
        if build == "planted":
            corpus, model = planted_phrase_corpus(32, 6, 5, 40, 192, 0.95, np.random.default_rng(21))
            return model, build_library(corpus, 256, vocab_size=32), 0.01
        if build == "random":
            model = random_markov(2, 8, 0.3, np.random.default_rng(5))
        else:
            model = sparse_markov(2, 6, 0.3, 0)
        corpus = [ancestral_sample(model, 192, np.random.default_rng([5, k])) for k in range(40)]
        tau = 0.01 if build == "random" else 0.2
        return model, build_library(corpus, 256, vocab_size=model.vocab_size), tau

    @pytest.mark.parametrize("build", ["planted", "random", "sparse"])
    def test_each_test_calls_its_seam_once(self, monkeypatch, build):
        model, lib, tau = self.inputs(build)
        calls = dict.fromkeys(self.SEAMS, 0)
        returned = dict.fromkeys(self.SEAMS, 0)

        def counted(name, fn):
            def seam(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                returned[name] += 1
                return result
            return seam

        for name in self.SEAMS:
            monkeypatch.setattr(decoder, name, counted(name, getattr(decoder, name)))
        accepts = raised = 0
        for run in range(4):
            for name in self.SEAMS:
                calls[name] = returned[name] = 0
            cfg = VerifyConfig(mode="sjd_pv", window_size=16, tau=tau)
            _, metrics = decode(model, lib, cfg, 192, np.random.default_rng(run))
            assert calls["verify_window"] == metrics.nfe
            assert calls["verify_token"] == metrics.token_accepts + metrics.token_rejects
            assert calls["phrase_acceptance_score"] == metrics.phrase_attempts
            assert calls["verify_phrase"] == returned["phrase_acceptance_score"]
            accepts += metrics.phrase_accepts
            raised += calls["phrase_acceptance_score"] - returned["phrase_acceptance_score"]
        assert accepts > 0
        assert raised > 0 if build == "sparse" else raised == 0


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            VerifyConfig(mode="turbo")

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            VerifyConfig(tau=0.0)

    def test_bad_window(self):
        for bad in (0, 2.5, "16", None):
            with pytest.raises(ValueError, match="window_size"):
                VerifyConfig(window_size=bad)
        assert VerifyConfig(window_size=np.int64(3)).window_size == 3

    def test_bad_max_phrase_len(self):
        for bad in (-1, 0, 1, 2.5, "8"):
            with pytest.raises(ValueError, match="max_phrase_len"):
                VerifyConfig(max_phrase_len=bad)
        assert VerifyConfig(max_phrase_len=2).max_phrase_len == 2

    def test_greedy_must_be_a_bool(self):
        for bad in ("no", 0, 1, None):
            with pytest.raises(ValueError, match="greedy must be a bool"):
                VerifyConfig(greedy=bad)
        assert VerifyConfig(greedy=np.bool_(True)).greedy

    @pytest.mark.parametrize("total_len", [0, -4])
    def test_nothing_to_decode_rejected_before_any_draw(self, total_len):
        model = random_markov(1, 3, 0.5, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="total_len must be >= 1"):
            decode(model, None, VerifyConfig(), total_len, rng)
        assert rng.bit_generator.state == state

    def test_window_invariant(self):
        # the begin row puts no mass on token 0, so a window drafting 0 there
        # cannot be verified: the decoder never drafts it, and refuses it
        # built by hand
        model = MarkovModel(1, 2, [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        window = JacobiWindow((0,), [model.context_code(())])
        lib = PhraseLibrary(2, (), ())
        for mode in MODES:
            for greedy in (False, True):
                with pytest.raises(ValueError, match=NOT_DRAFTED):
                    verify_window((), window, model, lib,
                                  VerifyConfig(mode=mode, greedy=greedy),
                                  np.random.default_rng(0), DecodeMetrics())

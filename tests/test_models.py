import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_core import BELOW_ONE, FixedRng
from test_samplers import sparse_model
from phrasedec import models
from phrasedec.core import CategoricalDistribution, InvalidWeight, draw, normalize
from phrasedec.models import (
    PAD,
    MarkovModel,
    UnsupportedModelFormat,
    ancestral_corpus,
    ancestral_sample,
    context_codes,
    exact_marginals,
    load_markov,
    markov_contexts,
    random_markov,
    save_markov,
)


def order1_model(rows: dict[int, list[float]], begin: list[float]) -> MarkovModel:
    # stacked in markov_contexts order: (PAD,), (0,), (1,), ...
    stack = [normalize(begin).probs] + [normalize(rows[tok]).probs for tok in range(len(begin))]
    return MarkovModel(1, len(begin), stack)


@pytest.fixture
def two_state():
    return order1_model({0: [0.9, 0.1], 1: [0.3, 0.7]}, begin=[0.6, 0.4])


class TestConditional:
    def test_table_lookup(self, two_state):
        assert two_state.conditional((1, 0)).probs.tolist() == [0.9, 0.1]

    def test_empty_prefix_begin_row(self, two_state):
        assert two_state.conditional(()).probs.tolist() == [0.6, 0.4]

    def test_depends_on_last_k_only(self, two_state):
        rows = [two_state.conditional(prefix).probs for prefix in [(0, 1, 0), (1, 1, 0)]]
        assert np.array_equal(*rows)

    def test_missing_row_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel(1, 2, [normalize([1, 1]).probs])

    @pytest.mark.parametrize(
        "order, vocab, message",
        [(0, 2, "order must be >= 1"), (1, 1, "vocab_size must be >= 2")],
    )
    def test_impossible_shape_rejected(self, order, vocab, message):
        rows = np.full(((vocab + 1) ** order, vocab), 1.0 / vocab)
        with pytest.raises(ValueError, match=message):
            MarkovModel(order, vocab, rows)

    def test_a_table_over_the_limit_is_refused(self, monkeypatch):
        # an order-1, V=2 table has 3 * 2 = 6 entries; the limit is inclusive
        rows = [[0.5, 0.5]] * 3
        monkeypatch.setattr(models, "TABLE_LIMIT", 6)
        assert MarkovModel(1, 2, rows).rows.size == 6
        monkeypatch.setattr(models, "TABLE_LIMIT", 5)
        with pytest.raises(ValueError, match="the model table has more than 5 entries"):
            MarkovModel(1, 2, rows)

    def test_bad_row_is_named(self):
        rows = [[0.5, 0.5], [0.9, 0.1], [0.7, 0.2]]
        with pytest.raises(InvalidWeight, match="transition probabilities: row 2 sums to 0.8"):
            MarkovModel(1, 2, rows)
        with pytest.raises(InvalidWeight, match="must be finite and non-negative"):
            MarkovModel(1, 2, [[0.5, 0.5], [1.5, -0.5], [0.7, 0.3]])


class TestEvaluate:
    """A window's conditionals, batched in one ``evaluate`` call: the
    model's own tables, uncopied, and the row of each slot."""

    def test_single_position(self, two_state):
        rows = two_state.evaluate((0,), (1,))
        assert len(rows.idx) == 1
        assert np.array_equal(rows.probs[rows.idx[0]], two_state.conditional((0,)).probs)
        assert rows.probs is two_state.rows
        assert rows.breaks is two_state.breaks
        assert rows.argmax is two_state.argmax

    def test_order1_lookups(self, two_state):
        rows = two_state.evaluate((1,), (0, 1))
        assert np.array_equal(rows.probs[rows.idx[0]], two_state.conditional((1,)).probs)
        assert np.array_equal(rows.probs[rows.idx[1]], two_state.conditional((0,)).probs)

    def test_matches_incremental_recomputation(self):
        rng = np.random.default_rng(5)
        model = random_markov(2, 3, 0.8, rng)
        prefix = (0, 2, 1)
        drafts = (2, 0, 0, 1, 2)
        rows = model.evaluate(prefix, drafts)
        for j in range(len(drafts)):
            assert np.array_equal(
                rows.probs[rows.idx[j]], model.conditional(prefix + drafts[:j]).probs
            )

    def test_empty_window_rejected(self, two_state):
        with pytest.raises(ValueError, match="at least one token"):
            two_state.evaluate((), ())

    @pytest.mark.parametrize("token", [-3, -1, 4, 9])
    def test_prefix_token_outside_the_vocabulary_rejected(self, token):
        # order 1, V=4: unchecked, -3 would read row -2 and 9 a row past the table
        model = random_markov(1, 4, 0.5, np.random.default_rng(0))
        message = rf"prefix token {token} is outside \[0, 4\)"
        with pytest.raises(ValueError, match=message):
            model.evaluate((token,), (1, 2))
        with pytest.raises(ValueError, match=message):
            model.evaluate((2, token), (1,))
        # only the last order tokens are read
        assert model.evaluate((token, 2), (1,)).idx == model.evaluate((2,), (1,)).idx


class TestContextRule:
    """``context_code`` is the one rule from a prefix to a table row: the
    last ``order`` tokens as base-(V+1) digits, each in [0, V).  PAD is
    accepted only by ``conditional``, as the left padding of the contexts
    ``markov_contexts`` writes."""

    SHAPES = [(order, vocab) for order in (1, 2, 3) for vocab in range(2, 6)]

    @staticmethod
    def digits_code(symbols, vocab_size):
        # each symbol as one base-(V+1) digit, PAD as 0 and token v as v + 1
        code = 0
        for sym in symbols:
            code = code * (vocab_size + 1) + sym + 1
        return code

    @staticmethod
    def model(order, vocab_size):
        return random_markov(order, vocab_size, 0.5, np.random.default_rng([order, vocab_size]))

    @pytest.mark.parametrize("order, vocab", SHAPES)
    def test_codes_read_each_context_as_digits(self, order, vocab):
        codes = context_codes(order, vocab)
        assert codes.dtype == np.intp
        assert codes.tolist() == [
            self.digits_code(ctx, vocab) for ctx in markov_contexts(order, vocab)
        ]

    @pytest.mark.parametrize("order, vocab", SHAPES)
    def test_conditional_of_each_context_is_its_row(self, order, vocab):
        model = self.model(order, vocab)
        codes = context_codes(order, vocab)
        for ctx, code in zip(markov_contexts(order, vocab), codes, strict=True):
            assert np.array_equal(model.conditional(ctx).probs, model.rows[code])

    @pytest.mark.parametrize("order, vocab", SHAPES)
    def test_evaluate_reads_the_prefix_by_context_code(self, order, vocab):
        model = self.model(order, vocab)
        for length in range(order + 2):
            for prefix in itertools.product(range(vocab), repeat=length):
                code = model.context_code(prefix)
                assert code == self.digits_code(prefix[-order:], vocab)
                assert model.evaluate(prefix, (0,)).idx[0] == code

    @pytest.mark.parametrize(
        "order, prefix, token", [(1, (-3,), -3), (1, (9,), 9), (2, (1, PAD), PAD)]
    )
    def test_a_token_outside_the_vocabulary_is_named(self, order, prefix, token):
        # unchecked, (-3,) read the row of token 2, (9,) a row past the
        # table and (1, PAD) a zero row no context reaches
        model = self.model(order, 4)
        message = rf"prefix token {token} is outside \[0, 4\)"
        with pytest.raises(ValueError, match=message):
            model.context_code(prefix)
        with pytest.raises(ValueError, match=message):
            model.conditional(prefix)
        with pytest.raises(ValueError, match=message):
            model.evaluate(prefix, (0,))


class TestAncestralSample:
    def test_zero_length(self, two_state):
        assert ancestral_sample(two_state, 0, np.random.default_rng(0)) == ()

    def test_negative_length_rejected_before_any_draw(self, two_state):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="length must be >= 0"):
            ancestral_sample(two_state, -1, rng)
        assert rng.bit_generator.state == state

    def test_deterministic_chain(self):
        model = order1_model({0: [0, 1], 1: [1, 0]}, begin=[1, 0])
        assert ancestral_sample(model, 5, np.random.default_rng(0)) == (0, 1, 0, 1, 0)

    def test_joint_matches_chain_rule(self, two_state):
        # exact joint by chain-rule enumeration vs 1e5 empirical draws
        n_steps, runs = 3, 10**5
        exact = {}
        for seq in itertools.product(range(2), repeat=n_steps):
            prob = 1.0
            for i in range(n_steps):
                prob *= two_state.conditional(seq[:i]).prob(seq[i])
            exact[seq] = prob
        rng = np.random.default_rng(11)
        counts = {}
        for _ in range(runs):
            seq = ancestral_sample(two_state, n_steps, rng)
            counts[seq] = counts.get(seq, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(seq, 0) / runs - p) for seq, p in exact.items()
        )
        assert tv < 0.01


class TestAncestralCorpus:
    @given(
        order=st.integers(1, 3),
        vocab=st.integers(2, 6),
        zeros=st.sampled_from([0.0, 0.5, 0.8]),
        trailing=st.integers(0, 3),
        seed=st.integers(0, 2**16),
        sequences=st.integers(0, 5),
        length=st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_lockstep_equals_one_sample_at_a_time(
        self, order, vocab, zeros, trailing, seed, sequences, length
    ):
        model = sparse_model(order, vocab, zeros, min(trailing, vocab - 1), seed)
        lockstep, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
        corpus = ancestral_corpus(model, sequences, length, lockstep)
        assert corpus == [ancestral_sample(model, length, one_by_one) for _ in range(sequences)]
        assert all(type(tok) is int for seq in corpus for tok in seq)
        assert lockstep.random() == one_by_one.random()

    @pytest.mark.parametrize(
        "u, expected",
        [
            # the largest uniform a generator returns skips the trailing zeros
            (BELOW_ONE, 1),
            # a uniform that reaches the total clamps to the last token, V - 1
            (1.0, 3),
        ],
    )
    def test_fixed_uniform_draws_as_draw_and_ancestral_sample(self, u, expected):
        row = [0.25, 0.75, 0.0, 0.0]
        model = order1_model({tok: row for tok in range(4)}, begin=row)
        corpus = ancestral_corpus(model, 3, 5, FixedRng(u))
        assert corpus == [(expected,) * 5] * 3
        assert corpus[0] == ancestral_sample(model, 5, FixedRng(u))
        assert draw(np.cumsum(model.rows[0]), FixedRng(u)) == expected

    def test_negative_size_rejected(self, two_state):
        for sequences, length in [(-1, 4), (4, -1)]:
            with pytest.raises(ValueError, match="must be >= 0"):
                ancestral_corpus(two_state, sequences, length, np.random.default_rng(0))


class TestExactMarginals:
    @given(
        order=st.integers(1, 3),
        vocab=st.integers(2, 4),
        zeros=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**16),
        length=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_enumerated_joint(self, order, vocab, zeros, seed, length):
        # the marginal of position t sums the chain-rule probability of every
        # sequence of the given length with that token at t
        model = sparse_model(order, vocab, zeros, 0, seed)
        expected = np.zeros((length, vocab))
        for seq in itertools.product(range(vocab), repeat=length):
            prob = 1.0
            for i, tok in enumerate(seq):
                prob *= model.rows[model.context_code(seq[:i]), tok]
            expected[np.arange(length), seq] += prob
        marginals = exact_marginals(model, length)
        assert marginals.shape == (length, vocab)
        assert np.allclose(marginals, expected, rtol=0.0, atol=1e-12)
        assert np.allclose(marginals.sum(axis=1), 1.0)

    def test_first_position_is_the_begin_row(self):
        model = random_markov(2, 5, 0.5, np.random.default_rng(4))
        assert np.array_equal(exact_marginals(model, 1)[0], model.rows[model.context_code(())])

    def test_negative_length_rejected(self, two_state):
        with pytest.raises(ValueError, match="length must be >= 0"):
            exact_marginals(two_state, -1)


class TestRandomMarkov:
    def test_high_concentration_near_uniform(self):
        model = random_markov(1, 4, 1e4, np.random.default_rng(3))
        for ctx in markov_contexts(1, 4):
            assert np.all(np.abs(model.conditional(ctx).probs - 0.25) < 0.05)

    @pytest.mark.parametrize("concentration", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_concentration_rejected_before_any_draw(self, concentration):
        # the config's rule; a NaN or infinite one used to draw every row and
        # then fail the table's check
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="concentration must be finite and > 0"):
            random_markov(1, 3, concentration, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "order, vocab, message",
        [(0, 4, "order must be >= 1"), (1, 1, "vocab_size must be >= 2")],
    )
    def test_bad_shape_rejected_before_any_draw(self, order, vocab, message):
        # the model's rule; both used to draw every row first
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            random_markov(order, vocab, 0.3, rng)
        assert rng.bit_generator.state == state

    def test_seed_reproducible(self):
        a = random_markov(2, 3, 0.5, np.random.default_rng(9))
        b = random_markov(2, 3, 0.5, np.random.default_rng(9))
        assert np.array_equal(a.rows, b.rows)

    def test_context_count(self):
        model = random_markov(1, 2, 1.0, np.random.default_rng(0))
        # (V + 1) ** order rows; with order 1 every one is reachable:
        # (PAD,), (0,) and (1,)
        assert model.rows.shape == (3, 2)
        assert np.allclose(model.rows.sum(axis=1), 1.0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = random_markov(2, 4, 0.6, np.random.default_rng(21))
        path = tmp_path / "model.psdm"
        save_markov(model, path)
        loaded = load_markov(path)
        assert loaded.order == model.order
        assert loaded.vocab_size == model.vocab_size
        assert np.array_equal(loaded.rows, model.rows)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(UnsupportedModelFormat):
            load_markov(path)

    def test_unknown_version(self, tmp_path):
        model = random_markov(1, 2, 1.0, np.random.default_rng(0))
        path = tmp_path / "model.psdm"
        save_markov(model, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedModelFormat):
            load_markov(path)

    @given(
        order=st.integers(1, 3),
        vocab=st.integers(2, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_fuzz(self, tmp_path_factory, order, vocab, seed):
        model = random_markov(order, vocab, 0.5, np.random.default_rng(seed))
        path = tmp_path_factory.mktemp("rt") / "model.psdm"
        save_markov(model, path)
        loaded = load_markov(path)
        assert (loaded.order, loaded.vocab_size) == (order, vocab)
        assert np.array_equal(loaded.rows, model.rows)
        again = path.with_name("again.psdm")
        save_markov(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_file_rejected(self, tmp_path_factory, data):
        model = random_markov(2, 3, 0.5, np.random.default_rng(1))
        path = tmp_path_factory.mktemp("trunc") / "model.psdm"
        save_markov(model, path)
        full = path.read_bytes()
        cut = data.draw(st.integers(0, len(full) - 1))
        path.write_bytes(full[:cut])
        with pytest.raises(UnsupportedModelFormat):
            load_markov(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.psdm"
        save_markov(random_markov(1, 3, 0.5, np.random.default_rng(0)), path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(UnsupportedModelFormat):
            load_markov(path)

    @pytest.mark.parametrize("order, vocab", [(0, 4), (1, 1), (2**31, 2), (3, 2**31)])
    def test_impossible_header_rejected(self, tmp_path, order, vocab):
        path = tmp_path / "model.psdm"
        path.write_bytes(b"PSDM" + struct.pack("<HII", 1, order, vocab) + b"\0" * 64)
        with pytest.raises(UnsupportedModelFormat):
            load_markov(path)

    def test_a_table_over_the_limit_is_refused(self, tmp_path, monkeypatch):
        # an order-2, V=3 file is well formed, but its table of 4 ** 2 * 3 =
        # 48 entries is over a limit of 47: refused before the table is built
        path = tmp_path / "model.psdm"
        save_markov(random_markov(2, 3, 0.5, np.random.default_rng(0)), path)
        monkeypatch.setattr(models, "TABLE_LIMIT", 47)
        with pytest.raises(UnsupportedModelFormat, match="the model table has more than 47"):
            load_markov(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.25, 0.9])
    def test_invalid_row_rejected(self, tmp_path, bad):
        model = random_markov(1, 2, 0.5, np.random.default_rng(0))
        path = tmp_path / "model.psdm"
        save_markov(model, path)
        data = bytearray(path.read_bytes())
        # last row is [p, 1 - p]; overwrite p
        struct.pack_into("<d", data, len(data) - 16, bad)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidWeight):
            load_markov(path)

    def test_canonical_context_order(self):
        ctxs = list(markov_contexts(1, 2))
        assert ctxs == [(PAD,), (0,), (1,)]

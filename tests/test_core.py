import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phrasedec.core import (
    LOG_FLOOR,
    AllZeroWeights,
    CategoricalDistribution,
    DrafterZeroProb,
    InvalidWeight,
    log_ratio,
    normalize,
    sample,
)


class TestNormalize:
    def test_symmetric_weights(self):
        assert normalize([2, 2]).probs.tolist() == [0.5, 0.5]

    def test_identity_case(self):
        assert normalize([1, 0, 0]).probs.tolist() == [1.0, 0.0, 0.0]

    def test_hand_division(self):
        assert normalize([7, 3]).probs.tolist() == [0.7, 0.3]

    def test_all_zero(self):
        with pytest.raises(AllZeroWeights):
            normalize([0.0, 0.0])

    def test_negative(self):
        with pytest.raises(InvalidWeight):
            normalize([1.0, -0.5])

    def test_nan(self):
        with pytest.raises(InvalidWeight):
            normalize([1.0, float("nan")])

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=16)
    )
    def test_idempotent_bitwise(self, weights):
        once = normalize(weights)
        twice = normalize(once.probs)
        assert np.array_equal(once.probs, twice.probs)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8)
    )
    def test_proportionality(self, weights):
        out = normalize(weights).probs
        w = np.asarray(weights)
        expected = w / w.sum()
        assert np.allclose(out, expected, rtol=1e-12)


class TestCategoricalDistribution:
    def test_sum_tolerance(self):
        with pytest.raises(ValueError):
            CategoricalDistribution([0.5, 0.5 + 1e-6])

    def test_negative_entry(self):
        with pytest.raises(InvalidWeight):
            CategoricalDistribution([1.2, -0.2])

    @pytest.mark.parametrize(
        "build, row, message",
        [
            (CategoricalDistribution, [0.5, 0.5 + 1e-6], "probabilities sum to 1.0000"),
            (CategoricalDistribution, [0.5, float("nan")], "probabilities must be finite"),
            (normalize, [1.0, -0.5], "weights must be finite and non-negative"),
            (normalize, [1.0, float("inf")], "weights must be finite and non-negative"),
            # the total overflows, so the scaled row is all zeros
            pytest.param(
                normalize,
                [1e308, 1e308],
                "probabilities sum to 0.0, not 1",
                marks=pytest.mark.filterwarnings("ignore:overflow"),
            ),
        ],
    )
    def test_every_bad_row_is_an_invalid_weight(self, build, row, message):
        with pytest.raises(InvalidWeight, match=message):
            build(row)

    def test_immutable(self):
        d = CategoricalDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestLogProbRatio:
    def test_hand_value(self):
        p = CategoricalDistribution([0.7, 0.3])
        q = CategoricalDistribution([0.5, 0.5])
        got = log_ratio(p.prob(0), q.prob(0))
        assert got == pytest.approx(math.log(1.4), rel=1e-12)

    def test_identity(self):
        p = CategoricalDistribution([0.4, 0.6])
        assert log_ratio(p.prob(1), p.prob(1)) == 0.0

    def test_zero_numerator_floor(self):
        p = CategoricalDistribution([1.0, 0.0])
        q = CategoricalDistribution([0.8, 0.2])
        assert log_ratio(p.prob(1), q.prob(1)) == LOG_FLOOR

    def test_zero_drafter_prob(self):
        p = CategoricalDistribution([0.5, 0.5])
        q = CategoricalDistribution([1.0, 0.0])
        with pytest.raises(DrafterZeroProb):
            log_ratio(p.prob(1), q.prob(1))

    @given(st.data())
    @settings(max_examples=200)
    def test_exp_recovers_ratio(self, data):
        v_size = data.draw(st.integers(2, 6))
        pw = data.draw(
            st.lists(st.floats(0.01, 10.0), min_size=v_size, max_size=v_size)
        )
        qw = data.draw(
            st.lists(st.floats(0.01, 10.0), min_size=v_size, max_size=v_size)
        )
        v = data.draw(st.integers(0, v_size - 1))
        p, q = normalize(pw), normalize(qw)
        got = math.exp(log_ratio(p.prob(v), q.prob(v)))
        assert got == pytest.approx(p.prob(v) / q.prob(v), rel=1e-12)


class TestSample:
    def test_degenerate(self):
        d = CategoricalDistribution([1.0, 0.0, 0.0]).probs
        rng = np.random.default_rng(0)
        assert all(sample(d, rng) == 0 for _ in range(100))

    def test_deterministic_given_seed(self):
        d = CategoricalDistribution([0.5, 0.5]).probs
        draws1 = [sample(d, np.random.default_rng(42)) for _ in range(1)]
        draws2 = [sample(d, np.random.default_rng(42)) for _ in range(1)]
        assert draws1 == draws2
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        assert [sample(d, rng_a) for _ in range(50)] == [
            sample(d, rng_b) for _ in range(50)
        ]

    def test_law_of_large_numbers(self):
        d = CategoricalDistribution([0.7, 0.3]).probs
        rng = np.random.default_rng(123)
        n = 10**5
        hits = sum(sample(d, rng) == 0 for _ in range(n))
        assert abs(hits / n - 0.7) < 0.01

    def test_batch_draws_match_row_by_row(self):
        rows = normalize([1.0, 2.0, 3.0, 0.0]).probs[None].repeat(5, axis=0)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert sample(rows, rng_a).tolist() == [int(sample(r, rng_b)) for r in rows]
        assert rng_a.random() == rng_b.random()

    def test_uniform_rounding_to_total_clamps_to_last_token(self):
        class RiggedRng:
            def random(self, shape):
                return np.ones(shape)  # unreachable for a real generator

        rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        assert sample(rows, RiggedRng()).tolist() == [2, 2]


class FixedRng:
    """Returns one fixed uniform, for a single draw or a batch."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


# weights with exact zeros, subnormals and a wide range of magnitudes
WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e-300))
BELOW_ONE = float(np.nextafter(1.0, 0.0))


def oracle_draw(row, u):
    """The per-slot reference rule: count of cdf entries <= u * total, clamped."""
    cdf = np.cumsum(row)
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(row) - 1)


class TestSampleOneRowPath:
    """``sample`` on a 1-D row takes a binary-search path; a batch takes a
    vectorised one.  Both must draw the same tokens from the same uniforms."""

    @given(data=st.data(), rows=st.integers(1, 6), vocab=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_one_row_equals_batch_row_by_row(self, data, rows, vocab, seed):
        probs = np.array(data.draw(st.lists(
            st.lists(WEIGHTS, min_size=vocab, max_size=vocab), min_size=rows, max_size=rows
        )))
        rng_batch, rng_rows = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sample(probs, rng_batch)
        one_by_one = [sample(row, rng_rows) for row in probs]
        assert all(type(tok) is int for tok in one_by_one)
        assert batch.tolist() == one_by_one
        assert rng_batch.bit_generator.state == rng_rows.bit_generator.state

    @given(row=st.lists(WEIGHTS, min_size=1, max_size=9),
           u=st.one_of(st.just(0.0), st.just(BELOW_ONE), st.floats(0.0, 1.0, exclude_max=True)))
    # a total of exactly the smallest normal float: u * total rounds up to
    # the total, and the draw, like the oracle's, clamps to a zero entry
    @example(row=[float(np.finfo(float).tiny), 0.0], u=BELOW_ONE)
    @settings(max_examples=300, deadline=None)
    def test_fixed_uniform_matches_oracle(self, row, u):
        row = np.array(row)
        expected = oracle_draw(row, u)
        assert sample(row, FixedRng(u)) == expected
        assert sample(row[None].repeat(3, axis=0), FixedRng(u)).tolist() == [expected] * 3
        if row.sum() > np.finfo(float).tiny:
            # below 1, u * total stays below a total above the smallest
            # normal float: never a zero entry
            assert row[expected] > 0.0

    def test_largest_uniform_skips_trailing_zeros(self):
        row = np.array([0.25, 0.75, 0.0, 0.0])
        assert sample(row, FixedRng(BELOW_ONE)) == 1
        assert sample(row[None], FixedRng(BELOW_ONE)).tolist() == [1]

    def test_all_zero_row_clamps_to_last_token(self):
        row = np.zeros(3)
        assert sample(row, FixedRng(0.5)) == 2
        assert sample(row[None], FixedRng(0.5)).tolist() == [2]

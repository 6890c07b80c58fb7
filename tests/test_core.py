import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrasedec.core import (
    LOG_FLOOR,
    AllZeroWeights,
    CategoricalDistribution,
    DrafterZeroProb,
    InvalidWeight,
    log_prob_ratio,
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

    def test_immutable(self):
        d = CategoricalDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestLogProbRatio:
    def test_hand_value(self):
        p = CategoricalDistribution([0.7, 0.3])
        q = CategoricalDistribution([0.5, 0.5])
        assert log_prob_ratio(p, q, 0) == pytest.approx(math.log(1.4), rel=1e-12)

    def test_identity(self):
        p = CategoricalDistribution([0.4, 0.6])
        assert log_prob_ratio(p, p, 1) == 0.0

    def test_zero_numerator_floor(self):
        p = CategoricalDistribution([1.0, 0.0])
        q = CategoricalDistribution([0.8, 0.2])
        assert log_prob_ratio(p, q, 1) == LOG_FLOOR

    def test_zero_drafter_prob(self):
        p = CategoricalDistribution([0.5, 0.5])
        q = CategoricalDistribution([1.0, 0.0])
        with pytest.raises(DrafterZeroProb):
            log_prob_ratio(p, q, 1)

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
        got = math.exp(log_prob_ratio(p, q, v))
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

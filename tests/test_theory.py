import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrasedec.core import CategoricalDistribution, normalize
from phrasedec.harness import theory_check
from phrasedec.theory import (
    EnumerationTooLarge,
    alpha,
    alpha_phr_exact,
    alpha_phr_mc,
    alpha_seq,
    min_inequality_check,
    proposition1_sweep,
    random_instance,
)

P = CategoricalDistribution([0.7, 0.3])
Q = CategoricalDistribution([0.5, 0.5])


class TestAlpha:
    def test_identity(self):
        assert alpha(P, P) == 1.0

    def test_disjoint_supports(self):
        a = CategoricalDistribution([1.0, 0.0])
        b = CategoricalDistribution([0.0, 1.0])
        assert alpha(a, b) == 0.0

    def test_worked_case(self):
        # 0.5 * 1 + 0.5 * 0.6
        assert alpha(P, Q) == pytest.approx(0.8, abs=1e-12)

    def test_min_sum_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            v = int(rng.integers(2, 9))
            p = normalize(rng.dirichlet(np.full(v, 0.5)))
            q = normalize(rng.dirichlet(np.full(v, 0.5)))
            direct = float(np.minimum(p.probs, q.probs).sum())
            assert alpha(p, q) == pytest.approx(direct, abs=1e-12)


class TestAlphaSeq:
    def test_singleton(self):
        assert alpha_seq([P], [Q]) == alpha(P, Q)

    def test_product(self):
        assert alpha_seq([P, P], [Q, Q]) == pytest.approx(0.64, abs=1e-12)

    def test_identity_position_is_neutral(self):
        assert alpha_seq([P, Q], [Q, Q]) == pytest.approx(alpha(P, Q), abs=1e-12)


class TestAlphaPhrExact:
    def test_degenerate_length_one(self):
        assert alpha_phr_exact([P], [Q]) == pytest.approx(alpha(P, Q), abs=1e-12)

    def test_four_term_enumeration(self):
        # 0.25 * (1 + 0.84 + 0.84 + 0.36)
        assert alpha_phr_exact([P, P], [Q, Q]) == pytest.approx(0.76, abs=1e-12)

    def test_all_identical(self):
        assert alpha_phr_exact([P, P, P], [P, P, P]) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_guard(self):
        uniform = CategoricalDistribution([0.1] * 10)
        with pytest.raises(EnumerationTooLarge):
            alpha_phr_exact([uniform] * 8, [uniform] * 8)


class TestAlphaPhrMc:
    def test_constant_integrand(self):
        est, se = alpha_phr_mc([P, P], [P, P], 1000, np.random.default_rng(0))
        assert est == 1.0 and se == 0.0

    def test_matches_exact(self):
        est, se = alpha_phr_mc([P, P], [Q, Q], 10**6, np.random.default_rng(1))
        assert abs(est - 0.76) <= 3 * se

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p_list, q_list = random_instance(4, 3, rng)
            est, _ = alpha_phr_mc(p_list, q_list, 500, rng)
            assert 0.0 <= est <= 1.0


TWO = CategoricalDistribution([0.5, 0.5])
THREE = CategoricalDistribution([0.2, 0.3, 0.5])


def _mc(p_list, q_list, rng):
    return alpha_phr_mc(p_list, q_list, 100, rng)


class TestPairCheck:
    """One input rule for every oracle, checked before any draw."""

    LIST_ORACLES = [
        lambda p, q, rng: alpha_seq(p, q),
        lambda p, q, rng: alpha_phr_exact(p, q),
        _mc,
    ]
    IDS = ["alpha_seq", "alpha_phr_exact", "alpha_phr_mc"]

    @pytest.mark.parametrize("oracle", LIST_ORACLES, ids=IDS)
    def test_positions_of_different_sizes_rejected(self, oracle):
        # vocabularies (2, 3) against (3, 2): the joint laws have one size,
        # so this used to return 0.68 from alpha_phr_exact and raise a bare
        # IndexError from alpha_phr_mc
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="position 0: p and q must share a vocabulary size"):
            oracle([TWO, THREE], [THREE, TWO], rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("oracle", LIST_ORACLES, ids=IDS)
    @pytest.mark.parametrize(
        "p_list, q_list", [([], []), ([P], [Q, Q]), ([P, P], [Q])], ids=["empty", "short", "long"]
    )
    def test_empty_or_unequal_lists_rejected(self, oracle, p_list, q_list):
        with pytest.raises(ValueError, match="non-empty and equal length"):
            oracle(p_list, q_list, np.random.default_rng(0))

    def test_alpha_rejects_different_sizes(self):
        with pytest.raises(ValueError, match="must share a vocabulary size"):
            alpha(TWO, THREE)

    def test_later_position_is_named(self):
        with pytest.raises(ValueError, match="position 1: "):
            alpha_phr_exact([P, TWO], [Q, THREE])

    def test_mc_needs_a_sample(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="samples must be >= 1"):
            alpha_phr_mc([P], [Q], 0, rng)
        assert rng.bit_generator.state == state


class TestMinInequality:
    def test_single_ratio(self):
        res = min_inequality_check([1.96])
        assert res.lhs == res.rhs == 1.0 and res.holds

    def test_mixed_case(self):
        res = min_inequality_check([1.4, 0.6])
        assert res.lhs == pytest.approx(0.84)
        assert res.rhs == pytest.approx(0.6)
        assert res.holds

    def test_both_below_one_equality(self):
        res = min_inequality_check([0.5, 0.5])
        assert res.lhs == res.rhs == 0.25 and res.holds

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            min_inequality_check([1.0, -0.1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="ratios must be non-empty"):
            min_inequality_check([])

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8
        )
    )
    @settings(max_examples=500)
    def test_always_holds(self, ratios):
        assert min_inequality_check(ratios).holds


class TestProposition1:
    def test_no_violations_on_random_sweep(self):
        summary = proposition1_sweep(300, 8, 3, np.random.default_rng(3))
        assert summary.trials == 300
        assert summary.violations == 0
        assert summary.min_gap >= -1e-12

    def test_rejects_a_negative_trial_count(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            proposition1_sweep(-3, 8, 3, np.random.default_rng(3))
        assert proposition1_sweep(0, 8, 3, np.random.default_rng(3)).trials == 0

    @pytest.mark.parametrize(
        "v_max, l_max", [(64, 8), (10, 8), (2, 24), (2, 10**12), (3163, 2)]
    )
    def test_too_large_grid_raises_before_any_draw(self, v_max, l_max):
        # v_max ** l_max passes the guard: nothing is drawn, so a draw that
        # would reach an over-large instance is never made
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(EnumerationTooLarge, match=f"v_max={v_max}, l_max={l_max}"):
            proposition1_sweep(50, v_max, l_max, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("v_max, l_max", [(1, 3), (8, 0)])
    def test_degenerate_grid_rejected(self, v_max, l_max):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^(v_max must be >= 2|l_max must be >= 1)$"):
            proposition1_sweep(5, v_max, l_max, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("v_max, l_max", [(10, 7), (2, 23), (3162, 2)])
    def test_grid_at_the_guard_runs(self, v_max, l_max):
        # the largest instances of these grids hold at most 10**7 outcomes
        assert v_max**l_max <= 10**7
        assert proposition1_sweep(0, v_max, l_max, np.random.default_rng(3)).trials == 0

    @pytest.mark.parametrize("trials, min_ineq_trials", [(-3, 50), (20, -5), (-3, -5)])
    def test_theory_check_rejects_a_negative_trial_count(self, trials, min_ineq_trials):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            theory_check(trials=trials, min_inequality_trials=min_ineq_trials)

    def test_theory_check_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            theory_check(trials=5, min_inequality_trials=5, seed=-1)

    def test_identical_distributions_gap_zero(self):
        gap = alpha_phr_exact([P, P], [P, P]) - alpha_seq([P, P], [P, P])
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_length_one_gap_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p_list, q_list = random_instance(5, 1, rng)
            gap = alpha_phr_exact(p_list, q_list) - alpha_seq(p_list, q_list)
            assert abs(gap) <= 1e-12

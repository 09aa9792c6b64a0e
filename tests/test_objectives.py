import numpy as np
import pytest

from qsalab.errors import ConfigurationError
from qsalab.objectives import (
    StepProbabilities,
    cross_entropy_loss,
    renyi_alpha_loss,
    renyi_half_from_expectation,
)


def uniform_normalizers(values):
    return StepProbabilities(np.asarray(values), np.ones(len(values)))


class TestStepProbabilities:
    def test_ratio_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            StepProbabilities([1.5], [1.0])

    def test_raw_values_may_exceed_one(self):
        probs = StepProbabilities([3.0], [4.0])
        assert probs.ratios()[0] == 0.75

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            StepProbabilities([np.nan], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            StepProbabilities([0.5, 0.5], [1.0])


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy_loss(uniform_normalizers([1.0, 1.0])) == 0.0

    def test_inverse_e(self):
        probs = uniform_normalizers([np.exp(-1.0)] * 3)
        assert abs(cross_entropy_loss(probs) - 1.0) < 1e-12

    def test_dyadic_example(self):
        probs = uniform_normalizers([0.5, 0.25, 0.125, 0.0625])
        assert abs(cross_entropy_loss(probs) - 2.5 * np.log(2)) < 1e-12

    def test_zero_probability_clamped(self):
        loss = cross_entropy_loss(uniform_normalizers([0.0, 1.0]))
        assert np.isfinite(loss)
        assert loss > 30  # floored at 1e-30


class TestRenyiAlphaLoss:
    def test_perfect_prediction_is_zero(self):
        probs = uniform_normalizers([1.0] * 4)
        assert abs(renyi_alpha_loss(probs, 0.5)) < 1e-12

    def test_uniform_probabilities_give_log_t(self):
        t = 4
        probs = uniform_normalizers([1.0 / t] * t)
        assert abs(renyi_alpha_loss(probs, 0.5) - np.log(t)) < 1e-12

    def test_alpha_one_is_cross_entropy(self):
        rng = np.random.default_rng(0)
        probs = uniform_normalizers(rng.uniform(0.05, 1.0, size=5))
        assert renyi_alpha_loss(probs, 1.0) == cross_entropy_loss(probs)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            probs = uniform_normalizers(rng.uniform(0.01, 1.0, size=4))
            values = [renyi_alpha_loss(probs, a) for a in (0.3, 0.5, 0.7, 0.9, 1.0)]
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12)

    def test_invalid_alpha(self):
        probs = uniform_normalizers([0.5])
        with pytest.raises(ConfigurationError):
            renyi_alpha_loss(probs, 0.0)
        with pytest.raises(ConfigurationError):
            renyi_alpha_loss(probs, -1.0)

    def test_zero_only_for_perfect_prediction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            values = rng.uniform(0.01, 0.99, size=4)
            assert renyi_alpha_loss(uniform_normalizers(values), 0.5) > 1e-6


class TestLowerBound:
    def test_renyi_half_below_cross_entropy_thousand_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            probs = uniform_normalizers(rng.uniform(1e-4, 1.0, size=int(rng.integers(2, 8))))
            assert renyi_alpha_loss(probs, 0.5) <= cross_entropy_loss(probs) + 1e-12


class TestRenyiHalfFromExpectation:
    def test_full_expectation(self):
        assert abs(renyi_half_from_expectation(1.0, 4) - np.log(4)) < 1e-12

    def test_sixteenth(self):
        expected = np.log(16) + np.log(4)
        assert abs(renyi_half_from_expectation(1.0 / 16, 4) - expected) < 1e-12

    def test_consistency_with_divergence_formula(self):
        # with aligned phases the overlap observable equals
        # |sum_j sqrt(p_j/N_j)|^2 / T, and -log of it plus log T is the
        # alpha = 1/2 loss
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = int(rng.choice([2, 4, 8]))
            ratios = rng.uniform(0.01, 1.0, size=t)
            probs = uniform_normalizers(ratios)
            observable = float(np.sum(np.sqrt(ratios))) ** 2 / t
            direct = renyi_half_from_expectation(observable, t)
            formula = renyi_alpha_loss(probs, 0.5)
            assert abs(direct - formula) < 1e-10

    def test_floor(self):
        assert np.isfinite(renyi_half_from_expectation(0.0, 4))


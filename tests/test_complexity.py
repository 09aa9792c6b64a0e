import numpy as np
import pytest

from qsalab.ansatz import AnsatzParams, PhaseLayerParams
from qsalab.complexity import (
    count_gates,
    crossover_report,
    default_crossover_rows,
    default_slope_rows,
    fit_scaling,
    gate_count_rows,
)
from qsalab.engine import QsaInstance, circuit_expectation
from qsalab.errors import ConfigurationError
from qsalab.statevector import OpCounter


class TestCountGates:
    def test_minimal_amplitude_case(self):
        count = count_gates("qsa-amplitude", 2, 2, 2, 1)
        assert count.terms["state_prep"] == 2 * 4
        assert count.total > 0
        assert all(v >= 0 for v in count.terms.values())

    def test_csa_attention_term_quadruples_with_t(self):
        base = count_gates("csa", 8, 4, 16, 5)
        doubled = count_gates("csa", 16, 4, 16, 5)
        assert doubled.terms["attention"] == 4 * base.terms["attention"]

    def test_amplitude_dominant_term_doubles_with_t(self):
        base = count_gates("qsa-amplitude", 8, 4, 16, 5)
        doubled = count_gates("qsa-amplitude", 16, 4, 16, 5)
        for term in ("state_prep", "controlled_projections", "embedding"):
            assert doubled.terms[term] == 2 * base.terms[term]

    def test_monotone_in_each_size(self):
        small = count_gates("csa", 4, 4, 8, 2)
        assert count_gates("csa", 8, 4, 8, 2).total >= small.total
        assert count_gates("csa", 4, 8, 8, 2).total >= small.total
        assert count_gates("csa", 4, 4, 16, 2).total >= small.total

    def test_amplitude_requires_powers_of_two(self):
        with pytest.raises(ConfigurationError):
            count_gates("qsa-amplitude", 3, 4, 16, 5)
        with pytest.raises(ConfigurationError):
            count_gates("qsa-amplitude", 4, 3, 16, 5)

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            count_gates("mystery", 2, 2, 2, 1)


class TestFitScaling:
    def test_csa_slope_approaches_two_in_t(self):
        early = fit_scaling("csa", "T", [8, 16, 32, 64], token_dim=4)
        late = fit_scaling("csa", "T", [1024, 2048, 4096, 8192, 16384], token_dim=4)
        assert early < late < 2.05
        assert abs(late - 2.0) < 0.15

    def test_amplitude_slope_in_d(self):
        slope = fit_scaling("qsa-amplitude", "d", [64, 128, 256, 512, 1024], num_steps=4096)
        assert abs(slope - 2.0) < 0.15

    def test_amplitude_slope_in_t(self):
        slope = fit_scaling("qsa-amplitude", "T", [256, 512, 1024, 2048, 4096], token_dim=4)
        assert abs(slope - 1.0) < 0.15

    def test_basis_slope_in_t(self):
        slope = fit_scaling("qsa-basis", "T", [256, 512, 1024, 2048, 4096], token_dim=4)
        assert abs(slope - 2.0) < 0.15

    def test_rejects_small_or_uneven_grid(self):
        with pytest.raises(ConfigurationError):
            fit_scaling("csa", "T", [8, 16, 32])
        with pytest.raises(ConfigurationError):
            fit_scaling("csa", "T", [8, 16, 32, 48])
        with pytest.raises(ConfigurationError):
            fit_scaling("csa", "T", [0, 1, 2, 4])


class TestCrossover:
    def test_long_sequences_favor_amplitude_encoding(self):
        rows = crossover_report([4096], [4], 16, 5)
        assert rows[0]["winner"] == "qsa-amplitude"

    def test_huge_embeddings_favor_basis_encoding(self):
        # d much larger than T log2 D
        rows = crossover_report([2], [2048], 16, 5)
        assert rows[0]["winner"] == "qsa-basis"

    def test_deterministic_and_tie_aware(self):
        rows_a = default_crossover_rows()
        rows_b = default_crossover_rows()
        assert rows_a == rows_b
        for row in rows_a:
            assert row["winner"]


class TestDefaultTables:
    def test_slope_rows_match_expected_exponents(self):
        for row in default_slope_rows():
            assert abs(row["slope"] - row["expected"]) < 0.15

    def test_gate_count_rows_shape(self):
        rows = gate_count_rows()
        assert {"variant", "T", "d", "D", "L", "term", "count"} <= set(rows[0])


class TestSimulatorCrossCheck:
    def test_engine_op_count_tracks_model_dominant_term(self):
        # weighted block applications of the simulated circuit stay within a
        # small constant factor of the model's dominant controlled-ops term
        rng = np.random.default_rng(0)
        for d, num_steps in ((2, 2), (2, 4), (4, 2), (4, 4)):
            n = d.bit_length() - 1
            t = num_steps.bit_length() - 1
            toks = rng.normal(size=(num_steps + 1, d))
            tgts = rng.normal(size=(num_steps, d))
            instance = QsaInstance.from_vectors(
                toks,
                tgts,
                AnsatzParams.random(n, 5, seed=1),
                AnsatzParams.random(n, 5, seed=2),
                PhaseLayerParams.zeros(t),
            )
            counter = OpCounter()
            circuit_expectation(instance, counter)
            dominant = count_gates("qsa-amplitude", num_steps, d, 16, 5).terms[
                "controlled_projections"
            ]
            ratio = counter.weighted_dim / dominant
            assert 0.25 <= ratio <= 4.0

"""The overlap-interference attention circuit, end to end.

Encodes a toy sequence, runs the full circuit, and cross-checks the
measured expectation against the analytic branch-overlap formula, the
interference loss, and the inference-time prediction read-out.  The
simulated expectation reads register C's phase layer and Hadamards in
closed form; the literal-gate value applies them as gates to the full state.
"""

import numpy as np

from qsalab import (
    AnsatzParams,
    PhaseLayerParams,
    QsaInstance,
    all_zeros_expectation,
    amplitude_encode,
    analytic_expectation,
    branch_overlaps,
    circuit_expectation,
    circuit_state,
    predict_token_state,
    qsa_loss,
    score_candidates,
)

# Two steps over one-qubit tokens with identity variational maps.  The
# branch amplitudes are a_1 = a_2 = 1 with prefix weights M = (1, 2), so
# the expectation is ((1/sqrt(1) + 1/sqrt(2))/2)^2.
instance = QsaInstance.from_vectors(
    token_vectors=[[1, 0], [0, 1], [1, 0]],
    target_vectors=[[1, 0], [0, 1]],
    params_v=AnsatzParams.zeros(1, 0),
    params_w=AnsatzParams.zeros(1, 0),
    params_r=PhaseLayerParams.zeros(1),
)
print("simulated expectation:", circuit_expectation(instance))
print("literal-gate value   :", all_zeros_expectation(circuit_state(instance)))
print("analytic expectation :", analytic_expectation(instance))
print("closed form          :", ((1 + 2 ** -0.5) / 2) ** 2)
print("interference loss    :", qsa_loss(instance))

a, m = branch_overlaps(instance)
print("branch overlaps a_j  :", np.round(a, 6))
print("prefix weights  M_j  :", np.round(m, 6))

# With random variational angles the two evaluation routes still agree.
rng = np.random.default_rng(0)
random_instance = QsaInstance.from_vectors(
    rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4)),
    rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
    AnsatzParams.random(2, 5, seed=1),
    AnsatzParams.random(2, 5, seed=2),
    PhaseLayerParams.random(2, seed=3),
)
print("\nrandom instance, T=4, d=4")
print("simulated:", circuit_expectation(random_instance))
print("literal  :", all_zeros_expectation(circuit_state(random_instance)))
print("analytic :", analytic_expectation(random_instance))

# Inference: project the step register and read the predicted token state,
# then score it against a candidate vocabulary.
state, weight = predict_token_state(random_instance, 3)
candidates = [amplitude_encode(np.eye(4)[k], 2) for k in range(4)]
print("prediction weight    :", round(weight, 6))
print("candidate scores     :", np.round(score_candidates(state, candidates), 4))

"""qsalab: overlap-interference self-attention on a dense state-vector
simulator, with classical baselines, sequence-data generators, a trainer,
and gate-cost audits."""

from .ansatz import (
    AnsatzParams,
    PhaseLayerParams,
    build_ansatz_unitary,
    parameter_shift_gradient,
    phase_layer_diagonal,
)
from .classical import (
    LcsaParams,
    ScsaParams,
    lcsa_step_probability,
    linear_attention_layer,
    scsa_forward,
)
from .complexity import count_gates, crossover_report, fit_scaling
from .data import (
    EmbeddingMap,
    IsingModel,
    SequenceDataset,
    build_ising,
    embed_sequence,
    generate_classical_dataset,
    generate_quantum_dataset,
    load_dataset,
    make_embedding,
    save_dataset,
)
from .encodings import (
    EncodedToken,
    amplitude_encode,
    entangled_prefix_encoding,
    prepare_input_superposition,
    unitary_with_first_column,
)
from .engine import (
    QsaInstance,
    analytic_expectation,
    branch_overlaps,
    circuit_expectation,
    circuit_state,
    predict_token_state,
    qsa_loss,
    score_candidates,
    step_probabilities,
)
from .errors import (
    CompatibilityError,
    ConfigurationError,
    DegenerateInputError,
    DegeneratePredictionError,
    NumericFailureError,
)
from .objectives import (
    StepProbabilities,
    cross_entropy_loss,
    renyi_alpha_loss,
    renyi_half_from_expectation,
)
from .statevector import (
    OpCounter,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    all_zeros_expectation,
    apply_controlled_by_register,
    apply_unitary,
    inner_product,
    sample_expectation,
)
from .trainer import LossReport, ModelParams, TrainConfig, evaluate, predict_topk, train

__version__ = "0.1.0"

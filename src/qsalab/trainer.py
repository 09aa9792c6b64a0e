"""End-to-end optimization for the three sequence models.

Gradient assembly, adaptive-moment updates, per-epoch loss reporting, and
versioned JSON checkpoints.  Each model kind has one batched forward that
keeps its intermediates; a training row runs it once for its loss and, on
the default path (parameter-shift mode, analytic route, no shots), runs its
backward pass for the exact gradient.  Shot sampling and the circuit route
(qsa only) and ``gradient_mode="finite-difference"`` perturb parameters
instead (shift rule for circuit angles, central differences for everything
else); the finite-difference mode is the oracle for the exact gradients.
Runs are deterministic for a fixed (config, seed, dataset) triple:
reductions happen in fixed order.

What differs between the three kinds lives in one table, ``MODELS``, keyed
by kind; training, evaluation, prediction and the checkpoint codec
dispatch through it once instead of branching on the kind.  Each kind
declares its params dataclasses once; the flat training vector, the
checkpoint v1 codec and its scalar type checks walk their annotated fields.

Reported quantities: ``train_loss_offset`` is the comparable per-epoch loss
(the interference loss without its additive log T constant, which for the
baselines is the divergence-formula value itself); ``train_loss`` adds the
log T constant back; ``perplexity`` is exp of the offset loss.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
import typing
import zlib
from dataclasses import asdict, astuple, dataclass, field, replace
from dataclasses import fields as dataclass_fields
from typing import Sequence

import numpy as np

from .ansatz import (
    AnsatzParams,
    PhaseLayerParams,
    ansatz_vjp,
    build_ansatz_unitary,
    parameter_shift_gradient,
    phase_layer_diagonal,
    phase_layer_gradient,
)
from .classical import (
    LcsaParams,
    ScsaParams,
    causal_attention_vjp,
    lcsa_forward_batch,
    output_weights,
    scsa_forward_batch,
    scsa_vjp,
)
from .data import (
    ZERO_NORM_TOL,
    EmbeddingMap,
    SequenceDataset,
    _finite_numbers,
    _typed,
    atomic_write_text,
    csv_text,
    embed_batch,
    linear_map_gradient,
    make_embedding,
    read_utf8,
    rows_matmul,
    unit_rows_backward,
)
from .engine import batched_expectations, dense_expectations
from .errors import (
    CheckpointFormatError,
    CompatibilityError,
    ConfigurationError,
    NumericFailureError,
    UnsupportedVersionError,
)
from .objectives import PROBABILITY_FLOOR
from .statevector import RegisterLayout

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; defaults match the bundled benchmark tasks."""

    model_kind: str = "qsa"
    epochs: int = 100
    learning_rate: float = 0.05
    embedding_learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    gradient_mode: str = "parameter-shift"
    shots: int | None = None
    embedding_trainable: bool = True
    embed_dim: int = 4
    num_layers: int = 5
    gamma: float = 0.1
    key_dim: int | None = None
    ffn_hidden: int | None = None
    expectation_route: str = "analytic"
    fd_step: float = 1e-4
    record_timing: bool = False

    def __post_init__(self):
        for name, annotation in _field_types(TrainConfig).items():
            value = getattr(self, name)
            if not _typed(value, annotation):
                type_name = getattr(annotation, "__name__", annotation)  # int | None has no name
                raise ConfigurationError(f"{name} must be of type {type_name}, got {value!r}")
            if isinstance(value, np.generic):  # config_hash and the manifest write JSON
                object.__setattr__(self, name, value.item())
        choices = {"model_kind": MODEL_KINDS, "gradient_mode": ("parameter-shift", "finite-difference"),
                   "expectation_route": ("analytic", "circuit")}
        for name, options in choices.items():
            if getattr(self, name) not in options:
                raise ConfigurationError(f"{name} must be one of {options}, got {getattr(self, name)!r}")
        lowest = {"seed": 0, "epochs": 0, "num_layers": 0, "embed_dim": 1, "shots": 1, "key_dim": 1, "ffn_hidden": 1}
        for name, low in lowest.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigurationError(f"{name} must be at least {low}, got {value}")
        for name in ("learning_rate", "embedding_learning_rate", "epsilon", "fd_step"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if (self.shots is not None or self.expectation_route == "circuit") and not MODELS[self.model_kind].circuit:
            raise ConfigurationError(f"{self.model_kind} outputs are not circuit expectations: "
                                     "shots and the circuit route apply to qsa")


@dataclass(frozen=True)
class ModelParams:
    """All trainable state for one model: embedding plus kind-specific parts."""

    model_kind: str
    embedding: EmbeddingMap
    v_params: AnsatzParams | None = None
    w_params: AnsatzParams | None = None
    r_params: PhaseLayerParams | None = None
    scsa: ScsaParams | None = None
    lcsa: LcsaParams | None = None

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(f"model_kind must be one of {MODEL_KINDS}")
        missing = [name for name in MODELS[self.model_kind].fields if getattr(self, name) is None]
        if missing:
            raise ConfigurationError(f"{self.model_kind} params missing {', '.join(missing)}")


@dataclass(frozen=True)
class EpochRow:
    """One loss CSV row; the field names are the CSV header."""

    epoch: int
    train_loss_offset: float
    train_loss: float
    perplexity: float
    grad_norm: float
    seconds: float


@dataclass
class LossReport:
    """Per-epoch training curve and, after evaluation, test-set aggregates."""

    rows: list = field(default_factory=list)
    log_offset: float = 0.0
    clamp_events: int = 0
    test_perplexity_mean: float | None = None
    test_perplexity_stdev: float | None = None
    per_set: list | None = None

    def to_csv_text(self) -> str:
        return csv_text([f.name for f in dataclass_fields(EpochRow)], map(astuple, self.rows))


@functools.cache
def _field_types(cls) -> dict:
    """The resolved annotation of each field of dataclass ``cls``, in field order."""
    return typing.get_type_hints(cls)


@functools.cache
def _array_fields(cls) -> tuple:
    return tuple(name for name, annotation in _field_types(cls).items() if annotation is np.ndarray)


def _to_real_vector(arrays: Sequence[np.ndarray]) -> np.ndarray:
    parts = []
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        if np.iscomplexobj(arr):
            parts.append(arr.view(np.float64).ravel())
        else:
            parts.append(arr.astype(np.float64).ravel())
    return np.concatenate(parts)


def _from_real_vector(vector: np.ndarray, templates: Sequence[np.ndarray]) -> list:
    out = []
    pos = 0
    for tmpl in templates:
        count = tmpl.size * (2 if np.iscomplexobj(tmpl) else 1)
        chunk = np.ascontiguousarray(vector[pos : pos + count], dtype=np.float64)
        pos += count
        if np.iscomplexobj(tmpl):
            out.append(chunk.view(np.complex128).reshape(tmpl.shape))
        else:
            out.append(chunk.reshape(tmpl.shape))
    return out


class _Adam:
    """Plain adaptive-moment estimation over a flat parameter vector."""

    def __init__(self, size: int, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def update(self, values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad ** 2
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# model table ---------------------------------------------------------------------


class _Model:
    """One model kind.  Each entry of MODELS declares its params once, as
    ``blocks``: (checkpoint key, ModelParams attribute, dataclass) triples,
    where key None makes the dataclass's fields the kind's own checkpoint
    block.  What follows from ``blocks`` is defined here:

    - ``fields``: the ModelParams attributes the kind owns;
    - ``arrays(params)``: (label, array) pairs, the array fields of the
      blocks in order, which is the circuit-vector order;
    - ``rebuild(template, parts)``: the blocks with arrays shaped like ``arrays``;
    - ``to_payload(params)`` / ``from_payload(payload)``: its checkpoint v1 block;

    each entry provides the rest:

    - ``check(embed_dim, num_steps)``: why those shapes cannot host it, or None;
    - ``check_arrays(params, num_steps)``: why its arrays do not fit the
      embedding (and step count), or None;
    - ``init(config, dataset, seeds, complex_valued)``: seeded field values;
    - ``forward(params, inputs)``: for (S, T+1, D) input rows, the outputs
      its losses depend on and a backward pass from their gradient to the
      gradients of ``arrays`` (a list) and of the embedded rows
      ``inputs @ E.T`` (S, T+1, d);
    - ``losses(outputs, num_steps)``: per-sequence offset losses and the count
      of floored probabilities;
    - ``loss_slopes(outputs, num_steps)``: d losses / d outputs, zero where
      a floor clamps the probability;
    - ``scores(params, inputs)``: (S, T, D) next-word scores.

    Complex gradients are dL/dRe + i dL/dIm, so ``_to_real_vector`` lays
    them out like the parameters.

    ``circuit`` marks outputs that are measured circuit expectations, to
    which shot sampling, the dense circuit route (``circuit_outputs``) and
    the parameter-shift rule apply.
    """

    blocks: tuple = ()
    fields = property(lambda self: tuple(attr for _, attr, _ in self.blocks))
    circuit = False

    def check(self, embed_dim: int, num_steps: int) -> str | None:
        return None

    def check_arrays(self, params: ModelParams, num_steps: int) -> str | None:
        return None

    def arrays(self, params: ModelParams) -> list:
        return [(f"{attr}.{name}", getattr(getattr(params, attr), name))
                for _, attr, cls in self.blocks for name in _array_fields(cls)]

    def rebuild(self, template: ModelParams, parts: Sequence[np.ndarray]) -> dict:
        parts = iter(parts)
        return {attr: replace(getattr(template, attr), **{name: next(parts) for name in _array_fields(cls)})
                for _, attr, cls in self.blocks}

    def to_payload(self, params: ModelParams) -> dict:
        blocks = {key: _payload(getattr(params, attr)) for key, attr, _ in self.blocks}
        return blocks.get(None, blocks)  # a key None is its kind's only block

    def from_payload(self, payload: dict) -> dict:
        return {attr: _from_payload(cls, payload if key is None else payload[key]) for key, attr, cls in self.blocks}


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=-1)
    return x / norms[..., None], norms


def _overlap_scores(z: np.ndarray, emap: EmbeddingMap) -> np.ndarray:
    """Squared overlaps of normalized attention outputs with the embedded vocabulary."""
    candidates = emap.matrix.T  # row per word
    cand_norms = np.linalg.norm(candidates, axis=1)
    if np.any(cand_norms <= ZERO_NORM_TOL):
        raise ConfigurationError("a vocabulary column embeds to the zero vector")
    unit = z / np.sqrt(output_weights(z))[..., None]
    return np.abs(rows_matmul(unit, (candidates / cand_norms[:, None]).conj().T)) ** 2


class _Qsa(_Model):
    blocks = (("v", "v_params", AnsatzParams), ("w", "w_params", AnsatzParams), ("r", "r_params", PhaseLayerParams))
    circuit = True

    def check(self, embed_dim, num_steps):
        if embed_dim & (embed_dim - 1) or embed_dim < 2:
            return "qsa needs a power-of-two embed_dim >= 2"
        if num_steps & (num_steps - 1) or num_steps < 2:
            return "qsa needs a power-of-two step count >= 2"
        return None

    def check_arrays(self, params, num_steps):
        d = params.embedding.embed_dim
        for name in ("v_params", "w_params"):
            qubits = getattr(params, name).num_qubits
            if 2 ** qubits != d:
                return f"qsa {name} acts on {qubits} qubits, not a {d}-dimensional token"
        if 2 ** params.r_params.num_qubits != num_steps:
            return f"qsa phase layer has {params.r_params.num_qubits} qubits, not {num_steps} steps"
        return None

    def init(self, config, dataset, seeds, complex_valued):
        n = int(config.embed_dim).bit_length() - 1
        t = int(dataset.num_steps).bit_length() - 1
        return {
            "v_params": AnsatzParams.random(n, config.num_layers, seeds[0]),
            "w_params": AnsatzParams.random(n, config.num_layers, seeds[1]),
            "r_params": PhaseLayerParams.random(t, seeds[2]),
        }

    def losses(self, exps, num_steps):
        clamped = int(np.sum(exps < PROBABILITY_FLOOR))
        return -np.log(np.maximum(exps, PROBABILITY_FLOOR)), clamped

    def loss_slopes(self, exps, num_steps):
        return np.where(exps > PROBABILITY_FLOOR, -1.0 / np.maximum(exps, PROBABILITY_FLOOR), 0.0)

    def circuit_outputs(self, params, inputs):
        """The expectations by dense simulation of every sequence's circuit, in
        one batched pass over the unit rows and V, W matrices of `forward`."""
        x, shift_free = embed_batch(inputs, params.embedding)
        layout = RegisterLayout.standard(params.v_params.num_qubits, params.r_params.num_qubits)
        return dense_expectations(
            _unit_rows(x[:, :-1])[0],
            _unit_rows(shift_free[:, 1:])[0],
            ansatz_vjp(params.v_params)[0],
            ansatz_vjp(params.w_params)[0],
            phase_layer_diagonal(params.r_params),
            layout,
        )

    def forward(self, params, inputs):
        x, shift_free = embed_batch(inputs, params.embedding)
        (tok, tok_norms), (tgt, tgt_norms) = _unit_rows(x[:, :-1]), _unit_rows(shift_free[:, 1:])
        v_matrix, v_backward = ansatz_vjp(params.v_params)
        w_matrix, w_backward = ansatz_vjp(params.w_params)
        exps, backward = batched_expectations(tok, tgt, v_matrix, w_matrix, phase_layer_diagonal(params.r_params))

        def model_backward(g_exps):
            g_tok, g_tgt, g_v, g_w, g_phase = backward(g_exps)
            g_rows = np.zeros_like(g_tok, shape=x.shape)
            g_rows[:, :-1] = unit_rows_backward(tok, tok_norms, g_tok)
            g_rows[:, 1:] += unit_rows_backward(tgt, tgt_norms, g_tgt)
            grads = [v_backward(g_v), w_backward(g_w), phase_layer_gradient(params.r_params, g_phase)]
            return grads, g_rows

        return exps, model_backward

    def scores(self, params, inputs):
        x, _ = embed_batch(inputs, params.embedding)
        tok, norms = _unit_rows(x[:, :-1])
        # An overflowed norm leaves its unit row zero, which output_weights
        # would report as a vanishing output.
        if not np.isfinite(norms).all():
            raise NumericFailureError("non-finite prediction scores")
        z = causal_attention_vjp(
            tok,
            build_ansatz_unitary(params.v_params).matrix,
            build_ansatz_unitary(params.w_params).matrix,
        )[0]
        return _overlap_scores(z, params.embedding)


class _Baseline(_Model):
    """A classical kind: one params dataclass, held in the ModelParams
    attribute named after the kind, and the divergence-formula loss."""

    def check_arrays(self, params, num_steps):
        part = getattr(params, self.fields[0])
        if part.embed_dim != params.embedding.embed_dim:
            return (f"{self.fields[0]} arrays act on {part.embed_dim}-dimensional tokens, "
                    f"the embedding on {params.embedding.embed_dim}")
        return None

    def losses(self, ratios, num_steps):
        clamped = int(np.sum(ratios < PROBABILITY_FLOOR))
        ratios = np.clip(ratios, PROBABILITY_FLOOR, 1.0)
        # Divergence-formula loss at alpha = 1/2, without the log T constant
        # the circuit would add.
        losses = -2.0 * np.log(np.sum(np.sqrt(ratios), axis=-1)) + 2.0 * np.log(num_steps)
        return losses, clamped

    def loss_slopes(self, ratios, num_steps):
        roots = np.sqrt(np.clip(ratios, PROBABILITY_FLOOR, 1.0))
        kept = (ratios >= PROBABILITY_FLOOR) & (ratios <= 1.0)
        return np.where(kept, -1.0 / (np.sum(roots, axis=-1, keepdims=True) * roots), 0.0)


class _Scsa(_Baseline):
    blocks = ((None, "scsa", ScsaParams),)

    def init(self, config, dataset, seeds, complex_valued):
        return {"scsa": ScsaParams.random(config.embed_dim, dataset.vocab_dim, seeds[0], key_dim=config.key_dim,
                                          hidden_dim=config.ffn_hidden, complex_valued=complex_valued)}

    def check_arrays(self, params, num_steps):
        if params.scsa.vocab_dim != params.embedding.vocab_dim:
            return (f"scsa anti-embedding covers {params.scsa.vocab_dim} words, "
                    f"the embedding {params.embedding.vocab_dim}")
        return super().check_arrays(params, num_steps)

    def forward(self, params, inputs):
        x, _ = embed_batch(inputs, params.embedding)
        _, probs, backward = scsa_vjp(x[:, :-1], inputs, params.scsa)

        def model_backward(g_probs):
            g_prefix, grads = backward(g_probs)
            g_rows = np.zeros_like(g_prefix, shape=x.shape)
            g_rows[:, :-1] = g_prefix
            return list(grads), g_rows

        return probs, model_backward

    def scores(self, params, inputs):
        distributions, _ = scsa_forward_batch(inputs, params.embedding, params.scsa)
        return distributions


class _Lcsa(_Baseline):
    blocks = ((None, "lcsa", LcsaParams),)

    def init(self, config, dataset, seeds, complex_valued):
        return {"lcsa": LcsaParams.near_identity(config.embed_dim, seeds[0], complex_valued=complex_valued)}

    def forward(self, params, inputs):
        x, shift_free = embed_batch(inputs, params.embedding)
        values, normalizers, backward = lcsa_forward_batch(x, shift_free, params.lcsa)

        def model_backward(g_ratios):
            g_x, g_shift_free, g_value_map, g_affinity_map = backward(
                g_ratios / normalizers, -g_ratios * values / normalizers ** 2
            )
            return [g_value_map, g_affinity_map], g_x + g_shift_free

        return values / normalizers, model_backward

    def scores(self, params, inputs):
        x, _ = embed_batch(inputs, params.embedding)
        z = causal_attention_vjp(x[:, :-1], params.lcsa.value_map, params.lcsa.affinity_map)[0]
        return _overlap_scores(z, params.embedding)


MODELS = {"qsa": _Qsa(), "scsa": _Scsa(), "lcsa": _Lcsa()}
MODEL_KINDS = tuple(MODELS)


def initialize_params(config: TrainConfig, dataset: SequenceDataset) -> ModelParams:
    """Seeded near-identity initialization consistent with the dataset kind."""
    _check_compat(config, dataset)
    children = np.random.SeedSequence(config.seed).spawn(4)
    complex_valued = dataset.kind == "quantum"
    embedding = make_embedding(
        dataset.vocab_dim,
        config.embed_dim,
        dataset.num_steps + 1,
        children[0],
        complex_valued=complex_valued,
        gamma=config.gamma,
    )
    parts = MODELS[config.model_kind].init(config, dataset, children[1:], complex_valued)
    return ModelParams(config.model_kind, embedding, **parts)


def _check_compat(config: TrainConfig, dataset: SequenceDataset) -> None:
    if len(dataset) == 0:
        raise ConfigurationError("dataset holds no records")
    if config.embed_dim >= dataset.vocab_dim:
        raise ConfigurationError("embed_dim must be smaller than the vocabulary dimension")
    problem = MODELS[config.model_kind].check(config.embed_dim, dataset.num_steps)
    if problem:
        raise ConfigurationError(problem)


def _fitted_model(params: ModelParams, dataset: SequenceDataset) -> _Model:
    """The table entry of ``params``' kind, once ``params`` are checked to fit
    ``dataset``; a misfit is a ``CompatibilityError``."""
    model = MODELS[params.model_kind]
    quantum_data = dataset.kind == "quantum"
    complex_embedding = np.iscomplexobj(params.embedding.matrix)
    if quantum_data != complex_embedding:
        raise CompatibilityError(
            f"{'complex' if complex_embedding else 'real'}-embedding model does not fit "
            f"a {dataset.kind} dataset"
        )
    if params.embedding.vocab_dim != dataset.vocab_dim:
        raise CompatibilityError(
            f"model vocabulary {params.embedding.vocab_dim} != dataset {dataset.vocab_dim}"
        )
    problem = model.check(params.embedding.embed_dim, dataset.num_steps) or model.check_arrays(
        params, dataset.num_steps
    )
    if problem:
        raise CompatibilityError(problem)
    num_shifts = params.embedding.shifts.shape[0]
    if num_shifts < dataset.num_steps + 1:
        raise CompatibilityError(
            f"embedding has {num_shifts} positional shifts, fewer than the dataset's "
            f"{dataset.num_steps + 1} tokens per sequence"
        )
    return model


class _Adapter:
    """Batched loss/gradient machinery bound to one (params, dataset) pair
    and the training configuration."""

    def __init__(self, params: ModelParams, dataset: SequenceDataset, config: TrainConfig):
        self.model = _fitted_model(params, dataset)
        self.config = config
        self.num_steps = dataset.num_steps
        self.inputs = dataset.input_rows()
        self.template = params
        self._circuit_templates = [arr for _, arr in self.model.arrays(params)]
        self._embed_templates = [params.embedding.matrix]

    # parameter vector plumbing -------------------------------------------------

    def circuit_vector(self, params: ModelParams) -> np.ndarray:
        return _to_real_vector([arr for _, arr in self.model.arrays(params)])

    def embed_vector(self, params: ModelParams) -> np.ndarray:
        return _to_real_vector([params.embedding.matrix])

    def rebuild(self, circuit_vec: np.ndarray, embed_vec: np.ndarray) -> ModelParams:
        embedding = self.template.embedding.with_matrix(
            _from_real_vector(embed_vec, self._embed_templates)[0]
        )
        parts = _from_real_vector(circuit_vec, self._circuit_templates)
        return replace(self.template, embedding=embedding, **self.model.rebuild(self.template, parts))

    # loss evaluation -----------------------------------------------------------

    def _outputs(self, circuit_vec: np.ndarray, embed_vec: np.ndarray) -> np.ndarray:
        params = self.rebuild(circuit_vec, embed_vec)
        if self.config.expectation_route == "circuit":
            outputs = self.model.circuit_outputs(params, self.inputs)
        else:
            outputs, _ = self.model.forward(params, self.inputs)
        if self.config.shots:
            outputs = self._sample(outputs, circuit_vec, embed_vec)
        return outputs

    def _sample(self, exps: np.ndarray, circuit_vec: np.ndarray, embed_vec: np.ndarray) -> np.ndarray:
        # Seed derived from parameter content keeps shot noise reproducible.
        digest = zlib.crc32(circuit_vec.tobytes()) ^ zlib.crc32(embed_vec.tobytes())
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, digest]))
        clipped = np.clip(exps, 0.0, 1.0)
        return rng.binomial(self.config.shots, clipped) / self.config.shots

    def _mean_loss(self, outputs: np.ndarray):
        losses, clamped = self.model.losses(outputs, self.num_steps)
        return float(np.mean(losses)), clamped

    def mean_loss(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """Mean offset loss over the sequences and the count of floored probabilities."""
        return self._mean_loss(self._outputs(circuit_vec, embed_vec))

    # gradients -----------------------------------------------------------------

    def step(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """One training row from one forward: (mean loss, clamp count,
        gradients), where ``gradients()`` returns the circuit and embedding
        gradient vectors, by the forward's backward pass or by perturbation."""
        config = self.config
        if config.gradient_mode == "parameter-shift" and not config.shots and config.expectation_route == "analytic":
            outputs, backward = self.model.forward(self.rebuild(circuit_vec, embed_vec), self.inputs)
            gradients = lambda: self._exact_gradients(outputs, backward)
        else:
            outputs = self._outputs(circuit_vec, embed_vec)
            gradients = lambda: self._perturbation_gradients(circuit_vec, embed_vec, outputs)
        return (*self._mean_loss(outputs), gradients)

    def gradients(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """Circuit and embedding gradient vectors at (circuit_vec, embed_vec)."""
        return self.step(circuit_vec, embed_vec)[2]()

    def _exact_gradients(self, outputs: np.ndarray, backward):
        """Gradient of the mean offset loss from the forward's backward pass."""
        grads, g_rows = backward(self.model.loss_slopes(outputs, self.num_steps) / outputs.shape[0])
        grads.append(linear_map_gradient(g_rows, self.inputs))
        templates = self._circuit_templates + self._embed_templates
        grads = [g if np.iscomplexobj(t) else g.real for g, t in zip(grads, templates)]
        grad_embed = _to_real_vector(grads[-1:])
        if not self.config.embedding_trainable:
            grad_embed = np.zeros(grad_embed.size)
        return _to_real_vector(grads[:-1]), grad_embed

    def _perturbation_gradients(self, circuit_vec: np.ndarray, embed_vec: np.ndarray, base: np.ndarray):
        """Shift rule for measured circuit angles, central differences
        otherwise; ``base`` holds the outputs at (circuit_vec, embed_vec)."""
        grad_circuit = np.zeros(circuit_vec.size)
        # TrainConfig lets only circuit kinds here in parameter-shift mode
        if self.config.gradient_mode == "parameter-shift":
            slopes = self.model.loss_slopes(base, self.num_steps)
            for i in range(circuit_vec.size):
                shift = parameter_shift_gradient(lambda vec: self._outputs(vec, embed_vec), circuit_vec, i)
                grad_circuit[i] = float(np.mean(slopes * shift))
        else:
            for i in range(circuit_vec.size):
                grad_circuit[i] = self._central_difference(circuit_vec, embed_vec, 0, i)
        grad_embed = np.zeros(embed_vec.size)
        if self.config.embedding_trainable:
            for i in range(embed_vec.size):
                grad_embed[i] = self._central_difference(circuit_vec, embed_vec, 1, i)
        return grad_circuit, grad_embed

    def _central_difference(self, circuit_vec, embed_vec, side: int, index: int) -> float:
        """d mean_loss / d vecs[side][index], vecs = (circuit_vec, embed_vec)."""
        h = self.config.fd_step
        losses = []
        for step in (h, -h):
            vecs = [circuit_vec, embed_vec]
            vecs[side] = vecs[side].copy()
            vecs[side][index] += step
            losses.append(self.mean_loss(*vecs)[0])
        return (losses[0] - losses[1]) / (2.0 * h)


def _diagnostic_norm(vec: np.ndarray):
    """Euclidean norm for a strict-JSON diagnostic.  Scaling by the largest
    entry keeps a finite norm of entries near 1e200 from overflowing; a norm
    that is still not finite is written as text, as the loss is."""
    scale = float(np.max(np.abs(vec), initial=0.0))
    norm = scale * float(np.linalg.norm(vec / scale)) if 0.0 < scale < math.inf else scale
    return norm if math.isfinite(norm) else repr(norm)


def train(config: TrainConfig, dataset: SequenceDataset) -> tuple[ModelParams, LossReport]:
    """Optimize from a seeded initialization; rows cover epochs 0..epochs.

    Row e reports the loss and gradient at the parameters after e updates,
    so row 0 is the untouched initialization and the last row matches a
    forward-only evaluation of the returned parameters.  Each row runs the
    model forward once; its gradient work starts only after the loss is
    known to be finite, and an update that leaves a parameter non-finite
    raises ``NumericFailureError`` as a non-finite loss does.
    """
    params = initialize_params(config, dataset)
    log_offset = math.log(dataset.num_steps)
    if config.epochs == 0:
        return params, LossReport(rows=[], log_offset=log_offset)
    adapter = _Adapter(params, dataset, config)
    circuit_vec = adapter.circuit_vector(params)
    embed_vec = adapter.embed_vector(params)
    adam_circuit = _Adam(circuit_vec.size, config.learning_rate, config.beta1, config.beta2, config.epsilon)
    adam_embed = _Adam(embed_vec.size, config.embedding_learning_rate, config.beta1, config.beta2, config.epsilon)
    rows = []
    clamp_total = 0

    def failure(message):  # reads the loop's current epoch, loss and vectors
        return NumericFailureError(message, diagnostic={
            "epoch": epoch,
            "loss": repr(loss),
            "model_kind": config.model_kind,
            "circuit_norm": _diagnostic_norm(circuit_vec),
            "embedding_norm": _diagnostic_norm(embed_vec),
        })

    for epoch in range(config.epochs + 1):
        started = time.perf_counter()
        # A non-finite forward value reaches the loss, which is checked below.
        with np.errstate(all="ignore"):
            loss, clamped, gradients = adapter.step(circuit_vec, embed_vec)
        clamp_total += clamped
        if not math.isfinite(loss):
            raise failure(f"non-finite loss at epoch {epoch}")
        grad_circuit, grad_embed = gradients()
        grad_norm = float(np.sqrt(np.sum(grad_circuit ** 2) + np.sum(grad_embed ** 2)))
        seconds = time.perf_counter() - started if config.record_timing else 0.0
        rows.append(
            EpochRow(epoch, loss, loss + log_offset, math.exp(loss), grad_norm, seconds)
        )
        if epoch == config.epochs:
            break
        with np.errstate(all="ignore"):
            circuit_vec = adam_circuit.update(circuit_vec, grad_circuit)
            if config.embedding_trainable:
                embed_vec = adam_embed.update(embed_vec, grad_embed)
        if not (np.all(np.isfinite(circuit_vec)) and np.all(np.isfinite(embed_vec))):
            raise failure(f"non-finite parameters after the update at epoch {epoch}")
    trained = adapter.rebuild(circuit_vec, embed_vec)
    return trained, LossReport(rows=rows, log_offset=log_offset, clamp_events=clamp_total)


def evaluate(params: ModelParams, datasets) -> LossReport:
    """Forward-only losses; aggregates perplexity mean and stdev across sets."""
    if isinstance(datasets, SequenceDataset):
        datasets = [datasets]
    datasets = list(datasets)
    if not datasets or any(len(ds) == 0 for ds in datasets):
        raise ConfigurationError("evaluation needs at least one non-empty dataset")
    per_set = []
    for ds in datasets:
        model = _fitted_model(params, ds)
        losses, clamped = model.losses(model.forward(params, ds.input_rows())[0], ds.num_steps)
        loss = float(np.mean(losses))
        per_set.append(
            {
                "loss_offset": loss,
                "loss": loss + math.log(ds.num_steps),
                "perplexity": math.exp(loss),
                "clamped": clamped,
            }
        )
    perps = np.array([entry["perplexity"] for entry in per_set])
    return LossReport(
        rows=[],
        log_offset=math.log(datasets[0].num_steps),
        clamp_events=sum(entry["clamped"] for entry in per_set),
        test_perplexity_mean=float(np.mean(perps)),
        test_perplexity_stdev=float(np.std(perps, ddof=1)) if len(perps) > 1 else 0.0,
        per_set=per_set,
    )


class TopK(typing.NamedTuple):
    """(S, T, k) top-k word indices and their scores; step j predicts position j + 2."""

    words: np.ndarray
    scores: np.ndarray


def predict_topk(params: ModelParams, dataset: SequenceDataset, k: int = 3) -> TopK:
    """Per sequence and step, the top-k vocabulary indices with their scores.

    Scores are squared overlaps with the embedded vocabulary for qsa/lcsa
    and the softmax vocabulary distribution for scsa.  Ties break toward
    the lowest word index.  A forward that overflows, so that any score is
    not finite, raises NumericFailureError.
    """
    if not 1 <= k <= params.embedding.vocab_dim:
        raise ConfigurationError(f"k must lie in 1..{params.embedding.vocab_dim}, the vocabulary size")
    if len(dataset) == 0:
        raise ConfigurationError("prediction needs a non-empty dataset")
    scores = _fitted_model(params, dataset).scores(params, dataset.input_rows())
    if not np.isfinite(scores).all():
        raise NumericFailureError("non-finite prediction scores")
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    return TopK(order, np.take_along_axis(scores, order, axis=-1))


# checkpoint codec ----------------------------------------------------------------


def config_hash(config: TrainConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr)
    return {"shape": list(arr.shape), "complex": np.iscomplexobj(arr), "data": _to_real_vector([arr]).tolist()}


def _decode_array(obj: dict) -> np.ndarray:
    data, shape = obj["data"], obj["shape"]
    width = 2 if obj["complex"] else 1
    if not _finite_numbers(data) or min(shape, default=0) < 0 or len(data) != width * math.prod(shape):
        kind = "complex" if width == 2 else "real"
        raise CheckpointFormatError(f"checkpoint array data do not fill its {kind} shape {shape} with finite numbers")
    data = np.array(data, dtype=np.float64)
    return (data.view(np.complex128) if width == 2 else data).reshape(shape)


def _payload(part) -> dict:
    """The checkpoint block of dataclass ``part``: each array field encoded,
    each scalar field cast to its annotated type."""
    return {name: _encode_array(getattr(part, name)) if annotation is np.ndarray else annotation(getattr(part, name))
            for name, annotation in _field_types(type(part)).items()}


def _from_payload(cls, block: dict):
    """The ``cls`` instance a ``_payload`` block encodes; a scalar that does
    not fit its field's annotation is a ``CheckpointFormatError``."""
    for name, annotation in _field_types(cls).items():
        if annotation is not np.ndarray and not _typed(block[name], annotation):
            raise CheckpointFormatError(f"checkpoint field {name} {block[name]!r} is not of type {annotation.__name__}")
    return cls(**{name: _decode_array(block[name]) if annotation is np.ndarray else block[name]
                  for name, annotation in _field_types(cls).items()})


def params_to_payload(params: ModelParams) -> dict:
    return {"model_kind": params.model_kind, "embedding": _payload(params.embedding),
            params.model_kind: MODELS[params.model_kind].to_payload(params)}


def params_from_payload(payload: dict) -> ModelParams:
    kind = payload["model_kind"]
    embedding = _from_payload(EmbeddingMap, payload["embedding"])
    return ModelParams(kind, embedding, **MODELS[kind].from_payload(payload[kind]))


def checkpoint_document(params: ModelParams, config: TrainConfig, data_kind: str) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "model_kind": params.model_kind,
        "data_kind": data_kind,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "params": params_to_payload(params),
    }


def save_checkpoint(params: ModelParams, config: TrainConfig, data_kind: str, path) -> None:
    atomic_write_text(path, json.dumps(checkpoint_document(params, config, data_kind), sort_keys=True))


def load_checkpoint(path, expected_kind: str | None = None) -> tuple[ModelParams, dict]:
    try:
        doc = json.loads(read_utf8(path, CheckpointFormatError))
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointFormatError("checkpoint is missing its version field")
    if doc["version"] != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(
            f"checkpoint version {doc['version']} is not supported (expected {CHECKPOINT_VERSION})"
        )
    try:
        if expected_kind is not None and doc["model_kind"] != expected_kind:
            raise CompatibilityError(
                f"checkpoint holds a {doc['model_kind']} model, expected {expected_kind}"
            )
        if doc["model_kind"] != doc["params"]["model_kind"]:
            raise CheckpointFormatError(f"checkpoint model_kind {doc['model_kind']!r} disagrees with its params")
        params = params_from_payload(doc["params"])
        meta = {key: doc[key] for key in ("model_kind", "data_kind", "config_hash", "seed")}
    except (KeyError, TypeError, ConfigurationError) as exc:
        # a ConfigurationError here is a params array of the wrong shape
        raise CheckpointFormatError(f"checkpoint field missing or malformed: {exc!r}") from exc
    return params, meta


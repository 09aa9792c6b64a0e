"""End-to-end optimization for the three sequence models.

Gradient assembly, adaptive-moment updates, per-epoch loss reporting, and
versioned JSON checkpoints.  Each model kind has one batched forward that
keeps its intermediates; a training row evaluates the model once, through
the adapter's one evaluation entry, for the kind's one ``loss`` (losses,
clamp count and slopes).  Each of the circuit and embedding vectors takes
its gradient by one rule, read off the config once: the forward's backward
pass (the default: parameter-shift mode, analytic route, no shots), the
shift rule on measured outputs (qsa's angles under shots or the circuit
route), central differences (the embedding there, and everything in the
finite-difference mode, the exact gradients' oracle), or frozen.  Runs are
deterministic for a fixed (config, seed, dataset) triple: reductions
happen in fixed order.

What differs between the three kinds lives in one table, ``MODELS``, keyed
by kind; training, evaluation, prediction and the checkpoint codec
dispatch through it once instead of branching on the kind.  Each kind
declares its params dataclasses once; the flat training vector, the
checkpoint v1 codec and its scalar type checks walk their annotated fields,
and the codec walks the checkpoint's identity, ``CheckpointIdentity``, the
same way.

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

from .ansatz import AnsatzParams, PhaseLayerParams, parameter_shift_gradient
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
    DATA_KINDS,
    INT64_MAX,
    ZERO_NORM_TOL,
    EmbeddingMap,
    SequenceDataset,
    _finite_numbers,
    _type_fault,
    atomic_write_text,
    check_dataset_kind,
    check_int_range,
    check_scalars,
    check_seed,
    csv_text,
    embed_batch,
    linear_map_gradient,
    make_embedding,
    read_utf8,
    rows_matmul,
    unit_rows_backward,
)
from .engine import batched_expectations, dense_expectations, qsa_arrays, qsa_registers
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
    # a run setting: it changes how a run is observed, not what it trains, so
    # `config_hash` reads it at its default
    record_timing: bool = field(default=False, metadata={"run_setting": True})

    def __post_init__(self):
        check_scalars(self, **_field_types(TrainConfig))
        for name in _field_types(TrainConfig):
            if isinstance(value := getattr(self, name), np.generic):  # config_hash and the manifest write JSON
                object.__setattr__(self, name, value.item())
        choices = {"model_kind": MODEL_KINDS, "gradient_mode": ("parameter-shift", "finite-difference"),
                   "expectation_route": ("analytic", "circuit")}
        for name, options in choices.items():
            if getattr(self, name) not in options:
                raise ConfigurationError(f"{name} must be one of {options}, got {getattr(self, name)!r}")
        check_seed(self.seed)
        if self.shots is not None:
            check_int_range(self.shots, INT64_MAX, "shots")
        lowest = {"epochs": 0, "num_layers": 0, "embed_dim": 1, "key_dim": 1, "ffn_hidden": 1}
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

    @property
    def data_kind(self) -> str:
        """The data kind the model was made for: the ``DATA_KINDS`` entry complex just when its embedding is."""
        complex_embedding = np.iscomplexobj(self.embedding.matrix)
        return next(name for name, kind in DATA_KINDS.items() if kind.complex_valued == complex_embedding)


@dataclass(frozen=True)
class CheckpointIdentity:
    """A checkpoint's fields beside its params: the kind it holds, the data
    kind it was trained on, and the hash and seed of its config."""

    model_kind: str
    data_kind: str
    config_hash: str
    seed: int

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        check_dataset_kind(self.data_kind)
        check_seed(self.seed)


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
    block.  What follows from ``blocks``, and from the one embedding every
    kind shares, is defined here:

    - ``fields``: the ModelParams attributes the kind owns;
    - ``arrays(params)``: (label, array) pairs, the array fields of the
      blocks in order, which is the circuit-vector order;
    - ``rebuild(template, parts)``: the blocks with arrays shaped like ``arrays``;
    - ``to_payload(params)`` / ``from_payload(payload)``: its checkpoint v1 block;
    - ``rows(params, inputs)``: one ``embed_batch`` of (S, T+1, D) input rows,
      split into (tokens, targets, token_norms, target_norms): x_1..x_T, the
      shift-free rows of steps 2..T+1, and the norms the embedding took;
    - ``forward(params, inputs)``: the kernel on ``rows``, and a backward pass
      from the outputs' gradient to the gradients of ``arrays``, then of the
      embedding matrix (a list); the analytic route of ``_Adapter._evaluate``;

    each entry provides the rest:

    - ``check_arrays(params, num_steps)``: a ConfigurationError unless its
      arrays fit the embedding and the step count (qsa: `qsa_registers`);
    - ``init(config, dataset, seeds, complex_valued)``: seeded field values,
      a ConfigurationError for shapes that cannot host the kind;
    - ``kernel(params, inputs, tokens, targets, token_norms, target_norms)``:
      the outputs the losses depend on, and a backward pass from their
      gradient to (g_tokens, g_targets or None, *gradients of ``arrays``);
    - ``loss(outputs)``: per-sequence offset losses, the count of floored
      probabilities and d losses / d outputs, all from one floor mask: a
      floored probability is counted and passes no slope back;
    - ``scores(params, inputs)``: (S, T, D) next-word scores, for
      ``predict_topk``; no loss or gradient reads them.

    Complex gradients are dL/dRe + i dL/dIm, so ``_to_real_vector`` lays
    them out like the parameters.

    ``circuit`` marks outputs that are measured circuit expectations, to
    which shot sampling, the dense circuit route and the parameter-shift
    rule apply; such a kind provides ``circuit_outputs(params, inputs)``,
    ``forward``'s outputs by dense simulation, for the circuit route.
    """

    blocks: tuple = ()
    fields = property(lambda self: tuple(attr for _, attr, _ in self.blocks))
    circuit = False

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

    def rows(self, params: ModelParams, inputs: np.ndarray) -> tuple:
        x, shift_free, x_norms, shift_free_norms = embed_batch(inputs, params.embedding)
        return x[:, :-1], shift_free[:, 1:], x_norms[:, :-1], shift_free_norms[:, 1:]

    def forward(self, params: ModelParams, inputs: np.ndarray):
        outputs, kernel_backward = self.kernel(params, inputs, *self.rows(params, inputs))

        def backward(g_outputs):
            g_tokens, g_targets, *grads = kernel_backward(g_outputs)
            g_rows = np.zeros_like(g_tokens, shape=inputs.shape[:-1] + g_tokens.shape[-1:])
            g_rows[:, :-1] = g_tokens
            if g_targets is not None:
                g_rows[:, 1:] += g_targets
            return [*grads, linear_map_gradient(g_rows, inputs)]

        return outputs, backward


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

    def check_arrays(self, params, num_steps):
        qsa_registers(num_steps, params.embedding.embed_dim, params.v_params, params.w_params, params.r_params)

    def init(self, config, dataset, seeds, complex_valued):
        lay = RegisterLayout.of(dataset.num_steps, config.embed_dim)
        return {
            "v_params": AnsatzParams.random(lay.n, config.num_layers, seeds[0]),
            "w_params": AnsatzParams.random(lay.n, config.num_layers, seeds[1]),
            "r_params": PhaseLayerParams.random(lay.t, seeds[2]),
        }

    def loss(self, exps):
        floored = exps < PROBABILITY_FLOOR
        kept = np.maximum(exps, PROBABILITY_FLOOR)
        return -np.log(kept), int(np.sum(floored)), np.where(floored, 0.0, -1.0 / kept)

    def _prepared(self, params, tokens, targets, token_norms, target_norms):
        """What kernel, circuit_outputs and scores start from: `qsa_arrays`
        of the unit token and target rows.  A row whose norm overflowed
        would divide to zero and leave the outputs finite; it divides to NaN
        instead, so the loss and the scores it reaches read as non-finite."""
        tok, tgt = (rows / np.where(np.isfinite(norms), norms, np.nan)[..., None]
                    for rows, norms in ((tokens, token_norms), (targets, target_norms)))
        return qsa_arrays(tok, tgt, params.v_params, params.w_params, params.r_params)

    def circuit_outputs(self, params, inputs):
        """The expectations by one batched dense simulation of every sequence's circuit."""
        arrays, _ = self._prepared(params, *self.rows(params, inputs))
        if any(np.isnan(rows).any() for rows in arrays[:2]):  # no state to prepare: NaN, as on the analytic route
            return np.full(len(inputs), np.nan)
        return dense_expectations(*arrays)

    def kernel(self, params, inputs, tokens, targets, token_norms, target_norms):
        arrays, maps_backward = self._prepared(params, tokens, targets, token_norms, target_norms)
        tok, tgt = arrays[:2]
        exps, backward = batched_expectations(*arrays)

        def kernel_backward(g_exps):
            g_tok, g_tgt, *g_maps = backward(g_exps)
            return (unit_rows_backward(tok, token_norms, g_tok), unit_rows_backward(tgt, target_norms, g_tgt),
                    *maps_backward(*g_maps))

        return exps, kernel_backward

    def scores(self, params, inputs):
        tok, _, v_matrix, w_matrix, _ = self._prepared(params, *self.rows(params, inputs))[0]
        return _overlap_scores(causal_attention_vjp(tok, v_matrix, w_matrix)[0], params.embedding)


class _Baseline(_Model):
    """A classical kind: one params dataclass, held in the ModelParams
    attribute named after the kind, and the divergence-formula loss."""

    def check_arrays(self, params, num_steps):
        part = getattr(params, self.fields[0])
        if part.embed_dim != params.embedding.embed_dim:
            raise ConfigurationError(f"{self.fields[0]} arrays act on {part.embed_dim}-dimensional tokens, "
                                     f"the embedding on {params.embedding.embed_dim}")

    def loss(self, ratios):
        floored = ratios < PROBABILITY_FLOOR
        roots = np.sqrt(np.clip(ratios, PROBABILITY_FLOOR, 1.0))
        sums = np.sum(roots, axis=-1, keepdims=True)
        # Divergence-formula loss at alpha = 1/2 over the T steps of the last
        # axis, without the log T constant the circuit would add.
        losses = -2.0 * np.log(sums[..., 0]) + 2.0 * np.log(ratios.shape[-1])
        return losses, int(np.sum(floored)), np.where(floored | (ratios > 1.0), 0.0, -1.0 / (sums * roots))


class _Scsa(_Baseline):
    blocks = ((None, "scsa", ScsaParams),)

    def init(self, config, dataset, seeds, complex_valued):
        return {"scsa": ScsaParams.random(config.embed_dim, dataset.vocab_dim, seeds[0], key_dim=config.key_dim,
                                          hidden_dim=config.ffn_hidden, complex_valued=complex_valued)}

    def check_arrays(self, params, num_steps):
        if params.scsa.vocab_dim != params.embedding.vocab_dim:
            raise ConfigurationError(f"scsa anti-embedding covers {params.scsa.vocab_dim} words, "
                                     f"the embedding {params.embedding.vocab_dim}")
        super().check_arrays(params, num_steps)

    def kernel(self, params, inputs, tokens, targets, token_norms, target_norms):
        _, probs, backward = scsa_vjp(tokens, inputs, params.scsa)

        def kernel_backward(g_probs):
            g_tokens, grads = backward(g_probs)
            return g_tokens, None, *grads

        return probs, kernel_backward

    def scores(self, params, inputs):
        distributions, _ = scsa_forward_batch(inputs, params.embedding, params.scsa)
        return distributions


class _Lcsa(_Baseline):
    blocks = ((None, "lcsa", LcsaParams),)

    def init(self, config, dataset, seeds, complex_valued):
        return {"lcsa": LcsaParams.near_identity(config.embed_dim, seeds[0], complex_valued=complex_valued)}

    def kernel(self, params, inputs, tokens, targets, token_norms, target_norms):
        return lcsa_forward_batch(tokens, targets, target_norms, params.lcsa)

    def scores(self, params, inputs):
        z = causal_attention_vjp(self.rows(params, inputs)[0], params.lcsa.value_map, params.lcsa.affinity_map)[0]
        return _overlap_scores(z, params.embedding)


MODELS = {"qsa": _Qsa(), "scsa": _Scsa(), "lcsa": _Lcsa()}
MODEL_KINDS = tuple(MODELS)


def initialize_params(config: TrainConfig, dataset: SequenceDataset) -> ModelParams:
    """Seeded near-identity initialization consistent with the dataset kind."""
    if config.embed_dim >= dataset.vocab_dim:
        raise ConfigurationError("embed_dim must be smaller than the vocabulary dimension")
    children = np.random.SeedSequence(config.seed).spawn(4)
    complex_valued = DATA_KINDS[dataset.kind].complex_valued
    try:
        embedding = make_embedding(dataset.vocab_dim, config.embed_dim, dataset.num_steps + 1, children[0],
                                   complex_valued=complex_valued, gamma=config.gamma)
        parts = MODELS[config.model_kind].init(config, dataset, children[1:], complex_valued)
    except ConfigurationError:
        raise
    except (ValueError, MemoryError):  # numpy refusing a shape, or an allocation that fails
        raise ConfigurationError(
            f"{config.model_kind} parameters of embed_dim {config.embed_dim}, num_layers {config.num_layers}, "
            f"key_dim {config.key_dim} and ffn_hidden {config.ffn_hidden} over {dataset.vocab_dim} words "
            "are too large to allocate"
        ) from None
    return ModelParams(config.model_kind, embedding, **parts)


def _fitted_model(params: ModelParams, dataset: SequenceDataset) -> _Model:
    """The table entry of ``params``' kind, once ``params`` are checked to fit
    ``dataset``; a misfit is a ``CompatibilityError`` that names the dataset's
    ``source`` file, if it has one."""
    model = MODELS[params.model_kind]
    num_shifts = params.embedding.shifts.shape[0]
    try:  # each misfit raised as check_arrays raises its own, then named once below
        if dataset.kind != params.data_kind:
            raise ConfigurationError(f"model was trained on {params.data_kind} data, got {dataset.kind}")
        if params.embedding.vocab_dim != dataset.vocab_dim:
            raise ConfigurationError(f"model vocabulary {params.embedding.vocab_dim} != dataset {dataset.vocab_dim}")
        model.check_arrays(params, dataset.num_steps)
        if num_shifts < dataset.num_steps + 1:
            raise ConfigurationError(f"embedding has {num_shifts} positional shifts, fewer than the dataset's "
                                     f"{dataset.num_steps + 1} tokens per sequence")
    except ConfigurationError as exc:
        raise CompatibilityError(f"{exc} from {dataset.source}" if dataset.source else str(exc)) from None
    return model


class _Adapter:
    """Batched loss/gradient machinery bound to one (params, dataset) pair
    and the training configuration."""

    def __init__(self, params: ModelParams, dataset: SequenceDataset, config: TrainConfig):
        self.model = _fitted_model(params, dataset)
        self.config = config
        self.inputs = dataset.input_rows()
        self.template = params
        self._circuit_templates = [arr for _, arr in self.model.arrays(params)]
        self._embed_templates = [params.embedding.matrix]
        # each vector's gradient rule, (circuit, embedding), read off the config once;
        # unbound, so that the adapter is not a reference cycle that outlives train
        if config.gradient_mode == "finite-difference":
            circuit = embed = _Adapter._difference
        elif config.shots is not None or config.expectation_route == "circuit":  # measured outputs
            circuit, embed = _Adapter._shift, _Adapter._difference
        else:
            circuit = embed = _Adapter._backward
        self.rules = (circuit, embed if config.embedding_trainable else _Adapter._frozen)

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

    def _evaluate(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """(params, outputs, backward) at (circuit_vec, embed_vec): the kind's
        forward and its backward pass on the analytic route, the dense
        simulation and no backward on the circuit route, then shot samples of
        either.  Only the backward rule reads ``backward``, and the adapter
        picks that rule only where the outputs are the forward's own."""
        params = self.rebuild(circuit_vec, embed_vec)
        if self.config.expectation_route == "circuit":
            outputs, backward = self.model.circuit_outputs(params, self.inputs), None
        else:
            outputs, backward = self.model.forward(params, self.inputs)
        if self.config.shots:
            outputs = self._sample(outputs, circuit_vec, embed_vec)
        return params, outputs, backward

    def _sample(self, exps: np.ndarray, circuit_vec: np.ndarray, embed_vec: np.ndarray) -> np.ndarray:
        if np.isnan(exps).any():  # nothing to sample; the loss reads as non-finite
            return exps
        # Seed derived from parameter content keeps shot noise reproducible.
        digest = zlib.crc32(circuit_vec.tobytes()) ^ zlib.crc32(embed_vec.tobytes())
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, digest]))
        clipped = np.clip(exps, 0.0, 1.0)
        return rng.binomial(self.config.shots, clipped) / self.config.shots

    def mean_loss(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """Mean offset loss over the sequences and the count of floored probabilities."""
        return self.step(circuit_vec, embed_vec)[1:3]

    # gradients -----------------------------------------------------------------

    def step(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """One training row from one evaluation: (params, mean loss, clamp
        count, gradients), where ``gradients()`` returns the circuit and
        embedding gradient vectors, each by its vector's rule."""
        vecs = (circuit_vec, embed_vec)
        params, outputs, backward = self._evaluate(*vecs)
        losses, clamped, slopes = self.model.loss(outputs)
        exact = functools.cache(lambda: backward(slopes / outputs.shape[0]))  # one pass serves both vectors
        return (params, float(np.mean(losses)), clamped,
                lambda: tuple(rule(self, vecs, side, slopes, exact) for side, rule in enumerate(self.rules)))

    def gradients(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """Circuit and embedding gradient vectors at (circuit_vec, embed_vec)."""
        return self.step(circuit_vec, embed_vec)[-1]()

    # Gradient rules: rule(self, vecs, side, slopes, exact) is the gradient of
    # the row's mean loss by vecs[side], from the row's loss slopes or from
    # its backward pass ``exact()``, which runs at most once.

    def _backward(self, vecs, side, slopes, exact):
        grads = (exact()[:-1], exact()[-1:])[side]
        templates = (self._circuit_templates, self._embed_templates)[side]
        return _to_real_vector([g if np.iscomplexobj(t) else g.real for g, t in zip(grads, templates)])

    def _frozen(self, vecs, side, slopes, exact):
        return np.zeros(vecs[side].size)

    def _shift(self, vecs, side, slopes, exact):
        """The shift rule on the measured outputs, through the row's slopes."""

        def derivative(at, i):
            shifted = parameter_shift_gradient(lambda vec: self._evaluate(*at(vec))[1], vecs[side], i)
            return np.mean(slopes * shifted)

        return self._perturbed(vecs, side, derivative)

    def _difference(self, vecs, side, slopes, exact):
        """Central differences of the mean loss, at step ``fd_step``."""
        h = self.config.fd_step

        def derivative(at, i):
            plus, minus = vecs[side].copy(), vecs[side].copy()
            plus[i] += h
            minus[i] -= h
            return (self.mean_loss(*at(plus))[0] - self.mean_loss(*at(minus))[0]) / (2.0 * h)

        return self._perturbed(vecs, side, derivative)

    def _perturbed(self, vecs, side, derivative):
        """The one perturbation loop: ``derivative(at, i)`` for each entry i of
        vecs[side], where ``at(vec)`` is ``vecs`` with ``vec`` as vecs[side]."""
        at = lambda vec: vecs[:side] + (vec,) + vecs[side + 1:]
        return np.array([derivative(at, i) for i in range(vecs[side].size)])


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
    if config.epochs == 0:
        return params, LossReport(rows=[])
    log_offset = math.log(dataset.num_steps)
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
            params, loss, clamped, gradients = adapter.step(circuit_vec, embed_vec)
        clamp_total += clamped
        if not math.isfinite(loss):
            raise failure(f"non-finite loss at epoch {epoch}")
        # Perturbed forwards may overflow too; a non-finite gradient ends in
        # the update check below.
        with np.errstate(all="ignore"):
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
    return params, LossReport(rows=rows, clamp_events=clamp_total)


def evaluate(params: ModelParams, datasets) -> LossReport:
    """Forward-only losses; aggregates perplexity mean and stdev across sets.

    The sets are evaluated in order, and the first whose loss is not finite,
    as an overflowing forward makes it, raises NumericFailureError.
    """
    datasets = [datasets] if isinstance(datasets, SequenceDataset) else list(datasets)
    if not datasets:
        raise ConfigurationError("evaluation needs at least one dataset")
    models = [_fitted_model(params, ds) for ds in datasets]  # every misfit before the first forward pass
    per_set = []
    for model, ds in zip(models, datasets):
        # An overflowing forward reaches the loss, which is checked below.
        with np.errstate(all="ignore"):
            losses, clamped, _ = model.loss(model.forward(params, ds.input_rows())[0])
            loss = float(np.mean(losses))
        if not math.isfinite(loss):
            raise NumericFailureError(f"non-finite loss on {ds.source}" if ds.source else "non-finite loss")
        per_set.append({"loss_offset": loss, "loss": loss + math.log(ds.num_steps), "perplexity": math.exp(loss),
                        "clamped": clamped})
    perps = np.array([entry["perplexity"] for entry in per_set])
    return LossReport(
        rows=[],
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
    model = _fitted_model(params, dataset)  # a misfit is reported before a bad k
    check_int_range(k, params.embedding.vocab_dim, "k")
    # An overflowing forward reaches the scores, which are checked below.
    with np.errstate(all="ignore"):
        scores = model.scores(params, dataset.input_rows())
    if not np.isfinite(scores).all():
        raise NumericFailureError(f"non-finite prediction scores on {dataset.source}" if dataset.source
                                  else "non-finite prediction scores")
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    return TopK(order, np.take_along_axis(scores, order, axis=-1))


# checkpoint codec ----------------------------------------------------------------


def config_hash(config: TrainConfig) -> str:
    """SHA-256 of the config's canonical JSON with each run setting at its
    default, so that two configs that train alike hash alike."""
    values = asdict(config)
    values.update({f.name: f.default for f in dataclass_fields(TrainConfig) if f.metadata.get("run_setting")})
    canonical = json.dumps(values, sort_keys=True)
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
        if fault := annotation is not np.ndarray and _type_fault(block[name], annotation):
            raise CheckpointFormatError(f"checkpoint field {name} {block[name]!r} is not {fault}")
    return cls(**{name: _decode_array(block[name]) if annotation is np.ndarray else block[name]
                  for name, annotation in _field_types(cls).items()})


def params_to_payload(params: ModelParams) -> dict:
    return {"model_kind": params.model_kind, "embedding": _payload(params.embedding),
            params.model_kind: MODELS[params.model_kind].to_payload(params)}


def params_from_payload(payload: dict) -> ModelParams:
    kind = payload["model_kind"]
    embedding = _from_payload(EmbeddingMap, payload["embedding"])
    return ModelParams(kind, embedding, **MODELS[kind].from_payload(payload[kind]))


def checkpoint_document(params: ModelParams, config: TrainConfig) -> dict:
    identity = CheckpointIdentity(params.model_kind, params.data_kind, config_hash(config), config.seed)
    return {"version": CHECKPOINT_VERSION, **_payload(identity), "params": params_to_payload(params)}


def save_checkpoint(params: ModelParams, config: TrainConfig, path) -> None:
    atomic_write_text(path, json.dumps(checkpoint_document(params, config), sort_keys=True))


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """The params of the checkpoint at ``path`` and its identity, as a dict of
    ``CheckpointIdentity``'s fields; a file that is not a v1 checkpoint is a
    ``CompatibilityError``."""
    try:
        doc = json.loads(read_utf8(path, CheckpointFormatError))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: arrays or objects nested too deeply
        raise CheckpointFormatError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointFormatError("checkpoint is missing its version field")
    if _type_fault(doc["version"], int) or doc["version"] != CHECKPOINT_VERSION:  # true and 1.0 equal 1
        raise UnsupportedVersionError(f"checkpoint version {doc['version']} is not supported "
                                      f"(expected {CHECKPOINT_VERSION})")
    try:
        identity = _from_payload(CheckpointIdentity, doc)
        if identity.model_kind != doc["params"]["model_kind"]:
            raise CheckpointFormatError(f"checkpoint model_kind {identity.model_kind!r} disagrees with its params")
        params = params_from_payload(doc["params"])
        if identity.data_kind != params.data_kind:
            raise CheckpointFormatError(f"checkpoint data_kind {identity.data_kind!r} disagrees with its params")
    except (KeyError, TypeError, ConfigurationError) as exc:
        # a ConfigurationError here is an identity field that breaks its rule
        # or a params array of the wrong shape
        raise CheckpointFormatError(f"checkpoint field missing or malformed: {exc!r}") from exc
    return params, asdict(identity)


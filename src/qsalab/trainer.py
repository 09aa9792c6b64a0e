"""End-to-end optimization for the three sequence models.

Gradient assembly (shift rule for circuit angles, central differences for
everything else), adaptive-moment updates, per-epoch loss reporting, and
versioned JSON checkpoints.  Runs are deterministic for a fixed (config,
seed, dataset) triple: reductions happen in fixed order and the optional
thread pool writes results by index.

What differs between the three kinds lives in one table, ``MODELS``, keyed
by kind; training, evaluation, prediction and the checkpoint codec
dispatch through it once instead of branching on the kind.

Reported quantities: ``train_loss_offset`` is the comparable per-epoch loss
(the interference loss without its additive log T constant, which for the
baselines is the divergence-formula value itself); ``train_loss`` adds the
log T constant back; ``perplexity`` is exp of the offset loss.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from dataclasses import fields as dataclass_fields
from typing import Sequence

import numpy as np

from .ansatz import AnsatzParams, PhaseLayerParams, build_ansatz_unitary, phase_layer_diagonal
from .classical import (
    LcsaParams,
    ScsaParams,
    causal_attention,
    lcsa_forward_batch,
    output_weights,
    scsa_forward_batch,
)
from .data import ZERO_NORM_TOL, EmbeddingMap, SequenceDataset, atomic_write_text, embed_batch, make_embedding
from .engine import EXPECTATION_FLOOR, QsaInstance, batched_expectations, circuit_expectation
from .errors import (
    CheckpointFormatError,
    CompatibilityError,
    ConfigurationError,
    NumericFailureError,
    UnsupportedVersionError,
)
from .objectives import PROBABILITY_FLOOR

THREADS_ENV = "QSALAB_THREADS"
CHECKPOINT_VERSION = 1
CSV_HEADER = "epoch,train_loss_offset,train_loss,perplexity,grad_norm,seconds"


def _thread_cap() -> int:
    raw = os.environ.get(THREADS_ENV)
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ConfigurationError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc


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
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(f"model_kind must be one of {MODEL_KINDS}")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        for name in ("learning_rate", "embedding_learning_rate", "epsilon", "fd_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")
        if self.gradient_mode not in ("parameter-shift", "finite-difference"):
            raise ConfigurationError("gradient_mode must be parameter-shift or finite-difference")
        if self.shots is not None and self.shots < 1:
            raise ConfigurationError("shots must be a positive integer when set")
        if self.expectation_route not in ("analytic", "circuit"):
            raise ConfigurationError("expectation_route must be analytic or circuit")


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
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.epoch},{_fmt(row.train_loss_offset)},{_fmt(row.train_loss)},"
                f"{_fmt(row.perplexity)},{_fmt(row.grad_norm)},{_fmt(row.seconds)}"
            )
        return "\n".join(lines) + "\n"

    def final_loss_offset(self) -> float:
        if not self.rows:
            raise ConfigurationError("report holds no epochs")
        return self.rows[-1].train_loss_offset


def _fmt(value: float) -> str:
    return repr(float(value))


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
    """One model kind.  Each entry of MODELS provides:

    - ``fields``: the ModelParams attributes the kind owns;
    - ``check(embed_dim, num_steps)``: why those shapes cannot host it, or None;
    - ``init(config, dataset, seeds, complex_valued)``: seeded field values;
    - ``arrays(params)``: (name, array) pairs in circuit-vector order;
    - ``rebuild(template, parts)``: field values from arrays shaped like ``arrays``;
    - ``to_payload(params)`` / ``from_payload(payload)``: its checkpoint v1 block;
    - ``outputs(params, inputs, config)``: what its losses depend on, for
      (S, T+1, D) input rows;
    - ``losses(outputs, num_steps)``: per-sequence offset losses and the count
      of floored probabilities;
    - ``scores(params, inputs)``: (S, T, D) next-word scores.

    ``circuit`` marks outputs that are measured circuit expectations, to
    which shot sampling and the parameter-shift rule apply.
    """

    fields: tuple = ()
    circuit = False

    def check(self, embed_dim: int, num_steps: int) -> str | None:
        return None

    def to_payload(self, params: ModelParams) -> dict:
        return {name: _encode_array(arr) for name, arr in self.arrays(params)}


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _overlap_scores(z: np.ndarray, emap: EmbeddingMap) -> np.ndarray:
    """Squared overlaps of normalized attention outputs with the embedded vocabulary."""
    candidates = emap.matrix.T  # row per word
    cand_norms = np.linalg.norm(candidates, axis=1)
    if np.any(cand_norms <= ZERO_NORM_TOL):
        raise ConfigurationError("a vocabulary column embeds to the zero vector")
    unit = z / np.sqrt(output_weights(z))[..., None]
    return np.abs(unit @ (candidates / cand_norms[:, None]).conj().T) ** 2


class _Qsa(_Model):
    fields = ("v_params", "w_params", "r_params")
    circuit = True

    def check(self, embed_dim, num_steps):
        if embed_dim & (embed_dim - 1) or embed_dim < 2:
            return "qsa needs a power-of-two embed_dim >= 2"
        if num_steps & (num_steps - 1) or num_steps < 2:
            return "qsa needs a power-of-two step count >= 2"
        return None

    def init(self, config, dataset, seeds, complex_valued):
        n = int(config.embed_dim).bit_length() - 1
        t = int(dataset.num_steps).bit_length() - 1
        return {
            "v_params": AnsatzParams.random(n, config.num_layers, seeds[0]),
            "w_params": AnsatzParams.random(n, config.num_layers, seeds[1]),
            "r_params": PhaseLayerParams.random(t, seeds[2]),
        }

    def arrays(self, params):
        return [("v", params.v_params.angles), ("w", params.w_params.angles), ("r", params.r_params.angles)]

    def rebuild(self, template, parts):
        return {
            "v_params": replace(template.v_params, angles=parts[0]),
            "w_params": replace(template.w_params, angles=parts[1]),
            "r_params": PhaseLayerParams(parts[2]),
        }

    def to_payload(self, params):
        return {
            "v": _ansatz_payload(params.v_params),
            "w": _ansatz_payload(params.w_params),
            "r": {"angles": _encode_array(params.r_params.angles)},
        }

    def from_payload(self, payload):
        return {
            "v_params": _ansatz_from_payload(payload["v"]),
            "w_params": _ansatz_from_payload(payload["w"]),
            "r_params": PhaseLayerParams(_decode_array(payload["r"]["angles"])),
        }

    def outputs(self, params, inputs, config):
        x, shift_free = embed_batch(inputs, params.embedding)
        if config is not None and config.expectation_route == "circuit":
            maps = (params.v_params, params.w_params, params.r_params)
            return np.array([circuit_expectation(QsaInstance.from_vectors(xs, sf[1:], *maps))
                             for xs, sf in zip(x, shift_free)])
        return batched_expectations(
            _unit_rows(x[:, :-1]),
            _unit_rows(shift_free[:, 1:]),
            build_ansatz_unitary(params.v_params).matrix,
            build_ansatz_unitary(params.w_params).matrix,
            phase_layer_diagonal(params.r_params),
        )

    def losses(self, exps, num_steps):
        clamped = int(np.sum(exps < EXPECTATION_FLOOR))
        return -np.log(np.maximum(exps, EXPECTATION_FLOOR)), clamped

    def scores(self, params, inputs):
        x, _ = embed_batch(inputs, params.embedding)
        z = causal_attention(
            _unit_rows(x[:, :-1]),
            build_ansatz_unitary(params.v_params).matrix,
            build_ansatz_unitary(params.w_params).matrix,
        )
        return _overlap_scores(z, params.embedding)


class _Baseline(_Model):
    """A classical kind whose arrays are the fields of one params dataclass,
    held in the ModelParams attribute named after the kind."""

    params_type = None

    def arrays(self, params):
        part = getattr(params, self.fields[0])
        return [(f.name, getattr(part, f.name)) for f in dataclass_fields(part)]

    def rebuild(self, template, parts):
        return {self.fields[0]: self.params_type(*parts)}

    def from_payload(self, payload):
        return self.rebuild(None, [_decode_array(payload[f.name]) for f in dataclass_fields(self.params_type)])

    def losses(self, ratios, num_steps):
        clamped = int(np.sum(ratios < PROBABILITY_FLOOR))
        ratios = np.clip(ratios, PROBABILITY_FLOOR, 1.0)
        # Divergence-formula loss at alpha = 1/2, without the log T constant
        # the circuit would add.
        losses = -2.0 * np.log(np.sum(np.sqrt(ratios), axis=-1)) + 2.0 * np.log(num_steps)
        return losses, clamped


class _Scsa(_Baseline):
    fields = ("scsa",)
    params_type = ScsaParams

    def init(self, config, dataset, seeds, complex_valued):
        return {"scsa": ScsaParams.random(config.embed_dim, dataset.vocab_dim, seeds[0], key_dim=config.key_dim,
                                          hidden_dim=config.ffn_hidden, complex_valued=complex_valued)}

    def outputs(self, params, inputs, config):
        _, probs = scsa_forward_batch(inputs, params.embedding, params.scsa)
        return probs

    def scores(self, params, inputs):
        distributions, _ = scsa_forward_batch(inputs, params.embedding, params.scsa)
        return distributions


class _Lcsa(_Baseline):
    fields = ("lcsa",)
    params_type = LcsaParams

    def init(self, config, dataset, seeds, complex_valued):
        return {"lcsa": LcsaParams.near_identity(config.embed_dim, seeds[0], complex_valued=complex_valued)}

    def outputs(self, params, inputs, config):
        x, shift_free = embed_batch(inputs, params.embedding)
        values, normalizers = lcsa_forward_batch(x, shift_free, params.lcsa)
        return values / normalizers

    def scores(self, params, inputs):
        x, _ = embed_batch(inputs, params.embedding)
        z = causal_attention(x[:, :-1], params.lcsa.value_map, params.lcsa.affinity_map)
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


class _Adapter:
    """Batched loss/gradient machinery bound to one (params, dataset) pair."""

    def __init__(self, params: ModelParams, dataset: SequenceDataset, config: TrainConfig | None):
        self.model = MODELS[params.model_kind]
        self.config = config
        self.num_steps = dataset.num_steps
        self.inputs = dataset.input_rows()
        self.template = params
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
        problem = self.model.check(params.embedding.embed_dim, dataset.num_steps)
        if problem:
            raise CompatibilityError(problem)
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
        outputs = self.model.outputs(self.rebuild(circuit_vec, embed_vec), self.inputs, self.config)
        if self.model.circuit and self.config is not None and self.config.shots:
            outputs = self._sample(outputs, circuit_vec, embed_vec)
        return outputs

    def _sample(self, exps: np.ndarray, circuit_vec: np.ndarray, embed_vec: np.ndarray) -> np.ndarray:
        # Seed derived from parameter content keeps shot noise reproducible
        # and thread-safe.
        digest = zlib.crc32(circuit_vec.tobytes()) ^ zlib.crc32(embed_vec.tobytes())
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, digest]))
        clipped = np.clip(exps, 0.0, 1.0)
        return rng.binomial(self.config.shots, clipped) / self.config.shots

    def mean_loss(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        """Mean offset loss over the sequences and the count of floored probabilities."""
        losses, clamped = self.model.losses(self._outputs(circuit_vec, embed_vec), self.num_steps)
        return float(np.mean(losses)), clamped

    # gradients -----------------------------------------------------------------

    def gradients(self, circuit_vec: np.ndarray, embed_vec: np.ndarray):
        config = self.config
        if config is None:
            raise ConfigurationError("gradients need a training configuration")
        cap = _thread_cap()
        if self.model.circuit and config.gradient_mode == "parameter-shift":
            base = self._outputs(circuit_vec, embed_vec)
            scale = np.where(base > EXPECTATION_FLOOR, -1.0 / np.maximum(base, EXPECTATION_FLOOR), 0.0)

            def shift_task(i: int) -> float:
                plus = circuit_vec.copy()
                minus = circuit_vec.copy()
                plus[i] += np.pi / 2
                minus[i] -= np.pi / 2
                delta = self._outputs(plus, embed_vec) - self._outputs(minus, embed_vec)
                return float(np.mean(scale * delta / 2.0))

            grad_circuit = _map_indices(shift_task, circuit_vec.size, cap)
        else:
            grad_circuit = _map_indices(
                lambda i: self._central_difference(circuit_vec, embed_vec, 0, i), circuit_vec.size, cap
            )
        if not config.embedding_trainable:
            return grad_circuit, np.zeros(embed_vec.size)
        grad_embed = _map_indices(lambda i: self._central_difference(circuit_vec, embed_vec, 1, i), embed_vec.size, cap)
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


def _map_indices(task, size: int, cap: int) -> np.ndarray:
    out = np.zeros(size)
    if cap > 1 and size > 1:
        with ThreadPoolExecutor(max_workers=min(cap, size)) as pool:
            for i, value in enumerate(pool.map(task, range(size))):
                out[i] = value
    else:
        for i in range(size):
            out[i] = task(i)
    return out


def train(config: TrainConfig, dataset: SequenceDataset) -> tuple[ModelParams, LossReport]:
    """Optimize from a seeded initialization; rows cover epochs 0..epochs.

    Row e reports the loss and gradient at the parameters after e updates,
    so row 0 is the untouched initialization and the last row matches a
    forward-only evaluation of the returned parameters.
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
    for epoch in range(config.epochs + 1):
        started = time.perf_counter()
        loss, clamped = adapter.mean_loss(circuit_vec, embed_vec)
        clamp_total += clamped
        if not math.isfinite(loss):
            raise NumericFailureError(
                f"non-finite loss at epoch {epoch}",
                diagnostic={
                    "epoch": epoch,
                    "loss": repr(loss),
                    "model_kind": config.model_kind,
                    "circuit_norm": float(np.linalg.norm(circuit_vec)),
                    "embedding_norm": float(np.linalg.norm(embed_vec)),
                },
            )
        grad_circuit, grad_embed = adapter.gradients(circuit_vec, embed_vec)
        grad_norm = float(np.sqrt(np.sum(grad_circuit ** 2) + np.sum(grad_embed ** 2)))
        seconds = time.perf_counter() - started if config.record_timing else 0.0
        rows.append(
            EpochRow(epoch, loss, loss + log_offset, math.exp(loss), grad_norm, seconds)
        )
        if epoch == config.epochs:
            break
        circuit_vec = adam_circuit.update(circuit_vec, grad_circuit)
        if config.embedding_trainable:
            embed_vec = adam_embed.update(embed_vec, grad_embed)
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
        adapter = _Adapter(params, ds, None)
        loss, clamped = adapter.mean_loss(adapter.circuit_vector(params), adapter.embed_vector(params))
        per_set.append(
            {
                "loss_offset": loss,
                "loss": loss + math.log(ds.num_steps),
                "perplexity": math.exp(loss),
                "clamped": clamped,
            }
        )
    perps = np.array([entry["perplexity"] for entry in per_set])
    report = LossReport(
        rows=[],
        log_offset=math.log(datasets[0].num_steps),
        clamp_events=sum(entry["clamped"] for entry in per_set),
        test_perplexity_mean=float(np.mean(perps)),
        test_perplexity_stdev=float(np.std(perps, ddof=1)) if len(perps) > 1 else 0.0,
        per_set=per_set,
    )
    return report


def predict_topk(params: ModelParams, dataset: SequenceDataset, k: int = 3) -> list:
    """Per sequence and step, the top-k vocabulary indices with their scores.

    Scores are squared overlaps with the embedded vocabulary for qsa/lcsa
    and the softmax vocabulary distribution for scsa.  Ties break toward
    the lowest word index.
    """
    if k < 1:
        raise ConfigurationError("k must be at least 1")
    adapter = _Adapter(params, dataset, None)
    scores = adapter.model.scores(params, adapter.inputs)
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    top = np.take_along_axis(scores, order, axis=-1)
    return [
        {"id": s, "steps": [
            {"position": j + 2, "top": [{"word": int(w), "score": float(v)} for w, v in zip(order[s, j], top[s, j])]}
            for j in range(dataset.num_steps)
        ]}
        for s in range(order.shape[0])
    ]


# checkpoint codec ----------------------------------------------------------------


def config_hash(config: TrainConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        data = np.ascontiguousarray(arr, dtype=np.complex128).view(np.float64).ravel()
        return {"shape": list(arr.shape), "complex": True, "data": [float(v) for v in data]}
    return {
        "shape": list(arr.shape),
        "complex": False,
        "data": [float(v) for v in np.asarray(arr, dtype=np.float64).ravel()],
    }


def _decode_array(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=np.float64)
    if obj["complex"]:
        return data.view(np.complex128).reshape(obj["shape"])
    return data.reshape(obj["shape"])


def params_to_payload(params: ModelParams) -> dict:
    return {
        "model_kind": params.model_kind,
        "embedding": {
            "matrix": _encode_array(params.embedding.matrix),
            "shifts": _encode_array(params.embedding.shifts),
            "gamma": float(params.embedding.gamma),
        },
        params.model_kind: MODELS[params.model_kind].to_payload(params),
    }


def _ansatz_payload(p: AnsatzParams) -> dict:
    return {
        "num_qubits": p.num_qubits,
        "num_layers": p.num_layers,
        "real_valued": p.real_valued,
        "angles": _encode_array(p.angles),
    }


def _ansatz_from_payload(obj: dict) -> AnsatzParams:
    return AnsatzParams(
        obj["num_qubits"], obj["num_layers"], _decode_array(obj["angles"]), obj["real_valued"]
    )


def params_from_payload(payload: dict) -> ModelParams:
    emb = payload["embedding"]
    embedding = EmbeddingMap(_decode_array(emb["matrix"]), _decode_array(emb["shifts"]), emb["gamma"])
    kind = payload["model_kind"]
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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
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
        params = params_from_payload(doc["params"])
        meta = {key: doc[key] for key in ("model_kind", "data_kind", "config_hash", "seed")}
    except (KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"checkpoint field missing or malformed: {exc!r}") from exc
    return params, meta


def checkpoint_roundtrip(params: ModelParams) -> ModelParams:
    """Serialize through the JSON codec and back; bit-exact by construction."""
    return params_from_payload(json.loads(json.dumps(params_to_payload(params))))

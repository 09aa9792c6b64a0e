"""Classical self-attention baselines.

S-CSA: the standard block with scaled-dot-product softmax attention over
the causal prefix, a residual connection, a feed-forward network, and an
anti-embedding softmax over the vocabulary.

L-CSA: the linearized layer whose affinities are plain (bi)linear forms
and whose prediction probability is a normalized squared overlap in token
space; under unitary maps it reproduces the overlap-interference circuit's
per-branch prediction exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ZERO_NORM_TOL, EmbeddingMap, _as_input_rows, embed_batch
from .errors import ConfigurationError, DegenerateInputError, DegeneratePredictionError


def _stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    weights = np.exp(shifted)
    return weights / np.sum(weights, axis=axis, keepdims=True)


def _split_relu(x: np.ndarray) -> np.ndarray:
    # Complex tokens pass through the nonlinearity componentwise.
    if np.iscomplexobj(x):
        return np.maximum(x.real, 0.0) + 1j * np.maximum(x.imag, 0.0)
    return np.maximum(x, 0.0)


@dataclass(frozen=True)
class ScsaParams:
    """Weights of the softmax baseline: Q/K/V maps, feed-forward pair, anti-embedding."""

    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    ffn_in: np.ndarray
    ffn_out: np.ndarray
    anti_embed: np.ndarray

    def __post_init__(self):
        wq = np.array(self.w_query)
        wk = np.array(self.w_key)
        wv = np.array(self.w_value)
        f1 = np.array(self.ffn_in)
        f2 = np.array(self.ffn_out)
        anti = np.array(self.anti_embed)
        d = wv.shape[1]
        if wv.shape != (d, d):
            raise ConfigurationError("value map must be square d x d")
        if wq.shape != wk.shape or wq.shape[1] != d:
            raise ConfigurationError("query/key maps must both be d_K x d")
        hidden = f1.shape[0]
        if hidden < 1 or f1.shape != (hidden, d) or f2.shape != (d, hidden):
            raise ConfigurationError("feed-forward pair must map d -> h -> d with h >= 1")
        if anti.ndim != 2 or anti.shape[1] != d:
            raise ConfigurationError("anti-embedding must be D x d")
        for name, arr in (("w_query", wq), ("w_key", wk), ("w_value", wv),
                          ("ffn_in", f1), ("ffn_out", f2), ("anti_embed", anti)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def key_dim(self) -> int:
        return self.w_query.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w_value.shape[0]

    @property
    def vocab_dim(self) -> int:
        return self.anti_embed.shape[0]

    @staticmethod
    def random(
        embed_dim: int,
        vocab_dim: int,
        seed,
        key_dim: int | None = None,
        hidden_dim: int | None = None,
        complex_valued: bool = False,
    ) -> "ScsaParams":
        key_dim = embed_dim if key_dim is None else key_dim
        hidden_dim = 4 * embed_dim if hidden_dim is None else hidden_dim
        rng = np.random.default_rng(seed)

        def draw(rows, cols, scale):
            mat = rng.normal(size=(rows, cols)) * scale
            if complex_valued:
                mat = (mat + 1j * rng.normal(size=(rows, cols)) * scale) / np.sqrt(2.0)
            return mat

        return ScsaParams(
            w_query=draw(key_dim, embed_dim, embed_dim ** -0.5),
            w_key=draw(key_dim, embed_dim, embed_dim ** -0.5),
            w_value=draw(embed_dim, embed_dim, embed_dim ** -0.5),
            ffn_in=draw(hidden_dim, embed_dim, embed_dim ** -0.5),
            ffn_out=draw(embed_dim, hidden_dim, hidden_dim ** -0.5),
            anti_embed=draw(vocab_dim, embed_dim, embed_dim ** -0.5),
        )


def softmax_attention_layer(tokens: Sequence[np.ndarray], params: ScsaParams, step: int) -> np.ndarray:
    """Softmax-weighted sum of value vectors over positions 1..step."""
    if not 1 <= step <= len(tokens):
        raise ConfigurationError(f"step {step} outside 1..{len(tokens)}")
    prefix = np.stack([np.asarray(t) for t in tokens[:step]])
    query = params.w_query @ prefix[step - 1]
    keys = prefix @ params.w_key.T
    values = prefix @ params.w_value.T
    scores = (keys @ query.conj()).real / np.sqrt(params.key_dim)
    return _stable_softmax(scores) @ values


def scsa_forward_batch(inputs: np.ndarray, emap: EmbeddingMap, params: ScsaParams):
    """Batched forward pass.

    ``inputs``: (S, T+1, D) one-hot rows or amplitude vectors.  Returns the
    (S, T, D) per-step vocabulary distributions and the (S, T) probabilities
    of the true next items.
    """
    x, _ = embed_batch(inputs, emap)
    num_steps = x.shape[1] - 1
    prefix = x[:, :num_steps]
    queries = prefix @ params.w_query.T
    keys = prefix @ params.w_key.T
    values = prefix @ params.w_value.T
    scores = np.einsum("sjc,sic->sji", queries.conj(), keys).real / np.sqrt(params.key_dim)
    causal = np.tril(np.ones((num_steps, num_steps), dtype=bool))
    scores = np.where(causal, scores, -np.inf)
    weights = _stable_softmax(scores, axis=-1)
    attended = np.einsum("sji,sid->sjd", weights, values)
    hidden = _split_relu((attended + prefix) @ params.ffn_in.T)
    transformed = hidden @ params.ffn_out.T
    logits = (transformed @ params.anti_embed.T).real
    distributions = _stable_softmax(logits, axis=-1)
    # Probability of the true next item: index lookup for one-hot rows,
    # Born-weighted average for amplitude rows.
    born = np.abs(inputs[:, 1:, :]) ** 2
    probs = np.einsum("sjl,sjl->sj", distributions, born)
    return distributions, probs


def scsa_forward(words, emap: EmbeddingMap, params: ScsaParams) -> np.ndarray:
    """Per-step probabilities of the true next word for one sequence."""
    inputs = _as_input_rows(words, emap.vocab_dim)
    _, probs = scsa_forward_batch(inputs[None, ...], emap, params)
    return probs[0]


@dataclass(frozen=True)
class LcsaParams:
    """Value map and bilinear affinity map of the linearized baseline."""

    value_map: np.ndarray
    affinity_map: np.ndarray

    def __post_init__(self):
        v = np.array(self.value_map)
        w = np.array(self.affinity_map)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or w.shape != v.shape:
            raise ConfigurationError("value and affinity maps must be square with equal shape")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "value_map", v)
        object.__setattr__(self, "affinity_map", w)

    @property
    def embed_dim(self) -> int:
        return self.value_map.shape[0]

    @staticmethod
    def near_identity(embed_dim: int, seed, spread: float = 0.1, complex_valued: bool = False) -> "LcsaParams":
        rng = np.random.default_rng(seed)

        def draw():
            mat = np.eye(embed_dim) + rng.uniform(-spread, spread, size=(embed_dim, embed_dim))
            if complex_valued:
                mat = mat + 1j * rng.uniform(-spread, spread, size=(embed_dim, embed_dim))
            return mat

        return LcsaParams(draw(), draw())


def linear_attention_layer(tokens: Sequence[np.ndarray], params: LcsaParams, step: int) -> np.ndarray:
    """Unnormalized sum_{i<=step} (x_step^dag W x_i) V x_i."""
    if not 1 <= step <= len(tokens):
        raise ConfigurationError(f"step {step} outside 1..{len(tokens)}")
    prefix = np.stack([np.asarray(t, dtype=complex) for t in tokens[:step]])
    affinities = prefix[step - 1].conj() @ (params.affinity_map @ prefix.T)
    return (params.value_map @ prefix.T) @ affinities


def lcsa_step_probability(
    tokens: Sequence[np.ndarray],
    shifted_targets: Sequence[np.ndarray],
    params: LcsaParams,
    step: int,
) -> float:
    """Squared overlap of the normalized target with the normalized prediction."""
    z = linear_attention_layer(tokens, params, step)
    z_norm = np.linalg.norm(z)
    if z_norm <= ZERO_NORM_TOL:
        raise DegeneratePredictionError(f"linear attention output vanishes at step {step}")
    target = np.asarray(shifted_targets[step - 1], dtype=complex)
    t_norm = np.linalg.norm(target)
    if t_norm <= ZERO_NORM_TOL:
        raise DegenerateInputError(f"target for step {step + 1} is a zero vector")
    return float(abs(np.vdot(target / t_norm, z / z_norm)) ** 2)


def causal_attention(prefix: np.ndarray, value_map: np.ndarray, affinity_map: np.ndarray) -> np.ndarray:
    """Causal linear attention z_j = V sum_{i<=j} (x_j^dag W x_i) x_i at every step.

    ``prefix``: (..., T, d) tokens x_1..x_T; returns (..., T, d).  This is
    the L-CSA output, the qsa prediction state before normalization and,
    contracted with a step's target, the qsa branch amplitude.
    """
    affinities = np.tril(prefix.conj() @ (prefix @ affinity_map.T).swapaxes(-1, -2))
    return (affinities @ prefix) @ value_map.T


def output_weights(z: np.ndarray) -> np.ndarray:
    """Squared norms ||z_j||^2 of attention outputs.

    A vanishing output has no direction to predict or normalize, so it
    raises DegeneratePredictionError instead of yielding NaN.
    """
    weights = np.einsum("...d,...d->...", z.conj(), z).real
    if np.any(weights <= ZERO_NORM_TOL ** 2):
        raise DegeneratePredictionError("an attention output vanishes")
    return weights


def lcsa_forward_batch(x: np.ndarray, x_shift_free: np.ndarray, params: LcsaParams):
    """Batched raw overlap weights and normalizers.

    ``x``: (S, T+1, d) attention inputs; ``x_shift_free``: (S, T+1, d)
    embedding-only tokens whose rows 2..T+1 are the targets.  Returns
    (values, normalizers) with values[s, j] = |<t_norm, z_j>|^2 and
    normalizers[s, j] = ||z_j||^2, so their ratio is the step probability.
    """
    num_steps = x.shape[1] - 1
    z = causal_attention(x[:, :num_steps], params.value_map, params.affinity_map)
    targets = x_shift_free[:, 1:]
    t_norms = np.linalg.norm(targets, axis=-1)
    if np.any(t_norms <= ZERO_NORM_TOL):
        raise DegenerateInputError("a target embedding is a zero vector")
    normalizers = output_weights(z)
    overlaps = np.einsum("sjd,sjd->sj", (targets / t_norms[..., None]).conj(), z)
    return np.abs(overlaps) ** 2, normalizers

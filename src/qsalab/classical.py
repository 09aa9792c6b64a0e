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

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .data import (
    INT64_MAX,
    ZERO_NORM_TOL,
    EmbeddingMap,
    _as_input_rows,
    check_int_range,
    embed_batch,
    freeze,
    linear_map_gradient,
    rows_matmul,
    seeded_rng,
    unit_rows_backward,
)
from .errors import ConfigurationError, DegenerateInputError, DegeneratePredictionError


def _stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    weights = scores - np.max(scores, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=-1, keepdims=True)
    return weights


def _split_relu(x: np.ndarray) -> np.ndarray:
    # Complex tokens pass through the nonlinearity componentwise.
    if np.iscomplexobj(x):
        return np.maximum(x.real, 0.0) + 1j * np.maximum(x.imag, 0.0)
    return np.maximum(x, 0.0)


def _split_relu_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(x):
        return np.where(x.real > 0.0, g.real, 0.0) + 1j * np.where(x.imag > 0.0, g.imag, 0.0)
    return np.where(x > 0.0, g, 0.0)


def _softmax_backward(probs: np.ndarray, g_probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the softmax logits along the last axis; ``out=g_probs``
    overwrites the cotangent, with the same bits."""
    g_logits = np.subtract(g_probs, np.sum(g_probs * probs, axis=-1, keepdims=True), out=out)
    g_logits *= probs
    return g_logits


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
        arrays = {f.name: np.array(getattr(self, f.name)) for f in fields(self)}
        wq, wk, wv, f1, f2, anti = arrays.values()
        if any(arr.ndim != 2 for arr in arrays.values()):
            raise ConfigurationError("S-CSA weights must all be matrices")
        d = wv.shape[1]
        if wv.shape != (d, d):
            raise ConfigurationError("value map must be square d x d")
        if wq.shape != wk.shape or wq.shape[1] != d:
            raise ConfigurationError("query/key maps must both be d_K x d")
        hidden = f1.shape[0]
        if hidden < 1 or f1.shape != (hidden, d) or f2.shape != (d, hidden):
            raise ConfigurationError("feed-forward pair must map d -> h -> d with h >= 1")
        if anti.shape[1] != d:
            raise ConfigurationError("anti-embedding must be D x d")
        freeze(self, **arrays)

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
        rng = seeded_rng(seed)

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


def scsa_forward_batch(inputs: np.ndarray, emap: EmbeddingMap, params: ScsaParams):
    """Batched forward pass.

    ``inputs``: (S, T+1, D) one-hot rows or amplitude vectors.  Returns the
    (S, T, D) per-step vocabulary distributions and the (S, T) probabilities
    of the true next items.
    """
    x, *_ = embed_batch(inputs, emap)
    distributions, probs, _ = scsa_vjp(x[:, :-1], inputs, params)
    return distributions, probs


def scsa_vjp(prefix: np.ndarray, inputs: np.ndarray, params: ScsaParams):
    """The S-CSA block on (S, T, d) embedded tokens, and its backward pass.

    Returns (distributions, probs, backward) as in ``scsa_forward_batch``;
    ``backward(g_probs)`` gives g_prefix and the gradients of the ScsaParams
    fields in declaration order.
    """
    queries = rows_matmul(prefix, params.w_query.T)
    keys = rows_matmul(prefix, params.w_key.T)
    values = rows_matmul(prefix, params.w_value.T)
    attended, attention_backward = _tiled_softmax_attention(queries, keys, values, np.sqrt(params.key_dim))
    residual = attended + prefix
    pre_activation = rows_matmul(residual, params.ffn_in.T)
    hidden = _split_relu(pre_activation)
    transformed = rows_matmul(hidden, params.ffn_out.T)
    logits = rows_matmul(transformed, params.anti_embed.T).real
    distributions = _stable_softmax(logits)
    # Probability of the true next item: index lookup for one-hot rows,
    # Born-weighted average for amplitude rows.
    born = np.abs(inputs[:, 1:, :]) ** 2
    probs = np.einsum("sjl,sjl->sj", distributions, born)

    def backward(g_probs):
        g_logits = _softmax_backward(distributions, g_probs[..., None] * born)
        g_transformed = rows_matmul(g_logits, params.anti_embed.conj())
        g_hidden = rows_matmul(g_transformed, params.ffn_out.conj())
        g_pre = _split_relu_backward(pre_activation, g_hidden)
        g_residual = rows_matmul(g_pre, params.ffn_in.conj())
        g_queries, g_keys, g_values = attention_backward(g_residual)
        g_prefix = (
            g_residual
            + rows_matmul(g_queries, params.w_query.conj())
            + rows_matmul(g_keys, params.w_key.conj())
            + rows_matmul(g_values, params.w_value.conj())
        )
        return g_prefix, (
            linear_map_gradient(g_queries, prefix),
            linear_map_gradient(g_keys, prefix),
            linear_map_gradient(g_values, prefix),
            linear_map_gradient(g_pre, residual),
            linear_map_gradient(g_transformed, hidden),
            linear_map_gradient(g_logits, transformed),
        )

    return distributions, probs, backward


def _real_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a_j^H b_i) for every pair of (..., m, c) rows a_j and (..., n, c) rows
    b_i, as one real matmul on the interleaved float64 views; a real operand
    is promoted when the other is complex, and two real operands multiply as
    they are."""
    dtype = np.result_type(a, b)
    a, b = (x.astype(dtype, copy=False).view(np.float64) for x in (a, b))
    return a @ b.swapaxes(-1, -2)


def _real_matmul(tile: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``tile @ rows`` for a real ``tile`` and real or complex ``rows``, as one
    real matmul on the rows' float64 view, viewed back in their dtype."""
    return (tile @ rows.view(np.float64)).view(rows.dtype)


# Rows of one causal query tile; fitted from forward and backward timings
# over B = 8..256 at T = 256..2048 (README, "Contraction orders").
TILE_ROWS = 32


def _tiled_softmax_attention(queries: np.ndarray, keys: np.ndarray, values: np.ndarray, scale: float):
    """Causal softmax attention of (S, T, .) queries, keys and values in query
    tiles of ``TILE_ROWS`` rows, one tile when T <= ``TILE_ROWS``.  Tile [a, b)
    reads only keys and values [0, b), so the masked blocks above the diagonal
    are never built, and each row's whole prefix lies in its tile, so its
    softmax is exact.  The forward keeps the (S, T) row max and row sum, and
    the weights of the last tile, which the backward takes first; the backward
    recomputes every other tile's weights from them with the forward's
    operations, hence with its bits.  No (S, T, T) array is built in either
    direction: a tile is at most (S, TILE_ROWS, T).  Every product is real:
    the scores and their cotangents are real parts (``_real_inner``), and the
    real tiles multiply complex rows through their float64 view
    (``_real_matmul``).  Returns (attended, backward); ``backward(g_attended)``
    gives (g_queries, g_keys, g_values)."""
    num_seqs, num_steps = queries.shape[:2]
    tiles = [(a, min(a + TILE_ROWS, num_steps)) for a in range(0, num_steps, TILE_ROWS)]
    row_max = np.empty((num_seqs, num_steps))
    row_sum = np.empty((num_seqs, num_steps))
    # a tile masks only its own diagonal sub-block
    upper = np.triu(np.ones((TILE_ROWS, TILE_ROWS), dtype=bool), k=1)

    def tile_weights(a, b, forward):
        weights = _real_inner(queries[:, a:b], keys[:, :b])
        weights /= scale
        np.copyto(weights[..., a:], -np.inf, where=upper[: b - a, : b - a])
        if forward:
            row_max[:, a:b] = np.max(weights, axis=-1)
        weights -= row_max[:, a:b, None]
        np.exp(weights, out=weights)
        if forward:
            row_sum[:, a:b] = np.sum(weights, axis=-1)
        weights /= row_sum[:, a:b, None]
        return weights

    attended = []
    for a, b in tiles:
        weights = tile_weights(a, b, True)
        attended.append(_real_matmul(weights, values[:, :b]))
    attended = np.concatenate(attended, axis=1)
    last_weights = weights

    def tile_backward(a, b, g_rows):
        # a function, so that the tile's blocks are freed before the next tile's
        weights = last_weights if b == num_steps else tile_weights(a, b, False)
        g_weights = _real_inner(g_rows, values[:, :b])
        g_tile_values = _real_matmul(weights.swapaxes(-1, -2), g_rows)
        g_scores = _softmax_backward(weights, g_weights, out=g_weights)
        g_scores /= scale
        return (_real_matmul(g_scores, keys[:, :b]), _real_matmul(g_scores.swapaxes(-1, -2), queries[:, a:b]),
                g_tile_values)

    def backward(g_attended):
        g_queries = []
        # last tile first: it reads every key, so its key and value cotangents start the sums
        for a, b in reversed(tiles):
            g_tile_queries, g_tile_keys, g_tile_values = tile_backward(a, b, g_attended[:, a:b])
            g_queries.append(g_tile_queries)
            if b == num_steps:
                g_keys, g_values = g_tile_keys, g_tile_values
            else:
                g_keys[:, :b] += g_tile_keys
                g_values[:, :b] += g_tile_values
        return np.concatenate(g_queries[::-1], axis=1), g_keys, g_values

    return attended, backward


def scsa_forward(words, emap: EmbeddingMap, params: ScsaParams) -> np.ndarray:
    """Per-step probabilities of the true next word for one sequence."""
    inputs = _as_input_rows(words, emap.vocab_dim)
    check_int_range(len(inputs) - 1, INT64_MAX, "dataset T")
    _, probs = scsa_forward_batch(inputs[None, ...], emap, params)
    return probs[0]


@dataclass(frozen=True)
class LcsaParams:
    """Value map and bilinear affinity map of the linearized baseline."""

    value_map: np.ndarray
    affinity_map: np.ndarray

    def __post_init__(self):
        arrays = {f.name: np.array(getattr(self, f.name)) for f in fields(self)}
        v, w = arrays.values()
        if v.ndim != 2 or v.shape[0] != v.shape[1] or w.shape != v.shape:
            raise ConfigurationError("value and affinity maps must be square with equal shape")
        freeze(self, **arrays)

    @property
    def embed_dim(self) -> int:
        return self.value_map.shape[0]

    @staticmethod
    def near_identity(embed_dim: int, seed, complex_valued: bool = False) -> "LcsaParams":
        rng = seeded_rng(seed)

        def draw():
            mat = np.eye(embed_dim) + rng.uniform(-0.1, 0.1, size=(embed_dim, embed_dim))
            if complex_valued:
                mat = mat + 1j * rng.uniform(-0.1, 0.1, size=(embed_dim, embed_dim))
            return mat

        return LcsaParams(draw(), draw())


def linear_attention_layer(tokens: Sequence[np.ndarray], params: LcsaParams, step: int) -> np.ndarray:
    """Unnormalized sum_{i<=step} (x_step^dag W x_i) V x_i."""
    check_int_range(step, len(tokens), "step")
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


def causal_attention_vjp(prefix: np.ndarray, value_map: np.ndarray, affinity_map: np.ndarray,
                         prefix_weights: bool = False):
    """Causal linear attention z_j = V sum_{i<=j} (x_j^dag W x_i) x_i for
    (..., T, d) tokens x_1..x_T: the L-CSA output, the qsa prediction state
    before normalization and, contracted with a target, the qsa branch
    amplitude.  ``prefix_weights`` adds the qsa prefix weights
    M_j = Re sum_{i,i'<=j} (x_i^dag x_i')^2, else weights is None.

    Returns (z, weights, backward); ``backward(g_z, g_weights=None)`` gives
    (g_prefix, g_value_map, g_affinity_map), g = dL/dRe + i dL/dIm, batch
    axes summed into the maps.  The order follows ``running_sum_order``.
    """
    order = _running_sum_attention_vjp if running_sum_order(*prefix.shape[-2:]) else _pairwise_attention_vjp
    return order(prefix, value_map, affinity_map, prefix_weights)


def running_sum_order(num_steps: int, embed_dim: int) -> bool:
    """Whether the causal kernel contracts running sums (O(T d^2) per
    sequence) rather than the pairwise T x T block (O(T^2 d)).

    The rule of ``causal_attention_vjp``; it depends only on the input's
    (T, d).  T > d^2 is fitted from timings of both orders over a (T, d)
    grid (README, "Contraction orders"); it also keeps the running sums'
    T d^2 entries below the pairwise block's T^2, and every T <= d input,
    all T=4 training included, on the pairwise order and its bytes.
    """
    return num_steps > embed_dim * embed_dim


def _running_sum_attention_vjp(prefix: np.ndarray, value_map: np.ndarray, affinity_map: np.ndarray,
                               prefix_weights: bool = False):
    """Causal linear attention in prefix-sum order: z_j = V S_j W^T conj(x_j)
    with the running sums S_j = sum_{i<=j} x_i x_i^T (no conjugate), whose
    squared Frobenius norms are the prefix weights M_j = ||S_j||_F^2.

    Returns (z, weights, backward) as ``causal_attention_vjp`` does.  The
    M_j cotangent joins the attention's own S_j cotangent before the one
    reverse cumulative sum that carries every S_j cotangent back to its
    tokens.  No (..., T, T) array is built in either direction.
    """
    queries = rows_matmul(prefix.conj(), affinity_map)  # W^T conj(x_j)
    sums = prefix[..., :, None] * prefix[..., None, :]
    np.cumsum(sums, axis=-3, out=sums)
    attended = np.einsum("...jab,...jb->...ja", sums, queries)
    z = rows_matmul(attended, value_map.T)
    weights = np.einsum("...jab,...jab->...j", sums.conj(), sums).real if prefix_weights else None

    def backward(g_z, g_weights=None):
        g_attended = rows_matmul(g_z, value_map.conj())
        # g_queries_j = S_j^H g_attended_j; both uses read its conjugate, S_j conj(g_attended_j)
        conj_g_queries = np.einsum("...jab,...jb->...ja", sums, g_attended.conj())
        tails = g_attended[..., :, None] * queries.conj()[..., None, :]
        if g_weights is not None:
            tails = tails + 2.0 * g_weights[..., None, None] * sums
        # token i enters every S_j with j >= i, once on each side of x_i x_i^T
        reverse = tails[..., ::-1, :, :]
        np.cumsum(reverse, axis=-3, out=reverse)
        g_prefix = (
            np.einsum("...iab,...ib->...ia", tails + tails.swapaxes(-1, -2), prefix.conj())
            + rows_matmul(conj_g_queries, affinity_map.T)
        )
        # queries = conj(x) @ W, so g_W = sum_j x_j (x) g_queries_j
        return g_prefix, linear_map_gradient(g_z, attended), linear_map_gradient(prefix, conj_g_queries)

    return z, weights, backward


def _pairwise_attention_vjp(prefix: np.ndarray, value_map: np.ndarray, affinity_map: np.ndarray,
                            prefix_weights: bool = False):
    """Causal linear attention through the (..., T, T) affinity block, and
    the prefix weights through the (..., T, T) Gram block; the faster order
    while T is small against d.  The backward reads both blocks from the
    forward; at T <= d^2 each holds at most d^4 entries per sequence.
    Returns (z, weights, backward) as ``causal_attention_vjp`` does."""
    keys = rows_matmul(prefix, affinity_map.T)  # W x_i
    affinities = np.tril(prefix.conj() @ keys.swapaxes(-1, -2))
    attended = affinities @ prefix
    z = rows_matmul(attended, value_map.T)
    weights = gram = None
    if prefix_weights:
        # <x_i (x) x_i | x_i' (x) x_i'> is the *square* of the complex overlap,
        # so the prefix weights sum squared Gram entries, not squared moduli.
        gram = prefix.conj() @ prefix.swapaxes(-1, -2)
        prefixes = np.cumsum(np.cumsum(gram * gram, axis=-1), axis=-2)
        weights = np.diagonal(prefixes, axis1=-2, axis2=-1).real

    def backward(g_z, g_weights=None):
        g_attended = rows_matmul(g_z, value_map.conj())
        g_affinities = np.tril(g_attended @ prefix.conj().swapaxes(-1, -2))
        g_keys = g_affinities.swapaxes(-1, -2) @ prefix
        g_prefix = (
            affinities.conj().swapaxes(-1, -2) @ g_attended
            + g_affinities.conj() @ keys
            + rows_matmul(g_keys, affinity_map.conj())
        )
        if g_weights is not None:
            # M_j = Re sum_{i,i'<=j} G_ii'^2: pair (i, i') feeds every M_j with
            # j >= max(i, i'); dG^2 = 2 G dG, and each token enters G as a row
            # and as a column, hence the 4.
            tail = np.cumsum(g_weights[..., ::-1], axis=-1)[..., ::-1]
            steps = np.arange(prefix.shape[-2])
            pair_weights = tail[..., np.maximum.outer(steps, steps)]
            g_prefix = g_prefix + 4.0 * (pair_weights * gram) @ prefix
        return g_prefix, linear_map_gradient(g_z, attended), linear_map_gradient(g_keys, prefix)

    return z, weights, backward


def output_weights(z: np.ndarray) -> np.ndarray:
    """Squared norms ||z_j||^2 of attention outputs.

    A vanishing output has no direction to predict or normalize, so it
    raises DegeneratePredictionError instead of yielding NaN.
    """
    weights = np.einsum("...d,...d->...", z.conj(), z).real
    if np.any(weights <= ZERO_NORM_TOL ** 2):
        raise DegeneratePredictionError("an attention output vanishes")
    return weights


def lcsa_forward_batch(tokens: np.ndarray, targets: np.ndarray, target_norms: np.ndarray, params: LcsaParams):
    """Batched step probabilities and their backward pass.

    ``tokens``: (S, T, d) attention inputs x_1..x_T; ``targets``: (S, T, d)
    embedding-only rows for steps 2..T+1, with their (S, T) norms.  Returns
    (ratios, backward) with ratios[s, j] = |<t_norm, z_j>|^2 / ||z_j||^2,
    the step probability; ``backward(g_ratios)`` gives (g_tokens, g_targets,
    g_value_map, g_affinity_map).
    """
    z, _, attention_backward = causal_attention_vjp(tokens, params.value_map, params.affinity_map)
    normalizers = output_weights(z)
    unit_targets = targets / target_norms[..., None]
    overlaps = np.einsum("sjd,sjd->sj", unit_targets.conj(), z)
    values = np.abs(overlaps) ** 2

    def backward(g_ratios):
        # the quotient rule of ratios = values / normalizers
        g_values, g_normalizers = g_ratios / normalizers, -g_ratios * values / normalizers ** 2
        g_overlaps = 2.0 * g_values * overlaps
        g_z = g_overlaps[..., None] * unit_targets + 2.0 * g_normalizers[..., None] * z
        g_tokens, g_value_map, g_affinity_map = attention_backward(g_z)
        g_targets = unit_rows_backward(unit_targets, target_norms, g_overlaps.conj()[..., None] * z)
        return g_tokens, g_targets, g_value_map, g_affinity_map

    return values / normalizers, backward

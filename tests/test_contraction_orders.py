"""The causal kernel's two contraction orders as each other's oracle: the
pairwise T x T block and the running sums S_j = sum_{i<=j} x_i x_i^T."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalab.classical import (
    _pairwise_attention_vjp,
    _running_sum_attention_vjp,
    causal_attention_vjp,
    running_sum_order,
)
from qsalab.data import linear_map_gradient
from qsalab.engine import _branch_overlaps_vjp

TOL = 1e-12


def draw(rng, shape, complex_valued):
    x = rng.normal(size=shape)
    if complex_valued:
        x = x + 1j * rng.normal(size=shape)
    return x


def assert_close(actual, expected):
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= TOL * scale


@settings(max_examples=40, deadline=None)
@given(
    num_seqs=st.integers(1, 3),
    num_steps=st.integers(1, 512),
    d=st.sampled_from([2, 4, 8, 16]),
    complex_tokens=st.booleans(),
    complex_maps=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_orders_agree_forward_and_backward(num_seqs, num_steps, d, complex_tokens, complex_maps, seed):
    rng = np.random.default_rng(seed)
    tokens = draw(rng, (num_seqs, num_steps, d), complex_tokens)
    tok = tokens / np.linalg.norm(tokens, axis=-1, keepdims=True)
    tgt = draw(rng, (num_seqs, num_steps, d), complex_tokens)
    value_map = draw(rng, (d, d), complex_maps)
    affinity_map = draw(rng, (d, d), complex_maps)
    complex_out = complex_tokens or complex_maps

    # attention outputs z and the gradients (g_prefix, g_value_map, g_affinity_map)
    z_pair, _, pair_backward = _pairwise_attention_vjp(tokens, value_map, affinity_map)
    z_sum, _, sum_backward = _running_sum_attention_vjp(tokens, value_map, affinity_map)
    assert_close(z_sum, z_pair)
    g_z = draw(rng, z_pair.shape, complex_out)
    for g_sum, g_pair in zip(sum_backward(g_z), pair_backward(g_z)):
        assert_close(g_sum, g_pair)

    # qsa branch overlaps a_j = <tgt_j|z_j>, prefix weights M_j and the
    # gradients of tok, tgt and both maps, with a nonzero M_j cotangent
    z_pair, m_pair, pair_backward = _pairwise_attention_vjp(tok, value_map, affinity_map, prefix_weights=True)
    z_sum, m_sum, sum_backward = _running_sum_attention_vjp(tok, value_map, affinity_map, prefix_weights=True)
    a_pair = np.einsum("sjd,sjd->sj", tgt.conj(), z_pair)
    a_sum = np.einsum("sjd,sjd->sj", tgt.conj(), z_sum)
    assert_close(a_sum, a_pair)
    assert_close(m_sum, m_pair)
    g_a = draw(rng, a_pair.shape, complex_out)
    g_m = rng.normal(size=m_pair.shape)
    for g_sum, g_pair in zip(sum_backward(g_a[..., None] * tgt, g_m), pair_backward(g_a[..., None] * tgt, g_m)):
        assert_close(g_sum, g_pair)
    assert_close(g_a.conj()[..., None] * z_sum, g_a.conj()[..., None] * z_pair)

    # the dispatched kernel runs exactly the order the rule names
    expected = (z_sum, z_sum, m_sum, a_sum) if running_sum_order(num_steps, d) else (z_pair, z_pair, m_pair, a_pair)
    z_plain, no_weights, _ = causal_attention_vjp(tok, value_map, affinity_map)
    z, m, _ = causal_attention_vjp(tok, value_map, affinity_map, prefix_weights=True)
    a = _branch_overlaps_vjp(tok, tgt, value_map, affinity_map)[0]
    assert no_weights is None
    for actual, wanted in zip((z_plain, z, m, a), expected):
        assert np.array_equal(actual, wanted)


def test_short_sequences_keep_the_pairwise_order():
    for d in (1, 2, 4, 8, 16, 32):
        for num_steps in range(1, d + 1):
            assert not running_sum_order(num_steps, d)
    assert running_sum_order(17, 4) and not running_sum_order(16, 4)


def test_long_sequences_build_no_t_by_t_block():
    num_seqs, num_steps, d = 4, 1024, 4
    block_bytes = num_seqs * num_steps * num_steps * np.dtype(complex).itemsize  # 67 MB
    rng = np.random.default_rng(5)
    tok = draw(rng, (num_seqs, num_steps, d), True)
    tok /= np.linalg.norm(tok, axis=-1, keepdims=True)
    tgt = draw(rng, (num_seqs, num_steps, d), True)
    value_map = draw(rng, (d, d), True)
    affinity_map = draw(rng, (d, d), True)
    tracemalloc.start()
    try:
        z, _, attention_backward = causal_attention_vjp(tok, value_map, affinity_map)
        attention_backward(z)
        a, weights, core_backward = _branch_overlaps_vjp(tok, tgt, value_map, affinity_map)
        core_backward(a, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_bytes / 4


def pairwise_recomputing(prefix, value_map, affinity_map, g_z, g_weights):
    """The pairwise order with stacked products and a backward that
    recomputes the affinity and Gram blocks: (z, weights, gradients)."""
    keys = prefix @ affinity_map.T
    attended = np.tril(prefix.conj() @ keys.swapaxes(-1, -2)) @ prefix
    z = attended @ value_map.T
    weights = None
    if g_weights is not None:
        gram = prefix.conj() @ prefix.swapaxes(-1, -2)
        weights = np.diagonal(np.cumsum(np.cumsum(gram * gram, axis=-1), axis=-2), axis1=-2, axis2=-1).real
    affinities = np.tril(prefix.conj() @ keys.swapaxes(-1, -2))
    g_attended = g_z @ value_map.conj()
    g_affinities = np.tril(g_attended @ prefix.conj().swapaxes(-1, -2))
    g_keys = g_affinities.swapaxes(-1, -2) @ prefix
    g_prefix = (
        affinities.conj().swapaxes(-1, -2) @ g_attended
        + g_affinities.conj() @ keys
        + g_keys @ affinity_map.conj()
    )
    if g_weights is not None:
        tail = np.cumsum(g_weights[..., ::-1], axis=-1)[..., ::-1]
        steps = np.arange(prefix.shape[-2])
        pair_weights = tail[..., np.maximum.outer(steps, steps)]
        g_prefix = g_prefix + 4.0 * (pair_weights * (prefix.conj() @ prefix.swapaxes(-1, -2))) @ prefix
    gradients = (g_prefix, linear_map_gradient(g_z, attended), linear_map_gradient(g_keys, prefix))
    return z, weights, gradients


@settings(max_examples=100, deadline=None)
@given(
    num_seqs=st.integers(1, 8),
    d=st.sampled_from([1, 2, 4]),
    steps_per_d2=st.floats(0.0, 1.0),
    complex_tokens=st.booleans(),
    complex_maps=st.booleans(),
    prefix_weights=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_pairwise_backward_reads_the_forward_blocks(num_seqs, d, steps_per_d2, complex_tokens, complex_maps,
                                                    prefix_weights, seed):
    num_steps = max(1, round(steps_per_d2 * d * d))  # the pairwise order's range T <= d^2
    rng = np.random.default_rng(seed)
    tokens = draw(rng, (num_seqs, num_steps, d), complex_tokens)
    value_map = draw(rng, (d, d), complex_maps)
    affinity_map = draw(rng, (d, d), complex_maps)
    g_z = draw(rng, (num_seqs, num_steps, d), complex_tokens or complex_maps)
    g_weights = rng.normal(size=(num_seqs, num_steps)) if prefix_weights else None
    z, weights, backward = _pairwise_attention_vjp(tokens, value_map, affinity_map, prefix_weights)
    expected_z, expected_weights, expected = pairwise_recomputing(tokens, value_map, affinity_map, g_z, g_weights)
    assert z.tobytes() == expected_z.tobytes()
    assert (weights is None) == (expected_weights is None)
    if prefix_weights:
        assert weights.tobytes() == expected_weights.tobytes()
    for got, wanted in zip(backward(g_z, g_weights), expected, strict=True):
        assert got.tobytes() == wanted.tobytes()

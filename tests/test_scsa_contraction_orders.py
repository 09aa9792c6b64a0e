"""S-CSA's causal query tiles, its only attention order, against two
test-side oracles: the whole-block einsums, to round-off at every T, and the
whole-block matmuls with the tiles' own real products, bit for bit in one
tile and to round-off across tile boundaries."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsalab import classical
from qsalab.classical import ScsaParams, scsa_vjp

TOL = 1e-12


def draw(rng, shape, complex_valued):
    x = rng.normal(size=shape)
    if complex_valued:
        x = x + 1j * rng.normal(size=shape)
    return x


def assert_close(actual, expected):
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= TOL * scale


def run_attention(attention, prefix, inputs, params, g_probs):
    """Forward and backward with ``attention`` as S-CSA's attention; returns
    every output as one flat tuple."""
    with mock.patch.object(classical, "_tiled_softmax_attention", attention):
        distributions, probs, backward = scsa_vjp(prefix, inputs, params)
        g_prefix, g_params = backward(g_probs)
    return (distributions, probs, g_prefix, *g_params)


def einsum_attention(queries, keys, values, scale):
    """Causal softmax attention through the whole (S, T, T) block, contracted
    by einsums with complex products: the order S-CSA ran at T <= d^2 before
    the query tiles served every T."""
    num_steps = queries.shape[1]
    scores = np.einsum("sjc,sic->sji", queries.conj(), keys).real / scale
    np.copyto(scores, -np.inf, where=np.triu(np.ones((num_steps, num_steps), dtype=bool), k=1))
    weights = classical._stable_softmax(scores)
    attended = np.einsum("sji,sid->sjd", weights, values)

    def backward(g_attended):
        g_weights = np.einsum("sjd,sid->sji", g_attended.conj(), values).real
        g_values = np.einsum("sji,sjd->sid", weights, g_attended)
        g_scores = classical._softmax_backward(weights, g_weights, out=g_weights)
        g_scores /= scale
        return g_scores @ keys, g_scores.swapaxes(-1, -2) @ queries, g_values

    return attended, backward


@settings(max_examples=40, deadline=None)
@given(
    num_seqs=st.integers(1, 3),
    num_steps=st.integers(1, 512),
    d=st.sampled_from([2, 4, 8]),
    key_dim=st.integers(1, 9),
    vocab=st.integers(2, 8),
    complex_tokens=st.booleans(),
    complex_params=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_orders_agree_forward_and_backward(num_seqs, num_steps, d, key_dim, vocab, complex_tokens,
                                           complex_params, seed):
    rng = np.random.default_rng(seed)
    prefix = draw(rng, (num_seqs, num_steps, d), complex_tokens)
    # one-hot rows for real tokens, amplitude rows for complex ones
    if complex_tokens:
        inputs = draw(rng, (num_seqs, num_steps + 1, vocab), True)
        inputs /= np.linalg.norm(inputs, axis=-1, keepdims=True)
    else:
        inputs = np.eye(vocab)[rng.integers(0, vocab, size=(num_seqs, num_steps + 1))]
    params = ScsaParams.random(d, vocab, seed, key_dim=key_dim, complex_valued=complex_params)
    g_probs = rng.normal(size=(num_seqs, num_steps))

    einsums = run_attention(einsum_attention, prefix, inputs, params, g_probs)
    tiles = run_attention(classical._tiled_softmax_attention, prefix, inputs, params, g_probs)
    assert len(tiles) == 9  # distributions, probs, g_prefix and six parameter gradients
    for actual, expected in zip(tiles, einsums):
        assert actual.shape == expected.shape and actual.dtype == expected.dtype
        assert_close(actual, expected)


def whole_block_attention(queries, keys, values, scale):
    """Batched matmuls over the whole (S, T, T) block, with the tiles' real
    products; one tile must run exactly these operations."""
    num_steps = queries.shape[1]
    scores = classical._real_inner(queries, keys)
    scores /= scale
    np.copyto(scores, -np.inf, where=np.triu(np.ones((num_steps, num_steps), dtype=bool), k=1))
    weights = classical._stable_softmax(scores)
    attended = classical._real_matmul(weights, values)

    def backward(g_attended):
        g_weights = classical._real_inner(g_attended, values)
        g_values = classical._real_matmul(weights.swapaxes(-1, -2), g_attended)
        g_scores = classical._softmax_backward(weights, g_weights, out=g_weights)
        g_scores /= scale
        return (classical._real_matmul(g_scores, keys), classical._real_matmul(g_scores.swapaxes(-1, -2), queries),
                g_values)

    return attended, backward


def tile_boundary_examples(test):
    rows = classical.TILE_ROWS
    for num_steps in (rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1):
        for complex_valued in (False, True):
            test = example(num_seqs=2, num_steps=num_steps, d=2, complex_valued=complex_valued,
                           seed=num_steps)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(
    num_seqs=st.integers(1, 3),
    num_steps=st.integers(1, 2 * classical.TILE_ROWS + 1),
    d=st.sampled_from([2, 4]),
    complex_valued=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
@tile_boundary_examples
def test_query_tiles_against_whole_block(num_seqs, num_steps, d, complex_valued, seed):
    rng = np.random.default_rng(seed)
    vocab = 5
    prefix = draw(rng, (num_seqs, num_steps, d), complex_valued)
    inputs = np.eye(vocab)[rng.integers(0, vocab, size=(num_seqs, num_steps + 1))]
    params = ScsaParams.random(d, vocab, seed, key_dim=3, complex_valued=complex_valued)
    g_probs = rng.normal(size=(num_seqs, num_steps))

    tiles = run_attention(classical._tiled_softmax_attention, prefix, inputs, params, g_probs)
    whole = run_attention(whole_block_attention, prefix, inputs, params, g_probs)
    for actual, expected in zip(tiles, whole, strict=True):
        assert actual.shape == expected.shape and actual.dtype == expected.dtype
        if num_steps <= classical.TILE_ROWS:
            assert np.array_equal(actual, expected)
        else:
            assert_close(actual, expected)


def test_long_sequence_memory_peaks():
    num_seqs, num_steps, d, vocab = 4, 1024, 4, 8
    block_bytes = num_seqs * num_steps * num_steps * np.dtype(np.float64).itemsize  # 33.5 MB
    rng = np.random.default_rng(5)
    prefix = draw(rng, (num_seqs, num_steps, d), False)
    inputs = np.eye(vocab)[rng.integers(0, vocab, size=(num_seqs, num_steps + 1))]
    params = ScsaParams.random(d, vocab, seed=5)
    g_probs = np.ones((num_seqs, num_steps))
    tracemalloc.start()
    try:
        _, _, backward = scsa_vjp(prefix, inputs, params)
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(g_probs)
        # the weights the forward keeps for the backward count in this peak
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4.05 and 3.14 blocks are the peaks of the kernel before the in-place
    # softmax, which ran the einsums at every T.  The query tiles measure
    # 0.11 forward and 0.26 backward, far inside both bounds;
    # test_query_tile_memory_is_linear_in_steps holds them to 0.5.
    assert forward_peak <= 1.5 * block_bytes
    assert backward_peak <= 3.14 * block_bytes


@pytest.mark.parametrize("complex_tokens", [False, True])
@pytest.mark.parametrize("num_seqs, num_steps", [(4, 1024), (1, 2048)])
def test_query_tile_memory_is_linear_in_steps(num_seqs, num_steps, complex_tokens):
    d, vocab = 4, 8
    block_bytes = num_seqs * num_steps * num_steps * np.dtype(np.float64).itemsize  # 33.5 MB
    rng = np.random.default_rng(5)
    prefix = draw(rng, (num_seqs, num_steps, d), complex_tokens)
    if complex_tokens:
        inputs = draw(rng, (num_seqs, num_steps + 1, vocab), True)
        inputs /= np.linalg.norm(inputs, axis=-1, keepdims=True)
    else:
        inputs = np.eye(vocab)[rng.integers(0, vocab, size=(num_seqs, num_steps + 1))]
    params = ScsaParams.random(d, vocab, seed=5, complex_valued=complex_tokens)
    g_probs = np.ones((num_seqs, num_steps))
    tracemalloc.start()
    try:
        _, _, backward = scsa_vjp(prefix, inputs, params)
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(g_probs)
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no (S, T, T) array in either direction: a tile is (S, TILE_ROWS, T), and
    # the peaks measure 0.06-0.18 blocks forward and 0.13-0.36 backward
    assert forward_peak < 0.5 * block_bytes
    assert backward_peak < 0.5 * block_bytes

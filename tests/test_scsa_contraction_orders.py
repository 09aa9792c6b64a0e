"""S-CSA's two contraction orders as each other's oracle: the einsums that
T <= d^2 keeps for its bytes, and the batched matmuls above it."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
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


def run_order(batched, prefix, inputs, params, g_probs):
    """Forward and backward with the order forced; returns every output as one flat tuple."""
    with mock.patch.object(classical, "running_sum_order", lambda num_steps, embed_dim: batched):
        distributions, probs, backward = scsa_vjp(prefix, inputs, params)
        g_prefix, g_params = backward(g_probs)
    return (distributions, probs, g_prefix, *g_params)


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

    einsums = run_order(False, prefix, inputs, params, g_probs)
    matmuls = run_order(True, prefix, inputs, params, g_probs)
    assert len(matmuls) == 9  # distributions, probs, g_prefix and six parameter gradients
    for actual, expected in zip(matmuls, einsums):
        assert actual.shape == expected.shape and actual.dtype == expected.dtype
        assert_close(actual, expected)

    # the dispatched kernel runs the order T > d^2 names, so every T <= d^2
    # input keeps the einsums' bits
    distributions, probs, backward = scsa_vjp(prefix, inputs, params)
    g_prefix, g_params = backward(g_probs)
    wanted = matmuls if num_steps > d * d else einsums
    for actual, expected in zip((distributions, probs, g_prefix, *g_params), wanted):
        assert np.array_equal(actual, expected)


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
    # softmax, which ran the einsums at every T.  This kernel measures 1.11
    # forward and 3.12 backward, so the backward bound, the old kernel's
    # exact figure, has only about 0.02 blocks (0.7 MB) of margin: a NumPy
    # version with one more temporary can fail it without a regression here.
    assert forward_peak <= 1.5 * block_bytes
    assert backward_peak <= 3.14 * block_bytes

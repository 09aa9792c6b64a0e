"""The shared causal-attention kernel against the single-sequence oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalab.ansatz import AnsatzParams, PhaseLayerParams, build_ansatz_unitary
from qsalab.classical import LcsaParams, causal_attention, linear_attention_layer
from qsalab.engine import QsaInstance, _overlap_core, predict_token_state

TOL = 1e-12


def reference_overlap_core(tok, tgt, v_matrix, w_matrix):
    """Branch overlaps and prefix weights as T x T einsums, without the kernel."""
    num_steps = tok.shape[-2]
    va = np.einsum("...jd,de,...ie->...ji", tgt.conj(), v_matrix, tok)
    wb = np.einsum("...jd,de,...ie->...ji", tok.conj(), w_matrix, tok)
    mask = np.tril(np.ones((num_steps, num_steps)))
    a = np.sum(va * wb * mask, axis=-1)
    gram = np.einsum("...id,...jd->...ij", tok.conj(), tok)
    prefixes = np.cumsum(np.cumsum(gram * gram, axis=-1), axis=-2)
    return a, np.diagonal(prefixes, axis1=-2, axis2=-1).real


def draw(rng, shape, complex_valued):
    x = rng.normal(size=shape)
    if complex_valued:
        x = x + 1j * rng.normal(size=shape)
    return x


def close(actual, expected):
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(actual - expected))) <= TOL * scale


@settings(max_examples=30, deadline=None)
@given(
    num_seqs=st.integers(1, 64),
    num_steps=st.integers(1, 64),
    d=st.sampled_from([2, 4, 8]),
    complex_valued=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_kernel_matches_single_sequence_oracles(num_seqs, num_steps, d, complex_valued, seed):
    rng = np.random.default_rng(seed)
    prefix = draw(rng, (num_seqs, num_steps, d), complex_valued)
    value_map = draw(rng, (d, d), complex_valued)
    affinity_map = draw(rng, (d, d), complex_valued)
    z = causal_attention(prefix, value_map, affinity_map)
    assert z.shape == (num_seqs, num_steps, d)

    # L-CSA layer, one step at a time, for the first, last and one middle sequence
    params = LcsaParams(value_map, affinity_map)
    for s in sorted({0, num_seqs // 2, num_seqs - 1}):
        tokens = list(prefix[s])
        for j in range(1, num_steps + 1):
            assert close(z[s, j - 1], linear_attention_layer(tokens, params, j))

    # the branch-overlap formula on normalized tokens and unitary maps
    tok = prefix / np.linalg.norm(prefix, axis=-1, keepdims=True)
    tgt = draw(rng, (num_seqs, num_steps, d), complex_valued)
    tgt = tgt / np.linalg.norm(tgt, axis=-1, keepdims=True)
    n = d.bit_length() - 1
    v_params = AnsatzParams.random(n, 2, rng)
    w_params = AnsatzParams.random(n, 2, rng)
    vm, wm = build_ansatz_unitary(v_params).matrix, build_ansatz_unitary(w_params).matrix
    a, weights = _overlap_core(tok, tgt, vm, wm)
    a_ref, weights_ref = reference_overlap_core(tok, tgt, vm, wm)
    assert close(a, a_ref)
    assert close(weights, weights_ref)

    # the qsa prediction state: pad the sequence to a power-of-two step
    # count (a step's prediction reads only its own prefix)
    padded = max(2, 1 << (num_steps - 1).bit_length())
    tokens = list(tok[0]) + [draw(rng, d, complex_valued) for _ in range(padded + 1 - num_steps)]
    targets = [draw(rng, d, complex_valued) for _ in range(padded)]
    instance = QsaInstance.from_vectors(tokens, targets, v_params, w_params, PhaseLayerParams.random(
        padded.bit_length() - 1, rng))
    z_qsa = causal_attention(tok[:1], vm, wm)[0]
    for j in range(1, num_steps + 1):
        state, weight = predict_token_state(instance, j)
        norm = np.linalg.norm(z_qsa[j - 1])
        assert close(z_qsa[j - 1] / norm, state.amplitudes)
        assert abs(norm ** 2 - weight) <= TOL * max(1.0, weight)

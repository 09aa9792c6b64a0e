"""Layered two-body variational unitaries and the single-qubit phase layer.

The data-register ansatz is hardware-efficient: per layer, Ry(theta)Rz(phi)
on every qubit followed by a linear chain of CNOTs, closed by one final
rotation-only layer.  The step-register layer is a product of Rz rotations.
Both families are differentiated exactly by the two-point shift rule, and
in closed form by the backward pass of ``ansatz_vjp`` / ``phase_layer_vjp``
given the loss gradient with respect to the matrix or diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .data import check_scalars, freeze, real_array, seeded_rng
from .errors import ConfigurationError
from .statevector import UnitaryBlock


def rotation_y(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotation_z(phi: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * phi), 0.0], [0.0, np.exp(0.5j * phi)]], dtype=complex
    )


@dataclass(frozen=True)
class AnsatzParams:
    """Angles for an L-layer two-body ansatz on n qubits.

    ``angles`` has shape (num_layers + 1, num_qubits, 2); the trailing axis
    holds the Ry and Rz angle of each qubit, and the extra leading slice is
    the final rotation-only layer.  With ``real_valued`` set, the Rz factors
    are omitted and the unitary stays real.
    """

    num_qubits: int
    num_layers: int
    angles: np.ndarray
    real_valued: bool = False

    def __post_init__(self):
        check_scalars(self)
        if self.num_layers < 0:
            raise ConfigurationError(f"num_layers must be non-negative, got {self.num_layers}")
        arr = real_array(self.angles, "angles")
        expected = (self.num_layers + 1, self.num_qubits, 2)
        if arr.shape != expected:
            raise ConfigurationError(f"angles shape {arr.shape} != {expected}")
        freeze(self, angles=arr)

    @staticmethod
    def zeros(num_qubits: int, num_layers: int, real_valued: bool = False) -> "AnsatzParams":
        return AnsatzParams(
            num_qubits, num_layers, np.zeros((num_layers + 1, num_qubits, 2)), real_valued
        )

    @staticmethod
    def random(
        num_qubits: int,
        num_layers: int,
        seed,
        spread: float = 0.1,
        real_valued: bool = False,
    ) -> "AnsatzParams":
        """Near-identity initialization, uniform in [-spread, spread]."""
        arr = seeded_rng(seed).uniform(-spread, spread, size=(num_layers + 1, num_qubits, 2))
        return AnsatzParams(num_qubits, num_layers, arr, real_valued)


@dataclass(frozen=True)
class PhaseLayerParams:
    """One Rz angle per step-register qubit."""

    angles: np.ndarray

    def __post_init__(self):
        arr = real_array(self.angles, "angles")
        if arr.ndim != 1:
            raise ConfigurationError(f"phase-layer angles must be 1-D, one per qubit, got shape {arr.shape}")
        freeze(self, angles=arr)

    @staticmethod
    def zeros(num_qubits: int) -> "PhaseLayerParams":
        return PhaseLayerParams(np.zeros(num_qubits))

    @staticmethod
    def random(num_qubits: int, seed, spread: float = 0.1) -> "PhaseLayerParams":
        return PhaseLayerParams(seeded_rng(seed).uniform(-spread, spread, size=num_qubits))

    @property
    def num_qubits(self) -> int:
        return self.angles.size


def _rotation_layers(angles: np.ndarray, real_valued: bool) -> np.ndarray:
    """All (..., L+1, 2**n, 2**n) rotation layers of (..., L+1, n, 2) ``angles``
    in one pass, over any leading axes.

    Layer l is the Kronecker product of Ry(theta) Rz(phi) over qubits n-1..0.
    The 2x2 factors of every (layer, qubit) are filled as arrays, with the
    entries of `rotation_y` and `rotation_z`, multiplied in one batched
    matmul, and the Kronecker product is taken one qubit at a time across all
    layers together: the same elementwise products in the same order as one
    layer and one qubit at a time, so the same bits.
    """
    half_theta = angles[..., 0] / 2.0
    c, s = np.cos(half_theta), np.sin(half_theta)
    mats = np.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1] = c, -s, s, c
    if not real_valued:
        rz = np.zeros_like(mats)
        rz[..., 0, 0] = np.exp(-0.5j * angles[..., 1])
        rz[..., 1, 1] = np.exp(0.5j * angles[..., 1])
        mats = mats @ rz
    lead = angles.shape[:-2]
    full = np.ones(lead + (1, 1), dtype=complex)
    for q in range(angles.shape[-2] - 1, -1, -1):
        # a batched np.kron(full, mats[..., q]) without its generic-shape overhead
        full = (full[..., :, None, :, None] * mats[..., q, None, :, None, :]).reshape(
            lead + (2 * full.shape[-2], -1)
        )
    return full


@lru_cache(maxsize=None)
def _cnot_chain_order(num_qubits: int) -> np.ndarray:
    """The CNOT chain C (control q, target q+1, for q = 0..n-2 in turn) as
    the index permutations (rows, cols): ``C @ A == A[rows]`` and
    ``A @ C == A[:, cols]``."""
    rows = basis = np.arange(2 ** num_qubits)
    for q in range(num_qubits - 1):
        rows = rows[basis ^ (((basis >> q) & 1) << (q + 1))]
    order = np.stack([rows, np.argsort(rows)])
    order.setflags(write=False)
    return order


def build_ansatz_unitary(params: AnsatzParams) -> UnitaryBlock:
    """Dense unitary of the layered ansatz, targeting qubits 0..n-1."""
    return UnitaryBlock(ansatz_vjp(params)[0][0], tuple(range(params.num_qubits)))


@lru_cache(maxsize=None)
def _qubit_generators(axis: str, num_qubits: int) -> np.ndarray:
    """(n, 2**n, 2**n) stack of -i sigma_axis / 2 acting on each qubit q."""
    pauli = {"y": np.array([[0.0, -1j], [1j, 0.0]]), "z": np.diag([1.0, -1.0])}[axis]
    generators = np.stack([
        np.kron(np.kron(np.eye(2 ** (num_qubits - 1 - q)), -0.5j * pauli), np.eye(2 ** q))
        for q in range(num_qubits)
    ])
    generators.setflags(write=False)
    return generators


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def ansatz_vjp(*params: AnsatzParams):
    """The (P, d, d) matrices U of P ansatz parameter sets on one qubit count
    and their backward pass: ``backward(g_matrices)`` gives the P angle
    gradients, each shaped like its ``angles``, of a loss whose gradient with
    respect to U_p is ``g_matrices[p]`` (dL/dRe U + i dL/dIm U).

    Members of one depth and ``real_valued`` flag are built in one pass: one
    `_rotation_layers` call over their stacked angles and one chain of
    batched prefix products.  Otherwise each is built as its own stack of
    one.  Either way each member's bits are those of building it alone.

    With U = suffix_l R_l prefix_l around rotation layer l, an Ry angle enters
    as dR_l = (-i Y_q / 2) R_l and an Rz angle as dR_l = R_l (-i Z_q / 2), so
    dL/dangle = Re <X, G_q> with X the loss gradient moved through the
    prefix and suffix products to the generator's position.  The backward
    reuses the forward's rotation layers and prefix products, one member at
    a time.  The CNOT chain permutes rows forward and columns backward.
    """
    n = params[0].num_qubits
    if any(p.num_qubits != n for p in params):
        raise ConfigurationError("stacked ansatz parameters must share one qubit count")
    if len({(p.num_layers, p.real_valued) for p in params}) > 1:
        parts = [ansatz_vjp(p) for p in params]
        return (
            np.concatenate([matrix for matrix, _ in parts]),
            lambda g_matrices: [back(g[None])[0] for (_, back), g in zip(parts, g_matrices)],
        )
    real_valued = params[0].real_valued
    layers = _rotation_layers(np.stack([p.angles for p in params]), real_valued)
    rows, cols = _cnot_chain_order(n)
    prefix = np.empty_like(layers)  # the products before each rotation layer
    prefix[:, 0] = np.eye(2 ** n)
    prefix[:, 1:] = layers[:, :-1, rows]  # C R_l for every layer l but the last
    for l in range(2, layers.shape[1]):  # prefix_l = C R_(l-1) prefix_(l-1); prefix_1 skips the identity
        np.matmul(prefix[:, l], prefix[:, l - 1], out=prefix[:, l])
    matrices = layers[:, -1] @ prefix[:, -1]

    def member_backward(layers, prefix, g_matrix):
        suffix = np.empty_like(layers)  # the products after each rotation layer
        suffix[-1] = prefix[0]
        for l in range(len(layers) - 2, -1, -1):
            suffix[l] = (suffix[l + 1] @ layers[l + 1] if l < len(layers) - 2 else layers[-1])[:, cols]
        grad = np.zeros(layers.shape[:1] + (n, 2))
        x_ry = _dagger(suffix) @ g_matrix @ _dagger(layers @ prefix)
        grad[..., 0] = np.einsum("lab,qab->lq", x_ry.conj(), _qubit_generators("y", n)).real
        if not real_valued:
            x_rz = _dagger(suffix @ layers) @ g_matrix @ _dagger(prefix)
            grad[..., 1] = np.einsum("lab,qab->lq", x_rz.conj(), _qubit_generators("z", n)).real
        return grad

    def backward(g_matrices):
        return [member_backward(*member) for member in zip(layers, prefix, g_matrices)]

    return matrices, backward


def phase_layer_diagonal(params: PhaseLayerParams) -> np.ndarray:
    """Diagonal of the Rz product over the step register, indexed by basis value.

    One qubit at a time, from qubit t-1 down: a 1-D ``np.kron`` by
    broadcasting, without its generic-shape overhead; the same products in
    the same order, so the same bits.
    """
    diag = np.ones(1, dtype=complex)
    for q in range(params.num_qubits - 1, -1, -1):
        alpha = params.angles[q]
        factors = np.array([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])
        diag = (diag[:, None] * factors[None, :]).ravel()
    return diag


def phase_layer_vjp(params: PhaseLayerParams):
    """The phase diagonal and its backward pass: ``backward(g_diagonal)``
    gives the angle gradient of a loss whose gradient with respect to the
    diagonal is ``g_diagonal``; entry k carries e^{+-i alpha_q / 2} by bit q
    of k, so the backward reuses the forward's diagonal."""
    diag = phase_layer_diagonal(params)

    def backward(g_diagonal):
        bits = (np.arange(diag.size)[:, None] >> np.arange(params.num_qubits)) & 1
        return ((g_diagonal.conj() * 0.5j * diag) @ (2 * bits - 1)).real

    return diag, backward


def parameter_shift_gradient(
    loss_fn: Callable[[np.ndarray], float], params: np.ndarray, index: int
) -> float:
    """Two-point shift-rule derivative with respect to ``params[index]``.

    Exact for functions whose parameter enters through a single rotation gate
    with generator eigenvalues +-1/2, which is how every angle in this module
    enters the circuit.
    """
    base = np.asarray(params, dtype=float)
    plus = base.copy()
    minus = base.copy()
    plus[index] += np.pi / 2.0
    minus[index] -= np.pi / 2.0
    return 0.5 * (loss_fn(plus) - loss_fn(minus))

"""Dense little-endian state-vector core.

Registers, gate application, register-controlled blocks, the all-zeros
projector expectation, and shot sampling.  Conventions fixed once for the
whole package:

* Qubit 0 is the least-significant bit of a basis index; the basis state
  with qubit k set contributes ``2**k`` to the amplitude index.
* The circuit's registers have one placement, `RegisterLayout`: data
  registers A on qubits [0, n) and B on [n, 2n), step register C on
  [2n, 2n+t), with n and t read off the (T, d) shape of the token rows.
  So a state of the circuit is a row-major (T, d, d) array with axes
  (C, B, A), and the dense route (`engine.circuit_stages`) applies each
  stage on its register's axis of an (S, T, d, d) batch.
* A Householder reflection ``-phase * (I - v v^dag / v_1)`` is never a
  matrix or an object: it is one (v, phase) row, checked once by
  `_check_reflections` and applied by `_reflect` as a rank-1 update on one
  axis of a stack, each leading index with its own row.  Its adjoint
  conjugates the phase.
* A `UnitaryBlock` is a checked dense matrix indexed the same way over its
  own targets: ``targets[0]`` is the least-significant bit of its index.
  The public single-state API serves any placement: `apply_unitary` and
  `apply_controlled_by_register` (a mapping from control value to block,
  one kernel call per control value) go through one layout helper,
  `_apply`, which moves the control axes, then the target axes, to the
  front, calls the block's ``kernel`` and moves the axes back.
* Every operation is a pure function; amplitude arrays are frozen on
  construction and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from .data import INT64_MAX, _type_fault, check_int_range, check_scalars, freeze, seeded_rng
from .errors import ConfigurationError

UNITARY_ATOL = 1e-10

_SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over ``2**num_qubits`` little-endian basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_scalars(self)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2 ** self.num_qubits:
            raise ConfigurationError(
                f"expected {2 ** self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got {amps.size}"
            )
        freeze(self, amplitudes=amps)

    @staticmethod
    def zero(num_qubits: int) -> "StateVector":
        """The |0...0> state on ``num_qubits`` qubits."""
        amps = np.zeros(2 ** num_qubits, dtype=complex)
        amps[0] = 1.0
        return StateVector(num_qubits, amps)


@dataclass(frozen=True)
class RegisterLayout:
    """The one placement of the circuit's registers, for tokens of dimension
    d = 2**n and T = 2**t steps: data register A on qubits [0, n), B on
    [n, 2n) and the step register C on [2n, 2n+t)."""

    n: int
    t: int

    @staticmethod
    @lru_cache(maxsize=64)
    def of(num_steps: int, token_dim: int) -> "RegisterLayout":
        """The layout of T steps of d-dimensional tokens, as (..., T, d) rows
        read them; raises unless both are powers of two, at least 2.  One
        cached value per (T, d), so its qubit tuples are built once per
        process."""
        for name, size in (("step count", num_steps), ("token dimension", token_dim)):
            if size < 2 or size & (size - 1):
                raise ConfigurationError(f"{name} {size} is not a power of two >= 2")
        return RegisterLayout(int(token_dim).bit_length() - 1, int(num_steps).bit_length() - 1)

    @cached_property
    def a_qubits(self) -> tuple:
        return tuple(range(self.n))

    @cached_property
    def b_qubits(self) -> tuple:
        return tuple(range(self.n, 2 * self.n))

    @cached_property
    def c_qubits(self) -> tuple:
        return tuple(range(2 * self.n, self.num_qubits))

    @property
    def token_dim(self) -> int:
        return 2 ** self.n

    @property
    def num_steps(self) -> int:
        return 2 ** self.t

    @property
    def num_qubits(self) -> int:
        return 2 * self.n + self.t


@dataclass(frozen=True)
class UnitaryBlock:
    """A dense unitary acting on an ordered list of distinct target qubits."""

    matrix: np.ndarray
    targets: tuple

    def __post_init__(self):
        targets = _qubit_indices(self.targets, "targets")
        if len(set(targets)) != len(targets) or any(q < 0 for q in targets):
            raise ConfigurationError("targets must be distinct non-negative qubit indices")
        object.__setattr__(self, "targets", targets)
        freeze(self, matrix=_check_unitaries(len(targets), self.matrix)[0])

    @property
    def dimension(self) -> int:
        return 2 ** len(self.targets)

    def kernel(self, x: np.ndarray) -> np.ndarray:
        """This block applied to every row of a (rows, dim, rest) array (see `_apply`)."""
        return self.matrix @ x


def _qubit_indices(qubits, name: str) -> tuple:
    """``qubits`` as a tuple of Python ints; a float or a bool index is a
    ConfigurationError, as `data.check_int_range` refuses them, not read as
    the int it truncates to."""
    indices = tuple(qubits)
    if any(_type_fault(q, int) for q in indices):
        raise ConfigurationError(f"{name} must be integer qubit indices, got {indices!r}")
    return tuple(int(q) for q in indices)


def _check_unitaries(num_qubits: int, *matrices) -> np.ndarray:
    """``matrices`` as one complex stack, once each is checked to be a unitary
    on ``num_qubits`` qubits: its shape, then one batched product for the
    whole stack, each to `UNITARY_ATOL` (a NaN fails)."""
    dim = 2 ** num_qubits
    for matrix in matrices:
        if np.shape(matrix) != (dim, dim):
            raise ConfigurationError(f"matrix shape {np.shape(matrix)} does not match {num_qubits} target qubits")
    stack = np.array(matrices, dtype=complex)
    defect = np.max(np.abs(stack @ stack.conj().swapaxes(-1, -2) - np.eye(dim)))
    if not defect <= UNITARY_ATOL:  # NaN fails
        raise ConfigurationError(f"matrix is not unitary (defect {defect:.3e})")
    return stack


def _check_reflections(vectors: np.ndarray, phases: np.ndarray) -> None:
    """Raise unless every row is a reflection as `encodings.reflection_rows`
    builds it: ``|phase_j| = 1``, ``||v_j||^2 = 2 v_j1`` and ``v_j1 >= 1``,
    each to `UNITARY_ATOL`.  The first two make ``-phase_j (I - v_j v_j^dag
    / v_j1)`` exactly unitary, checked in O(dim) in place of a dense
    product; the third keeps the division by v_j1 away from zero.  A NaN
    fails all three, and so does no row of zeros."""
    phase_defect = np.abs(np.abs(phases) - 1.0)
    norm_defect = np.abs(np.vecdot(vectors, vectors).real - 2.0 * vectors[:, 0].real)
    first = vectors[:, 0].real
    ok = (phase_defect <= UNITARY_ATOL) & (norm_defect <= UNITARY_ATOL) & (first >= 1.0 - UNITARY_ATOL)
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        if not phase_defect[j] <= UNITARY_ATOL:
            raise ConfigurationError(f"reflection {j}: phase {phases[j]} is not unimodular")
        if not norm_defect[j] <= UNITARY_ATOL:
            raise ConfigurationError(
                f"reflection {j} is not unitary (||v||^2 - 2 v_1 = {norm_defect[j]:.3e})"
            )
        raise ConfigurationError(f"reflection {j}: first entry {first[j]:.3e} of v is below 1")


def _reflect(vectors: np.ndarray, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``-phase_j (I - v_j v_j^dag / v_j1)`` applied on axis -2 of the
    (..., dim, rest) array x, as a rank-1 update: index j of the leading
    axes gets row j of the (..., dim) ``vectors`` and (...) ``phases``, and
    a single row acts on every index.  The result has x's memory order, so
    a stage that reflects a transposed view of its batch returns a batch in
    the layout it came in, and the next product sees the operand layout it
    always has."""
    overlap = vectors.conj()[..., None, :] @ x
    out = np.empty_like(x, dtype=complex, shape=overlap.shape[:-2] + x.shape[-2:])
    np.multiply(vectors[..., :, None], overlap / vectors[..., :1, None].real, out=out)
    out -= x
    out *= phases[..., None, None]
    return out


def reflection_matrix(vector: np.ndarray, phase: complex) -> np.ndarray:
    """Dense ``-phase * (I - v v^dag / v_1)`` for any length of v: `_reflect` on the identity."""
    vec = np.asarray(vector, dtype=complex)
    return _reflect(vec[None], np.array([phase], dtype=complex), np.eye(vec.size, dtype=complex)[None])[0]


def identity_block(targets: Sequence[int]) -> UnitaryBlock:
    return UnitaryBlock(np.eye(2 ** len(tuple(targets)), dtype=complex), tuple(targets))


@dataclass
class OpCounter:
    """Tally of applied blocks, weighted by dense block dimension 2**k."""

    blocks: int = 0
    weighted_dim: int = 0

    def record(self, dim: int, count: int = 1):
        """``count`` blocks of dimension ``dim``."""
        self.blocks += int(count)
        self.weighted_dim += int(count) * int(dim)


def _target_axes(num_qubits: int, targets) -> list:
    """Axes of the reshaped ``[2] * num_qubits`` tensor that a block's index
    runs over, most significant first.  Tensor axis j holds qubit
    ``num_qubits - 1 - j``, and a block's index reads ``targets[0]`` as its
    least-significant bit."""
    return [num_qubits - 1 - t for t in reversed(targets)]


@lru_cache(maxsize=1024)
def _axis_orders(num_qubits: int, controls: tuple, targets: tuple) -> tuple:
    """The transpose of a (S, 2, ..., 2) batch that leads with the sequence
    axis, the control axes (most significant bit of j first) and the target
    axes, the others in their order, and its inverse.  Raises unless the
    targets lie in the register and off the controls; pure tuples of ints,
    so cached."""
    if set(targets) & set(controls):
        raise ConfigurationError("controlled blocks must act on qubits disjoint from controls")
    if any(q >= num_qubits for q in targets):
        raise ConfigurationError(f"block targets {targets} exceed register of {num_qubits} qubits")
    lead = [1 + a for a in _target_axes(num_qubits, controls) + _target_axes(num_qubits, targets)]
    order = [0] + lead + [a for a in range(1, num_qubits + 1) if a not in lead]
    return tuple(order), tuple(int(a) for a in np.argsort(order))


def _apply(psi: np.ndarray, controls: tuple, targets: tuple, kernel) -> np.ndarray:
    """``kernel`` applied to each state of the (S, 2**m) batch ``psi``, read as
    (sequence and control value, block index, rest).

    Row ``s * 2**c + j`` of the kernel's (S * 2**c, 2**k, rest) array is
    sequence s with its control register at j; ``kernel`` maps that array to
    a new one of the same shape.  Returns a new contiguous (S, 2**m) batch.
    """
    num_seqs, size = psi.shape
    num_qubits = size.bit_length() - 1
    order, inverse = _axis_orders(num_qubits, controls, targets)
    tensor_shape = (num_seqs,) + (2,) * num_qubits
    x = psi.reshape(tensor_shape).transpose(order).reshape(num_seqs << len(controls), 1 << len(targets), -1)
    out = kernel(x)
    del x  # one state-sized array fewer while the result is moved back
    return out.reshape(tensor_shape).transpose(inverse).reshape(num_seqs, size)


def _on_row(j: int, kernel, x: np.ndarray) -> np.ndarray:
    """``kernel`` applied to row j of x alone; the other rows pass through."""
    return np.concatenate((x[:j], kernel(x[j:j + 1]), x[j + 1:]))


def apply_unitary(state: StateVector, block: UnitaryBlock) -> StateVector:
    """Apply ``block`` to its target qubits, identity elsewhere: the select with no controls."""
    return StateVector(state.num_qubits, _apply(state.amplitudes[None], (), block.targets, block.kernel)[0])


def apply_controlled_by_register(
    state: StateVector,
    controls: Sequence[int],
    blocks: Mapping[int, UnitaryBlock],
) -> StateVector:
    """Apply ``blocks[j]`` on the subspace where the control register reads j.

    Realizes the select unitary sum_j U_j (x) |j><j| with controls read
    little-endian (``controls[0]`` is the least-significant bit of j).
    Every control value in ``0..2**t - 1`` must map to a block; each is
    applied in one kernel call on its row alone.
    """
    controls = _qubit_indices(controls, "controls")
    m = state.num_qubits
    if len(set(controls)) != len(controls) or any(q < 0 or q >= m for q in controls):
        raise ConfigurationError("controls must be distinct in-range qubit indices")
    num_values = 2 ** len(controls)
    missing = [j for j in range(num_values) if j not in blocks]
    extra = [j for j in blocks if not 0 <= j < num_values]
    if missing:
        raise ConfigurationError(f"no block supplied for control value(s) {missing}")
    if extra:
        raise ConfigurationError(f"control value(s) {extra} are unreachable")

    psi = state.amplitudes[None]
    for j in range(num_values):
        psi = _apply(psi, controls, blocks[j].targets, partial(_on_row, j, blocks[j].kernel))
    return StateVector(m, psi[0])


def all_zeros_expectation(state: StateVector) -> float:
    """Expectation of the projector onto |0...0>, i.e. |<0...0|state>|^2."""
    return float(np.abs(state.amplitudes[0]) ** 2)


def sample_expectation(state: StateVector, shots: int, seed: int) -> float:
    """Fraction of ``shots`` seeded Bernoulli draws that hit the all-zeros outcome."""
    check_int_range(shots, INT64_MAX, "shots")
    rng = seeded_rng(seed)
    p = min(max(all_zeros_expectation(state), 0.0), 1.0)
    return float(rng.binomial(shots, p)) / shots


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on the first argument."""
    if a.num_qubits != b.num_qubits:
        raise ConfigurationError(
            f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))

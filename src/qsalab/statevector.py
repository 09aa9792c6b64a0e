"""Dense little-endian state-vector core.

Registers, gate application, register-controlled blocks, the all-zeros
projector expectation, and shot sampling.  Conventions fixed once for the
whole package:

* Qubit 0 is the least-significant bit of a basis index; the basis state
  with qubit k set contributes ``2**k`` to the amplitude index.
* A block (:class:`UnitaryBlock`, dense, or :class:`ReflectionBlock`, a
  Householder reflection kept as a vector) is indexed the same way over its
  own targets: ``targets[0]`` is the least-significant bit of its index.
  Each block applies itself (``act``), so one loop serves both kinds.
* Every operation is a pure function; amplitude arrays are frozen on
  construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

UNITARY_ATOL = 1e-10

_SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _qubit_count_for(length: int) -> int:
    m = int(length).bit_length() - 1
    if length <= 0 or 2 ** m != length:
        raise ConfigurationError(f"amplitude array length {length} is not a power of two")
    return m


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over ``2**num_qubits`` little-endian basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2 ** self.num_qubits:
            raise ConfigurationError(
                f"expected {2 ** self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got {amps.size}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def zero(num_qubits: int) -> "StateVector":
        """The |0...0> state on ``num_qubits`` qubits."""
        amps = np.zeros(2 ** num_qubits, dtype=complex)
        amps[0] = 1.0
        return StateVector(num_qubits, amps)

    @staticmethod
    def from_amplitudes(values, normalize: bool = False) -> "StateVector":
        """Build a state from raw amplitudes, optionally rescaling to unit norm."""
        arr = np.asarray(values, dtype=complex).reshape(-1)
        m = _qubit_count_for(arr.size)
        if normalize:
            nrm = np.linalg.norm(arr)
            if nrm < 1e-12:
                raise DegenerateInputError("cannot normalize a zero amplitude vector")
            arr = arr / nrm
        elif abs(np.vdot(arr, arr).real - 1.0) > 1e-6:
            raise ConfigurationError(
                "amplitudes are not normalized; pass normalize=True to rescale"
            )
        return StateVector(m, arr)

    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class RegisterLayout:
    """Disjoint qubit ranges for the two data registers A, B and the step register C."""

    a_qubits: tuple
    b_qubits: tuple
    c_qubits: tuple

    def __post_init__(self):
        a, b, c = (tuple(int(q) for q in r) for r in (self.a_qubits, self.b_qubits, self.c_qubits))
        object.__setattr__(self, "a_qubits", a)
        object.__setattr__(self, "b_qubits", b)
        object.__setattr__(self, "c_qubits", c)
        if len(a) != len(b) or len(a) < 1:
            raise ConfigurationError("registers A and B must have the same nonzero size")
        if len(c) < 1:
            raise ConfigurationError("register C must hold at least one qubit")
        total = len(a) + len(b) + len(c)
        if set(a) | set(b) | set(c) != set(range(total)) or len(set(a + b + c)) != total:
            raise ConfigurationError("register ranges must be disjoint and cover 0..2n+t-1")

    @staticmethod
    def standard(n: int, t: int) -> "RegisterLayout":
        """A on qubits [0, n), B on [n, 2n), C on [2n, 2n+t)."""
        return RegisterLayout(
            tuple(range(n)), tuple(range(n, 2 * n)), tuple(range(2 * n, 2 * n + t))
        )

    @property
    def n(self) -> int:
        return len(self.a_qubits)

    @property
    def t(self) -> int:
        return len(self.c_qubits)

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
    """A dense unitary acting on an ordered list of target qubits."""

    matrix: np.ndarray
    targets: tuple

    def __post_init__(self):
        targets = _checked_targets(self.targets)
        object.__setattr__(self, "targets", targets)
        mat = np.array(self.matrix, dtype=complex)
        dim = 2 ** len(targets)
        if mat.shape != (dim, dim):
            raise ConfigurationError(
                f"matrix shape {mat.shape} does not match {len(targets)} target qubits"
            )
        defect = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
        if defect > UNITARY_ATOL:
            raise ConfigurationError(f"matrix is not unitary (defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "UnitaryBlock":
        return UnitaryBlock(self.matrix.conj().T, self.targets)

    def retarget(self, targets: Sequence[int]) -> "UnitaryBlock":
        if len(tuple(targets)) != len(self.targets):
            raise ConfigurationError("retarget must preserve the number of target qubits")
        return UnitaryBlock(self.matrix, tuple(targets))

    def act(self, psi: np.ndarray, axes: list) -> np.ndarray:
        """This block applied to the tensor ``psi`` along ``axes`` (see `_target_axes`)."""
        k = len(axes)
        tensor = self.matrix.reshape([2] * (2 * k))
        out = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), axes))
        return np.moveaxis(out, list(range(k)), axes)


@dataclass(frozen=True)
class ReflectionBlock:
    """``-phase * (I - v v^dag / v_1)``, a unitary kept as (v, phase), never as a matrix.

    With ``v = e_1 + u / phase`` for a unit vector u whose first entry has
    phase ``phase``, ``v_1 = 1 + |u_1|`` is real and the block's first column
    is u (`encodings.reflection_with_first_column`).  The block is exactly
    unitary when ``|phase| = 1`` and ``||v||^2 = 2 v_1``, which are checked
    in O(dim) in place of `UnitaryBlock`'s dense product.
    """

    vector: np.ndarray
    phase: complex
    targets: tuple

    def __post_init__(self):
        targets = _checked_targets(self.targets)
        object.__setattr__(self, "targets", targets)
        vec = np.array(self.vector, dtype=complex).reshape(-1)
        if vec.size != 2 ** len(targets):
            raise ConfigurationError(
                f"reflection vector of length {vec.size} does not match {len(targets)} target qubits"
            )
        phase = complex(self.phase)
        if abs(abs(phase) - 1.0) > UNITARY_ATOL:
            raise ConfigurationError(f"reflection phase {phase} is not unimodular")
        norm_defect = abs(np.vdot(vec, vec).real - 2.0 * vec[0].real)
        if norm_defect > UNITARY_ATOL:
            raise ConfigurationError(
                f"reflection is not unitary (||v||^2 - 2 v_1 = {norm_defect:.3e})"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "phase", phase)

    @property
    def dimension(self) -> int:
        return self.vector.size

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim view; the simulator never builds it."""
        return reflection_matrix(self.vector, self.phase)

    def dagger(self) -> "ReflectionBlock":
        # The reflection I - v v^dag / v_1 is Hermitian; only the phase conjugates.
        return ReflectionBlock(self.vector, self.phase.conjugate(), self.targets)

    def act(self, psi: np.ndarray, axes: list) -> np.ndarray:
        """This block applied to the tensor ``psi`` along ``axes``, as a rank-1 update."""
        k = len(axes)
        v = self.vector.reshape([2] * k)
        overlap = np.tensordot(v.conj(), psi, axes=(list(range(k)), axes))
        out = np.multiply.outer(v, overlap / self.vector[0].real)
        out -= np.moveaxis(psi, axes, list(range(k)))
        out *= self.phase
        return np.moveaxis(out, list(range(k)), axes)


def reflection_matrix(vector: np.ndarray, phase: complex) -> np.ndarray:
    """Dense ``-phase * (I - v v^dag / v_1)`` for any length of v."""
    vec = np.asarray(vector, dtype=complex)
    return -phase * (np.eye(vec.size) - np.outer(vec, vec.conj()) / vec[0].real)


def _checked_targets(targets) -> tuple:
    targets = tuple(int(q) for q in targets)
    if len(set(targets)) != len(targets) or any(q < 0 for q in targets):
        raise ConfigurationError("targets must be distinct non-negative qubit indices")
    return targets


def identity_block(targets: Sequence[int]) -> UnitaryBlock:
    return UnitaryBlock(np.eye(2 ** len(tuple(targets)), dtype=complex), tuple(targets))


@dataclass
class OpCounter:
    """Tally of applied blocks, weighted by dense block dimension 2**k."""

    blocks: int = 0
    weighted_dim: int = 0

    def record(self, dim: int):
        self.blocks += 1
        self.weighted_dim += int(dim)


def _target_axes(num_qubits: int, targets) -> list:
    """Axes of the reshaped ``[2] * num_qubits`` tensor that a block's index
    runs over, most significant first.  Tensor axis j holds qubit
    ``num_qubits - 1 - j``, and a block's index reads ``targets[0]`` as its
    least-significant bit."""
    return [num_qubits - 1 - t for t in reversed(targets)]


Block = UnitaryBlock | ReflectionBlock


def apply_unitary(state: StateVector, block: Block, counter: OpCounter | None = None) -> StateVector:
    """Apply ``block`` to its target qubits, identity elsewhere."""
    if any(q >= state.num_qubits for q in block.targets):
        raise ConfigurationError(
            f"block targets {block.targets} exceed register of {state.num_qubits} qubits"
        )
    if counter is not None:
        counter.record(block.dimension)
    m = state.num_qubits
    return StateVector(m, block.act(state.amplitudes.reshape([2] * m), _target_axes(m, block.targets)))


def apply_controlled_by_register(
    state: StateVector,
    controls: Sequence[int],
    blocks: Mapping[int, Block],
    counter: OpCounter | None = None,
) -> StateVector:
    """Apply ``blocks[j]`` on the subspace where the control register reads j.

    Realizes the select unitary sum_j U_j (x) |j><j| with controls read
    little-endian (``controls[0]`` is the least-significant bit of j).
    Every control value in ``0..2**t - 1`` must map to a block.
    """
    controls = tuple(int(q) for q in controls)
    m = state.num_qubits
    if len(set(controls)) != len(controls) or any(q < 0 or q >= m for q in controls):
        raise ConfigurationError("controls must be distinct in-range qubit indices")
    num_values = 2 ** len(controls)
    missing = [j for j in range(num_values) if j not in blocks]
    if missing:
        raise ConfigurationError(f"no block supplied for control value(s) {missing}")
    extra = [j for j in blocks if not 0 <= j < num_values]
    if extra:
        raise ConfigurationError(f"control value(s) {extra} are unreachable")

    for block in blocks.values():
        if set(block.targets) & set(controls):
            raise ConfigurationError("controlled blocks must act on qubits disjoint from controls")
        if any(q >= m for q in block.targets):
            raise ConfigurationError("block targets exceed the register")

    # Fixing the control axes leaves the slice where the controls read j; its
    # axes are the remaining qubits, renumbered in ascending order.
    rest = [q for q in range(m) if q not in controls]
    psi = state.amplitudes.reshape([2] * m)
    out = np.empty_like(psi)
    for j in range(num_values):
        index = [slice(None)] * m
        for i, c in enumerate(controls):
            index[m - 1 - c] = (j >> i) & 1
        index = tuple(index)
        block = blocks[j]
        axes = _target_axes(len(rest), [rest.index(q) for q in block.targets])
        out[index] = block.act(psi[index], axes)
        if counter is not None:
            counter.record(block.dimension)
    return StateVector(m, out)


def all_zeros_expectation(state: StateVector) -> float:
    """Expectation of the projector onto |0...0>, i.e. |<0...0|state>|^2."""
    return float(np.abs(state.amplitudes[0]) ** 2)


def sample_expectation(state: StateVector, shots: int, seed: int) -> float:
    """Fraction of ``shots`` seeded Bernoulli draws that hit the all-zeros outcome."""
    if shots < 1:
        raise ConfigurationError("shots must be a positive integer")
    p = min(max(all_zeros_expectation(state), 0.0), 1.0)
    rng = np.random.default_rng(seed)
    return float(rng.binomial(shots, p)) / shots


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on the first argument."""
    if a.num_qubits != b.num_qubits:
        raise ConfigurationError(
            f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))

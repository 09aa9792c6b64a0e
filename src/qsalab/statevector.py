"""Dense little-endian state-vector core.

Registers, gate application, register-controlled blocks, the all-zeros
projector expectation, and shot sampling.  Conventions fixed once for the
whole package:

* Qubit 0 is the least-significant bit of a basis index; the basis state
  with qubit k set contributes ``2**k`` to the amplitude index.
* A `UnitaryBlock` is a checked dense matrix indexed the same way over its
  own targets: ``targets[0]`` is the least-significant bit of its index.
  It supplies only its algebra, a ``kernel`` on a (rows, dim, rest) array.
  One layout helper (`_apply`) takes a batch of states as one (S, 2**m)
  array, moves the control axes, then the target axes, to the front, reads
  the batch as (sequence and control value, block index, rest), calls the
  kernel and moves the axes back.
* A Householder reflection ``-phase * (I - v v^dag / v_1)`` is never a
  matrix or an object: it is one (v, phase) row, checked once by
  `_check_reflections` and applied by `_reflect` as a rank-1 update.  A
  register-controlled select of reflections, one row per control value on
  one target tuple (`_reflection_select`), is one kernel call for a whole
  batch of sequences; its adjoint conjugates the phases.
* `apply_controlled_by_register` takes a mapping from control value to
  `UnitaryBlock`, one kernel call per control value; `apply_unitary` is
  the case with no controls.
* Every operation is a pure function; amplitude arrays are frozen on
  construction and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

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

    def step_indices(self) -> np.ndarray:
        """Basis index of each step value j = 0..T-1 with registers A and B
        at zero: ``sum_k bit_k(j) << c_qubits[k]``, for any layout."""
        steps = np.arange(self.num_steps)
        return sum(((steps >> k) & 1) << q for k, q in enumerate(self.c_qubits))


@dataclass(frozen=True)
class UnitaryBlock:
    """A dense unitary acting on an ordered list of distinct target qubits."""

    matrix: np.ndarray
    targets: tuple

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        if len(set(targets)) != len(targets) or any(q < 0 for q in targets):
            raise ConfigurationError("targets must be distinct non-negative qubit indices")
        object.__setattr__(self, "targets", targets)
        mat = np.array(self.matrix, dtype=complex)
        dim = self.dimension
        if mat.shape != (dim, dim):
            raise ConfigurationError(
                f"matrix shape {mat.shape} does not match {len(targets)} target qubits"
            )
        defect = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
        if not defect <= UNITARY_ATOL:  # NaN fails
            raise ConfigurationError(f"matrix is not unitary (defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dimension(self) -> int:
        return 2 ** len(self.targets)

    def kernel(self, x: np.ndarray) -> np.ndarray:
        """This block applied to every row of a (rows, dim, rest) array (see `_apply`)."""
        return self.matrix @ x


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
    """``-phase_j (I - v_j v_j^dag / v_j1)`` applied to row j of the (rows, dim, rest)
    array x, as a rank-1 update; a single (v, phase) row acts on every row of x.
    For a batch of selects the rows are (sequence, control value) pairs: the
    (S, 2**t, dim) vectors of S sequences, flattened to (S * 2**t, dim)."""
    overlap = vectors.conj()[:, None, :] @ x
    out = vectors[:, :, None] * (overlap / vectors[:, :1, None].real)
    out -= x
    out *= phases[:, None, None]
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


def _apply_block(psi: np.ndarray, block: UnitaryBlock, counter: OpCounter | None = None) -> np.ndarray:
    """``block`` on its targets of every state of the (S, 2**m) batch ``psi``."""
    out = _apply(psi, (), block.targets, block.kernel)
    if counter is not None:
        counter.record(block.dimension, psi.shape[0])
    return out


def _reflection_select(
    psi: np.ndarray,
    controls: tuple,
    targets: tuple,
    vectors: np.ndarray,
    phases: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Each state's select ``sum_j R_j (x) |j><j|`` on the (S, 2**m) batch
    ``psi``, R_j the reflection of row j of that sequence's slice of the
    (S, 2**t, dim) Householder ``vectors`` and (S, 2**t) ``phases`` (one
    sequence's (2**t, dim) and (2**t,) when S = 1), already checked: one
    batched rank-1 update, row ``s * 2**t + j`` of the batch's (sequence,
    control value) axis getting R_j of sequence s.  The counter records one
    block per control value and sequence."""
    dim = vectors.shape[-1]
    out = _apply(psi, controls, targets, partial(_reflect, vectors.reshape(-1, dim), phases.reshape(-1)))
    if counter is not None:
        counter.record(dim, phases.size)
    return out


def _on_row(j: int, kernel, x: np.ndarray) -> np.ndarray:
    """``kernel`` applied to row j of x alone; the other rows pass through."""
    return np.concatenate((x[:j], kernel(x[j:j + 1]), x[j + 1:]))


def apply_unitary(state: StateVector, block: UnitaryBlock, counter: OpCounter | None = None) -> StateVector:
    """Apply ``block`` to its target qubits, identity elsewhere: the select with no controls."""
    return StateVector(state.num_qubits, _apply_block(state.amplitudes[None], block, counter)[0])


def apply_controlled_by_register(
    state: StateVector,
    controls: Sequence[int],
    blocks: Mapping[int, UnitaryBlock],
    counter: OpCounter | None = None,
) -> StateVector:
    """Apply ``blocks[j]`` on the subspace where the control register reads j.

    Realizes the select unitary sum_j U_j (x) |j><j| with controls read
    little-endian (``controls[0]`` is the least-significant bit of j).
    Every control value in ``0..2**t - 1`` must map to a block; each is
    applied in one kernel call on its row alone, and the counter records
    one block per control value.
    """
    controls = tuple(int(q) for q in controls)
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
    dims = [blocks[j].dimension for j in range(num_values)]
    for j in range(num_values):
        psi = _apply(psi, controls, blocks[j].targets, partial(_on_row, j, blocks[j].kernel))
    if counter is not None:
        for dim in dims:
            counter.record(dim)
    return StateVector(m, psi[0])


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

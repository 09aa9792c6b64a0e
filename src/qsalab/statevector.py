"""Dense little-endian state-vector core.

Registers, gate application, register-controlled blocks, the all-zeros
projector expectation, and shot sampling.  Conventions fixed once for the
whole package:

* Qubit 0 is the least-significant bit of a basis index; the basis state
  with qubit k set contributes ``2**k`` to the amplitude index.
* A block (:class:`UnitaryBlock`, dense, or :class:`ReflectionBlock`, a
  Householder reflection kept as a vector) is indexed the same way over its
  own targets: ``targets[0]`` is the least-significant bit of its index.
  A block supplies only its algebra, a ``kernel`` on a (rows, dim, rest)
  array.  One layout helper (`_apply`) moves the control axes, then the
  target axes, to the front, reads the state as (control value, block
  index, rest), calls the kernel and moves the axes back.
* A register-controlled select takes a mapping from control value to block.
  A :class:`ReflectionFamily` (one reflection per control value on one
  target tuple, kept as stacked arrays) is checked once and applied in one
  kernel call, block j on row j.  Any other mapping takes one call per
  control value, block j on row j alone.  `apply_unitary` is the case with
  no controls.
* Every operation is a pure function; amplitude arrays are frozen on
  construction and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Sequence

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
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("amplitudes must be finite")
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

    def step_indices(self) -> np.ndarray:
        """Basis index of each step value j = 0..T-1 with registers A and B
        at zero: ``sum_k bit_k(j) << c_qubits[k]``, for any layout."""
        steps = np.arange(self.num_steps)
        return sum(((steps >> k) & 1) << q for k, q in enumerate(self.c_qubits))


class _OnTargets:
    """What every block kind shares: distinct non-negative targets, and the
    dimension ``2**len(targets)`` of its index."""

    def _checked_targets(self) -> tuple:
        targets = tuple(int(q) for q in self.targets)
        if len(set(targets)) != len(targets) or any(q < 0 for q in targets):
            raise ConfigurationError("targets must be distinct non-negative qubit indices")
        object.__setattr__(self, "targets", targets)
        return targets

    @property
    def dimension(self) -> int:
        return 2 ** len(self.targets)


@dataclass(frozen=True)
class UnitaryBlock(_OnTargets):
    """A dense unitary acting on an ordered list of target qubits."""

    matrix: np.ndarray
    targets: tuple

    def __post_init__(self):
        targets = self._checked_targets()
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

    def dagger(self) -> "UnitaryBlock":
        return UnitaryBlock(self.matrix.conj().T, self.targets)

    def retarget(self, targets: Sequence[int]) -> "UnitaryBlock":
        if len(tuple(targets)) != len(self.targets):
            raise ConfigurationError("retarget must preserve the number of target qubits")
        return UnitaryBlock(self.matrix, tuple(targets))

    def kernel(self, x: np.ndarray) -> np.ndarray:
        """This block applied to every row of a (rows, dim, rest) array (see `_apply`)."""
        return self.matrix @ x


@dataclass(frozen=True)
class ReflectionBlock(_OnTargets):
    """``-phase * (I - v v^dag / v_1)``, a unitary kept as (v, phase), never as a matrix.

    With ``v = e_1 + u / phase`` for a unit vector u whose first entry has
    phase ``phase``, ``v_1 = 1 + |u_1|`` is real and the block's first column
    is u (`encodings.reflection_with_first_column`).  The block is exactly
    unitary when ``|phase| = 1`` and ``||v||^2 = 2 v_1``, which are checked
    in O(dim) in place of `UnitaryBlock`'s dense product, together with
    ``v_1 >= 1``, which keeps the division by v_1 away from zero
    (`_check_reflections`).
    """

    vector: np.ndarray
    phase: complex
    targets: tuple

    def __post_init__(self):
        targets = self._checked_targets()
        vec = np.array(self.vector, dtype=complex).reshape(-1)
        if vec.size != self.dimension:
            raise ConfigurationError(
                f"reflection vector of length {vec.size} does not match {len(targets)} target qubits"
            )
        phase = complex(self.phase)
        _check_reflections(vec[None], np.array([phase]))
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "phase", phase)

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim view; the simulator never builds it."""
        return reflection_matrix(self.vector, self.phase)

    def dagger(self) -> "ReflectionBlock":
        # The reflection I - v v^dag / v_1 is Hermitian; only the phase conjugates.
        return ReflectionBlock(self.vector, self.phase.conjugate(), self.targets)

    def kernel(self, x: np.ndarray) -> np.ndarray:
        """This block applied to every row of a (rows, dim, rest) array, as a rank-1 update."""
        return _reflect(self.vector[None], np.array([self.phase]), x)


@dataclass(frozen=True)
class ReflectionFamily(_OnTargets, Mapping):
    """One `ReflectionBlock` per control value on one target tuple, kept as stacked arrays.

    Row j of ``vectors`` (shape ``(2**t, dim)``) and ``phases`` is the block
    for control value j.  All rows are checked at once, by the two conditions
    of `ReflectionBlock`, and `apply_controlled_by_register` applies the
    whole family as one batched rank-1 update.  As a mapping it reads like
    ``{j: ReflectionBlock(vectors[j], phases[j], targets)}``; ``family[j]``
    builds that block on demand.
    """

    vectors: np.ndarray
    phases: np.ndarray
    targets: tuple

    def __post_init__(self):
        targets = self._checked_targets()
        vecs = np.array(self.vectors, dtype=complex)
        phases = np.array(self.phases, dtype=complex)
        if vecs.ndim != 2 or vecs.shape[1] != self.dimension:
            raise ConfigurationError(
                f"reflection vectors of shape {vecs.shape} do not match {len(targets)} target qubits"
            )
        if phases.shape != vecs.shape[:1]:
            raise ConfigurationError(f"{phases.size} phases for {vecs.shape[0]} reflection vectors")
        _check_reflections(vecs, phases)
        vecs.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "phases", phases)

    def dagger(self) -> "ReflectionFamily":
        return ReflectionFamily(self.vectors, self.phases.conj(), self.targets)

    def kernel(self, x: np.ndarray) -> np.ndarray:
        """Block j applied to row j of a (2**t, dim, rest) array, as one batched rank-1 update."""
        return _reflect(self.vectors, self.phases, x)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __iter__(self):
        return iter(range(len(self)))

    def __contains__(self, j) -> bool:
        return isinstance(j, (int, np.integer)) and 0 <= j < len(self)

    def __getitem__(self, j) -> ReflectionBlock:
        if j not in self:
            raise KeyError(j)
        return ReflectionBlock(self.vectors[j], self.phases[j], self.targets)


def _check_reflections(vectors: np.ndarray, phases: np.ndarray) -> None:
    """Raise unless every row is a reflection as `encodings` builds it:
    ``|phase_j| = 1``, ``||v_j||^2 = 2 v_j1`` and ``v_j1 >= 1``, each to
    `UNITARY_ATOL`.  A NaN fails all three, and so does no row of zeros."""
    phase_defect = np.abs(np.abs(phases) - 1.0)
    norm_defect = np.abs(np.vecdot(vectors, vectors).real - 2.0 * vectors[:, 0].real)
    first = vectors[:, 0].real
    ok = (phase_defect <= UNITARY_ATOL) & (norm_defect <= UNITARY_ATOL) & (first >= 1.0 - UNITARY_ATOL)
    bad = np.flatnonzero(~ok)
    if bad.size:
        j = int(bad[0])
        if not phase_defect[j] <= UNITARY_ATOL:
            raise ConfigurationError(f"reflection {j}: phase {phases[j]} is not unimodular")
        if not norm_defect[j] <= UNITARY_ATOL:
            raise ConfigurationError(
                f"reflection {j} is not unitary (||v||^2 - 2 v_1 = {norm_defect[j]:.3e})"
            )
        raise ConfigurationError(f"reflection {j}: first entry {first[j]:.3e} of v is below 1")


def _reflect(vectors: np.ndarray, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``-phase_j (I - v_j v_j^dag / v_j1)`` applied to row j of the (rows, dim, rest)
    array x, as a rank-1 update; a single (v, phase) row acts on every row of x."""
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


def _apply(psi: np.ndarray, controls: tuple, targets: tuple, kernel) -> np.ndarray:
    """``kernel`` applied to the ``[2] * m`` tensor ``psi`` read as (control value, block index, rest).

    The control axes (most significant bit of j first), then the target axes
    lead; the others keep their order.  ``kernel`` maps that array to a new
    one of the same shape.  The one check that a block's targets lie in the
    register and off the controls.
    """
    m = psi.ndim
    if set(targets) & set(controls):
        raise ConfigurationError("controlled blocks must act on qubits disjoint from controls")
    if any(q >= m for q in targets):
        raise ConfigurationError(f"block targets {targets} exceed register of {m} qubits")
    lead = _target_axes(m, controls) + _target_axes(m, targets)
    order = lead + [a for a in range(m) if a not in lead]
    x = psi.transpose(order).reshape(2 ** len(controls), 2 ** len(targets), -1)
    return kernel(x).reshape([2] * m).transpose(np.argsort(order))


def _on_row(j: int, kernel, x: np.ndarray) -> np.ndarray:
    """``kernel`` applied to row j of x alone; the other rows pass through."""
    return np.concatenate((x[:j], kernel(x[j:j + 1]), x[j + 1:]))


def apply_unitary(state: StateVector, block: Block, counter: OpCounter | None = None) -> StateVector:
    """Apply ``block`` to its target qubits, identity elsewhere: the select with no controls."""
    m = state.num_qubits
    out = _apply(state.amplitudes.reshape([2] * m), (), block.targets, block.kernel)
    if counter is not None:
        counter.record(block.dimension)
    return StateVector(m, out)


def apply_controlled_by_register(
    state: StateVector,
    controls: Sequence[int],
    blocks: Mapping[int, Block],
    counter: OpCounter | None = None,
) -> StateVector:
    """Apply ``blocks[j]`` on the subspace where the control register reads j.

    Realizes the select unitary sum_j U_j (x) |j><j| with controls read
    little-endian (``controls[0]`` is the least-significant bit of j).
    Every control value in ``0..2**t - 1`` must map to a block.  A
    `ReflectionFamily` is applied in one kernel call; any other mapping one
    call per control value.  The counter records one block per control
    value either way.
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

    psi = state.amplitudes.reshape([2] * m)
    if isinstance(blocks, ReflectionFamily):
        psi = _apply(psi, controls, blocks.targets, blocks.kernel)
        dims = [blocks.dimension] * num_values
    else:
        dims = [blocks[j].dimension for j in range(num_values)]
        for j in range(num_values):
            psi = _apply(psi, controls, blocks[j].targets, partial(_on_row, j, blocks[j].kernel))
    if counter is not None:
        for dim in dims:
            counter.record(dim)
    return StateVector(m, psi)


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

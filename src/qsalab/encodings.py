"""Data-dependent state constructions.

Amplitude encodings of token vectors, entangled prefix encodings over the
paired data registers, the step-indexed input superposition, and plain
computational-basis encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ZERO_NORM_TOL
from .errors import ConfigurationError, DegenerateInputError
from .statevector import (
    HADAMARD,
    OpCounter,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    apply_controlled_by_register,
    apply_unitary,
)


@dataclass(frozen=True)
class EncodedToken:
    """A raw d-vector together with its normalized amplitude encoding."""

    raw: np.ndarray
    state: StateVector
    norm: float

    def __post_init__(self):
        raw = np.array(self.raw, dtype=complex).reshape(-1)
        raw.setflags(write=False)
        object.__setattr__(self, "raw", raw)


def amplitude_encode(x, num_qubits: int) -> EncodedToken:
    """Encode a length-2**n vector into the amplitudes of an n-qubit state."""
    vec = np.asarray(x, dtype=complex).reshape(-1)
    if vec.size != 2 ** num_qubits:
        raise ConfigurationError(
            f"vector of dimension {vec.size} does not fit on {num_qubits} qubits"
        )
    nrm = float(np.linalg.norm(vec))
    if nrm <= ZERO_NORM_TOL:
        raise DegenerateInputError("cannot amplitude-encode a zero vector")
    return EncodedToken(vec, StateVector(num_qubits, vec / nrm), nrm)


def unitary_with_first_column(column) -> np.ndarray:
    """Complete a unit vector into a unitary via Gram-Schmidt on the standard basis.

    Only the first column is contractually meaningful; the remaining columns
    are a deterministic orthonormal completion.
    """
    col = np.asarray(column, dtype=complex).reshape(-1)
    dim = col.size
    nrm = np.linalg.norm(col)
    if nrm <= ZERO_NORM_TOL:
        raise DegenerateInputError("first column must be a nonzero vector")
    cols = [col / nrm]
    for k in range(dim):
        if len(cols) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for _ in range(2):  # two passes for numerical orthogonality
            for c in cols:
                v = v - np.vdot(c, v) * c
        vn = np.linalg.norm(v)
        if vn > 1e-9:
            cols.append(v / vn)
    if len(cols) != dim:
        raise ConfigurationError("failed to complete an orthonormal basis")
    return np.column_stack(cols)


def entangled_prefix_encoding(
    tokens: Sequence[EncodedToken], prefix_len: int
) -> tuple[StateVector, float]:
    """Normalized state proportional to sum_{i<=j} |x_i>|x_i> and its raw squared norm.

    The returned weight M_j is the squared norm of the unnormalized sum of
    doubled encodings, i.e. sum_{i,i'<=j} |<x_i|x_i'>|^2.
    """
    if not 1 <= prefix_len <= len(tokens):
        raise ConfigurationError(
            f"prefix length {prefix_len} outside 1..{len(tokens)}"
        )
    n = tokens[0].state.num_qubits
    if any(tok.state.num_qubits != n for tok in tokens):
        raise ConfigurationError("all tokens must use the same qubit count")
    vec = np.zeros(4 ** n, dtype=complex)
    for tok in tokens[:prefix_len]:
        s = tok.state.amplitudes
        vec = vec + np.kron(s, s)  # A in the low bits, B in the high bits
    weight = float(np.vdot(vec, vec).real)
    if weight <= ZERO_NORM_TOL ** 2:
        raise DegenerateInputError("prefix encodings interfere to zero norm")
    return StateVector(2 * n, vec / np.sqrt(weight)), weight


def prepare_input_superposition(
    tokens: Sequence[EncodedToken],
    num_steps: int,
    layout: RegisterLayout,
    counter: OpCounter | None = None,
) -> StateVector:
    """Uniform superposition over steps j, branch j carrying the prefix-j encoding.

    Built the way the circuit does it: Hadamards on register C, then one
    register-controlled block per step whose first column prepares the
    normalized prefix state.
    """
    if num_steps < 2 or num_steps & (num_steps - 1):
        raise ConfigurationError("number of steps must be a power of two, at least 2")
    if num_steps != layout.num_steps:
        raise ConfigurationError(
            f"layout indexes {layout.num_steps} steps, got {num_steps}"
        )
    if len(tokens) < num_steps:
        raise ConfigurationError("need at least one token per step")
    if tokens[0].state.num_qubits != layout.n:
        raise ConfigurationError("token qubit count does not match register A")

    state = StateVector.zero(layout.num_qubits)
    for q in layout.c_qubits:
        state = apply_unitary(state, UnitaryBlock(HADAMARD, (q,)), counter)
    targets = layout.a_qubits + layout.b_qubits
    blocks = {}
    for j in range(1, num_steps + 1):
        prefix_state, _ = entangled_prefix_encoding(tokens, j)
        blocks[j - 1] = UnitaryBlock(
            unitary_with_first_column(prefix_state.amplitudes), targets
        )
    return apply_controlled_by_register(state, layout.c_qubits, blocks, counter)


def basis_encode(word_index: int, num_qubits: int) -> StateVector:
    """The computational basis state |word_index> on ``num_qubits`` qubits."""
    if not 0 <= word_index < 2 ** num_qubits:
        raise ConfigurationError(
            f"index {word_index} outside 0..{2 ** num_qubits - 1}"
        )
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[word_index] = 1.0
    return StateVector(num_qubits, amps)

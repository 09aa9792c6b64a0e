"""Sequence data: embeddings and the two generators.

Classical sequences come from seeded sparse Markov chains over a one-hot
vocabulary; quantum sequences are transverse-field Ising trajectories
evolved by exact diagonalization.  Datasets round-trip bit-exactly through
JSON Lines files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

ZERO_NORM_TOL = 1e-12


def check_seed(seed) -> None:
    """Reject a negative integer seed, which numpy's generators refuse with a bare ValueError."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")


def _finite_numbers(values: list) -> bool:
    """Every value a JSON number, not a bool, and finite as a float."""
    try:
        return {int, float}.issuperset(map(type, values)) and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def _typed(value, annotation) -> bool:
    """Whether scalar ``value`` fits ``annotation`` (bool, int, float or str,
    or one of them ``| None``): a bool is not a number, an int fits a float,
    a float must be finite, and a numpy number counts as its Python number."""
    options = getattr(annotation, "__args__", (annotation,))  # int | None has (int, NoneType)
    value = value.item() if isinstance(value, (np.integer, np.floating)) else value
    if float in options and type(value) in (int, float):
        return _finite_numbers([value])
    return type(value) in options


def sinusoidal_shifts(num_positions: int, dim: int, base: float = 100.0) -> np.ndarray:
    """Fixed positional shift vectors: alternating sin/cos of geometric frequencies."""
    positions = np.arange(1, num_positions + 1, dtype=float)[:, None]
    shifts = np.zeros((num_positions, dim))
    half = (dim + 1) // 2
    freqs = base ** (-2.0 * np.arange(half) / dim)
    angles = positions * freqs[None, :]
    shifts[:, 0::2] = np.sin(angles)[:, : shifts[:, 0::2].shape[1]]
    shifts[:, 1::2] = np.cos(angles)[:, : shifts[:, 1::2].shape[1]]
    return shifts


@dataclass(frozen=True)
class EmbeddingMap:
    """Linear embedding plus scaled positional shifts.

    ``matrix`` is d x D (real for classical data, complex for amplitude
    data); ``shifts`` holds one d-vector per position; ``gamma`` scales the
    shifts and is not trained.
    """

    matrix: np.ndarray
    shifts: np.ndarray
    gamma: float

    def __post_init__(self):
        mat = np.array(self.matrix)
        shifts = np.array(self.shifts, dtype=float)
        if mat.ndim != 2 or mat.shape[0] >= mat.shape[1]:
            raise ConfigurationError("embedding must map a larger vocabulary to a smaller d")
        if shifts.ndim != 2 or shifts.shape[1] != mat.shape[0]:
            raise ConfigurationError("shifts must be rows of dimension d")
        mat.setflags(write=False)
        shifts.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "shifts", shifts)

    @property
    def embed_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def vocab_dim(self) -> int:
        return self.matrix.shape[1]

    def with_matrix(self, matrix: np.ndarray) -> "EmbeddingMap":
        return EmbeddingMap(matrix, self.shifts, self.gamma)


def make_embedding(
    vocab_dim: int,
    embed_dim: int,
    num_positions: int,
    seed,
    complex_valued: bool = False,
    gamma: float = 0.1,
) -> EmbeddingMap:
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(embed_dim, vocab_dim)) / np.sqrt(embed_dim)
    if complex_valued:
        mat = (mat + 1j * rng.normal(size=(embed_dim, vocab_dim)) / np.sqrt(embed_dim)) / np.sqrt(2.0)
    if np.any(np.linalg.norm(mat, axis=0) <= ZERO_NORM_TOL):
        raise ConfigurationError("generated embedding has a zero column")
    return EmbeddingMap(mat, sinusoidal_shifts(num_positions, embed_dim), gamma)


def _as_input_rows(record, vocab_dim: int) -> np.ndarray:
    arr = np.asarray(record)
    if arr.ndim == 1 and not np.iscomplexobj(arr):
        rows = np.zeros((arr.size, vocab_dim))
        rows[np.arange(arr.size), arr.astype(int)] = 1.0
        return rows
    if arr.ndim == 2 and arr.shape[1] == vocab_dim:
        return arr.astype(complex)
    raise ConfigurationError("record must be word indices or (T+1, D) amplitude rows")


def embed_sequence(record, emap: EmbeddingMap) -> tuple[np.ndarray, np.ndarray]:
    """Tokens x_i = E w_i + gamma c_i and their shift-free versions.

    Returns (x, x_shift_free), each of shape (T+1, d); attention inputs use
    x and prediction targets use the shift-free rows.
    """
    x, shift_free = embed_batch(_as_input_rows(record, emap.vocab_dim)[None], emap)
    return x[0], shift_free[0]


def embed_batch(inputs: np.ndarray, emap: EmbeddingMap) -> tuple[np.ndarray, np.ndarray]:
    """Batched embedding of (S, T+1, D) input rows; see embed_sequence."""
    inputs = np.asarray(inputs)
    shift_free = rows_matmul(inputs, emap.matrix.T)
    if emap.shifts.shape[0] < inputs.shape[1]:
        raise ConfigurationError("embedding has fewer positional shifts than sequence steps")
    x = shift_free + emap.gamma * emap.shifts[None, : inputs.shape[1]]
    if np.any(np.linalg.norm(shift_free, axis=-1) <= ZERO_NORM_TOL) or np.any(
        np.linalg.norm(x, axis=-1) <= ZERO_NORM_TOL
    ):
        raise DegenerateInputError("a token embeds to the zero vector")
    return x, shift_free


def rows_matmul(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for (..., k) rows and one shared (k, n) matrix as one 2-D GEMM, with the
    stacked product's bits; numpy runs one-row stacks and one-column matrices as
    matrix-vector products, whose bits follow the row count, so those stay stacked."""
    if x.shape[-2] == 1 or m.shape[-1] == 1:
        return x @ m
    return (x.reshape(-1, m.shape[0]) @ m).reshape(x.shape[:-1] + (m.shape[-1],))


def linear_map_gradient(g_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of a map M applied to rows, y = x @ M.T, summed over all rows.

    Gradients of complex quantities follow dL = Re sum conj(g) dz, so that
    g = dL/dRe + i dL/dIm; this one is sum_rows g_out (x) conj(x).
    """
    return g_out.reshape(-1, g_out.shape[-1]).T @ x.reshape(-1, x.shape[-1]).conj()


def unit_rows_backward(unit: np.ndarray, norms: np.ndarray, g_unit: np.ndarray) -> np.ndarray:
    """Gradient with respect to rows u from that of unit = u / ||u||."""
    radial = np.einsum("...d,...d->...", g_unit.conj(), unit).real
    return (g_unit - radial[..., None] * unit) / norms[..., None]


def _site_operator(op: np.ndarray, site: int, num_qubits: int) -> np.ndarray:
    return np.kron(
        np.kron(np.eye(2 ** (num_qubits - 1 - site)), op), np.eye(2 ** site)
    )


@dataclass(frozen=True)
class IsingModel:
    """Transverse-field Ising Hamiltonian: sum_i X_i + sum_{i<j} J_ij Z_i Z_j."""

    num_qubits: int
    couplings: np.ndarray
    hamiltonian: np.ndarray

    def __post_init__(self):
        j = np.array(self.couplings, dtype=float)
        h = np.array(self.hamiltonian, dtype=complex)
        q = self.num_qubits
        if j.shape != (q, q) or not np.allclose(j, j.T) or np.any(np.diag(j) != 0):
            raise ConfigurationError("couplings must be symmetric with zero diagonal")
        if np.any(j < 0) or np.any(j > 1):
            raise ConfigurationError("couplings must lie in [0, 1]")
        if h.shape != (2 ** q, 2 ** q) or np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ConfigurationError("hamiltonian must be Hermitian of dimension 2**q")
        j.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "hamiltonian", h)

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits


def build_ising(num_qubits: int, seed) -> IsingModel:
    """Random-coupling Ising model, densely diagonalizable at desk scale."""
    if not 1 <= num_qubits <= 10:
        raise ConfigurationError("num_qubits must lie in 1..10 for dense diagonalization")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    couplings = np.zeros((num_qubits, num_qubits))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    ham = np.zeros((2 ** num_qubits, 2 ** num_qubits), dtype=complex)
    for i in range(num_qubits):
        ham += _site_operator(x, i, num_qubits)
    for i in range(num_qubits):
        for j in range(i + 1, num_qubits):
            couplings[i, j] = couplings[j, i] = rng.uniform(0.0, 1.0)
            ham += couplings[i, j] * (
                _site_operator(z, i, num_qubits) @ _site_operator(z, j, num_qubits)
            )
    return IsingModel(num_qubits, couplings, ham)


@dataclass
class SequenceDataset:
    """Uniform-length records: word-index lists or per-step amplitude rows."""

    kind: str
    vocab_dim: int
    num_steps: int
    seed: int
    records: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("classical", "quantum"):
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        for name in ("vocab_dim", "num_steps", "seed"):
            if not _typed(getattr(self, name), int):
                raise ConfigurationError(f"dataset {name} must be an integer, got {getattr(self, name)!r}")
            setattr(self, name, int(getattr(self, name)))  # a numpy integer would not serialize
        if self.num_steps < 1:
            raise ConfigurationError(f"dataset T must be at least 1, got {self.num_steps}")
        length = self.num_steps + 1
        if self.kind == "classical":
            # int(w) would pass 1.5, True and "3" as 1, 1 and 3
            bad = {type(w).__name__ for rec in self.records for w in rec
                   if type(w) is not int and not isinstance(w, np.integer)}
            if bad:
                raise ConfigurationError(f"classical words must be integer indices, got {', '.join(sorted(bad))}")
            records = [[int(w) for w in rec] for rec in self.records]
            if any(len(rec) != length for rec in records):
                raise ConfigurationError("all records must have length T+1")
            if any(not 0 <= w < self.vocab_dim for rec in records for w in rec):
                raise ConfigurationError("word index outside the vocabulary")
        else:
            arrays = [np.asarray(rec) for rec in self.records]
            bad = {a.dtype.name for a in arrays if a.dtype.kind not in "iufc"}
            if bad:
                raise ConfigurationError(f"quantum amplitudes must be numbers, got {', '.join(sorted(bad))}")
            if any(a.shape != (length, self.vocab_dim) for a in arrays):
                raise ConfigurationError("quantum records must be (T+1, D) amplitude rows")
            records = []
            if arrays:
                # one vectorized check over all records
                stacked = np.array(arrays, dtype=complex)
                if not np.all(np.isfinite(stacked)):
                    raise ConfigurationError("quantum amplitudes must be finite numbers")
                if not np.all(np.abs(np.linalg.norm(stacked, axis=-1) - 1.0) <= 1e-10):
                    raise ConfigurationError("quantum record steps must have unit norm")
                stacked.setflags(write=False)
                records = list(stacked)
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def input_rows(self) -> np.ndarray:
        """(S, T+1, D) stacked one-hot rows or amplitude rows."""
        if self.kind == "classical":
            words = np.array(self.records, dtype=int)
            rows = np.zeros((*words.shape, self.vocab_dim))
            s, t = np.indices(words.shape)
            rows[s, t, words] = 1.0
            return rows
        return np.stack(self.records)


def generate_classical_dataset(
    vocab_dim: int, num_steps: int, count: int, seed: int, order: int = 2
) -> SequenceDataset:
    """Sequences from a seeded sparse row-stochastic Markov chain.

    Each transition row has ``order`` nonzero entries with normalized
    uniform weights; the initial word is uniform.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    if vocab_dim < 2:
        raise ConfigurationError("vocabulary needs at least two words")
    if not 1 <= order <= vocab_dim:
        raise ConfigurationError("order must lie in 1..vocab_dim")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    transition = np.zeros((vocab_dim, vocab_dim))
    for row in range(vocab_dim):
        support = rng.choice(vocab_dim, size=order, replace=False)
        weights = rng.random(order)
        transition[row, support] = weights / weights.sum()
    records = []
    for _ in range(count):
        word = int(rng.integers(vocab_dim))
        seq = [word]
        for _ in range(num_steps):
            word = int(rng.choice(vocab_dim, p=transition[word]))
            seq.append(word)
        records.append(seq)
    metadata = {"generator": {"type": "markov", "order": order, "transition": transition.tolist()}}
    return SequenceDataset("classical", vocab_dim, num_steps, seed, records, metadata)


def generate_quantum_dataset(
    model: IsingModel, num_steps: int, count: int, seed: int
) -> SequenceDataset:
    """Haar-random initial states evolved for unit time steps by eigendecomposition."""
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eigh(model.hamiltonian)
    records = []
    for _ in range(count):
        psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        psi = psi / np.linalg.norm(psi)
        coords = evecs.conj().T @ psi
        steps = [evecs @ (np.exp(-1j * evals * time) * coords) for time in range(num_steps + 1)]
        records.append(np.stack(steps))
    metadata = {
        "generator": {
            "type": "ising",
            "num_qubits": model.num_qubits,
            "couplings": model.couplings.tolist(),
        }
    }
    return SequenceDataset("quantum", model.dim, num_steps, seed, records, metadata)


def dumps_dataset(dataset: SequenceDataset) -> str:
    """JSON Lines text: a header line followed by one record per line."""
    header = {
        "kind": dataset.kind,
        "D": dataset.vocab_dim,
        "T": dataset.num_steps,
        "seed": dataset.seed,
        "generator": dataset.metadata.get("generator", {}),
    }
    lines = [json.dumps(header)]
    for i, rec in enumerate(dataset.records):
        if dataset.kind == "classical":
            lines.append(json.dumps({"id": i, "words": rec}))
        else:
            steps = [[[float(a.real), float(a.imag)] for a in row] for row in rec]
            lines.append(json.dumps({"id": i, "steps": steps}))
    return "\n".join(lines) + "\n"


def _amplitude_rows(steps) -> np.ndarray:
    """(T+1, D) complex rows from a record's JSON ``[re, im]`` pairs, each
    part a finite JSON number: ``true``/``false``, ``null``, strings, NaN
    and infinities are rejected."""
    pairs = list(chain.from_iterable(steps))
    if len(set(map(len, steps))) != 1 or set(map(len, pairs)) != {2}:
        raise ConfigurationError("quantum records must be (T+1, D) amplitude rows")
    parts = list(chain.from_iterable(pairs))
    if not _finite_numbers(parts):
        bad = next(part for part in parts if not _finite_numbers([part]))
        raise ConfigurationError(f"quantum amplitudes must be finite numbers, got {json.dumps(bad)}")
    return np.array(parts, dtype=float).view(complex).reshape(len(steps), -1)


def loads_dataset(text: str) -> SequenceDataset:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigurationError("dataset file is empty")
    try:
        header = json.loads(lines[0])
        kind = header["kind"]
        records = []
        for line in lines[1:]:
            obj = json.loads(line)
            if kind == "classical":
                records.append(obj["words"])
            else:
                records.append(_amplitude_rows(obj["steps"]))
        metadata = {"generator": header.get("generator", {})}
        return SequenceDataset(kind, header["D"], header["T"], header["seed"], records, metadata)
    except ConfigurationError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigurationError(f"malformed dataset: {type(exc).__name__}: {exc}") from exc


def atomic_write_text(path, text: str) -> None:
    """Write a temp file beside ``path``, then rename it over ``path``; a failure removes the temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)


def read_utf8(path, error=ConfigurationError) -> str:
    """The text of file ``path``; bytes that are not UTF-8 are an ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def csv_text(columns, rows) -> str:
    """A header line of ``columns``, then one line per row of cells: floats
    as ``repr(float)``, every other cell as ``str``."""
    lines = [",".join(columns)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def save_dataset(dataset: SequenceDataset, path) -> None:
    atomic_write_text(path, dumps_dataset(dataset))


def load_dataset(path) -> SequenceDataset:
    return loads_dataset(read_utf8(path))

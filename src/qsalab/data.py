"""Sequence data: embeddings and the two generators.

Classical sequences come from seeded sparse Markov chains over a one-hot
vocabulary; quantum sequences are transverse-field Ising trajectories
evolved by exact diagonalization.  Datasets round-trip bit-exactly through
JSON Lines files.
"""

from __future__ import annotations

import functools
import json
import math
import os
import typing
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

ZERO_NORM_TOL = 1e-12
INT64_MAX = np.iinfo(np.int64).max  # numpy sizes arrays and draws shot counts as int64
MAX_ISING_QUBITS = 10  # the qubit counts that dense diagonalization reaches


def check_seed(seed) -> None:
    """Reject a seed that is not an int (a bool, a float, a str), which numpy's
    generators refuse with a bare TypeError or read True as 1, or that is
    negative, a bare ValueError there.  A SeedSequence or a Generator passes."""
    if isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        return
    if fault := _type_fault(seed, int):
        raise ConfigurationError(f"seed must be {fault}, got {seed!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")


def seeded_rng(seed) -> np.random.Generator:
    """The generator of ``seed`` once it passes `check_seed`: the one start of every seeded draw."""
    check_seed(seed)
    return np.random.default_rng(seed)


def check_int_range(value, last: int, name: str) -> int:
    """The one rule for a count, a size or an index: an int, not a bool, in
    1..last, returned as a Python int.  A float or a bool would pass the range
    and then slice or size an array, or be read as 1."""
    if _type_fault(value, int) or not 1 <= value <= last:
        raise ConfigurationError(f"{name} must be an integer in 1..{last}, got {value!r}")
    return int(value)


def real_array(values, name: str) -> np.ndarray:
    """A float copy of ``values``, the one rule for a real, finite array field; a complex array, whose
    imaginary parts a cast would drop, or an entry that is not finite is a ConfigurationError."""
    if np.iscomplexobj(values):
        raise ConfigurationError(f"{name} must be real, got a complex array")
    array = np.array(values, dtype=float)
    if not np.isfinite(array).all():
        raise ConfigurationError(f"{name} must be finite")
    return array


def freeze(owner, **arrays) -> None:
    """Store each array read-only as the field of ``owner`` by its name: the one
    way a dataclass, frozen or not, sets an array field."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(owner, name, array)


def check_dataset_kind(kind) -> DataKind:
    """The table entry of dataset kind ``kind``; an unknown kind is a ConfigurationError."""
    if kind not in DATASET_KINDS:  # a tuple, so that an unhashable kind is unknown too
        raise ConfigurationError(f"unknown dataset kind {kind!r}")
    return DATA_KINDS[kind]


def _finite_numbers(values: list) -> bool:
    """Every value a JSON number, not a bool, and finite as a float."""
    try:
        return {int, float}.issuperset(map(type, values)) and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def _type_fault(value, annotation) -> str:
    """Why scalar ``value`` does not fit ``annotation`` (bool, int, float or str, or one of them
    ``| None``), "of type T" or "finite", or "" if it fits: a bool is not a number, an int fits
    a float, a float must be finite, and a numpy number counts as its Python number."""
    options = getattr(annotation, "__args__", (annotation,))  # int | None has (int, NoneType)
    value = value.item() if isinstance(value, (np.integer, np.floating)) else value
    if float in options and type(value) in (int, float):
        return "" if _finite_numbers([value]) else "finite"
    return "" if type(value) in options else f"of type {getattr(annotation, '__name__', annotation)}"


@functools.cache
def field_types(cls) -> dict:
    """The resolved annotation of each field of dataclass ``cls``, in field order."""
    return typing.get_type_hints(cls)


@functools.cache
def _scalar_fields(cls) -> tuple:
    """(name, annotation) of each field of ``cls`` annotated bool, int, float or str, or one of them | None."""
    scalars = {bool, int, float, str, type(None)}
    return tuple((name, annotation) for name, annotation in field_types(cls).items()
                 if scalars.issuperset(getattr(annotation, "__args__", (annotation,))))


def check_scalars(owner) -> None:
    """Each scalar field of ``owner`` fits its annotation by `_type_fault`, else a
    ConfigurationError "<name> must be <fault>, got <value!r>"; a numpy number
    is stored as its Python number, which JSON writes."""
    for name, annotation in _scalar_fields(type(owner)):
        if fault := _type_fault(value := getattr(owner, name), annotation):
            raise ConfigurationError(f"{name} must be {fault}, got {value!r}")
        if isinstance(value, np.generic):
            object.__setattr__(owner, name, value.item())


def sinusoidal_shifts(num_positions: int, dim: int) -> np.ndarray:
    """Fixed positional shift vectors: alternating sin/cos of geometric frequencies, base 100."""
    positions = np.arange(1, num_positions + 1, dtype=float)[:, None]
    shifts = np.zeros((num_positions, dim))
    half = (dim + 1) // 2
    freqs = 100.0 ** (-2.0 * np.arange(half) / dim)
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
        check_scalars(self)
        mat = np.array(self.matrix)
        shifts = real_array(self.shifts, "shifts")
        if mat.ndim != 2 or mat.shape[0] >= mat.shape[1]:
            raise ConfigurationError("embedding must map a larger vocabulary to a smaller d")
        if shifts.ndim != 2 or shifts.shape[1] != mat.shape[0]:
            raise ConfigurationError("shifts must be rows of dimension d")
        freeze(self, matrix=mat, shifts=shifts)

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
    rng = seeded_rng(seed)
    mat = rng.normal(size=(embed_dim, vocab_dim)) / np.sqrt(embed_dim)
    if complex_valued:
        mat = (mat + 1j * rng.normal(size=(embed_dim, vocab_dim)) / np.sqrt(embed_dim)) / np.sqrt(2.0)
    if np.any(np.linalg.norm(mat, axis=0) <= ZERO_NORM_TOL):
        raise ConfigurationError("generated embedding has a zero column")
    return EmbeddingMap(mat, sinusoidal_shifts(num_positions, embed_dim), gamma)


def _word_records(records, vocab_dim: int, length: int) -> np.ndarray:
    """``records`` as an (S, T+1) int64 array of word indices, after a classical record's three checks in order."""
    if isinstance(records, np.ndarray):  # as Python numbers, which the checks read fastest
        records = records.tolist()
    # int(w) would pass 1.5, True and "3" as 1, 1 and 3
    bad = {kind.__name__ for kind in set(map(type, chain.from_iterable(records)))
           if kind is not int and not issubclass(kind, np.integer)}
    if bad:
        raise ConfigurationError(f"classical words must be integer indices, got {', '.join(sorted(bad))}")
    if set(map(len, records)) - {length}:
        raise ConfigurationError("all records must have length T+1")
    words = list(chain.from_iterable(records))  # checked as given, so an index beyond int64 cannot wrap
    if words and (min(words) < 0 or max(words) >= vocab_dim):
        raise ConfigurationError("word index outside the vocabulary")
    return np.array(records, dtype=np.int64).reshape(len(records), length)


def _one_hot(words, vocab_dim: int) -> np.ndarray:
    """(..., D) one-hot rows of an array of checked word indices."""
    words = np.asarray(words, dtype=int)
    rows = np.zeros((words.size, vocab_dim))
    rows[np.arange(words.size), words.ravel()] = 1.0
    return rows.reshape(*words.shape, vocab_dim)


_NON_FINITE_AMPLITUDE = "quantum amplitudes must be finite numbers, got"


class _Spelling(str):
    """A JSON number as the file spells it, kept in place of a value that is not finite."""


def _spelled_non_finite(record_lines, field: str) -> str:
    """The first amplitude in ``record_lines`` whose value is not finite, as
    spelled there: ``1e400`` parses as infinity, and is named ``1e400``."""
    def parse_float(text):
        value = float(text)
        return value if math.isfinite(value) else _Spelling(text)

    records = (json.loads(line, parse_float=parse_float, parse_constant=_Spelling)[field] for line in record_lines)
    parts = chain.from_iterable(chain.from_iterable(chain.from_iterable(records)))  # records, steps, [re, im] pairs
    return next(part for part in parts if isinstance(part, _Spelling))


def _amplitude_records(records, vocab_dim: int, length: int) -> np.ndarray:
    """``records`` as an (S, T+1, D) complex128 array, after a quantum record's
    three checks in order: numbers (a bool is not one), (T+1, D) rows, and every
    part finite, the first that is not named as JSON spells it."""
    # each record's own dtype: stacked first, a bool record would pass as floats
    arrays = [np.asarray(rec) for rec in records]
    bad = {a.dtype.name for a in arrays if a.dtype.kind not in "iufc"}
    if bad:
        raise ConfigurationError(f"quantum amplitudes must be numbers, got {', '.join(sorted(bad))}")
    if any(a.shape != (length, vocab_dim) for a in arrays):
        raise ConfigurationError("quantum records must be (T+1, D) amplitude rows")
    rows = np.array(arrays, dtype=complex).reshape(len(arrays), length, vocab_dim)
    bad = rows.view(float)[~np.isfinite(rows.view(float))]  # real and imaginary parts that are not finite
    if bad.size:
        raise ConfigurationError(f"{_NON_FINITE_AMPLITUDE} {json.dumps(bad[0].item())}")
    return rows


def _amplitude_rows(steps) -> np.ndarray:
    """(T+1, D) complex rows from a record's JSON ``[re, im]`` pairs, each part
    a JSON number: ``true``/``false``, ``null`` and strings are rejected here,
    NaN and infinities by the quantum record rule."""
    pairs = list(chain.from_iterable(steps))
    if len(set(map(len, steps))) != 1 or set(map(len, pairs)) != {2}:
        raise ConfigurationError("quantum records must be (T+1, D) amplitude rows")
    parts = list(chain.from_iterable(pairs))
    if not {int, float}.issuperset(map(type, parts)):
        bad = next(part for part in parts if type(part) not in (int, float))
        raise ConfigurationError(f"{_NON_FINITE_AMPLITUDE} {json.dumps(bad)}")
    return np.array(parts, dtype=float).view(complex).reshape(len(steps), -1)


class DataKind(NamedTuple):
    """One data kind, as its ``DATA_KINDS`` entry declares it."""

    field: str  # the JSON key of a record
    complex_valued: bool  # whether its rows, and so the embedding, are complex
    rank: int  # a record's array rank
    unit_steps: bool  # whether each step of a dataset record must be a unit vector
    rule: Callable  # (records, D, T+1) -> their checked array; a single record meets it too
    to_json: Callable  # that array -> the records' JSON values
    from_json: Callable  # one record's JSON value -> the record as ``rule`` takes it
    rows: Callable  # (that array, D) -> (S, T+1, D) model input rows


DATA_KINDS = {
    "classical": DataKind("words", False, 1, False, _word_records, np.ndarray.tolist, lambda words: words, _one_hot),
    "quantum": DataKind("steps", True, 2, True, _amplitude_records,
                        lambda rows: rows.view(float).reshape(rows.shape + (2,)).tolist(),  # [re, im] pairs
                        _amplitude_rows, lambda rows, vocab_dim: rows),
}
DATASET_KINDS = tuple(DATA_KINDS)


def _as_input_rows(record, vocab_dim: int) -> np.ndarray:
    """One record's (T+1, D) input rows, checked by the rule of the kind whose records have its rank."""
    for kind in DATA_KINDS.values():
        if kind.rank == np.ndim(record):
            return kind.rows(kind.rule([record], vocab_dim, len(record)), vocab_dim)[0]
    raise ConfigurationError("record must be word indices or (T+1, D) amplitude rows")


def embed_sequence(record, emap: EmbeddingMap) -> tuple[np.ndarray, np.ndarray]:
    """Tokens x_i = E w_i + gamma c_i and their shift-free versions.

    Returns (x, x_shift_free), each of shape (T+1, d); attention inputs use
    x and prediction targets use the shift-free rows.
    """
    x, shift_free, _, _ = embed_batch(_as_input_rows(record, emap.vocab_dim)[None], emap)
    return x[0], shift_free[0]


def embed_batch(inputs: np.ndarray, emap: EmbeddingMap) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched embedding of (S, T+1, D) input rows, see embed_sequence, and the
    (S, T+1) norms of x and of shift_free, which its zero check takes."""
    inputs = np.asarray(inputs)
    shift_free = rows_matmul(inputs, emap.matrix.T)
    if emap.shifts.shape[0] < inputs.shape[1]:
        raise ConfigurationError("embedding has fewer positional shifts than sequence steps")
    x = shift_free + emap.gamma * emap.shifts[None, : inputs.shape[1]]
    x_norms, shift_free_norms = np.linalg.norm(x, axis=-1), np.linalg.norm(shift_free, axis=-1)
    if np.any(shift_free_norms <= ZERO_NORM_TOL) or np.any(x_norms <= ZERO_NORM_TOL):
        raise DegenerateInputError("a token embeds to the zero vector")
    return x, shift_free, x_norms, shift_free_norms


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


@dataclass(frozen=True)
class IsingModel:
    """Transverse-field Ising model sum_i X_i + sum_{i<j} J_ij Z_i Z_j given by its couplings
    J alone: ``hamiltonian`` is read off them, with qubit i as bit i of the basis index."""

    num_qubits: int
    couplings: np.ndarray
    hamiltonian: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q = check_int_range(self.num_qubits, MAX_ISING_QUBITS, "num_qubits")
        couplings = np.array(self.couplings, dtype=float)
        if not np.all((couplings >= 0) & (couplings <= 1)):  # NaN fails both
            raise ConfigurationError("couplings must lie in [0, 1]")
        # exactly symmetric: only the upper triangle is read
        if couplings.shape != (q, q) or not np.array_equal(couplings, couplings.T) or np.any(np.diag(couplings)):
            raise ConfigurationError(f"couplings must be a symmetric ({q}, {q}) array with zero diagonal")
        k = np.arange(2 ** q)
        spins = 1 - 2 * ((k[:, None] >> np.arange(q)) & 1)  # s_i(k) = 1 - 2 bit_i(k)
        diagonal = np.zeros(2 ** q)
        for i, j in zip(*np.triu_indices(q, 1)):  # in (i, j) order: the additions of a sum of J_ij Z_i Z_j
            diagonal += couplings[i, j] * (spins[:, i] * spins[:, j])
        hamiltonian = np.zeros((2 ** q, 2 ** q), dtype=complex)
        hamiltonian[k, k] = diagonal
        hamiltonian[k[:, None], k[:, None] ^ (1 << np.arange(q))] = 1.0  # X_i flips bit i
        object.__setattr__(self, "num_qubits", q)
        freeze(self, couplings=couplings, hamiltonian=hamiltonian)

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits


def build_ising(num_qubits: int, seed) -> IsingModel:
    """Ising model with each coupling J_ij, i < j, drawn uniform in [0, 1), row by row."""
    q = check_int_range(num_qubits, MAX_ISING_QUBITS, "num_qubits")  # before a (q, q) draw is sized by it
    rng = seeded_rng(seed)
    couplings = np.zeros((q, q))
    for i, j in zip(*np.triu_indices(q, 1)):
        couplings[i, j] = couplings[j, i] = rng.uniform(0.0, 1.0)
    return IsingModel(q, couplings)


@dataclass(eq=False)
class SequenceDataset:
    """Uniform-length records, at least one, as one read-only array, stacked
    once: (S, T+1) int64 word indices or (S, T+1, D) complex128 amplitude rows.
    ``source`` is the file ``load_dataset`` read it from, else None.  Datasets
    compare by identity; compare ``records`` with ``np.array_equal``."""

    kind: str
    vocab_dim: int
    num_steps: int
    seed: int
    records: np.ndarray
    metadata: dict = field(default_factory=dict)
    source: str | None = field(default=None, init=False)

    def __post_init__(self):
        kind = check_dataset_kind(self.kind)
        self.vocab_dim = check_int_range(self.vocab_dim, INT64_MAX, "dataset vocab_dim")
        self.num_steps = check_int_range(self.num_steps, INT64_MAX, "dataset T")
        check_seed(self.seed)
        check_scalars(self)  # a seed that is a Generator is no int, and a numpy one is stored as an int
        records = kind.rule(self.records, self.vocab_dim, self.num_steps + 1)
        if not len(records):
            raise ConfigurationError("dataset holds no records")
        if kind.unit_steps and not np.all(np.abs(np.linalg.norm(records, axis=-1) - 1.0) <= 1e-10):
            raise ConfigurationError(f"{self.kind} record steps must have unit norm")
        freeze(self, records=records)

    def __len__(self) -> int:
        return len(self.records)

    def input_rows(self) -> np.ndarray:
        """(S, T+1, D) input rows: the words one-hot, or the amplitude array itself."""
        return DATA_KINDS[self.kind].rows(self.records, self.vocab_dim)


def generate_classical_dataset(
    vocab_dim: int, num_steps: int, count: int, seed: int, order: int = 2
) -> SequenceDataset:
    """Sequences from a seeded sparse row-stochastic Markov chain.

    Each transition row has ``order`` nonzero entries with normalized
    uniform weights; the initial word is uniform.  Each step draws one
    uniform and bisects the current row's cumulative bounds over its
    support: the draws and words of ``Generator.choice(vocab_dim, p=row)``
    per step, without its per-call argument checks.
    """
    check_int_range(count, INT64_MAX, "count")
    check_int_range(num_steps, INT64_MAX, "dataset T")
    if check_int_range(vocab_dim, INT64_MAX, "vocab_dim") < 2:
        raise ConfigurationError("vocabulary needs at least two words")
    check_int_range(order, vocab_dim, "order")
    rng = seeded_rng(seed)
    try:
        transition = np.zeros((vocab_dim, vocab_dim))
    except (ValueError, MemoryError):
        raise ConfigurationError(f"a {vocab_dim}-word transition matrix is too large to allocate") from None
    for row in range(vocab_dim):
        support = rng.choice(vocab_dim, size=order, replace=False)
        weights = rng.random(order)
        transition[row, support] = weights / weights.sum()
    # choice's bounds are the row's cumsum over its last entry; its zeros add
    # nothing, so the cumsum over the support gives the same floats, and
    # bisect_right is choice's searchsorted(side="right")
    supports, bounds = [], []
    for row in transition:
        support = np.flatnonzero(row)
        cdf = np.cumsum(row[support])
        supports.append(support.tolist())
        bounds.append((cdf / cdf[-1]).tolist())
    shape = (count, num_steps + 1)
    try:
        records = np.empty(shape, dtype=np.int64)
    except (ValueError, MemoryError):
        raise ConfigurationError(f"a {shape} word array is too large to allocate") from None
    words = []
    for _ in range(count):
        word = int(rng.integers(vocab_dim))
        words.append(word)
        for u in rng.random(num_steps).tolist():
            word = supports[word][bisect_right(bounds[word], u)]
            words.append(word)
    records.ravel()[:] = words
    metadata = {"generator": {"type": "markov", "order": order, "transition": transition.tolist()}}
    return SequenceDataset("classical", vocab_dim, num_steps, seed, records, metadata)


def generate_quantum_dataset(
    model: IsingModel, num_steps: int, count: int, seed: int
) -> SequenceDataset:
    """Haar-random initial states evolved for unit time steps by eigendecomposition."""
    check_int_range(count, INT64_MAX, "count")
    check_int_range(num_steps, INT64_MAX, "dataset T")
    rng = seeded_rng(seed)
    evals, evecs = np.linalg.eigh(model.hamiltonian)
    shape = (count, num_steps + 1, model.dim)
    try:
        records = np.empty(shape, dtype=complex)
    except (ValueError, MemoryError):
        raise ConfigurationError(f"a {shape} amplitude array is too large to allocate") from None
    for record in records:
        psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        psi = psi / np.linalg.norm(psi)
        coords = evecs.conj().T @ psi
        record[:] = [evecs @ (np.exp(-1j * evals * time) * coords) for time in range(num_steps + 1)]
    metadata = {"generator": {"type": "ising", "num_qubits": model.num_qubits, "couplings": model.couplings.tolist()}}
    return SequenceDataset("quantum", model.dim, num_steps, seed, records, metadata)


def dumps_dataset(dataset: SequenceDataset) -> str:
    """JSON Lines text: a header line followed by one record per line."""
    header = {"kind": dataset.kind, "D": dataset.vocab_dim, "T": dataset.num_steps, "seed": dataset.seed,
              "generator": dataset.metadata.get("generator", {})}
    kind = DATA_KINDS[dataset.kind]
    lines = [json.dumps(header)] + [json.dumps({"id": i, kind.field: rec})
                                    for i, rec in enumerate(kind.to_json(dataset.records))]
    return "\n".join(lines) + "\n"


def loads_dataset(text: str) -> SequenceDataset:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigurationError("dataset file is empty")
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ConfigurationError(f"dataset header must be a JSON object, got {type(header).__name__}")
        kind = check_dataset_kind(header["kind"])  # before a record is parsed as that kind
        records = [kind.from_json(obj[kind.field]) for obj in map(json.loads, lines[1:])]
        metadata = {"generator": header.get("generator", {})}
        return SequenceDataset(header["kind"], header["D"], header["T"], header["seed"], records, metadata)
    except ConfigurationError as exc:
        if str(exc) in (f"{_NON_FINITE_AMPLITUDE} Infinity", f"{_NON_FINITE_AMPLITUDE} -Infinity"):
            # an infinity may be spelled as a finite-looking literal that overflows
            raise ConfigurationError(f"{_NON_FINITE_AMPLITUDE} {_spelled_non_finite(lines[1:], kind.field)}") from exc
        raise
    # JSONDecodeError is a ValueError; json raises RecursionError on a line nested too deeply
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise ConfigurationError(f"malformed dataset: {type(exc).__name__}: {exc}") from exc


def atomic_write_text(path, text: str) -> None:
    """Write ``path.tmp``, then rename it over ``path``; a failure removes the temp file and names ``path``."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
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
    """The dataset in file ``path``, with ``path`` as its ``source``; each ConfigurationError names ``path``."""
    text = read_utf8(path)  # whose error names the path already
    try:
        dataset = loads_dataset(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{exc} in {path}") from exc
    dataset.source = str(path)
    return dataset

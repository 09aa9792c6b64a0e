"""The pinned outputs under ``tests/fixtures/``: one table declares each file
once, with the call that makes it, and ``tests/test_pinned.py`` compares the
bytes of every entry with its file.  A made entry writes the bytes by a
library call or an in-process ``qsalab`` argv; a read entry is a reader input
whose recipe is lost, and re-saves the committed file.

    python tests/pinned.py --write [NAME ...]   rewrite made entries (default: all)
    python tests/pinned.py --diff [NAME ...]    report changes against the committed files

The rule: a change that runs ``--write`` lists every rewritten file, and its
``--diff`` lines, in CHANGES.md.

``--diff`` regenerates into a temporary directory and exits 1 if any file
changed.  For each changed file it prints the changed key paths and the
largest numeric change, with both values in ``float.hex``.  A CSV file reads
as a list of ``{column: cell}`` rows and a JSON Lines file as a list of its
lines, so ``[2].train_loss`` is the train_loss cell of the third row.
"""

import argparse
import json
import re
import shutil
import sys
import tempfile
from collections import Counter
from functools import partial
from pathlib import Path

if __name__ == "__main__":  # the package of this checkout, ahead of any installed copy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from qsalab.ansatz import AnsatzParams, PhaseLayerParams
from qsalab.cli import main as qsalab
from qsalab.data import build_ising, generate_classical_dataset, generate_quantum_dataset, save_dataset
from qsalab.engine import QsaInstance, analytic_expectation, branch_overlaps, circuit_expectation, predict_token_state
from qsalab.trainer import TrainConfig, config_hash, load_checkpoint, save_checkpoint, train

FIXTURES = Path(__file__).parent / "fixtures"
# count, seed and order are keywords, so a caller can override them: classical_set(count=6)
classical_set = partial(generate_classical_dataset, 8, 4, count=12, seed=3, order=2)
quantum_set = partial(generate_quantum_dataset, build_ising(3, seed=1), 4, count=6, seed=4)
classical_long_set = partial(generate_classical_dataset, 8, 64, 3, seed=3, order=2)  # T=64 > d^2: S-CSA query tiles
DATASETS = {"classical": classical_set, "quantum": quantum_set, "classical_long": classical_long_set}


def _run(argv):
    assert qsalab([str(arg) for arg in argv]) == 0, argv


def _loss(kind, data_kind, **settings):
    """The loss CSV of ``train(TrainConfig(kind, epochs=3, seed=7, **settings), dataset)``."""
    def make(out):
        _, report = train(TrainConfig(model_kind=kind, epochs=3, seed=7, **settings), DATASETS[data_kind]())
        out.write_text(report.to_csv_text(), encoding="utf-8")
    return make


def _checkpoint(kind, data_kind, read=False):
    """The checkpoint of ``train(TrainConfig(kind, epochs=1, seed=7), dataset)``, or if ``read`` the
    committed file: then loaded, checked to be of that config and data kind, and saved again."""
    config = TrainConfig(model_kind=kind, epochs=1, seed=7)

    def make(out):
        if read:
            shutil.copyfile(FIXTURES / out.name, out)
        else:
            save_checkpoint(train(config, DATASETS[data_kind]())[0], config, out)
        params, identity = load_checkpoint(out)
        assert identity == {"model_kind": kind, "data_kind": data_kind, "config_hash": config_hash(config), "seed": 7}
        assert params.data_kind == data_kind
        save_checkpoint(params, config, out)
    return make


def _predict(kind, data_kind, top_k):
    """``qsalab predict --top-k top_k`` on the dataset, with the checkpoint of
    ``train(TrainConfig(kind, epochs=1, seed=7), dataset)``."""
    def make(out):
        dataset, config = DATASETS[data_kind](), TrainConfig(model_kind=kind, epochs=1, seed=7)
        checkpoint, data = out.with_name("checkpoint.json"), out.with_name("data.jsonl")
        save_checkpoint(train(config, dataset)[0], config, checkpoint)
        save_dataset(dataset, data)
        _run(["predict", "--checkpoint", checkpoint, "--data", data, "--top-k", top_k, "--out", out])
    return make


def _generate(args):
    """``qsalab generate args``."""
    return lambda out: _run(["generate", *args.split(), "--out", out])


# (n, t, complex vectors) of each `engine_instances.jsonl` line, seeded by its index
ENGINE_INSTANCES = [(n, t, complex_valued) for n, t in ((2, 2), (1, 4), (3, 3), (4, 1), (4, 4), (5, 2))
                    for complex_valued in (False, True)]


def _pairs(values):
    """Complex ``values`` as [re, im] pairs of floats."""
    return [[float(z.real), float(z.imag)] for z in np.ravel(values)]


def _engine_instances(out):
    """The single-sequence qsa outputs of seeded `QsaInstance.from_vectors`
    instances on 2n + t = 6, 9 and 12 qubits, with real and complex vectors:
    both routes' expectations, the branch overlaps and prefix weights, and
    the last step's prediction."""
    records = []
    for seed, (n, t, complex_valued) in enumerate(ENGINE_INSTANCES):
        rng = np.random.default_rng(seed)
        d, steps = 2 ** n, 2 ** t

        def vector():
            return rng.normal(size=d) + (1j * rng.normal(size=d) if complex_valued else 0.0)

        instance = QsaInstance.from_vectors(
            [vector() for _ in range(steps + 1)], [vector() for _ in range(steps)],
            AnsatzParams.random(n, 2, 3 * seed, spread=1.0), AnsatzParams.random(n, 2, 3 * seed + 1, spread=1.0),
            PhaseLayerParams.random(t, 3 * seed + 2, spread=1.0))
        overlaps, weights = branch_overlaps(instance)
        state, weight = predict_token_state(instance, steps)
        records.append({
            "n": n, "t": t, "complex": complex_valued, "seed": seed,
            "circuit_expectation": circuit_expectation(instance),
            "analytic_expectation": analytic_expectation(instance),
            "branch_overlaps": _pairs(overlaps), "prefix_weights": [float(w) for w in weights],
            "predict_amplitudes": _pairs(state.amplitudes), "predict_weight": weight,
        })
    out.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")


# The options of each pinned `generate` output: tests/test_blas_threads.py runs them at
# one and two BLAS threads, and CI through the installed console script.  The classical
# walks were first written while the walk called Generator.choice per step, and the
# quantum files while the Hamiltonian was a sum of Kronecker products.
GENERATE = {
    "generate_classical_v2_o1.jsonl": "--kind classical --vocab 2 --order 1 --len 9 --count 4 --seed 3",
    "generate_classical_v10_o2_len257.jsonl": "--kind classical --vocab 10 --len 257 --count 3 --seed 7",
    "generate_classical_v16_o3.jsonl": "--kind classical --vocab 16 --order 3 --len 17 --count 6 --seed 11",
    "generate_quantum_q3.jsonl": "--kind quantum --qubits 3 --len 5 --count 2 --seed 2",
    "generate_quantum_q5.jsonl": "--kind quantum --qubits 5 --len 3 --count 2 --seed 6",
}
MADE = {
    "loss_qsa_classical.csv": _loss("qsa", "classical"),
    "loss_scsa_classical.csv": _loss("scsa", "classical"),
    "loss_lcsa_classical.csv": _loss("lcsa", "classical"),
    "loss_qsa_quantum.csv": _loss("qsa", "quantum"),
    "loss_scsa_quantum.csv": _loss("scsa", "quantum"),
    "loss_lcsa_quantum.csv": _loss("lcsa", "quantum"),
    "loss_qsa_classical_circuit.csv": _loss("qsa", "classical", expectation_route="circuit"),
    "loss_qsa_quantum_circuit.csv": _loss("qsa", "quantum", expectation_route="circuit"),
    "loss_qsa_classical_shots.csv": _loss("qsa", "classical", shots=64),
    "loss_qsa_quantum_circuit_shots.csv": _loss("qsa", "quantum", expectation_route="circuit", shots=64),
    "loss_qsa_classical_finite_difference.csv": _loss("qsa", "classical", gradient_mode="finite-difference"),
    "loss_scsa_classical_finite_difference.csv": _loss("scsa", "classical", gradient_mode="finite-difference"),
    "loss_lcsa_quantum_finite_difference.csv": _loss("lcsa", "quantum", gradient_mode="finite-difference"),
    "checkpoint_v1_qsa_quantum.json": _checkpoint("qsa", "quantum"),
    "checkpoint_v1_lcsa_classical.json": _checkpoint("lcsa", "classical"),
    "predict_qsa_classical.json": _predict("qsa", "classical", 3),
    "predict_scsa_classical.json": _predict("scsa", "classical", 3),
    "predict_lcsa_classical.json": _predict("lcsa", "classical", 3),
    "predict_qsa_quantum.json": _predict("qsa", "quantum", 3),
    # --top-k 8 is the whole vocabulary
    "predict_scsa_classical_long.json": _predict("scsa", "classical_long", 8),
    "predict_lcsa_quantum.json": _predict("lcsa", "quantum", 8),
    **{name: _generate(args) for name, args in GENERATE.items()},
    "engine_instances.jsonl": _engine_instances,
}
READ = {
    # Added with commit a15f148.  _checkpoint's recipe differs from each by up to about one
    # Adam step, at that commit as today: the recipe that wrote them is unknown.
    "checkpoint_v1_qsa.json": _checkpoint("qsa", "classical", read=True),
    "checkpoint_v1_scsa.json": _checkpoint("scsa", "classical", read=True),
    "checkpoint_v1_lcsa.json": _checkpoint("lcsa", "quantum", read=True),
    # _checkpoint("scsa", "quantum") wrote these bytes until commit 784afe9 took complex
    # S-CSA products as real matmuls: 65 of its 480 trained floats now differ, by at most 1.1e-16.
    "checkpoint_v1_scsa_quantum.json": _checkpoint("scsa", "quantum", read=True),
}
PINNED = {**MADE, **READ}


def make(name) -> bytes:
    """The bytes that entry ``name`` makes, in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        PINNED[name](out)
        return out.read_bytes()


def write(names) -> int:
    for name in names:
        made, path = make(name), FIXTURES / name
        if not path.exists() or path.read_bytes() != made:
            path.write_bytes(made)
            print(f"rewrote {name}")
    return 0


def _document(name, text):
    """The parsed values of pinned file ``name``."""
    if name.endswith(".csv"):
        header, *rows = (line.split(",") for line in text.splitlines())
        return [dict(zip(header, map(_cell, row))) for row in rows]
    return [json.loads(line) for line in text.splitlines()] if name.endswith(".jsonl") else json.loads(text)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(value, path=""):
    """(key path, value) of each scalar in a parsed document, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def changes(name, committed, made) -> list:
    """The report lines of a committed file's bytes against the bytes its entry made."""
    if committed == made:
        return []
    if committed is None:
        return [f"{name}: not committed"]
    old, new = (dict(_leaves(_document(name, raw.decode("utf-8")))) for raw in (committed, made))
    paths = {**old, **new}
    changed = [path for path in paths if repr(old.get(path, ())) != repr(new.get(path, ()))]
    if not changed:
        return [f"{name}: the bytes differ, the values do not"]
    keys = Counter(re.sub(r"\[\d+\]", "[*]", path) for path in changed)
    lines = [f"{name}: {len(changed)} of {len(paths)} values changed",
             "  keys: " + ", ".join(f"{key} ({count})" for key, count in keys.items())]
    numeric = [path for path in changed if {type(old.get(path)), type(new.get(path))} <= {int, float}]
    if numeric:
        path = max(numeric, key=lambda p: abs(float(new[p]) - float(old[p])))
        lines.append(f"  largest: {path}: {float(old[path]).hex()} -> {float(new[path]).hex()}")
    return lines


def diff(names, committed=FIXTURES) -> list:
    """The report lines of entries ``names`` against their files in directory
    ``committed``; a read entry re-saves its file under ``FIXTURES``."""
    return [line for name in names for line in changes(
        name, (committed / name).read_bytes() if (committed / name).exists() else None, make(name))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite or compare the pinned files under tests/fixtures/.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", nargs="*", choices=MADE, metavar="NAME", help="rewrite made entries (default: all)")
    mode.add_argument("--diff", nargs="*", choices=PINNED, metavar="NAME", help="report changes (default: all)")
    args = parser.parse_args(argv)
    if args.write is not None:
        return write(args.write or MADE)
    lines = diff(args.diff or PINNED)
    print("\n".join(lines) or "no change")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every output byte is the same whether OpenBLAS runs on one thread or on
two.  ``RUNS`` lists, in order, the ``qsalab`` argv of one tree: each model
kind trained, evaluated and predicted on short and long rows of both data
kinds (classical T=256 and quantum T=64 lie above d^2 = 16), then qsa's
routes and settings one at a time, the committed v1 checkpoints, ``audit``
and the pinned ``generate`` outputs.  The test writes the tree in two
subprocesses, with OpenBLAS on one thread and on two, and compares them file
by file.

Run as a script, the file writes its tree into the working directory with
the package of its own checkout.  Every path in the tree is relative, so the
trees of two checkouts compare with ``diff -r``:

    mkdir a && cd a && python ../checkout_a/tests/test_blas_threads.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":  # the package of this checkout, ahead of any installed copy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pinned import FIXTURES, GENERATE
from qsalab.cli import main

KINDS = ("qsa", "scsa", "lcsa")
DATASETS = {
    "classical_t4": "--kind classical --vocab 8 --len 5 --count 12 --seed 5",
    "classical_t256": "--kind classical --vocab 8 --len 257 --count 16 --seed 9",
    "quantum_t4": "--kind quantum --qubits 3 --len 5 --count 6 --seed 2",
    "quantum_t64": "--kind quantum --qubits 3 --len 65 --count 6 --seed 4",
}
# each committed v1 checkpoint (T=4, D=8), copied into the tree, and the T=4 data of its kind
CHECKPOINTS = {path.name: f"{json.loads(path.read_text())['data_kind']}_t4.jsonl"
               for path in sorted(FIXTURES.glob("checkpoint_v1_*.json"))}
# the --config files; each also holds "schema_version": 1
CONFIGS = {
    "circuit.json": {"expectation_route": "circuit"},
    "shots.json": {"shots": 64},
    "circuit_shots.json": {"expectation_route": "circuit", "shots": 64},
    "fd.json": {"gradient_mode": "finite-difference"},
    "fd_circuit.json": {"gradient_mode": "finite-difference", "expectation_route": "circuit"},
    "fd_shots.json": {"gradient_mode": "finite-difference", "shots": 64},
    "circuit_frozen.json": {"expectation_route": "circuit", "embedding_trainable": False},
    "layers0.json": {"num_layers": 0},
    "circuit_layers0.json": {"expectation_route": "circuit", "num_layers": 0},
    "layers1.json": {"num_layers": 1},
    "circuit_layers1.json": {"expectation_route": "circuit", "num_layers": 1},
    "d8.json": {"embed_dim": 8},
    "circuit_d8.json": {"expectation_route": "circuit", "embed_dim": 8},
    "explicit.json": {"learning_rate": 0.03, "embedding_learning_rate": 0.02, "beta1": 0.8, "beta2": 0.99,
                      "epsilon": 1e-7, "gamma": 1, "key_dim": 3, "ffn_hidden": 6, "embedding_trainable": False},
}


def _infer(checkpoint, data, prefix, top_k):
    """eval and predict of ``checkpoint`` on ``data``, into ``{prefix}eval.json`` and ``{prefix}predict.json``."""
    return [f"eval --checkpoint {checkpoint} --data {data} --out {prefix}eval.json",
            f"predict --checkpoint {checkpoint} --data {data} --top-k {top_k} --out {prefix}predict.json"]


def _fit(kind, data, run, epochs=2, top_k=8):
    """train of model ``kind`` on ``data`` into directory ``run``, then eval and predict of its checkpoint."""
    return [f"train --model {kind} --data {data} --epochs {epochs} --out {run}",
            *_infer(f"{run}/checkpoint.json", data, f"{run}/", top_k)]


def _predict(run, data, top_k):
    """predict of the checkpoint of ``run`` on ``data`` into ``{run}/predict_k{top_k}.json``."""
    return f"predict --checkpoint {run}/checkpoint.json --data {data} --top-k {top_k} --out {run}/predict_k{top_k}.json"


RUNS = [
    *(f"generate {options} --out {name}.jsonl" for name, options in DATASETS.items()),
    *(row for name in DATASETS for kind in KINDS for row in _fit(kind, f"{name}.jsonl", f"{kind}_{name}")),
    # a two-set eval, and the smaller k of predict on the T=4 rows
    "train --model qsa --data classical_t4.jsonl --epochs 3 --seed 1 --out qsa_seed1",
    "eval --checkpoint qsa_seed1/checkpoint.json --data classical_t4.jsonl classical_t4.jsonl "
    "--out qsa_seed1/eval.json",
    _predict("qsa_seed1", "classical_t4.jsonl", 3),
    _predict("scsa_classical_t4", "classical_t4.jsonl", 3),
    _predict("lcsa_classical_t4", "classical_t4.jsonl", 3),
    _predict("qsa_quantum_t4", "quantum_t4.jsonl", 2),
    _predict("lcsa_quantum_t4", "quantum_t4.jsonl", 2),
    # qsa's routes, gradient rules and ansatz depths, one setting or pair at a time:
    # the L=0 and L=1 runs take ansatz_vjp's empty and one-step prefix and suffix chains
    "generate --kind classical --vocab 8 --len 5 --count 4 --seed 3 --out small.jsonl",
    *(f"train --model qsa --data small.jsonl --config {config}.json --epochs 1 --out qsa_{config}"
      for config in ("circuit", "shots", "circuit_shots", "fd", "fd_circuit", "fd_shots", "circuit_frozen",
                     "layers0", "circuit_layers0", "layers1", "circuit_layers1")),
    # T=8 (t=3), 16 sequences: the dense route's batched pass at S > 1
    "generate --kind classical --vocab 8 --len 9 --count 16 --seed 6 --out classical_t8.jsonl",
    "train --model qsa --data classical_t8.jsonl --config circuit.json --epochs 1 --out qsa_circuit_t8",
    # T=2 (t=1): the smallest step register, on the analytic and the dense route
    "generate --kind classical --vocab 8 --len 3 --count 6 --seed 8 --out classical_t2.jsonl",
    "train --model qsa --data classical_t2.jsonl --epochs 2 --out qsa_t2",
    "train --model qsa --data classical_t2.jsonl --config circuit.json --epochs 1 --out qsa_circuit_t2",
    # d=8 (n=3): V and W on three qubits, on the analytic and the dense route
    "generate --kind classical --vocab 16 --len 5 --count 4 --seed 4 --out classical_v16.jsonl",
    "train --model qsa --data classical_v16.jsonl --config d8.json --epochs 1 --out qsa_d8",
    "train --model qsa --data classical_v16.jsonl --config circuit_d8.json --epochs 1 --out qsa_circuit_d8",
    # central differences on quantum rows, and S-CSA with every optimiser and shape setting given
    "train --model lcsa --data quantum_t4.jsonl --config fd.json --epochs 1 --out lcsa_fd_quantum_t4",
    "train --model scsa --data quantum_t4.jsonl --config explicit.json --epochs 1 --out scsa_explicit",
    *_infer("scsa_explicit/checkpoint.json", "quantum_t4.jsonl", "scsa_explicit/", 2),
    # T=128 > d^2: S-CSA's four causal query tiles, qsa's running sums and L-CSA's long row GEMMs;
    # then k = D, so every word of every step goes through the predict writer
    "generate --kind classical --vocab 8 --len 129 --count 4 --seed 9 --out classical_t128.jsonl",
    *(row for kind in KINDS
      for row in _fit(kind, "classical_t128.jsonl", f"{kind}_classical_t128", epochs=1, top_k=2)),
    _predict("scsa_classical_t128", "classical_t128.jsonl", 8),
    *(row for name, data in CHECKPOINTS.items() for row in _infer(name, data, f"{Path(name).stem}_", 2)),
    "audit --out audit",
    # a long walk: 64 records of 1024 steps over order-3 rows
    "generate --kind classical --vocab 10 --len 1025 --count 64 --order 3 --seed 8 --out long_walk.jsonl",
    *(f"generate {options} --out {name}" for name, options in GENERATE.items()),
    # 7 qubits, the most at which README calls quantum generate thread-invariant
    "generate --kind quantum --qubits 7 --len 3 --count 2 --seed 2 --out quantum_q7.jsonl",
]


def drive():
    """Write the checkpoints, the config files and every run of ``RUNS`` under the working directory."""
    for name in CHECKPOINTS:
        shutil.copyfile(FIXTURES / name, name)
    for name, settings in CONFIGS.items():
        Path(name).write_text(json.dumps({"schema_version": 1, **settings}) + "\n", encoding="utf-8")
    for row in RUNS:
        assert main(row.split()) == 0, row


def tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_outputs_are_identical_at_one_and_two_blas_threads(tmp_path):
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        runs[out] = subprocess.Popen([sys.executable, "-W", "error", __file__], cwd=out, env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for process in runs.values():
        output, _ = process.communicate(timeout=300)
        assert process.returncode == 0, output
    one, two = map(tree, runs)
    # each run writes one manifest, and the manifests name every file but the inputs written first
    manifests = [name for name in one if name.endswith("manifest.json")]
    outputs = {path for name in manifests for path in json.loads(one[name])["outputs"]}
    assert len(manifests) == len(RUNS)
    assert set(one) == {*CHECKPOINTS, *CONFIGS, *manifests, *outputs}
    assert {name: one[name] for name in GENERATE} == {name: (FIXTURES / name).read_bytes() for name in GENERATE}
    assert one == two


if __name__ == "__main__":
    drive()

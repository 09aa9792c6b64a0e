"""Every output byte is the same whether OpenBLAS runs on one thread or on
two: generate, then train, eval and predict each model kind, in two
subprocesses whose trees are compared file by file.  The datasets cover the
short and the long training rows (classical T=256 and quantum T=64 lie
above d^2 = 16) on both data kinds."""

import os
import subprocess
import sys
from pathlib import Path

DATASETS = {
    "classical_t4": ["--kind", "classical", "--vocab", "8", "--len", "5", "--count", "12", "--seed", "5"],
    "classical_t256": ["--kind", "classical", "--vocab", "8", "--len", "257", "--count", "16", "--seed", "9"],
    "quantum_t4": ["--kind", "quantum", "--qubits", "3", "--len", "5", "--count", "6", "--seed", "2"],
    "quantum_t64": ["--kind", "quantum", "--qubits", "3", "--len", "65", "--count", "6", "--seed", "4"],
}


def drive():
    """Write every dataset and run of `DATASETS` under the working directory."""
    from qsalab.cli import main

    for name, options in DATASETS.items():
        data = f"{name}.jsonl"
        assert main(["generate", *options, "--out", data]) == 0
        for kind in ("qsa", "scsa", "lcsa"):
            run = f"{kind}_{name}"
            checkpoint = f"{run}/checkpoint.json"
            assert main(["train", "--model", kind, "--data", data, "--epochs", "2", "--out", run]) == 0
            assert main(["eval", "--checkpoint", checkpoint, "--data", data, "--out", f"{run}/eval.json"]) == 0
            assert main(["predict", "--checkpoint", checkpoint, "--data", data, "--top-k", "8",
                         "--out", f"{run}/predict.json"]) == 0


def tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_outputs_are_identical_at_one_and_two_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        runs[out] = subprocess.Popen([sys.executable, __file__], cwd=out, env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for process in runs.values():
        output, _ = process.communicate(timeout=300)
        assert process.returncode == 0, output
    one, two = map(tree, runs)
    # each dataset and its manifest; each run's checkpoint, loss, eval and
    # predict files and three manifests
    assert len(one) == 4 * 2 + 4 * 3 * 7
    assert one == two


if __name__ == "__main__":
    drive()

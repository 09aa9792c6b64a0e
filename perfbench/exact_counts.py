"""Named check `exact_counts`: per-layer counts repeat exactly.

    python3 perfbench/exact_counts.py --workload markov --seeds 1 1 2

Runs the traced benchmark once per listed seed (a repeated seed checks
run-to-run repetition, distinct seeds check inputs of the same shape) and
requires every count below to be identical across the runs.  Exits 0 when
they are and every run was correct, 1 otherwise.  A claim that rests on a
count (fewer ansatz rebuilds, fewer forwards per row, fewer simulated
blocks) quotes these figures.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_PREFIXES = (
    "trainer.forward_passes_per_row.",
    "statevector.blocks.",
    "statevector.weighted_dim.",
    "statevector.bytes_computed",
    "complexity.model_total.",
    "circuit.weighted_dim_per_model_gate.",
    "ansatz.build_ansatz_unitary.distinct_ratio",
)


def is_exact(name: str) -> bool:
    return name.endswith((".calls", ".rows")) or name.startswith(EXACT_PREFIXES)


def traced_counts(workload: str, seed: int) -> tuple[dict, bool]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False, cwd=RUN.parent.parent,
    )
    if proc.returncode != 0:
        sys.exit(f"exact_counts: traced run for seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items() if is_exact(k)}
    return counts, result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("give at least two seeds (repeat one to check run-to-run repetition)")
    runs = [traced_counts(args.workload, seed) for seed in args.seeds]
    ok = all(correct for _, correct in runs)
    print(f"exact_counts {args.workload} seeds {args.seeds}")
    for name in sorted(runs[0][0]):
        values = [counts.get(name) for counts, _ in runs]
        same = all(v == values[0] for v in values)
        ok = ok and same
        print(f"  {'ok  ' if same else 'DIFF'} {name:48s} {' '.join(f'{v:.10g}' for v in values)}")
    print("exact_counts: PASS" if ok else "exact_counts: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

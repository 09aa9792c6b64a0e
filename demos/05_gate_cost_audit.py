"""Gate-cost models and where each encoding wins.

Prints the per-term counts, fits log-log scaling slopes against sequence
length and token dimension, tabulates the cheapest variant over a (T, d)
grid, and sets the measured T-slopes of the simulator's analytic forwards
beside the modelled ones.
"""

import time

import numpy as np

from qsalab.classical import LcsaParams, ScsaParams, lcsa_forward_batch, scsa_vjp
from qsalab.complexity import (
    count_gates,
    crossover_report,
    default_slope_rows,
    fit_scaling,
)
from qsalab.engine import batched_expectations

print("term breakdown at T=16, d=4, D=16, L=5")
for variant in ("qsa-amplitude", "csa", "qsa-basis"):
    count = count_gates(variant, 16, 4, 16, 5)
    terms = ", ".join(f"{k}={v}" for k, v in count.terms.items())
    print(f"  {variant:>14}: total {count.total:>7}  ({terms})")

print("\nfitted log-log slopes (expected dominant exponents in parentheses)")
for row in default_slope_rows():
    print(
        f"  {row['variant']:>14} vs {row['axis']}: slope {row['slope']:.3f} "
        f"(expected {row['expected']:.0f})"
    )

print("\ncheapest variant per (T, d) at D=16, L=5")
t_values = (2, 8, 32, 128, 512, 2048)
d_values = (2, 8, 32, 128, 512, 2048)
rows = {(r["T"], r["d"]): r["winner"] for r in crossover_report(t_values, d_values, 16, 5)}
short = {"qsa-amplitude": "amp", "qsa-basis": "basis", "csa": "csa"}
header = "T \\ d " + "".join(f"{d:>8}" for d in d_values)
print(header)
for t in t_values:
    cells = "".join(f"{short.get(rows[(t, d)], rows[(t, d)]):>8}" for d in d_values)
    print(f"{t:>6}{cells}")

print("\nLong sequences favor amplitude encoding (linear in T); very large")
print("token dimensions favor basis encoding, which never touches d.")

# Each kind's analytic forward on embedded tokens (d=4, 8 sequences, D=10),
# timed without the T-independent ansatz build.  Above T = d^2 scsa's
# forward runs in causal query tiles of 32 rows: it holds one (S, 32, T)
# float64 tile at a time, about 2 MB at T=1024, never the whole (S, T, T)
# softmax block (67 MB).
num_seqs, d, vocab = 8, 4, 10
rng = np.random.default_rng(5)
v_matrix, w_matrix = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] for _ in range(2))
lcsa_params = LcsaParams.near_identity(d, rng)
scsa_params = ScsaParams.random(d, vocab, rng)


def best_wall_time(forward, repeats=5):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        forward()
        times.append(time.perf_counter() - started)
    return min(times)


def forwards(num_steps):
    x = rng.normal(size=(num_seqs, num_steps + 1, d))
    norms = np.linalg.norm(x, axis=-1)
    unit = x / norms[..., None]
    words = np.eye(vocab)[rng.integers(0, vocab, size=(num_seqs, num_steps + 1))]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=num_steps))
    return {
        "qsa": lambda: batched_expectations(unit[:, :-1], unit[:, 1:], v_matrix, w_matrix, phases),
        "lcsa": lambda: lcsa_forward_batch(x[:, :-1], x[:, 1:], norms[:, 1:], lcsa_params),
        "scsa": lambda: scsa_vjp(x[:, :-1], words, scsa_params),
    }


grid = (16, 32, 64, 128, 256, 512, 1024)
# lcsa is classical attention, so its gate model is csa's pairwise T^2 d
models = {"qsa": "qsa-amplitude", "lcsa": "csa", "scsa": "csa"}
print(f"\nmeasured wall-time slope vs T (d={d}, {num_seqs} sequences) beside the modelled gate-count slope")
for kind in models:
    times = [best_wall_time(forwards(t)[kind]) for t in grid]
    measured = np.polyfit(np.log(grid), np.log(times), 1)[0]
    modelled = fit_scaling(models[kind], "T", grid, token_dim=d)
    print(f"  {kind:>4} T={grid[0]}..{grid[-1]}: measured {measured:.2f}, "
          f"modelled {modelled:.2f} ({models[kind]})")

"""Gate-count cost models and empirical scaling fits.

Counts one elementary two-level operation equivalent per unit; a dense
k-qubit block costs its dimension 2**k, matching the linear-in-dimension
cost of amplitude encoding.  Constant factors are fixed to 1: only the
exponents carry meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import INT64_MAX, check_int_range
from .errors import ConfigurationError
from .statevector import RegisterLayout

VARIANTS = ("qsa-amplitude", "qsa-basis", "csa")


@dataclass(frozen=True)
class GateCount:
    """Term breakdown of a cost model at one size point."""

    variant: str
    num_steps: int
    token_dim: int
    vocab_dim: int
    num_layers: int
    terms: dict

    @property
    def total(self) -> int:
        return sum(self.terms.values())


def count_gates(variant: str, num_steps: int, token_dim: int, vocab_dim: int, num_layers: int) -> GateCount:
    """Evaluate one cost model.

    qsa-amplitude: controlled state preparation T*d^2, two controlled
    projection stages 2*T*d^2, variational blocks 2*L*log2(d), classical
    embedding T*d*D.  csa: causal attention T^2*d, query/key/value maps
    T*d^2, anti-embedding T*d*D.  qsa-basis: preparation T*log2(D),
    controlled operations T^2*log2(D).  Each size is an integer in 1..2**63-1;
    qsa-amplitude's T and d are the circuit's, powers of two at least 2.
    """
    t, d, vocab, layers = (check_int_range(value, INT64_MAX, name) for value, name in (
        (num_steps, "num_steps"), (token_dim, "token_dim"), (vocab_dim, "vocab_dim"), (num_layers, "num_layers")))
    if variant == "qsa-amplitude":
        n = RegisterLayout.of(t, d).n
        terms = {
            "state_prep": t * d * d,
            "controlled_projections": 2 * t * d * d,
            "variational": 2 * layers * n,
            "embedding": t * d * vocab,
        }
    elif variant == "csa":
        terms = {
            "attention": t * t * d,
            "qkv_maps": t * d * d,
            "anti_embedding": t * d * vocab,
        }
    elif variant == "qsa-basis":
        n = max(1, math.ceil(math.log2(vocab)))
        terms = {
            "state_prep": t * n,
            "controlled_ops": t * t * n,
        }
    else:
        raise ConfigurationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return GateCount(variant, t, d, vocab, layers, terms)


def fit_scaling(
    variant: str,
    axis: str,
    grid,
    *,
    num_steps: int | None = None,
    token_dim: int | None = None,
    vocab_dim: int = 16,
    num_layers: int = 5,
) -> float:
    """Least-squares slope of log(total count) against log(axis value).

    ``grid`` must hold at least four geometrically spaced points; the other
    sizes stay fixed at the supplied values.
    """
    points = [check_int_range(v, INT64_MAX, "grid point") for v in grid]
    if len(points) < 4:
        raise ConfigurationError("grid needs at least 4 points")
    ratios = [points[i + 1] / points[i] for i in range(len(points) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ConfigurationError("grid must be positive with geometric spacing")
    if axis == "T":
        fixed_d = 4 if token_dim is None else token_dim
        totals = [count_gates(variant, p, fixed_d, vocab_dim, num_layers).total for p in points]
    elif axis == "d":
        fixed_t = 4 if num_steps is None else num_steps
        totals = [count_gates(variant, fixed_t, p, vocab_dim, num_layers).total for p in points]
    else:
        raise ConfigurationError("axis must be 'T' or 'd'")
    slope = np.polyfit(np.log(np.array(points, dtype=float)), np.log(np.array(totals, dtype=float)), 1)[0]
    return float(slope)


def crossover_report(t_values, d_values, vocab_dim: int, num_layers: int) -> list:
    """Winner (minimal total count) per (T, d) grid point; ties list all winners."""
    rows = []
    for t in t_values:
        for d in d_values:
            totals = {
                variant: count_gates(variant, t, d, vocab_dim, num_layers).total
                for variant in VARIANTS
            }
            best = min(totals.values())
            winners = [v for v in VARIANTS if totals[v] == best]
            rows.append(
                {
                    "T": int(t),
                    "d": int(d),
                    "D": int(vocab_dim),
                    "L": int(num_layers),
                    "winner": "|".join(winners),
                    "total": int(best),
                }
            )
    return rows


DEFAULT_SLOPE_SPECS = (
    {"variant": "qsa-amplitude", "axis": "T", "grid": (256, 512, 1024, 2048, 4096), "token_dim": 4, "expected": 1.0},
    {"variant": "qsa-amplitude", "axis": "d", "grid": (64, 128, 256, 512, 1024), "num_steps": 4096, "expected": 2.0},
    {"variant": "csa", "axis": "T", "grid": (1024, 2048, 4096, 8192, 16384), "token_dim": 4, "expected": 2.0},
    {"variant": "qsa-basis", "axis": "T", "grid": (256, 512, 1024, 2048, 4096), "token_dim": 4, "expected": 2.0},
)

DEFAULT_CROSSOVER_GRID = {
    "t_values": (2, 8, 32, 128, 512, 2048),
    "d_values": (2, 8, 32, 128, 512, 2048),
    "vocab_dim": 16,
    "num_layers": 5,
}


def default_slope_rows() -> list:
    rows = []
    for spec in DEFAULT_SLOPE_SPECS:
        kwargs = {k: spec[k] for k in ("num_steps", "token_dim") if k in spec}
        slope = fit_scaling(spec["variant"], spec["axis"], spec["grid"], **kwargs)
        rows.append(
            {
                "variant": spec["variant"],
                "axis": spec["axis"],
                "points": " ".join(str(p) for p in spec["grid"]),
                "slope": slope,
                "expected": spec["expected"],
            }
        )
    return rows


def default_crossover_rows() -> list:
    return crossover_report(**DEFAULT_CROSSOVER_GRID)


def gate_count_rows(variants=VARIANTS, sizes=((2, 2, 2, 1), (4, 4, 16, 5), (16, 4, 16, 5))) -> list:
    """Term-level rows (variant, T, d, D, L, term, count) over a size grid."""
    rows = []
    for variant in variants:
        for t, d, vocab, layers in sizes:
            count = count_gates(variant, t, d, vocab, layers)
            for term, value in count.terms.items():
                rows.append(
                    {
                        "variant": variant,
                        "T": t,
                        "d": d,
                        "D": vocab,
                        "L": layers,
                        "term": term,
                        "count": int(value),
                    }
                )
    return rows

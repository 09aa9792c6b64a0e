"""Operator entry point.

Subcommands: ``generate`` (datasets), ``train`` (checkpoint + loss CSV),
``eval`` (test perplexities), ``predict`` (top-k next-word scores), and
``audit`` (gate-count tables).  Every command writes outputs atomically and
drops a run manifest with digests of its inputs and outputs.

Exit codes: 0 success, 2 usage error or a path that cannot be read or
written, 3 numeric failure (a non-finite loss or parameters, or a
vanishing prediction), 4 compatibility error.  Outputs are
byte-reproducible for a fixed seed and config; ``--timing`` records wall
times in the loss CSV and the manifest at the cost of their
reproducibility, and leaves the checkpoint's bytes alone.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import operator
import os
import sys
import time
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from . import complexity, data, trainer
from .errors import (
    CompatibilityError,
    ConfigurationError,
    DegenerateInputError,
    DegeneratePredictionError,
    NumericFailureError,
)

TOOL_VERSION = "0.1.0"
CONFIG_SCHEMA_VERSION = 1


def _digest(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            sha.update(chunk)
    return sha.hexdigest()


class Run(NamedTuple):
    """What a finished command hands to ``main`` for its manifest: where to
    write it, and the config, seed, inputs and outputs it records."""

    manifest: str
    config: dict
    seed: int | None
    inputs: list
    outputs: list


def _write_manifest(run: Run, command: str, wall_time) -> None:
    manifest = {
        "tool": "qsalab",
        "version": TOOL_VERSION,
        "command": command,
        "config": run.config,
        "seed": run.seed,
        "inputs": {str(p): _digest(p) for p in run.inputs},
        "outputs": {str(p): _digest(p) for p in run.outputs},
        "wall_time_s": wall_time,
    }
    data.atomic_write_text(run.manifest, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls, and
    # in-process callers (tests, notebooks) would otherwise pay ~2 ms a call.
    parser = argparse.ArgumentParser(prog="qsalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument("--timing", action="store_true",
                        help="record wall times in the manifest (and train's loss.csv), "
                             "which are then not byte-reproducible")

    gen = sub.add_parser("generate", parents=[timing], help="generate a sequence dataset")
    gen.add_argument("--kind", choices=data.DATASET_KINDS, required=True)
    gen.add_argument("--vocab", type=int, help="vocabulary size D (classical data)")
    gen.add_argument("--qubits", type=int, help="qubit count for quantum data (D = 2**q)")
    gen.add_argument("--len", type=int, required=True, dest="length", help="sequence length T+1")
    gen.add_argument("--count", type=int, required=True, help="number of records")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--order", type=int, help="nonzero entries per Markov row (classical data; default 2)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", parents=[timing], help="train a model and emit checkpoint + loss CSV")
    tr.add_argument("--model", choices=trainer.MODEL_KINDS, required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--config", help="JSON config file; flags override its values")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--learning-rate", type=float)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", parents=[timing], help="forward-only perplexity over one or more test sets")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", nargs="+", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", parents=[timing], help="top-k next-word indices with scores")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--top-k", type=int, default=3)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    au = sub.add_parser("audit", parents=[timing], help="gate-count, slope, and crossover tables")
    au.add_argument("--out", required=True, help="output directory")
    au.set_defaults(func=cmd_audit)
    return parser


def cmd_generate(args, parser) -> Run:
    if args.length < 2:
        parser.error("--len must be at least 2 (one step plus its target)")
    num_steps = args.length - 1
    order = args.order
    if args.kind == "classical":
        if args.vocab is None:
            parser.error("--vocab is required for classical data")
        if args.qubits is not None:
            parser.error("--qubits applies only to quantum data")
        order = 2 if order is None else order
        dataset = data.generate_classical_dataset(
            args.vocab, num_steps, args.count, args.seed, order=order
        )
    else:
        if order is not None:
            parser.error("--order applies only to classical data")
        if args.vocab is not None:
            parser.error("--vocab applies only to classical data")
        if args.qubits is None:
            parser.error("quantum data needs --qubits")
        model = data.build_ising(args.qubits, args.seed)
        dataset = data.generate_quantum_dataset(model, num_steps, args.count, args.seed)
    data.save_dataset(dataset, args.out)
    config = {
        "kind": args.kind,
        "vocab": dataset.vocab_dim,
        "len": args.length,
        "count": args.count,
        "seed": args.seed,
        "order": order,
    }
    return Run(f"{args.out}.manifest.json", config, args.seed, [], [args.out])


def _resolve_train_config(args, parser) -> trainer.TrainConfig:
    values = {}
    if args.config:
        try:
            doc = json.loads(data.read_utf8(args.config))
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config file must hold a JSON object, got {type(doc).__name__}")
        version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
        if data._type_fault(version, int) or version != CONFIG_SCHEMA_VERSION:  # true and 1.0 equal 1
            raise CompatibilityError(f"config schema_version {version} unsupported")
        values = {k: v for k, v in doc.items() if k != "schema_version"}
        if values.get("record_timing") is True:  # the clock is read under --timing only
            raise ConfigurationError("record_timing is set by the --timing flag, not by a config file")
    values["model_kind"] = args.model
    for name in ("epochs", "seed", "learning_rate"):  # the flags that override a config value
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    if args.timing:
        values["record_timing"] = True
    try:
        return trainer.TrainConfig(**values)
    except TypeError as exc:
        parser.error(f"bad config: {exc}")


def cmd_train(args, parser) -> Run:
    config = _resolve_train_config(args, parser)
    dataset = data.load_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    checkpoint_path = os.path.join(args.out, "checkpoint.json")
    csv_path = os.path.join(args.out, "loss.csv")
    try:
        params, report = trainer.train(config, dataset)
    except NumericFailureError as exc:
        data.atomic_write_text(
            os.path.join(args.out, "diagnostic.json"),
            json.dumps(exc.diagnostic, sort_keys=True, indent=2) + "\n",
        )
        raise
    trainer.save_checkpoint(params, config, checkpoint_path)
    data.atomic_write_text(csv_path, report.to_csv_text())
    return Run(os.path.join(args.out, "manifest.json"), asdict(config), config.seed,
               [args.data], [checkpoint_path, csv_path])


def cmd_eval(args, parser) -> Run:
    params, meta = trainer.load_checkpoint(args.checkpoint)
    report = trainer.evaluate(params, [data.load_dataset(path) for path in args.data])
    doc = {
        "model_kind": meta["model_kind"],
        "metric": "perplexity",
        "mean": report.test_perplexity_mean,
        "stdev": report.test_perplexity_stdev,
        "per_set": [
            {"path": str(path), **entry} for path, entry in zip(args.data, report.per_set)
        ],
    }
    data.atomic_write_text(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return Run(f"{args.out}.manifest.json", {"checkpoint": args.checkpoint}, meta["seed"],
               [args.checkpoint, *args.data], [args.out])


def _predict_text(model_kind: str, words: np.ndarray, scores: np.ndarray) -> str:
    """The predict document of (S, T, k) top-k ``words`` and ``scores``: byte for
    byte ``json.dumps`` (``sort_keys=True, indent=2``) of its per-step dict rows.

    Under ``indent`` CPython's json runs its pure-Python encoder, one generator
    call per dict and list.  Here each record is one ``%`` over its row of an
    (S, T, 2k+1) object array (positions, then score and word pairs) into a
    template fixed by k and T; ``%s`` spells ints and finite floats as json does,
    and `trainer.predict_topk` returns only finite scores.
    """
    num_seqs, num_steps, top_k = words.shape
    values = np.empty((num_seqs, num_steps, 2 * top_k + 1), dtype=object)
    values[..., 0], values[..., 1::2], values[..., 2::2] = np.arange(2, num_steps + 2), scores, words
    entry = '\n            {\n              "score": %s,\n              "word": %s\n            }'
    step = ('\n        {\n          "position": %s,\n          "top": ['
            + ",".join([entry] * top_k) + "\n          ]\n        }")
    steps = "[" + ",".join([step] * num_steps) + "\n      ]" if num_steps else "[]"
    record = '\n    {\n      "id": %s,\n      "steps": ' + steps + "\n    }"
    rows = values.reshape(num_seqs, num_steps * (2 * top_k + 1)).tolist()
    records = [record % (s, *row) for s, row in enumerate(rows)]
    body = "[" + ",".join(records) + "\n  ]" if records else "[]"
    return '{\n  "model_kind": %s,\n  "records": %s,\n  "top_k": %s\n}' % (json.dumps(model_kind), body, top_k)


def cmd_predict(args, parser) -> Run:
    params, meta = trainer.load_checkpoint(args.checkpoint)
    dataset = data.load_dataset(args.data)
    top = trainer.predict_topk(params, dataset, k=args.top_k)
    data.atomic_write_text(args.out, _predict_text(meta["model_kind"], *top) + "\n")
    return Run(f"{args.out}.manifest.json", {"checkpoint": args.checkpoint, "top_k": args.top_k}, meta["seed"],
               [args.checkpoint, args.data], [args.out])


def cmd_audit(args, parser) -> Run:
    os.makedirs(args.out, exist_ok=True)
    tables = (
        ("gate_counts.csv", ("variant", "T", "d", "D", "L", "term", "count"), complexity.gate_count_rows),
        ("slopes.csv", ("variant", "axis", "points", "slope", "expected"), complexity.default_slope_rows),
        ("crossover.csv", ("T", "d", "D", "L", "winner", "total"), complexity.default_crossover_rows),
    )
    outputs = []
    for name, columns, build_rows in tables:
        path = os.path.join(args.out, name)
        data.atomic_write_text(path, data.csv_text(columns, map(operator.itemgetter(*columns), build_rows())))
        outputs.append(path)
    return Run(os.path.join(args.out, "manifest.json"), {"grids": "default"}, None, [], outputs)


def main(argv=None) -> int:
    """Parse ``argv``, run its command and write the command's manifest.

    The run policy lives here and only here: the clock (read only under
    ``--timing``), the manifest of a command that finished, and the exit
    code of a typed error.  A command that raises writes no manifest.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        run = args.func(args, parser)
        _write_manifest(run, args.command, time.perf_counter() - started if args.timing else None)
        return 0
    except (ConfigurationError, DegenerateInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailureError, DegeneratePredictionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Operator entry point.

Subcommands: ``generate`` (datasets), ``train`` (checkpoint + loss CSV),
``eval`` (test perplexities), ``predict`` (top-k next-word scores), and
``audit`` (gate-count tables).  Every command writes outputs atomically and
drops a run manifest with digests of its inputs and outputs.

Exit codes: 0 success, 2 usage error, 3 numeric failure (a non-finite
loss or a vanishing prediction), 4 compatibility error.  Outputs are
byte-reproducible for a fixed seed and config; passing ``--timing`` records
wall times at the cost of that reproducibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

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


def _write_manifest(path, command: str, config: dict, seed, inputs, outputs, wall_time) -> None:
    manifest = {
        "tool": "qsalab",
        "version": TOOL_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": {str(p): _digest(p) for p in outputs},
        "wall_time_s": wall_time,
    }
    data.atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a sequence dataset")
    gen.add_argument("--kind", choices=("classical", "quantum"), required=True)
    gen.add_argument("--vocab", type=int, help="vocabulary size D")
    gen.add_argument("--qubits", type=int, help="qubit count for quantum data (D = 2**q)")
    gen.add_argument("--len", type=int, required=True, dest="length", help="sequence length T+1")
    gen.add_argument("--count", type=int, required=True, help="number of records")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--order", type=int, default=2, help="nonzero entries per Markov row")
    gen.add_argument("--out", required=True)
    gen.add_argument("--timing", action="store_true")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train a model and emit checkpoint + loss CSV")
    tr.add_argument("--model", choices=trainer.MODEL_KINDS, required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--config", help="JSON config file; flags override its values")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--learning-rate", type=float)
    tr.add_argument("--timing", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="forward-only perplexity over one or more test sets")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", nargs="+", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--timing", action="store_true")
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", help="top-k next-word indices with scores")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--top-k", type=int, default=3)
    pr.add_argument("--out", required=True)
    pr.add_argument("--timing", action="store_true")
    pr.set_defaults(func=cmd_predict)

    au = sub.add_parser("audit", help="gate-count, slope, and crossover tables")
    au.add_argument("--out", required=True, help="output directory")
    au.add_argument("--timing", action="store_true")
    au.set_defaults(func=cmd_audit)
    return parser


def cmd_generate(args, parser) -> int:
    started = time.perf_counter()
    if args.length < 2:
        parser.error("--len must be at least 2 (one step plus its target)")
    num_steps = args.length - 1
    if args.kind == "classical":
        if args.vocab is None:
            parser.error("--vocab is required for classical data")
        if args.qubits is not None:
            parser.error("--qubits applies only to quantum data")
        dataset = data.generate_classical_dataset(
            args.vocab, num_steps, args.count, args.seed, order=args.order
        )
    else:
        if args.qubits is None and args.vocab is None:
            parser.error("quantum data needs --qubits (or --vocab equal to a power of two)")
        qubits = args.qubits
        if qubits is None:
            qubits = int(args.vocab).bit_length() - 1
            if 2 ** qubits != args.vocab:
                parser.error("--vocab must be a power of two for quantum data")
        elif args.vocab is not None and args.vocab != 2 ** qubits:
            parser.error(f"--vocab {args.vocab} conflicts with --qubits {qubits} (needs {2 ** qubits})")
        model = data.build_ising(qubits, args.seed)
        dataset = data.generate_quantum_dataset(model, num_steps, args.count, args.seed)
    data.save_dataset(dataset, args.out)
    wall = time.perf_counter() - started if args.timing else None
    _write_manifest(
        f"{args.out}.manifest.json",
        "generate",
        {
            "kind": args.kind,
            "vocab": dataset.vocab_dim,
            "len": args.length,
            "count": args.count,
            "seed": args.seed,
            "order": args.order if args.kind == "classical" else None,
        },
        args.seed,
        inputs=[],
        outputs=[args.out],
        wall_time=wall,
    )
    return 0


def _resolve_train_config(args, parser) -> trainer.TrainConfig:
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config file must hold a JSON object, got {type(doc).__name__}")
        if doc.get("schema_version", CONFIG_SCHEMA_VERSION) != CONFIG_SCHEMA_VERSION:
            raise CompatibilityError(
                f"config schema_version {doc.get('schema_version')} unsupported"
            )
        values = {k: v for k, v in doc.items() if k != "schema_version"}
    values["model_kind"] = args.model
    if args.epochs is not None:
        values["epochs"] = args.epochs
    if args.seed is not None:
        values["seed"] = args.seed
    if args.learning_rate is not None:
        values["learning_rate"] = args.learning_rate
    if args.timing:
        values["record_timing"] = True
    try:
        return trainer.TrainConfig(**values)
    except TypeError as exc:
        parser.error(f"bad config: {exc}")


def cmd_train(args, parser) -> int:
    started = time.perf_counter()
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
        print(f"error: {exc}", file=sys.stderr)
        return 3
    trainer.save_checkpoint(params, config, dataset.kind, checkpoint_path)
    data.atomic_write_text(csv_path, report.to_csv_text())
    wall = time.perf_counter() - started if args.timing else None
    _write_manifest(
        os.path.join(args.out, "manifest.json"),
        "train",
        asdict(config),
        config.seed,
        inputs=[args.data],
        outputs=[checkpoint_path, csv_path],
        wall_time=wall,
    )
    return 0


def cmd_eval(args, parser) -> int:
    started = time.perf_counter()
    params, meta = trainer.load_checkpoint(args.checkpoint)
    datasets = []
    for path in args.data:
        ds = data.load_dataset(path)
        if ds.kind != meta["data_kind"]:
            raise CompatibilityError(
                f"checkpoint was trained on {meta['data_kind']} data, got {ds.kind} from {path}"
            )
        datasets.append(ds)
    report = trainer.evaluate(params, datasets)
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
    wall = time.perf_counter() - started if args.timing else None
    _write_manifest(
        f"{args.out}.manifest.json",
        "eval",
        {"checkpoint": args.checkpoint},
        meta["seed"],
        inputs=[args.checkpoint, *args.data],
        outputs=[args.out],
        wall_time=wall,
    )
    return 0


_PREDICT_ENTRY = '\n            {\n              "score": %s,\n              "word": %s\n            }'


def _json_nonfinite(x: float) -> str:
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _predict_text(model_kind: str, top_k: int, rows: list) -> str:
    """The predict document, byte for byte ``json.dumps({"model_kind":
    model_kind, "top_k": top_k, "records": rows}, sort_keys=True, indent=2)``.

    Under ``indent`` CPython's json runs its pure-Python encoder, one
    generator call per dict and list.  Here each record is one ``%`` over a
    flat value tuple into a template fixed by ``top_k`` and its step count,
    so every step must hold ``top_k`` entries, as ``trainer.predict_topk``
    returns them.  ``%s`` spells ints and finite floats as json does
    (``int.__repr__``, ``float.__repr__``); non-finite scores get json's
    names.
    """
    step = ('\n        {\n          "position": %s,\n          "top": ['
            + ",".join([_PREDICT_ENTRY] * top_k) + "\n          ]\n        }")
    records = []
    for row in rows:
        steps = row["steps"]
        values = [row["id"]]
        for item in steps:
            values.append(item["position"])
            for entry in item["top"]:
                score = entry["score"]
                values += (score if math.isfinite(score) else _json_nonfinite(score), entry["word"])
        body = "[" + ",".join([step] * len(steps)) + "\n      ]" if steps else "[]"
        records.append(('\n    {\n      "id": %s,\n      "steps": ' + body + "\n    }") % tuple(values))
    body = "[" + ",".join(records) + "\n  ]" if records else "[]"
    return '{\n  "model_kind": %s,\n  "records": %s,\n  "top_k": %s\n}' % (json.dumps(model_kind), body, top_k)


def cmd_predict(args, parser) -> int:
    started = time.perf_counter()
    params, meta = trainer.load_checkpoint(args.checkpoint)
    dataset = data.load_dataset(args.data)
    if dataset.kind != meta["data_kind"]:
        raise CompatibilityError(
            f"checkpoint was trained on {meta['data_kind']} data, got {dataset.kind}"
        )
    rows = trainer.predict_topk(params, dataset, k=args.top_k)
    data.atomic_write_text(args.out, _predict_text(meta["model_kind"], args.top_k, rows) + "\n")
    wall = time.perf_counter() - started if args.timing else None
    _write_manifest(
        f"{args.out}.manifest.json",
        "predict",
        {"checkpoint": args.checkpoint, "top_k": args.top_k},
        meta["seed"],
        inputs=[args.checkpoint, args.data],
        outputs=[args.out],
        wall_time=wall,
    )
    return 0


def _csv_text(header: str, rows: list, columns: list) -> str:
    lines = [header]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            cells.append(repr(float(value)) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_audit(args, parser) -> int:
    started = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    counts_path = os.path.join(args.out, "gate_counts.csv")
    slopes_path = os.path.join(args.out, "slopes.csv")
    crossover_path = os.path.join(args.out, "crossover.csv")
    data.atomic_write_text(
        counts_path,
        _csv_text("variant,T,d,D,L,term,count", complexity.gate_count_rows(),
                  ["variant", "T", "d", "D", "L", "term", "count"]),
    )
    data.atomic_write_text(
        slopes_path,
        _csv_text("variant,axis,points,slope,expected", complexity.default_slope_rows(),
                  ["variant", "axis", "points", "slope", "expected"]),
    )
    data.atomic_write_text(
        crossover_path,
        _csv_text("T,d,D,L,winner,total", complexity.default_crossover_rows(),
                  ["T", "d", "D", "L", "winner", "total"]),
    )
    wall = time.perf_counter() - started if args.timing else None
    _write_manifest(
        os.path.join(args.out, "manifest.json"),
        "audit",
        {"grids": "default"},
        None,
        inputs=[],
        outputs=[counts_path, slopes_path, crossover_path],
        wall_time=wall,
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ConfigurationError, DegenerateInputError, FileNotFoundError) as exc:
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

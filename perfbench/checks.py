"""Output checks, run outside the timed region.

Every check compares a qsalab output with an independent single-sequence
route through the package's public functions, within a tolerance, so it
holds for any correct implementation (no byte digests).  Each function
returns a list of mismatch descriptions; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from qsalab import classical, data, engine, objectives, trainer

DUAL_ROUTE_TOL = 1e-10
LOSS_TOL = 1e-9
SCORE_TOL = 1e-9
PREDICT_SAMPLES = 16


def jsonl_roundtrip(path) -> list:
    """A generated dataset re-serializes to the exact text on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if data.dumps_dataset(data.load_dataset(path)) != text:
        return [f"{path}: JSONL round trip changed the text"]
    return []


def _sequence_loss(params, record, num_steps) -> float:
    """Offset loss of one sequence through the single-sequence oracles."""
    emap = params.embedding
    x, shift_free = data.embed_sequence(record, emap)
    if params.model_kind == "qsa":
        instance = engine.QsaInstance.from_vectors(
            x, shift_free[1:], params.v_params, params.w_params, params.r_params
        )
        expectation = engine.analytic_expectation(instance)
        return objectives.renyi_half_from_expectation(expectation, num_steps) - math.log(num_steps)
    if params.model_kind == "scsa":
        probs = classical.scsa_forward(record, emap, params.scsa)
    else:
        probs = [
            classical.lcsa_step_probability(list(x), list(shift_free[1:]), params.lcsa, j)
            for j in range(1, num_steps + 1)
        ]
    step_probs = objectives.StepProbabilities(np.asarray(probs), np.ones(num_steps))
    return objectives.renyi_alpha_loss(step_probs, 0.5)


def oracle_mean_loss(params, dataset) -> float:
    return float(np.mean([_sequence_loss(params, rec, dataset.num_steps) for rec in dataset.records]))


def eval_output(eval_path, checkpoint_path, data_paths) -> list:
    """Each per-set loss equals the mean of the single-sequence oracle losses."""
    with open(eval_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    params, _ = trainer.load_checkpoint(checkpoint_path)
    problems = []
    if len(doc["per_set"]) != len(data_paths):
        return [f"{eval_path}: {len(doc['per_set'])} sets reported, {len(data_paths)} given"]
    for entry, path in zip(doc["per_set"], data_paths):
        expected = oracle_mean_loss(params, data.load_dataset(path))
        if not abs(entry["loss_offset"] - expected) <= LOSS_TOL:
            problems.append(
                f"{eval_path}: loss_offset {entry['loss_offset']!r} != oracle {expected!r}"
            )
    return problems


def train_output(out_dir, data_path, model, epochs, seed) -> list:
    """loss.csv has epochs+1 rows; row 0 is the seeded initialization and the
    last row is the saved checkpoint, each re-evaluated forward-only."""
    with open(f"{out_dir}/loss.csv", "r", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != epochs + 1:
        return [f"{out_dir}/loss.csv: {len(rows)} rows, expected {epochs + 1}"]
    dataset = data.load_dataset(data_path)
    config = trainer.TrainConfig(model_kind=model, epochs=epochs, seed=seed)
    first = trainer.evaluate(trainer.initialize_params(config, dataset), dataset).per_set[0]
    params, _ = trainer.load_checkpoint(f"{out_dir}/checkpoint.json")
    last = trainer.evaluate(params, dataset).per_set[0]
    problems = []
    for label, row, entry in (("first", rows[0], first), ("last", rows[-1], last)):
        if not abs(float(row["train_loss_offset"]) - entry["loss_offset"]) <= LOSS_TOL:
            problems.append(
                f"{out_dir}/loss.csv: {label} row {row['train_loss_offset']} != "
                f"evaluate {entry['loss_offset']!r}"
            )
    return problems


def _recomputed_scores(params, dataset, seq, step):
    emap = params.embedding
    if params.model_kind == "scsa":
        rows = dataset.input_rows()[seq : seq + 1]
        distributions, _ = classical.scsa_forward_batch(rows, emap, params.scsa)
        return distributions[0, step - 1]
    cand = emap.matrix.T / np.linalg.norm(emap.matrix.T, axis=1)[:, None]
    x, shift_free = data.embed_sequence(dataset.records[seq], emap)
    if params.model_kind == "qsa":
        instance = engine.QsaInstance.from_vectors(
            x, shift_free[1:], params.v_params, params.w_params, params.r_params
        )
        state, _ = engine.predict_token_state(instance, step)
        z = state.amplitudes
    else:
        z = classical.linear_attention_layer(list(x), params.lcsa, step)
        z = z / np.linalg.norm(z)
    return np.abs(cand.conj() @ z) ** 2


def predict_output(pred_path, checkpoint_path, data_path, k, seed) -> list:
    """k distinct words per step with sorted scores in [0, 1]; sampled steps
    match scores recomputed one sequence and one step at a time."""
    with open(pred_path, "r", encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    params, _ = trainer.load_checkpoint(checkpoint_path)
    dataset = data.load_dataset(data_path)
    num_steps, vocab = dataset.num_steps, dataset.vocab_dim
    if len(records) != len(dataset):
        return [f"{pred_path}: {len(records)} records for {len(dataset)} sequences"]
    problems = []
    for rec in records:
        positions = [step["position"] for step in rec["steps"]]
        if positions != list(range(2, num_steps + 2)):
            problems.append(f"{pred_path}: record {rec['id']} has positions {positions[:4]}...")
            continue
        for step in rec["steps"]:
            words = [entry["word"] for entry in step["top"]]
            scores = [entry["score"] for entry in step["top"]]
            if (
                len(words) != k
                or len(set(words)) != k
                or any(not 0 <= w < vocab for w in words)
                or any(not -SCORE_TOL <= s <= 1.0 + SCORE_TOL for s in scores)
                or any(a < b for a, b in zip(scores, scores[1:]))
            ):
                problems.append(f"{pred_path}: record {rec['id']} position {step['position']} malformed")
    rng = np.random.default_rng(seed)
    for _ in range(PREDICT_SAMPLES):
        seq = int(rng.integers(len(dataset)))
        step = int(rng.integers(1, num_steps + 1))
        listed = records[seq]["steps"][step - 1]["top"]
        scores = _recomputed_scores(params, dataset, seq, step)
        words = [entry["word"] for entry in listed]
        rest = np.delete(scores, words)
        if any(abs(entry["score"] - scores[entry["word"]]) > SCORE_TOL for entry in listed) or (
            rest.size and min(e["score"] for e in listed) < rest.max() - SCORE_TOL
        ):
            problems.append(f"{pred_path}: sequence {seq} step {step} disagrees with recomputed scores")
    return problems


def dual_route(evaluations, pools) -> tuple[list, float]:
    """Every simulated expectation matches the analytic formula."""
    analytic = {}
    problems = []
    worst = 0.0
    for size, index, value in evaluations:
        key = (size, index)
        if key not in analytic:
            analytic[key] = engine.analytic_expectation(pools[size][index])
        err = abs(value - analytic[key])
        worst = max(worst, err)
        if not err <= DUAL_ROUTE_TOL:
            problems.append(f"circuit {size} instance {index}: |circuit - analytic| = {err:.3e}")
    return problems, worst

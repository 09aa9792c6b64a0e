"""Per-layer figures of a traced fixed round, derived from its spans."""

from __future__ import annotations

import json

from tracing import SpanIndex
from workloads import CIRCUIT_LAYERS, CIRCUIT_SIZES, MIN_SAMPLE_S, MODELS, TRAIN_EPOCHS

# The model forward each trainer row repeats, by model kind.
FORWARD_SPAN = {
    "qsa": "engine.batched_expectations",
    "scsa": "classical.scsa_forward_batch",
    "lcsa": "classical.lcsa_forward_batch",
}
COUNTED = (
    "ansatz.build_ansatz_unitary", "ansatz.phase_layer_diagonal",
    "engine.batched_expectations", "engine.predict_token_state",
    "classical.scsa_forward_batch", "classical.lcsa_forward_batch", "classical.linear_attention_layer",
    "data.embed_batch",
    "encodings.unitary_with_first_column", "encodings.entangled_prefix_encoding",
    "encodings.amplitude_encode",
    "statevector.apply_unitary", "statevector.apply_controlled_by_register",
)
BUSY = COUNTED + (
    "engine.circuit_expectation", "data.generate", "data.save_dataset", "data.load_dataset",
    "trainer.evaluate", "trainer.checkpoint",
)
SELF = (
    "engine.predict_token_state", "engine.circuit_expectation",
    "encodings.prepare_input_superposition", "trainer.predict_topk",
)
CLI_COMMANDS = {"generate": "setup:generate", "train": "op:train_", "eval": "op:eval_", "predict": "op:predict_"}


def forward_times(workload, clock) -> dict:
    """Reference seconds of one forward-only `trainer.evaluate` of each trained
    checkpoint on the data it was trained on (untraced, mean over repeats
    lasting at least MIN_SAMPLE_S)."""
    from qsalab import data, trainer

    out = {}
    for model, path in workload.train_sets.items():
        params, _ = trainer.load_checkpoint(workload.work / "runs" / model / "checkpoint.json")
        dataset = data.load_dataset(path)
        calls = 0
        started = clock.now()
        while clock.now() - started < MIN_SAMPLE_S:
            trainer.evaluate(params, dataset)
            calls += 1
        out[model] = (clock.now() - started) / calls
    return out


def per_layer(tracer, workload, ref_per_wall, forward_s, dual_route_max_err, overhead_frac) -> dict:
    """All per-layer figures; times are in reference seconds (wall span times
    scaled by the traced round's reference-per-wall ratio)."""
    from qsalab import complexity

    index = SpanIndex(tracer.spans, ref_per_wall)
    values = {}
    for name in COUNTED:
        values[f"{name}.calls"] = index.calls(name)
    for name in BUSY:
        values[f"{name}.busy_s"] = index.busy(name)
    for name in SELF:
        values[f"{name}.self_s"] = index.self_time(name)

    builds = values["ansatz.build_ansatz_unitary.calls"]
    distinct = len(tracer.distinct["ansatz.build_ansatz_unitary"])
    values["ansatz.build_ansatz_unitary.distinct_ratio"] = distinct / builds if builds else 0.0
    values["engine.batched_expectations.rows"] = tracer.tallies["engine.batched_expectations.rows"]
    values["engine.dual_route_max_err"] = dual_route_max_err
    values["statevector.bytes_computed"] = tracer.tallies["statevector.bytes_computed"]

    rows = TRAIN_EPOCHS + 1
    for model in MODELS:
        root = f"op:train_epochs_per_s.{model}"
        values[f"trainer.forward_passes_per_row.{model}"] = index.calls(FORWARD_SPAN[model], root) / rows
        gradient = index.busy("trainer.train", root) / rows
        values[f"trainer.gradient_s.{model}"] = gradient
        values[f"trainer.forward_s.{model}"] = forward_s[model]
        values[f"trainer.grad_to_forward_ratio.{model}"] = gradient / forward_s[model]
    values["trainer.gradient.self_s"] = index.self_time("trainer.train")
    values["trainer.evaluate.busy_s"] = index.busy("trainer.evaluate")
    values["trainer.clamp_events"] = 0
    for path in workload.eval_outputs:
        with open(path, "r", encoding="utf-8") as handle:
            values["trainer.clamp_events"] += sum(e["clamped"] for e in json.load(handle)["per_set"])

    first = {}
    for size, _, _, blocks, weighted in workload.evaluations:
        first.setdefault(size, (blocks, weighted))
    for size, (n, t) in CIRCUIT_SIZES.items():
        blocks, weighted = first[size]
        model_total = complexity.count_gates("qsa-amplitude", 2 ** t, 2 ** n, 16, CIRCUIT_LAYERS).total
        values[f"statevector.blocks.{size}"] = blocks
        values[f"statevector.weighted_dim.{size}"] = weighted
        values[f"complexity.model_total.{size}"] = model_total
        values[f"circuit.weighted_dim_per_model_gate.{size}"] = weighted / model_total

    for command, root in CLI_COMMANDS.items():
        values[f"cli.self_s.{command}"] = index.self_time("cli.main", root)
    values["trace.overhead_frac"] = overhead_frac
    return values

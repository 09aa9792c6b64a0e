"""Config fields, dataset words and quantum amplitudes are typed and in
range, the numeric-failure diagnostic is strict JSON, and a malformed or
non-finite checkpoint value ends in a typed exit code."""

import json
import warnings

import pytest

from qsalab.cli import main


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.jsonl"
    assert main([
        "generate", "--kind", "classical", "--vocab", "8", "--len", "5",
        "--count", "12", "--seed", "5", "--out", str(path),
    ]) == 0
    return path


def train_with_config(tmp_path, data_path, kind, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"schema_version": 1, **config}))
    out = tmp_path / "run"
    code = main([
        "train", "--model", kind, "--data", str(data_path),
        "--config", str(config_path), "--out", str(out),
    ])
    return code, out


@pytest.mark.parametrize(
    "kind, config",
    [
        ("qsa", {"seed": 1.5, "epochs": 1}),
        ("qsa", {"epochs": 1.5}),
        ("qsa", {"epochs": True}),
        ("qsa", {"embed_dim": 4.0, "epochs": 1}),
        ("qsa", {"num_layers": True, "epochs": 1}),
        ("qsa", {"shots": 2.5, "epochs": 1}),
        ("scsa", {"key_dim": 2.0, "epochs": 1}),
        ("scsa", {"ffn_hidden": "8", "epochs": 1}),
        ("scsa", {"key_dim": -1, "epochs": 1}),
        ("scsa", {"key_dim": 0, "epochs": 1}),
        ("scsa", {"ffn_hidden": -2, "epochs": 1}),
        ("scsa", {"ffn_hidden": 0, "epochs": 1}),
        ("qsa", {"num_layers": -1, "epochs": 1}),
        ("lcsa", {"embed_dim": -3, "epochs": 1}),
        ("lcsa", {"embed_dim": 0, "epochs": 1}),
        ("lcsa", {"beta1": -0.5, "epochs": 1}),
        ("lcsa", {"beta2": 1.0, "epochs": 1}),
        ("qsa", {"gamma": "abc", "epochs": 1}),
        ("qsa", {"beta1": "x", "epochs": 1}),
        ("qsa", {"gamma": float("nan"), "epochs": 1}),
        ("qsa", {"embedding_trainable": "no", "epochs": 1}),
        ("qsa", {"fd_step": True, "epochs": 1}),
    ],
)
def test_non_integer_config_field_exits_2(tmp_path, dataset_path, kind, config):
    code, out = train_with_config(tmp_path, dataset_path, kind, config)
    assert code == 2
    assert not (out / "loss.csv").exists()


def test_integer_config_fields_still_train(tmp_path, dataset_path):
    code, out = train_with_config(
        tmp_path, dataset_path, "scsa", {"seed": 3, "epochs": 1, "embed_dim": 4, "key_dim": 2, "ffn_hidden": 8}
    )
    assert code == 0
    assert (out / "loss.csv").exists()


def test_integer_gamma_trains_and_is_saved_as_a_float(tmp_path, dataset_path):
    code, out = train_with_config(tmp_path, dataset_path, "qsa", {"gamma": 0, "epochs": 1})
    assert code == 0
    gamma = json.loads((out / "checkpoint.json").read_text())["params"]["embedding"]["gamma"]
    assert type(gamma) is float and gamma == 0.0


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_diagnostic_is_strict_json_without_overflow(tmp_path, dataset_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = train_with_config(tmp_path, dataset_path, "scsa", {"learning_rate": 1e200, "epochs": 3})
    assert code == 3
    diagnostic = json.loads((out / "diagnostic.json").read_text(), parse_constant=reject_constant)
    assert diagnostic["model_kind"] == "scsa"
    # the parameters reach about 1e201, a finite norm that must not overflow
    assert isinstance(diagnostic["circuit_norm"], float) and diagnostic["circuit_norm"] > 1e200
    assert not [w for w in caught if "overflow" in str(w.message)]


@pytest.fixture(scope="module")
def data_paths(tmp_path_factory, dataset_path):
    path = tmp_path_factory.mktemp("data") / "ising.jsonl"
    assert main([
        "generate", "--kind", "quantum", "--qubits", "3", "--len", "5",
        "--count", "4", "--seed", "2", "--out", str(path),
    ]) == 0
    return {"classical": dataset_path, "quantum": path}


@pytest.mark.parametrize("data_kind", ["classical", "quantum"])
@pytest.mark.parametrize(
    "kind, message",
    [
        # qsa's losses stay finite at any angle, so the update's overflow is what stops it
        ("qsa", "non-finite parameters after the update at epoch 1"),
        ("scsa", "non-finite loss at epoch 1"),
        ("lcsa", "non-finite loss at epoch 1"),
    ],
    ids=["qsa", "scsa", "lcsa"],
)
def test_diverging_update_exits_3_with_a_strict_diagnostic(tmp_path, data_paths, capsys, kind, message, data_kind):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = train_with_config(tmp_path, data_paths[data_kind], kind, {"learning_rate": 1e308, "epochs": 3})
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [str(w.message) for w in caught] == []
    diagnostic = json.loads((out / "diagnostic.json").read_text(), parse_constant=reject_constant)
    assert sorted(diagnostic) == ["circuit_norm", "embedding_norm", "epoch", "loss", "model_kind"]
    assert diagnostic["model_kind"] == kind and diagnostic["epoch"] == 1
    assert not (out / "checkpoint.json").exists()
    assert not (out / "manifest.json").exists()


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory, dataset_path):
    out = tmp_path_factory.mktemp("runs")
    for kind in ("qsa", "scsa", "lcsa"):
        assert main([
            "train", "--model", kind, "--data", str(dataset_path),
            "--epochs", "0", "--out", str(out / kind),
        ]) == 0
    return out


def short_value_map(block):
    block["value_map"]["data"].pop()


def real_value_map_marked_complex(block):
    block["value_map"]["complex"] = True


def text_angle(block):
    block["r"]["angles"]["data"][0] = "half"


def flat_value_map(block):
    block["w_value"] = {"shape": [4], "complex": False, "data": [0.1] * 4}


def flat_lcsa_value_map(block):
    block["value_map"] = {"shape": [4], "complex": False, "data": [0.1] * 4}


def misshapen_angles(block):
    block["v"]["angles"] = {"shape": [2, 3, 2], "complex": False, "data": [0.1] * 12}


def fewer_layers_than_angles(block):
    block["v"]["num_layers"] = 2


@pytest.mark.parametrize(
    "kind, corrupt, exit_code",
    [
        ("lcsa", short_value_map, 4),
        ("lcsa", real_value_map_marked_complex, 4),
        ("qsa", text_angle, 4),
        ("scsa", flat_value_map, 4),
        ("lcsa", flat_lcsa_value_map, 4),
        ("qsa", misshapen_angles, 4),
        ("qsa", fewer_layers_than_angles, 4),
    ],
)
def test_malformed_checkpoint_array_exits_typed(tmp_path, dataset_path, checkpoints, kind, corrupt, exit_code):
    doc = json.loads((checkpoints / kind / "checkpoint.json").read_text())
    corrupt(doc["params"][kind])
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(path), "--data", str(dataset_path), "--out", str(out)]) == exit_code
    assert not out.exists()


def set_gamma(value):
    def corrupt(params):
        params["embedding"]["gamma"] = value
    return corrupt


def set_entry(block, name, value):
    def corrupt(params):
        params[block][name]["data"][0] = value
    return corrupt


def set_ansatz(name, value):
    def corrupt(params):
        params["qsa"]["v"][name] = value
    return corrupt


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("qsa", set_gamma("x")),
        ("qsa", set_gamma(True)),
        ("lcsa", set_gamma([0.1])),
        ("qsa", set_gamma(float("nan"))),
        ("scsa", set_gamma(float("inf"))),
        ("lcsa", set_entry("lcsa", "value_map", float("nan"))),
        ("scsa", set_entry("scsa", "w_query", float("-inf"))),
        ("qsa", set_entry("embedding", "matrix", float("inf"))),
        ("lcsa", set_entry("embedding", "matrix", 10**400)),
        ("qsa", set_ansatz("real_valued", "no")),
        ("qsa", set_ansatz("real_valued", 1)),
        ("qsa", set_ansatz("num_qubits", "2")),
        ("qsa", set_ansatz("num_layers", 2.5)),
    ],
    ids=["gamma-text", "gamma-bool", "gamma-list", "gamma-nan", "gamma-inf",
         "value-map-nan", "w-query-neg-inf", "embedding-inf", "embedding-huge-int",
         "real-valued-text", "real-valued-int", "num-qubits-text", "num-layers-float"],
)
def test_non_finite_or_non_numeric_checkpoint_value_exits_4(tmp_path, dataset_path, checkpoints, kind, corrupt):
    doc = json.loads((checkpoints / kind / "checkpoint.json").read_text())
    corrupt(doc["params"])
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(path), "--data", str(dataset_path), "--out", str(out)]) == 4
    assert not out.exists()


def scale_embedding(factor):
    def corrupt(params):
        matrix = params["embedding"]["matrix"]
        matrix["data"] = [factor * x for x in matrix["data"]]
    return corrupt


@pytest.mark.parametrize("corrupt", [set_gamma(1e308), scale_embedding(1e300)], ids=["gamma", "embedding"])
@pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
def test_eval_overflow_exits_3_and_writes_nothing(tmp_path, dataset_path, checkpoints, capsys, kind, corrupt):
    """Finite checkpoint values whose forward overflows: the loss is not
    finite, so eval names the dataset, warns about nothing and writes no
    non-strict JSON."""
    doc = json.loads((checkpoints / kind / "checkpoint.json").read_text())
    corrupt(doc["params"])
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    out = tmp_path / "eval.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_path), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: non-finite loss on {dataset_path}\n"
    assert [str(w.message) for w in caught] == []
    assert not out.exists()
    assert not (tmp_path / "eval.json.manifest.json").exists()


@pytest.mark.parametrize("corrupt", [set_gamma(1e308), scale_embedding(1e300)], ids=["gamma", "embedding"])
@pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
def test_predict_overflow_exits_3_and_writes_nothing(tmp_path, dataset_path, checkpoints, capsys, kind, corrupt):
    """The checkpoints of the eval test above: predict names the dataset,
    warns about nothing and writes no NaN scores.  In qsa an overflowed
    token norm is reported as such, not as a vanishing output."""
    doc = json.loads((checkpoints / kind / "checkpoint.json").read_text())
    corrupt(doc["params"])
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    out = tmp_path / "predict.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["predict", "--checkpoint", str(path), "--data", str(dataset_path), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: non-finite prediction scores on {dataset_path}\n"
    assert [str(w.message) for w in caught] == []
    assert not out.exists()
    assert not (tmp_path / "predict.json.manifest.json").exists()


def test_disagreeing_model_kinds_exit_4(tmp_path, dataset_path, checkpoints):
    doc = json.loads((checkpoints / "qsa" / "checkpoint.json").read_text())
    doc["model_kind"] = "lcsa"
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(path), "--data", str(dataset_path), "--out", str(out)]) == 4
    assert not out.exists()


@pytest.fixture(scope="module")
def longer_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("longer") / "longer.jsonl"
    assert main([
        "generate", "--kind", "classical", "--vocab", "8", "--len", "9",
        "--count", "4", "--seed", "6", "--out", str(path),
    ]) == 0
    return path


@pytest.mark.parametrize("command", [["eval"], ["predict", "--top-k", "2"]])
@pytest.mark.parametrize("kind", ["lcsa", "scsa"])
def test_dataset_longer_than_training_exits_4(tmp_path, longer_dataset_path, checkpoints, capsys, kind, command):
    # trained on T=4, so the embedding has 5 positional shifts for T=8 data's 9 tokens
    out = tmp_path / "out.json"
    assert main([*command, "--checkpoint", str(checkpoints / kind / "checkpoint.json"),
                 "--data", str(longer_dataset_path), "--out", str(out)]) == 4
    assert not out.exists()
    assert f"from {longer_dataset_path}" in capsys.readouterr().err


@pytest.mark.parametrize("word", [1.5, True, "3"])
def test_non_integer_word_exits_2(tmp_path, dataset_path, checkpoints, word):
    header, first, *rest = dataset_path.read_text().splitlines()
    record = json.loads(first)
    record["words"][1] = word
    path = tmp_path / "words.jsonl"
    path.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(checkpoints / "qsa" / "checkpoint.json"),
                 "--data", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.fixture(scope="module")
def quantum_run(tmp_path_factory):
    """A 3-qubit Ising file (T=2) and an untrained lcsa checkpoint for it."""
    out = tmp_path_factory.mktemp("quantum")
    path = out / "ising.jsonl"
    assert main([
        "generate", "--kind", "quantum", "--qubits", "3", "--len", "3",
        "--count", "6", "--seed", "2", "--out", str(path),
    ]) == 0
    assert main(["train", "--model", "lcsa", "--data", str(path), "--epochs", "0", "--out", str(out / "lcsa")]) == 0
    return path, out / "lcsa" / "checkpoint.json"


def with_first_step(path, tmp_path, first_step):
    """A copy of ``path`` whose first record's first step is ``first_step`` (JSON text)."""
    header, first, *rest = path.read_text().splitlines()
    record = json.loads(first)
    steps = json.dumps(record["steps"][1:])[1:]  # the remaining steps, without the opening bracket
    edited = tmp_path / "edited.jsonl"
    edited.write_text("\n".join([header, f'{{"id": 0, "steps": [{first_step}, {steps}}}', *rest]) + "\n")
    return edited


ZERO_PAIRS = ", [0, 0]" * 6


@pytest.mark.parametrize(
    "first_step",
    ["[[NaN, 0], [1, 0]" + ZERO_PAIRS + "]", "[[true, 0], [0, 0]" + ZERO_PAIRS + "]",
     "[[1, 0], [false, 0]" + ZERO_PAIRS + "]", "[[1" + "0" * 400 + ", 0], [0, 0]" + ZERO_PAIRS + "]"],
    ids=["nan", "true", "false", "huge-int"],
)
def test_non_numeric_or_non_finite_amplitude_exits_2(tmp_path, quantum_run, first_step):
    path, checkpoint = quantum_run
    edited = with_first_step(path, tmp_path, first_step)
    code, out = train_with_config(tmp_path, edited, "lcsa", {"epochs": 1})
    assert code == 2
    assert not (out / "loss.csv").exists()
    eval_out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(edited), "--out", str(eval_out)]) == 2
    assert not eval_out.exists()


@pytest.mark.parametrize(
    "first_step",
    ["[[Infinity, 0], [0, 0]" + ZERO_PAIRS + "]", "[[1, -Infinity], [0, 0]" + ZERO_PAIRS + "]",
     "[[null, 0], [1, 0]" + ZERO_PAIRS + "]", '[["1", 0], [0, 0]' + ZERO_PAIRS + "]",
     "[[1, 0], [0, 0]" + ZERO_PAIRS + "]"],
    ids=["infinity", "neg-infinity", "null", "string", "valid-integers"],
)
def test_other_amplitudes_keep_their_outcome(tmp_path, quantum_run, first_step):
    """Infinities, null and strings were already refused (exit 2); integer
    parts are JSON numbers and still load."""
    path, checkpoint = quantum_run
    edited = with_first_step(path, tmp_path, first_step)
    eval_out = tmp_path / "eval.json"
    code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(edited), "--out", str(eval_out)])
    assert code == (0 if first_step.startswith("[[1, 0]") else 2)

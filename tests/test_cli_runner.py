"""What every command shares: its manifest (command name, input and output
digests, wall time), ``--timing``, and the exit codes of a data-kind
mismatch and of a numeric failure."""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from qsalab import trainer
from qsalab.cli import main


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("runner")
    classical, quantum = root / "c.jsonl", root / "q.jsonl"
    assert main(["generate", "--kind", "classical", "--vocab", "8", "--len", "5",
                 "--count", "6", "--seed", "5", "--out", str(classical)]) == 0
    assert main(["generate", "--kind", "quantum", "--qubits", "3", "--len", "5",
                 "--count", "4", "--seed", "2", "--out", str(quantum)]) == 0
    checkpoint = root / "run" / "checkpoint.json"
    assert main(["train", "--model", "lcsa", "--data", str(classical), "--epochs", "1",
                 "--out", str(checkpoint.parent)]) == 0
    return {"classical": classical, "quantum": quantum, "checkpoint": checkpoint}


def command(name, paths, out):
    """(argv, manifest path) for one run of ``name`` writing under ``out``."""
    if name == "generate":
        argv = ["generate", "--kind", "classical", "--vocab", "8", "--len", "5", "--count", "4",
                "--out", str(out / "d.jsonl")]
        return argv, out / "d.jsonl.manifest.json"
    if name == "train":
        argv = ["train", "--model", "qsa", "--data", str(paths["classical"]), "--epochs", "1",
                "--out", str(out / "run")]
        return argv, out / "run" / "manifest.json"
    if name == "eval":
        argv = ["eval", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["classical"]),
                str(paths["classical"]), "--out", str(out / "eval.json")]
        return argv, out / "eval.json.manifest.json"
    if name == "predict":
        argv = ["predict", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["classical"]),
                "--out", str(out / "pred.json")]
        return argv, out / "pred.json.manifest.json"
    return ["audit", "--out", str(out / "audit")], out / "audit" / "manifest.json"


COMMANDS = ("generate", "train", "eval", "predict", "audit")
FILES = {
    "generate": (0, 1),
    "train": (1, 2),
    "eval": (2, 1),
    "predict": (2, 1),
    "audit": (0, 3),
}


@pytest.mark.parametrize("timing", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("name", COMMANDS)
def test_manifest_records_command_digests_and_wall_time(tmp_path, paths, name, timing):
    argv, manifest_path = command(name, paths, tmp_path)
    assert main(argv + ["--timing"] * timing) == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == name
    assert (len(manifest["inputs"]), len(manifest["outputs"])) == FILES[name]
    for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
        assert digest == sha256(path)
    if timing:
        assert isinstance(manifest["wall_time_s"], float) and manifest["wall_time_s"] >= 0.0
    else:
        assert manifest["wall_time_s"] is None


def test_timed_train_records_epoch_seconds(tmp_path, paths):
    out = tmp_path / "run"
    assert main(["train", "--model", "qsa", "--data", str(paths["classical"]), "--epochs", "1",
                 "--timing", "--out", str(out)]) == 0
    rows = (out / "loss.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(float(row.split(",")[-1]) > 0.0 for row in rows)
    assert json.loads((out / "manifest.json").read_text())["config"]["record_timing"] is True


@pytest.mark.parametrize("model", ["qsa", "scsa", "lcsa"])
def test_timing_leaves_the_checkpoint_bytes_alone(tmp_path, paths, model):
    """--timing is a run setting: it adds wall times to loss.csv and the
    manifest, and the checkpoint, config_hash included, stays byte-identical."""
    runs = {}
    for timing in (False, True):
        out = tmp_path / f"run{int(timing)}"
        assert main(["train", "--model", model, "--data", str(paths["classical"]), "--epochs", "2",
                     "--out", str(out)] + ["--timing"] * timing) == 0
        runs[timing] = out
    assert (runs[True] / "checkpoint.json").read_bytes() == (runs[False] / "checkpoint.json").read_bytes()
    assert (runs[True] / "loss.csv").read_bytes() != (runs[False] / "loss.csv").read_bytes()


@pytest.mark.parametrize("value, code", [(True, 2), (False, 0)])
def test_config_file_record_timing_defers_to_the_timing_flag(tmp_path, paths, capsys, value, code):
    # a config file cannot switch the clock on behind a manifest that records no
    # wall time; a false value, as in a manifest's config block, still loads
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "record_timing": value}))
    out = tmp_path / "run"
    assert main(["train", "--model", "qsa", "--data", str(paths["classical"]), "--epochs", "1",
                 "--config", str(config), "--out", str(out)]) == code
    if code:
        assert "--timing" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert all(float(row.split(",")[-1]) == 0.0 for row in (out / "loss.csv").read_text().splitlines()[1:])


def test_predict_on_the_other_data_kind_exits_4(tmp_path, paths, capsys):
    out = tmp_path / "pred.json"
    code = main(["predict", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["quantum"]),
                 "--out", str(out)])
    assert code == 4
    assert "trained on classical data, got quantum" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_writes_diagnostic_and_no_manifest(tmp_path, paths, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "learning_rate": 1e200}))
    out = tmp_path / "run"
    code = main(["train", "--model", "scsa", "--data", str(paths["classical"]), "--config", str(config),
                 "--epochs", "3", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: non-finite loss at epoch")
    assert json.loads((out / "diagnostic.json").read_text())["model_kind"] == "scsa"
    assert not (out / "manifest.json").exists()
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("model, settings, epochs, message", [
    ("scsa", {"learning_rate": 1e200}, 3, "non-finite loss at epoch 1"),
    *[(model, {"gradient_mode": "finite-difference", "fd_step": 1e300}, 1,
       "non-finite parameters after the update at epoch 0") for model in ("qsa", "scsa", "lcsa")],
], ids=["scsa-learning-rate", "qsa-fd-step", "scsa-fd-step", "lcsa-fd-step"])
def test_numeric_failure_prints_only_the_typed_error(tmp_path, paths, capsys, model, settings, epochs, message):
    """An overflow in the forward, or in the perturbed forwards of a
    gradient, reaches the loss or the parameters as a NaN; numpy warns
    about none of it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, **settings}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--model", model, "--data", str(paths["classical"]), "--config", str(config),
                     "--epochs", str(epochs), "--out", str(tmp_path / "run")])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_names_the_dataset_the_model_does_not_fit(tmp_path, paths, capsys):
    wider = tmp_path / "c10.jsonl"
    assert main(["generate", "--kind", "classical", "--vocab", "10", "--len", "5", "--count", "4",
                 "--seed", "5", "--out", str(wider)]) == 0
    capsys.readouterr()
    out = tmp_path / "eval.json"
    code = main(["eval", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["classical"]),
                 str(wider), "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == f"error: model vocabulary 8 != dataset 10 from {wider}\n"
    assert not out.exists()


@pytest.mark.parametrize("fault, code, message", [
    ("malformed", 2, "malformed dataset: JSONDecodeError: Expecting property name enclosed in double quotes: "
                     "line 1 column 2 (char 1) in {bad}"),
    ("header_only", 2, "dataset holds no records in {bad}"),
    ("misfit", 4, "model vocabulary 8 != dataset 10 from {bad}"),
], ids=["malformed", "header-only", "misfit"])
def test_eval_names_the_second_dataset_that_breaks(tmp_path, paths, capsys, fault, code, message):
    bad = tmp_path / f"{fault}.jsonl"
    if fault == "misfit":
        assert main(["generate", "--kind", "classical", "--vocab", "10", "--len", "5", "--count", "4",
                     "--out", str(bad)]) == 0
        capsys.readouterr()
    else:
        header = paths["classical"].read_text().splitlines()[0]
        bad.write_text(header + "\n" + ("{\n" if fault == "malformed" else ""))
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["classical"]), str(bad),
                 "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {message.format(bad=bad)}\n"
    assert not out.exists()
    assert not list(tmp_path.glob("eval.json*"))


@pytest.mark.parametrize("name, calls", [("eval", 2), ("predict", 1)])
def test_inference_fit_checks_each_dataset_once(tmp_path, paths, monkeypatch, name, calls):
    fitted, checked = trainer._fitted_model, []
    monkeypatch.setattr(trainer, "_fitted_model",
                        lambda params, dataset: checked.append(dataset) or fitted(params, dataset))
    argv, _ = command(name, paths, tmp_path)  # eval reads two datasets, predict one
    assert main(argv) == 0
    assert len(checked) == calls

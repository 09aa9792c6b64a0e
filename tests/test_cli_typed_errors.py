"""Malformed inputs reachable from the command line end in their documented
exit code with one ``error:`` line on stderr, never a traceback: 2 for a
usage error or a path that cannot be read or written, 4 for a compatibility
error."""

import json

import pytest

from qsalab.cli import main


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("typed")
    made = {}
    for name, vocab, length in (("classical", 8, 5), ("three_steps", 8, 4), ("vocab4", 4, 5)):
        made[name] = root / f"{name}.jsonl"
        assert main(["generate", "--kind", "classical", "--vocab", str(vocab), "--len", str(length),
                     "--count", "4", "--seed", "5", "--out", str(made[name])]) == 0
    made["quantum"] = root / "quantum.jsonl"
    assert main(["generate", "--kind", "quantum", "--qubits", "3", "--len", "5",
                 "--count", "4", "--seed", "5", "--out", str(made["quantum"])]) == 0
    for data_name, run in (("classical", "run"), ("quantum", "qrun")):
        made[f"{data_name}_checkpoint"] = root / run / "checkpoint.json"
        assert main(["train", "--model", "lcsa", "--data", str(made[data_name]), "--epochs", "1",
                     "--out", str(root / run)]) == 0
    made["checkpoint"] = made["classical_checkpoint"]
    made["scsa_checkpoint"] = root / "srun" / "checkpoint.json"
    assert main(["train", "--model", "scsa", "--data", str(made["classical"]), "--epochs", "1",
                 "--out", str(root / "srun")]) == 0
    return made


def one_error_line(err: str) -> str:
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    assert "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("flags, message", [
    (["--kind", "classical", "--vocab", "8", "--len", "1"], "--len must be at least 2"),
    (["--kind", "classical", "--vocab", "8", "--qubits", "3", "--len", "5"], "--qubits applies only to quantum"),
    (["--kind", "quantum", "--len", "5"], "quantum data needs --qubits"),
    (["--kind", "quantum", "--vocab", "6", "--len", "5"], "--vocab must be a power of two"),
], ids=["len-1", "classical-qubits", "quantum-no-size", "quantum-vocab-6"])
def test_generate_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "d.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", *flags, "--count", "4", "--out", str(out)])
    assert excinfo.value.code == 2
    assert message in one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_config_schema_version_2_exits_4(tmp_path, files, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 2}))
    code = main(["train", "--model", "lcsa", "--data", str(files["classical"]), "--config", str(config),
                 "--out", str(tmp_path / "run")])
    assert code == 4
    assert "schema_version 2 unsupported" in one_error_line(capsys.readouterr().err)


def test_checkpoint_without_version_exits_4(tmp_path, files, capsys):
    doc = json.loads(files["checkpoint"].read_text())
    del doc["version"]
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "eval.json"
    code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(files["classical"]), "--out", str(out)])
    assert code == 4
    assert "version" in one_error_line(capsys.readouterr().err)
    assert not out.exists()


def train_exit(tmp_path, capsys, data_path, model="qsa", config=None):
    """(exit code, the one error line) of a ``train`` run on ``data_path``."""
    argv = ["train", "--model", model, "--data", str(data_path), "--epochs", "1", "--out", str(tmp_path / "run")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 1, **config}))
        argv += ["--config", str(path)]
    code = main(argv)
    return code, one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("data_name, config, message", [
    ("three_steps", None, "power-of-two step count"),
    ("classical", {"embed_dim": 3}, "power-of-two embed_dim"),
    ("vocab4", None, "embed_dim must be smaller than the vocabulary"),
], ids=["qsa-T3", "qsa-embed-dim-3", "vocab-4"])
def test_train_model_misfit_exits_2(tmp_path, files, capsys, data_name, config, message):
    code, line = train_exit(tmp_path, capsys, files[data_name], config=config)
    assert code == 2
    assert message in line
    assert not (tmp_path / "run" / "manifest.json").exists()


def header_only(lines):
    return lines[:1]


def empty(lines):
    return []


def word_outside_vocabulary(lines):
    record = json.loads(lines[1])
    record["words"][0] = 8
    return [lines[0], json.dumps(record), *lines[2:]]


def header_with(**fields):
    def corrupt(lines):
        return [json.dumps({**json.loads(lines[0]), **fields}), *lines[1:]]
    corrupt.__name__ = "header_" + "_".join(fields)
    return corrupt


def record_too_short(lines):
    record = json.loads(lines[1])
    record["words"] = record["words"][:-1]
    return [lines[0], json.dumps(record), *lines[2:]]


@pytest.mark.parametrize("corrupt, message", [
    (empty, "dataset file is empty"),
    (header_only, "dataset holds no records"),
    (word_outside_vocabulary, "outside the vocabulary"),
    (record_too_short, "length T+1"),
    (header_with(D=8.0), "dataset vocab_dim must be an integer"),
    (header_with(seed="x"), "dataset seed must be an integer"),
], ids=lambda case: getattr(case, "__name__", None))
def test_train_malformed_dataset_exits_2(tmp_path, files, capsys, corrupt, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(line + "\n" for line in corrupt(files["classical"].read_text().splitlines())))
    code, line = train_exit(tmp_path, capsys, bad, model="lcsa")
    assert code == 2
    assert message in line


# records of one word: no step to predict
NO_STEPS = {
    "train-qsa": "train --model qsa --data {data} --epochs 0 --out {out}",
    "train-scsa": "train --model scsa --data {data} --epochs 0 --out {out}",
    "train-lcsa": "train --model lcsa --data {data} --epochs 0 --out {out}",
    "eval-scsa": "eval --checkpoint {scsa_checkpoint} --data {data} --out {out}",
    "eval-lcsa": "eval --checkpoint {checkpoint} --data {data} --out {out}",
    "predict-scsa": "predict --checkpoint {scsa_checkpoint} --data {data} --out {out}",
    "predict-lcsa": "predict --checkpoint {checkpoint} --data {data} --out {out}",
}


@pytest.mark.parametrize("command", NO_STEPS.values(), ids=NO_STEPS.keys())
def test_dataset_without_steps_exits_2(tmp_path, files, capsys, command):
    data = tmp_path / "no_steps.jsonl"
    data.write_text(json.dumps({"kind": "classical", "D": 8, "T": 0, "seed": 1}) + "\n"
                    + "".join(json.dumps({"id": i, "words": [i]}) + "\n" for i in range(4)))
    paths = {"data": data, "out": tmp_path / "out", "checkpoint": files["checkpoint"],
             "scsa_checkpoint": files["scsa_checkpoint"]}
    assert main(command.format(**paths).split()) == 2
    assert "dataset T must be at least 1, got 0" in one_error_line(capsys.readouterr().err)
    assert not list(tmp_path.rglob("*manifest.json"))


@pytest.mark.parametrize("data_name", ["classical", "quantum"])
def test_predict_on_header_only_dataset_exits_2(tmp_path, files, capsys, data_name):
    bad = tmp_path / "header_only.jsonl"
    bad.write_text(files[data_name].read_text().splitlines()[0] + "\n")
    out = tmp_path / "pred.json"
    code = main(["predict", "--checkpoint", str(files[f"{data_name}_checkpoint"]), "--data", str(bad),
                 "--out", str(out)])
    assert code == 2
    assert "prediction needs a non-empty dataset" in one_error_line(capsys.readouterr().err)
    assert not out.exists()


# {dir} is an existing directory, {file} an existing file, {latin1} a file
# that is not UTF-8 text and {out} a path that does not exist yet
PATH_CASES = {
    "generate-out-dir": ("generate --kind classical --vocab 8 --len 5 --count 4 --out {dir}", 2, "Is a directory"),
    "eval-out-dir": ("eval --checkpoint {checkpoint} --data {data} --out {dir}", 2, "Is a directory"),
    "predict-out-dir": ("predict --checkpoint {checkpoint} --data {data} --out {dir}", 2, "Is a directory"),
    "train-data-dir": ("train --model lcsa --data {dir} --out {out}", 2, "Is a directory"),
    "predict-data-dir": ("predict --checkpoint {checkpoint} --data {dir} --out {out}", 2, "Is a directory"),
    "eval-checkpoint-dir": ("eval --checkpoint {dir} --data {data} --out {out}", 2, "Is a directory"),
    "train-out-file": ("train --model lcsa --data {data} --epochs 1 --out {file}", 2, "File exists"),
    "dataset-not-utf8": ("train --model lcsa --data {latin1} --out {out}", 2, "is not UTF-8 text"),
    "config-not-utf8": ("train --model lcsa --data {data} --config {latin1} --out {out}", 2, "is not UTF-8 text"),
    "checkpoint-not-utf8": ("predict --checkpoint {latin1} --data {data} --out {out}", 4, "is not UTF-8 text"),
}


@pytest.mark.parametrize("command, code, message", PATH_CASES.values(), ids=PATH_CASES.keys())
def test_unusable_path_exits_with_its_code(tmp_path, files, capsys, command, code, message):
    paths = {"dir": tmp_path / "taken", "file": tmp_path / "taken.txt", "latin1": tmp_path / "latin1.json",
             "out": tmp_path / "out", "data": files["classical"], "checkpoint": files["checkpoint"]}
    paths["dir"].mkdir()
    paths["file"].write_text("taken\n")
    paths["latin1"].write_bytes('{"schema_version": 1, "note": "caf\xe9"}\n'.encode("latin-1"))
    assert main(command.format(**paths).split()) == code
    assert message in one_error_line(capsys.readouterr().err)
    assert not list(tmp_path.rglob("*manifest.json"))
    assert not list(tmp_path.rglob("*.tmp"))

"""Malformed inputs reachable from the command line end in their documented
exit code with one ``error:`` line on stderr, never a traceback: 2 for a
usage error or a path that cannot be read or written, 4 for a compatibility
error."""

import errno
import json
import math
import os
from dataclasses import replace

import pytest

from qsalab.ansatz import AnsatzParams, PhaseLayerParams
from qsalab.classical import LcsaParams, ScsaParams
from qsalab.cli import main
from qsalab.trainer import load_checkpoint, params_to_payload

from pinned import FIXTURES


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
    for model in ("scsa", "qsa"):
        made[f"{model}_checkpoint"] = root / model / "checkpoint.json"
        assert main(["train", "--model", model, "--data", str(made["classical"]), "--epochs", "1",
                     "--out", str(root / model)]) == 0
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
    (["--kind", "quantum", "--vocab", "16", "--len", "5"], "--vocab applies only to classical"),
    (["--kind", "quantum", "--qubits", "2", "--len", "3", "--order", "5"], "--order applies only to classical"),
], ids=["len-1", "classical-qubits", "quantum-no-size", "quantum-vocab-16", "quantum-order"])
def test_generate_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "d.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", *flags, "--count", "4", "--out", str(out)])
    assert excinfo.value.code == 2
    assert message in one_error_line(capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--kind", "classical", "--vocab", "8", "--len", "5", "--count", "0"],
     "count must be an integer in 1..9223372036854775807, got 0"),
    (["--kind", "quantum", "--qubits", "2", "--len", "5", "--count", "0"],
     "count must be an integer in 1..9223372036854775807, got 0"),
    (["--kind", "classical", "--vocab", "1", "--len", "5", "--count", "4"], "vocabulary needs at least two words"),
    (["--kind", "classical", "--vocab", "8", "--order", "0", "--len", "5", "--count", "4"],
     "order must be an integer in 1..8, got 0"),
    (["--kind", "quantum", "--qubits", "2", "--len", "5", "--count", "100000000000000000000"],
     "count must be an integer in 1..9223372036854775807, got 100000000000000000000"),
    (["--kind", "quantum", "--qubits", "2", "--len", "100000000000000000000", "--count", "1"],
     "dataset T must be an integer in 1..9223372036854775807, got 99999999999999999999"),
    (["--kind", "classical", "--vocab", "100000000000", "--len", "3", "--count", "1"],
     "a 100000000000-word transition matrix is too large to allocate"),
    (["--kind", "classical", "--vocab", "10", "--len", "100000000000000000000", "--count", "1"],
     "dataset T must be an integer in 1..9223372036854775807, got 99999999999999999999"),
    (["--kind", "classical", "--vocab", "10", "--len", "5", "--count", "1000000000000000"],
     "a (1000000000000000, 5) word array is too large to allocate"),
    (["--kind", "quantum", "--qubits", "100000", "--len", "5", "--count", "1"],
     "num_qubits must be an integer in 1..10, got 100000"),
], ids=["classical-count-0", "quantum-count-0", "vocab-1", "order-0", "quantum-count-huge", "quantum-len-huge",
        "oversized-vocabulary", "overlong-walk", "classical-count-huge", "quantum-qubits-huge"])
def test_generate_size_out_of_range_exits_2(tmp_path, capsys, flags, message):
    """Sizes argparse accepts but the generators refuse.  A count or a step
    count beyond int64 (10^20 records or steps) is refused by the one integer
    rule; the oversized ones within it (a 10^22-entry transition matrix, 10^15
    classical records): numpy refuses the shape before it allocates anything,
    so no walk starts.  An oversized qubit count is refused before its
    couplings are drawn."""
    out = tmp_path / "d.jsonl"
    assert main(["generate", *flags, "--out", str(out)]) == 2
    assert one_error_line(capsys.readouterr().err) == f"error: {message}"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("document, version", [("checkpoint", True), ("checkpoint", 1.0),
                                               ("config", True), ("config", 1.0)])
def test_version_that_only_equals_one_exits_4(tmp_path, files, capsys, document, version):
    """JSON true and 1.0 compare equal to 1 in Python, but neither is the integer version 1."""
    if document == "checkpoint":
        doc = json.loads(files["checkpoint"].read_text())
        doc["version"] = version
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(files["classical"]),
                "--out", str(tmp_path / "eval.json")]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": version}))
        argv = ["train", "--model", "lcsa", "--data", str(files["classical"]), "--config", str(config),
                "--out", str(tmp_path / "run")]
    assert main(argv) == 4
    assert f"version {version} " in one_error_line(capsys.readouterr().err)
    assert not list(tmp_path.rglob("*manifest.json"))


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("field, value, message", [
    ("seed", "x", "checkpoint field seed 'x' is not of type int"),
    ("seed", True, "checkpoint field seed True is not of type int"),
    ("seed", -5, "seed must be non-negative, got -5"),
    ("seed", 1.5, "checkpoint field seed 1.5 is not of type int"),
    ("seed", None, "checkpoint field seed None is not of type int"),
    ("seed", [1, 2], "checkpoint field seed [1, 2] is not of type int"),
    ("data_kind", "other", "unknown dataset kind 'other'"),
    ("model_kind", "xyz", "model_kind must be one of ('qsa', 'scsa', 'lcsa'), got 'xyz'"),
    ("config_hash", 5, "checkpoint field config_hash 5 is not of type str"),
], ids=["seed-str", "seed-true", "seed-negative", "seed-float", "seed-null", "seed-list", "data-kind-other",
        "model-kind-xyz", "config-hash-int"])
def test_checkpoint_with_malformed_identity_exits_4(tmp_path, files, capsys, command, field, value, message):
    """The identity fields beside the params are read by their declared types
    and rules, so none reaches an output or a manifest unchecked."""
    doc = json.loads(files["checkpoint"].read_text())
    doc[field] = value
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = main([command, "--checkpoint", str(checkpoint), "--data", str(files["classical"]), "--out", str(out)])
    assert code == 4
    assert message in one_error_line(capsys.readouterr().err)
    assert not out.exists()
    assert not list(tmp_path.rglob("*manifest.json"))


@pytest.mark.parametrize("fixture", sorted(path.name for path in FIXTURES.glob("checkpoint_v1_*.json")))
def test_checkpoint_whose_data_kind_disagrees_with_its_params_exits_4(tmp_path, files, capsys, fixture):
    """A checkpoint's data_kind must be the kind its embedding was made for
    (complex for quantum data): an edited one is refused when the checkpoint
    loads, not reported as a dataset of the wrong kind."""
    doc = json.loads((FIXTURES / fixture).read_text())
    own = doc["data_kind"]
    doc["data_kind"] = other = {"classical": "quantum", "quantum": "classical"}[own]
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc, sort_keys=True))
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(files[own]), "--out", str(out)]) == 4
    assert one_error_line(capsys.readouterr().err) == f"error: checkpoint data_kind {other!r} disagrees with its params"
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("route", ["flag", "config", "checkpoint"])
def test_non_finite_float_is_named_non_finite(tmp_path, files, capsys, route, value):
    """A float field that is NaN or infinite is reported as not finite, not as
    mistyped: from the --learning-rate flag and a config's gamma (exit 2) and
    from a checkpoint's gamma (exit 4)."""
    out = tmp_path / "out"
    if route == "checkpoint":
        doc = json.loads(files["checkpoint"].read_text())
        doc["params"]["embedding"]["gamma"] = value
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        argv = ["eval", "--checkpoint", str(path), "--data", str(files["classical"]), "--out", str(out)]
        code, message = 4, f"checkpoint field gamma {value!r} is not finite"
    else:
        argv = ["train", "--model", "lcsa", "--data", str(files["classical"]), "--out", str(out)]
        if route == "flag":
            argv.append(f"--learning-rate={value!r}")  # "-inf" as a separate word would read as an option
        else:
            (tmp_path / "config.json").write_text(json.dumps({"gamma": value}))
            argv += ["--config", str(tmp_path / "config.json")]
        name = "learning_rate" if route == "flag" else "gamma"
        code, message = 2, f"{name} must be finite, got {value!r}"
    assert main(argv) == code
    assert one_error_line(capsys.readouterr().err) == f"error: {message}"
    assert not out.exists()


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("target, code, message", [
    ("checkpoint", 4, "checkpoint is not valid JSON: maximum recursion depth exceeded"),
    ("config", 2, "config file is not valid JSON: maximum recursion depth exceeded"),
    ("header", 2, "malformed dataset: RecursionError: maximum recursion depth exceeded"),
    ("record", 2, "malformed dataset: RecursionError: maximum recursion depth exceeded"),
], ids=["checkpoint", "config", "header", "record"])
def test_deeply_nested_json_exits_with_its_code(tmp_path, files, capsys, target, code, message):
    """json refuses nesting past the interpreter's recursion limit with a
    RecursionError, which each reader maps as it maps invalid JSON."""
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON + "\n")
    data, out = files["classical"], tmp_path / "out"
    if target in ("header", "record"):
        header, *records = files["classical"].read_text().splitlines()
        lines = [DEEP_JSON, *records] if target == "header" else [header, DEEP_JSON, *records]
        data = tmp_path / "deep.jsonl"
        data.write_text("".join(line + "\n" for line in lines))
    if target == "checkpoint":
        argv = ["eval", "--checkpoint", str(deep), "--data", str(data), "--out", str(out)]
    else:
        argv = ["train", "--model", "lcsa", "--data", str(data), "--epochs", "1", "--out", str(out)]
        argv += ["--config", str(deep)] * (target == "config")
    assert main(argv) == code
    assert message in one_error_line(capsys.readouterr().err)
    assert not out.exists()
    assert not list(tmp_path.rglob("*manifest.json"))


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_with_negative_depth_exits_4(tmp_path, files, capsys, command):
    doc = json.loads(files["qsa_checkpoint"].read_text())
    doc["params"]["qsa"]["v"]["num_layers"] = -1
    doc["params"]["qsa"]["v"]["angles"] = {"shape": [0, 2, 2], "complex": False, "data": []}
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = main([command, "--checkpoint", str(checkpoint), "--data", str(files["classical"]), "--out", str(out)])
    assert code == 4
    assert "num_layers must be non-negative" in one_error_line(capsys.readouterr().err)
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
    ("three_steps", None, "step count 3 is not a power of two >= 2"),
    ("classical", {"embed_dim": 3}, "token dimension 3 is not a power of two >= 2"),
    ("vocab4", None, "embed_dim must be smaller than the vocabulary"),
], ids=["qsa-T3", "qsa-embed-dim-3", "vocab-4"])
def test_train_model_misfit_exits_2(tmp_path, files, capsys, data_name, config, message):
    code, line = train_exit(tmp_path, capsys, files[data_name], config=config)
    assert code == 2
    assert message in line
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("model, config, message", [
    ("qsa", {"num_layers": 10 ** 15}, "num_layers 1000000000000000"),
    ("scsa", {"key_dim": 10 ** 15}, "key_dim 1000000000000000"),
    ("scsa", {"ffn_hidden": 10 ** 15}, "ffn_hidden 1000000000000000"),
    ("qsa", {"shots": 2 ** 63}, "shots must be an integer in 1..9223372036854775807, got 9223372036854775808"),
], ids=["qsa-layers", "scsa-key-dim", "scsa-ffn-hidden", "shots"])
def test_train_oversized_config_exits_2(tmp_path, files, capsys, model, config, message):
    """Petabyte-scale parameter arrays, which numpy refuses without
    allocating, and a shot count numpy cannot draw as an int64."""
    code, line = train_exit(tmp_path, capsys, files["classical"], model=model, config=config)
    assert code == 2
    assert message in line
    assert not (tmp_path / "run" / "manifest.json").exists()


def misfit_params(params):
    """Each array of ``params``' kind replaced by a self-consistent one that
    does not fit the classical data (T=4, d=4, D=8), with the words the
    error names."""
    if params.model_kind == "qsa":
        layers = params.v_params.num_layers
        return [({"v_params": AnsatzParams.random(3, layers, 1)}, "qsa V acts on 3 qubits, register A has 2"),
                ({"w_params": AnsatzParams.random(1, layers, 1)}, "qsa W acts on 1 qubits, register B has 2"),
                ({"r_params": PhaseLayerParams.random(3, 1)}, "qsa phase layer acts on 3 qubits, register C has 2")]
    if params.model_kind == "scsa":
        return [({"scsa": ScsaParams.random(4, 16, 1)}, "scsa anti-embedding covers 16 words, the embedding 8")]
    return [({"lcsa": LcsaParams.near_identity(8, 1)}, "lcsa arrays act on 8-dimensional tokens, the embedding on 4")]


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("checkpoint", ["qsa_checkpoint", "scsa_checkpoint", "checkpoint"])
def test_checkpoint_arrays_that_misfit_the_data_exit_4(tmp_path, files, capsys, command, checkpoint):
    params, _ = load_checkpoint(files[checkpoint])
    doc = json.loads(files[checkpoint].read_text())
    for parts, message in misfit_params(params):
        doc["params"] = params_to_payload(replace(params, **parts))
        path = tmp_path / "misfit.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main([command, "--checkpoint", str(path), "--data", str(files["classical"]), "--out", str(out)]) == 4
        assert message in one_error_line(capsys.readouterr().err)
        assert not out.exists()


def header_only(lines):
    return lines[:1]


def empty(lines):
    return []


def word_outside_vocabulary(lines):
    record = json.loads(lines[1])
    record["words"][0] = 8
    return [lines[0], json.dumps(record), *lines[2:]]


def negative_word(lines):
    record = json.loads(lines[1])
    record["words"][0] = -1
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


def classical_kind_other(lines):
    return header_with(kind="other")(lines)


def header_list(lines):
    return [json.dumps([json.loads(lines[0])["kind"]]), *lines[1:]]


def quantum(corrupt):
    """Mark ``corrupt`` as a corruption of the quantum dataset (D=8, T=4)."""
    corrupt.data_name = "quantum"
    return corrupt


def steps_changed(change):
    """A corruption of the quantum dataset that edits its first record's [re, im] rows in place."""
    def corrupt(lines):
        record = json.loads(lines[1])
        change(record["steps"])
        return [lines[0], json.dumps(record), *lines[2:]]
    corrupt.__name__ = change.__name__
    return quantum(corrupt)


@steps_changed
def rows_too_narrow(steps):
    for row in steps:
        row.pop()


@steps_changed
def ragged_rows(steps):
    steps[0].pop()


@steps_changed
def three_number_entry(steps):
    steps[0][0].append(0.0)


@pytest.mark.parametrize("corrupt, message", [
    (empty, "dataset file is empty"),
    (header_only, "dataset holds no records"),
    (word_outside_vocabulary, "outside the vocabulary"),
    (negative_word, "outside the vocabulary"),
    (record_too_short, "length T+1"),
    (header_with(D=8.0), "dataset vocab_dim must be an integer"),
    (header_with(seed="x"), "dataset seed must be an integer"),
    (quantum(header_with(kind="other")), "unknown dataset kind 'other'"),
    (classical_kind_other, "unknown dataset kind 'other'"),
    (header_list, "dataset header must be a JSON object, got list"),
    (rows_too_narrow, "quantum records must be (T+1, D) amplitude rows"),
    (ragged_rows, "quantum records must be (T+1, D) amplitude rows"),
    (three_number_entry, "quantum records must be (T+1, D) amplitude rows"),
], ids=lambda case: getattr(case, "__name__", None))
def test_train_malformed_dataset_exits_2(tmp_path, files, capsys, corrupt, message):
    bad = tmp_path / "bad.jsonl"
    source = files[getattr(corrupt, "data_name", "classical")]
    bad.write_text("".join(line + "\n" for line in corrupt(source.read_text().splitlines())))
    code, line = train_exit(tmp_path, capsys, bad, model="lcsa")
    assert code == 2
    assert message in line
    assert line.endswith(f" in {bad}")


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
    assert "dataset T must be an integer in 1..9223372036854775807, got 0 in " in one_error_line(capsys.readouterr().err)
    assert not list(tmp_path.rglob("*manifest.json"))


@pytest.mark.parametrize("data_name", ["classical", "quantum"])
def test_predict_on_header_only_dataset_exits_2(tmp_path, files, capsys, data_name):
    bad = tmp_path / "header_only.jsonl"
    bad.write_text(files[data_name].read_text().splitlines()[0] + "\n")
    out = tmp_path / "pred.json"
    code = main(["predict", "--checkpoint", str(files[f"{data_name}_checkpoint"]), "--data", str(bad),
                 "--out", str(out)])
    assert code == 2
    assert one_error_line(capsys.readouterr().err) == f"error: dataset holds no records in {bad}"
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


@pytest.mark.parametrize("command, target, code", [
    ("generate --kind classical --vocab 8 --len 5 --count 4 --out {missing}", "missing", errno.ENOENT),
    ("eval --checkpoint {checkpoint} --data {data} --out {dir}", "dir", errno.EISDIR),
], ids=["generate-out-in-missing-dir", "eval-out-dir"])
def test_unwritable_out_error_names_the_given_path(tmp_path, files, capsys, command, target, code):
    """The error names the path on the command line, not the temp file written beside it."""
    paths = {"missing": tmp_path / "missing" / "d.jsonl", "dir": tmp_path / "taken",
             "data": files["classical"], "checkpoint": files["checkpoint"]}
    paths["dir"].mkdir()
    assert main(command.format(**paths).split()) == 2
    expected = f"error: [Errno {code}] {os.strerror(code)}: {str(paths[target])!r}"
    assert one_error_line(capsys.readouterr().err) == expected
    assert not list(tmp_path.rglob("*manifest.json"))
    assert not list(tmp_path.rglob("*.tmp"))

import json

import numpy as np
import pytest

from qsalab.cli import _build_parser, main
from qsalab.data import load_dataset

from pinned import FIXTURES


def run(argv):
    return main(argv)


class TestGenerate:
    def test_classical_file_structure(self, tmp_path):
        out = tmp_path / "d.jsonl"
        code = run([
            "generate", "--kind", "classical", "--vocab", "10", "--len", "5",
            "--count", "30", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "classical" and header["D"] == 10
        assert len(lines) == 31  # header + records
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert str(out) in manifest["outputs"]
        assert manifest["wall_time_s"] is None

    def test_quantum_unit_norm_steps(self, tmp_path):
        out = tmp_path / "q.jsonl"
        code = run([
            "generate", "--kind", "quantum", "--qubits", "3", "--len", "5",
            "--count", "10", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        ds = load_dataset(out)
        for rec in ds.records:
            assert np.max(np.abs(np.linalg.norm(rec, axis=1) - 1.0)) < 1e-10

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["generate", "--kind", "classical", "--vocab", "10", "--len", "5", "--count", "3"])
        assert excinfo.value.code == 2

    def test_conflicting_vocab_qubits(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run([
                "generate", "--kind", "quantum", "--qubits", "3", "--vocab", "10",
                "--len", "5", "--count", "3", "--out", str(tmp_path / "x.jsonl"),
            ])
        assert excinfo.value.code == 2

    def test_rerun_identical_bytes(self, tmp_path):
        args = [
            "generate", "--kind", "classical", "--vocab", "8", "--len", "5",
            "--count", "20", "--seed", "3",
        ]
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(args + ["--out", str(out_a)])
        run(args + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


@pytest.fixture(scope="module")
def small_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.jsonl"
    run([
        "generate", "--kind", "classical", "--vocab", "8", "--len", "5",
        "--count", "12", "--seed", "5", "--out", str(path),
    ])
    return path


class TestTrain:
    def test_outputs_and_reproducibility(self, tmp_path, small_dataset_path):
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        args = [
            "train", "--model", "qsa", "--data", str(small_dataset_path),
            "--epochs", "2", "--seed", "9",
        ]
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        csv_a = (out_a / "loss.csv").read_bytes()
        assert csv_a == (out_b / "loss.csv").read_bytes()
        assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()
        lines = csv_a.decode().splitlines()
        assert lines[0] == "epoch,train_loss_offset,train_loss,perplexity,grad_norm,seconds"
        epochs = [int(line.split(",")[0]) for line in lines[1:]]
        assert epochs == sorted(epochs) == list(range(3))

    def test_config_file_with_flag_override(self, tmp_path, small_dataset_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"schema_version": 1, "epochs": 7, "seed": 2}))
        out = tmp_path / "run"
        assert run([
            "train", "--model", "lcsa", "--data", str(small_dataset_path),
            "--config", str(config_path), "--epochs", "1", "--out", str(out),
        ]) == 0
        lines = (out / "loss.csv").read_text().splitlines()
        assert len(lines) == 3  # header + epochs 0..1: the flag overrode the file
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1
        assert manifest["config"]["seed"] == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, small_dataset_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"schema_version": 1, "mystery": True}))
        with pytest.raises(SystemExit) as excinfo:
            run([
                "train", "--model", "lcsa", "--data", str(small_dataset_path),
                "--config", str(config_path), "--out", str(tmp_path / "run"),
            ])
        assert excinfo.value.code == 2


class TestEvalPredict:
    @pytest.fixture()
    def trained(self, tmp_path, small_dataset_path):
        out = tmp_path / "run"
        run([
            "train", "--model", "lcsa", "--data", str(small_dataset_path),
            "--epochs", "2", "--seed", "4", "--out", str(out),
        ])
        return out / "checkpoint.json"

    def test_eval_report_fields(self, tmp_path, small_dataset_path, trained):
        test_sets = []
        for seed in (31, 32, 33):
            path = tmp_path / f"test_{seed}.jsonl"
            run([
                "generate", "--kind", "classical", "--vocab", "8", "--len", "5",
                "--count", "10", "--seed", str(seed), "--out", str(path),
            ])
            test_sets.append(str(path))
        out = tmp_path / "eval.json"
        assert run(["eval", "--checkpoint", str(trained), "--data", *test_sets, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "mean" in doc and "stdev" in doc
        assert len(doc["per_set"]) == 3

    def test_eval_kind_mismatch_exit_code(self, tmp_path, trained):
        qpath = tmp_path / "q.jsonl"
        run([
            "generate", "--kind", "quantum", "--qubits", "3", "--len", "5",
            "--count", "4", "--seed", "2", "--out", str(qpath),
        ])
        out = tmp_path / "eval.json"
        assert run(["eval", "--checkpoint", str(trained), "--data", str(qpath), "--out", str(out)]) == 4

    def test_cross_model_checkpoint_rejected(self, tmp_path, small_dataset_path, trained):
        # corrupt the declared kind: loading for eval still works (kind stored
        # top-level) but a truncated payload must fail with exit 4
        broken = tmp_path / "broken.json"
        broken.write_text((trained).read_text()[:100])
        out = tmp_path / "eval.json"
        assert run(["eval", "--checkpoint", str(broken), "--data", str(small_dataset_path), "--out", str(out)]) == 4

    def test_predict_output_shape(self, tmp_path, small_dataset_path, trained):
        out = tmp_path / "pred.json"
        assert run([
            "predict", "--checkpoint", str(trained), "--data", str(small_dataset_path),
            "--top-k", "2", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["top_k"] == 2
        first = doc["records"][0]["steps"][0]
        assert {"position", "top"} <= set(first)
        assert len(first["top"]) == 2


class TestAudit:
    def test_audit_writes_three_tables(self, tmp_path):
        out = tmp_path / "audit"
        assert run(["audit", "--out", str(out)]) == 0
        slopes = (out / "slopes.csv").read_text().splitlines()
        assert slopes[0] == "variant,axis,points,slope,expected"
        for line in slopes[1:]:
            cells = line.split(",")
            assert abs(float(cells[3]) - float(cells[4])) < 0.15
        crossover = (out / "crossover.csv").read_text().splitlines()
        assert crossover[0] == "T,d,D,L,winner,total"
        counts = (out / "gate_counts.csv").read_text().splitlines()
        assert counts[0] == "variant,T,d,D,L,term,count"

    def test_audit_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["audit", "--out", str(out_a)])
        run(["audit", "--out", str(out_b)])
        assert (out_a / "slopes.csv").read_bytes() == (out_b / "slopes.csv").read_bytes()
        assert (out_a / "crossover.csv").read_bytes() == (out_b / "crossover.csv").read_bytes()


class TestNumericFailure:
    def test_nan_abort_writes_diagnostic_and_exits_3(self, tmp_path, small_dataset_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"schema_version": 1, "learning_rate": 1e200}))
        out = tmp_path / "run"
        code = run([
            "train", "--model", "scsa", "--data", str(small_dataset_path),
            "--config", str(config_path), "--epochs", "3", "--out", str(out),
        ])
        assert code == 3
        diagnostic = json.loads((out / "diagnostic.json").read_text())
        assert diagnostic["model_kind"] == "scsa"
        assert not (out / "checkpoint.json").exists()


class TestTypedFileErrors:
    def _train(self, tmp_path, data_path):
        return run([
            "train", "--model", "lcsa", "--data", str(data_path),
            "--epochs", "1", "--out", str(tmp_path / "run"),
        ])

    def test_truncated_dataset_line_exits_2(self, tmp_path, small_dataset_path):
        lines = small_dataset_path.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:3] + [lines[3][: len(lines[3]) // 2]]) + "\n")
        assert self._train(tmp_path, bad) == 2

    def test_record_without_words_exits_2(self, tmp_path, small_dataset_path):
        lines = small_dataset_path.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:2] + [json.dumps({"id": 1})] + lines[3:]) + "\n")
        assert self._train(tmp_path, bad) == 2

    def test_checkpoint_without_params_exits_4(self, tmp_path, small_dataset_path):
        assert self._train(tmp_path, small_dataset_path) == 0
        doc = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        del doc["params"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "eval.json"
        assert run(["eval", "--checkpoint", str(bad), "--data", str(small_dataset_path), "--out", str(out)]) == 4

    def test_nan_learning_rate_exits_2(self, tmp_path, small_dataset_path):
        code = run([
            "train", "--model", "lcsa", "--data", str(small_dataset_path),
            "--learning-rate", "nan", "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert not (tmp_path / "run" / "diagnostic.json").exists()


class TestDegeneratePrediction:
    @pytest.fixture()
    def zero_value_map(self, tmp_path, small_dataset_path):
        out = tmp_path / "run"
        assert run([
            "train", "--model", "lcsa", "--data", str(small_dataset_path),
            "--epochs", "0", "--out", str(out),
        ]) == 0
        path = out / "checkpoint.json"
        doc = json.loads(path.read_text())
        value_map = doc["params"]["lcsa"]["value_map"]
        value_map["data"] = [0.0] * len(value_map["data"])
        path.write_text(json.dumps(doc, sort_keys=True))
        return path

    def test_eval_exits_3(self, tmp_path, small_dataset_path, zero_value_map):
        out = tmp_path / "eval.json"
        code = run(["eval", "--checkpoint", str(zero_value_map), "--data", str(small_dataset_path),
                    "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_predict_exits_3_instead_of_writing_nan(self, tmp_path, small_dataset_path, zero_value_map):
        out = tmp_path / "pred.json"
        code = run(["predict", "--checkpoint", str(zero_value_map), "--data", str(small_dataset_path),
                    "--out", str(out)])
        assert code == 3
        assert not out.exists()


class TestConfigFileErrors:
    def _train(self, tmp_path, data_path, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        return run([
            "train", "--model", "lcsa", "--data", str(data_path),
            "--config", str(config_path), "--out", str(tmp_path / "run"),
        ])

    def test_truncated_config_exits_2(self, tmp_path, small_dataset_path):
        assert self._train(tmp_path, small_dataset_path, '{"epochs": 1') == 2

    def test_config_list_exits_2(self, tmp_path, small_dataset_path):
        assert self._train(tmp_path, small_dataset_path, '[{"epochs": 1}]') == 2


class TestArraysAgainstEmbedding:
    """Checkpoints whose kind arrays do not fit the embedding dimension end
    in exit 4, not a numpy traceback."""

    @pytest.fixture(scope="class")
    def quantum_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("data") / "quantum.jsonl"
        assert run([
            "generate", "--kind", "quantum", "--qubits", "3", "--len", "5",
            "--count", "4", "--seed", "4", "--out", str(path),
        ]) == 0
        return path

    @pytest.fixture()
    def small_lcsa_maps(self, tmp_path):
        doc = json.loads((FIXTURES / "checkpoint_v1_lcsa.json").read_text())
        for name in ("value_map", "affinity_map"):
            doc["params"]["lcsa"][name] = {"shape": [2, 2], "complex": True, "data": [1.0, 0.0, 0.0, 0.0] * 2}
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        return path

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_lcsa_maps_smaller_than_embedding_exit_4(self, tmp_path, quantum_path, small_lcsa_maps, command):
        out = tmp_path / "out.json"
        code = run([command, "--checkpoint", str(small_lcsa_maps), "--data", str(quantum_path), "--out", str(out)])
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["qsa", "scsa"])
    def test_qsa_qubits_and_scsa_vocabulary_checked(self, tmp_path, small_dataset_path, kind):
        doc = json.loads((FIXTURES / f"checkpoint_v1_{kind}.json").read_text())
        if kind == "qsa":
            doc["params"]["qsa"]["v"].update(
                num_qubits=1, angles={"shape": [6, 1, 2], "complex": False, "data": [0.1] * 12}
            )
        else:
            doc["params"]["scsa"]["anti_embed"] = {"shape": [4, 4], "complex": False, "data": [0.1] * 16}
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        out = tmp_path / "out.json"
        assert run(["eval", "--checkpoint", str(path), "--data", str(small_dataset_path), "--out", str(out)]) == 4


class TestCircuitOnlySettings:
    """Shot sampling and the dense circuit route measure qsa's circuit; the
    classical baselines have none, so asking for either is a usage error."""

    @pytest.mark.parametrize("kind", ["scsa", "lcsa"])
    @pytest.mark.parametrize("setting", [{"shots": 64}, {"expectation_route": "circuit"}])
    def test_baseline_with_circuit_setting_exits_2(self, tmp_path, small_dataset_path, kind, setting):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(setting))
        out = tmp_path / "run"
        code = run([
            "train", "--model", kind, "--data", str(small_dataset_path),
            "--config", str(config_path), "--epochs", "1", "--out", str(out),
        ])
        assert code == 2
        assert not (out / "loss.csv").exists()


class TestNegativeSeed:
    """numpy's generators refuse a negative seed; the CLI reports it as a
    usage error (exit 2) before writing anything."""

    @pytest.mark.parametrize(
        "kind_args", [["--kind", "classical", "--vocab", "8"], ["--kind", "quantum", "--qubits", "3"]]
    )
    def test_generate_exits_2(self, tmp_path, kind_args):
        out = tmp_path / "d.jsonl"
        code = run(["generate", *kind_args, "--len", "5", "--count", "3", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_train_flag_exits_2(self, tmp_path, small_dataset_path):
        out = tmp_path / "run"
        code = run([
            "train", "--model", "qsa", "--data", str(small_dataset_path),
            "--epochs", "1", "--seed", "-3", "--out", str(out),
        ])
        assert code == 2
        assert not (out / "loss.csv").exists()

    def test_train_config_exits_2(self, tmp_path, small_dataset_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": -5}))
        out = tmp_path / "run"
        code = run([
            "train", "--model", "lcsa", "--data", str(small_dataset_path),
            "--config", str(config_path), "--epochs", "1", "--out", str(out),
        ])
        assert code == 2
        assert not (out / "loss.csv").exists()


def test_predict_top_k_above_vocabulary_exits_2(tmp_path, small_dataset_path):
    checkpoint = tmp_path / "run" / "checkpoint.json"
    run([
        "train", "--model", "lcsa", "--data", str(small_dataset_path),
        "--epochs", "0", "--out", str(checkpoint.parent),
    ])
    out = tmp_path / "pred.json"
    args = ["predict", "--checkpoint", str(checkpoint), "--data", str(small_dataset_path), "--out", str(out)]
    assert run([*args, "--top-k", "9"]) == 2  # the set has 8 words
    assert not out.exists()
    assert run([*args, "--top-k", "8"]) == 0
    assert len(json.loads(out.read_text())["records"][0]["steps"][0]["top"]) == 8


class TestParserReuse:
    """The argparse tree is built once per process and shared by every call."""

    @pytest.fixture()
    def checkpoint(self, tmp_path, small_dataset_path):
        out = tmp_path / "run"
        assert run(["train", "--model", "lcsa", "--data", str(small_dataset_path),
                    "--epochs", "0", "--out", str(out)]) == 0
        return out / "checkpoint.json"

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_flag_does_not_leak_into_the_next_call(self, tmp_path, small_dataset_path, checkpoint):
        args = ["predict", "--checkpoint", str(checkpoint), "--data", str(small_dataset_path)]
        assert run([*args, "--top-k", "5", "--out", str(tmp_path / "five.json")]) == 0
        assert run([*args, "--out", str(tmp_path / "default.json")]) == 0
        assert json.loads((tmp_path / "five.json").read_text())["top_k"] == 5
        assert json.loads((tmp_path / "default.json").read_text())["top_k"] == 3
        assert _build_parser().parse_args([*args, "--out", "x"]).top_k == 3

    def test_exit_codes_hold_across_repeated_calls(self, tmp_path, small_dataset_path, checkpoint):
        bad_config = tmp_path / "config.json"
        bad_config.write_text("[]")
        zero_maps = tmp_path / "zero.json"
        doc = json.loads(checkpoint.read_text())
        value_map = doc["params"]["lcsa"]["value_map"]
        value_map["data"] = [0.0] * len(value_map["data"])
        zero_maps.write_text(json.dumps(doc, sort_keys=True))
        quantum = tmp_path / "q.jsonl"
        assert run(["generate", "--kind", "quantum", "--qubits", "3", "--len", "5",
                    "--count", "4", "--seed", "2", "--out", str(quantum)]) == 0
        commands = {
            2: ["train", "--model", "lcsa", "--data", str(small_dataset_path),
                "--config", str(bad_config), "--out", str(tmp_path / "never")],
            3: ["eval", "--checkpoint", str(zero_maps), "--data", str(small_dataset_path),
                "--out", str(tmp_path / "e3.json")],
            4: ["eval", "--checkpoint", str(checkpoint), "--data", str(quantum),
                "--out", str(tmp_path / "e4.json")],
        }
        for _ in range(3):
            for code, argv in commands.items():
                assert run(argv) == code
            with pytest.raises(SystemExit) as excinfo:
                run(["generate", "--kind", "classical", "--len", "5", "--count", "3",
                     "--out", str(tmp_path / "x.jsonl")])
            assert excinfo.value.code == 2
        assert run(["eval", "--checkpoint", str(checkpoint), "--data", str(small_dataset_path),
                    "--out", str(tmp_path / "ok.json")]) == 0

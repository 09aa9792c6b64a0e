"""The four workloads: set-up, timed operations and output checks.

Every workload times each end-to-end metric of BENCHMARK.json.  Its own
operations (the ones its `why` names) run at full size; a metric it does not
exercise itself is fed by a small fixed probe that is the same on every
workload (`probe` data: 32 Markov sequences, T=4; circuit probe: the q6, q9
and q12 instance pools), so a slowdown on that path still shows there.

The program is driven only through `qsalab.cli.main` (in-process) and
`engine.circuit_expectation` with an `OpCounter`.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from qsalab import ansatz, engine, statevector

MODELS = ("qsa", "scsa", "lcsa")
WORKLOADS = ("markov", "tfim", "long-context", "circuit")
TRAIN_EPOCHS = 1  # two loss.csv rows: each one loss plus one full gradient
TOP_K = 3
MIN_SAMPLE_S = 0.1  # a sample repeats one operation for at least this many reference seconds
CHEAP_SAMPLES = 4  # samples of an operation whose unit is shorter than CHEAP_UNIT_S
CHEAP_UNIT_S = 0.3  # reference seconds; a dearer operation gets one sample a run
PROBE_SEQS = 32
SEQUENCES = 100  # training and held-out sequences of markov and tfim
CIRCUIT_LAYERS = 5
# qubit count -> (n, t): d = 2**n token dimension, T = 2**t steps, 2n + t qubits
CIRCUIT_SIZES = {"q6": (2, 2), "q9": (3, 3), "q12": (4, 4)}


class OpFailed(Exception):
    """An operation exited non-zero or raised; already counted as failed."""


class Ledger:
    """Attempted and failed operations (CLI commands and circuit instances)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def cli(self, argv) -> None:
        from qsalab import cli  # looked up per call so a traced `main` is used

        self.attempted += 1
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
            self.fail(f"qsalab {argv[0]} raised {exc!r}")
            raise OpFailed from exc
        if code != 0:
            self.fail(f"qsalab {' '.join(map(str, argv))} exited {code}")
            raise OpFailed


@dataclass
class Op:
    metric: str  # end-to-end metric this operation feeds
    run: Callable[[], int]  # one unit of work; returns the units completed
    trace_reps: int = 1  # units in a fixed (traced) round


def sample(op: Op, clock) -> tuple[float, float]:
    """Units per reference second over repetitions lasting at least
    MIN_SAMPLE_S, and the reference seconds of one repetition."""
    units = reps = 0
    start, wall_start = clock.now(), time.monotonic()
    while True:
        units += op.run()
        reps += 1
        elapsed = clock.now() - start
        if elapsed >= MIN_SAMPLE_S:
            return units / elapsed, elapsed / reps
        if elapsed == 0 and time.monotonic() - wall_start > 60.0:
            raise RuntimeError("the reference clock stopped advancing")


def measure(ops, clock, seconds) -> tuple[dict, dict]:
    """Samples per metric: one round over every operation, then round-robin
    over the cheap ones (one repetition shorter than CHEAP_UNIT_S) until each
    has CHEAP_SAMPLES and `seconds` of wall time have passed.  Also returns the
    wall seconds spent on each metric's operation."""
    samples = {op.metric: [] for op in ops}
    wall = dict.fromkeys(samples, 0.0)
    cheap = []
    started = time.monotonic()

    def take(op):
        op_started = time.monotonic()
        try:
            value, unit_s = sample(op, clock)
        except OpFailed:
            return None
        finally:
            wall[op.metric] += time.monotonic() - op_started
        samples[op.metric].append(value)
        return unit_s

    for op in ops:
        unit_s = take(op)
        if unit_s is not None and unit_s < CHEAP_UNIT_S:
            cheap.append(op)
    for turn in itertools.count():
        if not cheap or (turn >= (CHEAP_SAMPLES - 1) * len(cheap) and time.monotonic() - started >= seconds):
            break
        take(cheap[turn % len(cheap)])
    return samples, wall


class Workload:
    def __init__(self, name: str, seed: int, work: Path, ledger: Ledger):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.ops = []
        self.setup_steps = []  # (span name, callable)
        self.checks = []  # callables returning mismatch lists
        self.train_sets = {}  # model -> dataset path its train op used
        self.eval_outputs = []
        self.pools = {}
        self.evaluations = []  # (size, pool index, value, blocks, weighted_dim)
        self._file_seeds = itertools.count(seed * 16)
        getattr(self, "_build_" + name.replace("-", "_"))()

    # set-up -----------------------------------------------------------------

    def setup(self, tracer=None) -> None:
        """One full set-up: data files, checkpoints, instance pools, warm-up."""
        for span_name, step in self.setup_steps:
            if tracer is None:
                step()
            else:
                tracer.span(span_name, step)

    def _generate(self, stem, kind, length, count) -> Path:
        path = self.work / f"{stem}.jsonl"
        argv = ["generate", "--kind", kind, "--len", length, "--count", count,
                "--seed", next(self._file_seeds), "--out", path]
        argv += ["--vocab", 10, "--order", 2] if kind == "classical" else ["--qubits", 4]
        self.setup_steps.append(("setup:generate", lambda: self.ledger.cli(argv)))
        self.checks.append(lambda: checks.jsonl_roundtrip(path))
        return path

    def _init_checkpoints(self, data_path) -> Callable[[str], Path]:
        """Seeded initial checkpoints (`train --epochs 0`) plus one warm-up eval each."""
        out = self.work / "init"

        def step():
            for model in MODELS:
                self.ledger.cli(["train", "--model", model, "--data", data_path, "--epochs", 0,
                                 "--seed", self.seed, "--out", out / model])
                self.ledger.cli(["eval", "--checkpoint", out / model / "checkpoint.json",
                                 "--data", data_path, "--out", out / f"{model}.eval.json"])

        self.setup_steps.append(("setup:init", step))
        return lambda model: out / model / "checkpoint.json"

    # operations ---------------------------------------------------------------

    def _train_ops(self, data_path) -> Callable[[str], Path]:
        runs = self.work / "runs"
        for model in MODELS:
            argv = ["train", "--model", model, "--data", data_path, "--epochs", TRAIN_EPOCHS,
                    "--seed", self.seed, "--out", runs / model]

            def run(argv=argv):
                self.ledger.cli(argv)
                return TRAIN_EPOCHS + 1

            self.ops.append(Op(f"train_epochs_per_s.{model}", run))
            self.checks.append(
                lambda model=model: checks.train_output(runs / model, data_path, model, TRAIN_EPOCHS, self.seed)
            )
            self.train_sets[model] = data_path
        return lambda model: runs / model / "checkpoint.json"

    def _eval_predict_ops(self, checkpoint, eval_path, eval_count, predict_path, predict_count):
        for model in MODELS:
            out = self.work / f"{model}.eval.json"
            argv = ["eval", "--checkpoint", checkpoint(model), "--data", eval_path, "--out", out]

            def run(argv=argv):
                self.ledger.cli(argv)
                return eval_count

            self.ops.append(Op(f"eval_seqs_per_s.{model}", run))
            self.checks.append(
                lambda out=out, model=model: checks.eval_output(out, checkpoint(model), [eval_path])
            )
            self.eval_outputs.append(out)
        for model in MODELS:
            out = self.work / f"{model}.predict.json"
            argv = ["predict", "--checkpoint", checkpoint(model), "--data", predict_path,
                    "--top-k", TOP_K, "--out", out]

            def run(argv=argv):
                self.ledger.cli(argv)
                return predict_count

            self.ops.append(Op(f"predict_seqs_per_s.{model}", run))
            self.checks.append(
                lambda out=out, model=model: checks.predict_output(
                    out, checkpoint(model), predict_path, TOP_K, self.seed
                )
            )

    def _circuit_ops(self, pool_sizes, trace_reps) -> None:
        def build_pools():
            for size, (n, t) in CIRCUIT_SIZES.items():
                self.pools[size] = [
                    _random_instance(n, t, [self.seed, n, i]) for i in range(pool_sizes[size])
                ]
            # warm-up on the smallest size only; q12 costs seconds per instance
            engine.circuit_expectation(self.pools["q6"][0], statevector.OpCounter())

        self.setup_steps.append(("setup:pools", build_pools))
        for size in CIRCUIT_SIZES:
            cursor = itertools.count()

            def run(size=size, cursor=cursor):
                index = next(cursor) % len(self.pools[size])
                counter = statevector.OpCounter()
                self.ledger.attempted += 1
                try:
                    value = engine.circuit_expectation(self.pools[size][index], counter)
                except Exception as exc:  # counted, the run goes on
                    self.ledger.fail(f"circuit {size} instance {index} raised {exc!r}")
                    raise OpFailed from exc
                self.evaluations.append((size, index, value, counter.blocks, counter.weighted_dim))
                return 1

            self.ops.append(Op(f"circuit_instances_per_s.{size}", run, trace_reps[size]))

    def _probe_sets(self):
        train = self._generate("probe_train", "classical", 5, PROBE_SEQS)
        test = self._generate("probe_test", "classical", 5, PROBE_SEQS)
        return train, test

    def _circuit_probe(self):
        self._circuit_ops({"q6": 16, "q9": 4, "q12": 2}, {"q6": 8, "q9": 2, "q12": 1})

    # the workloads ------------------------------------------------------------

    def _sequence_task(self, kind):
        train = self._generate("train", kind, 5, SEQUENCES)
        test = self._generate("test", kind, 5, SEQUENCES)
        self._init_checkpoints(test)
        trained = self._train_ops(train)
        self._eval_predict_ops(trained, test, SEQUENCES, test, SEQUENCES)
        self._circuit_probe()

    def _build_markov(self):
        self._sequence_task("classical")

    def _build_tfim(self):
        self._sequence_task("quantum")

    def _build_long_context(self):
        # T=256: eval on 16 sequences, predict on 4 (qsa predict takes ~0.25 s per sequence)
        eval_set = self._generate("long_eval", "classical", 257, 16)
        predict_set = self._generate("long_predict", "classical", 257, 4)
        initial = self._init_checkpoints(predict_set)
        probe_train, _ = self._probe_sets()
        self._train_ops(probe_train)
        self._eval_predict_ops(initial, eval_set, 16, predict_set, 4)
        self._circuit_probe()

    def _build_circuit(self):
        probe_train, probe_test = self._probe_sets()
        self._init_checkpoints(probe_test)
        trained = self._train_ops(probe_train)
        self._eval_predict_ops(trained, probe_test, PROBE_SEQS, probe_test, PROBE_SEQS)
        self._circuit_ops({"q6": 64, "q9": 16, "q12": 4}, {"q6": 16, "q9": 4, "q12": 2})

    # checks -------------------------------------------------------------------

    def run_checks(self) -> float:
        """Count every mismatch as a failed operation; return the dual-route max error."""
        for check in self.checks:
            try:
                problems = check()
            except Exception as exc:  # an unreadable output is a mismatch
                problems = [f"check raised {exc!r}"]
            for problem in problems:
                self.ledger.fail(problem)
        problems, worst = checks.dual_route([e[:3] for e in self.evaluations], self.pools)
        for problem in problems:
            self.ledger.fail(problem)
        return worst


def _random_instance(n, t, seed):
    rng = np.random.default_rng(seed)
    d, steps = 2 ** n, 2 ** t

    def vector():
        return rng.normal(size=d) + 1j * rng.normal(size=d)

    return engine.QsaInstance.from_vectors(
        [vector() for _ in range(steps + 1)],
        [vector() for _ in range(steps)],
        ansatz.AnsatzParams.random(n, CIRCUIT_LAYERS, rng),
        ansatz.AnsatzParams.random(n, CIRCUIT_LAYERS, rng),
        ansatz.PhaseLayerParams.random(t, rng),
    )

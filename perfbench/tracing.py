"""Spans around qsalab's public functions, installed from outside the package.

`Tracer.install` replaces each listed function in every loaded ``qsalab.*``
namespace that holds it by name (``trainer.build_ansatz_unitary`` and
``engine.build_ansatz_unitary`` are the same object), so calls made inside
the package are caught as well.  Spans stay in memory as
``[name, start, end, parent]`` lists and are written once by `write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from functools import wraps

# (span name, module, attribute).  Span names use the module's layer name.
TARGETS = (
    ("ansatz.build_ansatz_unitary", "qsalab.ansatz", "build_ansatz_unitary"),
    ("ansatz.phase_layer_diagonal", "qsalab.ansatz", "phase_layer_diagonal"),
    ("engine.batched_expectations", "qsalab.engine", "batched_expectations"),
    ("engine.predict_token_state", "qsalab.engine", "predict_token_state"),
    ("engine.circuit_expectation", "qsalab.engine", "circuit_expectation"),
    ("classical.scsa_forward_batch", "qsalab.classical", "scsa_forward_batch"),
    ("classical.lcsa_forward_batch", "qsalab.classical", "lcsa_forward_batch"),
    ("classical.linear_attention_layer", "qsalab.classical", "linear_attention_layer"),
    ("data.embed_batch", "qsalab.data", "embed_batch"),
    ("data.generate", "qsalab.data", "generate_classical_dataset"),
    ("data.generate", "qsalab.data", "generate_quantum_dataset"),
    ("data.generate", "qsalab.data", "build_ising"),
    ("data.save_dataset", "qsalab.data", "save_dataset"),
    ("data.load_dataset", "qsalab.data", "load_dataset"),
    ("trainer.train", "qsalab.trainer", "train"),
    ("trainer.evaluate", "qsalab.trainer", "evaluate"),
    ("trainer.predict_topk", "qsalab.trainer", "predict_topk"),
    ("trainer.checkpoint", "qsalab.trainer", "save_checkpoint"),
    ("trainer.checkpoint", "qsalab.trainer", "load_checkpoint"),
    ("encodings.unitary_with_first_column", "qsalab.encodings", "unitary_with_first_column"),
    ("encodings.entangled_prefix_encoding", "qsalab.encodings", "entangled_prefix_encoding"),
    ("encodings.prepare_input_superposition", "qsalab.encodings", "prepare_input_superposition"),
    ("encodings.amplitude_encode", "qsalab.encodings", "amplitude_encode"),
    ("statevector.apply_unitary", "qsalab.statevector", "apply_unitary"),
    ("statevector.apply_controlled_by_register", "qsalab.statevector", "apply_controlled_by_register"),
    ("cli.main", "qsalab.cli", "main"),
)

_AMPLITUDE_BYTES = 16  # complex128


def _tally_ansatz(tracer, args, kwargs):
    params = args[0] if args else kwargs["params"]
    tracer.distinct["ansatz.build_ansatz_unitary"].add(
        (params.real_valued, params.angles.tobytes())
    )


def _tally_batched(tracer, args, kwargs):
    tokens = args[0] if args else kwargs["token_states"]
    tracer.tallies["engine.batched_expectations.rows"] += tokens.shape[0] * tokens.shape[1]


def _tally_apply_unitary(tracer, args, kwargs):
    # Computed, not measured: one read and one write of the full state.
    state = args[0] if args else kwargs["state"]
    tracer.tallies["statevector.bytes_computed"] += 2 * _AMPLITUDE_BYTES * 2 ** state.num_qubits


def _tally_controlled(tracer, args, kwargs):
    state = args[0] if args else kwargs["state"]
    blocks = args[2] if len(args) > 2 else kwargs["blocks"]
    tracer.tallies["statevector.bytes_computed"] += (
        2 * _AMPLITUDE_BYTES * 2 ** state.num_qubits * len(blocks)
    )


_TALLIES = {
    "build_ansatz_unitary": _tally_ansatz,
    "batched_expectations": _tally_batched,
    "apply_unitary": _tally_apply_unitary,
    "apply_controlled_by_register": _tally_controlled,
}


class Tracer:
    """Span recorder; records only while `active` is set."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.tallies = defaultdict(int)
        self.distinct = defaultdict(set)
        self._originals = []

    def _wrap(self, name, fn, tally):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if tally is not None:
                tally(self, args, kwargs)
            return self._timed(name, fn, args, kwargs)

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of the benchmark's own (an operation root)."""
        if not self.active:
            return fn(*args, **kwargs)
        return self._timed(name, fn, args, kwargs)

    def install(self):
        modules = [mod for key, mod in sys.modules.items() if key == "qsalab" or key.startswith("qsalab.")]
        for name, module_name, attr in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, fn, _TALLIES.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._originals.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


class SpanIndex:
    """busy / self / call figures of a finished span list, times multiplied by ``scale``."""

    def __init__(self, spans, scale=1.0):
        self.spans = [[name, start * scale, end * scale, parent] for name, start, end, parent in spans]
        self.children_time = [0.0] * len(spans)
        self.root = [0] * len(spans)
        self.by_name = defaultdict(list)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self.by_name[name].append(i)
            if parent >= 0:
                self.children_time[parent] += end - start
                self.root[i] = self.root[parent]
            else:
                self.root[i] = i

    def _select(self, name, root_prefix):
        for i in self.by_name.get(name, ()):
            if root_prefix is None or self.spans[self.root[i]][0].startswith(root_prefix):
                yield i, self.spans[i]

    def calls(self, name, root_prefix=None):
        return sum(1 for _ in self._select(name, root_prefix))

    def busy(self, name, root_prefix=None):
        """Time inside ``name``, counting nested calls of the same name once."""
        total = 0.0
        for i, (_, start, end, parent) in self._select(name, root_prefix):
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def self_time(self, name, root_prefix=None):
        """Time inside ``name`` not covered by any wrapped callee."""
        return sum(
            span[2] - span[1] - self.children_time[i] for i, span in self._select(name, root_prefix)
        )

"""qsalab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload markov --seed 1 --seconds 20 --trace 0

Run from the repository root; qsalab is imported from ./src.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list.  Everything else (the
full metric table with failed_frac, the environment record) is printed
before it and saved under .perfbench_work/.  See perfbench/README.md.
"""

import os
import sys
import time

# Serial everywhere: one BLAS/OpenMP thread, and qsalab's own gradient pool
# left at its default of one worker.
BLAS_PIN = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)
os.environ.pop("QSALAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _import_program():
    """Import qsalab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import qsalab

    if Path(qsalab.__file__).resolve().parent != (src / "qsalab").resolve():
        sys.exit(f"perfbench: imported qsalab from {qsalab.__file__}, not {src}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def environment(args) -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pin": BLAS_PIN,
        "QSALAB_THREADS": os.environ.get("QSALAB_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fixed_round(workload, tracer=None):
    """Each operation a fixed number of times; the unit of a traced run."""
    for op in workload.ops:
        for _ in range(op.trace_reps):
            if tracer is None:
                op.run()
            else:
                tracer.span("op:" + op.metric, op.run)


def timed_run(workload, args, clock, import_s):
    from workloads import measure

    setup_times = []
    wall = [time.monotonic()]  # phase boundaries: set-up, measurement, checks
    for _ in range(SETUP_REPEATS):
        started = clock.now()
        workload.setup()
        setup_times.append(clock.now() - started)

    wall.append(time.monotonic())
    samples, op_wall = measure(workload.ops, clock, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.pause()
    wall.append(time.monotonic())
    workload.run_checks()
    wall.append(time.monotonic())

    # An operation that never succeeded reads 0 (and correct is false).
    values = {metric: statistics.median(s) if s else 0.0 for metric, s in samples.items()}
    values["setup_s"] = import_s + statistics.median(setup_times)
    values["peak_rss_mb"] = peak_rss_mb
    extra = {
        "samples": samples,
        "op_wall_s": op_wall,
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "phase_wall_s": dict(zip(("setup", "measure", "checks"), (b - a for a, b in zip(wall, wall[1:])))),
    }
    return values, extra


def traced_run(workload, clock):
    import layers
    from tracing import Tracer

    workload.setup()
    started = clock.now()
    workload.setup()
    fixed_round(workload)
    untraced_s = clock.now() - started

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    started, wall_started = clock.now(), time.perf_counter()
    workload.setup(tracer)
    fixed_round(workload, tracer)
    traced_s = clock.now() - started
    # Spans hold wall times; this converts them to reference seconds.
    ref_per_wall = traced_s / (time.perf_counter() - wall_started)
    tracer.active = False

    forward_s = layers.forward_times(workload, clock)
    clock.pause()
    dual_route_max_err = workload.run_checks()
    values = layers.per_layer(
        tracer, workload, ref_per_wall, forward_s, dual_route_max_err,
        overhead_frac=(traced_s - untraced_s) / untraced_s,
    )
    tracer.uninstall()
    spans_path = workload.work / "spans.json"
    tracer.write(spans_path)
    extra = {"untraced_round_s": untraced_s, "traced_round_s": traced_s, "ref_per_wall": ref_per_wall,
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return values, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not (ROOT / "src" / "qsalab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qsalab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from refclock import RefClock

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with RefClock(work / "refclock.bin") as clock:
        started = clock.now()
        _import_program()
        import_s = clock.now() - started
        from workloads import Ledger, Workload

        ledger = Ledger()
        workload = Workload(args.workload, args.seed, work, ledger)
        if args.trace:
            values, extra = traced_run(workload, clock)
            wanted = spec["per_layer"]
        else:
            values, extra = timed_run(workload, args, clock, import_s)
            wanted = spec["end_to_end"]
        env = environment(args)
        env["pinned_cpu"] = clock.cpu
    failed_frac = ledger.failed / max(ledger.attempted, 1)

    print("env " + json.dumps(env, sort_keys=True))
    for name in sorted(values):
        unit = next((m["unit"] for m in wanted if m["name"] == name), "")
        print(f"  {name:52s} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':52s} {failed_frac:>16.6g} ratio ({ledger.failed}/{ledger.attempted})")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no value for {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    with open(work / "result.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "failed_frac": failed_frac, "all_values": values, "env": env,
                   "problems": ledger.problems, **extra}, handle, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

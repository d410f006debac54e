"""End-to-end and per-layer benchmark of the simulated distance accelerator.

Run from the repository root::

    python3 e2ebench/run.py --workload serve_repeat --seed 1 --seconds 10 --trace 0

One run builds the workload's inputs from ``--seed``, sets the system
up, runs one untimed *gate* rep whose every output is checked against
the software distances, and only then times reps until ``--seconds`` of
measured host time have passed.  Every timed rep must reproduce the
gate rep's output digest exactly.  ``--trace 1`` adds a second, traced
phase of half that length that wraps each layer's public entry points
and reports per-layer figures instead of the end-to-end ones.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it carries the run's details (seed, environment,
output digest, and the workload-specific virtual-time and quality
figures).  Exit status: 0 on success, 1 when the outputs are wrong or
not reproducible, 2 when the program source cannot be found.

Host times are reported in *reference seconds*.  The speed of a shared
machine drifts by tens of percent over seconds, so after every timed
interval a fixed calibration loop that uses no ``repro`` code runs for
a tenth as long, and every host time of the phase is scaled by
``CALIBRATION_NOMINAL_S`` over the loop's mean duration.  A faster
program still reads faster; a machine that runs slower through a whole
run does not read as a slower program.  The raw wall-clock rate and
the scale are kept in the details line.
"""

import time

# Set-up time counts from here, before numpy or repro are imported.
_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: the load is one single-threaded process.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".e2ebench"
#: One calibration loop's duration on an unloaded 2-core x86-64 host
#: (Python 3.11, numpy 2.4): the machine state host times are scaled to.
CALIBRATION_NOMINAL_S = 0.005
#: Calibration time taken after each timed interval, as a share of it.
CALIBRATION_SHARE = 0.1
#: Set-ups timed per run when one set-up serves every rep.
SETUPS = 3
#: Fewest timed reps per phase, so medians rest on several samples.
MIN_REPS = 3

#: The end-to-end metrics of the result line: those that every
#: workload has and that vary little between seeds.  The others
#: (per-op host times, which the open-loop serve workloads do not
#: have, accuracy, virtual time) go to the details line.
END_TO_END = (
    ("host_ops_per_s", "op/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the benchmark modules against ``src/repro``; None if the
    source tree is missing or another ``repro`` would be measured."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(
            f"e2ebench: imported repro from {repro.__file__}, not {SRC}",
            file=sys.stderr,
        )
        return None
    return workloads


def calibration_loop() -> float:
    """Seconds one fixed loop of numpy operations and interpreter work
    takes; it runs no program code, so only the machine moves it."""
    import numpy as np

    a = np.arange(512.0)
    acc, table = 0.0, {}
    started = time.perf_counter()
    for i in range(1000):
        b = a * 1.0001 + i
        acc += float(b.sum())
        table[i % 97] = acc
        acc += float(np.maximum(b[:256], b[256:])[3])
    return time.perf_counter() - started


def calibrate(seconds: float) -> list:
    """Calibration loop durations, looping for about ``seconds``."""
    loops = [calibration_loop()]
    while sum(loops) < seconds:
        loops.append(calibration_loop())
    return loops


def measure(workload, seconds, recorder=None):
    """Time set-ups and reps until ``seconds`` of rep time have passed.

    Returns ``(setup_seconds, reps, factor, last_outputs)``: set-up
    times and reps in reference seconds, and the scale that converted
    them.  After every timed interval the calibration loop runs for a
    tenth of that interval; the scale is the nominal loop time over the
    mean of all loops, so a machine that runs slower through the phase
    does not read as a slower program.  With a recorder, every set-up
    and rep runs inside a ``setup`` / ``rep`` root span (calibration
    runs outside them).
    """

    def root(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    samples = calibrate(0.0)
    setups = []

    def set_up():
        with root("setup"):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        samples.extend(calibrate(CALIBRATION_SHARE * setups[-1]))

    if not workload.setup_per_rep:
        for _ in range(SETUPS):
            set_up()
    reps, outputs, spent = [], None, 0.0
    while spent < seconds or len(reps) < MIN_REPS:
        if workload.setup_per_rep:
            set_up()
        with root("rep"):
            rep, outputs = workload.run_rep()
        samples.extend(calibrate(CALIBRATION_SHARE * rep.seconds))
        reps.append(rep)
        spent += rep.seconds
    factor = CALIBRATION_NOMINAL_S / statistics.fmean(samples)
    scaled = [
        dataclasses.replace(
            rep,
            seconds=rep.seconds * factor,
            op_seconds=[s * factor for s in rep.op_seconds],
        )
        for rep in reps
    ]
    return [s * factor for s in setups], scaled, factor, outputs


def host_ops_per_s(reps):
    """Median over reps of completed ops per host second."""
    return statistics.median((r.ops - r.failed) / r.seconds for r in reps)


def main(argv=None) -> int:
    args = parse(argv)
    workloads = load_program()
    if workloads is None:
        return 2
    import_raw_s = time.perf_counter() - _PROCESS_START
    import numpy

    if args.workload not in workloads.WORKLOADS:
        print(
            f"e2ebench: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    closed_loop = not workload.setup_per_rep

    # Correctness gate: one untimed rep, every output checked.
    workload.setup()
    gate, gate_outputs = workload.run_rep()
    checked = workload.check(gate_outputs)
    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "digest": gate.digest,
        "ops_per_rep": gate.ops,
        "violations": checked.violations[:20],
    }
    if checked.violations:
        return report(details, checked.violations, gate.ops, gate.failed, {})

    setups, reps, factor, _ = measure(workload, args.seconds)
    import_s = import_raw_s * factor
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [
        f"timed rep {k} digest {r.digest} differs from the gate rep's"
        for k, r in enumerate(reps)
        if r.digest != gate.digest
    ]
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    e2e = {"host_ops_per_s": host_ops_per_s(reps)}
    e2e["setup_s"] = import_s + statistics.median(setups)
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e["rel_error_mean"] = (
        statistics.fmean(checked.rel_errors) if checked.rel_errors else 0.0
    )
    details.update(
        {
            "reps": len(reps),
            "import_s": import_s,
            "import_raw_s": import_raw_s,
            "setup_samples_s": setups,
            "time_scale": factor,
            "raw_host_ops_per_s": e2e["host_ops_per_s"] * factor,
            "fail_ratio": failed / attempted,
            "figures": {
                "rel_error_mean": {"value": e2e["rel_error_mean"], "unit": "ratio"},
                **{
                    name: {
                        "value": value if math.isfinite(value) else None,
                        "unit": unit,
                    }
                    for name, (value, unit) in checked.figures.items()
                },
            },
        }
    )
    if closed_loop:
        ops_ms = [s * 1e3 for r in reps for s in r.op_seconds]
        found = workloads.tail(ops_ms)
        details["host_op_samples"] = len(ops_ms)
        details["host_op_p50_ms"] = {
            "value": statistics.median(ops_ms),
            "unit": "ms",
        }
        if found is not None:
            details["host_op_tail_ms"] = {
                "value": found[1],
                "unit": "ms",
                "percentile": found[0],
            }
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    if args.trace and not problems:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        try:
            layers.install(recorder)
            # Half the budget: per-layer figures are per-rep medians,
            # and the in-memory span store grows with every rep.
            _, traced, _, outputs = measure(
                workload, args.seconds / 2, recorder
            )
        finally:
            recorder.close()
        problems += [
            f"traced rep {k} digest {r.digest} differs from the gate rep's"
            for k, r in enumerate(traced)
            if r.digest != gate.digest
        ]
        figures = layers.span_metrics(recorder)
        figures.update(workload.layer_figures(outputs))
        traced_rate = host_ops_per_s(traced)
        figures["trace.overhead_ratio"] = 1.0 - traced_rate / e2e["host_ops_per_s"]
        details["compute_call_samples"] = figures.pop("_compute_call_samples", 0)
        details["compute_tail_percentile"] = figures.pop(
            "_compute_tail_percentile", None
        )
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"spans-{workload.name}-{args.seed}.tsv.gz"
        recorder.dump(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
        details["spans_recorded"] = len(recorder)
        metrics = {
            name: {"value": float(figures.get(name, 0.0)), "unit": unit}
            for name, unit in layers.PER_LAYER
        }

    return report(details, problems, attempted, failed, metrics)


def report(details, problems, attempted, failed, metrics) -> int:
    """Print the details line and the result line; the exit status."""
    for problem in problems[:20]:
        print(f"e2ebench: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

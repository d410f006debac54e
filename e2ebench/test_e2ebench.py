"""Tests of the benchmark itself: span accounting, digests, the gate.

Run with ``python -m pytest e2ebench`` from the repository root.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads
from repro import distances as software
from repro.accelerator import DistanceAccelerator
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent


def ready(name, seed=1):
    """One workload at the size the benchmark runs, set up and ready."""
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload


def test_percentiles_are_exact_sample_values():
    # Cache hits finish at arrival: a true p50 of zero must read zero.
    assert workloads.percentile([0.0, 0.0, 0.0, 5.0], 50.0) == 0.0
    assert workloads.percentile([3.0, 1.0, 2.0], 100.0) == 3.0
    values = list(range(100))
    # p90 of 100 samples leaves exactly ten beyond its rank.
    assert workloads.tail(values) == (90.0, 89.0)
    assert workloads.tail(values[:10]) is None


def test_self_times_and_children_sum_to_each_root():
    workload = ready("serve_unique")
    recorder = SpanRecorder()
    try:
        layers.install(recorder)
        with recorder.span("rep"):
            rep, _ = workload.run_rep()
        with recorder.span("setup"):
            workload.setup()
    finally:
        recorder.close()
    # Children lie inside their parent, so a span's self time plus its
    # children's durations is exactly the span's own duration.
    for i, parent in enumerate(recorder.parent):
        assert recorder.start[i] <= recorder.end[i]
        if parent >= 0:
            assert recorder.start[parent] <= recorder.start[i]
            assert recorder.end[i] <= recorder.end[parent]
    own = recorder.self_times()
    assert all(t >= -1e-9 for t in own)
    root_of = recorder.roots()
    roots = [i for i in range(len(recorder)) if recorder.parent[i] < 0]
    assert [recorder.name_of(r) for r in roots] == ["rep", "setup"]
    assert len(recorder) > 1000
    # The rep root's subtree accounts for the rep as timed by its own
    # clock, outside the recorder (plus the few untimed lines around it).
    subtree = sum(own[i] for i in range(len(recorder)) if root_of[i] == roots[0])
    assert rep.seconds <= subtree <= rep.seconds * 1.05 + 0.01
    names = set(recorder.names)
    assert {"serving.pool.drain", "analog.dc_solve", "check.erc"} <= names


def test_recorder_restores_every_wrapped_object():
    import repro.accelerator.array as array
    import repro.analog as analog
    import repro.analog.engine as engine

    originals = (
        DistanceAccelerator.compute,
        engine.dc_solve,
        array.dc_solve,
        analog.measure_convergence,
    )
    recorder = SpanRecorder()
    layers.install(recorder)
    # Functions imported by name are rebound at every import site.
    assert array.dc_solve is engine.dc_solve is not originals[1]
    recorder.close()
    assert (
        DistanceAccelerator.compute,
        engine.dc_solve,
        array.dc_solve,
        analog.measure_convergence,
    ) == originals


def traced_figures(name):
    workload = ready(name)
    recorder = SpanRecorder()
    try:
        layers.install(recorder)
        with recorder.span("rep"):
            workload.run_rep()
    finally:
        recorder.close()
    return layers.span_metrics(recorder)


def test_transient_is_traced_on_fig5_and_absent_elsewhere():
    fig5 = traced_figures("fig5_converge")
    assert fig5["analog.transient.calls"] >= 1
    assert 0.0 < fig5["analog.transient.useful_step_ratio"] < 1.0
    assert fig5["serving.pool.self_s"] == 0.0
    knn = traced_figures("knn_dtw")
    assert knn["analog.transient.calls"] == knn["analog.transient.steps"] == 0
    assert knn["backends.calls"] >= 1 and knn["serving.cache.calls"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_digest_repeats_with_seed_and_differs_across_seeds(name):
    first, _ = ready(name, seed=3).run_rep()
    again, _ = ready(name, seed=3).run_rep()
    other, _ = ready(name, seed=4).run_rep()
    assert first.digest == again.digest
    assert first.digest != other.digest


def perturbed_compute(monkeypatch):
    original = DistanceAccelerator.compute

    def compute(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        return dataclasses.replace(result, value=result.value * 1.5 + 1.0)

    monkeypatch.setattr(DistanceAccelerator, "compute", compute)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_passes_stock_outputs(name):
    workload = ready(name)
    _, outputs = workload.run_rep()
    assert workload.check(outputs).violations == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_trips_on_perturbed_compute(monkeypatch, name):
    perturbed_compute(monkeypatch)
    workload = ready(name)
    _, outputs = workload.run_rep()
    assert workload.check(outputs).violations


@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_gate_trips_on_counts_off_by_one(monkeypatch, delta):
    # The pool settles row functions (hamming) through batch_pairs and
    # matrix functions (edit) through compute; shift both counts by one.
    counts = ("hamming", "edit")
    compute = DistanceAccelerator.compute
    batch_pairs = DistanceAccelerator.batch_pairs

    def shifted_compute(self, function, *args, **kwargs):
        result = compute(self, function, *args, **kwargs)
        if function in counts:
            result = dataclasses.replace(result, value=result.value + delta)
        return result

    def shifted_batch_pairs(self, function, *args, **kwargs):
        result = batch_pairs(self, function, *args, **kwargs)
        if function in counts:
            result = dataclasses.replace(result, values=result.values + delta)
        return result

    monkeypatch.setattr(DistanceAccelerator, "compute", shifted_compute)
    monkeypatch.setattr(DistanceAccelerator, "batch_pairs", shifted_batch_pairs)
    workload = ready("serve_unique")
    _, outputs = workload.run_rep()
    tripped = workload.check(outputs).violations
    assert any("(hamming " in v for v in tripped)
    assert any("(edit " in v for v in tripped)
    assert not any("(manhattan " in v or "(lcs " in v for v in tripped)


def test_gate_flags_every_raised_measurement(monkeypatch):
    def broken(self, function, *args, **kwargs):
        raise RuntimeError("settle did not converge")

    monkeypatch.setattr(DistanceAccelerator, "compute", broken)
    workload = workloads.WORKLOADS["fig5_converge"](1)
    workload.chip = DistanceAccelerator(quantise_io=False)
    rep, outputs = workload.run_rep()
    assert rep.failed == rep.ops == len(workloads.FUNCTIONS)
    assert len(workload.check(outputs).violations) == rep.ops


def test_cli_exits_nonzero_on_perturbed_compute(monkeypatch, capsys):
    perturbed_compute(monkeypatch)
    status = run.main(
        ["--workload", "fig5_converge", "--seed", "1", "--seconds", "1"]
    )
    assert status == 1
    assert '"correct": false' in capsys.readouterr().out


def test_cli_fails_without_program_source(tmp_path):
    bench = tmp_path / HERE.name
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "knn_dtw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_rate_counts_completed_ops_only():
    reps = [workloads.Rep(ops=10, failed=4, seconds=2.0, digest="")]
    assert run.host_ops_per_s(reps) == 3.0


def test_count_limits_are_narrower_than_one_count():
    # On every serve_unique count request whose comparisons all clear
    # the threshold band, the software count plus or minus one fails.
    workload = workloads.WORKLOADS["serve_unique"](1)
    band = 2 * workloads.LSB_UNITS
    checked = 0
    for r in workload.requests:
        if r.function not in workloads.THRESHOLDED:
            continue
        fn = getattr(software, r.function)
        below = fn(r.p, r.q, threshold=workloads.THRESHOLD - band)
        above = fn(r.p, r.q, threshold=workloads.THRESHOLD + band)
        if below == above:
            checked += 1
            ref, low, high = workloads.bounds(r.function, r.p, r.q)
            assert workloads.violation("", ref + 1.0, (ref, low, high))
            assert workloads.violation("", ref - 1.0, (ref, low, high))
    assert checked > 100

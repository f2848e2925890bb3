"""The benchmark's own tests: metric names and units, output checks, exits.

    python -m pytest qclbench/tests -q      (a few minutes)

Smoke runs use small variants of the workloads (drive_lz3 keeps its size:
nothing shorter closes the loop its check asks for) and write their records
to a temporary directory, not to qclbench/out/.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from qcl.optimizer import OptimizationReport  # noqa: E402
from tracing import per_layer_units  # noqa: E402

SMALL = {
    "scatter_lz3": workloads.Scatter(count=6, max_iter=200),
    "compress_qho48_fd": workloads.Compress("fd", floor=20, chunk=10),
    "compress_qho48_exact": workloads.Compress("exact", floor=20, chunk=10),
    "drive_lz3": workloads.Drive(),
}


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def assert_metrics(result, units):
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_every_run_has_ten_units_beyond_its_p90():
    assert all(w.floor >= 100 for w in workloads.WORKLOADS.values())


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_end_to_end(name):
    result, lines = run.execute(SMALL[name], 1, 0.0, 0)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, run.END_TO_END_UNITS)


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_traced(name, out_dir):
    result, lines = run.execute(SMALL[name], 1, 0.0, 1)
    assert result["correct"], lines
    assert_metrics(result, per_layer_units())
    assert (out_dir / f"{name}-seed1-spans.npz").is_file()


@pytest.fixture(scope="module")
def compress_loop():
    wl = SMALL["compress_qho48_exact"]
    loop = wl.loop(wl.prepare(1))
    run.run_loop(loop, 0.0)
    return wl, loop


def test_clean_compress_output_passes(compress_loop):
    wl, loop = compress_loop
    verdict = wl.check(loop)
    assert not verdict.problems and verdict.failed == 0


def test_sample_above_entry_threshold_fails_its_step(compress_loop):
    wl, loop = compress_loop
    bad = replace(loop.passes[0][5], infidelity=2e-6)
    corrupted = replace_samples(loop, {5: bad})
    verdict = wl.check(corrupted)
    assert verdict.failed == 1 and verdict.problems


def test_uncompressed_final_field_fails_the_pass(compress_loop):
    wl, loop = compress_loop
    samples = loop.passes[0]
    last = len(samples) - 1
    bad = replace(samples[last], secondary=samples[0].secondary)
    verdict = wl.check(replace_samples(loop, {last: bad}))
    assert verdict.failed == verdict.attempted and verdict.problems


def test_changed_trajectory_changes_the_digest(compress_loop):
    wl, loop = compress_loop
    moved = replace(loop.passes[0][3],
                    infidelity=loop.passes[0][3].infidelity * (1 + 1e-12))
    assert wl.check(replace_samples(loop, {3: moved})).digest != wl.check(loop).digest


def test_pass_unlike_the_first_fails_the_run(compress_loop):
    wl, loop = compress_loop
    moved = replace(loop.passes[0][3],
                    infidelity=loop.passes[0][3].infidelity * (1 + 1e-12))
    corrupted = replace_samples(loop, {3: moved})
    corrupted.passes.insert(0, loop.passes[0])
    verdict = wl.check(corrupted)
    assert verdict.failed == verdict.attempted
    assert any("different trajectories" in p for p in verdict.problems)


def test_open_loop_fails_the_closure_check():
    wl = workloads.Drive(floor=250, chunk=250)
    loop = wl.loop(wl.prepare(1))
    run.run_loop(loop, 0.0)
    verdict = wl.check(loop)
    assert verdict.failed == verdict.attempted
    assert any("closure" in p for p in verdict.problems)


def test_false_convergence_claim_fails_its_seed():
    wl = SMALL["scatter_lz3"]
    loop = wl.loop(wl.prepare(1))
    run.run_loop(loop, 0.0)
    reports = loop.passes[0]
    k = next(i for i, r in enumerate(reports) if r.converged)
    r = reports[k]
    reports[k] = OptimizationReport(field=r.field.with_values(r.field.values + 0.3),
                                    final_infidelity=r.final_infidelity,
                                    iterations=r.iterations, converged=True)
    verdict = wl.check(loop)
    assert verdict.failed == 1 and verdict.problems


def test_digest_store_rejects_a_different_digest():
    env = {"source": "abc", "blas_threads_env": {}}
    assert run.check_digest("w", "1111", env)
    assert run.check_digest("w", "1111", env)
    assert not run.check_digest("w", "2222", env)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "qclbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "qclbench/run.py", "--workload", "scatter_lz3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def replace_samples(loop, changes):
    """A copy of a one-pass step loop with some samples of its pass replaced."""
    copy = workloads.StepLoop(loop.workload, loop.inputs)
    copy.passes = [[changes.get(i, s) for i, s in enumerate(loop.passes[0])]]
    copy.failure = loop.failure
    return copy

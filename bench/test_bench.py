"""Self-test of the benchmark (not part of the library's tier-1 suite).

    python3 -m pytest bench -q

Runs the benchmark as a subprocess, as its users do: the tracer wraps
every binding and every layer span fires where bench/layers.json says,
traced and untraced runs give bit-identical outputs, a second seed lands
within the bounds of BENCHMARK.json with no failed operation, and the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import jobs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())
# one whole round of each workload, so every job kind runs
ROUND_JOBS = {name: jobs.WORKLOADS[name].JOBS_PER_ROUND for name in run.WORKLOAD_NAMES}


def bench(*args, cwd=ROOT) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def note(lines, prefix):
    return next(ln[len(prefix):].strip() for ln in lines if ln.startswith(prefix))


@pytest.fixture(scope="module")
def round_runs():
    """(traced, untraced) one-round runs of every workload on seed 3."""
    out = {}
    for name, n_jobs in ROUND_JOBS.items():
        common = ["--workload", name, "--seed", "3", "--seconds", "1",
                  "--jobs", str(n_jobs)]
        out[name] = (bench(*common, "--trace", "1"), bench(*common, "--trace", "0"))
    return out


def test_contract_names_match_the_program():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_binding_is_wrapped_and_restored():
    import adskg.cli
    import adskg.harmonics
    import adskg.modes
    before = adskg.modes.radial_eval_fd
    tracer = Tracer().install()
    try:
        bound = set(tracer.bindings())
        for binding in ("adskg.expansions.radial_eval_fd", "adskg.isometry.radial_eval_fd",
                        "adskg.cli.radial_eval", "adskg.symplectic.sample_slice",
                        "adskg.symplectic.sample_tube", "adskg.modes.jacobi_p",
                        "adskg.harmonics.assoc_legendre", "adskg.modes.sph_harm",
                        "adskg.cli.sph_harm", "adskg.modes.hyp2f1"):
            assert binding in bound, binding
        assert adskg.modes.radial_eval_fd is not before
        assert adskg.harmonics.AngularGrid.ylm.__wrapped__ is not None
        assert adskg.harmonics.AngularGrid.project.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert adskg.modes.radial_eval_fd is before
    assert not hasattr(adskg.harmonics.AngularGrid.ylm, "__wrapped__")
    assert adskg.cli.sph_harm is adskg.harmonics.sph_harm


def test_layer_spans_fire_where_the_table_says(round_runs):
    for name, ((traced, _), _) in round_runs.items():
        metrics = traced["metrics"]
        for metric, workloads in LAYERS["fires_in"].items():
            if name in workloads:
                assert metrics[metric]["value"] > 0, (name, metric)


def test_layer_self_times_account_for_job_wall_time(round_runs):
    for (_, lines), _ in round_runs.values():
        trace = json.loads(next(ln[2:] for ln in lines
                                if ln.startswith('# {"trace"')))["trace"]
        assert trace["accounted_s"] == pytest.approx(trace["traced_wall_s"], rel=1e-9)


def test_span_records_give_the_reported_self_times(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    result, _ = bench("--workload", "verify_all", "--seed", "1", "--seconds", "1",
                      "--trace", "1", "--jobs", "1", "--spans", str(spans_file))
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        assert job == 0
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            child[parent] += end - start
    self_s = {}
    for (name, start, end, _, _), covered in zip(spans, child):
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + end - start - covered
    for layer in ("specfun", "modes", "geometry", "verify", "bench"):
        assert self_s[layer] == pytest.approx(
            result["metrics"][f"{layer}.self_s"]["value"], rel=1e-6), layer


def test_traced_outputs_are_bit_identical(round_runs):
    for name, ((_, traced), (_, plain)) in round_runs.items():
        assert note(traced, "# outputs sha256") == note(plain, "# outputs sha256"), name


def test_second_seed_within_bounds():
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    seconds = str(SPEC["run_seconds"])
    for name in run.WORKLOAD_NAMES:
        first, _ = bench("--workload", name, "--seed", "11", "--seconds", seconds)
        second, _ = bench("--workload", name, "--seed", "12", "--seconds", seconds)
        assert first["correct"] and second["correct"], name
        for metric, spec in bounds.items():
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            assert worse <= spec["bound"], (name, metric, a, b)


def test_one_command_prints_every_metric_of_every_workload():
    summary, lines = bench("--workload", "all", "--seed", "5", "--seconds", "1")
    assert list(summary) == list(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        assert summary[name]["attempted"] > 0 and summary[name]["correct"], name
        for metric, unit in run.END_TO_END:
            assert any(ln.startswith(f"{name} {metric} ") and ln.endswith(f" {unit}")
                       for ln in lines), (name, metric)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify_all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""adskg benchmark: closed loop, one client, one process.

    python3 bench/run.py --workload dense_roundtrip --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see jobs.py): dense_roundtrip, sparse_pointwise, verify_all.
The loop runs the number of whole rounds of seeded jobs that take --seconds
of job time at the reference machine speed (speed.py) with the seed code;
the correctness checks of a round run after it, outside the timed region.
--trace 0 prints the end-to-end metrics; --trace 1 installs the layer
tracer on every other round and prints the per-layer metrics, taking the
tracing overhead as the gap between traced and untraced rounds, plus the
digits of the one known-failing case the workloads leave out (jobs.py,
C_TUBE_L8_RHO0).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (correct is false when any operation
failed); the lines before it name every metric with its unit, list the
failures and record the run environment.
"""

from __future__ import annotations

import os

# One process and no extra threads: pin the BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.special import betainc

import speed
from speed import SpeedLog, probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dense_roundtrip", "sparse_pointwise", "verify_all")
SETUP_REPEATS = 5
SETUP_CODE = ("import time; t = time.perf_counter(); "
              "import adskg, adskg.cli, adskg.verify; "
              "print(repr(time.perf_counter() - t))")
MODULE_FILES = ("__init__", "cli", "errors", "expansions", "geometry",
                "harmonics", "isometry", "minkowski", "modes", "specfun",
                "symplectic", "verify")
END_TO_END = (("setup_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("work_per_s", "1/s"), ("err_digits", "digits"),
              ("ok_share", "share"), ("peak_rss_mb", "MB"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order (layers.json)."""
    layers = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
    return [item for layer in layers["layers"].values()
            for item in layer["metrics"].items()]


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def measure_setup() -> tuple[float, list[float]]:
    """Median wall time to import adskg, adskg.cli and adskg.verify in a
    fresh interpreter, each scaled by the speed probes taken around it; one
    untimed import first compiles the bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, probes = [], [probe()]
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
            probes.append(probe())
    scaled = [t * speed.REF_S / ((a + b) / 2)
              for t, a, b in zip(times, probes, probes[1:])]
    return statistics.median(scaled), times


def _lscpu_caches() -> dict:
    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return caches
    for line in text.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().split()[0]] = val.strip()
    return caches


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                     and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy
    import jobs
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = _lscpu_caches()
    # working set of the largest dense jobs: the phi and d phi grids plus
    # the two per-label temporaries of sample_*, complex128 (computed)
    ang_points = 16 * 32
    slice_points = jobs.QUAD_RHO_NODES * ang_points
    n_freq = max(f for f, _ in jobs.GRID_RUNGS)
    tube_points = (2 * (n_freq // 2) + 1) * ang_points
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "largest_slice_job_ws_bytes": slice_points * 16 * 4,
        "largest_tube_job_ws_bytes": tube_points * 16 * 4,
    }


def src_lines() -> dict[str, int]:
    lines = {}
    for mod in MODULE_FILES:
        path = SRC / "adskg" / f"{mod}.py"
        name = "init" if mod == "__init__" else mod
        lines[f"{name}.lines"] = len(path.read_text().splitlines()) \
            if path.is_file() else 0
    lines["src.lines"] = sum(len(p.read_text().splitlines())
                             for p in sorted(SRC.rglob("*.py")))
    return lines


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs rounds of jobs one at a time and collects the samples."""

    def __init__(self, workload, tracer=None, max_jobs=0):
        self.workload = workload
        self.tracer = tracer
        self.max_jobs = max_jobs
        self.latency: list[float] = []   # raw wall seconds per job
        self.probe_at: list[int] = []    # speed probe preceding each job
        self.speed = SpeedLog()
        self.rounds: list[tuple[bool, int]] = []   # (traced, jobs) per round
        self.outcomes = []
        self.digest = hashlib.sha256()
        self.notes: list[str] = []
        self.eval_points = 0     # CSV points written by traced eval jobs

    def _run(self, job):
        try:
            return True, job.run()
        except Exception:  # a failed operation, counted and reported
            return False, traceback.format_exc(limit=3)

    def _check(self, job, ok, result):
        from jobs import Outcome
        if not ok:
            out = Outcome(ops=1, output=[result])
            out.fail(f"{job.kind} raised: {result.strip().splitlines()[-1]}")
            return out
        try:
            return job.check(result)
        except Exception:  # a check that cannot run counts as a failure
            out = Outcome(ops=1)
            out.fail(f"{job.kind} check raised: {traceback.format_exc(limit=3)}")
            return out

    def run_round(self, jobs, traced: bool, first_id: int) -> int:
        done = []
        if traced:
            self.tracer.install()
        try:
            for i, job in enumerate(jobs):
                if self.max_jobs and len(self.latency) + len(done) >= self.max_jobs:
                    break
                probe_at = self.speed.before_job()
                if traced:
                    (ok, result), dt = self.tracer.run_job(
                        first_id + i, lambda job=job: self._run(job))
                else:
                    t0 = time.perf_counter()
                    ok, result = self._run(job)
                    dt = time.perf_counter() - t0
                done.append((job, ok, result, dt, probe_at))
        finally:
            if traced:
                self.tracer.uninstall()
        for job, ok, result, dt, probe_at in done:
            out = self._check(job, ok, result)
            self.latency.append(dt)
            self.probe_at.append(probe_at)
            self.outcomes.append(out)
            self.notes.extend(out.notes)
            self.digest.update(repr(out.output).encode())
        for job in jobs:
            job.cleanup()
        self.rounds.append((traced, len(done)))
        if traced:
            self.eval_points += sum(getattr(d[0], "n_rows", 0) for d in done)
        return len(done)

    def measure(self, seconds: float, trace: bool):
        """Warm up, then run as many whole rounds as take `seconds` of job
        time at the reference speed with the seed code (ROUND_S); a fixed
        count keeps the job mix, and so the tail percentile, the same from
        run to run.  Every round of a workload has the same mix of job
        kinds and sizes.  A traced run has an even count, rounded up, and
        traces every other round."""
        for job in self.workload.warmup():
            ok, result = self._run(job)
            self._check(job, ok, result)
            job.cleanup()
        rounds = max(1, math.ceil(seconds / self.workload.ROUND_S))
        if trace:
            rounds += rounds % 2
        n_jobs = 0
        for index in range(rounds):
            if self.max_jobs and n_jobs >= self.max_jobs:
                break
            traced = trace and index % 2 == 0
            n_jobs += self.run_round(self.workload.round(index), traced, n_jobs)
        self.speed.close()

    def scaled(self) -> list[float]:
        """Job times at the reference machine speed (see speed.py)."""
        return [dt * self.speed.scale(i)
                for dt, i in zip(self.latency, self.probe_at)]

    def by_round(self, values) -> dict[bool, tuple[float, int]]:
        """(sum of values, jobs) over traced and over untraced rounds."""
        out = {True: (0.0, 0), False: (0.0, 0)}
        start = 0
        for traced, n in self.rounds:
            total, jobs = out[traced]
            out[traced] = (total + sum(values[start:start + n]), jobs + n)
            start += n
        return out


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics, so one job type sitting at the rank does not decide
    the value alone."""
    xs = np.sort(samples)
    n = len(xs)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), xs))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven.  With
    fewer than twenty samples that percentile lies below the median."""
    n = len(samples)
    if n < 11:
        return max(samples), 100.0
    p = (n - 10) / n
    return quantile(samples, p), 100.0 * p


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, list[str]]:
    outs = loop.outcomes
    attempted = sum(o.ops for o in outs)
    failed = sum(o.failed for o in outs)
    scaled = loop.scaled()
    tail_v, tail_p = tail(scaled)
    digits = min((o.digits for o in outs), default=math.inf)
    values = {
        "setup_s": setup_s,
        "job_p50_s": quantile(scaled, 0.5),
        "job_tail_s": tail_v,
        "work_per_s": sum(o.work for o in outs) / sum(scaled),
        "err_digits": digits if math.isfinite(digits) else 17.0,
        "ok_share": 1.0 - failed / max(attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_tail, _ = tail(loop.latency)
    notes = [f"jobs={len(scaled)} timed_s={sum(loop.latency):.3f} "
             f"probes={len(loop.speed.probes)} "
             f"probe_median_s={statistics.median(loop.speed.probes):.5f}",
             f"job_tail_s is p{tail_p:.1f} of {len(scaled)} jobs"
             + (" (too few jobs for a tail)" if tail_p < 50.0 else ""),
             f"fail_share={failed}/{attempted}",
             f"unscaled job_p50_s={statistics.median(loop.latency):.6g} "
             f"job_tail_s={raw_tail:.6g} "
             f"work_per_s={sum(o.work for o in outs) / sum(loop.latency):.6g}"]
    return values, notes


def envelope_probe(seed: int, workdir: str) -> tuple[float, list[str]]:
    """Correct digits of the case dense_roundtrip leaves out because the
    seed code fails it (jobs.C_TUBE_L8_RHO0), run untraced after the timed
    loop and counted in no workload's operations; the notes say whether it
    met its tolerances."""
    import jobs
    job = jobs.DenseRoundtrip(seed, workdir).envelope_probe()
    try:
        out = job.check(job.run())
    finally:
        job.cleanup()
    return out.digits, out.notes or [f"{job.kind}: PASS"]


def per_layer(loop: Loop, tracer, probe_digits: float) -> tuple[dict, list[str]]:
    """Per traced job: span aggregates of the traced rounds; the overhead
    is the gap in scaled job time between traced and untraced rounds."""
    traced_wall, traced_jobs = loop.by_round(loop.latency)[True]
    overhead = loop.by_round(loop.scaled())
    plain_jobs = overhead[False][1]
    per_job = 1.0 / max(traced_jobs, 1)
    layer_self = tracer.layer_self()
    values: dict[str, float] = {}
    for name, _unit in per_layer_names():
        parts = name.split(".")
        if name.endswith(".lines"):
            continue
        if parts[0] == "verify" and parts[1] != "self_s":
            values[name] = tracer.table(2).get(f"verify.{parts[1][:-2]}", 0.0) * per_job
        elif len(parts) == 2 and parts[1] == "self_s":
            values[name] = layer_self.get(parts[0], 0.0) * per_job
        elif len(parts) == 3 and parts[2] in ("calls", "self_s"):
            table = tracer.table(0 if parts[2] == "calls" else 1)
            values[name] = tracer.group_total(table, parts[0], parts[1]) * per_job
    calls = tracer.group_total(tracer.table(0), "modes", "transfer_matrix")
    values["modes.transfer_matrix.repeat_share"] = \
        tracer.counters.get("modes.transfer_matrix.repeats", 0) / max(calls, 1)
    values["modes.transfer_matrix.new_keys"] = \
        tracer.counters.get("modes.transfer_matrix.new_keys", 0) * per_job
    values["expansions.labels"] = tracer.counters.get("expansions.labels", 0) * per_job
    values["expansions.bytes_computed"] = \
        tracer.counters.get("expansions.bytes_computed", 0) * per_job
    values["cli.eval.points"] = loop.eval_points * per_job
    values["envelope.c_tube_l8_digits"] = probe_digits
    values["cli.self_s"] = layer_self.get("cli", 0.0) * per_job
    values["bench.self_s"] = layer_self.get("bench", 0.0) * per_job
    values["trace.overhead_s"] = (overhead[True][0] * per_job
                                  - overhead[False][0] / max(plain_jobs, 1))
    values.update(src_lines())
    accounted = sum(layer_self.values())
    notes = [f"traced_jobs={traced_jobs} untraced_jobs={plain_jobs}",
             json.dumps({"trace": {"traced_wall_s": traced_wall,
                                   "accounted_s": accounted,
                                   "layers_s": layer_self}})]
    return values, notes


def run_workload(args) -> int:
    import jobs
    from tracing import Tracer

    setup_s, setup_all = measure_setup()
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(keep_spans=200_000 if args.spans else 0) if args.trace else None
    try:
        workload = jobs.WORKLOADS[args.workload](args.seed, str(workdir))
        loop = Loop(workload, tracer, args.jobs)
        loop.measure(args.seconds, bool(args.trace))
        probe = envelope_probe(args.seed, str(workdir)) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()   # only when no other run uses it
    attempted = sum(o.ops for o in loop.outcomes)
    failed = sum(o.failed for o in loop.outcomes)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: closed loop, 1 client")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# setup_s samples {setup_all}")
    for note in loop.notes[:20]:
        print(f"# FAIL {note}")
    if args.trace:
        values, notes = per_layer(loop, tracer, probe[0])
        notes += [f"envelope probe {note}" for note in probe[1]]
        names = per_layer_names()
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    if span is not None:
                        fh.write(json.dumps(span) + "\n")
    else:
        values, notes = end_to_end(loop, setup_s)
        names = END_TO_END
    for note in notes:
        print(f"# {note}")
    print(f"# outputs sha256 {loop.digest.hexdigest()}")
    metrics = {}
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own memory peak."""
    summary, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="stop after this many timed jobs")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write span records here (JSON lines)")
    args = parser.parse_args(argv)
    if not (SRC / "adskg" / "__init__.py").is_file():
        print(f"error: no adskg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

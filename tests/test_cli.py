import numpy as np
import pytest

from adskg.cli import build_parser, main
from adskg.expansions import OmegaGrid, RodRep, SliceRep, TubeRep, _Coeffs, save_rep
from adskg.geometry import make_params
from adskg.harmonics import sph_harm
from adskg.modes import RadialKind, jacobi_radial, magic_frequency, radial_eval


def test_eval_row_count(tmp_path, capsys):
    out = tmp_path / "mode.csv"
    code = main(["eval", "--kind", "sa", "--omega", "2.3", "--l", "1",
                 "--m", "0", "--rho", "0.1:1.4:14", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# adskg v1 eval d=3")
    assert lines[1] == "t,rho,theta,phi,re,im"
    assert len(lines) == 2 + 14


def test_eval_matches_pointwise_reference(tmp_path):
    # rows in t, rho, theta, phi order, each the product e^{-iwt} * radial * Y
    params = make_params(3, 1.0, 0.0)
    ts, rhos = np.linspace(0.0, 3.0, 3), np.linspace(0.05, 1.5, 4)
    thetas, phis = np.linspace(0.2, 2.9, 2), np.linspace(0.0, 6.0, 3)
    for kind, extra in (("cb", ["--omega", "-2.1"]), ("jplus", ["--n", "2"])):
        out = tmp_path / f"{kind}.csv"
        assert main(["eval", "--kind", kind, *extra, "--l", "3", "--m", "-2",
                     "--t", "0:3:3", "--rho", "0.05:1.5:4", "--theta", "0.2:2.9:2",
                     "--phi", "0:6:3", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        expected = []
        for t in map(float, ts):
            for rho in map(float, rhos):
                for theta in map(float, thetas):
                    for phi in map(float, phis):
                        if kind == "cb":
                            om = -2.1
                            rad = radial_eval(RadialKind.Cb, om, 3, rho, params)
                        else:
                            om = magic_frequency("plus", 2, 3, params)
                            rad = jacobi_radial("plus", 2, 3, rho, params)
                        val = complex(np.exp(-1j * om * t) * rad
                                      * sph_harm(3, -2, theta, phi))
                        expected.append(f"{t!r},{rho!r},{theta!r},{phi!r},"
                                        f"{val.real!r},{val.imag!r}")
        assert rows == expected


def _per_row_eval(argv) -> str:
    """`adskg eval` output from the per-row loop the CLI once ran: the
    reference its array form reproduces byte for byte."""
    args = build_parser().parse_args(argv)
    params = make_params(args.d, args.R, args.msq)
    if args.kind in ("jplus", "jminus"):
        branch = args.kind[1:]
        rads = jacobi_radial(branch, args.n, args.l, args.rho, params)
        om = magic_frequency(branch, args.n, args.l, params)
    else:
        rads = radial_eval(RadialKind(args.kind), args.omega, args.l, args.rho, params)
        om = args.omega
    angles = [(theta, phi) for theta in map(float, args.theta)
              for phi in map(float, args.phi)]
    ylms = sph_harm(args.l, args.m, args.theta[:, None], args.phi).ravel()
    lines = [f"# adskg v1 eval d={args.d} R={args.R!r} msq={args.msq!r}",
             "t,rho,theta,phi,re,im"]
    for t in map(float, args.t):
        phase = np.exp(-1j * om * t)
        for rho, rad in zip(map(float, args.rho), rads):
            for (theta, phi), ylm in zip(angles, ylms):
                val = complex(phase * rad * ylm)
                lines.append(f"{t!r},{rho!r},{theta!r},{phi!r},"
                             f"{val.real!r},{val.imag!r}")
    return "\n".join(lines) + "\n"


# rho grids cross sin^2 = 0.75 (pi/3) and cos^2 = 0.75 (pi/6); 16 points or
# more take the array radial path, fewer the scalar one
_EVAL_CASES = {
    "sa": ["--kind", "sa", "--omega", "2.3", "--l", "1", "--m", "0", "--t", "0:3:3",
           "--rho", "0:1.5:12", "--theta", "0.2:2.9:2", "--phi", "0:6:3"],
    "sb": ["--kind", "sb", "--omega", "-7.9", "--l", "4", "--m=-3", "--t", "0.7",
           "--rho", "0.05:1.5:40", "--theta", "0.2:2.9:3"],
    "ca": ["--kind", "ca", "--omega", "11.2", "--l", "2", "--m=-2", "--msq", "0.37",
           "--rho", "0.3:1.3:17", "--theta", "1.1", "--phi", "0:6:5"],
    "cb": ["--kind", "cb", "--omega", "0.0", "--l", "3", "--m", "1", "--msq", "-2.2",
           "--t=-1:2:4", "--rho", "0.1:1.5:9", "--phi", "0:6:2"],
    "jplus": ["--kind", "jplus", "--n", "2", "--l", "5", "--m=-4", "--msq", "-2.2",
              "--t", "0:3:3", "--rho", "0:1.5:20", "--theta", "0.2:2.9:2"],
    "jminus": ["--kind", "jminus", "--n", "1", "--l", "2", "--m=-1", "--msq", "-2.2",
               "--rho", "0.05:1.5:11", "--theta", "0.2:2.9:3", "--phi", "0:6:2"],
    "single": ["--kind", "sa", "--omega", "-5.5", "--l", "2", "--m=-2"],
}


@pytest.mark.parametrize("case", sorted(_EVAL_CASES))
def test_eval_csv_is_the_per_row_loop_byte_for_byte(case, tmp_path, capsys):
    argv = ["eval", *_EVAL_CASES[case]]
    want = _per_row_eval(argv)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "mode.csv"
    assert main([*argv, "-o", str(out)]) == 0
    assert out.read_text() == want and capsys.readouterr().out == ""


def test_eval_normalization_overflow_exits_2(capsys):
    assert main(["eval", "--kind", "sa", "--omega", "2.0", "--l", "90", "--m=-90"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(90, -90)" in err


def test_eval_legendre_overflow_exits_2(capsys):
    argv = ["eval", "--kind", "sa", "--omega", "2.0", "--l", "86", "--m", "86",
            "--rho", "0.5", "--t", "0", "--theta", "1.0", "--phi", "0"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "(86, 86)" in err


@pytest.mark.parametrize("omega, l", [("1e308", "1"), ("1", "100000")])
def test_eval_non_finite_radial_value_exits_2(capsys, omega, l):
    argv = ["eval", "--kind", "sa", "--omega", omega, "--l", l, "--m", "0", "--rho", "0.5"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: sa or its rho-derivative is not finite at "
                                 f"(omega, l, rho) = ({float(omega)!r}, {l}, 0.5)\n")


def test_eval_rejects_d5(capsys):
    assert main(["eval", "--d", "5", "--kind", "sa", "--omega", "2.0", "--l", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: d = 5")


def test_eval_invalid_kind(capsys):
    assert main(["eval", "--kind", "nope", "--rho", "0.5"]) == 2


def test_eval_invalid_degree_or_order(capsys):
    for l, m in (("1", "3"), ("2", "-3"), ("-1", "0")):
        assert main(["eval", "--kind", "sa", "--omega", "2.0",
                     "--l", l, "--m", m]) == 2
        assert "|m| <= l" in capsys.readouterr().err


def test_eval_negative_jacobi_order_exits_2(capsys):
    for kind in ("jplus", "jminus"):
        argv = ["eval", "--kind", kind, "--msq", "-2.2", "--n", "-1", "--rho", "0.5"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "(n, l) = (-1, 0)" in err


def test_eval_jacobi_rho_past_the_boundary_exits_2(capsys):
    argv = ["eval", "--kind", "jplus", "--n", "1", "--l", "1", "--rho", "2.0", "--msq", "0.5"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: Jacobi modes need rho in [0, pi/2]\n"


def test_eval_deterministic(tmp_path):
    args = ["eval", "--kind", "jplus", "--n", "1", "--l", "1", "--m", "1",
            "--rho", "0.2:1.2:7", "--t", "0.0:1.0:3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_unknown_suite():
    assert main(["verify", "nonsense"]) == 2


def test_verify_specfun(capsys):
    code = main(["verify", "specfun"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "SUITE specfun PASS" in captured


@pytest.fixture()
def nan_double_pochhammer(monkeypatch):
    # one NaN measurement among finite ones: the first call's
    import adskg.specfun
    fine, calls = adskg.specfun.double_pochhammer, []

    def first_call_nan(a, k):
        calls.append(k)
        return float("nan") if len(calls) == 1 else fine(a, k)

    monkeypatch.setattr(adskg.specfun, "double_pochhammer", first_call_nan)


def test_verify_nan_measurement_fails(capsys, nan_double_pochhammer):
    assert main(["verify", "specfun"]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] double_pochhammer_halving: max_err=nan tol=1e-13\n" in out
    assert out.endswith("SUITE specfun FAIL max_err=nan\n")


def test_verify_json_writes_nan_as_null(capsys, nan_double_pochhammer):
    import json

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert main(["verify", "specfun", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["passed"] is False
    assert doc["suites"][0]["max_err"] is None
    rec = next(r for r in doc["checks"] if r["name"] == "double_pochhammer_halving")
    assert rec["value"] is None and rec["passed"] is False


def test_verify_text_output_format(capsys):
    # the text lines other tools parse: one line per check, then SUITE
    from adskg.verify import run_suite
    checks = run_suite("harmonics")
    worst = max(c.value for c in checks)
    assert main(["verify", "harmonics"]) == 0
    want = "".join(c.line + "\n" for c in checks)
    want += f"SUITE harmonics PASS max_err={worst:.3e}\n"
    assert capsys.readouterr().out == want


def test_verify_json_records(capsys):
    import json
    from adskg.verify import SUITES, run_suite
    assert main(["verify", "all", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == list(SUITES)
    assert all(s["passed"] and s["duration_s"] > 0.0 for s in doc["suites"])
    assert all(set(rec) == {"suite", "name", "value", "tol", "window", "passed"}
               for rec in doc["checks"])
    for name in ("harmonics", "geometry", "minkowski"):
        recs = [rec for rec in doc["checks"] if rec["suite"] == name]
        want = [{"suite": name, "name": c.name, "value": c.value, "tol": c.tol,
                 "window": None if c.window is None else list(c.window),
                 "passed": c.passed} for c in run_suite(name)]
        assert recs == want


PACKAGE_MEMOS = {"radial_table": 128, "lm_labels": 128, "ylm_point": 64, "grid_rule": 4,
                 "theta_table": 16, "radial_measure": 16, "jacobi_table": 32}


def test_verify_json_reports_cache_counters(capsys):
    import json
    from adskg.memo import counters
    assert main(["verify", "modes", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    caches = doc["caches"]
    assert caches == counters() and "angular_caches" not in doc
    assert {name: caches[name]["maxsize"] for name in PACKAGE_MEMOS} == PACKAGE_MEMOS
    for counts in caches.values():
        assert set(counts) == {"hits", "misses", "size", "maxsize"}
        assert 0 <= counts["size"] <= counts["maxsize"]
    assert 0 < caches["radial_table"]["size"] and caches["radial_table"]["misses"] > 0
    assert main(["verify", "modes"]) == 0
    assert "caches" not in capsys.readouterr().out


def test_verify_json_reports_the_angular_cache(capsys):
    import json
    from adskg.memo import counters
    assert main(["verify", "harmonics", "--json"]) == 0
    caches = json.loads(capsys.readouterr().out)["caches"]
    assert caches == counters()
    for name in ("ylm_point", "grid_rule", "theta_table", "radial_measure"):
        assert caches[name]["maxsize"] == PACKAGE_MEMOS[name]
        assert 0 <= caches[name]["size"] <= caches[name]["maxsize"]
    assert caches["grid_rule"]["size"] > 0 and caches["grid_rule"]["misses"] > 0


def test_verify_json_reports_the_process_counters(capsys, monkeypatch):
    import json
    import sys
    from types import SimpleNamespace
    from adskg import cli
    assert main(["verify", "harmonics", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"passed", "suites", "checks", "caches", "process"}
    assert set(doc["process"]) == {"minor_faults", "peak_rss_growth_mb"}
    assert isinstance(doc["process"]["minor_faults"], int)
    assert doc["process"]["minor_faults"] >= 0 and doc["process"]["peak_rss_growth_mb"] >= 0.0
    # the run's growth: the counters at its end less those at its start
    usage = iter([SimpleNamespace(ru_minflt=100, ru_maxrss=2048),
                  SimpleNamespace(ru_minflt=350, ru_maxrss=4096)])
    monkeypatch.setattr(cli, "resource", SimpleNamespace(
        RUSAGE_SELF=0, getrusage=lambda who: next(usage)))
    assert main(["verify", "harmonics", "--json"]) == 0
    kib = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS
    assert json.loads(capsys.readouterr().out)["process"] == {
        "minor_faults": 250, "peak_rss_growth_mb": 2048 * kib / 2.0 ** 20}
    monkeypatch.setattr(cli, "resource", None)  # no getrusage, as on Windows
    assert main(["verify", "harmonics", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["process"] == {
        "minor_faults": None, "peak_rss_growth_mb": None}
    assert main(["verify", "harmonics"]) == 0
    assert "minor_faults" not in capsys.readouterr().out


def test_import_loads_no_scipy_linalg_or_integrate():
    # the package's import time (the benchmark's setup_s) stays free of both
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = ("import sys, adskg, adskg.cli, adskg.verify; print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] in (['scipy', 'linalg'], ['scipy', 'integrate'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_reconstruct_round_trip(tmp_path, capsys):
    params = make_params(3, 1.0, 0.0)
    grid = OmegaGrid(0.5, (-3, 2, 3))
    rep = TubeRep(grid, {(3, 1, 0): (0.7 + 0.2j, 0.1), (2, 0, 0): (0.4, 0.3j),
                         (-3, 1, 1): (0.2, 0.5j)}, "S")
    path = tmp_path / "rep.txt"
    save_rep(str(path), rep, params)
    code = main(["reconstruct", "--input", str(path), "--target", "tube",
                 "--rho0", "0.8"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "RECONSTRUCT tube PASS" in captured


def test_reconstruct_tube_grid_sized_from_rep(tmp_path, capsys):
    # l = 18 needs more than the default 16 x 32 angular grid
    params = make_params(3, 1.0, 0.0)
    grid = OmegaGrid(0.5, (-1, 2))
    rep = TubeRep(grid, {(2, 18, 5): (0.7 + 0.2j, 0.1), (-1, 18, -18): (0.4, 0.3j),
                         (2, 3, 1): (0.2, 0.5j)}, "S")
    path = tmp_path / "rep.txt"
    save_rep(str(path), rep, params)
    code = main(["reconstruct", "--input", str(path), "--target", "tube",
                 "--rho0", "0.9"])
    assert code == 0
    assert "RECONSTRUCT tube PASS" in capsys.readouterr().out


def test_reconstruct_empty_rep_parse_error(tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text("adskg-rep v1 d=3 R=1.0 msq=0.0 domega=0.5\n")
    assert main(["reconstruct", "--input", str(path), "--target", "tube"]) == 2


def test_reconstruct_slice(tmp_path, capsys):
    params = make_params(3, 1.0, 0.0)
    rep = SliceRep({(1, 1, 0): (0.8, 0.2j), (0, 2, 1): (0.3j, 0.5)})
    path = tmp_path / "rep.txt"
    save_rep(str(path), rep, params)
    code = main(["reconstruct", "--input", str(path), "--target", "slice",
                 "--t0", "0.3"])
    assert code == 0
    assert "RECONSTRUCT slice PASS" in capsys.readouterr().out


def test_reconstruct_rod_magic_blind(tmp_path, capsys):
    params = make_params(3, 1.0, 0.0)
    grid = OmegaGrid(1.0, (3,))
    rep = RodRep(grid, {(3, 0, 0): 1.0})  # omega = 3 is magic for m = 0
    path = tmp_path / "rep.txt"
    save_rep(str(path), rep, params)
    code = main(["reconstruct", "--input", str(path), "--target", "boundary"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "MagicFrequencyBlind" in captured


def test_reconstruct_missing_file():
    assert main(["reconstruct", "--input", "/nonexistent/rep.txt",
                 "--target", "tube"]) == 2


def _reconstruct(tmp_path, rep, target, *extra):
    path = tmp_path / "rep.txt"
    save_rep(str(path), rep, make_params(3, 1.0, 0.0))
    return main(["reconstruct", "--input", str(path), "--target", target, *extra])


def test_reconstruct_rod_interior(tmp_path, capsys):
    grid = OmegaGrid(0.45, (-4, 3, 5))
    rep = RodRep(grid, {(3, 0, 0): 0.8 + 0.3j, (-4, 1, -1): 0.5, (5, 2, 1): -0.2j})
    assert _reconstruct(tmp_path, rep, "rod", "--rho0", "0.9") == 0
    out = capsys.readouterr().out
    assert "RECONSTRUCT rod PASS" in out and out.count("label ") == 3


@pytest.mark.parametrize("make", [
    lambda grid, c: TubeRep(grid, c, "S"),
    lambda grid, c: TubeRep(grid, c, "C"),
    lambda grid, c: RodRep(grid, {key: a for key, (a, _) in c.items()}),
])
def test_reconstruct_boundary(tmp_path, capsys, make):
    # omega = 0.45 k stays off the magic frequencies 2n + l + 3
    grid = OmegaGrid(0.45, (-4, 2, 5))
    rep = make(grid, {(5, 1, 0): (0.7 + 0.2j, 0.1), (2, 0, 0): (0.4, 0.3j),
                      (-4, 2, 1): (0.2, 0.5j)})
    assert _reconstruct(tmp_path, rep, "boundary") == 0
    out = capsys.readouterr().out
    assert "RECONSTRUCT boundary PASS" in out and out.count("label ") == 3


@pytest.mark.parametrize("target, rep", [
    ("slice", SliceRep({(1, 1, 0): (0.8, 0.2j), (0, 2, 1): (0.3j, 0.5)})),
    ("tube", TubeRep(OmegaGrid(0.45, (-4, 2, 5)), {(5, 1, 0): (0.7, 0.1), (2, 0, 0): (0.4, 0.3j)},
                     "C")),
    ("rod", RodRep(OmegaGrid(0.45, (-4, 3)), {(3, 0, 0): 0.8 + 0.3j, (-4, 1, -1): 0.5})),
    ("boundary", TubeRep(OmegaGrid(0.45, (-4, 2)), {(2, 0, 0): (0.4, 0.3j),
                                                     (-4, 2, 1): (0.2, 0.5j)}, "S")),
    ("boundary", RodRep(OmegaGrid(0.45, (2, 5)), {(5, 1, 0): 0.7 + 0.2j})),
])
def test_reconstruct_never_builds_a_dict_view(tmp_path, capsys, monkeypatch, target, rep):
    # the loaded rep, its basis change and the inverted rep are read as arrays
    path = tmp_path / "rep.txt"
    save_rep(str(path), rep, make_params(3, 1.0, 0.0))

    def built(self):
        raise AssertionError("a rep's {(j, l, m): values} view was built")

    monkeypatch.setattr(_Coeffs, "_view", property(built))
    assert main(["reconstruct", "--input", str(path), "--target", target]) == 0
    assert f"RECONSTRUCT {target} PASS" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="view was built"):
        dict(rep.coeffs)


@pytest.mark.parametrize("body", [
    "domega=0.5\nS 1 2 5 1.0 0.0 0.0 0.0\n",
    "domega=0.5\nS 1 1 0 1.0 0.0 0.0 0.0\nS 1 1 0 2.0 0.0 0.0 0.0\n",
    "domega=0.0\nS 1 1 0 1.0 0.0 0.0 0.0\n",
    "domega=nan\nrod 1 1 0 1.0 0.0 0.0 0.0\n",
    "domega=0.5\nS\x00 1 1 0 1.0 0.0 0.0 0.0\n",
])
def test_reconstruct_malformed_rep_file_exits_2(tmp_path, capsys, body):
    path = tmp_path / "rep.txt"
    path.write_text("adskg-rep v1 d=3 R=1.0 msq=0.0 " + body)
    for target in ("tube", "boundary"):
        assert main(["reconstruct", "--input", str(path), "--target", target]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("target,domega,line,rule", [
    ("tube", 0.5, "S 99999999999 0 0 1 0 0 0", "|k| <= 256, l <= 32"),
    ("tube", 0.5, "S -9223372036854775808 0 0 1 0 0 0", "|k| <= 256, l <= 32"),
    ("rod", 0.5, "rod 257 0 0 1 0 0 0", "|k| <= 256, l <= 32"),
    ("boundary", 0.5, "C -3 33 0 1 0 0 0", "|k| <= 256, l <= 32"),
    ("slice", 0.0, "slice 257 1 0 1 0 0 0", "n <= 256, l <= 32"),
])
def test_reconstruct_rejects_labels_past_the_file_limits(tmp_path, capsys, monkeypatch,
                                                         target, domega, line, rule):
    # refused before the rep's arrays are formed: no grid is ever sized
    # from the label, so a regression fails here instead of allocating
    from adskg import expansions as xp

    def formed(*args):
        raise AssertionError("rep arrays formed from an over-limit label")

    monkeypatch.setattr(xp, "_scatter", formed)
    path = tmp_path / "rep.txt"
    path.write_text(f"adskg-rep v1 d=3 R=1.0 msq=0.0 domega={domega}\n"
                    f"{line.split()[0]} 1 0 0 1 0 0 0\n{line}\n")
    assert main(["reconstruct", "--input", str(path), "--target", target]) == 2
    label = "(%s, %s, %s)" % tuple(line.split()[1:4])
    assert capsys.readouterr().err == (
        f"error: label {label} exceeds the rep-file limits {rule}\n")


def test_reconstruct_reports_the_worst_channel_per_label(tmp_path, capsys):
    from adskg.expansions import invert_tube, sample_tube
    from adskg.harmonics import AngularGrid
    params = make_params(3, 1.0, 0.0)
    grid = OmegaGrid(0.5, (-3, 2, 3))
    rep = TubeRep(grid, {(3, 1, 0): (0.7 + 0.2j, 0.1), (2, 0, 0): (0.4, 0.3j),
                         (-3, 1, 1): (0.2, 0.5j)}, "C")
    assert _reconstruct(tmp_path, rep, "tube", "--rho0", "0.7") == 0
    rec = invert_tube(sample_tube(rep, 0.7, params, AngularGrid(16, 32)), params, 1, "C")
    want = [f"label {key}: recovery_err="
            f"{max(abs(g - v) for g, v in zip(rec.coeffs[key], vals)):.3e}"
            for key, vals in sorted(rep.coeffs.items())]
    assert capsys.readouterr().out.splitlines()[:-1] == want


def test_reconstruct_nan_recovery_error_fails(monkeypatch, capsys):
    # a NaN error is not below the tolerance: the run fails and reports it
    from adskg import expansions as xp
    rep = TubeRep(OmegaGrid(0.5, (1, 2)), {(1, 1, 0): (complex("nan"), 0.0),
                                            (2, 0, 0): (0.4, 0.3j)}, "S")
    monkeypatch.setattr(xp, "load_rep", lambda path: (rep, make_params(3, 1.0, 0.0)))
    assert main(["reconstruct", "--input", "rep.txt", "--target", "tube"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label (1, 1, 0): recovery_err=nan"
    assert lines[-1] == "RECONSTRUCT tube FAIL max_err=nan"


def test_reconstruct_report_is_the_per_label_format_byte_for_byte(monkeypatch, capsys):
    # 32 rows (k = -16..15) by 81 orders (l <= 8): 2592 labels, one error NaN;
    # the report against each label line formatted whole
    from adskg import expansions as xp
    rng = np.random.default_rng(25)
    grid = OmegaGrid(0.37, tuple(range(-16, 16)))
    keys = [(k, l, m) for k in grid.indices for l in range(9) for m in range(-l, l + 1)]
    values = rng.normal(size=(len(keys), 2)) + 1j * rng.normal(size=(len(keys), 2))
    rep = TubeRep(grid, dict(zip(keys, map(tuple, values.tolist()))), "S")
    got = values + 10.0 ** rng.uniform(-16, -4, size=values.shape)
    got[keys.index((-7, 3, -2)), 0] = np.nan
    rec = TubeRep(grid, dict(zip(keys, map(tuple, got.tolist()))), "S")
    monkeypatch.setattr(xp, "load_rep", lambda path: (rep, make_params(3, 1.0, 0.0)))
    monkeypatch.setattr(xp, "sample_tube", lambda *args: None)
    monkeypatch.setattr(xp, "invert_tube", lambda *args: rec)
    assert main(["reconstruct", "--input", "rep.txt", "--target", "tube"]) == 1
    errs = np.abs(got - values).max(axis=1).tolist()
    want = "".join("label (%d, %d, %d): recovery_err=%.3e\n" % (*key, err)
                   for key, err in zip(keys, errs))
    assert len(keys) == 2592 and min(keys)[0] == -16
    assert capsys.readouterr().out == want + "RECONSTRUCT tube FAIL max_err=nan\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_reconstruct_non_finite_rep_file_exits_2(tmp_path, capsys, value):
    path = tmp_path / "rep.txt"
    path.write_text("adskg-rep v1 d=3 R=1.0 msq=0.0 domega=0.5\n"
                    f"S 1 1 0 {value} 0.0 0.0 0.0\n")
    assert main(["reconstruct", "--input", str(path), "--target", "tube"]) == 2
    assert capsys.readouterr().err == (
        f"error: non-finite coefficient: 'S 1 1 0 {value} 0.0 0.0 0.0'\n")


# --- bad numbers and parameters: usage errors, exit 2, no traceback ----------------

_EVAL = ["eval", "--omega", "2.3", "--l", "1", "--m", "0"]


@pytest.mark.parametrize("argv", [
    [*_EVAL, "--kind", "sa", "--R=0"],
    [*_EVAL, "--kind", "sa", "--R=-1"],
    [*_EVAL, "--kind", "sa", "--R=1e200", "--msq=1"],  # m^2 R^2 overflows
], ids=repr)
def test_eval_out_of_range_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["sa", "ca", "jplus"])
@pytest.mark.parametrize("arg", ["--msq=nan", "--R=nan", "--R=inf", "--omega=inf",
                                 "--t=nan", "--t=inf", "--phi=nan", "--theta=-inf",
                                 "--rho=nan", "--rho=0.1:nan:3", "--t=-inf:1:3",
                                 "--msq=1e999"])
def test_eval_non_finite_numbers_are_usage_errors(kind, arg, capsys):
    assert main([*_EVAL, "--kind", kind, arg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "expected a finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("arg", ["--t0=nan", "--t0=inf", "--rho0=nan", "--rho0=-inf"])
def test_reconstruct_non_finite_numbers_are_usage_errors(arg, tmp_path, capsys):
    rep = SliceRep({(1, 1, 0): (0.8, 0.2j)})
    assert _reconstruct(tmp_path, rep, "slice", arg) == 2
    out, err = capsys.readouterr()
    assert out == "" and "expected a finite number" in err


@pytest.mark.parametrize("target,body", [
    ("boundary", "domega=0.5\nS 1 1 0 1.0 0.0 0.0 0.0\n"),
    ("slice", "domega=0.0\nslice 1 1 0 1.0 0.0 0.0 0.0\n"),
])
@pytest.mark.parametrize("fields", ["R=1.0 msq=nan", "R=0.0 msq=0.0", "R=-1.0 msq=0.0"])
def test_reconstruct_bad_header_parameters_exit_2(tmp_path, capsys, target, body, fields):
    path = tmp_path / "rep.txt"
    path.write_text(f"adskg-rep v1 d=3 {fields} " + body)
    assert main(["reconstruct", "--input", str(path), "--target", target]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad header fields: ")
    assert err.count("\n") == 1

"""The benchmark's three workloads.

A workload hands out rounds of jobs.  Every input of a job (rep files,
reps, points, argv) is drawn from the workload seed before the job is
timed; `Job.run` is the timed part and drives adskg only through its public
functions and `adskg.cli.main`; `Job.check` runs afterwards, outside the
timed region, and returns an `Outcome`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from adskg import cli
from adskg import expansions as xp
from adskg import symplectic as sy
from adskg.geometry import make_params
from adskg.harmonics import AngularGrid, sph_harm
from adskg.modes import RadialKind, radial_eval_fd

import oracle

# Relative tolerances the library, its verify suites and its tests use.
# A check's error is |got - ref| / max(|ref|, scale); the scale is the
# magnitude the value is a small part of (see each check): the largest
# coefficient of a round-tripped rep, the sum of |terms| of a synthesised
# field, or 0 for a plain relative check.
PAIRING_TOL = 1e-7           # verify: quadrature vs momentum pairings
ORACLE_TOL = 1e-8            # radial values against mpmath
BASIS_TOL = 1e-10            # tests: S -> C -> S round trip
POINTWISE_TOL = 1e-9         # tests: S and C bases agree pointwise
ROD_BOUNDARY_TOL = 1e-6      # tests and verify: rod boundary round trip
NODE_STEP = 1e-3             # radial oracle: local magnitude within +-NODE_STEP
ERR_FLOOR = 1e-17            # caps err_digits at 17 when a check is exact

PARAMS = make_params(3, 1.0, 0.0)
KINDS = {"sa": RadialKind.Sa, "sb": RadialKind.Sb,
         "ca": RadialKind.Ca, "cb": RadialKind.Cb}


@dataclass
class Outcome:
    """What the checks of one job found: operations attempted and failed,
    the fewest correct digits any check measured, units of work, and the
    exact outputs (for the traced-vs-untraced identity test)."""

    ops: int = 0
    failed: int = 0
    digits: float = math.inf
    work: float = 0.0
    output: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, name: str, items, tol: float, scale: float = 0.0):
        """One operation: every (got, ref) or (got, ref, scale) item must
        meet |got - ref| <= tol * max(|ref|, scale)."""
        self.ops += 1
        bad = self.measure(name, items, tol, scale)
        if bad is not None:
            self.fail(bad)

    def measure(self, name: str, items, tol: float, scale: float = 0.0):
        """The errors of `check`, without counting an operation; returns
        a note on the first item beyond `tol`, or None."""
        bad = None
        for item in items:
            got, ref = item[:2]
            floor = item[2] if len(item) > 2 else scale
            err = abs(got - ref) / max(abs(ref), floor, np.finfo(float).tiny)
            self.digits = min(self.digits, -math.log10(max(err, ERR_FLOOR)))
            if bad is None and not err <= tol:
                bad = f"{name}: {got!r} vs {ref!r}, error {err:.3e} > {tol:.0e}"
        return bad

    def fail(self, note: str):
        self.failed += 1
        self.notes.append(note)


def _cplx(rng) -> complex:
    return complex(rng.normal(), rng.normal())


def _run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


class Job:
    """One closed-loop request: `run()` is timed, `check(result)` is not."""

    kind = "job"

    def run(self):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# dense_roundtrip
# ---------------------------------------------------------------------------

# Size ladders, each round runs every rung of every target.
# (n_max, l_max) of slice reps: 50, 108, 196, 320 and 1331 labels
SLICE_RUNGS = ((1, 4), (2, 5), (3, 6), (4, 7), (10, 10))
# (frequencies, l_max) of tube and rod reps: 54 to 2592 labels
GRID_RUNGS = ((6, 2), (8, 3), (12, 4), (16, 5), (20, 6), (32, 8))
QUAD_RHO_NODES = 96          # as cli reconstruct and the verify suites use
# Tube and rod radius: the range the verify suites use, cut into three equal
# strata.  Every tube (S and C basis) and rod rung runs once at each stratum
# midpoint, so every run has the same radii and its worst error is
# comparable from seed to seed.
RHO0_RANGE = (0.5, 1.3)
RHO0_STRATA = 3
RHO0_LADDER = tuple(RHO0_RANGE[0] + (RHO0_RANGE[1] - RHO0_RANGE[0])
                    * (j + 0.5) / RHO0_STRATA for j in range(RHO0_STRATA))
# The seed code's C-basis tube reconstruct at l_max = 8 loses accuracy fast
# as rho0 falls (ROADMAP item 2): max_err about 1.2e-7 at 0.8, 4e-7 at
# 0.75, 1.5e-6 at 0.7 and 1e-5 at 0.633 against its 1e-6 tolerance.  A
# workload must not fail on the code it measures, so that rung runs its
# radii below C_TUBE_L8_RHO0 at C_TUBE_L8_RHO0 instead; `envelope_probe`
# keeps measuring the case it leaves out.
C_TUBE_L8_RHO0 = 0.8
BOUNDARY_FORMS = ("S", "C", "rod")   # boundary rung r uses form r % 3
_RECON = re.compile(r"^RECONSTRUCT (\S+) (PASS|FAIL) max_err=(\S+)$", re.M)


class ReconstructJob(Job):
    """`adskg reconstruct` on a rep file written beforehand; slice and tube
    jobs also pair the rep with a second rep on the same labels, in the
    quadrature and in the momentum form."""

    def __init__(self, path, target, rep, zeta, argv, t0=None, rho0=None):
        self.path, self.target, self.rep, self.zeta = path, target, rep, zeta
        self.argv, self.t0, self.rho0 = argv, t0, rho0
        basis = getattr(rep, "basis", "")
        self.kind = f"{target}:{type(rep).__name__}{basis}:{len(rep.coeffs)}" + \
            (f"@{rho0:.3f}" if rho0 is not None else "")
        self.work = float(len(rep.coeffs))

    def run(self):
        code, text = _run_cli(self.argv)
        pair = None
        if self.zeta is not None:
            ang = AngularGrid(16, 32)
            if self.target == "slice":
                quad = sy.omega_slice_quadrature(self.rep, self.zeta, self.t0,
                                                 PARAMS, QUAD_RHO_NODES, ang)
                mom = sy.omega_slice_momentum(self.rep, self.zeta, PARAMS)
            else:
                quad = sy.omega_tube_quadrature(self.rep, self.zeta, self.rho0,
                                                PARAMS, ang)
                mom = sy.omega_tube_momentum(self.rep, self.zeta, PARAMS)
            pair = (complex(quad), complex(mom))
        return code, text, pair

    def check(self, result) -> Outcome:
        """One operation: it fails when the CLI does not print PASS or
        exits nonzero, or when the two pairing forms disagree."""
        code, text, pair = result
        out = Outcome(ops=1, work=self.work, output=[text, pair])
        match = _RECON.search(text)
        bad = []
        if code != 0 or match is None or match.group(2) != "PASS":
            tail = text.strip().splitlines()[-1:] or ["no output"]
            bad.append(f"exit {code}, {tail[0]}")
        if match is not None:
            err = float(match.group(3))  # coefficients are O(1) normals
            out.digits = min(out.digits, -math.log10(max(err, ERR_FLOOR)))
        if pair is not None:
            quad, mom = pair
            bad.append(out.measure("pairing", [(quad, mom)], PAIRING_TOL))
        bad = [note for note in bad if note is not None]
        if bad:
            out.fail(f"{self.kind}: " + "; ".join(bad))
        return out

    def cleanup(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)


class DenseRoundtrip:
    """Every label up to the rung size populated; one frequency spacing per
    run, so frequencies repeat across jobs and the transfer cache hits.
    Every round is the same mix: each slice and boundary rung once, each
    tube rung in the S and the C basis and each rod rung at every radius of
    RHO0_LADDER (the C-basis l_max = 8 rung at no less than C_TUBE_L8_RHO0);
    the seed draws the coefficients, the spacing, t0 and the order."""

    ROUND_S = 21.0           # scaled job seconds of one round, seed code
    JOBS_PER_ROUND = len(SLICE_RUNGS) + len(GRID_RUNGS) * (1 + 3 * RHO0_STRATA)

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.d_omega = float(self.rng.uniform(0.42, 0.48))
        self.count = 0

    def _grid(self, n_freq: int) -> xp.OmegaGrid:
        half = n_freq // 2
        return xp.OmegaGrid(self.d_omega, tuple(range(-half, n_freq - half)))

    def _labels(self, grid, l_max):
        return [(k, l, m) for k in grid.indices for l in range(l_max + 1)
                for m in range(-l, l + 1)]

    def _job(self, target: str, rung: int, form: str = "",
             rho0: float | None = None) -> ReconstructJob:
        """One job: a slice rung, a tube rung in basis `form` at `rho0`, a
        rod rung at `rho0`, or a boundary rung of form S, C or rod."""
        rng = self.rng
        self.count += 1
        path = os.path.join(self.workdir, f"dense{self.count}.rep")
        argv = ["reconstruct", "--input", path, "--target", target]
        t0 = None
        zeta = None
        if target == "slice":
            n_max, l_max = SLICE_RUNGS[rung]
            labels = [(n, l, m) for n in range(n_max + 1)
                      for l in range(l_max + 1) for m in range(-l, l + 1)]
            rep = xp.SliceRep({key: (_cplx(rng), _cplx(rng)) for key in labels})
            zeta = xp.SliceRep({key: (_cplx(rng), _cplx(rng)) for key in labels})
            t0 = float(rng.uniform(0.0, 2.0 * math.pi))
            argv += ["--t0", repr(t0)]
        else:
            n_freq, l_max = GRID_RUNGS[rung]
            grid = self._grid(n_freq)
            labels = self._labels(grid, l_max)
            if rho0 is not None:
                argv += ["--rho0", repr(rho0)]
            if target == "boundary":
                form = BOUNDARY_FORMS[rung % len(BOUNDARY_FORMS)]
            if target == "rod" or form == "rod":
                rep = xp.RodRep(grid, {key: _cplx(rng) for key in labels})
            else:
                rep = xp.TubeRep(grid, {key: (_cplx(rng), _cplx(rng))
                                        for key in labels}, form)
                if target == "tube":
                    zeta = xp.TubeRep(grid, {key: (_cplx(rng), _cplx(rng))
                                             for key in labels}, form)
        xp.save_rep(path, rep, PARAMS)
        return ReconstructJob(path, target, rep, zeta, argv, t0, rho0)

    def warmup(self) -> list[Job]:
        mid = RHO0_LADDER[RHO0_STRATA // 2]
        return [self._job("slice", 0), self._job("tube", 0, "S", mid),
                self._job("tube", 0, "C", mid), self._job("rod", 0, rho0=mid),
                self._job("boundary", 0)]

    def round(self, index: int) -> list[Job]:
        specs = [("slice", rung, "", None) for rung in range(len(SLICE_RUNGS))]
        specs += [("boundary", rung, "", None) for rung in range(len(GRID_RUNGS))]
        specs += [(target, rung, form, _rho0(rung, form, rho0))
                  for rung in range(len(GRID_RUNGS)) for rho0 in RHO0_LADDER
                  for target, form in (("tube", "S"), ("tube", "C"), ("rod", ""))]
        order = self.rng.permutation(len(specs))
        return [self._job(*specs[i]) for i in order]

    def envelope_probe(self) -> Job:
        """The case `round` leaves out: a C-basis tube at l_max = 8 at the
        lowest radius of RHO0_LADDER, measured but not one of the
        workload's operations."""
        return self._job("tube", len(GRID_RUNGS) - 1, "C", RHO0_LADDER[0])


def _rho0(rung: int, form: str, rho0: float) -> float:
    if form == "C" and GRID_RUNGS[rung][1] == 8:
        return max(rho0, C_TUBE_L8_RHO0)
    return rho0


# ---------------------------------------------------------------------------
# sparse_pointwise
# ---------------------------------------------------------------------------

SPARSE_PER_ROUND = 8
OMEGA_MAX = 12.0
L_MAX = 6
N_POINTS = 6
N_ORACLE = 4
RHO_RANGE = (0.05, 1.5)      # straddles the sin^2 = 0.75 and cos^2 = 0.75 cutoffs


def _term_scales(rep, point) -> tuple[float, float, float]:
    """Sums of |term| of synth, synth_dt and synth_drho of an S-basis rep at
    a point: the size of the sum the two bases are compared on."""
    t, rho, theta, phi = point
    ka, kb = RadialKind.Sa, RadialKind.Sb
    value = dt = drho = 0.0
    for (k, l, m), (a, b) in rep.coeffs.items():
        omega = rep.grid.omega(k)
        fa, da = radial_eval_fd(ka, omega, l, rho, PARAMS)
        fb, db = radial_eval_fd(kb, omega, l, rho, PARAMS)
        y = abs(sph_harm(l, m, theta, phi)) * rep.grid.d_omega
        value += abs(a * fa + b * fb) * y
        dt += abs(omega * (a * fa + b * fb)) * y
        drho += abs(a * da + b * db) * y
    return value, dt, drho


def _oracle_radial(kind: str, omega: float, l: int, rho: float):
    """(mpmath value, local magnitude): the largest |value| at rho and
    rho +- NODE_STEP, so a value next to a radial node is compared with the
    mode's size around it rather than with its own near-zero size."""
    vals = [oracle.radial(kind, omega, l, r, PARAMS.d, PARAMS.msq_r2)
            for r in (rho, rho - NODE_STEP, rho + NODE_STEP)]
    return vals[0], max(abs(v) for v in vals)


class PointwiseJob(Job):
    """Pointwise synthesis of one sparse rep in the S, C and rod forms,
    basis round trip, a small rod boundary round trip and one `adskg eval`."""

    def __init__(self, rep, rod, small_rod, points, oracle_picks, eval_argv,
                 eval_path, eval_mode, n_rows, eval_rows):
        self.rep, self.rod, self.small_rod = rep, rod, small_rod
        self.points, self.oracle_picks = points, oracle_picks
        self.eval_argv, self.eval_path = eval_argv, eval_path
        self.eval_mode, self.n_rows, self.eval_rows = eval_mode, n_rows, eval_rows
        n = len(rep.coeffs)
        self.kind = f"sparse:{n}:{n_rows}"
        # mode terms evaluated: 7 synth calls per point, then the eval points
        self.work = float(7 * n * len(points) + n_rows)

    def run(self):
        srep = self.rep
        crep = xp.s_to_c(srep, PARAMS)
        back = xp.c_to_s(crep, PARAMS)
        values = []
        for pt in self.points:
            values.append((xp.synth(srep, pt, PARAMS), xp.synth(crep, pt, PARAMS),
                           xp.synth_dt(srep, pt, PARAMS),
                           xp.synth_dt(crep, pt, PARAMS),
                           xp.synth_drho(srep, pt, PARAMS),
                           xp.synth_drho(crep, pt, PARAMS),
                           xp.synth(self.rod, pt, PARAMS)))
        small = self.small_rod
        ang = AngularGrid(16, 32)
        data = xp.rod_boundary_data_of(small, PARAMS, ang)
        l_small = max(key[1] for key in small.coeffs)
        rec = xp.rod_boundary_reconstruct(data, PARAMS, l_small)
        code, text = _run_cli(self.eval_argv)
        return back, values, rec, code, text

    def check(self, result) -> Outcome:
        back, values, rec, code, text = result
        out = Outcome(work=self.work,
                      output=[values, sorted(rec.coeffs.items()), text])
        coeffs = [c for pair in self.rep.coeffs.values() for c in pair]
        out.check("c_to_s(s_to_c(rep))",
                  [(got, ref) for key, pair in self.rep.coeffs.items()
                   for got, ref in zip(back.coeffs[key], pair)],
                  BASIS_TOL, max(abs(c) for c in coeffs))
        for pt, (s, c, s_dt, c_dt, s_dr, c_dr, _) in zip(self.points, values):
            scales = _term_scales(self.rep, pt)
            for name, got, ref, scale in (("synth", s, c, scales[0]),
                                          ("synth_dt", s_dt, c_dt, scales[1]),
                                          ("synth_drho", s_dr, c_dr, scales[2])):
                out.check(f"{name} S/C at {pt}", [(got, ref)], POINTWISE_TOL,
                          scale)
        # the rod synthesis at the outermost point (transfer path) against
        # a sum of mpmath radial terms, relative to the sum of |terms|
        pt, rod_value = self.points[-1], values[-1][-1]
        terms = [coef * self.rod.grid.d_omega
                 * np.exp(-1j * self.rod.grid.omega(k) * pt[0])
                 * oracle.radial("sa", self.rod.grid.omega(k), l, pt[1],
                                 PARAMS.d, PARAMS.msq_r2)
                 * sph_harm(l, m, pt[2], pt[3])
                 for (k, l, m), coef in self.rod.coeffs.items()]
        scale = sum(abs(t) for t in terms)
        out.check(f"rod synth at {pt}", [(rod_value, complex(sum(terms)))],
                  ORACLE_TOL, scale)
        small = self.small_rod.coeffs
        out.check("rod boundary round trip",
                  [(rec.coeffs[key], a) for key, a in small.items()],
                  ROD_BOUNDARY_TOL, max(abs(a) for a in small.values()))
        for kind, omega, l, rho in self.oracle_picks:
            got = radial_eval_fd(KINDS[kind], omega, l, rho, PARAMS)[0]
            ref, local = _oracle_radial(kind, omega, l, rho)
            out.check(f"radial {kind}({omega!r}, {l}, {rho!r})",
                      [(got, ref, local)], ORACLE_TOL)
        self._check_eval(out, code)
        return out

    def _check_eval(self, out: Outcome, code: int):
        try:
            with open(self.eval_path) as fh:
                csv = fh.read()
        except FileNotFoundError:
            csv = ""
        out.output.append(csv)
        rows = csv.splitlines()[2:]
        if code != 0 or len(rows) != self.n_rows:
            out.ops += 1
            out.fail(f"eval: exit {code}, {len(rows)} of {self.n_rows} rows")
            return
        kind, omega, l, m = self.eval_mode
        items = []
        for i in self.eval_rows:
            t, rho, theta, phi, re_v, im_v = map(float, rows[i].split(","))
            rad, local = _oracle_radial(kind, omega, l, rho)
            factor = complex(np.exp(-1j * omega * t) * sph_harm(l, m, theta, phi))
            items.append((complex(re_v, im_v), factor * rad, abs(factor) * local))
        out.check("eval rows against mpmath radial", items, ORACLE_TOL)

    def cleanup(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.eval_path)


class SparsePointwise:
    """Each job draws a fresh frequency spacing, so transfer matrices are
    new.  Label and eval-point counts sit at the midpoints of eight
    log-spaced strata (5-40 labels, 10^3-10^4 points), paired at random, so
    every round of eight jobs has the same size mix; the eval mode's |omega|
    is stratified over [0, 12] and its kind over sa, sb, ca and cb."""

    ROUND_S = 1.6            # scaled job seconds of one round, seed code
    JOBS_PER_ROUND = SPARSE_PER_ROUND

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.count = 0

    def _job(self, n_labels: int, n_points: int, eval_kind: str,
             eval_omega: float) -> PointwiseJob:
        rng = self.rng
        self.count += 1
        d_omega = float(rng.uniform(0.3, 0.9))
        k_max = int(OMEGA_MAX / d_omega)
        keys: dict = {}
        while len(keys) < n_labels:
            l = int(rng.integers(0, L_MAX + 1))
            key = (int(rng.integers(-k_max, k_max + 1)), l,
                   int(rng.integers(-l, l + 1)))
            keys[key] = None
        labels = list(keys)
        grid = xp.OmegaGrid(d_omega, tuple(sorted({k for k, _, _ in labels})))
        rep = xp.TubeRep(grid, {key: (_cplx(rng), _cplx(rng)) for key in labels}, "S")
        rod = xp.RodRep(grid, {key: _cplx(rng) for key in labels})
        small_keys = [key for key in labels if key[1] <= 2][:4] or [(labels[0][0], 0, 0)]
        small_grid = xp.OmegaGrid(d_omega, tuple(sorted({k for k, _, _ in small_keys})))
        small_rod = xp.RodRep(small_grid, {key: _cplx(rng) for key in small_keys})
        lo, hi = RHO_RANGE
        strata = (np.arange(N_POINTS) + rng.uniform(size=N_POINTS)) / N_POINTS
        points = [(float(rng.uniform(0.0, 2.0 * math.pi)), float(lo + (hi - lo) * s),
                   float(rng.uniform(0.2, math.pi - 0.2)),
                   float(rng.uniform(0.0, 2.0 * math.pi))) for s in strata]
        kinds = list(KINDS)
        picks = []
        for _ in range(N_ORACLE):
            k, l, _ = labels[int(rng.integers(len(labels)))]
            picks.append((kinds[int(rng.integers(4))], grid.omega(k), l,
                          points[int(rng.integers(N_POINTS))][1]))
        # eval grid: n_t x n_theta x n_phi x n_rho close to n_points
        n_t, n_th, n_ph = (int(v) for v in rng.integers(2, 6, size=3))
        n_rho = max(2, round(n_points / (n_t * n_th * n_ph)))
        n_rows = n_t * n_th * n_ph * n_rho
        l = int(rng.integers(0, L_MAX + 1))
        m = int(rng.integers(-l, l + 1))
        path = os.path.join(self.workdir, f"eval{self.count}.csv")
        argv = ["eval", "--kind", eval_kind, "--omega", repr(eval_omega),
                "--l", str(l), "--m", str(m),
                "--t", f"0:3:{n_t}", "--rho", f"{lo}:{hi}:{n_rho}",
                "--theta", f"0.2:2.9:{n_th}", "--phi", f"0:6:{n_ph}", "-o", path]
        eval_rows = [int(i) for i in rng.choice(n_rows, size=3, replace=False)]
        return PointwiseJob(rep, rod, small_rod, points, picks, argv, path,
                            (eval_kind, eval_omega, l, m), n_rows, eval_rows)

    def _round(self, n_jobs: int) -> list[Job]:
        rng = self.rng
        u_labels = (rng.permutation(n_jobs) + 0.5) / n_jobs
        u_points = (rng.permutation(n_jobs) + 0.5) / n_jobs
        u_omega = (rng.permutation(n_jobs) + rng.uniform(size=n_jobs)) / n_jobs
        signs = rng.choice((-1.0, 1.0), size=n_jobs)
        kinds = [list(KINDS)[i % 4] for i in rng.permutation(n_jobs)]
        return [self._job(round(5 * 8 ** u_labels[i]), round(10 ** (3 + u_points[i])),
                          kinds[i], float(signs[i] * OMEGA_MAX * u_omega[i]))
                for i in range(n_jobs)]

    def warmup(self) -> list[Job]:
        return self._round(1)

    def round(self, index: int) -> list[Job]:
        return self._round(SPARSE_PER_ROUND)


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

_CHECK = re.compile(r"\[(PASS|FAIL)\] .*?: max_err=(\S+) tol=(\S+)$")
_ANY_CHECK = re.compile(r"^\s+\[(PASS|FAIL)\] ", re.M)


class VerifyJob(Job):
    """`adskg verify all`; correct when it exits 0.  Its digits are the
    worst margin log10(tol / max_err) over checks that report max_err."""

    kind = "verify:all"

    def run(self):
        return _run_cli(["verify", "all"])

    def check(self, result) -> Outcome:
        code, text = result
        out = Outcome(ops=1, output=[text])
        out.work = float(len(_ANY_CHECK.findall(text)))
        for line in text.splitlines():
            match = _CHECK.search(line)
            if match:
                value, tol = float(match.group(2)), float(match.group(3))
                if value > 0.0 and tol > 0.0:
                    out.digits = min(out.digits, math.log10(tol / value))
        if code != 0 or out.work == 0:
            failed = [ln.strip() for ln in text.splitlines() if "FAIL" in ln]
            out.fail(f"verify all: exit {code}; {failed[:3]}")
        return out


class VerifyAll:
    """The fixed `verify all` job; the seed has no inputs to draw here."""

    ROUND_S = 1.3            # scaled job seconds of one round, seed code
    JOBS_PER_ROUND = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def warmup(self) -> list[Job]:
        return [VerifyJob()]

    def round(self, index: int) -> list[Job]:
        return [VerifyJob()]


WORKLOADS = {"dense_roundtrip": DenseRoundtrip,
             "sparse_pointwise": SparsePointwise,
             "verify_all": VerifyAll}

"""Verification suites behind `adskg verify` and the acceptance tests.

Each suite returns a list of Check records; a check passes when its measured
value does not exceed its tolerance.  Ratio-style checks (flat limit) store
the ratio and a [lo, hi] admissible window instead.  Everything is seeded
and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expansions as xp
from . import geometry as geo
from . import isometry as iso
from . import minkowski as mink
from . import modes
from . import specfun as sf
from . import symplectic as sy
from .harmonics import EulerAngles
from .modes import RadialKind

SEED = 20240817
REP_MAX = 3  # largest n and l of the random slice reps; the tube reps stop below


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tol: float
    passed: bool
    window: tuple | None = None

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.window is not None:
            return (f"  [{status}] {self.name}: ratio={self.value:.3g} "
                    f"window=[{self.window[0]:g}, {self.window[1]:g}]")
        return f"  [{status}] {self.name}: max_err={self.value:.3e} tol={self.tol:.0e}"


def _check(name, values, tol):
    """One check over its measurements, reduced once by np.max so that a
    NaN measurement fails the check instead of being dropped."""
    value = float(np.max(values))
    return Check(name, value, tol, bool(value <= tol))


def _ratio_check(name, ratio, lo, hi):
    return Check(name, float(ratio), hi, bool(lo <= ratio <= hi), (lo, hi))


def _diffs(ref, rep):
    """|rep - ref| per channel coefficient, over the labels of ref."""
    return [abs(rep.coeffs[key][i] - v)
            for key, pair in ref.coeffs.items() for i, v in enumerate(pair)]


def _params_set():
    return [geo.make_params(3, 1.0, msq) for msq in (0.0, -2.0, 1.0)]


# ---------------------------------------------------------------------------

def suite_specfun():
    rng = np.random.default_rng(SEED)
    checks = []
    # acceptance 1: Jacobi vs hypergeometric representation on 50 samples;
    # the sample grid keeps the 2F1 argument below ~0.65 so the comparison
    # probes the identity rather than terminating-sum cancellation
    draws = [(rng.uniform(-0.9, 3.0), rng.uniform(-0.9, 3.0), int(rng.integers(0, 8)),
              rng.uniform(-0.3, 1.0)) for _ in range(50)]
    alpha, beta, n, x = (np.array(col) for col in zip(*draws))
    hyp = (sf.pochhammer(alpha + 1.0, n) / np.array([math.factorial(k) for k in n.tolist()])
           * sf.hyp2f1(-n.astype(float), n + alpha + beta + 1.0, alpha + 1.0, (1.0 - x) / 2.0))
    errs = np.abs(sf.jacobi_p(alpha, beta, n, x) - hyp) / np.maximum(np.abs(hyp), 1e-12)
    checks.append(_check("jacobi_vs_hypergeometric[50]", errs, 1e-11))

    # exact truncation: n+1 terms suffice for any argument, value matches
    # the explicit polynomial to roundoff
    errs = []
    for n in (1, 3, 6):
        for x in (-1.0, 0.4, 1.0):
            b, c = 1.3, 0.7
            val = sf.hyp2f1(float(-n), b, c, x, max_terms=n + 1)
            explicit = sum(sf.pochhammer(-n, k) * sf.pochhammer(b, k)
                           / (sf.pochhammer(c, k) * math.factorial(k)) * x ** k
                           for k in range(n + 1))
            errs.append(abs(val - explicit) / max(abs(explicit), 1.0))
    checks.append(_check("hyp2f1_termination_exact[n+1 terms]", errs, 1e-13))

    errs = []
    for _ in range(60):
        a = rng.uniform(-5, 5)
        k = int(rng.integers(0, 16))
        lhs = sf.double_pochhammer(2 * a, k)
        rhs = 2.0 ** k * sf.pochhammer(a, k)
        errs.append(abs(lhs - rhs) / max(abs(rhs), 1e-280))
    checks.append(_check("double_pochhammer_halving", errs, 1e-13))
    return checks


def suite_harmonics():
    from .harmonics import contiguous_coeffs, lm_labels, sph_harm, wigner_d
    checks = []
    ang = xp._angular_rule(5)
    gram = ang.project(ang.ylm(5), 5)
    checks.append(_check("orthonormality[l<=5]", np.abs(gram - np.eye(len(gram))), 1e-10))

    # a (theta, phi) grid by broadcasting, so P_l^m is evaluated once per theta
    th = np.linspace(0.08, math.pi - 0.08, 20)[:, None]
    ph = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
    # cos(theta) Y_l^m = kappa_+ Y_{l+1}^m + kappa_- Y_{l-1}^m, kappa_- = 0 at
    # |m| = l (where Y_l^m stands in for the absent Y_{l-1}^m)
    ls, ms = (x[:, None, None] for x in lm_labels(6))
    km, kp, _, _ = contiguous_coeffs(3, ls, ms)
    lower = sph_harm(np.maximum(ls - 1, np.abs(ms)), ms, th, ph)
    rhs = kp * sph_harm(ls + 1, ms, th, ph) + km * lower
    checks.append(_check("contiguous_recursion[l<=6]",
                         np.abs(np.cos(th) * sph_harm(ls, ms, th, ph) - rhs), 1e-10))

    rng = np.random.default_rng(SEED)
    angles = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
    d2 = wigner_d(3, angles)
    checks.append(_check("wigner_completeness[l=3]",
                         np.abs(d2 @ np.conj(d2).T - np.eye(7)), 1e-12))
    return checks


def suite_geometry():
    rng = np.random.default_rng(SEED)
    checks = []

    def test_field(t, rho, xi):
        x, y, z = xi
        g = np.exp(-((t - 0.2) ** 2) / 0.5 - ((rho - 0.75) ** 2) / 0.4)
        return g * (1.0 + 0.8 * x + 0.5 * y * z + 0.3j * z + 0.2 * x * y)

    points = []
    for _ in range(20):
        xi = rng.normal(size=3)
        points.append((rng.uniform(-0.4, 0.6), rng.uniform(0.45, 1.05),
                       xi / np.linalg.norm(xi)))
    # acceptance 11: all bracket families, d = 3
    families = [
        ("[T, R_jk]", geo.TimeTranslation(), geo.Rotation(1, 2)),
        ("[B0_j, B0_k]", geo.Boost0(1), geo.Boost0(2)),
        ("[B0_q, R_jk]", geo.Boost0(1), geo.Rotation(1, 3)),
        ("[B1_j, B1_k]", geo.BoostD1(2), geo.BoostD1(3)),
        ("[T, B0_k]", geo.TimeTranslation(), geo.Boost0(2)),
        ("[B1_q, R_jk]", geo.BoostD1(3), geo.Rotation(2, 3)),
        ("[B1_k, T]", geo.BoostD1(1), geo.TimeTranslation()),
        ("[B0_k, B1_j]", geo.Boost0(3), geo.BoostD1(3)),
        ("[R_jk, R_pq]", geo.Rotation(1, 2), geo.Rotation(2, 3)),
    ]
    checks.append(_check("bracket_table[9 families, 20 pts]",
                         [geo.verify_lie_bracket(ga, gb, test_field, points)
                          for name, ga, gb in families], 1e-5))
    checks.append(_check("delta_product_identity",
                         [abs(p.delta_plus * p.delta_minus + p.msq_r2)
                          for p in _params_set()], 1e-12))

    xi = np.array([0.3, -0.5, 0.8])
    xi /= np.linalg.norm(xi)
    val = [abs(geo.boost_rho_coefficient(geo.Boost0(3), 0.7, math.pi / 2, xi)),
           abs(geo.boost_rho_coefficient(geo.BoostD1(3), -1.2, math.pi / 2, xi))]
    checks.append(_check("boundary_rho_coefficient", val, 0.0))
    return checks


def _radial_kg_errors(rng) -> list:
    """Radial ODE residual of every kind, three masses (acceptance 2).  The
    ten (omega, l, n) draws of a mass come first, in the per-draw order;
    each radial kind is then one radial_eval call over the rows' stencils
    and one kg_residual call, and each Jacobi branch one jacobi_radial call
    and one kg_residual call.  The residuals are listed draw by draw: S^a,
    S^b, C^a, C^b, J+ and, in the exceptional range, J-."""
    errs = []
    for p in _params_set():
        draws = [(rng.uniform(0.7, 4.5), int(rng.integers(0, 4)),
                  int(rng.integers(0, 4))) for _ in range(10)]
        om, l, n = (np.array(col) for col in zip(*draws))
        cols = []
        for kind in (RadialKind.Sa, RadialKind.Sb, RadialKind.Ca, RadialKind.Cb):
            fn = lambda r: modes.radial_eval(kind, om[:, None, None],
                                             l[:, None, None], r, p)
            cols.append(geo.kg_residual(fn, om, l, p, (0.2, 1.2), n_points=12))
        for branch in ("plus", "minus") if p.exceptional_range else ("plus",):
            fn = lambda r: modes.jacobi_radial(branch, n[:, None, None],
                                               l[:, None, None], r, p)
            cols.append(geo.kg_residual(fn, modes.magic_frequency(branch, n, l, p),
                                        l, p, (0.2, 1.2), n_points=12))
        errs += np.stack(cols, axis=1).ravel().tolist()
    return errs


def _wronskian_errors(rng, p) -> list:
    """Spread of the weighted Wronskian of each kind pair over rho, relative
    to its largest value (acceptance 3), for ten (omega, l) draws; each kind
    is one radial_eval_fd call over (rho, draw), and _weighted_wronskian
    takes tan of each rho as the scalar call does.  Listed draw by draw."""
    pairs = [(RadialKind.Sa, RadialKind.Sb), (RadialKind.Ca, RadialKind.Cb),
             (RadialKind.Sa, RadialKind.Ca), (RadialKind.Sa, RadialKind.Cb),
             (RadialKind.Sb, RadialKind.Ca), (RadialKind.Sb, RadialKind.Cb)]
    draws = [(rng.uniform(0.6, 5.0), int(rng.integers(0, 4))) for _ in range(10)]
    om, l = (np.array(col) for col in zip(*draws))
    rho = (0.4, 0.7, 1.0)
    fd = {kind: modes.radial_eval_fd(kind, om, l, np.array(rho)[:, None], p)
          for kind in (RadialKind.Sa, RadialKind.Sb, RadialKind.Ca, RadialKind.Cb)}
    errs = []
    for ka, kb in pairs:
        vals = np.array([modes._weighted_wronskian(*row, r, p.d) for r, *row
                         in zip(rho, *fd[ka], *fd[kb])])
        errs.append(np.ptp(vals, axis=0) / np.max(np.abs(vals), axis=0))
    return np.stack(errs, axis=1).ravel().tolist()


def _magic_errors(p) -> list:
    """|S^a - J+| / max(1, |J+|) at the magic frequencies, n, l <= 3, at four
    radii (acceptance 6): S^a is one radial_eval call and J+ one
    jacobi_radial call over (label, rho).  Listed label by label."""
    n, l = (v.ravel()[:, None] for v in np.meshgrid(np.arange(4), np.arange(4), indexing="ij"))
    rho = np.array([0.15, 0.5, 0.95, 1.3])
    sa = modes.radial_eval(RadialKind.Sa, modes.magic_frequency("plus", n, l, p), l, rho, p)
    jp = modes.jacobi_radial("plus", n, l, rho, p)
    return (np.abs(sa - jp) / np.maximum(1.0, np.abs(jp))).ravel().tolist()


def _norm_oracles(p) -> np.ndarray:
    """int_0^{pi/2} tan^2 (J+_{nl})^2 drho for n, l <= 4, shape (5, 5), by
    one 64-node Gauss-Legendre rule over one jacobi_radial call: the
    quadrature norm_constant is checked against."""
    x, w = np.polynomial.legendre.leggauss(64)
    rho = math.pi / 4 * (x + 1.0)
    n, l = np.indices((5, 5))[..., None]
    return math.pi / 4 * np.sum(
        w * (np.tan(rho) * modes.jacobi_radial("plus", n, l, rho, p)) ** 2, axis=-1)


def suite_modes():
    rng = np.random.default_rng(SEED)
    checks = [_check("radial_kg_residuals", _radial_kg_errors(rng), 1e-6)]

    # acceptance 3: Wronskian constancy and the determinant identity
    p = geo.make_params(3, 1.0, 0.0)
    checks.append(_check("wronskian_constancy", _wronskian_errors(rng, p), 1e-8))

    errs = []
    for _ in range(6):
        om = rng.uniform(0.6, 5.0)
        l = int(rng.integers(0, 4))
        mat = modes.transfer_matrix(om, l, p)
        w_cc = modes.wronskian(RadialKind.Ca, RadialKind.Cb, om, l, 0.7, p)
        w_ss = modes.wronskian(RadialKind.Sa, RadialKind.Sb, om, l, 0.7, p)
        det = mat.m11 * mat.m22 - mat.m12 * mat.m21  # of the entries, not mat.det
        errs.append(abs(det * w_cc - w_ss) / abs(w_ss))
    checks.append(_check("det_transfer_identity", errs, 1e-8))

    # acceptance 4: normalization constant vs defining quadrature
    oracle = _norm_oracles(p)
    errs = np.abs(modes.norm_constant("plus", *np.indices((5, 5)), p) - oracle) / oracle
    checks.append(_check("norm_constant_vs_quadrature[n,l<=4]", errs, 1e-9))
    checks.append(_check("norm_constant_pi_over_32",
                         abs(modes.norm_constant("plus", 0, 0, p) - math.pi / 32),
                         1e-12))

    # acceptance 6: magic-frequency termination identity
    checks.append(_check("magic_termination[n,l<=3]", _magic_errors(p), 1e-10))
    n, l = np.indices((4, 4))
    m11, m12 = modes._transfer_entries(modes.magic_frequency("plus", n, l, p), l, p, False)[:2]
    checks.append(_check("magic_m12_blindness", np.abs(m12) / np.abs(m11), 1e-8))
    return checks


def _random_slice_rep(rng, n_labels=6):
    coeffs = {}
    while len(coeffs) < n_labels:
        n = int(rng.integers(0, REP_MAX + 1))
        l = int(rng.integers(0, REP_MAX + 1))
        m = int(rng.integers(-l, l + 1))
        coeffs[(n, l, m)] = (complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
    return xp.SliceRep(coeffs)


def _random_tube_rep(rng, grid, n_labels=6, basis="S", l_max=2,
                     mirrored=False):
    """Random sparse tube rep; `mirrored` also populates (-k, l, -m) labels
    (with independent values) so momentum-space pairings are nondegenerate."""
    coeffs = {}
    while len(coeffs) < n_labels:
        k = int(rng.choice(grid.indices))
        l = int(rng.integers(0, l_max + 1))
        m = int(rng.integers(-l, l + 1))
        coeffs[(k, l, m)] = (complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
        if mirrored:
            coeffs[(-k, l, -m)] = (complex(rng.normal(), rng.normal()),
                                   complex(rng.normal(), rng.normal()))
    return xp.TubeRep(grid, coeffs, basis)


def suite_expansions():
    rng = np.random.default_rng(SEED)
    p = geo.make_params(3, 1.0, 0.0)
    n_rho, ang = xp._slice_nodes(REP_MAX, REP_MAX), xp._angular_rule(REP_MAX)
    grid = xp.OmegaGrid(0.5, tuple(range(-7, 8)))
    checks = []

    # acceptance 9: inversions are left inverses of synthesis
    rep = _random_slice_rep(rng)
    errs, recs = [], []
    for t0 in (0.0, 0.8):
        data = xp.sample_slice(rep, t0, p, n_rho, ang)
        rec = xp.invert_slice(data, p, REP_MAX, REP_MAX)
        recs.append(rec)
        errs += _diffs(rep, rec)
    checks.append(_check("slice_round_trip", errs, 1e-6))
    checks.append(_check("slice_t0_independence", _diffs(*recs), 1e-7))

    errs, recs = [], []
    for basis in ("S", "C"):
        trep = _random_tube_rep(rng, grid, 5, basis)
        for rho0 in (0.6, 1.1):
            data = xp.sample_tube(trep, rho0, p, ang)
            rec = xp.invert_tube(data, p, 2, basis)
            if basis == "S":
                recs.append(rec)
            errs += _diffs(trep, rec)
    checks.append(_check("tube_round_trip[S,C]", errs, 1e-6))
    checks.append(_check("tube_rho0_independence", _diffs(*recs), 1e-7))

    rrep = xp.RodRep(grid, {(3, 0, 0): 0.8 + 0.3j, (-4, 1, -1): 0.5,
                            (5, 2, 1): -0.2j})
    data = xp.sample_rod(rrep, 0.9, p, ang)
    rec = xp.invert_rod_interior(data, p, 2)
    checks.append(_check("rod_interior_round_trip",
                         [abs(rec.coeffs[k] - v) for k, v in rrep.coeffs.items()],
                         1e-6))

    # acceptance 8: twisted-derivative boundary machinery
    lim_ca = xp.twisted_boundary_limit(RadialKind.Ca, p)
    checks.append(_check("twisted_limit_Ca[nu=1.5]", abs(lim_ca - 3.0), 1e-8))
    checks.append(_check("twisted_limit_Cb", abs(
        xp.twisted_boundary_limit(RadialKind.Cb, p)), 1e-8))
    # limits taken via the Taylor tails, evaluated at the boundary itself
    errs = []
    for (om, l) in ((2.3, 1), (1.7, 0), (4.1, 2)):
        val = xp.twisted_derivative(RadialKind.Ca, om, l, math.pi / 2, p)
        errs += [abs(val - lim_ca), abs(
            xp.twisted_derivative(RadialKind.Cb, om, l, math.pi / 2, p))]
    checks.append(_check("twisted_limits_via_taylor_tail", errs, 1e-8))

    crep = xp.s_to_c(_random_tube_rep(rng, grid, 5, "S"), p)
    bdata = xp.boundary_data_of(crep, p, ang)
    brec = xp.boundary_reconstruct(bdata, p, 2)
    checks.append(_check("boundary_round_trip", _diffs(crep, brec), 1e-7))

    grid2 = xp.OmegaGrid(0.1, (17, 29, -17))
    rrep2 = xp.RodRep(grid2, {(17, 1, 0): 0.7 + 0.2j, (29, 0, 0): -0.4j,
                              (-17, 1, -1): 0.3})
    rdata = xp.rod_boundary_data_of(rrep2, p, ang)
    rrec = xp.rod_boundary_reconstruct(rdata, p, 1)
    checks.append(_check("rod_boundary_round_trip",
                         [abs(rrec.coeffs[k] - v) for k, v in rrep2.coeffs.items()],
                         1e-6))
    return checks


def suite_symplectic():
    rng = np.random.default_rng(SEED)
    p = geo.make_params(3, 1.0, 0.0)
    n_rho, ang = xp._slice_nodes(REP_MAX, REP_MAX), xp._angular_rule(REP_MAX)
    grid = xp.OmegaGrid(0.5, tuple(range(-7, 8)))
    checks = []

    # acceptance 5: quadrature == momentum, both surfaces and bases; zeta
    # shares eta's labels so the label-diagonal pairings are nondegenerate
    eta_s = _random_slice_rep(rng)
    zeta_s = xp.SliceRep({key: (complex(rng.normal(), rng.normal()),
                                complex(rng.normal(), rng.normal()))
                          for key in eta_s.coeffs})
    mom = complex(sy.omega_slice_momentum(eta_s, zeta_s, p))
    vals = [complex(sy.omega_slice_quadrature(eta_s, zeta_s, t0, p, n_rho, ang))
            for t0 in (0.0, 0.37, 1.9)]
    checks.append(_check("slice_quadrature_vs_momentum",
                         [abs(v - mom) / abs(mom) for v in vals], 1e-7))
    checks.append(_check("slice_t0_independence",
                         [abs(v - vals[0]) / abs(vals[0]) for v in vals[1:]], 1e-8))

    errs = []
    rho_vals = {}
    for basis in ("S", "C"):
        eta = _random_tube_rep(rng, grid, 6, basis, mirrored=True)
        zeta = _random_tube_rep(rng, grid, 6, basis, mirrored=True)
        zeta = xp.TubeRep(grid, {**zeta.coeffs,
                                 **{(-k, l, -m): (complex(rng.normal(), rng.normal()),
                                                  complex(rng.normal(), rng.normal()))
                                    for (k, l, m) in eta.coeffs}}, basis)
        mom = complex(sy.omega_tube_momentum(eta, zeta, p))
        for rho0 in (0.5, 0.9, 1.3):
            quad = complex(sy.omega_tube_quadrature(eta, zeta, rho0, p, ang))
            rho_vals.setdefault(basis, []).append(quad)
            errs.append(abs(quad - mom) / abs(mom))
    checks.append(_check("tube_quadrature_vs_momentum[S,C]", errs, 1e-7))
    checks.append(_check("tube_rho0_independence",
                         [abs(v - vs[0]) / abs(vs[0])
                          for vs in rho_vals.values() for v in vs[1:]], 1e-8))

    # Lagrangian subspaces and rod solutions
    plus1 = xp.SliceRep({(0, 1, 0): (1.2, 0.0), (2, 2, 1): (0.4j, 0.0)})
    plus2 = xp.SliceRep({(0, 1, 0): (0.3, 0.0), (1, 0, 0): (-0.8j, 0.0)})
    rod1 = xp.TubeRep(grid, {(3, 1, 0): (1.2, 0.0), (-3, 1, 0): (0.4j, 0.0)}, "S")
    rod2 = xp.TubeRep(grid, {(3, 1, 0): (0.5j, 0.0), (-3, 1, 0): (0.7, 0.0)}, "S")
    checks.append(_check("lagrangian_and_rod_vanishing",
                         [abs(complex(sy.omega_slice_momentum(plus1, plus2, p))),
                          abs(complex(sy.omega_tube_quadrature(rod1, rod2, 0.9,
                                                               p, ang)))], 1e-9))
    return checks


def _boost_points(omega, l, n=None):
    """(s_w, s_l, omega, l) of the four boost branches from each label
    (omega, l) whose target has l >= 0 and, given the radial orders n, n >= 0."""
    s_om, s_l = np.array(iso._BRANCHES).T[:, :, None]
    keep = l + s_l >= 0
    if n is not None:
        keep &= n + (s_om - s_l) // 2 >= 0
    return [np.broadcast_to(v, keep.shape)[keep] for v in (s_om, s_l, omega, l)]


def suite_isometry():
    rng = np.random.default_rng(SEED)
    p = geo.make_params(3, 1.0, 0.0)
    checks = []
    grid = xp.OmegaGrid(1.0, tuple(range(-6, 7)))
    # the radial identity Rhat = (z / 2 s_w) f_target behind each closed-form
    # z at rho = 0.6 and 0.9: tube k in -7..7, l <= 4, both channels; slice
    # n, l <= 4 (S^a at w+_{nl}).  Relative to the channel's largest |Rhat|
    # over the window: Rhat vanishes identically on the branches with z = 0.
    k, l = (v.ravel() for v in np.meshgrid(np.arange(-7.0, 8.0), np.arange(5),
                                           indexing="ij"))
    n, ln = (v.ravel() for v in np.meshgrid(np.arange(5), np.arange(5), indexing="ij"))
    tube = _boost_points(k, l)
    slice_ = _boost_points(modes.magic_frequency("plus", n, ln, p), ln, n)
    leak = []
    for channel, points in (("a", [np.r_[t, s] for t, s in zip(tube, slice_)]),
                            ("b", tube)):
        combo, resid = iso.boost_identity(channel, *(v[:, None] for v in points),
                                          np.array([0.6, 0.9]), p)
        leak.append(np.max(np.abs(resid)) / np.max(np.abs(combo)))
    checks.append(_check("boost_extraction_leakage", leak, 1e-6))

    # acceptance 7: the six coefficient identities
    d = 3
    z = lambda *args: iso.boost_shift_coeffs(*args, params=p)
    k, l = np.meshgrid(np.arange(-3.0, 4.0), np.arange(3), indexing="ij")
    up, down = (2 * l + d) / (2 * l + d - 2), (2 * l + d - 4) / (2 * l + d - 2)
    dev = [z("a", +1, -1, k - 1, l + 1) - up * z("b", -1, +1, k, l),
           z("a", -1, -1, k + 1, l + 1) - up * z("b", +1, +1, k, l),
           (z("a", +1, +1, k - 1, l - 1) - down * z("b", -1, -1, k, l))[:, 1:],
           (z("a", -1, +1, k + 1, l - 1) - down * z("b", +1, -1, k, l))[:, 1:]]
    checks.append(_check("tube_boost_identities[4]",
                         [np.max(np.abs(v)) for v in dev], 1e-8))

    wn = lambda n, l: (modes.magic_frequency("plus", n, l, p)
                       * modes.norm_constant("plus", n, l, p))
    zs = lambda s_om, s_l, n, l: z("a", s_om, s_l, modes.magic_frequency("plus", n, l, p), l)
    n, l = np.indices((3, 3))
    m, k = n[:, 1:], l[:, 1:]
    dev = [wn(n, l) * zs(-1, -1, n, l + 1) - wn(n, l + 1) * zs(+1, +1, n, l),
           wn(m, k) * zs(-1, +1, m + 1, k - 1) - wn(m + 1, k - 1) * zs(+1, -1, m, k)]
    checks.append(_check("slice_boost_identities[2]", [np.max(np.abs(v)) for v in dev], 1e-8))

    # acceptance 7: invariance of both structures
    slice_reps = [_random_slice_rep(rng, 4) for _ in range(2)]
    tube_reps = [_random_tube_rep(rng, grid, 5, "S") for _ in range(2)]
    errs = [iso.invariance_suite(sy.omega_slice_momentum, slice_reps,
                                 geo.TimeTranslation(), p, delta_t=0.731),
            iso.invariance_suite(sy.omega_tube_momentum, tube_reps,
                                 geo.TimeTranslation(), p, delta_t=0.731)]
    checks.append(_check("time_translation_invariance", errs, 1e-8))

    ang = EulerAngles(0.5, 1.0, -0.7)
    errs = [iso.invariance_suite(sy.omega_slice_momentum, slice_reps,
                                 geo.Rotation(1, 2), p, angles=ang),
            iso.invariance_suite(sy.omega_tube_momentum, tube_reps,
                                 geo.Rotation(1, 2), p, angles=ang)]
    checks.append(_check("rotation_invariance", errs, 1e-8))

    errs = [iso.invariance_suite(omega_fn, reps, gen, p)
            for gen in (geo.Boost0(3), geo.BoostD1(3))
            for omega_fn, reps in ((sy.omega_slice_momentum, slice_reps),
                                   (sy.omega_tube_momentum, tube_reps))]
    checks.append(_check("boost_leibniz_invariance", errs, 1e-6))
    return checks


def suite_minkowski():
    checks = []
    table = mink.flat_limit_compare(m_field=0.0, R_values=(100.0, 1000.0))
    for key in ("radial", "slice_synth", "symplectic"):
        ratio = table[key][100.0] / table[key][1000.0]
        checks.append(_ratio_check(f"flat_limit_{key}_ratio", ratio, 5.0, 200.0))
    errs = mink.killing_correspondence_errors((100.0, 1000.0))
    checks.append(_ratio_check("killing_correspondence_ratio",
                               errs[100.0] / errs[1000.0], 50.0, 200.0))

    rng = np.random.default_rng(SEED)
    grid = mink.EnergyGrid(0.5, tuple(range(-5, 6)))
    coeffs = {}
    while len(coeffs) < 5:
        k = int(rng.choice(grid.indices))
        l = int(rng.integers(0, 3))
        m = int(rng.integers(-l, l + 1))
        coeffs[(k, l, m)] = (complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
    eta = mink.MinkTubeRep(grid, coeffs, 0.6)
    zeta = mink.MinkTubeRep(grid, {(-k, l, -m): (complex(rng.normal(), rng.normal()),
                                                 complex(rng.normal(), rng.normal()))
                                   for (k, l, m) in coeffs}, 0.6)
    mom = mink.mink_omega_tube_momentum(eta, zeta)
    errs = [abs(mink.mink_omega_tube_quadrature(eta, zeta, r0) - mom) / abs(mom)
            for r0 in (1.0, 2.5)]
    checks.append(_check("mink_tube_quadrature_vs_momentum", errs, 1e-7))
    return checks


SUITES = {
    "specfun": suite_specfun,
    "harmonics": suite_harmonics,
    "geometry": suite_geometry,
    "modes": suite_modes,
    "expansions": suite_expansions,
    "symplectic": suite_symplectic,
    "isometry": suite_isometry,
    "minkowski": suite_minkowski,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    return SUITES[name]()

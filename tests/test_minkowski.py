import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adskg.errors import DomainError
from adskg.expansions import OmegaGrid, TubeRep
from adskg.harmonics import AngularGrid, lm_index, sph_harm
from adskg.minkowski import (EnergyGrid, MinkSliceRep, MinkTubeRep,
                             flat_limit_compare, jcheck, jcheck_dr,
                             killing_correspondence_errors,
                             mink_killing_coefficients, mink_omega_slice,
                             mink_omega_tube_momentum,
                             mink_omega_tube_quadrature, mink_synth_slice,
                             mink_synth_tube, mink_synth_tube_dr, ncheck,
                             ncheck_dr)
from adskg.symplectic import omega_tube_quadrature

ANG = AngularGrid(12, 24)


# --- radial functions ------------------------------------------------------------

def test_jcheck_propagating():
    # D >= 0, l = 0: jcheck = sin(p r)/(p r)
    E, m_f, r = 2.0, 1.0, 1.7
    p = math.sqrt(E * E - m_f * m_f)
    assert jcheck(E, 0, r, m_f) == pytest.approx(math.sin(p * r) / (p * r),
                                                 rel=1e-12)


def test_jcheck_evanescent_real_and_finite():
    # series oracle: i^{-l} j_l(i x) = sum_k x^{l+2k} / ((2k)!! (2l+2k+1)!!)
    E, m_f, l, r = 0.5, 1.0, 1, 2.0
    x = math.sqrt(m_f * m_f - E * E) * r
    oracle = sum(x ** (l + 2 * k)
                 / (np.prod([2.0 * j for j in range(1, k + 1)])
                    * np.prod([2.0 * j + 1 for j in range(l, l + k + 1)]))
                 for k in range(40))
    val = jcheck(E, l, r, m_f)
    assert isinstance(val, float)
    assert val == pytest.approx(float(oracle), rel=1e-12)


def test_jcheck_threshold_continuity():
    # D = 0: continuous limit j_l(0)
    assert jcheck(1.0, 0, 2.0, 1.0) == 1.0
    assert jcheck(1.0, 2, 2.0, 1.0) == 0.0


def test_ncheck_requires_positive_radius():
    with pytest.raises(DomainError):
        ncheck(2.0, 0, 0.0, 1.0)


def test_check_functions_solve_flat_radial_kg():
    # r^2 f'' + 2 r f' + ((E^2 - m^2) r^2 - l(l+1)) f = 0 on both branches
    h = 1e-3
    for (E, m_f) in ((2.0, 1.0), (0.6, 1.0)):
        for l in (0, 1, 3):
            for fn in (jcheck, ncheck):
                worst, scale = 0.0, 0.0
                for r in np.linspace(0.5, 6.0, 25):
                    f = [fn(E, l, float(r) + k * h, m_f) for k in (-2, -1, 0, 1, 2)]
                    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
                    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
                    res = (r * r * d2 + 2 * r * d1
                           + ((E * E - m_f * m_f) * r * r - l * (l + 1)) * f[2])
                    worst = max(worst, abs(res))
                    scale = max(scale, abs(f[2]))
                assert worst / scale < 1e-6


def test_check_derivatives():
    h = 1e-6
    for (E, m_f, l, r) in ((2.0, 1.0, 1, 1.3), (0.5, 1.0, 2, 2.1)):
        fd = (jcheck(E, l, r + h, m_f) - jcheck(E, l, r - h, m_f)) / (2 * h)
        assert jcheck_dr(E, l, r, m_f) == pytest.approx(fd, rel=1e-8)
        fd = (ncheck(E, l, r + h, m_f) - ncheck(E, l, r - h, m_f)) / (2 * h)
        assert ncheck_dr(E, l, r, m_f) == pytest.approx(fd, rel=1e-8)


# --- synthesis --------------------------------------------------------------------

def test_mink_synth_empty():
    rep = MinkTubeRep(EnergyGrid(0.5, (1,)), {})
    assert mink_synth_tube(rep, (0.1, 1.0, 0.5, 0.5)) == 0.0
    assert mink_synth_slice(MinkSliceRep({}), (0.1, 1.0, 0.5, 0.5)) == 0.0


def test_mink_synth_single_weighted_mode():
    from adskg.harmonics import sph_harm
    rep = MinkSliceRep({(1.3, 1, 0): (1.0, 0.0)}, m_field=0.5)
    t, r, th, ph = 0.4, 1.2, 0.9, 2.0
    e_p = math.sqrt(1.3 ** 2 + 0.25)
    expected = (2.0 * 1.3 / math.sqrt(2 * math.pi)
                * jcheck(e_p, 1, r, 0.5) * np.exp(-1j * e_p * t)
                * sph_harm(1, 0, th, ph))
    assert mink_synth_slice(rep, (t, r, th, ph)) == pytest.approx(expected, rel=1e-12)


def test_mink_tube_reality_criterion(rng):
    grid = EnergyGrid(0.5, tuple(range(-5, 6)))
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    rep = MinkTubeRep(grid, {(3, 1, 1): (a, b),
                             (-3, 1, -1): (np.conj(a), np.conj(b))}, m_field=0.4)
    for _ in range(10):
        point = (rng.uniform(0, 5), rng.uniform(0.5, 4.0),
                 rng.uniform(0.3, 2.8), rng.uniform(0, 6.2))
        assert abs(mink_synth_tube(rep, point).imag) < 1e-12


def test_mink_slice_reality_criterion(rng):
    p_val = 1.7
    c = complex(rng.normal(), rng.normal())
    rep = MinkSliceRep({(p_val, 0, 0): (c, np.conj(c))}, m_field=0.0)
    for _ in range(10):
        point = (rng.uniform(0, 5), rng.uniform(0.5, 4.0),
                 rng.uniform(0.3, 2.8), rng.uniform(0, 6.2))
        assert abs(mink_synth_slice(rep, point).imag) < 1e-12


# --- synthesis against per-label reference loops -----------------------------------

def _slice_terms(rep, point):
    """The terms of the Minkowski slice sum, one per label."""
    t, r, theta, phi = point
    terms = []
    for (p, l, m), (cp, cq) in sorted(rep.coeffs.items()):
        e_p = math.sqrt(p * p + rep.m_field ** 2)
        weight = 2.0 * p / math.sqrt(2.0 * math.pi) * jcheck(p, l, r, 0.0)
        ylm = sph_harm(l, m, theta, phi)
        terms.append(weight * (cp * np.exp(-1j * e_p * t) * ylm
                               + cq * np.exp(1j * e_p * t) * np.conj(ylm)))
    return np.array(terms)


def _tube_terms(rep, t, r, ylm, dr=False):
    """The terms dE (p_E / 4 pi)(a jcheck + b ncheck) e^{-iEt} Y of the
    Minkowski tube sum (or of its d/dr), one per label; ylm(l, m) gives Y at
    the angular point(s).  ncheck is evaluated only where b != 0."""
    j_fn, n_fn = (jcheck_dr, ncheck_dr) if dr else (jcheck, ncheck)
    m_f, terms = rep.m_field, []
    for (k, l, m), (a, b) in sorted(rep.coeffs.items()):
        e_k = rep.grid.omega(k)
        val = a * j_fn(e_k, l, r, m_f) + (b * n_fn(e_k, l, r, m_f) if b else 0.0)
        terms.append(rep.grid.d_omega * math.sqrt(abs(e_k * e_k - m_f * m_f))
                     / (4.0 * math.pi) * val * np.exp(-1j * e_k * t) * ylm(l, m))
    return np.array(terms)


def _assert_sums_to(value, terms):
    assert abs(value - np.sum(terms)) <= 1e-13 * np.sum(np.abs(terms))


def _random_mink_tube(rng, grid, m_field, n_labels):
    coeffs = {}
    while len(coeffs) < n_labels:
        k = int(rng.choice(grid.indices))
        l = int(rng.integers(0, 4))
        m = int(rng.integers(-l, l + 1))
        coeffs[(k, l, m)] = (complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
    return MinkTubeRep(grid, coeffs, m_field)


# (E = k dE, m) = (0.5 k, 1.2): |k| <= 2 evanescent, |k| >= 3 propagating
MIXED_GRID = EnergyGrid(0.5, tuple(range(-5, 6)))
# one threshold label (|E| = m) with b = 0, its neighbours with b != 0
THRESHOLD = MinkTubeRep(EnergyGrid(0.5, tuple(range(-4, 5))),
                        {(2, 1, 0): (1.0, 0.0), (-2, 0, 0): (0.3j, 0.0),
                         (3, 1, 1): (0.4, 0.7 - 0.2j), (1, 2, -1): (0.2j, 0.5),
                         (-4, 1, 0): (0.1, -0.3j)}, 1.0)


def _mink_points(rng, n=6):
    return [(rng.uniform(-2, 4), rng.uniform(0.3, 4.0), rng.uniform(0.2, 2.9),
             rng.uniform(0, 6.2)) for _ in range(n)]


def test_mink_synth_slice_matches_reference_loop(rng):
    reps = [MinkSliceRep({(p, l, m): (complex(rng.normal(), rng.normal()),
                                      complex(rng.normal(), rng.normal()))
                          for p in (0.4, 1.3, 2.9) for l in range(3)
                          for m in range(-l, l + 1) if rng.random() < 0.6}, m_f)
            for m_f in (0.0, 0.8)]
    for rep in reps:
        for point in _mink_points(rng):
            _assert_sums_to(mink_synth_slice(rep, point), _slice_terms(rep, point))
    assert mink_synth_slice(MinkSliceRep({}), (0.3, 1.0, 0.5, 0.5)) == 0.0


@pytest.mark.parametrize("dr", [False, True])
def test_mink_synth_tube_matches_reference_loop(rng, dr):
    synth = mink_synth_tube_dr if dr else mink_synth_tube
    rep = _random_mink_tube(rng, MIXED_GRID, 1.2, 25)
    assert {abs(k) <= 2 for k, _, _ in rep.coeffs} == {True, False}
    for rep in (rep, THRESHOLD):
        for t, r, theta, phi in _mink_points(rng):
            terms = _tube_terms(rep, t, r, lambda l, m: sph_harm(l, m, theta, phi), dr)
            _assert_sums_to(synth(rep, (t, r, theta, phi)), terms)
    assert synth(MinkTubeRep(MIXED_GRID, {}, 1.2), (0.3, 1.0, 0.5, 0.5)) == 0.0


_COEF = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                                  allow_infinity=False))
_UNDERFLOW = 8 * 2.0 ** -1074  # per term: 16 roundings of at most 2^-1075


@given(m_field=st.sampled_from([0.0, 0.5, 1.3]),
       labels=st.lists(st.tuples(st.integers(-12, 12).filter(bool), st.integers(0, 4).flatmap(
           lambda l: st.tuples(st.just(l), st.integers(-l, l))), _COEF, _COEF),
           min_size=1, max_size=25),
       point=st.tuples(st.floats(-2.0, 4.0), st.floats(0.3, 4.0), st.floats(0.2, 2.9),
                       st.floats(0.0, 6.2)))
@example(m_field=0.0, labels=[(1, (0, 0), 0j, 2.2250738585e-313 + 0j)],
         point=(0.0, 1.0, 1.0, 0.0))
@settings(max_examples=40, deadline=None)
def test_mink_point_synthesis_is_the_per_label_scalar_sum(m_field, labels, point):
    # E = 0.4 k never meets the threshold |E| = m; the point synthesis (Y
    # contracted first) within 4 eps of the sum of |terms| of the per-label
    # sum on the same radial values, Y and phases, taken in long double, plus
    # _UNDERFLOW per term times its factors past the coefficient that exceed
    # 1, as `_per_label_sums` in tests/test_expansions.py allows: a product
    # rounded in the subnormal range takes an absolute error, which the
    # factors applied after it scale (a 2.2e-313 coefficient sums to a
    # subnormal whose relative bound, 1.9e-330, no double can meet)
    t, r, theta, phi = point
    rep = MinkTubeRep(EnergyGrid(0.4, tuple(k for k, _, _, _ in labels)),
                      {(k, l, m): (a, b) for k, (l, m), a, b in labels}, m_field)
    terms, tails = [], []
    for (k, l, m), (a, b) in rep.coeffs.items():
        e_k = rep.grid.omega(k)
        factor = np.clongdouble(np.exp(-1j * e_k * t)) * np.clongdouble(
            sph_harm(l, m, theta, phi)) * np.longdouble(rep.grid.d_omega)
        weight = math.sqrt(abs(e_k * e_k - m_field * m_field)) / (4.0 * math.pi)
        for c, fns in ((a, (jcheck, jcheck_dr)), (b, (ncheck, ncheck_dr))):
            if c:
                radial = [weight * fn(e_k, l, r, m_field) for fn in fns]
                terms.append([np.clongdouble(c) * factor * np.longdouble(x) for x in radial])
                tails.append([max(1.0, abs(factor)) * max(1.0, abs(x)) for x in radial])
    terms = np.array(terms, dtype=np.clongdouble).reshape(-1, 2)
    tails = np.array(tails, dtype=np.longdouble).reshape(-1, 2)
    got = [mink_synth_tube(rep, point), mink_synth_tube_dr(rep, point)]
    assert np.all(np.abs(got - terms.sum(axis=0))
                  <= 4.0 * np.finfo(float).eps * np.abs(terms).sum(axis=0)
                  + _UNDERFLOW * tails.sum(axis=0))


def test_mink_tube_threshold_label_without_b_channel():
    # ncheck diverges at |E| = m; a label there with b = 0 must not call it
    # (and contributes 0, as p_E = 0)
    rep = MinkTubeRep(EnergyGrid(0.5, (-2, 2)), {(2, 1, 0): (1.0, 0.0)}, 1.0)
    assert mink_synth_tube(rep, (0.1, 1.2, 0.7, 0.3)) == 0.0
    assert mink_synth_tube_dr(rep, (0.1, 1.2, 0.7, 0.3)) == 0.0
    assert np.isfinite(mink_omega_tube_quadrature(rep, rep, 1.3, ANG))
    assert np.isfinite(mink_omega_tube_quadrature(THRESHOLD, THRESHOLD, 1.3, ANG))


@pytest.mark.parametrize("names", [
    ("mixed", "mixed"), ("threshold", "threshold"), ("mixed", "empty")])
def test_mink_tube_quadrature_matches_reference_loop(rng, names):
    reps = {"mixed": _random_mink_tube(rng, MIXED_GRID, 1.2, 12),
            "threshold": THRESHOLD, "empty": MinkTubeRep(MIXED_GRID, {}, 1.2)}
    eta, zeta = (reps[name] for name in names)
    r0 = 1.7
    span = max(abs(k) for k, _, _ in {**eta.coeffs, **zeta.coeffs})
    t_nodes = eta.grid.time_nodes(2 * span + 1)
    dt = eta.grid.window / len(t_nodes)
    total, scale = 0.0, 0.0
    for t in t_nodes:
        (fe, dfe), (fz, dfz) = (
            [_tube_terms(rep, t, r0, lambda l, m: ANG.ylm(l)[lm_index(l, m)], dr)
             .reshape(-1, ANG.n_theta, ANG.n_phi)
             for dr in (False, True)] for rep in (eta, zeta))
        total += dt * ANG.integrate(fe.sum(0) * dfz.sum(0) - fz.sum(0) * dfe.sum(0))
        scale += dt * ANG.integrate(
            np.abs(fe).sum(0) * np.abs(dfz).sum(0) + np.abs(fz).sum(0) * np.abs(dfe).sum(0))
    value = mink_omega_tube_quadrature(eta, zeta, r0, ANG)
    assert abs(value - 0.5 * r0 * r0 * total) <= 1e-13 * 0.5 * r0 * r0 * scale


def test_mink_tube_quadrature_of_two_empty_reps_is_zero(params_m0):
    # no label: zero on the window of their grid, as the AdS tube
    # quadrature gives for two empty reps
    empty = MinkTubeRep(MIXED_GRID, {}, 1.2)
    assert mink_omega_tube_quadrature(empty, empty, 1.7, ANG) == 0j
    ads = TubeRep(OmegaGrid(0.5, (1, 2)), {}, "S")
    assert omega_tube_quadrature(ads, ads, 0.8, params_m0, ANG) == 0j


# --- symplectic structures -----------------------------------------------------------

def test_mink_omega_slice_antisymmetry_and_value():
    eta = MinkSliceRep({(1.2, 1, 0): (0.7, 0.3j), (0.8, 0, 0): (0.2j, 0.5)})
    assert abs(mink_omega_slice(eta, eta)) < 1e-15
    zeta = MinkSliceRep({(1.2, 1, 0): (0.1, 0.9)})
    val = mink_omega_slice(eta, zeta)
    e_p = 1.2
    expected = 1j * e_p * (0.3j * 0.1 - 0.7 * 0.9)
    assert val == pytest.approx(expected, rel=1e-14)


def test_mink_omega_tube_quadrature_vs_momentum(rng):
    grid = EnergyGrid(0.5, tuple(range(-5, 6)))
    m_f = 0.6

    def rand_rep():
        coeffs = {}
        while len(coeffs) < 5:
            k = int(rng.choice(grid.indices))
            l = int(rng.integers(0, 3))
            m = int(rng.integers(-l, l + 1))
            coeffs[(k, l, m)] = (complex(rng.normal(), rng.normal()),
                                 complex(rng.normal(), rng.normal()))
        return MinkTubeRep(grid, coeffs, m_f)

    eta, zeta = rand_rep(), rand_rep()
    mom = mink_omega_tube_momentum(eta, zeta)
    for r0 in (1.0, 2.5):
        quad = mink_omega_tube_quadrature(eta, zeta, r0, ANG)
        assert quad == pytest.approx(mom, rel=1e-7, abs=1e-10)


def test_mink_rod_solutions_null():
    grid = EnergyGrid(0.5, (-3, 3))
    eta = MinkTubeRep(grid, {(3, 1, 0): (1.0, 0.0), (-3, 1, 0): (0.4, 0.0)}, 0.0)
    zeta = MinkTubeRep(grid, {(3, 1, 0): (0.2j, 0.0), (-3, 1, 0): (0.6, 0.0)}, 0.0)
    assert abs(mink_omega_tube_momentum(eta, zeta)) < 1e-15
    assert abs(mink_omega_tube_quadrature(eta, zeta, 1.5, ANG)) < 1e-9


# --- Killing fields ---------------------------------------------------------------------

def test_mink_killing_coefficients():
    xi = np.array([0.6, 0.64, 0.48])
    c_tau, c_r, v = mink_killing_coefficients("K0j", 0.3, 1.1, xi, j=2)
    assert (c_tau, c_r) == (-1.1 * 0.64, -0.3 * 0.64)
    assert np.allclose(v, -0.3 / 1.1 * (np.array([0.0, 1.0, 0.0]) - 0.64 * xi), rtol=0, atol=1e-16)
    c_tau, c_r, v = mink_killing_coefficients("Tj", 0.3, 1.1, xi)
    assert (c_tau, c_r) == (0.0, 0.48) and abs(v @ xi) < 1e-16
    with pytest.raises(ValueError, match="unknown Minkowski generator"):
        mink_killing_coefficients("T0", 0.3, 1.1, xi)


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("name", ["Tj", "K0j"])
def test_mink_killing_coefficients_preserve_the_interval(name, j, rng):
    # a Poincare field keeps -(tau_p - tau_q)^2 + |x_p - x_q|^2, x = r xi:
    # its rate along the field, by central differences, vanishes
    s = 1e-6
    pts = []
    for _ in range(2):
        xi = rng.normal(size=3)
        pts.append((rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0), xi / np.linalg.norm(xi)))

    def event(tau, r, xi):
        return np.r_[tau, r * xi]

    def rate_of(pt):
        c_tau, c_r, v = mink_killing_coefficients(name, *pt, j=j)
        tau, r, xi = pt
        return (event(tau + s * c_tau, r + s * c_r, xi + s * v)
                - event(tau - s * c_tau, r - s * c_r, xi - s * v)) / (2.0 * s)

    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    sep = event(*pts[0]) - event(*pts[1])
    rate = 2.0 * sep @ eta @ (rate_of(pts[0]) - rate_of(pts[1]))
    assert abs(rate) <= 1e-7 * (1.0 + sep @ sep)


# --- flat limit -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flat_table():
    return flat_limit_compare(m_field=0.0, R_values=(100.0, 1000.0))


def test_flat_limit_ratios(flat_table):
    for key in ("radial", "slice_synth", "symplectic"):
        errs = flat_table[key]
        ratio = errs[100.0] / errs[1000.0]
        assert 5.0 <= ratio <= 200.0, (key, errs)


def test_flat_limit_nan_measurement_fails_its_check(monkeypatch):
    # a NaN at one radius must reach the error table, so its ratio check fails
    import adskg.minkowski as mink
    from adskg.verify import suite_minkowski
    jcheck_fine, coeffs_fine = mink.jcheck, mink.mink_killing_coefficients
    monkeypatch.setattr(mink, "jcheck", lambda E, l, r, m: np.where(
        np.asarray(r) == 3.0, np.nan, jcheck_fine(E, l, r, m)))
    monkeypatch.setattr(mink, "mink_killing_coefficients", lambda name, *args, **kw: (
        (0.0, float("nan"), 0.0) if name == "Tj" else coeffs_fine(name, *args, **kw)))
    passed = {c.name: c.passed for c in suite_minkowski()}
    assert not passed["flat_limit_radial_ratio"]
    assert not passed["killing_correspondence_ratio"]
    assert passed["flat_limit_slice_synth_ratio"]


def test_flat_limit_radial_small(flat_table):
    # m = 0, l = 0 included: rescaled S^a vs j at R = 1000 well below 1e-2
    assert flat_table["radial"][1000.0] < 1e-2


def test_flat_limit_identical_r_is_zero():
    # comparing a function with itself gives zero error
    assert abs(jcheck(1.3, 0, 1.0, 0.0) - jcheck(1.3, 0, 1.0, 0.0)) == 0.0


def test_killing_correspondence_ratio():
    errs = killing_correspondence_errors((100.0, 1000.0))
    ratio = errs[100.0] / errs[1000.0]
    assert 50.0 <= ratio <= 200.0, errs


def test_ncheck_dr_shares_the_ncheck_domain():
    # the r -> 0 and threshold singularities raise, as for ncheck itself
    for E, l, r, m_f in ((2.0, 1, 0.0, 1.0), (0.5, 0, 0.0, 1.0), (1.0, 2, 1.3, 1.0)):
        with pytest.raises(DomainError):
            ncheck_dr(E, l, r, m_f)


# --- one scipy call per branch and kind ---------------------------------------------

_CHECKS = {("J", False): jcheck, ("N", False): ncheck,
           ("J", True): jcheck_dr, ("N", True): ncheck_dr}


def _scalar_check(kind, E, l, r, m_f, dr):
    """jcheck or ncheck (or its d/dr) at one element from scalar scipy
    calls, the per-label form the batched `_check` replaced."""
    from scipy.special import spherical_in, spherical_jn, spherical_kn, spherical_yn
    d_disc = E * E - m_f * m_f
    p = math.sqrt(abs(d_disc))
    x, scale = p * r, (p if dr else 1.0)
    if d_disc >= 0.0:
        return scale * (spherical_jn if kind == "J" else spherical_yn)(l, x, dr)
    if kind == "J":
        return scale * spherical_in(l, x, dr)
    return scale * ((-1.0) ** (l + 1) * spherical_in(l, x, dr)
                    - 2.0 / math.pi * spherical_kn(l, x, dr))


@pytest.mark.parametrize("kind", ["J", "N"])
@pytest.mark.parametrize("dr", [False, True])
def test_batched_check_is_the_scalar_scipy_call_bit_for_bit(kind, dr, rng):
    # both branches (m = 1.2: |E| < 1.2 evanescent), l = 0 .. 6, and the (E,
    # l) blocks against one r as the tube sums call it
    m_f, fn = 1.2, _CHECKS[(kind, dr)]
    E = np.r_[rng.uniform(-3.0, 3.0, 60), 0.0, 1.19, -1.21, 2.0]
    l = rng.integers(0, 7, E.size)
    assert {bool(d) for d in E * E >= m_f * m_f} == {True, False}
    for r in (rng.uniform(0.05, 5.0, E.size), 1.7):
        want = [_scalar_check(kind, e, ll, rr, m_f, dr) for e, ll, rr in zip(
            E.tolist(), l.tolist(), np.broadcast_to(r, E.shape).tolist())]
        assert fn(E, l, r, m_f).tobytes() == np.array(want).tobytes()
    assert fn(2.0, 3, 1.1, m_f) == _scalar_check(kind, 2.0, 3, 1.1, m_f, dr)


def test_ncheck_domain_errors_only_where_ncheck_is_evaluated():
    # r <= 0 and |E| = m raise for ncheck at any element, never for jcheck,
    # so a b = 0 label at the threshold still synthesizes
    E, l, m_f = np.array([2.0, 1.0, 0.5]), np.array([0, 1, 2]), 1.0
    for fn in (jcheck, jcheck_dr):
        assert np.all(np.isfinite(fn(E, l, np.array([0.0, 1.3, 0.0]), m_f)))
    for fn in (ncheck, ncheck_dr):
        with pytest.raises(DomainError, match="threshold"):
            fn(E, l, 1.3, m_f)
        with pytest.raises(DomainError, match="r > 0"):
            fn(E[[0, 2]], l[[0, 2]], np.array([1.3, 0.0]), m_f)
        assert np.all(np.isfinite(fn(E[[0, 2]], l[[0, 2]], 1.3, m_f)))
    point = (0.1, 1.2, 0.7, 0.3)
    assert np.isfinite(mink_synth_tube(THRESHOLD, point))
    assert np.isfinite(mink_synth_tube_dr(THRESHOLD, point))
    at_threshold = MinkTubeRep(THRESHOLD.grid, {**THRESHOLD.coeffs, (2, 1, 0): (1.0, 0.5)}, 1.0)
    with pytest.raises(DomainError, match="threshold"):
        mink_synth_tube(at_threshold, point)


def test_mink_tube_point_synthesis_is_the_per_key_tabulation_bit_for_bit(rng):
    # the batched radial table at a point gives the bits of the table built
    # one (E, l) key at a time from scalar scipy calls
    from adskg.expansions import _tube_sum
    from radial_reference import per_distinct

    def per_key(m_f, r):
        return lambda chs, energy, l: per_distinct(lambda e, ll: math.sqrt(
            abs(e * e - m_f * m_f)) / (4.0 * math.pi) * np.array(
                [[_scalar_check("JN"[ch], e, ll, r, m_f, dr) for dr in (False, True)]
                 for ch in chs]), energy, l)

    for rep in (_random_mink_tube(rng, MIXED_GRID, 1.2, 25),
                _random_mink_tube(rng, MIXED_GRID, 0.3, 25), THRESHOLD):
        for t, r, theta, phi in _mink_points(rng):
            want = _tube_sum(rep, t, (theta, phi), per_key(rep.m_field, r))
            got = [mink_synth_tube(rep, (t, r, theta, phi)),
                   mink_synth_tube_dr(rep, (t, r, theta, phi))]
            assert np.array(got).tobytes() == want[:, 0].tobytes()


def test_evanescent_i_l_is_shared_by_jcheck_and_ncheck(monkeypatch):
    # the verify suite's tube quadrature forms jcheck and ncheck together:
    # one spherical_in call per evanescent (E, l) table and d/dr, as many
    # as spherical_kn calls, where each kind once made its own
    import adskg.minkowski as mk
    from adskg.verify import run_suite
    calls = {"in": 0, "kn": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(mk, "spherical_in", counted("in", mk.spherical_in))
    monkeypatch.setattr(mk, "spherical_kn", counted("kn", mk.spherical_kn))
    assert all(check.passed for check in run_suite("minkowski"))
    assert calls == {"in": 8, "kn": 8}

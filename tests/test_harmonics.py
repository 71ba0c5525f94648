import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.errors import DomainError
from adskg.expansions import OmegaGrid, TubeRep, _time_project, sample_tube
from adskg.geometry import make_params
from adskg.harmonics import (AngularGrid, EulerAngles, _theta_table,
                             contiguous_coeffs, lm_count, lm_degree, lm_index,
                             lm_labels, lm_mirror, sph_harm, sph_norm, wigner_d)
from adskg.specfun import assoc_legendre


def test_y00_value():
    assert sph_harm(0, 0, 0.4, 1.1) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)


def test_conjugation_rule(rng):
    for _ in range(10):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.0, 2 * math.pi)
        for l, m in ((2, 1), (3, -2), (5, 4), (1, 0)):
            assert np.conj(sph_harm(l, m, theta, phi)) == pytest.approx(
                sph_harm(l, -m, theta, phi), rel=1e-12, abs=1e-13)


def test_normalization_quadrature():
    ang = AngularGrid(64, 128)
    vals = ang.ylm(1)[lm_index(1, 0)]
    assert ang.integrate(np.abs(vals) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_orthonormality():
    ang = AngularGrid(32, 64)
    gram = ang.project(ang.ylm(5), 5)  # gram[i, j] = <Y_j, Y_i>
    assert gram.shape == (36, 36)
    assert np.max(np.abs(gram - np.eye(36))) <= 1e-10


def test_packed_index_helpers():
    ls, ms = lm_labels(4)
    assert lm_count(4) == ls.size == 25
    assert np.array_equal(lm_index(ls, ms), np.arange(25))
    assert [lm_degree(lm) for lm in range(25)] == ls.tolist()
    assert np.array_equal(ms[lm_mirror(4)], -ms) and np.array_equal(ls[lm_mirror(4)], ls)


def test_array_sph_harm_equals_scalar_calls(rng):
    ls, ms = lm_labels(12)
    theta, phi = rng.uniform(0.0, math.pi, 9), rng.uniform(-7.0, 7.0, 9)
    got = sph_harm(ls[:, None], ms[:, None], theta, phi)
    want = [[sph_harm(int(l), int(m), float(t), float(p)) for t, p in zip(theta, phi)]
            for l, m in zip(ls, ms)]
    assert got.shape == (ls.size, 9) and np.array_equal(got, want)
    ang = AngularGrid(12, 24)
    table = ang.ylm(9)
    assert table.shape == (100, 12, 24) and not table.flags.writeable
    assert np.array_equal(table, [[[sph_harm(int(l), int(m), float(t), float(p))
                                    for p in ang.phi] for t in ang.theta]
                                  for l, m in zip(*lm_labels(9))])
    assert np.array_equal(ang.ylm(3), table[:16])
    assert np.array_equal(ang.ylm(11)[:100], table)


@pytest.mark.parametrize("l, m", [((2, 3, 4), (1, -4, 0)), (2, (0, 3)), ((1, 0), 1)])
def test_array_sph_harm_rejects_any_m_above_l(l, m):
    with pytest.raises(IndexError):
        sph_harm(np.array(l), np.array(m), 0.5, 0.5)


def _loop_project(ang, values, l_max):
    """Reference: per packed lm, the phi sum as column m mod n_phi of an FFT,
    then the theta sum in long double against w_theta (2 pi / n_phi) Y_lm(theta, 0)."""
    spectrum = np.fft.fft(values, axis=-1)
    weight = np.longdouble(ang.cos_weights) * ang.phi_weight
    return np.stack([spectrum[..., m % ang.n_phi].astype(np.clongdouble)
                     @ (weight * sph_harm(l, m, ang.theta, 0.0).real)
                     for l, m in zip(*lm_labels(l_max))], axis=-1).astype(complex)


def test_project_matches_label_loop(rng):
    for ang in (AngularGrid(16, 32), AngularGrid(8, 12)):  # 2 l_max + 1 > 12: m aliases
        for shape in ((), (3,), (5, 3), (200,)):
            values = (rng.normal(size=shape + (ang.n_theta, ang.n_phi))
                      + 1j * rng.normal(size=shape + (ang.n_theta, ang.n_phi)))
            got = ang.project(values, 8)
            assert got.shape == shape + (81,)
            assert np.array_equal(got, _loop_project(ang, values, 8))


def test_project_is_the_matmul_loop_bit_for_bit(rng):
    # the theta sum is np.dot, which keeps numpy's long-double accumulator in
    # a register; the `@` loop gives the same bits, zeros of both signs and
    # magnitudes far from 1 included
    for ang in (AngularGrid(16, 32), AngularGrid(21, 42)):
        shape = (7, ang.n_theta, ang.n_phi)
        values = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * 10.0 ** rng.uniform(-150, 150, size=shape)
        values[:, ::3] = -0.0
        values[:, 1::5] = 0.0
        assert ang.project(values, 10).tobytes() == _loop_project(ang, values, 10).tobytes()


def _c_tube_fixture(rng):
    """A sampled C-basis tube holding every label k in -8..8, l <= 8, at
    rho0 0.8: its field and time-projected radial derivative on a 16 x 32 grid."""
    params = make_params(3, 1.0, 0.0)
    grid = OmegaGrid(0.5, tuple(range(-8, 9)))
    labels = [(k, l, m) for k in grid.indices for l, m in zip(*(x.tolist() for x in lm_labels(8)))]
    values = rng.normal(size=(len(labels), 4)) @ [[1, 0], [1j, 0], [0, 1], [0, 1j]]
    rep = TubeRep(grid, dict(zip(labels, map(tuple, values))), "C")
    ang = AngularGrid(16, 32)
    data = sample_tube(rep, 0.8, params, ang)
    return ang, (data.phi, _time_project(data.dphi_drho, grid))


def test_project_matches_label_loop_on_c_tube(rng):
    ang, fields = _c_tube_fixture(rng)
    for values in fields:
        assert np.array_equal(ang.project(values, 8), _loop_project(ang, values, 8))


def _exact_project(ang, values, l_max):
    """The quadrature sum with mpmath harmonics at the theta nodes and the
    exact phi nodes 2 pi j / n_phi, summed in clongdouble; and the sum of
    |terms| per entry."""
    ld = lambda x: np.longdouble(mpmath.nstr(x, 25))
    ls, ms = (x.tolist() for x in lm_labels(l_max))
    with mpmath.workdps(30):
        # mpmath's Y carries the Condon-Shortley phase (-1)^m on m > 0
        theta = np.array([[ld(mpmath.re(mpmath.spherharm(l, m, float(t), 0))) * (-1) ** max(m, 0)
                           for t in ang.theta] for l, m in zip(ls, ms)])
        phase = np.array([[ld(mpmath.cospi(2 * mpmath.mpf(j * m) / ang.n_phi))
                           - 1j * ld(mpmath.sinpi(2 * mpmath.mpf(j * m) / ang.n_phi))
                           for j in range(ang.n_phi)] for m in ms])
        weight = np.array([ld(w) for w in ang.cos_weights.tolist()]) * (2 * ld(mpmath.pi) / ang.n_phi)
    terms = ((weight * theta)[:, :, None] * phase[:, None, :]
             * values[..., None, :, :].astype(np.clongdouble))
    return terms.sum(axis=(-2, -1)), np.abs(terms).sum(axis=(-2, -1)).astype(float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="the reference sum needs an extended-precision long double")
def test_project_is_accurate_on_c_tube(rng):
    # within 8 eps of the sum of |terms| of the exact quadrature sum, a bound
    # the theta-then-phi loop of conj(Y_lm) * values in double also meets
    # (6.6 eps on this fixture, the separable sum 5.8 eps)
    ang, fields = _c_tube_fixture(rng)
    eps = np.finfo(float).eps
    ylm = ang.ylm(8)
    for values in fields:
        want, scale = _exact_project(ang, values, 8)
        theta_then_phi = np.stack([ang.integrate(np.conj(y) * values) for y in ylm], axis=-1)
        for got in (ang.project(values, 8), theta_then_phi):
            assert np.all(np.abs(got - want) <= 8 * eps * scale)


def test_theta_table_holds_the_factors_of_y_on_the_grid():
    ang = AngularGrid(10, 20)
    entry = _theta_table(10, 20, 4)
    assert _theta_table(10, 20, 4) is entry
    theta, weighted, phase = entry
    for arr in entry:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    assert theta.shape == weighted.shape == (9, 10, 5) and weighted.dtype == np.longdouble
    assert phase.shape == (9, 20)
    for m in range(-4, 5):
        ls = np.arange(abs(m), 5)
        column = sph_harm(ls[:, None], m, ang.theta, 0.0).real.T
        assert np.array_equal(theta[m + 4, :, abs(m):], column)
        assert np.array_equal(weighted[m + 4, :, abs(m):], np.longdouble(ang.cos_weights)[:, None]
                              * ang.phi_weight * column)
        assert np.array_equal(phase[m + 4], np.exp(1j * m * ang.phi))
        assert not theta[m + 4, :, :abs(m)].any() and not weighted[m + 4, :, :abs(m)].any()


def _table_synthesize(ang, coef):
    """sum_lm coef[..., lm] Y_lm on the grid against a full sph_harm table,
    and the sum of |terms| per point."""
    ls, ms = (x[:, None, None] for x in lm_labels(lm_degree(coef.shape[-1] - 1)))
    table = sph_harm(ls, ms, ang.theta[:, None], ang.phi)
    flat = table.reshape(len(table), -1)
    shape = coef.shape[:-1] + table.shape[1:]
    return (coef @ flat).reshape(shape), (np.abs(coef) @ np.abs(flat)).reshape(shape)


def test_synthesize_matches_the_table_contraction(rng):
    eps = np.finfo(float).eps
    for ang, l_max in ((AngularGrid(16, 32), 8), (AngularGrid(8, 12), 8),  # 2 l_max + 1 > 12
                       (AngularGrid(9, 7), 3), (AngularGrid(24, 48), 12)):
        for shape in ((), (3,), (2, 5), (0,)):
            size = shape + (lm_count(l_max),)
            coef = rng.normal(size=size) + 1j * rng.normal(size=size)
            got = ang.synthesize(coef)
            want, scale = _table_synthesize(ang, coef)
            assert got.shape == shape + (ang.n_theta, ang.n_phi)
            assert np.all(np.abs(got - want) <= 4 * eps * scale)
    real = rng.normal(size=(4, lm_count(5)))
    ang = AngularGrid(16, 32)
    assert np.array_equal(ang.synthesize(real), ang.synthesize(real + 0j))


def test_synthesize_is_the_adjoint_of_project(rng):
    ang = AngularGrid(16, 32)
    coef = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
    assert np.max(np.abs(ang.project(ang.synthesize(coef), 7) - coef)) <= 1e-13


def test_project_over_stack_equals_per_slice(rng):
    ang = AngularGrid(16, 32)
    stack = (rng.normal(size=(5, 3, 16, 32))
             + 1j * rng.normal(size=(5, 3, 16, 32)))
    got = ang.project(stack, 7)
    assert got.shape == (5, 3, 64)
    assert all(np.array_equal(got[i, j], ang.project(stack[i, j], 7))
               for i in range(5) for j in range(3))
    totals = ang.integrate(stack)
    assert all(totals[i, j] == ang.integrate(stack[i, j])
               for i in range(5) for j in range(3))


def test_index_error():
    with pytest.raises(IndexError):
        sph_harm(2, 3, 0.5, 0.5)


def test_legendre_overflow_is_a_domain_error():
    # P_l^m overflows at |m| near l from l = 86 on although |Y| < 1
    assert np.isfinite(AngularGrid(8, 16).ylm(85)).all()
    assert all(np.isfinite(table).all() for table in _theta_table(8, 16, 85))
    edge = np.zeros((5, lm_count(85)))
    edge[range(5), lm_index(85, np.array([-85, -84, 0, 84, 85]))] = 1.0
    assert np.isfinite(AngularGrid(8, 16).synthesize(edge)).all()
    with pytest.raises(DomainError, match=r"not finite at \(l, m\) = \(86, 86\)"):
        sph_harm(86, 86, 1.0, 0.0)
    for build in (lambda: AngularGrid(8, 16).ylm(86), lambda: _theta_table(8, 16, 86),
                  lambda: AngularGrid(8, 16).synthesize(np.zeros(lm_count(86)))):
        with pytest.raises(DomainError, match=r"not finite at \(l, m\) = \(86, "):
            build()


def test_lm_labels_are_formed_once_and_read_only():
    ls, ms = lm_labels(7)
    assert lm_labels(7)[0] is ls and lm_labels(7)[1] is ms
    for arr in (ls, ms):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_grids_of_one_shape_share_a_read_only_rule_and_table(rng):
    a, b = AngularGrid(14, 30), AngularGrid(14, 30)
    for x, y in ((a.cos_nodes, b.cos_nodes), (a.cos_weights, b.cos_weights),
                 (a.theta, b.theta), (a.phi, b.phi)):
        assert x is y and not x.flags.writeable
    x, w = np.polynomial.legendre.leggauss(14)
    assert a.cos_nodes.tobytes() == x.tobytes() and a.cos_weights.tobytes() == w.tobytes()
    assert a.theta.tobytes() == np.arccos(x).tobytes()
    assert a.phi.tobytes() == (2.0 * math.pi * np.arange(30) / 30).tobytes()
    from adskg.memo import counters
    before = counters("theta_table")["theta_table"]
    coef = rng.normal(size=(2, lm_count(6))) + 0j
    first = a.synthesize(coef)
    assert counters("theta_table")["theta_table"]["misses"] == before["misses"] + 1
    # a second grid of the shape, projecting, reads the entry synthesis built
    b.project(first, 6)
    assert counters("theta_table")["theta_table"]["hits"] == before["hits"] + 1
    assert np.array_equal(b.synthesize(coef), first)


def test_normalization_overflow_is_a_domain_error():
    # (l - m)! / (l + m)! leaves the double range at m = -l from l = 86 on
    assert np.isfinite(sph_norm(85, -85)) and sph_norm(90, 90) == 0.0
    with pytest.raises(DomainError, match=r"\(90, -90\)"):
        sph_norm(90, -90)
    with pytest.raises(DomainError, match=r"\(87, -87\)"):
        sph_norm(np.array([3, 87, 86]), np.array([1, -87, -86]))
    grid = AngularGrid(8, 16)
    for l_max in (86, 90):
        with pytest.raises(DomainError):
            grid.ylm(l_max)
        with pytest.raises(DomainError):
            grid.synthesize(np.zeros((2, lm_count(l_max))))
    assert grid.ylm(2).shape == (9, 8, 16)


def test_normalization_is_the_per_label_formula_at_any_degree():
    # one log-factorial per distinct l -+ m, not a table up to max(l + |m|):
    # degrees 10^6 and 10^7 cost little; every label keeps the bits of the
    # per-label formula
    ls, ms = lm_labels(50)
    l, m = np.r_[ls, 10 ** 6, 10 ** 7], np.r_[ms, 3, 0]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = sph_norm(l, m)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2 ** 20
    want = [math.sqrt((2 * a + 1) / (4.0 * math.pi) * math.exp(
        math.lgamma(a - b + 1) - math.lgamma(a + b + 1))) for a, b in zip(l.tolist(), m.tolist())]
    assert got.tobytes() == np.array(want).tobytes()


# --- contiguous coefficients -------------------------------------------------

def test_contiguous_lowering_vanishes():
    km, kp, dm, dp = contiguous_coeffs(3, 0, 0)
    assert km == 0.0 and dm == 0.0
    km, kp, dm, dp = contiguous_coeffs(5, 0, 0)
    assert km == 0.0 and dm == 0.0
    km, _, dm, _ = contiguous_coeffs(3, 4, 4)
    assert km == 0.0 and dm == 0.0
    km, _, dm, _ = contiguous_coeffs(7, 3, 3)
    assert km == 0.0 and dm == 0.0


def test_contiguous_d3_value():
    km, kp, dm, dp = contiguous_coeffs(3, 1, 0)
    assert km == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)


def test_contiguous_raising_lowering_connection():
    # kappa_-(l+1, sub) == kappa_+(l, sub) for every odd d
    for d in (3, 5, 7):
        for l in range(5):
            for sub in range(l + 1):
                km_up = contiguous_coeffs(d, l + 1, sub)[0]
                kp = contiguous_coeffs(d, l, sub)[1]
                assert km_up == pytest.approx(kp, rel=1e-13)


def test_contiguous_even_dimension_rejected():
    with pytest.raises(DomainError):
        contiguous_coeffs(4, 2, 1)


def test_contiguous_delta_relations():
    for d in (3, 5, 9):
        for l in range(6):
            for sub in range(l + 1):
                km, kp, dm, dp = contiguous_coeffs(d, l, sub)
                assert dm == pytest.approx((l + d - 2) * km, rel=1e-13, abs=1e-15)
                assert dp == pytest.approx(-l * kp, rel=1e-13, abs=1e-15)


def test_contiguous_coeffs_broadcast_bit_for_bit():
    ls, ms = lm_labels(9)
    for d, sub in ((3, ms), (5, np.abs(ms)), (7, np.abs(ms))):
        got = np.array(contiguous_coeffs(d, ls, sub))
        want = np.array([contiguous_coeffs(d, int(l), int(s)) for l, s in zip(ls, sub)]).T
        assert np.array_equal(got, want)
    with pytest.raises(IndexError):
        contiguous_coeffs(3, ls, ms + 1)
    with pytest.raises(IndexError):
        contiguous_coeffs(5, ls, ms)


def _angle_grid():
    theta = np.linspace(0.08, math.pi - 0.08, 20)
    phi = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
    return np.meshgrid(theta, phi, indexing="ij")


def test_cos_theta_recursion_pointwise():
    # cos(theta) Y_l^m = kappa_- Y_{l-1}^m + kappa_+ Y_{l+1}^m
    th, ph = _angle_grid()
    for l in range(7):
        for m in range(-l, l + 1):
            km, kp, _, _ = contiguous_coeffs(3, l, m)
            lhs = np.cos(th) * sph_harm(l, m, th, ph)
            rhs = kp * sph_harm(l + 1, m, th, ph)
            if abs(m) <= l - 1:
                rhs = rhs + km * sph_harm(l - 1, m, th, ph)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_sin2_derivative_recursion_pointwise():
    # (1 - cos^2) d/dcos Y_l^m = delta_- Y_{l-1}^m + delta_+ Y_{l+1}^m, the
    # left side from (1 - x^2) P' = (l+m) P_{l-1}^m - l x P_l^m
    th, ph = _angle_grid()
    x = np.cos(th)
    for l in range(7):
        for m in range(-l, l + 1):
            _, _, dm, dp = contiguous_coeffs(3, l, m)
            lower = assoc_legendre(m, l - 1, x) if abs(m) <= l - 1 else 0.0
            lhs = sph_norm(l, m) * np.exp(1j * m * ph) * (
                (l + m) * lower - l * x * assoc_legendre(m, l, x))
            rhs = dp * sph_harm(l + 1, m, th, ph)
            if abs(m) <= l - 1:
                rhs = rhs + dm * sph_harm(l - 1, m, th, ph)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


# --- Wigner D ----------------------------------------------------------------

def test_wigner_identity():
    d1 = wigner_d(1, EulerAngles(0.0, 0.0, 0.0))
    assert np.max(np.abs(d1 - np.eye(3))) < 1e-14


def test_wigner_completeness(rng):
    angles = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
    d2 = wigner_d(2, angles)
    gram = d2 @ np.conj(d2).T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_wigner_rows_unitary(rng):
    angles = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
    for l in (1, 3):
        d = wigner_d(l, angles)
        norms = np.sum(np.abs(d) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_wigner_inverse_is_dagger(rng):
    a, b, g = rng.uniform(-math.pi, math.pi, 3)
    d = wigner_d(2, EulerAngles(a, b, g))
    dinv = wigner_d(2, EulerAngles(-g, -b, -a))
    assert np.max(np.abs(dinv - np.conj(d).T)) < 1e-12


def test_rotation_rule_on_grid(rotate_point):
    # Y_l^m(R^{-1} Omega) equals the D-matrix mixing of unrotated harmonics
    from adskg.isometry import rotation_mixing
    l = 3
    angles = EulerAngles(0.7, 0.5, -0.4)
    inv = EulerAngles(-angles.gamma, -angles.beta, -angles.alpha)
    th, ph = _angle_grid()
    thr, phr = rotate_point(inv, th, ph)
    x = rotation_mixing(l, angles)
    for m in range(-l, l + 1):
        lhs = sph_harm(l, m, thr, phr)
        rhs = sum(x[mp + l, m + l] * sph_harm(l, mp, th, ph)
                  for mp in range(-l, l + 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 3))
def test_wigner_unitary_through_l40(angles):
    # the factorial sum lost about a digit per two degrees (9.7e-8 at l = 30)
    angles = EulerAngles(*angles)
    for l in range(41):
        d = wigner_d(l, angles)
        assert np.max(np.abs(d @ np.conj(d).T - np.eye(2 * l + 1))) <= 1e-13

"""High-precision oracles (mpmath at 40 or more digits) for the special
functions behind the modes, the harmonics, the twisted derivative and
the flat limit, over the parameter ranges the library uses.  Each error is measured against a scale
without zeros, so the tolerance stays 1e-12 near the functions' roots."""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.expansions import twisted_derivative
from adskg.geometry import make_params
from adskg.harmonics import EulerAngles, sph_harm, wigner_d
from adskg.minkowski import jcheck, jcheck_dr, ncheck, ncheck_dr
from adskg.modes import RadialKind, hyper_params, magic_frequency, radial_eval
from adskg.specfun import (assoc_legendre, hyp2f1, jacobi_p, spherical_bessel,
                           spherical_bessel_dx)

mp = pytest.importorskip("mpmath").mp

TOL = 1e-12
ORACLE = settings(max_examples=150, deadline=None)
unit = st.floats(-1.0, 1.0)


def _hyp2f1_mp(a, b, c, x):
    """2F1 at 40 digits; a terminating series as its explicit sum, which
    needs no zero detection where the polynomial vanishes."""
    with mp.workdps(40):
        stops = [-v for v in (a, b) if v <= 0 and v == int(v)]
        if not stops:
            return mp.hyp2f1(a, b, c, x)
        n = int(min(stops))
        a, b, c, x = map(mp.mpf, (a, b, c, x))
        term, total = mp.mpf(1), mp.mpf(0)
        for k in range(n + 1):
            total += term
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        return total


def _hyp2f1_local_err(a, b, c, x):
    """|hyp2f1 - mpmath| over the local magnitude, the largest |2F1| at x,
    0.99 x and 1.01 x (capped at 1), so a value next to a root is compared
    with the function's size there."""
    want = _hyp2f1_mp(a, b, c, x)
    scale = max(abs(_hyp2f1_mp(a, b, c, min(f * x, 1.0))) for f in (1.0, 0.99, 1.01))
    return abs(hyp2f1(a, b, c, x) - float(want)) / float(scale)


# the workloads' 2F1 range: the four radial kinds at three masses, |omega|
# <= 12, l <= 8.  The bound is scipy's rare tail at x <= 0.75, rounded up:
# C^b 1.5e-12 and C^a 1.1e-12 next to a terminating frequency (90,000
# random draws per kind), S^a 2.1e-12 in an earlier sample; S^b, which the
# summed series checks, 2.9e-13.  The old direct series' worst was 6.0e-13
HYP2F1_TOL = 3e-12
_WORKLOAD_PARAMS = [make_params(3, 1.0, msq) for msq in (0.0, -2.0, 1.0)]


@pytest.mark.parametrize("kind", list(RadialKind))
def test_hyp2f1_vs_mpmath_over_the_workload_range(kind):
    # non-terminating series at x <= ARG_CUTOFF, 150 draws per kind
    rng = np.random.default_rng(38)
    worst = 0.0
    for _ in range(150):
        p = _WORKLOAD_PARAMS[rng.integers(3)]
        omega, l, x = rng.uniform(-12.0, 12.0), int(rng.integers(9)), rng.uniform(0.0, 0.75)
        worst = max(worst, _hyp2f1_local_err(*hyper_params(kind, omega, l, p), x))
    assert worst <= HYP2F1_TOL


def test_hyp2f1_where_scipy_recurs_vs_mpmath():
    # S^b at 25 <= |omega| <= 40, 6 <= l <= 15 and x <= 1/4, where scipy's
    # recurrence in a is up to 2.2e-2 off (3,000 draws) and the summed
    # series checks it: worst 5.1e-9 there, 4.5e-14 at x <= 0.05
    rng = np.random.default_rng(38)
    worst, worst_small = 0.0, 0.0
    for _ in range(100):
        p = _WORKLOAD_PARAMS[rng.integers(3)]
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(25.0, 40.0)
        l, x = int(rng.integers(6, 16)), rng.uniform(0.0, 0.25)
        err = _hyp2f1_local_err(*hyper_params(RadialKind.Sb, omega, l, p), x)
        worst = max(worst, err)
        if x <= 0.05:
            worst_small = max(worst_small, err)
    assert worst <= 1e-8 and worst_small <= 1e-13


def test_radial_sb_next_to_the_axis_at_large_omega():
    # S^b at m^2 = 0, (omega, l, rho) = (37.5, 11, 0.1): scipy's 2F1 alone
    # is 1.7e-3 off there
    p = _WORKLOAD_PARAMS[0]
    a, b, c = hyper_params(RadialKind.Sb, 37.5, 11, p)
    with mp.workdps(40):
        s, co = mp.sin(mp.mpf(0.1)), mp.cos(mp.mpf(0.1))
        want = -s ** (2 - 11 - 3) * co ** 3 * mp.hyp2f1(a, b, c, s ** 2)
    assert radial_eval(RadialKind.Sb, 37.5, 11, 0.1, p) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("kind", list(RadialKind))
def test_hyp2f1_vs_mpmath_at_terminating_frequencies(kind):
    # every frequency |omega| <= 12 at which a or b is a nonpositive integer,
    # l <= 8, at x up to 0.9998, where the modes take the series directly:
    # S^b and C^b (c < 0) go through 1 - x past x = 1/2.  Worst found:
    # 2.4e-13; scipy's own hyp2f1 is 0.36 off at (m^2, l, omega, x) =
    # (-2, 1, -12, 0.9998)
    worst = 0.0
    for p in _WORKLOAD_PARAMS:
        for l in range(9):
            al, be, _ = hyper_params(kind, 0.0, l, p)
            for j in range(13):
                for omega in (2.0 * (al + j), -2.0 * (be + j)):
                    a, b, c = hyper_params(kind, omega, l, p)
                    if abs(omega) > 12.0 or not any(v <= 0 and v == int(v) for v in (a, b)):
                        continue
                    for x in (0.05, 0.5, 0.75, 0.97, 0.9998):
                        worst = max(worst, _hyp2f1_local_err(a, b, c, x))
    assert worst <= 1e-12


@ORACLE
@given(n=st.integers(0, 20), l=st.integers(0, 20), d=st.sampled_from([3, 5]),
       nu=st.floats(0.01, 6.0), minus=st.booleans(), x=unit)
def test_jacobi_p_vs_mpmath(n, l, d, nu, minus, x):
    # the modes' P_n^(l+d/2-1, +-nu); the minus branch needs nu in (0, 1)
    alpha = l + d / 2.0 - 1.0
    beta = -(nu % 1.0) if minus else nu
    with mp.workdps(40):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        # zeroprec: at an exact zero (alpha = beta, odd n, x = 0) mpmath's
        # series cannot meet a relative precision and raises; take it as 0
        want = mp.jacobi(n, a, b, x, zeroprec=4 * mp.prec)
        # max(alpha, beta) >= -1/2, so the sup over [-1, 1] sits at an
        # endpoint (Szego, Theorem 7.32.1)
        scale = max(abs(mp.jacobi(n, a, b, 1)), abs(mp.jacobi(n, a, b, -1)))
        err = abs(jacobi_p(alpha, beta, n, x) - want) / scale
    assert err < TOL


def _legendre_cs_free(l, m, x):
    """P_l^m(x) = (1-x^2)^{m/2} d^m/dx^m P_l(x) for m >= 0, from the explicit
    power sum of P_l, and (l-m)!/(l+m)! P_l^{-m} for m < 0 (no phase)."""
    k_m = abs(m)
    x = mp.mpf(x)
    total = mp.mpf(0)
    for k in range((l - k_m) // 2 + 1):
        p = l - 2 * k
        coef = ((-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
                * math.factorial(p) // math.factorial(p - k_m))
        total += coef * x ** (p - k_m)
    val = (1 - x * x) ** (mp.mpf(k_m) / 2) * total / mp.mpf(2) ** l
    if m < 0:
        val *= mp.mpf(math.factorial(l - k_m)) / math.factorial(l + k_m)
    return val


@lru_cache(maxsize=None)
def _legendre_sup(l, m):
    with mp.workdps(60):
        return max(abs(_legendre_cs_free(l, m, mp.cos(mp.pi * (i + 0.5) / 96)))
                   for i in range(96))


@ORACLE
@given(l=st.integers(0, 30), data=st.data(), x=unit)
def test_assoc_legendre_vs_mpmath(l, data, x):
    m = data.draw(st.integers(-l, l))
    with mp.workdps(60):
        want = _legendre_cs_free(l, m, x)
        err = abs(assoc_legendre(m, l, x) - want) / _legendre_sup(l, m)
    assert err < TOL


def _sph(l, z):
    """(j_l, n_l, j_l', n_l') at z (real or complex) from the half-integer
    order Bessel functions."""
    nu = l + mp.mpf(1) / 2
    pref = mp.sqrt(mp.pi / (2 * z))
    out = []
    for bessel in (mp.besselj, mp.bessely):
        f, df = bessel(nu, z), bessel(nu, z, derivative=1)
        out.append((pref * f, pref * (df - f / (2 * z))))
    (j, dj), (n, dn) = out
    return j, n, dj, dn


@ORACLE
@given(l=st.integers(0, 20), x=st.floats(1e-3, 50.0))
def test_spherical_bessel_vs_mpmath(l, x):
    with mp.workdps(40):
        j, n, dj, dn = _sph(l, mp.mpf(x))
        scale, dscale = mp.sqrt(j * j + n * n), mp.sqrt(dj * dj + dn * dn)
        errs = [abs(spherical_bessel("J", l, x) - j) / scale,
                abs(spherical_bessel("N", l, x) - n) / scale,
                abs(spherical_bessel_dx("J", l, x) - dj) / dscale,
                abs(spherical_bessel_dx("N", l, x) - dn) / dscale]
    assert max(errs) < TOL


@ORACLE
@given(l=st.integers(0, 20), x=st.floats(1e-3, 50.0), r=st.floats(0.2, 5.0),
       m_field=st.floats(0.0, 2.0), evanescent=st.booleans())
def test_check_functions_vs_mpmath(l, x, r, m_field, evanescent):
    p = x / r
    if evanescent:  # E^2 = m^2 - p^2 > 0
        m_field += p
        E = math.sqrt(m_field * m_field - p * p)
    else:
        E = math.sqrt(p * p + m_field * m_field)
    p = math.sqrt(abs(E * E - m_field * m_field))  # the momentum jcheck forms
    got = (jcheck(E, l, r, m_field), ncheck(E, l, r, m_field),
           jcheck_dr(E, l, r, m_field), ncheck_dr(E, l, r, m_field))
    with mp.workdps(40):
        xr = mp.mpf(p) * mp.mpf(r)
        if evanescent:
            # i^{-l} j_l(i x) and i^{l+1} n_l(i x), whose x-derivatives carry
            # one more factor i; the pair spans i_l and (2/pi) k_l, so
            # i_l + (2/pi) |k_l| is a scale without zeros
            j, n, dj, dn = _sph(l, mp.mpc(0, xr))
            want = [mp.re(mp.mpc(0, 1) ** -l * j), mp.re(mp.mpc(0, 1) ** (l + 1) * n),
                    mp.re(mp.mpc(0, 1) ** (1 - l) * dj), mp.re(mp.mpc(0, 1) ** (l + 2) * dn)]
            sign = (-1) ** (l + 1)
            scale = abs(want[0]) + abs(sign * want[0] - want[1])
            dscale = abs(want[2]) + abs(sign * want[2] - want[3])
        else:
            want = list(_sph(l, xr))
            scale = mp.sqrt(want[0] ** 2 + want[1] ** 2)
            dscale = mp.sqrt(want[2] ** 2 + want[3] ** 2)
        want[2:] = [p * v for v in want[2:]]
        scales = (scale, scale, p * dscale, p * dscale)
        errs = [abs(g - w) / s for g, w, s in zip(got, want, scales)]
    assert max(errs) < TOL


def _wigner_factorial_sum(l, angles):
    """D^l(alpha, beta, gamma) from the factorial sum for d^l_{m'm}(beta),
    summed at 50 digits; the sum cancels, but not past 50 digits at l <= 40."""
    f = [math.factorial(k) for k in range(2 * l + 1)]
    with mp.workdps(50):
        half = mp.mpf(angles.beta) / 2
        cos_pow = [mp.cos(half) ** p for p in range(2 * l + 1)]
        sin_pow = [mp.sin(half) ** p for p in range(2 * l + 1)]
        small = [[mp.sqrt(f[l + mp_] * f[l - mp_] * f[l + m] * f[l - m])
                  * mp.fsum((-1) ** (k + mp_ - m) * cos_pow[2 * l + m - mp_ - 2 * k]
                            * sin_pow[mp_ - m + 2 * k]
                            / (f[l + m - k] * f[k] * f[l - mp_ - k] * f[mp_ - m + k])
                            for k in range(max(0, m - mp_), min(l + m, l - mp_) + 1))
                  for m in range(-l, l + 1)] for mp_ in range(-l, l + 1)]
        small = np.array(small, dtype=float)
    m = np.arange(-l, l + 1)
    return (np.exp(-1j * m * angles.alpha)[:, None] * small
            * np.exp(-1j * m * angles.gamma))


@pytest.mark.parametrize("l", [5, 20, 30, 40])
def test_wigner_d_vs_mpmath(l):
    # the factorial sum in double precision is 1.6e-7 off at l = 30
    angles = EulerAngles(0.3, 1.1, -0.6)
    want = _wigner_factorial_sum(l, angles)
    assert np.max(np.abs(wigner_d(l, angles) - want)) <= 1e-13


def _twisted_by_definition(kind, omega, l, rho, p):
    """d^{(nu)} = cos^{-D+} prod_{j=0}^{floor(nu)} (x d_x - D- - 2j) applied to
    the C-mode x^{D+-} (1 - x^2)^{l/2} 2F1(a, b; c; x^2) by nested mp.diff in
    x = cos rho, at 45 digits."""
    with mp.workdps(45):
        a, b, c = (mp.mpf(v) for v in hyper_params(kind, omega, l, p))
        dp, dm = mp.mpf(p.delta_plus), mp.mpf(p.delta_minus)
        ex = dp if kind is RadialKind.Ca else dm

        def mode(x):
            return x ** ex * (1 - x * x) ** (mp.mpf(l) / 2) * mp.hyp2f1(a, b, c, x * x)

        def factor(g, shift):
            return lambda x: x * mp.diff(g, x) - shift * g(x)

        g = mode
        for j in range(math.floor(p.nu) + 1):
            g = factor(g, dm + 2 * j)
        x = mp.cos(mp.mpf(rho))
        return float(x ** -dp * g(x))


def _twisted_sum(kind, omega, l, rho, p):
    """The closed-form Leibniz sum of `twisted_derivative` at 50 digits:
    (the sum, the sum of its terms' magnitudes)."""
    with mp.workdps(50):
        a, b, c = (mp.mpf(v) for v in hyper_params(kind, omega, l, p))
        k, half = math.floor(p.nu) + 1, mp.mpf(l) / 2
        y = mp.cos(mp.mpf(rho)) ** 2
        terms = []
        for i in range(k + 1):
            lead = 2 ** k * mp.binomial(k, i) * mp.rf(-half, i) * (1 - y) ** (half - i)
            if kind is RadialKind.Ca:
                terms.append(lead * mp.rf(c - k + i, k - i) * y ** i
                             * mp.hyp2f1(a, b, c - k + i, y))
            else:
                n = k - i
                terms.append(lead * mp.rf(a, n) * mp.rf(b, n) / mp.rf(c, n)
                             * mp.hyp2f1(a + n, b + n, c + n, y) * y ** (k - mp.mpf(p.nu)))
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


def _rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


# k = floor(nu) + 1 = 1, 2, 3: nu = 1/2, 3/2, sqrt(21)/2
_TWISTED_K_MSQ = (-2.0, 0.0, 3.0)


@pytest.mark.parametrize("kind", [RadialKind.Ca, RadialKind.Cb])
@pytest.mark.parametrize("msq", _TWISTED_K_MSQ, ids=["k1", "k2", "k3"])
def test_twisted_derivative_vs_definition(msq, kind):
    p = make_params(3, 1.0, msq)
    for omega, l in ((2.3, 2), (-4.1, 3)):  # even and odd l
        for rho in (0.55, 0.9, 1.3):
            want = _twisted_by_definition(kind, omega, l, rho, p)
            assert _rel_err(twisted_derivative(kind, omega, l, rho, p), want) <= TOL


@pytest.mark.parametrize("msq", _TWISTED_K_MSQ, ids=["k1", "k2", "k3"])
def test_twisted_derivative_at_a_magic_frequency_vs_definition(msq):
    # omega = omega+_{2,3}: every series of the C^a sum terminates, so the
    # sum holds below rho = pi/6, where y = cos^2 rho exceeds ARG_CUTOFF
    p = make_params(3, 1.0, msq)
    omega = magic_frequency("plus", 2, 3, p)
    want = _twisted_by_definition(RadialKind.Ca, omega, 3, 0.3, p)
    assert _rel_err(twisted_derivative(RadialKind.Ca, omega, 3, 0.3, p), want) <= TOL


@ORACLE
@given(nu=st.floats(0.02, 3.5).filter(lambda v: abs(v - round(v)) >= 0.02),
       omega=st.floats(-12.0, 12.0), l=st.integers(0, 8),
       rho=st.floats(math.pi / 6, math.pi / 2, exclude_min=True),
       kind=st.sampled_from([RadialKind.Ca, RadialKind.Cb]))
def test_twisted_derivative_vs_mpmath_sum(nu, omega, l, rho, kind):
    # the terms can cancel (at some draws |T| is 1e-4 of the sum of their
    # magnitudes), so the error is measured against that sum
    p = make_params(3, 1.0, nu * nu - 2.25)
    want, scale = _twisted_sum(kind, omega, l, rho, p)
    got = twisted_derivative(kind, omega, l, rho, p)
    assert abs(got - want) <= TOL * max(1.0, scale)


def test_twisted_derivative_at_large_nu_vs_mpmath_sum():
    # nu = 20.5, k = 21: C^a, and C^b at even l, keep 1e-13.  C^b at odd l
    # cancels ((-l/2)_i never vanishes; at (2.3, 1) the sum of |terms| is 1e6
    # times the value at the boundary): it keeps 1e-9 (2.5e-10 at rho = 0.6)
    p = make_params(3, 1.0, 20.5 ** 2 - 2.25)
    for rho in (0.6, 1.0, math.pi / 2):
        for l in range(4):
            for kind in (RadialKind.Ca, RadialKind.Cb):
                bound = 1e-13 if kind is RadialKind.Ca or l % 2 == 0 else 1e-9
                want = _twisted_sum(kind, 2.3, l, rho, p)[0]
                assert _rel_err(twisted_derivative(kind, 2.3, l, rho, p), want) <= bound


def test_twisted_derivative_is_warning_free_at_the_boundary():
    # nu = 20.5: the C^b Leibniz sum at rho = pi/2, where y = cos^2 rho is
    # about 4e-33, holds no term that warns; odd l keeps C^b's 1e-9 there
    p = make_params(3, 1.0, 20.5 ** 2 - 2.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = twisted_derivative(RadialKind.Cb, 2.3, 1, math.pi / 2, p)
    want = _twisted_sum(RadialKind.Cb, 2.3, 1, math.pi / 2, p)[0]
    assert math.isfinite(got) and _rel_err(got, want) <= 1e-9


def test_eval_at_large_omega_and_l_vs_mpmath(capsys):
    # S^a at (omega, l) = (80.1, 30), rho = 0.9, on the equator: its 2F1 is
    # 1e-13 of its largest terms.  The value is 1% off mpmath; the direct
    # series printed 3.95e-15, 390 times the true 1.0e-17
    from adskg.cli import main
    assert main(["eval", "--kind", "sa", "--omega", "80.1", "--l", "30", "--m", "0",
                 "--rho", "0.9:0.9:1"]) == 0
    got = float(capsys.readouterr().out.splitlines()[-1].split(",")[4])
    a, b, c = hyper_params(RadialKind.Sa, 80.1, 30, make_params(3, 1.0, 0.0))
    with mp.workdps(40):
        s = mp.sin(mp.mpf(0.9))
        radial = s ** 30 * mp.cos(mp.mpf(0.9)) ** 3 * mp.hyp2f1(a, b, c, s * s)
    want = float(radial) * sph_harm(30, 0, math.pi / 2, 0.0).real
    assert abs(got - want) <= 0.02 * abs(want)

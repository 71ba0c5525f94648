"""High-precision oracles (mpmath at 40 or more digits) for the special
functions behind the modes, the harmonics and the flat limit, over the
parameter ranges the library uses.  Each error is measured against a scale
without zeros, so the tolerance stays 1e-12 near the functions' roots."""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.minkowski import jcheck, jcheck_dr, ncheck, ncheck_dr
from adskg.specfun import (assoc_legendre, jacobi_p, spherical_bessel,
                           spherical_bessel_dx)

mp = pytest.importorskip("mpmath").mp

TOL = 1e-12
ORACLE = settings(max_examples=150, deadline=None)
unit = st.floats(-1.0, 1.0)


@ORACLE
@given(n=st.integers(0, 20), l=st.integers(0, 20), d=st.sampled_from([3, 5]),
       nu=st.floats(0.01, 6.0), minus=st.booleans(), x=unit)
def test_jacobi_p_vs_mpmath(n, l, d, nu, minus, x):
    # the modes' P_n^(l+d/2-1, +-nu); the minus branch needs nu in (0, 1)
    alpha = l + d / 2.0 - 1.0
    beta = -(nu % 1.0) if minus else nu
    with mp.workdps(40):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        want = mp.jacobi(n, a, b, x)
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

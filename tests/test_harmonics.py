import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.errors import DomainError
from adskg.harmonics import (AngularGrid, EulerAngles, contiguous_coeffs,
                             rotate_angles, sph_harm, sph_harm_sin2_dcos,
                             wigner_d)


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
    vals = ang.ylm(1, 0)
    assert ang.integrate(np.abs(vals) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_orthonormality():
    ang = AngularGrid(32, 64)
    labels = [(l, m) for l in range(6) for m in range(-l, l + 1)]
    for (l1, m1) in labels:
        for (l2, m2) in labels:
            val = ang.integrate(np.conj(ang.ylm(l1, m1)) * ang.ylm(l2, m2))
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert val == pytest.approx(expected, abs=1e-10)


def test_project_over_stack_equals_per_slice(rng):
    ang = AngularGrid(16, 32)
    stack = (rng.normal(size=(5, 3, 16, 32))
             + 1j * rng.normal(size=(5, 3, 16, 32)))
    for l, m in ((0, 0), (3, -2), (7, 7)):
        got = ang.project(l, m, stack)
        assert got.shape == (5, 3)
        for i in range(5):
            for j in range(3):
                assert got[i, j] == ang.project(l, m, stack[i, j])
    totals = ang.integrate(stack)
    assert all(totals[i, j] == ang.integrate(stack[i, j])
               for i in range(5) for j in range(3))


def test_index_error():
    with pytest.raises(IndexError):
        sph_harm(2, 3, 0.5, 0.5)


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
    # (1 - cos^2) d/dcos Y_l^m = delta_- Y_{l-1}^m + delta_+ Y_{l+1}^m
    th, ph = _angle_grid()
    for l in range(7):
        for m in range(-l, l + 1):
            _, _, dm, dp = contiguous_coeffs(3, l, m)
            lhs = sph_harm_sin2_dcos(l, m, th, ph)
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


def test_rotation_rule_on_grid():
    # Y_l^m(R^{-1} Omega) equals the D-matrix mixing of unrotated harmonics
    from adskg.isometry import rotation_mixing
    l = 3
    angles = EulerAngles(0.7, 0.5, -0.4)
    inv = EulerAngles(-angles.gamma, -angles.beta, -angles.alpha)
    th, ph = _angle_grid()
    thr, phr = rotate_angles(inv, th, ph)
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

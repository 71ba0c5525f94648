"""Killing operators as composed stencils, checked against the closure-based
nesting they replace (kept here as the reference, calling the field one
point at a time), plus the array field contract (one call per operator
application) and the Minkowski r -> 0 guard."""

import math

import numpy as np
import pytest

from adskg.errors import BoundaryProximity
from adskg.geometry import (FD_STEP, Boost0, BoostD1, Rotation,
                            TimeTranslation, bracket_rhs, killing_apply,
                            verify_lie_bracket)
from adskg.minkowski import mink_killing_apply

# --- reference: nested closures over 4-point differences ---------------------

_FD_W = (1.0, -8.0, 8.0, -1.0)
_FD_O = (-2.0, -1.0, 1.0, 2.0)


def _diff(fn, x0, h):
    return sum(w * fn(x0 + o * h) for w, o in zip(_FD_W, _FD_O)) / (12.0 * h)


def _sphere_grad(field, t, rho, xi, h):
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(3, dtype=complex)
    for j in range(3):
        def fj(s):
            v = xi.copy()
            v[j] = s
            return field(t, rho, v / np.linalg.norm(v))
        out[j] = _diff(fj, xi[j], h)
    return out


def ref_killing_apply(generator, fld, point, h=FD_STEP):
    t, rho, xi = point
    xi = np.asarray(xi, dtype=float)
    if isinstance(generator, TimeTranslation):
        return _diff(lambda s: fld(s, rho, xi), t, h)
    if isinstance(generator, Rotation):
        j, k = generator.j - 1, generator.k - 1
        grad = _sphere_grad(fld, t, rho, xi, h)
        return xi[j] * grad[k] - xi[k] * grad[j]
    if rho - 2 * h <= 0.0 or rho + 2 * h >= math.pi / 2:
        raise BoundaryProximity("rho stencil leaves (0, pi/2)")
    j = generator.j - 1
    dt = _diff(lambda s: fld(s, rho, xi), t, h)
    dr = _diff(lambda s: fld(t, s, xi), rho, h)
    grad = _sphere_grad(fld, t, rho, xi, h)
    sr, cr = math.sin(rho), math.cos(rho)
    st, ct = math.sin(t), math.cos(t)
    if isinstance(generator, Boost0):
        return (-xi[j] * ct * sr * dt - xi[j] * st * cr * dr
                - (st / sr) * grad[j])
    return (-xi[j] * st * sr * dt + xi[j] * ct * cr * dr
            + (ct / sr) * grad[j])


def ref_mink_killing_apply(name, fld, point, j=3, h=1e-3):
    tau, r, xi = point
    xi = np.asarray(xi, dtype=float)
    if name == "T0":
        return _diff(lambda s: fld(s, r, xi), tau, h)
    grad = _sphere_grad(fld, tau, r, xi, h)
    dr = _diff(lambda s: fld(tau, s, xi), r, h)
    jj = j - 1
    if name == "Tj":
        return xi[jj] * dr + grad[jj] / r
    dt = _diff(lambda s: fld(s, r, xi), tau, h)
    return -r * xi[jj] * dt - tau * xi[jj] * dr - tau / r * grad[jj]


def ref_verify_lie_bracket(gen_a, gen_b, test_field, sample_points, d=3,
                           h=5e-3):
    if gen_a == gen_b:
        return 0.0

    def k_of(gen):
        return lambda t, rho, xi: ref_killing_apply(gen, test_field,
                                                    (t, rho, xi), h)

    worst = 0.0
    for point in sample_points:
        comm = (ref_killing_apply(gen_a, k_of(gen_b), point, h)
                - ref_killing_apply(gen_b, k_of(gen_a), point, h))
        rhs = sum(c * ref_killing_apply(gen, test_field, point, h)
                  for c, gen in bracket_rhs(gen_a, gen_b, d))
        worst = max(worst, abs(comm - rhs))
    return worst


# --- fields and points -----------------------------------------------------------

def _field(t, rho, xi):
    x, y, z = xi
    g = np.exp(-((t - 0.2) ** 2) / 0.5 - ((rho - 0.75) ** 2) / 0.4)
    return g * (1.0 + 0.8 * x + 0.5 * y * z + 0.3j * z + 0.2 * x * y)


def _mink_field(tau, r, xi):
    x, y, z = xi
    return (np.exp(-0.15 * (tau - 0.3) ** 2 - 0.1 * (r - 1.5) ** 2)
            * (1.0 + 0.5 * z + 0.25 * x * y + 0.4j * x))


def _points(rng, n, t_range, r_range):
    pts = []
    for _ in range(n):
        xi = rng.normal(size=3)
        pts.append((rng.uniform(*t_range), rng.uniform(*r_range),
                    xi / np.linalg.norm(xi)))
    return pts


class _Counted:
    """Records the number of field points of each call."""

    def __init__(self, fn):
        self.fn, self.sizes = fn, []

    def __call__(self, t, rho, xi):
        self.sizes.append(len(t))
        return self.fn(t, rho, xi)


ADS_GENERATORS = ([TimeTranslation()]
                  + [Rotation(j, k) for j, k in ((1, 2), (1, 3), (2, 3))]
                  + [Boost0(j) for j in (1, 2, 3)]
                  + [BoostD1(j) for j in (1, 2, 3)])
MINK_GENERATORS = [("T0", 3)] + [(name, j) for name in ("Tj", "K0j")
                                 for j in (1, 2, 3)]
FAMILIES = [
    (TimeTranslation(), Rotation(1, 2)), (Boost0(1), Boost0(2)),
    (Boost0(1), Rotation(1, 3)), (BoostD1(2), BoostD1(3)),
    (TimeTranslation(), Boost0(2)), (BoostD1(3), Rotation(2, 3)),
    (BoostD1(1), TimeTranslation()), (Boost0(3), BoostD1(3)),
    (Rotation(1, 2), Rotation(2, 3)),
]


# --- agreement with the reference ---------------------------------------------------

@pytest.mark.parametrize("gen", ADS_GENERATORS, ids=repr)
def test_killing_apply_matches_closure_reference(gen, rng):
    for pt in _points(rng, 12, (-1.0, 1.0), (0.3, 1.2)):
        got = killing_apply(gen, _field, pt)
        want = ref_killing_apply(gen, _field, pt)
        assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("name,j", MINK_GENERATORS)
def test_mink_killing_apply_matches_closure_reference(name, j, rng):
    for pt in _points(rng, 12, (-2.0, 2.0), (0.5, 3.0)):
        got = mink_killing_apply(name, _mink_field, pt, j=j)
        want = ref_mink_killing_apply(name, _mink_field, pt, j=j)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_verify_lie_bracket_matches_nested_reference(rng):
    # Both sides sum weighted field values that cancel down to the O(h^4)
    # truncation (~1e-8): the weights of a nested product reach about
    # (18 / 12h)^2 ~ 1e5, so each side carries rounding of order
    # eps * sum|w phi| ~ 1e-11 at h = 5e-3, in a different order.
    pts = _points(rng, 20, (-0.4, 0.6), (0.45, 1.05))
    for ga, gb in FAMILIES:
        for pt in pts:
            got = verify_lie_bracket(ga, gb, _field, [pt])
            want = ref_verify_lie_bracket(ga, gb, _field, [pt])
            assert abs(got - want) <= 1e-10
            assert want < 1e-7


# --- field calls ------------------------------------------------------------------------

@pytest.mark.parametrize("gen,points", [(TimeTranslation(), 4),
                                        (Rotation(1, 3), 8), (Boost0(2), 12),
                                        (BoostD1(3), 12)], ids=repr)
def test_killing_apply_field_calls(gen, points, rng):
    fld = _Counted(_field)
    killing_apply(gen, fld, _points(rng, 1, (0.0, 0.5), (0.5, 1.0))[0])
    assert fld.sizes == [points]


@pytest.mark.parametrize("name,points", [("T0", 4), ("Tj", 8), ("K0j", 12)])
def test_mink_killing_apply_field_calls(name, points, rng):
    fld = _Counted(_mink_field)
    mink_killing_apply(name, fld, _points(rng, 1, (0.0, 0.5), (0.5, 1.0))[0])
    assert fld.sizes == [points]


def test_bracket_field_calls_per_point(rng):
    # [B0_1, B0_2] = R_12: 12 x 12 for each nested product, plus 8, all in
    # one call
    fld = _Counted(_field)
    verify_lie_bracket(Boost0(1), Boost0(2), fld,
                       _points(rng, 3, (-0.4, 0.6), (0.45, 1.05)))
    assert fld.sizes == [3 * 296]


def test_field_gets_arrays_and_unit_columns(rng):
    seen = []

    def fld(t, rho, xi):
        seen.append((t, rho, xi))
        return _field(t, rho, xi)

    verify_lie_bracket(Boost0(3), Rotation(1, 2), fld,
                       _points(rng, 2, (-0.4, 0.6), (0.45, 1.05)))
    (t, rho, xi), = seen
    n = len(t)
    for a, shape in ((t, (n,)), (rho, (n,)), (xi, (3, n))):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64
        assert a.shape == shape and not a.flags.writeable
    assert np.max(np.abs(np.linalg.norm(xi, axis=0) - 1.0)) < 1e-15


def test_field_may_not_write_its_arguments(rng):
    def fld(t, rho, xi):
        xi[2] = 0.0
        return _field(t, rho, xi)

    with pytest.raises(ValueError, match="read-only"):
        killing_apply(Rotation(1, 2), fld, _points(rng, 1, (0.0, 0.5),
                                                   (0.5, 1.0))[0])


@pytest.mark.parametrize("shape", [(3,), (12, 1), (1, 12), (3, 12)])
def test_field_result_must_broadcast_to_one_value_per_point(shape, rng):
    def fld(t, rho, xi):
        return np.ones(shape)

    pt = _points(rng, 1, (0.0, 0.5), (0.5, 1.0))[0]
    with pytest.raises(ValueError, match=r"expected \(12,\)"):
        killing_apply(Boost0(1), fld, pt)
    # a constant broadcasts: any derivative of it is zero
    assert killing_apply(Boost0(1), lambda t, rho, xi: 2.5 + 1j, pt) == 0.0


# --- Minkowski translations and boosts near r = 0 -------------------------------------

@pytest.mark.parametrize("name", ["Tj", "K0j"])
@pytest.mark.parametrize("r", [1e-3, 2e-3])
def test_mink_killing_boundary_proximity(name, r):
    xi = np.array([0.6, 0.64, 0.48])
    with pytest.raises(BoundaryProximity):
        mink_killing_apply(name, _mink_field, (0.3, r, xi), h=1e-3)


def test_mink_time_translation_near_origin():
    xi = np.array([0.6, 0.64, 0.48])
    val = mink_killing_apply("T0", _mink_field, (0.9, 1e-3, xi))
    want = ref_mink_killing_apply("T0", _mink_field, (0.9, 1e-3, xi))
    assert abs(val - want) <= 1e-9 * abs(want)

"""The exactness rules that size every quadrature: ceil((l_max + 2 n_max +
1) / 2) Gauss-Jacobi radial nodes and an (l_max + 1) x (2 l_max + 1)
angular grid.  A size left out means the rule for the reps given; an
explicit size below it makes a pairing or an inversion raise ValueError,
and the rule is tight: one node fewer in any direction breaks a pairing."""

import math

import numpy as np
import pytest

from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, _angular_rule,
                              _slice_nodes, boundary_data_of, boundary_reconstruct,
                              invert_rod_interior, invert_slice, invert_tube,
                              rod_boundary_data_of, rod_boundary_reconstruct, s_to_c,
                              sample_rod, sample_slice, sample_tube)
from adskg.geometry import make_params, radial_measure
from adskg.harmonics import AngularGrid
from adskg.minkowski import MinkTubeRep, mink_omega_tube_quadrature
from adskg.symplectic import (_antisymmetrized, omega_slice_momentum,
                              omega_slice_quadrature, omega_tube_momentum,
                              omega_tube_quadrature, symplectic_potential)

PARAMS = make_params(3, 1.0, 0.0)
T0, RHO0 = 0.3, 0.8
BIG = AngularGrid(16, 32)   # the explicit grid of the benchmark's pairings
GRID = OmegaGrid(0.45, tuple(range(-3, 4)))


def _cplx(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _labels(js, l_max):
    return [(j, l, m) for j in js for l in range(l_max + 1) for m in range(-l, l + 1)]


def _full_slice(rng, n_max, l_max):
    labels = _labels(range(n_max + 1), l_max)
    return SliceRep(dict(zip(labels, map(tuple, _cplx(rng, (len(labels), 2))))))


def _full_tube(rng, l_max, basis="S"):
    labels = _labels(GRID.indices, l_max)
    return TubeRep(GRID, dict(zip(labels, map(tuple, _cplx(rng, (len(labels), 2))))), basis)


def _slice_pairing_on(eta, zeta, n_rho, ang):
    """omega_slice_quadrature's sum on any grid, the rule not checked."""
    de = sample_slice(eta, T0, PARAMS, n_rho, ang)
    dz = sample_slice(zeta, T0, PARAMS, n_rho, ang)
    return complex(-0.5 * np.dot(de.rho_weights, ang.integrate(
        _antisymmetrized(de.phi, de.dphi_dt, dz.phi, dz.dphi_dt))))


def _tube_pairing_on(eta, zeta, ang):
    """omega_tube_quadrature's sum on any angular grid, the rule not checked."""
    de, dz = sample_tube(eta, RHO0, PARAMS, ang), sample_tube(zeta, RHO0, PARAMS, ang)
    total = np.sum(ang.integrate(_antisymmetrized(de.phi, de.dphi_drho, dz.phi, dz.dphi_drho)))
    return complex(0.5 * math.tan(RHO0) * GRID.window / len(de.t_nodes) * total)


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


# --- the rules and the defaults ---------------------------------------------------------

def test_rule_sizes():
    assert [_slice_nodes(n, l) for n, l in ((0, 0), (3, 3), (4, 4), (10, 10), (60, 4))] \
        == [1, 5, 7, 16, 63]
    assert [(g.n_theta, g.n_phi) for g in map(_angular_rule, (0, 2, 3, 5))] \
        == [(1, 1), (3, 5), (4, 7), (6, 11)]
    assert _slice_nodes(3, 3, 5) == 5 and _slice_nodes(3, 3, 96) == 96
    assert _angular_rule(3, BIG) is BIG


def test_grids_have_no_default_size():
    with pytest.raises(TypeError):
        AngularGrid()
    with pytest.raises(TypeError):
        radial_measure(PARAMS)


def test_samples_default_to_their_own_rep(rng):
    data = sample_slice(_full_slice(rng, 2, 3), T0, PARAMS)
    assert (len(data.rho_nodes), data.angular.n_theta, data.angular.n_phi) == (4, 4, 7)
    rep = _full_tube(rng, 2)
    for data in (sample_tube(rep, RHO0, PARAMS), boundary_data_of(s_to_c(rep, PARAMS), PARAMS)):
        assert (data.angular.n_theta, data.angular.n_phi) == (3, 5)
    rod = RodRep(GRID, {(1, 4, -2): 0.5j})
    for data in (sample_rod(rod, RHO0, PARAMS), rod_boundary_data_of(rod, PARAMS)):
        assert (data.angular.n_theta, data.angular.n_phi) == (5, 9)


def test_round_trips_on_the_default_grids(rng):
    rep = _full_slice(rng, 3, 4)
    rec = invert_slice(sample_slice(rep, T0, PARAMS), PARAMS, 3, 4)
    assert np.max(np.abs(rec.coeffs.array - rep.coeffs.array)) < 1e-10
    for basis in ("S", "C"):
        rep = _full_tube(rng, 3, basis)
        rec = invert_tube(sample_tube(rep, RHO0, PARAMS), PARAMS, 3, basis)
        assert np.max(np.abs(rec.coeffs.array - rep.coeffs.array)) < 1e-8
    crep = s_to_c(_full_tube(rng, 3), PARAMS)
    rec = boundary_reconstruct(boundary_data_of(crep, PARAMS), PARAMS, 3)
    assert np.max(np.abs(rec.coeffs.array - crep.coeffs.array)) < 1e-8


# --- sufficient: the default pairing is the oversampled one ------------------------------

@pytest.mark.parametrize("rung", [(1, 4), (3, 3), (10, 10)])
def test_default_slice_pairing_matches_the_oversampled_one(rng, rung):
    eta, zeta = _full_slice(rng, *rung), _full_slice(rng, *rung)
    want = omega_slice_quadrature(eta, zeta, T0, PARAMS, 96, BIG)
    assert _rel(omega_slice_quadrature(eta, zeta, T0, PARAMS), want) < 1e-13
    want = symplectic_potential("t", T0, eta, zeta, PARAMS, 96, BIG)
    assert _rel(symplectic_potential("t", T0, eta, zeta, PARAMS), want) < 1e-13


@pytest.mark.parametrize("basis", ["S", "C"])
def test_default_tube_pairing_matches_the_oversampled_one(rng, basis):
    eta, zeta = _full_tube(rng, 2, basis), _full_tube(rng, 2, basis)
    want = omega_tube_quadrature(eta, zeta, RHO0, PARAMS, BIG)
    assert _rel(omega_tube_quadrature(eta, zeta, RHO0, PARAMS), want) < 1e-13
    want = symplectic_potential("rho", RHO0, eta, zeta, PARAMS, angular=BIG)
    assert _rel(symplectic_potential("rho", RHO0, eta, zeta, PARAMS), want) < 1e-13
    # from l = 3 on, C-basis pairings round to about 1e-13 of the momentum
    # form on either grid, so the two grids are held to that form instead
    eta, zeta = _full_tube(rng, 4, basis), _full_tube(rng, 3, basis)
    mom = omega_tube_momentum(eta, zeta, PARAMS)
    for ang in (None, BIG):
        assert _rel(omega_tube_quadrature(eta, zeta, RHO0, PARAMS, ang), mom) < 1e-12


def test_default_minkowski_pairing_matches_the_oversampled_one(rng):
    # the pairing cancels to a few percent of its terms, so it keeps fewer
    # digits of its value than the AdS ones on either grid
    labels = _labels(GRID.indices, 3)
    eta, zeta = (MinkTubeRep(GRID, dict(zip(labels, map(tuple, _cplx(rng, (len(labels), 2))))),
                             0.6) for _ in "ab")
    want = mink_omega_tube_quadrature(eta, zeta, 1.3, BIG)
    assert _rel(mink_omega_tube_quadrature(eta, zeta, 1.3), want) < 1e-10


# --- tight: one node fewer breaks the pairing ---------------------------------------------

def test_the_slice_rule_is_tight(rng):
    # full (n, l) = (4, 4) reps: the rule is 7 radial nodes on a 5 x 9 grid
    eta, zeta = _full_slice(rng, 4, 4), _full_slice(rng, 4, 4)
    mom = omega_slice_momentum(eta, zeta, PARAMS)
    at_rule = omega_slice_quadrature(eta, zeta, T0, PARAMS)
    assert at_rule == _slice_pairing_on(eta, zeta, 7, AngularGrid(5, 9))
    assert _rel(at_rule, mom) < 1e-12
    for n_rho, ang in ((6, AngularGrid(5, 9)), (7, AngularGrid(4, 9)), (7, AngularGrid(5, 8))):
        assert _rel(_slice_pairing_on(eta, zeta, n_rho, ang), mom) > 1e-6, (n_rho, ang.n_theta,
                                                                             ang.n_phi)
        with pytest.raises(ValueError):
            omega_slice_quadrature(eta, zeta, T0, PARAMS, n_rho, ang)


def test_the_tube_rule_is_tight(rng):
    eta, zeta = _full_tube(rng, 4), _full_tube(rng, 4)
    mom = omega_tube_momentum(eta, zeta, PARAMS)
    assert _rel(omega_tube_quadrature(eta, zeta, RHO0, PARAMS), mom) < 1e-12
    for ang in (AngularGrid(4, 9), AngularGrid(5, 8)):
        assert _rel(_tube_pairing_on(eta, zeta, ang), mom) > 1e-6
        with pytest.raises(ValueError):
            omega_tube_quadrature(eta, zeta, RHO0, PARAMS, ang)


# --- undersized pairings raise ------------------------------------------------------------

@pytest.mark.parametrize("rung, n_rho, ang, message", [
    # the reproducers: 1.23, 0.85 and 2.43 relative error before they raised
    ((10, 10), 4, BIG, "4 radial nodes are too few for (n_max, l_max) = (10, 10), "
                       "which needs 16"),
    ((60, 4), 16, BIG, "16 radial nodes are too few for (n_max, l_max) = (60, 4), "
                       "which needs 63"),
    ((10, 10), 16, AngularGrid(8, 16), "a 8 x 16 angular grid is too small for "
                                       "l_max = 10, which needs 11 x 21"),
])
def test_undersized_slice_pairings_raise(rng, rung, n_rho, ang, message):
    eta, zeta = _full_slice(rng, *rung), _full_slice(rng, *rung)
    with pytest.raises(ValueError) as exc:
        omega_slice_quadrature(eta, zeta, T0, PARAMS, n_rho, ang)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        symplectic_potential("t", T0, eta, zeta, PARAMS, n_rho, ang)
    assert str(exc.value) == message


def test_a_pairing_sizes_to_the_larger_rep(rng):
    small, large = _full_slice(rng, 1, 1), _full_slice(rng, 3, 5)
    assert omega_slice_quadrature(small, small, T0, PARAMS, 2, AngularGrid(2, 3)) is not None
    for a, b in ((small, large), (large, small)):
        with pytest.raises(ValueError, match="which needs 6$"):
            omega_slice_quadrature(a, b, T0, PARAMS, 2, BIG)
        with pytest.raises(ValueError, match="which needs 6 x 11$"):
            omega_slice_quadrature(a, b, T0, PARAMS, 96, AngularGrid(2, 3))
        with pytest.raises(ValueError, match="which needs 6 x 11$"):
            symplectic_potential("t", T0, a, b, PARAMS, 96, AngularGrid(2, 3))


def test_undersized_tube_pairings_raise(rng):
    eta, zeta = _full_tube(rng, 10), _full_tube(rng, 2)
    message = "a 8 x 16 angular grid is too small for l_max = 10, which needs 11 x 21"
    for a, b in ((eta, zeta), (zeta, eta)):
        with pytest.raises(ValueError) as exc:
            omega_tube_quadrature(a, b, RHO0, PARAMS, AngularGrid(8, 16))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            symplectic_potential("rho", RHO0, a, b, PARAMS, angular=AngularGrid(8, 16))
        assert str(exc.value) == message
    labels = _labels(GRID.indices, 4)
    mink = MinkTubeRep(GRID, dict(zip(labels, map(tuple, _cplx(rng, (len(labels), 2))))), 0.6)
    with pytest.raises(ValueError, match="a 5 x 8 angular grid .* needs 5 x 9$"):
        mink_omega_tube_quadrature(mink, mink, 1.3, AngularGrid(5, 8))


# --- an inversion asked for more degrees than its sample covers raises --------------------

def test_inversions_past_their_grid_raise(rng):
    # each sample sized for its rep's l_max = 2 (3 x 5), inverted to l_max = 4
    message = "a 3 x 5 angular grid is too small for l_max = 4, which needs 5 x 9"
    tube = _full_tube(rng, 2)
    rod = RodRep(GRID, {(1, 2, -2): 0.5j, (-2, 1, 0): 0.3})
    crep = s_to_c(tube, PARAMS)
    for invert, data in ((lambda d, l: invert_tube(d, PARAMS, l, "S"),
                          sample_tube(tube, RHO0, PARAMS)),
                         (lambda d, l: invert_rod_interior(d, PARAMS, l),
                          sample_rod(rod, RHO0, PARAMS)),
                         (lambda d, l: boundary_reconstruct(d, PARAMS, l),
                          boundary_data_of(crep, PARAMS)),
                         (lambda d, l: rod_boundary_reconstruct(d, PARAMS, l),
                          rod_boundary_data_of(rod, PARAMS))):
        assert invert(data, 2) is not None
        with pytest.raises(ValueError) as exc:
            invert(data, 4)
        assert str(exc.value) == message
    data = sample_slice(_full_slice(rng, 1, 2), T0, PARAMS, 8)
    assert invert_slice(data, PARAMS, 1, 2) is not None
    with pytest.raises(ValueError) as exc:
        invert_slice(data, PARAMS, 1, 4)
    assert str(exc.value) == message

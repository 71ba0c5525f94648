import io
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adskg import expansions as xp
from adskg import modes
from adskg.errors import (BandLimitExceeded, CapabilityError, DomainError,
                          MagicFrequencyBlind, RadialNodeError,
                          SerializationError, SingularPoint,
                          UnsupportedDimension)
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep,
                              boundary_data_of, boundary_reconstruct, c_to_s,
                              invert_rod_interior, invert_slice, invert_tube,
                              load_rep, rod_boundary_data_of,
                              rod_boundary_reconstruct, s_to_c, sample_rod,
                              sample_slice, sample_tube, save_rep,
                              slice_to_tube, synth, synth_drho, synth_dt,
                              twisted_boundary_limit, twisted_derivative)
from adskg.geometry import Boost0, BoostD1, make_params
from adskg.harmonics import (AngularGrid, EulerAngles, lm_count, lm_degree, lm_index,
                             lm_labels, lm_mirror, sph_harm, ylm_point)
from adskg.isometry import (act_boost, act_rotation, boost_generator_apply,
                            boost_shift_coeffs)
from adskg.memo import counters
from adskg.modes import (RadialKind, SliceLabel, TubeLabel, magic_frequency,
                         jacobi_radial_fd, mode_eval, radial_eval, radial_eval_fd,
                         transfer_matrix)
from adskg.symplectic import omega_slice_momentum, omega_tube_momentum
from radial_reference import per_distinct

ANG = AngularGrid(16, 32)


def _tube_rep(basis="S"):
    grid = OmegaGrid(0.5, tuple(range(-7, 8)))
    coeffs = {
        (3, 0, 0): (0.8 + 0.1j, 0.2 - 0.3j),
        (-3, 0, 0): (0.1 + 0.4j, -0.5j),
        (5, 1, 1): (1.0, 0.7j),
        (-5, 1, -1): (0.3 - 0.2j, 0.15),
        (2, 2, -1): (0.4j, 0.25 + 0.25j),
    }
    return TubeRep(grid, coeffs, basis)


def _slice_rep():
    return SliceRep({
        (0, 0, 0): (0.9 + 0.2j, 0.4 - 0.1j),
        (1, 1, 0): (0.5 - 0.5j, 0.3j),
        (2, 1, -1): (0.7j, 0.2 + 0.6j),
        (1, 2, 2): (0.25, -0.4 + 0.1j),
    })


# --- synthesis ------------------------------------------------------------------

def test_synth_empty(params_m0):
    rep = TubeRep(OmegaGrid(0.5, (1,)), {}, "S")
    assert synth(rep, (0.1, 0.7, 1.0, 2.0), params_m0) == 0.0


def test_synth_single_mode_linearity(params_m0):
    grid = OmegaGrid(0.5, (3,))
    rep = TubeRep(grid, {(3, 1, 0): (1.0, 0.0)}, "S")
    point = (0.3, 0.8, 1.2, 0.5)
    expected = grid.d_omega * mode_eval(TubeLabel(1.5, 1, 0), point,
                                        params_m0, kind=RadialKind.Sa)
    assert synth(rep, point, params_m0) == pytest.approx(expected, rel=1e-13)


def test_synth_slice_single(params_m0):
    rep = SliceRep({(1, 1, 0): (1.0, 0.0)})
    point = (0.2, 0.6, 0.9, 1.7)
    expected = mode_eval(SliceLabel(1, 1, 0), point, params_m0)
    assert synth(rep, point, params_m0) == pytest.approx(expected, rel=1e-13)


def test_synth_point_evaluates_only_held_orders(params_m0):
    # a lone l = 90 label: N_90^{-90} of an absent order overflows a double
    rep = SliceRep({(0, 90, 0): (1.0, 0.0)})
    point = (0.2, 0.6, 0.9, 1.7)
    expected = mode_eval(SliceLabel(0, 90, 0), point, params_m0)
    assert synth(rep, point, params_m0) == pytest.approx(expected, rel=1e-13)


def test_synth_reality(params_m0, rng):
    grid = OmegaGrid(0.5, tuple(range(-6, 7)))
    coeffs = {}
    for (k, l, m) in ((2, 0, 0), (4, 1, 1), (3, 2, -2)):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        coeffs[(k, l, m)] = (a, b)
        coeffs[(-k, l, -m)] = (np.conj(a), np.conj(b))
    rep = TubeRep(grid, coeffs, "S")
    assert rep.is_real()
    for _ in range(20):
        point = (rng.uniform(0, 4), rng.uniform(0.2, 1.2),
                 rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi))
        assert abs(synth(rep, point, params_m0).imag) < 1e-10


def test_synth_linear_combination(params_m0, rng):
    rep_a = _tube_rep()
    rep_b = TubeRep(rep_a.grid, {(3, 0, 0): (0.3, 0.1j), (4, 2, 2): (1.0, 0.2)}, "S")
    al, be = 1.3 - 0.2j, 0.4 + 0.9j
    combo = TubeRep(rep_a.grid, {
        key: (al * rep_a.coeff(*key)[0] + be * rep_b.coeff(*key)[0],
              al * rep_a.coeff(*key)[1] + be * rep_b.coeff(*key)[1])
        for key in set(rep_a.coeffs) | set(rep_b.coeffs)}, "S")
    for _ in range(5):
        point = (rng.uniform(0, 2), rng.uniform(0.3, 1.1),
                 rng.uniform(0.3, 2.8), rng.uniform(0, 6.2))
        lhs = synth(combo, point, params_m0)
        rhs = al * synth(rep_a, point, params_m0) + be * synth(rep_b, point, params_m0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sample_tube_matches_mode_eval_reference(params_m0):
    ang = AngularGrid(6, 8)
    rep, rho0 = _tube_rep(), 0.8
    data = sample_tube(rep, rho0, params_m0, ang)
    th, ph = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    ref = np.zeros_like(data.phi)
    for (k, l, m), (a, b) in rep.coeffs.items():
        label = TubeLabel(rep.grid.omega(k), l, m)
        for i, t in enumerate(data.t_nodes):
            for kind, c in ((RadialKind.Sa, a), (RadialKind.Sb, b)):
                ref[i] += rep.grid.d_omega * c * mode_eval(
                    label, (t, rho0, th, ph), params_m0, kind=kind)
    assert np.max(np.abs(data.phi - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sample_slice_matches_mode_eval_reference(params_m0):
    ang = AngularGrid(6, 8)
    rep, t0 = _slice_rep(), 0.37
    data = sample_slice(rep, t0, params_m0, 12, ang)
    th, ph = np.meshgrid(ang.theta, ang.phi, indexing="ij")
    ref, ref_dt = np.zeros_like(data.phi), np.zeros_like(data.phi)
    for (n, l, m), (p, q) in rep.coeffs.items():
        om = magic_frequency("plus", n, l, params_m0)
        for i, rho in enumerate(data.rho_nodes):
            mode = mode_eval(SliceLabel(n, l, m), (t0, rho, th, ph), params_m0)
            ref[i] += p * mode + q * np.conj(mode)
            ref_dt[i] += -1j * om * p * mode + 1j * om * q * np.conj(mode)
    assert np.max(np.abs(data.phi - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(data.dphi_dt - ref_dt)) <= 1e-13 * np.max(np.abs(ref_dt))



def test_sample_slice_at_two_times_builds_one_jacobi_table(params_m0):
    # the Jacobi table depends on the rep's (n, l) blocks and the radii, not
    # on t0: the second sample is one memo hit, and the tables are unchanged
    memo = modes._jacobi_table.memo
    ang, rep = AngularGrid(6, 8), _slice_rep()
    memo.clear()
    first = [sample_slice(rep, t0, params_m0, 12, ang) for t0 in (0.37, 1.9)]
    assert (memo.hits, memo.misses) == (1, 1)
    memo.clear()
    again = sample_slice(rep, 1.9, params_m0, 12, ang)
    assert again.phi.tobytes() == first[1].phi.tobytes()
    assert again.dphi_dt.tobytes() == first[1].dphi_dt.tobytes()


def test_jacobi_table_hit_is_the_same_read_only_arrays(params_m0):
    memo = modes._jacobi_table.memo
    n, l, rho = np.array([0, 2, 3]), np.array([1, 0, 2]), np.linspace(0.1, 1.4, 7)[:, None]
    memo.clear()
    built = jacobi_radial_fd("plus", n, l, rho, params_m0)
    hit = jacobi_radial_fd("plus", n.copy(), l.copy(), rho.copy(), params_m0)
    assert (memo.hits, memo.misses) == (1, 1)
    assert all(a is b and not a.flags.writeable for a, b in zip(built, hit))
    with pytest.raises(ValueError):
        built[0][0, 0] = 1.0
    # scalar calls are not memoized; an array's elements are their bits
    assert jacobi_radial_fd("plus", 2, 0, float(rho[1, 0]), params_m0)[0] == built[0][1, 1]
    assert (memo.hits, memo.misses, memo.counts()["size"]) == (1, 1, 1)

# --- basis change ----------------------------------------------------------------

def test_s_to_c_round_trip(params_m0):
    rep = _tube_rep()
    back = c_to_s(s_to_c(rep, params_m0), params_m0)
    for key, (a, b) in rep.coeffs.items():
        a2, b2 = back.coeffs[key]
        assert a2 == pytest.approx(a, rel=1e-10, abs=1e-12)
        assert b2 == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_basis_change_equals_per_label_loop(params_m0, rng):
    # reference: one transfer matrix per label, products in the same order
    grid = OmegaGrid(0.5, tuple(range(-7, 8)))
    keys = {(int(rng.integers(-7, 8)), l, int(rng.integers(-l, l + 1)))
            for l in rng.integers(0, 5, size=40).tolist()}
    coeffs = {key: tuple(complex(*v) for v in rng.normal(size=(2, 2)))
              for key in sorted(keys, key=lambda k: -k[2])}
    coeffs[next(iter(coeffs))] = (0.0j, 0.0j)
    rep = TubeRep(grid, coeffs, "S")
    crep = s_to_c(rep, params_m0)
    expected = {}
    for (k, l, m), (a, b) in rep.coeffs.items():
        mat = transfer_matrix(grid.omega(k), l, params_m0)
        expected[(k, l, m)] = (a * mat.m11 + b * mat.m21, a * mat.m12 + b * mat.m22)
    assert list(crep.coeffs) == list(expected)
    assert np.array(list(crep.coeffs.values())).tobytes() \
        == np.array(list(expected.values())).tobytes()
    back = c_to_s(crep, params_m0)
    for (k, l, m), (a, b) in crep.coeffs.items():
        inv = transfer_matrix(grid.omega(k), l, params_m0).inverse()
        expected[(k, l, m)] = (a * inv.m11 + b * inv.m21, a * inv.m12 + b * inv.m22)
    assert list(back.coeffs) == list(expected)
    assert np.array(list(back.coeffs.values())).tobytes() \
        == np.array(list(expected.values())).tobytes()


def test_s_to_c_pointwise(params_m0, rng):
    rep = _tube_rep()
    crep = s_to_c(rep, params_m0)
    for _ in range(20):
        point = (rng.uniform(0, 3), rng.uniform(0.25, 1.3),
                 rng.uniform(0.2, 2.9), rng.uniform(0, 6.2))
        lhs = synth(rep, point, params_m0)
        rhs = synth(crep, point, params_m0)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def test_s_to_c_magic_mode(params_m0):
    om = magic_frequency("plus", 1, 1, params_m0)  # = 6 for massless d=3
    grid = OmegaGrid(1.0, (int(om),))
    rep = TubeRep(grid, {(int(om), 1, 0): (1.0, 0.0)}, "S")
    crep = s_to_c(rep, params_m0)
    a, b = crep.coeffs[(int(om), 1, 0)]
    assert abs(b) < 1e-8 * abs(a)


def test_s_to_c_preserves_reality(params_m0, rng):
    grid = OmegaGrid(0.5, tuple(range(-6, 7)))
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    rep = TubeRep(grid, {(4, 1, 1): (a, b), (-4, 1, -1): (np.conj(a), np.conj(b))}, "S")
    assert s_to_c(rep, params_m0).is_real()


# --- slice inversion ----------------------------------------------------------------

def test_invert_slice_zero(params_m0):
    rep = SliceRep({})
    data = sample_slice(rep, 0.4, params_m0, 64, ANG)
    rec = invert_slice(data, params_m0, 2, 2, check_residual=False)
    assert all(abs(p) < 1e-14 and abs(q) < 1e-14 for p, q in rec.coeffs.values())


def test_invert_slice_single_mode(params_m0):
    rep = SliceRep({(1, 1, 0): (1.0, 0.0)})
    data = sample_slice(rep, 0.0, params_m0, 96, ANG)
    rec = invert_slice(data, params_m0, 3, 3)
    for key, (p, q) in rec.coeffs.items():
        if key == (1, 1, 0):
            assert p == pytest.approx(1.0, abs=1e-8)
            assert abs(q) < 1e-8
        else:
            assert abs(p) < 1e-8 and abs(q) < 1e-8


def test_invert_slice_round_trip(params_m0):
    rep = _slice_rep()
    data = sample_slice(rep, 0.37, params_m0, 96, ANG)
    rec = invert_slice(data, params_m0, 3, 3)
    for key, (p, q) in rep.coeffs.items():
        p2, q2 = rec.coeffs[key]
        assert p2 == pytest.approx(p, rel=1e-8, abs=1e-10)
        assert q2 == pytest.approx(q, rel=1e-8, abs=1e-10)


def test_invert_slice_reality_preserved(params_m0, rng):
    coeffs = {}
    for key in ((0, 0, 0), (1, 1, 1), (2, 2, -1)):
        p = complex(rng.normal(), rng.normal())
        coeffs[key] = (p, np.conj(p))
    rep = SliceRep(coeffs)
    assert rep.is_real()
    data = sample_slice(rep, 0.12, params_m0, 96, ANG)
    rec = invert_slice(data, params_m0, 3, 3)
    assert rec.is_real(tol=1e-8)


def test_invert_slice_t0_independence(params_m0):
    rep = _slice_rep()
    recs = []
    for t0 in (0.0, 0.9):
        data = sample_slice(rep, t0, params_m0, 96, ANG)
        recs.append(invert_slice(data, params_m0, 3, 3))
    for key in rep.coeffs:
        assert recs[0].coeffs[key][0] == pytest.approx(
            recs[1].coeffs[key][0], rel=1e-7, abs=1e-9)
        assert recs[0].coeffs[key][1] == pytest.approx(
            recs[1].coeffs[key][1], rel=1e-7, abs=1e-9)


def test_invert_slice_band_limit_error(params_m0):
    rep = SliceRep({(4, 4, 0): (1.0, 0.0)})  # outside the (2,2) window
    data = sample_slice(rep, 0.0, params_m0, 96, ANG)
    with pytest.raises(BandLimitExceeded):
        invert_slice(data, params_m0, 2, 2)


@pytest.mark.parametrize("msq", [0.0, -2.0, 1.0])
def test_invert_slice_needs_the_exact_node_count(msq, rng):
    # (n_max, l_max) = (1, 4): same-l products of degree l + n + n' <= 6,
    # exact on 4 Gauss-Jacobi nodes; on 3 the coefficients came back off by
    # 0.2-0.3 without an error
    params = make_params(3, 1.0, msq)
    labels = [(n, l, m) for n in range(2) for l in range(5) for m in range(-l, l + 1)]
    values = rng.normal(size=(len(labels), 4)) @ [[1, 0], [1j, 0], [0, 1], [0, 1j]]
    rep = SliceRep(dict(zip(labels, map(tuple, values))))
    data = sample_slice(rep, 0.4, params, 3, ANG)
    with pytest.raises(ValueError, match=r"3 radial nodes .* \(1, 4\), which needs 4"):
        invert_slice(data, params, 1, 4, check_residual=False)
    rec = invert_slice(sample_slice(rep, 0.4, params, 4, ANG), params, 1, 4)
    assert np.max(np.abs(rec.coeffs.array - rep.coeffs.array)) < 1e-13


# --- tube inversion -----------------------------------------------------------------

@pytest.mark.parametrize("basis", ["S", "C"])
def test_invert_tube_round_trip(params_m0, basis):
    rep = _tube_rep(basis)
    data = sample_tube(rep, 0.8, params_m0, ANG)
    rec = invert_tube(data, params_m0, 2, basis)
    for key, (a, b) in rep.coeffs.items():
        a2, b2 = rec.coeffs[key]
        assert a2 == pytest.approx(a, rel=1e-7, abs=1e-9)
        assert b2 == pytest.approx(b, rel=1e-7, abs=1e-9)


def test_invert_tube_zero(params_m0):
    grid = OmegaGrid(0.5, (-2, 1, 3))
    rep = TubeRep(grid, {}, "S")
    data = sample_tube(rep, 0.8, params_m0, ANG)
    rec = invert_tube(data, params_m0, 1, "S")
    assert all(abs(a) < 1e-14 and abs(b) < 1e-14 for a, b in rec.coeffs.values())


def test_invert_tube_refuses_an_unknown_basis(params_m0):
    # a bare KeyError: 'X' from the radial function's table before
    data = sample_tube(_tube_rep(), 0.8, params_m0, ANG)
    with pytest.raises(ValueError, match=r"^basis must be 'S' or 'C'$"):
        invert_tube(data, params_m0, 2, "X")


def test_samplers_span_labels_held_off_the_grid(params_m0):
    # labels k = 1 and 4 on the grid (1,): the grid's own 3-node window
    # aliased k = 4 onto k = 1, and the inversions read k = 1 wrong (the
    # tube's a channel as 1.77 in place of 1); 9 nodes hold both
    grid = OmegaGrid(0.5, (1,))
    rep = TubeRep(grid, {(1, 1, 0): (1.0, 0.5j), (4, 1, 0): (1.0, -0.3)})
    rod = RodRep(grid, {(1, 1, 0): 1.0, (4, 1, 0): 0.7j})
    crep = s_to_c(rep, params_m0)
    got = [invert_tube(sample_tube(rep, 0.8, params_m0), params_m0, 1).coeffs[1, 1, 0],
           (invert_rod_interior(sample_rod(rod, 0.8, params_m0), params_m0, 1)
            .coeffs[1, 1, 0],),
           boundary_reconstruct(boundary_data_of(crep, params_m0), params_m0, 1)
           .coeffs[1, 1, 0],
           (rod_boundary_reconstruct(rod_boundary_data_of(rod, params_m0), params_m0, 1)
            .coeffs[1, 1, 0],)]
    want = [rep.coeffs[1, 1, 0], (1.0,), crep.coeffs[1, 1, 0], (1.0,)]
    for g, w in zip(got, want):
        assert np.max(np.abs(np.subtract(g, w))) < 1e-12, (g, w)
    assert len(sample_tube(rep, 0.8, params_m0).t_nodes) == 9


def test_invert_tube_radius_independence(params_m0):
    rep = _tube_rep()
    recs = []
    for rho0 in (0.6, 1.1):
        data = sample_tube(rep, rho0, params_m0, ANG)
        recs.append(invert_tube(data, params_m0, 2, "S"))
    for key in rep.coeffs:
        for ch in (0, 1):
            assert recs[0].coeffs[key][ch] == pytest.approx(
                recs[1].coeffs[key][ch], rel=1e-7, abs=1e-9)


# --- rod inversion -----------------------------------------------------------------

def _rod_rep():
    grid = OmegaGrid(0.5, tuple(range(-6, 7)))
    return RodRep(grid, {(3, 0, 0): 0.8 + 0.3j, (-4, 1, -1): 0.5,
                         (5, 2, 1): -0.2j, (2, 1, 0): 0.4 - 0.1j})


def test_invert_rod_round_trip(params_m0):
    rep = _rod_rep()
    data = sample_rod(rep, 0.9, params_m0, ANG)
    rec = invert_rod_interior(data, params_m0, 2)
    for key, a in rep.coeffs.items():
        assert rec.coeffs[key] == pytest.approx(a, rel=1e-7, abs=1e-9)


def test_invert_rod_zero(params_m0):
    grid = OmegaGrid(0.5, (2, 3))
    data = sample_rod(RodRep(grid, {}), 0.9, params_m0, ANG)
    rec = invert_rod_interior(data, params_m0, 1)
    assert all(abs(a) < 1e-14 for a in rec.coeffs.values())


def test_invert_rod_radial_node(params_m0):
    # bisect a zero of S^a_{omega, 0}(0.9) in omega, put it on the grid
    rho0 = 0.9
    f = lambda om: radial_eval(RadialKind.Sa, om, 0, rho0, params_m0)
    lo, hi = 3.0, 6.0
    assert f(lo) * f(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    om_node = 0.5 * (lo + hi)
    grid = OmegaGrid(om_node / 4.0, (4,))
    data = sample_rod(RodRep(grid, {(4, 0, 0): 1.0}), rho0, params_m0, ANG)
    with pytest.raises(RadialNodeError):
        invert_rod_interior(data, params_m0, 0)


# --- the twisted derivative ----------------------------------------------

def test_twisted_boundary_limits(params_m0):
    # nu = 3/2: floor = 1, ((2nu - 2))_{2} = ((1))_2 = 1 * 3 = 3
    assert twisted_boundary_limit(RadialKind.Ca, params_m0) == pytest.approx(3.0)
    assert twisted_boundary_limit(RadialKind.Cb, params_m0) == 0.0


def test_twisted_boundary_limit_various_nu():
    from adskg.specfun import double_pochhammer
    for msq, nu in ((-2.0, 0.5), (1.0, math.sqrt(13) / 2)):
        p = make_params(3, 1.0, msq)
        fl = int(math.floor(nu))
        assert twisted_boundary_limit(RadialKind.Ca, p) == pytest.approx(
            double_pochhammer(2 * nu - 2 * fl, fl + 1), rel=1e-13)


def test_twisted_integer_nu_rejected():
    p = make_params(3, 1.0, 4.0 - 2.25)  # nu = 2
    with pytest.raises(CapabilityError):
        twisted_boundary_limit(RadialKind.Ca, p)


def test_twisted_derivative_kills_low_orders(params_m0):
    # ((2a - 2 floor(nu)))_{floor(nu)+1} = 0 for a <= floor(nu)
    from adskg.specfun import double_pochhammer
    fl = int(math.floor(params_m0.nu))
    for a in range(fl + 1):
        assert double_pochhammer(2.0 * a - 2.0 * fl, fl + 1) == 0.0


def test_twisted_derivative_boundary_value(params_m0):
    # near the boundary the twisted derivative of C^a approaches its limit
    val = twisted_derivative(RadialKind.Ca, 2.3, 1, math.pi / 2 - 1e-4, params_m0)
    assert val == pytest.approx(3.0, rel=1e-6)
    # the C^b twisted derivative decays like cos^{2(floor(nu)+1) - 2 nu}
    # (linearly for nu = 3/2): check magnitude and decay rate
    v1 = twisted_derivative(RadialKind.Cb, 2.3, 1, math.pi / 2 - 1e-3, params_m0)
    v2 = twisted_derivative(RadialKind.Cb, 2.3, 1, math.pi / 2 - 1e-4, params_m0)
    assert abs(v1) < 1e-1
    assert abs(v2) == pytest.approx(0.1 * abs(v1), rel=1e-3)


@lru_cache(maxsize=None)
def ref_taylor_coeffs(branch, omega, l, params, a_max):
    """The Taylor coefficients as the explicit double sum over (a, b)."""
    from adskg.modes import hyper_params
    from adskg.specfun import pochhammer
    kind = RadialKind.Ca if branch == "plus" else RadialKind.Cb
    al, be, ga = hyper_params(kind, omega, l, params)
    out = np.zeros(a_max + 1)
    for a in range(a_max + 1):
        total = 0.0
        for b in range(a + 1):
            sin_part = (-1.0) ** b / math.factorial(b) \
                * pochhammer(l / 2.0 + 1.0 - b, b)
            hyp_part = (pochhammer(al, a - b) * pochhammer(be, a - b)
                        / (pochhammer(ga, a - b) * math.factorial(a - b)))
            total += sin_part * hyp_part
        out[a] = total
    return out


def ref_twisted_terms(kind, omega, l, rho, params, a_max=30):
    """The terms of the twisted derivative's Taylor series, one by one (0.0
    for the C^b terms that the double Pochhammer drops)."""
    from adskg.specfun import double_pochhammer
    nu = params.nu
    fl = math.floor(nu)
    c = math.cos(rho)
    if kind is RadialKind.Ca:
        d_a = ref_taylor_coeffs("plus", omega, l, params, a_max)
        return [d_a[a] * double_pochhammer(2 * nu + 2 * a - 2 * fl, fl + 1) * c ** (2 * a)
                for a in range(a_max + 1)]
    d_a = ref_taylor_coeffs("minus", omega, l, params, a_max)
    terms = []
    for a in range(a_max + 1):
        dpoch = double_pochhammer(2.0 * a - 2.0 * fl, fl + 1)
        # avoid 0 * inf from the negative powers of cos
        terms.append(0.0 if dpoch == 0.0 else d_a[a] * dpoch * c ** (-2.0 * nu + 2 * a))
    return terms


# the reference loop's series has converged where its last term is within
# this of its sum
REF_TOL = 1e-14

# six masses with non-integer nu: 3/2, 1/2, sqrt(13)/2, sqrt(5)/2, ...
TWISTED_MSQ = (0.0, -2.0, 1.0, -1.0, 0.5, 3.0)


@pytest.mark.parametrize("msq", TWISTED_MSQ)
def test_twisted_derivative_matches_reference_loop(msq):
    # the closed form returns a value at every point of the grid (all at
    # rho >= pi/6); where the reference loop's last term is within REF_TOL of
    # its sum the 31-term series has converged and the two agree
    p = make_params(3, 1.0, msq)
    worst = 0.0
    for kind in (RadialKind.Ca, RadialKind.Cb):
        for om in (0.3, 1.7, 2.3, -4.1, 7.9):
            for l in range(8):
                for rho in (0.6, 0.9, 1.2, 1.45, 1.55, math.pi / 2):
                    got = twisted_derivative(kind, om, l, rho, p)
                    assert math.isfinite(got)
                    terms = ref_twisted_terms(kind, om, l, rho, p)
                    want = float(sum(terms))
                    if abs(terms[-1]) <= REF_TOL * abs(want):
                        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-13


def test_twisted_derivative_raises_below_pi_over_6(params_m0):
    # y = cos^2 rho exceeds ARG_CUTOFF below rho = pi/6: each 2F1 of the sum
    # that does not terminate raises there; from rho = 0.6 on every value is
    # returned (at (7.9, 7) the 31-term Taylor sum was 63% off at rho = 0.3)
    for kind in (RadialKind.Ca, RadialKind.Cb):
        with pytest.raises(DomainError, match="exceeds series cutoff"):
            twisted_derivative(kind, 7.9, 7, 0.3, params_m0)
        for rho in (0.6, 1.2, 1.45, math.pi / 2):
            assert math.isfinite(twisted_derivative(kind, 7.9, 7, rho, params_m0))
    # C^a at a magic frequency: every series terminates, so rho = 0.3 is valid
    om = magic_frequency("plus", 2, 3, params_m0)
    assert math.isfinite(twisted_derivative(RadialKind.Ca, om, 3, 0.3, params_m0))


# --- boundary reconstruction ----------------------------------------------------------

def test_boundary_reconstruct_round_trip(params_m0):
    rep = s_to_c(_tube_rep(), params_m0)
    data = boundary_data_of(rep, params_m0, ANG)
    rec = boundary_reconstruct(data, params_m0, 2)
    for key, (a, b) in rep.coeffs.items():
        a2, b2 = rec.coeffs[key]
        assert a2 == pytest.approx(a, rel=1e-7, abs=1e-9)
        assert b2 == pytest.approx(b, rel=1e-7, abs=1e-9)


def test_boundary_reconstruct_zero(params_m0):
    grid = OmegaGrid(0.5, (1, 3))
    rep = TubeRep(grid, {}, "C")
    data = boundary_data_of(rep, params_m0, ANG)
    rec = boundary_reconstruct(data, params_m0, 1)
    assert all(abs(a) < 1e-14 and abs(b) < 1e-14 for a, b in rec.coeffs.values())


def test_boundary_pure_ca_invisible_to_field_value(params_m0):
    grid = OmegaGrid(0.5, (3, 5))
    rep = TubeRep(grid, {(3, 1, 0): (1.0, 0.0), (5, 0, 0): (0.5j, 0.0)}, "C")
    data = boundary_data_of(rep, params_m0, ANG)
    assert np.max(np.abs(data.phid_minus)) < 1e-9  # C^a invisible
    rec = boundary_reconstruct(data, params_m0, 1)
    assert rec.coeffs[(3, 1, 0)][0] == pytest.approx(1.0, abs=1e-9)
    assert rec.coeffs[(5, 0, 0)][0] == pytest.approx(0.5j, abs=1e-9)


def test_rod_boundary_round_trip(params_m0):
    # omega in {1.7, 2.9}: away from the magic frequencies 3, 5, 7, ...
    grid = OmegaGrid(0.1, (17, 29, -17))
    rep = RodRep(grid, {(17, 1, 0): 0.7 + 0.2j, (29, 0, 0): -0.4j,
                        (-17, 1, -1): 0.3})
    data = rod_boundary_data_of(rep, params_m0, ANG)
    rec = rod_boundary_reconstruct(data, params_m0, 1)
    for key, a in rep.coeffs.items():
        assert rec.coeffs[key] == pytest.approx(a, rel=1e-6, abs=1e-8)


def test_rod_boundary_magic_blindness(params_m0):
    om = magic_frequency("plus", 0, 0, params_m0)  # = 3
    grid = OmegaGrid(1.0, (3,))
    rep = RodRep(grid, {(3, 0, 0): 1.0})
    data = rod_boundary_data_of(rep, params_m0, ANG)
    with pytest.raises(MagicFrequencyBlind):
        rod_boundary_reconstruct(data, params_m0, 0)


def test_rescaled_boundary_value_via_taylor_tail(params_pos):
    # Delta- < 0: cos^{-Delta-} synth approaches the C-basis Taylor value
    grid = OmegaGrid(0.5, (4, 5))
    rep = TubeRep(grid, {(4, 1, 1): (0.6, 0.2j), (5, 0, 0): (0.1, 0.4)}, "S")
    crep = s_to_c(rep, params_pos)
    t, th, ph = 0.3, 1.2, 0.7
    rho = 1.45
    c = math.cos(rho)
    value = synth(rep, (t, rho, th, ph), params_pos) * c ** (-params_pos.delta_minus)
    # Taylor prediction from the C coefficients
    from adskg.harmonics import sph_harm
    pred = 0.0j
    for (k, l, m), (ca, cb) in crep.coeffs.items():
        om = grid.omega(k)
        da = ref_taylor_coeffs("plus", om, l, params_pos, 12)
        db = ref_taylor_coeffs("minus", om, l, params_pos, 12)
        rad = (ca * sum(da[a] * c ** (2 * params_pos.nu + 2 * a) for a in range(13))
               + cb * sum(db[a] * c ** (2 * a) for a in range(13)))
        pred += grid.d_omega * rad * np.exp(-1j * om * t) * sph_harm(l, m, th, ph)
    assert value == pytest.approx(pred, rel=1e-8)


# --- serialization ---------------------------------------------------------------------

def test_rep_dict_view_is_built_on_first_access():
    rep = TubeRep(OmegaGrid(0.5, (1, 3)), {(3, 1, 0): (1.0, 2j), (1, 0, 0): (0.0, 0.0)}, "S")
    # construction, the length (from the mask) and the maps leave it unbuilt
    assert len(rep.coeffs) == 2 and len(rep.scaled(2.0).coeffs) == 2
    assert "_view" not in vars(rep.coeffs)
    assert list(rep.coeffs) == [(1, 0, 0), (3, 1, 0)] and "_view" in vars(rep.coeffs)
    a, b = rep.coeffs[(3, 1, 0)]
    assert (a, b) == (1.0, 2j) and type(a) is complex and type(b) is complex


def test_rep_serialization_round_trip(params_m0):
    rep = _tube_rep()
    buf = io.StringIO()
    save_rep(buf, rep, params_m0)
    loaded, loaded_params = load_rep(io.StringIO(buf.getvalue()))
    assert loaded.basis == rep.basis
    assert loaded.grid.d_omega == rep.grid.d_omega
    assert loaded.coeffs == rep.coeffs
    assert loaded_params.d == params_m0.d


def test_rep_serialization_slice(params_m0):
    rep = _slice_rep()
    buf = io.StringIO()
    save_rep(buf, rep, params_m0)
    loaded, _ = load_rep(io.StringIO(buf.getvalue()))
    assert isinstance(loaded, SliceRep)
    assert loaded.coeffs == rep.coeffs


def test_rep_rejects_unknown_version():
    text = "adskg-rep v2 d=3 R=1.0 msq=0.0 domega=0.5\nS 1 0 0 1.0 0.0 0.0 0.0\n"
    with pytest.raises(SerializationError):
        load_rep(io.StringIO(text))


def test_rep_rejects_garbage():
    with pytest.raises(SerializationError):
        load_rep(io.StringIO("not a rep file\n"))
    with pytest.raises(SerializationError):
        load_rep(io.StringIO("adskg-rep v1 d=3 R=1.0 msq=0.0 domega=0.5\nS 1 0\n"))


def test_invert_tube_preserves_reality(params_m0, rng):
    grid = OmegaGrid(0.5, tuple(range(-6, 7)))
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    rep = TubeRep(grid, {(4, 1, 1): (a, b),
                         (-4, 1, -1): (np.conj(a), np.conj(b))}, "S")
    assert rep.is_real()
    data = sample_tube(rep, 0.8, params_m0, ANG)
    rec = invert_tube(data, params_m0, 1, "S")
    assert rec.is_real(tol=1e-9)


def test_synth_derivatives_match_finite_differences(params_m0):
    rep = _tube_rep()
    point = (0.4, 0.8, 1.1, 2.0)
    h = 1e-6
    fd_t = (synth(rep, (point[0] + h, *point[1:]), params_m0)
            - synth(rep, (point[0] - h, *point[1:]), params_m0)) / (2 * h)
    assert synth_dt(rep, point, params_m0) == pytest.approx(fd_t, rel=1e-8)
    fd_r = (synth(rep, (point[0], point[1] + h, *point[2:]), params_m0)
            - synth(rep, (point[0], point[1] - h, *point[2:]), params_m0)) / (2 * h)
    assert synth_drho(rep, point, params_m0) == pytest.approx(fd_r, rel=1e-8)
    srep = _slice_rep()
    fd_t = (synth(srep, (point[0] + h, *point[1:]), params_m0)
            - synth(srep, (point[0] - h, *point[1:]), params_m0)) / (2 * h)
    assert synth_dt(srep, point, params_m0) == pytest.approx(fd_t, rel=1e-8)
    fd_r = (synth(srep, (point[0], point[1] + h, *point[2:]), params_m0)
            - synth(srep, (point[0], point[1] - h, *point[2:]), params_m0)) / (2 * h)
    assert synth_drho(srep, point, params_m0) == pytest.approx(fd_r, rel=1e-8)


# --- the per-label loops the array maps replaced, kept as references -----------------

def _random_tube(rng, grid, size=40, mirrored=False):
    """Random labels in random insertion order, one explicit zero label; with
    mirrored, (-k, l, -m) holds the conjugate of (k, l, m)."""
    keys = {(int(rng.integers(-6, 7)), l, int(rng.integers(-l, l + 1)))
            for l in rng.integers(0, 4, size=size).tolist()}
    coeffs = {key: (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
              for key in sorted(keys, key=lambda _: rng.random())}
    coeffs[next(iter(coeffs))] = (0j, 0j)
    if mirrored:
        coeffs = {key: val for key, val in coeffs.items() if key[0] > 0}
        coeffs.update({(-k, l, -m): (np.conj(a), np.conj(b))
                       for (k, l, m), (a, b) in list(coeffs.items())})
    return TubeRep(grid, coeffs, "S")


def _loop_is_real(rep, tol=1e-10):
    if isinstance(rep, SliceRep):
        return all(abs(q - np.conj(p)) <= tol for p, q in rep.coeffs.values())
    for (k, l, m), (a, b) in rep.coeffs.items():
        a2, b2 = rep.coeff(-k, l, -m)
        if abs(a2 - np.conj(a)) > tol or abs(b2 - np.conj(b)) > tol:
            return False
    return True


def _loop_slice_to_tube(rep, grid, params):
    coeffs: dict = {}
    for (n, l, m), (p, q) in rep.coeffs.items():
        k = round(magic_frequency("plus", n, l, params) / grid.d_omega)
        for key, c in (((k, l, m), p), ((-k, l, -m), q)):
            if c != 0.0:
                acc = coeffs.get(key, (0.0 + 0.0j, 0.0 + 0.0j))
                coeffs[key] = (acc[0] + c / grid.d_omega, acc[1])
    return coeffs


def test_is_real_equals_per_label_loop(rng):
    grid = OmegaGrid(0.5, tuple(range(-7, 8)))
    for _ in range(4):
        for rep in (_random_tube(rng, grid), _random_tube(rng, grid, 6, True)):
            for tol in (1e-10, 0.0, 10.0):
                assert rep.is_real(tol) == _loop_is_real(rep, tol)
        real = _random_tube(rng, grid, 8, True)
        assert real.is_real()
        # a label whose mirror is absent is real only if it is ~ 0
        broken = TubeRep(grid, {**real.coeffs, (7, 0, 0): (1e-3, 0.0)}, "S")
        assert not broken.is_real() and not _loop_is_real(broken)
        assert broken.is_real(1e-2) and _loop_is_real(broken, 1e-2)
    plus = {(n, l, 0): complex(*rng.normal(size=2)) for n in range(3) for l in range(3)}
    for skew in (0.0, 1e-6):
        rep = SliceRep({key: (p, np.conj(p) + skew) for key, p in plus.items()})
        assert rep.is_real() == _loop_is_real(rep) == (skew == 0.0)


def test_scaled_equals_per_label_loop(rng):
    # within 1e-14: NumPy's complex multiply need not match Python's bits
    factor = 0.3 - 1.7j
    grid = OmegaGrid(0.5, tuple(range(-7, 8)))
    for rep in (_random_tube(rng, grid), _slice_rep()):
        want = {key: (factor * a, factor * b) for key, (a, b) in rep.coeffs.items()}
        got = rep.scaled(factor)
        assert list(got.coeffs) == list(rep.coeffs) and type(got) is type(rep)
        diff = max(abs(g - w) for key in want for g, w in zip(got.coeffs[key], want[key]))
        assert diff <= 1e-14 * max(abs(w) for pair in want.values() for w in pair)


def test_slice_to_tube_equals_per_label_loop(params_m0, rng):
    # bit for bit: each tube label receives one slice value / d_omega
    grid = OmegaGrid(0.5, tuple(range(-40, 41)))
    for _ in range(3):
        keys = {(int(rng.integers(0, 6)), l, int(rng.integers(-l, l + 1)))
                for l in rng.integers(0, 5, size=40).tolist()}
        coeffs = {key: (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
                  for key in sorted(keys, key=lambda _: rng.random())}
        first, second = list(coeffs)[:2]
        coeffs[first], coeffs[second] = (0j, 0j), (0j, 1.5)  # zeros add no label
        rep = SliceRep(coeffs)
        got, want = slice_to_tube(rep, grid, params_m0), _loop_slice_to_tube(rep, grid, params_m0)
        assert got.basis == "S" and sorted(got.coeffs) == sorted(want)
        assert np.array([got.coeffs[key] for key in sorted(want)]).tobytes() \
            == np.array([want[key] for key in sorted(want)]).tobytes()
    with pytest.raises(ValueError, match="not on the grid"):
        slice_to_tube(rep, OmegaGrid(0.3, (1,)), params_m0)


# --- the angular layer is S^2 only: d != 3 raises ------------------------------------

_D5_ENTRY_POINTS = {
    "mode_eval": lambda p: mode_eval(TubeLabel(1.5, 1, 0), (0.1, 0.7, 1.0, 2.0), p),
    "synth": lambda p: synth(_slice_rep(), (0.1, 0.7, 1.0, 2.0), p),
    "synth_dt": lambda p: synth_dt(_tube_rep(), (0.1, 0.7, 1.0, 2.0), p),
    "synth_drho": lambda p: synth_drho(_rod_rep(), (0.1, 0.7, 1.0, 2.0), p),
    "sample_slice": lambda p: sample_slice(_slice_rep(), 0.2, p, 16, ANG),
    "sample_tube": lambda p: sample_tube(_tube_rep(), 0.8, p, ANG),
    "sample_rod": lambda p: sample_rod(_rod_rep(), 0.8, p, ANG),
    "invert_slice": lambda p: invert_slice(sample_slice(
        _slice_rep(), 0.2, make_params(3, 1.0, 0.0), 16, ANG), p, 2, 2),
    "invert_tube": lambda p: invert_tube(sample_tube(
        _tube_rep(), 0.8, make_params(3, 1.0, 0.0), ANG), p, 2),
    "invert_rod_interior": lambda p: invert_rod_interior(sample_rod(
        _rod_rep(), 0.8, make_params(3, 1.0, 0.0), ANG), p, 2),
    "boundary_data_of": lambda p: boundary_data_of(_tube_rep("C"), p, ANG),
    "boundary_reconstruct": lambda p: boundary_reconstruct(boundary_data_of(
        _tube_rep("C"), make_params(3, 1.0, 0.3), ANG), p, 2),
    "rod_boundary_data_of": lambda p: rod_boundary_data_of(_rod_rep(), p, ANG),
    "rod_boundary_reconstruct": lambda p: rod_boundary_reconstruct(rod_boundary_data_of(
        _rod_rep(), make_params(3, 1.0, 0.3), ANG), p, 2),
    "omega_slice_momentum": lambda p: omega_slice_momentum(_slice_rep(), _slice_rep(), p),
    "omega_tube_momentum": lambda p: omega_tube_momentum(_tube_rep(), _tube_rep(), p),
    "act_rotation": lambda p: act_rotation(_slice_rep(), EulerAngles(0.4, 1.1, -0.3), p),
    "boost_shift_coeffs": lambda p: boost_shift_coeffs("a", 1, 1, 2.5, 1, p),
    "boost_generator_apply": lambda p: boost_generator_apply(_slice_rep(), Boost0(5), p),
    "act_boost": lambda p: act_boost(_tube_rep(), BoostD1(5), 0.1, p),
}


@pytest.mark.parametrize("entry", sorted(_D5_ENTRY_POINTS))
def test_angular_entry_points_reject_d5(entry):
    with pytest.raises(UnsupportedDimension, match="d = 5"):
        _D5_ENTRY_POINTS[entry](make_params(5, 1.0, 0.0))


def test_basis_change_stays_d_general():
    p5 = make_params(5, 1.0, 0.3)
    rep = _tube_rep()
    back = c_to_s(s_to_c(rep, p5), p5)
    assert max(abs(back.coeffs[key][i] - v) for key, pair in rep.coeffs.items()
               for i, v in enumerate(pair)) < 1e-10


# --- pointwise synthesis against a per-label scalar sum -----------------------------

_EPS = np.finfo(float).eps
_UNDERFLOW = 8 * 2.0 ** -1074  # per term: 16 roundings of at most 2^-1075
# sin^2 rho = 0.75 (the S cutoff) at pi/3, cos^2 rho = 0.75 (the C one) at pi/6
_POINT_RHO = st.sampled_from([0.2, math.pi / 6 - 1e-9, math.pi / 6 + 1e-9, 0.8,
                              math.pi / 3 - 1e-9, math.pi / 3 + 1e-9, 1.3])
_COEF = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                                  allow_infinity=False))
_LABEL = st.tuples(st.integers(-15, 15), st.integers(0, 6).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(-l, l))))


def _per_label_sums(rep, point, params):
    """synth, synth_dt and synth_drho as sums over a rep's labels and
    channels of c f Y e^{-i omega t}, d_omega-weighted on a tube, the conj
    channel of a slice at e^{i omega t} and Y_l^{-m} (times -+i omega for
    d/dt, f' for d/drho), the factors from scalar calls and their products
    and sums in long double; and the error each sum may carry, 4 eps
    sum |terms| plus _UNDERFLOW per term times its factors past the
    coefficient that exceed 1 (a product rounded in the subnormal range
    takes an absolute error, which the factors applied after it scale)."""
    t, rho, theta, phi = point
    terms, tails = [], []

    def add(c, factor, omega, f, df):
        cf = np.clongdouble(c) * factor
        terms.append((cf * f, np.clongdouble(-1j * omega) * cf * f, cf * df))
        big = max(1.0, abs(factor)) * max(1.0, abs(omega))
        tails.append([big * max(1.0, abs(x)) for x in (f, f, df)])

    if isinstance(rep, SliceRep):
        for (n, l, m), (cp, cq) in rep.coeffs.items():
            omega = magic_frequency("plus", n, l, params)
            f, df = map(np.longdouble, jacobi_radial_fd("plus", n, l, rho, params))
            for c, w, y in ((cp, omega, sph_harm(l, m, theta, phi)),
                            (cq, -omega, sph_harm(l, -m, theta, phi))):
                if c:
                    add(c, np.clongdouble(np.exp(-1j * w * t)) * np.clongdouble(y), w, f, df)
    else:
        basis = getattr(rep, "basis", "S")
        kinds = {"S": (RadialKind.Sa, RadialKind.Sb), "C": (RadialKind.Ca, RadialKind.Cb)}[basis]
        for (k, l, m), coefs in rep.coeffs.items():
            omega = rep.grid.omega(k)
            factor = np.clongdouble(np.exp(-1j * omega * t)) * np.clongdouble(
                sph_harm(l, m, theta, phi)) * np.longdouble(rep.grid.d_omega)
            for kind, c in zip(kinds, np.atleast_1d(coefs).tolist()):
                if c:
                    add(c, factor, omega, *map(np.longdouble, radial_eval_fd(
                        kind, omega, l, rho, params)))
    terms = np.array(terms, dtype=np.clongdouble).reshape(-1, 3)
    tails = np.array(tails, dtype=np.longdouble).reshape(-1, 3)
    return terms.sum(axis=0), 4.0 * _EPS * np.abs(terms).sum(axis=0) + _UNDERFLOW * tails.sum(
        axis=0)


@given(form=st.sampled_from(["S", "C", "rod", "slice"]), msq=st.sampled_from([0.0, -2.2, 1.5]),
       d_omega=st.floats(0.3, 0.9), labels=st.lists(st.tuples(_LABEL, _COEF, _COEF),
                                                     min_size=1, max_size=30),
       point=st.tuples(st.floats(0.0, 6.3), _POINT_RHO | st.just(0.0),
                       st.floats(0.2, 2.9), st.floats(0.0, 6.3)))
@example(form="S", msq=0.0, d_omega=0.5, labels=[((0, (0, 0)), 0j, 5e-324 + 0j)],
         point=(0.0, 0.0, 1.0, 0.0))
@settings(max_examples=60, deadline=None)
def test_point_synthesis_is_the_per_label_scalar_sum(form, msq, d_omega, labels, point):
    # Y contracted first, then the radial tables and phases per (j, l) block,
    # within 4 eps of the sum of |terms| of the per-label sum on the same
    # radial values, Y and phases (and a few 2^-1074 per term, which a
    # double cannot resolve: a 5e-324 coefficient synthesizes to 0 where
    # the long-double sum reads 1.7e-323); rho = 0 (where S^b and the
    # C-modes diverge) for the S^a-only rod and the Jacobi modes; a slice
    # takes n = |k| mod 5
    params = make_params(3, 1.0, msq)
    if form not in ("rod", "slice") and point[1] == 0.0:
        point = (point[0], 0.2) + point[2:]
    coeffs = {(k, l, m): (a, b) for (k, (l, m)), a, b in labels}
    grid = OmegaGrid(d_omega, tuple(k for k, _, _ in coeffs))
    if form == "slice":
        rep = SliceRep({(abs(k) % 5, l, m): ab for (k, l, m), ab in coeffs.items()})
    elif form == "rod":
        rep = RodRep(grid, {key: a for key, (a, _) in coeffs.items()})
    else:
        rep = TubeRep(grid, coeffs, form)
    want, bound = _per_label_sums(rep, point, params)
    got = [fn(rep, point, params) for fn in (synth, synth_dt, synth_drho)]
    assert np.all(np.abs(np.array(got) - want) <= bound), (got, want, bound)


# --- pointwise synthesis against the per-call set-up it replaced ---------------------

def _oracle_blocks(coef):
    """The (row, l) of the (j, l) blocks where coef has a nonzero entry,
    derived on every call."""
    ls, ms = lm_labels(lm_degree(coef.shape[-1] - 1))
    nonzero = np.any(coef != 0, axis=tuple(range(coef.ndim - 2)))
    return np.nonzero(np.logical_or.reduceat(nonzero, np.flatnonzero(ms == -ls), axis=-1))


def _oracle_table(js, coef, fn, shape=()):
    """`_table` deriving its blocks from coef on every call."""
    ls, _ = lm_labels(lm_degree(coef.shape[-1] - 1))
    rows, l_need = _oracle_blocks(coef)
    vals = np.asarray(fn(np.asarray(js)[rows], l_need)) if rows.size else np.zeros(0)
    out = np.zeros(shape + (coef.shape[-2], ls[-1] + 1), dtype=vals.dtype)
    out[..., rows, l_need] = vals
    return out[..., ls]


def _oracle_ylm(angles, coef):
    """Y at a point from one sph_harm call over the held lm, on every call."""
    ls, ms = lm_labels(lm_degree(coef.shape[-1] - 1))
    held = np.any(coef != 0, axis=tuple(range(coef.ndim - 1)))
    out = np.zeros(ls.size, dtype=complex)
    out[held] = sph_harm(ls[held], ms[held], *angles)
    return out


def _oracle_ylm_sums(coef, angles):
    """sum_m coef Y per (j, l) block, with Y from `_oracle_ylm`."""
    l_max = lm_degree(coef.shape[-1] - 1)
    return np.add.reduceat(coef * _oracle_ylm(angles, coef),
                           np.arange(l_max + 1) ** 2, axis=-1)


def _oracle_synth(rep, point, params, deriv=""):
    """synth / synth_dt / synth_drho with the set-up done per call, the
    radial values from scalar calls and a rod summed as its tube copy
    (`as_tube`, b = 0): Y contracted first, then per block the radial
    values (the channels together where their blocks agree) and phases."""
    t, rho, theta, phi = point
    if isinstance(rep, SliceRep):
        # per channel sum_m c Y per block, on the mirrored Y row for
        # conj(phi^-), then the phases and radial values of the blocks
        frequency, fd = xp._jacobi(np.atleast_1d(rho), params, True)
        radial = lambda n, l: fd(n, l)[int(deriv == "rho")]
        js, coef, mirror = rep.coeffs.js, rep.coeffs.array, lm_mirror(rep.coeffs.l_max)
        rows, l_need = _oracle_blocks(coef)
        if not rows.size:
            return complex(0.0)
        y = _oracle_ylm((theta, phi), np.stack([coef[0], coef[1][:, mirror]]))
        plus, minus = np.add.reduceat(coef * np.stack([y, y[mirror]])[:, None], np.arange(
            rep.coeffs.l_max + 1) ** 2, axis=-1)[:, rows, l_need]
        omega = frequency(js[rows], l_need)
        plus, minus = plus * np.exp(-1j * omega * t), minus * np.exp(1j * omega * t)
        out = np.stack([plus + minus, -1j * omega * (plus - minus)]) @ radial(
            js[rows], l_need).T
        return complex(out[int(deriv == "t"), 0])
    if isinstance(rep, RodRep):
        rep = rep.as_tube()
    kinds = {"S": (RadialKind.Sa, RadialKind.Sb), "C": (RadialKind.Ca, RadialKind.Cb)}
    js, coef, d_omega = rep.coeffs.js, rep.coeffs.array, rep.grid.d_omega
    sums = _oracle_ylm_sums(coef, (theta, phi))
    omega = d_omega * np.asarray(js, dtype=float)
    phase = np.exp(-1j * np.multiply.outer(np.atleast_1d(t), omega))
    kern = d_omega * (-1j * omega * phase if deriv == "t" else phase)
    plans = [_oracle_blocks(c) for c in coef]
    same = all(np.array_equal(x, y) for x, y in zip(*plans))
    groups = [((0, 1), plans[0])] if same else [((0,), plans[0]), ((1,), plans[1])]
    out = np.zeros((2, len(kern)), dtype=complex)
    for chs, (rows, l_need) in groups:
        if rows.size:
            rad = np.array([per_distinct(lambda om, ll, kind=kinds[rep.basis][ch]: radial_eval_fd(
                kind, om, ll, rho, params), js[rows] * d_omega, l_need) for ch in chs])
            out += (rad * sums[list(chs)][:, rows, l_need][:, None]).sum(axis=0) \
                @ kern[:, rows].T
    return complex(out[int(deriv == "rho"), 0])


def _outcome(fn, *args):
    """The bits of fn's complex result, or its exception's type and text."""
    try:
        return np.array(fn(*args)).tobytes()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _random_reps(rng, params, l_top, size):
    """An S rep, its C image, a rod and a slice rep on random labels, about
    one coefficient in six exactly zero (some whole channels and blocks)."""
    grid = OmegaGrid(float(rng.uniform(0.3, 0.9)), tuple(range(-15, 16)))
    keys = {(int(rng.integers(-15, 16)), l, int(rng.integers(-l, l + 1)))
            for l in rng.integers(0, l_top + 1, size=size).tolist()}

    def value():
        return 0j if rng.random() < 0.17 else complex(*rng.normal(size=2))

    srep = TubeRep(grid, {key: (value(), value()) for key in keys}, "S")
    rod = RodRep(grid, {key: value() for key in keys})
    slc = SliceRep({(abs(k) % 5, l, m): (value(), value()) for k, l, m in keys})
    return [srep, s_to_c(srep, params), rod, slc]


@pytest.mark.parametrize("msq", [0.0, -2.2, 1.5])
def test_pointwise_synth_is_the_per_call_path_bit_for_bit(msq, rng):
    params = make_params(3, 1.0, msq)
    points = [(0.7, 1.1, 1.2, 2.3), (0.0, 0.35, 2.9, -0.0), (2.5, 0.9, 0.4, 0.0),
              (1.3, 1.45, 1.7, 5.5),
              (0.2, 0.0, 1.0, 0.3),               # axis: S^b and C raise, a rod is finite
              (0.2, math.pi / 2, 1.0, 0.3),       # the boundary: DomainError
              (0.2, 1.7, 1.0, 0.3)]
    for l_top, size in ((2, 3), (6, 13), (6, 40), (20, 25)):
        reps = _random_reps(rng, params, l_top, size)
        reps.append(TubeRep(reps[0].grid, {key: (a, 0j) for key, (a, _) in
                                           reps[0].coeffs.items()}, "S"))
        for rep in reps:
            for point in points:
                for fn, deriv in ((synth, ""), (synth_dt, "t"), (synth_drho, "rho")):
                    want = _outcome(_oracle_synth, rep, point, params, deriv)
                    for _ in range(2):  # the plan and Y row are formed, then reused
                        assert _outcome(fn, rep, point, params) == want, \
                            (type(rep).__name__, point, deriv)


def test_pointwise_synth_raises_as_before(params_m0):
    srep, rod = _tube_rep(), _rod_rep()
    with pytest.raises(SingularPoint, match="S\\^b"):
        synth(srep, (0.1, 0.0, 1.0, 2.0), params_m0)
    with pytest.raises(DomainError, match="rho"):
        synth_drho(rod, (0.1, math.pi / 2, 1.0, 2.0), params_m0)
    assert np.isfinite(synth(rod, (0.1, 0.0, 1.0, 2.0), params_m0))


def test_rod_synth_needs_no_tube_copy(params_m0, monkeypatch):
    # on the axis a rod of l >= 1 labels sums to zero: its sign is kept too
    grid = OmegaGrid(0.5, (1, 2))
    rods = [_rod_rep()] + [RodRep(grid, {(1, 1, 1): a, (2, 2, -1): -a})
                           for a in (-1.0 + 0.0j, complex(-0.0, 1.0), -0.0j)]
    calls = [(fn, rod, (t, rho, 1.1, phi)) for fn in (synth, synth_dt, synth_drho)
             for rod in rods for t in (0.0, 0.3) for rho in (0.0, 0.6, 1.3)
             for phi in (0.0, -0.0, 0.4)]
    want = [_outcome(_oracle_synth, rod, point, params_m0,
                     {synth: "", synth_dt: "t", synth_drho: "rho"}[fn])
            for fn, rod, point in calls]
    tube_phi = sample_tube(rods[0].as_tube(), 0.8, params_m0, ANG).phi
    monkeypatch.setattr(RodRep, "as_tube", lambda self: pytest.fail("tube copy"))
    assert [_outcome(fn, rod, point, params_m0) for fn, rod, point in calls] == want
    assert sample_rod(rods[0], 0.8, params_m0, ANG).phi.tobytes() == tube_phi.tobytes()
    assert np.all(np.isfinite(rod_boundary_data_of(rods[0], make_params(3, 1.0, 0.3),
                                                   ANG).phi))


def test_basis_change_takes_the_reps_block_plan(rng):
    params = make_params(3, 1.0, -0.7)
    grid = OmegaGrid(0.37, tuple(range(-15, 16)))
    for _ in range(3):
        rep = _random_tube(rng, grid)
        c = rep.coeffs
        for inverse, out in ((False, s_to_c(rep, params)),
                             (True, c_to_s(TubeRep(grid, c, "C"), params))):
            m11, m12, m21, m22 = _oracle_table(c.js, c.mask, lambda k, l: xp._transfer_entries(
                k * grid.d_omega, l, params, inverse), (4,))
            a, b = c.array
            want = np.stack([a * m11 + b * m21, a * m12 + b * m22])
            assert out.coeffs.array.tobytes() == want.tobytes()


def test_block_plan_is_formed_once_and_not_pickled(rng):
    import pickle
    rep = _random_tube(rng, OmegaGrid(0.5, tuple(range(-7, 8))))
    c = rep.coeffs
    for channel in (0, 1, None):
        blocks = c.blocks(channel)
        assert c.blocks(channel) is blocks
        held = c.mask if channel is None else c.array[channel]
        assert all(np.array_equal(got, want) for got, want in zip(blocks, xp._blocks(held)))
    assert c.__reduce__() == (type(c), (c.js, c.array, c.mask))
    copy = pickle.loads(pickle.dumps(rep))
    assert copy.coeffs._plan == {} and dict(copy.coeffs) == dict(c)


def test_ylm_point_memo_keys_on_bytes():
    held = np.ones(lm_count(4), dtype=bool)
    held[[0, 5]] = False
    before = counters("ylm_point")["ylm_point"]
    plus, minus = ylm_point(4, held, 1.1, 0.0), ylm_point(4, held, 1.1, -0.0)
    after = counters("ylm_point")["ylm_point"]
    assert after["misses"] - before["misses"] == 2 and after["maxsize"] == 64
    assert after["size"] <= after["maxsize"]
    ls, ms = lm_labels(4)
    for row, phi in ((plus, 0.0), (minus, -0.0)):
        want = np.zeros(ls.size, dtype=complex)
        want[held] = sph_harm(ls[held], ms[held], 1.1, phi)
        assert row.tobytes() == want.tobytes() and not row.flags.writeable
    assert ylm_point(4, held, 1.1, 0.0) is plus
    assert counters("ylm_point")["ylm_point"]["hits"] == after["hits"] + 1


def test_ylm_point_never_stores_an_exception():
    held = np.zeros(lm_count(90), dtype=bool)
    held[lm_index(90, -90)] = True
    for _ in range(3):
        misses = counters("ylm_point")["ylm_point"]["misses"]
        with pytest.raises(DomainError, match="90, -90"):
            ylm_point(90, held, 1.0, 0.5)
        assert counters("ylm_point")["ylm_point"]["misses"] == misses + 1


@pytest.mark.parametrize("fn", [synth, synth_dt, synth_drho])
@pytest.mark.parametrize("theta", [4.0, -0.1, math.nan])
def test_synthesis_refuses_theta_outside_0_pi(params_m0, fn, theta):
    # (theta, phi) = (4, 0) is the point (2 pi - 4, pi), where a one-label
    # l = m = 1 field has the opposite sign: P_l^m(cos theta) takes
    # |sin theta|, so the value there was another point's; a rep with no
    # nonzero coefficient refuses it too
    reps = [_tube_rep(), SliceRep({(1, 1, 1): (1.0, 0.5j)}),
            RodRep(OmegaGrid(0.5, (2,)), {(2, 1, 1): 1.0}),
            SliceRep({}), SliceRep({(1, 1, 1): (0.0, 0.0)})]
    for rep in reps:
        with pytest.raises(DomainError, match=r"theta = .* must lie in \[0, pi\]"):
            fn(rep, (0.3, 0.7, theta, 0.0), params_m0)
        for edge in (0.0, math.pi):
            assert math.isfinite(abs(fn(rep, (0.3, 0.7, edge, 0.0), params_m0)))

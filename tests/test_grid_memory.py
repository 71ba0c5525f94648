"""The slice and tube grid paths allocate little beyond the arrays they
return, and give the bits of the expressions they replaced.

Sizes are those of the dense benchmark: slice reps of (n_max, l_max) =
(1, 4) and (10, 10) sampled on 96 radial nodes, the node count of its slice
pairing quadratures (`adskg reconstruct` samples these reps on the 4 and 16
nodes of the exact Gauss-Jacobi rule), and a 16 x 32 angular grid; tube
reps of 6 and 20 frequencies at l_max = 2 and 6.  Peaks
are tracemalloc's, above what was allocated before the call, in units of one
sampled field: 96 x 16 x 32 complex values on a slice, n_t x 16 x 32 on a
tube.  A path that returns two fields (the field and its derivative) holds
two of them at its end; a quadrature holds two such samples.
"""

import math
import tracemalloc

import numpy as np
import pytest

from adskg import expansions as xp
from adskg.expansions import (OmegaGrid, SliceRep, TubeRep, invert_slice,
                              sample_slice, sample_tube)
from adskg.geometry import make_params, radial_measure
from adskg.harmonics import (AngularGrid, _theta_table, lm_count, lm_degree, lm_labels,
                             lm_mirror)
from adskg.memo import _REGISTRY
from adskg.minkowski import MinkTubeRep, _mink_tube_sum, mink_omega_tube_quadrature
from adskg.modes import norm_constant
from adskg.symplectic import (omega_slice_quadrature, omega_tube_quadrature,
                              symplectic_potential)

PARAMS = make_params(3, 1.0, 0.0)
ANG = AngularGrid(16, 32)
N_RHO = 96
SLICE_FIELD = N_RHO * 16 * 32 * 16   # bytes of one complex slice field
T0, RHO0 = 0.7, 0.9


def _cplx(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _slice_rep(rng, n_max, l_max):
    labels = [(n, l, m) for n in range(n_max + 1) for l in range(l_max + 1)
              for m in range(-l, l + 1)]
    return SliceRep(dict(zip(labels, map(tuple, _cplx(rng, (len(labels), 2))))))


def _tube_grid(n_freq):
    return OmegaGrid(0.45, tuple(range(-(n_freq // 2), n_freq - n_freq // 2)))


def _tube_coeffs(rng, n_freq, l_max):
    labels = [(k, l, m) for k in _tube_grid(n_freq).indices for l in range(l_max + 1)
              for m in range(-l, l + 1)]
    return dict(zip(labels, map(tuple, _cplx(rng, (len(labels), 2)))))


def _tube_field(n_freq):
    return (2 * (n_freq // 2) + 1) * 16 * 32 * 16  # the `_window` count of its labels


def _peak(fn, *args) -> int:
    """Bytes tracemalloc sees fn(*args) allocate at its peak, above what was
    allocated before; one call first fills the memos the call reads."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# --- the expressions the grid paths replaced, kept as oracles -------------------------

def _stacked_synthesize(ang, coef):
    """AngularGrid.synthesize as a take from a zero-padded copy and a product
    of the transposed theta sums with the phases."""
    l_max = lm_degree(coef.shape[-1] - 1)
    theta, _, phase = _theta_table(ang.n_theta, ang.n_phi, l_max)
    ls, ms = lm_labels(l_max)
    gather = np.full((2 * l_max + 1, l_max + 1), ls.size)  # lm at [m + l_max, l]
    gather[ms + l_max, ls] = np.arange(ls.size)
    flat = coef.reshape(-1, coef.shape[-1])
    padded = np.concatenate([flat, np.zeros((len(flat), 1), complex)], axis=1)
    part = np.take(padded.T, gather, axis=0)
    part = (theta @ part.view(float)).view(complex)
    out = part.T.reshape(-1, len(part)) @ phase
    return out.reshape(coef.shape[:-1] + (ang.n_theta, ang.n_phi))


def _spread_sample_slice(rep, t0, params, n_rho, ang):
    """sample_slice's (phi, dphi_dt) with the Jacobi kernel spread over lm."""
    rho, _ = radial_measure(params, n_rho)
    frequency, radial = xp._jacobi(rho, params)
    js, coef = rep.coeffs.js, rep.coeffs.array
    omega = xp._table(js, np.ones(coef.shape[1:]), frequency)
    plus = coef[0] * np.exp(-1j * omega * t0)
    minus = coef[1][:, lm_mirror(rep.coeffs.l_max)] * np.exp(1j * omega * t0)
    coefs = np.stack([plus + minus, -1j * omega * (plus - minus)])
    kern = xp._table(js, coefs, radial)
    return _stacked_synthesize(ang, np.einsum("sji,...ji->...si", kern, coefs))


def _stacked_invert_slice(data, params, n_max, l_max):
    """invert_slice's coefficient array from one projection of the stacked
    (phi, dphi_dt) against the Jacobi kernel spread over lm."""
    ns = range(n_max + 1)
    full = np.ones((n_max + 1, lm_count(l_max)))
    frequency, radial = xp._jacobi(data.rho_nodes, params)
    kern = xp._table(ns, full, radial)
    proj = data.angular.project(np.stack([data.phi, data.dphi_dt]), l_max)
    p_phi, p_dphi = np.einsum("s,sji,csi->cji", data.rho_weights, kern, proj)
    omega = xp._table(ns, full, frequency)
    nrm = xp._table(ns, full, lambda n, l: norm_constant("plus", n, l, params))
    f_c = np.exp(1j * omega * data.t0) / (2.0 * nrm)
    d_c = 1j * np.exp(1j * omega * data.t0) / (2.0 * omega * nrm)
    mirror = lm_mirror(l_max)
    return np.stack([f_c * p_phi + d_c * p_dphi,
                     np.conj(f_c) * p_phi[:, mirror] + np.conj(d_c) * p_dphi[:, mirror]])


def _slice_quadrature(eta, zeta, t0, params, n_rho, ang):
    de = sample_slice(eta, t0, params, n_rho, ang)
    dz = sample_slice(zeta, t0, params, n_rho, ang)
    total = np.dot(de.rho_weights, ang.integrate(de.phi * dz.dphi_dt - dz.phi * de.dphi_dt))
    return complex(-0.5 * params.R ** (params.d - 1) * total)


def _tube_quadrature(eta, zeta, rho0, params, ang):
    de = sample_tube(eta, rho0, params, ang)
    dz = sample_tube(zeta, rho0, params, ang)
    angular_sum = ang.integrate(de.phi * dz.dphi_drho - dz.phi * de.dphi_drho)
    total = eta.grid.window / len(de.t_nodes) * np.sum(angular_sum)
    return complex(0.5 * params.R ** (params.d - 1) * math.tan(rho0) ** (params.d - 1) * total)


def _potential(hypersurface, coord, phi, eta, params, n_rho, ang):
    rd = params.R ** (params.d - 1)
    if hypersurface == "t":
        d_eta = sample_slice(eta, coord, params, n_rho, ang)
        d_phi = sample_slice(phi, coord, params, n_rho, ang)
        return rd * np.dot(d_eta.rho_weights, ang.integrate(d_eta.phi * d_phi.dphi_dt))
    d_eta = sample_tube(eta, coord, params, ang)
    d_phi = sample_tube(phi, coord, params, ang)
    dt = eta.grid.window / len(d_eta.t_nodes)
    return (-rd * math.tan(coord) ** (params.d - 1) * dt
            * np.sum(ang.integrate(d_eta.phi * d_phi.dphi_drho)))


def _mink_quadrature(eta, zeta, r0, ang):
    span = np.max(np.abs(np.r_[eta.coeffs.js, zeta.coeffs.js]), initial=0)
    t_nodes = eta.grid.time_nodes(2 * span + 1)
    (fe, dfe), (fz, dfz) = (_mink_tube_sum(rep, t_nodes, ang, r0) for rep in (eta, zeta))
    dt = eta.grid.window / len(t_nodes)
    return 0.5 * r0 * r0 * dt * np.sum(ang.integrate(fe * dfz - fz * dfe))


# --- bit for bit ----------------------------------------------------------------------

def test_synthesize_is_the_stacked_expression_bit_for_bit(rng):
    for ang, l_max in ((ANG, 4), (ANG, 10), (AngularGrid(8, 12), 8),  # 2 l_max + 1 > 12
                       (AngularGrid(9, 7), 3), (AngularGrid(24, 48), 12), (ANG, 0)):
        for shape in ((), (1,), (3,), (2, 5), (2, 96), (0,)):
            coef = _cplx(rng, shape + (lm_count(l_max),))
            got = ang.synthesize(coef)
            assert got.flags.c_contiguous
            assert got.tobytes() == _stacked_synthesize(ang, coef).tobytes(), (l_max, shape)


def test_radial_sums_are_the_spread_kernel_bit_for_bit(rng):
    # a slice's real Jacobi kernel per degree, against it spread over lm in
    # the complex einsum, for sample_slice's sum and invert_slice's weighted one
    for l_max, n_s, n_j in ((0, 5, 3), (4, 96, 2), (10, 96, 11), (6, 21, 20)):
        ls = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
        kern = rng.normal(size=(n_s, n_j, l_max + 1))
        coef = _cplx(rng, (2, n_j, lm_count(l_max)))
        coef[:, :, ::7] = 0.0
        got = xp._by_degree("sj,...ji->...si", kern, coef,
                            np.empty((2, n_s, lm_count(l_max)), complex))
        assert got.tobytes() == np.einsum("sji,...ji->...si", kern[..., ls], coef).tobytes()
        weights, proj = rng.uniform(size=n_s), _cplx(rng, (2, n_s, lm_count(l_max)))
        got = xp._by_degree("sj,csi->cji", weights[:, None, None] * kern, proj,
                            np.empty((2, n_j, lm_count(l_max)), complex))
        want = np.einsum("s,sji,csi->cji", weights, kern[..., ls], proj)
        assert got.tobytes() == want.tobytes()
    # a tube's phases, one column for every degree, against them broadcast over lm
    phases, fold = _cplx(rng, (21, 20)), _cplx(rng, (2, 20, lm_count(6)))
    got = np.einsum("sj,...ji->...si", phases, fold)
    want = np.einsum("sji,...ji->...si", np.broadcast_to(phases[:, :, None], (21, 20, 49)), fold)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("msq", [0.0, -2.0, 1.0])
def test_sample_slice_is_the_spread_kernel_bit_for_bit(msq, rng):
    params = make_params(3, 1.0, msq)
    for n_max, l_max, n_rho, ang in ((1, 4, N_RHO, ANG), (10, 10, N_RHO, ANG),
                                     (3, 2, 20, AngularGrid(9, 7))):
        rep = _slice_rep(rng, n_max, l_max)
        data = sample_slice(rep, T0, params, n_rho, ang)
        want = _spread_sample_slice(rep, T0, params, n_rho, ang)
        assert data.phi.tobytes() == want[0].tobytes()
        assert data.dphi_dt.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("msq", [0.0, -2.0, 1.0])
def test_invert_slice_is_the_stacked_projection_bit_for_bit(msq, rng):
    params = make_params(3, 1.0, msq)
    for n_max, l_max in ((1, 4), (4, 7), (10, 10)):
        data = sample_slice(_slice_rep(rng, n_max, l_max), T0, params, N_RHO, ANG)
        want = _stacked_invert_slice(data, params, n_max, l_max)
        for check in (False, True):
            got = invert_slice(data, params, n_max, l_max, check_residual=check)
            assert got.coeffs.array.tobytes() == want.tobytes()


def test_quadratures_are_the_product_expressions_bit_for_bit(rng):
    for n_max, l_max in ((1, 4), (10, 10)):
        eta, zeta = _slice_rep(rng, n_max, l_max), _slice_rep(rng, n_max, l_max)
        for a, b in ((eta, zeta), (zeta, eta), (eta, eta)):
            assert omega_slice_quadrature(a, b, T0, PARAMS, N_RHO, ANG) \
                == _slice_quadrature(a, b, T0, PARAMS, N_RHO, ANG)
            assert symplectic_potential("t", T0, a, b, PARAMS, N_RHO, ANG) \
                == _potential("t", T0, a, b, PARAMS, N_RHO, ANG)
    for n_freq, l_max in ((6, 2), (20, 6)):
        grid = _tube_grid(n_freq)
        for basis in ("S", "C"):
            eta, zeta = (TubeRep(grid, _tube_coeffs(rng, n_freq, l_max), basis) for _ in "ab")
            for a, b in ((eta, zeta), (eta, eta)):
                assert omega_tube_quadrature(a, b, RHO0, PARAMS, ANG) \
                    == _tube_quadrature(a, b, RHO0, PARAMS, ANG)
                assert symplectic_potential("rho", RHO0, a, b, PARAMS, N_RHO, ANG) \
                    == _potential("rho", RHO0, a, b, PARAMS, N_RHO, ANG)
        eta, zeta = (MinkTubeRep(grid, _tube_coeffs(rng, n_freq, l_max), 0.3) for _ in "ab")
        for a, b in ((eta, zeta), (eta, eta)):
            assert mink_omega_tube_quadrature(a, b, 1.3, ANG) == _mink_quadrature(a, b, 1.3, ANG)


# --- what a quadrature writes -----------------------------------------------------------

def _memo_bytes() -> dict:
    """Every memo entry's arrays, as bytes."""
    def flat(value):
        if isinstance(value, np.ndarray):
            return [value.tobytes()]
        return [b for v in value for b in flat(v)] if isinstance(value, tuple) else [repr(value)]
    return {(name, k): flat(v) for name, cache in _REGISTRY.items()
            for k, v in cache._store.items()}


def test_quadratures_write_only_their_own_samples(rng):
    slices = [_slice_rep(rng, 2, 5) for _ in "ab"]
    grid = _tube_grid(8)
    tubes = [TubeRep(grid, _tube_coeffs(rng, 8, 3), "C") for _ in "ab"]
    minks = [MinkTubeRep(grid, _tube_coeffs(rng, 8, 3), 0.3) for _ in "ab"]
    calls = [(omega_slice_quadrature, (*slices, T0, PARAMS, N_RHO, ANG)),
             (symplectic_potential, ("t", T0, *slices, PARAMS, N_RHO, ANG)),
             (omega_tube_quadrature, (*tubes, RHO0, PARAMS, ANG)),
             (symplectic_potential, ("rho", RHO0, *tubes, PARAMS, N_RHO, ANG)),
             (mink_omega_tube_quadrature, (*minks, 1.3, ANG))]
    on_slice = sample_slice(slices[0], T0, PARAMS, N_RHO, ANG)
    on_tube = sample_tube(tubes[0], RHO0, PARAMS, ANG)
    held = [on_slice.phi, on_slice.dphi_dt, on_tube.phi, on_tube.dphi_drho]
    held_bytes = [x.tobytes() for x in held]
    rep_bytes = [r.coeffs.array.tobytes() for r in slices + tubes + minks]
    for fn, args in calls:
        first = fn(*args)
        memos = _memo_bytes()
        assert fn(*args) == first  # on the memo tables the first call left
        assert _memo_bytes() == memos
    assert [r.coeffs.array.tobytes() for r in slices + tubes + minks] == rep_bytes
    assert [x.tobytes() for x in held] == held_bytes
    for a in (ANG.cos_nodes, ANG.cos_weights, ANG.theta, ANG.phi):
        assert not a.flags.writeable


# --- peaks --------------------------------------------------------------------------------

def test_invert_slice_projects_one_field_at_a_time(rng):
    # the stacked projection held the stack and its FFT: 4.3 fields; now 1.2
    data = sample_slice(_slice_rep(rng, 1, 4), T0, PARAMS, N_RHO, ANG)
    assert _peak(invert_slice, data, PARAMS, 1, 4, False) <= 1.5 * SLICE_FIELD


# the residual check synthesizes phi alone, after the projections are freed:
# (n_max, l_max), the bound in fields; before, 2.8, 3.6 and 4.7 fields, now
# 1.5, 1.7 and 2.35
@pytest.mark.parametrize("rung, bound", [((1, 4), 1.6), ((4, 7), 1.8), ((10, 10), 2.45)])
def test_invert_slice_residual_check_peak(rng, rung, bound):
    data = sample_slice(_slice_rep(rng, *rung), T0, PARAMS, N_RHO, ANG)
    assert _peak(invert_slice, data, PARAMS, *rung, True) <= bound * SLICE_FIELD


# (n_max, l_max), the bound in fields; before, 3.5 and 7.5 fields, now 2.7
# and 3.9
@pytest.mark.parametrize("rung, bound", [((1, 4), 2.75), ((10, 10), 4.1)])
def test_sample_slice_peak(rng, rung, bound):
    rep = _slice_rep(rng, *rung)
    assert _peak(sample_slice, rep, T0, PARAMS, N_RHO, ANG) <= bound * SLICE_FIELD


# slice quadrature and potential: two samples of two fields and the second
# sample's transient; before, 6.0 and 9.5 fields (5.5 for the potential at
# (1, 4)), now 4.7 and 5.9
@pytest.mark.parametrize("rung, bound", [((1, 4), 4.75), ((10, 10), 6.1)])
def test_slice_quadrature_peaks(rng, rung, bound):
    eta, zeta = _slice_rep(rng, *rung), _slice_rep(rng, *rung)
    assert _peak(omega_slice_quadrature, eta, zeta, T0, PARAMS, N_RHO, ANG) <= bound * SLICE_FIELD
    assert _peak(symplectic_potential, "t", T0, eta, zeta, PARAMS, N_RHO, ANG) \
        <= bound * SLICE_FIELD


# (frequencies, l_max), the bound in tube fields; before, 7.0 fields for each
# quadrature at both sizes and 5.1 and 6.3 for the potential; now 4.4-4.5
# and 5.2
@pytest.mark.parametrize("rung, bound", [((6, 2), 4.7), ((20, 6), 5.45)])
def test_tube_quadrature_peaks(rng, rung, bound):
    n_freq, l_max = rung
    grid, field = _tube_grid(n_freq), _tube_field(n_freq)
    eta, zeta = (TubeRep(grid, _tube_coeffs(rng, n_freq, l_max), "S") for _ in "ab")
    assert _peak(omega_tube_quadrature, eta, zeta, RHO0, PARAMS, ANG) <= bound * field
    assert _peak(symplectic_potential, "rho", RHO0, eta, zeta, PARAMS, N_RHO, ANG) \
        <= bound * field
    meta, mzeta = (MinkTubeRep(grid, _tube_coeffs(rng, n_freq, l_max), 0.3) for _ in "ab")
    assert _peak(mink_omega_tube_quadrature, meta, mzeta, 1.3, ANG) <= bound * field

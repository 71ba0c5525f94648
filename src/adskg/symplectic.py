"""Symplectic structures on equal-time surfaces and hypercylinders, in both
coordinate (quadrature) and momentum representation, plus the symplectic
potential they derive from.

Conventions (coordinate forms):

  w_{Sigma_t}(eta, zeta)   = -(1/2) int drho dOmega R^{d-1} tan^{d-1}
                             (eta d_t zeta - zeta d_t eta)
  w_{Sigma_rho}(eta, zeta) = +(1/2) int dt dOmega R^{d-1} tan^{d-1}(rho0)
                             (eta d_rho zeta - zeta d_rho eta)

Both are hypersurface-independent on solutions; the momentum forms are the
label-diagonal sums displayed in the module functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BasisMismatch
from .expansions import SliceRep, TubeRep, _table, sample_slice, sample_tube
from .geometry import AdsParams
from .harmonics import AngularGrid, lm_count, lm_mirror, require_two_sphere
from .modes import magic_frequency, norm_constant


def _framed(c, js, l_max: int, mirror: bool = False):
    """The (channel, j, lm) array and (j, lm) mask of the stored coefficients
    c on the rows js and the packed lm up to l_max, zero (False) off c's
    labels; mirrored, row -j and column (l, -m) hold c's entry at (j, l, m)."""
    array = np.zeros((len(c.array), len(js), lm_count(l_max)), dtype=complex)
    mask = np.zeros(array.shape[1:], dtype=bool)
    rows = np.searchsorted(js, -c.js if mirror else c.js)[:, None]
    lm = lm_mirror(c.l_max) if mirror else np.arange(c.mask.shape[1])
    array[:, rows, lm], mask[rows, lm] = c.array, c.mask
    return array, mask


def _same_label_pairing(eta, zeta, weight) -> complex:
    """sum over the sorted labels of eta or zeta of weight(j, l) (conj(eta^-)
    zeta^+ - eta^+ conj(zeta^-)), weight called once, on the arrays of the
    (j, l) blocks holding a label."""
    js = np.union1d(eta.coeffs.js, zeta.coeffs.js)
    l_max = max(eta.coeffs.l_max, zeta.coeffs.l_max)
    (ep, eq), e_mask = _framed(eta.coeffs, js, l_max)
    (zp, zq), z_mask = _framed(zeta.coeffs, js, l_max)
    held = e_mask | z_mask
    w = _table(js, held, weight)
    return np.sum((w * (eq * zp - ep * zq))[held])


def _mirror_pairing(eta, zeta, weight) -> complex:
    """sum over eta's sorted labels of weight(k, l) (eta^a zeta^b - eta^b
    zeta^a), zeta at (-k, l, -m), weight called once, on the arrays of the
    (k, l) blocks holding a label of eta."""
    js = np.union1d(eta.coeffs.js, -zeta.coeffs.js)
    l_max = max(eta.coeffs.l_max, zeta.coeffs.l_max)
    (ea, eb), held = _framed(eta.coeffs, js, l_max)
    (za, zb), _ = _framed(zeta.coeffs, js, l_max, mirror=True)
    w = _table(js, held, weight)
    return np.sum((w * (ea * zb - eb * za))[held])


def _antisymmetrized(a, da, b, db) -> np.ndarray:
    """a db - b da of two sampled fields and their derivatives, formed in a
    and b: the caller owns both samples and reads neither again."""
    a *= db
    b *= da
    a -= b
    return a


def omega_slice_quadrature(eta: SliceRep, zeta: SliceRep, t0: float,
                           params: AdsParams, n_rho: int = 128,
                           angular: AngularGrid | None = None) -> complex:
    """-(1/2) int drho dOmega R^{d-1} tan^{d-1} (eta d_t zeta - zeta d_t eta)
    at t = t0; time derivatives are analytic phase factors."""
    ang = angular or AngularGrid()
    de = sample_slice(eta, t0, params, n_rho, ang)
    dz = sample_slice(zeta, t0, params, n_rho, ang)
    angular_sum = ang.integrate(_antisymmetrized(de.phi, de.dphi_dt, dz.phi, dz.dphi_dt))
    total = np.dot(de.rho_weights, angular_sum)
    return complex(-0.5 * params.R ** (params.d - 1) * total)


def omega_slice_momentum(eta: SliceRep, zeta: SliceRep,
                         params: AdsParams) -> complex:
    """+i sum w+_{nl} R^{d-1} N+_{nl} (conj(eta^-) zeta^+ - eta^+ conj(zeta^-));
    d = 3 only (UnsupportedDimension otherwise): the labels are S^2 ones."""
    require_two_sphere(params.d)
    rd = params.R ** (params.d - 1)
    return complex(_same_label_pairing(eta, zeta, lambda n, l: (
        1j * magic_frequency("plus", n, l, params) * rd
        * norm_constant("plus", n, l, params))))


def omega_tube_quadrature(eta: TubeRep, zeta: TubeRep, rho0: float,
                          params: AdsParams,
                          angular: AngularGrid | None = None) -> complex:
    """(1/2) int dt dOmega R^{d-1} tan^{d-1}(rho0) (eta d_rho zeta - zeta
    d_rho eta) over one time window; radial derivatives are term-wise
    analytic."""
    if eta.grid != zeta.grid:
        raise BasisMismatch("tube pairing needs a shared frequency grid")
    ang = angular or AngularGrid()
    de = sample_tube(eta, rho0, params, ang)
    dz = sample_tube(zeta, rho0, params, ang)
    angular_sum = ang.integrate(_antisymmetrized(de.phi, de.dphi_drho, dz.phi, dz.dphi_drho))
    dt = eta.grid.window / len(de.t_nodes)
    total = dt * np.sum(angular_sum)
    tan_fac = math.tan(rho0) ** (params.d - 1)
    return complex(0.5 * params.R ** (params.d - 1) * tan_fac * total)


def omega_tube_momentum(eta: TubeRep, zeta: TubeRep,
                        params: AdsParams) -> complex:
    """pi R^{d-1} d_omega sum (eta^a_{k,l,m} zeta^b_{-k,l,-m} -
    eta^b_{k,l,m} zeta^a_{-k,l,-m}) (2l+d-2), the factor becoming 2 nu in
    the C basis.  d = 3 only (UnsupportedDimension otherwise): the labels are
    S^2 ones."""
    require_two_sphere(params.d)
    if eta.basis != zeta.basis:
        raise BasisMismatch(f"bases differ: {eta.basis} vs {zeta.basis}")
    if eta.grid != zeta.grid:
        raise BasisMismatch("tube pairing needs a shared frequency grid")
    d = params.d
    total = _mirror_pairing(eta, zeta, lambda k, l: np.where(
        eta.basis == "S", 2 * l + d - 2, 2.0 * params.nu))
    return complex(math.pi * params.R ** (d - 1) * eta.grid.d_omega * total)


def symplectic_potential(hypersurface: str, coord: float, phi, eta,
                         params: AdsParams, n_rho: int = 128,
                         angular: AngularGrid | None = None) -> complex:
    """Symplectic potential theta^Sigma_phi(eta): the boundary term of the
    action differential, integrated over Sigma with the scalar-field
    conjugate momentum density of phi.

      Sigma_t:   theta = + int drho dOmega R^{d-1} tan^{d-1} eta d_t phi
      Sigma_rho: theta = - int dt dOmega R^{d-1} tan^{d-1} eta d_rho phi

    With these orientations, -(1/2)(theta_zeta(eta) - theta_eta(zeta))
    reproduces the corresponding symplectic structure for both surfaces.
    `hypersurface` is "t" or "rho"; `coord` the surface location.
    """
    ang = angular or AngularGrid()
    rd = params.R ** (params.d - 1)
    if hypersurface == "t":
        d_eta = sample_slice(eta, coord, params, n_rho, ang)
        d_phi = sample_slice(phi, coord, params, n_rho, ang)
        angular_sum = ang.integrate(np.multiply(d_eta.phi, d_phi.dphi_dt, out=d_eta.phi))
        return rd * np.dot(d_eta.rho_weights, angular_sum)
    if hypersurface == "rho":
        d_eta = sample_tube(eta, coord, params, ang)
        d_phi = sample_tube(phi, coord, params, ang)
        angular_sum = ang.integrate(np.multiply(d_eta.phi, d_phi.dphi_drho, out=d_eta.phi))
        dt = eta.grid.window / len(d_eta.t_nodes)
        tan_fac = math.tan(coord) ** (params.d - 1)
        return -rd * tan_fac * dt * np.sum(angular_sum)
    raise ValueError("hypersurface must be 't' or 'rho'")

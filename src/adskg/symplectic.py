"""Symplectic structures on equal-time surfaces and hypercylinders, in both
coordinate (quadrature) and momentum representation, plus the symplectic
potential they derive from.

Conventions (coordinate forms):

  w_{Sigma_t}(eta, zeta)   = -(1/2) int drho dOmega R^{d-1} tan^{d-1}
                             (eta d_t zeta - zeta d_t eta)
  w_{Sigma_rho}(eta, zeta) = +(1/2) int dt dOmega R^{d-1} tan^{d-1}(rho0)
                             (eta d_rho zeta - zeta d_rho eta)

Both are hypersurface-independent on solutions; the momentum forms are the
label-diagonal sums displayed in the module functions.  The quadratures are
sized by the exactness rules of `expansions` for the larger of their two
reps, by default; a smaller n_rho or angular grid raises ValueError.  A form
on Sigma_t takes slice reps, one on Sigma_rho tube or rod reps of one grid
(`expansions._require`; the momentum form one basis), BasisMismatch otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BasisMismatch
from .expansions import (_TUBES, SliceRep, TubeRep, _angular_rule, _extent, _pair,
                         _require, _row, _s_or_c, _slice_nodes, _tube_sum, _window,
                         sample_slice, sample_tube)
from .geometry import AdsParams
from .harmonics import AngularGrid, lm_labels, lm_mirror, require_two_sphere
from .modes import magic_frequency, norm_constant


def _gather(c, j, lm) -> np.ndarray:
    """The (channel, label) entries of the stored coefficients c at the
    labels (j, packed lm): c's array where they fall inside it, zero where
    they fall off its rows or degrees."""
    if not len(c.js):
        return np.zeros((len(c.array), len(j)), dtype=complex)
    rows = np.minimum(c.js.searchsorted(j), len(c.js) - 1)
    cols = np.minimum(lm, c.mask.shape[1] - 1)
    return np.where((c.js[rows] == j) & (lm == cols), c.array[:, rows, cols], 0j)


def _weighted_sum(j, lm, l_max: int, weight, terms) -> complex:
    """np.sum of weight(j, l) terms over the labels (j, packed lm), sorted by
    (j, lm) and unique, in that order; weight is called once, on the arrays
    of the (j, l) blocks the labels fall in, in that order."""
    if not len(j):
        return terms.sum()
    l = lm_labels(l_max)[0][lm]
    first = np.empty(len(j), dtype=bool)
    first[0], first[1:] = True, (j[1:] != j[:-1]) | (l[1:] != l[:-1])
    w = np.asarray(weight(j[first], l[first]))[first.cumsum() - 1]
    return (w * terms).sum()


def _same_label_pairing(classes: tuple, eta, zeta, weight) -> complex:
    """sum over the sorted labels of eta or zeta of weight(j, l) (conj(eta^-)
    zeta^+ - eta^+ conj(zeta^-)), weight called once, on the arrays of the
    (j, l) blocks holding a label; BasisMismatch unless `_require` of the
    classes takes both reps."""
    e, z = _require(classes, eta, zeta).coeffs, zeta.coeffs
    j, lm = (np.concatenate(pair) for pair in zip(e.entries()[:2], z.entries()[:2]))
    order = np.lexsort((lm, j))
    j, lm = j[order], lm[order]
    new = np.empty(len(j), dtype=bool)
    new[:1], new[1:] = True, (j[1:] != j[:-1]) | (lm[1:] != lm[:-1])
    j, lm = j[new], lm[new]
    (ep, eq), (zp, zq) = _gather(e, j, lm), _gather(z, j, lm)
    return _weighted_sum(j, lm, max(e.l_max, z.l_max), weight, eq * zp - ep * zq)


def _mirror_pairing(classes: tuple, eta, zeta, weight) -> complex:
    """sum over eta's sorted labels of weight(k, l) (eta^a zeta^b - eta^b
    zeta^a), zeta at (-k, l, -m), weight called once, on the arrays of the
    (k, l) blocks holding a label of eta; a rod's b is zero.  BasisMismatch
    unless `_require` of the classes takes both reps."""
    e, z = _require(classes, eta, zeta).coeffs, zeta.coeffs
    j, lm, values = e.entries()
    (ea, eb), (za, zb) = _pair(values), _pair(_gather(z, -j, lm_mirror(e.l_max)[lm]))
    return _weighted_sum(j, lm, e.l_max, weight, ea * zb - eb * za)


def _antisymmetrized(a, da, b, db) -> np.ndarray:
    """a db - b da of two sampled fields and their derivatives, formed in a
    and b: the caller owns both samples and reads neither again."""
    a *= db
    b *= da
    a -= b
    return a


def omega_slice_quadrature(eta: SliceRep, zeta: SliceRep, t0: float,
                           params: AdsParams, n_rho: int | None = None,
                           angular: AngularGrid | None = None) -> complex:
    """-(1/2) int drho dOmega R^{d-1} tan^{d-1} (eta d_t zeta - zeta d_t eta)
    at t = t0; time derivatives are analytic phase factors."""
    n_max, l_max = _extent(_require((SliceRep,), eta, zeta), zeta)
    n_rho, ang = _slice_nodes(n_max, l_max, n_rho), _angular_rule(l_max, angular)
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
    return complex(_same_label_pairing((SliceRep,), eta, zeta, lambda n, l: (
        1j * magic_frequency("plus", n, l, params) * rd
        * norm_constant("plus", n, l, params))))


def omega_tube_quadrature(eta: TubeRep, zeta: TubeRep, rho0: float,
                          params: AdsParams,
                          angular: AngularGrid | None = None) -> complex:
    """(1/2) int dt dOmega R^{d-1} tan^{d-1}(rho0) (eta d_rho zeta - zeta
    d_rho eta) over one time window; radial derivatives are term-wise
    analytic."""
    ang = _angular_rule(_extent(_require(_TUBES, eta, zeta), zeta)[1], angular)
    t_nodes = _window(eta, zeta)
    (fe, dfe), (fz, dfz) = (_tube_sum(rep, t_nodes, ang, _s_or_c(rep.basis, rho0, params))
                            for rep in (eta, zeta))
    total = eta.grid.window / len(t_nodes) * np.sum(
        ang.integrate(_antisymmetrized(fe, dfe, fz, dfz)))
    tan_fac = math.tan(rho0) ** (params.d - 1)
    return complex(0.5 * params.R ** (params.d - 1) * tan_fac * total)


def omega_tube_momentum(eta: TubeRep, zeta: TubeRep,
                        params: AdsParams) -> complex:
    """pi R^{d-1} d_omega sum (eta^a_{k,l,m} zeta^b_{-k,l,-m} -
    eta^b_{k,l,m} zeta^a_{-k,l,-m}) (2l+d-2), the factor becoming 2 nu in
    the C basis.  d = 3 only (UnsupportedDimension otherwise): the labels are
    S^2 ones."""
    require_two_sphere(params.d)
    d = params.d
    total = _mirror_pairing(_TUBES, eta, zeta, lambda k, l: np.where(
        eta.basis == "S", 2 * l + d - 2, 2.0 * params.nu))
    if eta.basis != zeta.basis:  # read once `_mirror_pairing` has taken both reps
        raise BasisMismatch(f"bases differ: {eta.basis} vs {zeta.basis}")
    return complex(math.pi * params.R ** (d - 1) * eta.grid.d_omega * total)


def symplectic_potential(hypersurface: str, coord: float, phi, eta,
                         params: AdsParams, n_rho: int | None = None,
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
    if hypersurface not in ("t", "rho"):
        raise ValueError("hypersurface must be 't' or 'rho'")
    n_max, l_max = _extent(_require((SliceRep,) if hypersurface == "t" else _TUBES, phi, eta), eta)
    ang = _angular_rule(l_max, angular)
    rd = params.R ** (params.d - 1)
    if hypersurface == "t":
        n_rho = _slice_nodes(n_max, l_max, n_rho)
        d_eta = sample_slice(eta, coord, params, n_rho, ang)
        d_phi = sample_slice(phi, coord, params, n_rho, ang)
        angular_sum = ang.integrate(np.multiply(d_eta.phi, d_phi.dphi_dt, out=d_eta.phi))
        return rd * np.dot(d_eta.rho_weights, angular_sum)
    t_nodes = _window(eta, phi)
    (f_eta,), (df_phi,) = (_tube_sum(rep, t_nodes, ang, _row(_s_or_c(
        rep.basis, coord, params), row)) for rep, row in ((eta, 0), (phi, 1)))
    angular_sum = ang.integrate(np.multiply(f_eta, df_phi, out=f_eta))
    tan_fac = math.tan(coord) ** (params.d - 1)
    return -rd * tan_fac * (eta.grid.window / len(t_nodes)) * np.sum(angular_sum)

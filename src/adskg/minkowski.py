"""Minkowski (d = 3) reference theory: jcheck/ncheck radial functions,
slice and tube expansions, their symplectic structures, the coefficients of
the Killing fields, and the flat-limit comparison harness against the AdS
machinery.

Tube representations live on an EnergyGrid (E_k = k dE, integral realized
as dE * sum, conjugate window T = 2 pi / dE).  Slice representations are
point-supported in the radial momentum p; their symplectic pairing is the
label-diagonal momentum form (a continuum quadrature form would be
delta-normalized for point labels).

Synthesis runs through the AdS kernels of `expansions` with J^+ -> 2 p
(2 pi)^{-1/2} j_l(p r) and (S^a, S^b) -> (p_E / 4 pi)(jcheck, ncheck), and
the momentum forms are the label sums of `symplectic` with Minkowski weights.

Flat-limit per-mode map used by the comparison harness: for the AdS label
(n, l, m) with w = w+_{nl}, w~ = w/R, p~ = sqrt|w~^2 - m^2|,

    J+_{nl}(r/R) -> (2l+d-2)!! / (p^R)^l  j_l(p~ r),

so field-equal representations satisfy phi_AdS = T' phi_Mink with
T' = 2 p~ (p^R)^l / (sqrt(2 pi) (2l+d-2)!!), and label-diagonal symplectic
contributions match after the measure Jacobian dn/dp~ = R p~ / (2 w~).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_in, spherical_kn

from .errors import DomainError
from .expansions import (OmegaGrid, SliceRep, _Labelled, _angular_rule, _extent,
                         _slice_sum, _tube_sum, synth)
from .geometry import (AdsParams, Boost0, BoostD1, flat_labels, flat_unscale,
                       killing_coefficients, make_params)
from .harmonics import AngularGrid
from .modes import RadialKind, magic_frequency, radial_eval
from .specfun import spherical_bessel, spherical_bessel_dx
from .symplectic import (_antisymmetrized, _mirror_pairing, _same_label_pairing,
                         omega_slice_momentum)

EnergyGrid = OmegaGrid  # same discretization: E_k = k dE, window 2 pi / dE


@dataclass(frozen=True)
class MinkTubeRep(_Labelled):
    """Sparse tube rep on an EnergyGrid: (k, l, m) -> (a, b)."""

    grid: EnergyGrid
    coeffs: dict
    m_field: float = 0.0


@dataclass(frozen=True)
class MinkSliceRep(_Labelled):
    """Point-supported slice rep: (p, l, m) -> (phi_plus, phi_minus_conj),
    the radial momentum p any finite real."""

    coeffs: dict
    m_field: float = 0.0
    _whole_j = False


# ---------------------------------------------------------------------------
# radial functions; the evanescent branch in closed form through the
# modified spherical Bessel functions i_l and k_l:
#   i^{-l} j_l(i x) = i_l(x),  i^{l+1} n_l(i x) = (-1)^{l+1} i_l(x) - (2/pi) k_l(x)
# ---------------------------------------------------------------------------

def _momentum(E, m_field: float):
    """Radial momentum p = sqrt|E^2 - m^2| of energy E; broadcasts."""
    return np.sqrt(np.abs(E * E - m_field * m_field))


def _check(kinds: str, E, l, r, m_field: float, dr: bool = False):
    """jcheck ("J") and ncheck ("N") at r, or their d/dr if dr, for each
    character of kinds over broadcast E, l and r: shape (len(kinds),) + the
    broadcast shape.  The spherical Bessel function of p r where
    D = E^2 - m^2 >= 0, its evanescent continuation where D < 0: one scipy
    call per branch and kind, the i_l of that continuation shared by both
    kinds.  ncheck needs r > 0 and D != 0 at every element."""
    E = np.asarray(E, float)
    d_disc, p = E * E - m_field * m_field, _momentum(E, m_field)
    if "N" in kinds and (np.asarray(r) <= 0.0).any():
        raise DomainError("ncheck needs r > 0")
    if "N" in kinds and (d_disc == 0.0).any():
        raise DomainError("ncheck diverges at the threshold |E| = m")
    l, x, ev = np.broadcast_arrays(l, p * r, d_disc < 0.0)
    out, prop = np.empty((len(kinds),) + x.shape), ~ev
    if prop.any():
        for i, kind in enumerate(kinds):
            out[i, prop] = (spherical_bessel_dx if dr else spherical_bessel)(
                kind, l[prop], x[prop])
    if ev.any():
        l, x = l[ev], x[ev]
        i_l = spherical_in(l, x, dr)
        for i, kind in enumerate(kinds):
            out[i, ev] = i_l if kind == "J" else (np.where(l % 2 == 1, 1.0, -1.0) * i_l
                                                  - 2.0 / math.pi * spherical_kn(l, x, dr))
    return p * out if dr else out


def jcheck(E, l, r, m_field: float):
    """Radial tube function: j_l(p r) on the propagating branch
    (D = E^2 - m^2 >= 0), i^{-l} j_l(i p r) on the evanescent branch; E, l
    and r broadcast."""
    return _check("J", E, l, r, m_field)[0][()]


def ncheck(E, l, r, m_field: float):
    """Radial tube function: n_l(p r) / i^{l+1} n_l(i p r); r > 0."""
    return _check("N", E, l, r, m_field)[0][()]


def jcheck_dr(E, l, r, m_field: float):
    return _check("J", E, l, r, m_field, True)[0][()]


def ncheck_dr(E, l, r, m_field: float):
    return _check("N", E, l, r, m_field, True)[0][()]


# ---------------------------------------------------------------------------
# synthesis and symplectic structures
# ---------------------------------------------------------------------------

def mink_synth_slice(rep: MinkSliceRep, point) -> complex:
    """sum over labels of 2 p (2 pi)^{-1/2} j_l(p r) [phi^+ e^{-iEt} Y +
    conj(phi^-) e^{+iEt} conj(Y)]."""
    t, r, theta, phi = point
    m_f = rep.m_field
    out = _slice_sum(rep, t, (r,), (theta, phi), lambda p, l: np.sqrt(
        p * p + m_f * m_f), lambda p, l: [[
            2.0 * p / math.sqrt(2.0 * math.pi) * spherical_bessel("J", l, p * r)]])
    return complex(out[0, 0, 0])


def _mink_tube_sum(rep: MinkTubeRep, t, where, r: float) -> np.ndarray:
    """`expansions._tube_sum` with (S^a, S^b) -> (p_E / 4 pi)(jcheck, ncheck)
    at r: the field and its d/dr at the times t and the angular points
    `where`; one `_check` call per d/dr over the channels and (E, l) blocks."""
    m_f = rep.m_field

    def radial(chs, energy, l):
        kinds = "".join("JN"[ch] for ch in chs)
        checks = np.array([_check(kinds, energy, l, r, m_f, dr) for dr in (False, True)])
        # block-major in memory: the point contraction's BLAS product gives
        # the per-(E, l) tabulation's bits on this layout only
        table = np.ascontiguousarray(checks.transpose(2, 1, 0))
        return (table * (_momentum(energy, m_f) / (4.0 * math.pi))[:, None, None]
                ).transpose(1, 2, 0)

    return _tube_sum(rep, t, where, radial)


def mink_synth_tube(rep: MinkTubeRep, point) -> complex:
    """dE sum over labels of (p^R_E / 4 pi) [a jcheck + b ncheck] e^{-iEt} Y."""
    t, r, theta, phi = point
    return complex(_mink_tube_sum(rep, t, (theta, phi), r)[0, 0])


def mink_synth_tube_dr(rep: MinkTubeRep, point) -> complex:
    t, r, theta, phi = point
    return complex(_mink_tube_sum(rep, t, (theta, phi), r)[1, 0])


def mink_omega_slice(eta: MinkSliceRep, zeta: MinkSliceRep) -> complex:
    """Momentum form +i sum E_p (conj(eta^-) zeta^+ - eta^+ conj(zeta^-)).

    Point-supported labels admit no finite radial quadrature form (the
    continuum pairing is delta-normalized), so only this form is exposed.
    """
    m_f = eta.m_field
    return _same_label_pairing(eta, zeta, lambda p, l: 1j * np.sqrt(p * p + m_f * m_f))


def mink_omega_tube_momentum(eta: MinkTubeRep, zeta: MinkTubeRep) -> complex:
    """dE sum (p_E / 16 pi) (eta^a_{Elm} zeta^b_{-E,l,-m} - eta^b zeta^a)."""
    d_e, m_f = eta.grid.d_omega, eta.m_field
    return d_e * _mirror_pairing(eta, zeta, lambda k, l: _momentum(
        k * d_e, m_f) / (16.0 * math.pi))


def mink_omega_tube_quadrature(eta: MinkTubeRep, zeta: MinkTubeRep,
                               r0: float,
                               angular: AngularGrid | None = None) -> complex:
    """(r0^2/2) int dt dOmega (eta d_r zeta - zeta d_r eta) over one window,
    on the angular grid of `symplectic`'s quadratures."""
    span, l_max = _extent(eta, zeta)
    ang = _angular_rule(l_max, angular)
    t_nodes = eta.grid.time_nodes(2 * span + 1)
    (fe, dfe), (fz, dfz) = (_mink_tube_sum(rep, t_nodes, ang, r0)
                            for rep in (eta, zeta))
    dt = eta.grid.window / len(t_nodes)
    return 0.5 * r0 * r0 * dt * np.sum(ang.integrate(_antisymmetrized(fe, dfe, fz, dfz)))


# ---------------------------------------------------------------------------
# Minkowski Killing fields
# ---------------------------------------------------------------------------

def mink_killing_coefficients(name: str, tau, r, xi, j: int = 3):
    """(c_tau, c_r, v) of a Minkowski Killing field c_tau d_tau + c_r d_r +
    v . d_xi at (tau, r, xi), r > 0, v tangent to the sphere: with
    P_j = e_j - xi_j xi, "Tj" = xi_j d_r + (1/r) P_j and
    "K0j" = -r xi_j d_tau - tau xi_j d_r - (tau/r) P_j."""
    xi = np.asarray(xi, dtype=float)
    x = xi[j - 1]
    p_j = -x * xi
    p_j[j - 1] += 1.0
    if name == "Tj":
        return 0.0, x, p_j / r
    if name == "K0j":
        return -r * x, -tau * x, -tau / r * p_j
    raise ValueError(f"unknown Minkowski generator {name!r}")


# ---------------------------------------------------------------------------
# flat-limit comparison harness
# ---------------------------------------------------------------------------

def _flat_map_factor(params: AdsParams, n: int, l: int) -> tuple[float, float, float]:
    """(omega_tilde, p_tilde, T') for the per-mode flat-limit map."""
    om_t, p_r, p_t = flat_labels(params, magic_frequency("plus", n, l, params))
    t_fac = 2.0 * p_t * p_r ** l / (math.sqrt(2.0 * math.pi)
                                    * math.prod(range(2 * l + params.d - 2, 0, -2)))
    return om_t, p_t, t_fac


def flat_limit_compare(m_field: float = 0.0, R_values=(100.0, 1000.0)) -> dict:
    """Error table for the three flat-limit claims, per curvature radius:

      radial:       rescaled S^a vs jcheck on the r window
      slice_synth:  3-label Jacobi synthesis vs Minkowski slice synthesis
      symplectic:   label-diagonal slice pairings under the per-mode map

    tau = 0.7, r = 0.5 .. 5, the field mass and omega_tilde = 1.3 (l = 0, 1,
    2) are held fixed while R grows; every entry should shrink roughly like
    1/R^2 (radial, synthesis) or 1/R (symplectic normalization).
    """
    out = {"radial": {}, "slice_synth": {}, "symplectic": {}}
    omega_tilde, l_values, tau, theta0, phi0 = 1.3, (0, 1, 2), 0.7, 1.1, 0.4
    r_values = (0.5, 1.0, 3.0, 5.0)
    for R in R_values:
        params = make_params(3, R, m_field * m_field)
        # (i) rescaled radial function vs jcheck: one array call of each
        # over (l, r), each element the bits of its scalar call
        om = omega_tilde * R
        _, p_r, _ = flat_labels(params, om)
        scale = np.array([p_r ** l / math.prod(range(2 * l + 1, 0, -2)) for l in l_values])
        ls, rs = np.array(l_values)[:, None], np.array(r_values)
        ads = scale[:, None] * radial_eval(RadialKind.Sa, om, ls, rs / R, params)
        mink = jcheck(omega_tilde, ls, rs, m_field)
        out["radial"][R] = float(np.max(np.abs(ads - mink) / np.maximum(np.abs(mink), 1e-3)))

        # labels shared by (ii) and (iii): integer n nearest the target
        labels = []
        for i, l in enumerate(l_values):
            n = round((omega_tilde * (1.0 + 0.15 * i) * R - l
                       - params.delta_plus) / 2.0)
            labels.append((max(n, 0), l, min(l, 1)))
        maps = [_flat_map_factor(params, n, l) for n, l, _ in labels]
        coeffs_mink = {}
        coeffs_ads = {}
        for i, ((n, l, m), (_, p_t, t_fac)) in enumerate(zip(labels, maps)):
            c_p = 0.8 + 0.3j * (i + 1)
            c_q = 0.2 - 0.1j * i
            coeffs_mink[(p_t, l, m)] = (c_p, c_q)
            coeffs_ads[(n, l, m)] = (t_fac * c_p, t_fac * c_q)
        ads_rep = SliceRep(coeffs_ads)
        mink_rep = MinkSliceRep(coeffs_mink, m_field)

        errs = []
        for r in r_values:
            ads_val = synth(ads_rep, (tau / R, r / R, theta0, phi0), params)
            mink_val = mink_synth_slice(mink_rep, (tau, r, theta0, phi0))
            errs.append(abs(ads_val - mink_val) / max(abs(mink_val), 1e-3))
        out["slice_synth"][R] = float(np.max(errs))

        # (iii) symplectic: one-label AdS pairing times dp~/dn vs Mink
        errs = []
        for (n, l, m), (om_t, p_t, _) in zip(labels, maps):
            (ep, eq), (mp, mq) = coeffs_ads[(n, l, m)], coeffs_mink[(p_t, l, m)]
            ads_pair = omega_slice_momentum(
                SliceRep({(n, l, m): (ep, eq)}),
                SliceRep({(n, l, m): ((0.7 - 0.2j) * ep, (1.1 + 0.4j) * eq)}),
                params)
            mink_pair = mink_omega_slice(
                MinkSliceRep({(p_t, l, m): (mp, mq)}, m_field),
                MinkSliceRep({(p_t, l, m): ((0.7 - 0.2j) * mp, (1.1 + 0.4j) * mq)},
                             m_field))
            jac = 2.0 * om_t / (R * p_t)  # dp~/dn
            errs.append(abs(ads_pair * jac - mink_pair)
                        / max(abs(mink_pair), 1e-12))
        out["symplectic"][R] = float(np.max(errs))
    return out


def killing_correspondence_errors(R_values=(100.0, 1000.0)) -> dict:
    """Flat-limit Killing correspondence: max deviation, per R, of the AdS
    fields' coefficients in (tau, r) = (R t, R rho), (R c_t, R c_rho, v) of
    `killing_coefficients`, from those of their Minkowski counterparts.

    R^{-1} K_{d+1,0} equals d_tau identically; the nontrivial entries are
    K_{0d} -> K^Mink_{0d} and R^{-1} K_{d+1,d} -> T_d, with O(1/R^2) error.
    """
    points = [(0.6, 1.3, np.array([0.2, -0.4, 0.6]) / math.sqrt(0.56)),
              (-0.4, 2.1, np.array([0.5, 0.5, 0.1]) / math.sqrt(0.51))]
    out = {}
    for R in R_values:
        params = make_params(3, R, 0.0)
        errs = []
        for tau, r, xi in points:
            t, rho = flat_unscale(params, tau, r)
            for gen, name, scale in ((Boost0(3), "K0j", 1.0), (BoostD1(3), "Tj", R)):
                c_t, c_rho, v = killing_coefficients(gen, t, rho, xi)
                ads = (R / scale * c_t, R / scale * c_rho, v / scale)
                mink = mink_killing_coefficients(name, tau, r, xi, j=3)
                errs += [np.max(np.abs(a - b)) for a, b in zip(ads, mink)]
        out[R] = float(np.max(errs))
    return out

"""Isometry actions on momentum representations: finite time translations
and rotations, infinitesimal d-direction boosts with numerically extracted
shift coefficients, and the invariance test harness.

Boost structure.  Applying K_{0d} or K_{d+1,d} to a single mode with labels
(omega0, l0) produces exactly four neighbors (omega0 +- 1, l0 +- 1); the
radial profile of each output is

    Rhat = 1/2 (-s_w w0 sin(rho) f + cos(rho) f') + 1/2 dfac f / sin(rho)

with dfac = l0+1 toward l0-1 and -l0 toward l0+1, times the angular
raising/lowering coefficient kappa_{+-}(l0, m).  The shift coefficients are
read off by projecting Rhat back onto the mode basis at the target label
(Wronskian projection for tube labels, weighted L2 projection for slice
labels).  Tables store the kappa-reduced values, which are independent of m
and for which the symplectic-invariance identities read

  tube:  zt^{(a)+-}_{w-1,l+1} = (2l+d)/(2l+d-2)   z^{(b)-+}_{w,l}
         zt^{(a)++}_{w-1,l-1} = (2l+d-4)/(2l+d-2) z^{(b)--}_{w,l}
         z^{(a)--}_{w+1,l+1}  = (2l+d)/(2l+d-2)   zt^{(b)++}_{w,l}
         z^{(a)-+}_{w+1,l-1}  = (2l+d-4)/(2l+d-2) zt^{(b)+-}_{w,l}
  slice: w_{nl} N_{nl} z^{0-}_{n,l+1}    = w_{n,l+1} N_{n,l+1} zt^{0+}_{nl}
         w_{nl} N_{nl} z^{-+}_{n+1,l-1}  = w_{n+1,l-1} N_{n+1,l-1} zt^{+-}_{nl}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from .errors import (ProjectionResidual, UnsupportedDimension, WindowOverflow)
from .expansions import SliceRep, TubeRep, _Coeffs, _lm, _scatter, _table, _write_text
from .geometry import (AdsParams, Boost0, BoostD1, GeneratorId, Rotation,
                       TimeTranslation, radial_measure)
from .harmonics import EulerAngles, contiguous_coeffs, wigner_d
from .modes import (RadialKind, jacobi_radial_fd, magic_frequency,
                    norm_constant, radial_eval_fd, radial_second_derivative)

# branch tags: (s_omega, s_l) -> name; tilde family raises omega
_TUBE_BRANCHES = {(+1, -1): "ztpm", (+1, +1): "ztpp",
                  (-1, -1): "zmm", (-1, +1): "zmp"}
_SLICE_BRANCHES = {(-1, -1): "z0m", (-1, +1): "zmp",
                   (+1, -1): "ztpm", (+1, +1): "zt0p"}


@dataclass(frozen=True)
class BoostCoeffTable:
    """Kappa-reduced boost shift coefficients keyed by input label.

    tube:  entries[(k, l)][channel][branch], channel in {"a", "b"},
           branch in {"ztpm", "ztpp", "zmm", "zmp"} (targets
           (w+1,l-1), (w+1,l+1), (w-1,l-1), (w-1,l+1)).
    slice: entries[(n, l)][branch], branch in {"z0m", "zmp", "ztpm",
           "zt0p"} (targets (n,l-1), (n-1,l+1), (n+1,l-1), (n,l+1)).
    """

    kind: str
    entries: dict
    max_leakage: float

    def to_csv(self, path) -> None:
        """Rows `kind,channel,k_or_n,l,value` for regression pinning."""
        lines = ["kind,channel,k_or_n,l,value"]
        for key in sorted(self.entries):
            block = self.entries[key]
            if self.kind == "tube":
                for ch in ("a", "b"):
                    for br, val in sorted(block[ch].items()):
                        lines.append(f"tube,{ch}:{br},{key[0]},{key[1]},{val!r}")
            else:
                for br, val in sorted(block.items()):
                    lines.append(f"slice,+:{br},{key[0]},{key[1]},{val!r}")
        _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# finite actions
# ---------------------------------------------------------------------------

def act_time_translation(rep, delta_t: float, params: AdsParams):
    """Pullback action of t -> t + delta_t on the momentum representation:
    each channel picks up e^{i omega delta_t} (the conj channel its inverse)."""
    c = rep.coeffs
    if isinstance(rep, SliceRep):
        omega = magic_frequency("plus", c.js[:, None], _lm(c.l_max)[0], params)
        omega = np.multiply.outer([1.0, -1.0], omega)
    else:
        omega = rep.grid.d_omega * c.js[:, None]
    return rep._with(c.array * np.exp(1j * omega * delta_t))


def rotation_mixing(l: int, angles: EulerAngles) -> np.ndarray:
    """Matrix X with Y_l^m(R^{-1} Omega) = sum_{m'} X[m', m] Y_l^{m'}(Omega)
    in this package's Condon-Shortley-free convention.

    Obtained from the Wigner D-matrix by conjugating with the diagonal sign
    matrix S = diag((-1)^max(m,0)) that maps our harmonics to the
    CS-phase convention the factorial-sum D-matrix is built for.
    """
    dmat = wigner_d(l, angles)
    signs = np.array([(-1.0) ** m if m > 0 else 1.0 for m in range(-l, l + 1)])
    return signs[:, None] * dmat * signs[None, :]


def act_rotation(rep, angles: EulerAngles, params: AdsParams):
    """Action of the rotation R(angles) on a rep (d = 3 only):
    synth(act_rotation(rep), x) == synth(rep, R^{-1} x)."""
    if params.d != 3:
        raise UnsupportedDimension("rotation action implemented for d = 3")
    c = rep.coeffs
    out = np.zeros_like(c.array)
    for l in range(c.l_max + 1):
        block = slice(l * l, (l + 1) ** 2)
        if c.mask[:, block].any():
            x = rotation_mixing(l, angles)
            # the conj(phi^-) channel of a slice rep rotates by conj(X)
            mix = [x, np.conj(x)] if isinstance(rep, SliceRep) else [x] * len(out)
            out[..., block] = c.array[..., block] @ np.transpose(mix, (0, 2, 1))
    return replace(rep, coeffs=_Coeffs(c.js, out, np.any(out != 0.0, axis=0)))


# ---------------------------------------------------------------------------
# boost coefficient extraction
# ---------------------------------------------------------------------------

def _boost_combo_tube(kind: RadialKind, omega0: float, l0: int, s_om: int,
                      s_l: int, rho: float, params: AdsParams):
    """Kappa-reduced radial combination and its derivative at rho."""
    f, fp = radial_eval_fd(kind, omega0, l0, rho, params)
    fpp = radial_second_derivative(f, fp, omega0, l0, rho, params)
    s, c = math.sin(rho), math.cos(rho)
    dfac = (l0 + 1.0) if s_l < 0 else -float(l0)
    val = 0.5 * (-s_om * omega0 * s * f + c * fp) + 0.5 * dfac * f / s
    dval = (0.5 * (-s_om * omega0 * (c * f + s * fp) + (-s * fp + c * fpp))
            + 0.5 * dfac * (fp / s - c * f / (s * s)))
    return val, dval


def _project_tube(val: float, dval: float, omega: float, l: int, rho: float,
                  params: AdsParams):
    """Wronskian projection of (val, dval) onto (S^a, S^b) at (omega, l)."""
    fa, da = radial_eval_fd(RadialKind.Sa, omega, l, rho, params)
    fb, db = radial_eval_fd(RadialKind.Sb, omega, l, rho, params)
    t = math.tan(rho) ** (params.d - 1)
    w_ab = t * (fa * db - fb * da)
    c_a = t * (val * db - fb * dval) / w_ab
    c_b = -t * (val * da - fa * dval) / w_ab
    return c_a, c_b


_EXTRACT_RHO = (0.6, 0.9)
_SLICE_N_RHO = 160  # Gauss-Jacobi nodes of the slice extraction


def _extract_tube_entry(channel: str, omega0: float, l0: int, s_om: int,
                        s_l: int, params: AdsParams,
                        leak_tol: float) -> tuple[float, float]:
    """Reduced z for one branch; returns (value, leakage)."""
    if l0 + s_l < 0:
        return 0.0, 0.0
    kind = RadialKind.Sa if channel == "a" else RadialKind.Sb
    vals = []
    leaks = []
    for rho in _EXTRACT_RHO:
        v, dv = _boost_combo_tube(kind, omega0, l0, s_om, s_l, rho, params)
        c_a, c_b = _project_tube(v, dv, omega0 + s_om, l0 + s_l, rho, params)
        own, other = (c_a, c_b) if channel == "a" else (c_b, c_a)
        vals.append(own)
        leaks.append(abs(other))
    scale = max(abs(vals[0]), 1.0)
    leak = max(max(leaks), abs(vals[0] - vals[1])) / scale
    if leak > leak_tol:
        raise ProjectionResidual(
            f"off-basis leakage {leak:.2e} at (omega={omega0}, l={l0}), "
            f"channel {channel}, shift ({s_om},{s_l})")
    c = vals[0]
    z = 2.0 * c if s_om > 0 else -2.0 * c
    return z, leak


def _extract_slice_entry(n0: int, l0: int, s_om: int, s_l: int,
                         params: AdsParams, rho_q, w_q,
                         leak_tol: float) -> tuple[float, float]:
    l_t = l0 + s_l
    if l_t < 0:
        return 0.0, 0.0
    om0 = magic_frequency("plus", n0, l0, params)
    n_t = n0 + (s_om - s_l) // 2  # w+ moves by s_om, 2n + l by s_om - s_l
    if n_t < 0:
        return 0.0, 0.0
    dfac = (l0 + 1.0) if s_l < 0 else -float(l0)
    f, fp = jacobi_radial_fd("plus", n0, l0, rho_q, params)
    fpp = np.array([radial_second_derivative(f[i], fp[i], om0, l0, r, params)
                    for i, r in enumerate(rho_q)])
    s, c = np.sin(rho_q), np.cos(rho_q)
    val = 0.5 * (-s_om * om0 * s * f + c * fp) + 0.5 * dfac * f / s
    target = jacobi_radial_fd("plus", n_t, l_t, rho_q, params)[0]
    nrm = norm_constant("plus", n_t, l_t, params)
    coef = float(np.dot(w_q, val * target)) / nrm
    resid = val - coef * target
    denom = float(np.dot(w_q, val * val))
    leak = math.sqrt(max(float(np.dot(w_q, resid * resid)), 0.0)
                     / max(denom, 1e-300))
    if leak > leak_tol:
        raise ProjectionResidual(
            f"slice leakage {leak:.2e} at (n={n0}, l={l0}), shift ({s_om},{s_l})")
    z = 2.0 * coef if s_om > 0 else -2.0 * coef
    return z, leak


def extract_boost_coeffs(kind: str, generator: GeneratorId, label_window,
                         params: AdsParams,
                         leak_tol: float = 1e-6) -> BoostCoeffTable:
    """Numerically extract the boost shift coefficients (normative).

    kind "tube": label_window = (k_indices, d_omega, l_max); entries cover
    every (k, l).  kind "slice": label_window = (n_max, l_max).  The
    generator argument selects which d-boost the differential operator
    represents; the extracted (reduced) tables coincide for both, which is
    itself verified by construction of the combos.  ProjectionResidual
    signals leakage outside the contiguous labels.
    """
    if params.d != 3:
        raise UnsupportedDimension("boost extraction implemented for d = 3")
    if not isinstance(generator, (Boost0, BoostD1)) or generator.j != params.d:
        raise ValueError("generator must be Boost0(d) or BoostD1(d)")
    worst = 0.0
    entries: dict = {}
    if kind == "tube":
        k_indices, d_omega, l_max = label_window
        for k, l in product(k_indices, range(l_max + 1)):
            block = entries[(k, l)] = {"a": {}, "b": {}}
            for ch, ((s_om, s_l), name) in product("ab", _TUBE_BRANCHES.items()):
                z, leak = _extract_tube_entry(ch, k * d_omega, l, s_om, s_l,
                                              params, leak_tol)
                block[ch][name] = z
                worst = max(worst, leak)
        return BoostCoeffTable("tube", entries, worst)
    if kind == "slice":
        n_max, l_max = label_window
        rho_q, w_q = radial_measure(params, _SLICE_N_RHO)
        for n, l in product(range(n_max + 1), range(l_max + 1)):
            block = entries[(n, l)] = {}
            for (s_om, s_l), name in _SLICE_BRANCHES.items():
                z, leak = _extract_slice_entry(n, l, s_om, s_l, params,
                                               rho_q, w_q, leak_tol)
                block[name] = z
                worst = max(worst, leak)
        return BoostCoeffTable("slice", entries, worst)
    raise ValueError("kind must be 'tube' or 'slice'")


# ---------------------------------------------------------------------------
# boost action
# ---------------------------------------------------------------------------

def boost_generator_apply(rep, generator: GeneratorId,
                          table: BoostCoeffTable, params: AdsParams):
    """(K |> rep): the infinitesimal boost action on coefficients.

    Output label (shifted from each input label by the four branches)
    receives the z-weighted input value; weights are +-i/2 for K_{0d} and
    -+1/2 for K_{d+1,d} per the tilde/plain families, the slice conj
    channel flipping the overall sign for K_{0d} only.  A slice branch
    with z = 0 or a target n < 0 adds no label.
    """
    is_0d = isinstance(generator, Boost0)
    if not isinstance(generator, (Boost0, BoostD1)) or generator.j != params.d:
        raise ValueError("generator must be Boost0(d) or BoostD1(d)")
    if isinstance(rep, SliceRep):
        branches, signs = _SLICE_BRANCHES, (1.0, -1.0 if is_0d else 1.0)
        shift = lambda s_om, s_l: (s_om - s_l) // 2
        pick = lambda block: (block, block)
    elif isinstance(rep, TubeRep):
        step = 1.0 / rep.grid.d_omega
        if abs(step - round(step)) > 1e-9:
            raise ValueError("boosts shift omega by 1: need 1/d_omega integral")
        branches, signs = _TUBE_BRANCHES, (1.0, 1.0)
        shift = lambda s_om, s_l: s_om * round(step)
        pick = lambda block: (block["a"], block["b"])
    else:
        raise TypeError("boost action defined for TubeRep and SliceRep")

    def z_of(j, l):
        try:
            blocks = [table.entries[key] for key in zip(j.tolist(), l.tolist())]
        except KeyError as exc:
            raise WindowOverflow(f"label {exc.args[0]} outside table") from None
        return np.array([[[pick(block)[ch][name] for block in blocks]
                          for name in branches.values()] for ch in (0, 1)])

    c = rep.coeffs
    z = _table(c.js, c.mask, z_of, (2, 4))  # (channel, branch, j, lm)
    ls, ms = _lm(c.l_max)
    kappa = np.array([contiguous_coeffs(3, l, m)[:2] for l, m in zip(ls, ms)])
    targets, values = [], []
    for i, (s_om, s_l) in enumerate(branches):
        weight = 0.5j if is_0d else (0.5 if s_om < 0 else -0.5)
        l_t, j_t = ls + s_l, c.js.astype(int) + shift(s_om, s_l)
        keep = c.mask & (l_t >= 0) & (np.abs(ms) <= l_t)
        if isinstance(rep, SliceRep):
            keep &= (z[0, i] != 0.0) & (j_t[:, None] >= 0)
        rows, lm = np.nonzero(keep)
        targets.append((j_t[rows], (l_t * (l_t + 1) + ms)[lm]))
        values.append(weight * np.array(signs)[:, None] * kappa[lm, int(s_l > 0)]
                      * z[:, i, rows, lm] * c.array[:, rows, lm])
    j, lm = (np.concatenate(col) for col in zip(*targets))
    return replace(rep, coeffs=_scatter(j, lm, np.concatenate(values, axis=1)))


def act_boost(rep, generator: GeneratorId, epsilon: float,
              table: BoostCoeffTable, params: AdsParams):
    """rep + epsilon (K |> rep): first-order boost action."""
    delta = boost_generator_apply(rep, generator, table, params)
    (j, lm, base), (dj, dlm, step) = rep.coeffs.entries(), delta.coeffs.entries()
    return replace(rep, coeffs=_scatter(np.r_[j, dj], np.r_[lm, dlm],
                                        np.hstack([base, epsilon * step])))


# ---------------------------------------------------------------------------
# invariance harness
# ---------------------------------------------------------------------------

def invariance_suite(omega_fn, reps, generator: GeneratorId,
                     params: AdsParams, *, delta_t: float = 0.731,
                     angles: EulerAngles | None = None,
                     table: BoostCoeffTable | None = None) -> float:
    """Max violation of symplectic invariance over all ordered rep pairs.

    Finite isometries (time translation, rotation): |w(k eta, k zeta) -
    w(eta, zeta)|.  Infinitesimal boosts: |w(K|>eta, zeta) + w(eta, K|>zeta)|
    (the sign of the pullback convention drops out of the zero test).
    """
    if isinstance(generator, (Boost0, BoostD1)):
        if table is None:
            raise ValueError("boost invariance needs an extracted table")
        moved = [boost_generator_apply(rep, generator, table, params) for rep in reps]
        pair = lambda e, ke, z, kz: (complex(omega_fn(ke, z, params))
                                     + complex(omega_fn(e, kz, params)))
    elif isinstance(generator, (TimeTranslation, Rotation)):
        act = (partial(act_time_translation, delta_t=delta_t)
               if isinstance(generator, TimeTranslation) else
               partial(act_rotation, angles=angles or EulerAngles(0.4, 1.1, -0.3)))
        moved = [act(rep, params=params) for rep in reps]
        pair = lambda e, e2, z, z2: (complex(omega_fn(e2, z2, params))
                                     - complex(omega_fn(e, z, params)))
    else:
        raise TypeError(f"unsupported generator {generator!r}")
    return max([0.0] + [abs(pair(e, e2, z, z2)) for e, e2 in zip(reps, moved)
                        for z, z2 in zip(reps, moved)])

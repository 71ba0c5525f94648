"""Isometry actions on momentum representations: finite time translations
and rotations, infinitesimal d-direction boosts with closed-form shift
coefficients, and the invariance test harness.

Boost structure.  Applying K_{0d} or K_{d+1,d} to a single mode with labels
(w, l) produces exactly four neighbors (w + s_w, l + s_l), s_w, s_l = +-1;
the radial profile of each output is

    Rhat = 1/2 (-s_w w sin(rho) f + cos(rho) f') + 1/2 dfac f / sin(rho)

with dfac = l+1 toward l-1 and -l toward l+1, times the angular
raising/lowering coefficient kappa_{+-}(l, m).  Rhat is exactly
(z / 2 s_w) times the same-channel mode at the target label, and S^a and
J+_{nl} both start as sin^l(rho) with coefficient 1 (S^b as -sin^{2-l-d}),
so matching the leading power at rho -> 0 gives the kappa-reduced,
m-independent z (s = s_w):

  channel a, s_l = -1:  z = s (2l+d-2)
  channel a, s_l = +1:  z = -s (w + s(l+D+)) (w + s(l+D-)) / (2l+d)
  channel b, s_l = +1:  z = -s (2l+d-2)
  channel b, s_l = -1:  z = s (s w + 2-l-D-) (s w + 2-l-D+) / (2l+d-4)

A slice label (n, l) takes channel a at w = w+_{nl}.  The
symplectic-invariance identities read

  tube:  zt^{(a)+-}_{w-1,l+1} = (2l+d)/(2l+d-2)   z^{(b)-+}_{w,l}
         zt^{(a)++}_{w-1,l-1} = (2l+d-4)/(2l+d-2) z^{(b)--}_{w,l}
         z^{(a)--}_{w+1,l+1}  = (2l+d)/(2l+d-2)   zt^{(b)++}_{w,l}
         z^{(a)-+}_{w+1,l-1}  = (2l+d-4)/(2l+d-2) zt^{(b)+-}_{w,l}
  slice: w_{nl} N_{nl} z^{0-}_{n,l+1}    = w_{n,l+1} N_{n,l+1} zt^{0+}_{nl}
         w_{nl} N_{nl} z^{-+}_{n+1,l-1}  = w_{n+1,l-1} N_{n+1,l-1} zt^{+-}_{nl}

with zt the omega-raising (s_w = +1) family.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .expansions import SliceRep, TubeRep, _Coeffs, _scatter
from .geometry import (AdsParams, Boost0, BoostD1, GeneratorId, Rotation,
                       TimeTranslation)
from .harmonics import (EulerAngles, contiguous_coeffs, lm_index, lm_labels,
                        require_two_sphere, wigner_d)
from .modes import RadialKind, magic_frequency, radial_eval_fd

# the four boost branches (s_omega, s_l), in the order their terms are summed
_BRANCHES = ((+1, -1), (+1, +1), (-1, -1), (-1, +1))


# ---------------------------------------------------------------------------
# finite actions
# ---------------------------------------------------------------------------

def act_time_translation(rep, delta_t: float, params: AdsParams):
    """Pullback action of t -> t + delta_t on the momentum representation:
    each channel picks up e^{i omega delta_t} (the conj channel its inverse)."""
    c = rep.coeffs
    if isinstance(rep, SliceRep):
        omega = magic_frequency("plus", c.js[:, None], lm_labels(c.l_max)[0], params)
        omega = np.multiply.outer([1.0, -1.0], omega)
    else:
        omega = rep.grid.d_omega * c.js[:, None]
    return rep._with(c.array * np.exp(1j * omega * delta_t))


def rotation_mixing(l: int, angles: EulerAngles) -> np.ndarray:
    """Matrix X with Y_l^m(R^{-1} Omega) = sum_{m'} X[m', m] Y_l^{m'}(Omega)
    in this package's Condon-Shortley-free convention.

    Obtained from the Wigner D-matrix by conjugating with the diagonal sign
    matrix S = diag((-1)^max(m,0)) that maps our harmonics to the
    CS-phase convention of `wigner_d` (exp(-i beta J_y) in the standard
    angular-momentum basis).
    """
    dmat = wigner_d(l, angles)
    signs = np.array([(-1.0) ** m if m > 0 else 1.0 for m in range(-l, l + 1)])
    return signs[:, None] * dmat * signs[None, :]


def act_rotation(rep, angles: EulerAngles, params: AdsParams):
    """Action of the rotation R(angles) on a rep (d = 3 only):
    synth(act_rotation(rep), x) == synth(rep, R^{-1} x)."""
    require_two_sphere(params.d)
    c = rep.coeffs
    out = np.zeros_like(c.array)
    for l in range(c.l_max + 1):
        block = slice(lm_index(l, -l), lm_index(l, l) + 1)
        if c.mask[:, block].any():
            x = rotation_mixing(l, angles)
            # the conj(phi^-) channel of a slice rep rotates by conj(X)
            mix = [x, np.conj(x)] if isinstance(rep, SliceRep) else [x] * len(out)
            out[..., block] = c.array[..., block] @ np.transpose(mix, (0, 2, 1))
    return replace(rep, coeffs=_Coeffs(c.js, out, np.any(out != 0.0, axis=0)))


# ---------------------------------------------------------------------------
# boost shift coefficients
# ---------------------------------------------------------------------------

def boost_shift_coeffs(channel: str, s_om, s_l, omega, l, params: AdsParams):
    """Kappa-reduced shift coefficient z from the label (omega, l) to
    (omega + s_om, l + s_l) of the S^a (channel "a") or S^b ("b") mode, in
    closed form; 0 where l + s_l < 0.  All but channel broadcast, and an
    object array of omega (mpmath numbers, say) keeps its arithmetic.  A
    slice label (n, l) takes channel "a" at omega = omega+_{nl}."""
    require_two_sphere(params.d)
    s, s_l, omega, l = np.broadcast_arrays(s_om, s_l, omega, l)
    d, dp, dm = params.d, params.delta_plus, params.delta_minus
    if channel == "a":
        z = np.where(s_l < 0, s * (2 * l + d - 2),
                     -s * (omega + s * (l + dp)) * (omega + s * (l + dm)) / (2 * l + d))
    elif channel == "b":
        z = np.where(s_l > 0, -s * (2 * l + d - 2),
                     s * (s * omega + 2 - l - dm) * (s * omega + 2 - l - dp)
                     / (2 * l + d - 4))
    else:
        raise ValueError("channel must be 'a' or 'b'")
    return np.where(l + s_l < 0, 0.0, z)


def boost_identity(channel: str, s_om, s_l, omega, l, rho, params: AdsParams):
    """(Rhat, Rhat - (z / 2 s_om) f_target): the radial profile K sends the
    channel's mode at (omega, l) to, and its residual against the closed-form
    z times the mode at the target label, on broadcast arrays of branches,
    labels (with l + s_l >= 0) and radii.  One radial_eval_fd array call
    covers source and target points."""
    kind = RadialKind.Sa if channel == "a" else RadialKind.Sb
    s_om, s_l, omega, l, rho = np.broadcast_arrays(s_om, s_l, np.asarray(omega, float),
                                                   l, rho)
    f, fp = radial_eval_fd(kind, np.stack([omega, omega + s_om]), np.stack([l, l + s_l]),
                           np.stack([rho, rho]), params)
    dfac = np.where(s_l < 0, l + 1.0, -l)
    combo = (0.5 * (-s_om * omega * np.sin(rho) * f[0] + np.cos(rho) * fp[0])
             + 0.5 * dfac * f[0] / np.sin(rho))
    z = boost_shift_coeffs(channel, s_om, s_l, omega, l, params)
    return combo, combo - z / (2 * s_om) * f[1]


# ---------------------------------------------------------------------------
# boost action
# ---------------------------------------------------------------------------

def boost_generator_apply(rep, generator: GeneratorId, params: AdsParams):
    """(K |> rep): the infinitesimal boost action on coefficients.

    Output label (shifted from each input label by the four branches)
    receives the z-weighted input value; weights are +-i/2 for K_{0d} and
    -+1/2 for K_{d+1,d} per the tilde/plain families, the slice conj
    channel flipping the overall sign for K_{0d} only.  z comes from
    boost_shift_coeffs on the rep's own labels.  A slice branch with a
    target n < 0 adds no label.  The four branches are one pass over
    (branch, j, lm) axes, one boost_shift_coeffs call per channel.
    """
    is_0d = isinstance(generator, Boost0)
    if not isinstance(generator, (Boost0, BoostD1)) or generator.j != params.d:
        raise ValueError("generator must be Boost0(d) or BoostD1(d)")
    c = rep.coeffs
    ls, ms = lm_labels(c.l_max)
    if isinstance(rep, SliceRep):
        signs, channels = (1.0, -1.0 if is_0d else 1.0), "aa"
        omega = magic_frequency("plus", c.js[:, None], ls, params)
        shift = lambda s_om, s_l: (s_om - s_l) // 2
    elif isinstance(rep, TubeRep):
        step = 1.0 / rep.grid.d_omega
        if abs(step - round(step)) > 1e-9:
            raise ValueError("boosts shift omega by 1: need 1/d_omega integral")
        signs, channels = (1.0, 1.0), "ab"
        omega = rep.grid.d_omega * c.js[:, None]
        shift = lambda s_om, s_l: s_om * round(step)
    else:
        raise TypeError("boost action defined for TubeRep and SliceRep")

    s_om, s_l = np.array(_BRANCHES).T[:, :, None, None]  # over (branch, j, lm)
    kappa = np.array(contiguous_coeffs(3, ls, ms)[:2])[(s_l.ravel() > 0).astype(int)]
    z = {ch: boost_shift_coeffs(ch, s_om, s_l, omega, ls, params) for ch in set(channels)}
    weight = np.full(s_om.shape, 0.5j) if is_0d else np.where(s_om < 0, 0.5, -0.5)
    l_t, j_t = ls + s_l, c.js.astype(int)[:, None] + shift(s_om, s_l)
    keep = c.mask & (l_t >= 0) & (np.abs(ms) <= l_t) & (j_t >= rep._j_min)
    b, rows, lm = np.nonzero(keep)  # branch by branch, as the sums run
    values = (weight[b, 0, 0] * np.array(signs)[:, None] * kappa[b, lm]
              * np.array([z[ch][b, rows, lm] for ch in channels]) * c.array[:, rows, lm])
    return replace(rep, coeffs=_scatter(j_t[b, rows, 0], lm_index(l_t, ms)[b, 0, lm], values))


def act_boost(rep, generator: GeneratorId, epsilon: float, params: AdsParams):
    """rep + epsilon (K |> rep): first-order boost action."""
    delta = boost_generator_apply(rep, generator, params)
    (j, lm, base), (dj, dlm, step) = rep.coeffs.entries(), delta.coeffs.entries()
    return replace(rep, coeffs=_scatter(np.r_[j, dj], np.r_[lm, dlm],
                                        np.hstack([base, epsilon * step])))


# ---------------------------------------------------------------------------
# invariance harness
# ---------------------------------------------------------------------------

def invariance_suite(omega_fn, reps, generator: GeneratorId,
                     params: AdsParams, *, delta_t: float = 0.731,
                     angles: EulerAngles | None = None) -> float:
    """Max violation of symplectic invariance over all ordered rep pairs.

    Finite isometries (time translation, rotation): |w(k eta, k zeta) -
    w(eta, zeta)|.  Infinitesimal boosts: |w(K|>eta, zeta) + w(eta, K|>zeta)|
    (the sign of the pullback convention drops out of the zero test).
    """
    if isinstance(generator, (Boost0, BoostD1)):
        moved = [boost_generator_apply(rep, generator, params) for rep in reps]
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
    return float(np.max([0.0] + [abs(pair(e, e2, z, z2))
                                 for e, e2 in zip(reps, moved)
                                 for z, z2 in zip(reps, moved)]))

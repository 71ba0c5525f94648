"""Global AdS parameters, the radial quadrature, the radial Klein-Gordon
residual check, Killing vector fields as numerical differential operators,
Lie-bracket verification, and the flat-limit rescalings that `minkowski`
applies.

Coordinates are global (t, rho, Omega) with the boundary at rho = pi/2.
Killing operators act on smooth closures field(t, rho, xi), called once per
operator application: t and rho are read-only (N,) float arrays, xi the unit
directions components first, read-only (3, N), so `x, y, z = xi` reads the
same on one point and on N; the field returns N values.  Each operator is a
first-order stencil: a 4-point central difference per derivative it
contains, so 4 field points per point for d_t, 8 for a rotation and 12 for
a boost.  The tangential sphere derivative is a plain cartesian difference
of the field's degree-zero extension, which reproduces
(d_{xi_j} - xi_j xi_i d_{xi_i}) exactly on the sphere.  Nested operators
compose stencils (the inner one is built at every outer field point and
the weights multiply), so a Lie-bracket check is one field call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .errors import (BfViolation, BoundaryProximity, DomainError,
                     EvenDimension, WindowError)
from .memo import memo

_NU_INTEGER_TOL = 1e-9


@dataclass(frozen=True)
class AdsParams:
    """Global AdS configuration: dimension, curvature radius, mass parameter,
    and the derived weights nu, Delta_+/-.
    """

    d: int
    R: float
    m_sq: float
    nu: float
    delta_plus: float
    delta_minus: float

    @property
    def c_modes_valid(self) -> bool:
        """C-modes and the transfer matrix need noninteger nu."""
        return abs(self.nu - round(self.nu)) > _NU_INTEGER_TOL

    @property
    def msq_r2(self) -> float:
        return self.m_sq * self.R * self.R

    @property
    def exceptional_range(self) -> bool:
        """nu in (0, 1): the only range where minus-branch Jacobi modes exist."""
        return 0.0 < self.nu < 1.0


def make_params(d: int, R: float, m_sq: float) -> AdsParams:
    """Build AdsParams; raises EvenDimension / DomainError / BfViolation."""
    if d < 3 or d % 2 == 0:
        raise EvenDimension(f"d = {d}: only odd d >= 3 supported")
    if not (math.isfinite(R) and R > 0.0):
        raise DomainError(f"curvature radius R = {R!r} must be finite and positive")
    msq_r2 = m_sq * R * R
    if not math.isfinite(msq_r2):
        raise DomainError(f"m^2 R^2 = {msq_r2!r} must be finite (m^2 = {m_sq!r})")
    bound = -d * d / 4.0
    if msq_r2 < bound:
        raise BfViolation(
            f"m^2 R^2 = {msq_r2} below Breitenlohner-Freedman bound {bound}")
    nu = math.sqrt(d * d / 4.0 + msq_r2)
    return AdsParams(d=d, R=R, m_sq=m_sq, nu=nu,
                     delta_plus=d / 2.0 + nu, delta_minus=d / 2.0 - nu)


@memo("radial_measure", 16, 4096)  # 16 x 4096 x 2 x 8 B = 1 MiB at most
def radial_measure(params: AdsParams, n_nodes: int):
    """Radial quadrature rule (rho_q, w_q) with the tan^{d-1} measure folded
    in: sum_q w_q g(rho_q) ~= int_0^{pi/2} tan^{d-1}(rho) g(rho) drho.

    Built as Gauss-Jacobi in x = cos(2 rho) with weight
    (1-x)^{(d-2)/2} (1+x)^nu: tan^{d-1} drho = weight * (1+x)^{-d/2-nu} dx/2,
    and any product of two same-l Jacobi modes leaves a pure polynomial,
    (1 - x)^l P_n P_n' of degree l + n + n', so the mode orthogonality
    integrals are exact to roundoff for every mass above the
    Breitenlohner-Freedman bound on n_nodes >= (l + n + n' + 1) / 2, the
    rule being exact to degree 2 n_nodes - 1.
    """
    d, nu = params.d, params.nu
    x, wx = roots_jacobi(n_nodes, (d - 2) / 2.0, nu)
    return 0.5 * np.arccos(x), wx * (1.0 + x) ** (-d / 2.0 - nu) / 2.0


def kg_residual(radial_fn: Callable, omega, l, params: AdsParams,
                rho_window: tuple[float, float], n_points: int = 40):
    """Max normalized residual of the radial Klein-Gordon operator
    cos^2 f'' + (d-1)/tan f' + [w^2 cos^2 - l(l+d-2)/tan^2 - m^2 R^2] f
    on a uniform sub-grid of the window, derivatives by 5-point stencils, h = 1e-4.

    radial_fn is called once, on the array of all stencil radii, shape
    (5, n_points); a scalar result (a constant function) is broadcast.
    omega and l may instead be equal-length 1-d arrays, one row each:
    radial_fn then gets the stencil broadcast against the rows, shape
    (rows, 5, n_points), must return row i's function in row i, and the
    result is the array of the rows' residuals, each bit for bit the
    scalar call's.
    """
    a, b = rho_window
    if not 0.0 < a < b < math.pi / 2:
        raise WindowError("window must lie strictly inside (0, pi/2)")
    rows = np.ndim(omega) == 1
    if rows:
        omega, l = (np.asarray(v)[:, None] for v in (omega, l))
    d = params.d
    msq = params.msq_r2
    rho = np.linspace(a, b, n_points)
    h = 1e-4
    stencil = np.stack([rho - 2 * h, rho - h, rho, rho + h, rho + 2 * h])
    if rows:
        stencil = np.broadcast_to(stencil, (len(omega),) + stencil.shape)
    fm2, fm1, f0, fp1, fp2 = np.moveaxis(
        np.broadcast_to(radial_fn(stencil), stencil.shape), -2, 0)
    d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    c2 = np.array([math.cos(r) ** 2 for r in rho.tolist()])
    t = np.array([math.tan(r) for r in rho.tolist()])
    res = c2 * d2 + (d - 1) / t * d1 + \
        (omega * omega * c2 - l * (l + d - 2) / (t * t) - msq) * f0
    worst = np.max(np.abs(res), axis=-1)
    scale = np.max(np.abs(f0), axis=-1)
    if not rows:
        worst, scale = float(worst), float(scale)
        return worst / scale if scale > 0 else worst
    return np.divide(worst, scale, out=worst, where=scale > 0)


# ---------------------------------------------------------------------------
# Killing vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeTranslation:
    """K_{d+1,0} = d_t."""


@dataclass(frozen=True)
class Rotation:
    j: int
    k: int

    def __post_init__(self):
        if self.j == self.k:
            raise ValueError("rotation needs j != k")


@dataclass(frozen=True)
class Boost0:
    """K_{0j}."""
    j: int


@dataclass(frozen=True)
class BoostD1:
    """K_{d+1,j}."""
    j: int


GeneratorId = TimeTranslation | Rotation | Boost0 | BoostD1

FD_STEP = 1e-3
_FD_W = np.array([1.0, -8.0, 8.0, -1.0])  # 4th-order central weights / 12h
_FD_O = np.array([-2.0, -1.0, 1.0, 2.0])

# A linear operator K at N points is a stencil (w, q): weights w (N, S) and
# field points q (N, S, 5) as rows (t, rho, xi_1, xi_2, xi_3), with
# (K phi)(p_n) = sum_s w[n, s] phi(q[n, s]).


def _points(points) -> np.ndarray:
    """[(t, rho, xi), ...] as rows (t, rho, xi_1, xi_2, xi_3), shape (N, 5)."""
    return np.array([(t, rho, *xi) for t, rho, xi in points], dtype=float)


def _first_order(p, h, c_t=None, c_rho=None, c_tan=()):
    """Stencil of c_t d_t + c_rho d_rho + sum_(j, c_j) c_j D_j at the points
    p (N, 5), D_j the tangential derivative along axis j (xi_j moves, xi is
    renormalized).  A coefficient is a scalar or an (N,) array; only the
    parts given emit points, 4 each."""
    fd, off = _FD_W / (12.0 * h), _FD_O * h
    ws, qs = [], []
    for axis, c in ((0, c_t), (1, c_rho), *((2 + j, c) for j, c in c_tan)):
        if c is None:
            continue
        q = np.repeat(p[:, None], 4, axis=1)
        q[:, :, axis] += off
        if axis >= 2:
            q[:, :, 2:] /= np.linalg.norm(q[:, :, 2:], axis=2, keepdims=True)
        ws.append(np.broadcast_to(c, p.shape[:1])[:, None] * fd)
        qs.append(q)
    return np.concatenate(ws, axis=1), np.concatenate(qs, axis=1)


def _killing_stencil(generator: GeneratorId, p, h: float):
    """Stencil of the Killing operator at the points p (N, 5): 4 field
    points each for d_t, 8 for a rotation, 12 for a boost.  Boosts raise
    BoundaryProximity when a rho stencil leaves (0, pi/2)."""
    t, rho, xi = p[:, 0], p[:, 1], p[:, 2:]
    if isinstance(generator, TimeTranslation):
        return _first_order(p, h, c_t=1.0)
    if isinstance(generator, Rotation):
        j, k = generator.j - 1, generator.k - 1
        return _first_order(p, h, c_tan=((k, xi[:, j]), (j, -xi[:, k])))
    if not isinstance(generator, (Boost0, BoostD1)):
        raise TypeError(f"unknown generator {generator!r}")
    if np.any(rho - 2 * h <= 0.0) or np.any(rho + 2 * h >= math.pi / 2):
        raise BoundaryProximity("rho stencil leaves (0, pi/2)")
    j = generator.j - 1
    x = xi[:, j]
    sr, cr, st, ct = np.sin(rho), np.cos(rho), np.sin(t), np.cos(t)
    if isinstance(generator, Boost0):
        return _first_order(p, h, -x * ct * sr, -x * st * cr, ((j, -st / sr),))
    return _first_order(p, h, -x * st * sr, x * ct * cr, ((j, ct / sr),))


def _compose(outer, inner: GeneratorId, h: float):
    """Stencil of K_outer K_inner: the inner stencil is built at every
    outer field point and the weights multiply."""
    w, q = outer
    wi, qi = _killing_stencil(inner, q.reshape(-1, 5), h)
    return (w.reshape(-1, 1) * wi).reshape(len(w), -1), qi.reshape(len(w), -1, 5)


def _apply(field: Callable, w, q) -> np.ndarray:
    """(K phi) at each of the N points from one field call on all the field
    points (module docstring)."""
    cols = np.ascontiguousarray(q.reshape(-1, 5).T)
    cols.flags.writeable = False
    vals = field(cols[0], cols[1], cols[2:])
    if np.ndim(vals) > 1 or np.size(vals) not in (1, w.size):
        raise ValueError(f"field returned shape {np.shape(vals)}, expected ({w.size},)")
    return np.sum(w * np.broadcast_to(vals, w.size).reshape(w.shape), axis=1)


def killing_apply(generator: GeneratorId, fld, point, h: float = FD_STEP):
    """(K phi)(point): apply the Killing differential operator numerically.

    `fld` is a field(t, rho, xi) closure (see the module docstring);
    `point` is (t, rho, xi).
    """
    return _apply(fld, *_killing_stencil(generator, _points([point]), h))[0]


def boost_rho_coefficient(generator: GeneratorId, t: float, rho: float,
                          xi) -> float:
    """Analytic coefficient of d_rho in the boost generators.

    cos(rho) is evaluated as sin(pi/2 - rho) so the coefficient is exactly
    zero at the represented boundary value rho = pi/2: the boosts map the
    boundary to itself.
    """
    xi = np.asarray(xi, dtype=float)
    cr = math.sin(math.pi / 2 - rho)
    if isinstance(generator, Boost0):
        return -xi[generator.j - 1] * math.sin(t) * cr
    if isinstance(generator, BoostD1):
        return xi[generator.j - 1] * math.cos(t) * cr
    return 0.0


def _canonical_pair(gen: GeneratorId, d: int) -> tuple[int, int]:
    """Embedding-space index pair (A, B) with K_{AB} = X_A d_B - X_B d_A."""
    if isinstance(gen, TimeTranslation):
        return (d + 1, 0)
    if isinstance(gen, Rotation):
        return (gen.j, gen.k)
    if isinstance(gen, Boost0):
        return (0, gen.j)
    return (d + 1, gen.j)


def _from_pair(a: int, b: int, d: int) -> tuple[float, GeneratorId]:
    """Map an index pair to (sign, generator)."""
    if a == b:
        raise ValueError("degenerate pair")
    for (x, y, s) in ((a, b, 1.0), (b, a, -1.0)):
        if x == d + 1 and y == 0:
            return s, TimeTranslation()
        if x == 0 and 1 <= y <= d:
            return s, Boost0(y)
        if x == d + 1 and 1 <= y <= d:
            return s, BoostD1(y)
    if 1 <= a <= d and 1 <= b <= d:
        return 1.0, Rotation(a, b)
    raise ValueError(f"pair ({a},{b}) not representable")


def _eta(i: int, j: int, d: int) -> float:
    """Embedding metric diag(-1, +1...+1, -1) of R^{2,d}."""
    if i != j:
        return 0.0
    return -1.0 if i == 0 or i == d + 1 else 1.0


def bracket_rhs(gen_a: GeneratorId, gen_b: GeneratorId, d: int):
    """[K_A, K_B] as a list of (coefficient, generator) terms, from
    [K_AB, K_CD] = -eta_AC K_BD + eta_BC K_AD - eta_BD K_AC + eta_AD K_BC.
    """
    a, b = _canonical_pair(gen_a, d)
    c, e = _canonical_pair(gen_b, d)
    raw = [(-_eta(a, c, d), (b, e)),
           (_eta(b, c, d), (a, e)),
           (-_eta(b, e, d), (a, c)),
           (_eta(a, e, d), (b, c))]
    out = []
    for coeff, (p, q) in raw:
        if coeff == 0.0 or p == q:
            continue
        sign, gen = _from_pair(p, q, d)
        out.append((coeff * sign, gen))
    return out


def verify_lie_bracket(gen_a: GeneratorId, gen_b: GeneratorId,
                       test_field: Callable, sample_points: Sequence) -> float:
    """Max |[K_A, K_B] phi - (bracket table RHS) phi| over the points, on
    S^2 (d = 3) with stencil step 5e-3.

    K_A K_B, -K_B K_A and -sum c K_C form one stencil, the nested products
    composed, so the field is called in one pass over its points.
    """
    if gen_a == gen_b or len(sample_points) == 0:
        return 0.0
    p, h = _points(sample_points), 5e-3
    terms = [(1.0, _compose(_killing_stencil(gen_a, p, h), gen_b, h)),
             (-1.0, _compose(_killing_stencil(gen_b, p, h), gen_a, h))]
    terms += [(-c, _killing_stencil(gen, p, h))
              for c, gen in bracket_rhs(gen_a, gen_b, 3)]
    w = np.concatenate([c * st[0] for c, st in terms], axis=1)
    q = np.concatenate([st[1] for _, st in terms], axis=1)
    return float(np.max(np.abs(_apply(test_field, w, q))))


def flat_rescale(params: AdsParams, t: float, rho: float) -> tuple[float, float]:
    """(tau, r) = (R t, R rho)."""
    return params.R * t, params.R * rho


def flat_unscale(params: AdsParams, tau: float, r: float) -> tuple[float, float]:
    return tau / params.R, r / params.R


def flat_labels(params: AdsParams, omega: float) -> tuple[float, float, float]:
    """(omega_tilde, p^R_omega, p_tilde) of the flat-limit rescaling."""
    p_r = math.sqrt(abs(omega * omega - params.msq_r2))
    return omega / params.R, p_r, p_r / params.R

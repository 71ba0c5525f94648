"""Global AdS parameters, the radial quadrature, the radial Klein-Gordon
residual check, the Killing vector fields and the flat-limit rescalings that
`minkowski` applies.

Coordinates are global (t, rho, Omega) with the boundary at rho = pi/2.  The
Killing fields come from the embedding of AdS_{d+1} (R = 1) as the
hyperboloid eta(X, X) = -1 in R^{2,d}, eta = diag(-1, 1, ..., 1, -1): each
generator K_AB = X_A d_B - X_B d_A is the field X -> L X of a
(d + 2) x (d + 2) matrix L (`generator_matrix`), and `killing_coefficients`
gives its closed form in (t, rho, xi).  `bracket_rhs` is the bracket table
of the K_AB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import BfViolation, CapabilityError, DomainError, EvenDimension
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


def require_c_modes(params: AdsParams, what: str = "C-modes") -> None:
    """CapabilityError unless nu is noninteger: the one rule every C-mode
    quantity (the C kinds, the transfer matrix, the twisted boundary
    limit) is formed under; integer nu is a case of its own."""
    if not params.c_modes_valid:
        raise CapabilityError(f"{what} undefined at (near-)integer nu = {params.nu}")


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


@functools.cache
def gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], read-only, built once per n
    on first use: scipy builds it through scipy.linalg, unloaded at import."""
    nodes, weights = roots_legendre(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def kg_residual(radial_fn: Callable, omega, l, params: AdsParams,
                rho_window: tuple[float, float]):
    """Normalized residual of the radial Klein-Gordon equation in its
    Sturm-Liouville form (tan^{d-1} f')' = -tan^{d-1} g f, g = omega^2 -
    l(l+d-2)/sin^2 - m^2 R^2/cos^2, integrated over the window [a, b] by a
    48-node Gauss-Legendre rule: |[tan^{d-1} f']_a^b + sum_q w_q tan^{d-1} g f|
    over the sum of the magnitudes of its parts (the bare residual where all
    vanish).  radial_fn gets the ascending radii (a, rho_1..rho_48, b) and
    returns (f, f'), each broadcastable against omega, l (of any shape) and
    a trailing radius axis; the result has their leading shape, each element
    bit for bit the scalar call's.  DomainError unless 0 < a < b < pi/2."""
    a, b = rho_window
    if not 0.0 < a < b < math.pi / 2:
        raise DomainError(f"window {rho_window} must lie strictly inside (0, pi/2)")
    nodes, weights = gauss_legendre(48)
    half = (b - a) / 2.0
    rho = np.concatenate(([a], (a + b) / 2.0 + half * nodes, [b]))
    f, fp = (np.broadcast_to(v, np.broadcast_shapes(np.shape(v), rho.shape))
             for v in radial_fn(rho))
    tan_d = np.tan(rho) ** (params.d - 1)
    omega, l = (np.asarray(v, dtype=float)[..., None] for v in (omega, l))
    terms = half * weights * tan_d[1:-1] * (
        omega * omega - l * (l + params.d - 2) / np.sin(rho[1:-1]) ** 2
        - params.msq_r2 / np.cos(rho[1:-1]) ** 2) * f[..., 1:-1]
    end_b, end_a = tan_d[-1] * fp[..., -1], tan_d[0] * fp[..., 0]
    res = np.abs(end_b - end_a + np.sum(terms, axis=-1))
    scale = np.abs(end_b) + np.abs(end_a) + np.sum(np.abs(terms), axis=-1)
    res = np.divide(res, scale, out=np.array(res), where=scale > 0)
    return float(res) if res.ndim == 0 else res


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


def embed(t, rho, xi) -> np.ndarray:
    """The point of R^{2,d} at global (t, rho, xi), shape (d + 2, ...):
    X^0 = sin t / cos rho, X^i = tan rho xi^i, X^{d+1} = -cos t / cos rho,
    on the hyperboloid eta(X, X) = -1; t, rho and xi's components broadcast.
    The sign of X^{d+1} makes d_t the field of K_{d+1,0}."""
    sec = 1.0 / np.cos(rho)
    return np.stack(np.broadcast_arrays(np.sin(t) * sec, *(np.tan(rho) * np.asarray(xi)),
                                        -np.cos(t) * sec))


def generator_matrix(gen: GeneratorId, d: int) -> np.ndarray:
    """The (d + 2) x (d + 2) matrix L of K_AB = X_A d_B - X_B d_A, (A, B)
    its `_canonical_pair`: K is the field X -> L X, so L[B, A] = eta_AA and
    L[A, B] = -eta_BB, and L^T eta + eta L = 0."""
    a, b = _canonical_pair(gen, d)
    out = np.zeros((d + 2, d + 2))
    out[b, a], out[a, b] = _eta(a, a, d), -_eta(b, b, d)
    return out


def killing_coefficients(gen: GeneratorId, t, rho, xi):
    """(c_t, c_rho, v) of the Killing field c_t d_t + c_rho d_rho + v . d_xi
    at global (t, rho, xi), rho in (0, pi/2]: the closed form of L X
    (`generator_matrix`) pushed forward to the coordinates, with v tangent
    to the sphere, shape (d, ...), P_j = e_j - xi_j xi, x = xi_j:

      K_{d+1,0}: (1, 0, 0)        K_jk: (0, 0, xi_j e_k - xi_k e_j)
      K_0j:      (-x cos t sin rho, -x sin t cos rho, -(sin t / sin rho) P_j)
      K_{d+1,j}: (-x sin t sin rho,  x cos t cos rho,  (cos t / sin rho) P_j)

    t, rho and xi's components broadcast.  cos rho is formed as
    sin(pi/2 - rho), so c_rho is exactly 0 at rho = pi/2: the boosts map
    the boundary to itself."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(rho), np.shape(xi)[1:])
    xi = np.broadcast_to(np.asarray(xi, dtype=float), np.shape(xi)[:1] + shape)
    zero, v = np.zeros(shape), np.zeros(xi.shape)
    if isinstance(gen, TimeTranslation):
        return zero + 1.0, zero, v
    if isinstance(gen, Rotation):
        v[gen.k - 1], v[gen.j - 1] = xi[gen.j - 1], -xi[gen.k - 1]
        return zero, zero, v
    if not isinstance(gen, (Boost0, BoostD1)):
        raise TypeError(f"unknown generator {gen!r}")
    x = xi[gen.j - 1]
    v -= x * xi
    v[gen.j - 1] += 1.0
    sr, cr, st, ct = np.sin(rho), np.sin(np.pi / 2 - rho), np.sin(t), np.cos(t)
    if isinstance(gen, Boost0):
        return -x * ct * sr, -x * st * cr, -st / sr * v
    return -x * st * sr, x * ct * cr, ct / sr * v


def flat_unscale(params: AdsParams, tau: float, r: float) -> tuple[float, float]:
    """(t, rho) = (tau / R, r / R) of the flat-limit coordinates (tau, r)."""
    return tau / params.R, r / params.R


def flat_labels(params: AdsParams, omega: float) -> tuple[float, float, float]:
    """(omega_tilde, p^R_omega, p_tilde) of the flat-limit rescaling."""
    p_r = math.sqrt(abs(omega * omega - params.msq_r2))
    return omega / params.R, p_r, p_r / params.R

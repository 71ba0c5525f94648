"""The AdS Klein-Gordon mode zoo.

Radial functions come in two linearly independent pairs:

  S^a = sin^l cos^{D+} 2F1(alpha, beta; gamma; sin^2 rho)      regular on axis
  S^b = -sin^{2-l-d} cos^{D+} 2F1(a-g+1, b-g+1; 2-g; sin^2)    singular on axis
  C^a = sin^l cos^{D+} 2F1(alpha, beta; 1+nu; cos^2 rho)       decays at boundary
  C^b = sin^l cos^{D-} 2F1(.., ..; 1-nu; cos^2 rho)            diverges there

with alpha = (l + D+ - omega)/2, beta = (l + D+ + omega)/2, gamma = l + d/2.
One fixed rule picks the route: the direct series while its argument
(sin^2 rho for S, cos^2 rho for C) is at most DEFAULT_POLICY.arg_cutoff =
0.75 or the series terminates; otherwise the S <-> C transfer matrix,
whose entries are the Gamma-function connection coefficients of 2F1 at
z -> 1 - z.  At the magic frequencies omega+-_{nl} = 2n + l + D+- the S^a
series terminates and coincides with the normalizable Jacobi mode J+-_{nl};
for omega+ a denominator Gamma of m12 has its pole there, so m12 = 0.
The radial tables of radial_eval_fd's array calls (every synthesis and
inversion) and scalar transfer_matrix calls are memoized (`adskg.memo`);
array tables of transfer matrices are formed afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import (CapabilityError, DomainError, ExceptionalBranch,
                     SingularPoint)
from .geometry import AdsParams
from .harmonics import require_two_sphere, sph_harm
from .memo import memo
from .specfun import (DEFAULT_POLICY, hyp2f1, hyp2f1_dx, hyp2f1_terminates,
                      jacobi_p, jacobi_p_dx, log_gamma)


class RadialKind(Enum):
    Sa = "sa"
    Sb = "sb"
    Ca = "ca"
    Cb = "cb"


@dataclass(frozen=True)
class TubeLabel:
    omega: float
    l: int
    m: int

    def __post_init__(self):
        if self.l < 0 or abs(self.m) > self.l:
            raise IndexError("need l >= 0 and |m| <= l")


@dataclass(frozen=True)
class SliceLabel:
    n: int
    l: int
    m: int
    branch: str = "plus"

    def __post_init__(self):
        if self.n < 0 or self.l < 0 or abs(self.m) > self.l:
            raise IndexError("need n, l >= 0 and |m| <= l")
        if self.branch not in ("plus", "minus"):
            raise ValueError("branch must be 'plus' or 'minus'")


@dataclass(frozen=True)
class TransferMatrix:
    """Entries of M at fixed (omega, l): (S^a, S^b) = M (C^a, C^b), and its
    determinant in closed form, W(S^a, S^b) / W(C^a, C^b)."""

    m11: float
    m12: float
    m21: float
    m22: float
    det: float

    def inverse(self) -> "TransferMatrix":
        """The adjugate over det, bit for bit _transfer_entries' M^-1."""
        det = self.det
        return TransferMatrix(self.m22 / det, -self.m12 / det,
                              -self.m21 / det, self.m11 / det, 1.0 / det)


def hyper_params(kind: RadialKind, omega: float, l: int,
                 params: AdsParams) -> tuple[float, float, float]:
    """Hypergeometric parameters (alpha, beta, gamma) for a radial kind."""
    al = 0.5 * (l + params.delta_plus - omega)
    be = 0.5 * (l + params.delta_plus + omega)
    ga = l + params.d / 2.0
    gc = 1.0 + params.nu
    if kind is RadialKind.Sa:
        return al, be, ga
    if kind is RadialKind.Sb:
        return al - ga + 1.0, be - ga + 1.0, 2.0 - ga
    if not params.c_modes_valid:
        raise CapabilityError(
            f"C-modes undefined at (near-)integer nu = {params.nu}")
    if kind is RadialKind.Ca:
        return al, be, gc
    return al - gc + 1.0, be - gc + 1.0, 2.0 - gc


def magic_frequency(branch: str, n: int, l: int, params: AdsParams) -> float:
    """omega+-_{nl} = 2n + l + Delta+-."""
    if branch == "plus":
        return 2.0 * n + l + params.delta_plus
    if branch == "minus":
        return 2.0 * n + l + params.delta_minus
    raise ValueError("branch must be 'plus' or 'minus'")


def _prefactor_fd(kind: RadialKind, l: int, rho: float, params: AdsParams):
    """Radial prefactor and its rho-derivative for each kind."""
    s, c = math.sin(rho), math.cos(rho)
    dp, dm = params.delta_plus, params.delta_minus
    if kind is RadialKind.Sb:
        p = 2 - l - params.d
        pre = -(s ** p) * c ** dp
        dpre = -(p * s ** (p - 1) * c ** (dp + 1) - dp * s ** (p + 1) * c ** (dp - 1))
        return pre, dpre
    ex = dm if kind is RadialKind.Cb else dp
    if l == 0:
        pre = c ** ex
        dpre = -ex * s * c ** (ex - 1)
    else:
        pre = s ** l * c ** ex
        dpre = l * s ** (l - 1) * c ** (ex + 1) - ex * s ** (l + 1) * c ** (ex - 1)
    return pre, dpre


def _direct_ok(kind: RadialKind, omega: float, l: int, rho: float,
               params: AdsParams) -> bool:
    a, b, _ = hyper_params(kind, omega, l, params)
    arg = math.sin(rho) ** 2 if kind in (RadialKind.Sa, RadialKind.Sb) \
        else math.cos(rho) ** 2
    return arg <= DEFAULT_POLICY.arg_cutoff or hyp2f1_terminates(a, b)


def _radial_direct(kind: RadialKind, omega: float, l: int, rho: float,
                   params: AdsParams):
    """(f, f') by direct series; caller guarantees convergence domain."""
    a, b, c = hyper_params(kind, omega, l, params)
    s, cs = math.sin(rho), math.cos(rho)
    if kind in (RadialKind.Sa, RadialKind.Sb):
        u, du = s * s, 2.0 * s * cs
    else:
        u, du = cs * cs, -2.0 * s * cs
    pre, dpre = _prefactor_fd(kind, l, rho, params)
    f_val = hyp2f1(a, b, c, u)
    df_val = hyp2f1_dx(a, b, c, u) * du
    return pre * f_val, dpre * f_val + pre * df_val


def _weighted_wronskian(fa, da, fb, db, rho: float, d: int) -> float:
    return math.tan(rho) ** (d - 1) * (fa * db - fb * da)


# `verify all` asks for 46 distinct scalar keys; 1024 hold many jobs' worth
@memo("transfer_matrix", 1024)
def transfer_matrix(omega: float, l: int, params: AdsParams) -> TransferMatrix:
    """Transfer matrix M with (S^a, S^b) = M (C^a, C^b) at fixed (omega, l):
    _transfer_entries on Python scalars, memoized per (omega, l, params)."""
    return TransferMatrix(*_transfer_entries(omega, l, params, False).tolist(),
                          _transfer_det(l, params))


def _transfer_det(l, params: AdsParams):
    """det M = W(S^a, S^b) / W(C^a, C^b) = (2l + d - 2) / (2 nu)."""
    return (2.0 * l + params.d - 2.0) / (2.0 * params.nu)


def _transfer_entries(omega, l, params: AdsParams, inverse: bool) -> np.ndarray:
    """(m11, m12, m21, m22) of M, or of M^-1 (the adjugate over the exact
    determinant), for omega and l of one shape: shape (4,) + that shape.

    The S^a row is the z -> 1 - z connection of its 2F1 (DLMF 15.10.21),
    m11 = G(g) G(-nu) / (G(g - a) G(g - b)), m12 = G(g) G(nu) / (G(a) G(b));
    the S^b row is minus the same at l -> 2 - l - d, where g -> 2 - g and
    a -> a - g + 1 (S^b is -S^a continued in l, and the C-modes are
    invariant under that map).  Each entry is its sign times exp of a sum
    of log|G|, so nothing overflows, and exactly 0 at a pole of a
    denominator G."""
    if not params.c_modes_valid:
        raise CapabilityError(
            f"transfer matrix undefined at (near-)integer nu = {params.nu}")
    al, be, ga = hyper_params(RadialKind.Sa, omega, l, params)
    g = np.array([ga, ga, 2.0 - ga, 2.0 - ga])
    den = np.array([[ga - al, al, 1.0 - al, al - ga + 1.0],
                    [ga - be, be, 1.0 - be, be - ga + 1.0]])
    pole = (den <= 0.0) & (den == np.floor(den))
    den[pole] = 1.0  # those entries are set to 0 below; gammasgn is NaN at a pole
    col = (4,) + (1,) * (g.ndim - 1)
    top = np.reshape([-params.nu, params.nu] * 2, col)
    sign = np.reshape([1.0, 1.0, -1.0, -1.0], col) * gammasgn(top) * gammasgn(g) \
        * gammasgn(den).prod(0)
    m = sign * np.exp(gammaln(g) + gammaln(top) - gammaln(den).sum(0))
    m[pole.any(0)] = 0.0
    if inverse:
        m = m[[3, 1, 2, 0]] * np.reshape([1.0, -1.0, -1.0, 1.0], col) \
            / _transfer_det(l, params)
    return m


def _per_distinct(fn, *columns) -> np.ndarray:
    """fn(*key) once per distinct key of the equal-length 1-d arrays, spread
    back over the elements: shape fn's output + (elements,).  Python floats
    in, so math and ** give the scalar path's bits (np.power need not)."""
    keys = list(zip(*(col.tolist() for col in columns)))
    table = {}
    for key in keys:
        if key not in table:
            table[key] = fn(*key)
    return np.moveaxis(np.array([table[key] for key in keys]), 0, -1)


def _radial_direct_array(kinds, omega, l, rho, params: AdsParams):
    """_radial_direct for each radial kind in `kinds` over equal-shape 1-d
    arrays: (f, f'), each of shape (kinds, n).  sin, cos and the prefactors
    come once per distinct (l, rho); one hyp2f1 array call sums every
    kind's series and, where a b != 0, the series 2F1(a+1, b+1; c+1) of its
    x-derivative (a b / c) 2F1(a+1, b+1; c+1), as hyp2f1_dx forms it."""
    table = _per_distinct(lambda ll, r: sum(
        (_prefactor_fd(kind, ll, r, params) for kind in kinds),
        (math.sin(r), math.cos(r))), l, rho)
    s, cs, pre, dpre = table[0], table[1], table[2::2], table[3::2]
    a, b, c = np.stack([np.broadcast_arrays(*hyper_params(kind, omega, l, params))
                        for kind in kinds], axis=1)
    on_sin = np.array([[kind in (RadialKind.Sa, RadialKind.Sb)] for kind in kinds])
    u = np.where(on_sin, s * s, cs * cs)
    du = np.where(on_sin, 2.0 * s * cs, -2.0 * s * cs)
    live = (a != 0.0) & (b != 0.0)  # elsewhere the shifted series is made trivial
    f_val, g_val = hyp2f1(np.stack([a, np.where(live, a + 1.0, 0.0)]),
                          np.stack([b, b + 1.0]), np.stack([c, c + 1.0]), u)
    df_val = np.zeros(a.shape)
    df_val[live] = a[live] * b[live] / c[live] * g_val[live]
    df_val = df_val * du
    return pre * f_val, dpre * f_val + pre * df_val


def _on_transfer(kind: RadialKind, omega, l, rho, params: AdsParams) -> np.ndarray:
    """Which elements of the 1-d arrays radial_eval_fd takes through the
    transfer matrix: inside (0, pi/2), past the series cutoff and with a
    series that does not terminate (a terminating one is direct anywhere)."""
    on_sin = kind in (RadialKind.Sa, RadialKind.Sb)
    arg = _per_distinct(lambda r: (math.sin(r) if on_sin else math.cos(r)) ** 2, rho)
    via = (arg > DEFAULT_POLICY.arg_cutoff) & (0.0 < rho) & (rho < math.pi / 2)
    if via.any():
        a, b, _ = hyper_params(kind, omega, l, params)
        for v in (a, b):
            via &= ~((v <= 0.0) & (v == np.floor(v)))
    return via


# below this many points the scalar loop per point is faster: an array call
# costs several scalar series in numpy overhead
_BLOCK_MIN = 16


def _radial_eval_fd_array(kind: RadialKind, omega, l, rho, params: AdsParams):
    """Array path of radial_eval_fd: the same checks and branches per
    element, each branch one array call over its elements.  Below
    _BLOCK_MIN points the scalar loop runs."""
    shape = np.broadcast(omega, l, rho).shape
    omega, l, rho = (np.broadcast_to(v, shape).ravel() for v in (omega, l, rho))
    if rho.size == 0:
        return np.zeros(shape), np.zeros(shape)
    if rho.size < _BLOCK_MIN:
        f, df = _per_distinct(
            lambda *v: _radial_eval_fd_scalar(kind, *v, params), omega, l, rho)
        return f.reshape(shape), df.reshape(shape)
    if not np.all((0.0 <= rho) & (rho < math.pi / 2)):
        raise DomainError("rho must lie in [0, pi/2)")
    axis = rho == 0.0
    if axis.any():
        if kind is RadialKind.Sb:
            raise SingularPoint("S^b diverges on the time axis")
        if kind in (RadialKind.Ca, RadialKind.Cb):
            if not params.c_modes_valid:
                raise CapabilityError("C-modes need noninteger nu")
            raise SingularPoint("C-modes diverge on the time axis")
    f = np.where(axis & (l == 0), 1.0, 0.0)
    df = np.where(axis & (l == 1), 1.0, 0.0)
    via = _on_transfer(kind, omega, l, rho, params)
    direct = ~axis & ~via
    if direct.all():
        (f,), (df,) = _radial_direct_array((kind,), omega, l, rho, params)
    elif direct.any():
        (f[direct],), (df[direct],) = _radial_direct_array(
            (kind,), omega[direct], l[direct], rho[direct], params)
    if via.any():
        on_sin = kind in (RadialKind.Sa, RadialKind.Sb)
        om, ll, rr = omega[via], l[via], rho[via]
        m11, m12, m21, m22 = _transfer_entries(om, ll, params, not on_sin)
        pair = ((RadialKind.Ca, RadialKind.Cb) if on_sin
                else (RadialKind.Sa, RadialKind.Sb))
        (fa, fb), (da, db) = _radial_direct_array(pair, om, ll, rr, params)
        if kind in (RadialKind.Sa, RadialKind.Ca):
            f[via], df[via] = m11 * fa + m12 * fb, m11 * da + m12 * db
        else:
            f[via], df[via] = m21 * fa + m22 * fb, m21 * da + m22 * db
    return f.reshape(shape), df.reshape(shape)


# A sparse pointwise job uses at most 25 distinct radial tables, a dense tube job 2;
# with 8-byte inputs, 64 x 2048 x 5 arrays (3 keys, f, f') x 8 B = 5 MiB at most.
_radial_table = memo("radial_table", 64, 2048)(_radial_eval_fd_array)


def radial_eval_fd(kind: RadialKind, omega, l, rho, params: AdsParams):
    """Radial function and its rho-derivative: the direct series where its
    argument is at most DEFAULT_POLICY.arg_cutoff (0.75) or it terminates,
    the transfer matrix M from the other pair's series elsewhere.

    omega, l and rho may be broadcastable ndarrays: each element then takes
    the branch the scalar call would take and its result is bit-identical
    to the scalar call's.  Each branch is one hyp2f1 array call over the
    series of the kinds it needs and of their x-derivatives; fewer than
    _BLOCK_MIN points are evaluated one by one.  Array results are
    read-only and memoized on the arguments as `np.asarray` gives them.
    """
    if any(isinstance(v, np.ndarray) for v in (omega, l, rho)):
        return _radial_table(kind, *map(np.asarray, (omega, l, rho)), params)
    return _radial_eval_fd_scalar(kind, omega, l, rho, params)


def _radial_eval_fd_scalar(kind: RadialKind, omega: float, l: int, rho: float,
                           params: AdsParams):
    """radial_eval_fd at one point: the reference the array path reproduces."""
    if not 0.0 <= rho < math.pi / 2:
        raise DomainError("rho must lie in [0, pi/2)")
    if kind is RadialKind.Sb and rho == 0.0:
        raise SingularPoint("S^b diverges on the time axis")
    if rho == 0.0:
        if kind in (RadialKind.Ca, RadialKind.Cb):
            if not params.c_modes_valid:
                raise CapabilityError("C-modes need noninteger nu")
            raise SingularPoint("C-modes diverge on the time axis")
        return (1.0, 0.0) if l == 0 else (0.0, 1.0 if l == 1 else 0.0)
    if _direct_ok(kind, omega, l, rho, params):
        return _radial_direct(kind, omega, l, rho, params)
    mat = transfer_matrix(omega, l, params)
    if kind in (RadialKind.Sa, RadialKind.Sb):
        ca, dca = _radial_direct(RadialKind.Ca, omega, l, rho, params)
        cb, dcb = _radial_direct(RadialKind.Cb, omega, l, rho, params)
        if kind is RadialKind.Sa:
            return mat.m11 * ca + mat.m12 * cb, mat.m11 * dca + mat.m12 * dcb
        return mat.m21 * ca + mat.m22 * cb, mat.m21 * dca + mat.m22 * dcb
    inv = mat.inverse()
    sa, dsa = _radial_direct(RadialKind.Sa, omega, l, rho, params)
    sb, dsb = _radial_direct(RadialKind.Sb, omega, l, rho, params)
    if kind is RadialKind.Ca:
        return inv.m11 * sa + inv.m12 * sb, inv.m11 * dsa + inv.m12 * dsb
    return inv.m21 * sa + inv.m22 * sb, inv.m21 * dsa + inv.m22 * dsb


def radial_eval(kind: RadialKind, omega, l, rho, params: AdsParams):
    """The radial function alone; arrays as in radial_eval_fd."""
    return radial_eval_fd(kind, omega, l, rho, params)[0]


def _jacobi_norm_prefactor(n: int, l: int, params: AdsParams) -> float:
    """n! / (l + d/2)_n, via log-gammas for large n."""
    ga = l + params.d / 2.0
    return math.exp(log_gamma(n + 1.0) + log_gamma(ga) - log_gamma(n + ga))


def _pow(x: np.ndarray, p) -> np.ndarray:
    """x ** p per element through Python's float pow, the scalar path's bits."""
    out = np.fromiter(map(pow, x.ravel().tolist(), repeat(p)), float, x.size)
    return out.reshape(x.shape)


def jacobi_radial(branch: str, n: int, l: int, rho, params: AdsParams):
    """Jacobi radial mode J+-_{nl}(rho) =
    (n!/(l+d/2)_n) sin^l cos^{D+-} P_n^{(l+d/2-1, +-nu)}(cos 2 rho).

    Accepts scalar or ndarray rho (scalar in, scalar out); bit for bit
    `jacobi_radial_fd(...)[0]`, without forming dJ/drho.
    """
    return _jacobi_radial(branch, n, l, rho, params, False)[0][()]


def jacobi_radial_fd(branch: str, n: int, l: int, rho, params: AdsParams):
    """(J, dJ/drho), vectorized over rho.  The powers in the prefactor of J
    are taken per point with Python's pow (np.power on arrays can differ
    from scalar ** in the last bit), so J at a point does not depend on the
    array it sits in."""
    return _jacobi_radial(branch, n, l, rho, params, True)


def _jacobi_radial(branch: str, n: int, l: int, rho, params: AdsParams, drho: bool):
    """(J, dJ/drho) of jacobi_radial_fd, with None for dJ/drho unless drho."""
    if branch == "minus" and not params.exceptional_range:
        raise ExceptionalBranch(
            f"minus branch requires nu in (0,1); nu = {params.nu}")
    nu = params.nu if branch == "plus" else -params.nu
    ex = params.delta_plus if branch == "plus" else params.delta_minus
    ga = l + params.d / 2.0
    pref = _jacobi_norm_prefactor(n, l, params)
    rho = np.asarray(rho, dtype=float)
    s, c = np.sin(rho), np.cos(rho)
    head = pref * _pow(s, l) * _pow(c, ex)
    x = np.cos(2.0 * rho)
    pval = jacobi_p(ga - 1.0, nu, n, x)
    if not drho:
        return head * pval, None
    dval = jacobi_p_dx(ga - 1.0, nu, n, x) * (-2.0 * np.sin(2.0 * rho))
    if l == 0:
        pre = c ** ex
        dpre = -ex * s * c ** (ex - 1.0)
    else:
        pre = s ** l * c ** ex
        dpre = l * s ** (l - 1.0) * c ** (ex + 1.0) - ex * s ** (l + 1.0) * c ** (ex - 1.0)
    return head * pval, pref * (dpre * pval + pre * dval)


def norm_constant(branch: str, n: int, l: int, params: AdsParams) -> float:
    """Equal-time norm N+-_{nl} = int_0^{pi/2} tan^{d-1} (J+-_{nl})^2 drho
    in closed form:
    n! G(g)^2 G(n+-nu+1) / (2 w+-_{nl} G(n+g) G(n+-nu+g)), g = l + d/2.
    """
    if branch == "minus" and not params.exceptional_range:
        raise ExceptionalBranch(
            f"minus branch requires nu in (0,1); nu = {params.nu}")
    nu = params.nu if branch == "plus" else -params.nu
    ga = l + params.d / 2.0
    om = magic_frequency(branch, n, l, params)
    return math.exp(log_gamma(n + 1.0) + 2.0 * log_gamma(ga)
                    + log_gamma(n + nu + 1.0) - log_gamma(n + ga)
                    - log_gamma(n + nu + ga)) / (2.0 * om)


def wronskian(kind_a: RadialKind, kind_b: RadialKind, omega: float, l: int,
              rho: float, params: AdsParams) -> float:
    """Weighted Wronskian tan^{d-1}(rho) (f_a f_b' - f_b f_a'); constant in
    rho for two solutions of the same radial equation."""
    fa, da = radial_eval_fd(kind_a, omega, l, rho, params)
    fb, db = radial_eval_fd(kind_b, omega, l, rho, params)
    return _weighted_wronskian(fa, da, fb, db, rho, params.d)


def mode_eval(label, point, params: AdsParams,
              kind: RadialKind | None = None) -> complex:
    """Full spacetime mode e^{-i omega t} Y_l^m(Omega) radial(rho).

    `label` is a TubeLabel (kind selects the radial family, default S^a) or
    a SliceLabel (Jacobi radial at the magic frequency).  `point` is
    (t, rho, theta, phi); d = 3 only (UnsupportedDimension otherwise).
    """
    require_two_sphere(params.d)
    t, rho, theta, phi = point
    if isinstance(label, SliceLabel):
        omega = magic_frequency(label.branch, label.n, label.l, params)
        radial = jacobi_radial(label.branch, label.n, label.l, rho, params)
        l, m = label.l, label.m
    else:
        omega = label.omega
        l, m = label.l, label.m
        radial = radial_eval(kind or RadialKind.Sa, omega, l, rho, params)
    return np.exp(-1j * omega * t) * sph_harm(l, m, theta, phi) * radial

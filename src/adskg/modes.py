"""The AdS Klein-Gordon mode zoo.

Radial functions come in two linearly independent pairs:

  S^a = sin^l cos^{D+} 2F1(alpha, beta; gamma; sin^2 rho)      regular on axis
  S^b = -sin^{2-l-d} cos^{D+} 2F1(a-g+1, b-g+1; 2-g; sin^2)    singular on axis
  C^a = sin^l cos^{D+} 2F1(alpha, beta; 1+nu; cos^2 rho)       decays at boundary
  C^b = sin^l cos^{D-} 2F1(.., ..; 1-nu; cos^2 rho)            diverges there

with alpha = (l + D+ - omega)/2, beta = (l + D+ + omega)/2, gamma = l + d/2.
One fixed rule picks the route: the direct series while its argument
(sin^2 rho for S, cos^2 rho for C) is at most specfun.ARG_CUTOFF = 0.75
or the series terminates; otherwise the S <-> C transfer matrix, whose
entries are the Gamma-function connection coefficients of 2F1 at z -> 1 - z.
At the magic frequencies omega+-_{nl} = 2n + l + D+- the S^a series
terminates and coincides with the normalizable Jacobi mode J+-_{nl}; for
omega+ a denominator Gamma of m12 has its pole there, so m12 = 0.
radial_eval_fd builds the kinds of one basis together (a tube synthesis
needs both): past the cutoff both are rows of M, or of M^-1, applied to the
same pair of the other basis's series, so each series is summed once.  An
array call (every synthesis and inversion) takes the array path at every
size, one point included.  A build takes sin rho, cos rho and the series
argument once per distinct rho and (alpha, beta, gamma) of every kind
from one S^a row, routes each element, and sums every series it needs in
one hyp2f1 call; its radial tables are memoized per kind, with the other
basis's tables where a build summed them at every point (a later build
past the cutoff reads them in place of the series; `adskg.memo`).  A
scalar call takes the scalar path, the array path's reference.  Both
raise DomainError naming the first (kind, omega, l, rho) whose f or f' is
not finite.  Transfer matrices are formed afresh on every call.
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
from .memo import Memo, key, memo
from .specfun import (ARG_CUTOFF, hyp2f1, hyp2f1_dx, hyp2f1_terminates,
                      jacobi_p, jacobi_p_dx)


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
    """Radial prefactor and its rho-derivative for each kind; both infinite
    where a power leaves the double range."""
    s, c = math.sin(rho), math.cos(rho)
    dp, dm = params.delta_plus, params.delta_minus
    try:
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
    except OverflowError:  # Python's pow raises where numpy's gives inf
        return math.inf, math.inf


def _direct_ok(kind: RadialKind, omega: float, l: int, rho: float,
               params: AdsParams) -> bool:
    a, b, _ = hyper_params(kind, omega, l, params)
    arg = math.sin(rho) ** 2 if kind in (RadialKind.Sa, RadialKind.Sb) \
        else math.cos(rho) ** 2
    return arg <= ARG_CUTOFF or hyp2f1_terminates(a, b)


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


def transfer_matrix(omega: float, l: int, params: AdsParams) -> TransferMatrix:
    """Transfer matrix M with (S^a, S^b) = M (C^a, C^b) at fixed (omega, l):
    _transfer_entries on Python scalars."""
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
    table = dict.fromkeys(keys)
    for key in table:
        table[key] = fn(*key)
    out = np.array([table[key] for key in keys])
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


# a kind's code in the array path is its index here: S kinds 0 and 1, C
# kinds 2 and 3, the a kind of each basis even
_KINDS = tuple(RadialKind)


def _hyper_rows(omega, l, params: AdsParams) -> np.ndarray:
    """hyper_params of the four kinds at the 1-d omega and l, by kind code:
    shape (4, 3, n), every row formed from the one S^a row with
    hyper_params' bits.  The C rows are formed unchecked; only a caller
    that has checked the C-modes exist reads them."""
    al, be, ga = hyper_params(RadialKind.Sa, omega, l, params)
    gc = np.full(al.shape, 1.0 + params.nu)
    return np.array([(al, be, ga), (al - ga + 1.0, be - ga + 1.0, 2.0 - ga),
                     (al, be, gc), (al - gc + 1.0, be - gc + 1.0, 2.0 - gc)])


def _radial_direct_array(codes, l, rho, s, c, abc, params: AdsParams):
    """_radial_direct at each element of equal-length 1-d arrays, element i
    of the kind _KINDS[codes[i]] with the hypergeometric parameters
    abc[:, i] at rho[i], whose sine and cosine are s[i] and c[i]: (f, f'),
    each of shape (n,).  The prefactor comes once per distinct (kind, l,
    rho); one hyp2f1 array call sums every element's series and, where
    a b != 0, the series 2F1(a+1, b+1; c+1) of its x-derivative
    (a b / c) 2F1(a+1, b+1; c+1), as hyp2f1_dx forms it."""
    pre, dpre = _per_distinct(lambda i, ll, r: _prefactor_fd(_KINDS[i], ll, r, params),
                              codes, l, rho)
    a, b, cc = abc
    on_sin = codes < 2
    u = np.where(on_sin, s * s, c * c)
    du = np.where(on_sin, 2.0, -2.0) * s * c
    live = (a != 0.0) & (b != 0.0)  # elsewhere the shifted series is made trivial
    f_val, g_val = hyp2f1(np.array([a, np.where(live, a + 1.0, 0.0)]),
                          np.array([b, b + 1.0]), np.array([cc, cc + 1.0]), u)
    df_val = np.where(live, a * b / cc * g_val, 0.0) * du
    return pre * f_val, dpre * f_val + pre * df_val


def _check_axis(kind: RadialKind, params: AdsParams) -> None:
    """Raise for a kind that is singular on the time axis rho = 0."""
    if kind is RadialKind.Sb:
        raise SingularPoint("S^b diverges on the time axis")
    if kind in (RadialKind.Ca, RadialKind.Cb):
        if not params.c_modes_valid:
            raise CapabilityError("C-modes need noninteger nu")
        raise SingularPoint("C-modes diverge on the time axis")


def _trig(rho: float, on_sin: bool) -> tuple:
    """sin rho, cos rho and the argument of the S (on_sin) or C series,
    as the scalar path takes them; DomainError outside [0, pi/2)."""
    if not 0.0 <= rho < math.pi / 2:
        raise DomainError("rho must lie in [0, pi/2)")
    s, c = math.sin(rho), math.cos(rho)
    return s, c, (s if on_sin else c) ** 2


def _not_finite(kind: RadialKind, omega, l, rho) -> DomainError:
    """The error of a radial value or derivative past the double range."""
    return DomainError(f"{kind.value} or its rho-derivative is not finite at "
                       f"(omega, l, rho) = ({omega!r}, {l!r}, {rho!r})")


def _radial_eval_fd_array(kinds: tuple, omega, l, rho, params: AdsParams,
                          pair_tables=None) -> dict:
    """Array path of radial_eval_fd for kinds of one basis: {kind: (f, f')},
    with the same checks and branches per element as the scalar path.
    sin rho, cos rho and the kinds' series argument come once per distinct
    rho, the hypergeometric parameters of every kind from one S^a row.
    Elements inside (0, pi/2), past the series cutoff and with a series
    that does not terminate take the transfer matrix.  One
    _radial_direct_array call sums each series once: a kind's own where it
    is direct and, where any kind takes the transfer matrix, the other
    basis's pair, which each such kind combines with its row of M (S) or
    M^-1 (C).  Where that pair was summed at every element its two tables
    are returned too.  pair_tables, that pair's (f, f') tables at the same
    points, stand in for its series.  DomainError names the first kind and
    element whose f or f' is not finite."""
    shape = np.broadcast(omega, l, rho).shape
    if 0 in shape:
        return {kind: (np.zeros(shape), np.zeros(shape)) for kind in kinds}
    codes = np.array([_KINDS.index(kind) for kind in kinds])
    on_sin = bool(codes[0] < 2)
    # sin rho, cos rho and the kinds' series argument once per distinct rho
    trig = _per_distinct(lambda r: _trig(r, on_sin), np.ravel(rho))
    omega, l, rho, s, c, arg = (v.ravel() if v.shape == shape else np.broadcast_to(
        v, shape).ravel() for v in (omega, l, rho, *trig.reshape((3,) + np.shape(rho))))
    axis = rho == 0.0
    if axis.any():
        for kind in kinds:
            _check_axis(kind, params)
    if not (on_sin or params.c_modes_valid):
        raise CapabilityError(f"C-modes undefined at (near-)integer nu = {params.nu}")
    pair = [2, 3] if on_sin else [0, 1]
    abc = _hyper_rows(omega, l, params)
    ab = abc[codes, :2]
    via = (arg > ARG_CUTOFF) & ~axis \
        & ~((ab <= 0.0) & (ab == np.floor(ab))).any(axis=1)
    cross = via.any(axis=0)  # where the pair's series are summed
    with np.errstate(over="ignore", invalid="ignore"):  # checked at the end
        if cross.any():
            mat = _transfer_entries(omega[cross], l[cross], params, not on_sin)
        need = np.zeros((len(_KINDS), rho.size), dtype=bool)
        need[codes], need[pair] = ~axis & ~via, cross & (pair_tables is None)
        series = np.zeros((2,) + need.shape)
        if pair_tables is not None:
            series[:, pair] = np.reshape(pair_tables, (2, 2, -1)).swapaxes(0, 1)
        code, el = np.nonzero(need)
        if el.size:  # else every element lies on the axis
            series[:, need] = _radial_direct_array(code, l[el], rho[el], s[el], c[el],
                                                   abc[code, :, el].T, params)
        out = np.zeros((2,) + via.shape)
        out[0, :, axis & (l == 0)] = out[1, :, axis & (l == 1)] = 1.0
        direct = ~axis & ~via
        out[:, direct] = series[:, codes][:, direct]
        if cross.any():
            row = mat.reshape(2, 2, -1)[codes % 2]  # (kinds, 2, elements)
            fa, fb = series[:, pair][..., cross].swapaxes(0, 1)[:, :, None]
            out[:, via] = (row[:, 0] * fa + row[:, 1] * fb)[:, via[:, cross]]
    if cross.all() and pair_tables is None:
        kinds, out = kinds + _KINDS[pair[0]:pair[1] + 1], np.concatenate([out, series[:, pair]], 1)
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise _not_finite(kinds[k], omega[i].item(), l[i].item(), rho[i].item())
    return {kind: (f.reshape(shape), df.reshape(shape)) for kind, f, df in zip(kinds, *out)}


def _radial_table(kinds: tuple, omega, l, rho, params: AdsParams) -> list:
    """The (f, f') tables of radial_eval_fd's array call for each of the
    kinds, memoized per kind on (kind, omega, l, rho, params).  Each lookup
    counts a hit or a miss; the kinds missed are built together, from the
    other basis's stored tables where both are held, and the tables of
    other kinds the build also returns are stored; neither counts."""
    cache, args = _radial_table.memo, key(omega, l, rho, params)
    found = {kind: cache.get(key(kind) + args) for kind in kinds}
    missing = tuple(kind for kind in kinds if found[kind] is None)
    if missing:
        pair = [cache.peek(key(k) + args) for k in (
            _KINDS[2:] if _KINDS.index(missing[0]) < 2 else _KINDS[:2])]
        for kind, table in _radial_eval_fd_array(missing, omega, l, rho, params, (
                None if None in pair else pair)).items():
            if found.get(kind) is None:
                found[kind] = cache.put(key(kind) + args, table)
    return [found[kind] for kind in kinds]


# One entry per kind: a sparse pointwise job uses at most 25 distinct radial
# tables, a dense tube job 4 and `verify all` 72 with its by-product tables;
# with 8-byte inputs, 128 x 2048 x 5 arrays (3 keys, f, f') x 8 B = 10 MiB at most.
_radial_table.memo = Memo("radial_table", 128, 2048)


def radial_eval_fd(kind, omega, l, rho, params: AdsParams):
    """Radial function and its rho-derivative: the direct series where its
    argument is at most ARG_CUTOFF (0.75) or it terminates, the transfer
    matrix M from the other pair's series elsewhere.

    kind may be a tuple of kinds of one basis: f and f' then have a leading
    axis over them.  omega, l and rho may be broadcastable ndarrays: each
    element then takes the branch the scalar call would take and its result
    is bit-identical to the scalar call's.  Each branch is one hyp2f1 array
    call over the series of the kinds it needs and of their x-derivatives,
    each summed once: past the cutoff the kinds share the other basis's
    pair.  Array results are memoized per kind on the arguments as
    `np.asarray` gives them (a single kind's are read-only).  A build
    that summed the other basis's pair at every point stores that pair's
    tables too, and a build that finds them stored sums no pair series, so
    past either cutoff the S and C bases at the same points are built once.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if len({k in (RadialKind.Sa, RadialKind.Sb) for k in kinds}) != 1:
        raise ValueError(f"radial kinds {kinds} are not of one basis")
    if any(isinstance(v, np.ndarray) for v in (omega, l, rho)):
        tables = _radial_table(kinds, *map(np.asarray, (omega, l, rho)), params)
    else:
        out = _radial_eval_fd_scalar(kinds, omega, l, rho, params)
        tables = [out[k] for k in kinds]
    return np.array(tables).swapaxes(0, 1) if kinds is kind else tables[0]


def _radial_eval_fd_scalar(kinds: tuple, omega: float, l: int, rho: float,
                           params: AdsParams) -> dict:
    """radial_eval_fd at one point for a tuple of kinds: {kind: (f, f')},
    the reference the array path reproduces.  Each direct series is summed
    once; the result also holds every other kind whose series was summed
    (the partner pair of a kind past its cutoff).  DomainError, as in the
    array path, where an f or f' is not finite."""
    if not 0.0 <= rho < math.pi / 2:
        raise DomainError("rho must lie in [0, pi/2)")
    if rho == 0.0:
        for kind in kinds:
            _check_axis(kind, params)
        return dict.fromkeys(kinds, (1.0, 0.0) if l == 0 else (0.0, 1.0 if l == 1 else 0.0))
    out = {kind: _radial_direct(kind, omega, l, rho, params)
           for kind in kinds if _direct_ok(kind, omega, l, rho, params)}
    via = [kind for kind in kinds if kind not in out]
    if via:
        on_sin = kinds[0] in (RadialKind.Sa, RadialKind.Sb)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            mat = _transfer_entries(omega, l, params, not on_sin).tolist()
        pair = _KINDS[2:] if on_sin else _KINDS[:2]
        for p in pair:
            out[p] = _radial_direct(p, omega, l, rho, params)
        (fa, da), (fb, db) = out[pair[0]], out[pair[1]]
        for kind in via:
            m1, m2 = mat[:2] if kind in (RadialKind.Sa, RadialKind.Ca) else mat[2:]
            out[kind] = m1 * fa + m2 * fb, m1 * da + m2 * db
    for kind in kinds + tuple(out):  # the kinds asked first, as the array path
        if not (math.isfinite(out[kind][0]) and math.isfinite(out[kind][1])):
            raise _not_finite(kind, omega, l, rho)
    return out


def radial_eval(kind: RadialKind, omega, l, rho, params: AdsParams):
    """The radial function alone; arrays as in radial_eval_fd."""
    return radial_eval_fd(kind, omega, l, rho, params)[0]


def _pow(x: np.ndarray, p) -> np.ndarray:
    """x ** p per element through Python's float pow, the scalar path's bits."""
    out = np.fromiter(map(pow, x.ravel().tolist(), repeat(p)), float, x.size)
    return out.reshape(x.shape)


def _int_powers(x: np.ndarray, top):
    """k -> x ** k for the integers 0 <= k <= top, broadcast against x, from
    one `_pow(x, float(e))` over the whole of x per e, so each element has
    the bits of a call on x with a scalar exponent."""
    table = np.array([_pow(x, float(e)) for e in range(top + 1)]).reshape(top + 1, -1)
    return lambda k: table[k, np.arange(np.size(x)).reshape(np.shape(x))]


def _jacobi_labels(branch: str, n, l, params: AdsParams):
    """(n, l, nu, pref, norm) of J+-_{nl}: n and l broadcast, as integer
    arrays, nu signed by the branch, and n!/(g)_n and N+-_{nl} (g = l + d/2)
    at each label, each one sum of libm's log-Gammas exponentiated on Python
    numbers.  ExceptionalBranch for the minus branch outside nu in (0, 1),
    DomainError naming the first (n, l) that is not two integers >= 0."""
    if branch == "minus" and not params.exceptional_range:
        raise ExceptionalBranch(
            f"minus branch requires nu in (0,1); nu = {params.nu}")
    nu = params.nu if branch == "plus" else -params.nu
    n, l = np.broadcast_arrays(n, l)
    terms = []
    for nn, ll in zip(n.ravel().tolist(), l.ravel().tolist()):
        if not (nn >= 0 and ll >= 0 and float(nn).is_integer() and float(ll).is_integer()):
            raise DomainError(f"Jacobi modes need integers n >= 0 and l >= 0, got "
                              f"(n, l) = ({nn}, {ll})")
        ga = ll + params.d / 2.0
        lg_n, lg_g, lg_ng = math.lgamma(nn + 1.0), math.lgamma(ga), math.lgamma(nn + ga)
        terms.append((math.exp(lg_n + lg_g - lg_ng), math.exp(
            lg_n + 2.0 * lg_g + math.lgamma(nn + nu + 1.0) - lg_ng - math.lgamma(nn + nu + ga))
            / (2.0 * magic_frequency(branch, nn, ll, params))))
    pref, norm = np.array(terms).T.reshape((2,) + n.shape)
    return n.astype(int), l.astype(int), nu, pref, norm


def jacobi_radial(branch: str, n, l, rho, params: AdsParams):
    """Jacobi radial mode J+-_{nl}(rho) = (n!/(l+d/2)_n) sin^l cos^{D+-}
    P_n^{(l+d/2-1, +-nu)}(cos 2 rho), n, l and rho broadcast (scalars in,
    scalar out): bit for bit `jacobi_radial_fd(...)[0]`, without dJ/drho."""
    return _jacobi_radial(branch, n, l, rho, params, False)[0][()]


def jacobi_radial_fd(branch: str, n, l, rho, params: AdsParams):
    """(J, dJ/drho) over broadcast n, l and rho; n and l integers >= 0 and
    rho in [0, pi/2], where J is finite (DomainError), an integer-valued
    float n or l taken as its integer.  Each element is bit for bit the
    call at its scalar (n, l) on the same rho, and neither J nor dJ/drho at
    a point depends on the array it sits in: all powers are Python's pow
    (np.power on arrays can differ in the last bit).  Array calls are
    memoized on the arguments as `np.asarray` gives them, and their tables
    are read-only (`adskg.memo`)."""
    if any(isinstance(v, np.ndarray) for v in (n, l, rho)):
        return _jacobi_table(branch, *map(np.asarray, (n, l, rho)), params)
    return _jacobi_radial(branch, n, l, rho, params, True)


# `verify all` builds 10 distinct tables, a slice `adskg reconstruct` 1 or 2; with
# 8-byte inputs, 32 x 2^14 x 5 arrays (n, l, rho, J, dJ) x 8 B = 20 MiB at most.
@memo("jacobi_table", 32, 1 << 14)
def _jacobi_table(branch: str, n, l, rho, params: AdsParams):
    return _jacobi_radial(branch, n, l, rho, params, True)


def _jacobi_radial(branch: str, n, l, rho, params: AdsParams, drho: bool):
    """(J, dJ/drho) of jacobi_radial_fd, with None for dJ/drho unless drho;
    sin, cos and cos 2 rho are taken on rho as given."""
    n, l, nu, pref, _ = _jacobi_labels(branch, n, l, params)
    ex = params.delta_plus if branch == "plus" else params.delta_minus
    ga = l + params.d / 2.0
    rho = np.asarray(rho, dtype=float)
    if not np.all((0.0 <= rho) & (rho <= math.pi / 2)):
        raise DomainError("Jacobi modes need rho in [0, pi/2]")
    s, c, x = np.sin(rho), np.cos(rho), np.cos(2.0 * rho)
    sp = _int_powers(s, np.max(l, initial=0) + drho)
    sl, cex = sp(l), _pow(c, ex)
    pval = jacobi_p(ga - 1.0, nu, n, x)
    if not drho:
        return pref * sl * cex * pval, None
    dval = jacobi_p_dx(ga - 1.0, nu, n, x) * (-2.0 * np.sin(2.0 * rho))
    down, up = _pow(c, ex - 1.0), _pow(c, ex + 1.0)
    dpre = np.where(l == 0, -ex * s * down, l * sp(np.maximum(l - 1, 0)) * up
                    - ex * sp(l + 1) * down)
    return pref * sl * cex * pval, pref * (dpre * pval + sl * cex * dval)


def norm_constant(branch: str, n, l, params: AdsParams):
    """Equal-time norm N+-_{nl} = int_0^{pi/2} tan^{d-1} (J+-_{nl})^2 drho
    in closed form, n and l broadcast and checked as in jacobi_radial_fd:
    n! G(g)^2 G(n+-nu+1) / (2 w+-_{nl} G(n+g) G(n+-nu+g)), g = l + d/2.
    """
    return _jacobi_labels(branch, n, l, params)[-1][()]


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

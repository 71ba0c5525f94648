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
same pair of the other basis's series, so each series is summed once.
Every call is one build, a call on scalars a build on one point: it takes
sin rho, cos rho and the series arguments per element of rho as given and
(alpha, beta, gamma) of all four kinds from one S^a row, routes every
(kind, element), gathers every series it needs by one flat index into one
hyp2f1 call and scatters the values back into one (f/f', kind, element)
table.  Every family's prefactor sin^lam cos^Delta, J+- included, is one
formula (_prefactor), once per distinct (sin rho, cos rho, lam, Delta).
The radial tables of array calls are memoized per kind, with the other
basis's tables where a build gives them at every point (`adskg.memo`);
scalar calls are not.  A build raises DomainError naming the first
(kind, omega, l, rho) whose f or f' is not finite.  Transfer matrices are
formed afresh per call.  mode_eval is e^{-iwt} R Y_l^m on a broadcast point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import DomainError, ExceptionalBranch, SingularPoint
from .geometry import AdsParams, require_c_modes
from .harmonics import require_two_sphere, sph_harm
from .memo import Memo, key, memo
from .specfun import ARG_CUTOFF, hyp2f1, jacobi_p, jacobi_p_dx


class RadialKind(Enum):
    Sa = "sa"
    Sb = "sb"
    Ca = "ca"
    Cb = "cb"


def _integer_fields(label, *names) -> None:
    """Store the named fields of a frozen label as ints; IndexError naming
    the first that is not integer-valued."""
    for name in names:
        value = getattr(label, name)
        try:
            whole = float(value).is_integer()
        except OverflowError:  # an int past the double range
            raise IndexError(f"need {name} within the double range") from None
        if not whole:
            raise IndexError(f"need integers {', '.join(names)}, got {name} = {value!r}")
        object.__setattr__(label, name, int(value))


@dataclass(frozen=True)
class TubeLabel:
    omega: float
    l: int
    m: int

    def __post_init__(self):
        _integer_fields(self, "l", "m")
        if self.l < 0 or abs(self.m) > self.l:
            raise IndexError(f"need l >= 0 and |m| <= l, got (l, m) = ({self.l}, {self.m})")


@dataclass(frozen=True)
class SliceLabel:
    n: int
    l: int
    m: int
    branch: str = "plus"

    def __post_init__(self):
        _integer_fields(self, "n", "l", "m")
        if self.n < 0 or self.l < 0 or abs(self.m) > self.l:
            raise IndexError(f"need n, l >= 0 and |m| <= l, got (n, l) = ({self.n}, "
                             f"{self.l}) and m = {self.m}")
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
    require_c_modes(params)
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


def _prefactor(s, c, lam, ex) -> np.ndarray:
    """s^lam, c^ex and the rho-derivative of their product,
    lam s^(lam-1) c^(ex+1) - ex s^(lam+1) c^(ex-1), or -ex s c^(ex-1) where
    lam = 0, over the broadcast sin rho, cos rho, lam and ex: shape (3,) +
    theirs.  One sort finds the distinct (s, c, lam, ex), told apart by
    their bits, and each is one scalar formula on Python floats, so every
    power is Python's pow (np.power can differ in the last bit) and an
    element has the same bits in any array; all three are inf where a
    power leaves the double range.  The radial prefactor sin^lam cos^ex of
    every family is the product of the first two: lam = l (S^b: minus it
    at 2 - l - d) and ex = Delta+ (C^b, J-: Delta-)."""
    args = np.empty((4,) + np.broadcast(s, c, lam, ex).shape)
    args[0], args[1], args[2], args[3] = s, c, lam, ex
    flat = args.reshape(4, -1)
    order = np.lexsort(flat.view(np.int64))
    bits = flat.view(np.int64)[:, order]
    new = np.empty(order.size, dtype=bool)
    new[:1] = True
    new[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    at = np.empty_like(order)
    at[order] = new.cumsum() - 1
    table = [_prefactor_at(*key) for key in flat[:, order[new]].T.tolist()]
    return np.array(table).reshape(-1, 3).T[:, at].reshape((3,) + args.shape[1:])


def _prefactor_at(s: float, c: float, lam: float, ex: float) -> tuple:
    """_prefactor's three values at one key, by Python's float pow."""
    try:
        if lam == 0:
            return s ** lam, c ** ex, -ex * s * c ** (ex - 1)
        return s ** lam, c ** ex, (lam * s ** (lam - 1) * c ** (ex + 1)
                                   - ex * s ** (lam + 1) * c ** (ex - 1))
    except OverflowError:  # Python's pow raises where numpy's gives inf
        return math.inf, math.inf, math.inf


def _weighted_wronskian(fa, da, fb, db, rho: float, d: int) -> float:
    """tan^{d-1}(rho) (f_a f_b' - f_b f_a'): constant in rho for two
    solutions of the same radial equation."""
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
    require_c_modes(params, "transfer matrix")
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


# a kind's code in the array path is its index here: S kinds 0 and 1, C
# kinds 2 and 3, the a kind of each basis even
_KINDS = tuple(RadialKind)


def _radial_direct_array(codes, l, s, c, abc, params: AdsParams) -> np.ndarray:
    """(f, f') by the direct series at each element of equal-length 1-d
    arrays, element i of the kind _KINDS[codes[i]] with the hypergeometric
    parameters abc[:, i] at the rho whose sine and cosine are s[i] and
    c[i]: shape (2, n).  One _prefactor call gives every element's
    prefactor; one hyp2f1 call on (2, n) rows evaluates every element's
    series and, where a b != 0, the series 2F1(a+1, b+1; c+1) of its
    x-derivative (a b / c) 2F1(a+1, b+1; c+1), which is 0 where a b = 0."""
    sb, on_sin = codes == 1, codes < 2
    sl, cex, dpre = _prefactor(s, c, np.where(sb, 2 - l - params.d, l), np.where(
        codes == 3, params.delta_minus, params.delta_plus))
    sign = np.where(sb, -1.0, 1.0)
    pre, dpre = sign * (sl * cex), sign * dpre
    a, b, cc = abc
    u = np.where(on_sin, s * s, c * c)
    du = np.where(on_sin, 2.0, -2.0) * s * c
    live = (a != 0.0) & (b != 0.0)
    shifted = abc + 1.0
    shifted[0, ~live] = 0.0  # a trivial series where a b = 0
    f_val, g_val = hyp2f1(*np.array([abc, shifted]).swapaxes(0, 1), u)
    df_val = np.where(live, a * b / cc * g_val, 0.0) * du
    return np.array([pre * f_val, dpre * f_val + pre * df_val])


def _check_axis(kind: RadialKind) -> None:
    """Raise for a kind that is singular on the time axis rho = 0."""
    if kind is RadialKind.Sb:
        raise SingularPoint("S^b diverges on the time axis")
    if kind in (RadialKind.Ca, RadialKind.Cb):
        raise SingularPoint("C-modes diverge on the time axis")


def _not_finite(kind: RadialKind, omega, l, rho) -> DomainError:
    """The error of a radial value or derivative past the double range."""
    return DomainError(f"{kind.value} or its rho-derivative is not finite at "
                       f"(omega, l, rho) = ({omega!r}, {l!r}, {rho!r})")


def _radial_eval_fd_array(kinds: tuple, omega, l, rho, params: AdsParams) -> dict:
    """The build of radial_eval_fd for kinds of one basis at every call,
    one point or many: {kind: (f, f')}, routed and checked per element.
    One (f/f', kind, element) table holds every kind: elements inside
    (0, pi/2), past the series cutoff and with a series that does not
    terminate take the transfer matrix, and one _radial_direct_array call,
    gathered from and scattered back by one flat index, sums each series
    once: a kind's own where it is direct and, where any kind takes its
    row of M (S) or M^-1 (C), the other basis's pair.  Where the C-modes
    exist and this build gives them at every element, the pair's finite
    tables are returned too: its series where summed, else its rows of the
    transfer matrix on this basis's pair where both were summed and both
    pair kinds take that route.  DomainError names the first kind asked
    for and element whose f or f' is not finite."""
    shape = np.broadcast(omega, l, rho).shape
    if 0 in shape:
        return {kind: (np.zeros(shape), np.zeros(shape)) for kind in kinds}
    codes = [_KINDS.index(kind) for kind in kinds]
    own, pair = (slice(0, 2), slice(2, 4)) if codes[0] < 2 else (slice(2, 4), slice(0, 2))
    if not ((0.0 <= rho) & (rho < math.pi / 2)).all():
        raise DomainError("rho must lie in [0, pi/2)")
    radii = rho.ravel().tolist()  # by libm on Python floats, the squares by Python's pow
    s, c = list(map(math.sin, radii)), list(map(math.cos, radii))
    table = np.empty(shape + (6,))  # per element: omega, l, sin, cos, sin^2, cos^2
    table[..., 0], table[..., 1], table[..., 2:] = omega, l, np.reshape(
        np.array([s, c, [v ** 2 for v in s], [v ** 2 for v in c]]).T, rho.shape + (4,))
    om, ls, s, c, s2, c2 = table.reshape(-1, 6).T
    axis = s == 0.0
    if on_axis := axis.any():
        for kind in kinds:
            _check_axis(kind)
    # (alpha, beta, gamma) by kind from the S^a row, hyper_params' bits: a b kind
    # is its a kind at (a - c + 1, b - c + 1, 2 - c); C rows only serve C-modes
    rows = np.empty((3, len(_KINDS), s.size))
    rows[0, 0], rows[1, 0], rows[2, 0] = hyper_params(RadialKind.Sa, om, ls, params)
    rows[:2, 2], rows[2, 2] = rows[:2, 0], 1.0 + params.nu
    rows[:2, 1::2] = rows[:2, ::2] - rows[2:, ::2] + 1.0
    rows[2, 1::2] = 2.0 - rows[2, ::2]
    ab = rows[:2]
    # where each kind would take the transfer matrix; an S series' argument
    # is 0 on the axis, where only S^a can be asked for
    routes = (np.array([s2, s2, c2, c2]) > ARG_CUTOFF) \
        & ~((ab <= 0.0) & (ab == np.floor(ab))).any(axis=0)
    asked = np.array([[code in codes] for code in range(len(_KINDS))])
    via = routes & asked
    cross = via.any(axis=0)  # where the pair's series are summed
    crossing = cross.any()
    with np.errstate(over="ignore", invalid="ignore"):  # checked at the end
        if crossing:  # before any series: it refuses integer nu
            mat = _transfer_entries(om[cross], ls[cross], params, codes[0] >= 2)
        need = asked & ~(via | axis)
        need[pair] = cross
        code, el = np.nonzero(need)
        out = np.zeros((2,) + need.shape)  # (f/f', kind, element)
        if el.size:  # else every element lies on the axis
            at = code * s.size + el
            out.reshape(2, -1)[:, at] = _radial_direct_array(
                code, ls[el], s[el], c[el], rows.reshape(3, -1)[:, at], params)
        if on_axis:
            out[0, own, axis & (ls == 0)] = out[1, own, axis & (ls == 1)] = 1.0
        if crossing:  # the asked kinds' rows of M (S) or M^-1 (C) on the pair's series
            fa, fb = out[:, pair, cross].swapaxes(0, 1)[:, :, None]
            row = mat.reshape(2, 2, -1)
            out[:, own][:, via[own]] = (row[:, 0] * fa + row[:, 1] * fb)[:, via[own][:, cross]]
        lift = ~cross & need[own].all(axis=0) & routes[pair].all(axis=0)
        other = params.c_modes_valid and (cross | lift).all()
        if other and lift.any():  # the pair's rows of M^-1 (C) or M (S) on this basis's series
            fa, fb = out[:, own, lift].swapaxes(0, 1)[:, :, None]
            row = _transfer_entries(om[lift], ls[lift], params, codes[0] < 2).reshape(2, 2, -1)
            out[:, pair][..., lift] = row[:, 0] * fa + row[:, 1] * fb
    bad = ~np.isfinite(out).all(axis=0)  # (kind, element)
    for code in codes:
        if bad[code].any():
            raise _not_finite(_KINDS[code], *(np.broadcast_to(v, shape).item(
                bad[code].argmax()) for v in (omega, l, rho)))
    if other:  # and the other basis
        codes += [code for code in range(pair.start, pair.stop) if not bad[code].any()]
    return {_KINDS[code]: (out[0, code].reshape(shape), out[1, code].reshape(shape))
            for code in codes}


def _radial_table(kinds: tuple, omega, l, rho, params: AdsParams) -> list:
    """The (f, f') tables of radial_eval_fd's array call for each of the
    kinds, memoized per kind on (kind, omega, l, rho, params).  Each lookup
    counts a hit or a miss; the kinds missed are built together, and the
    other basis's tables the build also gives are stored too, uncounted."""
    cache, args = _radial_table.memo, key(omega, l, rho, params)
    found = {kind: cache.get(key(kind) + args) for kind in kinds}
    missing = tuple(kind for kind in kinds if found[kind] is None)
    if missing:
        for kind, table in _radial_eval_fd_array(missing, omega, l, rho, params).items():
            found[kind] = cache.put(key(kind) + args, table)
    return [found[kind] for kind in kinds]


# One entry per kind: a sparse pointwise job uses at most 25 distinct radial
# tables, a dense tube job 4 and `verify all` 74 with its by-product tables;
# with 8-byte inputs, 128 x 2048 x 5 arrays (3 keys, f, f') x 8 B = 10 MiB at most.
_radial_table.memo = Memo("radial_table", 128, 2048)


def radial_eval_fd(kind, omega, l, rho, params: AdsParams):
    """Radial function and its rho-derivative: the direct series where its
    argument is at most ARG_CUTOFF (0.75) or it terminates, the transfer
    matrix M from the other pair's series elsewhere.

    kind may be a tuple of kinds of one basis: f and f' then have a leading
    axis over them.  omega, l and rho may be broadcastable ndarrays; with
    none, the call is the same build on one point and gives Python floats.
    An element's value is the call's at its own point, bit for bit, in any
    array.  Each branch is one hyp2f1 array call over the series of the
    kinds it needs and of their x-derivatives, each summed once: past the
    cutoff the kinds share the other basis's pair.  Array results are
    memoized per kind on the arguments as `np.asarray` gives them (a
    single kind's are read-only), with the other basis's tables where a
    build gives them at every point: the pair it summed, or their rows of
    M or M^-1 on a joint build's own pair (C below pi/6 after S, S past
    pi/3 after C).  A build that needs the pair's series sums them.  Calls
    on scalars are not memoized.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if len({k in (RadialKind.Sa, RadialKind.Sb) for k in kinds}) != 1:
        raise ValueError(f"radial kinds {kinds} are not of one basis")
    if kinds[0] in (RadialKind.Ca, RadialKind.Cb):
        require_c_modes(params)
    args = tuple(map(np.asarray, (omega, l, rho)))
    if any(isinstance(v, np.ndarray) for v in (omega, l, rho)):
        tables = _radial_table(kinds, *args, params)
    else:
        out = _radial_eval_fd_array(kinds, *args, params)
        tables = [(f.item(), df.item()) for f, df in map(out.get, kinds)]
    return np.array(tables).swapaxes(0, 1) if kinds is kind else tables[0]


def radial_eval(kind: RadialKind, omega, l, rho, params: AdsParams):
    """The radial function alone; arrays as in radial_eval_fd."""
    return radial_eval_fd(kind, omega, l, rho, params)[0]


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
    scalar out): `jacobi_radial_fd(...)[0]`, memoized as that is."""
    return jacobi_radial_fd(branch, n, l, rho, params)[0]


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
    return _jacobi_radial(branch, n, l, rho, params)


# `verify all` builds 16 distinct tables, a slice `adskg reconstruct` 1 or 2; with
# 8-byte inputs, 32 x 2^14 x 5 arrays (n, l, rho, J, dJ) x 8 B = 20 MiB at most.
@memo("jacobi_table", 32, 1 << 14)
def _jacobi_table(branch: str, n, l, rho, params: AdsParams):
    return _jacobi_radial(branch, n, l, rho, params)


def _jacobi_radial(branch: str, n, l, rho, params: AdsParams):
    """(J, dJ/drho) of jacobi_radial_fd; sin, cos and cos 2 rho are taken
    on rho as given."""
    n, l, nu, pref, _ = _jacobi_labels(branch, n, l, params)
    ex = params.delta_plus if branch == "plus" else params.delta_minus
    ga = l + params.d / 2.0
    rho = np.asarray(rho, dtype=float)
    if not np.all((0.0 <= rho) & (rho <= math.pi / 2)):
        raise DomainError("Jacobi modes need rho in [0, pi/2]")
    s, c, x = np.sin(rho), np.cos(rho), np.cos(2.0 * rho)
    ls, at = np.unique(l, return_inverse=True)  # a table over rho and the distinct l
    sl, cex, dpre = _prefactor(s[..., None], c[..., None], ls, ex).reshape(
        3, rho.size, ls.size)[:, np.arange(rho.size).reshape(rho.shape), at.reshape(l.shape)]
    pval = jacobi_p(ga - 1.0, nu, n, x)
    dval = jacobi_p_dx(ga - 1.0, nu, n, x) * (-2.0 * np.sin(2.0 * rho))
    return pref * sl * cex * pval, pref * (dpre * pval + sl * cex * dval)


def norm_constant(branch: str, n, l, params: AdsParams):
    """Equal-time norm N+-_{nl} = int_0^{pi/2} tan^{d-1} (J+-_{nl})^2 drho
    in closed form, n and l broadcast and checked as in jacobi_radial_fd:
    n! G(g)^2 G(n+-nu+1) / (2 w+-_{nl} G(n+g) G(n+-nu+g)), g = l + d/2.
    Array calls are memoized as jacobi_radial_fd's (read-only tables)."""
    if any(isinstance(v, np.ndarray) for v in (n, l)):
        return _norm_table(branch, np.asarray(n), np.asarray(l), params)[()]
    return _jacobi_labels(branch, n, l, params)[-1][()]


# `verify all` forms 21 tables; 64 x 2^14 x 3 arrays (n, l, N) x 8 B = 24 MiB at most.
@memo("norm_table", 64, 1 << 14)
def _norm_table(branch: str, n, l, params: AdsParams):
    return _jacobi_labels(branch, n, l, params)[-1]


def mode_eval(label, point, params: AdsParams, kind: RadialKind | None = None):
    """Full spacetime mode e^{-i omega t} radial(rho) Y_l^m(theta, phi).

    `label` is a TubeLabel (kind selects the radial family, default S^a) or
    a SliceLabel (the Jacobi radial at its magic frequency; a kind is a
    ValueError).  `point` is (t, rho, theta, phi), which broadcast; a theta
    outside [0, pi] is a DomainError; d = 3 only (UnsupportedDimension).
    """
    require_two_sphere(params.d)
    t, rho, theta, phi = point
    y = sph_harm(label.l, label.m, theta, phi)
    if isinstance(label, SliceLabel):
        if kind is not None:
            raise ValueError(f"a SliceLabel takes the Jacobi radial, not {kind}")
        omega = magic_frequency(label.branch, label.n, label.l, params)
        radial = jacobi_radial(label.branch, label.n, label.l, rho, params)
    else:
        omega = label.omega
        radial = radial_eval(kind or RadialKind.Sa, omega, label.l, rho, params)
    pr = np.reshape([np.exp(-1j * omega * v) for v in np.ravel(t).tolist()],
                    np.shape(t)) * radial
    # real arithmetic, parts set apart: numpy's complex array multiply can
    # differ from the scalar one in the last bit, and a signed zero survives
    out = np.asarray(pr.real * y.real - pr.imag * y.imag, dtype=complex)
    out.imag = pr.real * y.imag + pr.imag * y.real
    return out[()]

"""Scalar radial series: the per-point reference the radial build is checked
against bit for bit.

One point at a time, with Python floats throughout: each kind's direct
series where its argument (sin^2 rho for S, cos^2 rho for C) is at most
ARG_CUTOFF or the series terminates, else its row of the transfer matrix
M (S) or M^-1 (C) applied to the other basis's pair of series.  The
prefactor is the per-kind scalar formula kept here (prefactor_fd); the
transfer entries, axis checks and error texts are the library's own; the
series and its x-derivative are hyp2f1 calls on scalars.  per_distinct
tabulates a scalar function once per distinct key, the per-key reference
of the other layers' array sums.  hyp2f1_element is specfun.hyp2f1 at one
element from its documented rules alone, a reference for its array path's
classification.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sc

from adskg.errors import DomainError, PoleError
from adskg.modes import (_KINDS, RadialKind, _check_axis, _not_finite, _transfer_entries,
                         hyper_params)
from adskg.specfun import ARG_CUTOFF, hyp2f1


def per_distinct(fn, *columns) -> np.ndarray:
    """fn(*key) once per distinct key of the equal-length 1-d arrays, spread
    back over the elements: shape fn's output + (elements,).  Python floats
    in, so math and ** give each key the same bits in any array."""
    keys = list(zip(*(col.tolist() for col in columns)))
    table = dict.fromkeys(keys)
    for key in table:
        table[key] = fn(*key)
    out = np.array([table[key] for key in keys])
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


def prefactor_fd(kind: RadialKind, l: int, rho: float, params):
    """Radial prefactor and its rho-derivative for each kind, one formula
    per kind on Python floats; both infinite where a power leaves the
    double range."""
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


def _stop(v: float) -> float:
    """n where v = -n is a nonpositive integer, else inf: the last term of
    a 2F1 series with v for a or b."""
    return -v if v <= 0.0 and v == math.floor(v) else math.inf


def _summed(a: float, b: float, c: float, x: float, n: float = math.inf):
    """The 2F1 series (DLMF 15.2.1) through its term n, or until a term falls
    to eps of the sum (1024 terms at most: else an infinite bound), and its
    rounding bound eps (1 + sum_k k |t_k|); term k is term k - 1 times
    (a + k - 1)(b + k - 1) / ((c + k - 1) k) x, rounded in that order."""
    eps = float(np.finfo(float).eps)
    term = total = 1.0
    spread = 0.0
    k = 0
    while k < n:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        k += 1
        total += term
        spread += k * abs(term)
        if n == math.inf and abs(term) <= eps * abs(total):
            break
        if n == math.inf and k == 1024:
            return total, math.inf
    return total, eps * (1.0 + spread)


def hyp2f1_element(a: float, b: float, c: float, x: float):
    """(branch, value) of hyp2f1 at one element by the rules of its
    docstring, one branch at a time on Python floats, or (stage, exception)
    where it raises: stage "classify" for the checks every element passes
    before any value (an array call raises its first such element's), and
    "flip" for a DLMF 15.8.7 form that is nan (raised after them).
    Branches: "scipy" (the bare value), "pole sum" (a series ending at
    n = -c, summed), "flip" (past x = 1/2 with c < 0) and "checked" (a
    series scipy recurs on, its sum where scipy lies outside the sum's
    rounding bound, else scipy's value)."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return "classify", DomainError(f"2F1 parameters ({a}, {b}, {c}) must be finite")
    n = min(_stop(a), _stop(b))
    if _stop(c) < n:
        return "classify", PoleError(f"2F1 parameter c = {c} is a nonpositive integer")
    if n == math.inf and not abs(x) <= ARG_CUTOFF:
        return "classify", DomainError(f"|x| = {abs(x)} exceeds series cutoff {ARG_CUTOFF}")
    if n < math.inf and n == _stop(c):
        return "pole sum", _summed(a, b, c, x, n)[0]
    other = b if _stop(a) == n else a
    if n < math.inf and c < 0.0 and x > 0.5 and other - c - n + 1.0 > 0.0:
        with np.errstate(all="ignore"):
            value = float(sc.poch(c - other, n) / sc.poch(c, n)
                          * sc.hyp2f1(-n, other, other - c - n + 1.0, 1.0 - x))
        if math.isnan(value):
            return "flip", DomainError(f"2F1 at (a, b, c, x) = ({a}, {b}, {c}, {x}) is "
                                       f"nan in its DLMF 15.8.7 form")
        return "flip", value
    with np.errstate(all="ignore"):
        value = float(sc.hyp2f1(a, b, c, x))
    if n == math.inf and c < 0.0 and abs(x) <= 0.25 and max(abs(a), abs(b)) > abs(c) + 3.0:
        total, bound = _summed(a, b, c, x)
        return "checked", total if abs(value - total) > bound else value
    return "scipy", value


def hyp2f1_terminates(a: float, b: float) -> bool:
    """True when the 2F1 series truncates to a polynomial."""
    return min(_stop(a), _stop(b)) < math.inf


def hyp2f1_dx(a: float, b: float, c: float, x: float) -> float:
    """d/dx 2F1(a, b; c; x) = (a b / c) 2F1(a+1, b+1; c+1; x), zero where
    a b = 0 and a PoleError where c = 0 otherwise."""
    if a == 0.0 or b == 0.0:
        return 0.0
    if c == 0.0:
        raise PoleError("2F1 parameter c = 0 is a nonpositive integer")
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x)


def direct_ok(kind: RadialKind, omega: float, l: int, rho: float, params) -> bool:
    """Whether the kind's own series is taken at rho."""
    a, b, _ = hyper_params(kind, omega, l, params)
    arg = math.sin(rho) ** 2 if kind in (RadialKind.Sa, RadialKind.Sb) \
        else math.cos(rho) ** 2
    return arg <= ARG_CUTOFF or hyp2f1_terminates(a, b)


def radial_direct(kind: RadialKind, omega: float, l: int, rho: float, params):
    """(f, f') by the kind's direct series; the caller guarantees it holds."""
    a, b, c = hyper_params(kind, omega, l, params)
    s, cs = math.sin(rho), math.cos(rho)
    if kind in (RadialKind.Sa, RadialKind.Sb):
        u, du = s * s, 2.0 * s * cs
    else:
        u, du = cs * cs, -2.0 * s * cs
    pre, dpre = prefactor_fd(kind, l, rho, params)
    f_val = hyp2f1(a, b, c, u)
    df_val = hyp2f1_dx(a, b, c, u) * du
    return pre * f_val, dpre * f_val + pre * df_val


def radial_eval_fd_scalar(kinds: tuple, omega: float, l: int, rho: float, params) -> dict:
    """radial_eval_fd at one point for a tuple of kinds of one basis:
    {kind: (f, f')}.  Each direct series is summed once; the result also
    holds every other kind whose series was summed (the other basis's pair
    where a kind takes the transfer matrix).  DomainError, naming the
    kinds asked first, where an f or f' is not finite."""
    if not 0.0 <= rho < math.pi / 2:
        raise DomainError("rho must lie in [0, pi/2)")
    if rho == 0.0:
        for kind in kinds:
            _check_axis(kind)
        return dict.fromkeys(kinds, (1.0, 0.0) if l == 0 else (0.0, 1.0 if l == 1 else 0.0))
    out = {kind: radial_direct(kind, omega, l, rho, params)
           for kind in kinds if direct_ok(kind, omega, l, rho, params)}
    via = [kind for kind in kinds if kind not in out]
    if via:
        on_sin = kinds[0] in (RadialKind.Sa, RadialKind.Sb)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            mat = _transfer_entries(omega, l, params, not on_sin).tolist()
        pair = _KINDS[2:] if on_sin else _KINDS[:2]
        for p in pair:
            out[p] = radial_direct(p, omega, l, rho, params)
        (fa, da), (fb, db) = out[pair[0]], out[pair[1]]
        for kind in via:
            m1, m2 = mat[:2] if kind in (RadialKind.Sa, RadialKind.Ca) else mat[2:]
            out[kind] = m1 * fa + m2 * fb, m1 * da + m2 * db
    for kind in kinds + tuple(out):
        if not (math.isfinite(out[kind][0]) and math.isfinite(out[kind][1])):
            raise _not_finite(kind, omega, l, rho)
    return out

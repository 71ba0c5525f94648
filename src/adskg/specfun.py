"""Double-precision special functions underlying the mode formulas.

The Gauss hypergeometric function 2F1 is scipy.special.hyp2f1 behind the
checks of a direct series: unless the series terminates, |x| must not exceed
ARG_CUTOFF; analytic continuation past the cutoff is the job of the
transfer matrix one level up (see modes), whose entries are the Gamma-ratio
connection coefficients of the z -> 1 - z formula.  A terminating series
holds at any x; past x = 1/2 one with c < 0 is taken to 1 - x (DLMF 15.8.7).
Where c < 0 and scipy recurs in a, the summed series checks its value.
`hyp2f1` also accepts broadcastable ndarrays for (a, b, c, x), each element
bit-identical to the scalar call.
Jacobi, Legendre, Pochhammer and spherical Bessel functions are
scipy.special ufuncs under this module's conventions, raising DomainError
where the ufunc would return nan (assoc_legendre: any non-finite value);
the polynomials and spherical Bessel functions take ndarray arguments.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import (eval_jacobi, hyp2f1 as _hyp2f1, lpmv, poch, spherical_jn,
                           spherical_yn)

from .errors import DomainError, PoleError


ARG_CUTOFF = 0.75  # largest |x| a non-terminating series is taken at
_MAX_TERMS = 1024  # terms of a summed series, at most
_EPS = float(np.finfo(float).eps)


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1; broadcasts."""
    if np.any(k < 0):
        raise DomainError("pochhammer requires k >= 0")
    return poch(a, k)


def double_pochhammer(a: float, k: int) -> float:
    """Step-2 rising factorial ((a))_k = a (a+2) ... (a+2k-2); ((a))_0 = 1.

    Satisfies ((2a))_k = 2^k (a)_k.
    """
    if k < 0:
        raise DomainError("double_pochhammer requires k >= 0")
    out = 1.0
    for i in range(k):
        out *= a + 2 * i
    return out


def hyp2f1(a, b, c, x):
    """Gauss hypergeometric 2F1(a, b; c; x), scipy.special.hyp2f1 behind the
    checks of its series.

    a, b and c must be finite (DomainError).  A series terminating at its
    term n (a or b = -n) holds at any x; one with a nonpositive-integer c
    only if n <= -c, else its term -c + 1 is 0/0 (PoleError).  Any other
    series needs |x| <= ARG_CUTOFF (DomainError).  Three kinds of element
    take another formula than scipy's, whose value there can be wholly
    wrong:
    - a series ending at n = -c is its n + 1 terms summed (DLMF 15.2);
    - past x = 1/2, a terminating series with c < 0 is taken to 1 - x by
      DLMF 15.8.7, 2F1(-n, b; c; x) = (c-b)_n / (c)_n 2F1(-n, b; b-c-n+1;
      1-x), wherever its new c is positive: 1 + nu for S^b, l + d/2 for C^b
      (DomainError where that gives nan, as inf/inf);
    - a non-terminating series that `_recurs` flags (S^b at m^2 = 0 and
      |omega| = 37.5 was 1.7e-3 off next to x = 0) is its summed series
      wherever scipy's value lies outside the sum's rounding bound.
    Scalar arguments give a Python float; any ndarray argument gives the
    broadcast shape, each element bit for bit the scalar call's.
    """
    if any(isinstance(v, np.ndarray) for v in (a, b, c, x)):
        return _hyp2f1_array(a, b, c, x)
    return float(_hyp2f1_array(a, b, c, x))


def _hyp2f1_array(a, b, c, x) -> np.ndarray:
    """hyp2f1 at each element of the broadcast arguments."""
    a, b, c, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c, x)))
    stops = [np.where((v <= 0.0) & (v == np.floor(v)), -v, np.inf) for v in (a, b, c)]
    n = np.fmin(stops[0], stops[1])
    terminates = n < np.inf
    infinite = ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c))
    pole = (stops[2] < np.inf) & (n > stops[2])
    outside = ~terminates & ~(np.abs(x) <= ARG_CUTOFF)
    bad = infinite | pole | outside
    if bad.any():
        i = np.unravel_index(bad.argmax(), bad.shape)
        if infinite[i]:
            raise DomainError(f"2F1 parameters ({a[i]}, {b[i]}, {c[i]}) must be finite")
        if pole[i]:
            raise PoleError(f"2F1 parameter c = {c[i]} is a nonpositive integer")
        raise DomainError(f"|x| = {abs(x[i])} exceeds series cutoff {ARG_CUTOFF}")
    at_pole = terminates & (n == stops[2])
    with np.errstate(all="ignore"):  # scipy's value at a pole is replaced below
        out = np.array(_hyp2f1(a, b, c, x))
    other = np.where(stops[0] == n, b, a)
    flip = terminates & ~at_pole & (c < 0.0) & (x > 0.5) & (other - c - n + 1.0 > 0.0)
    if flip.any():
        nf, bf, cf = n[flip], other[flip], c[flip]
        with np.errstate(all="ignore"):  # a nan (inf/inf) is refused below
            out[flip] = poch(cf - bf, nf) / poch(cf, nf) \
                * _hyp2f1(-nf, bf, bf - cf - nf + 1.0, 1.0 - x[flip])
        undefined = flip & np.isnan(out)
        if undefined.any():
            i = np.unravel_index(undefined.argmax(), undefined.shape)
            raise DomainError(f"2F1 at (a, b, c, x) = ({a[i]}, {b[i]}, {c[i]}, {x[i]}) is "
                              f"nan in its DLMF 15.8.7 form")
    if at_pole.any():
        out[at_pole] = [_series(*e)[0]
                        for e in zip(*(v[at_pole].tolist() for v in (a, b, c, x, n)))]
    check = ~terminates & _recurs(a, b, c, x)
    if check.any():
        out[check] = [_checked(*e) for e in zip(*(v[check].tolist() for v in (a, b, c, x, out)))]
    return out


def _recurs(a, b, c, x):
    """Where scipy's value of a non-terminating series is checked against
    its summed series: c < 0 and max(|a|, |b|) > |c| + 3, where scipy
    recurs in a and loses digits (within 3.4e-13 of mpmath up to |c| + 3
    at the radial kinds), at |x| <= 1/4, where that recursion loses the
    most and the sum the least."""
    return (c < 0.0) & (np.abs(x) <= 0.25) & (np.fmax(np.abs(a), np.abs(b)) > np.abs(c) + 3.0)


def _checked(a: float, b: float, c: float, x: float, val: float) -> float:
    """scipy's value val of 2F1(a, b; c; x), or the summed series where val
    lies farther from the sum than the sum's rounding bound."""
    total, bound = _series(a, b, c, x)
    return total if abs(val - total) > bound else val


def _series(a: float, b: float, c: float, x: float, n: float = math.inf):
    """The 2F1 series summed through its term n (inf: until a term falls to
    eps of the sum) and the sum's rounding bound eps sum_k k |t_k|, term k
    carrying k rounded ratios; the bound is inf where _MAX_TERMS terms of
    a non-terminating series do not finish it."""
    term = total = 1.0
    spread = 0.0
    k = 0
    while k < n:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        k += 1
        total += term
        spread += k * abs(term)
        if n == math.inf:
            if abs(term) <= _EPS * abs(total):
                break
            if k == _MAX_TERMS:
                return total, math.inf
    return total, _EPS * (1.0 + spread)


def _defined(val, name: str):
    """val, or DomainError where the ufunc returned nan for it."""
    if np.isnan(val).any():
        raise DomainError(f"{name} is undefined at these parameters")
    return val


def jacobi_p(alpha, beta, n, x):
    """Jacobi polynomial P_n^(alpha, beta)(x), all four broadcast: scipy's
    eval_jacobi at integer n (an integer-valued float taken as its integer),
    which recurses rather than summing its 2F1; DomainError unless n >= 0."""
    n = np.asarray(n)
    if not np.all((n >= 0) & (n < np.inf) & (n == np.floor(n))):
        raise DomainError("jacobi_p requires an integer n >= 0")
    return _defined(eval_jacobi(n.astype(int), alpha, beta, x), "jacobi_p")


def jacobi_p_dx(alpha, beta, n, x):
    """Derivative of the Jacobi polynomial in x, (n + alpha + beta + 1)/2
    P_{n-1}^(alpha+1, beta+1)(x), and 0 at n = 0; broadcasts as jacobi_p."""
    n = np.asarray(n)
    return np.where(n == 0, 0.0, 0.5 * (n + alpha + beta + 1.0) * jacobi_p(
        alpha + 1.0, beta + 1.0, np.where(n == 0, 0, n - 1), x))[()]


def _legendre_labels(m, l):
    """m and l broadcast; IndexError if any l < 0 or |m| > l."""
    m, l = np.broadcast_arrays(m, l)
    if np.any(l < 0):
        raise IndexError("assoc_legendre requires l >= 0")
    if np.any(np.abs(m) > l):
        i = np.argmax(np.abs(m) > l)
        raise IndexError(f"|m| = {abs(m.flat[i])} exceeds l = {l.flat[i]}")
    return m, l


def assoc_legendre(m, l, x):
    """Associated Legendre function P_l^m(x) WITHOUT the Condon-Shortley phase.

    Negative orders follow P_l^{-m} = (l-m)!/(l+m)! P_l^m (no sign), which is
    exactly what makes conj(Y_l^m) = Y_l^{-m} for the harmonics built on top.
    scipy's lpmv carries the phase (-1)^m on m > 0 only; it is undone there.
    m, l and x broadcast; IndexError if any l < 0 or |m| > l, DomainError
    naming (l, m) where lpmv's value is not finite (nan off [-1, 1], an
    overflow to inf at |m| near l from l = 86 on).
    """
    m, l = _legendre_labels(m, l)
    sign = np.where((m > 0) & (m % 2 == 1), -1.0, 1.0)
    val = sign * lpmv(m, l, x)
    bad = ~np.isfinite(val)
    if bad.any():
        m, l, x = np.broadcast_arrays(m, l, x)
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError(f"P_l^m({x[i]}) is not finite at (l, m) = ({l[i]}, {m[i]})")
    return val


def _spherical(kind: str, l, x, derivative: bool):
    """scipy's spherical_jn / spherical_yn behind the argument checks, which
    hold at every element of the broadcast l and x."""
    if (np.asarray(l) < 0).any():
        raise DomainError("spherical_bessel requires l >= 0")
    if kind == "J":
        if (np.asarray(x) < 0.0).any():
            raise DomainError("j_l requires x >= 0")
        return spherical_jn(l, x, derivative)
    if kind == "N":
        if (np.asarray(x) <= 0.0).any():
            raise DomainError("n_l requires x > 0")
        return spherical_yn(l, x, derivative)
    raise DomainError(f"unknown spherical Bessel kind {kind!r}")


def spherical_bessel(kind: str, l, x):
    """Spherical Bessel j_l (kind "J") or Neumann n_l (kind "N"); l and x
    broadcast."""
    return _spherical(kind, l, x, False)


def spherical_bessel_dx(kind: str, l, x):
    """d/dx of j_l or n_l; l and x broadcast."""
    return _spherical(kind, l, x, True)

"""Double-precision special functions underlying the mode formulas.

The Gauss hypergeometric series is evaluated by direct summation only, with
an argument cutoff; analytic continuation past the cutoff is the job of the
transfer matrix one level up (see modes), whose entries are the Gamma-ratio
connection coefficients of the z -> 1 - z formula.
`hyp2f1` and `hyp2f1_dx` also accept broadcastable ndarrays for (a, b, c, x):
the array path sums every element's series in blocks of terms (the term
ratios, then a running product and a running sum along the term axis), with
the scalar loop's parenthesization and the same stopping rule per element,
so each element is bit-identical to the scalar call.  Scalar inputs keep the
plain loop, which is the reference.
Jacobi, Gegenbauer, Legendre, Pochhammer and spherical Bessel functions are
scipy.special ufuncs under this module's conventions, raising DomainError
where the ufunc would return nan (assoc_legendre: any non-finite value);
the polynomials and spherical Bessel functions take ndarray arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (eval_gegenbauer, eval_jacobi, lpmv, poch,
                           spherical_jn, spherical_yn)

from .errors import ConvergenceError, DomainError, PoleError


@dataclass(frozen=True)
class SeriesPolicy:
    """Evaluation policy for the direct hypergeometric series."""

    max_terms: int = 10000
    rel_tol: float = 1e-14
    arg_cutoff: float = 0.75

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if not 0.0 < self.arg_cutoff < 1.0:
            raise ValueError("arg_cutoff must lie in (0, 1)")


DEFAULT_POLICY = SeriesPolicy()


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


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


def hyp2f1_terminates(a: float, b: float) -> bool:
    """True when the 2F1 series truncates to a polynomial."""
    return _is_nonpositive_integer(a) or _is_nonpositive_integer(b)


def hyp2f1(a, b, c, x, policy: SeriesPolicy = DEFAULT_POLICY):
    """Gauss hypergeometric 2F1(a, b; c; x) by direct series.

    Terminating series (a or b a nonpositive integer) are summed exactly for
    any x.  Otherwise |x| must not exceed policy.arg_cutoff.  a, b and c
    must be finite (DomainError).  Any ndarray argument selects the
    block-summed array path (`_hyp2f1_blocks`), whose result has the
    broadcast shape.
    """
    if any(isinstance(v, np.ndarray) for v in (a, b, c, x)):
        return _hyp2f1_blocks(a, b, c, x, policy)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"2F1 parameters ({a}, {b}, {c}) must be finite")
    terminates = hyp2f1_terminates(a, b)
    n_stop = None
    if terminates:
        n_stop = min(int(-v) for v in (a, b) if _is_nonpositive_integer(v))
    if _is_nonpositive_integer(c):
        # admissible only if the series stops before the pole in (c)_k
        if not (terminates and n_stop <= int(-c)):
            raise PoleError(f"2F1 parameter c = {c} is a nonpositive integer")
    if not terminates and abs(x) > policy.arg_cutoff:
        raise DomainError(
            f"|x| = {abs(x)} exceeds series cutoff {policy.arg_cutoff}")

    term = 1.0
    total = 1.0
    for k in range(policy.max_terms):
        if terminates and k == n_stop:
            return total
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        if abs(term) <= policy.rel_tol * abs(total):
            return total
    raise ConvergenceError(
        f"2F1({a},{b};{c};{x}) did not converge in {policy.max_terms} terms")


_BLOCK_ELEMENTS = 1 << 16  # cap on the (element, term) temporaries of a block


def _rows(*vals) -> np.ndarray:
    """vals broadcast against each other and stacked as float rows."""
    rows = np.empty((len(vals),) + np.broadcast(*vals).shape)
    for i, v in enumerate(vals):
        rows[i] = v
    return rows


def _hyp2f1_blocks(a, b, c, x, policy: SeriesPolicy) -> np.ndarray:
    """Array path of hyp2f1: every element's series summed block by block.

    A block of terms k0 .. k0+n-1 forms the ratios (a+k)(b+k)/((c+k)(k+1)) x
    of the still-running elements, takes their running product seeded by
    the carried term and the running sum seeded by the carried total; both
    accumulate sequentially, as the scalar loop does.  An element stops at
    its first k with |term| <= rel_tol |total|, or before computing term
    n_stop of a terminating series.  The argument checks (DomainError,
    PoleError) run over every element before any summation.
    """
    # rows: a, b, c, x, n_stop, carried term, carried total; one column per
    # element, and later per running element
    state = _rows(a, b, c, x, np.inf, 1.0, 1.0)
    shape = state.shape[1:]
    state = state.reshape(7, -1)
    abc = state[:3]
    nonpos = (abc <= 0.0) & (abc == np.floor(abc))
    n_stop = state[4] = np.where(nonpos[:2], -abc[:2], np.inf).min(axis=0)
    terminates = n_stop < np.inf
    infinite = ~np.isfinite(abc).all(axis=0)
    pole = nonpos[2] & ~(n_stop <= -abc[2])
    outside = ~terminates & (np.abs(state[3]) > policy.arg_cutoff)
    bad = infinite | pole | outside
    if bad.any():
        i = bad.argmax()
        if infinite[i]:
            raise DomainError(f"2F1 parameters {tuple(abc[:, i])} must be finite")
        if pole[i]:
            raise PoleError(f"2F1 parameter c = {abc[2, i]} is a nonpositive integer")
        raise DomainError(f"|x| = {abs(state[3, i])} exceeds series cutoff "
                          f"{policy.arg_cutoff}")

    out = np.ones(state.shape[1])
    live = np.flatnonzero(n_stop != 0.0)
    if live.size < out.size:
        state = state[:, live]
    halting = terminates.any()
    k0, width = 0, 32
    with np.errstate(all="ignore"):  # ratios past an element's stop are dropped
        while live.size and k0 < policy.max_terms:
            n = max(1, min(width, policy.max_terms - k0,
                           _BLOCK_ELEMENTS // live.size))
            k = k0 + np.arange(n, dtype=float)
            ra, rb, rc, rx, r_stop = state[:5, :, None]
            ratio = (ra + k) * (rb + k) / ((rc + k) * (k + 1.0)) * rx
            ratio[:, 0] *= state[5]
            terms = np.cumprod(ratio, axis=1)
            ratio[:] = terms
            ratio[:, 0] += state[6]
            totals = np.cumsum(ratio, axis=1)
            stop = np.abs(terms) <= policy.rel_tol * np.abs(totals)
            if halting:
                halt = r_stop == k
                stop |= halt
            done = stop.any(axis=1)
            if done.any():
                rows = np.flatnonzero(done)
                first = stop[rows].argmax(axis=1)
                value = totals[rows, first]
                if halting:  # a halt at k returns the total through term k-1
                    h = halt[rows, first]
                    value[h] = np.where(first[h] > 0, totals[rows[h], first[h] - 1],
                                        state[6, rows[h]])
                out[live[rows]] = value
                keep = ~done
                live, state = live[keep], state[:, keep]
                terms, totals = terms[keep], totals[keep]
            state[5], state[6] = terms[:, -1], totals[:, -1]
            k0 += n
            width *= 2
    if live.size:
        a, b, c, x = state[:4, 0]
        raise ConvergenceError(f"2F1({a},{b};{c};{x}) did not "
                               f"converge in {policy.max_terms} terms")
    return out.reshape(shape)


def hyp2f1_dx(a, b, c, x, policy: SeriesPolicy = DEFAULT_POLICY):
    """d/dx 2F1(a, b; c; x) = (a b / c) 2F1(a+1, b+1; c+1; x), zero where
    a b = 0 and a PoleError where c = 0 otherwise; broadcastable ndarrays as
    in hyp2f1."""
    if any(isinstance(v, np.ndarray) for v in (a, b, c, x)):
        a, b, c, x = _rows(a, b, c, x)
        live = (a != 0.0) & (b != 0.0)
        out = np.zeros(a.shape)
        a, b, c, x = a[live], b[live], c[live], x[live]
        if np.any(c == 0.0):
            raise PoleError("2F1 parameter c = 0 is a nonpositive integer")
        out[live] = a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x, policy)
        return out
    if a == 0.0 or b == 0.0:
        return 0.0
    if c == 0.0:
        raise PoleError("2F1 parameter c = 0 is a nonpositive integer")
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x, policy)


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


def gegenbauer_c(lam: float, n: int, x):
    """Gegenbauer (ultraspherical) polynomial C_n^(lambda)(x), lambda != 0."""
    if n < 0 or n != int(n):
        raise DomainError("gegenbauer_c requires an integer n >= 0")
    if lam == 0.0:
        raise DomainError("standard Gegenbauer normalization needs lambda != 0")
    return _defined(eval_gegenbauer(int(n), lam, x), "gegenbauer_c")


def assoc_legendre(m, l, x):
    """Associated Legendre function P_l^m(x) WITHOUT the Condon-Shortley phase.

    Negative orders follow P_l^{-m} = (l-m)!/(l+m)! P_l^m (no sign), which is
    exactly what makes conj(Y_l^m) = Y_l^{-m} for the harmonics built on top.
    scipy's lpmv carries the phase (-1)^m on m > 0 only; it is undone there.
    m, l and x broadcast; IndexError if any l < 0 or |m| > l, DomainError
    naming (l, m) where lpmv's value is not finite (nan off [-1, 1], an
    overflow to inf at |m| near l from l = 86 on).
    """
    m, l = np.broadcast_arrays(m, l)
    if np.any(l < 0):
        raise IndexError("assoc_legendre requires l >= 0")
    if np.any(np.abs(m) > l):
        i = np.argmax(np.abs(m) > l)
        raise IndexError(f"|m| = {abs(m.flat[i])} exceeds l = {l.flat[i]}")
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

"""Independent reference values: radial modes from mpmath's 2F1, which
continues analytically to any argument below 1 and so needs neither the
series cutoff nor the S/C transfer matrix of adskg.modes."""

from __future__ import annotations

import mpmath

mpmath.mp.dps = 30


def radial(kind: str, omega: float, l: int, rho: float, d: int,
           msq_r2: float) -> float:
    """S^a, S^b, C^a or C^b (kind "sa", "sb", "ca", "cb") at rho, with the
    prefactors and hypergeometric parameters of adskg.modes."""
    nu = mpmath.sqrt(mpmath.mpf(d) ** 2 / 4 + msq_r2)
    dp, dm = mpmath.mpf(d) / 2 + nu, mpmath.mpf(d) / 2 - nu
    al = (l + dp - omega) / 2
    be = (l + dp + omega) / 2
    ga = l + mpmath.mpf(d) / 2
    gc = 1 + nu
    r = mpmath.mpf(rho)
    s, c = mpmath.sin(r), mpmath.cos(r)
    if kind == "sa":
        val = s ** l * c ** dp * mpmath.hyp2f1(al, be, ga, s * s)
    elif kind == "sb":
        val = -(s ** (2 - l - d)) * c ** dp * mpmath.hyp2f1(
            al - ga + 1, be - ga + 1, 2 - ga, s * s)
    elif kind == "ca":
        val = s ** l * c ** dp * mpmath.hyp2f1(al, be, gc, c * c)
    elif kind == "cb":
        val = s ** l * c ** dm * mpmath.hyp2f1(al - gc + 1, be - gc + 1,
                                              2 - gc, c * c)
    else:
        raise ValueError(f"unknown radial kind {kind!r}")
    return float(val)

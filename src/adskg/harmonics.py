"""The angular layer: two-sphere spherical harmonics on the packed (l, m)
index, their quadrature tables and projection, Wigner D-matrices, and the
general-d raising/lowering coefficients of contiguous hyperspherical
harmonics.

Every angular array in the package is indexed by lm = l^2 + l + m, so the
degrees 0..l_max fill (l_max + 1)^2 columns with degree l in the block
[l^2, (l+1)^2); `lm_labels`, `lm_index`, `lm_degree`, `lm_count` and
`lm_mirror` are the only place that arithmetic is written.  `sph_harm`,
`assoc_legendre` and `contiguous_coeffs` broadcast over arrays of l and m,
each element bit-identical to the scalar call.  On the quadrature grid,
synthesis (`AngularGrid.synthesize`) and its adjoint `AngularGrid.project`
are separable, Y_l^m = N_l^m P_l^m(cos theta) e^{i m phi}: synthesis is a
theta sum per m then one phase product, projection one FFT along phi then
per m a theta sum in long double.  Both read one `_theta_table` entry,
shared by every grid of its (n_theta, n_phi) shape and l_max, as the
quadrature rule is by every grid of its shape (`adskg.memo`).
`ylm_point` is the row of Y at one point.

The D-matrix comes from the exact diagonalization of J_y (Feng, Wang, Yang
& Jin, Phys. Rev. E 92, 043307, 2015): it stays unitary to roundoff at any
degree, where the factorial sum loses about a digit per two degrees.

Angular synthesis is implemented for d = 3 only; for general odd d the only
exposed piece is the closed-form coefficient quadruple, which is all the
boost machinery consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedDimension
from .memo import memo
from .specfun import assoc_legendre


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles (radians), unrestricted, of the active rotation R_z(alpha)
    R_y(beta) R_z(gamma): scipy's `Rotation.from_euler("ZYZ", (alpha, beta, gamma))`."""

    alpha: float
    beta: float
    gamma: float


def require_two_sphere(d: int) -> None:
    """UnsupportedDimension unless d = 3: the harmonics here live on S^2."""
    if d != 3:
        raise UnsupportedDimension(f"d = {d}: the angular layer is implemented "
                                   "for d = 3 (S^2 harmonics) only")


def lm_index(l, m):
    """Packed angular index lm = l^2 + l + m of (l, m); broadcasts."""
    return l * (l + 1) + m


def lm_degree(lm: int) -> int:
    """Degree l of the packed index lm."""
    return math.isqrt(int(lm))


def lm_count(l_max: int) -> int:
    """Number of packed indices of the degrees 0..l_max."""
    return (l_max + 1) ** 2


@memo("lm_labels", 128)
def lm_labels(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree and order of each packed index up to l_max."""
    ls = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    return ls, np.arange(ls.size) - lm_index(ls, 0)


def lm_mirror(l_max: int) -> np.ndarray:
    """Packed index of (l, -m) for every packed lm = (l, m) up to l_max."""
    ls, ms = lm_labels(l_max)
    return lm_index(ls, -ms)


def sph_norm(l, m):
    """Normalization sqrt((2l+1)(l-m)! / (4 pi (l+m)!)); broadcasts.  The
    log-factorials, one per distinct argument, and their exp are libm's
    (math.lgamma, math.exp) per element: numpy's vectorized exp differs
    from libm in the last bit on about one argument in twenty.  DomainError
    where (l-m)!/(l+m)! exceeds the double range (m near -l from l = 86 on)."""
    l, m = np.broadcast_arrays(l, m)
    both = np.stack((l - m, l + m))
    args = np.unique(both)
    lgamma = np.fromiter(map(math.lgamma, (args + 1).tolist()), float, len(args))
    exponent = np.subtract(*lgamma[args.searchsorted(both)])
    try:
        ratio = np.fromiter(map(math.exp, exponent.flat), float, l.size)
    except OverflowError:
        worst = np.unravel_index(np.argmax(exponent), l.shape)
        raise DomainError(f"Y_l^m normalization overflows at (l, m) = "
                          f"({l[worst]}, {m[worst]})") from None
    return np.sqrt((2 * l + 1) / (4.0 * math.pi) * ratio.reshape(l.shape))


def sph_harm(l, m, theta, phi):
    """Spherical harmonic Y_l^m(theta, phi) on the two-sphere.

    Convention: Y_l^m = N_l^m e^{i m phi} P_l^m(cos theta) with the
    Condon-Shortley-free P_l^m, so that conj(Y_l^m) = Y_l^{-m}.  l, m and
    the angles broadcast against each other; IndexError if any |m| > l.
    """
    p = assoc_legendre(m, l, np.cos(theta))
    return sph_norm(l, m) * np.exp(1j * np.asarray(m) * np.asarray(phi, dtype=float)) * p


# One row per point and held set: a sparse_pointwise job's S rep, C image and
# rod share theirs, so its 42 synth calls read 6 rows.
@memo("ylm_point", 64)
def ylm_point(l_max: int, held: np.ndarray, theta, phi) -> np.ndarray:
    """Y_lm(theta, phi) for every packed lm up to l_max where the boolean
    (lm,) array `held` is set, zero elsewhere, from one `sph_harm` call."""
    ls, ms = lm_labels(l_max)
    out = np.zeros(ls.size, dtype=complex)
    out[held] = sph_harm(ls[held], ms[held], *np.array((theta, phi), dtype=float))
    return out


def contiguous_coeffs(d: int, l, sub):
    """Raising/lowering coefficients (kappa_minus, kappa_plus, delta_minus,
    delta_plus) for cos(theta_{d-1}) Y and (1-cos^2) d/dcos Y.

    For d = 3 `sub` is the azimuthal order m (|m| <= l); for d > 3 it is the
    next-lower multi-index entry (0 <= sub <= l).  Lowering coefficients
    vanish at l = 0 and at sub = l (|m| = l when d = 3).  l and sub
    broadcast; IndexError if any pair is out of range.
    """
    if d < 3 or d % 2 == 0:
        raise DomainError("d must be odd and >= 3")
    l, sub = np.broadcast_arrays(l, sub)
    if d == 3:
        if np.any(np.abs(sub) > l):
            raise IndexError("need |m| <= l")
        s = np.abs(sub)
    else:
        if np.any((sub < 0) | (sub > l)):
            raise IndexError("need 0 <= sub <= l")
        s = sub
    km = np.where(l == 0, 0.0, np.sqrt((l - s) * (l + s + d - 3.0)
                                       / ((2.0 * l + d - 4.0) * (2.0 * l + d - 2.0))))[()]
    kp = np.sqrt((l - s + 1.0) * (l + s + d - 2.0)
                 / ((2.0 * l + d - 2.0) * (2.0 * l + d)))
    return km, kp, (l + d - 2.0) * km, -1.0 * l * kp


def wigner_d(l: int, angles: EulerAngles) -> np.ndarray:
    """Wigner D-matrix D^l_{m' m}(alpha, beta, gamma), shape (2l+1, 2l+1).

    Rows index m', columns m, both ordered -l..l.  Satisfies the
    completeness relation sum_m D_{m'm} conj(D_{m''m}) = delta_{m'm''} and
    D(-gamma, -beta, -alpha) = D(alpha, beta, gamma)^dagger.

    d^l(beta) = exp(-i beta J_y) from the eigenvectors V of the Hermitian
    tridiagonal J_y = (J_+ - J_-) / 2i, whose eigenvalues are exactly m
    (ascending, as `eigh` orders them): d = V diag(e^{-i beta m}) V^dagger.
    """
    m = np.arange(-l, l + 1)
    j_plus = np.sqrt((l - m[:-1]) * (l + m[:-1] + 1.0))
    j_y = np.diag(j_plus / 2j, -1) + np.diag(j_plus / -2j, 1)
    v = np.linalg.eigh(j_y)[1]
    small = ((v * np.exp(-1j * angles.beta * m)) @ np.conj(v).T).real
    return (np.exp(-1j * m * angles.alpha)[:, None] * small
            * np.exp(-1j * m * angles.gamma))


# Quadrature rules are shared by the AngularGrids of the last 4 shapes; a
# `verify all` run uses 3.
@memo("grid_rule", 4)
def _grid_rule(n_theta: int, n_phi: int) -> tuple:
    """cos(theta) nodes and weights, theta and phi of the product grid."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    return x, w, np.arccos(x), 2.0 * math.pi * np.arange(n_phi) / n_phi


class AngularGrid:
    """Product quadrature grid on S^2: Gauss-Legendre in cos(theta) times a
    uniform trapezoid in phi, exact for every product of two harmonics up to
    l_max from (l_max + 1) x (2 l_max + 1) nodes on (`expansions._angular_rule`).
    The rule's arrays are read-only.
    """

    def __init__(self, n_theta: int, n_phi: int):
        self.cos_nodes, self.cos_weights, self.theta, self.phi = _grid_rule(n_theta, n_phi)
        self.phi_weight = 2.0 * math.pi / n_phi
        self.n_theta = n_theta
        self.n_phi = n_phi

    def ylm(self, l_max: int) -> np.ndarray:
        """Y_lm on the grid for every packed lm up to l_max, shape (lm,
        n_theta, n_phi), read-only, from one `sph_harm` call; unmemoized."""
        ls, ms = (x[:, None, None] for x in lm_labels(l_max))
        table = sph_harm(ls, ms, self.theta[:, None], self.phi)
        table.flags.writeable = False
        return table

    def synthesize(self, coef: np.ndarray) -> np.ndarray:
        """sum_lm coef[..., lm] Y_lm on the grid, shape (..., n_theta, n_phi),
        the adjoint of `project` from its `_theta_table` entry: coef gathered
        to (m, l), one real matmul per m against Y's theta factor, then one
        with the phases e^{i m phi}, which sums every m, aliased ones too.

        Each matmul writes its rows where the next step reads them, the theta
        sums in (theta, m, ...) order and the phase sums straight into the
        C-ordered result, so the only grid-sized array is the result: the
        theta sums are (2 l_max + 1) / n_phi of it."""
        l_max = lm_degree(coef.shape[-1] - 1)
        theta, _, phase = _theta_table(self.n_theta, self.n_phi, l_max)
        ls, ms = lm_labels(l_max)
        flat = coef.reshape(-1, coef.shape[-1])
        part = np.zeros((2 * l_max + 1, l_max + 1, len(flat)), complex)
        part[ms + l_max, ls] = flat.T  # (m, l, ...) in C order, for the view
        sums = np.empty((self.n_theta, len(part), len(flat)), complex)
        np.matmul(theta, part.view(float), out=sums.transpose(1, 0, 2).view(float))
        del part  # before the result is allocated
        out = np.empty((len(flat), self.n_theta, self.n_phi), complex)
        # batched over theta, one field would take BLAS's matrix-vector
        # product, which rounds differently; it takes one (theta, m) product
        np.matmul(*((sums.transpose(2, 0, 1), phase, out) if len(flat) == 1 else
                    (sums.transpose(0, 2, 1), phase, out.transpose(1, 0, 2))))
        return out.reshape(coef.shape[:-1] + (self.n_theta, self.n_phi))

    def integrate(self, values: np.ndarray):
        """Integral over S^2 of values sampled on the grid; values has shape
        (..., n_theta, n_phi) and the result the leading shape."""
        return self.phi_weight * np.sum(self.cos_weights @ values, axis=-1)

    def project(self, values: np.ndarray, l_max: int) -> np.ndarray:
        """<Y_lm, values> = integral of conj(Y_lm) * values for every packed lm
        up to l_max, over the leading axes of values: shape (..., lm).

        Separable: one FFT along phi gives sum_phi e^{-i m phi} values for
        every m at once (column m mod n_phi: on the uniform phi nodes this is
        the phi sum exactly, aliasing included); then, per m, one np.dot
        sums that column over theta against the weighted table of
        `_theta_table` in long double, rounded to complex once (the bits of
        `@`, in half its time: np.dot keeps the long-double accumulator in a
        register, numpy's non-BLAS matmul loop stores it every step).  Where
        np.longdouble is double (Windows, macOS arm64) the theta sum runs in
        double, which costs the ill-conditioned C-basis tube inversions about
        a tenth of a digit per job (README)."""
        spectrum = np.fft.fft(values, axis=-1)
        out = np.empty(values.shape[:-2] + (lm_count(l_max),), dtype=complex)
        table = _theta_table(self.n_theta, self.n_phi, l_max)[1]
        for m in range(-l_max, l_max + 1):
            ls = np.arange(abs(m), l_max + 1)
            out[..., lm_index(ls, m)] = np.dot(spectrum[..., m % self.n_phi].astype(
                np.clongdouble), table[m + l_max, :, abs(m):])
        return out


# The tables of the last 16 (n_theta, n_phi, l_max), room for the eight l_max
# the dense benchmark's reconstructions project to on their 16 x 32 grid and
# the five keys of a `verify all` run; one whose largest array holds more than
# 2^16 values is not kept, as from l_max = 32 on the rule's (l_max + 1) x
# (2 l_max + 1) grid.
@memo("theta_table", 16, 2 ** 16)
def _theta_table(n_theta: int, n_phi: int, l_max: int) -> tuple:
    """The factors of Y_l^m = N_l^m P_l^m(cos theta) e^{i m phi} on the grid
    up to l_max: Y_l^m at phi = 0 at [m + l_max, theta, l], zero where l <
    |m|; it times the weights w_theta (2 pi / n_phi) in long double; e^{i m
    phi} at [m + l_max, phi]."""
    _, w, theta, phi = _grid_rule(n_theta, n_phi)
    ls, ms = lm_labels(l_max)
    table = np.zeros((2 * l_max + 1, n_theta, l_max + 1))
    table[ms + l_max, :, ls] = sph_harm(ls[:, None], ms[:, None], theta, 0.0).real
    return (table, np.longdouble(w)[:, None] * (2.0 * math.pi / n_phi) * table,
            np.exp(1j * np.arange(-l_max, l_max + 1)[:, None] * phi))

"""Two-sphere spherical harmonics, Wigner D-matrices, and the general-d
raising/lowering coefficients for contiguous hyperspherical harmonics.

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

from .errors import DomainError
from .specfun import assoc_legendre, assoc_legendre_sin2_dx


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles (radians), unrestricted."""

    alpha: float
    beta: float
    gamma: float


def sph_norm(l: int, m: int) -> float:
    """Normalization sqrt((2l+1)(l-m)! / (4 pi (l+m)!))."""
    return math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.exp(math.lgamma(l - m + 1) - math.lgamma(l + m + 1)))


def sph_harm(l: int, m: int, theta, phi):
    """Spherical harmonic Y_l^m(theta, phi) on the two-sphere.

    Convention: Y_l^m = N_l^m e^{i m phi} P_l^m(cos theta) with the
    Condon-Shortley-free P_l^m, so that conj(Y_l^m) = Y_l^{-m}.
    Accepts scalars or numpy arrays for the angles.
    """
    if abs(m) > l:
        raise IndexError(f"|m| = {abs(m)} exceeds l = {l}")
    ct = np.cos(theta)
    return sph_norm(l, m) * np.exp(1j * m * np.asarray(phi, dtype=float)) \
        * assoc_legendre(m, l, ct)


def sph_harm_sin2_dcos(l: int, m: int, theta, phi):
    """(1 - cos^2 theta) d/d(cos theta) Y_l^m, computed analytically."""
    ct = np.cos(theta)
    return sph_norm(l, m) * np.exp(1j * m * np.asarray(phi, dtype=float)) \
        * assoc_legendre_sin2_dx(m, l, ct)


def contiguous_coeffs(d: int, l: int, sub: int):
    """Raising/lowering coefficients (kappa_minus, kappa_plus, delta_minus,
    delta_plus) for cos(theta_{d-1}) Y and (1-cos^2) d/dcos Y.

    For d = 3 `sub` is the azimuthal order m (|m| <= l); for d > 3 it is the
    next-lower multi-index entry (0 <= sub <= l).  Lowering coefficients
    vanish at l = 0 and at sub = l (|m| = l when d = 3).
    """
    if d < 3 or d % 2 == 0:
        raise DomainError("d must be odd and >= 3")
    if d == 3:
        if abs(sub) > l:
            raise IndexError("need |m| <= l")
        s = abs(sub)
    else:
        if not 0 <= sub <= l:
            raise IndexError("need 0 <= sub <= l")
        s = sub
    if l == 0:
        km = 0.0
    else:
        km = math.sqrt((l - s) * (l + s + d - 3.0)
                       / ((2.0 * l + d - 4.0) * (2.0 * l + d - 2.0)))
    kp = math.sqrt((l - s + 1.0) * (l + s + d - 2.0)
                   / ((2.0 * l + d - 2.0) * (2.0 * l + d)))
    dm = (l + d - 2.0) * km
    dp = -float(l) * kp
    return km, kp, dm, dp


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


def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """3x3 active rotation R = R_z(alpha) R_y(beta) R_z(gamma)."""
    def rz(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(angles.alpha) @ ry(angles.beta) @ rz(angles.gamma)


def angles_to_xyz(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def xyz_to_angles(v):
    v = np.asarray(v, dtype=float)
    r = np.sqrt(np.sum(v * v, axis=-1))
    theta = np.arccos(np.clip(v[..., 2] / r, -1.0, 1.0))
    phi = np.arctan2(v[..., 1], v[..., 0])
    return theta, phi


def rotate_angles(angles: EulerAngles, theta, phi):
    """Angles of R(alpha,beta,gamma) applied to the point (theta, phi)."""
    xyz = angles_to_xyz(theta, phi)
    rot = xyz @ rotation_matrix(angles).T
    return xyz_to_angles(rot)


class AngularGrid:
    """Product quadrature grid on S^2: Gauss-Legendre in cos(theta) times a
    uniform trapezoid in phi.  Exact for the polynomial integrands produced
    by harmonics up to l ~ n_theta.
    """

    def __init__(self, n_theta: int = 64, n_phi: int = 128):
        x, w = np.polynomial.legendre.leggauss(n_theta)
        self.cos_nodes = x
        self.cos_weights = w
        self.theta = np.arccos(x)
        self.phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        self.phi_weight = 2.0 * math.pi / n_phi
        self.n_theta = n_theta
        self.n_phi = n_phi
        self._ylm_cache: dict[tuple[int, int], np.ndarray] = {}

    def ylm(self, l: int, m: int) -> np.ndarray:
        """Y_l^m sampled on the (theta, phi) product grid, shape (n_theta, n_phi)."""
        key = (l, m)
        if key not in self._ylm_cache:
            th = self.theta[:, None]
            ph = self.phi[None, :]
            self._ylm_cache[key] = sph_harm(l, m, th, ph)
        return self._ylm_cache[key]

    def integrate(self, values: np.ndarray):
        """Integral over S^2 of values sampled on the grid; values has shape
        (..., n_theta, n_phi) and the result the leading shape."""
        return self.phi_weight * np.sum(self.cos_weights @ values, axis=-1)

    def project(self, l: int, m: int, values: np.ndarray):
        """<Y_l^m, values> = integral of conj(Y_l^m) * values, over the
        leading axes of values."""
        return self.integrate(np.conj(self.ylm(l, m)) * values)

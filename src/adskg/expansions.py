"""Momentum representations on the three region types, synthesis, initial
data inversion, and the boundary-of-AdS machinery.

Frequency integrals are discretized on an OmegaGrid (omega_k = k d_omega,
integral realized as d_omega * sum); the conjugate time window T = 2 pi /
d_omega makes every time projection an exact discrete Fourier sum on
band-limited representations.  Slice representations are genuinely
discrete.  Radial projections for slice inversion use the Gauss-Jacobi rule
of geometry.radial_measure, under which same-l mode products integrate
exactly.

Every field built here is one separable sum over labels,
field[s, x] = sum_{j, l, m} K[s, j, l] c[j, lm] Y_lm(x), with j the
frequency index k or the radial order n, s the time or radial sample and x
the angular point.  c is the dense (channel, j, lm) array each rep stores,
on the packed angular index of `harmonics`; radial and transfer-matrix
factors are tabulated once per (j, l); on a tube K is the phase matrix
d_omega e^{-i omega_k t}.  On a grid the factors are folded into c (fixed
radius) or K (radial nodes; the radial sum runs per degree, `_by_degree`,
never against K spread over lm) and the lm sum is `AngularGrid.synthesize`.
At a point the order is reversed: the `ylm_point` row of the held (l, m),
memoized per point (one `sph_harm` call on a miss), is contracted first,
sum_m c[j, lm] Y_lm per (j, l) block in one `np.add.reduceat`, and the
radial factors and phases are applied to those blocks.  A rep's tables
are evaluated only on the (j, l) blocks its `_Coeffs.held` table marks,
formed once per rep with the orders it holds.  The callers of `_slice_sum`
and `_tube_sum` supply the frequency and radial functions, so the
Minkowski expansions run through the same kernel.  Inversion is the
adjoint: `AngularGrid.project` takes every lm at once, for all frequencies
or radii, after the FFT time projection (tube) and before the Gauss-Jacobi
radial sum (slice); each inversion then applies its own per-(j, l) solve.

Grids are sized by two exactness rules, `_slice_nodes` radial nodes and the
`_angular_rule` grid: a size left None is the rule for the labels of the
rep sampled (of both reps, in a pairing of `symplectic`), and an inversion
raises ValueError on a sample below the rule for the degrees it is asked
for.  A sample takes any size; `AngularGrid.project` checks none.

The harmonics are those of S^2, so every entry point that contracts with
Y_lm raises UnsupportedDimension for d != 3; the basis change between S
and C modes stays d-general.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.special import binom, poch

from .errors import (BandLimitExceeded, BasisMismatch, DomainError, MagicFrequencyBlind,
                     RadialNodeError, SerializationError)
from .geometry import AdsParams, make_params, radial_measure, require_c_modes
from .harmonics import (AngularGrid, lm_count, lm_degree, lm_index, lm_labels,
                        lm_mirror, require_two_sphere, ylm_point)
from .memo import key
from .modes import (RadialKind, _transfer_entries, hyper_params, jacobi_radial_fd,
                    magic_frequency, norm_constant, radial_eval_fd)
from .specfun import double_pochhammer, hyp2f1

_GRID_TOL = 1e-9        # magic frequency off its grid point (slice_to_tube)
_RESIDUAL_TOL = 1e-6    # slice reconstruction residual (invert_slice)
_NODE_TOL = 1e-10       # |S^a(rho0)| taken as a radial node
_BLIND_TOL = 1e-10      # |m12| taken as blind boundary data


@dataclass(frozen=True)
class OmegaGrid:
    """Uniform frequency grid omega_k = k d_omega over a finite index set."""

    d_omega: float
    indices: tuple[int, ...]

    def __post_init__(self):
        if not (math.isfinite(self.d_omega) and self.d_omega > 0.0):
            raise ValueError(f"d_omega must be finite and positive, got {self.d_omega!r}")
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))

    def omega(self, k: int) -> float:
        return k * self.d_omega

    @property
    def window(self) -> float:
        """Conjugate time window T = 2 pi / d_omega."""
        return 2.0 * math.pi / self.d_omega

    def time_nodes(self, n_t: int) -> np.ndarray:
        return self.window * np.arange(n_t) / n_t


class _Coeffs(Mapping):
    """A rep's stored coefficients, read-only: the sorted first labels `js`,
    the dense (channel, j, lm) array (zero off the labels) and the (j, lm)
    `mask` of the labels held (every entry if None), trimmed to the rows and
    l_max holding one (taken as trimmed when l_max is given).  As a mapping
    it is the view {(j, l, m): channel values} in sorted label order (a
    tuple per label with two channels) and of the mask's length.  The view
    and the `held`, `groups` and `orders` tables are formed on first use and
    not pickled."""

    def __init__(self, js, array, mask=None, l_max: int | None = None):
        if l_max is None:
            mask = np.ones(array.shape[1:], dtype=bool) if mask is None else mask
            rows, used = mask.any(axis=1), np.flatnonzero(mask.any(axis=0))
            l_max = lm_degree(used[-1]) if used.size else 0
            cols = lm_count(l_max)
            js, array, mask = np.asarray(js)[rows], array[:, rows, :cols], mask[rows, :cols]
        self.js, self.array, self.mask, self.l_max = js, array, mask, l_max
        for held in (js, array, mask):
            held.flags.writeable = False

    @cached_property
    def _view(self) -> dict:
        j, lm, vals = self.entries()
        ls, ms = lm_labels(self.l_max)
        vals = vals[0].tolist() if len(vals) == 1 else zip(*vals.tolist())
        return dict(zip(zip(j.tolist(), ls[lm].tolist(), ms[lm].tolist()), vals))

    def __getitem__(self, label):
        return self._view[label]

    def __iter__(self):
        return iter(self._view)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    @cached_property
    def held(self) -> np.ndarray:
        """(channel, j, l): where each channel holds a nonzero coefficient in
        the (j, l) block, the blocks every table of the rep is evaluated on."""
        return np.logical_or.reduceat(self.array != 0, np.arange(self.l_max + 1) ** 2, axis=-1)

    @cached_property
    def groups(self) -> list:
        """[(channels, (rows, l))]: one plan of `held` blocks for all channels
        when they hold the same blocks, else one plan per channel."""
        same = (self.held == self.held[0]).all()
        return [(tuple(range(len(self.held))) if same else (ch,), np.nonzero(block))
                for ch, block in enumerate(self.held[:1] if same else self.held)]

    @cached_property
    def orders(self) -> np.ndarray:
        """(channel, lm): where each channel holds a nonzero coefficient, the
        orders of the Y row a point synthesis reads."""
        return (self.array != 0).any(axis=1)

    @classmethod
    def of(cls, coeffs, channels: int, j_min: float, whole_j: bool) -> "_Coeffs":
        """Store {(j, l, m): values}; ValueError on a label `_packed_lm`
        refuses (a `_Coeffs` is kept as it is if its first labels pass)."""
        if isinstance(coeffs, cls):
            if len(coeffs.array) != channels:
                raise ValueError(f"{len(coeffs.array)} channels given, {channels} needed")
            if not (js := coeffs.js).size or js[0] >= j_min and (  # js sorted
                    not whole_j or js.dtype.kind in "iu" or not np.any(js % 1)):
                return coeffs
        labels = list(coeffs)
        keys = np.array(labels).reshape(-1, 3)
        if keys.dtype == object:  # integers past int64: their floats; past the double
            # range +-inf for a real first label, else +-DBL_MAX, refused as 10**20 is
            big = np.finfo(float).max
            keys = np.vectorize(_float_or_inf, otypes=[float])(
                keys, [big if whole_j else math.inf, big, big])
        values = np.fromiter(coeffs.values() if channels == 1 else chain.from_iterable(
            coeffs.values()), complex, channels * len(labels))
        return _scatter(keys[:, 0], _packed_lm(keys, j_min, labels, whole_j),
                        values.reshape(-1, channels).T)

    def entries(self):
        """(j, lm, values) of the labels held, values shaped (channel, label)."""
        rows, lm = self.mask.nonzero()
        return self.js[rows], lm, self.array[:, rows, lm]

    def _read_only(self, *args, **kwargs):
        raise TypeError("rep coefficients are read-only")

    # dict's mutators; item assignment and deletion already raise on a Mapping
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (self.js, self.array, self.mask)


def _float_or_inf(value, past: float = math.inf) -> float:
    """float(value), or +-past for an integer past the double range."""
    try:
        return float(value)
    except OverflowError:
        return past if value > 0 else -past


def _packed_lm(keys: np.ndarray, j_min: float, labels=None,
               whole_j: bool = True, limit: float = 2 ** 31 - 1) -> np.ndarray:
    """Packed lm of the (j, l, m) rows of keys; ValueError naming the first
    label (its row of keys, or its entry of `labels`) with l or m not an
    integer, j not finite (nor an integer if whole_j), l < 0, |m| > l,
    j < j_min, or an integer label past `limit` (so that l (l + 1) + m and
    every cast fit int64).  Integer-valued floats count as integers."""
    j, l, m = keys.T
    form = np.ones(len(keys), dtype=bool)
    if keys.dtype.kind not in "iu":  # an integer array holds finite integers only
        whole = np.isfinite(keys) & (keys == np.floor(keys))
        form = whole[:, 1:].all(axis=1) & (whole[:, 0] if whole_j else np.isfinite(j))
    ranged = (l >= 0) & (m >= -l) & (m <= l) & (j >= j_min)
    ints = keys[:, int(not whole_j):]
    bad = ~(form & ranged & ((ints >= -limit) & (ints <= limit)).all(axis=1))
    if bad.any():
        i = bad.argmax()
        if not form[i]:
            rule = ("an integer first label, l and m" if whole_j
                    else "a finite first label, integer l and m")
        elif not ranged[i]:
            rule = "l >= 0, |m| <= l" + (f", n >= {j_min}" if j_min >= 0 else "")
        else:
            rule = ("a first label, " if whole_j else "") + f"l and m of magnitude at most {limit}"
        label = tuple(keys[i].tolist()) if labels is None else labels[i]
        raise ValueError(f"invalid label {label}: need {rule}")
    return lm_index(l.astype(int), m.astype(int))


def _scatter(j, lm, values) -> _Coeffs:
    """The labels at the first labels j and packed lm, holding values
    (channel, label), summed in order where a label repeats (np.add.at);
    unique labels take values + 0.0, the bits of a sum into zeros."""
    ordered = j.copy()
    ordered.sort()
    js = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    rows, l_max = js.searchsorted(j), lm_degree(lm.max(initial=0))
    array = np.zeros((len(values), len(js), lm_count(l_max)), dtype=complex)
    mask = np.zeros(array.shape[1:], dtype=bool)
    mask[rows, lm] = True
    if np.count_nonzero(mask) == len(lm):
        array[:, rows, lm] = values + 0.0
    else:
        np.add.at(array, (slice(None), rows, lm), values)
    return _Coeffs(js, array, mask, l_max)


class _Labelled:
    """Base of the rep classes: the constructor's `coeffs` dict {(j, l, m):
    channel values} is stored once as a `_Coeffs`; labels() and coeff()
    read it, an absent label reading as `_absent`."""

    _absent, _channels = (0.0 + 0.0j, 0.0 + 0.0j), 2
    _j_min = -math.inf  # smallest admissible first label (radial order n >= 0)
    _whole_j = True     # first labels integers (frequency index k or order n)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _Coeffs.of(
            self.coeffs, self._channels, self._j_min, self._whole_j))

    def labels(self):
        return list(self.coeffs)

    def coeff(self, j, l: int, m: int):
        return self.coeffs.get((j, l, m), self._absent)

    def _with(self, array):
        """This rep with another array on the same labels."""
        c = self.coeffs
        return replace(self, coeffs=_Coeffs(c.js, array, c.mask, c.l_max))

    def scaled(self, factor: complex):
        return self._with(factor * self.coeffs.array)


@dataclass(frozen=True)
class TubeRep(_Labelled):
    """Sparse tube-region momentum representation: (k, l, m) -> (a, b)."""

    grid: OmegaGrid
    coeffs: dict
    basis: str = "S"

    def __post_init__(self):
        _basis_kinds(self.basis)
        super().__post_init__()

    def is_real(self, tol: float = 1e-10) -> bool:
        # real iff c(-k, l, -m) = conj c(k, l, m) at every label: the gap
        # conj c(P) - c(mirror P) vanishes at each label P and its mirror
        k, lm, vals = self.coeffs.entries()
        mirror = lm_mirror(self.coeffs.l_max)[lm]
        gap = _scatter(np.r_[k, -k], np.r_[lm, mirror], np.hstack([vals.conj(), -vals]))
        return not np.any(np.abs(gap.array) > tol)


@dataclass(frozen=True)
class SliceRep(_Labelled):
    """Sparse slice-region representation: (n, l, m) -> (phi_plus,
    phi_minus_conj).  The second channel stores conj(phi^-), the coefficient
    multiplying the conjugated mode in the expansion."""

    coeffs: dict
    _j_min = 0

    def is_real(self, tol: float = 1e-10) -> bool:
        # real iff phi^+ = phi^-, i.e. minus_conj = conj(plus) labelwise
        plus, minus_conj = self.coeffs.array
        return not np.any(self.coeffs.mask & (np.abs(minus_conj - np.conj(plus)) > tol))


@dataclass(frozen=True)
class RodRep(_Labelled):
    """Sparse rod-region representation: (k, l, m) -> a, the S-basis tube
    with b = 0 (`basis` is a class constant, not a field)."""

    grid: OmegaGrid
    coeffs: dict
    _absent, _channels = 0.0 + 0.0j, 1
    basis = "S"

    def as_tube(self) -> TubeRep:
        c = self.coeffs
        return TubeRep(self.grid, _Coeffs(c.js, np.concatenate(
            [c.array, np.zeros_like(c.array)]), c.mask, c.l_max), "S")


_TUBES, _ADS = (TubeRep, RodRep), (SliceRep, TubeRep, RodRep)  # what tube, AdS entries take


@dataclass(frozen=True)
class BoundaryData:
    """Rescaled boundary value phi^{d-} and twisted-derivative value
    phi^{d+}_nu sampled on a (t, Omega) grid spanning one time window."""

    grid: OmegaGrid
    t_nodes: np.ndarray
    angular: AngularGrid
    phid_minus: np.ndarray  # shape (nt, ntheta, nphi)
    phid_plus: np.ndarray


# ---------------------------------------------------------------------------
# synthesis: the separable kernel and its adjoint
# ---------------------------------------------------------------------------

def _degree_table(js, coef, fn, shape=(), blocks=None) -> np.ndarray:
    """fn(j, l) on the (j, l) blocks where coef (..., j, lm) has a nonzero
    entry, or on the (row, l) arrays `blocks` if given (zero elsewhere):
    shape + (j, l_max + 1), of fn's dtype.  fn is called once, on the 1-d
    arrays of those j and l, and returns shape + (blocks,)."""
    l_max = lm_degree(coef.shape[-1] - 1)
    rows, l_need = np.nonzero(np.logical_or.reduceat(
        np.any(coef != 0, axis=tuple(range(coef.ndim - 2))), np.arange(l_max + 1) ** 2,
        axis=-1)) if blocks is None else blocks
    vals = np.asarray(fn(np.asarray(js)[rows], l_need)) if rows.size else np.zeros(0)
    out = np.zeros(shape + (coef.shape[-2], l_max + 1), dtype=vals.dtype)
    out[..., rows, l_need] = vals
    return out


def _table(js, coef, fn, shape=(), blocks=None) -> np.ndarray:
    """`_degree_table` spread over lm: shape + (j, lm)."""
    ls = lm_labels(lm_degree(coef.shape[-1] - 1))[0]
    return _degree_table(js, coef, fn, shape, blocks)[..., ls]


def _by_degree(subscripts: str, kern, coef, out) -> np.ndarray:
    """np.einsum(subscripts, kern[..., l], coef[..., cols]) into out[...,
    cols] for each degree l, cols its packed columns [l^2, (l+1)^2): a grid
    path's radial sum against a real kernel (..., l_max + 1), never spread
    over lm.  It runs on the float views of the complex coef and out, which
    a real kernel scales part by part: the complex product's bits wherever
    einsum's float loops round each product (no fused multiply-add, as in
    numpy's x86-64 builds; tests/test_grid_memory.py checks)."""
    edges = 2 * np.arange(kern.shape[-1] + 1) ** 2
    parts, view = coef.view(float), out.view(float)
    for l, (a, b) in enumerate(zip(edges, edges[1:])):
        np.einsum(subscripts, kern[..., l], parts[..., a:b], out=view[..., a:b])
    return out


def _ylm_sums(coef, y) -> np.ndarray:
    """sum_m coef[..., j, lm] y[..., lm] per (j, l) block, y the Y row(s) at
    a point: shape (..., j, l_max + 1), one np.add.reduceat over each
    degree's orders."""
    return np.add.reduceat(coef * y, np.arange(lm_degree(coef.shape[-1] - 1) + 1) ** 2, axis=-1)


def _time_project(samples: np.ndarray, grid: OmegaGrid) -> np.ndarray:
    """Adjoint of the phase matrix: per grid index k (in grid order), the
    coefficient of e^{-i omega_k t} divided by d_omega, i.e. the (1/2pi) int
    dt e^{i omega t} projection of the d_omega-weighted sum."""
    n_t = samples.shape[0]
    span = max(abs(k) for k in grid.indices)
    if n_t < 2 * span + 1:
        raise ValueError("time grid too short for the frequency window")
    coef = np.fft.ifft(samples, axis=0) / grid.d_omega
    return coef[np.array(grid.indices) % n_t]


def _tube_sum(rep, t, where, radial, with_dt: bool = False) -> np.ndarray:
    """d_omega sum (a f_a + b f_b)(k, l) e^{-i omega_k t} Y_lm and the same
    sum over (g_a, g_b), at the times t and the angular points `where`;
    shape (2, t, ...), or (2, 2, t) with each sum's d/dt second at a point
    if with_dt.  radial(channels, omega, l) is (f, g) for each channel of
    the tuple (0 for a, 1 for b), shape (channels, 2, blocks).  It is called
    once per plan of `_Coeffs.groups`, on the arrays of its (k, l): once for
    all the channels the rep holds (a rod holds a only) when they hold the
    same blocks, else once per channel, so no channel is evaluated where it
    holds nothing.  On a grid the radial values are folded into the
    coefficients; at a point (theta, phi) the Y row is contracted first,
    sum_m c Y per (k, l) block, then the radial values and phases."""
    c, d_omega = rep.coeffs, rep.grid.d_omega

    def kern(omega, dt=False):  # the phases d_omega e^{-i omega t}, or their d/dt: (t, omega)
        phase = np.exp(-1j * np.multiply.outer(np.atleast_1d(t), omega))
        return d_omega * (-1j * omega * phase if dt else phase)

    if isinstance(where, AngularGrid):
        fold = (c.array[:, None] * np.concatenate([_table(
            c.js, c.array[0], lambda k, l, chs=chs: radial(chs, k * d_omega, l),
            (len(chs), 2), plan) for chs, plan in c.groups])).sum(axis=0)
        return where.synthesize(np.einsum("sj,...ji->...si", kern(
            d_omega * np.asarray(c.js, dtype=float)), fold))
    sums = _ylm_sums(c.array, ylm_point(c.l_max, c.orders.any(0), *where))
    out = np.zeros((2, 1 + with_dt, np.size(t)), dtype=complex)
    for chs, (rows, l_need) in c.groups:
        if rows.size:
            omega = c.js[rows] * d_omega
            part = sums[np.array(chs)[:, None], rows, l_need][:, None]
            blocks = (radial(chs, omega, l_need) * part).sum(axis=0)
            out += np.stack([blocks @ kern(omega, dt).T for dt in range(1 + with_dt)], 1)
    return out if with_dt else out[:, 0]


def _slice_sum(rep, t: float, rho, where, frequency, radial,
               with_dt: bool = True) -> np.ndarray:
    """sum (phi^+ e^{-iwt} Y_lm + conj(phi^-) e^{iwt} conj(Y_lm)) f and its d/dt
    at time t, the radii rho and the angular points `where`; shape (2, rho,
    ...), or (1, rho, ...), the field alone, if not with_dt.  frequency(j, l)
    = w and radial(j, l) = f, shape (rho, blocks), are called once on the
    arrays of the (j, l) holding a nonzero coefficient (on a grid, w on the
    (j, 1) and (lm,) arrays of the frame).  conj(Y_l^m) = Y_l^{-m} moves the
    conj(phi^-) channel to the mirrored order.  At a point (theta, phi) the
    Y row is contracted first, as in `_tube_sum`, mirrored for conj(phi^-),
    and radial gives a list of tables, each summed: (tables, 2 or 1, rho), two if no label."""
    c, grid = rep.coeffs, isinstance(where, AngularGrid)
    mirror = lm_mirror(c.l_max)
    if grid:
        omega = frequency(c.js[:, None], lm_labels(c.l_max)[0])
        plus, minus = c.array[0], c.array[1][:, mirror]
    else:
        y = ylm_point(c.l_max, c.orders[0] | c.orders[1][mirror], *where)  # refuses a bad theta
        rows, l_need = np.nonzero(c.held.any(0))
        if not rows.size:
            return np.zeros((2, 1 + with_dt, np.size(rho)), dtype=complex)
        plus, minus = _ylm_sums(c.array, np.array([y, y[mirror]])[:, None])[
            :, rows, l_need]
        omega = frequency(c.js[rows], l_need)
    plus, minus = plus * np.exp(-1j * omega * t), minus * np.exp(1j * omega * t)
    coefs = np.array([plus + minus, -1j * omega * (plus - minus)][:1 + with_dt])
    if grid:
        return where.synthesize(_by_degree(
            "sj,...ji->...si", _degree_table(c.js, coefs, radial, np.shape(rho)), coefs,
            np.empty(coefs.shape[:1] + np.shape(rho) + coefs.shape[-1:], complex)))
    return np.array([coefs @ np.transpose(f) for f in radial(c.js[rows], l_need)])


def _jacobi(rho: np.ndarray, params: AdsParams, both: bool = False):
    """The frequency and radial functions of `_slice_sum` for the Jacobi
    modes: w+_{nl} and J^+_{nl} at the 1-d radii rho, or J and d/drho if both (d = 3)."""
    require_two_sphere(params.d)
    pick = slice(None) if both else 0
    return (lambda n, l: magic_frequency("plus", n, l, params),
            lambda n, l: jacobi_radial_fd("plus", n, l, rho[..., None], params)[pick])


def _basis_kinds(basis: str) -> tuple:
    """The (a, b) channel radial kinds of the S or C basis; ValueError otherwise."""
    if basis not in ("S", "C"):
        raise ValueError("basis must be 'S' or 'C'")
    return (RadialKind.Sa, RadialKind.Sb) if basis == "S" else (RadialKind.Ca, RadialKind.Cb)


def _s_or_c(basis: str, rho, params: AdsParams):
    """`_tube_sum` radial function of the S or C modes at rho: (f, f') of
    the channels' kinds, from one radial_eval_fd call (d = 3)."""
    require_two_sphere(params.d)
    kinds = _basis_kinds(basis)
    return lambda chs, om, l: np.swapaxes(radial_eval_fd(
        tuple(kinds[ch] for ch in chs), om, l, rho, params), 0, 1)


def _synth(rep, point, params: AdsParams, deriv: int = 0) -> complex:
    """Shared body of synth, synth_dt and synth_drho (deriv 0, 1, 2) at point
    = (t, rho, theta, phi): one evaluation gives all three, kept on the rep
    for its last point (by its float bits) and params."""
    held = rep.__dict__.get("_point_values", (None,))
    if held[0] != (at := key(*point, params)):
        t, rho, theta, phi = point
        if isinstance(_require(_ADS, rep), SliceRep):
            rho = np.atleast_1d(rho)
            out = _slice_sum(rep, t, rho, (theta, phi), *_jacobi(rho, params, True))
        else:
            out = _tube_sum(rep, t, (theta, phi), _s_or_c(rep.basis, rho, params), True)
        (f, dt), (drho, _) = out[:, :, 0]  # (f, f') x (field, d/dt)
        object.__setattr__(rep, "_point_values", held := (at, (f, dt, drho)))
    return complex(held[1][deriv])


def synth(rep, point, params: AdsParams) -> complex:
    """Evaluate the represented solution at point = (t, rho, theta, phi)."""
    return _synth(rep, point, params)


def synth_dt(rep, point, params: AdsParams) -> complex:
    """d/dt of the synthesized field (phases only, analytic)."""
    return _synth(rep, point, params, 1)


def synth_drho(rep, point, params: AdsParams) -> complex:
    """d/drho of the synthesized field (term-wise analytic radial derivative)."""
    return _synth(rep, point, params, 2)


# ---------------------------------------------------------------------------
# quadrature rules and sampled hypersurface data
# ---------------------------------------------------------------------------

def _extent(*reps) -> tuple[int, int]:
    """(largest |j|, largest l) over the labels the reps hold, 0 for none."""
    return (int(max(np.max(np.abs(r.coeffs.js), initial=0) for r in reps)),
            max(r.coeffs.l_max for r in reps))


def _require(classes: tuple, *reps):
    """The first of reps; BasisMismatch unless each is one of `classes` and
    has the first's frequency grid and field mass, where reps have those."""
    for rep in reps:
        if not isinstance(rep, classes):
            raise BasisMismatch(f"needs a {' or '.join(c.__name__ for c in classes)}, "
                                f"got a {type(rep).__name__}")
        for field, what in (("grid", "frequency grids"), ("m_field", "field masses")):
            if (first := getattr(reps[0], field, None)) != (got := getattr(rep, field, None)):
                raise BasisMismatch(f"{what} differ: {first} vs {got}")
    return reps[0]


def _window(classes: tuple, *reps) -> np.ndarray:
    """The 2 K + 1 nodes of one time window of the grid the reps share
    (`_require` of the classes), K the largest |k| of its indices and their
    labels: no two such frequencies alias, and a pairing's integrand sums exactly."""
    grid = _require(classes, *reps).grid
    return grid.time_nodes(2 * max(_extent(*reps)[0], *map(abs, grid.indices), 0) + 1)


def _slice_nodes(n_max: int, l_max: int, n_rho: int | None = None) -> int:
    """The fewest Gauss-Jacobi radial nodes exact for every same-l product
    of slice modes up to (n_max, l_max): after the rule's weight the product
    J_n J_n' is (1 - x)^l P_n P_n', of degree l + n + n' <= l_max + 2 n_max,
    and N nodes integrate degree 2 N - 1 exactly; or n_rho, if given and
    not fewer (ValueError)."""
    need = (l_max + 2 * n_max + 2) // 2
    if n_rho is not None and n_rho < need:
        raise ValueError(f"{n_rho} radial nodes are too few for (n_max, l_max) = "
                         f"({n_max}, {l_max}), which needs {need}")
    return need if n_rho is None else n_rho


def _angular_rule(l_max: int, angular: AngularGrid | None = None) -> AngularGrid:
    """The smallest grid exact for every product of two harmonics up to
    l_max: Gauss-Legendre on l_max + 1 nodes integrates P_l^m P_l'^m (degree
    <= 2 l_max in cos(theta)), the uniform rule on 2 l_max + 1 every
    e^{i m phi}, |m| <= 2 l_max; or angular, if given and not smaller
    (ValueError)."""
    need = (l_max + 1, 2 * l_max + 1)
    if angular is not None and (angular.n_theta < need[0] or angular.n_phi < need[1]):
        raise ValueError(f"a {angular.n_theta} x {angular.n_phi} angular grid is too small "
                         f"for l_max = {l_max}, which needs {need[0]} x {need[1]}")
    return AngularGrid(*need) if angular is None else angular


@dataclass(frozen=True)
class SliceData:
    """Field and time derivative sampled on an equal-time surface."""

    t0: float
    rho_nodes: np.ndarray
    rho_weights: np.ndarray  # include the tan^{d-1} measure
    angular: AngularGrid
    phi: np.ndarray          # shape (nrho, ntheta, nphi)
    dphi_dt: np.ndarray


@dataclass(frozen=True)
class TubeData:
    """Field and radial derivative sampled on an equal-radius hypercylinder
    over one time window."""

    rho0: float
    grid: OmegaGrid
    t_nodes: np.ndarray
    angular: AngularGrid
    phi: np.ndarray          # shape (nt, ntheta, nphi)
    dphi_drho: np.ndarray


@dataclass(frozen=True)
class RodData:
    """Field values only, sampled on an equal-radius hypercylinder."""

    rho0: float
    grid: OmegaGrid
    t_nodes: np.ndarray
    angular: AngularGrid
    phi: np.ndarray


def sample_slice(rep: SliceRep, t0: float, params: AdsParams,
                 n_rho: int | None = None, angular: AngularGrid | None = None) -> SliceData:
    """Sample a slice solution (and d_t) on the radial x angular grid."""
    n_max, l_max = _extent(_require((SliceRep,), rep))
    ang = angular or _angular_rule(l_max)
    rho, w = radial_measure(params, _slice_nodes(n_max, l_max) if n_rho is None else n_rho)
    phi, dphi = _slice_sum(rep, t0, rho, ang, *_jacobi(rho, params))
    return SliceData(t0, rho, w, ang, phi, dphi)


def sample_tube(rep: TubeRep, rho0: float, params: AdsParams,
                angular: AngularGrid | None = None) -> TubeData:
    """Sample a tube solution (and d_rho) over one time window at rho0."""
    t_nodes = _window(_TUBES, rep)
    ang = angular or _angular_rule(rep.coeffs.l_max)
    phi, dphi = _tube_sum(rep, t_nodes, ang, _s_or_c(rep.basis, rho0, params))
    return TubeData(rho0, rep.grid, t_nodes, ang, phi, dphi)


def sample_rod(rep: RodRep, rho0: float, params: AdsParams,
               angular: AngularGrid | None = None) -> RodData:
    data = sample_tube(rep, rho0, params, angular)
    return RodData(rho0, rep.grid, data.t_nodes, data.angular, data.phi)


# ---------------------------------------------------------------------------
# basis change
# ---------------------------------------------------------------------------

def _pair(values) -> tuple:
    """(a, b) of a (channel, ...) array, a rod's missing b read as zeros."""
    return values[0], values[1] if len(values) > 1 else np.zeros_like(values[0])


def _basis_change(rep, params: AdsParams, inverse: bool) -> TubeRep:
    """rep (an S-basis tube or rod; a C-basis tube if inverse) in the other
    basis: (a, b) M at every label, with M^-1 in place of M if inverse; M is
    tabulated once per (k, l) holding a label."""
    if _require(_TUBES, rep).basis != "SC"[inverse]:
        raise BasisMismatch(("s_to_c expects an S", "c_to_s expects a C")[inverse] + "-basis rep")
    c = rep.coeffs
    m11, m12, m21, m22 = _table(c.js, c.mask, lambda k, l: _transfer_entries(
        k * rep.grid.d_omega, l, params, inverse), (4,))
    a, b = _pair(c.array)
    return TubeRep(rep.grid, _Coeffs(c.js, np.stack(
        [a * m11 + b * m21, a * m12 + b * m22]), c.mask, c.l_max), "CS"[inverse])


def s_to_c(rep: TubeRep, params: AdsParams) -> TubeRep:
    """Re-express an S-basis rep in the C basis; fields agree pointwise.

    Coefficient transpose of (S^a, S^b) = M (C^a, C^b):
    (phi^{C,a}, phi^{C,b}) = (phi^a, phi^b) M.
    """
    return _basis_change(rep, params, False)


def c_to_s(rep: TubeRep, params: AdsParams) -> TubeRep:
    return _basis_change(rep, params, True)


def slice_to_tube(rep: SliceRep, grid: OmegaGrid, params: AdsParams) -> TubeRep:
    """View a slice solution as an S-basis tube rep (Jacobi modes are the
    S^a modes at magic frequencies; the conj channel lands on the mirrored
    label).  Magic frequencies must sit on the grid."""
    n, lm, vals = _require((SliceRep,), rep).coeffs.entries()
    om = magic_frequency("plus", n, lm_labels(rep.coeffs.l_max)[0][lm], params)
    k = np.rint(om / grid.d_omega)
    off = np.flatnonzero(np.abs(om / grid.d_omega - k) > _GRID_TOL)
    if off.size:
        raise ValueError(f"magic frequency {om[off[0]]} not on the grid "
                         f"(d_omega={grid.d_omega})")
    # phi^+ lands on (k, l, m) and conj(phi^-) on (-k, l, -m); zeros add no label
    ks = np.concatenate([k, -k]).astype(int)
    lms = np.concatenate([lm, lm_mirror(rep.coeffs.l_max)[lm]])
    vals = np.concatenate(vals)
    keep = vals != 0.0
    return TubeRep(grid, _scatter(ks[keep], lms[keep], np.stack(
        [vals[keep] / grid.d_omega, np.zeros(np.count_nonzero(keep))])), "S")


# ---------------------------------------------------------------------------
# inversions
# ---------------------------------------------------------------------------

def invert_slice(data: SliceData, params: AdsParams,
                 n_max: int, l_max: int,
                 check_residual: bool = True) -> SliceRep:
    """Recover the slice representation from (phi, d_t phi) on Sigma_{t0}.

    phi^+ and conj(phi^-) come from the weighted projection
    int drho dOmega tan^{d-1} conj(Y) J^+ (f phi + d dphi) with
    f = e^{i w t0} / (2 N^+) and d = i e^{i w t0} / (2 w N^+); the minus
    channel pairs m with -m through conj(Y_l^m) = Y_l^{-m}.  ValueError
    when data's radial nodes or angular grid fall below the rules for
    (n_max, l_max), on which that projection is exact.  The residual check
    synthesizes the recovered phi alone on data's nodes.
    """
    _slice_nodes(n_max, l_max, len(data.rho_nodes))
    ang = _angular_rule(l_max, data.angular)
    ns = range(n_max + 1)
    full = np.ones((n_max + 1, lm_count(l_max)))
    frequency, radial = _jacobi(data.rho_nodes, params)
    kern = _degree_table(ns, full, radial, data.rho_nodes.shape)
    proj = np.stack([ang.project(x, l_max) for x in (data.phi, data.dphi_dt)])
    p_phi, p_dphi = _by_degree("sj,csi->cji", data.rho_weights[:, None, None] * kern, proj,
                               np.empty((2,) + full.shape, complex))
    del proj  # before the residual check synthesizes
    omega = _table(ns, full, frequency)
    nrm = _table(ns, full, lambda n, l: norm_constant("plus", n, l, params))
    f_c = np.exp(1j * omega * data.t0) / (2.0 * nrm)
    d_c = 1j * np.exp(1j * omega * data.t0) / (2.0 * omega * nrm)
    mirror = lm_mirror(l_max)
    rep = SliceRep(_Coeffs(ns, np.stack([f_c * p_phi + d_c * p_dphi,
                                         np.conj(f_c) * p_phi[:, mirror]
                                         + np.conj(d_c) * p_dphi[:, mirror]])))
    if check_residual:
        norm = np.max(np.abs(data.phi)) or 1.0
        rho = data.rho_nodes
        diff = _slice_sum(rep, data.t0, rho, ang, *_jacobi(rho, params), with_dt=False)[0]
        diff -= data.phi
        resid = np.max(np.abs(diff)) / norm
        if resid > _RESIDUAL_TOL:
            raise BandLimitExceeded(
                f"reconstruction residual {resid:.2e} exceeds {_RESIDUAL_TOL}")
    return rep


def invert_tube(data: TubeData, params: AdsParams, l_max: int,
                basis: str = "S") -> TubeRep:
    """Recover the tube representation from (phi, d_rho phi) on Sigma_{rho0}.

    Per label: tan^{d-1}(rho0)/(2l+d-2) [f_b'(rho0) P[phi] - f_b(rho0)
    P[d_rho phi]] for the a-coefficient (S basis; 2 nu replaces the factor
    in the C basis), with P the time-frequency / harmonic projection.
    """
    grid = data.grid
    radial = _s_or_c(basis, data.rho0, params)
    ang = _angular_rule(l_max, data.angular)
    p_phi, p_dphi = (ang.project(_time_project(x, grid), l_max)
                     for x in (data.phi, data.dphi_drho))
    full = np.ones((len(grid.indices), lm_count(l_max)))
    (fa, da), (fb, db) = _table(grid.indices, full, lambda k, l: radial(
        (0, 1), k * grid.d_omega, l), (2, 2))
    d = params.d
    tan_fac = math.tan(data.rho0) ** (d - 1)
    weight = tan_fac / (2 * lm_labels(l_max)[0] + d - 2) if basis == "S" \
        else tan_fac / (2.0 * params.nu)
    a = weight * (db * p_phi - fb * p_dphi)
    b = weight * (-da * p_phi + fa * p_dphi)
    return TubeRep(grid, _Coeffs(grid.indices, np.stack([a, b])), basis)


def _rod_divide(data: RodData, l_max: int, divisor, tol: float,
                error) -> RodRep:
    """Rod coefficients a = (time-angular projection of the data) /
    divisor(omega, l), called once on the arrays of every (k, l); raises
    error(omega, l) at the first (k, l) where |divisor| < tol."""
    grid = data.grid
    proj = _angular_rule(l_max, data.angular).project(_time_project(data.phi, grid), l_max)
    def checked(k, l):
        om = k * grid.d_omega
        val = divisor(om, l)
        bad = np.flatnonzero(np.abs(val) < tol)
        if bad.size:
            raise error(om[bad[0]], l[bad[0]])
        return val

    div = _table(grid.indices, np.ones(proj.shape), checked)
    return RodRep(grid, _Coeffs(grid.indices, (proj / div)[None]))


def invert_rod_interior(data: RodData, params: AdsParams, l_max: int) -> RodRep:
    """Recover the rod representation from field values at rho0 < pi/2:
    a = (time-angular projection) / S^a(rho0)."""
    require_two_sphere(params.d)
    return _rod_divide(data, l_max, lambda om, l: radial_eval_fd(
        RadialKind.Sa, om, l, data.rho0, params)[0], _NODE_TOL,
        lambda om, l: RadialNodeError(f"S^a({data.rho0}) ~ 0 at omega={om}, l={l}"))


# ---------------------------------------------------------------------------
# boundary machinery
# ---------------------------------------------------------------------------

def twisted_boundary_limit(kind: RadialKind, params: AdsParams) -> float:
    """Boundary value of the twisted derivative of the C-modes:
    ((2 nu - 2 floor(nu)))_{floor(nu)+1} for C^a and 0 for C^b."""
    require_c_modes(params)
    nu = params.nu
    if kind is RadialKind.Cb:
        return 0.0
    if kind is RadialKind.Ca:
        fl = math.floor(nu)
        return double_pochhammer(2.0 * nu - 2.0 * fl, fl + 1)
    raise ValueError("twisted limits defined for C-modes only")


def twisted_derivative(kind: RadialKind, omega: float, l: int, rho: float,
                       params: AdsParams) -> float:
    """Twisted derivative d^{(nu)} = cos^{-D+} prod_{j=0}^{fl} (cos d_cos - D- - 2j)
    of a C-mode, fl = floor(nu), in closed form.  With y = cos^2 rho and
    k = fl + 1 it is 2^k y^{k-nu} d_y^k (cos^{-D-} C), a Leibniz sum of k + 1
    terms over (1 - y)^{l/2}, whose i-th derivative is (-l/2)_i (1-y)^{l/2-i}:

      d^{(nu)} C^a = 2^k sum_i C(k,i) (-l/2)_i (1-y)^{l/2-i} (c-k+i)_{k-i} y^i
                     2F1(a, b; c-k+i; y)                          (DLMF 15.5.4)
      d^{(nu)} C^b = 2^k y^{k-nu} sum_i C(k,i) (-l/2)_i (1-y)^{l/2-i}
                     (a)_{k-i} (b)_{k-i} / (c)_{k-i} 2F1(a+k-i, b+k-i; c+k-i; y)
                                                                  (DLMF 15.5.2)

    with (a, b, c) = hyper_params(kind).  Defined for rho >= pi/6 (y <=
    ARG_CUTOFF); nearer the origin DomainError unless every series terminates.
    """
    if kind not in (RadialKind.Ca, RadialKind.Cb):
        raise ValueError("twisted derivative defined for C-modes only")
    a, b, c = hyper_params(kind, omega, l, params)
    k = math.floor(params.nu) + 1
    i = np.arange(k + 1.0)
    y = math.cos(rho) ** 2
    leibniz = 2.0 ** k * binom(k, i) * poch(-l / 2.0, i) * (1.0 - y) ** (l / 2.0 - i)
    if kind is RadialKind.Ca:
        return float(np.sum(leibniz * poch(c - k + i, k - i) * y ** i
                            * hyp2f1(a, b, c - k + i, y)))
    n = k - i
    shift = poch(a, n) * poch(b, n) / poch(c, n)
    return float(y ** (k - params.nu) * np.sum(leibniz * shift * hyp2f1(a + n, b + n, c + n, y)))


def boundary_data_of(rep: TubeRep, params: AdsParams,
                     angular: AngularGrid | None = None) -> BoundaryData:
    """Analytic boundary data of a C-basis rep (closed-form boundary limits,
    never numerical sampling at rho -> pi/2):

      phi^{d-} = d_omega sum phi^{C,b} e^{-iwt} Y      (blind to C^a)
      phi^{d+}_nu = d_omega sum phi^{C,a} L e^{-iwt} Y

    with L the twisted boundary limit of C^a.
    """
    t_nodes = _window((TubeRep,), rep)
    if rep.basis != "C":
        raise BasisMismatch("boundary data requires the C basis")
    require_two_sphere(params.d)
    lam = twisted_boundary_limit(RadialKind.Ca, params)
    ang = angular or _angular_rule(rep.coeffs.l_max)
    # (rescaled value, twisted derivative) at the boundary: C^a -> (0, L),
    # C^b -> (1, 0)
    minus, plus = _tube_sum(rep, t_nodes, ang, lambda chs, om, l: np.array(
        [[[1.0], [0.0]] if ch else [[0.0], [lam]] for ch in chs]))
    return BoundaryData(rep.grid, t_nodes, ang, minus, plus)


def boundary_reconstruct(data: BoundaryData, params: AdsParams,
                         l_max: int) -> TubeRep:
    """Recover the C-basis momentum representation from boundary data:
    phi^{C,a} from the twisted-derivative channel (divided by the C^a
    boundary limit), phi^{C,b} from the rescaled field value."""
    require_two_sphere(params.d)
    lam = twisted_boundary_limit(RadialKind.Ca, params)
    grid = data.grid
    ang = _angular_rule(l_max, data.angular)
    p_minus, p_plus = (ang.project(_time_project(x, grid), l_max)
                       for x in (data.phid_minus, data.phid_plus))
    return TubeRep(grid, _Coeffs(grid.indices, np.stack([p_plus / lam, p_minus])), "C")


def rod_boundary_data_of(rep: RodRep, params: AdsParams,
                         angular: AngularGrid | None = None):
    """Rescaled boundary field value of a rod solution:
    phi^d = d_omega sum phi^a m12(w, l) e^{-iwt} Y  (only the C^b part of
    S^a survives the rescaling)."""
    t_nodes = _window((RodRep,), rep)
    require_two_sphere(params.d)
    ang = angular or _angular_rule(rep.coeffs.l_max)
    def radial(chs, om, l):
        m12 = _transfer_entries(om, l, params, False)[1]
        return np.stack([m12, np.zeros_like(m12)])[None]

    phi, _ = _tube_sum(rep, t_nodes, ang, radial)
    return RodData(math.pi / 2, rep.grid, t_nodes, ang, phi)


def rod_boundary_reconstruct(data: RodData, params: AdsParams, l_max: int) -> RodRep:
    """Recover a rod representation from rescaled boundary data:
    a = (projection) / m12(w, l); labels at magic frequencies are invisible
    (m12 = 0) and raise MagicFrequencyBlind."""
    require_two_sphere(params.d)
    return _rod_divide(data, l_max, lambda om, l: _transfer_entries(
        om, l, params, False)[1], _BLIND_TOL,
        lambda om, l: MagicFrequencyBlind(
            f"m12 ~ 0 at omega={om}, l={l}: boundary data is blind"))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_REP_VERSION = "v1"


def save_rep(path, rep, params: AdsParams) -> None:
    """Write a rep in the line format
    `basis k l m re_a im_a re_b im_b` under an `adskg-rep v1 ...` header."""
    if isinstance(rep, RodRep):
        rep, basis = rep.as_tube(), "rod"  # b = 0
    elif isinstance(rep, (TubeRep, SliceRep)):
        basis = getattr(rep, "basis", "slice")
    else:
        raise SerializationError(f"cannot serialize {type(rep).__name__}")
    d_omega = 0.0 if basis == "slice" else rep.grid.d_omega
    lines = [f"adskg-rep {_REP_VERSION} d={params.d} R={params.R!r} "
             f"msq={params.m_sq!r} domega={d_omega!r}"]
    for (k, l, m), (a, b) in rep.coeffs.items():  # sorted label order
        lines.append(f"{basis} {k} {l} {m} {a.real!r} {a.imag!r} {b.real!r} {b.imag!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    """Write text to an open file or to the file at a path."""
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# One label line: the basis token (one character wider than the longest
# basis, so a longer token never reads as one), (k, l, m) and the four
# floats re_a im_a re_b im_b.
_BASES = ("slice", "rod", "S", "C")
# Largest |k| (n in a slice file) and l a rep file may hold: reconstruct
# samples 2 max|k| + 1 times (ceil((l + 2 n + 1) / 2) radii, 273 at the
# limits) by about 2 (l + 1)^2 angles, so a file within them asks for grids of
# at most 513 x 2178 points.
_FILE_K_MAX, _FILE_L_MAX = 256, 32
_ROW = np.dtype([("basis", "U6"), ("klm", "i8", 3), ("v", "f8", 4)])


def _read_rows(lines) -> np.ndarray:
    """The label lines as _ROW records, blank lines skipped; ValueError on a
    line that does not hold the eight fields."""
    return np.loadtxt(lines, dtype=_ROW, comments=None, ndmin=1)


def load_rep(path):
    """Parse a rep file; returns (rep, params).  Rejects unknown versions
    and text that is not UTF-8 (SerializationError).

    The label lines are read by one `np.loadtxt` call into _ROW records and
    stored through `_scatter`.  On any fault, the lines are first checked
    one at a time in file order, so a malformed line, a non-finite value or
    a repeated label is named before any fault of the file as a whole."""
    try:
        if hasattr(path, "read"):
            text = path.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise SerializationError(f"rep file is not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise SerializationError("empty rep file")
    head = lines[start].split()
    if len(head) < 2 or head[0] != "adskg-rep":
        raise SerializationError("missing adskg-rep header")
    if head[1] != _REP_VERSION:
        raise SerializationError(f"unsupported rep version {head[1]!r}")
    meta = {}
    for tok in head[2:]:
        key, _, val = tok.partition("=")
        meta[key] = val
    try:
        params = make_params(int(meta["d"]), float(meta["R"]), float(meta["msq"]))
        d_omega = float(meta["domega"])
    except (KeyError, ValueError, DomainError) as exc:
        raise SerializationError(f"bad header fields: {exc}") from exc
    body = lines[start + 1:]
    if not any(ln.strip() for ln in body):
        raise SerializationError("rep file has no labels")
    try:
        return _rep_of(body, d_omega, "\x00" in text), params
    except SerializationError:
        _first_bad_line(body)
        raise


def _rep_of(body, d_omega: float, nul: bool):
    """The rep the label lines hold; SerializationError on any fault.  With
    `nul` (the file holds a NUL character) the basis tokens are taken from
    the lines themselves: np.loadtxt strips trailing NULs from a field."""
    try:
        rows = _read_rows(body)
    except ValueError as exc:
        raise SerializationError(f"malformed rep file: {exc}") from exc
    if not np.all(np.isfinite(rows["v"])):
        raise SerializationError("non-finite coefficient")
    tokens = rows["basis"]
    if nul or np.any(tokens != tokens[0]) or tokens[0] not in _BASES:
        bases = {ln.split()[0] for ln in body if ln.strip()}
        if len(bases) > 1:
            raise SerializationError(f"mixed bases in one file: {sorted(bases)}")
        if not bases <= set(_BASES):
            raise SerializationError(f"unknown basis {bases.pop()!r}")
    basis = str(tokens[0])
    if basis != "slice" and not (math.isfinite(d_omega) and d_omega > 0.0):
        raise SerializationError(f"domega must be finite and positive, got {d_omega!r}")
    keys = rows["klm"]
    try:
        lm = _packed_lm(keys, 0 if basis == "slice" else -math.inf, limit=math.inf)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc
    big = (keys[:, 0] < -_FILE_K_MAX) | (keys[:, 0] > _FILE_K_MAX) \
        | (keys[:, 1] > _FILE_L_MAX)
    if big.any():
        raise SerializationError(
            f"label {tuple(keys[big.argmax()].tolist())} exceeds the rep-file limits "
            f"{'n' if basis == 'slice' else '|k|'} <= {_FILE_K_MAX}, l <= {_FILE_L_MAX}")
    values = np.ascontiguousarray(rows["v"]).view(complex).T  # (channel, label)
    coeffs = _scatter(keys[:, 0], lm, values[:1] if basis == "rod" else values)
    if np.count_nonzero(coeffs.mask) < len(rows):
        raise SerializationError("duplicate label")
    if basis == "slice":
        return SliceRep(coeffs)
    grid = OmegaGrid(d_omega, tuple(coeffs.js.tolist()))
    return RodRep(grid, coeffs) if basis == "rod" else TubeRep(grid, coeffs, basis)


def _first_bad_line(body) -> None:
    """SerializationError naming the first label line, in file order, that
    does not parse, holds a non-finite value or repeats a label."""
    seen = set()
    for ln in body:
        if not ln.strip():
            continue
        try:
            row = _read_rows([ln])[0]
        except ValueError as exc:
            raise SerializationError(f"malformed line: {ln!r}") from exc
        key = tuple(row["klm"].tolist())
        if not np.all(np.isfinite(row["v"])):
            raise SerializationError(f"non-finite coefficient: {ln!r}")
        if key in seen:
            raise SerializationError(f"duplicate label {key}: {ln!r}")
        seen.add(key)

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg import expansions as xp
from adskg.errors import BasisMismatch
from adskg.expansions import OmegaGrid, RodRep, SliceRep, TubeRep, c_to_s, s_to_c
from adskg.geometry import Boost0, make_params
from adskg.harmonics import AngularGrid, lm_count, lm_mirror
from adskg.isometry import boost_generator_apply
from adskg.minkowski import EnergyGrid, MinkSliceRep, MinkTubeRep
from adskg.modes import magic_frequency, norm_constant
from adskg.symplectic import (_mirror_pairing, _same_label_pairing,
                              omega_slice_momentum, omega_slice_quadrature,
                              omega_tube_momentum, omega_tube_quadrature,
                              symplectic_potential)
from radial_reference import per_distinct

ANG = AngularGrid(16, 32)


def _random_slice_rep(rng, n_labels=6):
    coeffs = {}
    while len(coeffs) < n_labels:
        n = int(rng.integers(0, 4))
        l = int(rng.integers(0, 4))
        m = int(rng.integers(-l, l + 1))
        coeffs[(n, l, m)] = (complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
    return SliceRep(coeffs)


def _random_tube_rep(rng, grid, n_labels=6, basis="S"):
    coeffs = {}
    while len(coeffs) < n_labels:
        k = int(rng.choice(grid.indices))
        l = int(rng.integers(0, 3))
        m = int(rng.integers(-l, l + 1))
        coeffs[(k, l, m)] = (complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
    return TubeRep(grid, coeffs, basis)


# --- equal-time structure ---------------------------------------------------------

def test_slice_antisymmetry(params_m0, rng):
    eta = _random_slice_rep(rng)
    assert abs(complex(omega_slice_quadrature(eta, eta, 0.3, params_m0,
                                              64, ANG))) < 1e-12
    assert abs(complex(omega_slice_momentum(eta, eta, params_m0))) < 1e-14


def test_slice_single_label_value(params_m0):
    # eta with phi+ = 1, zeta with conj(phi-) = 1, label (0,0,0):
    # -i omega N = -3i pi/32
    eta = SliceRep({(0, 0, 0): (1.0, 0.0)})
    zeta = SliceRep({(0, 0, 0): (0.0, 1.0)})
    expected = -1j * 3.0 * math.pi / 32.0
    quad = complex(omega_slice_quadrature(eta, zeta, 0.0, params_m0, 64, ANG))
    mom = complex(omega_slice_momentum(eta, zeta, params_m0))
    assert quad == pytest.approx(expected, rel=1e-10)
    assert mom == pytest.approx(expected, rel=1e-14)
    assert abs(expected + 0.29452431127j) < 1e-8


def test_slice_quadrature_vs_momentum(params_m0, rng):
    eta = _random_slice_rep(rng)
    zeta = _random_slice_rep(rng)
    quad = complex(omega_slice_quadrature(eta, zeta, 0.3, params_m0, 96, ANG))
    mom = complex(omega_slice_momentum(eta, zeta, params_m0))
    assert quad == pytest.approx(mom, rel=1e-8)


def test_slice_t0_independence(params_m0, rng):
    eta = _random_slice_rep(rng)
    zeta = _random_slice_rep(rng)
    vals = [complex(omega_slice_quadrature(eta, zeta, t0, params_m0, 96, ANG))
            for t0 in (0.0, 0.37, 1.9)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-9)


def test_slice_bilinearity(params_m0, rng):
    eta = _random_slice_rep(rng, 3)
    zeta = _random_slice_rep(rng, 3)
    al = 0.7 - 1.3j
    scaled = eta.scaled(al)
    assert complex(omega_slice_momentum(scaled, zeta, params_m0)) == \
        pytest.approx(al * complex(omega_slice_momentum(eta, zeta, params_m0)),
                      rel=1e-14)


def test_slice_lagrangian_subspaces(params_m0, rng):
    # two positive-frequency reps pair to zero
    eta = SliceRep({(0, 1, 0): (1.2, 0.0), (2, 2, 1): (0.4j, 0.0)})
    zeta = SliceRep({(0, 1, 0): (0.3, 0.0), (1, 0, 0): (-0.8j, 0.0)})
    assert abs(complex(omega_slice_momentum(eta, zeta, params_m0))) < 1e-14
    # and two negative-frequency reps likewise
    eta = SliceRep({(0, 1, 0): (0.0, 0.9j), (1, 1, -1): (0.0, 0.5)})
    zeta = SliceRep({(0, 1, 0): (0.0, 1.1), (1, 1, -1): (0.0, 0.2j)})
    assert abs(complex(omega_slice_momentum(eta, zeta, params_m0))) < 1e-14


# --- hypercylinder structure ---------------------------------------------------------

GRID = OmegaGrid(0.5, tuple(range(-7, 8)))


def test_tube_antisymmetry(params_m0, rng):
    eta = _random_tube_rep(rng, GRID)
    assert abs(complex(omega_tube_quadrature(eta, eta, 0.9, params_m0, ANG))) < 1e-12
    assert abs(complex(omega_tube_momentum(eta, eta, params_m0))) < 1e-13


@pytest.mark.parametrize("basis", ["S", "C"])
def test_tube_quadrature_vs_momentum(params_m0, rng, basis):
    eta = _random_tube_rep(rng, GRID, 6, basis)
    zeta = _random_tube_rep(rng, GRID, 6, basis)
    quad = complex(omega_tube_quadrature(eta, zeta, 0.8, params_m0, ANG))
    mom = complex(omega_tube_momentum(eta, zeta, params_m0))
    assert quad == pytest.approx(mom, rel=1e-8, abs=1e-10)


def test_tube_pairings_span_labels_held_off_the_grid(params_m0, rng):
    # a boost shifts k by +-1: K eta on the grid -3..3 holds k = +-4, which
    # each rep's own 7-node window aliased onto -+3, so the quadrature read
    # 4.4 relative off the momentum form; one 9-node window holds both reps
    grid = OmegaGrid(1.0, tuple(range(-3, 4)))

    def rep(ks):
        return TubeRep(grid, {(k, l, m): tuple(rng.normal(size=2) @ [1.0, 1j] for _ in "ab")
                              for k in ks for l in (0, 1) for m in range(-l, l + 1)})

    keta, zeta = boost_generator_apply(rep((-3, 0, 3)), Boost0(3), params_m0), rep(grid.indices)
    assert {-4, 4} <= set(keta.coeffs.js.tolist())
    mom = complex(omega_tube_momentum(keta, zeta, params_m0))
    assert abs(mom) > 1.0
    quad = complex(omega_tube_quadrature(keta, zeta, 0.9, params_m0))
    th_zk = symplectic_potential("rho", 0.9, zeta, keta, params_m0)
    th_kz = symplectic_potential("rho", 0.9, keta, zeta, params_m0)
    for value in (quad, -0.5 * (th_zk - th_kz)):
        assert abs(value - mom) < 1e-12 * abs(mom)


def test_tube_rho_independence(params_m0, rng):
    eta = _random_tube_rep(rng, GRID)
    zeta = _random_tube_rep(rng, GRID)
    vals = [complex(omega_tube_quadrature(eta, zeta, rho0, params_m0, ANG))
            for rho0 in (0.5, 0.9, 1.3)]
    scale = max(abs(v) for v in vals)
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-8 * max(scale, 1.0)


def test_tube_bases_agree(params_m0, rng):
    eta = _random_tube_rep(rng, GRID)
    zeta = _random_tube_rep(rng, GRID)
    s_val = complex(omega_tube_momentum(eta, zeta, params_m0))
    c_val = complex(omega_tube_momentum(s_to_c(eta, params_m0),
                                        s_to_c(zeta, params_m0), params_m0))
    assert c_val == pytest.approx(s_val, rel=1e-7, abs=1e-10)


def test_tube_basis_mismatch(params_m0, rng):
    eta = _random_tube_rep(rng, GRID, 3, "S")
    zeta = _random_tube_rep(rng, GRID, 3, "C")
    with pytest.raises(BasisMismatch):
        omega_tube_momentum(eta, zeta, params_m0)


def test_tube_momentum_pairing_structure(params_m0):
    # eta supported at (k,l,m), zeta lacking (-k,l,-m): zero
    eta = TubeRep(GRID, {(3, 1, 0): (1.0, 0.5)}, "S")
    zeta = TubeRep(GRID, {(3, 1, 0): (0.7, 0.1), (2, 1, 0): (0.2, 0.9)}, "S")
    assert complex(omega_tube_momentum(eta, zeta, params_m0)) == 0.0


def test_rod_solutions_null(params_m0):
    # pure-a pairs (rod solutions) have vanishing symplectic structure
    eta = TubeRep(GRID, {(3, 1, 0): (1.2, 0.0), (-3, 1, 0): (0.4j, 0.0),
                         (4, 0, 0): (0.8, 0.0), (-4, 0, 0): (0.2, 0.0)}, "S")
    zeta = TubeRep(GRID, {(3, 1, 0): (0.5j, 0.0), (-3, 1, 0): (0.7, 0.0),
                          (4, 0, 0): (-0.1, 0.0), (-4, 0, 0): (0.3j, 0.0)}, "S")
    assert abs(complex(omega_tube_momentum(eta, zeta, params_m0))) < 1e-14
    assert abs(complex(omega_tube_quadrature(eta, zeta, 0.9, params_m0, ANG))) < 1e-9


def test_rod_pairings_are_their_tube_images(params_m0, rng):
    # a rod is the S-basis tube with b = 0: each pairing and the basis change
    # on rods is the same call on their as_tube() images, bit for bit
    rods = [RodRep(GRID, {key: a for key, (a, _) in _random_tube_rep(
        rng, GRID, 8).coeffs.items()}) for _ in "ab"]
    tube = _random_tube_rep(rng, GRID, 8)
    calls = [partial(omega_tube_momentum, params=params_m0),
             lambda a, b: omega_tube_quadrature(a, b, 0.8, params_m0, ANG),
             lambda a, b: symplectic_potential("rho", 0.8, a, b, params_m0, angular=ANG)]
    for a, b in ((rods[0], rods[1]), (rods[0], tube), (tube, rods[1])):
        images = [x.as_tube() if isinstance(x, RodRep) else x for x in (a, b)]
        for call in calls:
            assert np.array(call(a, b)).tobytes() == np.array(call(*images)).tobytes()
    got, want = s_to_c(rods[0], params_m0), s_to_c(rods[0].as_tube(), params_m0)
    assert (got.grid, got.basis, got.coeffs.l_max) == (want.grid, "C", want.coeffs.l_max)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(
        (got.coeffs.js, got.coeffs.array, got.coeffs.mask),
        (want.coeffs.js, want.coeffs.array, want.coeffs.mask)))
    with pytest.raises(BasisMismatch, match="C-basis"):
        c_to_s(rods[0], params_m0)


def test_slice_solutions_null_in_tube_pairing(params_m0):
    # Jacobi modes are S^a modes: the hypercylinder pairing returns zero
    from adskg.expansions import slice_to_tube
    eta = SliceRep({(0, 1, 0): (0.8, 0.3j), (1, 0, 0): (0.2, 0.6)})
    zeta = SliceRep({(0, 1, 0): (1.1j, 0.4), (1, 0, 0): (0.5, 0.2j)})
    grid = OmegaGrid(1.0, tuple(range(-9, 10)))
    te = slice_to_tube(eta, grid, params_m0)
    tz = slice_to_tube(zeta, grid, params_m0)
    assert abs(complex(omega_tube_momentum(te, tz, params_m0))) < 1e-14
    assert abs(complex(omega_tube_quadrature(te, tz, 0.8, params_m0, ANG))) < 1e-9


# --- the per-label loops the array pairings replaced, kept as references ------------

# Each returns (sum, size), size the sum over labels of |weight| times the
# magnitudes of the two products: a label whose products cancel exactly in
# Python arithmetic (eta = zeta there) can leave a last-bit remainder in
# numpy's, whose complex multiply may fuse a multiply and an add.

def _loop_same_label_pairing(eta, zeta, weight):
    """sum over the sorted labels of eta or zeta of weight(j, l) (conj(eta^-)
    zeta^+ - eta^+ conj(zeta^-)), weight evaluated once per (j, l)."""
    terms, sizes, last = [], [], None
    for j, l, m in sorted(eta.coeffs.keys() | zeta.coeffs.keys()):
        if (j, l) != last:
            last, w = (j, l), weight(j, l)
        (ep, eq), (zp, zq) = eta.coeff(j, l, m), zeta.coeff(j, l, m)
        terms.append(w * (eq * zp - ep * zq))
        sizes.append(abs(w) * (abs(eq * zp) + abs(ep * zq)))
    return np.sum(terms), sum(sizes)


def _loop_mirror_pairing(eta, zeta, weight):
    """sum over eta's sorted labels of weight(k, l) (eta^a zeta^b - eta^b
    zeta^a), zeta at (-k, l, -m), weight evaluated once per (k, l)."""
    terms, sizes, last = [], [], None
    get, absent = zeta.coeffs.get, zeta._absent
    for (k, l, m), (ea, eb) in sorted(eta.coeffs.items()):
        if (k, l) != last:
            last, w = (k, l), weight(k, l)
        za, zb = get((-k, l, -m), absent)
        terms.append(w * (ea * zb - eb * za))
        sizes.append(abs(w) * (abs(ea * zb) + abs(eb * za)))
    return np.sum(terms), sum(sizes)


def _pairing_cases(rng):
    """(array pairing, reference loop, eta, zeta, weight) over AdS and
    Minkowski reps of random labels, each rep with one explicit zero label,
    zeta sharing or mirroring part of eta's labels."""
    def draw(first, n_labels, l_max=3):
        keys = {(first(), l, int(rng.integers(-l, l + 1)))
                for l in rng.integers(0, l_max + 1, size=n_labels).tolist()}
        vals = {key: (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
                for key in keys}
        vals[min(keys)] = (0j, 0j)
        return vals

    k = lambda: int(rng.integers(-6, 7))
    n = lambda: int(rng.integers(0, 5))
    p = lambda: float(rng.choice([0.25, 0.5, 1.5, 3.75]))
    grid, e_grid = OmegaGrid(0.5, tuple(range(-6, 7))), EnergyGrid(0.5, (1,))
    cases = []
    for basis in ("S", "C"):
        eta = draw(k, 40)
        zeta = {**draw(k, 40), **{(-a, l, -m): (complex(rng.normal()), 0.3j)
                                  for a, l, m in list(eta)[::2]}}
        factor = (lambda k, l: 2 * l + 1) if basis == "S" else (lambda k, l: 3.0)
        cases.append((_mirror_pairing, _loop_mirror_pairing, TubeRep(grid, eta, basis),
                       TubeRep(grid, zeta, basis), factor))
    eta = draw(k, 40)
    zeta = {**draw(k, 40), **{(-a, l, -m): (0.7, complex(rng.normal()))
                              for a, l, m in list(eta)[::3]}}
    cases.append((_mirror_pairing, _loop_mirror_pairing, MinkTubeRep(e_grid, eta, 0.3),
                  MinkTubeRep(e_grid, zeta, 0.3),
                  lambda k, l: math.sqrt(abs((0.5 * k) ** 2 - 0.09)) / (16 * math.pi)))
    eta = draw(n, 30)
    cases.append((_same_label_pairing, _loop_same_label_pairing, SliceRep(eta),
                  SliceRep({**draw(n, 30), **dict(list(eta.items())[::2])}),
                  lambda n, l: 1j * (2 * n + l + 3) * math.pi / (n + l + 1)))
    eta = draw(p, 30)
    cases.append((_same_label_pairing, _loop_same_label_pairing, MinkSliceRep(eta, 0.3),
                  MinkSliceRep({**draw(p, 30), **dict(list(eta.items())[::2])}, 0.3),
                  lambda p, l: 1j * math.sqrt(p * p + 0.09)))
    return cases


def test_pairings_equal_the_per_label_loops(rng):
    # within 1e-14 of the terms' size: the same terms summed in the same
    # order, but numpy's complex multiply need not round as Python's does
    for _ in range(5):
        for pairing, loop, eta, zeta, weight in _pairing_cases(rng):
            want, size = loop(eta, zeta, weight)
            per_block = partial(per_distinct, weight)
            got = pairing((type(eta),), eta, zeta, per_block)
            assert size > 0.0 and abs(got - want) <= 1e-14 * size
            # swapped, and against a rep holding no label
            want, size = loop(zeta, eta, weight)
            assert abs(pairing((type(eta),), zeta, eta, per_block) - want) <= 1e-14 * size
            empty = replace(eta, coeffs={})
            assert pairing((type(eta),), empty, zeta, per_block) == 0.0


def test_pairings_weigh_only_held_labels():
    # the weight runs once, on the (j, l) blocks holding a label (explicit
    # zeros included)
    grid = OmegaGrid(1.0, tuple(range(-4, 5)))
    eta = TubeRep(grid, {(1, 2, 0): (1.0, 2.0), (1, 2, 1): (0.0, 0.0), (3, 0, 0): (1j, 0.0)})
    zeta = TubeRep(grid, {(-1, 2, 0): (0.5, 0.25), (2, 1, 1): (1.0, 1.0)})
    calls = []
    weight = lambda k, l: calls.append(sorted(zip(k.tolist(), l.tolist()))) or np.ones(len(k))
    assert _mirror_pairing((TubeRep,), eta, zeta, weight) == 1.0 * 0.25 - 2.0 * 0.5
    assert calls == [[(1, 2), (3, 0)]]
    calls.clear()
    slice_a = SliceRep({(0, 1, 0): (1.0, 0.0), (2, 0, 0): (0.0, 0.0)})
    slice_b = SliceRep({(0, 1, -1): (0.0, 1.0), (1, 2, 0): (1.0, 0.0)})
    assert _same_label_pairing((SliceRep,), slice_a, slice_b, weight) == 0.0
    assert calls == [[(0, 1), (1, 2), (2, 0)]]  # the labels of either rep


# --- the pairings against the framed sums they replaced ----------------------------

def _framed(c, js, l_max, mirror=False):
    """c's (channel, j, lm) array and (j, lm) mask spread over the rows js
    and the degrees up to l_max, zero (False) off c's; mirrored, row -j and
    column (l, -m) hold c's entry at (j, l, m)."""
    array = np.zeros((len(c.array), len(js), lm_count(l_max)), dtype=complex)
    mask = np.zeros(array.shape[1:], dtype=bool)
    rows = np.searchsorted(js, -c.js if mirror else c.js)[:, None]
    lm = lm_mirror(c.l_max) if mirror else np.arange(c.mask.shape[1])
    array[:, rows, lm], mask[rows, lm] = c.array, c.mask
    return array, mask


def _framed_same_label_pairing(eta, zeta, weight):
    """The oracle of `_same_label_pairing`: both reps framed on the union of
    their rows and degrees, summed over the labels either holds."""
    js = np.union1d(eta.coeffs.js, zeta.coeffs.js)
    l_max = max(eta.coeffs.l_max, zeta.coeffs.l_max)
    (ep, eq), e_mask = _framed(eta.coeffs, js, l_max)
    (zp, zq), z_mask = _framed(zeta.coeffs, js, l_max)
    held = e_mask | z_mask
    return np.sum((xp._table(js, held, weight) * (eq * zp - ep * zq))[held])


def _framed_mirror_pairing(eta, zeta, weight):
    """The oracle of `_mirror_pairing`: zeta framed mirrored on eta's frame."""
    js = np.union1d(eta.coeffs.js, -zeta.coeffs.js)
    l_max = max(eta.coeffs.l_max, zeta.coeffs.l_max)
    (ea, eb), held = _framed(eta.coeffs, js, l_max)
    (za, zb), _ = _framed(zeta.coeffs, js, l_max, mirror=True)
    return np.sum((xp._table(js, held, weight) * (ea * zb - eb * za))[held])


_P = make_params(3, 1.0, -0.7)
_PAIRING_KINDS = {
    # first label, the mirror of a label, the rep, the pairing and its weight
    "slice": (st.integers(0, 4), lambda j, l, m: (j, l, -m), SliceRep, _same_label_pairing,
              lambda n, l: 1j * magic_frequency("plus", n, l, _P)
              * norm_constant("plus", n, l, _P)),
    "mink_slice": (st.sampled_from([0.25, 0.5, 1.5, 3.75]), lambda j, l, m: (j, l, -m),
                   lambda c: MinkSliceRep(c, 0.3), _same_label_pairing,
                   lambda p, l: 1j * np.sqrt(p * p + 0.09)),
    "tube": (st.integers(-5, 5), lambda j, l, m: (-j, l, -m),
             lambda c: TubeRep(OmegaGrid(0.5, (1,)), c, "S"), _mirror_pairing,
             lambda k, l: np.where(True, 2 * l + 1, 3.0)),
    "rod": (st.integers(-5, 5), lambda j, l, m: (-j, l, -m),
            lambda c: RodRep(OmegaGrid(0.5, (1,)), {k: a for k, (a, _) in c.items()}).as_tube(),
            _mirror_pairing, lambda k, l: np.where(False, 2 * l + 1, 3.0)),
    "mink_tube": (st.integers(-5, 5), lambda j, l, m: (-j, l, -m),
                  lambda c: MinkTubeRep(EnergyGrid(0.5, (1,)), c, 0.3), _mirror_pairing,
                  lambda k, l: np.sqrt(np.abs((0.5 * k) ** 2 - 0.09)) / (16.0 * math.pi)),
}
_PAIR_VALUE = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), -1.5, 0.25j,
                               1e150 - 2j]) | st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("kind", sorted(_PAIRING_KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairings_are_the_framed_sums_bit_for_bit(kind, data):
    # labels held by one rep or both, mirrored ones, explicit zeros, and
    # -0.0 in and off the labels of a rep scaled by -1
    first, mirror, make, pairing, weight = _PAIRING_KINDS[kind]
    label = st.tuples(first, st.integers(0, 3)).flatmap(
        lambda jl: st.tuples(st.just(jl[0]), st.just(jl[1]), st.integers(-jl[1], jl[1])))
    value = st.tuples(_PAIR_VALUE, _PAIR_VALUE)
    eta = data.draw(st.dictionaries(label, value, max_size=12))
    zeta = data.draw(st.dictionaries(label, value, max_size=12))
    for key in eta:
        for other in data.draw(st.sets(st.sampled_from([key, mirror(*key)]))):
            zeta[other] = data.draw(value)
    reps = [make(c) for c in (eta, zeta)]
    reps = [rep._with(-rep.coeffs.array) if data.draw(st.booleans()) else rep for rep in reps]
    oracle = {_same_label_pairing: _framed_same_label_pairing,
              _mirror_pairing: _framed_mirror_pairing}[pairing]
    for e, z in (reps, reps[::-1]):
        got, want = pairing((type(e),), e, z, weight), oracle(e, z, weight)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_pairings_are_the_framed_sums_on_larger_reps(rng):
    # 30-40 labels per rep, shared, mirrored and explicit zero ones: the
    # summation order shows in the last bits
    for _ in range(3):
        for pairing, _, eta, zeta, weight in _pairing_cases(rng):
            oracle = {_same_label_pairing: _framed_same_label_pairing,
                      _mirror_pairing: _framed_mirror_pairing}[pairing]
            per_block = partial(per_distinct, weight)
            for e, z in ((eta, zeta), (zeta, eta)):
                assert np.asarray(pairing((type(e),), e, z, per_block)).tobytes() \
                    == np.asarray(oracle(e, z, per_block)).tobytes()


@pytest.mark.parametrize("basis", ["S", "C"])
def test_tube_momentum_is_the_per_label_loop(params_m0, rng, basis):
    grid = OmegaGrid(0.5, tuple(range(-6, 7)))
    eta, zeta = (_random_tube_rep(rng, grid, 40, basis) for _ in range(2))
    zeta = TubeRep(grid, {**zeta.coeffs, **{(-k, l, -m): (complex(rng.normal()), 0.3j)
                                            for k, l, m in eta.labels()[::2]}}, basis)
    d, nu = params_m0.d, params_m0.nu
    total, size = _loop_mirror_pairing(eta, zeta, lambda k, l: (
        (2 * l + d - 2) if basis == "S" else 2.0 * nu))
    scale = math.pi * params_m0.R ** (d - 1) * grid.d_omega
    got = complex(omega_tube_momentum(eta, zeta, params_m0))
    assert abs(got - scale * total) <= 1e-14 * scale * size


def test_slice_momentum_is_the_per_label_loop(params_m0, rng):
    eta, zeta = _random_slice_rep(rng, 30), _random_slice_rep(rng, 30)
    rd = params_m0.R ** (params_m0.d - 1)
    total, size = _loop_same_label_pairing(eta, zeta, lambda n, l: (
        1j * magic_frequency("plus", n, l, params_m0) * rd
        * norm_constant("plus", n, l, params_m0)))
    got = complex(omega_slice_momentum(eta, zeta, params_m0))
    assert abs(got - total) <= 1e-14 * size


@pytest.mark.parametrize("R, msq", [(1.0, 0.0), (1.3, 0.7), (0.8, -0.9)])
def test_slice_momentum_weights_are_the_per_label_weights(rng, R, msq):
    # one array call over the (n, l) blocks pairs bit for bit as one scalar
    # magic_frequency * norm_constant call per (n, l) does
    params = make_params(3, R, msq)
    eta, zeta = _random_slice_rep(rng, 40), _random_slice_rep(rng, 40)
    rd = params.R ** (params.d - 1)
    per_label = partial(per_distinct, lambda n, l: (
        1j * magic_frequency("plus", n, l, params) * rd
        * norm_constant("plus", n, l, params)))
    want = complex(_same_label_pairing((SliceRep,), eta, zeta, per_label))
    assert complex(omega_slice_momentum(eta, zeta, params)) == want


# --- symplectic potential -------------------------------------------------------------

def test_potential_antisymmetrization_slice(params_m0, rng):
    eta = _random_slice_rep(rng, 4)
    zeta = _random_slice_rep(rng, 4)
    t0 = 0.4
    th_ze = symplectic_potential("t", t0, zeta, eta, params_m0, 96, ANG)
    th_ez = symplectic_potential("t", t0, eta, zeta, params_m0, 96, ANG)
    target = complex(omega_slice_momentum(eta, zeta, params_m0))
    assert -0.5 * (th_ze - th_ez) == pytest.approx(target, rel=1e-8)


def test_potential_antisymmetrization_tube(params_m0, rng):
    eta = _random_tube_rep(rng, GRID, 4)
    zeta = _random_tube_rep(rng, GRID, 4)
    th_ze = symplectic_potential("rho", 0.8, zeta, eta, params_m0, angular=ANG)
    th_ez = symplectic_potential("rho", 0.8, eta, zeta, params_m0, angular=ANG)
    target = complex(omega_tube_momentum(eta, zeta, params_m0))
    assert -0.5 * (th_ze - th_ez) == pytest.approx(target, rel=1e-8)


def test_potential_needs_a_shared_frequency_grid(params_m0, rng):
    # another spacing samples phi at other times, another index span at
    # another number of them: both are refused, as by omega_tube_quadrature
    eta = _random_tube_rep(rng, GRID, 4)
    for grid in (OmegaGrid(1.0, GRID.indices), OmegaGrid(0.5, range(-3, 4))):
        phi = _random_tube_rep(rng, grid, 4)
        for a, b in ((phi, eta), (eta, phi)):
            with pytest.raises(BasisMismatch):
                symplectic_potential("rho", 0.8, a, b, params_m0, angular=ANG)
            with pytest.raises(BasisMismatch):
                omega_tube_quadrature(a, b, 0.8, params_m0, ANG)


def test_potential_zero_probe(params_m0, rng):
    eta = _random_slice_rep(rng, 3)
    zero = SliceRep({})
    assert symplectic_potential("t", 0.0, eta, zero, params_m0, 64, ANG) == 0.0


def test_potential_rod_antisymmetrized_difference(params_m0):
    # for rod-type (pure-a) pairs the antisymmetrized potential vanishes at
    # every radius (single-boundary region), so its radius difference does too
    eta = TubeRep(GRID, {(3, 1, 0): (1.2, 0.0), (-3, 1, 0): (0.4j, 0.0)}, "S")
    zeta = TubeRep(GRID, {(3, 1, 0): (0.5j, 0.0), (-3, 1, 0): (0.7, 0.0)}, "S")
    vals = []
    for rho0 in (0.6, 1.0):
        th_ze = symplectic_potential("rho", rho0, zeta, eta, params_m0, angular=ANG)
        th_ez = symplectic_potential("rho", rho0, eta, zeta, params_m0, angular=ANG)
        vals.append(-0.5 * (th_ze - th_ez))
    assert abs(vals[0]) < 1e-9
    assert abs(vals[1] - vals[0]) < 1e-9

"""Each sum forms only the fields its caller reads.  `_tube_sum` takes its
rows from the radial function it is given, so a rod's sample, a rod's
boundary data and the tube potential synthesize one field per time node and
rep, with the bits of the two-row sums they replaced.  Every table function
the sums call gives its leading shape on an empty (j, l) block list, so a rep
holding nothing in a channel, or nothing at all, takes the same path as any
other."""

import math

import numpy as np
import pytest

from adskg import expansions as xp
from adskg import minkowski as mk
from adskg import symplectic as sy
from adskg.errors import DomainError
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, _angular_rule, _s_or_c,
                              _tube_sum, _window, boundary_data_of, c_to_s, invert_rod_interior,
                              invert_slice, invert_tube, rod_boundary_data_of,
                              rod_boundary_reconstruct, s_to_c, sample_rod, sample_slice,
                              sample_tube, slice_to_tube, synth, synth_drho, synth_dt)
from adskg.geometry import make_params
from adskg.harmonics import AngularGrid
from adskg.minkowski import (MinkTubeRep, _mink_tube_sum, mink_omega_tube_quadrature,
                             mink_synth_tube, mink_synth_tube_dr)
from adskg.modes import _transfer_entries, norm_constant
from adskg.symplectic import omega_tube_momentum, omega_tube_quadrature, symplectic_potential

PARAMS = [make_params(3, 1.0, 0.0), make_params(3, 1.0, -2.2)]
P = PARAMS[0]
RHO0 = 0.83
# one time node (k = 0 only) makes a one-row sum a single-field
# `AngularGrid.synthesize`, one (theta, m) matmul where two rows are batched
# over theta; a wider window makes every sum several fields
GRIDS = [OmegaGrid(0.5, (0,)), OmegaGrid(0.45, tuple(range(-2, 3))),
         OmegaGrid(0.3, tuple(range(-4, 5)))]
ANGULARS = [None, AngularGrid(16, 32)]
POINTS = [(0.3, 0.7, 1.1, 2.0), (0.0, 1.3, 0.2, 5.0)]
NO_J, NO_L = np.zeros(0), np.zeros(0, dtype=int)


def _value(rng) -> complex:
    return complex(*rng.normal(size=2))


def _labels(grid, l_max):
    return [(k, l, m) for k in grid.indices for l in range(l_max + 1) for m in range(-l, l + 1)]


def _reps(rng, grid, l_max, params) -> dict:
    """A rod, an S tube and the S tube's C twin, each holding every label of
    the grid up to l_max."""
    labels = _labels(grid, l_max)
    rod = RodRep(grid, {label: _value(rng) for label in labels})
    s = TubeRep(grid, {label: (_value(rng), _value(rng)) for label in labels}, "S")
    return {"rod": rod, "S": s, "C": s_to_c(s, params)}


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _cases(rng):
    for grid in GRIDS:
        for l_max in (0, 3):
            for params in PARAMS:
                yield grid, params, _reps(rng, grid, l_max, params)


# --- the bits of the two-row sums ------------------------------------------------------

def test_sample_rod_is_the_field_of_sample_tube_bit_for_bit(rng):
    for _, params, reps in _cases(rng):
        for ang in ANGULARS:
            for name, rep in reps.items():
                got = sample_rod(rep, RHO0, params, ang)
                wants = [sample_tube(rep, RHO0, params, ang)]
                if name == "rod":
                    wants.append(sample_tube(rep.as_tube(), RHO0, params, ang))
                for want in wants:
                    assert _bits(got.phi) == _bits(want.phi), name
                    assert _bits(got.t_nodes) == _bits(want.t_nodes)
                    assert (got.angular.n_theta, got.angular.n_phi) == (
                        want.angular.n_theta, want.angular.n_phi)


def test_rod_boundary_data_is_the_sum_with_a_zero_second_row_bit_for_bit(rng):
    for _, params, reps in _cases(rng):
        rod = reps["rod"]

        def two_rows(chs, om, l, params=params):  # m12 and an explicit zero row
            m12 = _transfer_entries(om, l, params, False)[1]
            return np.stack([m12, np.zeros_like(m12)])[None]

        for ang in ANGULARS:
            got = rod_boundary_data_of(rod, params, ang)
            rule = ang or _angular_rule(rod.coeffs.l_max)
            want = _tube_sum(rod, _window(rod), rule, two_rows)[0]
            assert _bits(got.phi) == _bits(want)


def _four_field_potential(coord, phi, eta, params, ang):
    """The tube potential from the (f, f') sums of both reps."""
    t_nodes = _window(eta, phi)
    (f_eta, _), (_, df_phi) = (_tube_sum(rep, t_nodes, ang, _s_or_c(rep.basis, coord, params))
                               for rep in (eta, phi))
    angular_sum = ang.integrate(np.multiply(f_eta, df_phi, out=f_eta))
    rd, tan_fac = params.R ** (params.d - 1), math.tan(coord) ** (params.d - 1)
    dt = eta.grid.window / len(t_nodes)
    return -rd * tan_fac * dt * np.sum(angular_sum)


def test_tube_potential_is_the_four_field_form_bit_for_bit(rng):
    for _, params, reps in _cases(rng):
        for phi, eta in (("S", "S"), ("rod", "S"), ("S", "rod"), ("C", "C"), ("rod", "rod")):
            phi, eta = reps[phi], reps[eta]
            for ang in ANGULARS:
                rule = _angular_rule(max(phi.coeffs.l_max, eta.coeffs.l_max), ang)
                got = symplectic_potential("rho", 0.91, phi, eta, params, angular=ang)
                assert _bits(got) == _bits(_four_field_potential(0.91, phi, eta, params, rule))


def test_mink_tube_synthesis_reads_its_row_of_one_point_sum_bit_for_bit(rng):
    for grid in GRIDS:
        for l_max in (0, 3):
            rep = MinkTubeRep(grid, {label: (_value(rng), _value(rng))
                                     for label in _labels(grid, l_max)}, 0.4)
            for t, r, theta, phi in POINTS:
                rows = _mink_tube_sum(rep, t, (theta, phi), r)
                assert rows.shape == (2, 2, 1)  # (f, d/dr) x (field, d/dt) x t
                assert _bits(mink_synth_tube(rep, (t, r, theta, phi))) == _bits(rows[0, 0, 0])
                assert _bits(mink_synth_tube_dr(rep, (t, r, theta, phi))) == _bits(rows[1, 0, 0])


# --- one field per row ---------------------------------------------------------------

def test_rod_sums_and_the_tube_potential_synthesize_only_the_fields_they_read(
        rng, monkeypatch):
    synthesize, fields = AngularGrid.synthesize, []
    monkeypatch.setattr(AngularGrid, "synthesize", lambda self, coef: (
        fields.append(math.prod(coef.shape[:-1])) or synthesize(self, coef)))
    reps = _reps(rng, GRIDS[2], 3, P)
    n_t = len(_window(reps["rod"]))
    for call, want in ((lambda: sample_rod(reps["rod"], RHO0, P), [n_t]),
                       (lambda: sample_rod(reps["S"], RHO0, P), [n_t]),
                       (lambda: rod_boundary_data_of(reps["rod"], P), [n_t]),
                       (lambda: symplectic_potential("rho", RHO0, reps["S"], reps["rod"], P),
                        [n_t, n_t]),
                       (lambda: sample_tube(reps["rod"], RHO0, P), [2 * n_t]),
                       (lambda: omega_tube_quadrature(reps["S"], reps["rod"], RHO0, P),
                        [2 * n_t, 2 * n_t])):
        fields.clear()
        call()
        assert fields == want


def test_each_tube_entry_point_applies_the_rep_rule_once(rng, monkeypatch):
    rule, calls = xp._require, []

    def counted(classes, *reps):
        calls.append(classes)
        return rule(classes, *reps)

    for module in (xp, sy, mk):
        monkeypatch.setattr(module, "_require", counted)
    reps = _reps(rng, GRIDS[1], 2, P)
    mink = MinkTubeRep(GRIDS[1], {(1, 1, 0): (0.3, 0.2j), (-2, 0, 0): (0.1, 0.5)}, 0.4)
    for call in (lambda: sample_tube(reps["S"], RHO0, P),
                 lambda: sample_rod(reps["rod"], RHO0, P),
                 lambda: boundary_data_of(reps["C"], P),
                 lambda: rod_boundary_data_of(reps["rod"], P),
                 lambda: omega_tube_quadrature(reps["S"], reps["rod"], RHO0, P),
                 lambda: omega_tube_momentum(reps["S"], reps["rod"], P),
                 lambda: symplectic_potential("rho", RHO0, reps["S"], reps["rod"], P),
                 lambda: mink_synth_tube(mink, POINTS[0]),
                 lambda: mink_synth_tube_dr(mink, POINTS[0]),
                 lambda: mink_omega_tube_quadrature(mink, mink, 0.8)):
        calls.clear()
        call()
        assert len(calls) == 1


# --- no blocks ----------------------------------------------------------------------

def test_table_functions_give_their_leading_shape_on_no_blocks():
    rho = np.linspace(0.1, 1.4, 5)
    for params in PARAMS:
        for basis in "SC":
            for chs in ((0,), (1,), (0, 1)):
                assert _s_or_c(basis, RHO0, params)(chs, NO_J, NO_L).shape == (len(chs), 2, 0)
        for inverse in (False, True):
            assert _transfer_entries(NO_J, NO_L, params, inverse).shape == (4, 0)
        frequency, radial = xp._jacobi(rho, params)
        assert frequency(NO_L, NO_L).shape == (0,)
        assert radial(NO_L, NO_L).shape == (5, 0)
        assert np.shape(xp._jacobi(rho, params, True)[1](NO_L, NO_L)) == (2, 5, 0)
        assert np.shape(norm_constant("plus", NO_L, NO_L, params)) == (0,)
    assert mk._check("JN", NO_J, NO_L, 0.7, 0.4, True).shape == (2, 0)


def test_every_table_function_gives_its_leading_shape_on_no_blocks(rng, monkeypatch):
    # each function `_degree_table` calls is called again on none of its
    # blocks: the leading shape is the same, the block axis empty (or 1 for
    # a constant that broadcasts)
    degree_table, seen = xp._degree_table, []

    def checked(js, coef, fn, blocks=None):
        def twice(j, l):
            full, empty = (np.asarray(fn(j[part], l[part])) for part in (slice(None), slice(0)))
            assert empty.shape[:-1] == full.shape[:-1] and empty.shape[-1] in (0, 1)
            seen.append(full.shape)
            return full
        return degree_table(js, coef, twice, blocks)

    monkeypatch.setattr(xp, "_degree_table", checked)
    for params in PARAMS:
        reps = _reps(rng, GRIDS[1], 2, params)
        rod, s, c = reps["rod"], reps["S"], reps["C"]
        sl = SliceRep({(n, l, 0): (_value(rng), _value(rng)) for n in range(2) for l in range(3)})
        mink = MinkTubeRep(GRIDS[1], {(1, 1, 0): (0.3, 0.2j), (-2, 0, 0): (0.1, 0.5)}, 0.4)
        calls = [lambda: sample_tube(rod.as_tube(), RHO0, params),
                 lambda: sample_rod(s, RHO0, params),
                 lambda: sample_tube(c, RHO0, params),
                 lambda: s_to_c(rod, params), lambda: c_to_s(c, params),
                 lambda: boundary_data_of(c, params),
                 lambda: rod_boundary_reconstruct(rod_boundary_data_of(rod, params), params, 2),
                 lambda: invert_rod_interior(sample_rod(rod, RHO0, params), params, 2),
                 lambda: invert_tube(sample_tube(s, RHO0, params), params, 2),
                 lambda: invert_slice(sample_slice(sl, 0.4, params), params, 1, 2),
                 lambda: mink_omega_tube_quadrature(mink, mink, 0.8)]
        for call in calls:
            seen.clear()
            call()
            assert seen


def test_a_channel_holding_nothing_adds_nothing(rng):
    # RodRep.as_tube() and slice_to_tube hold no b: each samples,
    # synthesizes and inverts to the bits of the rod of its a channel
    grid = OmegaGrid(1.0, tuple(range(-8, 9)))
    sl = SliceRep({(n, l, m): (_value(rng), _value(rng))
                   for n in range(2) for l in range(3) for m in range(-l, l + 1)})
    from_slice = slice_to_tube(sl, grid, P)
    rod = RodRep(grid, {label: _value(rng) for label in _labels(GRIDS[2], 2)})
    for tube, a_rod in ((rod.as_tube(), rod), (from_slice, RodRep(grid, {
            label: a for label, (a, b) in from_slice.coeffs.items()}))):
        assert not np.any(tube.coeffs.array[1])
        got, want = sample_tube(tube, RHO0, P), sample_tube(a_rod, RHO0, P)
        assert _bits(got.phi) == _bits(want.phi)
        assert _bits(got.dphi_drho) == _bits(want.dphi_drho)
        assert _bits(invert_tube(got, P, 2).coeffs.array) == _bits(
            invert_tube(want, P, 2).coeffs.array)
        for point in POINTS:
            for fn in (synth, synth_dt, synth_drho):
                assert _bits(fn(tube, point, P)) == _bits(fn(a_rod, point, P))


@pytest.mark.parametrize("rep", [SliceRep({}), SliceRep({(0, 1, 0): (0.0, 0.0)}),
                                 TubeRep(OmegaGrid(0.5, (0, 1)), {}),
                                 TubeRep(OmegaGrid(0.5, (0, 1)), {(1, 1, 0): (0.0, 0.0)}),
                                 RodRep(OmegaGrid(0.5, (0, 1)), {})],
                         ids=["slice", "slice_zero", "tube", "tube_zero", "rod"])
def test_a_rep_holding_nothing_samples_synthesizes_and_inverts_to_zeros(rep):
    for fn in (synth, synth_dt, synth_drho):
        assert _bits(fn(rep, POINTS[0], P)) == _bits(0j)
        with pytest.raises(DomainError, match="theta"):  # the Y row is still formed
            fn(rep, (0.3, 0.7, 4.0, 2.0), P)
    l_max = rep.coeffs.l_max
    if isinstance(rep, SliceRep):
        data = sample_slice(rep, 0.4, P)
        assert data.phi.shape == data.dphi_dt.shape == (l_max // 2 + 1, l_max + 1, 2 * l_max + 1)
        assert not np.any(data.phi) and not np.any(data.dphi_dt)
        data = sample_slice(rep, 0.4, P, 5, AngularGrid(4, 8))
        assert data.phi.shape == (5, 4, 8) and not np.any(data.phi)
        back = invert_slice(data, P, 1, 2)
        assert back.coeffs.array.shape == (2, 2, 9) and not np.any(back.coeffs.array)
        return
    data = sample_tube(rep, 0.7, P)
    shape = (3, l_max + 1, 2 * l_max + 1)  # 2 max|k| + 1 time nodes
    assert data.phi.shape == data.dphi_drho.shape == sample_rod(rep, 0.7, P).phi.shape == shape
    assert not np.any(data.phi) and not np.any(data.dphi_drho)
    assert not np.any(sample_rod(rep, 0.7, P).phi)
    back = invert_tube(sample_tube(rep, 0.7, P, AngularGrid(4, 8)), P, 1)
    assert back.coeffs.array.shape == (2, 2, 4) and not np.any(back.coeffs.array)
    assert symplectic_potential("rho", 0.7, rep, rep, P) == 0
    assert omega_tube_quadrature(rep, rep, 0.7, P) == 0
    if isinstance(rep, RodRep):
        assert not np.any(rod_boundary_data_of(rep, P).phi)
    else:
        bd = boundary_data_of(s_to_c(rep, P), P)
        assert bd.phid_minus.shape == shape and not np.any(bd.phid_minus)
        assert not np.any(bd.phid_plus)

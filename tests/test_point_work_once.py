"""Pointwise synthesis does each point's work once: the three values of a
rep's last point are kept on the rep, and a radial build of both kinds of
one basis stores the other basis's tables wherever the transfer matrix
forms them from its series."""

import math
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg import expansions as xp
from adskg import modes
from adskg.errors import CapabilityError, SingularPoint
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, s_to_c, synth,
                              synth_drho, synth_dt)
from adskg.geometry import make_params
from adskg.memo import counters, key
from adskg.modes import RadialKind, radial_eval_fd

_FNS = (synth, synth_dt, synth_drho)
_S, _C = (RadialKind.Sa, RadialKind.Sb), (RadialKind.Ca, RadialKind.Cb)


def _outcome(fn, *args):
    """The bits of fn's complex result, or its exception's type and text."""
    try:
        return np.array(fn(*args)).tobytes()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _reps(rng, params, l_top=4, size=12):
    """An S rep, its C image, a rod and a slice rep on random labels, some
    coefficients exactly zero."""
    grid = OmegaGrid(float(rng.uniform(0.3, 0.9)), tuple(range(-12, 13)))
    keys = {(int(rng.integers(-12, 13)), l, int(rng.integers(-l, l + 1)))
            for l in rng.integers(0, l_top + 1, size=size).tolist()}

    def value():
        return 0j if rng.random() < 0.2 else complex(*rng.normal(size=2))

    srep = TubeRep(grid, {key: (value(), value()) for key in keys}, "S")
    return [srep, s_to_c(srep, params), RodRep(grid, {key: value() for key in keys}),
            SliceRep({(abs(k) % 5, l, m): (value(), value()) for k, l, m in keys})]


def _count_evaluations(monkeypatch) -> list:
    """The names of the point sums run from here on."""
    calls = []
    for name in ("_tube_sum", "_slice_sum"):
        monkeypatch.setattr(xp, name, lambda *args, name=name, fn=getattr(xp, name): (
            calls.append(name) or fn(*args)))
    return calls


# --- one evaluation per rep and point ----------------------------------------------

@pytest.mark.parametrize("msq", [0.0, -2.2])
def test_every_call_order_gives_the_bits_of_a_fresh_rep(msq, rng):
    # each call against the same call on a new rep object, which holds no
    # point values; the axis point raises for S^b and the C-modes
    params = make_params(3, 1.0, msq)
    points = [(0.7, 1.1, 1.2, 2.3), (0.0, 0.35, 2.9, -0.0), (0.0, 0.35, 2.9, 0.0),
              (1.3, 1.45, 1.7, 5.5), (0.2, 0.0, 1.0, 0.3)]
    orders = list(permutations(range(3))) + [(0, 0, 2, 2, 1, 1), (2, 0, 2, 1)]
    for rep in _reps(rng, params):
        for order in orders:
            for point in points:
                for i in order:
                    assert _outcome(_FNS[i], rep, point, params) \
                        == _outcome(_FNS[i], replace(rep), point, params), \
                        (type(rep).__name__, order, point, i)


@pytest.mark.parametrize("form", [0, 1, 2, 3])  # S, C, rod, slice
def test_the_other_two_values_at_a_point_do_no_work(params_m0, monkeypatch, rng, form):
    rep = _reps(rng, params_m0)[form]
    calls = _count_evaluations(monkeypatch)
    point = (0.4, 1.2, 1.1, 2.3)
    values = [fn(rep, point, params_m0) for fn in _FNS]
    assert len(calls) == 1
    assert [fn(rep, point, params_m0) for fn in reversed(_FNS)] == values[::-1]
    assert len(calls) == 1


def test_a_new_point_signed_zero_params_or_rep_each_recompute(params_m0, monkeypatch, rng):
    rep = _reps(rng, params_m0)[0]
    calls = _count_evaluations(monkeypatch)
    point = (0.4, 1.2, 1.1, 0.0)
    for i, (args, fresh) in enumerate([
            ((rep, point, params_m0), True),
            ((rep, point, params_m0), False),
            ((rep, (0.5, 1.2, 1.1, 0.0), params_m0), True),      # a new point
            ((rep, (0.4, 1.2, 1.1, -0.0), params_m0), True),     # -0.0 against 0.0
            ((rep, (0.4, 1.2, 1.1, -0.0), params_m0), False),
            ((rep, point, params_m0), True),                      # only the last point is kept
            ((rep, point, make_params(3, 1.0, -2.2)), True),      # other params
            ((rep, point, params_m0), True)]):
        before = len(calls)
        synth_dt(*args)
        assert len(calls) == before + fresh, i
    # reps sharing the one stored _Coeffs (and its block plan) keep their own values
    views = [replace(rep, basis="C"), TubeRep(OmegaGrid(0.7, rep.grid.indices), rep.coeffs)]
    assert all(view.coeffs is rep.coeffs for view in views)
    for view in views:
        before = len(calls)
        got = [fn(view, point, params_m0) for fn in _FNS]
        assert len(calls) == before + 1
        assert np.array(got).tobytes() == np.array(
            [fn(replace(view), point, params_m0) for fn in _FNS]).tobytes()
        assert got != [fn(rep, point, params_m0) for fn in _FNS]


# --- one radial build for both bases outside the middle band ------------------------

_RHO = st.sampled_from([0.05, 0.3, math.pi / 6 - 1e-9, math.pi / 6 + 1e-9, 0.8,
                        math.pi / 3 - 1e-9, math.pi / 3 + 1e-9, 1.2, 1.5])


@given(basis=st.sampled_from([_S, _C, _S[::-1], _C[::-1], _S[:1], _C[1:]]),
       msq=st.sampled_from([0.0, -2.0, 0.37]),
       points=st.lists(st.tuples(st.floats(-12.0, 12.0) | st.integers(-6, 6).map(float),
                                 st.integers(0, 7), _RHO), min_size=1, max_size=12),
       scalar_rho=st.booleans())
@settings(max_examples=120, deadline=None)
def test_every_table_of_a_build_is_a_cold_build_of_its_kind(basis, msq, points,
                                                            scalar_rho):
    # integer omega meets terminating series; rho one value (scalar or
    # spread) or one per point
    params = make_params(3, 1.0, msq)
    omega, l, rho = (np.array(col) for col in zip(*points))
    rho = np.float64(rho[0]) if scalar_rho else rho
    built = modes._radial_eval_fd_array(basis, omega, l, rho, params)
    assert set(basis) <= set(built) and len(built) in (len(basis), len(basis) + 2)
    modes._radial_table.memo.clear()
    radial_eval_fd(basis, omega, l, rho, params)
    for kind in built:
        cold = modes._radial_eval_fd_array((kind,), omega, l, rho, params)[kind]
        assert np.array(built[kind]).tobytes() == np.array(cold).tobytes(), kind
        stored = modes._radial_table.memo.peek(key(kind) + key(
            omega, l, np.asarray(rho), params))
        assert np.array(stored).tobytes() == np.array(cold).tobytes(), kind


def test_an_s_build_below_pi_6_stores_c_and_the_c_synthesis_builds_nothing(params_m0):
    grid = OmegaGrid(0.55, (-3, 1, 4))
    srep = TubeRep(grid, {(k, l, m): (0.3 + 0.1j * k, 0.2 - 0.05 * l) for k in grid.indices
                          for l in range(3) for m in (-l, l)}, "S")
    crep = s_to_c(srep, params_m0)
    modes._radial_table.memo.clear()
    point = (0.4, 0.3, 1.1, 2.3)
    synth(srep, point, params_m0)
    assert modes._radial_table.memo.counts()["size"] == 4
    misses = counters("radial_table")["radial_table"]["misses"]
    got = [fn(crep, point, params_m0) for fn in _FNS]
    assert counters("radial_table")["radial_table"]["misses"] == misses
    assert np.array(got).tobytes() == np.array(
        [fn(replace(crep), point, params_m0) for fn in _FNS]).tobytes()


@pytest.mark.parametrize("basis", [_S, _C])
@pytest.mark.parametrize("rho", [0.3, 0.8, 1.2])
def test_no_other_basis_in_the_middle_band_or_at_integer_nu(basis, rho):
    # the tables stored by one build of the pair, at nu = 3/2 and at nu = 1
    omega, l = np.linspace(-5.3, 6.1, 9), np.arange(9) % 4
    memo = modes._radial_table.memo
    memo.clear()
    radial_eval_fd(basis, omega, l, rho, make_params(3, 1.0, 0.0))
    assert memo.counts()["size"] == (2 if rho == 0.8 else 4)
    memo.clear()
    nu_1 = make_params(3, 1.0, -1.25)
    if basis == _S and rho < math.pi / 3:  # S alone, direct; no C-modes to store
        radial_eval_fd(basis, omega, l, rho, nu_1)
        assert memo.counts()["size"] == 2
    else:
        with pytest.raises(CapabilityError):
            radial_eval_fd(basis, omega, l, rho, nu_1)


def test_no_other_basis_on_the_axis(params_m0):
    # S^a alone may sit on the axis and takes no other basis; the pairs raise there
    omega, l = np.linspace(-5.3, 6.1, 6), np.arange(6) % 3
    rho = np.array([0.0, 0.3, 0.3, 0.0, 0.3, 0.3])
    assert set(modes._radial_eval_fd_array(_S[:1], omega, l, rho, params_m0)) == {_S[0]}
    for basis in (_S, _C):
        with pytest.raises(SingularPoint):
            modes._radial_eval_fd_array(basis, omega, l, rho, params_m0)


def test_an_other_basis_table_that_is_not_finite_is_dropped(params_m0, monkeypatch):
    # M^-1 overflowing where the S tables are finite: the C tables are not
    # stored and no error names them
    omega, l = np.linspace(-5.3, 6.1, 6), np.arange(6) % 3
    transfer = modes._transfer_entries
    monkeypatch.setattr(modes, "_transfer_entries", lambda *args: transfer(*args) * np.inf)
    built = modes._radial_eval_fd_array(_S, omega, l, np.float64(0.3), params_m0)
    assert set(built) == set(_S)
    monkeypatch.undo()
    assert set(modes._radial_eval_fd_array(_S, omega, l, np.float64(0.3), params_m0)) \
        == set(_S + _C)

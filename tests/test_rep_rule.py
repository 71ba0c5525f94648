"""One rule for what a rep is: every public entry point that takes reps
takes the rep classes `expansions._require` names for it and raises
BasisMismatch on any other, never a number it has no meaning for and never
an AttributeError or the like from reading a field the rep lacks."""

import io
from itertools import product

import numpy as np
import pytest

from adskg.errors import BasisMismatch, SerializationError
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, _Coeffs, boundary_data_of,
                              c_to_s, rod_boundary_data_of, s_to_c, sample_rod, sample_slice,
                              sample_tube, save_rep, slice_to_tube, synth, synth_drho,
                              synth_dt)
from adskg.geometry import Boost0, BoostD1, make_params
from adskg.harmonics import EulerAngles
from adskg.isometry import (act_boost, act_rotation, act_time_translation,
                            boost_generator_apply)
from adskg.minkowski import (EnergyGrid, MinkSliceRep, MinkTubeRep, mink_omega_slice,
                             mink_omega_tube_momentum, mink_omega_tube_quadrature,
                             mink_synth_slice, mink_synth_tube, mink_synth_tube_dr)
from adskg.symplectic import (omega_slice_momentum, omega_slice_quadrature,
                              omega_tube_momentum, omega_tube_quadrature,
                              symplectic_potential)

P = make_params(3, 1.0, 0.0)
GRID = OmegaGrid(1.0, tuple(range(-4, 5)))
POINT = (0.3, 0.7, 1.1, 0.4)
ANGLES = EulerAngles(0.4, 1.1, -0.3)

# the six rep kinds, each a rep every entry point that takes it can use
KINDS = {
    "slice": SliceRep({(0, 1, 0): (0.8, 0.3j), (1, 0, 0): (0.2, 0.6)}),
    "tube_S": TubeRep(GRID, {(2, 1, 0): (0.8 + 0.3j, -0.4j), (-1, 0, 0): (0.5, 0.2)}, "S"),
    "tube_C": TubeRep(GRID, {(2, 1, 0): (0.3j, 0.6), (-3, 0, 0): (0.1, -0.5j)}, "C"),
    "rod": RodRep(GRID, {(3, 0, 0): 0.8 + 0.3j, (-2, 1, -1): 0.5}),
    "mink_slice": MinkSliceRep({(1.3, 2, 1): (0.1, 0.7 + 0.2j), (0.5, 0, 0): (0.3, 0.2j)}, 0.4),
    "mink_tube": MinkTubeRep(EnergyGrid(0.5, tuple(range(-3, 4))),
                             {(1, 1, 0): (0.8, 0.3j), (-2, 0, 0): (0.4, -0.6)}, 0.4),
}
ADS, TUBES = {"slice", "tube_S", "tube_C", "rod"}, {"tube_S", "tube_C", "rod"}

# entry point: (call on one rep, the kinds it takes)
ONE_REP = {
    "sample_slice": (lambda r: sample_slice(r, 0.3, P), {"slice"}),
    "slice_to_tube": (lambda r: slice_to_tube(r, GRID, P), {"slice"}),
    "sample_tube": (lambda r: sample_tube(r, 0.8, P), TUBES),
    "sample_rod": (lambda r: sample_rod(r, 0.8, P), TUBES),
    "s_to_c": (lambda r: s_to_c(r, P), {"tube_S", "rod"}),
    "c_to_s": (lambda r: c_to_s(r, P), {"tube_C"}),
    "boundary_data_of": (lambda r: boundary_data_of(r, P), {"tube_C"}),
    "rod_boundary_data_of": (lambda r: rod_boundary_data_of(r, P), {"rod"}),
    "synth": (lambda r: synth(r, POINT, P), ADS),
    "synth_dt": (lambda r: synth_dt(r, POINT, P), ADS),
    "synth_drho": (lambda r: synth_drho(r, POINT, P), ADS),
    "act_time_translation": (lambda r: act_time_translation(r, 0.7, P), ADS),
    "act_rotation": (lambda r: act_rotation(r, ANGLES, P), ADS),
    "boost_generator_apply": (lambda r: boost_generator_apply(r, Boost0(3), P),
                              {"slice", "tube_S"}),
    "act_boost": (lambda r: act_boost(r, BoostD1(3), 0.1, P), {"slice", "tube_S"}),
    "save_rep": (lambda r: save_rep(io.StringIO(), r, P), ADS),
    "mink_synth_slice": (lambda r: mink_synth_slice(r, POINT), {"mink_slice"}),
    "mink_synth_tube": (lambda r: mink_synth_tube(r, POINT), {"mink_tube"}),
    "mink_synth_tube_dr": (lambda r: mink_synth_tube_dr(r, POINT), {"mink_tube"}),
}

_BASIS = {"tube_S": "S", "rod": "S", "tube_C": "C"}

# entry point: (call on two reps, whether it takes the pair of kinds)
TWO_REP = {
    "omega_slice_momentum": (lambda a, b: omega_slice_momentum(a, b, P),
                             lambda a, b: a == b == "slice"),
    "omega_slice_quadrature": (lambda a, b: omega_slice_quadrature(a, b, 0.3, P),
                               lambda a, b: a == b == "slice"),
    "symplectic_potential_t": (lambda a, b: symplectic_potential("t", 0.3, a, b, P),
                               lambda a, b: a == b == "slice"),
    # the momentum form refuses mixed bases, a rod being the S-basis tube
    "omega_tube_momentum": (lambda a, b: omega_tube_momentum(a, b, P),
                            lambda a, b: {a, b} <= TUBES and _BASIS[a] == _BASIS[b]),
    "omega_tube_quadrature": (lambda a, b: omega_tube_quadrature(a, b, 0.8, P),
                              lambda a, b: {a, b} <= TUBES),
    "symplectic_potential_rho": (lambda a, b: symplectic_potential("rho", 0.8, a, b, P),
                                 lambda a, b: {a, b} <= TUBES),
    "mink_omega_slice": (mink_omega_slice, lambda a, b: a == b == "mink_slice"),
    "mink_omega_tube_momentum": (mink_omega_tube_momentum, lambda a, b: a == b == "mink_tube"),
    "mink_omega_tube_quadrature": (lambda a, b: mink_omega_tube_quadrature(a, b, 1.0),
                                   lambda a, b: a == b == "mink_tube"),
}


def _outcome(call, *reps) -> str:
    """"ok", or the name of the exception the call raised."""
    try:
        call(*reps)
    except Exception as exc:  # noqa: BLE001 - the table records which
        return type(exc).__name__
    return "ok"


def _refusal(entry: str) -> str:
    # a file holds AdS reps only: save_rep keeps its own error for the others
    return (SerializationError if entry == "save_rep" else BasisMismatch).__name__


@pytest.mark.parametrize("entry", sorted(ONE_REP))
def test_one_rep_entry_point_takes_its_kinds_and_refuses_the_rest(entry):
    call, takes = ONE_REP[entry]
    got = {kind: _outcome(call, rep) for kind, rep in KINDS.items()}
    assert got == {kind: "ok" if kind in takes else _refusal(entry) for kind in KINDS}


@pytest.mark.parametrize("entry", sorted(TWO_REP))
def test_two_rep_entry_point_takes_its_pairs_and_refuses_the_rest(entry):
    call, takes = TWO_REP[entry]
    pairs = list(product(KINDS, repeat=2))
    got = {pair: _outcome(call, KINDS[pair[0]], KINDS[pair[1]]) for pair in pairs}
    assert got == {pair: "ok" if takes(*pair) else BasisMismatch.__name__ for pair in pairs}


def test_refusal_names_the_classes_wanted_and_given():
    with pytest.raises(BasisMismatch, match="needs a TubeRep or RodRep, got a MinkTubeRep"):
        sample_tube(KINDS["mink_tube"], 0.8, P)
    with pytest.raises(BasisMismatch, match="frequency grids differ"):
        omega_tube_momentum(KINDS["tube_S"], RodRep(OmegaGrid(0.5, GRID.indices),
                                                     {(2, 1, 0): 0.3}), P)


def test_slice_pairings_refuse_a_minkowski_slice_rep():
    # the Minkowski momentum p = 1.0 was read as the radial order n = 1: the
    # pair gave -0.00626j; the mixed tube pairs ended in AttributeError
    ads, mink = SliceRep({(1, 1, 0): (0.3, 0.2j)}), MinkSliceRep({(1.0, 1, 0): (0.1j, 0.5)})
    for call in (lambda a, b: omega_slice_momentum(a, b, P),
                 lambda a, b: omega_slice_quadrature(a, b, 0.0, P), mink_omega_slice):
        for pair in ((ads, mink), (mink, ads)):
            with pytest.raises(BasisMismatch):
                call(*pair)
    for pair in ((KINDS["tube_S"], KINDS["mink_tube"]), (KINDS["mink_tube"], KINDS["tube_S"])):
        for call in (lambda a, b: omega_tube_momentum(a, b, P), mink_omega_tube_momentum):
            with pytest.raises(BasisMismatch):
                call(*pair)


def test_rotation_refuses_a_minkowski_slice_rep():
    # the AdS action rotates the conj(phi^-) channel by X, not by conj(X),
    # on a Minkowski slice rep: the ratio to its AdS twin, 0.301 at every
    # point at (t, r) = (0, 0.5), read 0.029+0.401i, 0.395+0.094i and
    # 0.018+0.007i after it.  The rotated twin's coefficients on the
    # Minkowski label keep the ratio.
    mink = MinkSliceRep({(1.3, 2, 1): (0, 0.7 + 0.2j)})
    ads = SliceRep({(1, 2, 1): (0, 0.7 + 0.2j)})
    turned = act_rotation(ads, ANGLES, P)
    turned_mink = MinkSliceRep({(1.3, l, m): v for (_, l, m), v in turned.coeffs.items()})
    for (a, m_rep) in ((ads, mink), (turned, turned_mink)):
        ratios = [mink_synth_slice(m_rep, (0.0, 0.5, theta, phi))
                  / synth(a, (0.0, 0.5, theta, phi), P)
                  for theta, phi in ((0.7, 0.3), (1.9, 2.2), (2.5, 5.0))]
        assert np.allclose(ratios, 0.30109833899025845, rtol=1e-12, atol=0.0)
    with pytest.raises(BasisMismatch):
        act_rotation(mink, ANGLES, P)


def test_boosts_refuse_a_c_basis_rep():
    # the C-basis shift coefficients are not derived: boosting the C image
    # of s gave a rep reading -0.0957+0.2641i at the point where the boosted
    # s and its C image both read 0.2450-0.0370i
    params = make_params(3, 1.0, 0.37)
    s = TubeRep(GRID, {(2, 1, 0): (0.8 + 0.3j, -0.4j), (-1, 0, 0): (0.5, 0.2)}, "S")
    c = s_to_c(s, params)
    assert synth(c, POINT, params) == pytest.approx(synth(s, POINT, params), rel=1e-10)
    moved = boost_generator_apply(s, Boost0(3), params)
    assert synth(moved, POINT, params) == pytest.approx(0.2450 - 0.0370j, abs=1e-4)
    assert synth(s_to_c(moved, params), POINT, params) == pytest.approx(
        synth(moved, POINT, params), rel=1e-10)
    with pytest.raises(BasisMismatch, match="C-basis"):
        boost_generator_apply(c, Boost0(3), params)
    with pytest.raises(BasisMismatch, match="C-basis"):
        act_boost(c, Boost0(3), 0.1, params)


@pytest.mark.parametrize("make, coeffs, label", [
    (SliceRep, TubeRep(GRID, {(-2, 1, 0): (0.3, 0.2j)}).coeffs, r"\(-2, 1, 0\)"),
    (SliceRep, MinkSliceRep({(0.5, 1, 0): (0.3, 0.2j)}).coeffs, r"\(0.5, 1, 0\)")])
def test_a_rep_of_another_reps_coeffs_keeps_the_label_rules(make, coeffs, label):
    # the stored coefficients of another rep were kept unchecked: n = -2 then
    # failed in the Jacobi layer, and n = 0.5 was held
    assert isinstance(coeffs, _Coeffs)
    with pytest.raises(ValueError, match=r"invalid label " + label):
        make(coeffs)


def test_a_rep_of_another_channel_count_is_a_value_error():
    # a rod of a tube's coefficients ended in TypeError
    tube, rod = KINDS["tube_S"], KINDS["rod"]
    with pytest.raises(ValueError, match="2 channels given, 1 needed"):
        RodRep(GRID, tube.coeffs)
    with pytest.raises(ValueError, match="1 channels given, 2 needed"):
        TubeRep(GRID, rod.coeffs)
    # coefficients that meet the rules are kept as they are
    assert TubeRep(GRID, KINDS["slice"].coeffs).coeffs is KINDS["slice"].coeffs
    assert MinkSliceRep(KINDS["slice"].coeffs).coeffs is KINDS["slice"].coeffs

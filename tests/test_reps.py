"""Rep storage: the constructor's dict becomes a dense (channel, j, lm) array
with a read-only dict view, labels are validated, and the rep-file reader
rejects what the constructors would silently misread."""

import copy
import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.errors import SerializationError
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, load_rep,
                              save_rep, slice_to_tube)
from adskg.geometry import BoostD1, make_params
from adskg.harmonics import EulerAngles
from adskg.isometry import act_rotation, act_time_translation, boost_generator_apply
from adskg.minkowski import EnergyGrid, MinkSliceRep, MinkTubeRep

P = make_params(3, 1.0, 0.0)
GRID = OmegaGrid(0.5, tuple(range(-6, 7)))

_VALUE = st.sampled_from([0.0, 1.0, -2.5, 0.5j, 1.25 - 0.75j, 3e-300, -1e300 + 2j])


@st.composite
def _labels(draw, first):
    """{(j, l, m): values} with valid labels, zero values included."""
    keys = draw(st.lists(st.tuples(first, st.integers(0, 6), st.integers(-6, 6))
                         .filter(lambda key: abs(key[2]) <= key[1]),
                         max_size=25, unique=True))
    return {key: (draw(_VALUE), draw(_VALUE)) for key in keys}


_MAKERS = {
    "tube": (st.integers(-6, 6), lambda c: TubeRep(GRID, c, "C")),
    "slice": (st.integers(0, 8), SliceRep),
    "rod": (st.integers(-6, 6), lambda c: RodRep(GRID, {k: a for k, (a, _) in c.items()})),
    "mink_tube": (st.integers(-6, 6), lambda c: MinkTubeRep(EnergyGrid(0.5, (1,)), c, 0.3)),
    "mink_slice": (st.sampled_from([0.25, 1.0, 1.5, 3.75]), lambda c: MinkSliceRep(c, 0.3)),
}


@pytest.mark.parametrize("kind", sorted(_MAKERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dict_to_rep_to_coeffs_round_trip(kind, data):
    first, make = _MAKERS[kind]
    coeffs = data.draw(_labels(first))
    rep = make(coeffs)
    want = {key: (vals[0] if kind == "rod" else vals) for key, vals in coeffs.items()}
    # the same labels, explicit zeros kept, in sorted order, with equal values
    assert list(rep.coeffs) == rep.labels() == sorted(want)
    assert rep.coeffs == want and len(rep.coeffs) == len(want)
    assert all(rep.coeff(*key) == val for key, val in want.items())
    # the stored array holds each value at (row of j, l^2 + l + m), zero elsewhere
    c = rep.coeffs
    assert list(c.js) == sorted({key[0] for key in want})
    assert c.l_max == max((key[1] for key in want), default=0)
    assert c.array.shape == (1 if kind == "rod" else 2, len(c.js), (c.l_max + 1) ** 2)
    dense = np.zeros(c.array.shape, dtype=complex)
    for (j, l, m), vals in want.items():
        dense[:, list(c.js).index(j), l * (l + 1) + m] = vals
        assert c.mask[list(c.js).index(j), l * (l + 1) + m]
    assert c.array.tobytes() == dense.tobytes()
    assert c.mask.sum() == len(want)


def test_coeffs_view_is_read_only_and_copies():
    rep = TubeRep(GRID, {(3, 1, 0): (1.0, 2j), (-1, 0, 0): (0.0, 0.0)}, "S")
    with pytest.raises(TypeError):
        rep.coeffs[(3, 1, 0)] = (0.0, 0.0)
    for mutate in (lambda c: c.pop((3, 1, 0)), lambda c: c.update({}), lambda c: c.clear(),
                   lambda c: c.setdefault((1, 0, 0), 0), lambda c: c.popitem()):
        with pytest.raises(TypeError):
            mutate(rep.coeffs)
    with pytest.raises(ValueError):
        rep.coeffs.array[0, 0, 0] = 1.0
    assert len(rep.coeffs) == 2
    # pickling and copying rebuild the same rep
    for other in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
        assert other == rep and other.coeffs.array.tobytes() == rep.coeffs.array.tobytes()


@pytest.mark.parametrize("make, bad", [
    (lambda c: TubeRep(GRID, c, "S"), (1, 1, 2)),
    (lambda c: TubeRep(GRID, c, "S"), (1, -1, 0)),
    (lambda c: RodRep(GRID, {k: v[0] for k, v in c.items()}), (2, 0, 1)),
    (SliceRep, (-1, 1, 0)),
    (SliceRep, (0, 2, -3)),
    (lambda c: MinkTubeRep(EnergyGrid(0.5, (1,)), c, 0.3), (1, 3, 4)),
    (lambda c: MinkSliceRep(c, 0.3), (0.5, -2, 0)),
])
def test_constructors_reject_invalid_labels(make, bad):
    good = {(1, 2, 0): (1.0, 0.5j)}
    make(good)
    with pytest.raises(ValueError, match="invalid label"):
        make({**good, bad: (1.0, 0.5j)})


def test_aliasing_label_is_refused():
    # (1, 1, 2) would pack onto lm = l^2 + l + m = 4, the slot of (1, 2, -2)
    with pytest.raises(ValueError, match=r"\(1, 1, 2\)"):
        TubeRep(GRID, {(1, 1, 2): (1.0, 0.0), (1, 2, 0): (0.5, 0.0)}, "S")


def test_tube_labels_may_have_negative_frequency_index():
    rep = TubeRep(GRID, {(-6, 0, 0): (1.0, 0.0)}, "S")
    assert rep.labels() == [(-6, 0, 0)]


_HEAD = "adskg-rep v1 d=3 R=1.0 msq=0.0 domega={}\n"


@pytest.mark.parametrize("text", [
    _HEAD.format(0.5) + "S 1 2 5 1.0 0.0 0.0 0.0\n",          # |m| > l
    _HEAD.format(0.5) + "rod 1 -1 0 1.0 0.0 0.0 0.0\n",       # l < 0
    _HEAD.format(0.0) + "slice -2 1 0 1.0 0.0 0.0 0.0\n",     # n < 0
    _HEAD.format(0.5) + "S 1 1 0 1.0 0.0 0.0 0.0\nS 1 1 0 2.0 0.0 0.0 0.0\n",
    _HEAD.format(0.0) + "S 1 1 0 1.0 0.0 0.0 0.0\n",
    _HEAD.format(-0.5) + "C 1 1 0 1.0 0.0 0.0 0.0\n",
    _HEAD.format("nan") + "S 1 1 0 1.0 0.0 0.0 0.0\n",
    _HEAD.format("inf") + "rod 1 1 0 1.0 0.0 0.0 0.0\n",
])
def test_load_rep_rejects_bad_labels_duplicates_and_domega(text):
    with pytest.raises(SerializationError):
        load_rep(io.StringIO(text))


def test_slice_files_keep_domega_zero():
    rep = SliceRep({(0, 1, 1): (1.0, 2.0), (2, 0, 0): (0.5j, 0.0)})
    buf = io.StringIO()
    save_rep(buf, rep, P)
    assert "domega=0.0" in buf.getvalue().splitlines()[0]
    loaded, _ = load_rep(io.StringIO(buf.getvalue()))
    assert loaded == rep


def test_maps_store_the_frame_their_labels_span():
    # rows and l blocks left without a label are trimmed, so a map's output
    # stores the same arrays as the rep rebuilt from its own dict
    grid = OmegaGrid(1.0, tuple(range(-8, 9)))
    rep = TubeRep(grid, {(1, 1, 0): (1.0, 0.5j), (4, 0, 0): (0.0, 0.0),
                         (2, 3, -1): (0.0, 0.0)}, "S")
    outs = [act_rotation(rep, EulerAngles(0.2, 0.9, -0.4), P),
            boost_generator_apply(rep, BoostD1(3), P),
            act_time_translation(rep, 0.3, P), rep.scaled(2.0),
            slice_to_tube(SliceRep({(0, 1, 0): (1.0, 0.0), (3, 4, 2): (0.0, 0.0)}),
                          OmegaGrid(1.0, (1,)), P)]
    assert 4 not in outs[0].coeffs.js and outs[0].coeffs.l_max == 1
    for out in outs:
        rebuilt = TubeRep(out.grid, dict(out.coeffs), out.basis).coeffs
        assert list(out.coeffs.js) == list(rebuilt.js)
        assert out.coeffs.array.tobytes() == rebuilt.array.tobytes()
        assert out.coeffs.mask.tobytes() == rebuilt.mask.tobytes()

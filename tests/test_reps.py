"""Rep storage: the constructor's dict becomes a dense (channel, j, lm) array
with a read-only dict view, labels are validated, and the rep-file reader
rejects what the constructors would silently misread."""

import copy
import io
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.errors import DomainError, SerializationError
from adskg import expansions as xp
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


@pytest.mark.parametrize("d_omega", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_omega_grid_refuses_a_spacing_that_is_not_finite_and_positive(d_omega):
    # a NaN spacing gave window nan, an infinite one window 0.0
    with pytest.raises(ValueError, match="finite and positive"):
        OmegaGrid(d_omega, (1,))


def test_aliasing_label_is_refused():
    # (1, 1, 2) would pack onto lm = l^2 + l + m = 4, the slot of (1, 2, -2)
    with pytest.raises(ValueError, match=r"\(1, 1, 2\)"):
        TubeRep(GRID, {(1, 1, 2): (1.0, 0.0), (1, 2, 0): (0.5, 0.0)}, "S")


def test_tube_labels_may_have_negative_frequency_index():
    rep = TubeRep(GRID, {(-6, 0, 0): (1.0, 0.0)}, "S")
    assert rep.labels() == [(-6, 0, 0)]


_ONE = OmegaGrid(0.5, (1,))


@pytest.mark.parametrize("make, bad, rule", [
    # l and m were read through astype(int): (1, 1.5, 0.7) was stored as (1.0, 1, 0)
    (lambda c: TubeRep(_ONE, c, "S"), (1, 1.5, 0.7), "an integer first label, l and m"),
    (lambda c: TubeRep(_ONE, c, "S"), (1, 2, math.inf), "an integer first label, l and m"),
    # first labels that failed only later, in synth
    (SliceRep, (1.5, 0, 0), "an integer first label, l and m"),
    (lambda c: TubeRep(_ONE, c, "S"), (math.nan, 1, 0), "an integer first label, l and m"),
    (lambda c: TubeRep(_ONE, c, "S"), (2.5, 1, 0), "an integer first label, l and m"),
    (lambda c: RodRep(_ONE, {k: v[0] for k, v in c.items()}), (math.inf, 0, 0),
     "an integer first label, l and m"),
    (lambda c: MinkTubeRep(_ONE, c, 0.3), (0.5, 1, 0), "an integer first label, l and m"),
    (lambda c: MinkSliceRep(c, 0.3), (math.nan, 1, 0), "a finite first label, integer l and m"),
    (lambda c: MinkSliceRep(c, 0.3), (-math.inf, 1, 0), "a finite first label, integer l and m"),
    (lambda c: MinkSliceRep(c, 0.3), (0.5, 1.5, 0), "a finite first label, integer l and m"),
])
def test_constructors_reject_non_integer_and_non_finite_labels(make, bad, rule):
    with pytest.raises(ValueError) as err:
        make({(1, 0, 0): (1.0, 0.5j), bad: (1.0, 0.0)})
    assert str(err.value) == f"invalid label {bad}: need {rule}"


_PAST = "a first label, l and m of magnitude at most 2147483647"


@pytest.mark.parametrize("make, bad, rule", [
    # l wrapped in astype(int) (a RuntimeWarning, then an IndexError)
    (lambda c: TubeRep(_ONE, c, "S"), (1, 1e20, 0), _PAST),
    # l (l + 1) + m wrapped in int64: numpy's "array is too big"
    (lambda c: TubeRep(_ONE, c, "S"), (1, 2.0 ** 62, 0), _PAST),
    (lambda c: TubeRep(_ONE, c, "S"), (1, 2 ** 62, 0), _PAST),  # an integer key array
    # first labels that constructed
    (lambda c: TubeRep(_ONE, c, "S"), (1e20, 0, 0), _PAST),
    (SliceRep, (2 ** 31, 1, 0), _PAST),
    (lambda c: RodRep(_ONE, {k: v[0] for k, v in c.items()}), (-2.0 ** 31, 0, 0), _PAST),
    (lambda c: MinkSliceRep(c, 0.3), (0.5, 1e20, 0), "l and m of magnitude at most 2147483647"),
    # today's rules keep their words for such labels
    (lambda c: TubeRep(_ONE, c, "S"), (1, 1e20, 3e20), "l >= 0, |m| <= l"),
    (lambda c: TubeRep(_ONE, c, "S"), (1, -1e20, 0), "l >= 0, |m| <= l"),
    (lambda c: TubeRep(_ONE, c, "S"), (1e20, 1.5, 0), "an integer first label, l and m"),
])
def test_constructors_reject_labels_the_integer_cast_cannot_hold(make, bad, rule):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            make({(1, 0, 0): (1.0, 0.5j), bad: (1.0, 0.0)})
    assert str(err.value) == f"invalid label {bad}: need {rule}"


def test_labels_up_to_the_integer_range_and_large_momenta_are_accepted():
    assert TubeRep(_ONE, {(2 ** 31 - 1, 1, 0): (1.0, 0.0)}, "S").labels() \
        == [(2 ** 31 - 1, 1, 0)]
    assert SliceRep({(2.0 ** 31 - 1, 0, 0): (1.0, 0.0)}).labels() == [(2.0 ** 31 - 1, 0, 0)]
    assert MinkSliceRep({(1e20, 1, 0): (1.0, 0.0)}, 0.3).labels() == [(1e20, 1, 0)]


@pytest.mark.parametrize("make, bad, rule", [
    # np.array of such a label is an object array: numpy's TypeError from isfinite
    (lambda c: TubeRep(_ONE, c, "S"), (10 ** 20, 0, 0), _PAST),
    (lambda c: TubeRep(_ONE, c, "S"), (1, 10 ** 20, 0), _PAST),
    (SliceRep, (0, 0, -10 ** 19), "l >= 0, |m| <= l, n >= 0"),
    (lambda c: TubeRep(_ONE, c, "S"), (2 ** 63, 0, 0), _PAST),  # a uint64 key array
    (lambda c: MinkSliceRep(c, 0.3), (0, 10 ** 20, 0), "l and m of magnitude at most 2147483647"),
    # past the double range float() raised OverflowError; such an integer
    # label is refused for its magnitude, as 10 ** 20 is, and a real first
    # label as not finite
    (lambda c: TubeRep(_ONE, c, "S"), (10 ** 400, 0, 0), _PAST),
    (lambda c: TubeRep(_ONE, c, "S"), (1, 10 ** 400, 0), _PAST),
    (lambda c: TubeRep(_ONE, c, "S"), (1, 1, -10 ** 400), "l >= 0, |m| <= l"),
    (lambda c: TubeRep(_ONE, c, "S"), (1, -10 ** 400, 0), "l >= 0, |m| <= l"),
    (lambda c: MinkSliceRep(c, 0.3), (10 ** 400, 1, 0), "a finite first label, integer l and m"),
    (lambda c: MinkSliceRep(c, 0.3), (-10 ** 400, 1, 0), "a finite first label, integer l and m"),
    (lambda c: MinkSliceRep(c, 0.3), (0.5, 10 ** 400, 0), "l and m of magnitude at most 2147483647"),
    (SliceRep, (10 ** 400, 0, 0), _PAST),
    (SliceRep, (-10 ** 400, 0, 0), "l >= 0, |m| <= l, n >= 0"),
])
def test_constructors_reject_integer_labels_past_int64(make, bad, rule):
    with pytest.raises(ValueError) as err:
        make({bad: (1.0, 0.0)})
    assert str(err.value) == f"invalid label {bad}: need {rule}"


def test_integer_momenta_past_int64_read_as_their_floats():
    for labels in ([(10 ** 20, 1, 0)], [(10 ** 20, 1, 0), (2, 0, 0)]):
        rep = MinkSliceRep({lab: (1.0, 0.0) for lab in labels}, 0.3)
        same = MinkSliceRep({(float(j), l, m): (1.0, 0.0) for j, l, m in labels}, 0.3)
        assert rep.labels() == same.labels() and type(rep.labels()[-1][0]) is float
        _same_arrays(rep.coeffs, (same.coeffs.js, same.coeffs.array, same.coeffs.mask,
                                  same.coeffs.l_max))


def test_integer_valued_float_labels_and_real_momenta_are_accepted():
    assert TubeRep(_ONE, {(2.0, 1.0, -1.0): (1.0, 0.0)}, "S").labels() == [(2.0, 1, -1)]
    assert SliceRep({(1.0, 2, 0): (1.0, 0.0)}).labels() == [(1.0, 2, 0)]
    assert MinkSliceRep({(0.75, 1, 0): (1.0, 0.0)}, 0.3).labels() == [(0.75, 1, 0)]


_HEAD = "adskg-rep v1 d=3 R=1.0 msq=0.0 domega={}\n"


@pytest.mark.parametrize("text", [
    _HEAD.format(0.5) + "S 1 2 5 1.0 0.0 0.0 0.0\n",          # |m| > l
    _HEAD.format(0.5) + "rod 1 -1 0 1.0 0.0 0.0 0.0\n",       # l < 0
    _HEAD.format(0.0) + "slice -2 1 0 1.0 0.0 0.0 0.0\n",     # n < 0
    _HEAD.format(0.5) + "S 0 5 -9223372036854775808 1.0 0.0 0.0 0.0\n",  # m < -l
    _HEAD.format(0.5) + "S -257 1 0 1.0 0.0 0.0 0.0\n",      # past |k| <= 256
    _HEAD.format(0.0) + "slice 0 33 0 1.0 0.0 0.0 0.0\n",    # past l <= 32
    _HEAD.format(0.5) + "S 1 1 0 1.0 0.0 0.0 0.0\nS 1 1 0 2.0 0.0 0.0 0.0\n",
    _HEAD.format(0.0) + "S 1 1 0 1.0 0.0 0.0 0.0\n",
    _HEAD.format(-0.5) + "C 1 1 0 1.0 0.0 0.0 0.0\n",
    _HEAD.format("nan") + "S 1 1 0 1.0 0.0 0.0 0.0\n",
    _HEAD.format("inf") + "rod 1 1 0 1.0 0.0 0.0 0.0\n",
])
def test_load_rep_rejects_bad_labels_duplicates_and_domega(text):
    with pytest.raises(SerializationError):
        load_rep(io.StringIO(text))


def test_load_rep_takes_labels_at_the_file_limits():
    text = _HEAD.format(0.5) + "S 256 32 -32 1.0 0.0 0.0 0.0\nS -256 0 0 0.5 0.0 0.0 0.0\n"
    rep, _ = load_rep(io.StringIO(text))
    assert rep.labels() == [(-256, 0, 0), (256, 32, -32)]


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


# --- construction against the np.unique + np.add.at scatter it replaced ------------

def _unique_scatter(j, lm, values):
    """(js, array, mask, l_max) of the labels at (j, packed lm): np.unique of
    j and np.add.at into zeros.  The oracle of `expansions._scatter`."""
    js, rows = np.unique(j, return_inverse=True)
    l_max = math.isqrt(int(np.max(lm, initial=0)))
    array = np.zeros((len(values), len(js), (l_max + 1) ** 2), dtype=complex)
    mask = np.zeros(array.shape[1:], dtype=bool)
    np.add.at(array, (slice(None), rows, lm), values)
    mask[rows, lm] = True
    return js, array, mask, l_max


def _dict_scatter(coeffs, channels, j_min):
    """The oracle's arrays of a constructor's dict, or the ValueError text
    naming its first label with l < 0, |m| > l or j < j_min."""
    labels = list(coeffs)
    keys = np.array(labels).reshape(-1, 3)
    l, m = keys[:, 1:].astype(int).T
    bad = (l < 0) | (m < -l) | (m > l) | (keys[:, 0] < j_min)
    if np.any(bad):
        rule = "l >= 0, |m| <= l" + (f", n >= {j_min}" if j_min >= 0 else "")
        return f"invalid label {labels[int(np.argmax(bad))]}: need {rule}"
    values = np.array([np.atleast_1d(v) for v in coeffs.values()], complex).reshape(-1, channels)
    return _unique_scatter(keys[:, 0], l * (l + 1) + m, values.T)


def _same_arrays(coeffs, want):
    for got, ref in zip((coeffs.js, coeffs.array, coeffs.mask), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert coeffs.l_max == want[3]


_SIGNED = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                           -1.5, 0.25j, complex(5e-324, -0.0), 1e300 - 2j])


@pytest.mark.parametrize("kind", sorted(_MAKERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_construction_is_the_unique_scatter_bit_for_bit(kind, data):
    # explicit zero labels kept, -0.0 stored as +0.0, and a bad label named
    # in the same words
    first, make = _MAKERS[kind]
    keys = data.draw(st.lists(st.tuples(first, st.integers(-1, 4), st.integers(-5, 5)),
                              max_size=20, unique=True))
    coeffs = {key: (data.draw(_SIGNED), data.draw(_SIGNED)) for key in keys}
    rod = kind == "rod"
    want = _dict_scatter({k: v[0] for k, v in coeffs.items()} if rod else coeffs,
                         1 if rod else 2, 0 if kind == "slice" else -math.inf)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            make(coeffs)
        assert str(err.value) == want
    else:
        _same_arrays(make(coeffs).coeffs, want)


@settings(max_examples=80, deadline=None)
@given(labels=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 8), _SIGNED, _SIGNED),
                       max_size=30),
       floats=st.booleans())
def test_scatter_sums_repeated_labels_in_order(labels, floats):
    # repeats are summed in input order; a float first label (a Minkowski
    # momentum) sorts and repeats as the integer one
    j = np.array([x[0] for x in labels], dtype=float if floats else int) * (0.5 if floats else 1)
    lm = np.array([x[1] for x in labels], dtype=int)
    values = np.array([x[2:] for x in labels], dtype=complex).reshape(-1, 2).T
    _same_arrays(xp._scatter(j, lm, values), _unique_scatter(j, lm, values))


# --- the rep-file reader against the per-line loop it replaced ----------------------

def _loop_load_rep(text):
    """The reader as a per-line loop: split, int() and float() each field,
    collect a dict and build the rep from it.  The oracle of `load_rep`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SerializationError("empty rep file")
    head = lines[0].split()
    if len(head) < 2 or head[0] != "adskg-rep":
        raise SerializationError("missing adskg-rep header")
    if head[1] != "v1":
        raise SerializationError(f"unsupported rep version {head[1]!r}")
    meta = dict(tok.partition("=")[::2] for tok in head[2:])
    try:
        params = make_params(int(meta["d"]), float(meta["R"]), float(meta["msq"]))
        d_omega = float(meta["domega"])
    except (KeyError, ValueError, DomainError) as exc:
        raise SerializationError(f"bad header fields: {exc}") from exc
    coeffs, bases = {}, set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 8:
            raise SerializationError(f"malformed line: {ln!r}")
        try:
            key = int(parts[1]), int(parts[2]), int(parts[3])
            vals = (complex(float(parts[4]), float(parts[5])),
                    complex(float(parts[6]), float(parts[7])))
        except ValueError as exc:
            raise SerializationError(f"malformed line: {ln!r}") from exc
        if key in coeffs:
            raise SerializationError(f"duplicate label {key}: {ln!r}")
        coeffs[key] = vals
        bases.add(parts[0])
    if not coeffs:
        raise SerializationError("rep file has no labels")
    if len(bases) > 1:
        raise SerializationError(f"mixed bases in one file: {sorted(bases)}")
    basis = bases.pop()
    if basis not in ("slice", "rod", "S", "C"):
        raise SerializationError(f"unknown basis {basis!r}")
    if basis != "slice" and not (math.isfinite(d_omega) and d_omega > 0.0):
        raise SerializationError(f"domega must be finite and positive, got {d_omega!r}")
    try:
        if basis == "slice":
            return SliceRep(coeffs), params
        grid = OmegaGrid(d_omega, tuple(key[0] for key in coeffs))
        if basis == "rod":
            return RodRep(grid, {key: a for key, (a, _) in coeffs.items()}), params
        return TubeRep(grid, coeffs, basis), params
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def _same_rep(got, want):
    """Equal type, grid, basis and stored arrays, bit for bit."""
    assert type(got) is type(want)
    assert getattr(got, "grid", None) == getattr(want, "grid", None)
    assert getattr(got, "basis", None) == getattr(want, "basis", None)
    for name in ("js", "array", "mask"):
        x, y = getattr(got.coeffs, name), getattr(want.coeffs, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert list(got.coeffs) == list(want.coeffs)


# signed zeros, subnormals and the edges of the double range
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                         1.7e308, -1.7e308, 1.0, -2.5, 0.1, 1 / 3, 3e-300])
_BASIS_MAKERS = {
    "S": (st.integers(-6, 6), lambda c: TubeRep(GRID, c, "S")),
    "C": (st.integers(-6, 6), lambda c: TubeRep(GRID, c, "C")),
    "rod": (st.integers(-6, 6), lambda c: RodRep(GRID, {k: a for k, (a, _) in c.items()})),
    "slice": (st.integers(0, 8), SliceRep),
}


@pytest.mark.parametrize("basis", sorted(_BASIS_MAKERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_save_then_load_is_bit_for_bit(basis, data):
    first, make = _BASIS_MAKERS[basis]
    keys = data.draw(st.lists(st.tuples(first, st.integers(0, 6), st.integers(-6, 6))
                              .filter(lambda key: abs(key[2]) <= key[1]),
                              min_size=1, max_size=30, unique=True))
    rep = make({key: (complex(data.draw(_EDGE), data.draw(_EDGE)),
                      complex(data.draw(_EDGE), data.draw(_EDGE))) for key in keys})
    if basis != "rod" and data.draw(st.booleans()):
        rep = rep.scaled(-1.0)  # stores -0.0 wherever a part is 0.0
    buf = io.StringIO()
    save_rep(buf, rep, P)
    head, *body = buf.getvalue().splitlines()
    # the label lines in any order, blank and blank-looking lines anywhere
    body = data.draw(st.permutations(body))
    for _ in range(data.draw(st.integers(0, 4))):
        body.insert(data.draw(st.integers(0, len(body))),
                    data.draw(st.sampled_from(["", "   ", "\t", " \t "])))
    text = "\n".join([head, *body]) + "\n"
    got, params = load_rep(io.StringIO(text))
    want, _ = _loop_load_rep(text)
    _same_rep(got, want)
    assert params == P
    # the stored values are the saved ones (a loaded -0.0 part sums onto +0.0)
    assert got.coeffs.array.tobytes() == (rep.coeffs.array + 0.0).tobytes()


_GOOD = ["S 1 1 0 1.0 0.0 0.0 0.0", "S -2 0 0 0.5 -0.5 2.0 1e-3", "S 3 2 -1 0.0 1.0 -1.0 0.0"]


def _file(*lines, domega=0.5):
    return "\n".join([_HEAD.format(domega).rstrip("\n"), *lines]) + "\n"


@pytest.mark.parametrize("text", [
    _file(_GOOD[0], "S 2 1 0 1.0 0.0 0.0", _GOOD[1]),                  # 7 tokens
    _file(_GOOD[0], "S 2 1 0 1.0 0.0 0.0 0.0 0.0", _GOOD[1]),          # 9 tokens
    _file(_GOOD[0], "S 2 one 0 1.0 0.0 0.0 0.0"),                      # non-numeric int
    _file(_GOOD[0], "S 2 1.0 0 1.0 0.0 0.0 0.0"),                      # float in an int field
    _file(_GOOD[0], "S 2 1 0 1.0 zero 0.0 0.0"),                       # non-numeric float
    _file(_GOOD[0], "S 2 1 0 1.0 0.0 0.0 0.0#note"),                   # '#' inside a field
    _file(_GOOD[0], "S 2 1 0 1.0 0.0 0.0 0.0 # note"),                 # '#' as a token
    _file(*_GOOD, "S 1 1 0 2.0 0.0 0.0 0.0"),                          # duplicate label
    _file(_GOOD[0], "S 1 1 0 2.0 0.0 0.0 0.0", "S 2 1 0 1.0 x 0.0 0.0"),  # first of two
    _file(_GOOD[0], "S 2 1 0 1.0 x 0.0 0.0", "S 1 1 0 2.0 0.0 0.0 0.0"),  # first of two
    _file(_GOOD[0], "S 5 1 2 1.0 0.0 0.0 0.0", "S 1 1 0 2.0 0.0 0.0 0.0"),  # line faults first
    _file(_GOOD[0], "C 2 1 0 1.0 0.0 0.0 0.0"),                        # mixed bases
    _file("slicexyz 2 1 0 1.0 0.0 0.0 0.0"),                           # over-long unknown
    _file("slicexA 2 1 0 1.0 0.0 0.0 0.0", "slicexB 3 1 0 1.0 0.0 0.0 0.0"),
    _file("sliced 2 1 0 1.0 0.0 0.0 0.0", "S 3 1 0 1.0 0.0 0.0 0.0"),
    _file("Tube 2 1 0 1.0 0.0 0.0 0.0"),                               # unknown
    _file("S\x00 1 1 0 1.0 0.0 0.0 0.0"),                             # NUL-padded
    _file("S\x00\x00\x00\x00\x00\x00 1 1 0 1.0 0.0 0.0 0.0"),            # over-long too
    _file(_GOOD[0], "S\x00 2 1 0 1.0 0.0 0.0 0.0"),                   # mixed with S
    _file(*_GOOD, "S 4 -1 0 1.0 0.0 0.0 0.0"),                         # l < 0
    _file(*_GOOD, "S 4 1 2 1.0 0.0 0.0 0.0", "S 5 2 3 1.0 0.0 0.0 0.0"),  # |m| > l
    _file("slice 0 1 0 1.0 0.0 0.0 0.0", "slice -1 0 0 1.0 0.0 0.0 0.0", domega=0.0),
    _file("rod 1 1 0 1.0 0.0 0.0 0.0", "rod 2 1 5 1.0 0.0 0.0 0.0", domega="nan"),
    _file("", "  ", "\t"),                                              # no labels
    *(_file(_GOOD[0]).replace("R=1.0 msq=0.0", fields)   # bad R or m^2 R^2
      for fields in ("R=0.0 msq=0.0", "R=-1.0 msq=0.0", "R=nan msq=0.0", "R=inf msq=0.0",
                     "R=1.0 msq=nan", "R=1.0 msq=-inf", "R=1e200 msq=1.0")),
])
def test_load_rep_faults_match_the_line_loop(text):
    with pytest.raises(SerializationError) as want:
        _loop_load_rep(text)
    with pytest.raises(SerializationError) as got:
        load_rep(io.StringIO(text))
    assert str(got.value) == str(want.value)


def test_a_nul_outside_the_label_lines_is_harmless():
    # a NUL makes the reader take the basis tokens from the lines
    text = _file(*_GOOD).replace("domega=0.5", "domega=0.5 note=\x00")
    got, params = load_rep(io.StringIO(text))
    want, _ = _loop_load_rep(text)
    _same_rep(got, want)
    assert params == P


@pytest.mark.parametrize("field", ["1_0", "1_000.5", "١", "１"])
def test_digits_float_reads_but_the_reader_refuses(field):
    # float() and int() take underscore digit groups and non-ASCII digits,
    # np.loadtxt does not: such a line is malformed
    line = f"S 2 1 0 {field} 0.0 0.0 0.0"
    _loop_load_rep(_file(line))
    with pytest.raises(SerializationError, match="malformed line: 'S 2 1 0 "):
        load_rep(io.StringIO(_file(line)))
    with pytest.raises(SerializationError, match="malformed line"):
        load_rep(io.StringIO(_file(f"S 2 {field} 0 1.0 0.0 0.0 0.0")))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-Infinity", "1e999"])
def test_load_rep_rejects_non_finite_values(value):
    for line in (f"S 2 1 0 {value} 0.0 0.0 0.0", f"S 2 1 0 1.0 0.0 0.0 {value}"):
        with pytest.raises(SerializationError) as exc:
            load_rep(io.StringIO(_file(_GOOD[0], line, "S 2 1 0 9.0 0.0 0.0 0.0")))
        # named before the repeated label on the line after it
        assert str(exc.value) == f"non-finite coefficient: {line!r}"

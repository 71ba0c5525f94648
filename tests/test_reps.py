"""Rep storage: the constructor's dict becomes a dense (channel, j, lm) array
with a read-only dict view, labels are validated, and the rep-file reader
rejects what the constructors would silently misread."""

import copy
import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.errors import DomainError, SerializationError
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

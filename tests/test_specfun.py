import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1 as scipy_hyp2f1

from adskg.errors import DomainError, PoleError
from adskg.specfun import (assoc_legendre, double_pochhammer, hyp2f1, jacobi_p,
                           jacobi_p_dx, pochhammer, spherical_bessel,
                           spherical_bessel_dx)
from radial_reference import hyp2f1_element


# --- Pochhammer symbols ---------------------------------------------------

def test_pochhammer_examples():
    assert pochhammer(7.3, 0) == 1.0
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(0.5, 3) == 1.875


@given(a=st.floats(-5, 5), k=st.integers(0, 20))
@settings(max_examples=200)
def test_pochhammer_recurrence(a, k):
    assert pochhammer(a, k + 1) == pytest.approx(
        pochhammer(a, k) * (a + k), rel=1e-13, abs=1e-300)


def test_double_pochhammer_examples():
    assert double_pochhammer(9.0, 0) == 1.0
    assert double_pochhammer(4.0, 2) == 24.0
    assert double_pochhammer(3.0, 2) == 15.0
    assert 2.0 ** 2 * pochhammer(1.5, 2) == 15.0


@given(a=st.floats(-5, 5), k=st.integers(0, 15))
@settings(max_examples=200)
def test_double_pochhammer_halving(a, k):
    lhs = double_pochhammer(2.0 * a, k)
    rhs = 2.0 ** k * pochhammer(a, k)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-280)


# --- 2F1 -------------------------------------------------------------------

def test_hyp2f1_at_zero():
    assert hyp2f1(0.3, 1.7, 2.2, 0.0) == 1.0


def test_hyp2f1_degree_one():
    b, c, x = 1.9, 2.4, 0.63
    assert hyp2f1(-1.0, b, c, x) == pytest.approx(1.0 - b * x / c, rel=1e-15)


def test_hyp2f1_log_value():
    # oracle: 2F1(1,1;2;x) = -log(1-x)/x; at x = 1/2 this is 2 log 2
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(
        1.3862943611198906, rel=1e-14)


def test_hyp2f1_termination_exact():
    # terminating series equals the explicit polynomial sum term for term
    n, b, c = 4, 1.3, 0.7
    for x in (-1.0, -0.3, 0.5, 1.0):
        explicit = sum(pochhammer(-n, k) * pochhammer(b, k)
                       / (pochhammer(c, k) * math.factorial(k)) * x ** k
                       for k in range(n + 1))
        assert hyp2f1(float(-n), b, c, x) == pytest.approx(explicit, rel=1e-15)


def test_hyp2f1_domain_and_poles():
    with pytest.raises(DomainError):
        hyp2f1(0.3, 0.7, 1.1, 0.9)
    with pytest.raises(DomainError, match="exceeds series cutoff"):
        hyp2f1(0.3, 0.7, 1.1, math.nan)
    # a series past the c-pole: its term -c + 1 is 0/0
    for args in ((0.3, 0.7, -2.0, 0.1), (-3.0, 0.7, -2.0, 0.1)):
        with pytest.raises(PoleError):
            hyp2f1(*args)
    # terminating before or at the c-pole is fine
    assert hyp2f1(-1.0, 0.7, -2.0, 0.4) == pytest.approx(1.0 + 0.7 * 0.4 / 2.0)
    assert hyp2f1(0.3, 0.0, 0.0, 0.9) == 1.0


def _explicit(a, b, c, x):
    """The terminating series as an exact rational sum, rounded once."""
    a, b, c, x = map(Fraction, (a, b, c, x))
    n = int(min(-v for v in (a, b) if v <= 0 and v.denominator == 1))
    total, term = Fraction(0), Fraction(1)
    for k in range(n + 1):
        total += term
        if k < n:
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
    return float(total)


def test_hyp2f1_terminating_series_with_negative_c():
    # the S^b polynomial 2F1(6, -6; -1/2; x) of (msq, l, omega) = (-2, 1, -12)
    # at x = sin^2 rho = 0.97 and 0.9998, where scipy's own value is 1e-12
    # and 36% off, and series stopping before or at a nonpositive-integer c
    # (DLMF 15.2: the n + 1 terms of a series ending at n = -c), where
    # scipy returns inf or (1 - x)^-b
    for args in ((6.0, -6.0, -0.5, 0.3), (6.0, -6.0, -0.5, 0.97),
                 (6.0, -6.0, -0.5, 0.9998), (-8.0, 5.0, -9.0, 3.0),
                 (-1.0, 0.7, -2.0, 0.4), (-1.0, 0.7, -2.0, 0.9),
                 (-5.0, 2.5, -5.0, 0.3), (-2.0, 0.7, -2.0, 0.9),
                 (-2.0, -2.0, -2.0, 0.3), (-1.0, -1.0, -1.0, 4.0)):
        assert hyp2f1(*args) == pytest.approx(_explicit(*args), rel=1e-13)
    assert hyp2f1(-2.0, 0.7, -2.0, 0.4) == pytest.approx(1.0 + 0.7 * 0.4 + 0.595 * 0.16,
                                                         rel=1e-15)


def test_hyp2f1_flip_giving_nan_is_a_domain_error():
    # the DLMF 15.8.7 flip of the S^b series at omega = -1e300 is inf/inf:
    # no RuntimeWarning, even as an error, and a DomainError naming the
    # element, scalar or in an array
    text = "2F1 at (a, b, c, x) = (5e+299, -5e+299, -0.5, 0.644) is nan in its DLMF 15.8.7 form"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            hyp2f1(5e299, -5e299, -0.5, 0.644)
        assert str(err.value) == text
        with pytest.raises(DomainError) as err:
            hyp2f1(np.array([6.0, 5e299]), np.array([-6.0, -5e299]), -0.5, 0.644)
        assert str(err.value) == text
        assert hyp2f1(6.0, -6.0, -0.5, 0.644) == pytest.approx(_explicit(6.0, -6.0, -0.5, 0.644),
                                                               rel=1e-13)


# array path: the array call against the scalar call, bit for bit

_FINITE = st.floats(-12.0, 12.0)
_C = st.floats(0.1, 12.0)
_NONPOS = st.integers(-8, 0).map(float)
_ELEMENT = st.one_of(
    st.tuples(_FINITE, _FINITE, _C, st.floats(-0.9, 0.9)),     # plain, some past 0.75
    st.tuples(_NONPOS, _FINITE, _C, st.floats(-4.0, 4.0)),     # terminating, any x
    st.tuples(_FINITE, _NONPOS, _NONPOS, st.floats(-4.0, 4.0)),  # nonpositive c
    st.tuples(st.just(0.0), _FINITE, st.floats(-3.0, 3.0), st.floats(-4.0, 4.0)),
    st.tuples(_FINITE, st.just(0.0), _NONPOS, st.floats(-4.0, 4.0)),
    st.tuples(_FINITE, _FINITE, _C, st.sampled_from([-4.0, -0.75, 0.75, 1.5])),
    st.tuples(_FINITE, _FINITE, st.floats(-12.0, -0.1), st.floats(-0.75, 0.75)),  # c < 0
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PoleError, DomainError) as exc:
        return type(exc)


@given(elements=st.lists(_ELEMENT, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_hyp2f1_array_equals_scalar_call(elements):
    # the array call equals the scalar calls bit for bit, or raises an
    # exception type the scalar call raises for one of the elements
    scalar = [_outcome(hyp2f1, *map(float, e)) for e in elements]
    errors = {v for v in scalar if isinstance(v, type)}
    a, b, c, x = (np.array(col) for col in zip(*elements))
    if not errors:
        got = hyp2f1(a, b, c, x)
        assert got.shape == a.shape
        assert got.tobytes() == np.array(scalar, dtype=float).tobytes()
        return
    with pytest.raises(tuple(errors)):
        hyp2f1(a, b, c, x)


# the array path against hyp2f1_element, the docstring's rules one element
# at a time: each draw below aims at one branch or one error
_HALF = st.integers(-7, 0).map(lambda k: k - 0.5)
_BRANCH_ELEMENT = st.one_of(
    st.tuples(_FINITE, _FINITE, _C, st.floats(-0.9, 0.9)),                 # scipy; outside
    st.tuples(_NONPOS, _FINITE, _NONPOS, st.floats(-4.0, 4.0)),            # pole sum; pole
    st.tuples(st.integers(-8, -1).map(float), st.floats(0.0, 20.0),
              _HALF | st.floats(-12.0, -0.1), st.floats(0.5, 4.0)),        # flip
    st.tuples(_FINITE | st.floats(-40.0, 40.0), _FINITE | st.floats(-40.0, 40.0),
              _HALF | st.floats(-12.0, -0.1), st.floats(-0.25, 0.25)),     # checked
    st.sampled_from([(5e299, -5e299, -0.5, 0.644), (-6.0, 5e299, -0.5, 0.9),
                     (math.inf, 1.0, 2.0, 0.5), (1.0, math.nan, 2.0, 0.5),
                     (1.0, 1.0, -math.inf, 0.5), (0.3, 0.7, 1.1, math.nan),
                     (-3.0, 0.7, -3.0, 0.9), (0.0, 2.5, 0.0, 3.0)]))


def _array_outcome(elements):
    """What the array call over the elements must give: the first
    classification error, else the first nan flip, else the values."""
    refs = [hyp2f1_element(*e) for e in elements]
    for stage in ("classify", "flip"):
        errors = [v for b, v in refs if b == stage and isinstance(v, Exception)]
        if errors:
            return errors[0]
    return np.array([v for _, v in refs])


@given(elements=st.lists(_BRANCH_ELEMENT, min_size=1, max_size=12))
@settings(max_examples=400, deadline=None)
def test_hyp2f1_array_equals_the_rules_per_element(elements):
    # bit for bit, or the same exception type and text
    want = _array_outcome(elements)
    a, b, c, x = (np.array(col) for col in zip(*elements))
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as err:
            hyp2f1(a, b, c, x)
        assert str(err.value) == str(want)
    else:
        assert hyp2f1(a, b, c, x).tobytes() == want.tobytes()
    for e in elements:  # and the scalar call, element by element
        branch, ref = hyp2f1_element(*e)
        if isinstance(ref, Exception):
            with pytest.raises(type(ref)) as err:
                hyp2f1(*e)
            assert str(err.value) == str(ref)
        else:
            assert np.float64(hyp2f1(*e)).tobytes() == np.float64(ref).tobytes()


def test_hyp2f1_rules_reach_every_branch():
    # one element of each branch and error of hyp2f1_element, and the
    # array call over the values among them
    cases = {(-3.0, 0.7, -3.0, 0.9): "pole sum", (-4.0, 9.5, -2.5, 1.7): "flip",
             (-4.5, 5.5, -0.5, 0.01): "checked", (0.3, 0.7, 1.1, 0.4): "scipy",
             (5e299, -5e299, -0.5, 0.644): DomainError, (0.3, 0.7, -2.0, 0.1): PoleError,
             (0.3, 0.7, 1.1, 0.9): DomainError, (1.0, math.nan, 2.0, 0.5): DomainError}
    values = []
    for e, want in cases.items():
        branch, ref = hyp2f1_element(*e)
        if isinstance(want, str):
            assert branch == want, e
            values.append(e)
        else:
            assert type(ref) is want, e
    # S^b at l = 1, omega = 10: scipy's recursion is off, the sum replaces it
    assert hyp2f1_element(-4.5, 5.5, -0.5, 0.01)[1] != scipy_hyp2f1(-4.5, 5.5, -0.5, 0.01)
    a, b, c, x = (np.array(col) for col in zip(*values))
    assert hyp2f1(a, b, c, x).tobytes() == _array_outcome(values).tobytes()


def test_hyp2f1_array_special_cases():
    # one element of each kind the argument checks treat specially
    cases = [((-3.0, 1.7, 0.4, 3.5), None),             # terminating past the cutoff
             ((-1.0, 0.7, -2.0, 0.4), None),            # admissible nonpositive c
             ((0.3, 0.7, 1.1, 0.9), DomainError),       # |x| past the cutoff
             ((-2.0, 0.7, -2.0, 0.1), None),            # stops at the pole
             ((0.3, 0.7, -2.0, 0.1), PoleError),
             ((-3.0, 0.7, -2.0, 0.1), PoleError)]       # stops after the pole
    for args, error in cases:
        if error is None:
            assert hyp2f1(*map(np.array, args)) == hyp2f1(*args)
        else:
            with pytest.raises(error):
                hyp2f1(*map(np.array, args))
    for bad in ((-math.inf, 1.0, 2.0, 0.5), (1.0, math.nan, 2.0, 0.5),
                (1.0, 1.0, -math.inf, 0.5)):
        for args in (bad, (np.array(bad[0]),) + bad[1:]):
            with pytest.raises(DomainError):
                hyp2f1(*args)


def test_hyp2f1_array_broadcasts():
    a = np.linspace(-2.0, 3.0, 6)[:, None]
    x = np.linspace(-0.7, 0.7, 5)
    got = hyp2f1(a, 1.3, 2.1, x)
    assert got.shape == (6, 5)
    assert all(got[i, j] == hyp2f1(float(a[i, 0]), 1.3, 2.1, float(x[j]))
               for i in range(6) for j in range(5))
    assert hyp2f1(np.array(0.4), 1.3, 2.1, 0.5).shape == ()


# --- Jacobi / Gegenbauer ----------------------------------------------------

def test_jacobi_degree_zero_and_one():
    assert jacobi_p(0.7, -0.2, 0, 0.3) == 1.0
    assert jacobi_p(0.0, 0.0, 1, 0.3) == pytest.approx(0.3, rel=1e-15)


def test_jacobi_reflection():
    val = jacobi_p(1.0, 2.0, 3, -0.4)
    assert val == pytest.approx((-1.0) ** 3 * jacobi_p(2.0, 1.0, 3, 0.4),
                                rel=1e-13)


def test_jacobi_p_over_degree_arrays_is_the_per_degree_call_bit_for_bit():
    # one eval_jacobi call at integer degrees: each element as its scalar call
    n = np.arange(9)[:, None, None]
    alpha = np.array([-0.4, 0.5, 2.5, 7.5])[:, None]
    x = np.linspace(-1.0, 1.0, 41)
    for fn in (jacobi_p, jacobi_p_dx):
        grid = fn(alpha, 1.5, n, x)
        assert grid.shape == (9, 4, 41)
        for (i, j, k), val in np.ndenumerate(grid):
            assert val.tobytes() == np.float64(
                fn(float(alpha[j, 0]), 1.5, i, float(x[k]))).tobytes()
        # an integer-valued float degree is taken as the integer
        assert fn(alpha, 1.5, n.astype(float), x).tobytes() == grid.tobytes()
    with pytest.raises(DomainError):
        jacobi_p(0.5, 0.5, np.array([2, -1]), 0.3)
    with pytest.raises(DomainError):
        jacobi_p_dx(0.5, 0.5, np.array([0.0, 1.5]), 0.3)
    with pytest.raises(DomainError):
        jacobi_p(0.5, 0.5, np.inf, 0.3)


def test_jacobi_hypergeometric_form():
    # P_n^{(a,b)}(x) = ((a+1)_n / n!) 2F1(-n, n+a+b+1; a+1; (1-x)/2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = rng.uniform(-0.9, 3.0)
        beta = rng.uniform(-0.9, 3.0)
        n = int(rng.integers(0, 9))
        # keep the 2F1 argument (1-x)/2 below 0.75: near x = -1 the
        # terminating sum cancels catastrophically and tests roundoff,
        # not the identity
        x = rng.uniform(-0.5, 1.0)
        direct = jacobi_p(alpha, beta, n, x)
        hyp = (pochhammer(alpha + 1.0, n) / math.factorial(n)
               * hyp2f1(float(-n), n + alpha + beta + 1.0, alpha + 1.0,
                        (1.0 - x) / 2.0))
        assert direct == pytest.approx(hyp, rel=1e-11, abs=1e-12)


# --- associated Legendre ----------------------------------------------------

def test_assoc_legendre_basics():
    assert assoc_legendre(0, 0, 0.123) == 1.0
    assert assoc_legendre(0, 1, 0.7) == pytest.approx(0.7, rel=1e-15)
    assert assoc_legendre(1, 1, 1.0) == 0.0


def test_assoc_legendre_index_error():
    with pytest.raises(IndexError):
        assoc_legendre(3, 2, 0.5)


def test_assoc_legendre_non_finite_is_a_domain_error():
    # lpmv overflows to inf at |m| near l from l = 86 on, and is nan off [-1, 1]
    with pytest.raises(DomainError, match=r"\(l, m\) = \(86, 86\)"):
        assoc_legendre(86, 86, math.cos(1.0))
    with pytest.raises(DomainError, match=r"\(l, m\) = \(86, -86\)"):
        assoc_legendre(np.array([2, 85, -86]), np.array([3, 85, 86]), 0.3)
    with pytest.raises(DomainError, match=r"\(l, m\) = \(3, 1\)"):
        assoc_legendre(1, 3, np.array([0.5, 2.0]))
    # finite values are lpmv's bits with the Condon-Shortley phase undone
    from scipy.special import lpmv
    from adskg.harmonics import lm_labels
    ls, ms = lm_labels(85)
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    sign = np.where((ms > 0) & (ms % 2 == 1), -1.0, 1.0)
    assert assoc_legendre(ms, ls, x).tobytes() == (sign * lpmv(ms, ls, x)).tobytes()


def test_assoc_legendre_negative_order():
    # P_l^{-m} = (l-m)!/(l+m)! P_l^m in the Condon-Shortley-free convention
    for l, m in ((2, 1), (3, 2), (5, 4)):
        x = 0.31
        scale = math.factorial(l - m) / math.factorial(l + m)
        assert assoc_legendre(-m, l, x) == pytest.approx(
            scale * assoc_legendre(m, l, x), rel=1e-13)


def _sin2_dx(m, l, x):
    """(1 - x^2) d/dx P_l^m(x) = (l+m) P_{l-1}^m - l x P_l^m, for either sign
    of m in the Condon-Shortley-free convention."""
    lower = assoc_legendre(m, l - 1, x) if abs(m) <= l - 1 else 0.0
    return (l + m) * lower - l * x * assoc_legendre(m, l, x)


def test_assoc_legendre_derivative_identity():
    # oracle: central finite difference of (1-x^2) d/dx P
    for l, m in ((1, 0), (3, 2), (4, -3), (5, 5)):
        x, h = 0.42, 1e-6
        fd = (assoc_legendre(m, l, x + h) - assoc_legendre(m, l, x - h)) / (2 * h)
        assert _sin2_dx(m, l, x) == pytest.approx((1 - x * x) * fd, rel=1e-8, abs=1e-9)


def test_assoc_legendre_broadcasts_bit_for_bit():
    l = np.repeat(np.arange(9), 2 * np.arange(9) + 1)
    m = np.arange(l.size) - l * (l + 1)
    x = np.linspace(-0.97, 0.99, 7)
    table = assoc_legendre(m[:, None], l[:, None], x)
    assert table.shape == (l.size, x.size)
    assert np.array_equal(table, [[assoc_legendre(int(mi), int(li), float(xi)) for xi in x]
                                  for li, mi in zip(l, m)])
    with pytest.raises(IndexError):
        assoc_legendre(np.array([0, 1, 3]), np.array([2, 2, 2]), 0.5)
    with pytest.raises(IndexError):
        assoc_legendre(0, np.array([1, -1]), 0.5)


# --- spherical Bessel --------------------------------------------------------

def test_spherical_bessel_j0():
    assert spherical_bessel("J", 0, 0.0) == 1.0
    assert spherical_bessel("J", 3, 0.0) == 0.0
    # oracle: j_0(x) = sin x / x
    assert spherical_bessel("J", 0, 2.0) == pytest.approx(
        0.45464871341284085, rel=1e-14)


def test_spherical_bessel_neumann_domain():
    with pytest.raises(DomainError):
        spherical_bessel("N", 0, 0.0)
    with pytest.raises(DomainError):
        spherical_bessel("Q", 0, 1.0)


def test_spherical_bessel_wronskian():
    # j_l n_l' - n_l j_l' = 1/x^2; derivatives from the recurrence relations
    x = 3.7
    for l in range(6):
        w = (spherical_bessel("J", l, x) * spherical_bessel_dx("N", l, x)
             - spherical_bessel("N", l, x) * spherical_bessel_dx("J", l, x))
        assert w == pytest.approx(1.0 / (x * x), rel=1e-11)


def test_spherical_bessel_wronskian_fd():
    # same Wronskian with finite-difference derivatives (independent oracle)
    x, h = 3.7, 1e-6
    for l in (0, 2, 5):
        djf = (spherical_bessel("J", l, x + h) - spherical_bessel("J", l, x - h)) / (2 * h)
        dnf = (spherical_bessel("N", l, x + h) - spherical_bessel("N", l, x - h)) / (2 * h)
        w = (spherical_bessel("J", l, x) * dnf - spherical_bessel("N", l, x) * djf)
        assert w == pytest.approx(1.0 / (x * x), rel=1e-8)


@pytest.mark.parametrize("kind", ["J", "N"])
@pytest.mark.parametrize("l", [0, 1, 4])
def test_spherical_bessel_ode_residual(kind, l):
    # x^2 f'' + 2 x f' + (x^2 - l(l+1)) f = 0, 5-point finite differences
    h = 1e-3
    worst = 0.0
    scale = 0.0
    for x in np.linspace(0.5, 20.0, 60):
        f = [spherical_bessel(kind, l, x + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        res = x * x * d2 + 2 * x * d1 + (x * x - l * (l + 1)) * f[2]
        worst = max(worst, abs(res))
        scale = max(scale, abs(f[2]))
    assert worst / scale < 1e-6


def test_ufunc_nan_or_fractional_degree_is_domain_error():
    # parameters where the scipy ufunc returns nan, or a non-integer degree
    # it would silently evaluate as a Jacobi function
    with pytest.raises(DomainError):
        jacobi_p(-2.0, -2.0, 3, np.array([0.1, 0.3]))
    with pytest.raises(DomainError):
        jacobi_p(1.0, 1.0, 2.5, 0.3)


@pytest.mark.parametrize("kind", ["J", "N"])
@pytest.mark.parametrize("derivative", [False, True])
def test_spherical_bessel_broadcasts_bit_for_bit(kind, derivative):
    # one scipy call over broadcast (l, x) is each element's scalar call
    from scipy.special import spherical_jn, spherical_yn
    fn = spherical_bessel_dx if derivative else spherical_bessel
    ref = spherical_jn if kind == "J" else spherical_yn
    l = np.arange(8)[:, None]
    x = np.array([1e-3, 0.4, 1.0, 2.5, 7.0, 30.0])
    got = fn(kind, l, x)
    want = [[ref(ll, xx, derivative) for xx in x.tolist()] for ll in range(8)]
    assert got.shape == (8, 6) and got.tobytes() == np.array(want).tobytes()
    # the argument checks hold at every element
    with pytest.raises(DomainError):
        fn(kind, np.array([0, -1]), 1.0)
    with pytest.raises(DomainError):
        fn(kind, 1, np.array([0.5, -0.1 if kind == "J" else 0.0]))
    assert fn("J", np.array([0, 1]), 0.0).tolist() == [spherical_jn(0, 0.0, derivative),
                                                       spherical_jn(1, 0.0, derivative)]

import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_jacobi

from adskg.errors import (CapabilityError, DomainError, ExceptionalBranch,
                          SingularPoint)
from adskg.geometry import kg_residual, make_params
from adskg import modes
from adskg.harmonics import sph_harm
from adskg.memo import counters
from adskg.modes import (RadialKind, SliceLabel, TubeLabel, hyper_params,
                         jacobi_radial, jacobi_radial_fd, magic_frequency,
                         mode_eval, norm_constant, radial_eval,
                         radial_eval_fd, transfer_matrix)

from radial_reference import radial_eval_fd_scalar

ALL_KINDS = (RadialKind.Sa, RadialKind.Sb, RadialKind.Ca, RadialKind.Cb)


# --- hypergeometric parameters --------------------------------------------------

def test_hyper_params_examples(params_m0):
    al, be, ga = hyper_params(RadialKind.Sa, params_m0.delta_plus, 0, params_m0)
    assert al == pytest.approx(0.0)
    _, _, ga = hyper_params(RadialKind.Sa, 1.7, 1, params_m0)
    assert ga == pytest.approx(2.5)
    _, _, gcb = hyper_params(RadialKind.Cb, 1.7, 1, params_m0)
    assert gcb == pytest.approx(-0.5)


def test_hyper_params_integer_nu_capability():
    p = make_params(3, 1.0, 4.0 - 2.25)  # nu = 2 exactly
    assert not p.c_modes_valid
    with pytest.raises(CapabilityError):
        hyper_params(RadialKind.Ca, 1.0, 0, p)
    with pytest.raises(CapabilityError):
        transfer_matrix(1.0, 0, p)
    # S-kind parameters remain available
    hyper_params(RadialKind.Sa, 1.0, 0, p)


@pytest.mark.parametrize("make", [
    lambda: TubeLabel(2.0, 1.5, 0), lambda: TubeLabel(2.0, 1, 0.5),
    lambda: TubeLabel(2.0, math.nan, 0), lambda: SliceLabel(1.5, 1, 0),
    lambda: SliceLabel(1, 2.5, 0), lambda: SliceLabel(1, 2, -0.5),
    lambda: SliceLabel(math.inf, 2, 0)])
def test_mode_labels_reject_non_integers(make):
    # TubeLabel(2.0, 1.5, 0) reached mode_eval and ended in a bare TypeError
    with pytest.raises(IndexError, match="need integers"):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: TubeLabel(1.0, 10 ** 400, 0), "l"), (lambda: TubeLabel(1.0, 1, -10 ** 400), "m"),
    (lambda: SliceLabel(10 ** 400, 0, 0), "n")])
def test_mode_labels_reject_integers_past_the_double_range(make, name):
    # float(10**400) raised a bare OverflowError
    with pytest.raises(IndexError, match=f"need {name} within the double range"):
        make()


def test_mode_labels_take_integer_valued_floats(params_m0):
    point = (0.1, 0.7, 1.0, 2.0)
    assert mode_eval(TubeLabel(2.0, 1.0, -1.0), point, params_m0) \
        == mode_eval(TubeLabel(2.0, 1, -1), point, params_m0)
    assert SliceLabel(2.0, 1.0, 0.0) == SliceLabel(2, 1, 0)


# --- radial evaluation -----------------------------------------------------------

def test_radial_axis_values(params_m0):
    assert radial_eval(RadialKind.Sa, 1.3, 0, 0.0, params_m0) == 1.0
    assert radial_eval(RadialKind.Sa, 1.3, 2, 0.0, params_m0) == 0.0
    with pytest.raises(SingularPoint):
        radial_eval(RadialKind.Sb, 1.3, 0, 0.0, params_m0)


@pytest.mark.parametrize("d, m_sq", [(3, 0.0), (3, -2.0), (3, 1.3),
                                      (5, 0.0), (5, -3.5), (5, 0.7)])
def test_radial_array_equals_scalar_across_cutoffs(d, m_sq):
    # sin^2 = 0.75 at pi/3 and cos^2 = 0.75 at pi/6: radii on both sides of
    # each cutoff, frequencies including magic (terminating) ones
    p = make_params(d, 1.0, m_sq)
    cuts = [np.nextafter(r, r + s) for r in (math.pi / 3, math.pi / 6)
            for s in (-1.0, 0.0, 1.0)]
    rho = np.array(cuts + [0.3, 0.9, 1.167, 1.4])
    omega = np.concatenate([[-4.3, 0.0, 1.7, 6.1, 9.5],
                            [magic_frequency("plus", n, 1, p) for n in range(3)]])
    om, ls, rr = np.meshgrid(omega, np.arange(5), rho, indexing="ij")
    for kind in ALL_KINDS:
        f, df = radial_eval_fd(kind, om, ls, rr, p)
        ref = np.array([radial_eval_fd_scalar((kind,), float(o), int(l), float(r), p)[kind]
                        for o, l, r in zip(om.ravel(), ls.ravel(), rr.ravel())])
        assert f.shape == df.shape == om.shape
        assert f.ravel().tobytes() == ref[:, 0].tobytes()
        assert df.ravel().tobytes() == ref[:, 1].tobytes()
        # a smaller build, with a scalar l
        small = radial_eval_fd(kind, om[:, 0, 0], 2, rr[:, 0, 0], p)
        assert np.array_equal(small, np.array([
            radial_eval_fd_scalar((kind,), float(o), 2, float(r), p)[kind]
            for o, r in zip(om[:, 0, 0], rr[:, 0, 0])]).T)


def test_a_point_of_a_radial_build_is_the_call_at_its_scalars(params_m0):
    # a call on scalars is the build on one point: Python floats, no memo
    # traffic, and the bits of its element in an array call among points of
    # other routes (axis, direct series, terminating series past the
    # cutoff, transfer matrix), in any order
    p = params_m0
    points = [(2.3, 1, 0.0), (2.3, 1, 0.4), (-4.1, 0, math.pi / 3 + 1e-9),
              (6.1, 3, math.pi / 6 - 1e-9), (magic_frequency("plus", 1, 2, p), 2, 1.3),
              (0.7, 2, 1.3), (2.3, 1, 0.9)]
    orders = [list(range(len(points))), list(range(len(points)))[::-1],
              np.random.default_rng(5).permutation(len(points)).tolist()]
    for kinds in ((RadialKind.Sa,), (RadialKind.Sb, RadialKind.Sa),
                  (RadialKind.Ca, RadialKind.Cb), (RadialKind.Cb,)):
        at = [(om, l, rho or 0.2) if kinds != (RadialKind.Sa,) else (om, l, rho)
              for om, l, rho in points]
        for order in orders:
            omega, l, rho = (np.array(col) for col in zip(*[at[i] for i in order]))
            f, df = radial_eval_fd(kinds, omega, l, rho, p)
            for i, (om, ll, r) in enumerate(zip(omega.tolist(), l.tolist(), rho.tolist())):
                before = modes._radial_table.memo.counts()
                one = radial_eval_fd(kinds if len(kinds) > 1 else kinds[0], om, ll, r, p)
                assert modes._radial_table.memo.counts() == before
                if len(kinds) == 1:
                    assert type(one) is tuple and all(type(v) is float for v in one)
                assert np.array(one).tobytes() == np.array([f[..., i], df[..., i]]).tobytes()


def test_radial_array_axis_and_errors(params_m0):
    rho = np.array([0.0, 0.0, 0.0, 0.4] * 5)
    l = np.array([0, 1, 2, 1] * 5)
    f, df = radial_eval_fd(RadialKind.Sa, 2.2, l, rho, params_m0)
    assert f[:3].tolist() == [1.0, 0.0, 0.0] and df[:3].tolist() == [0.0, 1.0, 0.0]
    assert f[3] == radial_eval(RadialKind.Sa, 2.2, 1, 0.4, params_m0)
    for kind in (RadialKind.Sb, RadialKind.Ca):
        with pytest.raises(SingularPoint):
            radial_eval_fd(kind, 2.2, l, rho, params_m0)
    with pytest.raises(DomainError):
        radial_eval_fd(RadialKind.Sa, 2.2, l, rho + 1.2, params_m0)
    f, df = radial_eval_fd(RadialKind.Ca, np.ones((0, 3)), 2, 0.4, params_m0)
    assert f.shape == df.shape == (0, 3)


def test_jacobi_radial_array_equals_scalar(params_m0, params_neg):
    rho = np.linspace(0.01, 1.56, 257)
    for p, branch in ((params_m0, "plus"), (params_neg, "minus")):
        for n, l in ((0, 0), (2, 1), (3, 4)):
            ref = [jacobi_radial(branch, n, l, float(r), p) for r in rho]
            assert jacobi_radial(branch, n, l, rho, p).tobytes() \
                == np.array(ref).tobytes()
            assert jacobi_radial_fd(branch, n, l, rho, p)[0].tobytes() == np.array(ref).tobytes()
        # a broadcast (n, l, rho) grid: each element is its scalar call's
        grid = jacobi_radial(branch, np.arange(4)[:, None, None], np.arange(5)[:, None],
                             rho, p)
        assert grid.shape == (4, 5, rho.size)
        for (n, l, i), val in np.ndenumerate(grid):
            if i % 32 == 0:
                assert val.tobytes() == np.float64(
                    jacobi_radial(branch, n, l, float(rho[i]), p)).tobytes()
        for n in range(4):
            for l in range(5):
                assert grid[n, l].tobytes() == jacobi_radial(branch, n, l, rho, p).tobytes()


def test_radial_ca_boundary_decay(params_m0):
    # cos^{Delta+} prefactor forces C^a -> 0 at the boundary
    val = radial_eval(RadialKind.Ca, 1.7, 1, 1.55, params_m0)
    assert abs(val) < 1e-5
    assert abs(val) > 0.0


def test_radial_switch_continuity(params_m0):
    # both evaluation paths agree at the same point just past the cutoff:
    # the direct series, summed by mpmath past the cutoff, against
    # radial_eval, which routes through the transfer matrix there
    for kind in ALL_KINDS:
        on_sin = kind in (RadialKind.Sa, RadialKind.Sb)
        cut_rho = math.asin(math.sqrt(0.77)) if on_sin else math.acos(math.sqrt(0.77))
        via_transfer = radial_eval(kind, 2.3, 1, cut_rho, params_m0)
        u = (math.sin(cut_rho) if on_sin else math.cos(cut_rho)) ** 2
        pre, _ = modes._prefactor_fd(kind, 1, cut_rho, params_m0)
        direct = pre * float(mp.hyp2f1(*hyper_params(kind, 2.3, 1, params_m0), u))
        assert abs(via_transfer - direct) < 1e-10 * max(1.0, abs(direct))


def test_magic_frequency_values(params_m0, params_neg):
    assert magic_frequency("plus", 0, 0, params_m0) == pytest.approx(3.0)
    assert magic_frequency("plus", 1, 2, params_m0) == pytest.approx(7.0)
    assert magic_frequency("minus", 0, 0, params_neg) == pytest.approx(1.0)


def test_magic_termination_identity(params_m0):
    # S^a at the magic frequency equals the Jacobi mode pointwise,
    # including through the transfer-matrix evaluation region
    for n in range(4):
        for l in range(4):
            om = magic_frequency("plus", n, l, params_m0)
            for rho in (0.15, 0.6, 1.05, 1.35):
                sa = radial_eval(RadialKind.Sa, om, l, rho, params_m0)
                jp = jacobi_radial("plus", n, l, rho, params_m0)
                assert abs(sa - jp) < 1e-10 * max(1.0, abs(jp))


# --- Jacobi radial modes -----------------------------------------------------------

def test_jacobi_radial_examples(params_m0):
    assert jacobi_radial("plus", 0, 0, 0.0, params_m0) == pytest.approx(1.0)
    assert abs(jacobi_radial("plus", 2, 1, 1.57, params_m0)) < 1e-6


def test_jacobi_radial_quarter_pi(params_m0):
    # independent polynomial oracle:
    # P_1^{(a,b)}(x) = (a - b)/2 + (a + b + 2) x / 2, here at x = cos(pi/2) = 0
    a, b = 0.5, 1.5
    p1 = (a - b) / 2.0
    oracle = 1.0 / (1.5) * math.sin(math.pi / 4) ** 0 \
        * math.cos(math.pi / 4) ** 3 * p1  # n!/(l+d/2)_n = 1/(3/2)
    assert jacobi_radial("plus", 1, 0, math.pi / 4, params_m0) == pytest.approx(
        oracle, rel=1e-13)


def test_jacobi_minus_branch(params_neg, params_m0):
    val = jacobi_radial("minus", 1, 1, 0.7, params_neg)
    assert math.isfinite(val)
    with pytest.raises(ExceptionalBranch):
        jacobi_radial("minus", 1, 1, 0.7, params_m0)


def test_jacobi_radial_derivative(params_m0):
    h = 1e-6
    for (n, l) in ((0, 0), (2, 1), (3, 3)):
        f, df = jacobi_radial_fd("plus", n, l, 0.8, params_m0)
        fd = (jacobi_radial("plus", n, l, 0.8 + h, params_m0)
              - jacobi_radial("plus", n, l, 0.8 - h, params_m0)) / (2 * h)
        assert df == pytest.approx(fd, rel=1e-8, abs=1e-10)


# --- normalization constants -----------------------------------------------------

def test_norm_constant_pi_over_32(params_m0):
    # adaptive quadrature oracle of the defining integral; closed form pi/32
    val = norm_constant("plus", 0, 0, params_m0)
    oracle = quad(lambda r: math.tan(r) ** 2
                  * jacobi_radial("plus", 0, 0, r, params_m0) ** 2,
                  0.0, math.pi / 2)[0]
    assert val == pytest.approx(math.pi / 32.0, rel=1e-12)
    assert val == pytest.approx(oracle, rel=1e-10)


def test_norm_constant_positive(params_m0):
    for n in range(6):
        for l in range(6):
            assert norm_constant("plus", n, l, params_m0) > 0.0


def test_norm_constant_vs_quadrature(params_m0):
    for (n, l) in ((1, 1), (3, 2)):
        val = norm_constant("plus", n, l, params_m0)
        oracle = quad(lambda r: math.tan(r) ** 2
                      * jacobi_radial("plus", n, l, r, params_m0) ** 2,
                      0.0, math.pi / 2, limit=200)[0]
        assert val == pytest.approx(oracle, rel=1e-9)


def _scalar_norm(branch, n, l, p):
    """The norm's closed form on Python floats, term for term."""
    nu = p.nu if branch == "plus" else -p.nu
    ga = l + p.d / 2.0
    om = 2.0 * n + l + (p.delta_plus if branch == "plus" else p.delta_minus)
    return math.exp(math.lgamma(n + 1.0) + 2.0 * math.lgamma(ga)
                    + math.lgamma(n + nu + 1.0) - math.lgamma(n + ga)
                    - math.lgamma(n + nu + ga)) / (2.0 * om)


def test_norm_constant_broadcasts_bit_for_bit(params_m0, params_neg):
    n, l = np.meshgrid(np.arange(13), np.arange(11), indexing="ij")
    for p, branch in ((params_m0, "plus"), (params_neg, "plus"), (params_neg, "minus")):
        grid = norm_constant(branch, n, l, p)
        assert grid.shape == (13, 11)
        for (nn, ll), val in np.ndenumerate(grid):
            want = np.float64(_scalar_norm(branch, nn, ll, p)).tobytes()
            assert val.tobytes() == want
            assert np.float64(norm_constant(branch, nn, ll, p)).tobytes() == want
        assert norm_constant(branch, 3, l[0], p).tobytes() == grid[3].tobytes()


def _per_label_jacobi_fd(branch, n, l, rho, p):
    """(J, dJ/drho) at one integer (n, l) on an array rho, term for term the
    per-label formula the broadcast evaluation replaced: libm's lgamma, exp
    and pow, every power at a scalar exponent through Python's pow."""
    nu = p.nu if branch == "plus" else -p.nu
    ex = p.delta_plus if branch == "plus" else p.delta_minus
    ga = l + p.d / 2.0
    alpha = ga - 1.0
    pref = math.exp(math.lgamma(n + 1.0) + math.lgamma(ga) - math.lgamma(n + ga))
    s, c, x = np.sin(rho), np.cos(rho), np.cos(2.0 * rho)
    pw = lambda v, e: np.array([pow(u, e) for u in v.tolist()])
    sl, cex = pw(s, l), pw(c, ex)
    head, pre = pref * sl * cex, sl * cex
    pval = eval_jacobi(n, alpha, nu, x)
    dval = 0.0 if n == 0 else 0.5 * (n + alpha + nu + 1.0) * eval_jacobi(
        n - 1, alpha + 1.0, nu + 1.0, x)
    dval = dval * (-2.0 * np.sin(2.0 * rho))
    if l == 0:
        dpre = -ex * s * pw(c, ex - 1.0)
    else:
        dpre = l * pw(s, l - 1.0) * pw(c, ex + 1.0) - ex * pw(s, l + 1.0) * pw(c, ex - 1.0)
    return head * pval, pref * (dpre * pval + pre * dval)


def test_jacobi_tables_are_the_per_label_formula_bit_for_bit():
    rho = np.r_[0.0, np.random.default_rng(5).uniform(0.0, 1.57, 60), 1e-3]
    n, l = np.meshgrid(np.arange(8), np.arange(9), indexing="ij")
    for msq in (0.0, -2.2, 1.5):
        p = make_params(3, 1.0, msq)
        for branch in ("plus", "minus") if p.exceptional_range else ("plus",):
            f, df = jacobi_radial_fd(branch, n[..., None], l[..., None], rho, p)
            for (nn, ll), _ in np.ndenumerate(n):
                want_f, want_df = _per_label_jacobi_fd(branch, nn, ll, rho, p)
                assert f[nn, ll].tobytes() == want_f.tobytes(), (msq, branch, nn, ll)
                assert df[nn, ll].tobytes() == want_df.tobytes(), (msq, branch, nn, ll)


def test_jacobi_tables_take_the_powers_of_their_own_degrees(params_m0):
    # sin^k at the k = l - 1, l, l + 1 of the labels only, not at every k up
    # to max(l): a degree of 10^6 costs little
    rho = np.array([0.5, 0.7])
    n, l = np.array([[0], [2], [0]]), np.array([[3], [1], [10 ** 6]])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        f, df = jacobi_radial_fd("plus", n, l, rho, params_m0)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2 ** 20
    for i, (nn, ll) in enumerate(zip(n.ravel().tolist(), l.ravel().tolist())):
        want_f, want_df = _per_label_jacobi_fd("plus", nn, ll, rho, params_m0)
        assert f[i].tobytes() == want_f.tobytes() and df[i].tobytes() == want_df.tobytes()


def test_a_point_of_the_jacobi_table_is_the_call_at_its_scalar_rho():
    # numpy's ** over an array can differ in the last bit from the same power
    # at a scalar, so a value must not depend on the array its rho sits in
    rho = np.random.default_rng(3).uniform(0.0, 1.57, 200)
    n, l = np.meshgrid(np.arange(5), np.arange(6), indexing="ij")
    for msq in (0.0, -2.2):
        p = make_params(3, 1.0, msq)
        f, df = jacobi_radial_fd("plus", n[..., None], l[..., None], rho, p)
        for (nn, ll), _ in np.ndenumerate(n):
            for i, r in enumerate(rho.tolist()):
                at_point = np.array(jacobi_radial_fd("plus", nn, ll, r, p))
                assert at_point.tobytes() == np.array((f[nn, ll, i], df[nn, ll, i])).tobytes()


def test_integer_valued_float_labels_take_the_integer_bits(params_m0):
    rho = np.linspace(0.05, 1.5, 31)
    for n, l in ((0, 0), (2, 1), (5, 3)):
        for got, want in zip(jacobi_radial_fd("plus", float(n), float(l), rho, params_m0),
                             jacobi_radial_fd("plus", n, l, rho, params_m0)):
            assert got.tobytes() == want.tobytes()
        assert np.float64(norm_constant("plus", float(n), float(l), params_m0)).tobytes() \
            == np.float64(norm_constant("plus", n, l, params_m0)).tobytes()
    grid = jacobi_radial("plus", np.array([[0.0], [4.0]]), np.array([1.0, 2.0]), 0.7, params_m0)
    assert grid.tobytes() == jacobi_radial("plus", np.array([[0], [4]]), np.array([1, 2]),
                                           0.7, params_m0).tobytes()


@pytest.mark.parametrize("call", [
    lambda p: norm_constant("plus", 2, -1, p),
    lambda p: norm_constant("plus", 1.5, 0, p),
    lambda p: jacobi_radial("plus", 2, -1, 0.3, p),
    lambda p: jacobi_radial_fd("plus", -1, 0, np.array([0.3, 0.6]), p),
    lambda p: jacobi_radial("plus", np.nan, 0, 0.3, p),
    lambda p: norm_constant("plus", np.inf, 1, p),
])
def test_jacobi_family_rejects_non_mode_labels(call, params_m0):
    with pytest.raises(DomainError, match=r"integers n >= 0 and l >= 0"):
        call(params_m0)


def test_jacobi_label_error_names_the_first_bad_pair(params_m0):
    n = np.array([[0, 1, 2], [3, -1, -2]])
    l = np.array([[0, 0, 1], [1, 1, 0]])
    for fn in (lambda: jacobi_radial("plus", n, l, 0.4, params_m0),
               lambda: jacobi_radial_fd("plus", n, l, 0.4, params_m0),
               lambda: norm_constant("plus", n, l, params_m0)):
        with pytest.raises(DomainError, match=r"\(n, l\) = \(-1, 1\)"):
            fn()
    with pytest.raises(DomainError, match=r"\(n, l\) = \(1, 2.5\)"):
        norm_constant("plus", np.arange(3), np.array([0.0, 2.5, -1.0]), params_m0)


@pytest.mark.parametrize("rho", [2.0, -0.3, math.nan, math.pi / 2 + 1e-15])
def test_jacobi_family_rejects_rho_outside_the_closed_quarter_circle(rho):
    # at rho = 2.0 cos rho < 0 and Python's pow to a non-integer Delta+ is
    # complex; at -0.3 a value would come back
    p = make_params(3, 1.0, 0.5)
    for call in (lambda: jacobi_radial("plus", 1, 1, rho, p),
                 lambda: jacobi_radial_fd("plus", 1, 1, np.array([0.4, rho]), p)):
        with pytest.raises(DomainError, match=r"rho in \[0, pi/2\]"):
            call()


def test_jacobi_modes_are_finite_on_both_ends_of_the_radius():
    p = make_params(3, 1.0, 0.5)
    f, df = jacobi_radial_fd("plus", np.arange(3), 1, np.array([[0.0], [math.pi / 2]]), p)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(df))


# --- Wronskians and the transfer matrix ---------------------------------------------

def wronskian(kinds, omega, l, rho, p):
    """The weighted Wronskian of two kinds of one basis at one point, from
    one radial_eval_fd call on both."""
    (fa, fb), (da, db) = radial_eval_fd(kinds, omega, l, rho, p)
    return modes._weighted_wronskian(fa, da, fb, db, rho, p.d)


def test_wronskian_antisymmetry(params_m0):
    assert wronskian((RadialKind.Sa, RadialKind.Sa), 2.3, 1, 0.7, params_m0) == 0.0
    for kinds in ((RadialKind.Sa, RadialKind.Sb), (RadialKind.Ca, RadialKind.Cb)):
        assert wronskian(kinds[::-1], 2.3, 1, 0.7, params_m0) \
            == -wronskian(kinds, 2.3, 1, 0.7, params_m0)


def test_wronskian_constancy(params_m0):
    vals = [wronskian((RadialKind.Sa, RadialKind.Sb), 2.3, 1, rho, params_m0)
            for rho in (0.4, 0.7, 1.0)]
    spread = (max(vals) - min(vals)) / abs(vals[0])
    assert spread < 1e-9


def test_wronskian_constants(params_m0, params_neg, params_pos):
    # the normalization pinned by the momentum-space symplectic factors
    for p in (params_m0, params_neg, params_pos):
        for (om, l) in ((2.3, 0), (1.7, 1), (4.1, 3)):
            w_ss = wronskian((RadialKind.Sa, RadialKind.Sb), om, l, 0.7, p)
            w_cc = wronskian((RadialKind.Ca, RadialKind.Cb), om, l, 0.7, p)
            assert w_ss == pytest.approx(2 * l + p.d - 2, rel=1e-11)
            assert w_cc == pytest.approx(2.0 * p.nu, rel=1e-11)


def test_transfer_matrix_reconstruction(params_m0):
    mat = transfer_matrix(2.3, 1, params_m0)
    for rho in np.linspace(0.3, 1.2, 10):
        sa = radial_eval(RadialKind.Sa, 2.3, 1, float(rho), params_m0)
        ca = radial_eval(RadialKind.Ca, 2.3, 1, float(rho), params_m0)
        cb = radial_eval(RadialKind.Cb, 2.3, 1, float(rho), params_m0)
        assert mat.m11 * ca + mat.m12 * cb == pytest.approx(sa, rel=1e-9)


def test_transfer_matrix_magic_blindness(params_m0):
    mat = transfer_matrix(magic_frequency("plus", 1, 1, params_m0), 1, params_m0)
    assert abs(mat.m12) < 1e-8 * abs(mat.m11)


def test_transfer_matrix_determinant_identity(params_m0):
    for (om, l) in ((2.3, 0), (3.9, 2)):
        mat = transfer_matrix(om, l, params_m0)
        w_cc = wronskian((RadialKind.Ca, RadialKind.Cb), om, l, 0.7, params_m0)
        w_ss = wronskian((RadialKind.Sa, RadialKind.Sb), om, l, 0.7, params_m0)
        det = mat.m11 * mat.m22 - mat.m12 * mat.m21
        assert det * w_cc == pytest.approx(w_ss, rel=1e-8)
        assert mat.det * w_cc == pytest.approx(w_ss, rel=1e-8)


TRANSFER_MASSES = (0.0, -2.0, 0.37, -1.0, 3.0)
TRANSFER_PARAMS = [(3, m_sq) for m_sq in TRANSFER_MASSES] + [(5, -3.5)]
# (|omega| bound, l bound, tolerance relative to the largest entry of a row)
TRANSFER_RANGES = [(40.0, 15, 1e-12), (1000.0, 200, 1e-11)]


def _transfer_draws(rng, om_max, l_max, size=24):
    """Random (omega, l) over the range, its corners, (7.9, 7) and, for the
    large range, (40.1, 15), (80.1, 30) and (150.3, 60)."""
    omega = np.concatenate([rng.uniform(-om_max, om_max, size), [om_max, -om_max, 7.9]])
    l = np.concatenate([rng.integers(0, l_max + 1, size), [l_max, l_max, 7]])
    if om_max >= 150.3:
        omega, l = np.append(omega, [40.1, 80.1, 150.3]), np.append(l, [15, 30, 60])
    return omega, l


def _mp_transfer(omega, l, params):
    """The four entries as 50-digit Gamma ratios of the same double alpha,
    beta, gamma and nu the closed form takes."""
    with mp.workdps(50):
        al, be, ga = (mp.mpf(v) for v in hyper_params(RadialKind.Sa, omega, l, params))
        nu = mp.mpf(params.nu)

        def row(a, b, g):
            return (mp.gamma(g) * mp.gamma(-nu) * mp.rgamma(g - a) * mp.rgamma(g - b),
                    mp.gamma(g) * mp.gamma(nu) * mp.rgamma(a) * mp.rgamma(b))

        (m11, m12), (m21, m22) = row(al, be, ga), row(al - ga + 1, be - ga + 1, 2 - ga)
        return m11, m12, -m21, -m22


@pytest.mark.parametrize("om_max, l_max, tol", TRANSFER_RANGES)
def test_transfer_entries_match_mpmath_gamma_ratios(rng, om_max, l_max, tol):
    worst = 0.0
    for d, m_sq in TRANSFER_PARAMS:
        p = make_params(d, 1.0, m_sq)
        omega, l = _transfer_draws(rng, om_max, l_max)
        got = modes._transfer_entries(omega, l, p, False)
        for i in range(omega.size):
            want = _mp_transfer(float(omega[i]), int(l[i]), p)
            for row in (0, 2):
                scale = max(abs(want[row]), abs(want[row + 1]))
                worst = max(worst, *(float(abs(got[row + c, i] - want[row + c]) / scale)
                                     for c in (0, 1)))
    assert worst <= tol


@pytest.mark.parametrize("om_max, l_max, tol", TRANSFER_RANGES)
def test_transfer_determinant_is_the_closed_form(rng, om_max, l_max, tol):
    for d, m_sq in TRANSFER_PARAMS:
        p = make_params(d, 1.0, m_sq)
        omega, l = _transfer_draws(rng, om_max, l_max, size=200)
        m11, m12, m21, m22 = modes._transfer_entries(omega, l, p, False)
        det = (2 * l + p.d - 2) / (2 * p.nu)
        assert np.max(np.abs(m11 * m22 - m12 * m21 - det) / det) <= tol, m_sq


@pytest.mark.parametrize("m_sq", TRANSFER_MASSES + (1.5, -0.7))
def test_m12_is_exactly_zero_at_a_pole_of_gamma_alpha_or_beta(m_sq):
    """m12 = 0.0 wherever alpha or beta, as hyper_params rounds them, is a
    nonpositive integer: at every +-magic frequency when Delta+ is exact in
    binary.  Otherwise the rounded magic frequency misses the pole by an
    ulp and m12 is that small next to m11."""
    p = make_params(3, 1.0, m_sq)
    for n in range(8):
        for l in range(30):
            magic = magic_frequency("plus", n, l, p)
            for omega in (magic, -magic):
                mat = transfer_matrix(omega, l, p)
                al, be, _ = hyper_params(RadialKind.Sa, omega, l, p)
                if min(al, be) == math.floor(min(al, be)):
                    assert mat.m12 == 0.0, (omega, l)
                else:
                    assert abs(mat.m12) <= 1e-13 * abs(mat.m11), (omega, l)
                    assert m_sq not in (0.0, -2.0)


@pytest.mark.parametrize("m_sq", TRANSFER_MASSES)
def test_scalar_transfer_matrix_is_the_array_closed_form_bit_for_bit(rng, m_sq):
    p = make_params(3, 1.0, m_sq)
    magic = [magic_frequency("plus", n, 3, p) for n in range(3)]
    omega = np.concatenate([rng.uniform(-1000.0, 1000.0, 40), rng.uniform(-9.0, 9.0, 40),
                            magic, [0.0, -0.0]])
    l = np.concatenate([rng.integers(0, 201, 40), rng.integers(0, 8, 40), [3, 3, 3, 0, 1]])
    for inverse in (False, True):
        got = modes._transfer_entries(omega, l, p, inverse)
        for i in range(omega.size):
            mat = transfer_matrix(float(omega[i]), int(l[i]), p)
            mat = mat.inverse() if inverse else mat
            assert [mat.m11, mat.m12, mat.m21, mat.m22] == got[:, i].tolist()


def test_integer_nu_transfer_matrix_raises_and_is_never_cached():
    p = make_params(3, 1.0, 4.0 - 2.25)  # nu = 2 exactly
    for _ in range(2):
        with pytest.raises(CapabilityError, match="transfer matrix undefined"):
            transfer_matrix(2.3, 1, p)
        with pytest.raises(CapabilityError):
            modes._transfer_entries(np.array([2.3, 4.1]), np.array([1, 2]), p, True)


def test_transfer_matrix_is_warning_free_at_extremes_and_poles(params_m0):
    for p in (params_m0, make_params(3, 1.0, 0.37)):
        keys = [(s * 1000.0, 200) for s in (1.0, -1.0)]
        for n in range(4):
            for l in range(4):
                magic = magic_frequency("plus", n, l, p)
                # +-magic: poles of G(alpha), G(beta); then gamma - alpha = -n
                keys += [(magic, l), (-magic, l), (-(2.0 * n + l + p.delta_minus), l)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for om, l in keys:
                mat = transfer_matrix(om, l, p)
                inv = mat.inverse()
                assert all(math.isfinite(v) for v in (mat.m11, mat.m12, mat.m21, mat.m22,
                                                      inv.m11, inv.m12, inv.m21, inv.m22))
    # a pole of G(gamma - alpha) zeros m11 where gamma - alpha rounds to -n
    assert transfer_matrix(-(2.0 + 1 + params_m0.delta_minus), 1, params_m0).m11 == 0.0


def _mp_sa(omega, l, rho, params):
    with mp.workdps(50):
        al, be, ga = (mp.mpf(v) for v in hyper_params(RadialKind.Sa, omega, l, params))
        r = mp.mpf(float(rho))
        return float(mp.sin(r) ** l * mp.cos(r) ** mp.mpf(params.delta_plus)
                     * mp.hyp2f1(al, be, ga, mp.sin(r) ** 2))


@pytest.mark.parametrize("rho, tol", [(1.2, 1e-8), (1.45, 1e-12)])
def test_sa_past_the_cutoff_matches_mpmath_at_omega_80_l_30(params_m0, rho, tol):
    """S^a(80.1, 30) through the transfer matrix, relative to the largest
    |S^a| within 0.05 of rho."""
    scale = max(abs(_mp_sa(80.1, 30, r, params_m0))
                for r in np.linspace(rho - 0.05, rho + 0.05, 21))
    got = radial_eval(RadialKind.Sa, 80.1, 30, rho, params_m0)
    assert abs(got - _mp_sa(80.1, 30, rho, params_m0)) <= tol * scale


# --- the radial-table memo ----------------------------------------------------------------

def _misses_and_hits():
    info = counters("radial_table")["radial_table"]
    return info["misses"], info["hits"]


# sin^2 rho = 0.75 (the S cutoff) at pi/3, cos^2 rho = 0.75 (the C one) at pi/6
_MEMO_RHO = st.sampled_from([0.2, math.pi / 6 - 1e-9, math.pi / 6 + 1e-9, 0.8,
                             math.pi / 3 - 1e-9, math.pi / 3 + 1e-9, 1.3])


@given(kind=st.sampled_from(ALL_KINDS),
       points=st.lists(st.tuples(st.floats(-9.0, 9.0), st.integers(0, 5), _MEMO_RHO),
                       min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
def test_radial_memo_hit_is_bit_identical_to_fresh_call(kind, points):
    p = make_params(3, 1.0, 0.0)
    omega, l, rho = (np.array(col) for col in zip(*points))
    first = radial_eval_fd(kind, omega, l, rho, p)
    before = _misses_and_hits()
    again = radial_eval_fd(kind, omega.copy(), l.copy(), rho.copy(), p)
    assert _misses_and_hits() == (before[0], before[1] + 1)
    assert again is first
    fresh = modes._radial_eval_fd_array((kind,), omega, l, rho, p)[kind]
    for got, want in zip(again, fresh):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_radial_memo_results_are_read_only(params_m0):
    rho = np.linspace(0.1, 1.4, 20)
    for f in radial_eval_fd(RadialKind.Ca, 2.3, 1, rho, params_m0):
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 1.0


def test_radial_memo_never_stores_exceptions(params_m0):
    l = np.arange(20) % 3
    cases = [(RadialKind.Sa, np.full(20, 1.6), DomainError),
             (RadialKind.Sb, np.zeros(20), SingularPoint),
             (RadialKind.Cb, np.zeros(20), SingularPoint)]
    for kind, rho, error in cases:
        for _ in range(3):
            before = _misses_and_hits()
            with pytest.raises(error):
                radial_eval_fd(kind, 2.2, l, rho, params_m0)
            assert _misses_and_hits() == (before[0] + 1, before[1])


def test_radial_memo_misses_on_kind_and_params(params_m0):
    omega, l = np.linspace(-5.0, 5.0, 18), np.arange(18) % 4
    calls = [(RadialKind.Sa, params_m0),
             (RadialKind.Sb, params_m0),
             (RadialKind.Sa, make_params(3, 1.0, -2.0))]
    results = []
    for kind, params in calls:
        before = _misses_and_hits()
        results.append(radial_eval_fd(kind, omega, l, 1.1, params))
        assert _misses_and_hits() == (before[0] + 1, before[1])
    assert len({id(out) for out in results}) == len(calls)


def test_radial_memo_is_bounded_and_skips_oversize_tables(params_m0):
    memo = modes._radial_table.memo
    assert (memo.maxsize, memo.max_elements) == (128, 2048)
    for i in range(memo.maxsize + 10):
        radial_eval_fd(RadialKind.Sa, 1.0 + 0.01 * i, np.arange(3), 0.5, params_m0)
        assert memo.counts()["size"] <= memo.maxsize
    big = np.linspace(0.1, 1.4, memo.max_elements + 1)
    before = memo.counts()
    first = radial_eval_fd(RadialKind.Sa, 2.5, 2, big, params_m0)
    again = radial_eval_fd(RadialKind.Sa, 2.5, 2, big, params_m0)
    assert again is not first and again[0].tobytes() == first[0].tobytes()
    assert not again[0].flags.writeable
    # each oversize call is a miss that stores nothing
    assert memo.counts() == dict(before, misses=before["misses"] + 2)


def test_pointwise_synth_builds_each_table_once(params_m0):
    from adskg.expansions import OmegaGrid, RodRep, TubeRep, synth, synth_drho, synth_dt
    grid = OmegaGrid(0.55, (-3, 1, 4))
    labels = [(k, l, m) for k in grid.indices for l in range(3) for m in (-l, l)]
    rep = TubeRep(grid, {key: (0.3 + 0.1j * i, 0.2 - 0.05 * i)
                         for i, key in enumerate(labels)}, "S")
    rod = RodRep(grid, {key: pair[0] for key, pair in rep.coeffs.items()})
    modes._radial_table.memo.clear()
    point = (0.4, 1.2, 1.1, 2.3)
    for fn in (synth, synth_dt, synth_drho):
        fn(rep, point, params_m0)
    synth(rod, point, params_m0)
    # S^a and S^b, each built once; synth_dt and synth_drho read the point's
    # values back, and the rod's S^a lookup hits
    assert _misses_and_hits() == (2, 1)


# the kinds of a basis, alone or together; rho = 0 (the axis) is drawn for S^a alone
_KIND_TUPLES = st.sampled_from([(RadialKind.Sa, RadialKind.Sb), (RadialKind.Sb, RadialKind.Sa),
                                (RadialKind.Ca, RadialKind.Cb), (RadialKind.Sa,),
                                (RadialKind.Cb,)])
# a magic frequency omega+_{nl} (n drawn, l the point's), where S^a and C^a terminate
_OMEGA = st.one_of(st.floats(-9.0, 9.0), st.integers(0, 3).map(lambda n: ("magic", n)))


@given(kinds=_KIND_TUPLES, msq=st.sampled_from([0.0, -2.2]),
       points=st.lists(st.tuples(_OMEGA, st.integers(0, 5), _MEMO_RHO | st.just(0.0)),
                       min_size=1, max_size=24))
@settings(max_examples=80, deadline=None)
def test_radial_kinds_together_equal_the_per_kind_scalar_calls(kinds, msq, points):
    # the build at 1-48 series against the scalar reference per point;
    # terminating series past the cutoff make the kinds of one point take
    # different routes
    p = make_params(3, 1.0, msq)
    omega = np.array([magic_frequency("plus", om[1], l, p) if isinstance(om, tuple) else om
                      for om, l, _ in points])
    l, rho = (np.array(col) for col in list(zip(*points))[1:])
    if kinds != (RadialKind.Sa,):
        rho[rho == 0.0] = 0.2

    def scalar(kind):
        return np.array([radial_eval_fd_scalar((kind,), float(o), int(ll), float(r), p)[kind]
                         for o, ll, r in zip(omega, l, rho)]).T

    built = modes._radial_eval_fd_array(kinds, omega, l, rho, p)
    assert set(kinds) <= set(built)
    for kind, table in built.items():  # by-product tables included
        assert np.array(table).tobytes() == scalar(kind).tobytes()
    f, df = radial_eval_fd(kinds, omega, l, rho, p)
    assert f.shape == df.shape == (len(kinds), len(points))
    assert np.stack([f, df], axis=1).tobytes() == np.array([scalar(k) for k in kinds]).tobytes()
    at_one = radial_eval_fd(kinds, float(omega[0]), int(l[0]), float(rho[0]), p)
    assert np.array(at_one).tobytes() == np.array([scalar(k)[:, 0] for k in kinds]).T.tobytes()
    other = RadialKind.Cb if kinds[0] in (RadialKind.Sa, RadialKind.Sb) else RadialKind.Sa
    with pytest.raises(ValueError, match="one basis"):
        radial_eval_fd(kinds + (other,), omega, l, rho, p)


@pytest.mark.parametrize("n", [3, 12])  # 6 and 24 series
def test_kinds_together_sum_the_shared_pair_once(params_m0, monkeypatch, n):
    # past the S cutoff S^a and S^b are both rows of M applied to the
    # C^a, C^b series: a joint build sums each of those once per point
    summed = []
    monkeypatch.setattr(modes, "_radial_direct_array", lambda codes, *args,
                        fn=modes._radial_direct_array: (
        summed.extend(modes._KINDS[i] for i in codes.tolist()) or fn(codes, *args)))
    omega, l = 0.91 * np.arange(n) - 4.63, np.arange(n) % 4  # no series terminates
    built = modes._radial_eval_fd_array((RadialKind.Sa, RadialKind.Sb), omega, l,
                                        np.full(n, 1.2), params_m0)
    assert sorted(summed, key=str) == sorted([RadialKind.Ca, RadialKind.Cb] * n, key=str)
    assert set(built) == set(ALL_KINDS)


@pytest.mark.parametrize("first, rho", [("S", 1.2), ("C", 0.3), ("S", 0.3), ("C", 1.2)])
@pytest.mark.parametrize("l_top", [1, 3])  # 4 and 12 blocks: 8 and 24 series
def test_other_basis_at_one_point_sums_no_series(params_m0, monkeypatch, first, rho, l_top):
    # outside the middle band one basis is built from the other's series: the
    # first basis's build stores the other basis's tables, from the series
    # it summed (S past pi/3, C below pi/6) or by the transfer matrix on its
    # own (S below pi/6, C past pi/3), so the second basis's synthesis at
    # the same point sums no series and builds nothing
    from adskg.expansions import OmegaGrid, TubeRep, c_to_s, s_to_c, synth
    grid = OmegaGrid(0.55, (-3, 1, 4))
    labels = [(k, l, m) for k in grid.indices for l in range(l_top + 1) for m in (-l, l)]
    srep = TubeRep(grid, {key: (0.3 + 0.1j * i, 0.2 - 0.05 * i)
                          for i, key in enumerate(labels)}, "S")
    crep = s_to_c(srep, params_m0)
    reps = [srep, crep] if first == "S" else [crep, c_to_s(crep, params_m0)]
    modes._radial_table.memo.clear()
    point = (0.4, rho, 1.1, 2.3)
    synth(reps[0], point, params_m0)
    assert _misses_and_hits() == (2, 0)
    assert modes._radial_table.memo.counts()["size"] == 4
    sums = []
    monkeypatch.setattr(modes, "_radial_direct_array", lambda *args,
                        fn=modes._radial_direct_array: sums.append(args) or fn(*args))
    synth(reps[1], point, params_m0)
    assert not sums
    assert _misses_and_hits() == (2, 2)
    monkeypatch.undo()
    rows, l_need, _ = reps[1].coeffs.blocks(0)
    omega = reps[1].coeffs.js[rows] * grid.d_omega
    kinds = (RadialKind.Sa, RadialKind.Sb) if reps[1].basis == "S" \
        else (RadialKind.Ca, RadialKind.Cb)
    stored = radial_eval_fd(kinds, omega, l_need, rho, params_m0)
    fresh = modes._radial_eval_fd_array(kinds, omega, l_need, np.asarray(rho), params_m0)
    assert np.array(stored).tobytes() == np.array([fresh[k] for k in kinds]).swapaxes(0, 1).tobytes()


# --- values past the double range ------------------------------------------------

# (kind, omega, l, rho) whose f or f' overflows: the 2F1 terms (omega = 1e308),
# sin^l underflowing against an overflowing series, Python's pow raising
# OverflowError for sin^(2-l-d), and the transfer matrix's exp (C^a past its
# cutoff, S^a past its own)
_NOT_FINITE = [(RadialKind.Sa, 1e308, 1, 0.5), (RadialKind.Sa, 1.0, 100000, 0.5),
               (RadialKind.Sb, 1.0, 100000, 0.5), (RadialKind.Ca, 1.0, 100000, 0.5),
               (RadialKind.Sa, 1e308, 1, 1.2), (RadialKind.Cb, 1.0, 100000, 1.2)]


def _not_finite_text(kind, omega, l, rho):
    return (f"{kind.value} or its rho-derivative is not finite at "
            f"(omega, l, rho) = ({omega!r}, {l!r}, {rho!r})")


@pytest.mark.parametrize("kind, omega, l, rho", _NOT_FINITE)
def test_scalar_radial_raises_where_a_value_is_not_finite(params_m0, kind, omega, l, rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (radial_eval, radial_eval_fd):
            with pytest.raises(DomainError) as err:
                call(kind, omega, l, rho, params_m0)
            assert str(err.value) == _not_finite_text(kind, omega, l, rho)


@pytest.mark.parametrize("kind, omega, l, rho", _NOT_FINITE)
def test_array_radial_raises_as_the_scalar_path(params_m0, kind, omega, l, rho):
    # the same exception as the scalar call, naming the first kind asked and
    # the first element that is not finite; nothing is stored, and no
    # RuntimeWarning escapes
    kinds = (kind, RadialKind.Sb) if kind is RadialKind.Sa else (kind,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for at in ([rho], [rho, rho, 0.3], [0.3, rho, rho]):
            first = at.index(rho)
            om = np.where(np.array(at) == rho, omega, 2.3)
            ls = np.where(np.array(at) == rho, l, 1)
            for _ in range(2):
                misses, hits = _misses_and_hits()
                with pytest.raises(DomainError) as err:
                    radial_eval_fd(kinds, om, ls, np.array(at), params_m0)
                assert str(err.value) == _not_finite_text(
                    kind, float(om[first]), int(ls[first]), at[first])
                assert _misses_and_hits() == (misses + len(kinds), hits)


# --- full mode evaluation --------------------------------------------------------------

def test_mode_eval_zero_time(params_m0):
    label = TubeLabel(2.3, 1, 1)
    point = (0.0, 0.7, 1.1, 0.4)
    val = mode_eval(label, point, params_m0, kind=RadialKind.Sa)
    expected = sph_harm(1, 1, 1.1, 0.4) * radial_eval(
        RadialKind.Sa, 2.3, 1, 0.7, params_m0)
    assert val == pytest.approx(expected, rel=1e-13)


def test_mode_eval_conjugation(params_m0):
    label = SliceLabel(1, 2, 1)
    t, rho, th, ph = 0.6, 0.8, 1.0, 2.2
    om = magic_frequency("plus", 1, 2, params_m0)
    val = mode_eval(label, (t, rho, th, ph), params_m0)
    expected = (np.exp(1j * om * t) * np.conj(sph_harm(2, 1, th, ph))
                * jacobi_radial("plus", 1, 2, rho, params_m0))
    assert np.conj(val) == pytest.approx(expected, rel=1e-13)


def test_mode_eval_solves_kg(params_m0):
    label = SliceLabel(2, 1, 0)
    om = magic_frequency("plus", 2, 1, params_m0)
    f = lambda r: jacobi_radial_fd("plus", 2, 1, r, params_m0)
    assert kg_residual(f, om, 1, params_m0, (0.2, 1.2)) < 1e-12


# --- asymptotic behavior ----------------------------------------------------------------

def test_evanescence_positive_mass(params_pos):
    # Delta- < 0: |S^a| grows toward the boundary, |C^a| decays
    rhos = np.linspace(math.pi / 2 - 0.3, math.pi / 2 - 1e-3, 25)
    sa = [abs(radial_eval(RadialKind.Sa, 2.3, 1, float(r), params_pos)) for r in rhos]
    ca = [abs(radial_eval(RadialKind.Ca, 2.3, 1, float(r), params_pos)) for r in rhos]
    assert all(b > a for a, b in zip(sa, sa[1:]))
    assert all(b < a for a, b in zip(ca, ca[1:]))


def test_rescaled_boundary_value_nonnegative_deltaminus(params_neg):
    # Delta- > 0: cos^{-Delta-} S^a approaches a finite limit
    vals = [radial_eval(RadialKind.Sa, 1.3, 0, r, params_neg)
            / math.cos(r) ** params_neg.delta_minus
            for r in (1.45, 1.52, 1.5605)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    assert abs(vals[2] - vals[1]) < 5e-2 * abs(vals[2])


def test_sb_axis_power(params_m0):
    # S^b ~ -rho^{-(l + d - 2)} near the axis
    l = 1
    power = l + params_m0.d - 2
    vals = [radial_eval(RadialKind.Sb, 2.3, l, r, params_m0) * r ** power
            for r in (1e-3, 1e-4)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-4)
    assert abs(vals[1]) > 0.1


def test_scalar_jacobi_radial_is_the_fd_value_bit_for_bit():
    rho = [0.0, 1e-3, 0.3, 0.7854, 1.2, 1.55]
    for msq in (0.0, -2.2, 1.5):
        params = make_params(3, 1.0, msq)
        branches = ("plus", "minus") if params.exceptional_range else ("plus",)
        for branch in branches:
            for n in range(7):
                for l in range(7):
                    want = jacobi_radial_fd(branch, n, l, np.array(rho), params)[0]
                    assert jacobi_radial(branch, n, l, np.array(rho), params).tobytes() \
                        == want.tobytes()
                    for r in rho:
                        got = jacobi_radial(branch, n, l, r, params)
                        assert np.ndim(got) == 0 and np.array(got).tobytes() \
                            == jacobi_radial_fd(branch, n, l, r, params)[0].tobytes()
            # the (n, l) grid in one call, J and dJ/drho, against the calls per label
            n, l = np.meshgrid(np.arange(7), np.arange(7), indexing="ij")
            f, df = jacobi_radial_fd(branch, n[..., None], l[..., None], np.array(rho), params)
            assert jacobi_radial(branch, n[..., None], l[..., None], np.array(rho),
                                 params).tobytes() == f.tobytes()
            for nn, ll in zip(n.ravel().tolist(), l.ravel().tolist()):
                want_f, want_df = jacobi_radial_fd(branch, nn, ll, np.array(rho), params)
                assert f[nn, ll].tobytes() == want_f.tobytes()
                assert df[nn, ll].tobytes() == want_df.tobytes()
                for i, r in enumerate(rho):  # and the points of scalar calls
                    assert f[nn, ll, i].tobytes() == np.float64(
                        jacobi_radial(branch, nn, ll, r, params)).tobytes()
        if not params.exceptional_range:
            with pytest.raises(ExceptionalBranch):
                jacobi_radial("minus", 0, 0, 0.3, params)

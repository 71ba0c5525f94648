import math

import numpy as np
import pytest

from adskg.errors import (BfViolation, BoundaryProximity, DomainError,
                          EvenDimension, WindowError)
from adskg.geometry import (Boost0, BoostD1, Rotation, TimeTranslation,
                            boost_rho_coefficient,
                            bracket_rhs, flat_labels, flat_rescale,
                            flat_unscale, kg_residual, killing_apply,
                            make_params, radial_measure, verify_lie_bracket)
from adskg.modes import RadialKind, jacobi_radial, magic_frequency, radial_eval


def test_make_params_massless():
    p = make_params(3, 1.0, 0.0)
    assert p.nu == pytest.approx(1.5)
    assert p.delta_plus == pytest.approx(3.0)
    assert p.delta_minus == pytest.approx(0.0)
    assert p.c_modes_valid


def test_make_params_exceptional_range():
    p = make_params(3, 1.0, -2.0)
    assert p.nu == pytest.approx(0.5)
    assert p.delta_minus == pytest.approx(1.0)
    assert p.exceptional_range


def test_make_params_bf_violation():
    with pytest.raises(BfViolation):
        make_params(3, 1.0, -2.3)


def test_make_params_even_dimension():
    with pytest.raises(EvenDimension):
        make_params(4, 1.0, 0.0)


@pytest.mark.parametrize("R,m_sq", [(0.0, 0.0), (-0.0, 0.0), (-1.0, 0.0),
                                    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
                                    (1e200, 1.0)])  # m^2 R^2 overflows
def test_make_params_rejects_bad_radius_and_non_finite_mass(R, m_sq):
    with pytest.raises(DomainError):
        make_params(3, R, m_sq)


def test_weight_product_identity():
    # Delta+ Delta- = d^2/4 - nu^2 = -m^2 R^2
    for d in (3, 5, 7):
        for msq in (-1.7, -0.4, 0.0, 2.3, 6.0):
            p = make_params(d, 1.0, msq)
            assert p.delta_plus * p.delta_minus == pytest.approx(
                -msq, rel=1e-12, abs=1e-12)


# --- radial quadrature --------------------------------------------------------

def test_radial_measure_against_adaptive_quad(params_m0):
    from scipy.integrate import quad
    rho, w = radial_measure(params_m0, 96)

    def g(r):
        return math.cos(r) ** 6 * (1.0 + math.sin(r) ** 2)

    oracle = quad(lambda r: math.tan(r) ** 2 * g(r), 0.0, math.pi / 2)[0]
    assert float(np.dot(w, [g(r) for r in rho])) == pytest.approx(
        oracle, rel=1e-12)


def test_radial_measure_is_memoized_read_only(params_m0, monkeypatch):
    from adskg.memo import counters
    before = counters("radial_measure")["radial_measure"]
    rho, w = radial_measure(params_m0, 37)
    again = radial_measure(make_params(3, 1.0, 0.0), 37)
    assert again[0] is rho and again[1] is w
    after = counters("radial_measure")["radial_measure"]
    assert after["hits"] >= before["hits"] + 1 and after["maxsize"] == 16
    for arr in (rho, w):
        assert not arr.flags.writeable
    # a rule of more nodes than the memo's element cap is built each time
    monkeypatch.setattr(radial_measure.memo, "max_elements", 37)
    rho, w = radial_measure(params_m0, 38)
    rho2, w2 = radial_measure(params_m0, 38)
    assert rho2 is not rho and rho2.tobytes() == rho.tobytes()
    assert w2.tobytes() == w.tobytes() and not w2.flags.writeable


# --- Klein-Gordon residual -----------------------------------------------------

def test_kg_residual_sa(params_m0):
    f = lambda r: radial_eval(RadialKind.Sa, 2.3, 1, r, params_m0)
    assert kg_residual(f, 2.3, 1, params_m0, (0.2, 1.2)) < 1e-6


def test_kg_residual_jacobi(params_m0):
    om = magic_frequency("plus", 1, 0, params_m0)
    f = lambda r: jacobi_radial("plus", 1, 0, r, params_m0)
    assert kg_residual(f, om, 0, params_m0, (0.2, 1.2)) < 1e-6


def test_kg_residual_one_call_matches_pointwise_loop(params_m0):
    # reference: the stencil loop, one radial_fn call per radius
    def loop(fn, omega, l, p, a, b, n, h=1e-4):
        worst = scale = 0.0
        for r in np.linspace(a, b, n):
            fm2, fm1, f0 = fn(r - 2 * h), fn(r - h), fn(r)
            fp1, fp2 = fn(r + h), fn(r + 2 * h)
            d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
            d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
            c2, t = math.cos(r) ** 2, math.tan(r)
            res = c2 * d2 + (p.d - 1) / t * d1 + \
                (omega * omega * c2 - l * (l + p.d - 2) / (t * t) - p.msq_r2) * f0
            worst, scale = max(worst, abs(res)), max(scale, abs(f0))
        return worst / scale
    calls = []

    def f(r):
        calls.append(np.shape(r))
        return radial_eval(RadialKind.Sa, 2.3, 1, r, params_m0)

    got = kg_residual(f, 2.3, 1, params_m0, (0.2, 1.2), n_points=12)
    assert calls == [(5, 12)]
    assert got == loop(f, 2.3, 1, params_m0, 0.2, 1.2, 12)


def test_kg_residual_non_solution():
    p = make_params(3, 1.0, 1.0)
    res = kg_residual(lambda r: 1.0, 0.0, 0, p, (0.3, 1.1))
    assert res > 0.1  # order unity for a constructed non-solution


def test_kg_residual_window_error(params_m0):
    with pytest.raises(WindowError):
        kg_residual(lambda r: 1.0, 1.0, 0, params_m0, (0.0, 1.0))


# --- Killing operators ---------------------------------------------------------

def _xi(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_killing_time_translation_phase():
    omega = 2.1

    def fld(t, rho, xi):
        return np.exp(-1j * omega * t) * np.sin(rho) * (1.0 + xi[2])

    pt = (0.3, 0.8, _xi([0.2, 0.5, 0.9]))
    val = killing_apply(TimeTranslation(), fld, pt)
    expected = -1j * omega * fld(*pt)
    assert abs(val - expected) / abs(expected) < 1e-8


def test_killing_time_translation_annihilates_static():
    def fld(t, rho, xi):
        return np.cos(rho) ** 2 * (1.0 + 0.3 * xi[0])

    val = killing_apply(TimeTranslation(), fld, (0.1, 0.7, _xi([1.0, 0.2, 0.1])))
    assert abs(val) < 1e-9


def test_killing_boundary_proximity():
    def fld(t, rho, xi):
        return np.sin(rho)

    with pytest.raises(BoundaryProximity):
        killing_apply(Boost0(3), fld, (0.0, math.pi / 2 - 1e-4, _xi([0, 0, 1.0])))


def test_boost_rho_coefficient_vanishes_on_boundary():
    xi = _xi([0.3, -0.5, 0.8])
    assert boost_rho_coefficient(Boost0(3), 0.7, math.pi / 2, xi) == 0.0
    assert boost_rho_coefficient(BoostD1(3), -1.2, math.pi / 2, xi) == 0.0


# --- Lie brackets ---------------------------------------------------------------

def _test_field(t, rho, xi):
    g = np.exp(-((t - 0.2) ** 2) / 0.5 - ((rho - 0.75) ** 2) / 0.4)
    return g * (1.0 + 0.8 * xi[0] + 0.5 * xi[1] * xi[2]
                + 0.3j * xi[2] + 0.2 * xi[0] * xi[1])


def _points(rng, n=6):
    pts = []
    for _ in range(n):
        t = rng.uniform(-0.4, 0.6)
        rho = rng.uniform(0.45, 1.05)
        xi = rng.normal(size=3)
        pts.append((t, rho, xi / np.linalg.norm(xi)))
    return pts


def test_bracket_same_generator(rng):
    dev = verify_lie_bracket(Boost0(3), Boost0(3), _test_field, _points(rng, 2))
    assert dev == 0.0


def test_bracket_time_rotation(rng):
    # [K_{d+1,0}, K_{jk}] = 0
    dev = verify_lie_bracket(TimeTranslation(), Rotation(1, 2),
                             _test_field, _points(rng, 4))
    assert dev < 1e-5


def test_bracket_boost_pair(rng):
    # [K_{0k}, K_{d+1,j}] = eta_{jk} K_{d+1,0}
    dev = verify_lie_bracket(Boost0(3), BoostD1(3),
                             _test_field, _points(rng, 4))
    assert dev < 1e-5


def test_bracket_rhs_table_entries():
    d = 3
    # [K_{0j}, K_{0k}] = eta_00 K_{kj} = +K_{jk}
    terms = bracket_rhs(Boost0(1), Boost0(2), d)
    assert terms == [(1.0, Rotation(1, 2))]
    # [K_{d+1,0}, K_{0k}] = eta_00 K_{d+1,k} = -K_{d+1,k}
    terms = bracket_rhs(TimeTranslation(), Boost0(2), d)
    assert terms == [(-1.0, BoostD1(2))]
    # [K_{0k}, K_{d+1,j}] = eta_{jk} K_{d+1,0}
    terms = bracket_rhs(Boost0(3), BoostD1(3), d)
    assert terms == [(1.0, TimeTranslation())]
    # [K_{d+1,0}, K_{jk}] = 0
    assert bracket_rhs(TimeTranslation(), Rotation(1, 3), d) == []


# --- flat-limit rescalings -------------------------------------------------------

def test_flat_rescale_roundtrip():
    p = make_params(3, 10.0, 0.0)
    tau, r = flat_rescale(p, 0.1, 0.05)
    assert (tau, r) == (pytest.approx(1.0), pytest.approx(0.5))
    assert flat_unscale(p, tau, r) == (pytest.approx(0.1), pytest.approx(0.05))


def test_flat_labels_threshold():
    p = make_params(3, 1.0, 4.0)  # m^2 R^2 = 4, so omega = 2 sits on threshold
    _, p_r, _ = flat_labels(p, 2.0)
    assert p_r == 0.0


def test_flat_labels_values():
    p = make_params(3, 100.0, 1.0)  # field mass m = 1
    om_t, p_r, p_t = flat_labels(p, 150.0)
    assert om_t == pytest.approx(1.5)
    assert p_t == pytest.approx(math.sqrt(1.5 ** 2 - 1.0), rel=1e-12)
    assert p_t == pytest.approx(1.118033988749895, rel=1e-12)

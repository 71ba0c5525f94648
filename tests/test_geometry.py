import math

import numpy as np
import pytest

from adskg.errors import BfViolation, DomainError, EvenDimension
from adskg.geometry import (Boost0, BoostD1, Rotation, TimeTranslation,
                            bracket_rhs, embed, flat_labels, flat_unscale,
                            generator_matrix, kg_residual, killing_coefficients,
                            make_params, radial_measure)
from adskg.verify import _bracket_errors, _generators, _pushforward
from adskg.modes import RadialKind, jacobi_radial_fd, magic_frequency, radial_eval_fd


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
    f = lambda r: radial_eval_fd(RadialKind.Sa, 2.3, 1, r, params_m0)
    assert kg_residual(f, 2.3, 1, params_m0, (0.2, 1.2)) < 1e-12


def test_kg_residual_jacobi(params_m0):
    om = magic_frequency("plus", 1, 0, params_m0)
    f = lambda r: jacobi_radial_fd("plus", 1, 0, r, params_m0)
    assert kg_residual(f, om, 0, params_m0, (0.2, 1.2)) < 1e-12


def test_kg_residual_matches_a_pointwise_reference():
    # the identity summed point by point on numpy's own Gauss-Legendre rule,
    # for functions that solve no radial equation, so the residual is of
    # order one and roundoff does not hide a wrong weight, sign or term
    def reference(fn, omega, l, p, a, b):
        x, w = np.polynomial.legendre.leggauss(48)
        h = (b - a) / 2
        ends = [math.tan(r) ** (p.d - 1) * fn(r)[1] for r in (a, b)]
        terms = [h * wq * math.tan(r) ** (p.d - 1) * fn(r)[0]
                 * (omega ** 2 - l * (l + p.d - 2) / math.sin(r) ** 2 - p.msq_r2 / math.cos(r) ** 2)
                 for wq, r in zip(w, (a + b) / 2 + h * x)]
        return abs(ends[1] - ends[0] + sum(terms)) / (
            abs(ends[0]) + abs(ends[1]) + sum(map(abs, terms)))
    calls = []

    def fn(r):
        calls.append(np.shape(r))
        return np.exp(r) * np.cos(3 * r), np.exp(r) * (np.cos(3 * r) - 3 * np.sin(3 * r))

    for msq, omega, l, window in ((0.0, 2.3, 1, (0.2, 1.2)), (-2.0, 0.7, 3, (0.05, 1.5)),
                                  (1.0, 4.1, 0, (0.6, 0.9))):
        p = make_params(3, 1.0, msq)
        calls.clear()
        got = kg_residual(fn, omega, l, p, window)
        assert calls == [(50,)]
        assert got == pytest.approx(reference(fn, omega, l, p, *window), rel=1e-12)
        assert 1e-3 < got <= 1.0


def test_kg_residual_sees_errors_below_a_stencil():
    # a 5-point stencil of step 1e-4 reads 1.6e-7 on the clean S^a(2.3, 1),
    # above both errors below; the identity reads 1.1e-15 on it, a relative
    # 1e-9 sin(7 rho) perturbation of f (with its derivative) at 3.8e-9, and
    # f' alone scaled by 1 + 1e-9 at 4.4e-10
    p = make_params(3, 1.0, 0.0)
    clean = lambda r: radial_eval_fd(RadialKind.Sa, 2.3, 1, r, p)

    def wavy(r):
        f, df = clean(r)
        eps = 1e-9 * np.sin(7 * r)
        return f * (1 + eps), df * (1 + eps) + f * 7e-9 * np.cos(7 * r)

    def slope(r):
        f, df = clean(r)
        return f, df * (1 + 1e-9)

    assert kg_residual(clean, 2.3, 1, p, (0.2, 1.2)) < 1e-14
    assert 1e-9 < kg_residual(wavy, 2.3, 1, p, (0.2, 1.2)) < 1e-8
    assert 1e-10 < kg_residual(slope, 2.3, 1, p, (0.2, 1.2)) < 1e-9


def test_kg_residual_non_solution():
    p = make_params(3, 1.0, 1.0)
    res = kg_residual(lambda r: (1.0, 0.0), 0.0, 0, p, (0.3, 1.1))
    assert res > 0.1  # order unity for a constructed non-solution


@pytest.mark.parametrize("window", [(0.0, 1.0), (0.3, math.pi / 2), (1.0, 0.5), (0.5, 0.5),
                                    (math.nan, 1.0)])
def test_kg_residual_window_outside_the_open_interval(params_m0, window):
    with pytest.raises(DomainError, match="window"):
        kg_residual(lambda r: (1.0, 0.0), 1.0, 0, params_m0, window)


# --- Killing fields from the embedding ----------------------------------------------

ETA = np.diag([-1.0, 1.0, 1.0, 1.0, -1.0])


def _random_points(rng, n=50):
    """n points with |t| <= 6, rho in 0.05 .. 1.5 and xi uniform on S^2."""
    xi = rng.normal(size=(3, n))
    return rng.uniform(-6.0, 6.0, n), rng.uniform(0.05, 1.5, n), xi / np.linalg.norm(xi, axis=0)


def test_embed_lands_on_the_hyperboloid(rng):
    x = embed(*_random_points(rng))
    quad = np.einsum("an,ab,bn->n", x, ETA, x)
    # relative to sum |X^A|^2, which grows like 1 / cos^2 rho
    assert np.all(np.abs(quad + 1.0) <= 1e-14 * np.sum(x * x, axis=0))


@pytest.mark.parametrize("gen", _generators(3), ids=repr)
def test_generator_matrix_is_in_so_2_d(gen):
    mat = generator_matrix(gen, 3)
    assert np.array_equal(mat.T @ ETA + ETA @ mat, np.zeros((5, 5)))
    assert np.count_nonzero(mat) == 2


@pytest.mark.parametrize("gen", _generators(3), ids=repr)
def test_killing_coefficients_are_the_pushforward_of_the_generator(gen, rng):
    t, rho, xi = _random_points(rng)
    want = _pushforward(generator_matrix(gen, 3) @ embed(t, rho, xi), t, rho, xi)
    for got, pushed in zip(killing_coefficients(gen, t, rho, xi), want):
        assert np.max(np.abs(got - pushed)) <= 1e-13


def test_the_thirteen_generators_at_d_3():
    gens = _generators(3)
    assert len(gens) == len(set(gens)) == 13
    assert np.array_equal(generator_matrix(Rotation(2, 1), 3), -generator_matrix(Rotation(1, 2), 3))


def test_killing_coefficients_broadcast(rng):
    t, rho, xi = _random_points(rng, 7)
    for gen in _generators(3):
        c_t, c_rho, v = killing_coefficients(gen, t, rho, xi)
        assert c_t.shape == c_rho.shape == (7,) and v.shape == (3, 7)
        # one point at a time gives the same bits
        c_t0, c_rho0, v0 = killing_coefficients(gen, t[2], rho[2], xi[:, 2])
        assert (c_t0, c_rho0) == (c_t[2], c_rho[2]) and np.array_equal(v0, v[:, 2])
    with pytest.raises(TypeError):
        killing_coefficients("K", 0.1, 0.5, xi[:, 0])


def test_pushforward_of_a_nan_coefficient_fails_its_check(monkeypatch):
    import adskg.geometry as geo
    from adskg.verify import suite_geometry
    fine = geo.killing_coefficients
    monkeypatch.setattr(geo, "killing_coefficients", lambda gen, *args: (
        (np.nan * fine(gen, *args)[0], *fine(gen, *args)[1:]) if gen == BoostD1(2)
        else fine(gen, *args)))
    passed = {c.name: c.passed for c in suite_geometry()}
    assert not passed["killing_pushforward[13 generators, 50 pts]"]
    assert passed["bracket_matrices[156 pairs]"]


def test_bracket_table_is_minus_the_matrix_commutator():
    errs = _bracket_errors()
    assert len(errs) == 156 and max(errs) == 0.0


@pytest.mark.parametrize("gen", _generators(3), ids=repr)
def test_killing_coefficients_preserve_the_embedding_interval(gen, rng):
    # an isometry keeps eta(X(p), X(q)); along the field, by central
    # differences of embed at each of two points, both off the generator matrix
    t, rho, xi = _random_points(rng, 2)
    s = 1e-6

    def moved(i, sign):
        c_t, c_rho, v = killing_coefficients(gen, t[i], rho[i], xi[:, i])
        return embed(t[i] + sign * s * c_t, rho[i] + sign * s * c_rho, xi[:, i] + sign * s * v)

    x = [embed(t[i], rho[i], xi[:, i]) for i in range(2)]
    dx = [(moved(i, 1.0) - moved(i, -1.0)) / (2.0 * s) for i in range(2)]
    rate = dx[0] @ ETA @ x[1] + x[0] @ ETA @ dx[1]
    assert abs(rate) <= 1e-7 * np.linalg.norm(x[0]) * np.linalg.norm(x[1])


def test_pushforward_inverts_the_embedding_jacobian():
    # d/ds embed(t + s c_t, rho + s c_rho, xi + s v) for a known (c_t, c_rho, v)
    t, rho, xi, s = 0.4, 0.9, np.array([0.0, 0.6, 0.8]), 1e-6
    c_t, c_rho, v = 0.3, -0.7, np.array([0.5, 0.24, -0.18])  # v . xi = 0
    move = lambda s: embed(t + s * c_t, rho + s * c_rho, xi + s * v)
    got = _pushforward((move(s) - move(-s)) / (2.0 * s), t, rho, xi)
    assert np.allclose(np.r_[got[0], got[1], got[2]], np.r_[c_t, c_rho, v], atol=1e-8)


def test_boost_rho_coefficient_vanishes_on_boundary():
    xi = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
    assert killing_coefficients(Boost0(3), 0.7, math.pi / 2, xi)[1] == 0.0
    assert killing_coefficients(BoostD1(3), -1.2, math.pi / 2, xi)[1] == 0.0


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

def test_flat_unscale_divides_by_the_radius():
    p = make_params(3, 10.0, 0.0)
    assert flat_unscale(p, 1.0, 0.5) == (pytest.approx(0.1), pytest.approx(0.05))


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

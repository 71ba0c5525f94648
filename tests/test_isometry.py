import io
import math

import numpy as np
import pytest

from adskg.errors import UnsupportedDimension, WindowOverflow
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep,
                              slice_to_tube, synth)
from adskg.geometry import (Boost0, BoostD1, Rotation, TimeTranslation,
                            make_params)
from adskg.harmonics import EulerAngles, contiguous_coeffs, rotate_angles
from adskg.isometry import (_SLICE_BRANCHES, _TUBE_BRANCHES, BoostCoeffTable, act_boost,
                            act_rotation, act_time_translation,
                            boost_generator_apply, extract_boost_coeffs,
                            invariance_suite, rotation_mixing)
from adskg.modes import magic_frequency, norm_constant
from adskg.symplectic import omega_slice_momentum, omega_tube_momentum

P = make_params(3, 1.0, 0.0)


def _slice_rep():
    return SliceRep({
        (1, 1, 0): (0.8 + 0.2j, 0.3 - 0.4j),
        (0, 2, 1): (0.5j, 0.6),
        (2, 0, 0): (0.3, 0.1j),
    })


def _tube_rep():
    grid = OmegaGrid(1.0, tuple(range(-6, 7)))
    return TubeRep(grid, {
        (3, 1, 0): (0.7, 0.2j),
        (-2, 1, 1): (0.4j, 0.5),
        (4, 0, 0): (0.6 - 0.1j, 0.3),
    }, "S")


# --- time translations -----------------------------------------------------------

def test_time_translation_identity():
    rep = _tube_rep()
    out = act_time_translation(rep, 0.0, P)
    assert out.coeffs == rep.coeffs


def test_time_translation_composition():
    rep = _slice_rep()
    one = act_time_translation(act_time_translation(rep, 0.3, P), 0.45, P)
    two = act_time_translation(rep, 0.75, P)
    for key in rep.coeffs:
        assert one.coeffs[key][0] == pytest.approx(two.coeffs[key][0], rel=1e-13)
        assert one.coeffs[key][1] == pytest.approx(two.coeffs[key][1], rel=1e-13)


def test_time_translation_pullback(rng):
    rep = _tube_rep()
    dt = 0.37
    out = act_time_translation(rep, dt, P)
    for _ in range(6):
        point = (rng.uniform(0, 3), rng.uniform(0.3, 1.2),
                 rng.uniform(0.3, 2.8), rng.uniform(0, 6.2))
        lhs = synth(out, point, P)
        rhs = synth(rep, (point[0] - dt, *point[1:]), P)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_time_translation_pullback_slice(rng):
    rep = _slice_rep()
    dt = -0.52
    out = act_time_translation(rep, dt, P)
    for _ in range(6):
        point = (rng.uniform(0, 3), rng.uniform(0.2, 1.2),
                 rng.uniform(0.3, 2.8), rng.uniform(0, 6.2))
        assert synth(out, point, P) == pytest.approx(
            synth(rep, (point[0] - dt, *point[1:]), P), rel=1e-10, abs=1e-12)


# --- rotations --------------------------------------------------------------------

def test_rotation_identity():
    rep = _slice_rep()
    out = act_rotation(rep, EulerAngles(0.0, 0.0, 0.0), P)
    for key, (p, q) in rep.coeffs.items():
        assert out.coeffs[key][0] == pytest.approx(p, rel=1e-13)
        assert out.coeffs[key][1] == pytest.approx(q, rel=1e-13)


def test_rotation_norm_preservation():
    rep = _slice_rep()
    angles = EulerAngles(0.9, 0.4, -1.2)
    out = act_rotation(rep, angles, P)

    def block_norms(r):
        norms = {}
        for (n, l, m), (p, q) in r.coeffs.items():
            acc = norms.get((n, l), 0.0)
            norms[(n, l)] = acc + abs(p) ** 2 + abs(q) ** 2
        return norms

    before, after = block_norms(rep), block_norms(out)
    for key in before:
        assert after[key] == pytest.approx(before[key], rel=1e-12)


def test_rotation_pullback_tube(rng):
    rep = _tube_rep()
    angles = EulerAngles(0.7, 0.5, -0.4)
    out = act_rotation(rep, angles, P)
    inv = EulerAngles(-angles.gamma, -angles.beta, -angles.alpha)
    for _ in range(6):
        t = rng.uniform(0, 3)
        rho = rng.uniform(0.3, 1.2)
        th = rng.uniform(0.3, 2.8)
        ph = rng.uniform(0, 2 * math.pi)
        thr, phr = rotate_angles(inv, th, ph)
        lhs = synth(out, (t, rho, th, ph), P)
        rhs = synth(rep, (t, rho, float(thr), float(phr)), P)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def test_rotation_pullback_slice(rng):
    rep = _slice_rep()
    angles = EulerAngles(-0.3, 0.8, 0.5)
    out = act_rotation(rep, angles, P)
    inv = EulerAngles(-angles.gamma, -angles.beta, -angles.alpha)
    for _ in range(6):
        t = rng.uniform(0, 3)
        rho = rng.uniform(0.2, 1.2)
        th = rng.uniform(0.3, 2.8)
        ph = rng.uniform(0, 2 * math.pi)
        thr, phr = rotate_angles(inv, th, ph)
        lhs = synth(out, (t, rho, th, ph), P)
        rhs = synth(rep, (t, rho, float(thr), float(phr)), P)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def test_rotation_preserves_reality(rng):
    grid = OmegaGrid(1.0, tuple(range(-5, 6)))
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    rep = TubeRep(grid, {(3, 2, 1): (a, b), (-3, 2, -1): (np.conj(a), np.conj(b))}, "S")
    assert rep.is_real()
    out = act_rotation(rep, EulerAngles(1.1, 0.6, 0.2), P)
    assert out.is_real(tol=1e-12)


def test_rotation_unsupported_dimension():
    p5 = make_params(5, 1.0, 0.0)
    with pytest.raises(UnsupportedDimension):
        act_rotation(_slice_rep(), EulerAngles(0.1, 0.2, 0.3), p5)


# --- boost coefficient extraction ---------------------------------------------------

@pytest.fixture(scope="module")
def tube_table():
    grid_k = tuple(range(-8, 9))
    return extract_boost_coeffs("tube", BoostD1(3), (grid_k, 1.0, 4), P)


@pytest.fixture(scope="module")
def slice_table():
    return extract_boost_coeffs("slice", BoostD1(3), (4, 4), P)


def test_extraction_leakage_small(tube_table, slice_table):
    assert tube_table.max_leakage < 1e-6
    assert slice_table.max_leakage < 1e-6


def test_out_of_range_coefficients_vanish(tube_table, slice_table):
    # l = 0 lowering channels and n = -1 targets are structurally zero
    assert tube_table.entries[(2, 0)]["a"]["ztpm"] == 0.0
    assert tube_table.entries[(2, 0)]["b"]["zmm"] == 0.0
    assert slice_table.entries[(0, 0)]["z0m"] == 0.0
    assert slice_table.entries[(0, 2)]["zmp"] == 0.0  # target n = -1


def test_generators_give_same_table():
    win = ((2, 3), 1.0, 2)
    t1 = extract_boost_coeffs("tube", BoostD1(3), win, P)
    t2 = extract_boost_coeffs("tube", Boost0(3), win, P)
    for key in t1.entries:
        for ch in ("a", "b"):
            for br, val in t1.entries[key][ch].items():
                assert t2.entries[key][ch][br] == pytest.approx(val, rel=1e-10,
                                                                abs=1e-12)


def test_tube_identities(tube_table):
    # the four equalities behind hypercylinder boost invariance
    d = 3
    for k in range(-3, 4):
        om = float(k)
        for l in range(0, 3):
            zt_pm = tube_table.entries[(k - 1, l + 1)]["a"]["ztpm"]
            z_mp = tube_table.entries[(k, l)]["b"]["zmp"]
            assert zt_pm == pytest.approx((2 * l + d) / (2 * l + d - 2) * z_mp,
                                          rel=1e-8, abs=1e-10)
            if l >= 1:
                zt_pp = tube_table.entries[(k - 1, l - 1)]["a"]["ztpp"]
                z_mm = tube_table.entries[(k, l)]["b"]["zmm"]
                assert zt_pp == pytest.approx(
                    (2 * l + d - 4) / (2 * l + d - 2) * z_mm, rel=1e-8, abs=1e-10)
            z_mm_a = tube_table.entries[(k + 1, l + 1)]["a"]["zmm"]
            zt_pp_b = tube_table.entries[(k, l)]["b"]["ztpp"]
            assert z_mm_a == pytest.approx((2 * l + d) / (2 * l + d - 2) * zt_pp_b,
                                           rel=1e-8, abs=1e-10)
            if l >= 1:
                z_mp_a = tube_table.entries[(k + 1, l - 1)]["a"]["zmp"]
                zt_pm_b = tube_table.entries[(k, l)]["b"]["ztpm"]
                assert z_mp_a == pytest.approx(
                    (2 * l + d - 4) / (2 * l + d - 2) * zt_pm_b, rel=1e-8, abs=1e-10)


def test_slice_identities(slice_table):
    # w N z^{0-}_{n,l+1} = w' N' zt^{0+}_{nl} and the (n+1, l-1) analogue
    for n in range(0, 3):
        for l in range(0, 3):
            lhs = (magic_frequency("plus", n, l, P) * norm_constant("plus", n, l, P)
                   * slice_table.entries[(n, l + 1)]["z0m"])
            rhs = (magic_frequency("plus", n, l + 1, P)
                   * norm_constant("plus", n, l + 1, P)
                   * slice_table.entries[(n, l)]["zt0p"])
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)
            if l >= 1:
                lhs = (magic_frequency("plus", n, l, P)
                       * norm_constant("plus", n, l, P)
                       * slice_table.entries[(n + 1, l - 1)]["zmp"])
                rhs = (magic_frequency("plus", n + 1, l - 1, P)
                       * norm_constant("plus", n + 1, l - 1, P)
                       * slice_table.entries[(n, l)]["ztpm"])
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


# --- boost action ----------------------------------------------------------------------

def test_act_boost_epsilon_zero(tube_table):
    rep = _tube_rep()
    out = act_boost(rep, BoostD1(3), 0.0, tube_table, P)
    for key, val in rep.coeffs.items():
        assert out.coeffs[key] == val


def test_boost_window_overflow(tube_table):
    grid = OmegaGrid(1.0, tuple(range(-20, 21)))
    rep = TubeRep(grid, {(15, 1, 0): (1.0, 0.0)}, "S")
    with pytest.raises(WindowOverflow):
        boost_generator_apply(rep, BoostD1(3), tube_table, P)


def test_z_generator_single_sided_shift(slice_table):
    # K_{0d} + i K_{d+1,d} shifts every label's frequency the same way:
    # for a single-mode rep the output must live on a single frequency side
    rep = SliceRep({(2, 1, 0): (1.0, 0.0)})
    k0 = boost_generator_apply(rep, Boost0(3), slice_table, P)
    kd = boost_generator_apply(rep, BoostD1(3), slice_table, P)
    om0 = magic_frequency("plus", 2, 1, P)
    up, down = 0.0, 0.0
    for (n, l, m) in set(k0.coeffs) | set(kd.coeffs):
        z_val = k0.coeff(n, l, m)[0] + 1j * kd.coeff(n, l, m)[0]
        om = magic_frequency("plus", n, l, P)
        if om > om0:
            up = max(up, abs(z_val))
        else:
            down = max(down, abs(z_val))
    assert down > 1e-3          # one side carries the action ...
    assert up < 1e-8 * down     # ... the other is empty


def _boost_flow(eps, t, rho, xi, n_steps=64):
    """Integral curve of K_{d+1,d} from (t, rho, xi), RK4."""
    def rhs(state):
        tt, rr = state[0], state[1]
        x = state[2:]
        dt = -x[2] * math.sin(tt) * math.sin(rr)
        dr = x[2] * math.cos(tt) * math.cos(rr)
        tang = (math.cos(tt) / math.sin(rr)) * (np.eye(3)[2] - x[2] * x)
        return np.concatenate(([dt, dr], tang))

    state = np.concatenate(([t, rho], xi))
    h = eps / n_steps
    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        state[2:] /= np.linalg.norm(state[2:])
    return state[0], state[1], state[2:]


def test_boost_pullback_linearization(tube_table):
    # synth(rep + eps K|>rep)(x) agrees with synth(rep)(flow_{-eps}(x)) up
    # to O(eps^2): Richardson ratio between eps = 1e-3 and 1e-4 ~ 100
    rep = _tube_rep()
    gen = BoostD1(3)
    t0, rho0, th0, ph0 = 0.45, 0.8, 1.15, 0.7
    xi0 = np.array([math.sin(th0) * math.cos(ph0),
                    math.sin(th0) * math.sin(ph0), math.cos(th0)])
    errs = []
    for eps in (1e-3, 1e-4):
        moved = act_boost(rep, gen, eps, tube_table, P)
        lhs = synth(moved, (t0, rho0, th0, ph0), P)
        tf, rf, xf = _boost_flow(-eps, t0, rho0, xi0)
        thf = math.acos(max(-1.0, min(1.0, xf[2])))
        phf = math.atan2(xf[1], xf[0])
        rhs_val = synth(rep, (tf, rf, thf, phf), P)
        errs.append(abs(lhs - rhs_val))
    ratio = errs[0] / errs[1]
    assert 80.0 <= ratio <= 120.0


def test_boost_preserves_reality_pairing(tube_table, rng):
    grid = OmegaGrid(1.0, tuple(range(-6, 7)))
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    rep = TubeRep(grid, {(3, 1, 1): (a, b), (-3, 1, -1): (np.conj(a), np.conj(b))}, "S")
    out = boost_generator_apply(rep, BoostD1(3), tube_table, P)
    # K_{d+1,d} is a real generator: K|>rep of a real rep stays real
    assert out.is_real(tol=1e-8)


def test_boost_commutes_with_jacobi_inclusion(slice_table, tube_table):
    # boosting the slice rep then including into the tube equals including
    # then boosting with the tube table, on the magic-frequency grid
    rep = _slice_rep()
    grid = OmegaGrid(1.0, tuple(range(-8, 9)))
    for gen in (BoostD1(3), Boost0(3)):
        lhs = slice_to_tube(boost_generator_apply(rep, gen, slice_table, P),
                            grid, P)
        rhs = boost_generator_apply(slice_to_tube(rep, grid, P), gen,
                                    tube_table, P)
        keys = set(lhs.coeffs) | set(rhs.coeffs)
        for key in keys:
            la, lb = lhs.coeff(*key)
            ra, rb = rhs.coeff(*key)
            assert la == pytest.approx(ra, rel=1e-6, abs=1e-8)
            assert abs(lb) < 1e-10 and abs(rb) < 1e-10


# --- invariance suite --------------------------------------------------------------------

def test_invariance_time_translation_tube():
    reps = [_tube_rep(),
            TubeRep(_tube_rep().grid, {(3, 1, 0): (0.1, 0.9j),
                                       (-3, 1, 0): (0.2j, 0.4),
                                       (-4, 0, 0): (0.5, 0.6)}, "S")]
    viol = invariance_suite(omega_tube_momentum, reps, TimeTranslation(), P)
    assert viol < 1e-9


def test_invariance_rotation_slice():
    reps = [_slice_rep(),
            SliceRep({(1, 1, 1): (0.4, 0.2j), (0, 3, -2): (0.7j, 0.1),
                      (2, 2, 0): (0.2, 0.5)})]
    viol = invariance_suite(omega_slice_momentum, reps, Rotation(1, 2), P,
                            angles=EulerAngles(0.5, 1.0, -0.7))
    assert viol < 1e-8


def test_invariance_rotation_tube():
    reps = [_tube_rep()]
    viol = invariance_suite(omega_tube_momentum, reps, Rotation(2, 3), P,
                            angles=EulerAngles(-0.2, 0.65, 0.31))
    assert viol < 1e-8


def test_invariance_boost_slice(slice_table):
    reps = [_slice_rep(),
            SliceRep({(1, 2, 1): (0.3, 0.8j), (2, 1, -1): (0.6j, 0.2),
                      (0, 0, 0): (1.0, 0.4)})]
    for gen in (Boost0(3), BoostD1(3)):
        viol = invariance_suite(omega_slice_momentum, reps, gen, P,
                                table=slice_table)
        assert viol < 1e-6


def test_invariance_boost_tube(tube_table):
    grid = _tube_rep().grid
    reps = [_tube_rep(),
            TubeRep(grid, {(2, 1, 0): (0.5, 0.1j), (-2, 1, 0): (0.3j, 0.7),
                           (3, 2, -1): (0.2, 0.4), (-3, 2, 1): (0.6, 0.05j)}, "S")]
    for gen in (Boost0(3), BoostD1(3)):
        viol = invariance_suite(omega_tube_momentum, reps, gen, P,
                                table=tube_table)
        assert viol < 1e-6


# --- table export ---------------------------------------------------------------------------

def test_table_csv_export(slice_table):
    buf = io.StringIO()
    slice_table.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "kind,channel,k_or_n,l,value"
    assert all(ln.startswith("slice,") for ln in lines[1:])
    assert len(lines) == 1 + 4 * len(slice_table.entries)


def test_projection_residual_triggered():
    from adskg.errors import ProjectionResidual
    with pytest.raises(ProjectionResidual):
        extract_boost_coeffs("tube", BoostD1(3), ((2,), 1.0, 1), P,
                             leak_tol=0.0)


# --- the per-label loops the array maps replaced, kept as references -----------------

def _assert_same(got, want: dict, bits: bool):
    """got (a rep) has exactly want's labels, and its values are want's bit
    for bit, or within 1e-14 of want's largest coefficient."""
    assert sorted(got.coeffs) == sorted(want)
    g, w = (np.array([np.atleast_1d(d[key]) for key in sorted(want)], dtype=complex)
            for d in (got.coeffs, want))
    if bits:
        assert g.tobytes() == w.tobytes()
    else:
        assert np.max(np.abs(g - w), initial=0.0) <= 1e-14 * np.max(np.abs(w), initial=0.0)


def _random_reps(rng, k_max=5, n_max=3, l_max=3, size=30):
    """A tube, a rod and a slice rep of random labels in random insertion
    order, each with one explicit zero label."""
    def draw(lo, hi):
        keys = {(int(rng.integers(lo, hi + 1)), l, int(rng.integers(-l, l + 1)))
                for l in rng.integers(0, l_max + 1, size=size).tolist()}
        keys = sorted(keys, key=lambda _: rng.random())
        vals = {key: (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
                for key in keys}
        vals[keys[0]] = (0j, 0j)
        return vals

    tube = draw(-k_max, k_max)
    grid = OmegaGrid(1.0, tuple(range(-k_max - 1, k_max + 2)))
    return (TubeRep(grid, tube, "S"), RodRep(grid, {k: v[0] for k, v in tube.items()}),
            SliceRep(draw(0, n_max)))


def _loop_time_translation(rep, delta_t):
    if isinstance(rep, SliceRep):
        out = {}
        for (n, l, m), (p, q) in rep.coeffs.items():
            om = magic_frequency("plus", n, l, P)
            out[(n, l, m)] = (p * np.exp(1j * om * delta_t),
                              q * np.exp(-1j * om * delta_t))
        return out
    if isinstance(rep, RodRep):
        return {key: a * np.exp(1j * rep.grid.omega(key[0]) * delta_t)
                for key, a in rep.coeffs.items()}
    out = {}
    for (k, l, m), (a, b) in rep.coeffs.items():
        phase = np.exp(1j * rep.grid.omega(k) * delta_t)
        out[(k, l, m)] = (a * phase, b * phase)
    return out


def _loop_rotation(rep, angles):
    mix, out = {}, {}
    for (j, l) in dict.fromkeys(key[:2] for key in rep.coeffs):
        if l not in mix:
            mix[l] = rotation_mixing(l, angles)
        x = mix[l]
        ms = range(-l, l + 1)
        vals = np.array([rep.coeff(j, l, m) for m in ms])
        if isinstance(rep, SliceRep):  # the conj(phi^-) channel rotates by conj(X)
            rotated = np.stack([x @ vals[:, 0], np.conj(x) @ vals[:, 1]], axis=1)
        else:
            rotated = x @ vals
        for mp, val in zip(ms, rotated):
            if np.any(val != 0.0):
                out[(j, l, mp)] = tuple(val) if val.ndim else val
    return out


def _kappa(l, m, s_l):
    km, kp, _, _ = contiguous_coeffs(3, l, m)
    return km if s_l < 0 else kp


def _loop_boost(rep, generator, table):
    is_0d = isinstance(generator, Boost0)

    def weight(s_om):
        return 0.5j if is_0d else (0.5 if s_om < 0 else -0.5)

    out: dict = {}
    if isinstance(rep, SliceRep):
        for (n, l, m), (p, q) in rep.coeffs.items():
            block = table.entries[(n, l)]
            for (s_om, s_l), name in _SLICE_BRANCHES.items():
                z = block[name]
                if z == 0.0:
                    continue
                om0 = magic_frequency("plus", n, l, P)
                l_t = l + s_l
                n_t = round((om0 + s_om - l_t - P.delta_plus) / 2.0)
                if l_t < 0 or n_t < 0 or abs(m) > l_t:
                    continue
                zfull = _kappa(l, m, s_l) * z
                w = weight(s_om)
                wq = -w if is_0d else w
                acc = out.get((n_t, l_t, m), (0j, 0j))
                out[(n_t, l_t, m)] = (acc[0] + w * zfull * p, acc[1] + wq * zfull * q)
        return out
    step = round(1.0 / rep.grid.d_omega)
    for (k, l, m), (a, b) in rep.coeffs.items():
        block = table.entries[(k, l)]
        for (s_om, s_l), name in _TUBE_BRANCHES.items():
            l_t = l + s_l
            if l_t < 0 or abs(m) > l_t:
                continue
            kap, w = _kappa(l, m, s_l), weight(s_om)
            key = (k + s_om * step, l_t, m)
            acc = out.get(key, (0j, 0j))
            out[key] = (acc[0] + w * kap * block["a"][name] * a,
                        acc[1] + w * kap * block["b"][name] * b)
    return out


def _loop_act_boost(rep, delta: dict, epsilon):
    out = dict(rep.coeffs)
    for key, val in delta.items():
        acc = out.get(key, (0j, 0j))
        out[key] = (acc[0] + epsilon * val[0], acc[1] + epsilon * val[1])
    return out


def test_time_translation_equals_per_label_loop(rng):
    # within 1e-14: one array multiply by e^{i omega dt} instead of
    # per-label scalar products
    for _ in range(3):
        for rep in _random_reps(rng):
            for dt in (0.37, -2.1):
                _assert_same(act_time_translation(rep, dt, P),
                             _loop_time_translation(rep, dt), bits=False)


def test_rotation_equals_per_label_loop(rng):
    # within 1e-14: one Wigner-block matmul per l over every (j, channel)
    for _ in range(3):
        for rep in _random_reps(rng):
            for angles in (EulerAngles(0.3, 1.2, -0.7), EulerAngles(0.0, 0.0, 0.0)):
                _assert_same(act_rotation(rep, angles, P), _loop_rotation(rep, angles),
                             bits=False)


def test_boost_equals_per_label_loop(rng, tube_table, slice_table):
    # within 1e-14: a label reached by several branches sums them in branch
    # order, not in input-label order; K|>rep then rep + eps K|>rep bit for bit
    for _ in range(3):
        tube, _, slice_ = _random_reps(rng, k_max=7)
        for gen in (Boost0(3), BoostD1(3)):
            for rep, table in ((tube, tube_table), (slice_, slice_table)):
                delta = boost_generator_apply(rep, gen, table, P)
                _assert_same(delta, _loop_boost(rep, gen, table), bits=False)
                _assert_same(act_boost(rep, gen, 0.013, table, P),
                             _loop_act_boost(rep, delta.coeffs, 0.013), bits=True)
    # a slice branch with z = 0 adds no label (extracted tables hold exact
    # zeros only where the target label does not exist)
    zeroed = BoostCoeffTable("slice", {key: {**block, "zt0p": 0.0} for key, block
                                       in slice_table.entries.items()}, 0.0)
    _assert_same(boost_generator_apply(slice_, Boost0(3), zeroed, P),
                 _loop_boost(slice_, Boost0(3), zeroed), bits=False)


def test_boost_window_overflow_on_a_zero_label(tube_table):
    # an explicit zero label outside the table is still a label
    rep = TubeRep(OmegaGrid(1.0, tuple(range(-20, 21))),
                  {(2, 1, 0): (1.0, 0.0), (15, 0, 0): (0.0, 0.0)}, "S")
    with pytest.raises(WindowOverflow):
        boost_generator_apply(rep, BoostD1(3), tube_table, P)

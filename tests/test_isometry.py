import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adskg.errors import UnsupportedDimension
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, _scatter,
                              slice_to_tube, synth)
from adskg.geometry import (Boost0, BoostD1, Rotation, TimeTranslation,
                            make_params)
from adskg.harmonics import EulerAngles, contiguous_coeffs, lm_index, lm_labels
from adskg.isometry import (_BRANCHES, act_boost, act_rotation,
                            act_time_translation, boost_generator_apply,
                            boost_identity, boost_shift_coeffs, invariance_suite,
                            rotation_mixing)
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


def test_rotation_pullback_tube(rng, rotate_point):
    rep = _tube_rep()
    angles = EulerAngles(0.7, 0.5, -0.4)
    out = act_rotation(rep, angles, P)
    inv = EulerAngles(-angles.gamma, -angles.beta, -angles.alpha)
    for _ in range(6):
        t = rng.uniform(0, 3)
        rho = rng.uniform(0.3, 1.2)
        th = rng.uniform(0.3, 2.8)
        ph = rng.uniform(0, 2 * math.pi)
        thr, phr = rotate_point(inv, th, ph)
        lhs = synth(out, (t, rho, th, ph), P)
        rhs = synth(rep, (t, rho, float(thr), float(phr)), P)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def test_rotation_pullback_slice(rng, rotate_point):
    rep = _slice_rep()
    angles = EulerAngles(-0.3, 0.8, 0.5)
    out = act_rotation(rep, angles, P)
    inv = EulerAngles(-angles.gamma, -angles.beta, -angles.alpha)
    for _ in range(6):
        t = rng.uniform(0, 3)
        rho = rng.uniform(0.2, 1.2)
        th = rng.uniform(0.3, 2.8)
        ph = rng.uniform(0, 2 * math.pi)
        thr, phr = rotate_point(inv, th, ph)
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


# --- boost shift coefficients -----------------------------------------------------

MASSES = (0.0, -2.0, 0.37, -1.1, -2.2, 1.5)


def _z(channel, s_om, s_l, omega, l, params=P):
    return float(boost_shift_coeffs(channel, s_om, s_l, omega, l, params))


def _zs(s_om, s_l, n, l, params=P):
    """Slice z: channel a at the magic frequency."""
    return _z("a", s_om, s_l, magic_frequency("plus", n, l, params), l, params)


@pytest.mark.parametrize("msq", MASSES)
def test_radial_identity_on_the_verify_windows(msq):
    # Rhat = (z / 2 s_w) f_target at rho = 0.6, 0.9 for tube k in -7..7 and
    # slice n <= 4 (S^a at w+_{nl}), l <= 4, every branch with a target
    p = make_params(3, 1.0, msq)
    s_om, s_l = np.array(_BRANCHES).T[:, :, None, None, None]
    om, l, rho = np.meshgrid(np.arange(-7.0, 8.0), np.arange(5), [0.6, 0.9],
                             indexing="ij")
    n = np.arange(5)[:, None, None]
    for channel, omega, ls, keep in (
            ("a", om, l, l + s_l >= 0), ("b", om, l, l + s_l >= 0),
            ("a", magic_frequency("plus", n, l[:5], p), l[:5],
             (l[:5] + s_l >= 0) & (n + (s_om - s_l) // 2 >= 0))):
        combo, resid = boost_identity(channel, s_om, s_l, omega, ls, rho[:len(ls)], p)
        combo, resid = (np.broadcast_to(v, keep.shape)[keep] for v in (combo, resid))
        assert np.max(np.abs(resid)) <= 1e-13 * np.max(np.abs(combo))


@settings(max_examples=80, deadline=None)
@given(channel=st.sampled_from("ab"), branch=st.sampled_from(_BRANCHES),
       omega=st.floats(-12.0, 12.0), l=st.integers(0, 10),
       nu64=st.integers(1, 191).filter(lambda k: k % 64), rho=st.floats(0.1, 1.4))
def test_radial_identity_against_mpmath(channel, branch, omega, l, nu64, rho):
    # Rhat = (z / 2 s_w) f_target at 30 digits, z the closed form evaluated
    # in mpmath arithmetic; a dyadic nu keeps Delta+- exact in the params
    mp = pytest.importorskip("mpmath").mp
    s_om, s_l = branch
    assume(l + s_l >= 0)
    nu = nu64 / 64.0
    p = make_params(3, 1.0, nu * nu - 2.25)
    assert p.nu == nu and p.delta_plus + p.delta_minus == 3.0

    def mode(om, ll):
        """S^a or S^b at (om, ll) as a function of rho."""
        dp, ga = mp.mpf(p.delta_plus), ll + mp.mpf(1.5)
        al, be = (ll + dp - om) / 2, (ll + dp + om) / 2
        if channel == "a":
            return lambda r: (mp.sin(r) ** ll * mp.cos(r) ** dp
                              * mp.hyp2f1(al, be, ga, mp.sin(r) ** 2))
        return lambda r: (-mp.sin(r) ** (-1 - ll) * mp.cos(r) ** dp
                          * mp.hyp2f1(al - ga + 1, be - ga + 1, 2 - ga, mp.sin(r) ** 2))

    with mp.workdps(30):
        w, r = mp.mpf(omega), mp.mpf(rho)
        f = mode(w, l)
        dfac = l + 1 if s_l < 0 else -l
        terms = [-s_om * w * mp.sin(r) * f(r) / 2, mp.cos(r) * mp.diff(f, r) / 2,
                 dfac * f(r) / (2 * mp.sin(r))]
        z = boost_shift_coeffs(channel, s_om, s_l, w, l, p)[()]
        resid = mp.fsum(terms) - z / (2 * s_om) * mode(w + s_om, l + s_l)(r)
        assert abs(resid) <= 1e-25 * (mp.fsum(abs(t) for t in terms) + abs(f(r)))


def test_out_of_range_coefficients_vanish():
    # l = 0 lowering channels and n = -1 targets are structurally zero
    assert _z("a", +1, -1, 2.0, 0) == 0.0
    assert _z("b", -1, -1, 2.0, 0) == 0.0
    assert _zs(-1, -1, 0, 0) == 0.0
    assert _zs(-1, +1, 0, 2) == 0.0  # target n = -1
    # every zero of a slice z falls on a missing target
    for msq in MASSES:
        p = make_params(3, 1.0, msq)
        for n in range(8):
            for l in range(8):
                for s_om, s_l in _BRANCHES:
                    if n + (s_om - s_l) // 2 >= 0 and l + s_l >= 0:
                        assert _zs(s_om, s_l, n, l, p) != 0.0


def test_boost_shift_coeffs_broadcast():
    omega = np.linspace(-3.0, 3.0, 7)[:, None]
    l = np.arange(4)
    for channel in "ab":
        for s_om, s_l in _BRANCHES:
            table = boost_shift_coeffs(channel, s_om, s_l, omega, l, P)
            assert table.shape == (7, 4)
            for i, om in enumerate(omega[:, 0]):
                for j in l:
                    assert table[i, j] == _z(channel, s_om, s_l, om, j)
    with pytest.raises(UnsupportedDimension):
        boost_shift_coeffs("a", 1, 1, 2.0, 1, make_params(5, 1.0, 0.0))
    with pytest.raises(ValueError):
        boost_shift_coeffs("c", 1, 1, 2.0, 1, P)


def test_tube_identities():
    # the four equalities behind hypercylinder boost invariance
    d = 3
    for msq in MASSES:
        p = make_params(3, 1.0, msq)
        z = lambda *args: _z(*args, params=p)
        for om in np.arange(-3.0, 4.0, 0.5):
            for l in range(0, 4):
                up, down = (2 * l + d) / (2 * l + d - 2), (2 * l + d - 4) / (2 * l + d - 2)
                assert z("a", +1, -1, om - 1, l + 1) == pytest.approx(
                    up * z("b", -1, +1, om, l), rel=1e-13, abs=1e-13)
                assert z("a", -1, -1, om + 1, l + 1) == pytest.approx(
                    up * z("b", +1, +1, om, l), rel=1e-13, abs=1e-13)
                if l >= 1:
                    assert z("a", +1, +1, om - 1, l - 1) == pytest.approx(
                        down * z("b", -1, -1, om, l), rel=1e-13, abs=1e-13)
                    assert z("a", -1, +1, om + 1, l - 1) == pytest.approx(
                        down * z("b", +1, -1, om, l), rel=1e-13, abs=1e-13)


def test_slice_identities():
    # w N z^{0-}_{n,l+1} = w' N' zt^{0+}_{nl} and the (n+1, l-1) analogue
    for msq in MASSES:
        p = make_params(3, 1.0, msq)
        wn = lambda n, l: (magic_frequency("plus", n, l, p)
                           * norm_constant("plus", n, l, p))
        for n in range(0, 4):
            for l in range(0, 4):
                assert wn(n, l) * _zs(-1, -1, n, l + 1, p) == pytest.approx(
                    wn(n, l + 1) * _zs(+1, +1, n, l, p), rel=1e-12, abs=1e-14)
                if l >= 1:
                    assert wn(n, l) * _zs(-1, +1, n + 1, l - 1, p) == pytest.approx(
                        wn(n + 1, l - 1) * _zs(+1, -1, n, l, p), rel=1e-12, abs=1e-14)


# --- boost action ----------------------------------------------------------------------

def test_act_boost_epsilon_zero():
    rep = _tube_rep()
    out = act_boost(rep, BoostD1(3), 0.0, P)
    for key, val in rep.coeffs.items():
        assert out.coeffs[key] == val


def test_boost_far_outside_the_old_window():
    # labels far past any earlier table window (k = 40, l = 12) boost with
    # symplectic invariance; the pairings are nondegenerate
    grid = OmegaGrid(1.0, tuple(range(-45, 46)))
    reps = [TubeRep(grid, {(40, 12, 3): (0.7 + 0.2j, -0.4j), (-39, 13, -3): (0.3, 0.5),
                           (-41, 11, -3): (0.1j, 0.9)}, "S"),
            TubeRep(grid, {(-41, 13, -3): (0.6, 0.2j), (39, 11, 3): (0.4j, 0.8),
                           (41, 12, 3): (0.5, -0.3)}, "S")]
    for gen in (Boost0(3), BoostD1(3)):
        moved = boost_generator_apply(reps[0], gen, P)
        assert abs(complex(omega_tube_momentum(moved, reps[1], P))) > 1.0
        assert invariance_suite(omega_tube_momentum, reps, gen, P) < 1e-6


def test_z_generator_single_sided_shift():
    # K_{0d} + i K_{d+1,d} shifts every label's frequency the same way:
    # for a single-mode rep the output must live on a single frequency side
    rep = SliceRep({(2, 1, 0): (1.0, 0.0)})
    k0 = boost_generator_apply(rep, Boost0(3), P)
    kd = boost_generator_apply(rep, BoostD1(3), P)
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


def test_boost_pullback_linearization():
    # synth(rep + eps K|>rep)(x) agrees with synth(rep)(flow_{-eps}(x)) up
    # to O(eps^2): Richardson ratio between eps = 1e-3 and 1e-4 ~ 100
    rep = _tube_rep()
    gen = BoostD1(3)
    t0, rho0, th0, ph0 = 0.45, 0.8, 1.15, 0.7
    xi0 = np.array([math.sin(th0) * math.cos(ph0),
                    math.sin(th0) * math.sin(ph0), math.cos(th0)])
    errs = []
    for eps in (1e-3, 1e-4):
        moved = act_boost(rep, gen, eps, P)
        lhs = synth(moved, (t0, rho0, th0, ph0), P)
        tf, rf, xf = _boost_flow(-eps, t0, rho0, xi0)
        thf = math.acos(max(-1.0, min(1.0, xf[2])))
        phf = math.atan2(xf[1], xf[0])
        rhs_val = synth(rep, (tf, rf, thf, phf), P)
        errs.append(abs(lhs - rhs_val))
    ratio = errs[0] / errs[1]
    assert 80.0 <= ratio <= 120.0


def test_boost_preserves_reality_pairing(rng):
    grid = OmegaGrid(1.0, tuple(range(-6, 7)))
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    rep = TubeRep(grid, {(3, 1, 1): (a, b), (-3, 1, -1): (np.conj(a), np.conj(b))}, "S")
    out = boost_generator_apply(rep, BoostD1(3), P)
    # K_{d+1,d} is a real generator: K|>rep of a real rep stays real
    assert out.is_real(tol=1e-8)


def test_boost_commutes_with_jacobi_inclusion():
    # boosting the slice rep then including into the tube equals including
    # then boosting the tube rep, on the magic-frequency grid
    rep = _slice_rep()
    grid = OmegaGrid(1.0, tuple(range(-8, 9)))
    for gen in (BoostD1(3), Boost0(3)):
        lhs = slice_to_tube(boost_generator_apply(rep, gen, P), grid, P)
        rhs = boost_generator_apply(slice_to_tube(rep, grid, P), gen, P)
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


def test_invariance_rotation_slice_high_degree(rng):
    # degrees where the factorial-sum Wigner matrix had lost digits
    labels = [(n, l, int(rng.integers(-l, l + 1))) for l in (20, 25, 28)
              for n in (0, 1)]
    reps = [SliceRep({key: tuple(complex(*v) for v in rng.normal(size=(2, 2)))
                      for key in labels}) for _ in range(2)]
    scale = max(abs(complex(omega_slice_momentum(e, z, P)))
                for e in reps for z in reps)
    viol = invariance_suite(omega_slice_momentum, reps, Rotation(1, 2), P,
                            angles=EulerAngles(0.5, 1.0, -0.7))
    assert viol <= 1e-12 * scale


def test_invariance_suite_propagates_nan():
    calls = []

    def first_call_nan(eta, zeta, params):
        calls.append(1)
        return float("nan") if len(calls) == 1 else omega_slice_momentum(eta, zeta, params)

    viol = invariance_suite(first_call_nan, [_slice_rep()], TimeTranslation(), P)
    assert len(calls) == 2 and math.isnan(viol)


def test_invariance_rotation_tube():
    reps = [_tube_rep()]
    viol = invariance_suite(omega_tube_momentum, reps, Rotation(2, 3), P,
                            angles=EulerAngles(-0.2, 0.65, 0.31))
    assert viol < 1e-8


def test_invariance_boost_slice():
    reps = [_slice_rep(),
            SliceRep({(1, 2, 1): (0.3, 0.8j), (2, 1, -1): (0.6j, 0.2),
                      (0, 0, 0): (1.0, 0.4)})]
    for gen in (Boost0(3), BoostD1(3)):
        viol = invariance_suite(omega_slice_momentum, reps, gen, P)
        assert viol < 1e-6


def test_invariance_boost_tube():
    grid = _tube_rep().grid
    reps = [_tube_rep(),
            TubeRep(grid, {(2, 1, 0): (0.5, 0.1j), (-2, 1, 0): (0.3j, 0.7),
                           (3, 2, -1): (0.2, 0.4), (-3, 2, 1): (0.6, 0.05j)}, "S")]
    for gen in (Boost0(3), BoostD1(3)):
        viol = invariance_suite(omega_tube_momentum, reps, gen, P)
        assert viol < 1e-6


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


def _loop_boost(rep, generator, params):
    is_0d = isinstance(generator, Boost0)

    def weight(s_om):
        return 0.5j if is_0d else (0.5 if s_om < 0 else -0.5)

    out: dict = {}
    if isinstance(rep, SliceRep):
        for (n, l, m), (p, q) in rep.coeffs.items():
            for s_om, s_l in _BRANCHES:
                om0 = magic_frequency("plus", n, l, params)
                l_t = l + s_l
                n_t = round((om0 + s_om - l_t - params.delta_plus) / 2.0)
                if l_t < 0 or n_t < 0 or abs(m) > l_t:
                    continue
                zfull = _kappa(l, m, s_l) * _z("a", s_om, s_l, om0, l, params)
                w = weight(s_om)
                wq = -w if is_0d else w
                acc = out.get((n_t, l_t, m), (0j, 0j))
                out[(n_t, l_t, m)] = (acc[0] + w * zfull * p, acc[1] + wq * zfull * q)
        return out
    step = round(1.0 / rep.grid.d_omega)
    for (k, l, m), (a, b) in rep.coeffs.items():
        for s_om, s_l in _BRANCHES:
            l_t = l + s_l
            if l_t < 0 or abs(m) > l_t:
                continue
            kap, w = _kappa(l, m, s_l), weight(s_om)
            key = (k + s_om * step, l_t, m)
            acc = out.get(key, (0j, 0j))
            om = rep.grid.omega(k)
            out[key] = (acc[0] + w * kap * _z("a", s_om, s_l, om, l, params) * a,
                        acc[1] + w * kap * _z("b", s_om, s_l, om, l, params) * b)
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


def test_boost_equals_per_label_loop(rng):
    # within 1e-14: a label reached by several branches sums them in branch
    # order, not in input-label order; K|>rep then rep + eps K|>rep bit for bit
    for msq in (0.0, -2.2, 1.5):
        p = make_params(3, 1.0, msq)
        tube, _, slice_ = _random_reps(rng, k_max=7)
        for gen in (Boost0(3), BoostD1(3)):
            for rep in (tube, slice_):
                delta = boost_generator_apply(rep, gen, p)
                _assert_same(delta, _loop_boost(rep, gen, p), bits=False)
                _assert_same(act_boost(rep, gen, 0.013, p),
                             _loop_act_boost(rep, delta.coeffs, 0.013), bits=True)


def _branch_loop_boost(rep, generator, params):
    """boost_generator_apply with boost_shift_coeffs called per branch and
    channel, one branch at a time: the form the one (branch, j, lm) pass
    replaced, kept as its bit-for-bit reference."""
    is_0d = isinstance(generator, Boost0)
    c = rep.coeffs
    ls, ms = lm_labels(c.l_max)
    if isinstance(rep, SliceRep):
        signs, channels = (1.0, -1.0 if is_0d else 1.0), "aa"
        omega = magic_frequency("plus", c.js[:, None], ls, params)
        shift = lambda s_om, s_l: (s_om - s_l) // 2
    else:
        step = 1.0 / rep.grid.d_omega
        signs, channels = (1.0, 1.0), "ab"
        omega = rep.grid.d_omega * c.js[:, None]
        shift = lambda s_om, s_l: s_om * round(step)
    kappa = contiguous_coeffs(3, ls, ms)[:2]
    targets, values = [], []
    for s_om, s_l in _BRANCHES:
        weight = 0.5j if is_0d else (0.5 if s_om < 0 else -0.5)
        z = np.array([boost_shift_coeffs(ch, s_om, s_l, omega, ls, params)
                      for ch in channels])
        l_t, j_t = ls + s_l, c.js.astype(int) + shift(s_om, s_l)
        keep = c.mask & (l_t >= 0) & (np.abs(ms) <= l_t) & (j_t[:, None] >= rep._j_min)
        rows, lm = np.nonzero(keep)
        targets.append((j_t[rows], lm_index(l_t, ms)[lm]))
        values.append(weight * np.array(signs)[:, None] * kappa[int(s_l > 0)][lm]
                      * z[:, rows, lm] * c.array[:, rows, lm])
    j, lm = (np.concatenate(col) for col in zip(*targets))
    return _scatter(j, lm, np.concatenate(values, axis=1))


def test_boost_is_the_per_branch_loop_bit_for_bit(rng):
    # one boost_shift_coeffs call per channel over (branch, j, lm) gives the
    # per-branch calls' coefficients, so K|>rep keeps every bit
    for msq in (0.0, -2.2, 1.5):
        p = make_params(3, 1.0, msq)
        tube, _, slice_ = _random_reps(rng, k_max=7)
        for rep in (tube, slice_, _tube_rep(), _slice_rep()):
            for gen in (Boost0(3), BoostD1(3)):
                got = boost_generator_apply(rep, gen, p).coeffs
                want = _branch_loop_boost(rep, gen, p)
                assert np.array_equal(got.js, want.js)
                assert np.array_equal(got.mask, want.mask)
                assert got.array.tobytes() == want.array.tobytes()

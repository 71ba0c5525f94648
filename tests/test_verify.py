"""The batched checks of `verify` against the per-draw loops they replaced,
the Gauss-Legendre norm oracle against scipy's adaptive quadrature, and the
imports and library calls a `verify all` run makes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adskg import expansions as xp
from adskg import geometry as geo
from adskg import modes
from adskg import specfun as sf
from adskg import verify
from adskg.memo import counters
from adskg.modes import RadialKind

KINDS = (RadialKind.Sa, RadialKind.Sb, RadialKind.Ca, RadialKind.Cb)


# --- kg_residual on rows ---------------------------------------------------------

def _rows(p):
    """(omega, l) rows: random frequencies and the magic frequencies of
    n, l <= 2, where the S^a and C^a series terminate."""
    rng = np.random.default_rng(7)
    om = list(rng.uniform(0.6, 5.0, 6))
    l = [int(v) for v in rng.integers(0, 4, 6)]
    for n in range(3):
        for ll in range(3):
            om.append(modes.magic_frequency("plus", n, ll, p))
            l.append(ll)
    return np.array(om), np.array(l)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("msq", [0.0, -2.0, 1.0])
def test_kg_residual_rows_match_scalar_calls(kind, msq):
    p = geo.make_params(3, 1.0, msq)
    om, l = _rows(p)
    shapes = []

    def fn(r):
        shapes.append(r.shape)
        return modes.radial_eval_fd(kind, om[:, None], l[:, None], r, p)

    got = geo.kg_residual(fn, om, l, p, (0.2, 1.2))
    assert shapes == [(50,)]
    want = [geo.kg_residual(lambda r: modes.radial_eval_fd(kind, w, ll, r, p), w, ll, p,
                            (0.2, 1.2))
            for w, ll in zip(om.tolist(), l.tolist())]
    assert all(type(v) is float for v in want)
    assert got.shape == (len(om),)
    assert got.tobytes() == np.array(want).tobytes()
    # omega and l of any shape: here a (3, 5) grid of the same rows
    grid = geo.kg_residual(lambda r: modes.radial_eval_fd(
        kind, om.reshape(3, 5, 1), l.reshape(3, 5, 1), r, p), om.reshape(3, 5), l.reshape(3, 5),
        p, (0.2, 1.2))
    assert grid.tobytes() == got.tobytes() and grid.shape == (3, 5)


def test_kg_residual_rows_of_a_constant_function():
    # a scalar (f, f') is broadcast over every row; where every part of the
    # identity vanishes (f = 1 at omega = l = m^2 = 0, or f = 0) the bare
    # residual 0 is reported, not 0/0
    p = geo.make_params(3, 1.0, 1.0)
    got = geo.kg_residual(lambda r: (1.0, 0.0), np.array([0.0, 2.0]), np.array([0, 1]),
                          p, (0.3, 1.1))
    want = [geo.kg_residual(lambda r: (1.0, 0.0), w, ll, p, (0.3, 1.1))
            for w, ll in ((0.0, 0), (2.0, 1))]
    assert got.tolist() == want
    zero = geo.kg_residual(lambda r: (0.0 * r, 0.0 * r), np.array([1.0]), np.array([0]),
                           p, (0.3, 1.1))
    assert zero.tolist() == [geo.kg_residual(lambda r: (0.0 * r, 0.0 * r), 1.0, 0, p,
                                             (0.3, 1.1))] == [0.0]
    p0 = geo.make_params(3, 1.0, 0.0)
    assert geo.kg_residual(lambda r: (1.0, 0.0), 0.0, 0, p0, (0.3, 1.1)) == 0.0


# --- the batched suite_modes checks against the per-draw loops ---------------------

def _loop_radial_kg_errors(rng):
    """radial_kg_residuals draw by draw, one kind per kg_residual call."""
    errs = []
    for p in verify._params_set():
        for _ in range(10):
            om = rng.uniform(0.7, 4.5)
            l = int(rng.integers(0, 4))
            for kind in KINDS:
                fn = lambda r: modes.radial_eval_fd(kind, om, l, r, p)
                errs.append(geo.kg_residual(fn, om, l, p, (0.2, 1.2)))
            n = int(rng.integers(0, 4))
            omp = modes.magic_frequency("plus", n, l, p)
            fn = lambda r: modes.jacobi_radial_fd("plus", n, l, r, p)
            errs.append(geo.kg_residual(fn, omp, l, p, (0.2, 1.2)))
            if p.exceptional_range:
                omm = modes.magic_frequency("minus", n, l, p)
                fn = lambda r: modes.jacobi_radial_fd("minus", n, l, r, p)
                errs.append(geo.kg_residual(fn, omm, l, p, (0.2, 1.2)))
    return errs


def _wronskian(kinds, om, l, rho, p):
    """The weighted Wronskian of two kinds at one point: one radial_eval_fd
    call on both where they share a basis, else one per kind."""
    s_kinds = (RadialKind.Sa, RadialKind.Sb)
    if (kinds[0] in s_kinds) == (kinds[1] in s_kinds):
        (fa, da), (fb, db) = np.transpose(modes.radial_eval_fd(kinds, om, l, rho, p))
    else:
        (fa, da), (fb, db) = (modes.radial_eval_fd(k, om, l, rho, p) for k in kinds)
    return modes._weighted_wronskian(fa, da, fb, db, rho, p.d)


def _loop_wronskian_errors(rng, p):
    """The per-draw loop the batched wronskian_constancy replaced."""
    pairs = [(RadialKind.Sa, RadialKind.Sb), (RadialKind.Ca, RadialKind.Cb),
             (RadialKind.Sa, RadialKind.Ca), (RadialKind.Sa, RadialKind.Cb),
             (RadialKind.Sb, RadialKind.Ca), (RadialKind.Sb, RadialKind.Cb)]
    errs = []
    for _ in range(10):
        om = rng.uniform(0.6, 5.0)
        l = int(rng.integers(0, 4))
        for ka, kb in pairs:
            vals = [_wronskian((ka, kb), om, l, rho, p) for rho in (0.4, 0.7, 1.0)]
            errs.append(np.ptp(vals) / np.max(np.abs(vals)))
    return errs


def _loop_det_errors(rng, p):
    """The per-draw loop det_transfer_identity replaced."""
    errs = []
    for _ in range(6):
        om = rng.uniform(0.6, 5.0)
        l = int(rng.integers(0, 4))
        mat = modes.transfer_matrix(om, l, p)
        w_cc = _wronskian((RadialKind.Ca, RadialKind.Cb), om, l, 0.7, p)
        w_ss = _wronskian((RadialKind.Sa, RadialKind.Sb), om, l, 0.7, p)
        det = mat.m11 * mat.m22 - mat.m12 * mat.m21
        errs.append(abs(det * w_cc - w_ss) / abs(w_ss))
    return errs


def _loop_magic_errors(p):
    """The per-point loop the batched magic_termination replaced."""
    errs = []
    for n in range(4):
        for l in range(4):
            om = modes.magic_frequency("plus", n, l, p)
            for rho in (0.15, 0.5, 0.95, 1.3):
                sa = modes.radial_eval(RadialKind.Sa, om, l, rho, p)
                jp = modes.jacobi_radial("plus", n, l, rho, p)
                errs.append(abs(sa - jp) / max(1.0, abs(jp)))
    return errs


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("seed", [verify.SEED, 1, 2])
def test_batched_modes_checks_match_the_per_draw_loops(seed):
    p = geo.make_params(3, 1.0, 0.0)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = verify._radial_kg_errors(rng)
    want = _loop_radial_kg_errors(ref)
    assert len(got) == len(want) == 160
    assert _bits(got) == _bits(want)
    got, det = verify._wronskian_errors(rng, p)
    want = _loop_wronskian_errors(ref, p)
    assert len(got) == len(want) == 60
    assert _bits(got) == _bits(want)
    want = _loop_det_errors(ref, p)
    assert len(det) == len(want) == 6
    assert _bits(det) == _bits(want)
    assert rng.random() == ref.random()  # both consumed the same draws
    assert _bits(verify._magic_errors(p)) == _bits(_loop_magic_errors(p))


# --- the batched specfun, geometry and expansions checks against their loops --------

def _loop_termination_errors():
    """The per-(n, x) loop hyp2f1_termination_exact replaced."""
    errs = []
    for n in (1, 3, 6):
        for x in (-1.0, 0.4, 1.0):
            b, c = 1.3, 0.7
            val = sf.hyp2f1(float(-n), b, c, x)
            explicit = sum(sf.pochhammer(-n, k) * sf.pochhammer(b, k)
                           / (sf.pochhammer(c, k) * math.factorial(k)) * x ** k
                           for k in range(n + 1))
            errs.append(abs(val - explicit) / max(abs(explicit), 1.0))
    return errs


def _loop_halving_errors(rng):
    """The per-draw loop double_pochhammer_halving replaced."""
    errs = []
    for _ in range(60):
        a = rng.uniform(-5, 5)
        k = int(rng.integers(0, 16))
        lhs = sf.double_pochhammer(2 * a, k)
        rhs = 2.0 ** k * sf.pochhammer(a, k)
        errs.append(abs(lhs - rhs) / max(abs(rhs), 1e-280))
    return errs


def _loop_bracket_errors():
    """The per-pair loop bracket_matrices replaced."""
    mats = {gen: geo.generator_matrix(gen, 3) for gen in verify._generators(3)}
    return [float(np.max(np.abs(sum((c * mats[gen] for c, gen in geo.bracket_rhs(a, b, 3)),
                                    la @ lb - lb @ la))))
            for a, la in mats.items() for b, lb in mats.items() if a != b]


def _loop_diffs(ref, rep):
    """The per-label loop _diffs replaced: Python's abs of each difference."""
    return [abs(rep.coeffs[key][i] - v)
            for key, pair in ref.coeffs.items() for i, v in enumerate(pair)]


@pytest.mark.parametrize("seed", [verify.SEED, 1, 2])
def test_batched_specfun_and_bracket_checks_match_the_loops(seed):
    assert _bits(verify._termination_errors()) == _bits(_loop_termination_errors())
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = verify._halving_errors(rng), _loop_halving_errors(ref)
    assert len(got) == len(want) == 60
    assert _bits(got) == _bits(want)
    assert rng.random() == ref.random()
    got, want = verify._bracket_errors(), _loop_bracket_errors()
    assert len(got) == len(want) == 156
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("seed", [verify.SEED, 1, 2])
def test_diffs_match_the_per_label_loop(seed):
    rng = np.random.default_rng(seed)
    p = geo.make_params(3, 1.0, 0.0)
    # a six-label slice rep and its reconstruction, whose window holds all
    # 30 labels of n, l <= 3 (the two channels of 24 of them near 0)
    rep = verify._random_slice_rep(rng)
    rec = xp.invert_slice(xp.sample_slice(rep, 0.8, p, xp._slice_nodes(3, 3),
                                          xp._angular_rule(3)), p, 3, 3)
    assert len(rec.coeffs) > len(rep.coeffs)
    # a random tube rep against itself scaled by 1 + 1e-9 i, both ways
    grid = xp.OmegaGrid(0.5, tuple(range(-7, 8)))
    tube = verify._random_tube_rep(rng, grid, 5, "S")
    noise = tube.scaled(1.0 + 1e-9j)
    rod = xp.RodRep(grid, {(3, 0, 0): 0.8 + 0.3j, (-4, 1, -1): 0.5, (5, 2, 1): -0.2j})
    rod_rec = xp.invert_rod_interior(xp.sample_rod(rod, 0.9, p, xp._angular_rule(2)), p, 2)
    for ref, got in ((rep, rec), (tube, noise), (noise, tube)):
        diffs = verify._diffs(ref, got)
        assert len(diffs) == 2 * len(ref.coeffs)
        assert _bits(diffs) == _bits(_loop_diffs(ref, got))
    # one channel: the rod check's measurements
    assert _bits(verify._diffs(rod, rod_rec)) == _bits(
        [abs(rod_rec.coeffs[k] - v) for k, v in rod.coeffs.items()])


def test_diffs_read_a_label_the_rep_lacks_as_zero():
    ref = xp.SliceRep({(0, 0, 0): (1.0, 2.0j), (2, 1, -1): (3.0, 4.0), (5, 4, 4): (0.5, -1j)})
    rep = xp.SliceRep({(0, 0, 0): (1.0, 1.0j), (1, 1, 0): (2.0, 2.0)})
    assert verify._diffs(ref, rep) == [0.0, 1.0, 3.0, 4.0, 0.5, 1.0]


# --- the library calls of a `verify all` run ---------------------------------------------

def test_verify_all_makes_no_scalar_hyp2f1_call(monkeypatch, capsys):
    # every hyp2f1 call reaches _hyp2f1_array; a scalar call is one without
    # an ndarray argument, which pays the array path's 0-d classification
    from adskg.cli import main
    fine, calls = sf._hyp2f1_array, []

    def counted(a, b, c, x):
        calls.append(any(isinstance(v, np.ndarray) for v in (a, b, c, x)))
        return fine(a, b, c, x)

    monkeypatch.setattr(sf, "_hyp2f1_array", counted)
    assert main(["verify", "all"]) == 0
    assert calls and all(calls)


# --- the norm oracle -----------------------------------------------------------------

def test_norm_oracle_matches_adaptive_quadrature():
    from scipy.integrate import quad
    p = geo.make_params(3, 1.0, 0.0)
    for (n, l), got in np.ndenumerate(verify._norm_oracles(p)):
        ref = quad(lambda r: math.tan(r) ** 2 * modes.jacobi_radial("plus", n, l, r, p) ** 2,
                   0.0, math.pi / 2, limit=200)[0]
        assert abs(got - ref) <= 1e-13 * ref
        assert abs(got - modes.norm_constant("plus", n, l, p)) <= 1e-13 * ref


def test_verify_all_does_not_import_scipy_integrate():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from adskg.cli import main\n"
            "assert main(['verify', 'all']) == 0\n"
            "print('scipy.integrate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


# --- the radial-table memo --------------------------------------------------------------

def test_verify_all_rerun_builds_no_radial_table():
    # a `verify all` job builds 60 radial tables and stores 72 with the
    # other basis's tables its transfer-route builds also give, against the
    # 128 slots of the memo, so a rerun finds every one; the builds are kept
    # to half the slots, since a job that outgrew them would make the
    # rerun's cyclic access pattern miss them all.  The same holds for every
    # other memo of the package.
    modes._radial_table.memo.clear()
    verify.run_suite("all")
    first = counters()
    assert first["radial_table"]["misses"] <= first["radial_table"]["maxsize"] // 2
    verify.run_suite("all")
    assert {name: c["misses"] for name, c in counters().items()} \
        == {name: c["misses"] for name, c in first.items()}

"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with the measured worst value at the stated tolerance.

The checks themselves live in adskg.verify (shared with `adskg verify`);
the mapping is:

  1  special-function oracle equivalence          -> specfun suite
  2  radial Klein-Gordon ODE residuals            -> modes suite
  3  Wronskian constancy + determinant identity   -> modes suite
  4  normalization constant vs quadrature         -> modes suite
  5  symplectic agreement and independence        -> symplectic suite
  6  magic-frequency termination identity         -> modes suite
  7  isometry invariance + boost identities       -> isometry suite
  8  boundary machinery round trips               -> expansions suite
  9  inversion round trips                        -> expansions suite
  10 flat-limit convergence ratios                -> minkowski suite
  11 Lie bracket table                            -> geometry suite
"""

from adskg.verify import run_suite

_SUITE_CACHE: dict = {}


def _checks(suite):
    if suite not in _SUITE_CACHE:
        _SUITE_CACHE[suite] = {c.name: c for c in run_suite(suite)}
    return _SUITE_CACHE[suite]


def _report(criterion, checks):
    ok = all(c.passed for c in checks)
    print()
    for c in checks:
        print(c.line)
    print(f"CRITERION {criterion} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: " + ", ".join(
        c.name for c in checks if not c.passed)


def test_criterion_1_special_function_oracles():
    checks = _checks("specfun")
    _report(1, [checks["jacobi_vs_hypergeometric[50]"],
                checks["hyp2f1_termination_exact"],
                checks["double_pochhammer_halving"]])


def test_criterion_2_radial_ode_residuals():
    checks = _checks("modes")
    _report(2, [checks["radial_kg_residuals"]])


def test_criterion_3_wronskians():
    checks = _checks("modes")
    _report(3, [checks["wronskian_constancy"],
                checks["det_transfer_identity"]])


def test_criterion_4_normalization():
    checks = _checks("modes")
    _report(4, [checks["norm_constant_vs_quadrature[n,l<=4]"],
                checks["norm_constant_pi_over_32"]])


def test_criterion_5_symplectic_structures():
    checks = _checks("symplectic")
    _report(5, [checks["slice_quadrature_vs_momentum"],
                checks["slice_t0_independence"],
                checks["tube_quadrature_vs_momentum[S,C]"],
                checks["tube_rho0_independence"],
                checks["lagrangian_and_rod_vanishing"]])


def test_criterion_6_magic_frequencies():
    checks = _checks("modes")
    _report(6, [checks["magic_termination[n,l<=3]"],
                checks["magic_m12_blindness"]])


def test_criterion_7_isometry_invariance():
    checks = _checks("isometry")
    _report(7, [checks["boost_extraction_leakage"],
                checks["tube_boost_identities[4]"],
                checks["slice_boost_identities[2]"],
                checks["time_translation_invariance"],
                checks["rotation_invariance"],
                checks["boost_leibniz_invariance"]])


def test_criterion_8_boundary_machinery():
    checks = _checks("expansions")
    _report(8, [checks["twisted_limit_Ca[nu=1.5]"],
                checks["twisted_limit_Cb"],
                checks["twisted_limits_at_boundary"],
                checks["boundary_round_trip"],
                checks["rod_interior_round_trip"],
                checks["rod_boundary_round_trip"]])


def test_criterion_9_inversion_round_trips():
    checks = _checks("expansions")
    _report(9, [checks["slice_round_trip"],
                checks["slice_t0_independence"],
                checks["tube_round_trip[S,C]"],
                checks["tube_rho0_independence"]])


def test_criterion_10_flat_limit():
    checks = _checks("minkowski")
    _report(10, [checks["flat_limit_radial_ratio"],
                 checks["flat_limit_slice_synth_ratio"],
                 checks["flat_limit_symplectic_ratio"],
                 checks["killing_correspondence_ratio"]])


def test_criterion_11_lie_brackets():
    checks = _checks("geometry")
    _report(11, [checks["killing_pushforward[13 generators, 50 pts]"],
                 checks["bracket_matrices[156 pairs]"]])

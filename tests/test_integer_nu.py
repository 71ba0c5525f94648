"""The integer-nu rule: every operation that forms a C-mode quantity (the C
kinds, the transfer matrix, the twisted boundary limit) raises one
CapabilityError naming nu at integer nu, ahead of any other error of the
same call, and the S-side work that needs none of them still runs."""

import math

import numpy as np
import pytest

from adskg.cli import main
from adskg.errors import CapabilityError
from adskg.expansions import (OmegaGrid, RodRep, SliceRep, TubeRep, boundary_data_of,
                              boundary_reconstruct, c_to_s, invert_slice, invert_tube,
                              rod_boundary_data_of, rod_boundary_reconstruct, s_to_c,
                              sample_rod, sample_slice, sample_tube,
                              twisted_boundary_limit, twisted_derivative)
from adskg.geometry import make_params, require_c_modes
from adskg.harmonics import AngularGrid
from adskg.modes import (RadialKind, hyper_params, jacobi_radial_fd, radial_eval_fd,
                         transfer_matrix)

# d = 3: nu = 1 at m^2 = -5/4, nu = 2 at m^2 = 7/4
INTEGER_NU = [make_params(3, 1.0, -1.25), make_params(3, 1.0, 1.75)]
GRID = OmegaGrid(0.5, (-3, 1, 5))
ANG = AngularGrid(8, 16)
C_KINDS = (RadialKind.Ca, RadialKind.Cb)


def _tube(basis):
    return TubeRep(GRID, {(1, 1, 0): (1.0, 0.5j), (5, 2, -1): (0.25, -0.5),
                          (-3, 0, 0): (0.5 - 0.5j, 0.0)}, basis)


def _nu_named(p):
    """pytest.raises for the rule's CapabilityError at the params p."""
    return pytest.raises(CapabilityError, match=rf"integer nu = {p.nu}")


@pytest.mark.parametrize("p", INTEGER_NU, ids=["nu1", "nu2"])
def test_integer_nu_is_exact(p):
    assert p.nu == round(p.nu) and not p.c_modes_valid
    with _nu_named(p):
        require_c_modes(p)
    require_c_modes(make_params(3, 1.0, 0.0))  # nu = 3/2


@pytest.mark.parametrize("p", INTEGER_NU, ids=["nu1", "nu2"])
def test_modes_layer_raises_the_rule(p):
    for kind in C_KINDS:
        with _nu_named(p):
            hyper_params(kind, 2.3, 1, p)
    with _nu_named(p):
        transfer_matrix(2.3, 1, p)
    # scalar and array, inside the domain, on the axis (before SingularPoint)
    # and outside it (before DomainError)
    for kind in C_KINDS + (C_KINDS,):
        for rho in (0.5, 0.0, -0.1, 2.0):
            for args in ((2.3, 1, rho), (np.array([2.3, 4.1]), np.array([1, 2]),
                                         np.array([rho, 0.7]))):
                with _nu_named(p):
                    radial_eval_fd(kind, *args, p)


@pytest.mark.parametrize("p", INTEGER_NU, ids=["nu1", "nu2"])
def test_s_modes_run_at_integer_nu(p):
    # below sin^2 rho = 3/4 the S kinds are direct series, no C-mode formed
    rho = np.linspace(0.05, 1.0, 7)
    for kind in (RadialKind.Sa, RadialKind.Sb, (RadialKind.Sa, RadialKind.Sb)):
        f, df = radial_eval_fd(kind, 2.3, 1, rho, p)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(df))
        f, df = radial_eval_fd(kind, 2.3, 1, 1.0, p)
        assert np.all(np.isfinite([f, df]))
    for branch_n in (0, 3):
        j, dj = jacobi_radial_fd("plus", branch_n, 2, rho, p)
        assert np.all(np.isfinite(j)) and np.all(np.isfinite(dj))


@pytest.mark.parametrize("p", INTEGER_NU, ids=["nu1", "nu2"])
def test_expansions_raise_the_rule(p):
    s_rep, c_rep = _tube("S"), _tube("C")
    valid = make_params(3, 1.0, 0.0)
    rod = RodRep(GRID, {(1, 1, 0): 1.0, (5, 2, -1): 0.5j})
    tube_data = sample_tube(s_rep, 0.6, p, ANG)
    boundary = boundary_data_of(c_rep, valid, ANG)
    rod_boundary = rod_boundary_data_of(rod, valid, ANG)
    calls = [lambda: s_to_c(s_rep, p), lambda: c_to_s(c_rep, p),
             lambda: sample_tube(c_rep, 0.6, p, ANG),
             lambda: invert_tube(tube_data, p, 2, "C"),
             lambda: boundary_data_of(c_rep, p, ANG),
             lambda: boundary_reconstruct(boundary, p, 2),
             lambda: rod_boundary_data_of(rod, p, ANG),
             lambda: rod_boundary_reconstruct(rod_boundary, p, 2)]
    for kind in C_KINDS:
        calls += [lambda kind=kind: twisted_boundary_limit(kind, p),
                  lambda kind=kind: twisted_derivative(kind, 2.3, 1, 1.4, p)]
    for call in calls:
        with _nu_named(p):
            call()


@pytest.mark.parametrize("p", INTEGER_NU, ids=["nu1", "nu2"])
def test_s_side_round_trips_at_integer_nu(p):
    # slice: Jacobi modes on the Gauss-Jacobi rule
    rep = SliceRep({(0, 0, 0): (1.0, 0.5), (1, 2, -1): (0.25j, 0.5 - 0.5j),
                    (2, 1, 1): (-0.75, 0.1j)})
    rec = invert_slice(sample_slice(rep, 0.37, p), p, 2, 2)
    for key, vals in rep.coeffs.items():
        assert rec.coeffs[key] == pytest.approx(vals, rel=1e-9, abs=1e-12)
    # S tube at rho0 = 0.6, inside the direct series of both S kinds
    rep = _tube("S")
    rec = invert_tube(sample_tube(rep, 0.6, p, ANG), p, 2)
    for key, vals in rep.coeffs.items():
        assert rec.coeffs[key] == pytest.approx(vals, rel=1e-9, abs=1e-12)
    assert sample_rod(RodRep(GRID, {(1, 1, 0): 1.0}), 0.6, p).phi.shape[0] == 11


@pytest.mark.parametrize("kind", ["ca", "cb"])
@pytest.mark.parametrize("msq", ["-1.25", "1.75"])
def test_cli_eval_prints_one_error_line_on_and_off_the_axis(kind, msq, capsys):
    errors = []
    for rho in ("0:0:1", "0.5:0.5:1"):
        assert main(["eval", "--kind", kind, "--msq", msq, "--omega", "2.3", "--l", "1",
                     "--m", "0", "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    nu = math.sqrt(2.25 + float(msq))
    assert errors[0] == errors[1] == f"error: C-modes undefined at (near-)integer nu = {nu}\n"

"""Command-line front end: mode evaluation to CSV, verification suites,
and reconstruction round-trip reports.

Exit codes: 0 pass, 1 verification/reconstruction failure, 2 usage or
parse errors, a NaN or infinite number, an out-of-range parameter and a
file that cannot be read or written among them.  Output is
deterministic: no timestamps, fixed row order; the exceptions are each
suite's wall time (duration_s), the cache counters and the process
counters (minor page faults and peak-RSS growth) under `verify --json`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from functools import cache
from itertools import chain, repeat

try:
    import resource
except ImportError:  # no getrusage (Windows)
    resource = None

import numpy as np

from .errors import AdskgError, DomainError, MagicFrequencyBlind
from .geometry import make_params
from .harmonics import AngularGrid, lm_labels, require_two_sphere, sph_harm
from .memo import counters
from .modes import RadialKind, jacobi_radial, magic_frequency, radial_eval

_KINDS = {"sa": RadialKind.Sa, "sb": RadialKind.Sb,
          "ca": RadialKind.Ca, "cb": RadialKind.Cb}


def _float_arg(text: str) -> float:
    """A finite float; NaN, infinities and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _label_arg(text: str) -> int:
    """An integer of magnitude at most 2^31 - 1, the bound of rep labels."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or abs(value) > 2 ** 31 - 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of magnitude at most {2 ** 31 - 1}, got {text!r}")
    return value


def _linspace_arg(text: str) -> np.ndarray:
    """Parse `a:b:n` into n evenly spaced values, or a single float."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected a:b:n, got {text!r}")
        a, b, n = _float_arg(parts[0]), _float_arg(parts[1]), int(parts[2])
        if n < 1:
            raise argparse.ArgumentTypeError("linspace count must be >= 1")
        return np.linspace(a, b, n)
    return np.array([_float_arg(text)])


def _add_params_args(parser):
    parser.add_argument("--d", type=int, default=3, help="spatial dimension (odd)")
    parser.add_argument("--R", type=_float_arg, default=1.0, help="curvature radius")
    parser.add_argument("--msq", type=_float_arg, default=0.0, help="mass squared")


def cmd_eval(args) -> int:
    params = make_params(args.d, args.R, args.msq)
    require_two_sphere(params.d)
    if args.l < 0 or abs(args.m) > args.l:
        print(f"error: need l >= 0 and |m| <= l, got l={args.l}, m={args.m}",
              file=sys.stderr)
        return 2
    outside = ~((0.0 <= args.theta) & (args.theta <= np.pi))  # P_l^m takes |sin theta|
    if outside.any():
        raise DomainError(f"theta = {args.theta[outside][0].item()!r} must lie in [0, pi]")
    kind_name = args.kind.lower()
    if kind_name in _KINDS:
        rads = radial_eval(_KINDS[kind_name], args.omega, args.l, args.rho, params)
        om = args.omega
    elif kind_name in ("jplus", "jminus"):
        branch = "plus" if kind_name == "jplus" else "minus"
        rads = jacobi_radial(branch, args.n, args.l, args.rho, params)
        om = magic_frequency(branch, args.n, args.l, params)
    else:
        raise AdskgError(f"unknown kind {args.kind!r}")
    # the product with Y in real arithmetic: numpy's complex array multiply
    # can differ from the scalar product in the last bit, these terms do not
    ys = sph_harm(args.l, args.m, args.theta[:, None], args.phi).ravel()
    ts = args.t.tolist()
    pr = (np.array([np.exp(-1j * om * t) for t in ts])[:, None] * rads).reshape(-1, 1)
    re = (pr.real * ys.real - pr.imag * ys.imag).ravel().tolist()
    im = (pr.real * ys.imag + pr.imag * ys.real).ravel().tolist()
    # each distinct coordinate formatted once, each row joined from its pieces
    angles = [f"{theta!r},{phi!r}," for theta in args.theta.tolist()
              for phi in args.phi.tolist()]
    points = [f"{t!r},{rho!r}," for t in ts for rho in args.rho.tolist()]
    heads = (point + angle for point in points for angle in angles)
    rows = chain.from_iterable(zip(heads, map(repr, re), repeat(","), map(repr, im),
                                   repeat("\n")))
    out = (f"# adskg v1 eval d={args.d} R={args.R!r} msq={args.msq!r}\n"
           "t,rho,theta,phi,re,im\n" + "".join(rows))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _json_float(value: float) -> float | None:
    """A NaN or infinite measurement as JSON null: strict JSON has no NaN."""
    return value if np.isfinite(value) else None


def _usage() -> tuple[int, int] | None:
    """(minor page faults, peak RSS in bytes) of this process so far, from
    getrusage (ru_maxrss counts KiB, bytes on macOS); None without it."""
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024)


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite
    names = list(SUITES) if args.suite == "all" else [args.suite]
    before = _usage()
    all_ok = True
    suites, records = [], []
    for name in names:
        start = time.perf_counter()
        checks = run_suite(name)
        duration = time.perf_counter() - start
        ok = all(c.passed for c in checks)
        all_ok = all_ok and ok
        worst = float(np.max([0.0] + [c.value for c in checks
                                      if c.window is None or not c.passed]))
        if args.json:
            suites.append({"suite": name, "passed": ok, "max_err": _json_float(worst),
                           "duration_s": duration})
            records += [{"suite": name, **asdict(c), "value": _json_float(c.value)}
                        for c in checks]
            continue
        for c in checks:
            print(c.line)
        print(f"SUITE {name} {'PASS' if ok else 'FAIL'} max_err={worst:.3e}")
    if args.json:
        after = _usage()
        faults, growth = (None, None) if before is None else (
            after[0] - before[0], (after[1] - before[1]) / 2.0 ** 20)
        print(json.dumps({"passed": all_ok, "suites": suites, "checks": records,
                          "caches": counters(),
                          "process": {"minor_faults": faults, "peak_rss_growth_mb": growth}},
                         indent=1, allow_nan=False))
    return 0 if all_ok else 1


def cmd_reconstruct(args) -> int:
    from . import expansions as xp
    rep, params = xp.load_rep(args.input)
    l_max = rep.coeffs.l_max
    ang = AngularGrid(max(16, l_max + 1), max(32, 2 * l_max + 2))
    orig = rep.coeffs
    if args.target == "slice":
        if not isinstance(rep, xp.SliceRep):
            raise AdskgError("reconstruct slice needs a slice rep")
        n_max = int(rep.coeffs.js[-1])
        data = xp.sample_slice(rep, args.t0, params, angular=ang)
        rec = xp.invert_slice(data, params, n_max, l_max, check_residual=False)
    elif args.target == "tube":
        if not isinstance(rep, xp.TubeRep):
            raise AdskgError("reconstruct tube needs a tube rep")
        data = xp.sample_tube(rep, args.rho0, params, ang)
        rec = xp.invert_tube(data, params, l_max, rep.basis)
    elif args.target == "rod":
        if not isinstance(rep, xp.RodRep):
            raise AdskgError("reconstruct rod needs a rod rep")
        data = xp.sample_rod(rep, args.rho0, params, ang)
        rec = xp.invert_rod_interior(data, params, l_max)
    elif args.target == "boundary":
        try:
            if isinstance(rep, xp.RodRep):
                data = xp.rod_boundary_data_of(rep, params, ang)
                rec = xp.rod_boundary_reconstruct(data, params, l_max)
            elif isinstance(rep, xp.TubeRep):
                crep = rep if rep.basis == "C" else xp.s_to_c(rep, params)
                orig = crep.coeffs
                data = xp.boundary_data_of(crep, params, ang)
                rec = xp.boundary_reconstruct(data, params, l_max)
            else:
                raise AdskgError("boundary reconstruction needs a tube or rod rep")
        except MagicFrequencyBlind as exc:
            print(f"MagicFrequencyBlind: {exc}")
            return 1
    else:  # pragma: no cover - argparse restricts choices
        return 2

    # orig's labels in sorted order; rec holds every label of the window
    rows, lm = np.nonzero(orig.mask)
    got = rec.coeffs.array[:, np.searchsorted(rec.coeffs.js, orig.js[rows]), lm]
    errs = np.abs(got - orig.array[:, rows, lm]).max(axis=0)
    # a NaN error is the worst one: it fails the run and prints as max_err=nan
    worst = float(np.max(errs, initial=0.0))
    status = worst < 1e-6
    # "label (j, " formatted once per row of orig, "l, m): recovery_err=" once
    # per packed lm, and each label line joined from them and its error
    ls, ms = lm_labels(orig.l_max)
    heads = ["label (%d, " % j for j in orig.js.tolist()]
    mids = list(map("%d, %d): recovery_err=".__mod__, zip(ls.tolist(), ms.tolist())))
    labels = map("%s%s%.3e".__mod__, zip(map(heads.__getitem__, rows.tolist()), map(
        mids.__getitem__, lm.tolist()), errs.tolist()))
    print("\n".join([*labels, f"RECONSTRUCT {args.target} {'PASS' if status else 'FAIL'} "
                               f"max_err={worst:.3e}"]))
    return 0 if status else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="adskg",
        description="Klein-Gordon modes on anti-de Sitter space: evaluation, "
                    "verification, reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a mode on a grid, emit CSV")
    _add_params_args(p_eval)
    p_eval.add_argument("--kind", required=True,
                        help="sa|sb|ca|cb|jplus|jminus")
    p_eval.add_argument("--omega", type=_float_arg, default=0.0)
    p_eval.add_argument("--n", type=_label_arg, default=0)
    p_eval.add_argument("--l", type=_label_arg, default=0)
    p_eval.add_argument("--m", type=_label_arg, default=0)
    p_eval.add_argument("--t", type=_linspace_arg, default=np.array([0.0]))
    p_eval.add_argument("--rho", type=_linspace_arg, default=np.array([0.5]))
    p_eval.add_argument("--theta", type=_linspace_arg,
                        default=np.array([1.5707963267948966]))
    p_eval.add_argument("--phi", type=_linspace_arg, default=np.array([0.0]))
    p_eval.add_argument("-o", "--output", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    from .verify import SUITES
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--json", action="store_true",
                          help="print one JSON document: a record per check "
                               "and per suite (with duration_s), the cache "
                               "counters and the run's minor page faults and "
                               "peak-RSS growth")
    p_verify.set_defaults(fn=cmd_verify)

    p_rec = sub.add_parser("reconstruct",
                           help="round-trip a rep file through an inversion")
    p_rec.add_argument("--input", required=True)
    p_rec.add_argument("--target", required=True,
                       choices=["slice", "tube", "rod", "boundary"])
    p_rec.add_argument("--t0", type=_float_arg, default=0.0)
    p_rec.add_argument("--rho0", type=_float_arg, default=0.8)
    p_rec.set_defaults(fn=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (AdskgError, OSError) as exc:  # a file that cannot be read or written too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

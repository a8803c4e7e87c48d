"""Command-line surface: spectra, eigenfunction tables, verification, transforms.

Subcommands
-----------
eigs      table of (N, n, chi, mu, lambda_re, lambda_im, truncation); n
          counts modes by ascending chi, which for nu < 0 is not
          descending |mu|
eval      evaluate phi (radial) or psi (polar) at explicit points
tabulate  CSV/JSON table of phi on a radial grid or psi on a polar grid
verify    run a named verification suite; nonzero exit on any failed check
transform closed-form transform values (disk / gegenbauer families)

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.  Output is deterministic: identical invocations produce
byte-identical output (fixed sign conventions, sorted JSON keys, 17
significant digit round-trippable CSV).
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .linalg import ConvergenceError
from .slepian import SlepianParams, eval_phi, eval_psi, solve_modes
from .transforms import disk_transform_closed, gegenbauer2d_transform_closed

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


def _fmt(x):
    return format(float(x), ".17g")


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_payload(config, results):
    return json.dumps({"schema_version": SCHEMA_VERSION,
                       "config": config, "results": results},
                      sort_keys=True, indent=2) + "\n"


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _params_from(args):
    try:
        return SlepianParams(nu=args.nu, c=args.c, N=args.N,
                             truncation=args.truncation, tolerance=args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_eigs(args):
    params = _params_from(args)
    if args.modes < 1:
        raise UsageError("--modes must be >= 1")
    modes = solve_modes(params, args.modes)
    config = {"command": "eigs", "nu": params.nu, "c": params.c, "N": params.N,
              "modes": args.modes, "tolerance": params.tolerance,
              "truncation": modes[0].truncation, "format": args.format}
    rows = [(params.N, m.n, m.chi, m.mu, m.lam.real, m.lam.imag, m.truncation)
            for m in modes]
    if args.format == "csv":
        _emit(_csv(("N", "n", "chi", "mu", "lambda_re", "lambda_im", "truncation"),
                   rows), args.out)
    else:
        results = [{"N": r[0], "n": r[1], "chi": r[2], "mu": r[3],
                    "lambda_re": r[4], "lambda_im": r[5], "truncation": r[6]}
                   for r in rows]
        _emit(_json_payload(config, results), args.out)
    return 0


def _parse_points(specs):
    pts = []
    for spec in specs:
        parts = spec.split(":")
        try:
            if len(parts) == 1:
                pts.append((float(parts[0]), None))
            elif len(parts) == 2:
                pts.append((float(parts[0]), float(parts[1])))
            else:
                raise ValueError
        except ValueError:
            raise UsageError(f"bad point spec {spec!r}; use r or r:theta") from None
        if not 0 < pts[-1][0] <= 1:
            raise UsageError(f"point radius must be in (0, 1], got {pts[-1][0]}")
        if pts[-1][1] is not None and not math.isfinite(pts[-1][1]):
            raise UsageError(f"point angle must be finite, got {pts[-1][1]}")
    return pts


def _solve_mode(params, index):
    if index < 0:
        raise UsageError("--mode must be >= 0")
    return solve_modes(params, index + 1)[index]


def cmd_eval(args):
    params = _params_from(args)
    if not args.at:
        raise UsageError("eval needs at least one --at point")
    pts = _parse_points(args.at)
    mode = _solve_mode(params, args.mode)
    results = []
    for (r, theta) in pts:
        if theta is None:
            results.append({"r": r, "value": float(eval_phi(mode, params, r))})
        else:
            v = eval_psi(mode, params, r, theta)
            results.append({"r": r, "theta": theta, "re": v.real, "im": v.imag})
    config = {"command": "eval", "nu": params.nu, "c": params.c, "N": params.N,
              "mode": args.mode, "truncation": mode.truncation}
    _emit(_json_payload(config, results), args.out)
    return 0


def cmd_tabulate(args):
    params = _params_from(args)
    if args.grid_r < 1:
        raise UsageError("--grid-r must be >= 1")
    if args.grid_theta < 0:
        raise UsageError("--grid-theta must be >= 0")
    mode = _solve_mode(params, args.mode)
    rs = np.arange(1, args.grid_r + 1) / args.grid_r
    if args.grid_theta:
        thetas = 2 * np.pi * np.arange(args.grid_theta) / args.grid_theta
        r_all = np.repeat(rs, args.grid_theta)
        t_all = np.tile(thetas, args.grid_r)
        vals = eval_psi(mode, params, r_all, t_all)
        rows = [(float(r), float(t), float(v.real), float(v.imag))
                for r, t, v in zip(r_all, t_all, vals)]
        header = ("r", "theta", "re", "im")
    else:
        vals = np.atleast_1d(eval_phi(mode, params, rs))
        rows = [(float(r), float(v)) for r, v in zip(rs, vals)]
        header = ("x", "value")
    config = {"command": "tabulate", "nu": params.nu, "c": params.c,
              "N": params.N, "mode": args.mode, "grid_r": args.grid_r,
              "grid_theta": args.grid_theta, "truncation": mode.truncation}
    if args.format == "json":
        results = [dict(zip(header, row)) for row in rows]
        _emit(_json_payload(config, results), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def cmd_verify(args):
    # imported here: the other commands need none of the suites
    from .verification import run_suite

    try:
        checks = run_suite(args.suite, quick=args.quick)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    n_fail = sum(not c.passed for c in checks)
    if args.format == "json":
        config = {"command": "verify", "suite": args.suite, "quick": args.quick}
        results = [{"name": c.name, "error": c.error, "tol": c.tol,
                    "passed": c.passed, "detail": c.detail} for c in checks]
        _emit(_json_payload(config, results), args.out)
    else:
        lines = []
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"{status}  {c.name}: error {c.error:.3e} (tol {c.tol:.1e}){extra}")
        lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if n_fail else 0


def cmd_transform(args):
    try:
        if args.family == "disk":
            if args.m is None:
                raise UsageError("disk family needs --m")
            res = disk_transform_closed(args.nu, args.n, args.m, args.rho, args.theta)
            idx = {"n": args.n, "m": args.m}
        else:
            if args.k is None:
                raise UsageError("gegenbauer family needs --k")
            res = gegenbauer2d_transform_closed(args.nu, args.n, args.k,
                                                args.rho, args.theta)
            idx = {"n": args.n, "k": args.k}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # "constant_source" stays in the output for readers of earlier files;
    # the derived constant is the only one
    config = {"command": "transform", "family": args.family, "nu": args.nu,
              "rho": args.rho, "theta": args.theta,
              "constant_source": "derived", **idx}
    result = {"re": res.value.real, "im": res.value.imag,
              "constant_source": "derived",
              "derived_over_paper_re": res.discrepancy_log.real,
              "derived_over_paper_im": res.discrepancy_log.imag}
    _emit(_json_payload(config, [result]), args.out)
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="diskslepian",
        description="Generalized 2D Slepian functions on the unit disk")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, modes=False):
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--c", type=float, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--truncation", type=int, default=None,
                       help="pin the expansion size K, raised to the number of "
                       "modes solved + 2; a K whose coefficient tail fails --tol "
                       "exits 3.  Default: the smallest K a tail bound "
                       "certifies, doubled until the tail passes")
        p.add_argument("--out", default=None)
        if modes:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("eigs", help="compute chi, mu, lambda for the first modes by chi")
    common(p, modes=True)
    p.add_argument("--modes", type=int, required=True,
                   help="number of modes, by ascending chi; for nu < 0 that is "
                   "not descending |mu|")
    p.set_defaults(fn=cmd_eigs)

    p = sub.add_parser("eval", help="evaluate phi (r) or psi (r:theta) at points")
    common(p)
    p.add_argument("--mode", type=int, default=0)
    p.add_argument("--at", action="append", default=[],
                   help="point 'r' for phi or 'r:theta' for psi (repeatable)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("tabulate", help="tabulate phi or psi on a grid")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--mode", type=int, default=0)
    p.add_argument("--grid-r", type=int, required=True)
    p.add_argument("--grid-theta", type=int, default=0)
    p.set_defaults(fn=cmd_tabulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transform", help="closed-form transform values")
    p.add_argument("--family", choices=("disk", "gegenbauer"), required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_transform)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, OverflowError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

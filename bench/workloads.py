"""The benchmark workloads: seeded inputs, one op, and its correctness gate.

BENCHMARK.json gates spectrum_sweep and cli_cold; grid_eval and verify_quick
run by hand (``--workload NAME``).  The runs of a benchmark check fit a fixed
time budget, and with two workloads each run can measure for 36 s, long
enough for best-of-repeats to ride out short slow spells of a shared host.
cli_cold still reaches every layer the other two load: ``tabulate``
evaluates eigenfunctions on a grid, and its ``verify`` op runs one suite
that loads the operators layer.

Every input is generated from the seed (``random.Random`` seeded with the
workload name and the seed, so streams are stable across interpreter runs);
the program only ever sees the generated arguments.  Parameters are drawn by
strata (one draw per equal slice of each range) so that every seed covers
the ranges evenly and the per-op cost mix barely moves between seeds.

Warm workloads call the library in-process in a closed loop; fresh-process
workloads start one CLI process per op, one at a time.  A gate never raises:
it returns whether the op passed and the accuracy it measured.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_MARK = "BENCH-SPANS "
CHILD_TIMEOUT_S = 170

SWEEP_NU_STRATA = 3
SWEEP_C_PER_NU = 16
C_MIN, C_MAX = 0.5, 80.0
GRID_SETS = 3
GRID_C_MAX = 20.0
GRID_MODES = 10
GRID_NODES = 200
GRID_THETAS = 256
PHI_POINTS = 100_000
OPERATOR_SUITES = ("lemma1", "commute", "nystrom")
ACCURACY = ("mu_rel_err_max_c_le_20", "mu_rel_err_max", "lambda_abs_max", "gram_err_max")


def child_env():
    """Environment of every process the benchmark starts: the package on
    the path and single-threaded BLAS/OpenMP pools (2 cores, one op at a time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def sweep_modes(c):
    """Modes requested at bandwidth c: 10 at c=0.5 rising to 30 at c=80."""
    return int(round(10 + 20 * math.log(c / C_MIN) / math.log(C_MAX / C_MIN)))


def _log_uniform(rng, lo, hi, stratum, strata):
    u = (stratum + rng.random()) / strata
    return float(f"{lo * (hi / lo) ** u:.6g}")


def _nu(rng, stratum, strata):
    return round(3.0 * (stratum + rng.random()) / strata, 4)


def merge_max(acc, values):
    for key, value in values.items():
        acc[key] = max(acc.get(key, 0.0), value)


def _mu_accuracy(c, err, lam_max):
    acc = {"mu_rel_err_max": err, "lambda_abs_max": lam_max}
    if c <= 20:
        acc["mu_rel_err_max_c_le_20"] = err
    return acc


class Warm:
    """In-process closed loop: set-up solves, then ops reuse warm caches."""

    fresh = False

    def import_program(self):
        from diskslepian import slepian
        self.sl = slepian

    def prepare(self):
        """Benchmark-side data for the gates, not timed; returns whether the
        set-up checks passed."""
        return True


class SpectrumSweep(Warm):
    name = "spectrum_sweep"

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        # Latin hypercube: one c per stratum, strata dealt out to the nu groups
        n_ops = SWEEP_NU_STRATA * SWEEP_C_PER_NU
        cs = [_log_uniform(rng, C_MIN, C_MAX, j, n_ops) for j in range(n_ops)]
        Ns = [j % 5 for j in range(n_ops)]
        rng.shuffle(cs)
        rng.shuffle(Ns)
        self.ops = []
        for i in range(SWEEP_NU_STRATA):
            nu = _nu(rng, i, SWEEP_NU_STRATA)
            for j in range(i * SWEEP_C_PER_NU, (i + 1) * SWEEP_C_PER_NU):
                self.ops.append((nu, cs[j], Ns[j], sweep_modes(cs[j])))
        rng.shuffle(self.ops)
        self._oracles = {}

    def cold_pass(self):
        for op in self.ops:
            self.run(op)

    def run(self, op):
        nu, c, N, modes = op
        return self.sl.solve_modes(self.sl.SlepianParams(nu=nu, c=c, N=N), modes)

    def units(self, op):
        return op[3]

    def check(self, op, out):
        from oracle import MuOracle
        nu, c, N, _ = op
        if op not in self._oracles:
            self._oracles[op] = MuOracle(nu, c, N)
        passed, err, lam = self._oracles[op].check(
            c, [m.mu for m in out], [m.lam for m in out])
        return passed, _mu_accuracy(c, err, lam)


class GridEval(Warm):
    name = "grid_eval"

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        strata = list(range(GRID_SETS))
        rng.shuffle(strata)
        self.params = [(_nu(rng, i, GRID_SETS),
                        _log_uniform(rng, C_MIN, GRID_C_MAX, s, GRID_SETS),
                        rng.randrange(5)) for i, s in enumerate(strata)]
        # phi twice as often as psi: the median then sits inside the phi
        # cost cluster instead of on the edge between two clusters
        self.ops = [(kind, g, n) for g in range(GRID_SETS) for n in range(GRID_MODES)
                    for kind in ("phi", "phi", "psi")]
        rng.shuffle(self.ops)
        self.seed = seed

    def cold_pass(self):
        self.sp = [self.sl.SlepianParams(nu=nu, c=c, N=N) for nu, c, N in self.params]
        self.modes = [self.sl.solve_modes(p, GRID_MODES) for p in self.sp]

    def prepare(self):
        import numpy as np
        from oracle import GRAM_TOL, GramRule, gram_error
        rng = np.random.default_rng(self.seed)
        extra = rng.uniform(0.0, 1.0, PHI_POINTS - GRID_NODES)
        self.thetas = 2 * np.pi * (np.arange(GRID_THETAS) + rng.random()) / GRID_THETAS
        self.rules = [GramRule(GRID_NODES, nu) for nu, _, _ in self.params]
        self.x = [np.concatenate([r.nodes, extra]) for r in self.rules]
        self.r = [np.repeat(r.nodes, GRID_THETAS) for r in self.rules]
        self.th = np.tile(self.thetas, GRID_NODES)
        # reference radial values at the oracle nodes, gated by their full Gram
        self.tables = []
        setup_ok = True
        for rule, p, modes in zip(self.rules, self.sp, self.modes):
            table = np.array([self.sl.eval_phi(m, p, rule.nodes) for m in modes])
            self.tables.append(table)
            setup_ok &= all(gram_error(rule.radial_gram_row(row, table), n) <= GRAM_TOL
                            for n, row in enumerate(table))
        return bool(setup_ok)

    def run(self, op):
        kind, g, n = op
        mode, p = self.modes[g][n], self.sp[g]
        if kind == "phi":
            return self.sl.eval_phi(mode, p, self.x[g])
        return self.sl.eval_psi(mode, p, self.r[g], self.th)

    def units(self, op):
        return PHI_POINTS if op[0] == "phi" else GRID_NODES * GRID_THETAS

    def check(self, op, out):
        import numpy as np
        from oracle import GRAM_TOL, gram_error
        kind, g, n = op
        rule, table = self.rules[g], self.tables[g]
        if kind == "phi":
            row = rule.radial_gram_row(out[:GRID_NODES], table)
        else:
            grid = np.asarray(out).reshape(GRID_NODES, GRID_THETAS)
            angular = grid @ np.exp(-1j * self.sp[g].N * self.thetas)
            row = rule.polar_gram_row(angular, table / np.sqrt(rule.nodes), len(self.thetas))
        err = gram_error(row, n)
        return err <= GRAM_TOL, {"gram_err_max": err}


class Fresh:
    """One fresh ``python -m diskslepian.cli`` process per op."""

    fresh = True

    def run(self, op, traced=False):
        """Run one CLI process; returns (exit code, stdout bytes, span totals)."""
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", *op]
        else:
            cmd = [sys.executable, "-m", "diskslepian.cli", *op]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        spans = {}
        err_lines = proc.stderr.decode(errors="replace").splitlines()
        if err_lines and err_lines[-1].startswith(SPANS_MARK):
            spans = json.loads(err_lines.pop()[len(SPANS_MARK):])
        for line in err_lines:
            print(f"[{op[0]}] {line}", file=sys.stderr)
        return proc.returncode, proc.stdout, spans

    def units(self, op):
        return 1

    def prepare(self):
        return True


class CliCold(Fresh):
    name = "cli_cold"

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for j in range(2):
            c = _log_uniform(rng, C_MIN, C_MAX, j, 2)
            ops.append(["eigs", "--nu", str(_nu(rng, 0, 1)), "--c", str(c),
                        "--N", str(rng.randrange(5)), "--modes", str(sweep_modes(c))])
        ops.append(["tabulate", "--nu", str(_nu(rng, 0, 1)),
                    "--c", str(_log_uniform(rng, C_MIN, GRID_C_MAX, 0, 1)),
                    "--N", str(rng.randrange(5)), "--mode", str(rng.randrange(4)),
                    "--grid-r", str(rng.randrange(120, 130)),
                    "--grid-theta", str(rng.randrange(48, 56))])
        family = rng.choice(("disk", "gegenbauer"))
        n = rng.randrange(4)
        index = ["--m", str(rng.randrange(4))] if family == "disk" else \
            ["--k", str(rng.randrange(n + 1))]
        ops.append(["transform", "--family", family, "--nu", str(_nu(rng, 0, 1)),
                    "--n", str(n), *index,
                    "--rho", f"{rng.uniform(0.5, 5.0):.6g}",
                    "--theta", f"{rng.uniform(0.0, 2 * math.pi):.6g}"])
        # the suites through which verification reaches the operators layer
        ops.append(["verify", "--suite", rng.choice(OPERATOR_SUITES), "--quick"])
        # eigs, tabulate and transform cost about the same and a verify
        # suite several times more, so the median of the five is never the
        # verify op; five ops give each several repeats within a run
        rng.shuffle(ops)
        self.ops = [tuple(op) for op in ops]
        self._refs, self._oracles = {}, {}

    def prepare(self):
        from diskslepian import cli
        self.cli = cli
        return True

    def _reference(self, op):
        if op not in self._refs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(op))
            self._refs[op] = (code, buf.getvalue().encode())
        return self._refs[op]

    def check(self, op, out):
        code, stdout, _ = out
        ref_code, ref_out = self._reference(op)
        passed = code == 0 and ref_code == 0 and stdout == ref_out
        acc = {}
        if passed and op[0] == "eigs":
            from oracle import MuOracle
            args = dict(zip(op[1::2], op[2::2]))
            c = float(args["--c"])
            if op not in self._oracles:
                self._oracles[op] = MuOracle(float(args["--nu"]), c, int(args["--N"]))
            rows = json.loads(stdout)["results"]
            ok, err, lam = self._oracles[op].check(
                c, [r["mu"] for r in rows],
                [complex(r["lambda_re"], r["lambda_im"]) for r in rows])
            passed, acc = ok, _mu_accuracy(c, err, lam)
        elif op[0] == "verify":
            passed = passed and all_checks_pass(stdout)
        return passed, acc


class VerifyQuick(Fresh):
    name = "verify_quick"

    def __init__(self, seed):
        # the quick suite takes no parameters: every seed runs the same op
        self.ops = [("verify", "--suite", "all", "--quick")]

    def check(self, op, out):
        code, stdout, _ = out
        return code == 0 and all_checks_pass(stdout), {}


def all_checks_pass(stdout):
    """Whether ``verify`` output lists checks that all PASS and a matching
    "k/k checks passed" summary."""
    lines = stdout.decode(errors="replace").splitlines()
    if not lines:
        return False
    checks, summary = lines[:-1], lines[-1].split()
    total = f"{len(checks)}/{len(checks)}"
    return bool(checks) and all(line.startswith("PASS ") for line in checks) \
        and summary[:1] == [total]


WORKLOADS = {w.name: w for w in (SpectrumSweep, GridEval, CliCold, VerifyQuick)}


def timed_setup(wl):
    """Set ``wl`` up in this interpreter; returns the cost in seconds.

    Warm workloads: import plus the cold first pass.  Fresh-process
    workloads: the import of ``diskslepian.cli`` that every CLI call pays.
    """
    t0 = time.perf_counter()
    if wl.fresh:
        import diskslepian.cli  # noqa: F401
    else:
        wl.import_program()
        wl.cold_pass()
    return time.perf_counter() - t0

"""Benchmark of the diskslepian solver, CLI and verification suites.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): spectrum_sweep and grid_eval run warm and
in-process, one caller in a closed loop; cli_cold and verify_quick start one
fresh CLI process per op, one after another.  A run cycles through the
seeded op list until the ops' summed time reaches --seconds and every op has
run; gate time (oracles, reference runs) is not counted.  ``attempted`` is
the number of distinct ops of the list and ``failed`` the number of them
that failed a gate on any repeat; the run goes on past a failure.

With --trace 0 the last stdout line is the JSON result with the end-to-end
metrics; the lines before it give every metric by name and unit, including
those that are not gated (op_ms_p90 where 100+ samples exist, modes_per_s,
points_per_s, fail_share, accuracy, the plain sample median) and the
environment.  op_ms_p50 is the median over the op list of each op's best
repeat in the run, which shields it from other load on a shared host.  With --trace 1 the
first half of the time runs untraced and the second half traced, and the
result holds the per-layer metrics (per traced op) plus the tracing overhead,
traced minus untraced op_ms_p50.  ``correct`` is false when a set-up gate
failed (reference values the op gates rely on).  --report runs every
workload and prints each one's lines.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers
import workloads
from tracer import Tracer, merge

SETUP_SAMPLES_WARM = 3
SETUP_SAMPLES_FRESH = 7
P90_MIN_SAMPLES = 100


def setup_seconds(wl, seed, in_process):
    """Median set-up time (see workloads.timed_setup) over fresh interpreters,
    counting this one first when ``in_process``; this one is then set up."""
    samples = [workloads.timed_setup(wl)] if in_process else []
    while len(samples) < (SETUP_SAMPLES_FRESH if wl.fresh else SETUP_SAMPLES_WARM):
        proc = subprocess.run(
            [sys.executable, str(workloads.BENCH / "child.py"), "setup", wl.name, str(seed)],
            env=workloads.child_env(), capture_output=True, check=True,
            timeout=workloads.CHILD_TIMEOUT_S, cwd=workloads.ROOT)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Phase:
    """Ops run back to back until their summed time reaches ``seconds`` and
    every op of the list has run at least once."""

    def __init__(self, wl, seconds, start, traced):
        self.samples, self.units, self.acc, self.spans = [], 0, {}, {}
        self.ops = []
        self.failed_ops = set()
        tracer = None
        if traced and not wl.fresh:
            tracer = Tracer()
            layers.install(tracer)
        i = start
        try:
            while sum(self.samples) < seconds or i - start < len(wl.ops):
                op = wl.ops[i % len(wl.ops)]
                i += 1
                self._one(wl, op, traced, tracer)
        finally:
            if tracer:
                tracer.restore()
                merge(self.spans, tracer.aggregate())
        self.next = i

    def _one(self, wl, op, traced, tracer):
        if tracer:
            tracer.open("op")
        t0 = time.perf_counter()
        try:
            out = wl.run(op, traced) if wl.fresh else wl.run(op)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = exc
        self.samples.append(time.perf_counter() - t0)
        self.ops.append(op)
        if tracer:
            tracer.close()
        if isinstance(out, Exception):
            passed, acc, why = False, {}, f"raised {type(out).__name__}: {out}"
        else:
            passed, acc = wl.check(op, out)
            why = f"failed its gate: {acc}"
            if wl.fresh:
                merge(self.spans, out[2])
        if not passed and op not in self.failed_ops:
            self.failed_ops.add(op)
            print(f"op {op} {why}", file=sys.stderr)
        workloads.merge_max(self.acc, acc)
        self.units += wl.units(op)

    def p50_ms(self):
        """Median over the run's ops of each op's best time.

        Ops are deterministic and CPU-bound, so the best of an op's repeats
        is its time without interference from other load on the host (the
        advice of ``timeit``); weighting by the op list keeps the workload's
        op mix.  The plain sample median is printed beside it.
        """
        best = {}
        for op, t in zip(self.ops, self.samples):
            best[op] = min(t, best.get(op, t))
        return 1e3 * statistics.median(best[op] for op in self.ops)


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.fresh else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} nproc {os.cpu_count()} cpu {cpu!r} seed {seed}")


def traced_cold_pass(wl):
    """In-process cold pass of a warm workload; returns its span totals."""
    wl.import_program()
    tracer = Tracer()
    layers.install(tracer)
    try:
        wl.cold_pass()
    finally:
        tracer.restore()
    return tracer.aggregate()


def layer_metrics(wl, seed, plain, traced, setup_agg):
    """Per-layer metrics of a traced run (see layers.metrics)."""
    n = len(traced.samples)
    out = layers.metrics(traced.spans, n)
    if wl.fresh:
        out["import.s"] = traced.spans.get("import", {"ms": 0.0})["ms"] / 1e3 / n
    else:
        out["import.s"] = setup_seconds(workloads.CliCold(seed), seed, in_process=False)
    setup = layers.metrics(setup_agg, 1)
    for key in ("quadrature.radial_rule.misses", "quadrature.radial_rule.cold_ms",
                "quadrature.golub_welsch_eigen_ms"):
        out[f"setup.{key}"] = setup[key]
    out["trace.overhead_ms"] = traced.p50_ms() - plain.p50_ms()
    return out


def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name](seed)
    # untimed first import, so that bytecode compilation never lands in a sample
    subprocess.run([sys.executable, "-c", "import diskslepian.cli"],
                   env=workloads.child_env(), check=True, cwd=workloads.ROOT,
                   timeout=workloads.CHILD_TIMEOUT_S)
    metrics, setup_agg = {}, {}
    if not trace:
        metrics["setup_s"] = setup_seconds(wl, seed, in_process=True)
    elif not wl.fresh:
        setup_agg = traced_cold_pass(wl)
    correct = wl.prepare()

    if trace:
        plain = Phase(wl, seconds / 2, 0, traced=False)
        traced = Phase(wl, seconds / 2, plain.next, traced=True)
        phases = [plain, traced]
        metrics.update(layer_metrics(wl, seed, plain, traced, setup_agg))
    else:
        phases = [Phase(wl, seconds, 0, traced=False)]
        metrics["op_ms_p50"] = phases[0].p50_ms()
        metrics["peak_rss_mb"] = peak_rss_mb(wl)
    acc = {}
    for p in phases:
        workloads.merge_max(acc, p.acc)
    accuracy = {f"accuracy.{key}": acc.get(key, 0.0) for key in workloads.ACCURACY}

    # ops are deterministic, so each distinct op of the seeded list counts
    # once, and as failed if any of its repeats failed: the counts then depend
    # on the seed alone and not on how many repeats the host's speed allowed
    attempted = len(set().union(*(p.ops for p in phases)))
    failed = len(set().union(*(p.failed_ops for p in phases)))
    samples = phases[-1].samples
    lines = [f"workload {name} seed {seed} trace {trace}: {attempted} distinct ops "
             f"run {sum(len(p.samples) for p in phases)} times, {failed} failed, "
             f"fail_share {failed / attempted:.6g} 1",
             f"  op_ms_sample_median {1e3 * statistics.median(samples):.6g} ms"]
    if len(samples) >= P90_MIN_SAMPLES:
        p90 = 1e3 * statistics.quantiles(samples, n=10)[-1]
        lines.append(f"  op_ms_p90 {p90:.6g} ms (n={len(samples)})")
    else:
        lines.append(f"  op_ms_p90 not reported: n={len(samples)} < {P90_MIN_SAMPLES}")
    rate = phases[-1].units / sum(samples)
    if name == "spectrum_sweep":
        lines.append(f"  modes_per_s {rate:.6g} 1/s")
    elif name == "grid_eval":
        lines.append(f"  points_per_s {rate:.6g} 1/s")
    for key, value in {**metrics, **accuracy}.items():
        lines.append(f"  {key} {value:.6g} {layers.unit_of(key)}")
    lines.append(f"  env: {environment(seed)}")
    print("\n".join(lines))

    if trace:
        metrics.update(accuracy)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": layers.unit_of(k)} for k, v in metrics.items()}}


def report(seed, seconds, trace):
    """Every workload in its own process, each printing its metric lines."""
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        code = code or proc.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (workloads.SRC / "diskslepian" / "__init__.py").is_file():
        print(f"error: no diskslepian package under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.report:
        return report(args.seed, args.seconds, args.trace)
    if not args.workload:
        ap.error("--workload is required without --report")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

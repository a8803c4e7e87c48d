"""Fresh-interpreter helper of the benchmark.

    python3 bench/child.py setup <workload> <seed>
        print the workload's set-up time in seconds (see workloads.timed_setup)
    python3 bench/child.py cli <argv...>
        run ``diskslepian.cli.main(argv)`` with every layer boundary traced;
        the CLI's own output goes to stdout unchanged, and the span totals,
        including the import, go to the last line of stderr

The package must be importable (``workloads.child_env`` sets PYTHONPATH).
"""

import json
import sys
import time

import layers
import workloads
from tracer import Tracer


def traced_cli(argv):
    t0 = time.perf_counter()
    from diskslepian import cli
    import_ms = 1e3 * (time.perf_counter() - t0)
    tracer = Tracer()
    layers.install(tracer)
    code = cli.main(argv)
    agg = tracer.aggregate()
    agg["import"] = {"calls": 1, "ms": import_ms, "self_ms": import_ms,
                     "misses": 0, "miss_ms": 0.0, "units": 0}
    sys.stdout.flush()
    print(workloads.SPANS_MARK + json.dumps(agg), file=sys.stderr)
    return code


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        print(repr(workloads.timed_setup(workloads.WORKLOADS[argv[1]](int(argv[2])))))
        return 0
    if argv[:1] == ["cli"]:
        return traced_cli(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

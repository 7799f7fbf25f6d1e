"""Benchmark of the hotbrownian toolkit as its users run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload campaign_reps --seed 1 --seconds 60 --trace 0

The program is imported from ``src/`` of the checkout.  The run sets up
(imports plus a warm-up on a small input), then repeats as many whole
rounds of the workload as fit in ``--seconds``, checks every round's
outputs and prints one JSON line: the end-to-end metrics with
``--trace 0``, or with ``--trace 1`` the per-layer metrics of one extra,
traced round.  Outputs go to ``.perfbench_out/<workload>/`` under the
checkout.  See README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread unless the environment says otherwise, set before numpy
# loads: at the default, a BLAS worker spins on the second core after each
# expm call, and run-to-run spreads of the round time triple (README,
# "Threads").
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("campaign_long", "campaign_reps", "thermometry_sweep", "trace_io")
WARM_UPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root: Path) -> None:
    """Put the checkout's ``src/`` first on the path and import the package.

    Exits with an error when the checkout has no program source, so that
    an installed copy elsewhere is never benchmarked by mistake.
    """
    package = root / "src" / "hotbrownian"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source in {package}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    import hotbrownian

    if Path(hotbrownian.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported hotbrownian from {hotbrownian.__file__}, "
                 f"not from {package}")


def cpu_seconds() -> float:
    """CPU time of this process (all its threads) and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed(func):
    """(wall seconds, CPU seconds, result) of one call."""
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    result = func()
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program(Path.cwd())
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed,
                              Path.cwd() / ".perfbench_out" / args.workload)
    loaded_s = time.perf_counter() - _START
    warm_ups = [timed(workload.warm_up)[0] for _ in range(WARM_UPS)]
    setup_s = loaded_s + statistics.median(warm_ups)

    walls, cpus, attempted, failed, problems = [], [], 0, 0, []

    def account(output) -> None:
        nonlocal attempted, failed
        n_failed, messages = workload.check(output)
        attempted += workload.ops
        failed += n_failed
        problems.extend(messages)

    try:
        # A round starts only if a round and its check, as long as the
        # longest so far, still end within --seconds; the first always runs.
        begin, spans = time.perf_counter(), []
        while not spans or time.perf_counter() - begin + max(spans) <= args.seconds:
            start = time.perf_counter()
            wall, cpu, output = timed(workload.run_round)
            walls.append(wall)
            cpus.append(cpu)
            account(output)
            spans.append(time.perf_counter() - start)
        if args.trace:
            with tracing.Tracer() as tracer:
                traced_wall, _, output = timed(workload.run_round)
            account(output)
    finally:
        workload.close()

    for message in problems:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    if args.trace:
        values = tracer.metrics()
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics = {name: {"value": value, "unit": _per_layer_unit(name)}
                   for name, value in values.items()}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": statistics.median(workload.ops / w for w in walls),
                          "unit": "1/s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib * 1024 / 1e6, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


if __name__ == "__main__":
    sys.exit(main())

"""spinefe benchmark: one workload per process, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-trend --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it runs one warm-up unit, then the workload's unit of
work as many times as fit ``--seconds`` at the workload's nominal unit
time, and reports the wall time of the fastest unit, the median
``pipeline.build_model`` time and the process's peak RSS.  With
``--trace 1`` it runs one warm-up unit, then alternates traced and
untraced units and reports the per-layer metrics of the traced ones
(medians), the trace's coverage and its overhead.
Every unit's outputs are checked.  A summary and the environment go to
standard output; the last line is the JSON result.  Samples, environment
and spans are also written to ``.perfbench_out/`` under the repository
root.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and check it wins."""
    if not (SRC / "spinefe" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'spinefe'} not found; run from a spinefe checkout")
    sys.path.insert(0, str(SRC))
    import spinefe
    if Path(spinefe.__file__).resolve().parent != SRC / "spinefe":
        sys.exit(f"perfbench: imported spinefe from {spinefe.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import measure
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    env = measure.environment()
    runner = measure.Runner(WORKLOADS[args.workload], args.seed, OUT)
    if args.trace:
        metrics, samples = measure.measure_layers(runner, args.seconds)
        units = measure.LAYER_UNITS
    else:
        metrics, samples = measure.measure_end_to_end(runner, args.seconds)
        units = measure.WALL_UNITS
    tally = runner.tally
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}

    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "environment": env,
                                  "problems": tally.problems, "samples": samples,
                                  "result": result}) + "\n")
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{runner.units} units; record in {record.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        walls = samples["unit_wall_s"]
        print(f"  {'(unit wall time)':36s} fastest {min(walls):.6g} s, median "
              f"{statistics.median(walls):.6g} s, slowest {max(walls):.6g} s "
              f"of {len(walls)} units")
    print(f"  {'failed_frac':36s} {tally.failed / tally.attempted:.6g} fraction "
          f"({tally.failed} of {tally.attempted} sweep entries, fit calls and checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

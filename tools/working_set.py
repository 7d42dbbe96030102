"""Print the Python heap peak of each stage of a model build and one solve.

    python3 tools/working_set.py CONFIG.json --max-mib 140

Loads the pipeline config ``CONFIG.json`` (as ``spinefe --config`` does)
and, under ``tracemalloc``, runs ``pipeline.build_model`` and then one
``pipeline.solve_entry`` at the config's first sweep modulus, as
``spinefe solve`` does.  Each stage is one or more calls of a solver
function, timed out of the whole run by wrapping it:

- ``assemble``: ``solver.assemble``, once per block of
  ``pipeline.parametric_system`` (the static parts, then the discs),
- ``apply_bcs``: ``solver.apply_bcs`` of the first (static) block, with
  its coarse operator,
- ``reduce``: ``ReducedSystem.reduce`` of each later block, here the
  disc block, likewise,
- ``solve``: ``pipeline._solved``, which forms the system at theta =
  (modulus,) and runs PCG, which multiplies by every free-free block and
  factors the coarse operator in an array of its own.

No stage is wrapped inside another: a stage's start resets the heap
peak, so an outer stage would report only the peak after its inner one.

For each stage it prints the heap peak reached inside it, how far that
peak lies above the heap at the stage's start (what the stage adds over
its inputs) and the minor page faults its calls took (``ru_minflt``:
fresh pages the allocator mapped), then ``build_model``'s peak and faults
and what the finished model holds.  Only allocations that go through
Python's allocators are traced: numpy arrays are, BLAS work buffers are
not, so the peaks do not depend on the allocator or on the BLAS build.
The faults do: they count the pages the C allocator takes from the
system rather than reuses, and tracing adds its own.  The exit status is
1 when the run's heap peak exceeds ``--max-mib`` MiB, else 0.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIB = 2.0 ** 20


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class StageMeter:
    """Heap peaks and minor faults per wrapped stage, and the run's peak
    across all of them."""

    def __init__(self) -> None:
        self.stages: dict[str, list[tuple[int, int, int]]] = {}   # name -> [(start, peak, faults)]
        self.run_peak = 0

    def mark(self) -> int:
        """The heap now; folds the peak since the last mark into the run's."""
        current, peak = tracemalloc.get_traced_memory()
        self.run_peak = max(self.run_peak, peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        def measured(*args, **kwargs):
            start, faults = self.mark(), minor_faults()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                faults = minor_faults() - faults
                self.mark()
                self.stages.setdefault(name, []).append((start, peak, faults))

        setattr(owner, attr, measured)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="pipeline config JSON")
    parser.add_argument("--max-mib", type=float, required=True,
                        help="largest heap peak of the run, in MiB, that passes")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from spinefe import pipeline, solver

    cfg = pipeline.load_config(Path(args.config))
    e_disc = cfg.sweep_e_disc_mpa[0]
    meter = StageMeter()
    meter.wrap(pipeline, "assemble", "assemble")
    meter.wrap(pipeline, "apply_bcs", "apply_bcs")
    meter.wrap(solver.ReducedSystem, "reduce", "reduce")
    meter.wrap(pipeline, "_solved", "solve")

    gc.collect()
    tracemalloc.start()
    try:
        start, faults = meter.mark(), minor_faults()
        model = pipeline.build_model(cfg)
        faults = minor_faults() - faults
        held = meter.mark() - start
        build_peak = meter.run_peak - start
        entry = pipeline.solve_entry(model, e_disc)
        meter.mark()
    finally:
        tracemalloc.stop()
    if not entry.ok:
        print(f"error:{entry.error}", file=sys.stderr)
        return 1

    system = model.system
    print(f"{model.mesh.elements.shape[0]} elements, {system.static.free.size} free DOFs, "
          f"{len(system.blocks)} block(s) over the static one; solve at {e_disc:g} MPa in "
          f"{entry.stats.iterations} iterations")
    print(f"{'stage':12s} {'calls':>5s} {'peak MiB':>9s} {'over inputs MiB':>16s} "
          f"{'minor faults':>13s}")
    for name, calls in meter.stages.items():
        peak = max(p for _, p, _ in calls) - start
        added = max(p - s for s, p, _ in calls)
        print(f"{name:12s} {len(calls):5d} {peak / MIB:9.2f} {added / MIB:16.2f} "
              f"{sum(f for _, _, f in calls):13d}")
    print(f"build_model: peak {build_peak / MIB:.2f} MiB, {faults} minor faults, "
          f"model holds {held / MIB:.2f} MiB")
    run_peak = meter.run_peak - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"run: heap peak {run_peak / MIB:.2f} MiB (bound {args.max_mib:g} MiB), "
          f"ru_maxrss {rss:.0f} MiB")
    if run_peak > args.max_mib * MIB:
        print(f"working set: heap peak {run_peak / MIB:.2f} MiB exceeds {args.max_mib:g} MiB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

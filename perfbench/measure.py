"""Measuring loops: checked units of one workload, timed or traced."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from spinefe import pipeline
from tracing import Tracer, layer_metrics
from workloads import Tally, Workload, check_unit, run_unit

MIN_SETUPS = 3          # setup_s is the median of at least this many build_model calls
OVERRUN = 1.3           # a run adds no unit once it has taken this multiple of --seconds

WALL_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "mesh.build_phantom_s": "s", "mesh.extract_surface_s": "s",
    "materials.build_materials_s": "s", "solver.assemble_s": "s",
    "solver.assemble_elements_per_s": "1/s", "solver.nnz": "count",
    "solver.solve_pcg_s": "s", "solver.pcg_iters": "count",
    "solver.pcg_ms_per_iter": "ms", "solver.pcg_computed_bytes_per_iter": "B",
    "solver.pcg_computed_gbps": "GB/s", "solver.apply_bcs_s": "s",
    "pipeline.splice_s": "s", "solver.free_dofs": "count",
    "solver.reaction_force_s": "s", "solver.fit_solves": "count",
    "pipeline.solve_entry_s": "s", "pipeline.pool_speedup": "ratio",
    "io.emit_reports_s": "s", "io.write_vtk_s": "s", "io.write_csv_s": "s",
    "io.bytes_written": "B", "io.files_written": "count", "io.mb_per_s": "MB/s",
    "pipeline.synth_measurement_s": "s", "metrics.compare_fields_s": "s",
    "metrics.cloud_points": "count", "metrics.covered_frac": "fraction",
    "strain.surface_strain_field_s": "s",
    "trace.coverage_frac": "fraction", "trace.overhead_frac": "fraction",
}


def environment() -> dict:
    """What the timings depend on besides the code.  BLAS threads are
    deliberately left unpinned, so their settings are recorded instead."""
    def blas(mod) -> str:
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return info.get("openblas configuration") or f"{info.get('name')} {info.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


class Runner:
    """Runs checked units of one workload and keeps the tally of checks."""

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.tally = Tally()
        self.units = 0
        scratch.mkdir(exist_ok=True)

    def config(self):
        return pipeline.load_config(self.workload.config(self.seed))

    def unit(self, tracer: Tracer | None = None) -> tuple[float, dict]:
        """One checked unit; returns its wall time and output counts.

        Config parsing, the temporary directory and the checks stay
        outside the timed interval.
        """
        cfg = self.config()
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            outdir = Path(tmp) / "reports"
            if tracer is None:
                t0 = time.perf_counter()
                outcome = run_unit(self.workload, cfg, outdir)
                wall = time.perf_counter() - t0
            else:
                with tracer.installed(), tracer.unit() as root:
                    outcome = run_unit(self.workload, cfg, outdir)
                wall = root.end - root.start
            counts = check_unit(self.workload, outcome, outdir, self.tally)
        self.units += 1
        return wall, counts


@contextmanager
def timing_build_model(setups: list[float]):
    """Append the duration of every ``pipeline.build_model`` call to ``setups``."""
    build_model = pipeline.build_model

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return build_model(*args, **kwargs)
        finally:
            setups.append(time.perf_counter() - t0)

    pipeline.build_model = timed
    try:
        yield
    finally:
        pipeline.build_model = build_model


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """A warm-up unit, then the workload's unit count for ``seconds``, each timed.

    ``wall_s`` is the fastest unit: the work of a unit is fixed, and other
    tenants of the shared host only ever add time to it, in phases of
    seconds to minutes, so the fastest of many units is the steadiest
    estimate of the program's own cost.  The median and the slowest unit
    go to the samples and the summary.  ``setup_s`` is the median of the
    ``build_model`` calls, one per unit.
    """
    deadline = time.perf_counter() + OVERRUN * seconds
    runner.unit()
    walls: list[float] = []
    setups: list[float] = []
    with timing_build_model(setups):
        for _ in range(runner.workload.units(seconds)):
            walls.append(runner.unit()[0])
            if time.perf_counter() > deadline:
                break
        while len(setups) < MIN_SETUPS:
            pipeline.build_model(runner.config())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": min(walls), "setup_s": statistics.median(setups),
               "peak_rss_mb": peak}
    return metrics, {"unit_wall_s": walls, "setup_s": setups}


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """A warm-up unit, then traced/untraced pairs filling ``seconds``."""
    deadline = time.perf_counter() + OVERRUN * seconds
    runner.unit()
    traced: list[float] = []
    plain: list[float] = []
    per_unit: list[dict] = []
    spans: list[list] = []
    for _ in range(runner.workload.units(seconds / 2)):
        tracer = Tracer()
        wall, counts = runner.unit(tracer)
        root = next(sp for sp in tracer.spans if sp.name == "unit")
        traced.append(wall)
        per_unit.append(layer_metrics(tracer.spans, root, counts))
        spans.append([sp.to_list() for sp in tracer.spans])
        plain.append(runner.unit()[0])
        if time.perf_counter() > deadline:
            break
    # the lower median keeps counts whole when the pair count is even
    metrics = {k: statistics.median_low(u[k] for u in per_unit) for k in per_unit[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, {"traced_wall_s": traced, "untraced_wall_s": plain,
                     "per_unit": per_unit, "spans": spans}

"""Spans around the calls the pipeline makes into each layer.

``Tracer.installed()`` replaces the public functions of each module at the
names ``spinefe.pipeline`` (and ``spinefe.io``, reached from the pipeline
as ``sfio``) calls them by with timing wrappers, and restores them on
exit.  Each span keeps name, start, end, parent, thread id and a few
counts read from the call's arguments and result.  Spans stay in memory;
``layer_metrics`` turns the spans of one unit into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from spinefe import io as sfio
from spinefe import pipeline


def _assemble_counts(args, kwargs, result) -> dict:
    mesh = args[0]
    part_ids = kwargs.get("part_ids", args[2] if len(args) > 2 else None)
    if part_ids is None:
        return {"elements": mesh.n_elements}
    return {"elements": int(sum(int((mesh.parts == p).sum()) for p in set(part_ids)))}


def _reduced_counts(args, kwargs, result) -> dict:
    k_ff = result.k_ff
    return {"free_dofs": k_ff.shape[0], "nnz": k_ff.nnz,
            "matrix_bytes": k_ff.data.nbytes + k_ff.indices.nbytes + k_ff.indptr.nbytes}


def _pcg_counts(args, kwargs, result) -> dict:
    return {"iterations": result[1].iterations}


def _entry_counts(args, kwargs, result) -> dict:
    cloud = kwargs.get("compare_cloud", args[2] if len(args) > 2 else None)
    return {"compared": cloud is not None}


def _cloud_counts(args, kwargs, result) -> dict:
    return {"cloud_points": result.n_points}


def _compare_counts(args, kwargs, result) -> dict:
    return {"covered_nodes": result.counts["covered_nodes"],
            "surface_nodes": result.counts["surface_nodes"]}


# (module, attribute, span name, counts from (args, kwargs, result))
WRAPPED = (
    (pipeline, "run_sweep", "pipeline.run_sweep", None),
    (pipeline, "fit_disc_to_force", "pipeline.fit_disc_to_force", None),
    (pipeline, "fit_disc_modulus", "solver.fit_disc_modulus", None),
    (pipeline, "build_model", "pipeline.build_model", None),
    (pipeline, "build_phantom", "mesh.build_phantom", None),
    (pipeline, "extract_surface", "mesh.extract_surface", None),
    (pipeline, "face_node_ids", "mesh.face_node_ids", None),
    (pipeline, "partition_rois", "mesh.partition_rois", None),
    (pipeline, "build_materials", "materials.build_materials", None),
    (pipeline, "assemble", "solver.assemble", _assemble_counts),
    (pipeline, "solve_entry", "pipeline.solve_entry", _entry_counts),
    (pipeline, "apply_bcs", "solver.apply_bcs", _reduced_counts),
    (pipeline, "solve_pcg", "solver.solve_pcg", _pcg_counts),
    (pipeline, "reaction_force", "solver.reaction_force", None),
    (pipeline, "surface_strain_field", "strain.surface_strain_field", None),
    (pipeline, "roi_average", "metrics.roi_average", None),
    (pipeline, "compare_fields", "metrics.compare_fields", _compare_counts),
    (pipeline, "synth_measurement", "pipeline.synth_measurement", _cloud_counts),
    (pipeline, "emit_reports", "io.emit_reports", None),
    (pipeline, "write_tables", "io.write_tables", None),
    (sfio, "write_displacements", "io.write_displacements", None),
    (sfio, "write_strains", "io.write_strains", None),
    (sfio, "write_vtk_mesh", "io.write_vtk_mesh", None),
    (sfio, "write_vtk_surface", "io.write_vtk_surface", None),
)

# Spans that only sequence other layers; the time inside them that no
# other span covers is glue that no layer accounts for.
ORCHESTRATION = frozenset({"unit", "pipeline.run_sweep", "pipeline.fit_disc_to_force",
                           "solver.fit_disc_modulus", "pipeline.build_model"})


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.thread, self.counts]


class Tracer:
    """Collects spans from every thread.

    A span opened on a thread with no open span (a sweep pool worker) is
    parented to the tracer's root span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root: int | None = None
        self._stack = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def _open(self, name: str) -> Span:
        stack = self._stack.__dict__.setdefault("open", [])
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1].sid if stack else self.root
        span = Span(sid, name, time.perf_counter(), 0.0, parent, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.open.pop()
        self.spans.append(span)

    @contextmanager
    def unit(self):
        """The root span of one unit of work."""
        sp = self._open("unit")
        self.root = sp.sid
        try:
            yield sp
        finally:
            self._close(sp)
            self.root = None

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if counter is not None:
                sp.counts = counter(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(WRAPPED, saved):
                setattr(mod, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration of ``span`` minus the part of it its children cover."""
    return (span.end - span.start) - _union_length(
        (max(c.start, span.start), min(c.end, span.end)) for c in children)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], root: Span, outputs: dict) -> dict:
    """Per-layer metrics of one traced unit.

    ``outputs`` holds what the benchmark counted after the unit: files and
    bytes under the report directory and the fit's solve count.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        children.setdefault(sp.parent, []).append(sp)

    def busy(*names: str) -> float:
        return sum(sp.end - sp.start for n in names for sp in by_name.get(n, ()))

    def counted(name: str, key: str) -> list:
        # a call that raised has no counts
        return [sp.counts[key] for sp in by_name.get(name, ()) if key in sp.counts]

    def last(name: str, key: str):
        values = counted(name, key)
        return values[-1] if values else 0

    m: dict[str, float] = {}
    m["mesh.build_phantom_s"] = busy("mesh.build_phantom")
    m["mesh.extract_surface_s"] = busy("mesh.extract_surface")
    m["materials.build_materials_s"] = busy("materials.build_materials")
    m["solver.assemble_s"] = busy("solver.assemble")
    elements = sum(counted("solver.assemble", "elements"))
    m["solver.assemble_elements_per_s"] = _ratio(elements, m["solver.assemble_s"])
    m["solver.nnz"] = last("solver.apply_bcs", "nnz")
    m["solver.free_dofs"] = last("solver.apply_bcs", "free_dofs")

    pcg_s = busy("solver.solve_pcg")
    iters = sum(counted("solver.solve_pcg", "iterations"))
    n = m["solver.free_dofs"]
    # computed, not measured: one Jacobi-PCG iteration streams K_ff once
    # (values, column indices, row pointers) plus 19 vector reads or
    # writes of n doubles (SpMV in/out 2, two dots 4, two axpys 6,
    # z = D^-1 r 3, p update 3, residual norm 1)
    bytes_per_iter = last("solver.apply_bcs", "matrix_bytes") + 19 * 8 * n
    m["solver.solve_pcg_s"] = pcg_s
    m["solver.pcg_iters"] = iters
    m["solver.pcg_ms_per_iter"] = _ratio(1e3 * pcg_s, iters)
    m["solver.pcg_computed_bytes_per_iter"] = bytes_per_iter
    m["solver.pcg_computed_gbps"] = _ratio(bytes_per_iter * iters, pcg_s) / 1e9
    m["solver.apply_bcs_s"] = busy("solver.apply_bcs")
    m["solver.reaction_force_s"] = busy("solver.reaction_force")
    m["solver.fit_solves"] = outputs["fit_solves"]

    entries = by_name.get("pipeline.solve_entry", [])
    # the solve_entry self time is the K(E) = K_static + E K_disc splice
    # and its conversion to CSR, plus a few small field updates
    m["pipeline.splice_s"] = sum(_self_time(sp, children.get(sp.sid, []))
                                 for sp in entries)
    m["pipeline.solve_entry_s"] = busy("pipeline.solve_entry")
    # the sweep's entries are the ones compared with the cloud; a fit has
    # only uncompared solves, all of which count
    loop = [sp for sp in entries if sp.counts.get("compared")] or entries
    envelope = (max(sp.end for sp in loop) - min(sp.start for sp in loop)) if loop else 0.0
    m["pipeline.pool_speedup"] = _ratio(sum(sp.end - sp.start for sp in loop), envelope)

    emit_s = busy("io.emit_reports")
    m["io.emit_reports_s"] = emit_s
    m["io.write_vtk_s"] = busy("io.write_vtk_mesh", "io.write_vtk_surface")
    m["io.write_csv_s"] = busy("io.write_displacements", "io.write_strains",
                               "io.write_tables")
    m["io.bytes_written"] = outputs["bytes"]
    m["io.files_written"] = outputs["files"]
    m["io.mb_per_s"] = _ratio(outputs["bytes"], emit_s) / 1e6

    m["pipeline.synth_measurement_s"] = busy("pipeline.synth_measurement")
    m["metrics.compare_fields_s"] = busy("metrics.compare_fields")
    m["metrics.cloud_points"] = last("pipeline.synth_measurement", "cloud_points")
    covered = counted("metrics.compare_fields", "covered_nodes")
    surface = counted("metrics.compare_fields", "surface_nodes")
    m["metrics.covered_frac"] = _ratio(sum(covered), sum(surface))
    m["strain.surface_strain_field_s"] = busy("strain.surface_strain_field")

    wall = root.end - root.start
    m["trace.coverage_frac"] = _union_length(
        (sp.start, sp.end) for sp in spans if sp.name not in ORCHESTRATION) / wall
    return m

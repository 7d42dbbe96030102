"""File formats.

- Mesh text: sections ``NODES`` (``id x y z``), ``ELEMENTS``
  (``id part n0 .. n9``), ``PARTS`` (``id name role``); ``#`` starts a
  comment; ids are consecutive from 0.
- Voxel grid: a JSON header (dims, spacing_mm, origin_mm, dtype "f32",
  order "x-fastest", data_file) plus a raw little-endian float32 file.
- Markers CSV: ``label,step,x,y,z`` with step 0 = reference, 1 = deformed.
- Cloud CSV: ``x,y,z,ux,uy,uz``.
- Displacement CSV: ``node_id,x,y,z,ux,uy,uz``.
- Strain CSV: ``tri_id,cx,cy,cz,roi,eps_max_ue,eps_min_ue``.
- VTK legacy ASCII unstructured grids for meshes (quadratic tets) and
  surfaces (triangles), with point vectors and cell scalars.

All writers format numbers deterministically, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import FormatError
from .materials import VoxelGrid
from .mesh import Mesh, Part, PartRole, SurfaceMesh
from .metrics import MeasurementCloud
from .registration import MarkerSet

__all__ = [
    "write_json",
    "write_mesh",
    "read_mesh",
    "write_voxel_grid",
    "read_voxel_grid",
    "write_markers",
    "read_markers",
    "write_cloud",
    "read_cloud",
    "write_displacements",
    "read_displacements",
    "write_strains",
    "write_vtk_mesh",
    "write_vtk_surface",
]

_F17 = "{:.17g}".format
_F10 = "{:.10g}".format

VTK_QUADRATIC_TETRA = 24
VTK_TRIANGLE = 5


def write_json(obj, path) -> None:
    """Indented JSON with sorted keys and a final newline; NaN and inf are refused."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _floats(tok: list[str], path: Path, lineno: int, what: str) -> list[float]:
    """The tokens as finite floats, else a FormatError naming the row."""
    try:
        nums = [float(t) for t in tok]
    except ValueError:
        nums = None
    if nums is None or not all(math.isfinite(v) for v in nums):
        raise FormatError(f"{path}:{lineno}: malformed {what} row")
    return nums


def _triple(header: dict, key: str, kind: type | tuple[type, ...], path: Path) -> tuple:
    """Header value ``key`` as three finite numbers of type ``kind``."""
    value = header[key]
    if not (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, kind) and not isinstance(v, bool)
                    and math.isfinite(v) for v in value)):
        noun = "integers" if kind is int else "finite numbers"
        raise FormatError(f"{path}: {key} must be an array of 3 {noun}, got {value!r:.40}")
    return tuple(value)


def write_mesh(mesh: Mesh, path) -> None:
    lines = ["# tet10 mesh: corners 0-3, midsides on edges 01 12 20 03 13 23"]
    lines.append("NODES")
    for i, (x, y, z) in enumerate(mesh.nodes):
        lines.append(f"{i} {_F17(x)} {_F17(y)} {_F17(z)}")
    lines.append("ELEMENTS")
    for i, (conn, part) in enumerate(zip(mesh.elements, mesh.parts)):
        lines.append(f"{i} {part} " + " ".join(str(n) for n in conn))
    lines.append("PARTS")
    for pid in sorted(mesh.part_table):
        part = mesh.part_table[pid]
        lines.append(f"{pid} {part.name} {part.role.value}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    path = Path(path)
    nodes: list[tuple[float, float, float]] = []
    elements: list[list[int]] = []
    parts: list[int] = []
    table: dict[int, Part] = {}
    section = None
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("NODES", "ELEMENTS", "PARTS"):
            section = line
            continue
        tok = line.split()
        try:
            if section == "NODES":
                if len(tok) != 4:
                    raise ValueError("expected 'id x y z'")
                if int(tok[0]) != len(nodes):
                    raise ValueError(f"node ids must be consecutive, got {tok[0]}")
                nodes.append((float(tok[1]), float(tok[2]), float(tok[3])))
            elif section == "ELEMENTS":
                if len(tok) != 12:
                    raise ValueError("expected 'id part n0 .. n9'")
                if int(tok[0]) != len(elements):
                    raise ValueError(f"element ids must be consecutive, got {tok[0]}")
                parts.append(int(tok[1]))
                elements.append([int(t) for t in tok[2:]])
            elif section == "PARTS":
                if len(tok) != 3:
                    raise ValueError("expected 'id name role'")
                pid = int(tok[0])
                if pid in table:
                    raise ValueError(f"duplicate part id {pid}")
                try:
                    role = PartRole(tok[2])
                except ValueError:
                    raise ValueError(f"unknown part role {tok[2]!r}") from None
                table[pid] = Part(tok[1], role)
            else:
                raise ValueError("data before any section header")
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not nodes or not elements:
        raise FormatError(f"{path}: mesh file lacks NODES or ELEMENTS")
    try:
        elements_arr = np.array(elements, dtype=np.int64)
        parts_arr = np.array(parts, dtype=np.int64)
    except OverflowError:
        raise FormatError(f"{path}: element or part id out of range") from None
    return Mesh(nodes=np.array(nodes), elements=elements_arr, parts=parts_arr,
                part_table=table)


def write_voxel_grid(grid: VoxelGrid, header_path) -> None:
    header_path = Path(header_path)
    data_name = header_path.stem + ".raw"
    header = {
        "dims": list(grid.dims),
        "spacing_mm": list(grid.spacing_mm),
        "origin_mm": list(grid.origin_mm),
        "dtype": "f32",
        "order": "x-fastest",
        "data_file": data_name,
    }
    write_json(header, header_path)
    grid.values.astype("<f4").tofile(header_path.with_name(data_name))


def read_voxel_grid(header_path) -> VoxelGrid:
    header_path = Path(header_path)
    try:
        header = json.loads(_read_text(header_path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{header_path}: invalid JSON header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{header_path}: header must be a JSON object")
    for key in ("dims", "spacing_mm", "origin_mm", "dtype", "order", "data_file"):
        if key not in header:
            raise FormatError(f"{header_path}: header lacks {key!r}")
    if header["dtype"] != "f32":
        raise FormatError(f"{header_path}: unsupported dtype {header['dtype']!r}")
    if header["order"] != "x-fastest":
        raise FormatError(f"{header_path}: unsupported order {header['order']!r}")
    dims = _triple(header, "dims", int, header_path)
    spacing = _triple(header, "spacing_mm", (int, float), header_path)
    origin = _triple(header, "origin_mm", (int, float), header_path)
    name = header["data_file"]
    try:
        data_path = header_path.with_name(name)
        values = np.fromfile(data_path, dtype="<f4")
    except (TypeError, ValueError, OSError):
        raise FormatError(f"{header_path}: data file {name!r:.40} not found "
                          f"or unreadable") from None
    expected = dims[0] * dims[1] * dims[2]
    if values.size != expected:
        raise FormatError(f"{data_path}: expected {expected} voxels, found {values.size}")
    try:
        return VoxelGrid(dims=dims, spacing_mm=spacing, origin_mm=origin, values=values)
    except ValueError as exc:
        raise FormatError(f"{header_path}: {exc}") from None


def write_markers(markers: MarkerSet, path) -> None:
    lines = ["label,step,x,y,z"]
    for step, coords in ((0, markers.reference), (1, markers.deformed)):
        for label, (x, y, z) in zip(markers.labels, coords):
            lines.append(f"{label},{step},{_F17(x)},{_F17(y)},{_F17(z)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_markers(path) -> MarkerSet:
    path = Path(path)
    rows: dict[int, dict[str, tuple[float, float, float]]] = {0: {}, 1: {}}
    order: list[str] = []
    for lineno, tok in _csv_rows(path, "label,step,x,y,z", 5):
        label = tok[0]
        if tok[1] not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: step must be 0 or 1, got {tok[1]!r:.20}")
        step = int(tok[1])
        xyz = tuple(_floats(tok[2:], path, lineno, "marker"))
        if label in rows[step]:
            raise FormatError(f"{path}:{lineno}: duplicate marker {label!r} in step {step}")
        if step == 0:
            order.append(label)
        rows[step][label] = xyz
    if set(rows[0]) != set(rows[1]):
        raise FormatError(f"{path}: markers must appear in both steps")
    if not order:
        raise FormatError(f"{path}: no marker rows")
    return MarkerSet(labels=order,
                     reference=np.array([rows[0][l] for l in order]),
                     deformed=np.array([rows[1][l] for l in order]))


def write_cloud(cloud: MeasurementCloud, path) -> None:
    if cloud.values.shape[1] != 3:
        raise ValueError("cloud CSV stores 3-component values")
    lines = ["x,y,z,ux,uy,uz"]
    for (x, y, z), (ux, uy, uz), ok in zip(cloud.points, cloud.values, cloud.valid):
        if ok:
            lines.append(",".join(_F17(v) for v in (x, y, z, ux, uy, uz)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_cloud(path) -> MeasurementCloud:
    path = Path(path)
    pts, vals = [], []
    for lineno, tok in _csv_rows(path, "x,y,z,ux,uy,uz", 6):
        nums = _floats(tok, path, lineno, "cloud")
        pts.append(nums[:3])
        vals.append(nums[3:])
    if not pts:
        raise FormatError(f"{path}: no cloud rows")
    return MeasurementCloud(points=np.array(pts), values=np.array(vals))


def write_displacements(mesh: Mesh, disp: np.ndarray, path) -> None:
    disp = np.asarray(disp, dtype=np.float64).reshape(-1, 3)
    if disp.shape[0] != mesh.n_nodes:
        raise ValueError("displacement row count must match node count")
    lines = ["node_id,x,y,z,ux,uy,uz"]
    for i, ((x, y, z), (ux, uy, uz)) in enumerate(zip(mesh.nodes, disp)):
        lines.append(f"{i}," + ",".join(_F17(v) for v in (x, y, z, ux, uy, uz)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_displacements(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (node_ids, displacements (n, 3))."""
    path = Path(path)
    ids, disp = [], []
    for lineno, tok in _csv_rows(path, "node_id,x,y,z,ux,uy,uz", 7):
        try:
            ids.append(int(tok[0]))
            disp.append([float(t) for t in tok[4:7]])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed displacement row") from None
    if not ids:
        raise FormatError(f"{path}: no displacement rows")
    return np.array(ids, dtype=np.int64), np.array(disp)


def write_strains(field, path) -> None:
    """Strain CSV from a SurfaceStrainField."""
    from .mesh import REGION_NAMES, Region
    names = {int(r): REGION_NAMES[r] for r in Region}
    lines = ["tri_id,cx,cy,cz,roi,eps_max_ue,eps_min_ue"]
    for tid, (cx, cy, cz), roi, emax, emin in zip(
            field.tri_ids, field.centroids, field.roi,
            field.eps_max_ue, field.eps_min_ue):
        roi_name = names.get(int(roi), "unassigned")
        lines.append(f"{tid},{_F10(cx)},{_F10(cy)},{_F10(cz)},{roi_name},"
                     f"{_F10(emax)},{_F10(emin)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _csv_rows(path: Path, header: str, n_cols: int):
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != header:
        raise FormatError(f"{path}:1: expected header {header!r}")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tok = [t.strip() for t in line.split(",")]
        if len(tok) != n_cols:
            raise FormatError(f"{path}:{lineno}: expected {n_cols} columns, got {len(tok)}")
        yield lineno, tok


def _vtk_header(title: str, points: np.ndarray) -> list[str]:
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {len(points)} double"]
    for x, y, z in points:
        lines.append(f"{_F10(x)} {_F10(y)} {_F10(z)}")
    return lines


def _vtk_attributes(lines: list[str], n: int, keyword: str,
                    vectors: dict[str, np.ndarray] | None,
                    scalars: dict[str, np.ndarray] | None) -> None:
    if not vectors and not scalars:
        return
    lines.append(f"{keyword} {n}")
    for name in sorted(vectors or {}):
        arr = np.asarray(vectors[name], dtype=np.float64).reshape(n, 3)
        lines.append(f"VECTORS {name} double")
        for vx, vy, vz in arr:
            lines.append(f"{_F10(vx)} {_F10(vy)} {_F10(vz)}")
    for name in sorted(scalars or {}):
        arr = np.asarray(scalars[name], dtype=np.float64).reshape(n)
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        for v in arr:
            lines.append(_F10(v))


def write_vtk_mesh(mesh: Mesh, path, point_vectors: dict[str, np.ndarray] | None = None,
                   cell_scalars: dict[str, np.ndarray] | None = None,
                   title: str = "tet10 mesh") -> None:
    lines = _vtk_header(title, mesh.nodes)
    m = mesh.n_elements
    lines.append(f"CELLS {m} {m * 11}")
    for conn in mesh.elements:
        lines.append("10 " + " ".join(str(n) for n in conn))
    lines.append(f"CELL_TYPES {m}")
    lines.extend([str(VTK_QUADRATIC_TETRA)] * m)
    _vtk_attributes(lines, mesh.n_nodes, "POINT_DATA", point_vectors, None)
    _vtk_attributes(lines, m, "CELL_DATA", None, cell_scalars)
    Path(path).write_text("\n".join(lines) + "\n")


def write_vtk_surface(surface: SurfaceMesh, path,
                      cell_scalars: dict[str, np.ndarray] | None = None,
                      point_vectors: dict[str, np.ndarray] | None = None,
                      title: str = "boundary surface") -> None:
    """Surface triangles as a VTK grid over the full node list."""
    lines = _vtk_header(title, surface.mesh.nodes)
    t = surface.n_triangles
    lines.append(f"CELLS {t} {t * 4}")
    for tri in surface.triangles:
        lines.append("3 " + " ".join(str(n) for n in tri))
    lines.append(f"CELL_TYPES {t}")
    lines.extend([str(VTK_TRIANGLE)] * t)
    _vtk_attributes(lines, surface.mesh.n_nodes, "POINT_DATA", point_vectors, None)
    _vtk_attributes(lines, t, "CELL_DATA", None, cell_scalars)
    Path(path).write_text("\n".join(lines) + "\n")

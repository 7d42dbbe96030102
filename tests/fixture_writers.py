"""Writers of the input files that the pipeline only reads: voxel grids and
marker CSVs, in the formats that ``spinefe.io`` documents."""

from pathlib import Path

import numpy as np

from spinefe.io import _table, write_json
from spinefe.materials import VoxelGrid


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


def write_markers(labels, reference, deformed, path) -> None:
    """Step 0 rows (``reference``), then step 1 rows (``deformed``), one
    per label in the given order."""
    Path(path).write_text("label,step,x,y,z\n" + _table(
        "%s,%d,%.17g,%.17g,%.17g", list(labels) * 2,
        np.repeat([0, 1], len(labels)), np.vstack([reference, deformed])))

"""Every function of the package runs on a pipeline path.

A subprocess sets a profile hook before it imports ``spinefe``, so that
functions called at import time count, then drives ``spinefe.cli.main``
through every command and every input file a config can name.  Each
``def`` in the package that it never entered must be in ``UNREACHED``,
with the reason it stays, and each name there must still be unreached.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import spinefe
from fixture_writers import write_markers, write_voxel_grid
from spinefe.materials import VoxelGrid
from spinefe.pipeline import build_model, load_config, solve_entry
from test_pipeline import tiny_config

# every def that no pipeline path enters, and why it stays
UNREACHED = {
    "solver.reaction_force": "perfbench's traced runs wrap pipeline.reaction_force by this "
                             "name, and the tests take their reaction oracle from it",
}

# run in the subprocess: argv[1] holds the CLI runs, argv[2] receives the
# exit codes and the defs never entered, as "module.qualified.name"
PROBE = """
import ast, json, sys, threading
from pathlib import Path

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
import spinefe
import spinefe.cli

codes = [spinefe.cli.main(argv) for argv in json.loads(Path(sys.argv[1]).read_text())]
sys.setprofile(None)
starts = {(code.co_filename, code.co_firstlineno) for code in entered}

def defs(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield prefix + child.name, first
            yield from defs(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from defs(child, prefix + child.name + ".")
        else:
            yield from defs(child, prefix)

package = Path(spinefe.__file__).parent
missed = [f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
          for name, line in defs(ast.parse(path.read_text()), "")
          if (str(path), line) not in starts]
Path(sys.argv[2]).write_text(json.dumps({"codes": codes, "missed": missed}))
"""


def cli_runs(tmp_path):
    """Config files and ``main`` argvs for every command and input file."""
    out = tmp_path / "out"
    base = dict(tiny_config(), output_dir=str(out))

    grid = VoxelGrid(dims=(9, 9, 17), spacing_mm=(1.0, 1.0, 1.0), origin_mm=(-1.0, -1.0, -1.0),
                     values=np.linspace(600.0, 1000.0, 9 * 9 * 17, dtype=np.float32))
    write_voxel_grid(grid, tmp_path / "grid.json")
    reference = np.array([[0.0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]])
    write_markers(list("abcd"), reference, reference - [0.0, 0.0, 0.2], tmp_path / "markers.csv")
    target = solve_entry(build_model(load_config(base)), 25.0).reaction_mag_n

    configs = {
        "base": base,
        "grid": dict(base, constant_hu=None, voxel_grid_path=str(tmp_path / "grid.json")),
        "markers": dict(base, markers_path=str(tmp_path / "markers.csv")),
        "mesh": dict(base, phantom=None, mesh_path=str(out / "mesh.txt")),
        "measured": dict(base, synthetic=None, measurement_path=str(out / "cloud.csv")),
    }
    paths = {}
    for name, cfg in configs.items():
        paths[name] = str(tmp_path / f"config-{name}.json")
        Path(paths[name]).write_text(json.dumps(cfg))
    commands = [
        ("base", "phantom"), ("base", "map"), ("base", "solve"), ("base", "sweep"),
        ("base", "synth-dic"), ("base", "compare", "--cloud", str(out / "cloud.csv")),
        ("base", "fit-disc", "--target-force", repr(target), "--bracket", "5", "60"),
        ("grid", "solve"), ("markers", "solve"), ("mesh", "solve"), ("measured", "sweep"),
    ]
    return [["--config", paths[cfg], *argv] for cfg, *argv in commands]


def test_every_function_runs_on_a_pipeline_path(tmp_path):
    runs = cli_runs(tmp_path)
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    src = str(Path(spinefe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "runs.json"),
                          str(tmp_path / "reach.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    reach = json.loads((tmp_path / "reach.json").read_text())
    assert reach["codes"] == [0] * len(runs), run.stderr
    assert reach["missed"] == sorted(UNREACHED), reach["missed"]

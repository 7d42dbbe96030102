"""Command line interface.

    spinefe --config cfg.json [--seed N] [--out DIR] COMMAND

Commands: phantom, map, solve, sweep, fit-disc, synth-dic, compare.
Usage errors exit with status 2 (argparse); domain failures, and a report
path a command cannot write, print one line ``error:<category>: message``
and exit with status 1.  ``main`` parses its arguments before it imports
the pipeline, so ``--help`` and usage errors load no scipy, and makes the
output directory before any command builds or solves anything.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, SpineFEError

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinefe",
        description="CT-based multi-segment spine FE pipeline with "
                    "measurement-cloud validation")
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("phantom", help="build the stack phantom mesh and write it")
    sub.add_parser("map", help="map CT materials and write the element table")

    p = sub.add_parser("solve", help="single solve at one disc modulus")
    p.add_argument("--e-disc", type=float, metavar="MPA",
                   help="disc modulus (default: first sweep value)")

    sub.add_parser("sweep", help="disc-modulus sweep with full reports")

    p = sub.add_parser("fit-disc", help="fit the disc modulus to a target force")
    p.add_argument("--target-force", type=float, required=True, metavar="N")
    p.add_argument("--bracket", type=float, nargs=2, required=True,
                   metavar=("LO_MPA", "HI_MPA"))

    sub.add_parser("synth-dic", help="synthesize the config's measured displacement cloud")

    p = sub.add_parser("compare", help="solve and compare against a measured cloud")
    p.add_argument("--cloud", help="cloud CSV (default: config measurement_path)")
    p.add_argument("--e-disc", type=float, metavar="MPA")
    return parser


def _setup(args) -> tuple[PipelineConfig, Path]:
    """The run's config, with the flags' overrides, and its output directory, made."""
    from .pipeline import load_config
    if not args.config:
        raise ConfigError(f"command {args.command!r} needs --config")
    overrides = {"seed": args.seed, "output_dir": args.out}
    cfg = replace(load_config(args.config),
                  **{k: v for k, v in overrides.items() if v is not None})
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {str(out)!r}: "
                          f"{exc.strerror or exc}") from None
    return cfg, out


def _cmd_phantom(args, cfg: PipelineConfig, out: Path) -> int:
    from . import io as sfio, pipeline
    if cfg.phantom is None:
        raise ConfigError("phantom command needs a phantom block in the config")
    mesh = pipeline.mesh_from_config(cfg)
    path = out / "mesh.txt"
    sfio.write_mesh(mesh, path)
    print(f"wrote {path} ({mesh.n_nodes} nodes, {mesh.n_elements} elements, "
          f"{len(mesh.part_table)} parts)")
    return 0


def _cmd_map(args, cfg: PipelineConfig, out: Path) -> int:
    from . import io as sfio, pipeline
    from .materials import Provenance
    mesh = pipeline.mesh_from_config(cfg)
    materials = pipeline.build_materials(cfg, mesh)
    path = out / "materials.csv"
    sfio.write_materials(mesh, materials, path)
    mapped = int((materials.provenance == Provenance.MAPPED).sum())
    print(f"wrote {path} ({mapped} mapped elements, "
          f"{len(materials.coverage_gaps())} unset)")
    return 0


def _cmd_solve(args, cfg: PipelineConfig, out: Path) -> int:
    """``solve``, and ``compare``, which also scores the entry against a cloud."""
    from . import io as sfio, metrics, pipeline
    e_disc = pipeline.check_modulus(args.e_disc if args.e_disc is not None
                                    else cfg.sweep_e_disc_mpa[0])
    cloud = None
    if args.command == "compare":
        cloud_path = args.cloud if args.cloud is not None else cfg.measurement_path
        if cloud_path is None:
            raise ConfigError("compare needs --cloud or measurement_path in the config")
        cloud = sfio.read_cloud(cloud_path)
    model = pipeline.build_model(cfg)
    if cloud is not None:
        cloud = metrics.observe(cloud, model.observed, model.rois)
    t0 = time.perf_counter()
    entry = pipeline.solve_entry(model, e_disc, compare_cloud=cloud)
    elapsed = time.perf_counter() - t0
    if not entry.ok:
        print(f"error:{entry.error}", file=sys.stderr)
        return 1
    pipeline.write_entry(model, entry, out, sfio.ReportGeometry.of(model.observed, model.rois))
    if cloud is None:
        sfio.write_json(entry.summary_dict(), out / "entry.json")
        print(f"solved {model.mesh.n_nodes * 3} DOFs in {entry.stats.iterations} "
              f"iterations ({elapsed:.2f} s)")
        print(f"reaction on driven pot: {entry.reaction_mag_n:.6g} N")
        print(f"artifacts in {out}")
        return 0
    disp, misfit = entry.report.displacement["pooled"], entry.report.misfit
    print(f"displacement: rmse {disp['rmse']:.6g} mm"
          + (f" ({disp['rmse_pct']:.3g}%)" if disp["rmse_pct"] is not None else ""))
    print(f"misfit: displacement {misfit['displacement_mm']:.6g} mm, tensor "
          f"{misfit['tensor_ue']:.6g} ue")
    print("sites: {sites_located} of {cloud_points} cloud points located, {sites_windowed} "
          "windowed".format(**entry.report.counts))
    for q in ("eps_max", "eps_min"):
        blk = entry.report.strain_block("all", q)
        tot = blk["per_roi"]["total"]
        print(f"{q}: rmse {tot['rmse']:.6g} ue, r2 {tot.get('r2', float('nan')):.4f}, "
              f"ks_d {blk['ks_d']:.4f}")
    print(f"report in {out / 'report.json'}")
    return 0


def _cmd_sweep(args, cfg: PipelineConfig, out: Path) -> int:
    from . import pipeline
    result = pipeline.run_sweep(cfg)
    pipeline.emit_reports(result, out)
    failures = 0
    for entry in result.entries:
        if entry.ok:            # every sweep entry is compared with the cloud
            misfit = entry.report.misfit
            print(f"e_disc {entry.e_disc_mpa:g} MPa: reaction {entry.reaction_mag_n:.6g} N, "
                  f"misfit {misfit['displacement_mm']:.4g} mm, {misfit['tensor_ue']:.4g} ue")
        else:
            failures += 1
            print(f"e_disc {entry.e_disc_mpa:g} MPa: FAILED ({entry.error})")
    print(f"reports in {out}")
    if failures:
        print(f"error:sweep: {failures} of {len(result.entries)} entries failed",
              file=sys.stderr)
        return 1
    return 0


def _cmd_fit_disc(args, cfg: PipelineConfig, out: Path) -> int:
    from . import io as sfio, pipeline
    e_star, solves = pipeline.fit_disc_to_force(cfg, args.target_force, tuple(args.bracket))
    payload = {"e_disc_mpa": e_star, "target_force_n": args.target_force,
               "bracket_mpa": list(args.bracket), "tol_rel": pipeline.FIT_TOL_REL,
               "solves": solves}
    sfio.write_json(payload, out / "fit_disc.json")
    print(f"fitted disc modulus: {e_star:.6g} MPa ({solves} solves)")
    return 0


def _cmd_synth_dic(args, cfg: PipelineConfig, out: Path) -> int:
    from . import io as sfio, pipeline
    spec = cfg.synthetic or pipeline.SyntheticSpec()
    cloud, _ = pipeline.synthetic_cloud(pipeline.build_model(cfg), spec)
    path = out / "cloud.csv"
    sfio.write_cloud(cloud, path)
    print(f"wrote {path} ({cloud.n_points} points, spacing {spec.spacing_mm:g} mm, "
          f"noise {spec.random_um:g} um random / {spec.systematic_um:g} um systematic)")
    return 0


_COMMANDS = {
    "phantom": _cmd_phantom,
    "map": _cmd_map,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "fit-disc": _cmd_fit_disc,
    "synth-dic": _cmd_synth_dic,
    "compare": _cmd_solve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, *_setup(args))
    except SpineFEError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:          # a report path found unwritable only as it is written
        path = "" if exc.filename is None else f" {str(exc.filename)!r}"
        print(f"error:config: cannot write{path}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import errno
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spinefe
from spinefe import mesh as mesh_module
from spinefe import pipeline
from spinefe.cli import main
from fixture_writers import write_markers
from spinefe.io import ReportGeometry, read_cloud, read_mesh, write_cloud, write_mesh
from spinefe.metrics import observe
from spinefe.pipeline import build_model, load_config, run_sweep, solve_entry, write_entry

ENTRY_FILES = ("displacements.csv", "strains.csv", "solution.vtk",
               "surface_strains.vtk")
# a synthetic cloud whose reference modulus the solver refuses on its true residual
REFUSED_REFERENCE = {"spacing_mm": 1.0, "systematic_um": 0.0, "random_um": 0.0,
                     "reference_e_disc_mpa": 1e14}


def assert_same_files(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def write_alone(model, entry, outdir):
    """``entry``'s artifacts, with the model's report geometry formatted for it alone."""
    write_entry(model, entry, outdir, ReportGeometry.of(model.observed, model.rois))


def write_config(tmp_path, **over):
    cfg = {
        "phantom": {"width_mm": 6.0, "depth_mm": 6.0,
                    "vertebra_height_mm": 4.0, "disc_height_mm": 2.0,
                    "pot_height_mm": 2.0, "n_vertebrae": 2,
                    "nx": 3, "ny": 3, "nz_vertebra": 2, "nz_disc": 1,
                    "nz_pot": 1},
        "constant_hu": 800.0,
        "sweep_e_disc_mpa": [10.0, 25.0],
        "synthetic": synthetic(),
        "loading": {"flexion_angle_deg": 1.0, "compression_mm": 0.2},
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def synthetic(**over):
    """``write_config``'s synthetic block, with ``over`` set."""
    return {"spacing_mm": 1.0, "systematic_um": 0.0, "random_um": 0.0, **over}


def run_cli(cfg, *argv, timeout=None):
    """``spinefe --config cfg ARGV`` in a subprocess, so that stderr is what a
    user sees: in-process, pytest would catch a numpy warning instead of
    letting it print."""
    env = dict(os.environ, PYTHONPATH=str(Path(spinefe.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "spinefe.cli", "--config", str(cfg), *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)


class TestParsing:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["--config", "x.json", "invert"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["--config", "x.json", "solve", "--order", "3"])
        assert err.value.code == 2

    def test_fit_disc_requires_target_and_bracket(self):
        with pytest.raises(SystemExit) as err:
            main(["--config", "x.json", "fit-disc"])
        assert err.value.code == 2

    def test_report_command_is_a_usage_error(self):
        # the sweep writes its tables; a saved sweep_result.json is not read back
        with pytest.raises(SystemExit) as err:
            main(["--config", "x.json", "report"])
        assert err.value.code == 2

    def test_missing_config_is_domain_error(self, capsys):
        assert main(["phantom"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "--config" in err


class TestPhantomCommand:
    def test_writes_mesh(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "phantom"]) == 0
        out = capsys.readouterr().out
        mesh_path = tmp_path / "out" / "mesh.txt"
        assert mesh_path.exists()
        mesh = read_mesh(mesh_path)
        assert f"{mesh.n_nodes} nodes" in out
        assert len(mesh.part_table) == 5

    def test_requires_phantom_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "phantom"]) == 0
        data = json.loads(cfg.read_text())
        del data["phantom"]
        data["mesh_path"] = str(tmp_path / "out" / "mesh.txt")
        cfg.write_text(json.dumps(data))
        assert main(["--config", str(cfg), "phantom"]) == 1
        assert "error:config:" in capsys.readouterr().err

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["--config", str(cfg), "--out", str(other), "phantom"]) == 0
        assert (other / "mesh.txt").exists()


class TestMapCommand:
    def test_writes_material_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "map"]) == 0
        path = tmp_path / "out" / "materials.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "element_id,part,role,e_mpa,nu,provenance"
        provs = {l.split(",")[-1] for l in lines[1:]}
        assert provs == {"MAPPED", "UNIFORM", "UNSET"}
        disc_rows = [l for l in lines[1:] if ",DISC," in l]
        assert disc_rows and all(r.endswith(",,UNSET") for r in disc_rows)
        assert "mapped elements" in capsys.readouterr().out

    def test_mesh_without_pot_part_writes_table(self, tmp_path):
        mesh = pipeline.mesh_from_config(load_config(write_config(tmp_path)))
        table = {pid: mesh_module.Part(p.name, mesh_module.PartRole.DISC)
                 if p.role is mesh_module.PartRole.POT else p
                 for pid, p in mesh.part_table.items()}
        write_mesh(replace(mesh, part_table=table), tmp_path / "mesh.txt")
        cfg = write_config(tmp_path, phantom=None, mesh_path=str(tmp_path / "mesh.txt"))
        assert main(["--config", str(cfg), "map"]) == 0
        lines = (tmp_path / "out" / "materials.csv").read_text().splitlines()
        assert len(lines) == 1 + mesh.n_elements
        assert {l.split(",")[-1] for l in lines[1:]} == {"MAPPED", "UNSET"}


class TestSolveCommand:
    def test_artifacts_and_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve", "--e-disc", "25"]) == 0
        out_dir = tmp_path / "out"
        for name in ("displacements.csv", "strains.csv", "solution.vtk",
                     "entry.json"):
            assert (out_dir / name).exists()
        entry = json.loads((out_dir / "entry.json").read_text())
        assert entry["e_disc_mpa"] == 25.0
        assert entry["ok"] is True
        assert entry["solver"]["iterations"] > 0
        assert "wall_time_s" not in entry["solver"]
        out = capsys.readouterr().out
        assert "reaction on driven pot" in out

    def test_default_modulus_is_first_sweep_value(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve"]) == 0
        entry = json.loads((tmp_path / "out" / "entry.json").read_text())
        assert entry["e_disc_mpa"] == 10.0

    def test_first_sweep_modulus_matches_byte_for_byte(self, tmp_path):
        # the sweep's first solve is cold too, and later entries reuse it
        cfg = write_config(tmp_path)
        sweep, solve = tmp_path / "sweep", tmp_path / "solve"
        assert main(["--config", str(cfg), "--out", str(sweep), "sweep"]) == 0
        assert main(["--config", str(cfg), "--out", str(solve), "solve"]) == 0
        assert_same_files(sweep / "e_disc_10", solve, ENTRY_FILES)

    def test_artifacts_match_sweep_entry(self, tmp_path):
        # a sweep entry is seeded from the fields before it; the command's
        # cold solve on a fresh model is the pipeline's, byte for byte
        cfg = write_config(tmp_path)
        ref, solve = tmp_path / "ref", tmp_path / "solve"
        model = build_model(load_config(cfg))
        write_alone(model, solve_entry(model, 25.0), ref)
        assert main(["--config", str(cfg), "--out", str(solve),
                     "solve", "--e-disc", "25"]) == 0
        assert_same_files(ref, solve, ENTRY_FILES)


class TestSweepCommand:
    def test_full_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "sweep"]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "curves.csv").exists()
        assert (out_dir / "sweep_result.json").exists()
        assert (out_dir / "e_disc_10" / "report.json").exists()
        assert (out_dir / "e_disc_25" / "solution.vtk").exists()
        out = capsys.readouterr().out
        assert "e_disc 10 MPa" in out and "e_disc 25 MPa" in out

    def test_failed_reference_solve_exits_1(self, tmp_path, capsys):
        # the solver refuses 1e14 MPa on its true residual
        cfg = write_config(tmp_path, synthetic=REFUSED_REFERENCE)
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error:config: reference solve for synthetic cloud failed: convergence: ")


class TestFitDiscCommand:
    def test_fit_and_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve", "--e-disc", "25"]) == 0
        target = json.loads(
            (tmp_path / "out" / "entry.json").read_text())["reaction_mag_n"]
        capsys.readouterr()
        assert main(["--config", str(cfg), "fit-disc",
                     "--target-force", str(target),
                     "--bracket", "5", "60"]) == 0
        payload = json.loads((tmp_path / "out" / "fit_disc.json").read_text())
        assert payload["target_force_n"] == target
        assert payload["e_disc_mpa"] == pytest.approx(25.0, rel=5e-3)
        assert payload["solves"] <= 30
        assert "fitted disc modulus" in capsys.readouterr().out

    def test_unbracketed_target_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "fit-disc",
                     "--target-force", "1e9", "--bracket", "2", "80"]) == 1
        assert capsys.readouterr().err.startswith("error:bracket:")


class TestSynthDicCommand:
    def test_writes_cloud(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synthetic=synthetic(reference_e_disc_mpa=25.0))
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        cloud = read_cloud(tmp_path / "out" / "cloud.csv")
        assert cloud.n_points > 50
        assert "wrote" in capsys.readouterr().out

    def test_seed_changes_cloud(self, tmp_path):
        cfg = write_config(tmp_path, synthetic={"spacing_mm": 1.0,
                                                "systematic_um": 10.0,
                                                "random_um": 25.0})
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        main(["--config", str(cfg), "--out", str(a), "--seed", "1", "synth-dic"])
        main(["--config", str(cfg), "--out", str(b), "--seed", "1", "synth-dic"])
        main(["--config", str(cfg), "--out", str(c), "--seed", "2", "synth-dic"])
        assert (a / "cloud.csv").read_bytes() == (b / "cloud.csv").read_bytes()
        assert (a / "cloud.csv").read_bytes() != (c / "cloud.csv").read_bytes()

    def test_noise_flags_override(self, tmp_path):
        # the noise is the synthetic block's: no flag overrides it
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--config", str(write_config(tmp_path)), "--out", str(a), "synth-dic"])
        cfg = write_config(tmp_path, synthetic=synthetic(random_um=100.0))
        main(["--config", str(cfg), "--out", str(b), "synth-dic"])
        ca = read_cloud(a / "cloud.csv")
        cb = read_cloud(b / "cloud.csv")
        assert cb.values.std() > ca.values.std()

    def test_cloud_is_the_sweep_cloud(self, tmp_path):
        cfg = write_config(tmp_path, synthetic={"spacing_mm": 1.0,
                                                "systematic_um": 10.0,
                                                "random_um": 25.0})
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        write_cloud(run_sweep(load_config(cfg)).cloud, tmp_path / "sweep_cloud.csv")
        assert ((tmp_path / "out" / "cloud.csv").read_bytes()
                == (tmp_path / "sweep_cloud.csv").read_bytes())

    @pytest.mark.parametrize("spacing", ["1e-300", "1e-5"])
    def test_spacing_too_fine_to_sample_is_one_config_error_line(self, tmp_path, capsys,
                                                                spacing):
        cfg = write_config(tmp_path, synthetic=synthetic(spacing_mm=float(spacing)))
        assert main(["--config", str(cfg), "synth-dic"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config: synthetic.spacing_mm")
        assert not (tmp_path / "out" / "cloud.csv").exists()

    def test_failed_reference_solve_is_the_sweep_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synthetic=REFUSED_REFERENCE)
        assert main(["--config", str(cfg), "synth-dic"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error:config: reference solve for synthetic cloud failed: convergence: ")

    @pytest.mark.parametrize("spacing", ["1e200", "1.7e308"])
    def test_huge_spacing_writes_a_one_point_cloud(self, tmp_path, capsys, spacing):
        # one candidate per triangle, and each later one lies within the
        # spacing of the first
        cfg = write_config(tmp_path, synthetic=synthetic(spacing_mm=float(spacing)))
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        assert read_cloud(tmp_path / "out" / "cloud.csv").n_points == 1
        assert capsys.readouterr().err == ""

    # the cloud is the config's synthetic block: none of these flags is left
    @pytest.mark.parametrize("flag", ["--spacing", "--e-disc", "--rand-um", "--sys-um"])
    def test_removed_flag_is_a_usage_error(self, tmp_path, flag):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "synth-dic", flag, "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestCompareCommand:
    def test_round_trip_against_synthetic_cloud(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synthetic=synthetic(reference_e_disc_mpa=25.0))
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg), "compare",
                     "--cloud", str(tmp_path / "out" / "cloud.csv"),
                     "--e-disc", "25"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        # the cloud's values and O u differ only in the rounding of their weights
        scale = np.abs(read_cloud(tmp_path / "out" / "cloud.csv").values).max()
        assert report["displacement"]["pooled"]["rmse"] <= 1e-14 * scale
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("displacement: rmse") for line in out)
        misfit = report["misfit"]
        assert (f"misfit: displacement {misfit['displacement_mm']:.6g} mm, "
                f"tensor {misfit['tensor_ue']:.6g} ue") in out
        # each strain line states the report's all/total figures
        for q in ("eps_max", "eps_min"):
            blk = next(b for b in report["strain"]
                       if b["part"] == "all" and b["quantity"] == q)
            tot = blk["per_roi"]["total"]
            assert (f"{q}: rmse {tot['rmse']:.6g} ue, r2 {tot['r2']:.4f}, "
                    f"ks_d {blk['ks_d']:.4f}") in out

    def test_artifacts_match_sweep_entry(self, tmp_path):
        # the sweep's cloud (see TestSynthDicCommand), compared by the
        # command's cold solve on a fresh model: the pipeline's artifacts
        cfg = write_config(tmp_path)
        ref, cmp = tmp_path / "ref", tmp_path / "cmp"
        assert main(["--config", str(cfg), "--out", str(cmp), "synth-dic"]) == 0
        assert main(["--config", str(cfg), "--out", str(cmp), "compare",
                     "--cloud", str(cmp / "cloud.csv"), "--e-disc", "25"]) == 0
        model = build_model(load_config(cfg))
        cloud = observe(read_cloud(cmp / "cloud.csv"), model.observed, model.rois)
        write_alone(model, solve_entry(model, 25.0, compare_cloud=cloud), ref)
        assert_same_files(ref, cmp, ENTRY_FILES + ("report.json",))

    @staticmethod
    def lift(cloud, rows):
        """``cloud`` with the given rows moved 1 mm out from the stack's
        axis: off the box's side faces."""
        out = cloud.points[rows, :2] - cloud.points[:, :2].mean(axis=0)
        cloud.points[rows, :2] += out / np.linalg.norm(out, axis=-1, keepdims=True)
        return cloud

    def test_point_off_the_surface_is_left_out_and_counted(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        cloud = self.lift(read_cloud(tmp_path / "out" / "cloud.csv"), 3)
        write_cloud(cloud, tmp_path / "lifted.csv")
        capsys.readouterr()
        assert main(["--config", str(cfg), "compare", "--cloud",
                     str(tmp_path / "lifted.csv")]) == 0
        counts = json.loads((tmp_path / "out" / "report.json").read_text())["counts"]
        n = cloud.n_points
        assert (counts["cloud_points"], counts["sites_located"]) == (n, n - 1)
        assert (f"sites: {n - 1} of {n} cloud points located, {counts['sites_windowed']} "
                "windowed") in capsys.readouterr().out

    def test_cloud_off_the_surface_is_one_compare_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        cloud = read_cloud(tmp_path / "out" / "cloud.csv")
        write_cloud(self.lift(cloud, slice(None)), tmp_path / "lifted.csv")
        capsys.readouterr()
        assert main(["--config", str(cfg), "compare", "--cloud",
                     str(tmp_path / "lifted.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error:compare: only 0 of {cloud.n_points} cloud points lie within "
                       "0.01 mm of the observed surface (need 10)"]

    def test_needs_cloud(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "compare"]) == 1
        assert "error:config:" in capsys.readouterr().err

    def test_bad_cloud_file_is_format_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,cloud\n")
        assert main(["--config", str(cfg), "compare", "--cloud", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:format:")


class TestMalformedConfig:
    @pytest.mark.parametrize("over", [{"roi_axis": 5}, {"seed": "x"}],
                             ids=["roi_axis", "seed"])
    def test_mistyped_value_is_one_config_error_line(self, tmp_path, capsys, over):
        cfg = write_config(tmp_path, **over)
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")

    # the synth-dic rows set, in its synthetic block, the values its removed
    # flags used to pass
    @pytest.mark.parametrize("over, argv", [
        ({"spacing_mm": 0.0}, ["synth-dic"]), ({"spacing_mm": -2.0}, ["synth-dic"]),
        ({"random_um": -1.0}, ["synth-dic"]), ({"systematic_um": -1.0}, ["synth-dic"]),
        ({"random_um": math.inf}, ["synth-dic"]),
        ({"reference_e_disc_mpa": 0.0}, ["synth-dic"]),
        ({}, ["--seed", "-1", "sweep"]), ({}, ["solve", "--e-disc", "0"]),
        ({}, ["solve", "--e-disc", "-5"]), ({}, ["solve", "--e-disc", "nan"]),
        ({}, ["fit-disc", "--target-force", "inf", "--bracket", "5", "60"]),
        ({}, ["fit-disc", "--target-force", "nan", "--bracket", "5", "60"])],
        ids=["spacing0", "spacing-2", "rand-1", "sys-1", "rand_inf", "e_disc0", "seed-1",
             "solve_e_disc0", "solve_e_disc-5", "solve_e_disc_nan", "target_force_inf",
             "target_force_nan"])
    def test_out_of_range_flag_is_one_config_error_line(self, tmp_path, capsys, over, argv):
        cfg = write_config(tmp_path, synthetic=synthetic(**over))
        assert main(["--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")

    # the roi_fractions, comparison, solver and max_edge rows are old configs:
    # each of those keys is unknown
    @pytest.mark.parametrize("over", [{"roi_fractions": [0.9, 0.1]},
                                      {"comparison": {"idw_power": -2.0}},
                                      {"solver": {"tol": -1.0}},
                                      {"sweep_e_disc_mpa": [10.0, 10.0000001]},
                                      {"sweep_e_disc_mpa": [25.0, 25.0]},
                                      {"max_edge_mm": -1.0}, {"max_edge_mm": 0},
                                      {"loading": {"axis": [0, 0, 0]}},
                                      {"constant_hu": 1e300}, {"constant_hu": -3.5e38},
                                      {"elasticity": {"coefficient": -5.0}},
                                      {"elasticity": {"exponent": -1.0}},
                                      {"calibration": {"correction": -1.0}},
                                      {"calibration": {"slope": -1.0},
                                       "elasticity": {"exponent": -1.0}}],
                             ids=["roi_fractions", "idw_power", "tol",
                                  "sweep_near_repeat", "sweep_repeat",
                                  "max_edge_negative", "max_edge_zero", "zero_axis",
                                  "constant_hu_1e300", "constant_hu_past_float32",
                                  "negative_coefficient", "negative_exponent",
                                  "negative_correction", "negative_slope_and_exponent"])
    def test_out_of_range_value_is_one_config_error_line(self, tmp_path, capsys, over):
        cfg = write_config(tmp_path, **over)
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")
        assert "reference solve" not in err[0]

    def test_collinear_markers_are_one_registration_error_line(self, tmp_path, capsys):
        reference = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0],
                              [3.0, 3.0, 3.0]])
        markers = tmp_path / "markers.csv"
        write_markers(list("abcd"), reference, reference + 0.1, markers)
        cfg = write_config(tmp_path, markers_path=str(markers))
        assert main(["--config", str(cfg), "solve", "--e-disc", "25"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:registration:")

    def test_overflowing_markers_are_one_registration_error_line(self, tmp_path):
        # the fit's cross-covariance overflows, and LAPACK's SVD of it never
        # returns: the timeout fails the test in place of a hang
        markers = tmp_path / "markers.csv"
        reference = np.array([[0.0, 0.0, 0.0], [1e300, 1e300, 0.0], [0.0, 1.0, 0.0]])
        write_markers(list("abc"), reference, reference, markers)
        run = run_cli(write_config(tmp_path, markers_path=str(markers)), "solve", timeout=60)
        assert run.returncode == 1
        assert run.stderr.splitlines() == [
            "error:registration: point coordinates overflow float64 in the "
            "cross-covariance of the fit"]

    def test_mesh_past_float64_is_one_mesh_error_line(self, tmp_path):
        # the phantom's mesh with every node x1e200: its corner volumes overflow
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "phantom"]) == 0
        mesh = read_mesh(tmp_path / "out" / "mesh.txt")
        mesh.nodes = mesh.nodes * 1e200           # past the checks a Mesh makes when built
        write_mesh(mesh, tmp_path / "big.txt")
        run = run_cli(write_config(tmp_path, phantom=None, mesh_path=str(tmp_path / "big.txt")),
                      "solve")
        assert run.returncode == 1
        assert run.stderr.splitlines() == [
            "error:mesh: element 0 geometry overflows float64: its corner volume is not finite"]

    @pytest.mark.parametrize("width", [1e200, 1e300])
    def test_phantom_past_float64_is_one_mesh_error_line(self, tmp_path, width):
        # finite corner volumes, but boundary triangle areas that overflow
        phantom = json.loads(write_config(tmp_path).read_text())["phantom"]
        run = run_cli(write_config(tmp_path, phantom=dict(phantom, width_mm=width)), "solve")
        assert run.returncode == 1
        assert run.stderr.splitlines() == [
            "error:mesh: boundary geometry overflows float64: a triangle's area is not finite"]

    # the cloud is finite, but the squares of its differences are not
    @pytest.mark.parametrize("ux", [1e160, 1e300])
    def test_cloud_past_the_comparison_is_one_compare_error_line(self, tmp_path, ux):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "c"), "synth-dic"]) == 0
        cloud = read_cloud(tmp_path / "c" / "cloud.csv")
        cloud.values[:, 0] = ux
        write_cloud(cloud, tmp_path / "big.csv")
        want = ("the comparison's statistics overflow float64: the cloud's values are "
                "too large")
        run = run_cli(cfg, "compare", "--cloud", str(tmp_path / "big.csv"))
        assert run.returncode == 1
        assert run.stderr.splitlines() == [f"error:compare: {want}"]
        # a sweep records each entry as failed, as for any failed comparison
        cfg = write_config(tmp_path, measurement_path=str(tmp_path / "big.csv"))
        run = run_cli(cfg, "sweep")
        assert run.returncode == 1
        assert run.stderr.splitlines() == ["error:sweep: 2 of 2 entries failed"]
        assert f"e_disc 25 MPa: FAILED (compare: {want})" in run.stdout.splitlines()

    # the spliced K_ff(1e308) overflows: one line, and no numpy warning;
    # synth-dic solves at its synthetic block's reference modulus
    @pytest.mark.parametrize("command, want", [
        ("solve", "error:solver: modulus 1e+308 overflows the reduced system"),
        ("synth-dic", "error:config: reference solve for synthetic cloud failed: solver: ")])
    def test_overflowing_modulus_is_a_solver_error(self, tmp_path, capsys, command, want):
        cfg = write_config(tmp_path, synthetic=synthetic(reference_e_disc_mpa=1e308))
        argv = ["solve", "--e-disc", "1e308"] if command == "solve" else [command]
        assert main(["--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(want)
        assert not (tmp_path / "out" / "entry.json").exists()
        assert not (tmp_path / "out" / "cloud.csv").exists()

    @pytest.mark.parametrize("e_disc, cause", [("1e-312", "subnormal diagonal entry"),
                                               ("1e300", "stiffness contrast")])
    def test_modulus_out_of_reach_is_one_solver_error_line(self, tmp_path, capsys, e_disc,
                                                           cause):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve", "--e-disc", e_disc]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:solver: ") and cause in err[0]

    # an element stiffness past float64, from the pot's modulus or from a law
    # that maps bone that high: one line naming an element, and no numpy warning
    @pytest.mark.parametrize("over", [{"e_pot_mpa": 1e308},
                                      {"elasticity": {"coefficient": 1e308, "e_max_mpa": 1e308}}],
                             ids=["e_pot", "law"])
    def test_overflowing_element_stiffness_is_one_solver_error_line(self, tmp_path, over):
        run = run_cli(write_config(tmp_path, **over), "solve", timeout=60)
        assert run.returncode == 1
        err = run.stderr.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"error:solver: element \d+ has a stiffness that overflows float64",
                            err[0])

    def test_overflowing_right_hand_side_is_one_solver_error_line(self, tmp_path):
        run = run_cli(write_config(tmp_path, loading={"compression_mm": 1e200}), "solve")
        assert run.returncode == 1
        assert run.stderr.splitlines() == [
            "error:solver: the norm of the right-hand side -K_fp u_p overflows"]

    def test_overflowing_calibration_maps_quietly_at_the_ceiling(self, tmp_path):
        # stderr must stay empty, with no numpy warning
        run = run_cli(write_config(tmp_path, calibration={"slope": 1e300}), "map")
        assert run.returncode == 0 and run.stderr == ""
        rows = (tmp_path / "out" / "materials.csv").read_text().splitlines()[1:]
        mapped = [r.split(",") for r in rows if r.endswith(",MAPPED")]
        assert mapped and all(float(r[3]) == 20000.0 for r in mapped)

    def test_true_residual_far_above_tolerance_is_one_convergence_error_line(self, tmp_path,
                                                                            capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve", "--e-disc", "1e14"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:convergence: ")
        assert "true residual" in err[0]
        assert not (tmp_path / "out" / "entry.json").exists()

    @pytest.mark.parametrize("command", ["phantom", "map", "solve", "sweep"])
    def test_oversized_phantom_is_one_config_error_line(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # 6 * 3 * 3 * (2 * 2 + 1 + 2 * 1) = 378 elements
        monkeypatch.setattr(mesh_module, "PHANTOM_MAX_ELEMENTS", 377)
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), command]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error:config: invalid config section 'phantom': "
                       "378 elements exceed PHANTOM_MAX_ELEMENTS (377)"]
        assert not (tmp_path / "out").exists()

    def test_phantom_past_any_memory_is_refused_before_it_is_built(self, tmp_path, capsys):
        cfg = write_config(tmp_path, phantom={"nx": 100000, "ny": 100000,
                                              "nz_vertebra": 100000})
        assert main(["--config", str(cfg), "phantom"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")
        assert "PHANTOM_MAX_ELEMENTS" in err[0]

    def test_voxel_grid_with_constant_hu_is_one_config_error_line(self, tmp_path, capsys):
        # neither source silently wins: the pair is refused before any file is read
        cfg = write_config(tmp_path, voxel_grid_path=str(tmp_path / "grid.json"))
        assert main(["--config", str(cfg), "map"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error:config: voxel_grid_path and constant_hu are mutually exclusive"]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_voxel_is_one_format_error_line(self, tmp_path, capsys, bad):
        # the grid covers the phantom, so only the bad voxel can fail it
        values = np.full(5 * 5 * 9, 800.0)
        values[12] = bad
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"dims": [5, 5, 9], "spacing_mm": [2.0, 2.0, 2.0],
                                    "origin_mm": [-1.0, -1.0, -1.0], "dtype": "f32",
                                    "order": "x-fastest", "data_file": "grid.raw"}))
        values.astype("<f4").tofile(tmp_path / "grid.raw")
        cfg = write_config(tmp_path, constant_hu=None, voxel_grid_path=str(grid))
        for command in (["map"], ["solve", "--e-disc", "25"]):
            assert main(["--config", str(cfg), *command]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:format:"), err
            assert "voxel value 12" in err[0]

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["a_file", "under_a_file"])
    @pytest.mark.parametrize("argv", [
        ["phantom"], ["map"], ["solve"], ["sweep"], ["synth-dic"], ["compare"],
        ["fit-disc", "--target-force", "100", "--bracket", "5", "60"]],
        ids=lambda argv: argv[0])
    def test_unmakeable_output_directory_is_one_config_error_line(self, tmp_path, capsys,
                                                                  monkeypatch, argv, out):
        def no_build(*args, **kwargs):
            raise AssertionError("a mesh was built before the output directory was made")
        monkeypatch.setattr(pipeline, "mesh_from_config", no_build)
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / out), *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error:config: cannot make output directory "
                                 f"{str(tmp_path / out)!r}: ")

    # a report path the run finds unwritable only as it writes there
    @pytest.mark.parametrize("command, blocker, kind, code", [
        ("sweep", "e_disc_25", "file", errno.EEXIST),
        ("sweep", "summary.csv", "directory", errno.EISDIR),
        ("solve", "entry.json", "directory", errno.EISDIR)],
        ids=["sweep_entry_dir_is_a_file", "sweep_table_is_a_directory",
             "solve_entry_json_is_a_directory"])
    def test_unwritable_report_path_is_one_config_error_line(self, tmp_path, capsys, command,
                                                             blocker, kind, code):
        cfg = write_config(tmp_path)
        path = tmp_path / "out" / blocker
        path.parent.mkdir()
        if kind == "directory":
            path.mkdir()
        else:
            path.write_text("")
        assert main(["--config", str(cfg), command]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error:config: cannot write {str(path)!r}: {os.strerror(code)}"]

    @pytest.mark.parametrize("text", [b'\xff\xfe{"seed": 1}', b"[" * 200_000 + b"]" * 200_000],
                             ids=["not_utf8", "nested_past_the_parser"])
    def test_unparsable_config_is_one_config_error_line(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config: cannot read config:")

    @pytest.mark.parametrize("over", [{"phantom": None, "mesh_path": "a\u0000b"},
                                      {"measurement_path": "a\u0000b"},
                                      {"output_dir": "a\u0000b"}],
                             ids=["mesh_path", "measurement_path", "output_dir"])
    def test_nul_in_a_path_is_one_config_error_line(self, tmp_path, capsys, over):
        cfg = write_config(tmp_path, **over)
        assert main(["--config", str(cfg), "compare"]) == 1
        err = capsys.readouterr().err.splitlines()
        (key,) = (k for k in over if over[k] is not None)
        assert err == [f"error:config: {key} must not contain a NUL character"]

    def test_part_named_as_the_splice_marker_is_one_format_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "phantom"]) == 0
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        mesh = tmp_path / "out" / "mesh.txt"
        mesh.write_text(mesh.read_text().replace(" vertebra_1 ", " \0spliced "))
        capsys.readouterr()
        cfg = write_config(tmp_path, phantom=None, mesh_path=str(mesh))
        assert main(["--config", str(cfg), "compare",
                     "--cloud", str(tmp_path / "out" / "cloud.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:format:"), err
        assert "is not printable" in err[0]

    def test_missing_mesh_file_is_one_format_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, phantom=None, mesh_path=str(tmp_path / "none.txt"))
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:format:")


class TestDeterminismAcrossThreads:
    def test_sweep_outputs_bitwise_equal(self, tmp_path):
        # the sweep runs in order on one thread; the BLAS thread count of
        # the process must not change a byte of its reports
        cfg = write_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(spinefe.__file__).resolve().parents[1]))
        outs = []
        for blas_threads in ("1", "2"):
            outs.append(tmp_path / f"blas_{blas_threads}")
            subprocess.run([sys.executable, "-m", "spinefe.cli", "--config", str(cfg),
                            "--out", str(outs[-1]), "sweep"],
                           env=dict(env, OPENBLAS_NUM_THREADS=blas_threads),
                           check=True, capture_output=True)
        names = ["summary.csv", "curves.csv", "sweep_result.json",
                 "e_disc_10/displacements.csv", "e_disc_10/strains.csv",
                 "e_disc_10/report.json", "e_disc_10/solution.vtk",
                 "e_disc_25/displacements.csv", "e_disc_25/surface_strains.vtk"]
        assert_same_files(outs[0], outs[1], names)

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--threads", "1", "sweep"])
        assert exc.value.code == 2

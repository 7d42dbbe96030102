"""Numbered end-to-end acceptance checks.

Each test exercises one advertised guarantee of the pipeline at its stated
tolerance, from element-level patch consistency up to sweeps that are
byte-identical across runs and BLAS thread counts, and prints a one-line verdict so a verbose run reads as a
checklist.  Thresholds here are contractual: do not loosen them to make a
failing build green.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spinefe
from spinefe.materials import MaterialField, Provenance, assign_uniform
from spinefe.mesh import PartRole, PhantomSpec, build_phantom, extract_surface, face_node_ids
from spinefe.metrics import (MeasurementCloud, compare_fields, ks_two_sample,
                             linear_regression, observe)
from spinefe.pipeline import (FIT_TOL_REL, SyntheticSpec, build_model, emit_reports,
                              fit_disc_modulus, fit_disc_to_force, load_config, run_sweep,
                              solve_entry, synth_measurement)
from spinefe.registration import RigidMotion, fit_rigid_motion
from spinefe.solver import (PCG_TOL, BoundaryConditionSet, ParametricSystem, apply_bcs,
                            assemble, reaction_force, reaction_rows, solve_pcg)
from spinefe.strain import plane_axes, surface_strain_field
from test_solver import ORIGIN, assemble_all, clamp_and_drive

SWEEP_E_DISC = [4.15, 10.0, 25.0, 30.0, 35.0, 50.0]


def trend_config() -> dict:
    """Two-vertebra phantom, ~8.6k DOFs: cheap enough to sweep repeatedly."""
    return {
        "phantom": {"nx": 5, "ny": 4, "nz_vertebra": 4, "nz_disc": 2,
                    "nz_pot": 2},
        "constant_hu": 800.0,
        "sweep_e_disc_mpa": list(SWEEP_E_DISC),
        "synthetic": {"spacing_mm": 2.0, "systematic_um": 0.0,
                      "random_um": 0.0},
        "loading": {"flexion_angle_deg": 2.0, "compression_mm": 0.5},
        "seed": 11,
    }


def large_config() -> dict:
    """Same phantom refined to ~49k DOFs for the timing-bound closed loop."""
    cfg = trend_config()
    cfg["phantom"] = {"nx": 9, "ny": 7, "nz_vertebra": 9, "nz_disc": 4,
                      "nz_pot": 3}
    cfg["sweep_e_disc_mpa"] = [10.0]
    return cfg


def uniform_materials(mesh, e_mpa: float, nu: float) -> MaterialField:
    mat = MaterialField.unset_for(mesh)
    for pid in mesh.part_table:
        mat = assign_uniform(mesh, mat, pid, e_mpa, nu)
    return mat


@pytest.fixture(scope="module")
def trend_sweep():
    result = run_sweep(load_config(trend_config()))
    for entry in result.entries:
        assert entry.ok, entry.error
    return result


def test_01_affine_patch_field_reproduced():
    t0 = time.perf_counter()
    mesh = build_phantom(PhantomSpec(
        width_mm=12.0, depth_mm=12.0, vertebra_height_mm=8.0,
        pot_height_mm=4.0, n_vertebrae=1, nx=3, ny=3, nz_vertebra=2,
        nz_pot=1))
    assert mesh.n_elements >= 48
    materials = uniform_materials(mesh, 3000.0, 0.25)

    a = np.random.default_rng(1).normal(size=(3, 3))
    a *= 1e-3 / np.linalg.norm(a, 2)
    exterior = extract_surface(mesh, sorted(mesh.part_table))
    boundary = face_node_ids(exterior, np.ones(exterior.n_triangles, dtype=bool))
    bcs = BoundaryConditionSet(boundary, mesh.nodes[boundary] @ a.T)
    system = apply_bcs(assemble_all(mesh, materials), bcs, mesh)
    u, _ = solve_pcg(system, tol=1e-12)

    # strains on the mid part's surface: its interface planes sit inside
    # the block, so they are governed by solved, not prescribed, nodes
    mid = extract_surface(mesh, mesh.part_ids_with_role(PartRole.VERTEBRA))
    solved_tris = int((~np.isin(mid.triangles, boundary)).any(axis=1).sum())
    assert solved_tris >= 8
    field = surface_strain_field(mid, u)
    assert np.isfinite(field.tensors).all()

    tri = mid.vertex_coords()
    e1 = tri[:, 1] - tri[:, 0]
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    basis = np.stack([e1, np.cross(normal, e1)], axis=2)
    sym_a = 0.5 * (a + a.T)
    expected = np.einsum("tia,ij,tjb->tab", basis, sym_a, basis)
    gap = np.abs(field.tensors - expected).max()
    elapsed = time.perf_counter() - t0
    assert gap < 1e-8
    assert elapsed < 5.0
    print(f"[accept 01] patch test on {mesh.n_elements} tets: "
          f"max strain gap {gap:.2e}, {elapsed:.2f} s")


def test_30_layered_column_reaction_is_exact():
    # a 3-vertebra stack at nu = 0, its z-min face clamped and its z-max face
    # moved 0.5 mm down: each layer is in uniform uniaxial stress, which the
    # tet10 field holds exactly, so the reaction is A c / sum h_i / E_i.  The
    # disc block goes through the modulus-parametric system as a sweep's does
    t0 = time.perf_counter()
    spec = PhantomSpec(n_vertebrae=3, nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2)
    mesh = build_phantom(spec)
    area, c = spec.width_mm * spec.depth_mm, 0.5
    e_part = {PartRole.POT: 2500.0, PartRole.VERTEBRA: 3000.0, PartRole.DISC: 1.0}
    materials = MaterialField.unset_for(mesh)
    for pid, part in mesh.part_table.items():
        materials = assign_uniform(mesh, materials, pid, e_part[part.role], 0.0)
    z = mesh.nodes[:, 2]
    fixed, driven = np.flatnonzero(z == 0.0), np.flatnonzero(z == z.max())
    bcs = BoundaryConditionSet(np.concatenate([fixed, driven]), np.concatenate(
        [np.zeros((fixed.size, 3)), np.tile([0.0, 0.0, -c], (driven.size, 1))]))
    discs = mesh.part_ids_with_role(PartRole.DISC)
    k_static = assemble(mesh, materials, part_ids=[p for p in mesh.part_table if p not in discs])
    k_disc = assemble(mesh, materials, part_ids=discs)
    static = apply_bcs(k_static, bcs, mesh)
    system = ParametricSystem(static=static, unit=static.reduce(k_disc),
                              reaction_rows=(reaction_rows(k_static, driven),
                                             reaction_rows(k_disc, driven)))

    def exact(e_disc):
        return area * c / (2 * spec.pot_height_mm / e_part[PartRole.POT]
                           + 3 * spec.vertebra_height_mm / e_part[PartRole.VERTEBRA]
                           + 2 * spec.disc_height_mm / e_disc)

    def force(e_disc):
        u, _ = solve_pcg(system.at(e_disc), tol=PCG_TOL)
        lateral.append(np.abs(u[:, :2]).max())
        return float(np.linalg.norm(system.reaction(e_disc, u)))

    lateral = []
    worst = max(abs(force(e) - exact(e)) / exact(e) for e in (4.15, 25.0, 50.0, 1e3, 1e5))
    fitted = fit_disc_modulus(force, exact(25.0), (5.0, 60.0))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert max(lateral) <= 1e-8
    assert abs(fitted - 25.0) <= FIT_TOL_REL * 25.0
    print(f"[accept 30] layered column at nu = 0: reaction off A c / sum h/E by "
          f"{worst:.1e} at worst, lateral {max(lateral):.1e} mm, fit {fitted:.6g} MPa "
          f"for 25, {elapsed:.2f} s")


def test_31_saint_venant_bending_is_exact():
    # pure bending about x of the trend stack as one prism at nu = 0.3 and
    # curvature 1e-3 /mm: the exact field is quadratic, which the tet10 field
    # holds, and its only stress, sigma_zz = E kappa y, leaves the lateral
    # faces traction-free.  So only the end faces are prescribed.  Every part
    # is at E, the disc spliced through the modulus-parametric system
    t0 = time.perf_counter()
    mesh = build_phantom(PhantomSpec(nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2))
    e, nu, kappa = 3000.0, 0.3, 1e-3
    discs = mesh.part_ids_with_role(PartRole.DISC)
    materials = assign_uniform(mesh, uniform_materials(mesh, e, nu), discs, 1.0, nu)
    x, y, z = (mesh.nodes - 0.5 * (mesh.nodes.min(axis=0) + mesh.nodes.max(axis=0))).T
    exact = np.column_stack([-nu * kappa * x * y,
                             -0.5 * kappa * (z * z + nu * (y * y - x * x)),
                             kappa * y * z])
    ends = np.flatnonzero((z == z.min()) | (z == z.max()))
    k_static = assemble(mesh, materials, [p for p in mesh.part_table if p not in discs])
    k_disc = assemble(mesh, materials, discs)
    static = apply_bcs(k_static, BoundaryConditionSet(ends, exact[ends]), mesh)
    system = ParametricSystem(static=static, unit=static.reduce(k_disc),
                              reaction_rows=(reaction_rows(k_static, ends),
                                             reaction_rows(k_disc, ends)))
    u, stats = solve_pcg(system.at(e), tol=PCG_TOL)

    exterior = extract_surface(mesh, sorted(mesh.part_table))
    interior = np.setdiff1d(np.arange(mesh.n_nodes),
                            face_node_ids(exterior, np.ones(exterior.n_triangles, dtype=bool)))
    gap = np.abs(u[interior] - exact[interior]).max() / np.abs(exact[interior]).max()
    elapsed = time.perf_counter() - t0
    assert interior.size > 1000
    assert gap <= 1e-8
    print(f"[accept 31] Saint-Venant bending: {interior.size} interior nodes within "
          f"{gap:.1e} of the exact field, {stats.iterations} iterations, {elapsed:.2f} s")


def test_02_pcg_matches_dense_on_random_systems():
    mesh = build_phantom(PhantomSpec(
        width_mm=6.0, depth_mm=6.0, vertebra_height_mm=4.0, pot_height_mm=2.0,
        n_vertebrae=1, nx=1, ny=1, nz_vertebra=1, nz_pot=1))
    assert 3 * mesh.n_nodes <= 300
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(20 + seed)
        m = mesh.n_elements
        materials = MaterialField(
            e_mpa=rng.uniform(500.0, 15000.0, m),
            nu=rng.uniform(0.0, 0.45, m),
            provenance=np.full(m, int(Provenance.MAPPED), dtype=np.int8))
        picks = rng.choice(mesh.n_nodes, 10, replace=False)
        bcs = BoundaryConditionSet(
            picks, np.concatenate([np.zeros((5, 3)), rng.normal(0.0, 1e-3, (5, 3))]))
        reduced = apply_bcs(assemble_all(mesh, materials), bcs, mesh)
        # a random load on the free DOFs
        reduced = replace(reduced, rhs=reduced.rhs + rng.normal(0.0, 1.0, reduced.rhs.size))
        u, stats = solve_pcg(reduced, tol=1e-9)
        dense = np.linalg.solve(reduced.k_ff.toarray(), reduced.rhs)
        gap = np.linalg.norm(u.ravel()[reduced.free] - dense) / np.linalg.norm(dense)
        worst = max(worst, gap)
        assert 0 < stats.iterations <= reduced.rhs.size
        assert gap <= 1e-8
    print(f"[accept 02] pcg vs dense on 5 systems of {3 * mesh.n_nodes} DOFs: "
          f"worst relative gap {worst:.2e}")


def test_03_uniaxial_bar_reaction():
    spec = PhantomSpec(width_mm=10.0, depth_mm=10.0, vertebra_height_mm=40.0,
                       pot_height_mm=10.0, n_vertebrae=1,
                       nx=2, ny=2, nz_vertebra=8, nz_pot=2)
    mesh = build_phantom(spec)
    height = 60.0
    eps = 1e-3
    want = 5000.0 * 100.0 * eps
    z = mesh.nodes[:, 2]
    bottom = np.flatnonzero(np.isclose(z, 0.0))
    top = np.flatnonzero(np.isclose(z, height))
    motion = RigidMotion(np.eye(3), [0.0, 0.0, -eps * height])

    rels = {}
    for nu, limit in ((0.3, 2e-2), (0.0, 1e-6)):
        full = assemble_all(mesh, uniform_materials(mesh, 5000.0, nu))
        system = apply_bcs(full, clamp_and_drive(mesh, bottom, top, motion), mesh)
        u, _ = solve_pcg(system, tol=1e-12)
        fz = reaction_force(full, u, top)[2]
        rels[nu] = abs(abs(fz) - want) / want
        assert rels[nu] < limit
    print(f"[accept 03] bar reaction vs E*A*eps: nu=0.3 off by "
          f"{rels[0.3]:.2%} (clamped ends), nu=0 off by {rels[0.0]:.1e}")


def test_04_rigid_fit_recovery_and_noise_floor():
    rng = np.random.default_rng(4)
    worst_angle = worst_shift = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        src = rng.uniform(-10.0, 10.0, (n, 3))
        truth = RigidMotion.about_axis(
            rng.normal(size=3), rng.uniform(0.0, 180.0),
            pivot=rng.uniform(-5.0, 5.0, 3),
            extra_translation=rng.uniform(-2.0, 2.0, 3))
        fit, _ = fit_rigid_motion(src, truth.apply(src))
        gap = fit.rotation @ truth.rotation.T - np.eye(3)
        # 2 asin(|R - I|_F / (2 sqrt 2)) stays conditioned near zero,
        # unlike the arccos-of-trace form
        angle = np.degrees(2.0 * np.arcsin(
            min(1.0, np.linalg.norm(gap) / (2.0 * np.sqrt(2.0)))))
        worst_angle = max(worst_angle, angle)
        worst_shift = max(worst_shift, np.linalg.norm(
            fit.translation - truth.translation))
    assert worst_angle < 1e-9
    assert worst_shift < 1e-9

    sq = []
    sigma = 0.025
    for seed in range(100):
        r = np.random.default_rng(1000 + seed)
        src = r.uniform(-15.0, 15.0, (60, 3))
        truth = RigidMotion.about_axis(r.normal(size=3), r.uniform(0.0, 30.0),
                                       pivot=r.uniform(-5.0, 5.0, 3), extra_translation=ORIGIN)
        dst = truth.apply(src) + r.normal(0.0, sigma, src.shape)
        _, rms = fit_rigid_motion(src, dst)
        sq.append(rms * rms)
    overall = float(np.sqrt(np.mean(sq)))
    assert 0.8 * sigma <= overall <= 1.2 * sigma
    print(f"[accept 04] 1000 exact fits: worst angle {worst_angle:.1e} deg, "
          f"worst shift {worst_shift:.1e} mm; 25 um noise -> rms "
          f"{overall * 1e3:.1f} um")


def test_05_observation_exact_for_affine_field(trend_sweep):
    # an affine field sampled at random points of the trend surface's flat
    # faces: O u is the field at each site, and W O u its in-plane tensor in
    # the axes of the site's triangle, both to rounding
    model = trend_sweep.model
    surf = model.observed
    rng = np.random.default_rng(5)
    grad, shift = 1e-3 * rng.standard_normal((3, 3)), 0.1 * rng.standard_normal(3)
    tri = rng.choice(surf.n_triangles, 1500, p=surf.areas / surf.areas.sum())
    r1, r2 = np.sqrt(rng.random(tri.size)), rng.random(tri.size)
    bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
    points = np.einsum("pc,pcd->pd", bary, surf.vertex_coords()[tri])
    want = points @ grad.T + shift
    obs = observe(MeasurementCloud(points, want), surf, model.rois)
    got = obs.sample @ (model.mesh.nodes @ grad.T + shift)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    axes = plane_axes(surf.vertex_coords(), surf.normals)[obs.sites[obs.windowed]]
    strain = np.einsum("wad,de,wbe->wab", axes, 0.5 * (grad + grad.T), axes)
    want_t = np.stack([strain[:, 0, 0], strain[:, 1, 1], strain[:, 0, 1]], axis=1)
    got_t = (obs.window @ got.reshape(-1)).reshape(-1, 3)
    worst = max(np.abs(t - want_t).max() for t in (got_t, obs.measured_tensors))
    assert worst <= 1e-12 * np.abs(want_t).max()
    print(f"[accept 05] affine field at {len(points)} random surface sites: O u exact to "
          f"{np.abs(got - want).max() / np.abs(want).max():.1e}, W O u at "
          f"{obs.windowed.size} windowed sites to {worst / np.abs(want_t).max():.1e}")


def test_06_metric_oracles():
    stats = linear_regression(np.array([1.0, 2.0, 3.0]),
                              np.array([1.0, 3.0, 4.0]))
    assert abs(stats["slope"] - 1.5) < 1e-12
    assert abs(stats["intercept"] + 1.0 / 3.0) < 1e-12
    assert abs(stats["r2"] - 27.0 / 28.0) < 1e-12

    d, _ = ks_two_sample(np.array([1.0, 2.0, 3.0, 4.0]),
                         np.array([2.0, 3.0, 4.0, 5.0]))
    assert d == 0.25
    d, _ = ks_two_sample(np.arange(9.0), np.arange(9.0))
    assert d == 0.0
    print("[accept 06] regression and ks oracles match to 1e-12 / exactly")


def test_07_closed_loop_agreement_at_scale():
    t0 = time.perf_counter()
    cfg = load_config(large_config())
    model = build_model(cfg)
    dofs = 3 * model.mesh.n_nodes
    assert 40_000 <= dofs <= 60_000
    entry = solve_entry(model, 10.0)
    assert entry.ok, entry.error

    clean = synth_measurement(
        model.observed, entry.disp, SyntheticSpec(2.0, 0.0, 0.0),
        np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
    report = compare_fields(observe(clean, model.observed, model.rois), entry.disp)
    elapsed = time.perf_counter() - t0

    pooled = report.displacement["pooled"]
    assert pooled["rmse_pct"] is not None and pooled["rmse_pct"] < 0.5
    for quantity in ("eps_max", "eps_min"):
        block = report.strain_block("all", quantity)
        total = block["per_roi"]["total"]
        assert "r2" in total and total["r2"] > 0.999
        assert block["ks_d"] < 0.01
    assert elapsed < 120.0

    noisy = synth_measurement(
        model.observed, entry.disp, SyntheticSpec(2.0, 10.0, 25.0),
        np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])))
    peak = float(np.abs(noisy.values).max())
    assert peak >= 0.3
    noisy_pct = compare_fields(observe(noisy, model.observed, model.rois),
                               entry.disp).displacement["pooled"]["rmse_pct"]
    assert noisy_pct is not None and noisy_pct < 9.0
    print(f"[accept 07] closed loop at {dofs} DOFs in {elapsed:.1f} s: "
          f"clean %RMSE {pooled['rmse_pct']:.3g}, noisy %RMSE {noisy_pct:.3g} "
          f"(peak {peak:.2f} mm)")


def test_08_strains_and_reaction_grow_with_disc_modulus(trend_sweep):
    moduli = [e.e_disc_mpa for e in trend_sweep.entries]
    assert moduli == SWEEP_E_DISC
    mean_abs_min = [float(np.abs(e.strains.eps_min_ue).mean())
                    for e in trend_sweep.entries]
    mean_max = [float(e.strains.eps_max_ue.mean()) for e in trend_sweep.entries]
    reactions = [e.reaction_mag_n for e in trend_sweep.entries]
    assert (np.diff(mean_abs_min) > 0.0).all()
    assert (np.diff(mean_max) > 0.0).all()
    assert (np.diff(reactions) > 0.0).all()
    print(f"[accept 08] sweep {moduli} MPa: mean |eps_min| "
          f"{mean_abs_min[0]:.0f} -> {mean_abs_min[-1]:.0f} ue, reaction "
          f"{reactions[0]:.0f} -> {reactions[-1]:.0f} N, all strictly rising")


def test_09_strain_pattern_invariant_across_sweep(trend_sweep):
    r_min = 1.0
    for attr in ("eps_max_ue", "eps_min_ue"):
        fields = [getattr(e.strains, attr) for e in trend_sweep.entries]
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                a = fields[i] / fields[i].mean()
                b = fields[j] / fields[j].mean()
                r_min = min(r_min, float(np.corrcoef(a, b)[0, 1]))
    assert r_min > 0.99
    print(f"[accept 09] per-triangle strain fields across the sweep: "
          f"min pairwise pearson r {r_min:.5f}")


def test_10_disc_modulus_recovered_from_force():
    cfg = load_config(trend_config())
    target = solve_entry(build_model(cfg), 25.0).reaction_mag_n
    e_star, solves = fit_disc_to_force(cfg, target, (5.0, 60.0))
    rel = abs(e_star - 25.0) / 25.0
    assert solves <= 30
    assert rel < 5e-3
    print(f"[accept 10] fit to {target:.1f} N: e_disc {e_star:.4f} MPa in "
          f"{solves} solves (off by {rel:.2e})")


def _cli_sweep(config_path, outdir, blas_threads: int) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(spinefe.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-m", "spinefe.cli", "--config", str(config_path),
                    "--out", str(outdir), "sweep"], env=env, check=True,
                   capture_output=True)


def test_11_reports_byte_identical_across_thread_counts(tmp_path):
    # the sweep seeds each solve from the fields before it, so the reports
    # must repeat across runs, and the BLAS thread count must not leak in
    outs = []
    for run in (1, 2):
        result = run_sweep(load_config(trend_config()))
        outs.append(tmp_path / f"run_{run}")
        emit_reports(result, outs[-1])
    config_path = tmp_path / "trend.json"
    config_path.write_text(json.dumps(trend_config()))
    for blas_threads in (1, 2):
        outs.append(tmp_path / f"blas_{blas_threads}")
        _cli_sweep(config_path, outs[-1], blas_threads)
    names = ["summary.csv", "curves.csv", "sweep_result.json"]
    names += [f"e_disc_{e:g}/report.json" for e in SWEEP_E_DISC]
    for name in names:
        for out in outs[1:]:
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), (out, name)
    print(f"[accept 11] {len(names)} report files byte-identical across 2 runs "
          f"in one process and at 1 and 2 BLAS threads")


def test_12_pcg_iterations_nearly_mesh_independent(trend_sweep):
    # Jacobi alone needs ~300 iterations at trend and twice that at large;
    # the corner-node coarse space keeps the count nearly flat under
    # refinement.  Sweep entries start from earlier fields, so the mesh
    # comparison is between cold solves on fresh models.
    sweep_its = [e.stats.iterations for e in trend_sweep.entries]
    assert max(sweep_its) <= 60
    trend = solve_entry(build_model(load_config(trend_config())), 10.0)
    assert trend.ok, trend.error
    trend_its = trend.stats.iterations
    assert trend_its <= 60
    entry = solve_entry(build_model(load_config(large_config())), 10.0)
    assert entry.ok, entry.error
    large_its = entry.stats.iterations
    assert large_its <= 80
    ratio = large_its / trend_its
    assert ratio <= 1.5
    print(f"[accept 12] cold pcg iterations at 10 MPa: trend {trend_its}, "
          f"large {large_its} (ratio {ratio:.2f}); seeded sweep "
          f"{min(sweep_its)}-{max(sweep_its)}")


def test_13_sweep_solves_meet_tolerance_on_true_residual(trend_sweep):
    tol = PCG_TOL
    worst = max(e.stats.true_residual for e in trend_sweep.entries)
    assert worst <= 2.0 * tol
    print(f"[accept 13] worst true relative residual {worst:.2e} "
          f"(tolerance {tol:g})")


@pytest.fixture(scope="module")
def noisy_misfits(trend_sweep):
    """The two misfits of every sweep modulus against 20 seeded
    default-noise clouds (2 mm, 10 um systematic, 25 um random) drawn from
    trend's 25 MPa field: one (cloud, modulus) array per misfit."""
    model = trend_sweep.model
    fields = [e.disp for e in trend_sweep.entries]
    truth = fields[SWEEP_E_DISC.index(25.0)]
    rows = []
    for seed in range(1, 21):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        cloud = synth_measurement(model.observed, truth, SyntheticSpec(), rng)
        obs = observe(cloud, model.observed, model.rois)
        rows.append([compare_fields(obs, u).misfit for u in fields])
    return {key: np.array([[m[key] for m in row] for row in rows])
            for key in ("displacement_mm", "tensor_ue")}


def _picks(misfit: np.ndarray) -> list[float]:
    return [SWEEP_E_DISC[i] for i in misfit.argmin(axis=1)]


def test_14_displacement_misfit_picks_the_true_modulus(noisy_misfits):
    picks = _picks(noisy_misfits["displacement_mm"])
    hits = picks.count(25.0)
    assert hits >= 18, picks
    print(f"[accept 14] displacement misfit (offset removed) lowest at 25 MPa in "
          f"{hits} of 20 noisy clouds; picks {sorted(set(picks))}")


def test_21_tensor_misfit_picks_within_one_sweep_step(noisy_misfits):
    picks = _picks(noisy_misfits["tensor_ue"])
    hits = sum(p in (25.0, 30.0) for p in picks)
    assert hits >= 18, picks
    print(f"[accept 21] in-plane tensor misfit lowest at 25 or 30 MPa in {hits} of "
          f"20 noisy clouds ({picks.count(25.0)} at 25 MPa)")

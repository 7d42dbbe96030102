"""CT-based multi-segment spine finite elements with measurement validation.

Submodules: mesh (tet10 phantoms, surfaces and RoI labels), materials
(HU -> modulus), solver (assembly, constraints, PCG, reactions),
registration (rigid motions, Kabsch marker fits), strain (surface
principal strains), metrics (a cloud observed on the surface, regression,
KS, and comparison reports as the plain dicts report.json stores), io
(file formats), pipeline (config-driven sweeps), cli (command line).
"""

from .errors import (BracketError, CompareError, ConfigError, ConvergenceError,
                     FormatError, MaterialError, MeshError, RegistrationError,
                     SolverError, SpineFEError)
from .materials import (CalibrationLaw, DensityElasticityLaw, MaterialField,
                        Provenance, VoxelGrid, assign_uniform, calibrate_density,
                        density_to_modulus, map_materials, trilinear_sample)
from .mesh import (Mesh, Part, PartRole, PhantomSpec, Region, SurfaceMesh,
                   build_phantom, extract_surface, face_node_ids, partition_rois)
from .metrics import (ComparisonReport, MeasurementCloud, Observation, compare_fields,
                      field_stats, ks_two_sample, linear_regression, observe,
                      percent_difference, rmse, roi_average)
from .pipeline import (LoadCase, PipelineConfig, SweepEntry, SweepResult,
                       SyntheticSpec, build_flexion_motion, build_model,
                       emit_reports, fit_disc_to_force, load_config, run_sweep,
                       solve_entry, synth_measurement)
from .registration import RigidMotion, fit_rigid_motion, rotation_angle
from .solver import (BoundaryConditionSet, ParametricSystem, ReducedSystem, SolveStats,
                     apply_bcs, assemble, fit_disc_modulus, reaction_force, solve_pcg)
from .strain import SurfaceStrainField, principal_strains, surface_strain_field

__version__ = "0.1.0"

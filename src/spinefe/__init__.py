"""CT-based multi-segment spine finite elements with measurement validation.

Submodules: domain (the range of each value that enters), mesh (tet10 phantoms,
surfaces, RoI labels, the quadrature rule), materials (HU -> modulus), solver
(assembly, constraints, PCG, reactions), registration (rigid motions, Kabsch
marker fits), strain (surface principal strains), metrics (a cloud observed on
the surface, regression, KS, and comparison reports as the plain dicts
report.json stores), io (file formats), pipeline (config-driven sweeps and the
modulus fit), cli (command line).  Each module's ``__all__`` names its public
API; the package re-exports none of it.
"""

__version__ = "0.1.0"

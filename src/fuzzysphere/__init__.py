"""Numerical laboratory for the O(2)-covariant fuzzy circle and the
O(3)-covariant fuzzy sphere: explicit matrix construction, verification of
the defining algebraic relations, coordinate spectra, Lie-algebra
reconstructions, coherent-state families and dispersion minimization."""

# set before the submodules are imported: report.py reads it
__version__ = "0.1.0"

from ._sturm import BACKEND
from .circle import FuzzyCircle, build_circle, coordinate_matrix, verify_circle_relations
from .coherent import (DispersionReport, dispersion,
                       minimize_dispersion, spin_cs, strong_scs_circle,
                       strong_scs_sphere_phi, weak_scs_orbit)
from .lierep import (EulerAngles, GeneratorSet, reconstruct_so4,
                     reconstruct_su2, rotation_operator)
from .linop import State
from .report import CheckRecord, Report
from .spectral import Spectrum, TridiagSpec, eig_bisection
from .sphere import (FuzzySphere, MadoreSphere, build_madore, build_sphere,
                     coordinate_blocks, verify_sphere_relations)

__all__ = [
    "BACKEND", "__version__",
    "State", "CheckRecord", "Report",
    "FuzzyCircle", "build_circle", "coordinate_matrix", "verify_circle_relations",
    "FuzzySphere", "MadoreSphere", "build_sphere", "build_madore",
    "coordinate_blocks", "verify_sphere_relations",
    "TridiagSpec", "Spectrum", "eig_bisection",
    "EulerAngles", "GeneratorSet", "reconstruct_su2", "reconstruct_so4",
    "rotation_operator",
    "DispersionReport", "dispersion", "minimize_dispersion",
    "spin_cs", "strong_scs_circle", "strong_scs_sphere_phi", "weak_scs_orbit",
]

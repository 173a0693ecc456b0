"""quasilat: approximate lattices, Beurling densities, and Gabor system checks.

The package builds truncated point sets (lattices, cut-and-project model
sets, p-adic model sets and symmetrized unions), estimates lower and upper
Beurling densities over box Følner sequences, certifies finite approximate
covers, and evaluates frame, Riesz, minimality, local approximation and
completeness diagnostics for Gaussian coherent Gabor systems in closed-form
Hermite coordinates.
"""

__version__ = "0.1.0"

from .errors import (CoverError, DegenerateLatticeError, EnumerationBoundError,
                     InsufficientTruncationError, NotMinimalError,
                     QuasilatError, ScenarioValidationError, ShiftRangeError,
                     TruncationTooSmallError)
from .pointset import (CutAndProjectScheme, Lattice, PointSet, Window,
                       fibonacci_scheme, from_points, lattice_points_in_box,
                       load_pointset, min_separation, model_set_generate,
                       regenerate, save_pointset, sumset_truncated, symmetrize)
from .density import (DensityReport, FolnerBoxes, count_in_translate,
                      density_scan, translate_count_grid, van_hove_ratio)
from .approxcheck import (CoverResult, DeloneReport, delone_report,
                          find_cover_set, verify_cover)
from .padic import (PAdicCoverResult, PAdicDensityReport, PAdicModelSet,
                    PAdicRational, enumerate_model_set, padic_cover_set,
                    padic_density, padic_norm, parse_window)
from .gabor import (D_PI, DualFamily, GaborSystem, GridSpec, SpectralBounds,
                    Waveform, atom_coordinates, biorthogonal_dual, cocycle,
                    completeness_residual, frame_bounds, gaussian_window,
                    gram_matrix, hap_residual, hermite_basis, hermite_cutoff,
                    inner, orthogonality_check, riesz_bounds, tf_shift,
                    uniform_min_delta)
from .scenarios import (Report, Scenario, builtin_scenario_names,
                        builtin_scenario_path, parse_scenario, run_scenario)

__all__ = [
    "__version__",
    "QuasilatError", "DegenerateLatticeError", "EnumerationBoundError",
    "InsufficientTruncationError", "ShiftRangeError", "TruncationTooSmallError",
    "NotMinimalError", "CoverError", "ScenarioValidationError",
    "PointSet", "Lattice", "Window", "CutAndProjectScheme", "fibonacci_scheme",
    "from_points", "lattice_points_in_box", "model_set_generate", "symmetrize",
    "sumset_truncated", "min_separation", "regenerate", "save_pointset",
    "load_pointset",
    "FolnerBoxes", "DensityReport", "van_hove_ratio", "count_in_translate",
    "translate_count_grid", "density_scan",
    "DeloneReport", "CoverResult", "delone_report", "find_cover_set",
    "verify_cover",
    "PAdicRational", "PAdicModelSet", "PAdicDensityReport", "PAdicCoverResult",
    "parse_window", "padic_norm", "enumerate_model_set", "padic_density",
    "padic_cover_set",
    "D_PI", "GridSpec", "Waveform", "GaborSystem", "SpectralBounds",
    "DualFamily", "inner", "gaussian_window", "hermite_basis", "tf_shift",
    "cocycle", "orthogonality_check", "frame_bounds", "riesz_bounds",
    "gram_matrix", "biorthogonal_dual", "uniform_min_delta", "hap_residual",
    "completeness_residual", "atom_coordinates", "hermite_cutoff",
    "Scenario", "Report", "parse_scenario", "run_scenario",
    "builtin_scenario_names", "builtin_scenario_path",
]

"""saddlekit: shift-splitting preconditioned solvers for three-by-three
block saddle point systems."""

from .dense import (CholeskyFactor, ConvergenceFailure, NotPositiveDefinite,
                    Singular)
from .gmres import Diverged, SolveReport, gmres, stationary, true_residual
from .mmio import (ReportRecord, read_matrix_market, write_matrix_market,
                   write_report)
from .params import ParamEstimate, estimate_params, phi, phi_minimizer
from .precond import (BdPreconditioner, GssConfig, GssPreconditioner, build,
                      build_bd, make_config, splitting_residual)
from .problems import NoiseSpec, case_preset, example1, load_external, perturb
from .spectral import (BoundReport, InapplicableBound, ScalarExtremes, analyze,
                       check_pess_nonreal, check_real_interval,
                       check_unit_disk, condition_number,
                       convergence_predicate, lpess_bounds,
                       pess_nonreal_bounds, pess_real_interval,
                       preconditioned_spectrum, scalar_extremes)
from .system import (BlockVector, SaddlePointSystem, assemble, operator_apply,
                     rhs_for_ones, validate)

__version__ = "1.0.0"

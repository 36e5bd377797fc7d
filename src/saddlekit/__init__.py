"""saddlekit: shift-splitting preconditioned solvers for three-by-three
block saddle point systems."""

from .dense import (CholeskyFactor, ConvergenceFailure, NotPositiveDefinite,
                    Singular, cholesky, cholesky_solve, cond2, eig_general)
from .gmres import SolveReport, gmres, true_residual
from .mmio import (ReportRecord, read_matrix_market, write_matrix_market,
                   write_report)
from .params import ParamEstimate, estimate_params, phi, phi_minimizer
from .precond import (BdPreconditioner, GssConfig, GssPreconditioner, build,
                      build_bd, make_config, splitting_residual)
from .problems import NoiseSpec, case_preset, example1, load_external, perturb
from .spectral import (BoundReport, InapplicableBound, ScalarExtremes,
                       check_pess_nonreal, check_real_interval,
                       check_unit_disk, condition_number, lpess_bounds,
                       pess_nonreal_bounds, pess_real_interval,
                       preconditioned_spectrum, scalar_extremes)
from .stationary import (Diverged, StationaryReport, convergence_predicate,
                         pess_iterate, sufficient_s_lower_bound)
from .system import (BlockVector, SaddlePointSystem, assemble, operator_apply,
                     rhs_for_ones, to_dense, validate)

__version__ = "1.0.0"

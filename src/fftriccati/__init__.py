"""Low-rank algebraic Riccati solvers on FFT block-Toeplitz kernels."""

from .care import (CareSolveResult, CayleySystem, cayley_transform,
                   fta_care_solve, fta_care_sweep, residual_factor)
from .dare import (KrylovStack, LowRankFactor, RiccatiProblem, RoundRecord,
                   build_krylov_stack, compress_factor, fta_dare_arbitrary,
                   fta_dare_solve, fta_dare_sweep)
from .errors import (BreakdownNonSpd, DimensionMismatch, FftRiccatiError,
                     NoConvergence, NotPositiveDefinite, ParseError, PcgFailure,
                     SingularClosedLoop, SingularIterate, SingularPreconditioner,
                     SingularShift, StackBlowup, ZeroRhs)
from .oracles import (care_ground_truth, dare_ground_truth, displacement_rank,
                      dre_dense, gs_reconstruct, min_eig_difference,
                      radi_delta_check, random_care_instance,
                      random_dare_instance, sda_dense)
from .pcg import (BlockCirculantPreconditioner, GramOperator, PcgConfig,
                  pcg_solve)
from .residuals import ResidualReport, nres_care, nres_dare
from .toeplitz import (LOWER, UPPER, BlockToeplitzSpec, bt_apply,
                       bt_apply_transpose, bt_compose_lower, circular_convolve,
                       densify)
from .toeplitz_inverse import (StructuredInverse, SweepArtifacts,
                               solve_sweep_systems)

__version__ = "0.1.0"

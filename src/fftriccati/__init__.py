"""Low-rank algebraic Riccati solvers on FFT block-Toeplitz kernels."""

from .care import (CayleySystem, cayley_transform, fta_care_solve,
                   fta_care_sweep, residual_factor)
from .dare import (KrylovStack, LowRankFactor, RiccatiProblem, RoundRecord,
                   SolveResult, build_krylov_stack, compress_factor,
                   fta_dare_arbitrary, fta_dare_solve, fta_dare_sweep)
from .errors import (BreakdownNonSpd, DimensionMismatch, FftRiccatiError,
                     NoConvergence, NotPositiveDefinite, ParseError, PcgFailure,
                     SingularIterate, SingularPreconditioner, SingularShift,
                     StackBlowup, ZeroRhs)
from .oracles import (dre_dense, min_eig_difference, radi_delta_check,
                      random_care_instance, random_dare_instance, sda_dense)
from .pcg import BlockCirculantPreconditioner, GramOperator, pcg_solve
from .residuals import nres_care, nres_dare, nres_factor
from .toeplitz import BlockToeplitzSpec, bt_apply, bt_apply_transpose, densify
from .toeplitz_inverse import StructuredInverse, solve_sweep_systems

__version__ = "0.1.0"

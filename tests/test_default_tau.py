"""The default cut tau = 1e-8 (about sqrt(eps)) against dense references.

A direction of S with singular value sigma is worth sigma^2 of X = S'S, so a
truncation at tau * sigma_max moves X by at most tau^2 ||X||_2: about
eps ||X||_2 at 1e-8, X's own rounding.  Against scipy's dense solvers the
forward error must not move from tau = 1e-12, while the rank falls.  Both
cases are at n = 200, where each dense reference takes about 0.5 s; at
n = 500 each takes about 10 s (2-core Xeon, one BLAS thread).
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from fftriccati.care import fta_care_solve
from fftriccati.dare import RiccatiProblem, fta_dare_solve

from test_care import laplacian_problem

# |error(1e-8) - error(1e-12)|, in units of ||X*||_F: about 1000 eps, an
# order above the measured 2.3e-14 (CARE) and 5.6e-16 (DARE)
FORWARD_ERROR_TOL = 2e-13


def care_case():
    """n = 200 Laplacian, seed 2: 21 rounds, so 20 cuts of new rows and
    several stack compressions; forward error 1.538004e-5, rank 104 -> 76."""
    P = laplacian_problem(200, 4, 4, seed=2)
    X = scipy.linalg.solve_continuous_are(P.A.toarray(), P.B, P.C.T @ P.C, np.eye(4))
    return X, lambda **tau: fta_care_solve(P, gamma0=1.5, t_per_round=32, stop=1e-6,
                                           **tau)


def dare_case():
    """0.9 (I + 0.25 L) at n = 200, seed 0: 5 restarts to stop 1e-10;
    forward error 1.274e-12, rank 86 -> 55."""
    L = laplacian_problem(200, 4, 4)
    P = RiccatiProblem(0.9 * (scipy.sparse.identity(200, format="csr") + 0.25 * L.A),
                       L.B, L.C)
    X = scipy.linalg.solve_discrete_are(P.A.toarray(), P.B, P.C.T @ P.C, np.eye(4))
    return X, lambda **tau: fta_dare_solve(P, t_per_restart=32, stop=1e-10, **tau)


@pytest.mark.parametrize("case", [care_case, dare_case], ids=["care", "dare"])
def test_default_tau_keeps_forward_error_and_cuts_rank(case):
    X, solve = case()
    default, fine = solve(), solve(tau=1e-12)
    errors = [np.linalg.norm(r.factor.gram() - X) / np.linalg.norm(X)
              for r in (default, fine)]
    assert default.converged and fine.converged
    assert len(default.history) == len(fine.history)
    assert abs(errors[0] - errors[1]) <= FORWARD_ERROR_TOL
    assert default.factor.r <= 0.8 * fine.factor.r  # at least a fifth falls

"""Span recorder that times the solver's layers from outside the package.

Each timed function is replaced, while a ``Recorder`` is installed, at the name
its caller looks it up (``care.compress_factor``, ``toeplitz_inverse.pcg_solve``,
``pcg.bt_apply`` ...).  A call becomes a span ``[name, start, end, parent,
counts]`` kept in memory; ``close()`` puts every original back.  Self time is
a span's duration minus the durations of its direct children.
"""

import time

from fftriccati import care, cli, dare, pcg, residuals, toeplitz_inverse


def _pcg_counts(args, result):
    return {"iters": int(result.iterations.sum()),
            "cols": int(result.iterations.size),
            "cols_unconverged": int((~result.converged).sum())}


def _compress_counts(args, result):
    return {"rows_in": int(args[0].S.shape[0]), "rank_out": int(result.r)}


def _cols_of(position):
    def counts(args, result):
        X = args[position]
        return {"cols": int(X.shape[1]) if X.ndim == 2 else 1}
    return counts


# (owner, attribute, span name, counts(args, result) or None)
TIMED = [
    (cli, "load_problem", "cli.load_problem", None),
    (care, "cayley_transform", "care.cayley_transform", None),
    (care.ShiftedSolver, "solve", "care.shifted_solve", None),
    (care.ShiftedSolver, "rsolve", "care.shifted_solve", None),
    (care, "fta_care_sweep", "care.fta_care_sweep", None),
    (care, "residual_factor", "care.residual_factor", None),
    (care, "compress_factor", "dare.compress_factor", _compress_counts),
    (care, "nres_care", "residuals.nres", None),
    (care, "solve_sweep_systems", "toeplitz_inverse.solve_sweep_systems", None),
    (dare, "build_krylov_stack", "dare.build_krylov_stack", None),
    (dare, "fta_dare_sweep", "dare.fta_dare_sweep", None),
    (dare, "fta_dare_arbitrary", "dare.fta_dare_arbitrary", None),
    (dare, "compress_factor", "dare.compress_factor", _compress_counts),
    (dare, "solve_sweep_systems", "toeplitz_inverse.solve_sweep_systems", None),
    (dare, "bt_apply", "toeplitz.bt_apply", _cols_of(1)),
    (residuals, "nres_dare", "residuals.nres", None),
    (toeplitz_inverse.StructuredInverse, "apply", "toeplitz_inverse.apply", _cols_of(1)),
    (toeplitz_inverse, "pcg_solve", "pcg.pcg_solve", _pcg_counts),
    (toeplitz_inverse, "bt_apply", "toeplitz.bt_apply", _cols_of(1)),
    (toeplitz_inverse, "bt_apply_transpose", "toeplitz.bt_apply", _cols_of(1)),
    (pcg.BlockCirculantPreconditioner, "solve", "pcg.precond", None),
    (pcg.IdentityPreconditioner, "solve", "pcg.precond", None),
    (pcg, "bt_apply", "toeplitz.bt_apply", _cols_of(1)),
    (pcg, "bt_apply_transpose", "toeplitz.bt_apply", _cols_of(1)),
]


class Recorder:
    """Collects spans while its wrappers are installed (install ... close)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name, counts in TIMED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))

    def close(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, result)
            return result

        return timed

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

"""Small dense numerical kernels shared by the physics modules.

Everything here operates on matrices of dimension <= 16 (the physics needs
5x5) and is deterministic: identical inputs give identical outputs. The
kernels are thin, checked wrappers around LAPACK via numpy. `eigenbasis` is
the one eigendecomposition; `propagate`, the one route to exp(A t) b, needs
one. scipy is loaded only on `propagate`'s first Pade fallback (a defective
or ill-conditioned drift), so importing the package does not pull it in.
`matrix_exponential`, the fixed-step RK4 `integrate_ode` and the composite
trapezoid `quadrature` have no caller in the package: they remain only
because the benchmark's layer tracer (`bench/recorder.py`) looks them up by
name.
"""

from dataclasses import dataclass

import numpy as np

MAX_DIM = 16


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance record; every numerical guard reads from here."""

    singular_rel: float = 1e-14        # smallest singular value / inf-norm
    linear_residual_rel: float = 1e-10
    expm_cond_max: float = 1e8         # eigenvector condition before fallback
    resolvent_pole_gap: float = 1e-9   # distance of s to a drift eigenvalue
    stability_margin: float = 1e-12    # eigenvalue real parts must be below -this
    imag_truncate: float = 1e-12
    turning_label_rel: float = 1e-6
    weak_guard_frac: float = 0.1       # warn unless X < frac * X_minus
    strong_guard_frac: float = 3.0     # warn unless X > frac * X_plus
    aux_kappa_ratio: float = 10.0      # kappa_aux / g_aux for adiabaticity
    aux_coupling_ratio: float = 0.1    # (g_aux^2/kappa_aux) / g


TOL = Tolerances()


class NumericsError(Exception):
    """Base class for numerical kernel failures."""


class SingularMatrixError(NumericsError):
    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ConditioningError(NumericsError):
    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DivergenceError(NumericsError):
    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def _check_matrix(A):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if A.shape[0] > MAX_DIM:
        raise ValueError(f"dense kernels are capped at n={MAX_DIM}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains NaN/Inf entries")
    return A


def solve_complex_linear(A, b):
    """Solve A x = b for a small dense (complex) system.

    Partial-pivoted elimination via LAPACK; raises SingularMatrixError with a
    condition estimate when the matrix is numerically singular, and verifies
    the residual ||Ax - b||_inf <= tol * (||A||_inf ||x||_inf + ||b||_inf).
    """
    A = _check_matrix(A).astype(complex)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != A.shape[0]:
        raise ValueError("right-hand side is not conformable")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains NaN/Inf entries")

    norm_A = np.linalg.norm(A, np.inf)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= TOL.singular_rel * max(norm_A, 1e-300):
        cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
        raise SingularMatrixError(
            f"matrix is numerically singular (condition ~ {cond:.3e})",
            condition=cond,
        )
    x = np.linalg.solve(A, b)
    resid = np.linalg.norm(A @ x - b, np.inf)
    bound = TOL.linear_residual_rel * (
        norm_A * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    )
    if resid > max(bound, 1e-300):
        cond = sv[0] / sv[-1]
        raise ConditioningError(
            f"linear solve residual {resid:.3e} exceeds bound {bound:.3e} "
            f"(condition ~ {cond:.3e})",
            condition=cond,
        )
    return x


def eigenbasis(A):
    """(w, V, sv): the eigenvalues w of A, its eigenvectors V and the singular
    values sv of V, largest first. V and sv are None, no basis, when eig or
    the SVD of V fails or V is not finite; w comes from eigvals if eig fails.
    """
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError:
        return np.linalg.eigvals(A), None, None
    try:
        if np.all(np.isfinite(V)):
            return w, V, np.linalg.svd(V, compute_uv=False)
    except np.linalg.LinAlgError:
        pass
    return w, None, None


def _expm_pade(A):
    """scipy's scaling-and-squaring exp(A); scipy is imported on first use."""
    from scipy.linalg import expm

    return expm(A)


def propagate(A, times, b):
    """exp(A t_k) b for every t_k in times, stacked along the first axis.

    One eigendecomposition A = V diag(w) V^-1 serves every delay: row k is
    V diag(exp(w t_k)) y with V y = b. No eigenbasis, or an ill-conditioned
    one (cond_2(V) > TOL.expm_cond_max, e.g. a defective A), sends every
    delay to scaling-and-squaring (Moler and Van Loan, SIAM Rev. 45, 3
    (2003)). b is a vector or a matrix; rows at t = 0 are b exactly.
    """
    A = _check_matrix(A)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError("times must be a 1-D array of finite values")
    b = np.asarray(b)
    w, V, sv = eigenbasis(A)
    # cond_2(V) <= expm_cond_max without a division: sv[-1] = 0 fails
    if sv is not None and sv[0] <= TOL.expm_cond_max * sv[-1]:
        E = np.exp(np.outer(t, w))
        y = np.linalg.solve(V, b)
        out = (E * y) @ V.T if b.ndim == 1 else V @ (E[:, :, None] * y)
    else:
        out = np.empty(t.shape + b.shape, dtype=complex)
        for k, tk in enumerate(t):
            out[k] = _expm_pade(A * tk) @ b
    out[t == 0.0] = b
    return out


def matrix_exponential(A, t=1.0):
    """exp(A t): the one-delay case of `propagate`, applied to the identity."""
    return propagate(A, [t], np.eye(len(A)))[0]


def integrate_ode(rhs, x0, t_max, dt):
    """Fixed-step classical RK4 for dx/dt = rhs(x).

    Returns (times, states) with states[k] the state at times[k]; states keep
    the dtype of x0 (complex stays complex, anything else becomes float). A
    non-finite state aborts with DivergenceError carrying the first bad step
    index.
    """
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be positive")
    x = np.asarray(x0)
    x = x.astype(np.result_type(x.dtype, float))
    n_steps = int(round(t_max / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_steps + 1, x.size), dtype=x.dtype)
    states[0] = x
    for k in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"state became non-finite at step {k + 1}", step=k + 1
            )
        states[k + 1] = x
    return times, states


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float


def quadrature(values, grid):
    """Composite trapezoid integral of sampled values on an ascending grid.

    The error estimate comes from comparing against the every-other-point
    coarsening (Richardson: |I_h - I_2h| / 3).
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values)
    if grid.size < 2:
        raise ValueError("quadrature needs at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    full = np.trapezoid(values, grid)
    if grid.size >= 3:
        # coarsen on an odd-sized prefix so endpoints are shared
        m = grid.size if grid.size % 2 == 1 else grid.size - 1
        coarse = np.trapezoid(values[:m:2], grid[:m:2])
        fine = np.trapezoid(values[:m], grid[:m])
        err = abs(fine - coarse) / 3.0
    else:
        err = abs(full)
    return QuadratureResult(value=float(full), error_estimate=float(err))

"""Small dense numerical kernels shared by the physics modules.

Everything here operates on matrices of dimension <= 16 (the physics needs
5x5) and is deterministic: identical inputs give identical outputs. The
kernels are thin, checked wrappers around LAPACK via numpy.
`solve_complex_linear` is the one checked solve (floor, residual bound, first
failure) of the covariance and the resolvent, which adds its pole gap and
eigenbasis bounds. `eigenbasis` is the one eigendecomposition; `propagate`,
the one route to exp(A t) b, takes it from its caller, so a drift that is
propagated many times (`FluctuationMatrix.eig`) is decomposed once. scipy is
loaded only on `propagate`'s first Pade fallback (a defective or
ill-conditioned drift), so importing the package does not pull it in.
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
    """Base class for numerical kernel failures: a refused solve carries its
    condition estimate and, in a stack, the index of the failing matrix."""

    def __init__(self, message, condition=None, index=None):
        super().__init__(message)
        self.condition, self.index = condition, index


class SingularMatrixError(NumericsError):
    pass


class ConditioningError(NumericsError):
    pass


class DivergenceError(NumericsError):
    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def _check_matrix(A, ndims=(2,)):
    A = np.asarray(A)
    if A.ndim not in ndims or A.shape[-1] != A.shape[-2]:
        raise ValueError("expected a square matrix")
    if A.shape[-1] > MAX_DIM:
        raise ValueError(f"dense kernels are capped at n={MAX_DIM}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains NaN/Inf entries")
    return A


def solve_complex_linear(A, b, lower=None):
    """Solve A x = b for a small dense (complex) matrix, or A[k] x[k] = b for
    every matrix of a stack A, returning x as a vector or an (m, n) array.

    The one checked solve: partial-pivoted elimination via LAPACK, refused
    with SingularMatrixError where sigma_min(A) <= TOL.singular_rel ||A||_inf,
    and with ConditioningError where the residual ||Ax - b||_inf exceeds
    TOL.linear_residual_rel (||A||_inf ||x||_inf + ||b||_inf). A stack raises
    the error of its first matrix that fails, in order; the error carries that
    matrix's 2-norm condition estimate and its position as index (None for
    one matrix). lower, one per matrix, are proven lower bounds on sigma_min:
    the SVD runs only where a bound does not exceed twice the floor, the
    factor 2 covering rounding in the bound.
    """
    A = _check_matrix(A, (2, 3)).astype(complex, copy=False)
    one = A.ndim == 2
    if one:
        A = A[None]
    b = np.asarray(b, dtype=complex)
    if b.shape != A.shape[-1:]:
        raise ValueError("right-hand side is not conformable")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains NaN/Inf entries")

    norm_A = np.abs(A).sum(axis=2).max(axis=1)
    floor = TOL.singular_rel * np.maximum(norm_A, 1e-300)
    unsure = slice(None) if lower is None else ~(lower > 2.0 * floor)
    singular = np.zeros(len(A), dtype=bool)
    if lower is None or unsure.any():
        singular[unsure] = np.linalg.svd(A[unsure], compute_uv=False)[:, -1] <= floor[unsure]
    m = singular.argmax() if singular.any() else len(A)
    x = np.linalg.solve(A[:m], b[:, None])[..., 0]
    resid = np.abs((A[:m] @ x[..., None])[..., 0] - b).max(axis=1)
    bound = TOL.linear_residual_rel * (
        norm_A[:m] * np.abs(x).max(axis=1) + np.abs(b).max()
    )
    failed = resid > np.maximum(bound, 1e-300)
    if failed.any() or m < len(A):
        k = failed.argmax() if failed.any() else m
        sv = np.linalg.svd(A[k], compute_uv=False)
        cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
        what = (f"linear solve residual {resid[k]:.3e} exceeds bound {bound[k]:.3e}"
                if k < m else "matrix is numerically singular")
        error = ConditioningError if k < m else SingularMatrixError
        raise error(f"{what} (condition ~ {cond:.3e})", condition=cond,
                    index=None if one else int(k))
    return x[0] if one else x


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


def propagate(A, times, b, eig):
    """exp(A t_k) b for every t_k in times, stacked along the first axis.

    eig = eigenbasis(A), A = V diag(w) V^-1, serves every delay: row k is
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
    w, V, sv = eig
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
    A = _check_matrix(A)
    return propagate(A, [t], np.eye(len(A)), eigenbasis(A))[0]


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

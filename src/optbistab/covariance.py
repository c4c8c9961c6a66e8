"""Stationary covariance and two-time correlation vectors.

The stationary covariance C solves J C + C J^T = -D. It is solved as a
dense linear system in the 15 independent entries of the symmetric unknown;
the extra exchange symmetries (nine truly independent entries) are left to
emerge and are checked by the tests rather than imposed. No factorization of
the indefinite diffusion is ever attempted.

Two-time correlators anchored to one row r of the covariance form a
5-vector c(tau_bar) obeying dc/dtau_bar = J c, so

    c(tau_bar) = exp(J tau_bar) c(0),      c_hat(s_bar) = (s_bar I - J)^{-1} c(0),

with c(0) the r-th row of the stationary covariance.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .lindyn import (
    IDX,
    FluctuationMatrix,
    RegimeWarning,
    build_diffusion,
    build_jacobian,
    is_stable,
    regime_violation,
    saturation_factor,
)
from .numerics import (
    TOL,
    ConditioningError,
    SingularMatrixError,
    eigenbasis,
    propagate,
    solve_complex_linear,
)


class UnstableDriftError(ValueError):
    """Raised when a stationary solve is requested for an unstable drift."""


@dataclass(frozen=True)
class CorrelationVector:
    """Five correlators anchored at one covariance row.

    row     -- anchor label, "nu*" (atomic) or "z*" (field)
    entries -- complex values ordered like the basis (z, z*, nu, nu*, mu)
    tau_bar / s_bar -- where the vector lives (time or Laplace domain)
    """

    row: str
    entries: np.ndarray
    tau_bar: float | None = None
    s_bar: complex | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (5,):
            raise ValueError("correlation vectors have 5 components")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)
        if self.row not in ("nu*", "z*"):
            raise ValueError(f"unsupported anchor row {self.row!r}")
        if self.tau_bar == 0.0 and np.max(np.abs(e.imag)) > TOL.imag_truncate:
            raise ValueError("equal-time correlators must be real")

    def __getitem__(self, name):
        return self.entries[IDX[name]]


_TRI = [(i, j) for i in range(5) for j in range(i, 5)]
_TRI_INDEX = {ij: k for k, ij in enumerate(_TRI)}
_TRI_PAIRS = tuple(np.array(_TRI).T)
# Every term of the 15-unknown operator C -> J C + C J^T on symmetric C, as
# (row, column, i, k): J[i, k] is added at M[row, column]. No entry of M
# gets more than two terms, so the sum is exact in any order.
_LYAPUNOV_TERMS = np.array([
    term
    for (i, j), row in _TRI_INDEX.items() for k in range(5)
    for term in ((row, _TRI_INDEX[(min(k, j), max(k, j))], i, k),
                 (row, _TRI_INDEX[(min(i, k), max(i, k))], j, k))
]).T


def solve_lyapunov(J: FluctuationMatrix, D: FluctuationMatrix) -> FluctuationMatrix:
    """Stationary covariance from J C + C J^T = -D.

    Requires a stable drift. Solved via the 15-unknown symmetric system;
    the residual is verified against TOL.lyapunov_residual_rel.
    """
    if J.kind != "jacobian" or D.kind != "diffusion":
        raise ValueError("solve_lyapunov expects (jacobian, diffusion)")
    if not is_stable(J):
        raise UnstableDriftError("Lyapunov solve requires stable drift")
    A = J.entries
    B = D.entries
    rows, cols, i, k = _LYAPUNOV_TERMS
    M = np.zeros((15, 15))
    np.add.at(M, (rows, cols), A[i, k])
    rhs = -B[_TRI_PAIRS]
    try:
        x = solve_complex_linear(M, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"stationary covariance system is singular: {exc}",
            condition=exc.condition,
        ) from exc
    C = np.zeros((5, 5))
    C[_TRI_PAIRS] = C[_TRI_PAIRS[::-1]] = x.real
    resid = np.max(np.abs(A @ C + C @ A.T + B))
    bound = TOL.lyapunov_residual_rel * max(1.0, np.max(np.abs(B)))
    if resid > bound:
        raise ConditioningError(
            f"stationary covariance residual {resid:.3e} exceeds {bound:.3e}"
        )
    return FluctuationMatrix(C, kind="covariance")


def linearize(params, X):
    """(J, C): the full drift at amplitude X and its stationary covariance.
    An unstable point raises UnstableDriftError naming X."""
    J = build_jacobian(params, X, regime="full")
    try:
        return J, solve_lyapunov(J, build_diffusion(X))
    except UnstableDriftError:
        raise UnstableDriftError(f"operating point X={X:g} is not stable") from None


def covariance_row(C: FluctuationMatrix, row: str) -> CorrelationVector:
    """Extract an anchor row of the covariance as an equal-time vector."""
    if C.kind != "covariance":
        raise ValueError("expected a covariance matrix")
    return CorrelationVector(row=row, entries=C.entries[IDX[row]].astype(complex),
                             tau_bar=0.0)


def weak_covariance_row(params, X) -> CorrelationVector:
    """Equal-time atomic correlation row in the weak-excitation limit.

    Closed forms valid for X << X_minus (guard warns otherwise):

        c_z   =  X^4 * 2C xi (2 + xi + 2C) / ((1+2C)^2 (xi+1)^2)
        c_z*  = -X^2 * 2C xi / ((1+2C)(xi+1))
        c_nu  =  X^4 * [2C(2 + xi + 2C) + (xi+1)^2] / ((1+2C)^2 (xi+1)^2)
        c_nu* = -X^2 * (1 + xi + 2C) / ((xi+1)(1+2C))
        c_mu  =  X^3 * (2C + xi + 1) / ((1+2C)(xi+1))

    The anomalous entry carries (1 + xi + 2C): that is the coefficient the
    stationary covariance actually produces, and the one every Laplace and
    time-domain closed form in this package is consistent with.
    """
    if not 0 <= X < np.inf:
        raise ValueError("X must be finite and nonnegative")
    if msg := regime_violation(params.C, X, "weak"):
        warnings.warn(msg, RegimeWarning, stacklevel=2)
    two_C, xi = 2.0 * params.C, params.xi
    d1 = (1.0 + two_C) * (xi + 1.0)
    d2 = d1 * d1
    entries = np.array([
        X**4 * xi * two_C * (2.0 + xi + two_C) / d2,
        -(X**2) * xi * two_C / d1,
        X**4 * (two_C * (2.0 + xi + two_C) + (xi + 1.0) ** 2) / d2,
        -(X**2) * (1.0 + xi + two_C) / d1,
        X**3 * (two_C + xi + 1.0) / d1,
    ], dtype=complex)
    return CorrelationVector(row="nu*", entries=entries, tau_bar=0.0)


def strong_covariance_closed(params, X):
    """Equal-time field and atomic rows in the strong-excitation limit.

    Returns (z_star_row, nu_star_row). The field row uses the saturation
    factor K(X, xi); the atomic row is (., ., 1, 0, 0) with the two field
    components filled by covariance symmetry with the field row.
    """
    if not 0 < X < np.inf:
        raise ValueError("X must be finite and positive")
    if msg := regime_violation(params.C, X, "strong"):
        warnings.warn(msg, RegimeWarning, stacklevel=2)
    two_C, xi = 2.0 * params.C, params.xi
    K = saturation_factor(X, xi)
    f = xi / (xi + 1.0)
    z_row = np.array([
        two_C * two_C * f * K,
        two_C * two_C * f * (K - 1.0),
        two_C * f * K,
        two_C * f * (K - 1.0),
        0.0,
    ], dtype=complex)
    nu_row = np.array([
        two_C * f * K,          # = C^{z* nu} by symmetry
        two_C * f * (K - 1.0),  # = C^{z* nu*} by symmetry
        1.0,
        0.0,
        0.0,
    ], dtype=complex)
    return (
        CorrelationVector(row="z*", entries=z_row, tau_bar=0.0),
        CorrelationVector(row="nu*", entries=nu_row, tau_bar=0.0),
    )


def checked_delays(tau_bar):
    """tau_bar as floats; g2 is even in the delay, so a negative delay is a
    caller error, not exp(J tau), and so is a NaN or infinite one."""
    t = np.asarray(tau_bar, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("tau_bar must be finite and nonnegative")
    if np.any(t < 0):
        raise ValueError("tau_bar must be nonnegative")
    return t


def evolve_correlation_vector(J: FluctuationMatrix, c0: CorrelationVector,
                              tau_bar) -> CorrelationVector:
    """Propagate an equal-time row to a finite delay tau_bar >= 0: exp(J tau_bar) c0."""
    if J.kind != "jacobian":
        raise ValueError("expected a jacobian")
    t = float(checked_delays(tau_bar))
    if t == 0.0:
        return c0
    entries = propagate(J.entries, [t], c0.entries)[0]
    return CorrelationVector(row=c0.row, entries=entries, tau_bar=t)


# Frequencies per stacked solve: large enough to amortize numpy's per-call
# overhead, small enough that the (block, 5, 5) temporaries of a long grid,
# such as the thousands of Gauss-Legendre nodes of one certified-area round,
# stay below a megabyte.
_RESOLVENT_BLOCK = 256


def _eigenbasis_bound(A, eig):
    """(kappa, r) with sigma_min(s I - A) >= min_k |s - w_k| / kappa - r.

    From eig = numerics.eigenbasis(A), A V = V diag(w) + R: then
    s I - A = V (s I - diag(w)) V^-1 - R V^-1, so kappa = cond_2(V) and
    r = ||R||_F / sigma_min(V), with R widened by the rounding of its own
    evaluation. None, proving nothing, when there is no basis or V is singular.
    """
    w, V, sv = eig
    if sv is None or not sv[-1] > 0:
        return None
    R = A @ V - V * w
    rounding = (A.shape[0] + 4) * np.finfo(float).eps * (
        np.abs(A) @ np.abs(V) + np.abs(V) * np.abs(w)
    )
    r = (np.linalg.norm(R) + np.linalg.norm(rounding)) / sv[-1]
    return sv[0] / sv[-1], r


def _uncertified(w, certificate, s, floor):
    """Indices of the points s whose singular-value floor the bound cannot clear.

    A point is certified when the eigenbasis lower bound on sigma_min(s I - J)
    exceeds twice its floor, the factor 2 covering rounding in the condition
    number and the gap.
    """
    if certificate is None:
        return np.arange(s.size)
    kappa, r = certificate
    lower = np.min(np.abs(w[None, :] - s[:, None]), axis=1) / kappa - r
    return np.flatnonzero(~(lower > 2.0 * floor))


def _resolve_block(J, w, certificate, b, s):
    """Solve (s_k I - J) x_k = b for one block of points s, as an (m, 5) array.

    Runs the checks of a point-by-point laplace_correlation_vector loop on the
    whole block at once: the pole gap against the drift eigenvalues w, then
    the singular-value test and residual bound of solve_complex_linear. The
    stacked SVD of the singular-value test runs only on the points the
    eigenbasis bound, the certificate, cannot clear (all of them when it is
    None); the verdict is the same. An error names the first point that fails, with the
    type that loop would raise.
    """
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(b))):
        raise ValueError("resolvent inputs contain NaN/Inf entries")
    gaps = np.min(np.abs(w[None, :] - s[:, None]), axis=1)
    A = s[:, None, None] * np.eye(5, dtype=complex) - J
    norm_A = np.abs(A).sum(axis=2).max(axis=1)
    floor = TOL.singular_rel * np.maximum(norm_A, 1e-300)
    unsure = _uncertified(w, certificate, s, floor)
    singular = np.zeros(s.size, dtype=bool)
    if unsure.size:
        sv_min = np.linalg.svd(A[unsure], compute_uv=False)[:, -1]
        singular[unsure] = sv_min <= floor[unsure]
    near_pole = gaps < TOL.resolvent_pole_gap
    bad = np.flatnonzero(near_pole | singular)
    m = bad[0] if bad.size else s.size
    x = np.linalg.solve(A[:m], b[:, None])[..., 0]
    resid = np.max(np.abs(A[:m] @ x[..., None] - b[:, None]), axis=(1, 2))
    bound = TOL.linear_residual_rel * (
        norm_A[:m] * np.max(np.abs(x), axis=1) + np.max(np.abs(b))
    )
    failed = np.flatnonzero(resid > np.maximum(bound, 1e-300))
    if failed.size:
        k = failed[0]
        cond = np.linalg.cond(A[k])
        raise ConditioningError(
            f"linear solve residual {resid[k]:.3e} exceeds bound {bound[k]:.3e} "
            f"at s_bar={s[k]:g} (condition ~ {cond:.3e})",
            condition=cond,
        )
    if bad.size:
        if near_pole[m]:
            raise ConditioningError(
                f"s_bar={s[m]:g} is within {gaps[m]:.3e} of a drift eigenvalue"
            )
        cond = np.linalg.cond(A[m])
        raise SingularMatrixError(
            f"resolvent at s_bar={s[m]:g} is numerically singular "
            f"(condition ~ {cond:.3e})",
            condition=cond,
        )
    return x


def resolvent(J: FluctuationMatrix, eig):
    """(c0, s_bar, comp) -> component comp of (s_bar I - J)^{-1} c0 at every
    point of s_bar, with the checks and errors of laplace_correlation_vector.

    eig = numerics.eigenbasis(J.entries) gives the pole gaps and, once, the
    eigenbasis bound. Points go in fixed blocks, keeping one component each.
    """
    w, cert = eig[0], _eigenbasis_bound(J.entries, eig)

    def component(c0, s_bar, comp):
        s = np.atleast_1d(np.asarray(s_bar, dtype=complex))
        k = IDX[comp]
        out = np.empty(s.size, dtype=complex)
        for start in range(0, s.size, _RESOLVENT_BLOCK):
            block = slice(start, start + _RESOLVENT_BLOCK)
            out[block] = _resolve_block(J.entries, w, cert, c0.entries, s[block])[:, k]
        return out

    return component


def laplace_correlation_vector(J: FluctuationMatrix, c0: CorrelationVector,
                               s_bar) -> CorrelationVector:
    """Laplace-domain row (s_bar I - J)^{-1} c0.

    Raises ConditioningError when s_bar sits within TOL.resolvent_pole_gap of
    a drift eigenvalue.
    """
    s = complex(s_bar)
    # one point: its SVD costs less than the eigenbasis bound that would spare it
    w = np.linalg.eigvals(J.entries)
    x = _resolve_block(J.entries, w, None, c0.entries, np.array([s]))[0]
    return CorrelationVector(row=c0.row, entries=x, s_bar=s)

"""Stationary covariance and two-time correlation vectors.

The stationary covariance C solves J C + C J^T = -D. It is solved as a
dense linear system in the 15 independent entries of the symmetric unknown;
the extra exchange symmetries (nine truly independent entries) are left to
emerge and are checked by the tests rather than imposed. No factorization of
the indefinite diffusion is ever attempted.

Two-time correlators anchored to one row r of the covariance form a
5-vector c(tau_bar) obeying dc/dtau_bar = J c, so

    c(tau_bar) = exp(J tau_bar) c(0),      c_hat(s_bar) = (s_bar I - J)^{-1} c(0),

with c(0) the r-th row of the stationary covariance. linearize returns the
LinearModel (J, C) of one operating point, whose resolve evaluates c_hat; it
keeps the last model it built, so the routes that read one point in turn
share one Lyapunov solve.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .lindyn import (
    IDX,
    FluctuationMatrix,
    build_diffusion,
    build_jacobian,
    is_stable,
    regime_violation,
    saturation_factor,
    warn_regime,
)
from .numerics import (
    TOL,
    ConditioningError,
    SingularMatrixError,
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
_UPPER = np.array([5 * i + j for i, j in _TRI])  # flat (i, j) of each unknown
# the unknowns x of a symmetric C give C.ravel() as x[_SYMMETRIC]
_SYMMETRIC = np.array([_TRI_INDEX[(min(i, j), max(i, j))] for i in range(5) for j in range(5)])
# The 15-unknown operator C -> J C + C J^T on symmetric C as one product,
# M = (_LYAPUNOV_OPERATOR @ J.ravel()).reshape(15, 15): each term adds J[i, k]
# at M[row, column]. No entry of M gets more than two terms (a diagonal one
# the same term twice, hence the entries 0, 1 and 2), so the product rounds
# as the term-by-term sum does.
_LYAPUNOV_OPERATOR = np.zeros((225, 25))
np.add.at(_LYAPUNOV_OPERATOR, tuple(np.array([
    term
    for (i, j), row in _TRI_INDEX.items() for k in range(5)
    for term in ((15 * row + _TRI_INDEX[(min(k, j), max(k, j))], 5 * i + k),
                 (15 * row + _TRI_INDEX[(min(i, k), max(i, k))], 5 * j + k))
]).T), 1.0)


def solve_lyapunov(J: FluctuationMatrix, D: FluctuationMatrix) -> FluctuationMatrix:
    """Stationary covariance from J C + C J^T = -D.

    Requires a stable drift. Solved via the 15-unknown symmetric system; the
    one guard is solve_complex_linear's residual bound, which for this system
    (inf-norm 2 ||J||_inf) is the backward-error bound
    max|J C + C J^T + D| <= TOL.linear_residual_rel (2 ||J||_inf max|C| + max|D|).
    """
    if J.kind != "jacobian" or D.kind != "diffusion":
        raise ValueError("solve_lyapunov expects (jacobian, diffusion)")
    if not is_stable(J):
        raise UnstableDriftError("Lyapunov solve requires stable drift")
    M = (_LYAPUNOV_OPERATOR @ J.entries.ravel()).reshape(15, 15)
    rhs = -D.entries.ravel()[_UPPER]
    try:
        x = solve_complex_linear(M, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"stationary covariance system is singular: {exc}",
            condition=exc.condition,
        ) from exc
    return FluctuationMatrix(x.real[_SYMMETRIC].reshape(5, 5), kind="covariance")


@dataclass(frozen=True)
class LinearModel:
    """One operating point's full drift J and stationary covariance C. The
    drift eigendecomposition eig is J.eig, built on first use and shared with
    every propagation of J; the resolvent's eigenbasis bound is built on first
    use, once."""

    J: FluctuationMatrix
    C: FluctuationMatrix

    @property
    def eig(self):
        return self.J.eig

    @cached_property
    def _certificate(self):
        return _eigenbasis_bound(self.J.entries, self.eig)

    def resolve(self, c0: CorrelationVector, s_bar, comp):
        """Component comp of (s_bar I - J)^{-1} c0 at every point of s_bar, with
        the checks and errors of laplace_correlation_vector, in fixed blocks."""
        s = np.atleast_1d(np.asarray(s_bar, dtype=complex))
        k = IDX[comp]
        out = np.empty(s.size, dtype=complex)
        for start in range(0, s.size, _RESOLVENT_BLOCK):
            block = slice(start, start + _RESOLVENT_BLOCK)
            out[block] = _resolve_block(self.J.entries, self.eig[0], self._certificate,
                                        c0.entries, s[block])[:, k]
        return out


def linearize(params, X) -> LinearModel:
    """The LinearModel at amplitude X: the full drift and its stationary
    covariance. An unstable point raises UnstableDriftError naming X.

    The last model built is kept: the next call at the same (C, xi, X)
    returns that object, so routes that read one operating point in turn share
    its Lyapunov solve and its drift eigenbasis. Errors are not kept, so a
    failing point fails on every call.
    """
    try:
        return _linear_model(float(params.C), float(params.xi), float(X))
    except UnstableDriftError:
        raise UnstableDriftError(f"operating point X={X:g} is not stable") from None


# The key is (C, xi, X) because J and D read nothing else of params; it must
# grow if build_jacobian or build_diffusion ever does. X = 0.0 and -0.0 share
# an entry: J differs there only in the signs of zeros, and C is 0 either way.
@lru_cache(maxsize=1)
def _linear_model(C, xi, X) -> LinearModel:
    J = build_jacobian(SimpleNamespace(C=C, xi=xi), X, regime="full")
    return LinearModel(J, solve_lyapunov(J, build_diffusion(X)))


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
    warn_regime(regime_violation(params.C, X, "weak"))
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
    warn_regime(regime_violation(params.C, X, "strong"))
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
    """Propagate an equal-time row to a finite delay tau_bar >= 0: exp(J tau_bar) c0.

    Every call on one J reads its one eigenbasis, J.eig."""
    if J.kind != "jacobian":
        raise ValueError("expected a jacobian")
    t = float(checked_delays(tau_bar))
    if t == 0.0:
        return c0
    entries = propagate(J.entries, [t], c0.entries, J.eig)[0]
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


def _resolve_block(J, w, certificate, b, s):
    """Solve (s_k I - J) x_k = b for one block of points s, as an (m, 5) array.

    numerics.solve_complex_linear checks the points before the first within
    TOL.resolvent_pole_gap of a drift eigenvalue w, then that point raises.
    The eigenbasis bound, the certificate (None proves nothing), gives it lower
    bounds on sigma_min(s I - J). An error names the first point that fails,
    with the type a point-by-point laplace_correlation_vector loop would raise.
    """
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(b))):
        raise ValueError("resolvent inputs contain NaN/Inf entries")
    gaps = np.min(np.abs(w[None, :] - s[:, None]), axis=1)
    near_pole = np.flatnonzero(gaps < TOL.resolvent_pole_gap)
    m = near_pole[0] if near_pole.size else s.size
    lower = None if certificate is None else gaps[:m] / certificate[0] - certificate[1]
    try:
        x = solve_complex_linear(s[:m, None, None] * np.eye(5, dtype=complex) - J, b, lower)
    except (SingularMatrixError, ConditioningError) as exc:
        raise type(exc)(f"resolvent at s_bar={s[exc.index]:g} fails: {exc}",
                        condition=exc.condition) from exc
    if m < s.size:
        raise ConditioningError(
            f"s_bar={s[m]:g} is within {gaps[m]:.3e} of a drift eigenvalue"
        )
    return x


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

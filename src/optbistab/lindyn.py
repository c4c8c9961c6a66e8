"""Linearized drift and diffusion of the fluctuations about a steady state.

Fluctuation basis, fixed everywhere in this package:

    (z, z*, nu, nu*, mu)

for the cavity field pair, the collective polarization pair, and the
inversion. Matrices are dimensionless: the drift (Jacobian) and the
diffusion are both expressed in units of gamma/2, so the stationary
covariance equation reads J C + C J^T = -D with no leftover scale.

Note on the diffusion sign pattern: the (nu, nu) and (nu*, nu*) entries are
both negative, -w with w = 2 X^2/(1+X^2). Equal signs on the pair are forced
by the exchange symmetry (z <-> z*, nu <-> nu*) of the problem -- the same
symmetry that reduces the fifteen covariance entries to nine independent
ones -- and the negative sign is what produces the anomalous-correlation
dominance (squeezing) on the lower branch. An indefinite diffusion is
expected here; downstream code must treat it linear-algebraically and never
attempt a factorization.

Every limit form reports an operating point outside its regime through
warn_regime, as a RegimeWarning note that never blocks the computation.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import TOL
from .steady_state import turning_points

BASIS = ("z", "z*", "nu", "nu*", "mu")
IDX = {name: k for k, name in enumerate(BASIS)}


class RegimeWarning(UserWarning):
    """Operating point is outside the regime a limit form was derived for."""


def warn_regime(*notes) -> tuple:
    """Issue each truthy note once as a RegimeWarning at the caller's caller;
    falsy notes are skipped. Returns the issued notes in order, for results
    that record them."""
    issued = tuple(filter(None, notes))
    for note in issued:
        warnings.warn(note, RegimeWarning, stacklevel=3)
    return issued


@dataclass(frozen=True)
class FluctuationMatrix:
    """5x5 real matrix in the fixed fluctuation basis."""

    entries: np.ndarray
    kind: str  # jacobian | diffusion | covariance

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (5, 5):
            raise ValueError("fluctuation matrices are 5x5")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)
        if self.kind not in ("jacobian", "diffusion", "covariance"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "covariance":
            if np.max(np.abs(e - e.T)) > 1e-10:
                raise ValueError("covariance must be symmetric to 1e-10")


@dataclass(frozen=True)
class WeakScales:
    """Derived spectral scales of the weak- and strong-excitation limits.

    lambda_plus/minus -- field-polarization relaxation eigenvalues (gamma/2
        units); their real part is exactly -(xi+1)/2.
    G_bar   -- scaled vacuum Rabi frequency sqrt(2 C xi - (xi-1)^2/4), stored
        complex so the overdamped case extends cos/sin continuously.
    A       -- the combination 2C(2 + xi + 2C) + (xi+1)^2.
    g_prime, gamma_prime, r -- laboratory-rate forms (vacuum Rabi frequency,
        enhanced atomic decay, effective impedance); None without raw rates.
    rho_plus/minus -- large-X relaxation scales -3/2 +- i sqrt(2) X.
    """

    lambda_plus: complex
    lambda_minus: complex
    G_bar: complex
    A: float
    g_prime: complex | None
    gamma_prime: float | None
    r: float | None
    rho_plus: complex
    rho_minus: complex


# Reference amplitudes below the bistability threshold (C <= 4), where the
# turning points do not exist: saturation, X = 1, for the weak side, and 10/3
# for the strong side, which puts its edge at X = 10. At these edges, for
# xi = 1 and C from 0.1 to 4, the weak row is off the stationary covariance
# row by at most 2.2% entrywise and the strong rows by at most 18% of their
# largest entry, no worse than at the C = 5 edges (2.7% and 19%).
_SUBTHRESHOLD_REFS = {"weak": ("X_sat", 1.0), "strong": ("X_ref", 10.0 / 3.0)}


def regime_violation(C, X, regime):
    """Why amplitude X lies outside a limit regime, or None if it does not.

    regime="weak" wants X << X_minus (X < TOL.weak_guard_frac * X_minus) and
    regime="strong" wants X >> X_plus (X > TOL.strong_guard_frac * X_plus).
    Without bistability (C <= 4) the references are X_sat = 1 and
    X_ref = 10/3 in their place. Without an amplitude (X None) there is
    nothing to violate.
    """
    if X is None:
        return None
    if C > 4.0:
        tp = turning_points(C)
        name, ref = ("X_minus", tp.X_minus) if regime == "weak" else ("X_plus", tp.X_plus)
    else:
        name, ref = _SUBTHRESHOLD_REFS[regime]
    if regime == "weak" and X >= TOL.weak_guard_frac * ref:
        return f"weak-excitation form at X={X:g}, not << {name}={ref:g}"
    if regime == "strong" and X <= TOL.strong_guard_frac * ref:
        return f"strong-excitation form at X={X:g}, not >> {name}={ref:g}"
    return None


def build_jacobian(params, X, regime="full") -> FluctuationMatrix:
    """Drift matrix of the linearized fluctuations at amplitude X.

    regime="full" keeps the saturation couplings 1/(1+X^2); "weak" replaces
    them by 1 (valid for X << X_minus); "strong" additionally removes the
    field-to-atom feedback so the atomic block decouples (X >> X_plus).
    Regime guards warn, never block.
    """
    if not 0 <= X < math.inf:
        raise ValueError("X must be finite and nonnegative")
    if regime not in ("full", "weak", "strong"):
        raise ValueError(f"unknown regime {regime!r}")
    warn_regime(regime != "full" and regime_violation(params.C, X, regime))
    two_C, xi = 2.0 * params.C, params.xi
    s = 1.0 / (1.0 + X * X) if regime == "full" else 1.0
    J = np.array([
        [-xi, 0.0, xi * two_C, 0.0, 0.0],
        [0.0, -xi, 0.0, xi * two_C, 0.0],
        [-s, 0.0, -1.0, 0.0, X],
        [0.0, -s, 0.0, -1.0, X],
        [X * s, X * s, -X, -X, -2.0],
    ])
    if regime == "strong":
        J[2, 0] = J[3, 1] = J[4, 0] = J[4, 1] = 0.0
    return FluctuationMatrix(J, kind="jacobian")


def build_diffusion(X) -> FluctuationMatrix:
    """Diffusion matrix at amplitude X: diag(0, 0, -w, -w, 4w).

    w = 2 X^2/(1+X^2). Indefinite by construction; see the module docstring
    for why both polarization entries carry the minus sign.
    """
    if not 0 <= X < math.inf:
        raise ValueError("X must be finite and nonnegative")
    w = 2.0 * X * X / (1.0 + X * X)
    return FluctuationMatrix(np.diag([0.0, 0.0, -w, -w, 4.0 * w]), kind="diffusion")


def weak_scales(params, X) -> WeakScales:
    """All derived spectral scales at amplitude X.

    The raw-rate fields (g_prime, gamma_prime, r) are None unless the
    parameters carry raw rates.
    """
    C, xi = params.C, params.xi
    two_C = 2.0 * C
    G_bar = cmath.sqrt(complex(xi * two_C - 0.25 * (xi - 1.0) ** 2))
    lam_p = -0.5 * (xi + 1.0) + 1j * G_bar
    lam_m = -0.5 * (xi + 1.0) - 1j * G_bar
    A = two_C * (2.0 + xi + two_C) + (xi + 1.0) ** 2
    g_prime = gamma_prime = r = None
    if params.has_rates:
        g, kappa, gamma = params.g, params.kappa, params.gamma
        g_prime = cmath.sqrt(complex(params.N * g * g - (0.5 * (kappa - 0.5 * gamma)) ** 2))
        gamma_prime = gamma * (1.0 + two_C)
        r = 0.5 * (kappa + 0.5 * gamma) * (kappa - 0.5 * gamma_prime) / (kappa + 0.5 * gamma_prime)
    return WeakScales(
        lambda_plus=lam_p, lambda_minus=lam_m, G_bar=G_bar, A=A,
        g_prime=g_prime, gamma_prime=gamma_prime, r=r,
        rho_plus=complex(-1.5, math.sqrt(2.0) * X),
        rho_minus=complex(-1.5, -math.sqrt(2.0) * X),
    )


def saturation_factor(X, xi):
    """K(X, xi) = [X^2+(xi+1)(xi+3)] / [2X^2+xi(xi+3)].

    Interpolates between 1 (xi >> X, field slaved to atoms) and 1/2
    (X >> xi, saturated emitters).
    """
    return (X * X + (xi + 1.0) * (xi + 3.0)) / (2.0 * X * X + xi * (xi + 3.0))


def is_stable(J: FluctuationMatrix) -> bool:
    """True iff every drift eigenvalue has real part < -1e-12."""
    if J.kind != "jacobian":
        raise ValueError("expected a jacobian")
    w = np.linalg.eigvals(J.entries.astype(complex))
    return bool(np.all(w.real < -TOL.stability_margin))

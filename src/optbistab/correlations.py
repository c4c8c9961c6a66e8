"""Second-order coherence, anomalous correlators and quadrature variances.

The normalized intensity correlation of the collective polarization is

    g2(tau_bar) = 1 + (2/N) p^2 [c_nu(tau_bar) + c_nu*(tau_bar)]
                      / (p^2 + c_nu(0)/N)^2

with p = X/(1+X^2) the steady polarization amplitude and c_* the atomic
correlation row; the quartic fluctuation term of order 1/N^2 is dropped and
Gaussian statistics kill the cubic one. Closed-form limits are evaluated
through complex exponentials in the oscillation frequency, so overdamped
operating points extend the cos/sin forms continuously to cosh/sinh.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    checked_delays,
    covariance_row,
    linearize,
    strong_covariance_closed,
    weak_covariance_row,
)
from .lindyn import RegimeWarning, regime_violation, warn_regime, weak_scales
from .numerics import propagate
from .params import params_meta
from .steady_state import steady_moments

# preconditions of each closed-form g2: the regime it warns outside ("weak",
# "strong" or None) and the input it requires beyond (C, xi, N): the amplitude
# "X", "raw rates" (laboratory-rate recast) or "xi = 1" (impedance matching)
_G2_PRECONDITIONS = {
    "atomic-weak": ("weak", None),
    "atomic-weak-recast": ("weak", "raw rates"),
    "forward-weak": ("weak", None),
    "single-atom-pure-state": ("weak", None),
    "side-large-C": (None, "X"),
    "atomic-impedance": (None, "xi = 1"),
    "forward-impedance": (None, "xi = 1"),
    "atomic-strong": ("strong", "X"),
}
G2_VARIANTS = tuple(_G2_PRECONDITIONS)
# the g2 variants that read X: the numeric one and the closed forms requiring it
G2_X_VARIANTS = ("numeric",) + tuple(v for v, (_, n) in _G2_PRECONDITIONS.items() if n == "X")

_NEGATIVE_G2 = "negative g2 values: linearized theory invalid at these parameters"


@dataclass(frozen=True)
class CorrelationSeries:
    """g2(tau_bar) or a correlator sampled on a delay grid."""

    tau_bar: np.ndarray
    values: np.ndarray
    variant: str
    params: dict = field(default_factory=dict)
    warnings: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.tau_bar, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape:
            raise ValueError("tau_bar and values must have the same shape")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "tau_bar", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class QuadratureVariances:
    """Steady-state variances of the two polarization quadratures."""

    var_J0: float
    var_Jpi2: float
    squeezed: bool
    ratio: float  # |anomalous| / normal equal-time atomic correlation
    method: str   # weak-closed | lyapunov


def _sin_over(G, t):
    """sin(G t)/G, continuous through G -> 0 and complex (overdamped) G."""
    Gt = G * t
    safe_G = G if G != 0 else 1.0
    return np.where(np.abs(Gt) < 1e-8, t * (1.0 - Gt * Gt / 6.0), np.sin(Gt) / safe_G)


def _real_checked(values):
    values = np.asarray(values)
    if np.max(np.abs(values.imag)) > 1e-9 * max(1.0, np.max(np.abs(values.real))):
        raise ValueError("correlation evaluated to a non-real value")
    return values.real


def anomalous_correlator_time(params, X, tau_bar):
    """Weak-limit anomalous atomic correlator at delay tau_bar.

    Decaying oscillation at the vacuum Rabi frequency under the envelope
    exp(-(xi+1) tau_bar / 2); equals the equal-time anomalous entry of the
    weak covariance row at tau_bar = 0. Delays must be finite and
    nonnegative, and X finite.
    """
    if not np.isfinite(X):
        raise ValueError("X must be finite")
    t = checked_delays(tau_bar)
    warn_regime(regime_violation(params.C, X, "weak"))
    two_C, xi = 2.0 * params.C, params.xi
    G = weak_scales(params, X).G_bar
    pre = -X * X / ((xi + 1.0) * (1.0 + two_C))
    env = np.exp(-0.5 * (xi + 1.0) * t)
    osc = (1.0 + xi + two_C) * np.cos(G * t) + \
        0.5 * (xi + 1.0) * (xi - 1.0 - two_C) * _sin_over(G, t)
    out = _real_checked(pre * env * osc)
    return float(out) if np.isscalar(tau_bar) else out


def _bracket(G, t, sin_coeff):
    """cos(G t) + sin_coeff * sin(G t)/G, complex-safe."""
    return np.cos(G * t) + sin_coeff * _sin_over(G, t)


def g2_closed_form(variant, params, X=None, tau_bar_grid=None) -> CorrelationSeries:
    """Closed-form second-order correlation on a delay grid.

    variant is one of G2_VARIANTS; _G2_PRECONDITIONS names the regime each
    warns outside and the input each requires. Weak variants warn outside
    X << X_minus, the strong one outside X >> X_plus and unless X^2 << N.
    Delays must be finite and nonnegative, and X, where given, finite.
    """
    if variant not in G2_VARIANTS:
        raise ValueError(f"unknown g2 variant {variant!r}")
    if X is not None and not np.isfinite(X):
        raise ValueError("X must be finite")
    if params.N < 1:
        raise ValueError("N must be >= 1")
    t = checked_delays(tau_bar_grid)
    two_C, xi, N = 2.0 * params.C, params.xi, params.N
    regime, needs = _G2_PRECONDITIONS[variant]
    if needs == "xi = 1" and abs(xi - 1.0) > 1e-12:
        raise ValueError("impedance-matched forms require xi = 1")
    notes = warn_regime(regime and regime_violation(params.C, X, regime))
    if needs == "X" and X is None:
        raise ValueError(f"{variant} requires X")
    if needs == "raw rates" and not params.has_rates:
        raise ValueError("the laboratory-rate form requires raw rates")

    sc = weak_scales(params, X if X is not None else 0.0)
    G = sc.G_bar
    env_weak = np.exp(-0.5 * (xi + 1.0) * t)
    r_bar_over = 0.5 * (xi + 1.0) * (xi - 1.0 - two_C) / (1.0 + xi + two_C)

    if variant == "atomic-weak":
        pre = 2.0 * (1.0 + xi + two_C) / (N * (xi + 1.0) * (1.0 + two_C))
        vals = 1.0 - pre * env_weak * _bracket(G, t, r_bar_over)
    elif variant == "atomic-weak-recast":
        kappa, gamma = params.kappa, params.gamma
        tau = 2.0 * t / gamma
        pre = 2.0 * (kappa + 0.5 * sc.gamma_prime) / (
            N * (kappa + 0.5 * gamma) * (1.0 + two_C))
        env = np.exp(-0.5 * (kappa + 0.5 * gamma) * tau)
        vals = 1.0 - pre * env * (np.cos(sc.g_prime * tau)
                                  + sc.r * _sin_over(sc.g_prime, tau))
    elif variant == "forward-weak":
        pre = (2.0 / N) * (xi / (xi + 1.0)) * (two_C * two_C / (1.0 + two_C))
        vals = 1.0 - pre * env_weak * _bracket(G, t, 0.5 * (xi + 1.0))
    elif variant == "single-atom-pure-state":
        vals = (1.0 - env_weak * _bracket(G, t, r_bar_over)) ** 2
    elif variant == "side-large-C":
        vals = 1.0 + X * X * (2.0 * np.exp(-t) - np.exp(-2.0 * t))
    elif variant == "atomic-impedance":
        root = np.sqrt(two_C)
        vals = 1.0 - (np.exp(-t) / (N * (1.0 + two_C))) * (
            2.0 * (1.0 + params.C) * np.cos(root * t) - root * np.sin(root * t))
    elif variant == "forward-impedance":
        root = np.sqrt(two_C)
        vals = 1.0 - (two_C * two_C / (N * (1.0 + two_C))) * np.exp(-t) * (
            np.cos(root * t) + np.sin(root * t) / root)
    else:  # atomic-strong
        notes += warn_regime(X * X >= N and f"linearized strong-excitation form "
                             f"wants X^2 << N (X^2={X*X:g}, N={N})")
        pre = 2.0 * N * X * X / (N + X * X) ** 2
        om = np.sqrt(2.0) * X
        vals = 1.0 + pre * np.exp(-1.5 * t) * (
            np.cos(om * t) + _sin_over(om, t) * 0.5 / np.sqrt(2.0))
    vals = _real_checked(vals)
    notes += warn_regime(np.any(vals < 0) and _NEGATIVE_G2)
    return CorrelationSeries(
        tau_bar=t, values=vals, variant=variant,
        params=params_meta(params, X=X), warnings=notes,
    )


def g2_numeric(params, X, tau_bar_grid) -> CorrelationSeries:
    """Intensity correlation from the stationary covariance and propagator.

    Valid at any stable operating point. The atomic correlation row c0 is
    propagated through the full drift to every delay at once, by one
    `numerics.propagate` call on the model's drift eigenbasis, on any grid,
    uniform or not; the value at tau_bar = 0 is the equal-time formula on c0
    itself. The polarization amplitude is p = X/(1+X^2) from the steady
    solution. Negative values are flagged, never clamped: they diagnose the
    breakdown of the linearized treatment. Delays must be finite and
    nonnegative.
    """
    if X == 0:
        raise ValueError("coherent amplitude vanishes at X = 0")
    t = checked_delays(tau_bar_grid)
    model = linearize(params, X)
    c0 = covariance_row(model.C, "nu*").entries
    p = abs(steady_moments(X)[1])
    norm = (p * p + c0[2].real / params.N) ** 2
    c = propagate(model.J.entries, t, c0, model.eig)
    vals = 1.0 + (2.0 / params.N) * p * p * (c[:, 2] + c[:, 3]).real / norm
    return CorrelationSeries(
        tau_bar=t, values=vals, variant="numeric", params=params_meta(params, X=X),
        warnings=warn_regime(np.any(vals < 0) and _NEGATIVE_G2),
    )


def quadrature_variances(params, X) -> QuadratureVariances:
    """Steady-state quadrature variances of the collective polarization.

    var(J_0)    = [c_nu(0) - c_nu*(0)]/2 - <J_z>/4
    var(J_pi/2) = [c_nu(0) + c_nu*(0)]/2 - <J_z>/4

    Squeezing holds when c_nu(0) + c_nu*(0) < 0. The closed weak-limit row
    is used when the weak guard passes (with <J_z> = -1); otherwise the
    stationary covariance supplies the entries. The ratio field is the
    nonclassicality diagnostic |c_nu*(0)| / c_nu(0), classically bounded
    by 1.
    """
    if X == 0:
        return QuadratureVariances(0.25, 0.25, False, 0.0, "weak-closed")
    if regime_violation(params.C, X, "weak") is None:
        row = weak_covariance_row(params, X)  # silent: its guard is this test
        jz = -1.0
        method = "weak-closed"
    else:
        row = covariance_row(linearize(params, X).C, "nu*")
        jz = steady_moments(X)[3]
        method = "lyapunov"
    c_nu, c_nu_star = row["nu"].real, row["nu*"].real
    var0 = 0.5 * (c_nu - c_nu_star) - 0.25 * jz
    var1 = 0.5 * (c_nu + c_nu_star) - 0.25 * jz
    return QuadratureVariances(
        var_J0=var0, var_Jpi2=var1,
        squeezed=bool(c_nu + c_nu_star < 0),
        ratio=abs(c_nu_star) / c_nu if c_nu != 0 else np.inf,
        method=method,
    )


def strong_field_ratio(params, X):
    """|anomalous|/normal equal-time field correlation on the upper branch.

    Approaches 1 from below as X grows: the classical bound with no
    squeezing left in the field fluctuations.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        z_row, _ = strong_covariance_closed(params, X)
    return abs(z_row["z*"].real) / z_row["z"].real

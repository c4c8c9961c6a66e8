"""Incoherent spectra of the atomic and forward-scattered fluctuations.

All spectra are functions of the dimensionless frequency offset
y = 2(omega - omega0)/gamma. The numeric route evaluates

    T(y) = Re{ [(-i y I - J)^{-1} c0]_r' } / (pi * c0_r')

with c0 the anchor row of the stationary covariance and r' its conjugate
partner (nu for the atomic spectrum, z for the forward one); unit area over
y is automatic for a decaying correlation. The closed-form variants evaluate
the limit expressions exactly; they are verified to be unit-area where the
algebra says they are, and never re-scaled. The good-cavity variant is the
leading order of the weak-closed expression as xi -> 0 at fixed y/xi, not a
verbatim published form, so it converges to the weak spectrum on its
validity window |y| <= 2 xi with an O(xi) error.
"""

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .covariance import CorrelationVector, covariance_row, linearize, resolvent
from .lindyn import FluctuationMatrix, RegimeWarning, regime_violation, weak_scales
from .numerics import TOL, ConditioningError, eigenbasis, quadrature
from .params import params_meta

CLOSED_FORM_VARIANTS = (
    "weak-closed",
    "bad-cavity",
    "good-cavity",
    "strong-coupling",
    "upper-branch",
    "upper-forward-lorentzian",
    "upper-forward-bad-cavity",
)

# variants whose algebra carries exact unit area (good-cavity is a local
# approximation with no finite area; the upper-forward bad-cavity form drops
# O(1/xi) prefactors and carries total weight 2 as published)
UNIT_AREA_VARIANTS = (
    "weak-closed",
    "bad-cavity",
    "strong-coupling",
    "upper-branch",
    "upper-forward-lorentzian",
)

# asymptotic tail exponent of each variant, used for certified normalization
TAIL_POWER = {
    "weak-closed": 4,
    "bad-cavity": 4,
    "strong-coupling": 4,
    "upper-branch": 2,
    "upper-forward-lorentzian": 2,
    "upper-forward-bad-cavity": 2,
    "numeric-atomic": 4,
    "numeric-forward": 2,
}


@dataclass(frozen=True)
class SpectrumSeries:
    """Sampled spectral density with provenance metadata."""

    y: np.ndarray
    values: np.ndarray
    kind: str                      # atomic | forward | squeezing
    method: str
    params: dict = field(default_factory=dict)
    validity_window: tuple | None = None
    warnings: tuple = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if y.shape != v.shape:
            raise ValueError("y and values must have the same shape")
        y.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# closed-form limit expressions
# ---------------------------------------------------------------------------

def _weak_closed(y, C, xi):
    two_C = 2.0 * C
    A = two_C * (2.0 + xi + two_C) + (xi + 1.0) ** 2
    den = (xi - 1j * y) * (1.0 - 1j * y) + xi * two_C
    t1 = (xi * (xi + 1.0) ** 2 - 1j * y * A) / (A * den)
    t2 = ((xi + 1.0) * (1.0 + two_C) * (xi - 1j * y)
          * ((xi - 1j * y) * (xi + 1.0) - 1j * two_C * y)) / (A * den * den)
    return (t1 + t2).real / np.pi


def _bad_cavity(y, C):
    a = 1.0 + 2.0 * C
    return (2.0 * a**3 / (a * a + y * y) ** 2) / np.pi


def _good_cavity(y, C, xi):
    # leading order of _weak_closed as xi -> 0 at fixed u = y/xi
    u2 = (y / xi) ** 2
    b = 1.0 + 2.0 * C
    return (2.0 / np.pi) * (1.0 + u2) * (b + u2) / (b * b + u2) ** 2


def _strong_coupling(y, C, xi):
    b = 0.5 * (xi + 1.0)
    R = np.sqrt(xi * 2.0 * C)
    return (b**3 / (b * b + (y + R) ** 2) ** 2
            + b**3 / (b * b + (y - R) ** 2) ** 2) / np.pi


def _upper_branch(y, X):
    a = 1.0 - 1j * y
    b = 2.0 - 1j * y
    return ((X * X + a * b) / (a * (2.0 * X * X + a * b))).real / np.pi


def _upper_forward_lorentzian(y, xi):
    # direct complex quotient, so xi = 1 is not a special case
    return ((1.0 + xi - 1j * y) / ((xi - 1j * y) * (1.0 - 1j * y))).real / np.pi


def _upper_forward_bad_cavity(y, X, xi):
    a = 1.0 - 1j * y
    b = 2.0 - 1j * y
    t = 2.0 / (xi - 1j * y) + xi * (2.0 * X * X + 2.0 * a * b) / (
        (2.0 * X * X + a * b) * a * (xi - 1j * y))
    return t.real / np.pi


def _closed_form_values(variant, y, params, X):
    if variant == "weak-closed":
        return _weak_closed(y, params.C, params.xi)
    if variant == "bad-cavity":
        return _bad_cavity(y, params.C)
    if variant == "good-cavity":
        return _good_cavity(y, params.C, params.xi)
    if variant == "strong-coupling":
        return _strong_coupling(y, params.C, params.xi)
    if variant == "upper-branch":
        return _upper_branch(y, X)
    if variant == "upper-forward-lorentzian":
        return _upper_forward_lorentzian(y, params.xi)
    if variant == "upper-forward-bad-cavity":
        return _upper_forward_bad_cavity(y, X, params.xi)
    raise ValueError(f"unknown closed-form variant {variant!r}")


def _closed_form_guards(variant, params, X):
    """Regime guards; warnings only, never preconditions of the algebra."""
    msgs = []
    if variant == "bad-cavity":
        if params.xi <= 1.0 or params.xi <= 2.0 * params.C:
            msgs.append("bad-cavity form wants xi >> 1 and xi >> 2C")
    elif variant == "good-cavity":
        if params.xi >= 1.0 or params.xi >= 2.0 * params.C:
            msgs.append("good-cavity form wants xi << 1 and xi << 2C")
    elif variant == "strong-coupling":
        if (params.xi + 1.0) >= 2.0 * np.sqrt(params.xi * 2.0 * params.C):
            msgs.append("strong-coupling form wants (xi+1) << 2 sqrt(2 C xi)")
    elif variant in ("upper-branch", "upper-forward-lorentzian",
                     "upper-forward-bad-cavity"):
        if params is not None and (msg := regime_violation(params.C, X, "strong")):
            msgs.append(msg)
        if variant == "upper-forward-lorentzian" and X is not None and X <= params.xi:
            msgs.append("Lorentzian forward form wants X >> xi")
        if variant == "upper-forward-bad-cavity" and X is not None and params.xi <= X:
            msgs.append("bad-cavity forward form wants xi >> X")
    for m in msgs:
        warnings.warn(m, RegimeWarning, stacklevel=3)
    return tuple(msgs)


def _require_inputs(variant, params, X):
    """Reject a call that lacks the params or the X its variant reads."""
    if params is None and variant != "upper-branch":
        raise ValueError(f"variant {variant!r} requires params")
    if X is None and variant in ("upper-branch", "upper-forward-bad-cavity",
                                 "numeric-atomic", "numeric-forward"):
        raise ValueError(f"variant {variant!r} requires X")


def spectrum_closed_form(variant, params=None, X=None, y_grid=None) -> SpectrumSeries:
    """Closed-form limit spectrum on a frequency grid.

    variant is one of CLOSED_FORM_VARIANTS. Weak-limit variants need only
    (C, xi) through `params`; the upper-branch variants need the amplitude X
    (except the Lorentzian, which is X-independent). Regime guards warn and
    are recorded on the series; the good-cavity variant carries the validity
    window |y| <= 2 xi as metadata.
    """
    if variant not in CLOSED_FORM_VARIANTS:
        raise ValueError(f"unknown closed-form variant {variant!r}")
    if y_grid is None:
        raise ValueError("y_grid is required")
    y = np.asarray(y_grid, dtype=float)
    _require_inputs(variant, params, X)
    warn_msgs = _closed_form_guards(variant, params, X)
    values = _closed_form_values(variant, y, params, X)
    window = None
    if variant == "good-cavity":
        window = (-2.0 * params.xi, 2.0 * params.xi)
    kind = "forward" if "forward" in variant else "atomic"
    return SpectrumSeries(
        y=y, values=values, kind=kind, method=variant,
        params=params_meta(params, X=X), validity_window=window,
        warnings=warn_msgs,
    )


# ---------------------------------------------------------------------------
# numeric resolvent spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolventAnchor:
    """The model a numeric spectrum resolves at one operating point: the drift
    J, its one eigendecomposition eig = numerics.eigenbasis(J.entries), the
    anchor row c0 of the stationary covariance, the component comp read, the
    incoherent weight norm = Re c0[comp] and resolve = resolvent(J, eig)."""

    J: FluctuationMatrix
    eig: tuple
    c0: CorrelationVector
    comp: str
    norm: float
    resolve: Callable

    def values(self, y):
        """T(y) = Re{[(-i y I - J)^{-1} c0]_comp} / (pi * norm)."""
        return self.resolve(self.c0, -1j * y, self.comp).real / (np.pi * self.norm)


def resolvent_anchor(params, X, kind) -> ResolventAnchor:
    """Everything a numeric spectrum resolves, with its preconditions checked.

    kind="atomic" anchors the nu* row of the stationary covariance and reads
    the nu component; kind="forward" anchors z* and reads z. Requires X > 0
    (at X = 0 there is no incoherent component to normalize), a stable
    operating point and a positive incoherent weight.
    """
    if kind not in ("atomic", "forward"):
        raise ValueError(f"kind must be 'atomic' or 'forward', got {kind!r}")
    if X == 0:
        raise ValueError("no incoherent component at X = 0")
    J, Cinf = linearize(params, X)
    row, comp = ("nu*", "nu") if kind == "atomic" else ("z*", "z")
    c0 = covariance_row(Cinf, row)
    norm = c0[comp].real
    if norm <= 0:
        raise ValueError(f"incoherent weight {row}->{comp} is not positive")
    eig = eigenbasis(J.entries)
    return ResolventAnchor(J, eig, c0, comp, norm, resolvent(J, eig))


def spectrum_numeric(params, X, kind, y_grid, *, anchor=None) -> SpectrumSeries:
    """Spectrum from the stationary covariance and the drift resolvent.

    kind is "atomic" or "forward"; the anchor row, the component read and
    the preconditions on the operating point are those of resolvent_anchor,
    whose record a caller that has built it passes as anchor.
    """
    y = np.asarray(y_grid, dtype=float)
    if y.size == 0:
        raise ValueError("empty frequency grid")
    anchor = anchor or resolvent_anchor(params, X, kind)
    return SpectrumSeries(
        y=y, values=anchor.values(y), kind=kind, method="numeric-resolvent",
        params=params_meta(params, X=X),
    )


# ---------------------------------------------------------------------------
# weak-limit anomalous Laplace transforms and the squeezing spectrum
# ---------------------------------------------------------------------------

ANOMALOUS_KINDS = ("nu*z*", "nu*nu*", "nu*mu", "nu*nu")


def anomalous_laplace(which, params, X, s_bar):
    """Weak-limit Laplace-domain atomic correlators, evaluated exactly.

    which in {"nu*z*", "nu*nu*", "nu*mu", "nu*nu"}. Poles sit at the
    field-polarization eigenvalues; proximity below TOL.resolvent_pole_gap
    raises ConditioningError.
    """
    if which not in ANOMALOUS_KINDS:
        raise ValueError(f"unknown correlator {which!r}")
    two_C, xi = 2.0 * params.C, params.xi
    s = complex(s_bar)
    scales = weak_scales(params, X)
    if min(abs(s - scales.lambda_plus), abs(s - scales.lambda_minus)) < TOL.resolvent_pole_gap:
        raise ConditioningError(f"s_bar={s:g} lies on a correlation pole")
    den = (xi + s) * (1.0 + s) + xi * two_C
    d1 = (xi + 1.0) * (1.0 + two_C)
    if which == "nu*z*":
        return -(xi * two_C * X * X / d1) * (s + xi + 2.0 * (params.C + 1.0)) / den
    if which == "nu*nu*":
        return -(X * X / d1) * ((1.0 + xi + two_C) * s + xi * (xi + 1.0)) / den
    if which == "nu*mu":
        return X**3 * ((xi + s) * (xi + 1.0) + two_C * s) / (d1 * den)
    A = scales.A
    return (X**4 / d1) * (
        (A * s + xi * (xi + 1.0) ** 2) / (d1 * den)
        + (xi + s) * ((xi + s) * (xi + 1.0) + two_C * s) / (den * den)
    )


def squeezing_spectrum_atomic(params, X, y_grid) -> SpectrumSeries:
    """Source-field squeezing spectrum of the atomic polarization.

    The real part of the anomalous Laplace correlator on the imaginary axis;
    a signed quantity, so no unit-area normalization applies. Negative at
    line center on the weakly excited lower branch.
    """
    y = np.asarray(y_grid, dtype=float)
    if msg := regime_violation(params.C, X, "weak"):
        warnings.warn(msg, RegimeWarning, stacklevel=2)
    values = np.array(
        [anomalous_laplace("nu*nu*", params, X, -1j * yk).real for yk in y]
    )
    return SpectrumSeries(
        y=y, values=values, kind="squeezing", method="anomalous-laplace",
        params=params_meta(params, X=X),
    )


# ---------------------------------------------------------------------------
# certified normalization
# ---------------------------------------------------------------------------

# certified tail bound, and the number of y_max doublings allowed to reach it
_TAIL_TOL = 1e-3
_MAX_DOUBLINGS = 40


def _half_grid(core, y_max):
    """Nonnegative half of the certified-area grid: a dense core [0, core]
    and log-spaced tails out to y_max. Mirrored about 0 it gives a grid g
    with g == -g[::-1] exactly."""
    return np.concatenate([np.linspace(0.0, core, 20001),
                           np.geomspace(core, y_max, 4001)[1:]])


def certified_area(evaluate, feature_scale, tail_power):
    """Integrate an even spectrum with an adaptively certified tail bound.

    `evaluate` maps a frequency array to the values of a spectrum that is
    even in y, as every spectrum of a real drift and a real anchor row is;
    it is called on y >= 0 only, and the values are mirrored. The grid spans
    [-y_max, y_max] with a dense core around the features (width set by
    feature_scale) and log-spaced tails; y_max doubles until the analytic
    tail bound 2 * T(y_max) * y_max / (p - 1) for a |y|^-p tail certifies a
    residual below _TAIL_TOL within _MAX_DOUBLINGS doublings.

    Returns dict with area, tail_bound, y_max and the quadrature error.
    """
    if tail_power < 2:
        raise ValueError("tail certification needs a decaying spectrum")
    core = max(10.0 * feature_scale, 10.0)
    y_max = 8.0 * core
    for _ in range(_MAX_DOUBLINGS):
        edge = float(abs(evaluate(np.array([y_max]))[0]))
        tail = 2.0 * edge * y_max / (tail_power - 1.0)
        if tail < _TAIL_TOL:
            break
        y_max *= 2.0
    else:
        raise ConditioningError("tail bound failed to certify")
    half = _half_grid(core, y_max)
    vals = evaluate(half)
    quad = quadrature(np.concatenate([vals[:0:-1], vals]),
                      np.concatenate([-half[:0:-1], half]))
    return {
        "area": quad.value,
        "tail_bound": tail,
        "y_max": y_max,
        "quadrature_error": quad.error_estimate,
    }


def verify_unit_area(variant, params=None, X=None, *, anchor=None):
    """Certified unit-area check for a spectrum variant.

    Accepts a closed-form variant name together with its parameters, or
    "numeric-atomic"/"numeric-forward" (anchor: their resolvent_anchor record,
    if built). Returns the certified-area record; callers compare
    record["area"] + tail against 1.
    """
    if variant not in UNIT_AREA_VARIANTS + ("numeric-atomic", "numeric-forward"):
        raise ValueError(f"{variant!r} is not a unit-area variant")
    _require_inputs(variant, params, X)
    if variant.startswith("numeric-"):
        anchor = anchor or resolvent_anchor(params, X, variant.split("-", 1)[1])
        evaluate = anchor.values
        feature = max(1.0, np.max(np.abs(anchor.eig[0])))
    else:
        def evaluate(y):
            return _closed_form_values(variant, y, params, X)

        feature = 1.0
        if variant in ("weak-closed", "strong-coupling"):
            feature = max(1.0, np.sqrt(params.xi * 2.0 * params.C), params.xi)
        elif variant == "bad-cavity":
            feature = 1.0 + 2.0 * params.C
        elif variant == "upper-branch":
            feature = max(1.0, np.sqrt(2.0) * X)
        elif variant == "upper-forward-lorentzian":
            feature = max(1.0, params.xi)
    power = TAIL_POWER[variant]
    return certified_area(evaluate, feature, power)

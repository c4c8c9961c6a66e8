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

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .covariance import covariance_row, linearize
from .lindyn import regime_violation, warn_regime, weak_scales
from .numerics import TOL, ConditioningError
from .params import params_meta

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

def _weak_closed(y, p, X):
    two_C, xi = 2.0 * p.C, p.xi
    A = two_C * (2.0 + xi + two_C) + (xi + 1.0) ** 2
    den = (xi - 1j * y) * (1.0 - 1j * y) + xi * two_C
    t1 = (xi * (xi + 1.0) ** 2 - 1j * y * A) / (A * den)
    t2 = ((xi + 1.0) * (1.0 + two_C) * (xi - 1j * y)
          * ((xi - 1j * y) * (xi + 1.0) - 1j * two_C * y)) / (A * den * den)
    return (t1 + t2).real / np.pi


def _bad_cavity(y, p, X):
    a = 1.0 + 2.0 * p.C
    return (2.0 * a**3 / (a * a + y * y) ** 2) / np.pi


def _good_cavity(y, p, X):
    # leading order of _weak_closed as xi -> 0 at fixed u = y/xi
    u2 = (y / p.xi) ** 2
    b = 1.0 + 2.0 * p.C
    return (2.0 / np.pi) * (1.0 + u2) * (b + u2) / (b * b + u2) ** 2


def _strong_coupling(y, p, X):
    b = 0.5 * (p.xi + 1.0)
    R = np.sqrt(p.xi * 2.0 * p.C)
    return (b**3 / (b * b + (y + R) ** 2) ** 2
            + b**3 / (b * b + (y - R) ** 2) ** 2) / np.pi


def _upper_branch(y, p, X):
    a, b = 1.0 - 1j * y, 2.0 - 1j * y
    return ((X * X + a * b) / (a * (2.0 * X * X + a * b))).real / np.pi


def _upper_forward_lorentzian(y, p, X):
    # direct complex quotient, so xi = 1 is not a special case
    return ((1.0 + p.xi - 1j * y) / ((p.xi - 1j * y) * (1.0 - 1j * y))).real / np.pi


def _upper_forward_bad_cavity(y, p, X):
    a, b, xi = 1.0 - 1j * y, 2.0 - 1j * y, p.xi
    t = 2.0 / (xi - 1j * y) + xi * (2.0 * X * X + 2.0 * a * b) / (
        (2.0 * X * X + a * b) * a * (xi - 1j * y))
    return t.real / np.pi


def _quadratic_roots(b, c):
    """Roots of s^2 + b s + c for b > 0, without cancellation."""
    q = -0.5 * (b + np.sqrt(complex(b * b - 4.0 * c)))
    return [q, c / q]


@dataclass(frozen=True)
class ClosedForm:
    """One closed-form spectrum: values(y, params, X) = T(y), its kind
    ("atomic" or "forward"), the inputs it needs ("params", "X") and those
    only its guards read, which a call may leave out (optional). Each
    guard(params, X) returns the note of an operating point outside the
    form's regime and a falsy value inside it, as lindyn.regime_violation
    does. poles(params, X) are its denominator roots in s = -iy, set only
    where the algebra carries exact unit area; window(params) is the
    (lo, hi) range of y where the form holds, if any.
    """

    values: Callable
    kind: str
    needs: tuple = ("params",)
    optional: tuple = ()
    guards: tuple = ()
    poles: Callable | None = None
    window: Callable | None = None


_STRONG = lambda p, X: p is not None and regime_violation(p.C, X, "strong")

# The good-cavity form is a local approximation with no finite area, and the
# upper-forward bad-cavity form drops O(1/xi) prefactors and carries total
# weight 2 as published, so neither has poles to certify a unit area from.
CLOSED_FORMS = {
    "weak-closed": ClosedForm(
        _weak_closed, "atomic",
        poles=lambda p, X: _quadratic_roots(1.0 + p.xi, p.xi * (1.0 + 2.0 * p.C))),
    "bad-cavity": ClosedForm(
        _bad_cavity, "atomic",
        guards=(lambda p, X: (p.xi <= 1.0 or p.xi <= 2.0 * p.C)
                and "bad-cavity form wants xi >> 1 and xi >> 2C",),
        poles=lambda p, X: [-(1.0 + 2.0 * p.C)]),
    "good-cavity": ClosedForm(
        _good_cavity, "atomic",
        guards=(lambda p, X: (p.xi >= 1.0 or p.xi >= 2.0 * p.C)
                and "good-cavity form wants xi << 1 and xi << 2C",),
        window=lambda p: (-2.0 * p.xi, 2.0 * p.xi)),
    "strong-coupling": ClosedForm(
        _strong_coupling, "atomic",
        guards=(lambda p, X: (p.xi + 1.0) >= 2.0 * np.sqrt(p.xi * 2.0 * p.C)
                and "strong-coupling form wants (xi+1) << 2 sqrt(2 C xi)",),
        poles=lambda p, X: (-0.5 * (p.xi + 1.0)
                            + 1j * np.sqrt(2.0 * p.C * p.xi) * np.array([1.0, -1.0]))),
    "upper-branch": ClosedForm(  # its shape depends on X alone
        _upper_branch, "atomic", needs=("X",), guards=(_STRONG,),
        poles=lambda p, X: [-1.0, *_quadratic_roots(3.0, 2.0 + 2.0 * X * X)]),
    "upper-forward-lorentzian": ClosedForm(
        _upper_forward_lorentzian, "forward", optional=("X",),
        guards=(_STRONG, lambda p, X: X is not None and X <= p.xi
                and "Lorentzian forward form wants X >> xi"),
        poles=lambda p, X: [-p.xi, -1.0]),
    "upper-forward-bad-cavity": ClosedForm(
        _upper_forward_bad_cavity, "forward", needs=("params", "X"),
        guards=(_STRONG, lambda p, X: p.xi <= X and "bad-cavity forward form wants xi >> X")),
}

# views of the table by variant name
CLOSED_FORM_VARIANTS = tuple(CLOSED_FORMS)
UNIT_AREA_VARIANTS = tuple(v for v, form in CLOSED_FORMS.items() if form.poles)


def _require_inputs(variant, params, X):
    """Reject a call that lacks the params or the X its variant reads, or
    whose X is negative, NaN or infinite. A numeric variant reads both."""
    inputs = {"params": params, "X": X}
    for name in CLOSED_FORMS[variant].needs if variant in CLOSED_FORMS else inputs:
        if inputs[name] is None:
            raise ValueError(f"variant {variant!r} requires {name}")
    if X is not None and not 0 <= X < np.inf:
        raise ValueError("X must be finite and nonnegative")


def spectrum_closed_form(variant, params=None, X=None, y_grid=None) -> SpectrumSeries:
    """Closed-form limit spectrum on a frequency grid.

    variant is a key of CLOSED_FORMS, whose entry names the inputs the form
    reads: (C, xi) through `params`, the amplitude X, or both. Regime guards
    warn and are recorded on the series; a form with a validity window (the
    good-cavity one, |y| <= 2 xi) carries it as metadata.
    """
    if variant not in CLOSED_FORMS:
        raise ValueError(f"unknown closed-form variant {variant!r}")
    if y_grid is None:
        raise ValueError("y_grid is required")
    y = np.asarray(y_grid, dtype=float)
    _require_inputs(variant, params, X)
    form = CLOSED_FORMS[variant]
    # regime guards warn, never preconditions of the algebra
    notes = warn_regime(*(guard(params, X) for guard in form.guards))
    return SpectrumSeries(
        y=y, values=form.values(y, params, X), kind=form.kind, method=variant,
        params=params_meta(params, X=X), warnings=notes,
        validity_window=form.window(params) if form.window else None,
    )


# ---------------------------------------------------------------------------
# numeric resolvent spectrum
# ---------------------------------------------------------------------------

def incoherent_anchor(model, X, kind):
    """(c0, comp, norm) of a numeric spectrum at the model's operating point.

    kind="atomic" anchors the nu* row c0 of the stationary covariance and
    reads the nu component; kind="forward" anchors z* and reads z. norm =
    Re c0[comp] is the incoherent weight. Requires X > 0 (at X = 0 there is
    no incoherent component to normalize) and a positive weight.
    """
    if kind not in ("atomic", "forward"):
        raise ValueError(f"kind must be 'atomic' or 'forward', got {kind!r}")
    if X == 0:
        raise ValueError("no incoherent component at X = 0")
    row, comp = ("nu*", "nu") if kind == "atomic" else ("z*", "z")
    c0 = covariance_row(model.C, row)
    norm = c0[comp].real
    if norm <= 0:
        raise ValueError(f"incoherent weight {row}->{comp} is not positive")
    return c0, comp, norm


def spectrum_numeric(params, X, kind, y_grid, *, model=None) -> SpectrumSeries:
    """Spectrum from the stationary covariance and the drift resolvent.

    kind is "atomic" or "forward"; the anchor row, the component read and
    the preconditions on the operating point are those of incoherent_anchor;
    model is linearize(params, X), passed by a caller that has built it.
    """
    y = np.asarray(y_grid, dtype=float)
    if y.size == 0:
        raise ValueError("empty frequency grid")
    model = model or linearize(params, X)
    c0, comp, norm = incoherent_anchor(model, X, kind)
    return SpectrumSeries(
        y=y, values=model.resolve(c0, -1j * y, comp).real / (np.pi * norm),
        kind=kind, method="numeric-resolvent", params=params_meta(params, X=X),
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
    if not 0 <= X < np.inf:
        raise ValueError("X must be finite and nonnegative")
    y = np.asarray(y_grid, dtype=float)
    notes = warn_regime(regime_violation(params.C, X, "weak"))
    values = np.array(
        [anomalous_laplace("nu*nu*", params, X, -1j * yk).real for yk in y]
    )
    return SpectrumSeries(
        y=y, values=values, kind="squeezing", method="anomalous-laplace",
        params=params_meta(params, X=X), warnings=notes,
    )


# ---------------------------------------------------------------------------
# certified normalization
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes on [-1, 1], the 16-point rule then the 32-point one,
# and the weight rows that turn one panel's 48 values into (I16, I32)
_GL16, _GL32 = np.polynomial.legendre.leggauss(16), np.polynomial.legendre.leggauss(32)
_NODES = np.concatenate([_GL16[0], _GL32[0]])
_WEIGHTS = np.zeros((2, _NODES.size))
_WEIGHTS[0, :16], _WEIGHTS[1, 16:] = _GL16[1], _GL32[1]

# panel edges at |Im s| +- 2^m |Re s| of every pole s, m = -3..7
_SPREAD = 2.0 ** np.arange(-3, 8)
# target of the summed |I32 - I16| relative to the area, and the number of
# bisections a panel may take to reach its share of it
_AREA_RTOL = 1e-9
_MAX_DEPTH = 12


def area_breakpoints(poles):
    """Panel edges on y >= 0 for a spectrum with the given poles in s = -iy.

    Each pole s is a Lorentzian-like feature centred at |Im s| with width
    |Re s|; the edges are 0, every centre and every centre +- 2^m width for
    m = -3..7, those below 0 dropped, ascending and without repeats.
    """
    s = np.asarray(poles, dtype=complex).ravel()
    if s.size == 0 or not np.all(s.real < 0.0):
        raise ValueError("certified area needs poles with negative real parts")
    centre, width = np.abs(s.imag)[:, None], np.abs(s.real)[:, None]
    edges = np.concatenate([centre, centre - width * _SPREAD,
                            centre + width * _SPREAD], axis=1).ravel()
    return np.unique(np.append(edges[edges >= 0.0], 0.0))


def certified_area(evaluate, poles):
    """Integrate an even spectrum by Gauss-Legendre panels at its poles.

    `evaluate` maps a frequency array to the values of a spectrum that is
    even in y, as every spectrum of a real drift and a real anchor row is;
    it is called on y >= 0 only, and the half-line integral is doubled. The
    panels run between area_breakpoints(poles) up to the last edge B, and
    [B, inf) is one more panel through y = B/u, u in (0, 1]. Every panel
    gets the 16- and 32-point rules; a panel whose |I32 - I16| exceeds its
    share of _AREA_RTOL times the area is bisected, up to _MAX_DEPTH times,
    and past that the area is refused with ConditioningError.

    Returns dict with the area (the 32-point sums), the tail bound (the
    mapped tail's |I32 - I16|), y_max = B and the quadrature error (the
    summed |I32 - I16| of the finite panels).
    """
    edges = area_breakpoints(poles)
    b_max = edges[-1]
    lo, hi = np.append(edges[:-1], 0.0), np.append(edges[1:], 1.0)
    tail = np.arange(lo.size) == lo.size - 1
    share = None
    area = quad_error = tail_bound = 0.0
    for _ in range(_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * _NODES
        y, jacobian = x.copy(), np.ones_like(x)
        y[tail], jacobian[tail] = b_max / x[tail], b_max / x[tail] ** 2
        f = evaluate(y.ravel()).reshape(y.shape) * jacobian
        i16, i32 = 2.0 * half * (f @ _WEIGHTS.T).T
        err = np.abs(i32 - i16)
        if share is None:
            share = np.full(lo.size, _AREA_RTOL * np.sum(np.abs(i32)) / lo.size)
        ok = err <= share
        area += np.sum(i32[ok])
        quad_error += np.sum(err[ok & ~tail])
        tail_bound += np.sum(err[ok & tail])
        if ok.all():
            return {"area": float(area), "tail_bound": float(tail_bound),
                    "y_max": float(b_max), "quadrature_error": float(quad_error)}
        bad = ~ok
        mid = lo[bad] + half[bad]
        lo, hi = np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]])
        tail, share = np.tile(tail[bad], 2), np.tile(0.5 * share[bad], 2)
    raise ConditioningError(
        f"area panels failed to converge in {_MAX_DEPTH} bisections "
        f"(|I32 - I16| = {np.sum(err[~ok]):.2e} left)")


def verify_unit_area(variant, params=None, X=None, *, model=None):
    """Certified unit-area check for a spectrum variant.

    Accepts a closed-form variant name together with its parameters, or
    "numeric-atomic"/"numeric-forward" (model: linearize(params, X), if
    built; its drift eigenvalues are the poles). Returns the certified-area
    record; callers compare record["area"] against 1 within the tail bound
    plus the quadrature error.
    """
    if variant not in UNIT_AREA_VARIANTS + ("numeric-atomic", "numeric-forward"):
        raise ValueError(f"{variant!r} is not a unit-area variant")
    _require_inputs(variant, params, X)
    if variant.startswith("numeric-"):
        model = model or linearize(params, X)
        c0, comp, norm = incoherent_anchor(model, X, variant.split("-", 1)[1])
        return certified_area(lambda y: model.resolve(c0, -1j * y, comp).real
                              / (np.pi * norm), model.eig[0])
    form = CLOSED_FORMS[variant]
    return certified_area(lambda y: form.values(y, params, X), form.poles(params, X))

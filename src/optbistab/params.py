"""System parameters and dimensionless conventions.

All computation downstream is dimensionless: time in units of 2/gamma
(tau_bar = gamma*t/2), frequency offsets as y = 2(omega - omega0)/gamma, and
drift/diffusion matrices in units of gamma/2. Only the cooperativity C, the
decay-rate ratio xi = 2*kappa/gamma and the atom number N enter those
formulas; raw rates are retained solely for quantities like the vacuum Rabi
frequency in laboratory units.
"""

import json
import math
from dataclasses import dataclass

TWO_PI_MHZ = 2.0 * math.pi * 1.0e6  # rad/s per "2pi MHz"

_REL_TOL = 1e-12


class ParameterError(ValueError):
    """Invalid parameter value; message names the offending field."""


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless operating parameters of the bistable absorber.

    C      -- cooperativity, C = N g^2 / (kappa gamma)
    xi     -- decay-rate ratio, xi = 2 kappa / gamma
    N      -- number of two-level emitters
    g, kappa, gamma -- optional raw rates in rad/s (angular frequencies)
    n_sc   -- saturation photon number gamma^2/(8 g^2), set iff rates present
    """

    C: float
    xi: float
    N: int
    g: float | None = None
    kappa: float | None = None
    gamma: float | None = None
    n_sc: float | None = None

    def __post_init__(self):
        report = validate(self)
        if report:
            raise ParameterError("; ".join(report))

    @property
    def has_rates(self) -> bool:
        return self.g is not None and self.kappa is not None and self.gamma is not None


def from_raw_rates(g, kappa, gamma, N, unit="rad/s"):
    """Build SystemParams from raw rates.

    Parameters
    ----------
    g, kappa, gamma : float
        Dipole coupling, field decay and atomic decay rates. With
        unit="rad/s" they are angular frequencies; with unit="MHz" they are
        read as values of (rate / 2pi) in MHz and converted once.
    N : int
        Atom number.
    """
    if unit == "MHz":
        g, kappa, gamma = (x * TWO_PI_MHZ for x in (g, kappa, gamma))
    elif unit != "rad/s":
        raise ParameterError(f"unit must be 'rad/s' or 'MHz', got {unit!r}")
    report = list(filter(None, map(_violation, ("g", "kappa", "gamma"), (g, kappa, gamma))))
    if report:
        raise ParameterError("; ".join(report))
    if N < 1:
        raise ParameterError("N must be >= 1")
    C = N * g * g / (kappa * gamma)
    xi = 2.0 * kappa / gamma
    n_sc = gamma * gamma / (8.0 * g * g)
    return SystemParams(C=C, xi=xi, N=int(N), g=g, kappa=kappa, gamma=gamma, n_sc=n_sc)


def _violation(name, value):
    """Why value cannot be the positive, finite field `name`; None if it can."""
    if not math.isfinite(value):
        return f"{name} must be finite"
    if not value > 0:
        return f"{name} must be positive"


def validate(params) -> list[str]:
    """Check every SystemParams invariant; returns a list of violations.

    An empty list means the parameters are consistent. This never raises, so
    callers can surface all problems at once.
    """
    report = list(filter(None, map(_violation, ("C", "xi"), (params.C, params.xi))))
    if params.N < 1:
        report.append("N must be >= 1")
    rates = (params.g, params.kappa, params.gamma)
    if any(r is not None for r in rates) and not all(r is not None for r in rates):
        report.append("raw rates must be given all together or not at all")
    elif all(r is not None for r in rates):
        report += filter(None, map(_violation, ("g", "kappa", "gamma"), rates))
        if not report:
            C_derived = params.N * params.g**2 / (params.kappa * params.gamma)
            if abs(2 * params.C - 2 * C_derived) > _REL_TOL * abs(2 * params.C):
                report.append("derived C mismatch with raw rates")
            xi_derived = 2.0 * params.kappa / params.gamma
            if abs(params.xi - xi_derived) > _REL_TOL * abs(params.xi):
                report.append("derived xi mismatch with raw rates")
            n_sc = params.gamma**2 / (8.0 * params.g**2)
            if params.n_sc is None or abs(params.n_sc - n_sc) > _REL_TOL * n_sc:
                report.append("n_sc inconsistent with raw rates")
    elif params.n_sc is not None:
        report.append("n_sc set without raw rates")
    return report


def params_from_dict(doc) -> SystemParams:
    """Parse the flat key-value parameter document.

    Exactly one of the groups {"C","xi","N"} or
    {"g_MHz","kappa_MHz","gamma_MHz","N"} must be present.
    """
    dimless = {"C", "xi", "N"}
    rated = {"g_MHz", "kappa_MHz", "gamma_MHz", "N"}
    keys = set(doc)
    if keys == dimless:
        return SystemParams(C=float(doc["C"]), xi=float(doc["xi"]), N=int(doc["N"]))
    if keys == rated:
        return from_raw_rates(
            float(doc["g_MHz"]), float(doc["kappa_MHz"]), float(doc["gamma_MHz"]),
            int(doc["N"]), unit="MHz",
        )
    raise ParameterError(
        "parameter document must contain exactly the keys {C, xi, N} or "
        "{g_MHz, kappa_MHz, gamma_MHz, N}; got " + repr(sorted(keys))
    )


def params_meta(params, **extra):
    """Metadata of a result: the fields of params, if given (C, xi, N, and the
    raw rates and n_sc where set), plus every extra key; None values are
    left out."""
    meta = {} if params is None else vars(params)
    return {k: v for k, v in {**meta, **extra}.items() if v is not None}


def params_from_file(path) -> SystemParams:
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))

"""Side-scattered flux, random-phase verification, and the auxiliary channel.

Side scattering from distinguishable emitters carries no collective
interference once the interatomic phase factors average out; the Monte Carlo
here checks that assumption directly on sampled geometries, including the
Bragg-ordered counterexample where it fails maximally. The auxiliary-cavity
channel converts the internal collective polarization into a weak output
flux whose normalized spectrum is identical to the atomic one.
"""

from dataclasses import dataclass

import numpy as np

from .covariance import CorrelationVector, linearize
from .lindyn import warn_regime
from .numerics import TOL
from .params import params_meta
from .spectra import SpectrumSeries, incoherent_anchor


@dataclass(frozen=True)
class ScatterGeometry:
    """Atom positions (units of the resonant wavelength) and the seed of the
    random viewing directions."""

    positions: np.ndarray
    rng_seed: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or not np.isfinite(pos).all():
            raise ValueError("positions must be a finite (N, 3) array")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class AuxiliaryChannel:
    """Weak auxiliary-cavity coupling used to read out the atomic emission."""

    g_aux: float
    kappa_aux: float

    def __post_init__(self):
        if self.g_aux <= 0 or self.kappa_aux <= 0:
            raise ValueError("auxiliary rates must be positive")

    @property
    def prefactor(self):
        return self.g_aux**2 / self.kappa_aux

    def validity_flags(self, g=None):
        """Adiabaticity (kappa_aux >> g_aux) and weak-coupling checks."""
        flags = {"adiabatic": self.kappa_aux >= TOL.aux_kappa_ratio * self.g_aux}
        if g is not None:
            flags["weak_coupling"] = self.prefactor <= TOL.aux_coupling_ratio * g
        return flags


@dataclass(frozen=True)
class SideFluxResult:
    """Incoherent side flux in units of gamma * N * dOmega."""

    flux: float
    weak_flux: float       # weak-excitation form via the emission rate
    R_gamma_over_gammaN: float  # total spontaneous rate / (gamma N) = X^2/2


def side_flux(params, X, theta, solid_angle) -> SideFluxResult:
    """Incoherent flux scattered into dOmega around polar angle theta.

    Returned in units of gamma*N*dOmega:

        flux = (3/8pi) sin^2(theta) * (1/2) (X^2/(1+X^2))^2

    plus the weak-excitation form (3/8pi) sin^2(theta) * R X^2 with the
    scaled emission rate R = X^2/2 per gamma*N.
    """
    if not 0 <= X < np.inf:
        raise ValueError("X must be finite and nonnegative")
    if not (0.0 < solid_angle <= 4.0 * np.pi):
        raise ValueError("solid angle must lie in (0, 4 pi]")
    geom = (3.0 / (8.0 * np.pi)) * np.sin(theta) ** 2
    sat = X * X / (1.0 + X * X)
    R = X * X / 2.0
    return SideFluxResult(
        flux=geom * 0.5 * sat * sat,
        weak_flux=geom * R * X * X,
        R_gamma_over_gammaN=R,
    )


@dataclass(frozen=True)
class PhaseSumStatistics:
    mean_abs: float
    max_abs: float
    coherent_bound: float
    trials: int
    seed: int


def _unit_direction(rng):
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def normalized_phase_sum(positions, direction):
    """(1/N) sum_{j != k} exp(-i k0 r_hat . (r_j - r_k)) for one direction.

    positions are in wavelength units, so k0 r_hat . r = 2 pi r_hat . x.
    The double sum is evaluated as |sum_j exp(-i phi_j)|^2 - N.
    """
    phases = np.exp(-2j * np.pi * (positions @ direction))
    total = np.abs(phases.sum()) ** 2 - len(positions)
    return total / len(positions)


def phase_sum_monte_carlo(geometry: ScatterGeometry, trials) -> PhaseSumStatistics:
    """Statistics of the interatomic phase sum over random directions.

    Directions are drawn from per-trial RNG streams seeded by
    (rng_seed, trial index), so results are reproducible regardless of any
    parallel scheduling. The coherent bound N-1 is what perfectly aligned
    phases (e.g. a Bragg-ordered chain viewed end-on) would give.
    """
    pos = geometry.positions
    N = len(pos)
    if N < 2:
        raise ValueError("phase statistics need at least 2 atoms")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # pairwise-distance guard on a subsample; full O(N^2) only for small N
    d_min = _min_pairwise_distance(pos)
    warn_regime(d_min < 1.0 and f"minimum interatomic distance {d_min:.3g} wavelengths; "
                "the random-phase assumption needs atoms far apart on that scale")
    values = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([geometry.rng_seed, trial])
        direction = _unit_direction(rng)
        values[trial] = abs(normalized_phase_sum(pos, direction))
    return PhaseSumStatistics(
        mean_abs=float(values.mean()),
        max_abs=float(values.max()),
        coherent_bound=float(N - 1),
        trials=int(trials),
        seed=int(geometry.rng_seed),
    )


def _min_pairwise_distance(pos):
    n = len(pos)
    if n > 512:
        idx = np.random.default_rng(0).choice(n, size=512, replace=False)
        pos = pos[idx]
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def sample_positions_cube(N, side_lambda, seed=0):
    """Uniform positions in a cube of the given side (wavelength units)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side_lambda, size=(N, 3))


def load_geometry(path, rng_seed=0) -> ScatterGeometry:
    """Read atom positions from a JSON list of [x, y, z] (wavelength units)."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ScatterGeometry(positions=np.asarray(doc, dtype=float), rng_seed=rng_seed)


def bragg_chain(N, spacing_lambda=1.0):
    """Atoms on a line with integer-wavelength spacing: the coherent
    counterexample to the random-phase assumption when viewed along the
    chain axis."""
    pos = np.zeros((N, 3))
    pos[:, 0] = spacing_lambda * np.arange(N)
    return pos


def auxiliary_channel_correlation(channel: AuxiliaryChannel,
                                  atomic_correlator_value, params=None):
    """Output-flux correlator of the auxiliary channel.

    kappa_aux <Delta b_dag Delta b>-type value = (g_aux^2 / kappa_aux) times
    the collective atomic correlator. Validity flags warn when the channel
    is not adiabatic or not weakly coupled.
    """
    flags = channel.validity_flags(params.g if params is not None and params.has_rates else None)
    warn_regime(*(f"auxiliary channel violates the {name} condition"
                  for name, ok in flags.items() if not ok))
    return channel.prefactor * atomic_correlator_value


def auxiliary_spectrum(params, X, channel: AuxiliaryChannel, y_grid) -> SpectrumSeries:
    """Normalized spectrum of the auxiliary-channel output flux.

    The output correlator is the atomic correlation row times the channel
    prefactor; normalizing by the equal-time output flux divides the same
    prefactor out again, so the result reproduces the atomic spectrum
    identically. The scaling and renormalization are carried out literally
    rather than skipped, so the cancellation is a computed fact.
    """
    y = np.asarray(y_grid, dtype=float)
    model, pref = linearize(params, X), channel.prefactor
    c0, comp, norm = incoherent_anchor(model, X, "atomic")
    scaled_c0 = CorrelationVector(row=c0.row, entries=pref * c0.entries, tau_bar=0.0)
    values = model.resolve(scaled_c0, -1j * y, comp).real / (np.pi * (pref * norm))
    return SpectrumSeries(
        y=y, values=values, kind="atomic", method="auxiliary-channel",
        params=params_meta(params, X=X, g_aux=channel.g_aux,
                           kappa_aux=channel.kappa_aux),
    )

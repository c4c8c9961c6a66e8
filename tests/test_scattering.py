"""Side flux, random-phase Monte Carlo, auxiliary emission channel."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import reference_phase_sum
from optbistab.lindyn import RegimeWarning
from optbistab.params import SystemParams, from_raw_rates
from optbistab.scattering import (
    AuxiliaryChannel,
    ScatterGeometry,
    auxiliary_channel_correlation,
    auxiliary_spectrum,
    bragg_chain,
    normalized_phase_sum,
    phase_sum_monte_carlo,
    sample_positions_cube,
    side_flux,
)
from optbistab.spectra import spectrum_numeric


@pytest.fixture
def p51():
    return SystemParams(C=5.0, xi=1.0, N=1000)


class TestSideFlux:
    def test_dark_cavity(self, p51):
        assert side_flux(p51, 0.0, np.pi / 2, 1e-3).flux == 0.0

    def test_unit_amplitude_coefficient(self, p51):
        res = side_flux(p51, 1.0, np.pi / 2, 1e-3)
        assert res.flux == pytest.approx((3.0 / (8 * np.pi)) * 0.125, rel=1e-12)

    def test_weak_limit_matches_emission_rate_form(self, p51):
        for X in (1e-2, 1e-3):
            res = side_flux(p51, X, 1.2, 1e-3)
            assert res.flux / res.weak_flux == pytest.approx(1.0, abs=3 * X * X)
            assert res.R_gamma_over_gammaN == pytest.approx(X * X / 2.0)

    def test_polar_symmetry(self, p51):
        for theta in (0.3, 1.0, 1.4):
            a = side_flux(p51, 2.0, theta, 1e-3).flux
            b = side_flux(p51, 2.0, np.pi - theta, 1e-3).flux
            assert abs(a - b) <= 1e-12 * max(a, 1.0)

    @pytest.mark.parametrize("X", [np.nan, np.inf])
    def test_rejects_nonfinite_amplitude(self, p51, X):
        with pytest.raises(ValueError, match="X must be finite"):
            side_flux(p51, X, np.pi / 2, 1e-3)

    def test_invalid_solid_angle(self, p51):
        with pytest.raises(ValueError):
            side_flux(p51, 1.0, 1.0, 0.0)


class TestPhaseSum:
    def test_coincident_pair_fully_coherent(self):
        pos = np.zeros((2, 3))
        val = normalized_phase_sum(pos, np.array([0.0, 0.0, 1.0]))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_bragg_chain_end_on_is_coherent_bound(self):
        N = 100
        val = normalized_phase_sum(bragg_chain(N), np.array([1.0, 0.0, 0.0]))
        assert val == pytest.approx(N - 1, abs=1e-9)

    def test_dilute_cube_statistics(self):
        N = 100
        geom = ScatterGeometry(positions=sample_positions_cube(N, 50.0, seed=7),
                               rng_seed=7)
        stats = phase_sum_monte_carlo(geom, 1000)
        assert stats.mean_abs <= 2.0
        assert stats.coherent_bound == N - 1

    def test_scaling_with_atom_number(self):
        # fixed density: the normalized sum stays O(1), the bound doubles
        import warnings

        geom50 = ScatterGeometry(positions=sample_positions_cube(50, 50.0, seed=3),
                                 rng_seed=3)
        geom100 = ScatterGeometry(
            positions=sample_positions_cube(100, 50.0 * 2 ** (1 / 3), seed=3),
            rng_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            s50 = phase_sum_monte_carlo(geom50, 400)
            s100 = phase_sum_monte_carlo(geom100, 400)
        assert 1.7 <= s100.coherent_bound / s50.coherent_bound <= 2.3
        assert 0.5 <= s100.mean_abs / s50.mean_abs <= 2.0

    def test_deterministic_under_seed(self):
        geom = ScatterGeometry(positions=sample_positions_cube(30, 40.0, seed=11),
                               rng_seed=11)
        a = phase_sum_monte_carlo(geom, 64)
        b = phase_sum_monte_carlo(geom, 64)
        assert a.mean_abs == b.mean_abs and a.max_abs == b.max_abs

    def test_close_atoms_warn(self):
        pos = np.zeros((3, 3))
        pos[1, 0] = 0.1
        pos[2, 1] = 20.0
        geom = ScatterGeometry(positions=pos, rng_seed=0)
        with pytest.warns(UserWarning, match="wavelength"):
            phase_sum_monte_carlo(geom, 4)

    def test_close_atoms_note_is_a_regime_warning(self):
        geom = ScatterGeometry(positions=[[0, 0, 0], [0.5, 0, 0], [0, 20, 0]])
        with pytest.warns(RegimeWarning, match="minimum interatomic distance 0.5"):
            phase_sum_monte_carlo(geom, 4)

    def test_single_atom_rejected(self):
        geom = ScatterGeometry(positions=np.zeros((1, 3)), rng_seed=0)
        with pytest.raises(ValueError):
            phase_sum_monte_carlo(geom, 4)

    def test_geometry_file_round_trip(self, tmp_path):
        import json

        from optbistab.scattering import load_geometry

        pos = sample_positions_cube(10, 30.0, seed=5)
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(pos.tolist()))
        geom = load_geometry(path, rng_seed=5)
        assert np.allclose(geom.positions, pos)
        ref = ScatterGeometry(positions=pos, rng_seed=5)
        a = phase_sum_monte_carlo(geom, 16)
        b = phase_sum_monte_carlo(ref, 16)
        assert a.mean_abs == b.mean_abs

    def test_geometry_validation(self):
        for shape in ((3,), (2, 2), (2, 3, 1)):
            with pytest.raises(ValueError, match=r"\(N, 3\) array"):
                ScatterGeometry(positions=np.zeros(shape))
        assert ScatterGeometry(positions=[[0, 0, 0], [1, 2, 3]]).positions.shape == (2, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_positions_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ScatterGeometry(positions=[[0, 0, 0], [bad, 0, 0]])


def _cube(N, seed):
    return sample_positions_cube(N, 50.0, seed=seed)


class TestBlockedPhaseSum:
    """The Monte Carlo evaluates every trial's direction in row blocks; the
    per-trial loop of `reference_phase_sum` is the oracle."""

    @pytest.mark.parametrize("positions, seed, trials", [
        (_cube(100, 3), 3, 1000),
        (bragg_chain(100), 0, 500),
        ([[0, 0, 0], [1, 0.5, 0], [0.3, 2, 1]], 5, 1000),
        (_cube(2000, 1), 1, 1000),  # 32 directions per block: 32 blocks
    ], ids=["cube-100", "bragg-100", "three-atoms", "cube-2000"])
    def test_matches_per_trial_reference(self, positions, seed, trials):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            stats = phase_sum_monte_carlo(ScatterGeometry(positions, seed), trials)
        mean, peak = reference_phase_sum(positions, seed, trials)
        assert stats.mean_abs == pytest.approx(mean, rel=1e-12)
        assert stats.max_abs == pytest.approx(peak, rel=1e-12)
        assert (stats.trials, stats.seed) == (trials, seed)
        assert stats.coherent_bound == len(positions) - 1

    @pytest.mark.parametrize("positions", [_cube(100, 3), bragg_chain(100),
                                           [[0, 0, 0], [1, 0.5, 0], [0.3, 2, 1]]],
                             ids=["cube-100", "bragg-100", "three-atoms"])
    def test_stacked_rows_equal_single_directions(self, positions):
        d = np.random.default_rng(9).normal(size=(40, 3))
        d = np.vstack([np.eye(3), d / np.linalg.norm(d, axis=1, keepdims=True)])
        stacked = normalized_phase_sum(positions, d)
        single = [normalized_phase_sum(positions, row) for row in d]
        assert stacked.shape == (43,) and np.ndim(single[0]) == 0
        np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-12)

    def test_zero_draw_is_drawn_again(self, monkeypatch):
        # a stub stream whose first draw is (0, 0, 0) for every third trial
        real = np.random.default_rng

        class ZeroFirst:
            def __init__(self, seed):
                self.rng, self.fresh = real(seed), True

            def normal(self, size):
                draw, first, self.fresh = self.rng.normal(size=size), self.fresh, False
                return np.zeros(size) if first else draw

        positions, trials = [[0, 0, 0], [1, 0.5, 0], [0.3, 2, 1]], 30
        plain = phase_sum_monte_carlo(ScatterGeometry(positions, 3), trials)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ZeroFirst(seed) if seed[1] % 3 == 0 else real(seed))
        stats = phase_sum_monte_carlo(ScatterGeometry(positions, 3), trials)
        mean, peak = reference_phase_sum(positions, 3, trials)
        assert stats.mean_abs == pytest.approx(mean, rel=1e-12)
        assert stats.max_abs == pytest.approx(peak, rel=1e-12)
        assert stats.mean_abs != plain.mean_abs

    def test_peak_memory_is_bounded_by_the_blocks(self):
        # one (trials, N) temporary would take 160 MB here
        geom = ScatterGeometry(sample_positions_cube(20000, 500.0, seed=2), rng_seed=2)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                stats = phase_sum_monte_carlo(geom, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.trials == 1000 and np.isfinite(stats.mean_abs)
        assert peak < 8e6


class TestAuxiliaryChannel:
    def test_prefactor_substitution(self):
        ch = AuxiliaryChannel(g_aux=0.01, kappa_aux=1.0)  # units of gamma
        assert ch.prefactor == pytest.approx(1e-4, rel=1e-12)
        assert auxiliary_channel_correlation(ch, 2.0) == pytest.approx(2e-4)

    def test_zero_correlator_maps_to_zero(self):
        ch = AuxiliaryChannel(g_aux=0.01, kappa_aux=1.0)
        assert auxiliary_channel_correlation(ch, 0.0) == 0.0

    def test_validity_warnings(self):
        ch = AuxiliaryChannel(g_aux=1.0, kappa_aux=2.0)  # not adiabatic
        with pytest.warns(UserWarning, match="adiabatic"):
            auxiliary_channel_correlation(ch, 1.0)
        p = from_raw_rates(1.0, 1.0, 1.0, 10)
        strong = AuxiliaryChannel(g_aux=10.0, kappa_aux=110.0)
        with pytest.warns(UserWarning, match="weak_coupling"):
            auxiliary_channel_correlation(strong, 1.0, params=p)

    def test_validity_notes_are_regime_warnings(self):
        p = from_raw_rates(1.0, 1.0, 1.0, 10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            auxiliary_channel_correlation(AuxiliaryChannel(g_aux=10.0, kappa_aux=20.0),
                                          1.0, params=p)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RegimeWarning, "auxiliary channel violates the adiabatic condition"),
            (RegimeWarning, "auxiliary channel violates the weak_coupling condition")]

    def test_normalized_spectrum_identical_to_atomic(self, p51):
        grid = np.linspace(-25.0, 25.0, 301)
        ch = AuxiliaryChannel(g_aux=1e-3, kappa_aux=1.0)
        aux = auxiliary_spectrum(p51, 0.05, ch, grid)
        atomic = spectrum_numeric(p51, 0.05, "atomic", grid)
        assert np.max(np.abs(aux.values - atomic.values)) <= 1e-12

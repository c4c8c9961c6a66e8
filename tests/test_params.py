"""Parameter construction, validation and file parsing."""

import json
import math
from types import SimpleNamespace

import pytest

from optbistab.params import (
    ParameterError,
    SystemParams,
    from_raw_rates,
    params_from_dict,
    params_from_file,
    validate,
)


class TestFromRawRates:
    def test_experiment_rates(self):
        p = from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz")
        assert p.C == pytest.approx(39.5814, rel=1e-4)
        assert p.xi == pytest.approx(0.176, rel=1e-12)
        assert p.N == 310

    def test_half_coupling(self):
        p = from_raw_rates(0.53, 0.88, 10.0, 310, unit="MHz")
        assert p.C == pytest.approx(9.8953, rel=1e-4)

    def test_unit_rates(self):
        p = from_raw_rates(1.0, 1.0, 1.0, 1)
        assert p.C == pytest.approx(1.0)
        assert p.xi == pytest.approx(2.0)
        assert p.n_sc == pytest.approx(1.0 / 8.0)

    def test_round_trip_identities(self):
        p = from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz")
        assert 2 * p.C == pytest.approx(2 * p.N * p.g**2 / (p.kappa * p.gamma), rel=1e-12)
        assert p.xi == pytest.approx(2 * p.kappa / p.gamma, rel=1e-12)

    def test_common_scaling_leaves_dimensionless_unchanged(self):
        base = from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz")
        for lam in (1e-3, 7.5, 2.0e4):
            scaled = from_raw_rates(1.06 * lam, 0.88 * lam, 10.0 * lam, 310, unit="MHz")
            assert scaled.C == pytest.approx(base.C, rel=1e-12)
            assert scaled.xi == pytest.approx(base.xi, rel=1e-12)
            assert scaled.n_sc == pytest.approx(base.n_sc, rel=1e-12)

    def test_nonpositive_rate_names_field(self):
        with pytest.raises(ParameterError, match="kappa"):
            from_raw_rates(1.0, -1.0, 1.0, 10)
        with pytest.raises(ParameterError, match="N"):
            from_raw_rates(1.0, 1.0, 1.0, 0)

    def test_mhz_conversion_stored_angular(self):
        p = from_raw_rates(1.0, 1.0, 1.0, 1, unit="MHz")
        assert p.gamma == pytest.approx(2 * math.pi * 1e6)


class TestValidate:
    def test_valid_dimensionless(self):
        assert validate(SystemParams(C=5.0, xi=1.0, N=100)) == []

    def test_negative_C_reported(self):
        stub = SimpleNamespace(C=-1.0, xi=1.0, N=100, g=None, kappa=None,
                               gamma=None, n_sc=None)
        report = validate(stub)
        assert any("C must be positive" in line for line in report)

    def test_inconsistent_rates_reported(self):
        good = from_raw_rates(1.0, 1.0, 1.0, 10)
        stub = SimpleNamespace(C=good.C * 1.1, xi=good.xi, N=good.N, g=good.g,
                               kappa=good.kappa, gamma=good.gamma, n_sc=good.n_sc)
        report = validate(stub)
        assert any("derived C mismatch" in line for line in report)

    def test_constructor_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            SystemParams(C=-1.0, xi=1.0, N=10)


class TestParameterFiles:
    def test_dimensionless_group(self):
        p = params_from_dict({"C": 5, "xi": 1, "N": 100})
        assert (p.C, p.xi, p.N) == (5.0, 1.0, 100)
        assert not p.has_rates

    def test_rate_group(self):
        p = params_from_dict({"g_MHz": 1.06, "kappa_MHz": 0.88,
                              "gamma_MHz": 10, "N": 310})
        assert p.C == pytest.approx(39.5814, rel=1e-4)

    def test_mixed_groups_rejected(self):
        with pytest.raises(ParameterError):
            params_from_dict({"C": 5, "xi": 1, "N": 100, "g_MHz": 1.0})

    def test_missing_key_rejected(self):
        with pytest.raises(ParameterError):
            params_from_dict({"C": 5, "N": 100})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"C": 5, "xi": 1, "N": 100}))
        assert params_from_file(path).C == 5.0

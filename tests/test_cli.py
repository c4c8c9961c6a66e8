"""End-to-end CLI behavior: files, formats, exit codes, reproducibility."""

import dataclasses
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from optbistab import cli, correlations, covariance, scattering, spectra, steady_state
from optbistab.lindyn import build_diffusion, build_jacobian
from optbistab.numerics import NumericsError
from optbistab.params import SystemParams, from_raw_rates


def read_csv(path):
    """Parse our CSV layout: '#' metadata lines, a header row, then data."""
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    meta[key.strip()] = val.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line.split(","))
    return meta, header, rows


def numeric_rows(rows, cols=(0, 1)):
    return np.array([[float(r[c]) for c in cols] for r in rows])


def warning_lines(err, text):
    """The stderr lines naming `text`; each must be the CLI's own warning line."""
    lines = [line for line in err.splitlines() if text in line]
    assert all(line.startswith("warning: ") for line in lines), lines
    return lines


class TestCurveAndSolve:
    def test_curve_brackets_turning_points(self, tmp_path):
        out = tmp_path / "curve"
        rc = cli.main(["curve", "--C", "5", "--xmax", "5", "--out", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(f"{out}.csv")
        assert header == ["X", "Y", "branch"]
        xm, xp = float(meta["X_minus"]), float(meta["X_plus"])
        assert xm == pytest.approx(1.3281, abs=1e-3)
        assert xp == pytest.approx(2.4972, abs=1e-3)
        data = numeric_rows(rows)
        assert data[:, 0].min() < xm < xp < data[:, 0].max()

    def test_curve_monostable_summary(self, tmp_path):
        out = tmp_path / "curve"
        cli.main(["curve", "--C", "2", "--xmax", "5", "--out", str(out)])
        meta, _, _ = read_csv(f"{out}.csv")
        assert meta["summary"] == "monostable"

    def test_curve_at_drive_lists_roots(self, tmp_path):
        out = tmp_path / "roots"
        cli.main(["curve", "--C", "5", "--y", "6", "--out", str(out)])
        _, _, rows = read_csv(f"{out}.csv")
        xs = sorted(float(r[0]) for r in rows)
        assert xs == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
        assert [r[2] for r in rows] == ["lower", "unstable-middle", "upper"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_curve_at_drive_writes_the_solve_table(self, tmp_path, fmt):
        for command in ("curve", "solve"):
            assert cli.main([command, "--C", "5", "--y", "6", "--format", fmt,
                             "--out", str(tmp_path / command)]) == 0
        curve, solve = ((tmp_path / f"{c}.{fmt}").read_text().splitlines()
                        for c in ("curve", "solve"))
        differ = [(a, b) for a, b in zip(curve, solve) if a != b]
        assert len(curve) == len(solve)
        assert [(a.strip(), b.strip()) for a, b in differ] == (
            [("# command=curve", "# command=solve")] if fmt == "csv"
            else [('"command": "curve",', '"command": "solve",')])

    def test_invalid_range_is_usage_error(self, tmp_path):
        rc = cli.main(["curve", "--C", "5", "--xmax", "-3",
                       "--out", str(tmp_path / "x")])
        assert rc == 2


class TestSpectrumCommand:
    def test_numeric_weak_point(self, tmp_path):
        out = tmp_path / "spec"
        rc = cli.main(["spectrum", "--kind", "atomic", "--method", "numeric",
                       "--C", "5", "--xi", "1", "--X", "0.01",
                       "--ymax", "30", "--points", "601", "--out", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(f"{out}.csv")
        assert header == ["y", "T"]
        data = numeric_rows(rows)
        from optbistab.params import SystemParams
        from optbistab.spectra import spectrum_closed_form

        ref = spectrum_closed_form(
            "weak-closed", SystemParams(C=5.0, xi=1.0, N=1), y_grid=data[:, 0])
        assert np.max(np.abs(data[:, 1] - ref.values)) <= 1e-3 * ref.values.max()

    def test_unit_area_note_prints_both_error_terms(self, tmp_path, capsys):
        # an atomic feature far narrower than the largest drift eigenvalue
        out = tmp_path / "spec"
        rc = cli.main(["spectrum", "--method", "numeric", "--C", "0.1", "--xi", "1e4",
                       "--N", "100", "--X", "1", "--out", str(out)])
        assert rc == 0
        notes = [line for line in (tmp_path / "spec.csv").read_text().splitlines()
                 if line.startswith("# warning: unit-area check:")]
        assert len(notes) == 1
        words = notes[0][len("# warning: "):].replace("(", " ").replace(")", " ").split()
        assert words[:5] == ["unit-area", "check:", "1.000000", "tail", "bound"]
        assert words[6:8] == ["quadrature", "error"] and len(words) == 9
        assert float(words[5]) >= 0.0 and float(words[8]) >= 0.0
        assert notes[0][len("# warning: "):] in capsys.readouterr().err

    def test_json_prints_unit_area_note_once(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        rc = cli.main(["spectrum", "--method", "numeric", "--C", "5", "--xi", "1",
                       "--X", "0.01", "--points", "11", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        warns = json.loads(out.read_text())["warnings"]
        assert len(warns) == 1 and warns[0].startswith("unit-area check: 1.000000 ")
        assert warning_lines(capsys.readouterr().err, "unit-area") == [f"warning: {warns[0]}"]

    @pytest.mark.parametrize("method", spectra.CLOSED_FORM_VARIANTS)
    def test_kind_must_match_closed_form(self, tmp_path, capsys, method):
        own = spectra.CLOSED_FORMS[method].kind
        other = {"atomic": "forward", "forward": "atomic"}[own]
        argv = ["spectrum", "--method", method, "--C", "5", "--xi", "1", "--points", "11"]
        argv += ["--X", "20"] if "X" in spectra.CLOSED_FORMS[method].needs else []
        assert cli.main(argv + ["--kind", own, "--out", str(tmp_path / "own")]) == 0
        meta, _, _ = read_csv(tmp_path / "own.csv")
        assert meta["kind"] == own
        capsys.readouterr()
        assert cli.main(argv + ["--kind", other, "--out", str(tmp_path / "other")]) == 2
        assert f"not --kind {other}" in capsys.readouterr().err
        assert not (tmp_path / "other.csv").exists()

    def test_numeric_kind_defaults_to_atomic(self, tmp_path):
        rc = cli.main(["spectrum", "--C", "5", "--xi", "1", "--X", "0.01",
                       "--points", "11", "--out", str(tmp_path / "s")])
        assert rc == 0
        meta, _, _ = read_csv(tmp_path / "s.csv")
        assert (meta["kind"], meta["method"]) == ("atomic", "numeric-resolvent")

    def test_unstable_middle_branch_is_regime_error(self, tmp_path, capsys):
        rc = cli.main(["spectrum", "--method", "numeric", "--C", "5", "--xi", "1",
                       "--Y", "6", "--branch", "unstable-middle",
                       "--out", str(tmp_path / "s")])
        assert rc == 4
        assert "regime error: linearization invalid" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_numeric_builds_one_model(self, tmp_path):
        # one linearization and one eigendecomposition serve the series and the
        # unit-area note; the stability test is the one eigvals. A later check
        # at the same point reads the model linearize kept: no solve, no eig
        eig, eigvals = np.linalg.eig, np.linalg.eigvals
        solve = covariance.solve_lyapunov
        with mock.patch.object(np.linalg, "eig", side_effect=eig) as eig_spy, \
                mock.patch.object(np.linalg, "eigvals", side_effect=eigvals) as eigvals_spy, \
                mock.patch.object(covariance, "solve_lyapunov", side_effect=solve) as lyap:
            rc = cli.main(["spectrum", "--method", "numeric", "--C", "5", "--xi", "1",
                           "--X", "0.01", "--out", str(tmp_path / "s")])
            assert rc == 0
            assert (lyap.call_count, eig_spy.call_count) == (1, 1)
            assert eigvals_spy.call_count <= 1
            eig_spy.reset_mock()
            eigvals_spy.reset_mock()
            p = SystemParams(C=5.0, xi=1.0, N=1)
            spectra.verify_unit_area("numeric-atomic", p, 0.01)
            assert (lyap.call_count, eig_spy.call_count) == (1, 0)
            assert eigvals_spy.call_count == 0

    def test_unstable_branch_is_regime_error(self, tmp_path, capsys):
        rc = cli.main(["spectrum", "--method", "numeric", "--C", "5", "--xi", "1",
                       "--X", "2.0", "--out", str(tmp_path / "s")])
        assert rc == 4
        assert "not stable" in capsys.readouterr().err.lower()

    def test_branch_selector_required_for_multiroot_drive(self, tmp_path):
        rc = cli.main(["spectrum", "--method", "numeric", "--C", "5", "--xi", "1",
                       "--Y", "6", "--out", str(tmp_path / "s")])
        assert rc == 2
        rc = cli.main(["spectrum", "--method", "numeric", "--C", "5", "--xi", "1",
                       "--Y", "6", "--branch", "upper", "--points", "11",
                       "--out", str(tmp_path / "s2")])
        assert rc == 0

    @pytest.mark.parametrize("method", ["numeric", "upper-branch"])
    @pytest.mark.parametrize("Y, side, other", [("1", "lower", "upper"),
                                                ("30", "upper", "lower")])
    def test_single_root_takes_only_its_own_branch(self, tmp_path, capsys,
                                                   method, Y, side, other):
        # at C = 5 the one root at Y = 1 lies below X_minus = 1.33, at Y = 30
        # above X_plus
        argv = ["spectrum", "--method", method, "--C", "5", "--xi", "1", "--Y", Y,
                "--points", "11", "--out", str(tmp_path / "s")]
        assert cli.main(argv + ["--branch", other]) == 2
        assert f"on the {side} side, not --branch {other}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert cli.main(argv + ["--branch", side]) == 0

    @pytest.mark.parametrize("C", ["2", "4"])
    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_no_branch_below_the_bistable_threshold(self, tmp_path, capsys, C, branch):
        rc = cli.main(["spectrum", "--method", "numeric", "--C", C, "--xi", "1",
                       "--Y", "1", "--branch", branch, "--out", str(tmp_path / "s")])
        assert rc == 2
        assert f"C={C} is not bistable: drop --branch" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_good_cavity_truncated_to_window(self, tmp_path):
        out = tmp_path / "gc"
        cli.main(["spectrum", "--method", "good-cavity", "--C", "5", "--xi", "0.01",
                  "--ymax", "0.2", "--points", "4001", "--out", str(out)])
        _, _, rows = read_csv(f"{out}.csv")
        ys = numeric_rows(rows)[:, 0]
        assert np.abs(ys).max() <= 0.02 + 1e-12

    def test_json_format_carries_metadata(self, tmp_path):
        out = tmp_path / "spec.json"
        cli.main(["spectrum", "--method", "bad-cavity", "--C", "5", "--xi", "500",
                  "--points", "51", "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["meta"]["method"] == "bad-cavity"
        assert "warnings" in doc
        assert doc["columns"] == ["y", "T"]

    def test_upper_branch_conflicting_sources_is_usage_error(self, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"C": 20, "xi": 1, "N": 1}))
        rc = cli.main(["spectrum", "--method", "upper-branch", "--X", "5",
                       "--C", "20", "--xi", "1", "--params", str(pfile),
                       "--out", str(tmp_path / "s")])
        assert rc == 2
        assert not (tmp_path / "s.csv").exists()

    def test_upper_branch_params_file_keeps_regime_guard(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"C": 20, "xi": 1, "N": 1}))
        out = tmp_path / "s.json"
        rc = cli.main(["spectrum", "--method", "upper-branch", "--X", "5",
                       "--params", str(pfile), "--points", "11",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        assert len(warning_lines(capsys.readouterr().err,
                                 "strong-excitation form at X=5")) == 1
        warns = json.loads(out.read_text())["warnings"]
        assert any(w.startswith("strong-excitation form at X=5") for w in warns)

    @pytest.mark.parametrize("method", spectra.CLOSED_FORM_VARIANTS)
    def test_closed_form_input_rules(self, tmp_path, capsys, method):
        needs_X = method in ("upper-branch", "upper-forward-bad-cavity")
        argv = ["spectrum", "--method", method, "--points", "11"]
        rc = cli.main(argv + ["--C", "5", "--xi", "1", "--out", str(tmp_path / "p")])
        assert rc == (2 if needs_X else 0)
        if needs_X:
            assert "give --X or --Y" in capsys.readouterr().err
        # only the upper-branch shape runs from X alone, with no params
        rc = cli.main(argv + ["--X", "20", "--out", str(tmp_path / "x")])
        assert rc == (0 if method == "upper-branch" else 2)
        assert (tmp_path / "x.csv").exists() == (rc == 0)


class TestG2Command:
    def test_preset_fig2a(self, tmp_path):
        out = tmp_path / "fig2a"
        rc = cli.main(["g2", "--preset", "fig2a", "--out", str(out)])
        assert rc == 0
        meta, _, rows = read_csv(f"{out}_atomic.csv")
        data = numeric_rows(rows)
        assert data[0, 1] - 1.0 == pytest.approx(-5.498e-3, rel=2e-2)
        _, _, rows = read_csv(f"{out}_forward.csv")
        data = numeric_rows(rows)
        assert data[0, 1] - 1.0 == pytest.approx(-7.55e-2, rel=2e-2)

    def test_variant_run(self, tmp_path):
        out = tmp_path / "g2"
        rc = cli.main(["g2", "--variant", "atomic-weak", "--C", "40",
                       "--xi", "0.176", "--N", "310", "--taumax", "4",
                       "--points", "101", "--out", str(out)])
        assert rc == 0

    def test_weak_regime_warning_recorded(self, tmp_path, capsys):
        args = ["g2", "--variant", "atomic-weak", "--C", "40", "--xi", "0.176",
                "--N", "310", "--X", "2", "--points", "11"]
        for fmt in (["--format", "json", "--out", str(tmp_path / "g.json")],
                    ["--out", str(tmp_path / "g")]):
            assert cli.main(args + fmt) == 0
            assert len(warning_lines(capsys.readouterr().err,
                                     "weak-excitation form at X=2")) == 1
        warns = json.loads((tmp_path / "g.json").read_text())["warnings"]
        assert [w.startswith("weak-excitation form at X=2") for w in warns] == [True]
        notes = [line for line in (tmp_path / "g.csv").read_text().splitlines()
                 if line.startswith("# warning: ")]
        assert notes == ["# warning: " + warns[0]]

    def test_strong_regime_warning_below_bistability(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = cli.main(["g2", "--variant", "atomic-strong", "--C", "2", "--xi", "1",
                       "--N", "1000000", "--X", "0.1", "--points", "11",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        assert len(warning_lines(capsys.readouterr().err,
                                 "strong-excitation form at X=0.1")) == 1
        assert json.loads(out.read_text())["warnings"] == [
            "strong-excitation form at X=0.1, not >> X_ref=3.33333"]

    def test_impedance_mismatch_is_regime_error(self, tmp_path):
        rc = cli.main(["g2", "--variant", "atomic-impedance", "--C", "5",
                       "--xi", "1.3", "--N", "10", "--out", str(tmp_path / "g")])
        assert rc == 4

    @pytest.mark.parametrize("taumax", ["-6", "0"])
    def test_nonpositive_taumax_is_usage_error(self, tmp_path, taumax):
        rc = cli.main(["g2", "--variant", "numeric", "--C", "5", "--xi", "1",
                       "--N", "100", "--X", "0.01", "--taumax", taumax,
                       "--out", str(tmp_path / "g")])
        assert rc == 2
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("taumax", ["nan", "inf"])
    def test_nonfinite_taumax_is_usage_error(self, tmp_path, capsys, taumax):
        rc = cli.main(["g2", "--variant", "numeric", "--C", "5", "--xi", "1",
                       "--N", "100", "--X", "0.01", "--taumax", taumax,
                       "--out", str(tmp_path / "g")])
        assert rc == 2
        assert "finite --taumax" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("variant", ["numeric", "side-large-C", "atomic-strong"])
    def test_variant_reading_X_needs_it(self, tmp_path, capsys, variant):
        rc = cli.main(["g2", "--variant", variant, "--C", "5", "--xi", "1",
                       "--N", "100", "--out", str(tmp_path / "g")])
        assert rc == 2
        assert f"usage error: g2 --variant {variant} needs --X" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("drop", ["--g-mhz", "--kappa-mhz", "--gamma-mhz"])
    def test_rate_flags_come_together(self, tmp_path, capsys, drop):
        rates = {"--g-mhz": "1.06", "--kappa-mhz": "0.88", "--gamma-mhz": "10"}
        argv = ["g2", "--variant", "atomic-weak-recast", "--N", "310"]
        argv += [a for flag, v in rates.items() if flag != drop for a in (flag, v)]
        assert cli.main(argv + ["--out", str(tmp_path / "g")]) == 2
        assert "rate parameters need" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_needs_atom_number(self, tmp_path):
        rc = cli.main(["g2", "--variant", "atomic-weak", "--C", "5", "--xi", "1",
                       "--out", str(tmp_path / "g")])
        assert rc == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rate_run_records_its_rates(self, tmp_path, fmt):
        rc = cli.main(["g2", "--variant", "atomic-weak-recast", "--g-mhz", "1.06",
                       "--kappa-mhz", "0.88", "--gamma-mhz", "10", "--N", "310",
                       "--format", fmt, "--out", str(tmp_path / "g")])
        assert rc == 0
        path = tmp_path / f"g.{fmt}"
        meta = json.loads(path.read_text())["meta"] if fmt == "json" else {
            k: float(v) for k, v in read_csv(path)[0].items() if k not in ("tool", "variant")}
        want = dataclasses.asdict(from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz"))
        assert {k: meta[k] for k in want} == want


class TestWarningsOnStderr:
    def test_repro_prints_each_warning_once(self, tmp_path):
        # a fresh interpreter, where no test harness records the warnings
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "optbistab.cli", "g2", "--variant", "atomic-weak",
             "--C", "40", "--xi", "0.176", "--N", "310", "--X", "2",
             "--out", str(tmp_path / "g")],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        assert len(warning_lines(proc.stderr, "weak-excitation form at X=2")) == 1
        assert not any("RegimeWarning:" in line for line in proc.stderr.splitlines())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unrecorded_warning_printed_once(self, tmp_path, capsys, fmt):
        rc = cli.main(["scatter", "--phase-sum", "--N", "20", "--cube", "0.5",
                       "--trials", "10", "--format", fmt,
                       "--out", str(tmp_path / "ps")])
        assert rc == 0
        assert len(warning_lines(capsys.readouterr().err,
                                 "minimum interatomic distance")) == 1


class TestSqueezeCommand:
    def test_json_record(self, tmp_path):
        out = tmp_path / "sq.json"
        rc = cli.main(["squeeze", "--C", "5", "--xi", "1", "--X", "0.05",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["squeezed"] is True
        assert doc["ratio"] == pytest.approx(788.06, rel=1e-3)
        assert doc["var_Jpi2"] < 0.25 < doc["var_J0"]

    def test_below_bistability_takes_the_lyapunov_route(self, tmp_path):
        # at C = 2 the weak closed form is far outside its regime at X = 10
        # (ratio 0.01875); the stationary covariance gives 0.00632
        out = tmp_path / "sq.json"
        rc = cli.main(["squeeze", "--C", "2", "--xi", "1", "--X", "10",
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        J = build_jacobian(SystemParams(C=2.0, xi=1.0, N=1), 10.0).entries
        D = build_diffusion(10.0).entries
        cov = scipy.linalg.solve_continuous_lyapunov(J, -D)
        c_nu, c_nu_star = cov[3, 2], cov[3, 3]
        jz = steady_state.steady_moments(10.0)[3]
        assert doc["method"] == "lyapunov"
        assert doc["ratio"] == pytest.approx(abs(c_nu_star) / c_nu, rel=1e-9)
        assert doc["ratio"] == pytest.approx(0.006323, rel=1e-4)
        assert doc["var_Jpi2"] == pytest.approx(0.5 * (c_nu + c_nu_star) - 0.25 * jz,
                                                rel=1e-9)


class TestScatterCommand:
    def test_phase_sum_json(self, tmp_path):
        out = tmp_path / "ps.json"
        rc = cli.main(["scatter", "--phase-sum", "--N", "100", "--cube", "50",
                       "--trials", "1000", "--seed", "7", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mean_abs"] <= 2.0
        assert doc["coherent_bound"] == 99.0
        assert doc["seed"] == 7

    def test_phase_sum_from_geometry_file(self, tmp_path):
        geometry = tmp_path / "atoms.json"
        positions = scattering.sample_positions_cube(30, 20.0, seed=3)
        geometry.write_text(json.dumps(positions.tolist()))
        out = tmp_path / "ps.json"
        rc = cli.main(["scatter", "--phase-sum", "--geometry", str(geometry),
                       "--trials", "200", "--seed", "5", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        stats = scattering.phase_sum_monte_carlo(
            scattering.load_geometry(str(geometry), rng_seed=5), 200)
        assert {k: doc[k] for k in dataclasses.asdict(stats)} == dataclasses.asdict(stats)
        assert (doc["meta"]["geometry_file"], doc["meta"]["N"]) == (str(geometry), 30)

    @pytest.mark.parametrize("flag", [["--N", "50"], ["--cube", "7"]])
    def test_geometry_file_refuses_N_and_cube(self, tmp_path, capsys, flag):
        geometry = tmp_path / "atoms.json"
        geometry.write_text("[[0, 0, 0], [1, 0.5, 0], [0.3, 2, 1]]")
        rc = cli.main(["scatter", "--phase-sum", "--geometry", str(geometry), *flag,
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--geometry gives the positions" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["atoms.json"]

    def test_sampled_cube_side_defaults_to_50(self, tmp_path):
        for name, flag in (("unset", []), ("given", ["--cube", "50"])):
            rc = cli.main(["scatter", "--phase-sum", "--N", "10", "--trials", "20", *flag,
                           "--out", str(tmp_path / name)])
            assert rc == 0
        text = (tmp_path / "unset.csv").read_text()
        assert "# cube_side_lambda=50\n" in text
        assert text == (tmp_path / "given.csv").read_text()

    def test_unset_flags_write_their_defaults(self, tmp_path):
        runs = {
            "flux": (["scatter", "--C", "5", "--xi", "1", "--X", "1"],
                     ["--theta", "1.5707963267948966", "--solid-angle", "1e-3"],
                     ["# theta=1.5707963267948966\n", "# solid_angle=0.001\n"]),
            "phase": (["scatter", "--phase-sum", "--N", "10"], ["--trials", "1000"],
                      ["# trials=1000\n"]),
            "spectrum": (["spectrum", "--method", "weak-closed", "--C", "5", "--xi", "1"],
                         ["--ymax", "30", "--points", "2001"], ["\n30,"]),
            "g2": (["g2", "--variant", "atomic-weak", "--C", "5", "--xi", "1", "--N", "100",
                    "--X", "0.01"], ["--taumax", "6", "--points", "1201"], ["\n6,"]),
        }
        for name, (argv, defaults, lines) in runs.items():
            for tag, flags in (("unset", []), ("given", defaults)):
                assert cli.main(argv + flags + ["--out", str(tmp_path / f"{name}_{tag}")]) == 0
            text = (tmp_path / f"{name}_unset.csv").read_text()
            assert text == (tmp_path / f"{name}_given.csv").read_text(), name
            assert all(line in text for line in lines), name

    def test_flux_csv(self, tmp_path):
        out = tmp_path / "flux"
        rc = cli.main(["scatter", "--C", "5", "--xi", "1", "--X", "1",
                       "--theta", "1.5707963267948966", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(f"{out}.csv")
        assert header[0] == "flux"
        assert float(rows[0][0]) == pytest.approx((3 / (8 * np.pi)) * 0.125, rel=1e-9)


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _parse_back(path):
    """Records of a written file as a list of {column: value} dicts."""
    if path.suffix == ".csv":
        _, header, rows = read_csv(path)
        return [dict(zip(header, map(_cell, row))) for row in rows]
    doc = json.loads(path.read_text())
    assert isinstance(doc["meta"], dict) and doc["warnings"] == []
    if "rows" in doc:
        return [dict(zip(doc["columns"], row)) for row in doc["rows"]]
    return [{k: v for k, v in doc.items() if k not in ("meta", "tool", "warnings")}]


def _points(points):
    return [{"X": pt.X, "Y": pt.Y, "branch": pt.branch} for pt in points]


def _phase_sum():
    positions = scattering.sample_positions_cube(100, 50.0, seed=7)
    geom = scattering.ScatterGeometry(positions=positions, rng_seed=7)
    return [dataclasses.asdict(scattering.phase_sum_monte_carlo(geom, 200))]


def _g2_rows(series):
    return [{"tau_bar": t, "g2": v} for t, v in zip(series.tau_bar, series.values)]


P51 = SystemParams(C=5.0, xi=1.0, N=1)
WRITER_CASES = {
    "solve-csv": (["solve", "--C", "5", "--y", "6"],
                  lambda: _points(steady_state.solve_state_equation(5.0, 6.0))),
    "solve-json": (["solve", "--C", "5", "--y", "6"],
                   lambda: _points(steady_state.solve_state_equation(5.0, 6.0))),
    "curve-json": (["curve", "--C", "5", "--xmax", "5", "--points", "50"],
                   lambda: [dict(zip(("X", "Y", "branch"), r))
                            for r in steady_state.curve_points(5.0, 5.0, n=50)[0]]),
    "squeeze-csv": (["squeeze", "--C", "5", "--xi", "1", "--X", "0.05"],
                    lambda: [dataclasses.asdict(
                        correlations.quadrature_variances(P51, 0.05))]),
    "scatter-json": (["scatter", "--C", "5", "--xi", "1", "--X", "1"],
                     lambda: [dataclasses.asdict(
                         scattering.side_flux(P51, 1.0, np.pi / 2, 1e-3))]),
    "phase-sum-csv": (["scatter", "--phase-sum", "--N", "100", "--trials", "200",
                       "--seed", "7"], _phase_sum),
    "g2-numeric-csv": (["g2", "--variant", "numeric", "--C", "5", "--xi", "1",
                        "--N", "100", "--X", "0.01", "--points", "11"],
                       lambda: _g2_rows(correlations.g2_numeric(
                           SystemParams(C=5.0, xi=1.0, N=100), 0.01,
                           np.linspace(0.0, 6.0, 11)))),
    "g2-rates-json": (["g2", "--variant", "atomic-weak-recast", "--g-mhz", "1.06",
                       "--kappa-mhz", "0.88", "--gamma-mhz", "10", "--N", "310"],
                      lambda: _g2_rows(correlations.g2_closed_form(
                          "atomic-weak-recast",
                          from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz"),
                          tau_bar_grid=np.linspace(0.0, 6.0, 1201)))),
}


class TestWriters:
    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_file_parses_back_to_result(self, tmp_path, capsys, case):
        argv, expected = WRITER_CASES[case]
        fmt = case.rsplit("-", 1)[1]
        assert cli.main(argv + ["--format", fmt, "--out", str(tmp_path / case)]) == 0
        path = tmp_path / f"{case}.{fmt}"
        assert capsys.readouterr().out == f"{path}\n"
        assert _parse_back(path) == expected()


class TestPresets:
    def test_seed_reproducibility_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["preset", "fig1c", "--out", str(a)])
        cli.main(["preset", "fig1c", "--out", str(b)])
        for suffix in ("weak_closed", "strong_coupling"):
            assert (tmp_path / f"a_{suffix}.csv").read_bytes() == \
                (tmp_path / f"b_{suffix}.csv").read_bytes()

    def test_spectrum_preset_dispatch(self, tmp_path):
        out = tmp_path / "fig1d"
        rc = cli.main(["spectrum", "--preset", "fig1d", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(f"{out}_upper_branch.csv")
        data = numeric_rows(rows)
        peak_y = abs(data[np.argmax(data[:, 1] * (np.abs(data[:, 0]) > 10)), 0])
        assert peak_y == pytest.approx(np.sqrt(2) * 20.0, abs=0.2)


class TestExitCodes:
    def test_numeric_failure_maps_to_three(self, monkeypatch, tmp_path):
        def boom(args):
            raise NumericsError("synthetic failure")

        # build_parser binds command functions by global lookup, so patching
        # the module attribute reroutes dispatch
        monkeypatch.setattr(cli, "cmd_curve", boom)
        rc = cli.main(["curve", "--C", "5", "--xmax", "1",
                       "--out", str(tmp_path / "c")])
        assert rc == 3

    def test_refused_covariance_maps_to_three(self, tmp_path, capsys):
        # a solve off by a relative 1e-6 fails the covariance's residual guard
        solve = np.linalg.solve
        with mock.patch.object(np.linalg, "solve",
                               lambda A, b: (1.0 + 1e-6) * solve(A, b)):
            rc = cli.main(["spectrum", "--method", "numeric", "--C", "5", "--xi", "1",
                           "--X", "0.01", "--out", str(tmp_path / "s")])
        assert rc == 3
        assert "numerical failure: linear solve residual" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["squeeze", "--C", "5", "--xi", "1", "--X", "nan"],
        ["scatter", "--C", "5", "--xi", "1", "--X", "nan"],
        ["solve", "--C", "5", "--y", "nan"],
        ["g2", "--variant", "atomic-weak", "--C", "5", "--xi", "1", "--N", "100",
         "--X", "nan"],
        ["spectrum", "--method", "numeric", "--C", "5", "--xi", "1", "--X", "inf"],
        ["g2", "--variant", "numeric", "--C", "5", "--xi", "1", "--N", "100",
         "--X", "nan"],
        ["spectrum", "--method", "numeric", "--C", "5", "--xi", "1", "--Y", "nan"],
        ["spectrum", "--method", "weak-closed", "--C", "5", "--xi", "1", "--ymax", "inf"],
        ["spectrum", "--method", "numeric", "--C", "5", "--xi", "1", "--X", "0.01",
         "--ymax", "nan"],
        ["curve", "--C", "5", "--xmax", "inf"],
        ["curve", "--C", "5", "--xmax", "nan"],
        ["scatter", "--phase-sum", "--N", "10", "--cube", "nan"],
        ["scatter", "--phase-sum", "--N", "10", "--cube", "inf"],
    ])
    def test_nonfinite_amplitude_or_drive_is_usage_error(self, tmp_path, capsys, argv):
        rc = cli.main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--method", "weak-closed", "--C", "5", "--xi", "1", "--ymax", "0"],
        ["spectrum", "--method", "weak-closed", "--C", "5", "--xi", "1", "--ymax", "-3"],
        ["spectrum", "--method", "weak-closed", "--C", "5", "--xi", "1", "--points", "0"],
        ["spectrum", "--method", "numeric", "--C", "5", "--xi", "1", "--X", "0.01",
         "--points", "0"],
        ["scatter", "--phase-sum", "--N", "10", "--cube", "-5"],
        ["scatter", "--phase-sum", "--N", "10", "--cube", "0"],
        ["scatter", "--phase-sum", "--N", "10", "--trials", "0"],
        ["scatter", "--C", "5", "--xi", "1", "--X", "1", "--solid-angle", "0"],
        ["g2", "--variant", "atomic-weak", "--C", "5", "--xi", "1", "--N", "100",
         "--X", "0.01", "--points", "0"],
        ["curve", "--C", "5", "--xmax", "5", "--points", "0"],
    ])
    def test_nonpositive_size_or_range_is_usage_error(self, tmp_path, capsys, argv):
        rc = cli.main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--preset", "fig1c", "--C", "99", "--xi", "3",
          "--method", "bad-cavity"], "--C"),
        (["spectrum", "--preset", "fig1c", "--method", "numeric"], "--method"),
        (["spectrum", "--preset", "fig1d", "--X", "20"], "--X"),
        (["spectrum", "--preset", "fig1d", "--kind", "atomic"], "--kind"),
        (["g2", "--preset", "fig2a", "--X", "0.01"], "--X"),
        (["g2", "--preset", "fig2a", "--variant", "numeric"], "--variant"),
        (["g2", "--preset", "fig2a", "--kappa-mhz", "0.88"], "--kappa-mhz"),
    ])
    def test_preset_takes_no_parameter_or_method_flag(self, tmp_path, capsys, argv, flag):
        rc = cli.main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"takes no {flag}\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, refusal", [
        (["spectrum", "--preset", "fig1c", "--ymax", "5", "--points", "11"],
         "--preset fig1c takes no --ymax"),
        (["spectrum", "--preset", "fig1c", "--points", "11"], "--preset fig1c takes no --points"),
        (["g2", "--preset", "fig2a", "--taumax", "1", "--points", "5"],
         "--preset fig2a takes no --points"),
        (["g2", "--preset", "fig2a", "--taumax", "1"], "--preset fig2a takes no --taumax"),
        (["scatter", "--C", "5", "--xi", "1", "--X", "1", "--cube", "7", "--trials", "3",
          "--geometry", "nofile.json"], "scatter flux takes no --geometry"),
        (["scatter", "--C", "5", "--xi", "1", "--X", "1", "--cube", "7"],
         "scatter flux takes no --cube"),
        (["scatter", "--C", "5", "--xi", "1", "--X", "1", "--trials", "3"],
         "scatter flux takes no --trials"),
        (["scatter", "--phase-sum", "--N", "10", "--C", "5", "--xi", "1", "--X", "3",
          "--theta", "0.1"], "scatter --phase-sum takes no --C"),
        (["scatter", "--phase-sum", "--N", "10", "--X", "3"],
         "scatter --phase-sum takes no --X"),
        (["scatter", "--phase-sum", "--N", "10", "--theta", "0.1"],
         "scatter --phase-sum takes no --theta"),
        (["scatter", "--phase-sum", "--N", "10", "--solid-angle", "0.1"],
         "scatter --phase-sum takes no --solid-angle"),
        (["scatter", "--phase-sum", "--N", "10", "--g-mhz", "1"],
         "scatter --phase-sum takes no --g-mhz"),
        (["spectrum", "--method", "numeric", "--C", "5", "--xi", "1", "--X", "0.01",
          "--Y", "6", "--branch", "upper"], "spectrum --X takes no --Y"),
        (["spectrum", "--method", "numeric", "--C", "5", "--xi", "1", "--X", "0.01",
          "--branch", "upper"], "spectrum --X takes no --branch"),
        (["spectrum", "--method", "weak-closed", "--C", "5", "--xi", "1", "--X", "3",
          "--Y", "6"], "spectrum --X takes no --Y"),
        *((["spectrum", "--method", method, "--C", "5", "--xi", "1", "--X", "3"],
           f"spectrum --method {method} takes no --X")
          for method in ("weak-closed", "bad-cavity", "good-cavity", "strong-coupling")),
        (["spectrum", "--method", "bad-cavity", "--C", "5", "--xi", "500", "--Y", "6",
          "--branch", "upper"], "spectrum --method bad-cavity takes no --Y"),
        (["spectrum", "--method", "upper-forward-lorentzian", "--C", "5", "--xi", "1",
          "--Y", "30"], "spectrum --method upper-forward-lorentzian takes no --Y"),
        *((["g2", "--variant", variant, "--C", "5", "--xi", "1", "--N", "100", "--X", "7"],
           f"g2 --variant {variant} takes no --X")
          for variant in ("atomic-impedance", "forward-impedance")),
    ])
    def test_run_refuses_the_flags_it_ignores(self, tmp_path, capsys, argv, refusal):
        rc = cli.main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"usage error: {refusal}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--method", "upper-forward-lorentzian", "--C", "5", "--xi", "1",
         "--X", "30"],
        *(["g2", "--variant", variant, "--C", "5", "--xi", "1", "--N", "100", "--X", "0.01"]
          for variant in ("atomic-weak", "forward-weak", "single-atom-pure-state")),
    ])
    def test_form_whose_guards_read_X_takes_it(self, tmp_path, argv):
        # these forms' values read no X, but a regime guard does
        assert cli.main(argv + ["--points", "11", "--out", str(tmp_path / "o")]) == 0
        meta, _, _ = read_csv(tmp_path / "o.csv")
        assert float(meta["X"]) == float(argv[-1])

    @pytest.mark.parametrize("flag, name, text, argv", [
        ("params", "missing.json", None,
         ["spectrum", "--method", "numeric", "--X", "0.01"]),
        ("params", "bad.json", "not json",
         ["spectrum", "--method", "numeric", "--X", "0.01"]),
        ("params", "number.json", "5", ["spectrum", "--method", "numeric", "--X", "0.01"]),
        ("params", "text.json", '{"C": "five", "xi": 1, "N": 1}',
         ["spectrum", "--method", "numeric", "--X", "0.01"]),
        ("geometry", "missing.json", None, ["scatter", "--phase-sum"]),
        ("geometry", "bad.json", "[[0, 0, 0],", ["scatter", "--phase-sum"]),
        ("geometry", "ragged.json", "[[0, 0, 0], [1, 2]]", ["scatter", "--phase-sum"]),
        ("geometry", "flat.json", "[0, 0, 0]", ["scatter", "--phase-sum"]),
        ("geometry", "object.json", '{"x": 1}', ["scatter", "--phase-sum"]),
        ("geometry", "nan.json", "[[0, 0, 0], [NaN, 0, 0]]", ["scatter", "--phase-sum"]),
        ("geometry", "one.json", "[[0, 0, 0]]", ["scatter", "--phase-sum"]),
    ])
    def test_unusable_input_file_is_usage_error(self, tmp_path, capsys,
                                                flag, name, text, argv):
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        path = inputs / name
        if text is not None:
            path.write_text(text)
        rc = cli.main(argv + [f"--{flag}", str(path), "--out", str(out / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"usage error: --{flag} file '{path}'")
        assert not list(out.iterdir())

    def test_params_file_with_wrong_keys_stays_a_parameter_error(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"C": 5.0}))
        rc = cli.main(["spectrum", "--method", "numeric", "--X", "0.01",
                       "--params", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("parameter error: ")
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["preset", "nope"])
        assert err.value.code == 2

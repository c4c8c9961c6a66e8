"""State equation, branches, turning points, mean-field flow."""

import math

import numpy as np
import pytest

from conftest import reference_maxwell_bloch
from optbistab.numerics import TOL, DivergenceError
from optbistab.params import SystemParams
from optbistab.steady_state import (
    evaluate_drive,
    integrate_maxwell_bloch,
    solve_state_equation,
    steady_mb_state,
    steady_moments,
    turning_points,
)


class TestEvaluateDrive:
    def test_direct_substitution(self):
        assert evaluate_drive(5.0, 1.0) == pytest.approx(6.0, abs=1e-15)
        assert evaluate_drive(5.0, 3.0) == pytest.approx(6.0, abs=1e-14)

    def test_zero(self):
        for C in (0.5, 4.0, 50.0):
            assert evaluate_drive(C, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            evaluate_drive(5.0, -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
class TestRejectsNonFinite:
    def test_evaluate_drive(self, bad):
        with pytest.raises(ValueError, match="X must be finite"):
            evaluate_drive(5.0, bad)

    def test_steady_moments(self, bad):
        with pytest.raises(ValueError, match="X must be finite"):
            steady_moments(bad)

    def test_solve_state_equation(self, bad):
        with pytest.raises(ValueError, match="Y must be finite"):
            solve_state_equation(5.0, bad)


class TestSolveStateEquation:
    def test_factorized_cubic(self):
        pts = solve_state_equation(5.0, 6.0)
        assert [p.branch for p in pts] == ["lower", "unstable-middle", "upper"]
        assert [p.X for p in pts] == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)

    def test_monostable_below_threshold(self):
        pts = solve_state_equation(1.0, 3.0)
        assert len(pts) == 1 and pts[0].branch == "monostable"

    def test_zero_drive(self):
        pts = solve_state_equation(7.0, 0.0)
        assert len(pts) == 1 and pts[0].X == 0.0

    def test_turning_label_at_turning_drive(self):
        tp = turning_points(5.0)
        pts = solve_state_equation(5.0, tp.Y_minus)
        near = [p for p in pts if abs(p.X - tp.X_minus) < 1e-5]
        assert near and all(p.branch == "turning" for p in near)

    def test_root_consistency_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            C = float(rng.uniform(0.2, 20.0))
            Y = float(rng.uniform(0.0, 30.0))
            for p in solve_state_equation(C, Y):
                assert abs(evaluate_drive(C, p.X) - Y) <= 1e-9 * max(1.0, Y)

    def test_every_root_carries_the_label_of_its_interval(self):
        # monostable for C <= 4; above, turning near a turning point, else
        # lower below X_minus, upper above X_plus and unstable-middle between
        rng = np.random.default_rng(24)
        for C in [*rng.uniform(0.2, 4.0, 50), 4.0, *rng.uniform(4.0, 50.0, 200), 50.0]:
            tp = turning_points(C)
            # drives up to twice the upper turning drive reach both single-root sides
            for Y in (0.0, *rng.uniform(0.0, 2.0 * tp.Y_minus if C > 4.0 else 30.0, 5)):
                for p in solve_state_equation(C, Y):
                    if C <= 4.0:
                        expected = "monostable"
                    elif min(abs(p.X / Xt - 1.0) for Xt in (tp.X_minus, tp.X_plus)) \
                            <= TOL.turning_label_rel:
                        expected = "turning"
                    else:
                        expected = ("lower" if p.X < tp.X_minus else "upper"
                                    if p.X > tp.X_plus else "unstable-middle")
                    assert p.branch == expected, (C, Y, p)

    def test_branch_ordering_interleaves_turning_points(self):
        tp = turning_points(5.0)
        pts = solve_state_equation(5.0, 6.0)
        x1, x2, x3 = (p.X for p in pts)
        assert x1 < tp.X_minus < x2 < tp.X_plus < x3

    def test_moments_attached(self):
        (pt,) = solve_state_equation(1.0, 2.0)
        a, jm, jp, jz = pt.moments
        assert a == pt.X
        assert jm == jp == pytest.approx(-pt.X / (1 + pt.X**2))


class TestTurningPoints:
    def test_threshold_case(self):
        tp = turning_points(4.0)
        assert tp.degenerate and not tp.exists
        assert tp.X_minus == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert tp.X_plus == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert tp.Y_minus == pytest.approx(3 * math.sqrt(3.0), abs=1e-12)

    def test_above_threshold(self):
        tp = turning_points(5.0)
        assert tp.exists
        assert tp.X_minus**2 == pytest.approx(4 - math.sqrt(5.0), abs=1e-12)
        assert tp.X_plus**2 == pytest.approx(4 + math.sqrt(5.0), abs=1e-12)

    def test_below_threshold(self):
        assert not turning_points(2.0).exists

    def test_slope_positive_outside_window(self):
        tp = turning_points(5.0)
        h = 1e-6
        for X in np.concatenate([
            np.linspace(0.01, tp.X_minus * 0.98, 25),
            np.linspace(tp.X_plus * 1.02, 10.0, 25),
        ]):
            slope = (evaluate_drive(5.0, X + h) - evaluate_drive(5.0, X - h)) / (2 * h)
            assert slope > 0


class TestSteadyMoments:
    def test_ground_state(self):
        assert steady_moments(0.0) == (0.0, 0.0, 0.0, -1.0)

    def test_half_saturation(self):
        a, jm, jp, jz = steady_moments(1.0)
        assert jm == pytest.approx(-0.5) and jz == pytest.approx(-0.5)

    def test_saturation_limit(self):
        a, jm, jp, jz = steady_moments(1e6)
        assert abs(jm) < 2e-6 and abs(jz) < 2e-12

    def test_inversion_range_sweep(self):
        for X in np.linspace(0.0, 50.0, 101):
            jz = steady_moments(X)[3]
            assert -1.0 <= jz < 0.0


class TestMaxwellBloch:
    def test_stable_fixed_point_is_stationary(self, weak_params):
        x0 = steady_mb_state(1.0)
        _, states = integrate_maxwell_bloch(weak_params, 6.0, x0, 50.0, dt=1e-3)
        assert np.max(np.abs(states - x0)) <= 1e-8

    def test_undriven_ground_state_stationary(self, weak_params):
        x0 = np.array([0.0, 0.0, 0.0, 0.0, -1.0])
        _, states = integrate_maxwell_bloch(weak_params, 0.0, x0, 10.0, dt=1e-3)
        assert np.max(np.abs(states - x0)) <= 1e-12

    def test_middle_root_unstable(self, weak_params):
        x0 = steady_mb_state(2.0)
        x0[0] += 1e-3
        _, states = integrate_maxwell_bloch(weak_params, 6.0, x0, 150.0, dt=1e-3)
        final = states[-1]
        d_lower = np.max(np.abs(final - steady_mb_state(1.0)))
        d_upper = np.max(np.abs(final - steady_mb_state(3.0)))
        assert min(d_lower, d_upper) < 1e-3
        assert abs(final[0] - 2.0) > 0.5

    def test_relaxation_onto_every_stable_root(self, weak_params):
        for X in (1.0, 3.0):
            x0 = steady_mb_state(X) + 1e-2
            _, states = integrate_maxwell_bloch(weak_params, 6.0, x0, 130.0, dt=1e-3)
            assert np.max(np.abs(states[-1] - steady_mb_state(X))) <= 1e-8

    def test_bad_initial_shape_rejected(self, weak_params):
        with pytest.raises(ValueError):
            integrate_maxwell_bloch(weak_params, 6.0, np.zeros(4), 1.0)

    @pytest.mark.parametrize("tau_bar_max, dt", [(1.0, 0.0), (1.0, -1e-3), (0.0, 1e-3),
                                                 (-1.0, 1e-3)])
    def test_nonpositive_step_or_span_rejected(self, weak_params, tau_bar_max, dt):
        with pytest.raises(ValueError):
            integrate_maxwell_bloch(weak_params, 6.0, steady_mb_state(1.0), tau_bar_max, dt)


def _bistable_drive(C):
    """A drive between the turning drives, where three roots coexist."""
    tp = turning_points(C)
    return tp.Y_plus + 0.4 * (tp.Y_minus - tp.Y_plus)


class TestScalarKernel:
    """The scalar RK4 reproduces the vector RK4 on a numpy right-hand side
    bit for bit: same operation order, same rounding."""

    @pytest.mark.parametrize("C, xi, Y, root", [
        (5.0, 1.0, 6.0, 0), (5.0, 1.0, 6.0, 1), (5.0, 1.0, 6.0, 2),
        (33.0, 3.7, _bistable_drive(33.0), 0), (33.0, 3.7, _bistable_drive(33.0), 1),
        (33.0, 3.7, _bistable_drive(33.0), 2),
        (5.0, 500.0, 6.0, 0),     # stiff bad cavity: xi dt = 0.5
        (5.0, 500.0, 6.0, None),  # and its switch-on from the ground state
    ], ids=["weak-lower", "weak-middle", "weak-upper", "bistable-lower",
            "bistable-middle", "bistable-upper", "bad-cavity", "bad-cavity-switch-on"])
    def test_bit_identical_to_vector_rk4(self, C, xi, Y, root):
        # near a root the RK4 increments are far below an ulp of the state,
        # so only the switch-on transient exposes a changed summation order
        params = SystemParams(C=C, xi=xi, N=10**4)
        if root is None:
            x0 = np.array([0.0, 0.0, 0.0, 0.0, -1.0])
        else:
            s0 = steady_mb_state(solve_state_equation(C, Y)[root].X)
            u = np.random.default_rng(root).normal(size=5)
            x0 = s0 + 1e-3 * (1.0 + np.abs(s0)) * u
        times, states = integrate_maxwell_bloch(params, Y, x0, 3.0)
        ref_times, ref_states = reference_maxwell_bloch(params, Y, x0, 3.0)
        assert states.shape == (3001, 5) and states.dtype == np.float64
        assert states.flags.c_contiguous
        assert np.array_equal(times, ref_times)
        assert np.array_equal(states, ref_states)

    def test_divergence_names_the_reference_step(self, weak_params):
        x0 = np.array([30.0, 30.0, 0.0, 0.0, 30.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as ref:
            reference_maxwell_bloch(weak_params, 6.0, x0, 5.0, dt=0.1)
        with pytest.raises(DivergenceError) as got:
            integrate_maxwell_bloch(weak_params, 6.0, x0, 5.0, dt=0.1)
        assert got.value.step == ref.value.step > 1

    @pytest.mark.parametrize("x0", [[30.0, 30.0, 0.0, 0.0, 30.0], [np.inf, 0.0, 0.0, 0.0, -1.0],
                                    [0.0, 0.0, np.nan, 0.0, -1.0]],
                             ids=["blow-up", "inf-start", "nan-start"])
    def test_early_divergence_in_a_long_run_names_the_reference_step(self, weak_params, x0):
        # finiteness is checked after the run, which goes on for 5,000 steps
        # past the blow-up; the first non-finite row must still be the step
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as ref:
            reference_maxwell_bloch(weak_params, 6.0, np.array(x0), 500.0, dt=0.1)
        with pytest.raises(DivergenceError) as got:
            integrate_maxwell_bloch(weak_params, 6.0, np.array(x0), 500.0, dt=0.1)
        assert got.value.step == ref.value.step <= 10
        assert str(got.value) == str(ref.value)
        assert str(ref.value) == f"state became non-finite at step {ref.value.step}"

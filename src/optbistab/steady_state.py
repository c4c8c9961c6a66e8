"""Semiclassical steady states of the bistable absorber.

The state equation Y = X (1 + 2C/(1+X^2)) relates the scaled intracavity
amplitude X to the scaled drive Y. For C > 4 it is S-shaped: three roots
coexist between the turning drives and the middle one is dynamically
unstable. The mean-field (Maxwell-Bloch) flow is integrated in scaled time
tau_bar = gamma*t/2 with the five-component state
(<a>, <a_dag>, <J_minus>, <J_plus>, <J_z>).
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .numerics import TOL, DivergenceError


@dataclass(frozen=True)
class OperatingPoint:
    """One root of the state equation with its steady moments."""

    X: float
    Y: float
    branch: str  # branch_label: monostable | lower | unstable-middle | upper | turning
    moments: tuple  # (<a>, <J_minus>, <J_plus>, <J_z>)


@dataclass(frozen=True)
class TurningPoints:
    X_minus: float | None
    X_plus: float | None
    Y_minus: float | None
    Y_plus: float | None
    exists: bool
    degenerate: bool = False  # C exactly at the bistability threshold


def evaluate_drive(C, X):
    """Drive amplitude Y sustaining intracavity amplitude X."""
    if not 0 <= X < math.inf:
        raise ValueError("X must be finite and nonnegative")
    return X * (1.0 + 2.0 * C / (1.0 + X * X))


def steady_moments(X):
    """Steady-state moments (<a>, <J_minus>, <J_plus>, <J_z>) at amplitude X."""
    if not 0 <= X < math.inf:
        raise ValueError("X must be finite and nonnegative")
    sat = 1.0 / (1.0 + X * X)
    return (X, -X * sat, -X * sat, -sat)


def turning_points(C) -> TurningPoints:
    """Turning points of the S-curve; they exist only for C > 4."""
    if C <= 0:
        raise ValueError("C must be positive")
    if C < 4.0:
        return TurningPoints(None, None, None, None, exists=False)
    disc = math.sqrt(C * (C - 4.0))
    xm2 = C - 1.0 - disc
    xp2 = C - 1.0 + disc
    Xm, Xp = math.sqrt(xm2), math.sqrt(xp2)
    return TurningPoints(
        X_minus=Xm, X_plus=Xp,
        Y_minus=evaluate_drive(C, Xm), Y_plus=evaluate_drive(C, Xp),
        exists=C > 4.0, degenerate=(C == 4.0),
    )


def _cubic_roots(C, Y):
    """Real nonnegative roots of X^3 - Y X^2 + (1+2C) X - Y.

    Trigonometric method in the three-real-root case, Cardano otherwise,
    then one Newton polish per root against cancellation near the turning
    points.
    """
    b, c, d = -Y, 1.0 + 2.0 * C, -Y
    # depressed cubic t^3 + p t + q with X = t - b/3
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    roots = []
    if p < 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        disc = (q * q / 4.0) + (p**3 / 27.0)
        # near-zero discriminant = merging turning-point roots; treat as
        # three real (clamped acos) so the double root is not lost to rounding
        disc_scale = max(q * q / 4.0, abs(p) ** 3 / 27.0, 1e-300)
        if disc <= 1e-12 * disc_scale:
            for k in range(3):
                roots.append(m * math.cos((phi - 2.0 * math.pi * k) / 3.0) + shift)
        else:
            # one real root; hyperbolic form avoids complex arithmetic
            t = -2.0 * math.copysign(1.0, q) * math.sqrt(-p / 3.0) * math.cosh(
                math.acosh(-3.0 * abs(q) / (p * m)) / 3.0
            )
            roots.append(t + shift)
    elif p > 0.0:
        t = -2.0 * math.sqrt(p / 3.0) * math.sinh(
            math.asinh(3.0 * q / (p * math.sqrt(p / 3.0)) / 2.0) / 3.0
        )
        roots.append(t + shift)
    else:
        roots.append(-math.copysign(abs(q) ** (1.0 / 3.0), q) + shift)

    def f(x):
        return ((x + b) * x + c) * x + d

    def fp(x):
        return (3.0 * x + 2.0 * b) * x + c

    polished = []
    for x in roots:
        slope = fp(x)
        if slope != 0.0:
            step = f(x) / slope
            # skip the polish where f' ~ 0 (double root) would throw it away
            if abs(step) <= 1e-6 * max(1.0, abs(x)):
                x = x - step
        if x > -1e-12:
            polished.append(max(x, 0.0))
    return sorted(polished)


def branch_label(X, tp):
    """The branch of amplitude X on the curve with turning points tp.

    "monostable" when C <= 4; "turning" within the turning tolerance of a
    turning point, where the linearization is marginal; otherwise "lower"
    below X_minus, "unstable-middle" up to X_plus and "upper" above it.
    """
    if not tp.exists:
        return "monostable"
    for Xt in (tp.X_minus, tp.X_plus):
        if abs(X - Xt) <= TOL.turning_label_rel * max(1.0, Xt):
            return "turning"
    if X < tp.X_minus:
        return "lower"
    return "unstable-middle" if X <= tp.X_plus else "upper"


def solve_state_equation(C, Y):
    """All nonnegative steady amplitudes for drive Y, sorted by ascending X
    and labelled by branch_label. Three roots occur only for C > 4 with Y
    strictly between the turning drives.
    """
    if not 0 <= Y < math.inf:
        raise ValueError("Y must be finite and nonnegative")
    Y = abs(Y)  # the drive -0.0 is 0.0, whose one root is X = 0.0
    tp = turning_points(C)
    return [OperatingPoint(X, Y, branch_label(X, tp), steady_moments(X))
            for X in _cubic_roots(C, Y)]


def integrate_maxwell_bloch(params, Y, initial, tau_bar_max, dt=1e-3):
    """Mean-field trajectory in scaled time tau_bar.

    State order: (<a>, <a_dag>, <J_minus>, <J_plus>, <J_z>). Fixed-step RK4;
    initial states near a stable root relax onto the steady solution of the
    state equation. Returns (times, states) with states[k] the state at
    times[k]. Raises DivergenceError with the first bad step index if the
    state leaves the finite range, checked after the run: each update adds to
    the old value, so a non-finite component stays non-finite, and a
    diverging run runs its full length before it raises.

    The step runs on five Python floats, since numpy's per-call overhead
    would dominate a 5-vector; its operation order is that of a vector RK4,
    x + (dt/6)*(((k1 + 2 k2) + 2 k3) + k4) with stages at x + (dt/2)*k.
    Each stage reads t - a for -a + t, which IEEE arithmetic rounds alike.
    """
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (5,):
        raise ValueError("initial state must have 5 components")
    if dt <= 0 or tau_bar_max <= 0:
        raise ValueError("dt and tau_bar_max must be positive")
    n_steps = int(round(tau_bar_max / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    xi, two_C, Y = float(params.xi), 2.0 * float(params.C), float(Y)
    h, w = 0.5 * dt, dt / 6.0
    a, ad, jm, jp, jz = initial.tolist()
    rows = array("d", (a, ad, jm, jp, jz))
    for _ in range(n_steps):
        a1 = xi * (two_C * jm - a + Y)
        d1 = xi * (two_C * jp - ad + Y)
        m1 = jz * a - jm
        p1 = jz * ad - jp
        z1 = -2.0 * (jz + 1.0) - (jp * a + jm * ad)
        sa = a + h * a1
        sd = ad + h * d1
        sm = jm + h * m1
        sp = jp + h * p1
        sz = jz + h * z1
        a2 = xi * (two_C * sm - sa + Y)
        d2 = xi * (two_C * sp - sd + Y)
        m2 = sz * sa - sm
        p2 = sz * sd - sp
        z2 = -2.0 * (sz + 1.0) - (sp * sa + sm * sd)
        sa = a + h * a2
        sd = ad + h * d2
        sm = jm + h * m2
        sp = jp + h * p2
        sz = jz + h * z2
        a3 = xi * (two_C * sm - sa + Y)
        d3 = xi * (two_C * sp - sd + Y)
        m3 = sz * sa - sm
        p3 = sz * sd - sp
        z3 = -2.0 * (sz + 1.0) - (sp * sa + sm * sd)
        sa = a + dt * a3
        sd = ad + dt * d3
        sm = jm + dt * m3
        sp = jp + dt * p3
        sz = jz + dt * z3
        a4 = xi * (two_C * sm - sa + Y)
        d4 = xi * (two_C * sp - sd + Y)
        m4 = sz * sa - sm
        p4 = sz * sd - sp
        z4 = -2.0 * (sz + 1.0) - (sp * sa + sm * sd)
        a = a + w * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
        ad = ad + w * (((d1 + 2.0 * d2) + 2.0 * d3) + d4)
        jm = jm + w * (((m1 + 2.0 * m2) + 2.0 * m3) + m4)
        jp = jp + w * (((p1 + 2.0 * p2) + 2.0 * p3) + p4)
        jz = jz + w * (((z1 + 2.0 * z2) + 2.0 * z3) + z4)
        rows.extend((a, ad, jm, jp, jz))
    states = np.frombuffer(rows, dtype=float).reshape(n_steps + 1, 5)
    bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
    if bad.size:
        step = int(bad[0]) + 1
        raise DivergenceError(f"state became non-finite at step {step}", step=step)
    return times, states


def steady_mb_state(X):
    """Mean-field fixed point as a 5-vector for amplitude X."""
    a, jm, jp, jz = steady_moments(X)
    return np.array([a, a, jm, jp, jz])


def curve_points(C, x_max, n=400):
    """Sampled bistability curve: list of (X, Y, branch) rows for export."""
    tp = turning_points(C)
    rows = [(X, float(evaluate_drive(C, X)), branch_label(X, tp))
            for X in np.linspace(0.0, x_max, n).tolist()]
    return rows, tp

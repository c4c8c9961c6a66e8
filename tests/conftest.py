"""Shared fixtures and independent oracle routes for the test suite.

The oracles here deliberately avoid the package's own code paths: the
stationary covariance is cross-checked against scipy's Bartels-Stewart
solver and against a 25-unknown Kronecker-product solve, and propagators
against series expansion / RK4. The Maxwell-Bloch reference runs the
vector RK4 of `numerics.integrate_ode` on a numpy right-hand side, the form
the scalar kernel in `steady_state` must reproduce bit for bit. The wide
mirror-exact grid of `half_grid` serves the evenness tests of the spectra
and the resolvent. The reference writers encode a table row by row and cell
by cell, CSV through `output._fmt` and JSON through `json.dump` itself; the
column-wise writers in `output` must reproduce their bytes.
"""

import json

import numpy as np
import pytest
from scipy.linalg import solve_lyapunov as scipy_lyapunov

from optbistab import __version__, covariance, output
from optbistab import params as params_mod
from optbistab.lindyn import build_diffusion, build_jacobian
from optbistab.numerics import integrate_ode


@pytest.fixture(autouse=True)
def fresh_linear_model():
    """Every test starts with no linearized model kept by covariance.linearize,
    so a model built by an earlier test can neither hide a fault injected into
    the build nor change a call count."""
    covariance._linear_model.cache_clear()


@pytest.fixture
def weak_params():
    return params_mod.SystemParams(C=5.0, xi=1.0, N=10**4)


@pytest.fixture
def fig2a_params():
    return params_mod.SystemParams(C=40.0, xi=0.176, N=310)


def oracle_covariance_scipy(J, D):
    """Stationary covariance via scipy (independent of the package solver)."""
    return scipy_lyapunov(J, -D)


def oracle_covariance_kron(J, D):
    """25-unknown vectorized solve of J C + C J^T = -D."""
    n = J.shape[0]
    I = np.eye(n)
    A = np.kron(I, J) + np.kron(J, I)  # acts on vec(C) with C symmetric
    x = np.linalg.solve(A, -D.reshape(-1))
    return x.reshape(n, n)


def full_system(params, X):
    J = build_jacobian(params, X, regime="full")
    D = build_diffusion(X)
    return J, D


def half_grid(core, y_max):
    """Nonnegative half of a wide frequency grid: a dense core [0, core] of
    20,001 points and 4,000 log-spaced points out to y_max. Mirrored about 0
    it gives a grid g with g == -g[::-1] exactly."""
    return np.concatenate([np.linspace(0.0, core, 20001),
                           np.geomspace(core, y_max, 4001)[1:]])


def integrate_linear_ode(A, x0, t_max, dt):
    """RK4 trajectory of dx/dt = A x (oracle companion to matrix_exponential)."""
    A = np.asarray(A)
    x0 = np.asarray(x0)
    x0 = x0.astype(np.result_type(A.dtype, x0.dtype, float))
    return integrate_ode(lambda x: A @ x, x0, t_max, dt)


def reference_maxwell_bloch(params, Y, initial, tau_bar_max, dt=1e-3):
    """Maxwell-Bloch trajectory by the vector RK4 on a numpy right-hand side
    over (<a>, <a_dag>, <J_minus>, <J_plus>, <J_z>)."""
    two_C, xi = 2.0 * params.C, params.xi

    def rhs(state):
        a, ad, jm, jp, jz = state
        return np.array([
            xi * (-a + two_C * jm + Y),
            xi * (-ad + two_C * jp + Y),
            -jm + jz * a,
            -jp + jz * ad,
            -2.0 * (jz + 1.0) - (jp * a + jm * ad),
        ])

    return integrate_ode(rhs, np.asarray(initial, dtype=float), tau_bar_max, dt)


def reference_write_csv(path, columns, rows, meta=None, warnings_list=()):
    """CSV table written row by row, every cell through `output._fmt`."""
    lines = output._metadata_lines(meta or {})
    for w in warnings_list:
        lines.append(f"# warning: {w}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(output._fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_json(path, payload):
    """JSON payload written by json's own encoder, in output.write_json's layout."""
    payload = dict(payload)
    payload.setdefault("tool", f"optbistab {__version__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=output._json_default)
        fh.write("\n")

"""Tests of the benchmark's closed-form references.

    python3 -m pytest perfbench

Each oracle is checked against a second, independent derivation, so that
a fault in one cannot pass the benchmark's correctness checks unnoticed.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles


def laplacian_1d(n: int, length: float) -> np.ndarray:
    dx = length / n
    return (np.diag(np.full(n - 1, -2.0)) + np.diag(np.ones(n - 2), 1)
            + np.diag(np.ones(n - 2), -1)) / dx**2


@pytest.mark.parametrize("n,length,k", [(8, 1.0, 1), (32, 1.0, 3),
                                        (16, 2.0, 15)])
def test_discrete_eigenvalue_is_an_eigenpair(n, length, k):
    mode = oracles.sine_mode(1, n, length, k)
    lam = oracles.discrete_eigenvalue(n, length, k)
    np.testing.assert_allclose(laplacian_1d(n, length) @ mode, lam * mode,
                               rtol=0, atol=1e-10 * abs(lam))


def test_3d_sine_mode_eigenvalue_is_three_times_1d():
    n, length, k = 8, 1.0, 1
    a1 = laplacian_1d(n, length)
    eye = np.eye(n - 1)
    a3 = (np.kron(np.kron(a1, eye), eye) + np.kron(np.kron(eye, a1), eye)
          + np.kron(np.kron(eye, eye), a1))
    mode = oracles.sine_mode(3, n, length, k).ravel()
    lam = 3 * oracles.discrete_eigenvalue(n, length, k)
    np.testing.assert_allclose(a3 @ mode, lam * mode, atol=1e-10 * abs(lam))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_collocation_matrix_integrates_polynomials_exactly(m):
    q = oracles.collocation_matrix(m)
    t = np.arange(m + 1) / m
    for degree in range(m):
        np.testing.assert_allclose(q @ t**degree, t**(degree + 1)
                                   / (degree + 1), atol=1e-14)
    np.testing.assert_array_equal(q[0], 0.0)
    np.testing.assert_array_equal(q[:, 0], 0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_stability_agrees_with_exp_to_collocation_order(m):
    # local error R(z) - e^z = C z^(m+1) + ...: halving z divides it by
    # about 2^(m+1)
    errors = [abs(oracles.stability(z, m) - math.exp(z))
              for z in (-0.1, -0.05)]
    assert errors[0] < 0.1 ** (m + 1)
    assert errors[0] / errors[1] == pytest.approx(2.0 ** (m + 1), rel=0.1)


def test_stability_of_one_node_is_backward_euler():
    for z in (-0.5, -3.0, -1e4):
        assert oracles.stability(z, 1) == pytest.approx(1.0 / (1.0 - z))


def test_collocation_solution_converges_to_analytic_solution():
    errors = []
    for n in (16, 32):
        exact = oracles.analytic_solution(3, n, 1.0, 1, 1.0, 0.01)
        colloc = oracles.collocation_solution(3, n, 1.0, 1, 1.0, 4, 0.01, 4)
        errors.append(np.max(np.abs(colloc - exact)))
    # with four sub-steps the O(dx^2) spatial error dominates
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)


def test_analytic_solution_decays_at_the_heat_rate():
    u0 = oracles.analytic_solution(2, 8, 2.0, 2, 0.5, 0.0)
    u1 = oracles.analytic_solution(2, 8, 2.0, 2, 0.5, 0.3)
    rate = 2 * 0.5 * (2 * np.pi / 2.0) ** 2
    np.testing.assert_allclose(u1, math.exp(-rate * 0.3) * u0, rtol=1e-14)
    assert np.max(np.abs(u0)) == pytest.approx(1.0, rel=0.05)


def test_stability_matches_pintlab_collocation_solve():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    pytest.importorskip("pintlab")
    from pintlab.heat import scalar_operator
    from pintlab.quadrature import uniform_table
    from pintlab.sdc import collocation_solve

    for m in (1, 2, 4):
        for z in (-0.3, -20.0):
            states = collocation_solve(scalar_operator(z), uniform_table(m),
                                       np.array([1.0]), 1.0)
            assert states.y[-1][0] == pytest.approx(oracles.stability(z, m),
                                                    rel=1e-12)

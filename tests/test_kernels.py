import numpy as np
import pytest

from fwrta import kernels


@pytest.fixture
def cases(rng):
    xs = []
    for _ in range(200):
        x = np.array(
            [
                rng.uniform(-1000, 1000),
                rng.uniform(-1000, 1000),
                rng.uniform(-1000, 1000),
                rng.uniform(-1.2, 1.2),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-3.1, 3.1),
                rng.uniform(50, 300),
            ]
        )
        u = rng.uniform(-5, 5, size=3)
        xs.append((x, u))
    return xs


def test_rk4_is_the_classic_tableau(cases):
    x, u = cases[0]
    dt = 0.02
    k1 = kernels.dubins_rhs(x, u, 9.81)
    k2 = kernels.dubins_rhs(x + 0.5 * dt * k1, u, 9.81)
    k3 = kernels.dubins_rhs(x + 0.5 * dt * k2, u, 9.81)
    k4 = kernels.dubins_rhs(x + dt * k3, u, 9.81)
    ref = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(kernels.rk4_step(x, u, dt, 9.81), ref, rtol=1e-15)

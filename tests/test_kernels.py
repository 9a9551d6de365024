import numpy as np
import pytest

from conftest import dubins_rhs
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


def array_rk4(x, u, dt, g_d):
    """The classic tableau over numpy arrays: the oracle of the float kernel."""

    def f(z):
        return np.array(dubins_rhs(z, u, g_d))

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_is_the_classic_tableau(cases):
    # the float kernel keeps the array spelling's operation order, so it
    # equals it bit for bit, on float sequences as the integrator passes them
    for dt in (0.02, -0.02):
        for x, u in cases:
            got = kernels.rk4_step(tuple(x.tolist()), tuple(u.tolist()), dt, 9.81)
            assert type(got) is tuple and all(type(v) is float for v in got)
            np.testing.assert_array_equal(np.array(got), array_rk4(x, u, dt, 9.81))


def test_rhs_reads_no_position(cases):
    # rk4_step carries the start position through its stage states unchanged,
    # which holds only while the derivative never reads x[0:3]
    nan = float("nan")
    for x, u in cases:
        x = tuple(x.tolist())
        u = tuple(u.tolist())
        got = dubins_rhs((nan, nan, nan, *x[3:]), u, 9.81)
        assert list(map(float.hex, got)) == list(map(float.hex, dubins_rhs(x, u, 9.81)))

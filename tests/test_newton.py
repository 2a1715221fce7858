"""The inversive-distance Newton kernel: analytic Jacobians against a
central-difference oracle in both geometries."""
import numpy as np
import pytest

from circlepattern import shapes
from circlepattern._newton import residual_and_jacobian, retract


def random_configuration(mode, n, rng):
    radii = rng.uniform(0.3, 1.2, n)
    if mode == "euclidean":
        return rng.normal(size=n) * 3.0 + 3.0j * rng.normal(size=n), radii
    centers = rng.normal(size=(n, 3))
    return centers / np.linalg.norm(centers, axis=1)[:, None], radii


@pytest.mark.parametrize("mode", ["euclidean", "spherical"])
def test_jacobian_matches_central_differences(mode):
    t = shapes.icosahedron()
    edges = np.asarray(t.edges, dtype=int)
    rng = np.random.default_rng(5)
    centers, radii = random_configuration(mode, t.vertex_count, rng)
    target = np.cos(rng.uniform(0.0, 2.0, len(edges)))
    _, J = residual_and_jacobian(mode, centers, radii, edges, target)

    def f(step):
        return residual_and_jacobian(mode, *retract(mode, centers, radii, step),
                                     edges, target)[0]

    h = 1e-6
    fd = np.empty_like(J)
    for i in range(J.shape[1]):
        e = np.zeros(J.shape[1])
        e[i] = h
        fd[:, i] = (f(e) - f(-e)) / (2.0 * h)
    np.testing.assert_allclose(fd, J, rtol=1e-6, atol=1e-9 * np.max(np.abs(J)))

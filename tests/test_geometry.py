import math

import numpy as np
import pytest

from eucalc.geometry import (
    Polytope,
    dist_to_simplex,
    max_dist_to_simplex,
    minkowski_points,
    support_value,
)


class TestSupportValue:
    def test_unit_square(self):
        p = Polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert support_value(p, [1, 1]) == 2.0

    def test_single_point(self):
        p = Polytope([[0, 0]])
        for xi in ([1, 0], [3, -2], [0, 0]):
            assert support_value(p, xi) == 0.0

    def test_triangle(self):
        p = Polytope([[0, 0], [1, 0], [0, 2]])
        # max of {0, 1, 2} over the three vertices
        assert support_value(p, [1, 1]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            support_value(Polytope([[0, 0]]), [1, 2, 3])


class TestDistToSimplex:
    def test_projection_onto_segment(self):
        d = dist_to_simplex([0, 0], [[1, 0], [0, 1]])
        assert d == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_inside_triangle(self):
        d = dist_to_simplex([0.2, 0.2], [[0, 0], [1, 0], [0, 1]])
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_nearest_endpoint(self):
        assert dist_to_simplex([2, 0], [[0, 0], [1, 0]]) == pytest.approx(1.0)

    def test_below_every_vertex_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            simplex = rng.uniform(-2, 2, size=(3, 2))
            if np.linalg.matrix_rank(simplex[1:] - simplex[0]) < 2:
                continue
            v = rng.uniform(-3, 3, size=2)
            d = dist_to_simplex(v, simplex)
            assert d <= min(np.linalg.norm(v - s) for s in simplex) + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        simplex = [[0.0, 0.0], [1.0, 0.0], [0.3, 1.2]]
        v = [2.0, -0.5]
        base = dist_to_simplex(v, simplex)
        for _ in range(20):
            shift = rng.uniform(-10, 10, size=2)
            moved = dist_to_simplex(np.asarray(v) + shift, np.asarray(simplex) + shift)
            assert moved == pytest.approx(base, abs=1e-12)


class TestMaxDistToSimplex:
    def test_collinear(self):
        assert max_dist_to_simplex([0, 0], [[1, 0], [3, 0]]) == 3.0

    def test_centroid_of_equilateral(self):
        h = math.sqrt(3) / 2
        tri = [[0, 0], [1, 0], [0.5, h]]
        centroid = [0.5, h / 3]
        assert max_dist_to_simplex(centroid, tri) == pytest.approx(1 / math.sqrt(3))

    def test_from_vertex(self):
        tri = [[0, 0], [1, 0], [0, 1]]
        assert max_dist_to_simplex([0, 0], tri) == pytest.approx(1.0)


class TestMinkowski:
    def test_segments_on_line(self):
        p = Polytope([[0.0], [1.0]])
        s = minkowski_points(p, p)
        assert sorted(s.points.ravel().tolist()) == [0.0, 1.0, 1.0, 2.0]

    def test_point_translates(self):
        p = Polytope([[0, 0], [1, 0], [0, 1]])
        shifted = minkowski_points(p, Polytope([[2, 3]]))
        assert np.allclose(sorted(shifted.points.tolist()), sorted((p.points + [2, 3]).tolist()))

    def test_square_doubles(self):
        sq = Polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
        s = minkowski_points(sq, sq)
        assert len(s.points) == 16
        # hull check: support values match the doubled square everywhere
        for angle in np.linspace(0, 2 * math.pi, 17):
            xi = [math.cos(angle), math.sin(angle)]
            assert support_value(s, xi) == pytest.approx(2 * support_value(sq, xi))

    def test_support_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = Polytope(rng.uniform(-2, 2, size=(4, 2)))
            q = Polytope(rng.uniform(-2, 2, size=(3, 2)))
            xi = rng.uniform(-1, 1, size=2)
            lhs = support_value(minkowski_points(p, q), xi)
            assert lhs == pytest.approx(support_value(p, xi) + support_value(q, xi), abs=1e-12)


def test_width_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = Polytope(rng.uniform(-2, 2, size=(int(rng.integers(1, 6)), 3)))
        xi = rng.uniform(-1, 1, size=3)
        assert support_value(p, xi) + support_value(p, -xi) >= -1e-12


def test_vectors_must_be_finite():
    with pytest.raises(ValueError):
        Polytope([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        support_value(Polytope([[0.0, 0.0]]), [np.inf, 0.0])

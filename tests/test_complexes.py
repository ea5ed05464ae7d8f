import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eucalc import kernels
from eucalc.cf1d import CF1D
from eucalc.cfnd import CFND, pushforward_linear
from eucalc.complexes import (
    EmbeddedComplex,
    PLFunction,
    StepCurve,
    cell_distances,
    chi_open_ball_region,
    chi_region,
    distance_curves,
    ect,
    euler_bessel,
    euler_bessel_index,
    euler_characteristic,
    full_subcomplex_curve,
    gr_index_check,
    index_formula_check,
    level_curve,
    level_index_check,
    lower_euler_integral,
    mesh_from_json,
    sublevel_curve,
    sublevel_from_level_check,
    sublevel_transform,
    superlevel_cf1d,
    upper_euler_integral,
)
from eucalc.errors import MonotonicityUnknown
from eucalc.verify import random_complex, random_pl_values


def solid_triangle():
    return EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])


def hollow_triangle():
    return EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [(0, 1), (1, 2), (0, 2)])


def hollow_square(heights=(0.0, 1.0, 2.0, 1.0)):
    complex_ = EmbeddedComplex(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )
    return complex_, PLFunction(complex_, heights)


class TestChiRegion:
    def test_solid_triangle(self):
        assert euler_characteristic(solid_triangle()) == 1

    def test_hollow_triangle(self):
        assert euler_characteristic(hollow_triangle()) == 0

    def test_two_triangles_sharing_edge(self):
        complex_ = EmbeddedComplex(
            [[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)]
        )
        # V - E + F = 4 - 5 + 2
        assert euler_characteristic(complex_) == 1

    def test_face_closure_on_construction(self):
        complex_ = EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
        assert len(complex_.cells) == 7

    def test_degenerate_cell_rejected(self):
        with pytest.raises(ValueError):
            EmbeddedComplex([[0, 0], [1, 0], [2, 0]], [(0, 1, 2)])


class TestChiOpenBall:
    def test_zero_radius(self):
        assert chi_open_ball_region(solid_triangle(), np.array([0.3, 0.3]), 0.0) == 0

    def test_covers_everything(self):
        z = hollow_triangle()
        assert chi_open_ball_region(z, np.array([0.0, 0.0]), 100.0) == 0
        assert chi_open_ball_region(solid_triangle(), np.array([0.0, 0.0]), 100.0) == 1

    def test_segment_midpoint(self):
        z = EmbeddedComplex([[0.0], [1.0]], [(0, 1)])
        assert chi_open_ball_region(z, np.array([0.5]), 0.25) == -1


def reference_chi(complex_, meets):
    """chi by the face-poset recursion over relative interiors."""
    memo = {}

    def relint_chi(cell):
        if cell not in memo:
            faces = [f for k in range(1, len(cell)) for f in combinations(cell, k)]
            memo[cell] = (1 - sum(map(relint_chi, faces))) if meets(cell) else 0
        return memo[cell]

    return sum(relint_chi(cell) for cell in complex_.cells)


@st.composite
def complexes_with_values(draw):
    """Non-pure complexes of dimension <= 3 in R^3 with integer vertex values.

    Vertices sit on the moment curve (s, s^2, s^3), where any four are
    affinely independent, so every drawn vertex set spans a simplex.
    Single vertices, hollow cycles and mixed dimensions all occur.
    """
    n = draw(st.integers(1, 7))
    cells = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=8
    ))
    s = np.arange(n, dtype=float)
    complex_ = EmbeddedComplex(np.stack([s, s**2, s**3], axis=1), [tuple(c) for c in cells])
    values = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return complex_, PLFunction(complex_, values)


class TestWeightedCount:
    @settings(max_examples=150, deadline=None)
    @given(complexes_with_values(), st.data())
    def test_matches_face_poset_recursion(self, drawn, data):
        complex_, g = drawn
        mins = {c: g.cell_min(c) for c in complex_.cells}
        maxs = {c: g.cell_max(c) for c in complex_.cells}
        t = data.draw(st.sampled_from(sorted(set(g.vertex_values))))
        center = np.array(data.draw(st.lists(st.integers(-2, 8), min_size=3, max_size=3)), float)
        dists = cell_distances(complex_, center)
        r = data.draw(st.sampled_from(sorted(set(dists.values()))))
        oracles = [
            lambda c: mins[c] <= t,
            lambda c: mins[c] <= t <= maxs[c],
            lambda c: maxs[c] >= t,
            lambda c: dists[c] <= r,
        ]
        for meets in oracles:
            assert chi_region(complex_, meets) == reference_chi(complex_, meets)

    def test_only_interior_cells_of_a_disk_carry_weight(self):
        fan = EmbeddedComplex(
            [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]],
            [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)],
        )
        weights = dict(fan.weighted_cells)
        assert (1,) not in weights and (1, 2) not in weights
        assert weights[(0,)] == 1 and weights[(0, 1)] == -1
        assert weights[(0, 1, 2)] == 1 and len(weights) == 9


class TestSublevelCurve:
    def test_single_segment(self):
        z = EmbeddedComplex([[0.0], [1.0]], [(0, 1)])
        curve = sublevel_curve(z, PLFunction(z, [0.0, 1.0]))
        assert curve.jumps == ((0.0, 1),)

    def test_hollow_square(self):
        z, g = hollow_square()
        assert sublevel_curve(z, g).jumps == ((0.0, 1), (2.0, -1))

    def test_two_lone_vertices(self):
        z = EmbeddedComplex([[0.0], [1.0]], [(0,), (1,)])
        curve = sublevel_curve(z, PLFunction(z, [0.0, 1.0]))
        assert curve.jumps == ((0.0, 1), (1.0, 1))

    def test_saturates_at_chi(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            z = random_complex(rng)
            g = random_pl_values(rng, z)
            assert sublevel_curve(z, g).at_infinity() == euler_characteristic(z)


class TestLevelCurve:
    def test_segment(self):
        z = EmbeddedComplex([[0.0], [1.0]], [(0, 1)])
        assert level_curve(z, PLFunction(z, [0.0, 1.0])).equals(CF1D.segment(0, 1))

    def test_hollow_square_slices(self):
        z, g = hollow_square()
        want = CF1D((0.0, 2.0), (1, 1), (0, 2, 0))
        assert level_curve(z, g).equals(want)

    def test_vertex_only(self):
        z = EmbeddedComplex([[0.0], [2.0]], [(0,), (1,)])
        got = level_curve(z, PLFunction(z, [0.0, 2.0]))
        assert got.equals(CF1D.point(0.0) + CF1D.point(2.0))


class TestEct:
    def test_unit_square_two_triangles(self):
        z = EmbeddedComplex(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [(0, 1, 2), (0, 2, 3)]
        )
        assert ect(z, [1.0, 0.0]).jumps == ((0.0, 1),)

    def test_hollow_square_vertical(self):
        z, _ = hollow_square()
        assert ect(z, [0.0, 1.0]).jumps == ((0.0, 1), (1.0, -1))

    def test_single_point(self):
        z = EmbeddedComplex([[2.0, 3.0]], [(0,)])
        assert ect(z, [1.0, 1.0]).jumps == ((5.0, 1),)

    def test_matches_convex_pushforward_route(self):
        z = EmbeddedComplex(
            [[0, 0], [1, 0], [1, 1], [0, 1]], [(0, 1, 2), (0, 2, 3)]
        )
        square = CFND.from_polytope_points([[0, 0], [1, 0], [1, 1], [0, 1]])
        for xi in ([1.0, 0.0], [0.7, -0.3], [-1.0, 2.0]):
            route = pushforward_linear(square, xi).convolve(CF1D.ray_up(0.0))
            assert ect(z, xi).to_cf1d().equals(route)


class TestContinuousEulerIntegrals:
    def test_constant_on_contractible(self):
        z = solid_triangle()
        g = PLFunction(z, [3.0, 3.0, 3.0])
        assert upper_euler_integral(z, g) == 3.0
        assert lower_euler_integral(z, g) == 3.0

    def test_segment(self):
        z = EmbeddedComplex([[0.0], [1.0]], [(0, 1)])
        g = PLFunction(z, [0.0, 1.0])
        assert upper_euler_integral(z, g) == 0.0
        assert lower_euler_integral(z, g) == 1.0

    def test_hollow_square(self):
        z, g = hollow_square()
        assert upper_euler_integral(z, g) == -2.0


class TestSublevelTransform:
    def test_single_vertex_laplace(self):
        z = EmbeddedComplex([[0.0]], [(0,)])
        got = sublevel_transform(z, np.array([[1.5]]), [1.0], kernels.laplace())
        assert got == pytest.approx(math.exp(-1.5), abs=1e-15)

    def test_jump_decomposition_of_magnitude(self):
        z, g = hollow_square()
        got = sublevel_transform(z, g.vertex_values.reshape(-1, 1), [1.0], kernels.laplace())
        # curve jumps +1@0, -1@2: sum of m_i e^{-c_i}
        assert got == pytest.approx(1 - math.exp(-2.0), abs=1e-14)

    def test_ecb_kernel_integrates_curve(self):
        z, g = hollow_square()
        got = sublevel_transform(z, g.vertex_values.reshape(-1, 1), [1.0], kernels.ecb(1.5))
        # curve equals 1 on [0, 2): integral over (-inf, 1.5) is 1.5
        assert got == pytest.approx(1.5)


class TestDistanceCurves:
    def test_point_target(self):
        z = EmbeddedComplex([[1.0, 0.0]], [(0,)])
        sub, sup = distance_curves(z, np.array([0.0, 0.0]))
        assert sub.jumps == ((1.0, 1),)
        assert sup == ((1.0, 1),)

    def test_segment_containing_center(self):
        z = EmbeddedComplex([[0.0], [1.0]], [(0, 1)])
        sub, _ = distance_curves(z, np.array([0.25]))
        assert sub.jumps[0] == (0.0, 1)

    def test_against_dense_brute_force(self):
        rng = np.random.default_rng(17)
        from eucalc.complexes import cell_distances

        for _ in range(5):
            z = random_complex(rng, max_cells=25)
            v = rng.uniform(-1, 3, size=2)
            dists = cell_distances(z, v)
            sub, sup = distance_curves(z, v)
            for t in rng.uniform(0, 3, size=20):
                ball = chi_region(z, lambda cell: dists[cell] <= t)
                assert sub.value(t) == ball
                complement = sum(
                    (-1) ** (len(cell) - 1)
                    for cell in z.cells
                    if dists[cell] >= t
                )
                assert sum(n for s, n in sup if s >= t) == complement


class TestEulerBessel:
    def test_isolated_point_sphere_measure_zero(self):
        # spheres meet a single point only at one radius, a Lebesgue-null set,
        # so both computation paths give zero (see the decisions ledger)
        z = EmbeddedComplex([[3.0, 4.0]], [(0,)])
        v = np.array([0.0, 0.0])
        assert euler_bessel(z, v) == 0.0
        assert euler_bessel_index(z, v) == 0.0

    def test_segment_interior_center_gives_length(self):
        length = 4.0
        z = EmbeddedComplex([[0.0], [length]], [(0, 1)])
        for x in (0.5, 1.0, 3.3):
            assert euler_bessel(z, np.array([x])) == pytest.approx(length, abs=1e-12)
            assert euler_bessel_index(z, np.array([x])) == pytest.approx(
                length, abs=1e-12
            )

    def test_hollow_triangle_closed_form(self):
        h = math.sqrt(3) / 2
        z = EmbeddedComplex([[0, 0], [1, 0], [0.5, h]], [(0, 1), (1, 2), (0, 2)])
        center = np.array([0.5, math.sqrt(3) / 6])
        circumradius = math.sqrt(3) / 3
        inradius = math.sqrt(3) / 6
        want = 6 * (circumradius - inradius)
        assert euler_bessel(z, center) == pytest.approx(want, abs=1e-12)

    def test_against_riemann_sum(self):
        z = EmbeddedComplex(
            [[0, 0], [2, 0], [1, 1.5], [3, 2]], [(0, 1, 2), (1, 3)]
        )
        v = np.array([0.5, 0.5])
        from eucalc.complexes import cell_distances

        dists = cell_distances(z, v)
        upper = max(dists.values()) + 0.1
        ts = np.linspace(1e-6, upper, 20001)
        values = []
        for t in ts:
            ball = chi_region(z, lambda cell: dists[cell] <= t)
            open_ball = chi_open_ball_region(z, v, t, dists)
            values.append(ball - open_ball)
        riemann = float(np.sum(values) * (ts[1] - ts[0]))
        assert euler_bessel(z, v) == pytest.approx(riemann, abs=5e-3)

    def test_dual_paths_agree_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            z = random_complex(rng, max_cells=25)
            v = rng.uniform(-1, 3, size=2)
            assert euler_bessel(z, v) == pytest.approx(
                euler_bessel_index(z, v), abs=1e-9
            )


class TestIndexFormulas:
    def test_sublevel_laplace_window(self):
        z, _ = hollow_square()
        for window in ((0.0, float("inf")), (0.3, 1.7), (-1.0, 5.0)):
            kernel = kernels.compose_window(kernels.laplace(), *window)
            report = index_formula_check(z, None, [0.0, 1.0], kernel)
            assert report.difference < 1e-12

    def test_sublevel_decreasing_branch(self):
        z, _ = hollow_square()
        kernel = kernels.compose_window(kernels.negate(kernels.laplace()), 0.3, 1.7)
        report = index_formula_check(z, None, [0.0, 1.0], kernel)
        assert report.difference < 1e-12

    def test_degenerate_window_both_sides_zero(self):
        z, _ = hollow_square()
        kernel = kernels.compose_window(kernels.laplace(), 0.5, 0.5 + 1e-9)
        report = index_formula_check(z, None, [0.0, 1.0], kernel)
        assert abs(report.lhs) < 1e-8 and report.difference < 1e-12

    def test_gr_half_line_identity(self):
        z, _ = hollow_square()
        for xi in ([0.0, 1.0], [1.0, -1.0], [-0.5, 0.25]):
            assert gr_index_check(z, None, xi).difference < 1e-12

    def test_level_identity(self):
        z, _ = hollow_square()
        for window in ((float("-inf"), float("inf")), (0.2, 1.3)):
            kernel = kernels.compose_window(kernels.laplace(), *window)
            assert level_index_check(z, None, [0.0, 1.0], kernel).difference < 1e-12

    def test_level_identity_contractible(self):
        z = solid_triangle()
        kernel = kernels.laplace()
        assert level_index_check(z, None, [1.0, 0.0], kernel).difference < 1e-12

    def test_unknown_monotonicity_rejected(self):
        z = solid_triangle()
        with pytest.raises(MonotonicityUnknown):
            index_formula_check(z, None, [1.0, 0.0], kernels.heaviside())


class TestSublevelLevelConvolution:
    def test_segment(self):
        z = EmbeddedComplex([[0.0], [1.0]], [(0, 1)])
        assert sublevel_from_level_check(z, PLFunction(z, [0.0, 1.0]))

    def test_hollow_square(self):
        z, g = hollow_square()
        assert sublevel_from_level_check(z, g)

    def test_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            z = random_complex(rng)
            assert sublevel_from_level_check(z, random_pl_values(rng, z))


class TestFullSubcomplexCrossCheck:
    def test_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            z = random_complex(rng)
            g = random_pl_values(rng, z)
            assert full_subcomplex_curve(z, g).equals(sublevel_curve(z, g))


class TestSnapping:
    """Values within EPS of each other count at their cluster's representative."""

    def three_vertices(self):
        z = EmbeddedComplex([[0.0], [1.0], [2.0]], [(0,), (1,), (2,)])
        return z, PLFunction(z, [0.0, 5e-10, 3.0])

    def test_sublevel_curves_count_whole_cluster(self):
        z, g = self.three_vertices()
        assert sublevel_curve(z, g).jumps == ((0.0, 2), (3.0, 1))
        assert full_subcomplex_curve(z, g).jumps == ((0.0, 2), (3.0, 1))

    def test_ect_counts_whole_cluster(self):
        z = EmbeddedComplex([[0.0], [5e-10], [3.0]], [(0,), (1,), (2,)])
        assert ect(z, [1.0]).jumps == ((0.0, 2), (3.0, 1))

    def test_level_curve_point_value_counts_whole_cluster(self):
        z, g = self.three_vertices()
        assert level_curve(z, g).evaluate(0.0) == 2

    @pytest.mark.parametrize("seed, case", [(1, 19), (2, 33), (8, 48)])
    def test_bessel_paths_agree_on_merged_distances(self, seed, case):
        # replays the draws of the bessel_dual verify suite up to the case
        rng = np.random.default_rng(seed)
        for _ in range(case + 1):
            z = random_complex(rng, max_cells=30)
            v = rng.uniform(-1.0, 3.0, size=2)
        dists = sorted(set(cell_distances(z, v).values()))
        assert any(b - a <= 1e-9 for a, b in zip(dists, dists[1:]))
        assert euler_bessel(z, v) == pytest.approx(euler_bessel_index(z, v), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        complexes_with_values(),
        st.lists(st.floats(0.0, 1e-10), min_size=7, max_size=7),
    )
    def test_jitter_below_eps_leaves_curves_unchanged(self, drawn, jitter):
        z, g = drawn
        lattice = PLFunction(z, g.vertex_values * 0.25)
        jittered = PLFunction(z, lattice.vertex_values + jitter[: len(z.vertices)])
        assert sublevel_curve(z, jittered).equals(sublevel_curve(z, lattice))
        assert full_subcomplex_curve(z, jittered).equals(
            full_subcomplex_curve(z, lattice)
        )
        assert level_curve(z, jittered).equals(level_curve(z, lattice))
        assert superlevel_cf1d(z, jittered).equals(superlevel_cf1d(z, lattice))


class TestSuperlevelCf1d:
    def test_matches_negated_sublevel(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            z = random_complex(rng)
            g = random_pl_values(rng, z)
            direct = superlevel_cf1d(z, g)
            mirrored = sublevel_curve(z, g.negate()).to_cf1d().pushforward_affine(-1.0)
            assert direct.equals(mirrored)


class TestStepCurve:
    def test_value_and_cf1d(self):
        curve = StepCurve([(0.0, 1), (2.0, -1)])
        assert curve.value(-0.5) == 0
        assert curve.value(0.0) == 1
        assert curve.value(2.0) == 0
        cf = curve.to_cf1d()
        assert cf.equals(CF1D.half_open(0.0, 2.0))

    def test_zero_jumps_dropped(self):
        assert StepCurve([(0.0, 0), (1.0, 2)]).jumps == ((1.0, 2),)

    def test_cf1d_at_adjacent_floats(self):
        b = math.nextafter(1e8, math.inf)
        n = math.nextafter(b, math.inf)
        cf = StepCurve([(b, 1), (n, -1)]).to_cf1d()
        assert cf.equals(CF1D((b, n), (1, 0), (0, 1, 0)))


class TestMeshJson:
    def test_round_trip(self):
        data = {
            "vertices": [[0, 0], [1, 0], [0, 1]],
            "cells": [[0, 1, 2]],
            "values": [0.0, 1.0, 2.0],
        }
        complex_, values = mesh_from_json(data)
        assert len(complex_.cells) == 7
        assert values.tolist() == [0.0, 1.0, 2.0]

    def test_values_optional(self):
        complex_, values = mesh_from_json(
            {"vertices": [[0, 0], [1, 1]], "cells": [[0, 1]]}
        )
        assert values is None

import numpy as np
import pytest

from eucalc import kernels, transforms
from eucalc.cf1d import CF1D
from eucalc.cfnd import (
    CFND,
    HalfOpenBox,
    box_product,
    cone_closure,
    convolve_nd,
    equal_on_witness_grid,
    euler_integral_nd,
    evaluate,
    expand_box,
    is_cone_constructible,
    pushforward_linear,
    scene_from_json,
    translate,
)
from eucalc.errors import (
    DimensionMismatch,
    ImproperConvolution,
    NonCompactSupport,
    UnsupportedGenerator,
)

UNIT_HO = CFND.from_box([0.0, 0.0], [1.0, 1.0])
UNIT_CLOSED = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1], [1, 1]])


class TestEvaluate:
    def test_half_open_box(self):
        assert evaluate(UNIT_HO, [1, 0]) == 0
        assert evaluate(UNIT_HO, [0, 0]) == 1

    def test_excluded_edge(self):
        tri = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1]])
        edge = CFND.from_polytope_points([[1, 0], [0, 1]])
        phi = tri - edge
        assert evaluate(phi, [0.5, 0.5]) == 0
        assert evaluate(phi, [0.25, 0.25]) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(UNIT_HO, [0.0])


class TestExpandBox:
    def test_line_segment(self):
        parts = expand_box(HalfOpenBox(np.array([0.0]), np.array([1.0])))
        signs = sorted(s for s, _ in parts)
        assert signs == [-1, 1]

    def test_unit_cell_probe_points(self):
        box = HalfOpenBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        parts = expand_box(box)
        assert sorted(s for s, _ in parts) == [-1, -1, 1, 1]
        expanded = CFND(2, tuple((s, g) for s, g in parts))
        for x in np.array([[0, 0], [1, 1], [0.5, 0.5], [1, 0], [0, 1],
                           [0.5, 0], [0, 0.5], [1, 0.5], [0.5, 1]], dtype=float):
            want = 1 if (0 <= x[0] < 1 and 0 <= x[1] < 1) else 0
            assert evaluate(expanded, x) == want

    def test_all_coefficients_unit(self):
        box = HalfOpenBox(np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0]))
        assert all(abs(s) == 1 for s, _ in expand_box(box))

    def test_dense_probe_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            low = rng.integers(-3, 3, size=2) * 0.5
            box = HalfOpenBox(low, low + rng.integers(1, 4, size=2) * 0.5)
            expanded = CFND(2, tuple(expand_box(box)))
            original = CFND(2, ((1, box),))
            for x in rng.uniform(-2, 3, size=(25, 2)):
                assert evaluate(expanded, x) == evaluate(original, x)


class TestPushforward:
    def test_rectangle_worked_example(self):
        # xi orders the corners as xi(a,c) < xi(a,d) < xi(b,c) < xi(b,d)
        a, b, c, d = 0.0, 1.0, 0.0, 2.0
        xi = np.array([3.0, 1.0])
        corners = {
            "ac": 0.0, "ad": 2.0, "bc": 3.0, "bd": 5.0,
        }
        half_open = CFND.from_box([a, c], [b, d])
        got = pushforward_linear(half_open, xi)
        want = CF1D.half_open(corners["ac"], corners["ad"]) - CF1D.half_open(
            corners["bc"], corners["bd"]
        )
        assert got.equals(want)

        closed = CFND.from_polytope_points([[a, c], [b, c], [a, d], [b, d]])
        assert pushforward_linear(closed, xi).equals(
            CF1D.segment(corners["ac"], corners["bd"])
        )

        mixed = closed - CFND.from_polytope_points([[b, c], [b, d]])
        assert pushforward_linear(mixed, xi).equals(
            CF1D.half_open(corners["ac"], corners["bc"])
        )

        left_open = closed - CFND.from_polytope_points([[a, c], [a, d]])
        assert pushforward_linear(left_open, xi).equals(
            CF1D.interval(corners["ad"], corners["bd"], False, True)
        )

    def test_point_pushforward(self):
        phi = CFND.from_polytope_points([[2.0, 3.0]])
        assert pushforward_linear(phi, [1.0, 1.0]).equals(CF1D.point(5.0))

    def test_zero_form_kills_boxes(self):
        assert pushforward_linear(UNIT_HO, [0.0, 0.0]).is_zero()
        assert pushforward_linear(UNIT_CLOSED, [0.0, 0.0]).equals(CF1D.point(0.0))


class TestEulerIntegral:
    def test_closed_square(self):
        assert euler_integral_nd(UNIT_CLOSED) == 1

    def test_half_open_square(self):
        assert euler_integral_nd(UNIT_HO) == 0

    def test_triangle_minus_hypotenuse(self):
        tri = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1]])
        hyp = CFND.from_polytope_points([[1, 0], [0, 1]])
        assert euler_integral_nd(tri - hyp) == 0

    def test_ray_boxes_rejected(self):
        rays = cone_closure(UNIT_CLOSED)
        with pytest.raises(NonCompactSupport):
            euler_integral_nd(rays)


class TestTranslate:
    def test_box(self):
        got = translate(UNIT_HO, [2.0, -1.0])
        assert evaluate(got, [2.0, -1.0]) == 1
        assert evaluate(got, [0.0, 0.0]) == 0

    def test_polytope(self):
        got = translate(UNIT_CLOSED, [5.0, 5.0])
        assert evaluate(got, [6.0, 6.0]) == 1

    def test_point(self):
        got = translate(CFND.from_polytope_points([[1.0, 1.0]]), [0.5, 0.5])
        assert evaluate(got, [1.5, 1.5]) == 1

    def test_matches_point_convolution(self):
        x0 = np.array([3.0, -1.0])
        via_conv = convolve_nd(UNIT_HO, CFND.from_polytope_points([x0]))
        direct = translate(UNIT_HO, x0)
        for x in np.random.default_rng(0).uniform(2, 5, size=(20, 2)):
            assert evaluate(via_conv, x) == evaluate(direct, x)


class TestConvolve:
    def test_segments_on_line(self):
        seg = CFND.from_polytope_points([[0.0], [1.0]])
        got = pushforward_linear(convolve_nd(seg, seg), [1.0])
        assert got.equals(CF1D.segment(0.0, 2.0))

    def test_half_open_boxes_probe_grid(self):
        conv = convolve_nd(UNIT_HO, UNIT_HO)
        one_d = CF1D.half_open(0, 1).convolve(CF1D.half_open(0, 1))
        for x in np.linspace(-0.5, 2.5, 5):
            for y in np.linspace(-0.5, 2.5, 5):
                assert evaluate(conv, [x, y]) == one_d.evaluate(x) * one_d.evaluate(y)

    def test_box_with_polytope(self):
        tri = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1]])
        conv = convolve_nd(UNIT_HO, tri)
        xi = np.array([1.0, 2.0])
        want = pushforward_linear(UNIT_HO, xi).convolve(pushforward_linear(tri, xi))
        assert pushforward_linear(conv, xi).equals(want)


class TestConeClosure:
    def test_half_open_interval_fixed(self):
        phi = CFND.from_box([0.0], [1.0])
        closed = cone_closure(phi)
        assert pushforward_linear(closed, [1.0]).equals(CF1D.half_open(0, 1))

    def test_closed_interval_becomes_ray(self):
        phi = CFND.from_polytope_points([[0.0], [1.0]])
        closed = cone_closure(phi)
        assert pushforward_linear(closed, [1.0]).equals(CF1D.ray_up(0.0))

    def test_voxel_square_fixed(self):
        assert is_cone_constructible(UNIT_HO)

    def test_closed_square_not_constructible(self):
        assert not is_cone_constructible(UNIT_CLOSED)

    def test_zero_function(self):
        assert is_cone_constructible(CFND(2, ()))

    def test_huge_box_midpoints_do_not_overflow(self):
        # (1e308 + 1.7e308) / 2 overflows to inf; the witness grid must not
        huge = CFND.from_box([1e308, 0.0], [1.7e308, 1.0])
        assert is_cone_constructible(huge)

    def test_matches_1d_convolution_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            low = rng.integers(-3, 3, size=1) * 0.5
            width = rng.integers(1, 4, size=1) * 0.5
            phi = CFND.from_box(low, low + width, coefficient=int(rng.choice([-1, 1, 2])))
            closed = cone_closure(phi)
            want = pushforward_linear(phi, [1.0]).convolve(CF1D.ray_up(0.0))
            assert pushforward_linear(closed, [1.0]).equals(want)

    def test_non_box_polytope_rejected(self):
        tri = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(UnsupportedGenerator):
            cone_closure(tri)

    def test_ray_pushforward_needs_proper_form(self):
        rays = cone_closure(UNIT_CLOSED)
        assert pushforward_linear(rays, [1.0, 2.0]).equals(CF1D.ray_up(0.0))
        assert pushforward_linear(rays, [-1.0, -2.0]).equals(CF1D.ray_down(0.0))
        with pytest.raises(ImproperConvolution):
            pushforward_linear(rays, [1.0, -1.0])

    @pytest.mark.parametrize("xi", [
        [1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0],
    ])
    def test_zero_axis_kills_ray_box_in_any_axis_order(self, xi):
        # a zero form component makes each fiber a product with the axis ray,
        # whose compactly supported Euler characteristic is 0; the opposite
        # signs on the other two axes must not be convolved first
        octant = CFND.from_box([0.0, 0.0, 0.0], [np.inf] * 3)
        assert pushforward_linear(octant, xi).is_zero()
        assert transforms.hybrid_transform(octant, np.array(xi), kernels.laplace()) == 0.0


class TestWitnessGrid:
    def test_detects_difference_beyond_extremes(self):
        closure = cone_closure(UNIT_CLOSED)
        assert not equal_on_witness_grid(
            closure, CFND.from_box([0.0, 0.0], [1.0, 1.0])
        )

    def test_equal_representations(self):
        # [0,2) = [0,1) + [1,2) on each axis slice
        one = CFND.from_box([0.0], [2.0])
        split = CFND.from_box([0.0], [1.0]) + CFND.from_box([1.0], [2.0])
        assert equal_on_witness_grid(one, split)


class TestBoxProduct:
    def test_box_with_box(self):
        prod = box_product(CFND.from_box([0.0], [1.0]), CFND.from_box([2.0], [4.0]))
        assert prod.dimension == 2
        assert evaluate(prod, [0.5, 3.0]) == 1
        assert evaluate(prod, [0.5, 4.0]) == 0

    def test_pushforward_splits(self):
        phi = CFND.from_box([0.0], [1.0])
        psi = CFND.from_polytope_points([[0.0], [2.0]])
        eta = np.array([1.0, 3.0])
        lhs = pushforward_linear(box_product(phi, psi), eta)
        rhs = pushforward_linear(phi, [1.0]).convolve(pushforward_linear(psi, [3.0]))
        assert lhs.equals(rhs)


class TestSceneJson:
    def test_round_trip_semantics(self):
        data = {
            "dimension": 2,
            "terms": [
                {"coef": 1, "type": "polytope", "points": [[0, 0], [1, 0], [0, 2]]},
                {"coef": -1, "type": "halfopen_box", "low": [0, 0], "high": [1, 1]},
            ],
        }
        phi = scene_from_json(data)
        assert phi.dimension == 2
        assert evaluate(phi, [0.1, 0.1]) == 0
        assert evaluate(phi, [0.0, 1.5]) == 1

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            scene_from_json({"dimension": 1, "terms": [{"coef": 1, "type": "ball"}]})

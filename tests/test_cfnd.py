import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eucalc
from eucalc import kernels, transforms
from eucalc.cf1d import CF1D
from eucalc.cfnd import (
    CFND,
    ClosedPolytope,
    HalfOpenBox,
    _polytope_contains,
    _witness_axis_values,
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
from eucalc.geometry import Polytope

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
        with pytest.raises(DimensionMismatch):
            evaluate(UNIT_HO, np.zeros((4, 3)))

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [[0.0, 0.0], [np.inf, 0.0]], []])
    def test_non_finite_or_empty_point_rejected(self, x):
        with pytest.raises(ValueError):
            evaluate(UNIT_HO, x)

    def test_array_returns_one_exact_integer_per_row(self):
        huge = CFND.from_box([0.0, 0.0], [1.0, 1.0], coefficient=2**70)
        got = evaluate(huge + huge + UNIT_HO.scale(-1), [[0.5, 0.5], [1.0, 0.5]])
        assert list(got) == [2**71 - 1, 0]
        assert evaluate(UNIT_HO, np.empty((0, 2))).shape == (0,)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_batched_matches_per_row_and_termwise_oracle(self, data):
        # half-open boxes, orthant rays and small polytopes on a 0.5 lattice,
        # probed on a 0.25 lattice that holds every generator bound
        dim = data.draw(st.integers(1, 3))
        halves = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(
            lambda ks: np.array(ks) * 0.5)
        terms = []
        for kind in data.draw(st.lists(st.sampled_from(["box", "ray", "polytope"]),
                                       max_size=4)):
            coef = data.draw(st.integers(-2**70, 2**70))
            if kind == "polytope":
                gen = ClosedPolytope(Polytope(np.array(data.draw(
                    st.lists(halves, min_size=1, max_size=3)))))
            else:
                low = data.draw(halves)
                high = low + 0.5 * np.array(data.draw(
                    st.lists(st.integers(1, 3), min_size=dim, max_size=dim)))
                if kind == "ray":
                    high[data.draw(st.lists(st.booleans(), min_size=dim,
                                            max_size=dim))] = np.inf
                gen = HalfOpenBox(low, high)
            terms.append((coef, gen))
        phi = CFND(dim, tuple(terms))
        quarter = st.lists(st.integers(-8, 14), min_size=dim, max_size=dim)
        points = np.array(data.draw(st.lists(quarter, max_size=8)), dtype=float)
        points = points.reshape(-1, dim) * 0.25

        def contains(gen, x):
            if isinstance(gen, HalfOpenBox):
                return all(lo <= v < hi for v, lo, hi in zip(x, gen.low, gen.high))
            return _polytope_contains(gen.polytope, x)

        batched = evaluate(phi, points)
        assert len(batched) == len(points)
        for x, got in zip(points, batched):
            want = sum(c for c, gen in phi.terms if contains(gen, x))
            assert got == want == evaluate(phi, x)

    def test_import_leaves_scipy_out_until_the_lp(self):
        # scipy is imported by the first polytope membership LP, not before
        code = (
            "import sys, eucalc.cli\n"
            "assert 'scipy' not in sys.modules\n"
            "from eucalc.cfnd import CFND, evaluate\n"
            "tri = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1]])\n"
            "assert evaluate(tri, [0.25, 0.25]) == 1 and evaluate(tri, [0.75, 0.75]) == 0\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(eucalc.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


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

    def test_matches_pointwise_loop_on_random_box_scenes(self):
        # the pointwise loop over the witness grid is the reference: one
        # evaluate per point of phi and of its closure
        def pointwise(phi):
            closure = cone_closure(phi)
            return all(evaluate(phi, x) == evaluate(closure, x)
                       for x in product(*_witness_axis_values(phi, closure)))

        def closed_box(low, high):
            return ClosedPolytope(Polytope(np.array(list(product(*zip(low, high))))))

        rng = np.random.default_rng(19)
        outcomes = []
        for case in range(40):
            dim = 3 if case % 4 == 0 else 2
            closed_share = (0.0, 0.5, 1.0)[case % 3]  # half-open, mixed, closed
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                low = rng.integers(-3, 3, size=dim) * 0.5
                if rng.random() < closed_share:  # possibly degenerate
                    gen = closed_box(low, low + rng.integers(0, 3, size=dim) * 0.5)
                else:
                    gen = HalfOpenBox(low, low + rng.integers(1, 3, size=dim) * 0.5)
                terms.append((int(rng.choice([-2, -1, 1, 2])), gen))
            phi = CFND(dim, tuple(terms))
            outcomes.append(is_cone_constructible(phi))
            assert outcomes[-1] == pointwise(phi)
        assert any(outcomes) and not all(outcomes)

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

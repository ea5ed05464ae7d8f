import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eucalc.cf1d import CF1D, EPS, recompose
from eucalc.errors import DegenerateMap, ImproperConvolution, NonCompactSupport, NonIntegrable
from eucalc import kernels
from eucalc.verify import random_cf1d


class TestEvaluate:
    def test_closed_interval_endpoint(self):
        assert CF1D.segment(0, 1).evaluate(0) == 1

    def test_open_interval_endpoint(self):
        assert CF1D.open_interval(0, 1).evaluate(0) == 0

    def test_point_under_sum(self):
        phi = CF1D.segment(0, 2, 2) - CF1D.point(1)
        assert phi.evaluate(1) == 1


class TestCanonicalForm:
    def test_removable_breakpoint_dropped(self):
        phi = CF1D((0.0, 1.0, 2.0), (1, 1, 1), (0, 1, 1, 0))
        assert phi.breakpoints == (0.0, 2.0)

    def test_scale_by_zero(self):
        assert CF1D.segment(0, 1).scale(0).is_zero()

    def test_close_breakpoints_merge_on_add(self):
        phi = CF1D.segment(0, 1) + CF1D.segment(1 + 1e-12, 2)
        assert phi.breakpoints == (0.0, 1.0, 2.0)
        assert phi.evaluate(1) == 2

    def test_half_open_from_difference(self):
        assert (CF1D.segment(0, 2) - CF1D.point(2)).equals(CF1D.half_open(0, 2))


class TestLargeAndNonFinite:
    # (1e308, 1.7e308): the midpoint must not overflow to inf
    @pytest.mark.parametrize("a, b", [
        (0.0, 1e17), (-1e17, 0.0), (-3e20, 5e20), (1e308, 1.7e308),
    ])
    def test_huge_segment_survives_addition(self, a, b):
        total = CF1D.zero() + CF1D.segment(a, b)
        assert total.equals(CF1D.segment(a, b))
        assert total.euler_integral() == 1

    def test_adjacent_float_breakpoints_survive_addition(self):
        # no float lies inside (b, nextafter(b)); the sum never evaluates there
        b = 1e8
        c = math.nextafter(b, math.inf)
        assert (CF1D.zero() + CF1D.segment(b, c)).equals(CF1D.segment(b, c))
        total = CF1D.zero() + CF1D.open_interval(b, c)
        assert total.equals(CF1D.open_interval(b, c))
        assert total.euler_integral() == -1

    @pytest.mark.parametrize("b", [-1e308, -3e20, 3e20, 1e308])
    def test_ray_at_huge_breakpoint_survives_restrict(self, b):
        for ray in (CF1D.ray_up(b), CF1D.ray_down(b)):
            assert ray.restrict(-math.inf, math.inf).equals(ray)

    @pytest.mark.parametrize("make", [
        lambda: CF1D.segment(math.nan, 1.0),
        lambda: CF1D.segment(0.0, math.inf),
        lambda: CF1D.point(math.nan),
        lambda: CF1D.ray_up(-math.inf),
        lambda: CF1D((0.0, math.inf), (1, 1), (0, 1, 0)),
        lambda: CF1D.from_evaluator([0.0, math.nan], lambda r, side: 0),
    ])
    def test_non_finite_breakpoint_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_nan_between_finite_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            CF1D((0.0, math.nan, 2.0), (1, 1, 1), (0, 1, 1, 0))


class TestClusters:
    def test_open_interval_shorter_than_two_eps(self):
        # a midpoint probe lands within EPS of both ends and reads a point value
        total = CF1D.zero() + CF1D.open_interval(0.0, 1.5e-9)
        assert total.equals(CF1D.open_interval(0.0, 1.5e-9))
        assert total.euler_integral() == -1

    def test_chained_cluster_keeps_every_point(self):
        # 0.9e-9 joins the cluster of 0; 1.1e-9 starts its own
        two_points = CF1D((0.0, 1.1e-9), (1, 1), (0, 0, 0))
        total = CF1D.point(0.9e-9) + two_points
        assert total.euler_integral() == 3
        assert total.interval_values == (0, 0, 0)

    @pytest.mark.parametrize("f, g", [
        (CF1D.segment(1, 1e308), CF1D.point(1e308)),
        (CF1D.ray_up(1e308), CF1D.point(1e308)),
    ])
    def test_overflowing_end_point_rejected(self, f, g):
        with pytest.raises(ValueError, match="finite"):
            f.convolve(g)


# breakpoints at magnitudes 1e-12 to 1e16 of either sign, > EPS apart
MAGNITUDES = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1e-12, 1e16))


@st.composite
def cf1ds(draw, compact=False, near=()):
    """Random CF1D; with near, some breakpoints lie within 2 EPS of those."""
    values = [sign * m for sign, m in draw(st.lists(MAGNITUDES, max_size=6))]
    if near:
        jitter = st.tuples(st.sampled_from(near), st.floats(-2 * EPS, 2 * EPS))
        values += [b + d for b, d in draw(st.lists(jitter, max_size=4))]
    breaks = []
    for x in sorted(values):
        if not breaks or x - breaks[-1] > EPS:
            breaks.append(x)
    small = st.integers(-3, 3)
    point_values = draw(st.lists(small, min_size=len(breaks), max_size=len(breaks)))
    interval_values = draw(
        st.lists(small, min_size=len(breaks) + 1, max_size=len(breaks) + 1)
    )
    if compact:
        interval_values[0] = interval_values[-1] = 0
    return CF1D(breaks, point_values, interval_values)


class TestProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cf1ds())
    def test_zero_is_additive_unit(self, f):
        assert (f + CF1D.zero()).equals(f)
        assert (CF1D.zero() + f).equals(f)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_subtraction_undoes_addition(self, data):
        f = data.draw(cf1ds())
        g = data.draw(cf1ds(near=f.breakpoints))
        assert ((f + g) - g).equals(f)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cf1ds())
    def test_recompose_inverts_decompose(self, f):
        assert recompose(f.decompose()).equals(f)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cf1ds(compact=True))
    def test_point_is_convolution_unit(self, f):
        assert CF1D.point(0).convolve(f).equals(f)


class TestEulerIntegral:
    def test_closed_interval(self):
        assert CF1D.segment(-2, 5).euler_integral() == 1

    def test_open_interval(self):
        assert CF1D.open_interval(-2, 5).euler_integral() == -1

    def test_half_open_interval(self):
        assert CF1D.half_open(-2, 5).euler_integral() == 0
        assert CF1D.interval(-2, 5, False, True).euler_integral() == 0

    def test_noncompact_rejected(self):
        with pytest.raises(NonCompactSupport):
            CF1D.ray_up(0).euler_integral()


class TestDecompose:
    def test_closed_interval_single_generator(self):
        gens = CF1D.segment(0, 1).decompose()
        assert len(gens) == 1 and gens[0].kind == "segment"

    def test_open_interval_three_generators(self):
        kinds = sorted((g.kind, g.coefficient) for g in CF1D.open_interval(0, 1).decompose())
        assert kinds == [("point", -1), ("point", -1), ("segment", 1)]

    def test_up_ray(self):
        gens = CF1D.ray_up(0).decompose()
        assert len(gens) == 1 and gens[0].kind == "ray_up"

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            phi = random_cf1d(rng, compact=bool(rng.integers(0, 2)))
            assert recompose(phi.decompose()).equals(phi)


class TestConvolve:
    def test_half_open_rule(self):
        got = CF1D.half_open(0, 1).convolve(CF1D.half_open(0, 2))
        want = CF1D.half_open(0, 2) - CF1D.half_open(1, 3)
        assert got.equals(want)

    def test_closed_interval_with_up_ray(self):
        got = CF1D.segment(-1, 4).convolve(CF1D.ray_up(0))
        assert got.equals(CF1D.ray_up(-1))

    def test_point_is_unit(self):
        phi = CF1D.segment(0, 2, 3) - CF1D.open_interval(1, 2)
        assert CF1D.point(0).convolve(phi).equals(phi)

    def test_opposite_rays_rejected(self):
        with pytest.raises(ImproperConvolution):
            CF1D.ray_up(0).convolve(CF1D.ray_down(0))

    def test_commutative_associative_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            phi, psi, theta = (random_cf1d(rng) for _ in range(3))
            assert phi.convolve(psi).equals(psi.convolve(phi))
            assert phi.convolve(psi).convolve(theta).equals(phi.convolve(psi.convolve(theta)))

    def test_euler_integral_multiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            phi, psi = random_cf1d(rng), random_cf1d(rng)
            assert phi.convolve(psi).euler_integral() == phi.euler_integral() * psi.euler_integral()


class TestDualize:
    def test_closed_to_open(self):
        assert CF1D.segment(0, 1).dualize().equals(CF1D.open_interval(0, 1).scale(-1))

    def test_open_to_closed(self):
        assert CF1D.open_interval(0, 1).dualize().equals(CF1D.segment(0, 1).scale(-1))

    def test_point_fixed(self):
        assert CF1D.point(2).dualize().equals(CF1D.point(2))

    def test_involution_and_integral_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            phi = random_cf1d(rng, compact=bool(rng.integers(0, 2)))
            assert phi.dualize().dualize().equals(phi)
            if phi.is_compactly_supported():
                assert phi.dualize().euler_integral() == phi.euler_integral()


class TestPushforwardAffine:
    def test_scaling(self):
        assert CF1D.segment(0, 1).pushforward_affine(2).equals(CF1D.segment(0, 2))

    def test_reflection_flips_half_open(self):
        got = CF1D.half_open(0, 1).pushforward_affine(-1)
        assert got.equals(CF1D.interval(-1, 0, False, True))

    def test_translation(self):
        assert CF1D.segment(0, 1).pushforward_affine(1, 3).equals(CF1D.segment(3, 4))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMap):
            CF1D.segment(0, 1).pushforward_affine(0)


class TestLebesguePair:
    def test_laplace_on_interval(self):
        got = CF1D.segment(0, 1).lebesgue_pair(kernels.laplace())
        assert got == pytest.approx(1 - math.exp(-1), abs=1e-15)

    def test_laplace_on_up_ray(self):
        got = CF1D.ray_up(1.5).lebesgue_pair(kernels.laplace())
        assert got == pytest.approx(math.exp(-1.5), abs=1e-15)

    def test_point_is_null(self):
        for kernel in (kernels.laplace(), kernels.fourier(), kernels.heaviside()):
            assert CF1D.point(0.7).lebesgue_pair(kernel) == 0

    def test_laplace_needs_left_bounded_support(self):
        with pytest.raises(NonIntegrable):
            CF1D.ray_down(0).lebesgue_pair(kernels.laplace())

    def test_fourier_needs_compact_support(self):
        with pytest.raises(NonIntegrable):
            CF1D.ray_up(0).lebesgue_pair(kernels.fourier())

    def test_duality_flips_sign(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            phi = random_cf1d(rng)
            for kernel in (kernels.laplace(), kernels.fourier()):
                assert phi.dualize().lebesgue_pair(kernel) == pytest.approx(
                    -phi.lebesgue_pair(kernel), abs=1e-12
                )

    def test_window_equals_restriction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi = random_cf1d(rng)
            a, b = sorted(rng.uniform(-4, 4, size=2))
            if b - a < 0.1:
                continue
            windowed = kernels.compose_window(kernels.laplace(), a, b)
            assert phi.lebesgue_pair(windowed) == pytest.approx(
                phi.restrict(a, b).lebesgue_pair(kernels.laplace()), abs=1e-12
            )


class TestRightClosed:
    def test_half_open_is(self):
        assert CF1D.half_open(0, 1).is_right_closed()

    def test_closed_is_not(self):
        assert not CF1D.segment(0, 1).is_right_closed()

    def test_left_open_is_not(self):
        assert not CF1D.interval(0, 1, False, True).is_right_closed()


class TestJson:
    def test_schema(self):
        data = CF1D.half_open(0, 1).to_json()
        assert data == {
            "breakpoints": [0.0, 1.0],
            "pointValues": [1, 0],
            "intervalValues": [0, 1, 0],
        }

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            phi = random_cf1d(rng, compact=False)
            assert CF1D.from_json(phi.to_json()).equals(phi)

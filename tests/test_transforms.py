import cmath
import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from eucalc import kernels, transforms
from eucalc.cfnd import (
    CFND,
    ClosedPolytope,
    cone_closure,
    convolve_nd,
    pushforward_linear,
    translate,
)
from eucalc.errors import ImproperConvolution, NonIntegrable
from eucalc.geometry import Polytope
from eucalc.verify import (
    lebesgue_voxels,
    random_voxel_cfnd,
    run_suites,
)


def rectangle_parts(a, b, c, d):
    closed = CFND.from_polytope_points([[a, c], [b, c], [a, d], [b, d]])
    left_edge = CFND.from_polytope_points([[a, c], [a, d]])
    right_edge = CFND.from_polytope_points([[b, c], [b, d]])
    half_open = CFND.from_box([a, c], [b, d])
    return {
        "[a,b)x[c,d)": half_open,
        "[a,b)x[c,d]": closed - right_edge,
        "(a,b]x[c,d]": closed - left_edge,
        "[a,b]x[c,d]": closed,
    }


def gamma_triangle(b):
    solid = CFND.from_polytope_points([[0.0, 0.0], [1.0, 0.0], [0.0, b]])
    hyp = CFND.from_polytope_points([[1.0, 0.0], [0.0, b]])
    return solid - hyp


def polygon_boundary(n, r=1.0):
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = r * np.column_stack([np.cos(angles), np.sin(angles)])
    terms = []
    for i in range(n):
        edge = Polytope(np.array([pts[i], pts[(i + 1) % n]]))
        terms.append((1, ClosedPolytope(edge)))
        terms.append((-1, ClosedPolytope(Polytope(pts[i][None, :]))))
    return CFND(2, tuple(terms))


class TestRectangleClosedForms:
    def test_four_variants(self):
        a, b, c, d = 0.0, 1.0, 0.0, 2.0
        xi = np.array([1.0, 1.0])
        e = lambda u, v: math.exp(-(u + v))
        expected = {
            "[a,b)x[c,d)": e(a, c) - e(a, d) - e(b, c) + e(b, d),
            "[a,b)x[c,d]": e(a, c) - e(b, c),
            "(a,b]x[c,d]": e(a, d) - e(b, d),
            "[a,b]x[c,d]": e(a, c) - e(b, d),
        }
        for name, phi in rectangle_parts(a, b, c, d).items():
            assert transforms.euler_laplace(phi, xi) == pytest.approx(
                expected[name], abs=1e-12
            ), name


class TestGammaTriangle:
    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    def test_laplace_branch_formula(self, b):
        phi = gamma_triangle(b)
        for xx in np.linspace(0.0, 3.0, 6):
            for yy in np.linspace(0.0, 3.0, 6):
                want = (
                    1 - math.exp(-xx) if b * yy >= xx else 1 - math.exp(-b * yy)
                )
                got = transforms.euler_laplace(phi, [xx, yy])
                assert got == pytest.approx(want, abs=1e-12), (b, xx, yy)

    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    def test_fourier_branch_formula(self, b):
        phi = gamma_triangle(b)
        for xx in np.linspace(0.0, 3.0, 6):
            for yy in np.linspace(0.0, 3.0, 6):
                arg = xx if b * yy >= xx else b * yy
                want = 1j * (cmath.exp(-1j * arg) - 1)
                got = transforms.euler_fourier(phi, [xx, yy])
                assert got == pytest.approx(want, abs=1e-12), (b, xx, yy)


class TestNamedTransforms:
    def test_fourier_of_interval(self):
        seg = CFND.from_polytope_points([[0.0], [1.0]])
        want = 1j * (cmath.exp(-1j) - 1)
        assert transforms.euler_fourier(seg, [1.0]) == pytest.approx(want, abs=1e-14)

    def test_gr_window_logic(self):
        seg = CFND.from_polytope_points([[-1.0], [2.0]])
        assert transforms.gr_euler_fourier(seg, [1.0]) == pytest.approx(2.0)

    def test_ecb_transform(self):
        seg = CFND.from_polytope_points([[0.0], [5.0]])
        assert transforms.ecb_transform(seg, [1.0], 2.0) == pytest.approx(2.0)

    def test_polygon_boundary_approximates_circle(self):
        phi = polygon_boundary(64)
        for s in (0.5, 1.0, 2.0):
            xi = np.array([0.6, 0.8]) * s
            el = transforms.euler_laplace(phi, xi)
            assert abs(el - 4 * math.sinh(s)) <= 0.01 * abs(4 * math.sinh(s))
            ef = transforms.euler_fourier(phi, xi)
            assert abs(ef - 4 * math.sin(s)) <= 0.01 * abs(4 * math.sin(s))


class TestCompatibility:
    def test_translation_phases(self):
        phi = gamma_triangle(2.0) + CFND.from_box([0.0, 0.0], [1.0, 0.5])
        xi = np.array([0.8, 1.1])
        x0 = np.array([0.4, -0.7])
        shift = float(xi @ x0)
        assert transforms.euler_laplace(translate(phi, x0), xi) == pytest.approx(
            math.exp(-shift) * transforms.euler_laplace(phi, xi), abs=1e-12
        )
        assert transforms.euler_fourier(translate(phi, x0), xi) == pytest.approx(
            cmath.exp(-1j * shift) * transforms.euler_fourier(phi, xi), abs=1e-12
        )

    def test_duality_via_pushforward(self):
        phi = gamma_triangle(1.0)
        xi = np.array([1.0, 2.0])
        pushed = pushforward_linear(phi, xi)
        for kernel in (kernels.laplace(), kernels.fourier()):
            assert pushed.dualize().lebesgue_pair(kernel) == pytest.approx(
                -pushed.lebesgue_pair(kernel), abs=1e-12
            )

    def test_el_three_term_convolution(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            phi, psi = random_voxel_cfnd(rng), random_voxel_cfnd(rng)
            xi = rng.integers(1, 4, size=2) * 0.5
            el = transforms.euler_laplace
            lhs = el(convolve_nd(phi, psi), xi)
            rhs = (
                el(cone_closure(phi), xi) * el(psi, xi)
                + el(phi, xi) * el(cone_closure(psi), xi)
                - el(phi, xi) * el(psi, xi)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_ef_convolution_sign_and_vanishing(self):
        rng = np.random.default_rng(11)
        phi, psi = random_voxel_cfnd(rng), random_voxel_cfnd(rng)
        conv = convolve_nd(phi, psi)
        ef = transforms.euler_fourier
        xi = np.array([1.0, 0.5])
        assert ef(conv, xi) == pytest.approx(1j * ef(phi, xi) * ef(psi, xi), abs=1e-12)
        assert ef(conv, -xi) == pytest.approx(
            -1j * ef(phi, -xi) * ef(psi, -xi), abs=1e-12
        )
        mixed = np.array([1.0, -0.5])
        assert ef(conv, mixed) == 0
        assert ef(phi, mixed) == 0


class TestVoxelKernelRelations:
    def test_laplace_relation(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            phi = random_voxel_cfnd(rng)
            xi = rng.integers(1, 5, size=2) * 0.5
            lhs = transforms.euler_laplace(phi, xi)
            rhs = lebesgue_voxels(phi, xi)[0] * xi[0] * xi[1]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_fourier_relation(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            phi = random_voxel_cfnd(rng)
            xi = rng.integers(1, 5, size=2) * 0.5
            lhs = transforms.euler_fourier(phi, xi)
            rhs = 1j * lebesgue_voxels(phi, 1j * xi)[0] * xi[0] * xi[1]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestScalingAgainstQuadrature:
    def test_laplace_scaling_lemma(self):
        # EL[phi](s * xi) = s * (classical Laplace of the pushforward at s)
        phi = gamma_triangle(2.0)
        xi = np.array([0.5, 1.0])
        pushed = pushforward_linear(phi, xi)
        points = list(pushed.breakpoints)

        def integrand(t, s):
            return math.exp(-s * t) * pushed.evaluate(t)

        for s in (0.5, 1.0, 2.5):
            numeric, err = quad(
                integrand, points[0] - 1, points[-1] + 1, args=(s,), points=points, limit=200
            )
            got = transforms.euler_laplace(phi, s * xi)
            assert got == pytest.approx(s * numeric, abs=max(1e-9, 10 * err))


class TestGrid:
    def test_single_cell_matches_transform(self):
        phi = gamma_triangle(1.0)
        grid = transforms.grid_eval(phi, kernels.laplace(), [[1.0, 1.0]], [1.0])
        assert grid.values[0][0] == pytest.approx(
            transforms.euler_laplace(phi, [1.0, 1.0])
        )

    def test_zero_function_grid(self):
        grid = transforms.grid_eval(
            CFND(2, ()), kernels.laplace(), [[1.0, 0.0], [0.0, 1.0]], [0.5, 1.0]
        )
        assert all(v == 0 for row in grid.values for v in row)

    def test_missing_cells_recorded(self):
        rays = cone_closure(
            CFND.from_polytope_points([[0, 0], [1, 0], [0, 1], [1, 1]])
        )
        grid = transforms.grid_eval(
            rays, kernels.fourier(), [[1.0, 1.0], [1.0, 2.0]], [1.0]
        )
        assert grid.missing_fraction() == 1.0

    def test_csv_format(self):
        phi = gamma_triangle(1.0)
        grid = transforms.grid_eval(phi, kernels.laplace(), [[1.0, 1.0]], [1.0, 2.0])
        buf = io.StringIO()
        transforms.grid_to_csv(grid, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "dir_1,dir_2,radius,re,im"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_csv_bytes_stable(self):
        phi = gamma_triangle(2.0)
        grid_args = (phi, kernels.fourier(), transforms.direction_circle(5), [0.5, 1.5])
        first, second = io.StringIO(), io.StringIO()
        transforms.grid_to_csv(transforms.grid_eval(*grid_args), first)
        transforms.grid_to_csv(transforms.grid_eval(*grid_args), second)
        assert first.getvalue() == second.getvalue()


def test_noncompact_needs_integrable_kernel():
    rays = cone_closure(
        CFND.from_polytope_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    )
    assert transforms.euler_laplace(rays, [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(NonIntegrable):
        transforms.euler_fourier(rays, [1.0, 1.0])


class TestEngineParity:
    """The vectorised engine keeps the pushforward route's behaviour."""

    def test_cancelling_rays_stay_integrable_under_fourier(self):
        box = CFND.from_box([0.0, 0.0], [1.0, 0.5])
        rays = cone_closure(box)
        assert all(not g.is_bounded for _, g in rays.terms)
        xi = np.array([0.7, 1.3])
        assert transforms.euler_fourier(rays, xi) == pytest.approx(
            transforms.euler_fourier(box, xi), abs=1e-12
        )
        grid = transforms.grid_eval(rays, kernels.fourier(), [[1.0, 2.0]], [0.5, 1.0])
        assert None not in grid.values[0]

    def test_net_ray_gives_missing_cell(self):
        net = cone_closure(CFND.from_polytope_points([[0, 0], [1, 0], [0, 1], [1, 1]]))
        phi = net + gamma_triangle(2.0)
        grid = transforms.grid_eval(phi, kernels.fourier(), [[1.0, 1.0]], [0.5, 1.0])
        assert grid.values == [[None, None]]
        laplace = transforms.grid_eval(phi, kernels.laplace(), [[1.0, 1.0]], [0.5, 1.0])
        assert None not in laplace.values[0]

    def test_mixed_signs_on_ray_box_are_improper(self):
        rays = cone_closure(CFND.from_box([0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ImproperConvolution):
            transforms.euler_laplace(rays, [1.0, -1.0])
        with pytest.raises(ImproperConvolution):
            transforms.grid_eval(rays, kernels.laplace(), [[1.0, 1.0], [1.0, -1.0]], [1.0])

    def test_laplace_overflow_raises(self):
        triangle = CFND.from_polytope_points([[0, 0], [1, 0], [0, 2]])
        with pytest.raises(OverflowError):
            transforms.euler_laplace(triangle, (-1000, 0))
        with pytest.raises(OverflowError):
            transforms.grid_eval(triangle, kernels.laplace(), [[-1.0, 0.0]], [1.0, 1000.0])

    def test_single_cell_results_are_python_scalars(self):
        phi = gamma_triangle(2.0) + CFND.from_box([0.0, 0.0], [1.0, 0.5])
        xi = [0.8, 1.1]
        assert type(transforms.euler_laplace(phi, xi)) is float
        assert type(transforms.gr_euler_fourier(phi, xi)) is float
        assert type(transforms.ecb_transform(phi, xi, 0.5)) is float
        assert type(transforms.euler_fourier(phi, xi)) is complex
        assert type(transforms.euler_fourier(CFND(2, ()), xi)) is complex
        grid = transforms.grid_eval(phi, kernels.fourier(), [xi], [1.0, 2.0])
        assert all(type(v) is complex for v in grid.values[0])

    def test_grid_matches_single_forms(self):
        phi = random_voxel_cfnd(np.random.default_rng(5)) + gamma_triangle(1.0)
        dirs = transforms.direction_circle(5)
        radii = [0.5, 1.0, 2.5]
        for kernel in (kernels.laplace(), kernels.compose_window(kernels.fourier(), -1, 2)):
            grid = transforms.grid_eval(phi, kernel, dirs, radii)
            for direction, row in zip(dirs, grid.values):
                for r, value in zip(radii, row):
                    assert value == transforms.hybrid_transform(phi, r * direction, kernel)

    def test_oracle_suite_passes(self):
        (result,) = run_suites(["transform_oracle"], seed=7, cases=100)
        assert result.passed, result.failures[:3]

"""Randomized verification suites for every identity the library promises.

Each suite draws seeded random inputs, evaluates one compatibility or
index-theoretic identity along two independent routes and records the worst
deviation.  The suites are shared by the test suite and the ``verify``
command-line entry point.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, transforms
from .cf1d import CF1D, recompose
from .cfnd import (
    CFND,
    ClosedPolytope,
    HalfOpenBox,
    bounded_point_groups,
    box_product,
    cone_closure,
    convolve_nd,
    euler_integral_nd,
    is_cone_constructible,
    pushforward_linear,
    translate,
)
from .complexes import (
    EmbeddedComplex,
    PLFunction,
    euler_bessel,
    euler_bessel_index,
    euler_characteristic,
    full_subcomplex_curve,
    gr_index_check,
    index_formula_check,
    level_index_check,
    sublevel_curve,
    sublevel_from_level_check,
)
from .errors import ImproperConvolution, NonIntegrable
from .geometry import OrthantCone, Polytope, dist_to_simplex, minkowski_points, support_value
from .radon import chi_vanishing_check, radon_support_check, recover_pushforward


@dataclass
class SuiteResult:
    name: str
    cases: int
    max_deviation: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def check(self, deviation, tolerance, label):
        deviation = float(deviation)
        self.max_deviation = max(self.max_deviation, deviation)
        if not deviation <= tolerance:
            self.failures.append(f"{label}: deviation {deviation:.3e} > {tolerance:.1e}")

    def check_true(self, condition, label):
        if not condition:
            self.failures.append(label)


# -- random input builders ------------------------------------------------------


def random_cf1d(rng, compact=True, max_breaks=4):
    """Random canonical step function with well-separated lattice breakpoints."""
    k = int(rng.integers(0, max_breaks + 1))
    breaks = rng.choice(np.arange(-12, 13), size=k, replace=False) * 0.25
    breaks = np.sort(breaks)
    point_values = rng.integers(-3, 4, size=k)
    interval_values = rng.integers(-3, 4, size=k + 1)
    if compact or k == 0:
        if k == 0:
            interval_values = [0]
        else:
            interval_values[0] = 0
            interval_values[-1] = 0
    return CF1D(breaks, point_values, interval_values)


def random_voxel_cfnd(rng, dim=2, max_boxes=3):
    """Random signed sum of half-open lattice boxes."""
    terms = []
    for _ in range(int(rng.integers(1, max_boxes + 1))):
        low = rng.integers(-4, 5, size=dim) * 0.5
        width = rng.integers(1, 4, size=dim) * 0.5
        coef = int(rng.choice([-2, -1, 1, 2]))
        terms.append((coef, HalfOpenBox(low, low + width)))
    return CFND(dim, tuple(terms))


def random_polytope_cfnd(rng, dim=2, max_terms=2):
    """Random signed sum of small polytopes (triangles, segments, points)."""
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        count = int(rng.integers(1, 4))
        pts = rng.integers(-4, 5, size=(count, dim)) * 0.5
        coef = int(rng.choice([-2, -1, 1, 2]))
        terms.append((coef, ClosedPolytope(Polytope(pts))))
    return CFND(dim, tuple(terms))


def random_mixed_cfnd(rng, dim=2):
    return random_voxel_cfnd(rng, dim) + random_polytope_cfnd(rng, dim)


def random_gamma_cfnd(rng, max_terms=3):
    """Random signed sum of gamma triangles (solid minus hypotenuse) with
    real-valued, off-lattice corners."""
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        x0, y0 = rng.uniform(-1.5, 1.0, size=2)
        s, b = rng.uniform(0.2, 0.8), rng.uniform(0.5, 3.0)
        a, c = [x0 + s, y0], [x0, y0 + s * b]
        coef = int(rng.choice([-1, 1]))
        terms.append((coef, ClosedPolytope(Polytope([[x0, y0], a, c]))))
        terms.append((-coef, ClosedPolytope(Polytope([a, c]))))
    return CFND(2, tuple(terms))


def random_ray_cfnd(rng):
    """Cone closure of a voxel sum, optionally with a closed box (whose
    closure is a net ray) and a polytope sum added."""
    phi = random_voxel_cfnd(rng)
    if rng.integers(2):
        low = rng.integers(-4, 5, size=2) * 0.5
        corners = [low, low + [0.5, 0.0], low + [0.0, 0.5], low + 0.5]
        phi = phi + CFND.from_polytope_points(corners)
    closure = cone_closure(phi, OrthantCone.nonpositive(2))
    return closure + random_polytope_cfnd(rng) if rng.integers(2) else closure


def random_direction(rng, dim, positive=False, lattice=4):
    """Random direction with lattice components; never the zero form."""
    while True:
        xi = rng.integers(1 if positive else -lattice, lattice + 1, size=dim) * 0.5
        if positive:
            return xi.astype(float)
        if np.any(xi):
            return xi.astype(float)


def random_complex(rng, max_cells=50, n_vertices=None):
    """Random 2-D embedded complex with triangles, edges and lone vertices."""
    while True:
        n = int(n_vertices or rng.integers(4, 9))
        vertices = np.round(rng.uniform(0.0, 2.0, size=(n, 2)), 3)
        cells = []
        indices = list(range(n))
        for _ in range(int(rng.integers(1, 5))):
            tri = tuple(sorted(rng.choice(indices, size=3, replace=False)))
            cells.append(tri)
        for _ in range(int(rng.integers(0, 4))):
            edge = tuple(sorted(rng.choice(indices, size=2, replace=False)))
            cells.append(edge)
        cells.append((int(rng.integers(0, n)),))
        try:
            complex_ = EmbeddedComplex(vertices, tuple(cells))
        except ValueError:
            continue  # degenerate simplex, resample
        if len(complex_.cells) <= max_cells:
            return complex_


def random_pl_values(rng, complex_):
    return PLFunction(
        complex_, rng.integers(0, 13, size=len(complex_.vertices)) * 0.25
    )


# -- closed-form Lebesgue oracles -------------------------------------------------


def lebesgue_laplace_voxels(phi, xi):
    """Classical Laplace transform of a half-open-box sum (closed form)."""
    total = 0.0
    for coef, gen in phi.terms:
        prod = 1.0
        for a, b, x in zip(gen.low, gen.high, xi):
            prod *= (math.exp(-x * a) - math.exp(-x * b)) / x
        total += coef * prod
    return total


def lebesgue_fourier_voxels(phi, xi):
    """Classical Fourier transform of a half-open-box sum (closed form)."""
    total = 0j
    for coef, gen in phi.terms:
        prod = 1.0 + 0j
        for a, b, x in zip(gen.low, gen.high, xi):
            prod *= (np.exp(-1j * x * a) - np.exp(-1j * x * b)) / (1j * x)
        total += coef * prod
    return total


# -- suites ------------------------------------------------------------------------

SUITES = {}  # name -> suite, in definition order


def _suite(fn):
    """Register suite_<name> in SUITES under <name>.

    A suite draws its inputs from rng and records its cases in the
    SuiteResult that run_suites hands it.
    """
    SUITES[fn.__name__.removeprefix("suite_")] = fn
    return fn


@_suite
def suite_geometry(rng, result):
    for i in range(result.cases):
        pts = rng.integers(-4, 5, size=(int(rng.integers(1, 6)), 2)) * 0.5
        p = Polytope(pts)
        q = Polytope(rng.integers(-4, 5, size=(int(rng.integers(1, 6)), 2)) * 0.5)
        xi = random_direction(rng, 2)
        width = support_value(p, xi) + support_value(p, -xi)
        result.check_true(width >= -1e-12, f"case {i}: negative width {width}")
        mink = minkowski_points(p, q)
        result.check(
            abs(
                support_value(mink, xi)
                - support_value(p, xi)
                - support_value(q, xi)
            ),
            1e-12,
            f"case {i}: Minkowski support additivity",
        )
        simplex = rng.uniform(-2, 2, size=(3, 2))
        if np.linalg.matrix_rank(simplex[1:] - simplex[0]) < 2:
            continue
        v = rng.uniform(-3, 3, size=2)
        d = dist_to_simplex(v, simplex)
        vertex_best = min(np.linalg.norm(v - s) for s in simplex)
        result.check_true(
            d <= vertex_best + 1e-12, f"case {i}: distance above vertex distance"
        )
        shift = rng.uniform(-5, 5, size=2)
        result.check(
            abs(d - dist_to_simplex(v + shift, simplex + shift)),
            1e-12,
            f"case {i}: distance translation invariance",
        )


@_suite
def suite_cf1d_roundtrip(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng, compact=bool(rng.integers(0, 2)))
        result.check_true(
            recompose(phi.decompose()).equals(phi), f"case {i}: decompose round trip"
        )
        result.check_true(
            phi.dualize().dualize().equals(phi), f"case {i}: duality involution"
        )
        if phi.is_compactly_supported():
            result.check(
                abs(phi.dualize().euler_integral() - phi.euler_integral()),
                0,
                f"case {i}: dual Euler integral",
            )


@_suite
def suite_convolution_1d(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng)
        psi = random_cf1d(rng)
        theta = random_cf1d(rng)
        result.check_true(
            phi.convolve(psi).equals(psi.convolve(phi)),
            f"case {i}: commutativity",
        )
        result.check_true(
            phi.convolve(psi).convolve(theta).equals(
                phi.convolve(psi.convolve(theta))
            ),
            f"case {i}: associativity",
        )
        result.check_true(
            CF1D.point(0.0).convolve(phi).equals(phi), f"case {i}: unit"
        )
        result.check(
            abs(
                phi.convolve(psi).euler_integral()
                - phi.euler_integral() * psi.euler_integral()
            ),
            0,
            f"case {i}: multiplicative Euler integral",
        )


@_suite
def suite_duality_pairing(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng)
        for kernel in (kernels.laplace(), kernels.fourier(), kernels.heaviside()):
            result.check(
                abs(
                    phi.dualize().lebesgue_pair(kernel)
                    + phi.lebesgue_pair(kernel)
                ),
                1e-12,
                f"case {i}: duality sign under {kernel.name}",
            )


@_suite
def suite_projection_window(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng)
        bounds = np.sort(rng.choice(np.arange(-14, 15), size=2, replace=False) * 0.25 + 0.125)
        a, b = float(bounds[0]), float(bounds[1])
        for kernel in (kernels.laplace(), kernels.fourier()):
            windowed = kernels.compose_window(kernel, a, b)
            result.check(
                abs(
                    phi.lebesgue_pair(windowed)
                    - phi.restrict(a, b).lebesgue_pair(kernel)
                ),
                1e-12,
                f"case {i}: window vs restriction under {kernel.name}",
            )


@_suite
def suite_translation_phase(rng, result):
    for i in range(result.cases):
        phi = random_mixed_cfnd(rng)
        xi = random_direction(rng, 2)
        x0 = rng.integers(-3, 4, size=2) * 0.5
        shift = float(xi @ x0)
        lhs = transforms.euler_laplace(translate(phi, x0), xi)
        rhs = math.exp(-shift) * transforms.euler_laplace(phi, xi)
        result.check(abs(lhs - rhs), 1e-10, f"case {i}: Laplace translation")
        lhs = transforms.euler_fourier(translate(phi, x0), xi)
        rhs = np.exp(-1j * shift) * transforms.euler_fourier(phi, xi)
        result.check(abs(lhs - rhs), 1e-10, f"case {i}: Fourier translation")


@_suite
def suite_direct_image(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng)
        # image of phi under the injective map x -> (x, 2x)
        terms = []
        for gen in phi.decompose():
            if gen.kind not in ("point", "segment"):  # compact inputs have no rays
                raise AssertionError("compact input expected")
            ends = (gen.lo,) if gen.kind == "point" else (gen.lo, gen.hi)
            pts = np.array([[x, 2 * x] for x in ends])
            terms.append((gen.coefficient, ClosedPolytope(Polytope(pts))))
        image = CFND(2, tuple(terms))
        zeta = random_direction(rng, 2)
        pulled = float(zeta[0] + 2 * zeta[1])  # transpose map applied to zeta
        if pulled == 0.0:
            continue
        for kernel in (kernels.laplace(), kernels.fourier()):
            lhs = transforms.hybrid_transform(image, zeta, kernel)
            rhs = phi.pushforward_affine(pulled).lebesgue_pair(kernel)
            result.check(abs(lhs - rhs), 1e-12, f"case {i}: direct image ({kernel.name})")


@_suite
def suite_fubini(rng, result):
    for i in range(result.cases):
        phi = random_mixed_cfnd(rng)
        xi = rng.integers(-4, 5, size=2) * 0.5  # zero components allowed
        pushed = pushforward_linear(phi, xi)
        result.check(
            abs(pushed.euler_integral() - euler_integral_nd(phi)),
            0,
            f"case {i}: Fubini along {xi}",
        )


@_suite
def suite_el_convolution(rng, result):
    cone = OrthantCone.nonpositive(2)
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        psi = random_voxel_cfnd(rng)
        xi = random_direction(rng, 2, positive=True)
        el = transforms.euler_laplace
        lhs = el(convolve_nd(phi, psi), xi)
        el_phi, el_psi = el(phi, xi), el(psi, xi)
        el_phi_c = el(cone_closure(phi, cone), xi)
        el_psi_c = el(cone_closure(psi, cone), xi)
        rhs = el_phi_c * el_psi + el_phi * el_psi_c - el_phi * el_psi
        result.check(abs(lhs - rhs), 1e-10, f"case {i}: three-term identity")


@_suite
def suite_el_cone_product(rng, result):
    cone = OrthantCone.nonpositive(2)
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        psi = random_voxel_cfnd(rng)
        result.check_true(
            is_cone_constructible(phi, cone), f"case {i}: voxel sum constructible"
        )
        xi = random_direction(rng, 2, positive=True)
        lhs = transforms.euler_laplace(convolve_nd(phi, psi), xi)
        rhs = transforms.euler_laplace(phi, xi) * transforms.euler_laplace(psi, xi)
        result.check(abs(lhs - rhs), 1e-10, f"case {i}: product identity")
        # box product against separate directions
        eta_phi = random_voxel_cfnd(rng, dim=1)
        eta_psi = random_voxel_cfnd(rng, dim=1)
        x1 = random_direction(rng, 1, positive=True)
        x2 = random_direction(rng, 1, positive=True)
        lhs = transforms.euler_laplace(
            box_product(eta_phi, eta_psi), np.concatenate([x1, x2])
        )
        rhs = transforms.euler_laplace(eta_phi, x1) * transforms.euler_laplace(
            eta_psi, x2
        )
        result.check(abs(lhs - rhs), 1e-10, f"case {i}: box-product identity")


@_suite
def suite_ef_convolution(rng, result):
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        psi = random_voxel_cfnd(rng)
        conv = convolve_nd(phi, psi)
        ef = transforms.euler_fourier
        xi_pos = random_direction(rng, 2, positive=True)
        result.check(
            abs(ef(conv, xi_pos) - 1j * ef(phi, xi_pos) * ef(psi, xi_pos)),
            1e-10,
            f"case {i}: +i branch",
        )
        xi_neg = -xi_pos
        result.check(
            abs(ef(conv, xi_neg) + 1j * ef(phi, xi_neg) * ef(psi, xi_neg)),
            1e-10,
            f"case {i}: -i branch",
        )
        xi_mixed = np.array([xi_pos[0], -xi_pos[1]])
        for name, func in (("conv", conv), ("phi", phi), ("psi", psi)):
            result.check(
                abs(ef(func, xi_mixed)),
                0,
                f"case {i}: vanishing branch ({name})",
            )


@_suite
def suite_voxel_laplace(rng, result):
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        xi = random_direction(rng, 2, positive=True)
        lhs = transforms.euler_laplace(phi, xi)
        rhs = lebesgue_laplace_voxels(phi, xi) * float(np.prod(xi))
        scale = max(abs(lhs), abs(rhs), 1e-6)
        result.check(abs(lhs - rhs) / scale, 1e-10, f"case {i}: Laplace relation")


@_suite
def suite_voxel_fourier(rng, result):
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        xi = random_direction(rng, 2, positive=True)
        lhs = transforms.euler_fourier(phi, xi)
        rhs = (1j ** (2 - 1)) * lebesgue_fourier_voxels(phi, xi) * float(np.prod(xi))
        scale = max(abs(lhs), abs(rhs), 1e-6)
        result.check(abs(lhs - rhs) / scale, 1e-10, f"case {i}: Fourier relation")


@_suite
def suite_pushforward_structure(rng, result):
    cone = OrthantCone.nonpositive(2)
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        xi_pos = random_direction(rng, 2, positive=True)
        result.check_true(
            pushforward_linear(phi, xi_pos).is_right_closed(),
            f"case {i}: right-closed pushforward",
        )
        closure = cone_closure(phi, cone)
        result.check_true(
            pushforward_linear(closure, xi_pos).equals(
                pushforward_linear(phi, xi_pos)
            ),
            f"case {i}: closure invariance of constructible input",
        )
        mixed = random_mixed_cfnd(rng)
        xi = random_direction(rng, 2)
        x0 = rng.integers(-3, 4, size=2) * 0.5
        lhs = pushforward_linear(translate(mixed, x0), xi)
        rhs = pushforward_linear(mixed, xi).pushforward_affine(1.0, float(xi @ x0))
        result.check_true(lhs.equals(rhs), f"case {i}: translation exchange")
        psi = random_voxel_cfnd(rng)
        lhs = pushforward_linear(convolve_nd(phi, psi), xi_pos)
        rhs = pushforward_linear(phi, xi_pos).convolve(
            pushforward_linear(psi, xi_pos)
        )
        result.check_true(lhs.equals(rhs), f"case {i}: convolution exchange")
        eta1 = random_direction(rng, 2)
        eta2 = random_direction(rng, 2)
        prod = box_product(phi, psi)
        lhs = pushforward_linear(prod, np.concatenate([eta1, eta2]))
        rhs = pushforward_linear(phi, eta1).convolve(pushforward_linear(psi, eta2))
        result.check_true(lhs.equals(rhs), f"case {i}: box-product exchange")


@_suite
def suite_regularity_regions(rng, result):
    for i in range(result.cases):
        pts = rng.uniform(-2, 2, size=(int(rng.integers(3, 6)), 2))
        poly = CFND.from_polytope_points(pts)
        xi0 = rng.uniform(-2, 2, size=2)
        values = pts @ xi0
        v_max = pts[int(np.argmax(values))]
        v_min = pts[int(np.argmin(values))]
        for _ in range(5):
            xi = xi0 + rng.uniform(-1e-3, 1e-3, size=2)
            values = pts @ xi
            if (
                np.argmax(values) != np.argmax(pts @ xi0)
                or np.argmin(values) != np.argmin(pts @ xi0)
            ):
                continue  # perturbation left the open constancy region
            lhs = transforms.euler_laplace(poly, xi)
            rhs = math.exp(-float(xi @ v_min)) - math.exp(-float(xi @ v_max))
            result.check(abs(lhs - rhs), 1e-12, f"case {i}: argmax-region closed form")


@_suite
def suite_kernels(rng, result):
    for i in range(result.cases):
        kernel = (kernels.laplace(), kernels.heaviside(), kernels.ecb(1.0))[i % 3]
        a, b, c = np.sort(rng.uniform(-5, 5, size=3))
        lhs = kernel.integrate(a, b) + kernel.integrate(b, c)
        result.check(abs(lhs - kernel.integrate(a, c)), 1e-12, f"case {i}: additivity")
        if kernel.monotonicity == "increasing":
            lo = max(kernel.window[0], -8.0)
            hi = min(kernel.window[1], 8.0)
            xs = np.sort(rng.uniform(lo, hi, size=2))
            if xs[1] - xs[0] > 1e-9:
                diff = kernel.antideriv_at(float(xs[1])) - kernel.antideriv_at(
                    float(xs[0])
                )
                result.check_true(diff > 0, f"case {i}: increasing tag")


@_suite
def suite_sublevel_complex(rng, result):
    for i in range(result.cases):
        complex_ = random_complex(rng)
        g = random_pl_values(rng, complex_)
        result.check_true(
            sublevel_from_level_check(complex_, g),
            f"case {i}: sublevel = level convolved with upper ray",
        )
        curve = sublevel_curve(complex_, g)
        result.check_true(
            full_subcomplex_curve(complex_, g).equals(curve),
            f"case {i}: full-subcomplex cross-check",
        )
        result.check(
            abs(curve.at_infinity() - euler_characteristic(complex_)),
            0,
            f"case {i}: curve saturates at chi(Z)",
        )


@_suite
def suite_index_sublevel(rng, result):
    for i in range(result.cases):
        complex_ = random_complex(rng)
        xi = random_direction(rng, 2)
        a, b = np.sort(rng.uniform(-2.0, 4.0, size=2))
        for base in (kernels.laplace(), kernels.negate(kernels.laplace())):
            for window in ((a, b), (a, float("inf"))):
                kernel = kernels.compose_window(base, *window)
                report = index_formula_check(complex_, None, xi, kernel)
                result.check(
                    report.difference,
                    1e-9,
                    f"case {i}: sublevel index ({base.name}, window {window})",
                )


@_suite
def suite_index_level(rng, result):
    for i in range(result.cases):
        complex_ = random_complex(rng)
        xi = random_direction(rng, 2)
        a, b = np.sort(rng.uniform(-2.0, 4.0, size=2))
        for base in (kernels.laplace(), kernels.negate(kernels.laplace())):
            for window in ((a, b), (float("-inf"), float("inf"))):
                kernel = kernels.compose_window(base, *window)
                report = level_index_check(complex_, None, xi, kernel)
                result.check(
                    report.difference,
                    1e-9,
                    f"case {i}: level index ({base.name}, window {window})",
                )


@_suite
def suite_index_gr(rng, result):
    for i in range(result.cases):
        complex_ = random_complex(rng)
        xi = random_direction(rng, 2)
        report = gr_index_check(complex_, None, xi)
        result.check(report.difference, 1e-9, f"case {i}: half-line index")


@_suite
def suite_bessel_dual(rng, result):
    for i in range(result.cases):
        complex_ = random_complex(rng, max_cells=30)
        v = rng.uniform(-1.0, 3.0, size=2)
        direct = euler_bessel(complex_, v)
        index = euler_bessel_index(complex_, v)
        result.check(abs(direct - index), 1e-9, f"case {i}: dual-path agreement")


@_suite
def suite_radon(rng, result):
    cone = OrthantCone.nonpositive(2)
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        result.check_true(
            chi_vanishing_check(phi, cone), f"case {i}: Euler integral vanishes"
        )
        sign = rng.choice([-1.0, 1.0])
        xi_mixed = np.array([sign, -sign]) * rng.integers(1, 4, size=2)
        result.check_true(
            radon_support_check(phi, cone, xi_mixed),
            f"case {i}: support vanishing at {xi_mixed}",
        )
        result.check_true(
            radon_support_check(phi, cone, random_direction(rng, 2, positive=True)),
            f"case {i}: vacuous branch",
        )
    square = CFND.from_box([0.0, 0.0], [1.0, 1.0])
    for t, want in ((0.25, 1.0), (0.5, 1.0), (1.5, -1.0)):
        got = recover_pushforward(square, cone, np.array([1.0, 1.0]), t)
        result.check(abs(got - want), 0.05, f"recovery at t={t}")
    result.check(
        abs(recover_pushforward(square, cone, np.array([1.0, -1.0]), 0.5)),
        0,
        "mixed-direction recovery is exact zero",
    )


def _random_kernel(rng):
    """One of laplace, fourier, gr and ecb:a, half of the time windowed."""
    kernel = (
        kernels.laplace(),
        kernels.fourier(),
        kernels.heaviside(),
        kernels.ecb(float(rng.uniform(-2.0, 2.0))),
    )[int(rng.integers(4))]
    if rng.integers(2):
        lo = min(float(rng.uniform(-3.0, 1.0)), kernel.window[1] - 0.5)
        hi = lo + float(rng.uniform(0.5, 4.0)) if rng.integers(4) else math.inf
        kernel = kernels.compose_window(kernel, lo, hi)
    return kernel


def _outcome(evaluate):
    """The value of evaluate(), or the name of the error it raises."""
    try:
        return evaluate()
    except NonIntegrable:
        return "missing"
    except ImproperConvolution:
        return "improper"
    except OverflowError:
        return "overflow"


def _pairing_tolerance(phi, xi, kernel):
    """Allowed gap between two exact pairing routes at one form.

    1e-12 relative to every term, plus 1e-9 times the kernel at each end
    point within 1e-9 of another end point or a window end, where the step
    algebra merges breakpoints.  Points (segments with equal ends) have no
    terms.  |kernel| is bounded by |K| + 1 for every kernel of the library.
    """
    points, starts, coefs, rays = bounded_point_groups(phi)
    proj = points @ xi
    bounds = list(starts[1:]) + [len(points)]
    ends, weights = [], []
    for start, stop, coef in zip(starts, bounds, coefs):
        lo, hi = proj[start:stop].min(), proj[start:stop].max()
        ends += [lo, hi]
        weights += [0 if lo == hi else abs(int(coef))] * 2
    for coef, box in rays.terms:
        ends.append(float(box.low @ xi))
        weights.append(abs(coef))
    marks = np.unique(ends + [w for w in kernel.window if math.isfinite(w)])
    close = marks[1:] - marks[:-1] <= 1e-9
    near_marks = np.concatenate([marks[:-1][close], marks[1:][close]])
    ends, weights = np.array(ends), np.array(weights, dtype=float)
    near = np.isin(ends, near_marks)[weights > 0]
    ends, weights = ends[weights > 0], weights[weights > 0]
    with np.errstate(all="ignore"):  # near the float range it is inf
        size = np.abs(kernel.antideriv(np.clip(ends, *kernel.window)))
        rounding = float(np.sum(weights * (size + (size + 1.0) * (1.0 + np.abs(ends)))))
        merge = float(np.sum(weights[near] * (size[near] + 1.0)))
    return 1e-12 * (1.0 + rounding) + 1e-9 * merge


@_suite
def suite_transform_oracle(rng, result):
    """The vectorised transform engine against the pushforward route.

    Scenes cycle through polytope, voxel, gamma and cone-closure sums; each
    case draws a kernel and four forms (one sometimes large enough for the
    Laplace kernel to overflow).  Per form, single-form calls must agree
    with the pushforward paired against the kernel: the same value within
    the pairing tolerance, or the same error.  The grid call over all four
    forms must give the same missing cells, or raise the error of the first
    form that raises one.
    """
    builders = (random_polytope_cfnd, random_voxel_cfnd, random_gamma_cfnd, random_ray_cfnd)
    for i in range(result.cases):
        phi = builders[i % 4](rng)
        kernel = _random_kernel(rng)
        positive = i % 4 == 3  # rays are proper on the positive quadrant only
        forms = np.array([
            random_direction(rng, 2, positive=positive and k < 3) * rng.uniform(0.25, 3.0)
            for k in range(4)
        ])
        if rng.integers(8) == 0:
            forms[3] *= 400.0
        want = [
            _outcome(lambda xi=xi: pushforward_linear(phi, xi).lebesgue_pair(kernel))
            for xi in forms
        ]
        for xi, expected in zip(forms, want):
            got = _outcome(lambda xi=xi: transforms.hybrid_transform(phi, xi, kernel))
            label = f"case {i}: {kernel.name} window {kernel.window} at {xi}"
            if isinstance(expected, str) or isinstance(got, str):
                result.check_true(got == expected, f"{label}: got {got!r}, want {expected!r}")
                continue
            result.check_true(
                type(got) is (complex if kernel.field == "complex" else float),
                f"{label}: result type {type(got).__name__}",
            )
            tol = _pairing_tolerance(phi, xi, kernel)
            result.check(abs(got - expected) / tol, 1.0, f"{label}: gap over tolerance")
        errors = [w for w in want if w in ("improper", "overflow")]
        grid = _outcome(lambda: transforms.hybrid_transform(phi, forms, kernel))
        if errors or isinstance(grid, str):
            want_grid = errors[0] if errors else "no error"
            result.check_true(grid == want_grid, f"case {i}: grid {grid!r}, want {want_grid!r}")
            continue
        for xi, got, expected in zip(forms, grid, want):
            if got is None or expected == "missing":
                result.check_true(
                    got is None and expected == "missing",
                    f"case {i}: grid cell at {xi}: got {got!r}, want {expected!r}",
                )
            else:
                tol = _pairing_tolerance(phi, xi, kernel)
                result.check(abs(got - expected) / tol, 1.0, f"case {i}: grid cell at {xi}")


def run_suites(names=None, seed=42, cases=50):
    """Run the selected (default: all) suites, each on its own seeded stream."""
    selected = list(SUITES) if names is None else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = []
    for name in selected:
        result = SuiteResult(name, cases)
        SUITES[name](np.random.default_rng(seed), result)
        results.append(result)
    return results

"""Randomized verification suites for every identity the library promises.

Each suite draws seeded random inputs, evaluates one compatibility or
index-theoretic identity along two independent routes and records the worst
gap between them.  The suites are shared by the test suite and the
``verify`` command-line entry point.

One rule covers every approximate check (SuiteResult.close): the routes may
differ by 2^-46 * (1 + size), 64 ulps of size, the summed magnitude of the
terms behind the two values.  That is the forward error bound
(n - 1) * u * sum |x| of floating-point summation (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, sec. 4.2) for up to 129 terms.
Integer identities are checked exactly (check_true).
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, transforms
from .cf1d import CF1D, EPS, recompose
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
    cell_distances,
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
from .geometry import Polytope, dist_to_simplex, minkowski_points, support_value
from .radon import chi_vanishing_check, radon_support_check, recover_pushforward


@dataclass
class SuiteResult:
    """Failures of one suite and its worst gap as a fraction of the tolerance."""

    name: str
    cases: int
    max_gap: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def close(self, got, want, size, label, merge=0.0):
        """Check |got - want| <= 2^-46 * (1 + size) + EPS * merge.

        merge is the kernel size at the end points that the CF1D route
        merges within EPS; only identities against that route pass it.
        """
        tolerance = 2.0**-46 * (1.0 + size) + EPS * merge
        gap = abs(got - want) / tolerance
        self.max_gap = max(self.max_gap, gap)
        if not gap <= 1.0:
            self.failures.append(f"{label}: |{got!r} - {want!r}| > {tolerance:.3e}")

    def check_true(self, condition, label):
        if not condition:
            self.failures.append(label)


# -- random input builders ------------------------------------------------------


def random_cf1d(rng, compact=True, max_breaks=4):
    """Random canonical step function with well-separated lattice breakpoints."""
    k = int(rng.integers(0, max_breaks + 1))
    breaks = np.sort(rng.choice(np.arange(-12, 13), size=k, replace=False) * 0.25)
    point_values = rng.integers(-3, 4, size=k)
    interval_values = rng.integers(-3, 4, size=k + 1)
    if compact or k == 0:
        interval_values[0] = interval_values[-1] = 0
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
    closure = cone_closure(phi)
    return closure + random_polytope_cfnd(rng) if rng.integers(2) else closure


def random_direction(rng, dim, positive=False, lattice=4):
    """Random direction with lattice components; never the zero form."""
    while True:
        xi = rng.integers(1 if positive else -lattice, lattice + 1, size=dim) * 0.5
        if positive or np.any(xi):
            return xi.astype(float)


def random_complex(rng, max_cells=50, n_vertices=None):
    """Random 2-D embedded complex with triangles, edges and lone vertices."""
    while True:
        n = int(n_vertices or rng.integers(4, 9))
        vertices = np.round(rng.uniform(0.0, 2.0, size=(n, 2)), 3)
        cells = []
        indices = list(range(n))
        for _ in range(int(rng.integers(1, 5))):
            cells.append(tuple(sorted(rng.choice(indices, size=3, replace=False))))
        for _ in range(int(rng.integers(0, 4))):
            cells.append(tuple(sorted(rng.choice(indices, size=2, replace=False))))
        cells.append((int(rng.integers(0, n)),))
        try:
            complex_ = EmbeddedComplex(vertices, tuple(cells))
        except ValueError:
            continue  # degenerate simplex, resample
        if len(complex_.cells) <= max_cells:
            return complex_


def random_pl_values(rng, complex_):
    return PLFunction(complex_, rng.integers(0, 13, size=len(complex_.vertices)) * 0.25)


# -- closed-form oracles and term sizes -------------------------------------------


def lebesgue_voxels(phi, z):
    """Classical transform of a half-open-box sum at z, in closed form.

    The integral of phi(x) exp(-<z, x>) dx: the Laplace transform for real
    z, the Fourier transform for z = i * xi.  Returns the value and the
    summed magnitude of its terms.
    """
    total, size = 0.0, 0.0
    for coef, gen in phi.terms:
        at_low, at_high = np.exp(-z * gen.low), np.exp(-z * gen.high)
        total += coef * np.prod((at_low - at_high) / z)
        size += abs(coef) * np.prod((np.abs(at_low) + np.abs(at_high)) / np.abs(z))
    return (complex(total) if np.iscomplexobj(z) else float(total)), float(size)


def _size(kernel, ends, weights):
    """Sum of w * (|K| + (|K| + 1) * (1 + |end|)) over the ends, clipped to
    the window: K's rounding, plus an end's, which moves K by at most
    |kappa| <= |K| + 1 per unit for every kernel of the library.  An
    infinite end adds the exact constant K(+-inf), so it is skipped."""
    ends = np.clip(ends, *kernel.window)
    keep = (weights > 0) & np.isfinite(ends)
    ends, weights = ends[keep], weights[keep]
    with np.errstate(all="ignore"):  # near the float range it is inf
        k = np.abs(kernel.antideriv(ends))
        return float(np.sum(weights * (k + (k + 1.0) * (1.0 + np.abs(ends)))))


def _generator_ends(phi, xi):
    """End points of phi's generators along xi, weighted by |coefficient|
    (0 for points, which pair to zero)."""
    points, starts, coefs, rays = bounded_point_groups(phi)
    proj = points @ xi
    lo, hi = np.minimum.reduceat(proj, starts), np.maximum.reduceat(proj, starts)
    weight = np.where(lo == hi, 0, np.abs(coefs))
    ends = [lo, hi, [box.low @ xi for _, box in rays.terms]]
    weights = [weight, weight, [abs(c) for c, _ in rays.terms]]
    return np.concatenate(ends).astype(float), np.concatenate(weights).astype(float)


def _pairing_size(phi, xi, kernel):
    """Size of the transform of a scene at one form."""
    return _size(kernel, *_generator_ends(phi, xi))


def _cf1d_size(f, kernel):
    """Size of f.lebesgue_pair(kernel): _size over the ends of f's pieces."""
    lo, hi, values = np.array(f.pieces()).T
    return _size(kernel, np.concatenate([lo, hi]), np.abs(np.concatenate([values, values])))


def _merge_size(kernel, ends, weights):
    """Sum of w * (|K| + 1) over the ends within EPS of another end or a
    window end, where the CF1D route merges end points."""
    marks = np.unique(np.concatenate([ends, [w for w in kernel.window if math.isfinite(w)]]))
    close = marks[1:] - marks[:-1] <= EPS
    near = np.isin(ends, np.concatenate([marks[:-1][close], marks[1:][close]])) & (weights > 0)
    with np.errstate(all="ignore"):
        k = np.abs(kernel.antideriv(np.clip(ends[near], *kernel.window)))
        return float(np.sum(weights[near] * (k + 1.0)))


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
        result.check_true(width >= 0, f"case {i}: negative width {width}")
        s = [support_value(f, xi) for f in (minkowski_points(p, q), p, q)]
        result.close(s[0], s[1] + s[2], sum(map(abs, s)), f"case {i}: Minkowski support")
        simplex = rng.uniform(-2, 2, size=(3, 2))
        if np.linalg.matrix_rank(simplex[1:] - simplex[0]) < 2:
            continue
        v = rng.uniform(-3, 3, size=2)
        d = dist_to_simplex(v, simplex)
        vertex_best = min(np.linalg.norm(v - s) for s in simplex)
        # a distance adds coordinate differences: its size is sum |coordinate|
        size = np.abs(simplex).sum() + np.abs(v).sum()
        result.close(d, min(d, vertex_best), size, f"case {i}: above vertex distance")
        shift = rng.uniform(-5, 5, size=2)
        moved = dist_to_simplex(v + shift, simplex + shift)
        size += np.abs(simplex + shift).sum() + np.abs(v + shift).sum()
        result.close(d, moved, size, f"case {i}: distance translation invariance")


@_suite
def suite_cf1d_roundtrip(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng, compact=bool(rng.integers(0, 2)))
        result.check_true(
            recompose(phi.decompose()).equals(phi), f"case {i}: decompose round trip"
        )
        result.check_true(phi.dualize().dualize().equals(phi), f"case {i}: duality involution")
        if phi.is_compactly_supported():
            result.check_true(
                phi.dualize().euler_integral() == phi.euler_integral(),
                f"case {i}: dual Euler integral",
            )


@_suite
def suite_convolution_1d(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng)
        psi = random_cf1d(rng)
        theta = random_cf1d(rng)
        conv = phi.convolve(psi)
        result.check_true(conv.equals(psi.convolve(phi)), f"case {i}: commutativity")
        result.check_true(
            conv.convolve(theta).equals(phi.convolve(psi.convolve(theta))),
            f"case {i}: associativity",
        )
        result.check_true(CF1D.point(0.0).convolve(phi).equals(phi), f"case {i}: unit")
        result.check_true(
            conv.euler_integral() == phi.euler_integral() * psi.euler_integral(),
            f"case {i}: multiplicative Euler integral",
        )


@_suite
def suite_duality_pairing(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng)
        dual = phi.dualize()
        for kernel in (kernels.laplace(), kernels.fourier(), kernels.heaviside()):
            result.close(
                dual.lebesgue_pair(kernel), -phi.lebesgue_pair(kernel),
                _cf1d_size(dual, kernel) + _cf1d_size(phi, kernel),
                f"case {i}: duality sign under {kernel.name}",
            )


@_suite
def suite_projection_window(rng, result):
    for i in range(result.cases):
        phi = random_cf1d(rng)
        bounds = np.sort(rng.choice(np.arange(-14, 15), size=2, replace=False) * 0.25 + 0.125)
        a, b = float(bounds[0]), float(bounds[1])
        restricted = phi.restrict(a, b)
        for kernel in (kernels.laplace(), kernels.fourier()):
            windowed = kernels.compose_window(kernel, a, b)
            result.close(
                phi.lebesgue_pair(windowed), restricted.lebesgue_pair(kernel),
                _cf1d_size(phi, windowed) + _cf1d_size(restricted, kernel),
                f"case {i}: window vs restriction under {kernel.name}",
            )


@_suite
def suite_translation_phase(rng, result):
    for i in range(result.cases):
        phi = random_mixed_cfnd(rng)
        xi = random_direction(rng, 2)
        x0 = rng.integers(-3, 4, size=2) * 0.5
        moved, shift = translate(phi, x0), float(xi @ x0)
        for kernel, phase in (
            (kernels.laplace(), math.exp(-shift)),
            (kernels.fourier(), cmath.exp(-1j * shift)),
        ):
            result.close(
                transforms.hybrid_transform(moved, xi, kernel),
                phase * transforms.hybrid_transform(phi, xi, kernel),
                _pairing_size(moved, xi, kernel) + abs(phase) * _pairing_size(phi, xi, kernel),
                f"case {i}: {kernel.name} translation",
            )


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
        pushed = phi.pushforward_affine(pulled)
        for kernel in (kernels.laplace(), kernels.fourier()):
            result.close(
                transforms.hybrid_transform(image, zeta, kernel),
                pushed.lebesgue_pair(kernel),
                _pairing_size(image, zeta, kernel) + _cf1d_size(pushed, kernel),
                f"case {i}: direct image ({kernel.name})",
            )


@_suite
def suite_fubini(rng, result):
    for i in range(result.cases):
        phi = random_mixed_cfnd(rng)
        xi = rng.integers(-4, 5, size=2) * 0.5  # zero components allowed
        result.check_true(
            pushforward_linear(phi, xi).euler_integral() == euler_integral_nd(phi),
            f"case {i}: Fubini along {xi}",
        )


def _transform(f, xi, kernel):
    """The transform of f at xi and its size."""
    return transforms.hybrid_transform(f, xi, kernel), _pairing_size(f, xi, kernel)


@_suite
def suite_el_convolution(rng, result):
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        psi = random_voxel_cfnd(rng)
        xi = random_direction(rng, 2, positive=True)
        closures = (cone_closure(phi), cone_closure(psi))
        (lhs, s), (f, sf), (g, sg), (fc, sfc), (gc, sgc) = (
            _transform(h, xi, kernels.laplace())
            for h in (convolve_nd(phi, psi), phi, psi, *closures)
        )
        result.close(
            lhs, fc * g + f * gc - f * g, s + sfc * sg + sf * sgc + sf * sg,
            f"case {i}: three-term identity",
        )


@_suite
def suite_el_cone_product(rng, result):
    laplace = kernels.laplace()
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        psi = random_voxel_cfnd(rng)
        result.check_true(is_cone_constructible(phi), f"case {i}: voxel sum constructible")
        xi = random_direction(rng, 2, positive=True)
        (lhs, s), (f, sf), (g, sg) = (
            _transform(h, xi, laplace) for h in (convolve_nd(phi, psi), phi, psi)
        )
        result.close(lhs, f * g, s + sf * sg, f"case {i}: product identity")
        # box product against separate directions
        eta_phi = random_voxel_cfnd(rng, dim=1)
        eta_psi = random_voxel_cfnd(rng, dim=1)
        x1 = random_direction(rng, 1, positive=True)
        x2 = random_direction(rng, 1, positive=True)
        lhs, s = _transform(box_product(eta_phi, eta_psi), np.concatenate([x1, x2]), laplace)
        (f, sf), (g, sg) = _transform(eta_phi, x1, laplace), _transform(eta_psi, x2, laplace)
        result.close(lhs, f * g, s + sf * sg, f"case {i}: box-product identity")


@_suite
def suite_ef_convolution(rng, result):
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        psi = random_voxel_cfnd(rng)
        conv = convolve_nd(phi, psi)
        xi_pos = random_direction(rng, 2, positive=True)
        for xi, unit in ((xi_pos, 1j), (-xi_pos, -1j)):
            (lhs, s), (f, sf), (g, sg) = (
                _transform(h, xi, kernels.fourier()) for h in (conv, phi, psi)
            )
            result.close(lhs, unit * f * g, s + sf * sg, f"case {i}: {unit:+} branch")
        xi_mixed = np.array([xi_pos[0], -xi_pos[1]])
        for name, func in (("conv", conv), ("phi", phi), ("psi", psi)):
            result.check_true(
                transforms.euler_fourier(func, xi_mixed) == 0,
                f"case {i}: vanishing branch ({name})",
            )


def _voxel_relation(rng, result, kernel, unit):
    """EL (unit 1) or EF (unit i) of a voxel sum at xi in the open positive
    quadrant is unit^(d-1) * prod(xi) times the classical transform at
    unit * xi."""
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        xi = random_direction(rng, 2, positive=True)
        value, size = lebesgue_voxels(phi, unit * xi)
        factor = unit ** (len(xi) - 1) * float(np.prod(xi))
        result.close(
            transforms.hybrid_transform(phi, xi, kernel), factor * value,
            _pairing_size(phi, xi, kernel) + abs(factor) * size,
            f"case {i}: {kernel.name} relation",
        )


@_suite
def suite_voxel_laplace(rng, result):
    _voxel_relation(rng, result, kernels.laplace(), 1.0)


@_suite
def suite_voxel_fourier(rng, result):
    _voxel_relation(rng, result, kernels.fourier(), 1j)


@_suite
def suite_pushforward_structure(rng, result):
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        xi_pos = random_direction(rng, 2, positive=True)
        pushed = pushforward_linear(phi, xi_pos)
        result.check_true(pushed.is_right_closed(), f"case {i}: right-closed pushforward")
        result.check_true(
            pushforward_linear(cone_closure(phi), xi_pos).equals(pushed),
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
        rhs = pushed.convolve(pushforward_linear(psi, xi_pos))
        result.check_true(lhs.equals(rhs), f"case {i}: convolution exchange")
        eta1 = random_direction(rng, 2)
        eta2 = random_direction(rng, 2)
        lhs = pushforward_linear(box_product(phi, psi), np.concatenate([eta1, eta2]))
        rhs = pushforward_linear(phi, eta1).convolve(pushforward_linear(psi, eta2))
        result.check_true(lhs.equals(rhs), f"case {i}: box-product exchange")


@_suite
def suite_regularity_regions(rng, result):
    laplace = kernels.laplace()
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
            lhs = transforms.hybrid_transform(poly, xi, laplace)
            rhs = math.exp(-float(xi @ v_min)) - math.exp(-float(xi @ v_max))
            # the closed form is the same pairing, at the extreme vertices
            size = 2 * _pairing_size(poly, xi, laplace)
            result.close(lhs, rhs, size, f"case {i}: argmax-region closed form")


@_suite
def suite_kernels(rng, result):
    for i in range(result.cases):
        kernel = (kernels.laplace(), kernels.heaviside(), kernels.ecb(1.0))[i % 3]
        a, b, c = np.sort(rng.uniform(-5, 5, size=3))
        lhs = kernel.integrate(a, b) + kernel.integrate(b, c)
        # the two sides add K twice at each of a, b and c
        size = 2 * sum(abs(kernel.antideriv_at(x)) for x in (a, b, c))
        result.close(lhs, kernel.integrate(a, c), size, f"case {i}: additivity")
        if kernel.monotonicity == "increasing":
            lo = max(kernel.window[0], -8.0)
            hi = min(kernel.window[1], 8.0)
            xs = np.sort(rng.uniform(lo, hi, size=2))
            if xs[1] - xs[0] > EPS:  # distinct as breakpoints
                diff = kernel.antideriv_at(float(xs[1])) - kernel.antideriv_at(float(xs[0]))
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
        result.check_true(
            curve.at_infinity() == euler_characteristic(complex_),
            f"case {i}: curve saturates at chi(Z)",
        )


def _index_suite(rng, result, index_check, open_below):
    """Both sides of an index formula under +-Laplace, windowed on (a, b)
    and on (a, inf), or on (-inf, inf) if open_below."""
    for i in range(result.cases):
        complex_ = random_complex(rng)
        xi = random_direction(rng, 2)
        a, b = np.sort(rng.uniform(-2.0, 4.0, size=2))
        for base in (kernels.laplace(), kernels.negate(kernels.laplace())):
            for window in ((a, b), (-math.inf if open_below else a, math.inf)):
                kernel = kernels.compose_window(base, *window)
                report = index_check(complex_, None, xi, kernel)
                result.close(
                    report.lhs, report.rhs, report.size,
                    f"case {i}: {index_check.__name__} ({base.name}, window {window})",
                )


@_suite
def suite_index_sublevel(rng, result):
    _index_suite(rng, result, index_formula_check, open_below=False)


@_suite
def suite_index_level(rng, result):
    _index_suite(rng, result, level_index_check, open_below=True)


@_suite
def suite_index_gr(rng, result):
    for i in range(result.cases):
        complex_ = random_complex(rng)
        report = gr_index_check(complex_, None, random_direction(rng, 2))
        result.close(report.lhs, report.rhs, report.size, f"case {i}: half-line index")


@_suite
def suite_bessel_dual(rng, result):
    for i in range(result.cases):
        complex_ = random_complex(rng, max_cells=30)
        v = rng.uniform(-1.0, 3.0, size=2)
        # either side adds at most (1 + |w_c|) * d_c per cell c
        weights = dict(complex_.weighted_cells)
        dists = cell_distances(complex_, v)
        size = 2 * sum((1 + abs(weights.get(c, 0))) * d for c, d in dists.items())
        result.close(
            euler_bessel(complex_, v), euler_bessel_index(complex_, v), size,
            f"case {i}: dual-path agreement",
        )


@_suite
def suite_radon(rng, result):
    for i in range(result.cases):
        phi = random_voxel_cfnd(rng)
        result.check_true(chi_vanishing_check(phi), f"case {i}: Euler integral vanishes")
        sign = rng.choice([-1.0, 1.0])
        xi_mixed = np.array([sign, -sign]) * rng.integers(1, 4, size=2)
        result.check_true(
            radon_support_check(phi, xi_mixed),
            f"case {i}: support vanishing at {xi_mixed}",
        )
        result.check_true(
            radon_support_check(phi, random_direction(rng, 2, positive=True)),
            f"case {i}: vacuous branch",
        )
    quadrature_bound = 0.05  # trapezoid error at the default RecoveryParams, not rounding
    square = CFND.from_box([0.0, 0.0], [1.0, 1.0])
    for t, want in ((0.25, 1.0), (0.5, 1.0), (1.5, -1.0)):
        got = recover_pushforward(square, np.array([1.0, 1.0]), t)
        result.check_true(abs(got - want) <= quadrature_bound, f"recovery at t={t}: got {got!r}")
    result.check_true(
        recover_pushforward(square, np.array([1.0, -1.0]), 0.5) == 0,
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


@_suite
def suite_transform_oracle(rng, result):
    """The vectorised transform engine against the pushforward route.

    Scenes cycle through polytope, voxel, gamma and cone-closure sums; each
    case draws a kernel and four forms (one sometimes large enough for the
    Laplace kernel to overflow).  Per form, single-form calls must agree
    with the pushforward paired against the kernel: the same value within
    the tolerance plus the CF1D route's merge allowance, or the same error.
    The grid call over all four forms must give the same missing cells, or
    raise the error of the first form that raises one.
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
        ends = [_generator_ends(phi, xi) for xi in forms]
        sizes = [(_size(kernel, *e), _merge_size(kernel, *e)) for e in ends]
        for xi, expected, (size, merge) in zip(forms, want, sizes):
            got = _outcome(lambda xi=xi: transforms.hybrid_transform(phi, xi, kernel))
            label = f"case {i}: {kernel.name} window {kernel.window} at {xi}"
            if isinstance(expected, str) or isinstance(got, str):
                result.check_true(got == expected, f"{label}: got {got!r}, want {expected!r}")
                continue
            result.check_true(
                type(got) is (complex if kernel.field == "complex" else float),
                f"{label}: result type {type(got).__name__}",
            )
            result.close(got, expected, size, label, merge)
        errors = [w for w in want if w in ("improper", "overflow")]
        grid = _outcome(lambda: transforms.hybrid_transform(phi, forms, kernel))
        if errors or isinstance(grid, str):
            want_grid = errors[0] if errors else "no error"
            result.check_true(grid == want_grid, f"case {i}: grid {grid!r}, want {want_grid!r}")
            continue
        for xi, got, expected, (size, merge) in zip(forms, grid, want, sizes):
            if got is None or expected == "missing":
                result.check_true(
                    got is None and expected == "missing",
                    f"case {i}: grid cell at {xi}: got {got!r}, want {expected!r}",
                )
            else:
                result.close(got, expected, size, f"case {i}: grid cell at {xi}", merge)


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

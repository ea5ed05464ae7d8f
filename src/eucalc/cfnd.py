"""Constructible functions on R^n as signed sums of convex generators.

Two generator classes are supported: closed polytopes in vertex representation
and half-open boxes prod_i [low_i, high_i).  Boxes may have +inf upper bounds
(orthant rays); those arise as outputs of cone_closure and stay internal to
pushforwards and evaluation.  Everything reduces to the 1-D step algebra
through linear pushforwards.  Transforms pair kernels with the generating
points of the bounded generators directly (bounded_point_groups) and use
the pushforward for ray boxes and as their oracle.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import linprog

from .cf1d import CF1D
from .errors import (
    DimensionMismatch,
    ImproperConvolution,
    NonCompactSupport,
    UnsupportedGenerator,
)
from .geometry import EPS, Polytope, as_vector, minkowski_points, support_interval

INF = float("inf")


@dataclass(frozen=True, eq=False)
class ClosedPolytope:
    polytope: Polytope

    @property
    def dimension(self):
        return self.polytope.dimension


@dataclass(frozen=True, eq=False)
class HalfOpenBox:
    """prod_i [low_i, high_i) with low_i < high_i; high_i may be +inf."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = as_vector(self.low)
        high = np.asarray(self.high, dtype=float)
        if high.shape != low.shape:
            raise DimensionMismatch("box bounds must share one dimension")
        if not np.all(low < high):
            raise ValueError("box needs strict low < high on every axis")
        low.flags.writeable = False
        high.flags.writeable = False
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def dimension(self):
        return self.low.size

    @property
    def is_bounded(self):
        return bool(np.all(np.isfinite(self.high)))


@dataclass(frozen=True, eq=False)
class CFND:
    """Signed integer combination of generators in a fixed ambient dimension."""

    dimension: int
    terms: tuple  # of (coefficient, generator)

    def __post_init__(self):
        terms = tuple((int(c), g) for c, g in self.terms)
        for _, g in terms:
            if g.dimension != self.dimension:
                raise DimensionMismatch("generator dimension differs from ambient")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_polytope_points(cls, points, coefficient=1):
        poly = Polytope(np.atleast_2d(np.asarray(points, dtype=float)))
        return cls(poly.dimension, ((coefficient, ClosedPolytope(poly)),))

    @classmethod
    def from_box(cls, low, high, coefficient=1):
        box = HalfOpenBox(np.asarray(low, float), np.asarray(high, float))
        return cls(box.dimension, ((coefficient, box),))

    def __add__(self, other):
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot add across dimensions")
        return CFND(self.dimension, self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, m):
        return CFND(self.dimension, tuple((m * c, g) for c, g in self.terms))


def _polytope_contains(poly, x):
    """Exact membership x in conv(points) via an LP feasibility problem."""
    pts = poly.points
    if len(pts) == 1:
        return bool(np.max(np.abs(pts[0] - x)) <= EPS)
    if np.any(x < pts.min(axis=0) - EPS) or np.any(x > pts.max(axis=0) + EPS):
        return False
    m = len(pts)
    a_eq = np.vstack([pts.T, np.ones(m)])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def _box_contains(box, x):
    return bool(np.all(x >= box.low) and np.all(x < box.high))


def evaluate(phi, x):
    """Pointwise value of the represented function at x."""
    x = as_vector(x)
    if x.size != phi.dimension:
        raise DimensionMismatch("point dimension differs from ambient")
    total = 0
    for coef, gen in phi.terms:
        if isinstance(gen, HalfOpenBox):
            inside = _box_contains(gen, x)
        else:
            inside = _polytope_contains(gen.polytope, x)
        if inside:
            total += coef
    return total


def expand_box(box):
    """Inclusion-exclusion of a bounded half-open box into closed boxes.

    Per axis 1_[a,b) = 1_[a,b] - 1_{b}; the tensor expansion yields up to 2^d
    signed closed (possibly degenerate) boxes that agree pointwise with the
    original.
    """
    if not box.is_bounded:
        raise UnsupportedGenerator("cannot expand a box with infinite bounds")
    d = box.dimension
    out = []
    for mask in product((0, 1), repeat=d):
        sign = (-1) ** sum(mask)
        axis_values = [
            (box.high[i],) if mask[i] else (box.low[i], box.high[i])
            for i in range(d)
        ]
        corners = np.array(list(product(*axis_values)))
        out.append((sign, ClosedPolytope(Polytope(corners))))
    return out


def bounded_point_groups(phi):
    """The bounded generators as signed groups of generating points.

    Returns (points, starts, coefs, rays): group k is the rows
    starts[k]:starts[k + 1] of the (N, d) array points, the generating set
    of a closed polytope with integer coefficient coefs[k].  Bounded boxes
    contribute the closed boxes of expand_box.  rays holds the unbounded
    (orthant-ray) boxes as a CFND, since they have no finite generating set.
    """
    groups, coefs, rays = [], [], []
    for coef, gen in phi.terms:
        if isinstance(gen, ClosedPolytope):
            groups.append(gen.polytope.points)
            coefs.append(coef)
        elif gen.is_bounded:
            for sign, closed in expand_box(gen):
                groups.append(closed.polytope.points)
                coefs.append(sign * coef)
        else:
            rays.append((coef, gen))
    starts = np.cumsum([0] + [len(g) for g in groups], dtype=np.intp)[:-1]
    points = np.concatenate(groups) if groups else np.empty((0, phi.dimension))
    return points, starts, np.array(coefs, dtype=np.int64), CFND(phi.dimension, tuple(rays))


def _push_generator(gen, xi):
    """Pushforward of a single generator along a linear form, as a CF1D."""
    if isinstance(gen, ClosedPolytope):
        lo, hi = support_interval(gen.polytope, xi)
        if hi - lo <= EPS:
            return CF1D.point(lo)
        return CF1D.segment(lo, hi)
    if gen.is_bounded:
        out = CF1D.zero()
        for sign, closed in expand_box(gen):
            lo, hi = support_interval(closed.polytope, xi)
            piece = CF1D.point(lo) if hi - lo <= EPS else CF1D.segment(lo, hi)
            out = out + piece.scale(sign)
        return out
    # unbounded box: push per axis and convolve the factors
    result = None
    for i in range(gen.dimension):
        if gen.high[i] == INF:
            axis = CF1D.ray_up(gen.low[i])
        else:
            axis = CF1D.half_open(gen.low[i], gen.high[i])
        if xi[i] == 0.0:
            # zero form on this axis: the fibers are copies of the axis piece,
            # whose compactly-supported Euler characteristic vanishes
            return CF1D.zero()
        factor = axis.pushforward_affine(xi[i])
        result = factor if result is None else result.convolve(factor)
    return result


def pushforward_linear(phi, xi):
    """Pushforward along a linear form: the fiberwise Euler integral on R.

    Closed polytopes map to indicators of their support intervals; boxes go
    through inclusion-exclusion.  Unbounded (ray-box) generators need a form
    that is proper on them, else ImproperConvolution is raised.
    """
    xi = as_vector(xi)
    if xi.size != phi.dimension:
        raise DimensionMismatch("form dimension differs from ambient")
    out = CF1D.zero()
    for coef, gen in phi.terms:
        try:
            piece = _push_generator(gen, xi)
        except ImproperConvolution as exc:
            raise ImproperConvolution(
                "form is not proper on the unbounded support"
            ) from exc
        out = out + piece.scale(coef)
    return out


def euler_integral_nd(phi):
    """Euler integral: 1 per closed polytope, 0 per bounded half-open box."""
    total = 0
    for coef, gen in phi.terms:
        if isinstance(gen, HalfOpenBox):
            if not gen.is_bounded:
                raise NonCompactSupport("integral needs compact generators")
            continue
        total += coef
    return total


def translate(phi, x0):
    """Translate the whole function by x0."""
    x0 = as_vector(x0)
    if x0.size != phi.dimension:
        raise DimensionMismatch("translation vector dimension differs")
    new_terms = []
    for coef, gen in phi.terms:
        if isinstance(gen, HalfOpenBox):
            new_terms.append((coef, HalfOpenBox(gen.low + x0, gen.high + x0)))
        else:
            new_terms.append(
                (coef, ClosedPolytope(Polytope(gen.polytope.points + x0)))
            )
    return CFND(phi.dimension, tuple(new_terms))


def _convolve_box_box(a, b):
    """Half-open box convolution through per-axis 1-D rules.

    On each axis [p,q) * [r,s) splits into +[p+r, min(p+s, q+r)) and
    -[max(p+s, q+r), q+s); the tensor product of the per-axis choices gives
    up to 2^d signed boxes.
    """
    d = a.dimension
    axis_options = []
    for i in range(d):
        p, q, r, s = a.low[i], a.high[i], b.low[i], b.high[i]
        lo_mid = min(p + s, q + r)
        hi_mid = max(p + s, q + r)
        axis_options.append([(+1, p + r, lo_mid), (-1, hi_mid, q + s)])
    out = []
    for combo in product(*axis_options):
        sign = 1
        low, high = [], []
        for s_i, lo, hi in combo:
            sign *= s_i
            low.append(lo)
            high.append(hi)
        out.append((sign, HalfOpenBox(np.array(low), np.array(high))))
    return out


def convolve_nd(phi, psi):
    """Convolution along addition: polytope pairs sum Minkowski-style,
    box pairs reduce to per-axis 1-D convolutions."""
    if phi.dimension != psi.dimension:
        raise DimensionMismatch("cannot convolve across dimensions")
    terms = []
    for c1, g1 in phi.terms:
        for c2, g2 in psi.terms:
            coef = c1 * c2
            if isinstance(g1, HalfOpenBox) and isinstance(g2, HalfOpenBox):
                if not (g1.is_bounded and g2.is_bounded):
                    raise UnsupportedGenerator("convolution needs bounded boxes")
                for sign, box in _convolve_box_box(g1, g2):
                    terms.append((sign * coef, box))
            else:
                pairs1 = (
                    expand_box(g1) if isinstance(g1, HalfOpenBox) else [(1, g1)]
                )
                pairs2 = (
                    expand_box(g2) if isinstance(g2, HalfOpenBox) else [(1, g2)]
                )
                for s1, p1 in pairs1:
                    for s2, p2 in pairs2:
                        mink = minkowski_points(p1.polytope, p2.polytope)
                        terms.append((coef * s1 * s2, ClosedPolytope(mink)))
    return CFND(phi.dimension, tuple(terms))


def box_product(phi, psi):
    """External product (phi box psi)(x, y) = phi(x) * psi(y)."""
    d = phi.dimension + psi.dimension
    terms = []
    for c1, g1 in phi.terms:
        for c2, g2 in psi.terms:
            coef = c1 * c2
            if isinstance(g1, HalfOpenBox) and isinstance(g2, HalfOpenBox):
                terms.append(
                    (
                        coef,
                        HalfOpenBox(
                            np.concatenate([g1.low, g2.low]),
                            np.concatenate([g1.high, g2.high]),
                        ),
                    )
                )
            else:
                pairs1 = (
                    expand_box(g1) if isinstance(g1, HalfOpenBox) else [(1, g1)]
                )
                pairs2 = (
                    expand_box(g2) if isinstance(g2, HalfOpenBox) else [(1, g2)]
                )
                for s1, p1 in pairs1:
                    for s2, p2 in pairs2:
                        pts1, pts2 = p1.polytope.points, p2.polytope.points
                        pts = np.array(
                            [np.concatenate([u, v]) for u in pts1 for v in pts2]
                        )
                        terms.append((coef * s1 * s2, ClosedPolytope(Polytope(pts))))
    return CFND(d, tuple(terms))


def _axis_intervals(gen):
    """Per-axis interval description of an axis-aligned generator.

    Returns a list of ("halfopen", a, b) / ("closed", a, b) / ("ray", a)
    tuples, or raises UnsupportedGenerator when the generator is not an
    axis-aligned (possibly degenerate) box.
    """
    if isinstance(gen, HalfOpenBox):
        return [
            ("ray", gen.low[i]) if gen.high[i] == INF
            else ("halfopen", gen.low[i], gen.high[i])
            for i in range(gen.dimension)
        ]
    pts = gen.polytope.points
    lows = pts.min(axis=0)
    highs = pts.max(axis=0)
    corners = {
        tuple(c) for c in product(*[(lo, hi) for lo, hi in zip(lows, highs)])
    }
    seen = {tuple(p) for p in pts}
    if seen != corners:
        raise UnsupportedGenerator("polytope term is not an axis-aligned box")
    return [("closed", lo, hi) for lo, hi in zip(lows, highs)]


def cone_closure(phi, cone):
    """Convolution with the indicator of the reversed cone (an orthant ray).

    Restricted to the nonpositive orthant, whose reversal is the nonnegative
    one: on each axis [a,b) * [0,inf) = [a,inf) - [b,inf) and
    [a,b] * [0,inf) = [a,inf).  Generators must be half-open boxes or
    axis-aligned closed boxes; the output consists of orthant-ray boxes.
    A function equals its closure exactly when it is cone-constructible.
    """
    if cone.dimension != phi.dimension:
        raise DimensionMismatch("cone dimension differs from ambient")
    if any(s != -1 for s in cone.signs):
        raise UnsupportedGenerator(
            "cone closure is implemented for the nonpositive orthant only"
        )
    terms = []
    for coef, gen in phi.terms:
        axis_options = []
        for spec in _axis_intervals(gen):
            if spec[0] == "halfopen":
                axis_options.append([(+1, spec[1]), (-1, spec[2])])
            else:  # closed interval or existing ray: single lower ray
                axis_options.append([(+1, spec[1])])
        for combo in product(*axis_options):
            sign = 1
            low = []
            for s_i, lo in combo:
                sign *= s_i
                low.append(lo)
            terms.append(
                (
                    coef * sign,
                    HalfOpenBox(np.array(low), np.full(phi.dimension, INF)),
                )
            )
    return CFND(phi.dimension, tuple(terms))


def _witness_axis_values(*functions):
    """Per-axis probe coordinates: generator bounds, midpoints, outer points."""
    dim = functions[0].dimension
    axes = [set() for _ in range(dim)]
    for phi in functions:
        for _, gen in phi.terms:
            for i, spec in enumerate(_axis_intervals(gen)):
                for v in spec[1:]:
                    if np.isfinite(v):
                        axes[i].add(float(v))
    out = []
    for vals in axes:
        vals = sorted(vals) if vals else [0.0]
        probes = list(vals)
        probes += [(a + b) / 2 for a, b in zip(vals, vals[1:])]
        probes += [vals[0] - 1.0, vals[-1] + 1.0]
        out.append(sorted(set(probes)))
    return out


def equal_on_witness_grid(phi, psi):
    """Pointwise equality of two axis-aligned-box functions.

    Sound for integer combinations of boxes: both functions are constant on
    the cells of the coordinate arrangement spanned by all generator bounds,
    and the grid samples every cell.
    """
    axes = _witness_axis_values(phi, psi)
    for point in product(*axes):
        x = np.array(point)
        if evaluate(phi, x) != evaluate(psi, x):
            return False
    return True


def is_cone_constructible(phi, cone):
    """Whether phi equals its cone closure (checked on a witness grid)."""
    return equal_on_witness_grid(phi, cone_closure(phi, cone))


def scene_from_json(data):
    """CFND from the scene schema: {"dimension": d, "terms": [...]}.

    Each term is {"coef": m, "type": "polytope", "points": [[...]]} or
    {"coef": m, "type": "halfopen_box", "low": [...], "high": [...]};
    box highs may be Infinity for orthant rays.
    """
    dim = int(data["dimension"])
    terms = []
    for term in data["terms"]:
        coef = int(term["coef"])
        if term["type"] == "polytope":
            poly = Polytope(np.asarray(term["points"], dtype=float))
            terms.append((coef, ClosedPolytope(poly)))
        elif term["type"] == "halfopen_box":
            terms.append(
                (
                    coef,
                    HalfOpenBox(
                        np.asarray(term["low"], dtype=float),
                        np.asarray(term["high"], dtype=float),
                    ),
                )
            )
        else:
            raise ValueError(f"unknown term type {term['type']!r}")
    return CFND(dim, tuple(terms))

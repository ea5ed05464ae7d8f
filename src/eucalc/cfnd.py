"""Constructible functions on R^n as signed sums of convex generators.

Two generator classes are supported: closed polytopes in vertex representation
and half-open boxes prod_i [low_i, high_i).  Boxes may have +inf upper bounds
(orthant rays); those arise as outputs of cone_closure and stay internal to
pushforwards and evaluation.  The one cone is the nonpositive orthant: a
function is cone-constructible when it equals its convolution with the
nonnegative orthant (cone_closure).  Everything reduces to the 1-D step
algebra through linear pushforwards.  Transforms pair kernels with the
generating points of the bounded generators directly (bounded_point_groups)
and use the pushforward for ray boxes and as their oracle.

Every box rule is a signed tensor product of per-axis 1-D rules: each axis
offers a short list of (sign, interval) choices, and the box splits into one
generator per combination, signed by the product of the chosen signs
(_signed_product).  expand_box ([a,b) = [a,b] - {b}), box convolution
([p,q) * [r,s)) and cone_closure ([a,b) * [0,inf) = [a,inf) - [b,inf)) are
three such option lists.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .cf1d import CF1D, EPS
from .errors import (
    DimensionMismatch,
    ImproperConvolution,
    NonCompactSupport,
    UnsupportedGenerator,
)
from .geometry import Polytope, _as_int, as_vector, minkowski_points, support_interval

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
        object.__setattr__(self, "dimension", _as_int(self.dimension, "dimension"))
        if self.dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dimension}")
        terms = tuple((_as_int(c, "coefficient"), g) for c, g in self.terms)
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


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call: only polytope
    membership needs it, and importing scipy costs far more than the rest of
    the package."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


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


def evaluate(phi, x):
    """Value of the represented function at a point, or at each row of an
    (m, d) array.

    A point returns an int; an array returns an object array of m exact
    Python ints.  A box term is one broadcast test low <= x < high over all
    rows; a polytope term solves one LP per row.
    """
    points = np.asarray(x, dtype=float)
    single = points.ndim == 1
    if single:
        points = as_vector(points)[None, :]
    elif points.ndim != 2 or not np.isfinite(points).all():
        raise ValueError("expected a point or an (m, d) array of finite coordinates")
    if points.shape[1] != phi.dimension:
        raise DimensionMismatch("point dimension differs from ambient")
    total = np.zeros(len(points), dtype=object)
    for coef, gen in phi.terms:
        if isinstance(gen, HalfOpenBox):
            inside = np.all((points >= gen.low) & (points < gen.high), axis=1)
        else:
            inside = [_polytope_contains(gen.polytope, p) for p in points]
        total[np.asarray(inside, dtype=bool)] += coef
    return int(total[0]) if single else total


def _signed_product(axis_options):
    """Tensor product of per-axis lists of (sign, choice).

    Yields (sign, choices) for every combination in itertools.product order,
    the sign being the product of the chosen per-axis signs.
    """
    for combo in product(*axis_options):
        yield prod(s for s, _ in combo), [c for _, c in combo]


def expand_box(box):
    """Inclusion-exclusion of a bounded half-open box into closed boxes.

    Per axis 1_[a,b) = 1_[a,b] - 1_{b}; the tensor expansion yields up to 2^d
    signed closed (possibly degenerate) boxes that agree pointwise with the
    original.
    """
    if not box.is_bounded:
        raise UnsupportedGenerator("cannot expand a box with infinite bounds")
    options = [[(1, (a, b)), (-1, (b,))] for a, b in zip(box.low, box.high)]
    return [
        (sign, ClosedPolytope(Polytope(np.array(list(product(*axes))))))
        for sign, axes in _signed_product(options)
    ]


def _closed_parts(gen):
    """A generator as signed closed polytopes: expand_box or the polytope."""
    return expand_box(gen) if isinstance(gen, HalfOpenBox) else [(1, gen)]


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
        if isinstance(gen, HalfOpenBox) and not gen.is_bounded:
            rays.append((coef, gen))
            continue
        for sign, closed in _closed_parts(gen):
            groups.append(closed.polytope.points)
            coefs.append(sign * coef)
    starts = np.cumsum([0] + [len(g) for g in groups], dtype=np.intp)[:-1]
    points = np.concatenate(groups) if groups else np.empty((0, phi.dimension))
    return points, starts, np.array(coefs, dtype=np.int64), CFND(phi.dimension, tuple(rays))


def _push_generator(gen, xi):
    """Pushforward of a single generator along a linear form, as a CF1D.

    A closed polytope maps onto its support interval (CF1D.segment turns one
    shorter than EPS into a point); a bounded box sums that over expand_box.
    A ray box is the convolution of its per-axis pushforwards, and vanishes
    when the form is zero on some axis: each fiber is then a product with a
    copy of that axis piece, whose compactly supported Euler characteristic
    is 0.
    """
    if isinstance(gen, ClosedPolytope):
        return CF1D.segment(*support_interval(gen.polytope, xi))
    if gen.is_bounded:
        out = CF1D.zero()
        for sign, closed in expand_box(gen):
            out = out + _push_generator(closed, xi).scale(sign)
        return out
    if np.any(xi == 0.0):
        return CF1D.zero()
    result = None
    for low, high, x in zip(gen.low, gen.high, xi):
        axis = CF1D.ray_up(low) if high == INF else CF1D.half_open(low, high)
        factor = axis.pushforward_affine(x)
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
    if not (a.is_bounded and b.is_bounded):
        raise UnsupportedGenerator("convolution needs bounded boxes")
    options = [
        [(1, (p + r, min(p + s, q + r))), (-1, (max(p + s, q + r), q + s))]
        for p, q, r, s in zip(a.low, a.high, b.low, b.high)
    ]
    return [
        (sign, HalfOpenBox(*map(np.array, zip(*intervals))))
        for sign, intervals in _signed_product(options)
    ]


def _pairwise(phi, psi, box_rule, polytope_rule):
    """Terms of a bilinear operation on two CFNDs, pair of terms by pair.

    Two boxes go through box_rule, which returns signed generators; any other
    pair is expanded into closed polytopes (_closed_parts) and each pair of
    polytopes goes through polytope_rule, which returns one polytope.
    """
    terms = []
    for c1, g1 in phi.terms:
        for c2, g2 in psi.terms:
            if isinstance(g1, HalfOpenBox) and isinstance(g2, HalfOpenBox):
                parts = box_rule(g1, g2)
            else:
                parts = [
                    (sign, ClosedPolytope(polytope_rule(p1.polytope, p2.polytope)))
                    for sign, (p1, p2) in _signed_product(
                        [_closed_parts(g1), _closed_parts(g2)]
                    )
                ]
            terms.extend((c1 * c2 * sign, gen) for sign, gen in parts)
    return tuple(terms)


def convolve_nd(phi, psi):
    """Convolution along addition: polytope pairs sum Minkowski-style,
    box pairs reduce to per-axis 1-D convolutions."""
    if phi.dimension != psi.dimension:
        raise DimensionMismatch("cannot convolve across dimensions")
    terms = _pairwise(phi, psi, _convolve_box_box, minkowski_points)
    return CFND(phi.dimension, terms)


def box_product(phi, psi):
    """External product (phi box psi)(x, y) = phi(x) * psi(y)."""

    def boxes(a, b):
        return [(1, HalfOpenBox(np.concatenate([a.low, b.low]),
                                np.concatenate([a.high, b.high])))]

    def polytopes(p, q):
        return Polytope(
            np.array([np.concatenate([u, v]) for u in p.points for v in q.points])
        )

    terms = _pairwise(phi, psi, boxes, polytopes)
    return CFND(phi.dimension + psi.dimension, terms)


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


def cone_closure(phi):
    """Convolution with the indicator of the reversed cone, the nonnegative
    orthant.

    On each axis [a,b) * [0,inf) = [a,inf) - [b,inf) and
    [a,b] * [0,inf) = [a,inf).  Generators must be half-open boxes or
    axis-aligned closed boxes; the output consists of orthant-ray boxes.
    A function equals its closure exactly when it is cone-constructible.
    """
    terms = []
    for coef, gen in phi.terms:
        options = [
            [(1, spec[1]), (-1, spec[2])] if spec[0] == "halfopen" else [(1, spec[1])]
            for spec in _axis_intervals(gen)
        ]
        for sign, low in _signed_product(options):
            ray = HalfOpenBox(np.array(low), np.full(phi.dimension, INF))
            terms.append((coef * sign, ray))
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
        probes += [a / 2 + b / 2 for a, b in zip(vals, vals[1:])]  # a + b may overflow
        probes += [vals[0] - 1.0, vals[-1] + 1.0]
        out.append(sorted(set(probes)))
    return out


def equal_on_witness_grid(phi, psi):
    """Pointwise equality of two axis-aligned-box functions.

    Sound for integer combinations of boxes: both functions are constant on
    the cells of the coordinate arrangement spanned by all generator bounds,
    and the grid samples every cell.  The grid is the product of the
    per-axis probes, prod_i |probes_i| points of d floats, read by one
    evaluate of phi - psi.
    """
    axes = _witness_axis_values(phi, psi)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return not np.any(evaluate(phi - psi, grid))


def is_cone_constructible(phi):
    """Whether phi equals its cone closure (checked on a witness grid)."""
    return equal_on_witness_grid(phi, cone_closure(phi))


def scene_from_json(data):
    """CFND from the scene schema: {"dimension": d, "terms": [...]}.

    Each term is {"coef": m, "type": "polytope", "points": [[...]]} or
    {"coef": m, "type": "halfopen_box", "low": [...], "high": [...]};
    box highs may be Infinity for orthant rays.
    """
    terms = []
    for term in data["terms"]:
        coef = term["coef"]
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
    return CFND(data["dimension"], tuple(terms))

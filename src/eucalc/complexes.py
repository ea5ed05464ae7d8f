"""Euler-characteristic curves and transforms on embedded simplicial complexes.

The single computational engine is one weighted cell count for the compactly
supported Euler characteristic of the part of a region S inside the complex:

    chi(S & K) = sum over cells c of w_c * [cl(c) meets S],
    w_c = sum over cells s containing c of (-1)^(dim s - dim c),

the Moebius inversion over the face poset of chi_c(relint(c) & S) =
[cl(c) meets S] - sum of chi_c(relint(f) & S) over the proper faces f of c.
It is exact whenever every cl(c) & S is empty or compact convex (half-spaces,
slabs, slices and closed balls all qualify) and the oracle is honest: a cell
that misses S has no face that meets it.  Everything else -- sublevel and
level curves, Euler-characteristic transforms, continuous Euler integrals,
the Euler-Bessel transform and the index-formula checks -- is assembled from
it plus the 1-D step algebra.

Every curve builder snaps its cell values once: values within cf1d.EPS merge
into their cluster's leftmost representative (cf1d._cluster's rule), and each
cell's value is replaced by that representative before any comparison, so a
curve evaluated at a representative counts the whole cluster.  The
Euler-Bessel transform needs no sweep at all: it is the closed form
sum over cells c of ((-1)^dim c - w_c) * d_c in the snapped distances d_c.
"""

import math
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .cf1d import CF1D, EPS, _cluster, _inside
from .errors import MonotonicityUnknown
from .geometry import _as_int, dist_to_simplex


@dataclass(frozen=True, eq=False)
class EmbeddedComplex:
    """Geometric simplicial complex: vertex table plus face-closed cell set.

    Cells are sorted tuples of vertex indices.  The realized space is the
    union of the closed simplices; it is compact.  ``weighted_cells`` holds
    the pairs (cell, w_c) of the cells whose chi_region weight is non-zero.
    """

    vertices: np.ndarray
    cells: tuple

    def __post_init__(self):
        vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        closed = set()
        for cell in self.cells:
            cell = tuple(sorted(_as_int(i, "vertex index") for i in cell))
            if not cell:
                raise ValueError("empty cell")
            if cell[0] < 0 or cell[-1] >= len(vertices):
                raise ValueError("vertex index out of range")
            for size in range(1, len(cell) + 1):
                closed.update(combinations(cell, size))
        cells = tuple(sorted(closed, key=lambda c: (len(c), c)))
        weights = dict.fromkeys(cells, 0)
        for cell in cells:
            pts = vertices[list(cell)]
            if len(cell) > 1:
                rank = np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-12)
                if rank != len(cell) - 1:
                    raise ValueError(f"cell {cell} is not affinely independent")
            for size in range(1, len(cell) + 1):
                for face in combinations(cell, size):
                    weights[face] += (-1) ** (len(cell) - size)
        vertices = vertices.copy()
        vertices.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(
            self,
            "weighted_cells",
            tuple((cell, w) for cell, w in weights.items() if w),
        )

    @property
    def dimension(self):
        return self.vertices.shape[1]

    def cell_points(self, cell):
        return self.vertices[list(cell)]


@dataclass(frozen=True, eq=False)
class PLFunction:
    """Vertex values extended affinely over each closed cell."""

    complex: EmbeddedComplex
    vertex_values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.vertex_values, dtype=float).reshape(-1)
        if values.size != len(self.complex.vertices):
            raise ValueError("need one value per vertex")
        if not np.isfinite(values).all():
            raise ValueError("vertex values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "vertex_values", values)

    def cell_min(self, cell):
        return float(np.min(self.vertex_values[list(cell)]))

    def cell_max(self, cell):
        return float(np.max(self.vertex_values[list(cell)]))

    def negate(self):
        return PLFunction(self.complex, -self.vertex_values)


class StepCurve:
    """Right-continuous integer step curve sum_i m_i * 1_[c_i, inf)."""

    __slots__ = ("jumps",)

    def __init__(self, jumps):
        cleaned = [(float(c), int(m)) for c, m in jumps if m != 0]
        cleaned.sort()
        if any(
            b - a <= EPS for (a, _), (b, _) in zip(cleaned, cleaned[1:])
        ):
            raise ValueError("jump locations must be distinct")
        self.jumps = tuple(cleaned)

    def value(self, t):
        return sum(m for c, m in self.jumps if c <= t)

    def at_infinity(self):
        return sum(m for _, m in self.jumps)

    def to_cf1d(self):
        locations = [c for c, _ in self.jumps]
        levels = list(accumulate(m for _, m in self.jumps))
        return CF1D(locations, levels, [0] + levels)

    def equals(self, other):
        return len(self.jumps) == len(other.jumps) and all(
            abs(c1 - c2) <= EPS and m1 == m2
            for (c1, m1), (c2, m2) in zip(self.jumps, other.jumps)
        )

    def __repr__(self):
        return f"StepCurve({list(self.jumps)})"


def chi_region(complex_, cell_meets_region):
    """Euler characteristic of the part of the complex inside a region S.

    The oracle answers "does the closed cell meet S".  The caller guarantees
    that every such intersection is empty or compact convex, and that the
    oracle is honest: if a cell does not meet S, none of its faces does.
    Then chi is the sum of the fixed weights w_c of the cells that meet S.
    """
    return sum(w for cell, w in complex_.weighted_cells if cell_meets_region(cell))


def _snapped(values):
    """Representatives of a {cell: value} map and the map snapped onto them.

    Values within EPS share their cluster's leftmost representative, so a
    comparison at a representative counts every cell of its cluster.
    """
    reps, snap = _cluster(values.values())
    return reps, {cell: snap[float(v)] for cell, v in values.items()}


def _alternating_count(complex_, keep):
    """Sum of (-1)^dim over the cells that keep accepts."""
    return sum((-1) ** (len(cell) - 1) for cell in complex_.cells if keep(cell))


def euler_characteristic(complex_):
    return chi_region(complex_, lambda cell: True)


def cell_distances(complex_, v):
    """Exact distance from v to each closed cell."""
    return {
        cell: dist_to_simplex(v, complex_.cell_points(cell))
        for cell in complex_.cells
    }


def chi_open_ball_region(complex_, v, t, dists=None):
    """chi_c of the intersection with the open ball of radius t around v.

    Per cell, the open ball cuts the relative interior in an empty or open
    convex piece of the cell's
    dimension, so it contributes (-1)^dim exactly when dist(v, cell) < t.
    """
    if dists is None:
        dists = cell_distances(complex_, v)
    return _alternating_count(complex_, lambda cell: dists[cell] < t)


def _curve_from_levels(candidates, level_at):
    """StepCurve from a right-continuous level evaluator on candidates."""
    jumps = []
    previous = 0
    for c in candidates:
        level = level_at(c)
        if level != previous:
            jumps.append((c, level - previous))
            previous = level
    return StepCurve(jumps)


def sublevel_curve(complex_, g):
    """Exact curve t -> chi of the sublevel set {g <= t} for a PL function g.

    The emptiness oracle for {g <= t} on a closed cell is "min vertex value
    <= t"; the curve only jumps at vertex values.
    """
    reps, mins = _snapped({cell: g.cell_min(cell) for cell in complex_.cells})
    return _curve_from_levels(
        reps,
        lambda t: chi_region(complex_, lambda cell: mins[cell] <= t),
    )


def superlevel_jumps(complex_, g):
    """Jump decomposition of t -> chi of the superlevel set {g >= t}.

    Returns pairs (s_j, n_j), sorted by s_j, such that the (left-continuous)
    superlevel characteristic at s equals the sum of n_j over s_j >= s.
    """
    down = sublevel_curve(complex_, g.negate())
    return tuple(sorted((-c, m) for c, m in down.jumps))


def superlevel_cf1d(complex_, g):
    """chi of the superlevel set {g >= t} as an exact CF1D in t."""
    reps, maxs = _snapped({cell: g.cell_max(cell) for cell in complex_.cells})
    return CF1D.from_evaluator(
        reps,
        lambda r, side: chi_region(
            complex_, lambda cell: _inside(-math.inf, maxs[cell], r, side)
        ),
    )


def level_curve(complex_, g):
    """Exact CF1D t -> chi of the level set {g = t}.

    Slices of cells by level sets of an affine function are compact convex;
    the emptiness oracle is t in the closed span [min, max] of the cell's
    vertex values, read at from_evaluator's sides by cf1d._inside.  Every
    vertex is a cell, so the minima and the maxima take the same values and
    snap onto the same representatives.
    """
    reps, mins = _snapped({cell: g.cell_min(cell) for cell in complex_.cells})
    _, maxs = _snapped({cell: g.cell_max(cell) for cell in complex_.cells})
    return CF1D.from_evaluator(
        reps,
        lambda r, side: chi_region(
            complex_, lambda cell: _inside(mins[cell], maxs[cell], r, side)
        ),
    )


def compose_direction(complex_, filtration, xi):
    """PL function <xi, f(.)> from a vector filtration (one row per vertex).

    filtration=None means the identity embedding: f(vertex) = its coordinates.
    """
    values = complex_.vertices if filtration is None else np.asarray(filtration, float)
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if values.shape[1] != xi.size:
        raise ValueError("direction dimension differs from filtration")
    return PLFunction(complex_, values @ xi)


def ect(complex_, xi):
    """Euler characteristic transform: sublevel curve of the height <xi, .>."""
    return sublevel_curve(complex_, compose_direction(complex_, None, xi))


def sublevel_transform(complex_, filtration, xi, kernel):
    """Kernel transform of the sublevel curve of <xi, f>."""
    g = compose_direction(complex_, filtration, xi)
    return sublevel_curve(complex_, g).to_cf1d().lebesgue_pair(kernel)


def upper_euler_integral(complex_, g):
    """Continuous Euler upper integral of g over Z: sum m_i c_i of its
    sublevel jump decomposition."""
    return sum(c * m for c, m in sublevel_curve(complex_, g).jumps)


def lower_euler_integral(complex_, g):
    """Continuous Euler lower integral: minus the upper integral of -g."""
    return -upper_euler_integral(complex_, g.negate())


def distance_curves(complex_, v):
    """Sublevel curve and superlevel jumps of the distance function to v.

    Both transition only at the cell distances; closed balls intersect cells
    convexly, and the open-ball complement has the closed-form chi_c, so the
    superlevel jump at a representative s is the alternating count of the
    cells at snapped distance s.
    """
    reps, dists = _snapped(cell_distances(complex_, v))
    sub = _curve_from_levels(
        reps,
        lambda t: chi_region(complex_, lambda cell: dists[cell] <= t),
    )
    sup = [
        (s, _alternating_count(complex_, lambda cell: dists[cell] == s))
        for s in reps
    ]
    return sub, tuple((s, n) for s, n in sup if n)


def euler_bessel(complex_, v):
    """Integral over t > 0 of the Euler characteristic of sphere(v, t) in Z.

    With the snapped cell distances d_c, the integrand chi(closed-ball part)
    - chi_c(open-ball part) is sum over cells c of w_c [d_c <= t] -
    (-1)^dim c [d_c < t].  Its integral over (0, R), for R past the largest
    distance, is sum_c (w_c - (-1)^dim c) (R - d_c); R cancels because both
    sum_c w_c and sum_c (-1)^dim c equal chi(Z).  So the transform is

        sum over cells c of ((-1)^dim c - w_c) * d_c.
    """
    _, dists = _snapped(cell_distances(complex_, v))
    weights = dict(complex_.weighted_cells)
    return float(sum(
        ((-1) ** (len(cell) - 1) - weights.get(cell, 0)) * d
        for cell, d in dists.items()
    ))


def euler_bessel_index(complex_, v):
    """Lower minus upper continuous Euler integral of the distance to v.

    Agrees with euler_bessel on every complex: the sphere characteristic at t
    is exactly chi_c({d >= t}) - chi_c({d > t}).
    """
    sub, sup = distance_curves(complex_, v)
    upper = sum(c * m for c, m in sub.jumps)
    lower = sum(s * n for s, n in sup)
    return lower - upper


@dataclass(frozen=True)
class IndexReport:
    """Two independently computed sides of an index identity, and size: the
    summed magnitude of the terms the two sides add."""

    lhs: float
    rhs: float
    size: float

    @property
    def difference(self):
        return abs(self.lhs - self.rhs)


def _paired(f, kernel):
    """f.lebesgue_pair(kernel) and the sum of |v K(end)| over f's pieces."""
    value = f.lebesgue_pair(kernel)  # raises before an undefined K(+-inf) is read
    ends = [(v, x) for lo, hi, v in f.pieces() if v for x in (lo, hi)]
    return value, sum(abs(v * kernel.antideriv_at(x)) for v, x in ends)


def _require_monotone(kernel):
    if kernel.monotonicity not in ("increasing", "decreasing"):
        raise MonotonicityUnknown(
            "index formulas need a strictly monotone antiderivative tag"
        )


def index_formula_check(complex_, filtration, xi, kernel):
    """Both sides of the index formula for sublevel-set transforms.

    LHS: the windowed kernel paired against the sublevel curve of g = <xi, f>.
    RHS: K(b) chi({g<=b}) - K(a) chi({g<=a}) - sum over jumps a < c_i <= b of
    m_i K(c_i); the remaining term is the restricted continuous Euler
    integral of K(g), upper or lower depending on the monotonicity branch,
    and both branches evaluate to the same jump sum.
    """
    _require_monotone(kernel)
    g = compose_direction(complex_, filtration, xi)
    curve = sublevel_curve(complex_, g)
    lhs, size = _paired(curve.to_cf1d(), kernel)

    a, b = kernel.window
    terms = [kernel.antideriv_at(b) * sum(m for c, m in curve.jumps if c <= b)]
    if a != float("-inf"):
        terms.append(-kernel.antideriv_at(a) * sum(m for c, m in curve.jumps if c <= a))
    terms += [-m * kernel.antideriv_at(c) for c, m in curve.jumps if a < c <= b]
    return IndexReport(lhs, sum(terms), size + sum(map(abs, terms)))


def level_index_check(complex_, filtration, xi, kernel):
    """Both sides of the index formula for level-set transforms.

    LHS: the windowed kernel paired against the level curve of g = <xi, f>.
    RHS: difference of the restricted lower and upper continuous Euler
    integrals of K(g) over {a <= g <= b}, evaluated through the jump
    decompositions clipped to [a,b) and (a,b] plus the boundary slice terms.
    """
    _require_monotone(kernel)
    g = compose_direction(complex_, filtration, xi)
    lhs, size = _paired(level_curve(complex_, g), kernel)

    a, b = kernel.window
    sub = sublevel_curve(complex_, g).jumps
    sup = superlevel_jumps(complex_, g)
    mins = {cell: g.cell_min(cell) for cell in complex_.cells}
    maxs = {cell: g.cell_max(cell) for cell in complex_.cells}

    def chi_slice(t):
        return chi_region(
            complex_, lambda cell: mins[cell] <= t <= maxs[cell]
        )

    lower = [n * kernel.antideriv_at(s) for s, n in sup if a <= s < b]
    if b != float("inf"):
        lower.append(kernel.antideriv_at(b) * chi_slice(b))
    upper = [m * kernel.antideriv_at(c) for c, m in sub if a < c <= b]
    if a != float("-inf"):
        upper.append(kernel.antideriv_at(a) * chi_slice(a))
    return IndexReport(lhs, sum(lower) - sum(upper), size + sum(map(abs, lower + upper)))


def gr_index_check(complex_, filtration, xi):
    """Both sides of the half-line index identity for superlevel curves.

    LHS pairs the kernel 1_[0,inf) against the exact superlevel curve of
    g = <xi, f>; RHS is the lower continuous Euler integral of g restricted
    to {g >= 0}, i.e. the jump sum of clipped superlevel values.
    """
    from .kernels import heaviside

    g = compose_direction(complex_, filtration, xi)
    lhs, size = _paired(superlevel_cf1d(complex_, g), heaviside())
    terms = [n * max(s, 0.0) for s, n in superlevel_jumps(complex_, g)]
    return IndexReport(lhs, sum(terms), size + sum(map(abs, terms)))


def sublevel_from_level_check(complex_, g):
    """Whether the sublevel curve equals level curve * 1_[0,inf) exactly."""
    via_convolution = level_curve(complex_, g).convolve(CF1D.ray_up(0.0))
    return sublevel_curve(complex_, g).to_cf1d().equals(via_convolution)


def full_subcomplex_curve(complex_, g):
    """Sublevel curve through the lower-star homotopy model.

    At every t the sublevel set retracts onto the full subcomplex spanned by
    vertices with value <= t, so chi is the alternating count of cells whose
    largest vertex value is <= t.  Independent of chi_region's weights.
    """
    reps, maxs = _snapped({cell: g.cell_max(cell) for cell in complex_.cells})
    return _curve_from_levels(
        reps,
        lambda t: sum(
            (-1) ** (len(cell) - 1)
            for cell in complex_.cells
            if maxs[cell] <= t
        ),
    )


def mesh_from_json(data):
    """EmbeddedComplex (faces auto-closed) plus optional per-vertex values."""
    complex_ = EmbeddedComplex(
        np.asarray(data["vertices"], dtype=float),
        tuple(tuple(c) for c in data["cells"]),
    )
    values = data.get("values")
    if values is not None:
        values = np.asarray(values, dtype=float)
    return complex_, values

"""Exact convex geometry primitives.

Polytopes are kept in vertex representation (a generating point set whose
convex hull is the represented set; redundant points are allowed).  Every
operation needed downstream -- support values, extremes of linear forms,
Minkowski sums, distances to simplices -- is a computation over the
generating points, so no hull or H-representation machinery is required.
Cones need no type: the library's one cone is the nonpositive orthant,
fixed in cfnd.cone_closure and in radon's sign test on the direction.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np


def as_vector(x):
    """Validate and return a 1-D float array with finite entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D coordinate sequence")
    if not np.isfinite(v).all():
        raise ValueError("coordinates must be finite")
    return v


def _as_int(x, what):
    """x as an int; ValueError unless it is integral (1.5, nan, inf and
    booleans fail)."""
    if isinstance(x, (bool, np.bool_)) or (
        not isinstance(x, (int, np.integer)) and not float(x).is_integer()
    ):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a nonempty generating point set (shape (m, d))."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("polytope needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("polytope points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self):
        return self.points.shape[1]


def support_value(polytope, xi):
    """Support value h(xi): maximum of <xi, p> over the generating points."""
    xi = as_vector(xi)
    if xi.size != polytope.dimension:
        raise ValueError("dimension mismatch between polytope and form")
    return float(np.max(polytope.points @ xi))


def support_interval(polytope, xi):
    """The pair (min, max) of <xi, .> over the polytope.

    The closed interval [min, max] is the exact image of the polytope under
    the form, i.e. the support of its pushforward.
    """
    xi = as_vector(xi)
    vals = polytope.points @ xi
    return float(np.min(vals)), float(np.max(vals))


def _project_to_face(v, face_points):
    """Project v onto the affine hull of the face; return (point, barycentric)."""
    base = face_points[0]
    if len(face_points) == 1:
        return base, np.array([1.0])
    span = (face_points[1:] - base).T
    gram = span.T @ span
    mu = np.linalg.solve(gram, span.T @ (v - base))
    bary = np.concatenate(([1.0 - mu.sum()], mu))
    return base + span @ mu, bary


def dist_to_simplex(v, simplex_points):
    """Exact Euclidean distance from v to the simplex spanned by the points.

    Enumerates every face, projects v onto the face's affine hull, keeps the
    projections whose barycentric coordinates are all nonnegative (i.e. that
    land inside the closed face) and takes the minimum distance.  The
    minimizer of a convex function over a simplex lies in the relative
    interior of exactly one face, so the feasible minimum is the distance.
    """
    v = as_vector(v)
    pts = np.atleast_2d(np.asarray(simplex_points, dtype=float))
    best = np.inf
    for size in range(1, len(pts) + 1):
        for idx in combinations(range(len(pts)), size):
            proj, bary = _project_to_face(v, pts[list(idx)])
            if np.all(bary >= -1e-12):
                best = min(best, float(np.linalg.norm(v - proj)))
    return best


def max_dist_to_simplex(v, simplex_points):
    """Maximum distance from v to the simplex (attained at a vertex)."""
    v = as_vector(v)
    pts = np.atleast_2d(np.asarray(simplex_points, dtype=float))
    return float(np.max(np.linalg.norm(pts - v, axis=1)))


def minkowski_points(p, q):
    """Pairwise-sum generating set of the Minkowski sum P + Q.

    No hull reduction is performed; support values stay exact on redundant
    generating sets.
    """
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch between polytopes")
    sums = (p.points[:, None, :] + q.points[None, :, :]).reshape(-1, p.dimension)
    return Polytope(sums)

"""Hybrid integral transforms of constructible functions.

A hybrid transform pairs a Lebesgue kernel with the pushforward of a
constructible function along a linear form:

    T[phi](xi) = integral over R of kappa(t) * (xi_* phi)(t) dt.

The pairing is linear in the generators.  A bounded generator P pushes
forward to the indicator of [min <xi, P>, max <xi, P>], so with the kernel's
exact antiderivative K

    T[phi](xi) = sum over generators of c * (K(max <xi, P>) - K(min <xi, P>)),

a closed form, not a quadrature.  hybrid_transform evaluates it for a whole
array of forms from one projection product.  Orthant-ray boxes, which have
no finite generating set, are pushed forward exactly on the step algebra.
"""

import cmath
import csv
from dataclasses import dataclass

import numpy as np

from . import kernels as _kernels
from .cfnd import bounded_point_groups, pushforward_linear
from .errors import DimensionMismatch, NonIntegrable
from .geometry import EPS, as_vector


def _pair_bounded(points, starts, coefs, forms, kernel):
    """Per form, the bounded generators' sum of c * (K(max) - K(min)).

    Segments no longer than EPS count as points, which pair to zero.  The
    sum is taken as the pairing of the step function the segments add up
    to, with the end points of all segments sorted per form, so that
    coinciding end points cancel exactly (a pushforward that vanishes
    pairs to exactly 0).  Non-finite projections or kernel values give a
    non-finite result; numpy warnings are expected to be silenced.
    """
    if not len(starts):
        return np.zeros(len(forms))
    # points @ forms.T, summed axis by axis so that a form's projections do
    # not depend on the other forms in the batch (BLAS blocking would)
    proj = sum(points[:, j, None] * forms[:, j] for j in range(forms.shape[1]))
    lo = np.minimum.reduceat(proj, starts, axis=0)
    hi = np.maximum.reduceat(proj, starts, axis=0)
    weight = np.where(hi - lo > EPS, coefs[:, None], 0)
    ends = np.concatenate([lo, hi]).T  # (forms, 2 * generators)
    order = np.argsort(ends, axis=1)
    ends = np.take_along_axis(ends, order, axis=1)
    jumps = np.take_along_axis(np.concatenate([weight, -weight]).T, order, axis=1)
    level = np.cumsum(jumps, axis=1)  # value on (ends[k], ends[k + 1])
    k = kernel.antideriv(np.clip(ends, *kernel.window))
    total = (level[:, :-1] * (k[:, 1:] - k[:, :-1])).sum(axis=1)
    total[~np.isfinite(proj).all(axis=0)] = np.nan
    return total


def _cell(phi, rays, xi, bounded, kernel):
    """Transform value at one form from its bounded part.

    Ray boxes are paired on the step algebra, which raises NonIntegrable and
    ImproperConvolution as the full pushforward would.  A cell that is not
    finite is recomputed from the full pushforward, so it raises the error
    (OverflowError, ...) of that route instead of returning inf or nan.
    """
    value = bounded
    if cmath.isfinite(value) and rays.terms:
        try:
            value = value + pushforward_linear(rays, xi).lebesgue_pair(kernel)
        except OverflowError:
            value = np.nan
    if not cmath.isfinite(value):
        return pushforward_linear(phi, xi).lebesgue_pair(kernel)
    return complex(value) if kernel.field == "complex" else float(value)


def hybrid_transform(phi, xis, kernel):
    """Lebesgue pairing of the kernel against the pushforward along each form.

    xis is one form of shape (d,) or an array of forms of shape (m, d).  One
    form gives a float (complex for complex kernels) and raises
    NonIntegrable where the pairing is undefined; an array gives a list with
    None at those forms.  Other errors propagate from the first form that
    raises.
    """
    single = np.ndim(xis) == 1
    if single:
        forms = as_vector(xis)[None, :]
    else:
        forms = np.asarray(xis, dtype=float)
        if forms.ndim != 2 or not np.isfinite(forms).all():
            raise ValueError("expected an (m, d) array of finite forms")
    if forms.shape[1] != phi.dimension:
        raise DimensionMismatch("form dimension differs from ambient")
    points, starts, coefs, rays = bounded_point_groups(phi)
    out = []
    with np.errstate(all="ignore"):
        bounded = _pair_bounded(points, starts, coefs, forms, kernel)
        for xi, value in zip(forms, bounded):
            try:
                out.append(_cell(phi, rays, xi, value, kernel))
            except NonIntegrable:
                if single:
                    raise
                out.append(None)
    return out[0] if single else out


def euler_laplace(phi, xi):
    """Hybrid transform with kernel exp(-t)."""
    return hybrid_transform(phi, xi, _kernels.laplace())


def euler_fourier(phi, xi):
    """Hybrid transform with kernel exp(-it)."""
    return hybrid_transform(phi, xi, _kernels.fourier())


def gr_euler_fourier(phi, xi):
    """Hybrid transform with kernel 1_[0,inf) (Ghrist-Robinson style)."""
    return hybrid_transform(phi, xi, _kernels.heaviside())


def ecb_transform(phi, xi, a):
    """Hybrid transform with kernel 1_(-inf,a): barcode Euler characteristic."""
    return hybrid_transform(phi, xi, _kernels.ecb(a))


@dataclass
class TransformGrid:
    """Transform values over a direction x radius grid.

    values[i][j] holds T[phi](radii[j] * directions[i]); cells where the
    transform is not defined hold None.
    """

    directions: np.ndarray  # (m, d)
    radii: np.ndarray  # (n,)
    values: list  # nested lists of scalar or None

    def missing_fraction(self):
        cells = [v for row in self.values for v in row]
        if not cells:
            return 0.0
        return sum(v is None for v in cells) / len(cells)


def grid_eval(phi, kernel, directions, radii):
    """Evaluate the transform on every (direction, radius) pair.

    All cells come from one hybrid_transform call over the forms
    radius * direction.  Cells where integrability fails are recorded as
    None.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    radii = np.asarray(radii, dtype=float)
    forms = radii[None, :, None] * directions[:, None, :]
    cells = hybrid_transform(phi, forms.reshape(-1, directions.shape[1]), kernel)
    n = len(radii)
    values = [cells[i * n:(i + 1) * n] for i in range(len(directions))]
    return TransformGrid(directions=directions, radii=radii, values=values)


def grid_to_csv(grid, stream):
    """Write the grid as CSV rows dir_1,...,dir_d,radius,re,im.

    Missing cells leave the re/im fields empty.  Output is deterministic for
    fixed inputs.
    """
    d = grid.directions.shape[1]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"dir_{k + 1}" for k in range(d)] + ["radius", "re", "im"])
    for direction, row in zip(grid.directions, grid.values):
        for radius, value in zip(grid.radii, row):
            head = [repr(float(c)) for c in direction] + [repr(float(radius))]
            if value is None:
                writer.writerow(head + ["", ""])
            else:
                z = complex(value)
                writer.writerow(head + [repr(z.real), repr(z.imag)])


def direction_circle(count):
    """count unit directions evenly spread on the circle (dimension 2)."""
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.column_stack([np.cos(angles), np.sin(angles)])

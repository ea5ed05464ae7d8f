"""Numeric recovery of directional pushforwards from Euler-Fourier data.

The cone is the nonpositive orthant.  For a cone-constructible function the
complex transform values along a ray of directions determine the 1-D
pushforward through a truncated inverse Fourier integral with one-sided
evaluation, whose real integrand is a sum of w_e sin(s (t - e)) / s over
the pushforward's breakpoints e with jumps w_e.  The two polar cones are
the directions with every component >= -EPS (the up side) and those with
every component <= EPS (the down side); outside both the pushforward
vanishes identically, which is checked exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cf1d import EPS
from .cfnd import is_cone_constructible, pushforward_linear
from .errors import DimensionMismatch, NotConeConstructible, ZeroDirection
from .geometry import as_vector


@dataclass(frozen=True)
class RecoveryParams:
    """Quadrature controls: truncation A, step ds, one-sided offset delta."""

    A: float = 500.0
    ds: float = 0.01
    delta: float = 1e-3

    def __post_init__(self):
        if not (0 < self.ds < self.A < math.inf and 0 < self.delta < math.inf):
            raise ValueError("need 0 < ds < A and delta > 0, all finite")


def _sides(phi, xi):
    """(up, down): whether the form xi lies in the polar cone of the
    nonnegative orthant (every xi_i >= -EPS) and of the nonpositive one
    (every xi_i <= EPS)."""
    if xi.size != phi.dimension:
        raise DimensionMismatch("form dimension differs from ambient")
    return bool(np.all(xi >= -EPS)), bool(np.all(xi <= EPS))


def recover_pushforward(phi, xi, t, params=RecoveryParams()):
    """Approximate (xi_* phi)(t) from the transform with kernel exp(-is t).

    The direction must be nonzero; phi must be cone-constructible.  If xi
    lies outside both polar cones the pushforward is exactly zero and 0.0 is
    returned without quadrature.  Otherwise the classical Fourier transform
    of the pushforward is integrated over |s| in [ds, A] by the trapezoid
    rule (the origin is excluded symmetrically) with the evaluation point
    shifted by +delta on the up side and by -delta on the down side,
    matching the one-sided continuity of the pushforward on either side.
    The pushforward is real, so the s < 0 half is the conjugate reflection
    and the integrand is the real part of sum_pieces v (i/s) e^{ist}
    (e^{-is hi} - e^{-is lo}), which is sum_e w_e sin(s (t - e)) / s over
    the breakpoints e, w_e being the bounded value right of e minus the one
    left of it: one real sine per breakpoint.
    """
    xi = as_vector(xi)
    if not np.any(xi):
        raise ZeroDirection("need a nonzero direction")
    if not is_cone_constructible(phi):
        raise NotConeConstructible("input is not cone-constructible")

    in_up, in_down = _sides(phi, xi)
    if not in_up and not in_down:
        return 0.0

    t_probe = t + params.delta if in_up else t - params.delta
    pushed = pushforward_linear(phi, xi)
    values = pushed.interval_values[1:-1]  # the bounded pieces
    if not any(values):
        return 0.0

    count = int(round(params.A / params.ds))
    s = np.arange(1, count + 1) * params.ds
    integrand = np.zeros_like(s)
    for e, before, after in zip(pushed.breakpoints, (0,) + values, values + (0,)):
        if after != before:
            integrand += (after - before) * np.sin(s * (t_probe - e))
    return float(np.trapezoid(integrand / s, s) / np.pi)


def radon_support_check(phi, xi):
    """For xi outside both polar cones the pushforward must vanish exactly.

    Inside either polar cone the statement is vacuous and True is returned.
    """
    xi = as_vector(xi)
    if not np.any(xi):
        raise ZeroDirection("need a nonzero direction")
    if not is_cone_constructible(phi):
        raise NotConeConstructible("input is not cone-constructible")
    if any(_sides(phi, xi)):
        return True
    return pushforward_linear(phi, xi).is_zero()


def chi_vanishing_check(phi):
    """Compactly supported cone-constructible functions integrate to zero."""
    if not is_cone_constructible(phi):
        raise NotConeConstructible("input is not cone-constructible")
    from .cfnd import euler_integral_nd

    return euler_integral_nd(phi) == 0

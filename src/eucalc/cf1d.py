"""Exact algebra of constructible functions on the real line.

A function is stored as a finite step system: strictly increasing breakpoints
``b_1 < ... < b_k``, an integer value at each breakpoint, and an integer value
on each of the k+1 open intervals they cut out of the line (including the two
unbounded ones).  The representation is kept canonical -- a breakpoint whose
point value equals both neighbouring interval values is removable and is
dropped -- so two functions are equal iff their stored data agree (breakpoints
up to the comparison tolerance).

All ring operations, Euler integration, convolution, duality, affine
pushforwards and Lebesgue pairing against kernels are exact on this class.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMap,
    ImproperConvolution,
    NonCompactSupport,
)

EPS = 1e-9


def _cluster(values):
    """Merge values into sorted representatives at least EPS apart.

    Returns (reps, snap) where snap maps every input value (as a float) to
    the leftmost representative of its cluster.
    """
    reps = []
    snap = {}
    for v in sorted(float(x) for x in values):
        if reps and v - reps[-1] <= EPS:
            snap[v] = reps[-1]
        else:
            reps.append(v)
            snap[v] = v
    return reps, snap


class CF1D:
    """Constructible function on the line in canonical step form."""

    __slots__ = ("breakpoints", "point_values", "interval_values")

    def __init__(self, breakpoints, point_values, interval_values):
        breakpoints = [float(b) for b in breakpoints]
        point_values = [int(v) for v in point_values]
        interval_values = [int(v) for v in interval_values]
        if len(interval_values) != len(breakpoints) + 1:
            raise ValueError("need one interval value more than breakpoints")
        if len(point_values) != len(breakpoints):
            raise ValueError("need one point value per breakpoint")
        if breakpoints and not (
            math.isfinite(breakpoints[0]) and math.isfinite(breakpoints[-1])
        ):
            raise ValueError("breakpoints must be finite")
        # NaN compares false, so a NaN between finite ends fails here too
        if not all(b2 - b1 > EPS for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        # drop removable breakpoints
        keep_b, keep_pv, keep_iv = [], [], [interval_values[0]]
        for b, pv, iv_right in zip(breakpoints, point_values, interval_values[1:]):
            if pv == keep_iv[-1] == iv_right:
                continue
            keep_b.append(b)
            keep_pv.append(pv)
            keep_iv.append(iv_right)
        self.breakpoints = tuple(keep_b)
        self.point_values = tuple(keep_pv)
        self.interval_values = tuple(keep_iv)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls((), (), (0,))

    @classmethod
    def point(cls, p, value=1):
        return cls((p,), (value,), (0, 0))

    @classmethod
    def segment(cls, a, b, value=1):
        """Indicator of the closed interval [a, b] (a point mass if a == b)."""
        if b - a <= EPS:
            return cls.point(a, value)
        return cls((a, b), (value, value), (0, value, 0))

    @classmethod
    def interval(cls, a, b, left_closed=True, right_closed=True, value=1):
        if b - a <= EPS:
            return cls.point(a, value) if left_closed and right_closed else cls.zero()
        return cls(
            (a, b),
            (value if left_closed else 0, value if right_closed else 0),
            (0, value, 0),
        )

    @classmethod
    def half_open(cls, a, b, value=1):
        """Indicator of [a, b)."""
        return cls.interval(a, b, True, False, value)

    @classmethod
    def open_interval(cls, a, b, value=1):
        return cls.interval(a, b, False, False, value)

    @classmethod
    def ray_up(cls, a, value=1):
        """Indicator of [a, +inf)."""
        return cls((a,), (value,), (0, value))

    @classmethod
    def ray_down(cls, a, value=1):
        """Indicator of (-inf, a]."""
        return cls((a,), (value,), (value, 0))

    @classmethod
    def from_evaluator(cls, candidate_breakpoints, fn):
        """Canonical function from candidate breakpoints and a pointwise rule.

        Candidates are merged within EPS (leftmost representative wins); fn is
        probed at each representative, at interval midpoints, and beyond the
        outer representatives b at b -/+ 1 or at the next float past b,
        whichever is farther: b -/+ 1 rounds onto b once |b| >= 2**53, and a
        distance of |b| would overflow once |b| > 2**1023.  Midpoints are
        a/2 + b/2, since a + b may overflow; ValueError is raised when no
        float lies strictly between two representatives.
        """
        reps, _ = _cluster(candidate_breakpoints)
        if not reps:
            return cls((), (), (int(fn(0.0)),))
        mids = [a / 2.0 + b / 2.0 for a, b in zip(reps, reps[1:])]
        # an infinite midpoint is left to the constructor's finiteness check
        if any(m in (a, b) and math.isfinite(m) for m, a, b in zip(mids, reps, reps[1:])):
            raise ValueError("no float lies strictly between adjacent breakpoints")
        probes_iv = [min(reps[0] - 1.0, math.nextafter(reps[0], -math.inf))]
        probes_iv += mids
        probes_iv += [max(reps[-1] + 1.0, math.nextafter(reps[-1], math.inf))]
        return cls(reps, [fn(b) for b in reps], [fn(x) for x in probes_iv])

    # -- basic queries --------------------------------------------------------

    def evaluate(self, x):
        """Value at x (point value when x is within EPS of a breakpoint)."""
        x = float(x)
        i = bisect_left(self.breakpoints, x)
        if i < len(self.breakpoints) and abs(self.breakpoints[i] - x) <= EPS:
            return self.point_values[i]
        if i > 0 and abs(self.breakpoints[i - 1] - x) <= EPS:
            return self.point_values[i - 1]
        return self.interval_values[i]

    def __call__(self, x):
        return self.evaluate(x)

    def is_zero(self):
        return not self.breakpoints and self.interval_values[0] == 0

    def equals(self, other):
        """Canonical-form equality (breakpoints compared within EPS)."""
        return (
            len(self.breakpoints) == len(other.breakpoints)
            and all(
                abs(a - b) <= EPS
                for a, b in zip(self.breakpoints, other.breakpoints)
            )
            and self.point_values == other.point_values
            and self.interval_values == other.interval_values
        )

    def support_bounded_below(self):
        return self.interval_values[0] == 0

    def support_bounded_above(self):
        return self.interval_values[-1] == 0

    def is_compactly_supported(self):
        return self.support_bounded_below() and self.support_bounded_above()

    def is_right_closed(self):
        """Whether every point value agrees with the value just to its right.

        These are exactly the finite sums of indicators of [c, d) intervals
        (with d possibly infinite).
        """
        return all(
            pv == iv
            for pv, iv in zip(self.point_values, self.interval_values[1:])
        )

    def __repr__(self):
        return (
            f"CF1D(breakpoints={self.breakpoints}, "
            f"point_values={self.point_values}, "
            f"interval_values={self.interval_values})"
        )

    # -- ring operations ------------------------------------------------------

    def add(self, other):
        return CF1D.from_evaluator(
            self.breakpoints + other.breakpoints,
            lambda x: self.evaluate(x) + other.evaluate(x),
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, m):
        m = int(m)
        if m == 0:
            return CF1D.zero()
        return CF1D(
            self.breakpoints,
            [m * v for v in self.point_values],
            [m * v for v in self.interval_values],
        )

    def __mul__(self, other):
        """Pointwise product with another CF1D."""
        return CF1D.from_evaluator(
            self.breakpoints + other.breakpoints,
            lambda x: self.evaluate(x) * other.evaluate(x),
        )

    def restrict(self, a, b):
        """Pointwise product with the indicator of the open interval (a, b)."""
        extra = [x for x in (a, b) if x not in (float("-inf"), float("inf"))]
        return CF1D.from_evaluator(
            self.breakpoints + tuple(extra),
            lambda x: self.evaluate(x) if a < x < b else 0,
        )

    # -- Euler integration ----------------------------------------------------

    def euler_integral(self):
        """Integral against the Euler characteristic (compact support only).

        Each breakpoint contributes its point value, each bounded open
        interval contributes minus its value.
        """
        if not self.is_compactly_supported():
            raise NonCompactSupport("Euler integral needs compact support")
        return sum(self.point_values) - sum(self.interval_values[1:-1])

    # -- generator decomposition ----------------------------------------------

    def decompose(self):
        """Exact integer combination of segment/point/ray generators.

        Re-summing the generators reproduces the function (see recompose).
        """
        acc = {}

        def put(kind, a, b, coef):
            if coef:
                key = (kind, a, b)
                acc[key] = acc.get(key, 0) + coef
                if acc[key] == 0:
                    del acc[key]

        if not self.breakpoints:
            c = self.interval_values[0]
            if c:
                # constant c on the whole line: down-ray + up-ray - point
                put("ray_down", 0.0, None, c)
                put("ray_up", 0.0, None, c)
                put("point", 0.0, None, -c)
        else:
            b = self.breakpoints
            v = self.interval_values
            if v[0]:
                put("ray_down", b[0], None, v[0])
                put("point", b[0], None, -v[0])
            if v[-1]:
                put("ray_up", b[-1], None, v[-1])
                put("point", b[-1], None, -v[-1])
            for left, right, val in zip(b, b[1:], v[1:-1]):
                if val:
                    put("segment", left, right, val)
                    put("point", left, None, -val)
                    put("point", right, None, -val)
            for p, val in zip(b, self.point_values):
                put("point", p, None, val)
        return [
            IntervalGenerator(kind, a, b, coef)
            for (kind, a, b), coef in sorted(
                acc.items(), key=lambda item: (item[0][0], item[0][1])
            )
        ]

    # -- convolution ----------------------------------------------------------

    def convolve(self, other):
        """Convolution with respect to the Euler characteristic.

        Requires addition to be proper on the supports: both bounded below,
        both bounded above, or one side compact.
        """
        ok = (
            (self.support_bounded_below() and other.support_bounded_below())
            or (self.support_bounded_above() and other.support_bounded_above())
            or self.is_compactly_supported()
            or other.is_compactly_supported()
        )
        if not ok:
            raise ImproperConvolution(
                "supports must be bounded on a common side or one compact"
            )
        gens = {}
        for g in self.decompose():
            for h in other.decompose():
                kind, a, b, coef = _convolve_generators(g, h)
                if coef:
                    key = (kind, a, b)
                    gens[key] = gens.get(key, 0) + coef
        return recompose(
            IntervalGenerator(kind, a, b, coef)
            for (kind, a, b), coef in gens.items()
        )

    # -- duality ---------------------------------------------------------------

    def dualize(self):
        """Verdier-type duality: D(f)(x) = f(x) - f(x-) - f(x+).

        Swaps closed and open intervals up to sign and fixes isolated points;
        it is an involution.
        """
        new_iv = [-v for v in self.interval_values]
        new_pv = [
            pv - left - right
            for pv, left, right in zip(
                self.point_values, self.interval_values, self.interval_values[1:]
            )
        ]
        return CF1D(self.breakpoints, new_pv, new_iv)

    # -- pushforward -----------------------------------------------------------

    def pushforward_affine(self, alpha, beta=0.0):
        """Image under t -> alpha * t + beta; order reverses when alpha < 0."""
        if alpha == 0:
            raise DegenerateMap("affine pushforward needs alpha != 0")
        new_b = [alpha * b + beta for b in self.breakpoints]
        if any(y - x <= EPS for x, y in zip(sorted(new_b), sorted(new_b)[1:])):
            # map squeezed breakpoints together: re-evaluate on the merged grid
            return CF1D.from_evaluator(
                new_b, lambda t: self.evaluate((t - beta) / alpha)
            )
        if alpha > 0:
            return CF1D(new_b, self.point_values, self.interval_values)
        return CF1D(
            new_b[::-1],
            self.point_values[::-1],
            self.interval_values[::-1],
        )

    # -- Lebesgue pairing --------------------------------------------------------

    def lebesgue_pair(self, kernel):
        """Lebesgue integral of kernel(t) * f(t) dt.

        Point values are null sets and do not contribute; each interval piece
        contributes value * (K(upper) - K(lower)) for the kernel's
        antiderivative K.  Raises NonIntegrable when an unbounded piece with
        nonzero value meets an infinity where K is undefined, and
        OverflowError when K is not finite at a breakpoint.
        """
        inf = float("inf")
        if not self.breakpoints:
            pieces = [(-inf, inf, self.interval_values[0])]
        else:
            b = self.breakpoints
            pieces = [(-inf, b[0], self.interval_values[0])]
            pieces += [
                (lo, hi, v)
                for lo, hi, v in zip(b, b[1:], self.interval_values[1:-1])
            ]
            pieces.append((b[-1], inf, self.interval_values[-1]))
        total = 0
        with np.errstate(all="ignore"):  # overflow is raised by the kernel
            for lo, hi, v in pieces:
                if v:
                    total += v * kernel.integrate(lo, hi)
        if kernel.field == "complex":
            return complex(total)
        return float(total)

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        return {
            "breakpoints": list(self.breakpoints),
            "pointValues": list(self.point_values),
            "intervalValues": list(self.interval_values),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["breakpoints"], data["pointValues"], data["intervalValues"]
        )


@dataclass(frozen=True)
class IntervalGenerator:
    """Signed generator: closed segment [a, b], point {a}, or ray from a."""

    kind: str  # "segment" | "point" | "ray_up" | "ray_down"
    a: float
    b: float = None
    coefficient: int = 1


def recompose(generators):
    """Sum a family of interval generators back into a canonical CF1D."""
    gens = list(generators)
    endpoints = []
    for g in gens:
        endpoints.append(g.a)
        if g.kind == "segment":
            endpoints.append(g.b)
    if not endpoints:
        return CF1D.zero()
    _, snap = _cluster(endpoints)

    snapped = []
    for g in gens:
        a = snap[g.a]
        b = snap[g.b] if g.kind == "segment" else None
        if g.kind == "segment" and a == b:
            snapped.append(("point", a, None, g.coefficient))
        else:
            snapped.append((g.kind, a, b, g.coefficient))

    def value_at(x):
        total = 0
        for kind, a, b, coef in snapped:
            if kind == "segment":
                inside = a <= x <= b
            elif kind == "point":
                inside = x == a
            elif kind == "ray_up":
                inside = x >= a
            else:
                inside = x <= a
            if inside:
                total += coef
        return total

    return CF1D.from_evaluator(set(snap.values()), value_at)


def _convolve_generators(g, h):
    """Convolution of two interval generators; returns (kind, a, b, coef)."""
    coef = g.coefficient * h.coefficient
    if h.kind == "point" or (h.kind == "segment" and g.kind != "point"):
        g, h = h, g
    ka, kb = g.kind, h.kind
    if ka == "point":
        if kb == "point":
            return ("point", g.a + h.a, None, coef)
        if kb == "segment":
            return ("segment", g.a + h.a, g.a + h.b, coef)
        return (kb, g.a + h.a, None, coef)
    if ka == "segment":
        if kb == "segment":
            return ("segment", g.a + h.a, g.b + h.b, coef)
        if kb == "ray_up":
            return ("ray_up", g.a + h.a, None, coef)
        return ("ray_down", g.b + h.a, None, coef)
    if ka == kb:  # rays in the same direction
        return (ka, g.a + h.a, None, coef)
    raise ImproperConvolution("opposite rays cannot be convolved")

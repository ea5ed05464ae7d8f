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

One rule makes results canonical, CF1D.from_evaluator: candidate breakpoints
merge into clusters [r, r + EPS] (_cluster), and a sided rule is read at each
representative r -- on the cluster, on the gap just right of it, and once
left of the first -- so nothing is evaluated between breakpoints.  Sums and
products read their operands with CF1D._at, which needs every breakpoint of
the operand to lie in some representative's cluster.  Generators are signed
closed spans [lo, hi] of the extended line (IntervalGenerator); recompose
counts the spans holding each reading (_inside), and convolution adds end
points.

Tolerance policy of the library, in one place: end points and breakpoints
within EPS = 1e-9 merge (here, and in every module that snaps values);
radon's sign test puts a direction on the up side when every component is
>= -EPS and on the down side when every component is <= EPS;
geometry.dist_to_simplex accepts barycentric coordinates down to -1e-12;
EmbeddedComplex rejects a cell whose vertex differences have rank below
its dimension at tolerance 1e-12.  The verify suites hold two routes to
2^-46 * (1 + size), 64 ulps of the summed term magnitudes.
"""

import math
from bisect import bisect_left
from collections import Counter
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
        """Canonical function from candidate breakpoints and a sided rule.

        Candidates are merged into clusters [r, r + EPS] by _cluster, each
        represented by its leftmost value r.  fn(r, side) gives the value on
        r's cluster (side 0) and on the open gap just right of it (side +1);
        fn(reps[0], -1) gives the value left of the first cluster.  The rule
        must be constant on each gap, and these 2k + 1 readings are the whole
        function: nothing is evaluated between breakpoints.  With no
        candidates the function is the constant fn(0.0, 0).
        """
        reps, _ = _cluster(candidate_breakpoints)
        if not reps:
            return cls((), (), (fn(0.0, 0),))
        return cls(
            reps,
            [fn(r, 0) for r in reps],
            [fn(reps[0], -1)] + [fn(r, 1) for r in reps],
        )

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

    def _at(self, r, side):
        """The sided reading fn(r, side) of from_evaluator for this function.

        Precondition: r is a representative of clusters that hold every
        breakpoint of this function, so breakpoint b lies in r's cluster iff
        r <= b <= r + EPS (at most one does, as breakpoints are > EPS apart).
        """
        b = self.breakpoints
        i = bisect_left(b, r)
        if i < len(b) and b[i] - r <= EPS:
            if side == 0:
                return self.point_values[i]
            return self.interval_values[i + (side > 0)]
        return self.interval_values[i]

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
            lambda r, side: self._at(r, side) + other._at(r, side),
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
            lambda r, side: self._at(r, side) * other._at(r, side),
        )

    def restrict(self, a, b):
        """Pointwise product with the indicator of the open interval (a, b)."""
        if math.isfinite(a) and math.isfinite(b):
            window = CF1D.open_interval(a, b)
        else:  # 1 beyond an infinite end, the constant 1 when both are
            ends = [x for x in (a, b) if math.isfinite(x)]
            outer = [int(a == -math.inf), int(b == math.inf)]
            window = CF1D(ends, [0] * len(ends), outer[: len(ends) + 1])
        return self * window

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
        """Exact integer combination of closed spans (see IntervalGenerator).

        Each piece of the line contributes its value times its closure: a
        breakpoint b the span [b, b], an open interval (lo, hi) the span
        [lo, hi] minus its finite end points.  Re-summing the generators
        reproduces the function (see recompose).
        """
        ends = (-math.inf, *self.breakpoints, math.inf)
        pieces = [*zip(ends, ends[1:], self.interval_values)]
        pieces += [(b, b, v) for b, v in zip(self.breakpoints, self.point_values)]
        acc = Counter()
        for lo, hi, v in pieces:
            acc[lo, hi] += v
            if lo < hi:
                for x in (lo, hi):
                    if math.isfinite(x):
                        acc[x, x] -= v
        gens = [IntervalGenerator(lo, hi, c) for (lo, hi), c in acc.items() if c]
        return sorted(gens, key=lambda g: (g.kind, g.lo))

    # -- convolution ----------------------------------------------------------

    def convolve(self, other):
        """Convolution with respect to the Euler characteristic.

        Requires addition to be proper on the supports: both bounded below,
        both bounded above, or one side compact.  Then no two opposite rays
        meet, and the convolution of two spans is the span of the sums of
        their end points.
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
        gens = Counter()
        for g in self.decompose():
            for h in other.decompose():
                key = (_end(g.lo + h.lo, g.lo, h.lo), _end(g.hi + h.hi, g.hi, h.hi))
                gens[key] += g.coefficient * h.coefficient
        return recompose(
            IntervalGenerator(lo, hi, coef) for (lo, hi), coef in gens.items()
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
            # breakpoints squeezed together: map the spans and re-sum them
            return recompose(
                IntervalGenerator(
                    *sorted(_end(alpha * x + beta, x) for x in (g.lo, g.hi)),
                    g.coefficient,
                )
                for g in self.decompose()
            )
        if alpha > 0:
            return CF1D(new_b, self.point_values, self.interval_values)
        return CF1D(
            new_b[::-1],
            self.point_values[::-1],
            self.interval_values[::-1],
        )

    # -- Lebesgue pairing --------------------------------------------------------

    def pieces(self):
        """The open intervals (lo, hi, value) between breakpoints, the two
        unbounded ones included."""
        ends = (-math.inf,) + self.breakpoints + (math.inf,)
        return list(zip(ends, ends[1:], self.interval_values))

    def lebesgue_pair(self, kernel):
        """Lebesgue integral of kernel(t) * f(t) dt.

        Point values are null sets and do not contribute; each interval piece
        contributes value * (K(upper) - K(lower)) for the kernel's
        antiderivative K.  Raises NonIntegrable when an unbounded piece with
        nonzero value meets an infinity where K is undefined, and
        OverflowError when K is not finite at a breakpoint.
        """
        total = 0
        with np.errstate(all="ignore"):  # overflow is raised by the kernel
            for lo, hi, v in self.pieces():
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
    """Signed closed span [lo, hi] of the extended line.

    A point has lo == hi, a ray one infinite end, the whole line both.
    """

    lo: float
    hi: float
    coefficient: int = 1

    @property
    def kind(self):
        """"point", "segment", "ray_up", "ray_down" or "line"."""
        if self.lo == self.hi:
            return "point"
        if math.isinf(self.lo):
            return "line" if math.isinf(self.hi) else "ray_down"
        return "ray_up" if math.isinf(self.hi) else "segment"


def _end(value, *operands):
    """An end point computed from operands: infinite only if one of them is."""
    if math.isinf(value) and all(math.isfinite(x) for x in operands):
        raise ValueError("breakpoints must be finite, but an end point overflows")
    return value


def _inside(lo, hi, r, side):
    """Whether the reading (r, side) of from_evaluator lies in [lo, hi].

    The ends must be representatives of the reading's clusters or infinite:
    side 0 reads r's cluster, +1 the gap right of it, -1 the gap left of it.
    """
    return lo <= r <= hi and (side <= 0 or r < hi) and (side >= 0 or lo < r)


def recompose(generators):
    """Sum a family of signed closed spans into a canonical CF1D.

    Finite end points snap to their cluster's representative; each reading
    counts the spans that hold it.
    """
    gens = list(generators)
    reps, snap = _cluster(
        x for g in gens for x in (g.lo, g.hi) if math.isfinite(x)
    )
    spans = [(snap.get(g.lo, g.lo), snap.get(g.hi, g.hi), g.coefficient) for g in gens]
    return CF1D.from_evaluator(
        reps,
        lambda r, side: sum(c for lo, hi, c in spans if _inside(lo, hi, r, side)),
    )

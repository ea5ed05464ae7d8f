"""Lebesgue kernels packaged with exact antiderivatives.

A kernel is never sampled: every pairing against a constructible function
reduces to antiderivative differences, so transforms built on these objects
are closed-form exact.  Each kernel records where its antiderivative is
defined at the two infinities, an optional window restricting it to
kappa * 1_(a,b), and a strict-monotonicity tag for the antiderivative on the
active window (consumed by the index-formula checks).

Antiderivatives are written with numpy, so the same function serves a single
point and an array of (already clipped) points.
"""

import cmath
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyWindow, NonIntegrable

INF = float("inf")

INCREASING = "increasing"
DECREASING = "decreasing"
NONE = "none"


@dataclass(frozen=True)
class Kernel:
    name: str
    field: str  # "real" | "complex"
    antideriv: callable  # K at finite arguments, scalar or array
    at_neg_inf: object = None  # value of K at -inf, or None if undefined
    at_pos_inf: object = None
    window: tuple = (-INF, INF)
    monotonicity: str = NONE
    # given a window, reports the monotonicity of K restricted to it
    retag: callable = field(default=None, repr=False)

    def _clip(self, x):
        lo, hi = self.window
        return min(max(x, lo), hi)

    def antideriv_at(self, x):
        """Antiderivative of the windowed kernel at x (up to a constant).

        Raises NonIntegrable at an infinity where K is undefined, and
        OverflowError where K is not finite at a finite point.
        """
        x = self._clip(x)
        if x == INF:
            if self.at_pos_inf is None:
                raise NonIntegrable(
                    f"kernel {self.name!r}: antiderivative undefined at +inf"
                )
            return self.at_pos_inf
        if x == -INF:
            if self.at_neg_inf is None:
                raise NonIntegrable(
                    f"kernel {self.name!r}: antiderivative undefined at -inf"
                )
            return self.at_neg_inf
        value = self.antideriv(x)
        if not cmath.isfinite(value):
            raise OverflowError(
                f"kernel {self.name!r}: antiderivative overflows at {float(x)!r}"
            )
        return value

    def integrate(self, a, b):
        """Integral of the windowed kernel over (a, b)."""
        return self.antideriv_at(b) - self.antideriv_at(a)


def compose_window(kernel, a, b):
    """Restrict the kernel to kappa * 1_(a,b); windows intersect."""
    if not a < b:
        raise EmptyWindow("window needs a < b")
    lo = max(kernel.window[0], a)
    hi = min(kernel.window[1], b)
    if not lo < hi:
        raise EmptyWindow("window intersection is empty")
    tag = kernel.retag(lo, hi) if kernel.retag else NONE
    return replace(kernel, window=(lo, hi), monotonicity=tag)


def laplace():
    """kappa(t) = exp(-t); antiderivative -exp(-x), zero at +inf."""
    return Kernel(
        name="laplace",
        field="real",
        antideriv=lambda x: -np.exp(-x),
        at_pos_inf=0.0,
        monotonicity=INCREASING,
        retag=lambda lo, hi: INCREASING,
    )


def fourier():
    """kappa(t) = exp(-it); antiderivative i * exp(-ix)."""
    return Kernel(
        name="fourier",
        field="complex",
        antideriv=lambda x: 1j * np.exp(-1j * x),
        monotonicity=NONE,
    )


def heaviside():
    """kappa = 1_[0,inf); antiderivative max(x, 0), zero at -inf.

    Strictly increasing only once windowed inside the nonnegative axis.
    """
    return Kernel(
        name="gr",
        field="real",
        antideriv=lambda x: np.maximum(x, 0.0),
        at_neg_inf=0.0,
        monotonicity=NONE,
        retag=lambda lo, hi: INCREASING if lo >= 0 else NONE,
    )


def ecb(a):
    """kappa = 1_(-inf, a): the constant-1 kernel windowed above at a.

    Pairing against it integrates the function over (-inf, a), so the
    function must vanish near -inf.
    """
    a = float(a)
    if not a > -INF:  # NaN fails too
        raise EmptyWindow(f"ecb bound must be above -inf, got {a!r}")
    return Kernel(
        name=f"ecb:{a}",
        field="real",
        antideriv=lambda x: x,
        window=(-INF, a),
        monotonicity=INCREASING,
        retag=lambda lo, hi: INCREASING,
    )


def negate(kernel):
    """The kernel -kappa; flips the antiderivative and the monotonicity tag."""
    flip = {INCREASING: DECREASING, DECREASING: INCREASING, NONE: NONE}

    def neg(v):
        return None if v is None else -v

    return replace(
        kernel,
        name=f"neg_{kernel.name}",
        antideriv=lambda x, k=kernel: -k.antideriv(x),
        at_neg_inf=neg(kernel.at_neg_inf),
        at_pos_inf=neg(kernel.at_pos_inf),
        monotonicity=flip[kernel.monotonicity],
        retag=(
            (lambda lo, hi, k=kernel: flip[k.retag(lo, hi)])
            if kernel.retag
            else None
        ),
    )


def parse(spec):
    """Kernel from a command-line spec string.

    Accepted: "laplace", "fourier", "gr", "ecb:a", each optionally followed
    by ":window=a,b" (use "inf"/"-inf" for unbounded ends).
    """
    parts = spec.split(":")
    name = parts[0]
    rest = parts[1:]
    if name == "laplace":
        kernel = laplace()
    elif name == "fourier":
        kernel = fourier()
    elif name == "gr":
        kernel = heaviside()
    elif name == "ecb":
        if not rest or "=" in rest[0]:
            raise ValueError("ecb kernel needs a bound: ecb:a")
        kernel = ecb(float(rest.pop(0)))
    else:
        raise ValueError(f"unknown kernel {name!r}")
    for token in rest:
        if not token.startswith("window="):
            raise ValueError(f"unknown kernel option {token!r}")
        lo, hi = token[len("window="):].split(",")
        kernel = compose_window(kernel, float(lo), float(hi))
    return kernel

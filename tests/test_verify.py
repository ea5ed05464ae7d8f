"""The verify tolerance rule: its premise against 50-digit references, and
its power against a skewed transform."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eucalc import kernels, transforms
from eucalc.cf1d import EPS
from eucalc.cfnd import CFND, ClosedPolytope, HalfOpenBox, bounded_point_groups
from eucalc.geometry import Polytope
from eucalc.verify import _pairing_size, run_suites

RULE = 2.0**-46


def mantissas(n, positive=False):
    low = 0.05 if positive else -1.0
    return st.lists(st.floats(low, 1.0, allow_nan=False), min_size=n, max_size=n)


@st.composite
def scenes_and_forms(draw):
    """A voxel and polytope sum with coordinates of one decade in 1e-3..1e2,
    and a form of another, so that every projection stays below 400."""
    e_coord = draw(st.integers(-3, 2))
    e_form = draw(st.integers(-2, 2 - max(e_coord, 0)))
    scale = 10.0**e_coord
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coef = draw(st.sampled_from([-2, -1, 1, 2]))
        if draw(st.booleans()):
            low = np.array(draw(mantissas(2))) * scale
            width = np.array(draw(mantissas(2, positive=True))) * scale
            terms.append((coef, HalfOpenBox(low, low + width)))
        else:
            count = draw(st.integers(1, 4))
            points = np.array(draw(mantissas(2 * count))).reshape(count, 2) * scale
            terms.append((coef, ClosedPolytope(Polytope(points))))
    xi = np.array(draw(mantissas(2))) * 10.0**e_form
    assume(np.any(xi))
    return CFND(2, tuple(terms)), xi


def reference(phi, xi, kernel):
    """Sum of c * (K(max) - K(min)) over phi's generating point groups, at
    50 digits; groups no longer than EPS are points, as in the engine."""
    antideriv = {
        "laplace": lambda t: -mpmath.exp(-t),
        "fourier": lambda t: 1j * mpmath.exp(-1j * t),
    }[kernel.name]
    points, starts, coefs, _ = bounded_point_groups(phi)
    bounds = list(starts[1:]) + [len(points)]
    with mpmath.workdps(50):
        form = [mpmath.mpf(float(x)) for x in xi]
        proj = [sum(mpmath.mpf(float(p)) * x for p, x in zip(row, form)) for row in points]
        total = mpmath.mpf(0)
        for start, stop, coef in zip(starts, bounds, coefs):
            lo, hi = min(proj[start:stop]), max(proj[start:stop])
            # a width near EPS would make the point rule itself ambiguous
            assume(hi == lo or hi - lo > 1e3 * EPS)
            if hi > lo:
                total += int(coef) * (antideriv(hi) - antideriv(lo))
        return complex(total) if kernel.field == "complex" else float(total)


@pytest.mark.parametrize("kernel", [kernels.laplace(), kernels.fourier()], ids=lambda k: k.name)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=scenes_and_forms())
def test_transform_within_rule_of_50_digit_reference(kernel, case):
    phi, xi = case
    got = transforms.hybrid_transform(phi, xi, kernel)
    want = reference(phi, xi, kernel)
    assert abs(got - want) <= RULE * (1.0 + _pairing_size(phi, xi, kernel)), (got, want)


def test_laplace_skewed_by_1e9_fails_el_identities(monkeypatch):
    original = transforms.hybrid_transform

    def skewed(phi, xis, kernel):
        value = original(phi, xis, kernel)
        return value * (1 + 1e-9) if kernel.name == "laplace" else value

    monkeypatch.setattr(transforms, "hybrid_transform", skewed)
    results = run_suites(["el_convolution", "el_cone_product"], seed=42)
    assert [r.passed for r in results] == [False, False]

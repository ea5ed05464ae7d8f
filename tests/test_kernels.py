import math

import numpy as np
import pytest

from eucalc import kernels
from eucalc.errors import EmptyWindow, NonIntegrable

INF = float("inf")


class TestIntegrateWindow:
    def test_laplace_tail(self):
        assert kernels.laplace().integrate(0, INF) == pytest.approx(1.0)

    def test_laplace_ray_exact(self):
        for a in (-2.0, 0.0, 1.25):
            assert kernels.laplace().integrate(a, INF) == pytest.approx(math.exp(-a), abs=1e-15)

    def test_fourier_antiderivative(self):
        assert kernels.fourier().integrate(0, math.pi) == pytest.approx(-2j, abs=1e-12)

    def test_heaviside_clips_negative_part(self):
        assert kernels.heaviside().integrate(-5, 3) == 3.0

    def test_laplace_undefined_at_neg_inf(self):
        with pytest.raises(NonIntegrable):
            kernels.laplace().integrate(-INF, 0)

    def test_fourier_undefined_at_infinities(self):
        with pytest.raises(NonIntegrable):
            kernels.fourier().integrate(0, INF)


class TestComposeWindow:
    def test_window_clips_integration(self):
        w = kernels.compose_window(kernels.laplace(), 0, INF)
        assert w.integrate(-10, 2) == pytest.approx(1 - math.exp(-2))

    def test_double_window_intersects(self):
        w = kernels.compose_window(kernels.laplace(), 0, 5)
        w = kernels.compose_window(w, 1, 9)
        assert w.window == (1.0, 5.0)

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            kernels.compose_window(kernels.laplace(), 2, 2)
        with pytest.raises(EmptyWindow):
            kernels.compose_window(kernels.compose_window(kernels.laplace(), 0, 1), 2, 3)

    def test_window_then_integrate_equals_clipped(self):
        w = kernels.compose_window(kernels.fourier(), 0.5, 1.5)
        assert w.integrate(-INF, INF) == pytest.approx(kernels.fourier().integrate(0.5, 1.5))


class TestMonotonicityTags:
    def test_laplace_increasing(self):
        assert kernels.laplace().monotonicity == "increasing"

    def test_heaviside_window_dependent(self):
        assert kernels.heaviside().monotonicity == "none"
        assert kernels.compose_window(kernels.heaviside(), 0, INF).monotonicity == "increasing"
        assert kernels.compose_window(kernels.heaviside(), -1, 1).monotonicity == "none"

    def test_negate_flips(self):
        assert kernels.negate(kernels.laplace()).monotonicity == "decreasing"

    def test_increasing_by_sampling(self):
        rng = np.random.default_rng(42)
        for kernel in (kernels.laplace(), kernels.ecb(2.0)):
            lo = max(kernel.window[0], -8.0)
            hi = min(kernel.window[1], 8.0)
            for _ in range(100):
                x, y = np.sort(rng.uniform(lo, hi, size=2))
                if y - x > 1e-9:
                    assert kernel.antideriv_at(float(y)) > kernel.antideriv_at(float(x))


class TestAdditivity:
    @pytest.mark.parametrize("factory", [kernels.laplace, kernels.heaviside, lambda: kernels.ecb(1.0)])
    def test_chasles(self, factory):
        rng = np.random.default_rng(7)
        kernel = factory()
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(-5, 5, size=3))
            lhs = kernel.integrate(a, b) + kernel.integrate(b, c)
            assert lhs == pytest.approx(kernel.integrate(a, c), abs=1e-12)


class TestEcb:
    def test_clipped_above(self):
        assert kernels.ecb(1.0).integrate(0, INF) == 1.0

    def test_needs_left_bounded_support(self):
        with pytest.raises(NonIntegrable):
            kernels.ecb(1.0).integrate(-INF, 0)


class TestParse:
    @pytest.mark.parametrize("bound", [float("nan"), -INF])
    def test_ecb_bound_without_window_rejected(self, bound):
        with pytest.raises(EmptyWindow):
            kernels.ecb(bound)
        with pytest.raises(EmptyWindow):
            kernels.parse(f"ecb:{bound}")

    def test_names(self):
        assert kernels.parse("laplace").name == "laplace"
        assert kernels.parse("fourier").field == "complex"
        assert kernels.parse("gr").name == "gr"
        assert kernels.parse("ecb:1.5").window == (-INF, 1.5)

    def test_window_option(self):
        k = kernels.parse("laplace:window=0,inf")
        assert k.window == (0.0, INF)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            kernels.parse("gaussian")
        with pytest.raises(ValueError):
            kernels.parse("ecb")

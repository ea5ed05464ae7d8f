import numpy as np
import pytest

from eucalc import radon
from eucalc.cfnd import CFND, pushforward_linear
from eucalc.errors import DimensionMismatch, NotConeConstructible, ZeroDirection
from eucalc.radon import (
    RecoveryParams,
    chi_vanishing_check,
    radon_support_check,
    recover_pushforward,
)
from eucalc.verify import random_voxel_cfnd

UNIT_HO = CFND.from_box([0.0, 0.0], [1.0, 1.0])
DIAG = np.array([1.0, 1.0])


class TestRecovery:
    def test_unit_cell_values(self):
        # pushforward along (1,1) is 1_[0,1) - 1_[1,2)
        for t, want in ((0.25, 1.0), (0.5, 1.0), (1.5, -1.0)):
            got = recover_pushforward(UNIT_HO, DIAG, t)
            assert got == pytest.approx(want, abs=0.05)

    def test_mixed_direction_exact_zero(self):
        assert recover_pushforward(UNIT_HO, [1.0, -1.0], 0.5) == 0.0
        assert recover_pushforward(UNIT_HO, [-2.0, 3.0], 0.5) == 0.0

    def test_far_from_support(self):
        assert recover_pushforward(UNIT_HO, DIAG, 10.0) == pytest.approx(
            0.0, abs=0.05
        )

    def test_negative_polar_cone_side(self):
        xi = np.array([-1.0, -1.0])
        exact = pushforward_linear(UNIT_HO, xi)
        for t in (-0.5, -1.5):
            got = recover_pushforward(UNIT_HO, xi, t)
            assert got == pytest.approx(exact.evaluate(t), abs=0.05)

    def test_form_within_eps_of_zero_takes_up_side(self, monkeypatch):
        # (1, -1e-12) counts as nonnegative, so the quadrature pushes phi
        # forward; (1, -1e-8) is mixed and returns the exact zero unpushed
        pushed = []
        monkeypatch.setattr(radon, "pushforward_linear",
                            lambda phi, xi: pushed.append(xi) or pushforward_linear(phi, xi))
        assert recover_pushforward(UNIT_HO, [1.0, -1e-12], 0.5) == 0.0
        assert len(pushed) == 1
        assert recover_pushforward(UNIT_HO, [1.0, -1e-8], 0.5) == 0.0
        assert len(pushed) == 1

    def test_form_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            recover_pushforward(UNIT_HO, [1.0, 1.0, 1.0], 0.5)
        with pytest.raises(DimensionMismatch):
            radon_support_check(UNIT_HO, [1.0, -1.0, 1.0])

    def test_matches_piece_sum_of_complex_exponentials(self):
        # reference: the real part of sum_pieces v (i/s)(e^{-is hi} - e^{-is lo})
        # times e^{ist}, integrated by the same trapezoid rule
        params = RecoveryParams()
        s = np.arange(1, int(round(params.A / params.ds)) + 1) * params.ds

        def piece_sum(phi, xi, t):
            probe = t + params.delta if xi[0] > 0 else t - params.delta
            transform = np.zeros_like(s, dtype=complex)
            pieces = pushforward_linear(phi, xi).pieces()[1:-1]
            for lo, hi, v in pieces:
                transform += v * (1j / s) * (np.exp(-1j * s * hi) - np.exp(-1j * s * lo))
            integrand = np.exp(1j * s * probe) * transform
            size = 1 + sum(abs(v) for _, _, v in pieces)
            return float(np.trapezoid(integrand.real, s) / np.pi), size

        rng = np.random.default_rng(19)
        for case in range(12):
            phi = random_voxel_cfnd(rng, max_boxes=9)
            xi = rng.uniform(0.2, 1.0, size=2) * (1 if case % 2 else -1)
            t = float(rng.uniform(-6.0, 6.0))
            want, size = piece_sum(phi, xi, t)
            assert abs(recover_pushforward(phi, xi, t) - want) <= 1e-12 * size

    def test_step_halving_is_stable(self):
        base = recover_pushforward(UNIT_HO, DIAG, 0.5)
        fine = recover_pushforward(
            UNIT_HO, DIAG, 0.5, RecoveryParams(A=500.0, ds=0.005, delta=1e-3)
        )
        assert abs(base - fine) < 0.05

    def test_requires_cone_constructible(self):
        closed = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1], [1, 1]])
        with pytest.raises(NotConeConstructible):
            recover_pushforward(closed, DIAG, 0.5)

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            recover_pushforward(UNIT_HO, [0.0, 0.0], 0.5)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RecoveryParams(A=1.0, ds=2.0)

    @pytest.mark.parametrize("field", ["A", "ds", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            RecoveryParams(**{field: value})


class TestSupportCheck:
    def test_mixed_directions_vanish(self):
        assert radon_support_check(UNIT_HO, [1.0, -1.0])
        assert radon_support_check(UNIT_HO, [-2.0, 3.0])

    def test_polar_directions_vacuous(self):
        assert radon_support_check(UNIT_HO, [1.0, 1.0])
        assert radon_support_check(UNIT_HO, [-1.0, -1.0])

    def test_randomized_voxel_scenes(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            phi = random_voxel_cfnd(rng)
            sign = rng.choice([-1.0, 1.0])
            xi = np.array([sign, -sign]) * rng.integers(1, 4, size=2)
            assert radon_support_check(phi, xi)


class TestChiVanishing:
    def test_unit_cell(self):
        assert chi_vanishing_check(UNIT_HO)

    def test_randomized_voxel_scenes(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            assert chi_vanishing_check(random_voxel_cfnd(rng))

    def test_non_constructible_rejected(self):
        closed = CFND.from_polytope_points([[0, 0], [1, 0], [0, 1], [1, 1]])
        with pytest.raises(NotConeConstructible):
            chi_vanishing_check(closed)

"""Beam-splitter photon noise: analytic transfer and Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vacuumkit import (
    BeamSplitterSetup,
    DomainError,
    QuadratureState,
    difference_variance,
    fano_factor,
    make_squeezed,
    monte_carlo_difference,
)


def setup_with(var1_ratio: float, na: float = 1e6, e0: float = 1.0) -> BeamSplitterSetup:
    state = QuadratureState(var1=var1_ratio * e0**2, var2=e0**2 / var1_ratio, vacuum_scale=e0)
    return BeamSplitterSetup(mean_photon_number_a=na, port_b=state)


class TestQuadratureState:
    def test_vacuum_factory(self):
        v = QuadratureState.vacuum(2.0)
        assert v.mean1 == 0.0 and v.mean2 == 0.0
        assert v.var1 == 4.0 and v.var2 == 4.0

    def test_heisenberg_violation_rejected(self):
        with pytest.raises(DomainError):
            QuadratureState(var1=0.5, var2=0.5, vacuum_scale=1.0)

    def test_saturated_product_accepted(self):
        s = QuadratureState(var1=0.25, var2=4.0, vacuum_scale=1.0)
        assert s.var1 * s.var2 == pytest.approx(1.0, rel=1e-15)

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            QuadratureState(var1=1.0, var2=1.0, vacuum_scale=0.0)


@settings(max_examples=200, derandomize=True)
@given(
    v1=st.floats(min_value=1e-3, max_value=1e3),
    v2=st.floats(min_value=1e-3, max_value=1e3),
)
def test_heisenberg_enforced_property(v1, v2):
    if v1 * v2 < 1.0 * (1 - 1e-12):
        with pytest.raises(DomainError):
            QuadratureState(var1=v1, var2=v2, vacuum_scale=1.0)
    else:
        QuadratureState(var1=v1, var2=v2, vacuum_scale=1.0)


class TestMakeSqueezed:
    def test_unit_factor_is_vacuum(self):
        s = make_squeezed(1.0, 1.0)
        v = QuadratureState.vacuum(1.0)
        assert s.var1 == v.var1 and s.var2 == v.var2

    def test_minimum_uncertainty_saturation(self):
        s = make_squeezed(1.0, 0.5)
        assert s.var1 * s.var2 == pytest.approx(1.0, rel=1e-15)
        assert s.var1 == 0.5

    def test_bad_factor(self):
        with pytest.raises(DomainError):
            make_squeezed(1.0, 0.0)


class TestAnalyticTransfer:
    def test_vacuum_port_is_poissonian(self):
        setup = BeamSplitterSetup(1e6, QuadratureState.vacuum())
        assert difference_variance(setup) == 1e6
        assert fano_factor(setup) == 1.0

    def test_squeezed_port_sub_poissonian(self):
        setup = setup_with(0.5)
        assert difference_variance(setup) == 0.5e6
        assert fano_factor(setup) == 0.5

    def test_anti_squeezed(self):
        assert fano_factor(setup_with(2.0)) == 2.0

    def test_quarter_squeezed(self):
        assert fano_factor(setup_with(0.25)) == 0.25

    def test_unit_transfer(self):
        setup = BeamSplitterSetup(1e6, QuadratureState(var1=1.0, var2=1.0, vacuum_scale=1.0))
        assert difference_variance(setup) == 1e6

    def test_linearity_in_both_arguments(self):
        base = difference_variance(setup_with(0.7, na=1e5))
        assert difference_variance(setup_with(0.7, na=3e5)) == pytest.approx(3 * base, rel=1e-14)
        assert difference_variance(setup_with(1.4, na=1e5)) == pytest.approx(2 * base, rel=1e-14)

    def test_scale_invariance(self):
        assert fano_factor(setup_with(0.5, e0=3.7)) == pytest.approx(0.5, rel=1e-14)

    def test_bad_photon_number(self):
        with pytest.raises(DomainError):
            BeamSplitterSetup(0.0, QuadratureState.vacuum())

    def test_linear_regime_flag(self):
        assert BeamSplitterSetup(1e6, QuadratureState.vacuum()).linearized_ok
        assert not BeamSplitterSetup(10.0, QuadratureState.vacuum()).linearized_ok


class TestMonteCarlo:
    BOUND = 3.0 * math.sqrt(2.0 / 1e5)  # variance-of-variance band for 1e5 draws

    def test_vacuum_port(self):
        mc = monte_carlo_difference(BeamSplitterSetup(1e6, QuadratureState.vacuum()), 100_000, 12345)
        assert abs(mc.fano - 1.0) < self.BOUND
        assert abs(mc.mean) < 3.0 * math.sqrt(1e6 / 1e5)

    def test_squeezed_port(self):
        mc = monte_carlo_difference(setup_with(0.5), 100_000, 12345)
        assert abs(mc.fano - 0.5) < self.BOUND

    def test_seeded_determinism(self):
        setup = setup_with(0.5)
        a = monte_carlo_difference(setup, 50_000, 999)
        b = monte_carlo_difference(setup, 50_000, 999)
        assert a == b

    def test_different_seeds_differ(self):
        setup = setup_with(0.5)
        assert monte_carlo_difference(setup, 10_000, 1).variance != monte_carlo_difference(
            setup, 10_000, 2
        ).variance

    def test_unbiased_over_seeds(self):
        setup = BeamSplitterSetup(1e6, QuadratureState.vacuum())
        fanos = [monte_carlo_difference(setup, 20_000, seed).fano for seed in range(25)]
        assert abs(float(np.mean(fanos)) - 1.0) < 1e-2

    def test_trials_floor(self):
        with pytest.raises(DomainError):
            monte_carlo_difference(setup_with(1.0), 999, 1)
        # numpy integers are accepted, as by the float checks
        assert monte_carlo_difference(setup_with(1.0), np.int64(2000), 1).trials == 2000

    @pytest.mark.parametrize("trials", [10_000_001, 10**10])
    def test_trials_cap_checked_before_sampling(self, monkeypatch, trials):
        def no_sampling(seed):
            raise AssertionError("a generator was made before the trials check")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        with pytest.raises(DomainError, match="trials"):
            monte_carlo_difference(setup_with(1.0), trials, 1)

    def test_seed_required_to_be_int(self):
        for seed in ("abc", True, -1):
            with pytest.raises(DomainError, match="seed"):
                monte_carlo_difference(setup_with(1.0), 10_000, seed)

"""Casimir inertia, motional susceptibilities, and time-domain forces."""

import math

import numpy as np
import pytest

from vacuumkit import (
    DomainError,
    ThermalState,
    Trajectory,
    casimir_inertia_mass,
    finite_difference_weights,
    ideal_energy,
    motional_force_time_domain,
    thermal_friction_force,
    thermal_susceptibility,
    vacuum_susceptibility,
)
from vacuumkit import motional
from vacuumkit.constants import C, HBAR

VACUUM_COEF = HBAR / (60.0 * math.pi**2 * C**4)
THERMAL_COEF = HBAR / (240.0 * math.pi**2 * C**4)


class TestInertia:
    def test_reference_value(self):
        # oracle: (E - F L)/c^2 = -2 E / c^2 evaluated directly
        assert casimir_inertia_mass(1e-6, 1e-4) == pytest.approx(-9.643900090604983e-31, rel=1e-12)

    def test_identity_with_energy(self):
        for L, A in ((1e-6, 1e-4), (3e-7, 2.5e-5), (1e-5, 1.0)):
            mu = casimir_inertia_mass(L, A)
            assert mu < 0.0
            assert mu * C**2 == pytest.approx(-2.0 * ideal_energy(L, A), rel=1e-13)

    def test_cubic_scaling(self):
        assert casimir_inertia_mass(2e-6, 1e-4) == pytest.approx(
            casimir_inertia_mass(1e-6, 1e-4) / 8.0, rel=1e-13
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            casimir_inertia_mass(0.0, 1.0)


class TestSusceptibilities:
    def test_thermal_reference_value(self):
        # oracle: hbar theta^4 / (240 pi^2 c^4) at theta(300 K)
        chi, _ = thermal_susceptibility(1.0, 1.0, ThermalState(300.0))
        assert chi.value.real == 0.0
        assert chi.value.imag == pytest.approx(2.044162146331074e-14, rel=1e-12)

    def test_thermal_vanishes_at_zero_temperature(self):
        chi, _ = thermal_susceptibility(1e6, 1.0, ThermalState(0.0))
        assert chi.value == 0.0

    def test_thermal_linearity_exact(self):
        state = ThermalState(300.0)
        chi1, _ = thermal_susceptibility(1.7e5, 2.0, state)
        chi2, _ = thermal_susceptibility(3.4e5, 2.0, state)
        assert chi2.value / chi1.value == 2.0

    def test_vacuum_reference_value_and_flag(self):
        chi, validity = vacuum_susceptibility(1e9, 1e-4)
        assert chi.value.imag == pytest.approx(2.204663709477543e-30, rel=1e-12)
        # c^2/Omega^2 = 0.09 m^2 dwarfs A = 1 cm^2: advisory flag fails,
        # value is still returned
        assert not validity.area_ok
        assert "A_not_much_larger_than_c2_over_Omega2" in validity.warnings()

    def test_vacuum_fifth_power_exact(self):
        chi1, _ = vacuum_susceptibility(2.3e8, 1.0)
        chi2, _ = vacuum_susceptibility(4.6e8, 1.0)
        assert chi2.value / chi1.value == 32.0

    def test_vacuum_small_frequency_limit(self):
        chi, _ = vacuum_susceptibility(1e-3, 1.0)
        assert abs(chi.value) < 1e-85

    def test_dimensional_bridge(self):
        # feeding the motion frequency into the theta^4 slot reproduces the
        # vacuum law up to the 240/60 = 4 coefficient ratio
        omega = 3.7e8
        state = ThermalState.from_frequency(omega)
        chi_th, _ = thermal_susceptibility(omega, 2.0, state)
        chi_vac, _ = vacuum_susceptibility(omega, 2.0)
        assert chi_vac.value == pytest.approx(4.0 * chi_th.value, rel=1e-12)

    def test_area_flag_passes_for_large_plate(self):
        _, validity = vacuum_susceptibility(1e9, 10.0)
        assert validity.area_ok

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            vacuum_susceptibility(0.0, 1.0)
        with pytest.raises(DomainError):
            thermal_susceptibility(1.0, -1.0, ThermalState(300.0))


class TestStencils:
    def test_first_derivative_weights(self):
        w = finite_difference_weights(1, range(-5, 6))
        expected = np.array(
            [-1 / 1260, 5 / 504, -5 / 84, 5 / 21, -5 / 6, 0, 5 / 6, -5 / 21, 5 / 84, -5 / 504, 1 / 1260]
        )
        np.testing.assert_allclose(w, expected, rtol=1e-15, atol=1e-18)

    def test_fifth_derivative_weights(self):
        w = finite_difference_weights(5, range(-5, 6))
        expected = np.array(
            [-13 / 288, 19 / 36, -87 / 32, 13 / 2, -323 / 48, 0, 323 / 48, -13 / 2, 87 / 32, -19 / 36, 13 / 288]
        )
        np.testing.assert_allclose(w, expected, rtol=1e-15, atol=1e-18)

    @pytest.mark.parametrize("derivative,name", [(1, "FIRST_DERIVATIVE_STENCIL"), (5, "FIFTH_DERIVATIVE_STENCIL")])
    def test_stored_stencils_equal_the_exact_solve(self, derivative, name):
        # the module stores its stencils as literals; the exact solve must give the same bits
        stored = getattr(motional, name)
        solved = finite_difference_weights(derivative, motional.STENCIL_OFFSETS)
        np.testing.assert_array_equal(solved.view(np.int64), stored.view(np.int64))

    @pytest.mark.parametrize("power,expected", [(5, math.factorial(5)), (6, 0.0)])
    def test_monomial_t5_t6_at_origin(self, power, expected):
        # exactness on t^5 and t^6: the stencil reproduces d^5/dt^5 at t = 0
        w = finite_difference_weights(5, range(-5, 6))
        offsets = np.arange(-5, 6, dtype=float)
        value = float(w @ offsets**power)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_monomial_t6_interior(self):
        # q = t^6 has fifth derivative 720 t; check on a shifted grid point
        w = finite_difference_weights(5, range(-5, 6))
        dt = 0.1
        t0 = 2.3
        samples = (t0 + dt * np.arange(-5, 6)) ** 6
        value = float(w @ samples) / dt**5
        assert value == pytest.approx(720.0 * t0, rel=1e-9)


class TestTrajectory:
    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(np.zeros(10), 1e-3)

    def test_bad_dt_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(np.zeros(20), 0.0)

    def test_from_file_round_trip(self, tmp_path):
        t = 1e-3 * np.arange(51)
        q = np.sin(t)
        path = tmp_path / "traj.txt"
        np.savetxt(path, np.column_stack([t, q]))
        traj = Trajectory.from_file(str(path))
        assert traj.dt == pytest.approx(1e-3, rel=1e-9)
        np.testing.assert_allclose(traj.positions, q, rtol=1e-12)

    def test_from_file_nonuniform_rejected(self, tmp_path):
        t = np.array([0.0, 1.0, 2.0, 3.1, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        path = tmp_path / "traj.txt"
        np.savetxt(path, np.column_stack([t, np.zeros_like(t)]))
        with pytest.raises(DomainError):
            Trajectory.from_file(str(path))

    def test_from_file_non_finite_time_rejected(self, tmp_path):
        # NaN fails every comparison of the uniform-step check
        t = 1e-3 * np.arange(20)
        t[7] = np.nan
        path = tmp_path / "traj.txt"
        np.savetxt(path, np.column_stack([t, np.zeros_like(t)]))
        with pytest.raises(DomainError, match=r"traj\.txt: time column must be finite"):
            Trajectory.from_file(str(path))

    def test_from_file_non_finite_position_names_file(self, tmp_path):
        t = 1e-3 * np.arange(20)
        q = np.zeros_like(t)
        q[3] = np.nan
        path = tmp_path / "traj.txt"
        np.savetxt(path, np.column_stack([t, q]))
        with pytest.raises(DomainError, match=r"traj\.txt: position column must be finite"):
            Trajectory.from_file(str(path))

    def test_positions_read_only(self):
        traj = Trajectory(np.zeros(11), 1e-3)
        with pytest.raises(ValueError):
            traj.positions[0] = 1.0


def polynomial_force_scale(q, dt, A):
    """Reference force scale: sinusoid of amplitude max|q| at Omega = 1/dt."""
    return VACUUM_COEF * A * np.max(np.abs(q)) / dt**5


class TestVacuumReactionForce:
    A = 1e-4

    def test_uniform_velocity_zero(self):
        dt = 1e-3
        q = 3.0 * dt * np.arange(2001)
        tf = motional_force_time_domain(Trajectory(q, dt), self.A)
        assert np.max(np.abs(tf.interior)) < 1e-12 * polynomial_force_scale(q, dt, self.A)

    def test_uniform_acceleration_zero(self):
        dt = 1e-3
        t = dt * np.arange(2001)
        q = 0.5 * 9.81 * t**2
        tf = motional_force_time_domain(Trajectory(q, dt), self.A)
        assert np.max(np.abs(tf.interior)) < 1e-12 * polynomial_force_scale(q, dt, self.A)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_polynomial_annihilation(self, degree):
        rng = np.random.default_rng(20260808 + degree)
        dt = 1e-3
        t = dt * np.arange(2001)
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        q = np.polynomial.polynomial.polyval(t, coeffs)
        tf = motional_force_time_domain(Trajectory(q, dt), self.A)
        assert np.max(np.abs(tf.interior)) < 1e-12 * polynomial_force_scale(q, dt, self.A)

    def test_degree_five_not_annihilated(self):
        dt = 1e-3
        t = dt * np.arange(2001)
        q = t**5
        tf = motional_force_time_domain(Trajectory(q, dt), self.A)
        expected = -VACUUM_COEF * self.A * math.factorial(5)
        interior_t = t[tf.valid]
        assert tf.force[tf.valid][len(interior_t) // 2] == pytest.approx(expected, rel=1e-10)

    def test_boundary_flagging(self):
        tf = motional_force_time_domain(Trajectory(np.zeros(21), 1e-3), self.A)
        assert not tf.valid[:5].any() and not tf.valid[-5:].any()
        assert tf.valid[5:-5].all()
        assert np.isnan(tf.force[0]) and np.isnan(tf.force[-1])

    @pytest.mark.parametrize("omega_dt", [0.01, 0.02, 0.05])
    def test_sinusoid_matches_susceptibility(self, omega_dt):
        omega = 1e6
        dt = omega_dt / omega
        n = 20001
        t = dt * np.arange(n)
        q0 = 1e-9
        traj = Trajectory(q0 * np.sin(omega * t), dt)
        tf = motional_force_time_domain(traj, self.A)

        # least-squares amplitude at the known frequency; averages the
        # cancellation noise of the fifth difference over the samples
        ti = t[tf.valid]
        design = np.column_stack([np.sin(omega * ti), np.cos(omega * ti)])
        coef, *_ = np.linalg.lstsq(design, tf.interior, rcond=None)
        amplitude = float(np.hypot(*coef))

        chi, _ = vacuum_susceptibility(omega, self.A)
        predicted = abs(chi.value) * q0
        rel = abs(amplitude - predicted) / predicted
        if omega_dt == 0.01:
            assert rel < 1e-6
        # second-order (or better) error envelope across the grid
        assert rel < omega_dt**2 / 10.0

    def test_area_domain_error(self):
        with pytest.raises(DomainError):
            motional_force_time_domain(Trajectory(np.zeros(11), 1e-3), 0.0)


class TestThermalFrictionForce:
    def test_static_mirror(self):
        tf = thermal_friction_force(Trajectory(np.full(31, 2e-9), 1e-3), 1.0, ThermalState(300.0))
        assert np.max(np.abs(tf.interior)) == 0.0

    def test_zero_temperature(self):
        t = 1e-3 * np.arange(31)
        tf = thermal_friction_force(Trajectory(np.sin(t), 1e-3), 1.0, ThermalState(0.0))
        assert np.max(np.abs(tf.interior)) == 0.0

    def test_uniform_velocity_constant_force(self):
        # printed law: F = +(hbar A / 240 pi^2 c^4) theta^4 v
        v = 2.0
        dt = 1e-3
        q = v * dt * np.arange(101)
        state = ThermalState(300.0)
        tf = thermal_friction_force(Trajectory(q, dt), 1.0, state)
        theta = state.temperature_frequency
        expected = THERMAL_COEF * theta**4 * v
        np.testing.assert_allclose(tf.interior, expected, rtol=1e-10)

    def test_sign_matches_printed_law(self):
        # positive velocity gives positive force with these conventions
        q = 1e-9 * np.arange(31)
        tf = thermal_friction_force(Trajectory(q, 1e-3), 1.0, ThermalState(300.0))
        assert np.all(tf.interior > 0.0)

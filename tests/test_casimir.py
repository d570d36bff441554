"""Casimir engine: closed forms, imaginary-axis quadrature, Matsubara
sums, correction sweeps, and the sphere-plane mapping."""

import dataclasses
import math
import re
import time
import warnings

import numpy as np
import pytest

from vacuumkit import (
    BeamSplitterSetup,
    CavityConfig,
    CavityReflection,
    ConvergenceError,
    DomainError,
    PerfectMirror,
    PlasmaMirror,
    QuadratureState,
    SpherePlaneConfig,
    ThermalState,
    Trajectory,
    energy_density,
    eta_sweep,
    ideal_energy,
    ideal_energy_per_area,
    ideal_force,
    make_squeezed,
    mean_photon_number,
    motional_force_time_domain,
    real_mirror_energy,
    real_mirror_force,
    sphere_plane_force,
    thermal_energy,
    thermal_force,
    thermal_friction_force,
    thermal_susceptibility,
    vacuum_susceptibility,
)
from vacuumkit import casimir
from vacuumkit.casimir import FLAG_FEW_MATSUBARA, FLAG_PLANE_LIMIT, FLAG_PROXIMITY
from vacuumkit.constants import C, HBAR, K_B
from vacuumkit.quadrature import adaptive_gauss_legendre

GOLD = PlasmaMirror.from_wavelength(136e-9)
PERFECT = PerfectMirror()
A_CM2 = 1e-4  # 1 cm^2 in m^2

# regression values frozen from the first converged runs of this engine
ETA_E_GOLD_01UM = 0.52853569
ETA_E_GOLD_10UM = 0.99140900
ETA_T_PERFECT_1UM_300K = 1.00157119
ETA_E_THERMAL_1UM_300K = 1.02666989


def cavity(L, T, mirror, A=A_CM2):
    return CavityConfig.symmetric(L, A, T, mirror)


WARM = ThermalState(300.0)
STILL = Trajectory(np.zeros(11), 1e-3)

# every scalar input behind the shared finite-and-positive check, as a call
# of the value under test, with a valid value and the field that stores it
SCALAR_INPUTS = [
    ("ideal_force L", lambda v: ideal_force(v, 1.0), 1e-6, None),
    ("CavityConfig temperature", lambda v: cavity(1e-6, v, PERFECT), 300.0, "temperature"),
    ("SpherePlaneConfig temperature",
     lambda v: SpherePlaneConfig(R=1e-4, L=1e-6, temperature=v, mirrors=CavityReflection(PERFECT, PERFECT)),
     300.0, "temperature"),
    ("ThermalState", ThermalState, 300.0, "temperature"),
    ("ThermalState.from_frequency", ThermalState.from_frequency, 1e13, None),
    ("omega", lambda v: mean_photon_number(v, WARM), 1e13, None),
    ("omega_max", lambda v: energy_density(v, WARM), 1e15, None),
    ("Trajectory dt", lambda v: Trajectory(np.zeros(11), v), 1e-3, "dt"),
    ("vacuum Omega", lambda v: vacuum_susceptibility(v, 1.0), 1e9, None),
    ("thermal A", lambda v: thermal_susceptibility(1e9, v, WARM), 1.0, None),
    ("motional A", lambda v: motional_force_time_domain(STILL, v), 1.0, None),
    ("friction A", lambda v: thermal_friction_force(STILL, v, WARM), 1.0, None),
    ("QuadratureState var1", lambda v: QuadratureState(var1=v, var2=1.0), 1.0, "var1"),
    ("squeeze factor", lambda v: make_squeezed(1.0, v), 0.5, None),
    ("mean photon number", lambda v: BeamSplitterSetup(v, QuadratureState.vacuum()), 1e6,
     "mean_photon_number_a"),
    ("plasma frequency", PlasmaMirror, 1e16, "plasma_frequency"),
    ("plasma wavelength", PlasmaMirror.from_wavelength, 136e-9, None),
    ("eta_sweep temperature", lambda v: eta_sweep(1e-6, 2e-6, 2, PERFECT, v), 0.0, None),
]


def raises_domain_error(call, value):
    try:
        call(value)
    except DomainError:
        return True
    return False


def lambert_perfect_per_area(L, T):
    """(E/A, F/A) of perfect mirrors at T > 0: the Matsubara terms
    2[u_n Li2(e^-u_n) + Li3(e^-u_n)] summed over n as one Lambert series in
    x_m = exp(-m du), with F/A = -d(E/A)/dL."""
    du = 4.0 * math.pi * K_B * T * L / (HBAR * C)
    m = np.arange(1.0, math.ceil(60.0 / du) + 2.0)
    x = np.exp(-m * du)
    one_minus = -np.expm1(-m * du)
    zeta3 = 1.2020569031595942
    s = 0.5 * zeta3 + np.sum(x / (one_minus * m**3)) + du * np.sum(x / (one_minus**2 * m**2))
    f_extra = du * du * np.sum(x * (1.0 + x) / (one_minus**3 * m))
    e_per_area = K_B * T / (8.0 * math.pi * L**2) * 2.0 * s
    f_per_area = K_B * T / (4.0 * math.pi * L**3) * (2.0 * s + f_extra)
    return float(e_per_area), float(f_per_area)


def mpmath_perfect_per_area(L, T):
    """(E/A, F/A) of perfect mirrors at T > 0 from the Matsubara terms
    2[u_n Li2 + Li3] and 2[u_n^2 Li1 + 2 u_n Li2 + 2 Li3] at exp(-u_n),
    summed one by one with mpmath polylogarithms at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        L, T = mpmath.mpf(L), mpmath.mpf(T)
        du = 4 * mpmath.pi * mpmath.mpf(K_B) * T * L / (mpmath.mpf(HBAR) * mpmath.mpf(C))
        s_e, s_f = mpmath.zeta(3), 2 * mpmath.zeta(3)  # n = 0: 2 zeta(3) and 4 zeta(3) at half weight
        n = 1
        while n * du < 90:  # exp(-90) < 1e-39
            u = n * du
            x = mpmath.exp(-u)
            li1, li2, li3 = -mpmath.log1p(-x), mpmath.polylog(2, x), mpmath.polylog(3, x)
            s_e += 2 * (u * li2 + li3)
            s_f += 2 * (u * u * li1 + 2 * u * li2 + 2 * li3)
            n += 1
        prefactor = mpmath.mpf(K_B) * T / (8 * mpmath.pi)
        return prefactor * s_e / L**2, prefactor * s_f / L**3


def zero_t_per_phi_loop(cavity_reflection, L):
    """(E/A, F/A) at T = 0 with one u-quadrature per phi node: the loop the
    batched solve replaced, kept as its reference."""

    def outer_integrand(phis):
        rows = np.empty((phis.size, 2))
        for i, phi in enumerate(phis):

            def inner(u):
                xi = (0.5 * C / L) * math.cos(phi) * u
                k = (0.5 / L) * math.sin(phi) * u
                g_e, g_f = casimir._kernels(cavity_reflection.amplitude_imaginary(xi, k), u)
                return np.stack([u * u * g_e, u**3 * g_f], axis=-1)

            res = adaptive_gauss_legendre(inner, 0.0, 80.0, rel_tol=1e-10)
            assert res.converged
            rows[i] = math.sin(phi) * res.value
        return rows

    outer = adaptive_gauss_legendre(outer_integrand, 0.0, 0.5 * math.pi, rel_tol=3e-9)
    assert outer.converged
    prefactor = HBAR * C / (32.0 * math.pi**2)
    return prefactor * outer.value[0] / L**3, prefactor * outer.value[1] / L**4


def matsubara_per_term_loop(cavity_reflection, L, T):
    """(E/A, F/A, relative error) at T > 0 with one u-quadrature per
    Matsubara term and a geometric tail estimate: the loop the blocked sum
    replaced, kept as its reference."""
    theta = ThermalState(T).temperature_frequency
    du = 2.0 * theta * L / C
    totals, quad_err, mags = np.zeros(2), np.zeros(2), []
    for n in range(200_000):
        u_n = n * du

        def integrand(u, n=n, u_n=u_n):
            if n == 0:
                k = (0.5 / L) * u
                amplitudes = cavity_reflection.amplitude_static(k)
            else:
                k = (0.5 / L) * np.sqrt(np.maximum(u * u - u_n * u_n, 0.0))
                amplitudes = cavity_reflection.amplitude_imaginary(n * theta, k)
            g_e, g_f = casimir._kernels(amplitudes, u)
            return np.stack([u * g_e, u * u * g_f], axis=-1)

        res = adaptive_gauss_legendre(integrand, u_n, u_n + 80.0, rel_tol=1e-10)
        assert res.converged
        weight = 0.5 if n == 0 else 1.0
        totals += weight * res.value
        quad_err += weight * res.error
        mags.append(float(np.max(weight * np.abs(res.value))))
        last_rel = mags[-1] / float(np.max(totals))
        if n >= 19 and last_rel < 1e-10:
            ratio = min(max(math.exp(-du), mags[-1] / mags[-2]), 0.999)
            tail_rel = last_rel * ratio / (1.0 - ratio)
            if tail_rel < 1e-10:
                break
        if (n + 1) * du > 80.0:
            tail_rel = 0.0
            break
    prefactor = K_B * T / (8.0 * math.pi)
    rel_err = float(np.max(quad_err / totals)) + tail_rel
    return prefactor * totals[0] / L**2, prefactor * totals[1] / L**3, rel_err


def plasma_zero_t_dblquad(L, plasma_wavelength):
    """(E/A, F/A) at T = 0 for two identical plasma mirrors by QUADPACK, in
    the rectangular variables x = u cos(phi), y = u sin(phi), with the
    Fresnel amplitudes written out here."""
    scipy_integrate = pytest.importorskip("scipy.integrate")
    kp2 = (4.0 * math.pi * L / plasma_wavelength) ** 2  # (2 L omega_p / c)^2

    def loop_amplitudes(x, y):
        u = math.hypot(x, y)
        km = math.sqrt(u * u + kp2)
        r_te = (u - km) / (u + km)
        eps_u = (1.0 + kp2 / (x * x)) * u
        r_tm = (eps_u - km) / (eps_u + km)
        emu = math.exp(-u)
        return u, r_te * r_te * emu, r_tm * r_tm * emu

    def energy_kernel(y, x):
        _, a, b = loop_amplitudes(x, y)
        return -y * (math.log1p(-a) + math.log1p(-b))

    def force_kernel(y, x):
        u, a, b = loop_amplitudes(x, y)
        return y * u * (a / (1.0 - a) + b / (1.0 - b))

    prefactor = HBAR * C / (32.0 * math.pi**2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy_integrate.IntegrationWarning)
        j_e, _ = scipy_integrate.dblquad(energy_kernel, 1e-12, 80.0, 0.0, 80.0, epsabs=0.0, epsrel=1e-11)
        j_f, _ = scipy_integrate.dblquad(force_kernel, 1e-12, 80.0, 0.0, 80.0, epsabs=0.0, epsrel=1e-11)
    return prefactor * j_e / L**3, prefactor * j_f / L**4


class TestIdealClosedForms:
    def test_reference_values(self):
        # oracle: direct evaluation of the two closed forms at L = 1 um, A = 1 cm^2
        assert ideal_force(1e-6, A_CM2) == pytest.approx(1.3001257724477538e-07, rel=1e-12)
        assert ideal_energy(1e-6, A_CM2) == pytest.approx(4.333752574825846e-14, rel=1e-12)

    def test_energy_force_relation(self):
        for L in (1e-7, 1e-6, 1e-5):
            assert ideal_energy(L, A_CM2) == pytest.approx(ideal_force(L, A_CM2) * L / 3.0, rel=1e-14)

    def test_inverse_quartic_scaling(self):
        assert ideal_force(2e-6, A_CM2) == pytest.approx(ideal_force(1e-6, A_CM2) / 16.0, rel=1e-14)

    def test_linear_in_area(self):
        assert ideal_force(1e-6, 2 * A_CM2) == pytest.approx(2 * ideal_force(1e-6, A_CM2), rel=1e-15)

    def test_bool_rejected(self):
        with pytest.raises(DomainError):
            ideal_force(True, 1.0)
        accepted = [name for name, call, _, _ in SCALAR_INPUTS if not raises_domain_error(call, True)]
        assert accepted == []

    def test_numpy_real_scalar_accepted(self):
        L = np.float32(1e-6)
        assert ideal_force(L, A_CM2) == ideal_force(float(L), A_CM2)
        assert type(cavity(L, 0.0, GOLD).L) is float
        for name, call, valid, field in SCALAR_INPUTS:
            result = call(np.float32(valid))
            if field is not None:
                assert type(getattr(result, field)) is float, name

    @pytest.mark.parametrize("L,A", [(0.0, 1.0), (-1e-6, 1.0), (1e-6, 0.0), (math.nan, 1.0)])
    def test_domain_errors(self, L, A):
        with pytest.raises(DomainError):
            ideal_force(L, A)

    def test_underflowing_power_of_L_is_a_domain_error(self):
        # L**4 underflows to 0 below about 1e-81 m, L**3 below about 1e-108 m
        with pytest.raises(DomainError, match="L=1e-90"):
            ideal_force(1e-90, A_CM2)
        assert ideal_energy(1e-90, A_CM2) > 0.0
        with pytest.raises(DomainError, match="L=1e-120"):
            ideal_energy(1e-120, A_CM2)
        with pytest.raises(DomainError, match="L=1e-300"):
            eta_sweep(1e-300, 1e-299, 2, PerfectMirror(), 0.0)

    def test_overflowing_power_of_L_is_a_domain_error(self):
        # L**4 overflows above about 1e77 m, L**3 above 5.6e102 m, L**2 above 1.3e154 m
        with pytest.raises(DomainError, match=r"L=1e\+80 m is too large: L\*\*4"):
            ideal_force(1e80, A_CM2)
        assert ideal_energy(1e80, A_CM2) > 0.0
        with pytest.raises(DomainError, match=r"L=1e\+120 m is too large: L\*\*3"):
            ideal_energy(1e120, A_CM2)
        with pytest.raises(DomainError, match=r"L=1e\+200 m is too large: L\*\*2"):
            cavity(1e200, 0.0, PERFECT).plane_limit_ok
        # below the overflow the closed forms themselves underflow to 0
        with pytest.raises(DomainError, match=r"L=1e\+76 m is too large: the closed form underflows"):
            ideal_force(1e76, A_CM2)
        with pytest.raises(DomainError, match=r"L=1e\+100 m is too large: the closed form underflows"):
            ideal_energy(1e100, A_CM2)
        # the quadrature paths check L before they start
        with pytest.raises(DomainError, match=r"L=1e\+100 m is too large"):
            real_mirror_force(cavity(1e100, 0.0, GOLD))
        with pytest.raises(DomainError, match=r"L=1e\+100 m is too large"):
            thermal_force(cavity(1e100, 300.0, GOLD))


class TestPerfectMirrorPath:
    def test_closed_form_result(self):
        res = real_mirror_force(cavity(1e-6, 0.0, PERFECT))
        assert res.force == ideal_force(1e-6, A_CM2)
        assert res.energy == ideal_energy(1e-6, A_CM2)
        assert res.eta_E == 1.0 and res.eta_F == 1.0
        assert res.numerical_error == 0.0

    def test_plane_limit_flag(self):
        small = CavityConfig.symmetric(1e-6, 1e-11, 0.0, PERFECT)  # A barely above L^2
        assert FLAG_PLANE_LIMIT in real_mirror_force(small).flags
        assert FLAG_PLANE_LIMIT not in real_mirror_force(cavity(1e-6, 0.0, PERFECT)).flags

    def test_temperature_must_be_zero(self):
        with pytest.raises(DomainError):
            real_mirror_force(cavity(1e-6, 300.0, PERFECT))
        with pytest.raises(DomainError):
            real_mirror_energy(cavity(1e-6, 300.0, GOLD))


class TestPerfectLimitConsistency:
    def test_quadrature_agrees_with_closed_form(self):
        # nearly perfect plasma mirror: closed form and quadrature within 1e-6
        mirror = PlasmaMirror.from_wavelength(5e-13)
        res = real_mirror_force(cavity(1e-6, 0.0, mirror))
        assert res.eta_F == pytest.approx(1.0, rel=1e-6)
        assert res.eta_E == pytest.approx(1.0, rel=1e-6)

    def test_deviation_monotone_in_plasma_wavelength(self):
        devs = []
        for lam in (10e-9, 1e-9, 0.1e-9):
            res = real_mirror_force(cavity(1e-6, 0.0, PlasmaMirror.from_wavelength(lam)))
            devs.append(abs(res.eta_F - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_leading_conductivity_correction(self):
        # known asymptotics: eta_F ~ 1 - (16/3) (c / omega_p L) at large L/lambda_p
        mirror = PlasmaMirror.from_wavelength(1e-9)
        res = real_mirror_force(cavity(1e-6, 0.0, mirror))
        predicted = (16.0 / 3.0) * C / (mirror.plasma_frequency * 1e-6)
        assert 1.0 - res.eta_F == pytest.approx(predicted, rel=2e-2)


class TestGoldRegression:
    def test_short_distance(self):
        res = real_mirror_energy(cavity(0.1e-6, 0.0, GOLD))
        assert res.eta_E < 0.9
        assert res.eta_E == pytest.approx(ETA_E_GOLD_01UM, rel=1e-6)

    def test_long_distance(self):
        res = real_mirror_energy(cavity(10e-6, 0.0, GOLD))
        assert res.eta_E > 0.99
        assert res.eta_E == pytest.approx(ETA_E_GOLD_10UM, rel=1e-6)

    def test_eta_monotone_in_distance_and_in_unit_interval(self):
        etas = [
            real_mirror_energy(cavity(float(L), 0.0, GOLD)).eta_E
            for L in np.geomspace(0.1e-6, 10e-6, 6)
        ]
        assert all(0.0 < e <= 1.0 for e in etas)
        assert all(b > a for a, b in zip(etas, etas[1:]))

    def test_error_estimate_reported(self):
        res = real_mirror_energy(cavity(1e-6, 0.0, GOLD))
        assert 0.0 < res.numerical_error < 1e-8


class TestScipyCrossValidation:
    def test_energy_against_dblquad(self):
        # independent route: QUADPACK on the rectangular (x, y) form of the
        # same spectral integral, with the Fresnel amplitudes written inline
        scipy_integrate = pytest.importorskip("scipy.integrate")
        L = 0.5e-6
        wp = GOLD.plasma_frequency

        def kernel(y, x):
            xi = 0.5 * C * x / L
            k = 0.5 * y / L
            q2 = (xi / C) ** 2
            ka = math.sqrt(q2 + k * k)
            km = math.sqrt(q2 + (wp / C) ** 2 + k * k)
            r_te = (ka - km) / (ka + km)
            eps_ka = (1.0 + (wp / xi) ** 2) * ka
            r_tm = (eps_ka - km) / (eps_ka + km)
            emu = math.exp(-math.hypot(x, y))
            return -y * (math.log1p(-r_te * r_te * emu) + math.log1p(-r_tm * r_tm * emu))

        val, err = scipy_integrate.dblquad(kernel, 1e-12, 60.0, 1e-12, 60.0, epsabs=1e-13, epsrel=1e-10)
        e_per_area = HBAR * C / (32.0 * math.pi**2 * L**3) * val

        res = real_mirror_energy(cavity(L, 0.0, GOLD, A=1.0))
        assert res.energy == pytest.approx(e_per_area, rel=1e-6)


class TestForceEnergyConsistency:
    @pytest.mark.parametrize("L", [0.3e-6, 2e-6])
    def test_force_is_minus_energy_gradient(self, L):
        h = 1e-3 * L
        e_plus = real_mirror_energy(cavity(L + h, 0.0, GOLD)).energy
        e_minus = real_mirror_energy(cavity(L - h, 0.0, GOLD)).energy
        force = real_mirror_force(cavity(L, 0.0, GOLD)).force
        assert force == pytest.approx(-(e_plus - e_minus) / (2 * h), rel=1e-4)


class TestThermalPath:
    def test_zero_temperature_identity(self):
        cfg = cavity(1e-6, 0.0, GOLD)
        a = thermal_force(cfg)
        b = real_mirror_force(cfg)
        assert a == b

    def test_classical_limit_perfect_mirrors(self):
        # n = 0 term dominates at 50 um, 300 K; free energy -> zeta(3) k_B T / 8 pi L^2
        zeta3 = 1.2020569031595943
        L = 50e-6
        res = thermal_energy(cavity(L, 300.0, PERFECT))
        classical = A_CM2 * zeta3 * K_B * 300.0 / (8.0 * math.pi * L**2)
        assert res.energy == pytest.approx(classical, rel=1e-9)
        # classical force per area is zeta(3) k_B T / (4 pi L^3), i.e. 2 E / L
        assert res.force == pytest.approx(2.0 * classical / L, rel=1e-9)
        assert FLAG_FEW_MATSUBARA in res.flags

    def test_low_temperature_force_correction(self):
        # known asymptotics: F(T)/F(0) - 1 -> (16/3) (k_B T L / hbar c)^4
        res = thermal_force(cavity(1e-6, 300.0, PERFECT))
        predicted = 1.0 + (16.0 / 3.0) * (K_B * 300.0 * 1e-6 / (HBAR * C)) ** 4
        assert res.eta_T == pytest.approx(predicted, rel=1e-5)
        assert res.eta_T == pytest.approx(ETA_T_PERFECT_1UM_300K, rel=1e-6)
        assert res.eta_E == pytest.approx(ETA_E_THERMAL_1UM_300K, rel=1e-6)

    def test_thermal_exceeds_zero_temperature_and_monotone_in_t(self):
        L = 2e-6
        f0 = real_mirror_force(cavity(L, 0.0, PERFECT)).force
        forces = [thermal_force(cavity(L, T, PERFECT)).force for T in (150.0, 300.0, 600.0)]
        assert forces[0] > f0
        assert forces[0] < forces[1] < forces[2]

    def test_eta_t_rises_with_distance(self):
        # room-temperature enhancement grows with distance, passing 1.05
        # well before 10 um
        etas = [
            thermal_force(cavity(float(L), 300.0, PERFECT)).eta_T
            for L in np.geomspace(1e-6, 10e-6, 8)
        ]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        assert any(e > 1.05 for e in etas[:-1])

    def test_few_terms_flag_contract(self):
        warm = thermal_force(cavity(10e-6, 300.0, PERFECT))
        assert FLAG_FEW_MATSUBARA in warm.flags
        cold = thermal_force(cavity(1e-6, 300.0, PERFECT))
        assert FLAG_FEW_MATSUBARA not in cold.flags

    def test_dimensionless_group_rescaling(self):
        # eta depends only on L/lambda_p and theta L / c
        res_a = thermal_energy(cavity(1e-6, 300.0, GOLD))
        res_b = thermal_energy(
            cavity(2e-6, 150.0, PlasmaMirror.from_wavelength(272e-9))
        )
        assert res_a.eta_E == pytest.approx(res_b.eta_E, rel=1e-7)
        assert res_a.eta_F == pytest.approx(res_b.eta_F, rel=1e-7)

    def test_mixed_mirror_pair(self):
        cfg = CavityConfig(L=1e-6, A=A_CM2, temperature=0.0, mirrors=CavityReflection(GOLD, PERFECT))
        res = real_mirror_force(cfg)
        pure = real_mirror_force(cavity(1e-6, 0.0, GOLD))
        assert pure.eta_F < res.eta_F < 1.0

    def test_one_amplitude_call_per_u_quadrature_panel(self, monkeypatch):
        # each refinement step of a u-quadrature evaluates the amplitudes
        # once, on all its nodes, and nothing else evaluates them
        calls = []
        for name in ("amplitude_imaginary", "amplitude_static"):
            method = getattr(CavityReflection, name)

            def counting(self, *args, _method=method):
                calls.append(1)
                return _method(self, *args)

            monkeypatch.setattr(CavityReflection, name, counting)
        panels = []
        quadrature = casimir.adaptive_gauss_legendre

        def recording(f, a, b, **kwargs):
            res = quadrature(f, a, b, **kwargs)
            if b == casimir._U_SPAN:
                panels.append(res.panels)
            return res

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", recording)
        thermal_force(cavity(1e-6, 300.0, GOLD))
        assert len(panels) > 1
        assert len(calls) == sum(panels)

    def test_bit_identical_repeat(self):
        cfg = cavity(1e-6, 300.0, GOLD)
        a = thermal_force(cfg)
        b = thermal_force(cfg)
        assert a.force == b.force and a.energy == b.energy
        assert a.numerical_error == b.numerical_error


class TestZeroTemperatureRegime:
    LENGTHS = [10.0**e for e in range(-9, -2)]  # 1 nm ... 1 mm
    PLASMA_WAVELENGTHS = [0.1e-9, 136e-9, 1e-6]

    @pytest.mark.parametrize("plasma_wavelength", PLASMA_WAVELENGTHS)
    def test_grid_converges_within_ceiling(self, plasma_wavelength):
        mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
        for L in self.LENGTHS:
            e_per_area, f_per_area, rel_err = casimir._zero_temperature_per_area(
                CavityReflection(mirror, mirror), L
            )
            assert 0.0 < rel_err <= 1e-8, (L, rel_err)
            assert 0.0 < e_per_area < ideal_energy_per_area(L)
            assert 0.0 < f_per_area < HBAR * C * math.pi**2 / (240.0 * L**4)

    @pytest.mark.parametrize("L, plasma_wavelength", [(1e-9, 1e-6), (1e-8, 136e-9)])
    def test_against_dblquad(self, L, plasma_wavelength):
        # transparent regime, where the phi columns span many decades
        mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
        e_per_area, f_per_area, _ = casimir._zero_temperature_per_area(
            CavityReflection(mirror, mirror), L
        )
        e_ref, f_ref = plasma_zero_t_dblquad(L, plasma_wavelength)
        assert e_per_area == pytest.approx(e_ref, rel=1e-9)
        assert f_per_area == pytest.approx(f_ref, rel=1e-9)

    @pytest.mark.parametrize("L", [0.1e-6, 1e-6])
    def test_against_per_phi_loop(self, L):
        pair = CavityReflection(GOLD, GOLD)
        e_per_area, f_per_area, rel_err = casimir._zero_temperature_per_area(pair, L)
        e_ref, f_ref = zero_t_per_phi_loop(pair, L)
        assert e_per_area == pytest.approx(e_ref, rel=rel_err)
        assert f_per_area == pytest.approx(f_ref, rel=rel_err)

    @pytest.mark.parametrize("L", [0.1e-6, 1e-6])
    def test_perfect_pair_recovers_closed_forms(self, L):
        # the perfect pair's amplitudes are scalars; the quadrature must
        # still run over the full (u, phi) grid
        pair = CavityReflection(PERFECT, PERFECT)
        e_per_area, f_per_area, rel_err = casimir._zero_temperature_per_area(pair, L)
        assert e_per_area == pytest.approx(ideal_energy_per_area(L), rel=rel_err)
        assert f_per_area == pytest.approx(HBAR * C * math.pi**2 / (240.0 * L**4), rel=rel_err)

    def test_inner_failure_names_phi_and_length(self, monkeypatch):
        monkeypatch.setattr(casimir, "_INNER_REL_TOL", 1e-20)  # below the round-off floor
        with pytest.raises(ConvergenceError, match=r"phi=\d\.\d{6}.*L=1\.000e-06 m"):
            real_mirror_energy(cavity(1e-6, 0.0, GOLD))


class TestMatsubaraSum:
    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_error_bounds_perfect_pair_at_small_spacing(self, T):
        # du = 5.5e-4 and 1.1e-3: the tail runs over thousands of terms
        L = 0.1e-6
        pair = CavityReflection(PERFECT, PERFECT)
        e_per_area, f_per_area, rel_err, _ = casimir._matsubara_per_area(pair, L, T)
        e_ref, f_ref = lambert_perfect_per_area(L, T)
        assert abs(e_per_area / e_ref - 1.0) <= rel_err
        assert abs(f_per_area / f_ref - 1.0) <= rel_err

    @pytest.mark.parametrize(
        "mirror, L, T",
        [(GOLD, 1e-6, 300.0), (GOLD, 2e-6, 77.0), (PlasmaMirror.from_wavelength(1e-6), 10e-9, 300.0)],
        ids=["gold-1um-300K", "gold-2um-77K", "weak-10nm-300K"],
    )
    def test_against_per_term_loop(self, mirror, L, T):
        pair = CavityReflection(mirror, mirror)
        e_per_area, f_per_area, rel_err, _ = casimir._matsubara_per_area(pair, L, T)
        e_ref, f_ref, ref_err = matsubara_per_term_loop(pair, L, T)
        assert e_per_area == pytest.approx(e_ref, rel=rel_err + ref_err)
        assert f_per_area == pytest.approx(f_ref, rel=rel_err + ref_err)

    def test_failure_names_term_length_and_temperature(self, monkeypatch):
        monkeypatch.setattr(casimir, "_INNER_REL_TOL", 1e-20)  # below the round-off floor
        with pytest.raises(ConvergenceError, match=r"n=0 \(L=1\.000e-06 m, T=300\.0 K"):
            thermal_force(cavity(1e-6, 300.0, GOLD))

    def test_block_failure_names_its_terms(self, monkeypatch):
        # only the terms n >= 1 use the imaginary-axis amplitudes; at 1 um
        # and 300 K they end at n_max = floor(80 / du) = 48, in one block
        nan = lambda self, xi, k: (np.full(np.broadcast_shapes(np.shape(xi), np.shape(k)), np.nan),) * 2
        monkeypatch.setattr(CavityReflection, "amplitude_imaginary", nan)
        with pytest.raises(ConvergenceError, match=r"n=1, 2, 3, .*, 47, 48 \(L=1\.000e-06 m, T=300\.0 K"):
            thermal_force(cavity(1e-6, 300.0, GOLD))

    # at 1 nm and 1e-12 K the last term below the u-cut has n near 1.5e19,
    # beyond the int64 range
    @pytest.mark.parametrize("L, T, text", [(1e-6, 10.0, "L=1.000e-06 m, T=10.0 K"),
                                            (1e-9, 1e-12, "L=1.000e-09 m, T=1e-12 K")])
    def test_term_cap_raises_with_length_and_temperature(self, monkeypatch, L, T, text):
        monkeypatch.setattr(casimir, "_MATSUBARA_MAX_TERMS", 50)
        with pytest.raises(ConvergenceError, match=rf"exceeded 50 terms \({re.escape(text)}\)"):
            thermal_force(cavity(L, T, GOLD))


def mpmath_static_integrals(L, plasma_wavelength, partner_perfect):
    """(Int u G_E, Int u^2 G_F) of the n = 0 term of a plasma mirror facing
    an equal one or a perfect one, on the unsplit kernels at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        kp = 2 * mpmath.pi / mpmath.mpf(plasma_wavelength)
        L = mpmath.mpf(L)

        def kernel(u, force):
            k = u / (2 * L)
            r = (k - mpmath.sqrt(k * k + kp * kp)) / (k + mpmath.sqrt(k * k + kp * kp))
            total = 0
            for r_p in (-r if partner_perfect else r * r, 1):
                x = r_p * mpmath.exp(-u)
                total += x / (1 - x) if force else -mpmath.log1p(-x)
            return total

        points = [0, 0.01, 0.1, 1, 10, 100]  # exp(-100) < 1e-43
        return (mpmath.quad(lambda u: u * kernel(u, False), points),
                mpmath.quad(lambda u: u * u * kernel(u, True), points))


class TestStaticTerm:
    """The n = 0 term: perfect-pair parts in closed form plus a smooth
    remainder by quadrature."""

    PAIRS = [
        CavityReflection(PERFECT, PERFECT),
        CavityReflection(GOLD, GOLD),
        CavityReflection(GOLD, PERFECT),
        CavityReflection(PERFECT, GOLD),
        CavityReflection(GOLD, PlasmaMirror.from_wavelength(231e-9)),
    ]

    @pytest.mark.parametrize("k", [0.0, np.zeros(3)], ids=["scalar", "array"])
    @pytest.mark.parametrize("pair", PAIRS, ids=["perfect", "gold", "gold-perfect", "perfect-gold", "gold-other"])
    def test_every_pair_reflects_fully_at_zero_k(self, pair, k):
        # the precondition of the split: r_p(k = 0) = 1 for both polarizations
        te, tm = pair.amplitude_static(k)
        assert np.all(np.asarray(te) == 1.0) and np.all(np.asarray(tm) == 1.0)

    def test_perfect_pair_remainder_is_exactly_zero(self):
        u = np.geomspace(1e-12, 80.0, 200)
        pair = CavityReflection(PERFECT, PERFECT)
        g_e, g_f = casimir._static_remainder(pair.amplitude_static(u / 2e-6), u)
        assert np.all(g_e == 0.0) and np.all(g_f == 0.0)

    @pytest.mark.parametrize(
        "L, partner_perfect",
        [(1e-8, False), (1e-6, False), (1e-6, True)],
        ids=["gold-10nm", "gold-1um", "gold-perfect-1um"],
    )
    def test_against_mpmath_of_unsplit_kernels(self, L, partner_perfect):
        # du = 200 puts every term n >= 1 past the u-cut: the sum is its n = 0 term
        T = 200.0 * HBAR * C / (4.0 * math.pi * K_B * L)
        pair = CavityReflection(GOLD, PERFECT if partner_perfect else GOLD)
        e_per_area, f_per_area, rel_err, contributing = casimir._matsubara_per_area(pair, L, T)
        assert contributing == 1
        i_e, i_f = mpmath_static_integrals(L, 136e-9, partner_perfect)
        half_prefactor = 0.5 * K_B * T / (8.0 * math.pi)
        for value, integral, power in ((e_per_area, i_e, 2), (f_per_area, i_f, 3)):
            error = abs(value / float(half_prefactor * integral / L**power) - 1.0)
            assert error <= rel_err
            assert error <= 1e-14  # exact to round-off


class TestPerfectPairThermalPath:
    # two points on each side of the switch at t = 2 k_B T L / (hbar c) = 0.087
    @pytest.mark.parametrize("t", [0.035, 0.086, 0.089, 2.6])
    def test_matches_mpmath_polylog_sum(self, t):
        L = t * HBAR * C / (2.0 * K_B * 300.0)
        e_per_area, f_per_area, rel_err, _ = casimir._per_area(CavityReflection(PERFECT, PERFECT), L, 300.0)
        e_ref, f_ref = mpmath_perfect_per_area(L, 300.0)
        assert 0.0 < rel_err <= 1e-13
        assert abs(e_per_area / e_ref - 1) <= rel_err
        assert abs(f_per_area / f_ref - 1) <= rel_err

    # the Matsubara sum over per-term quadratures as the reference, on the
    # series (1 um and 10 um at 300 K) and on the low-T form (1 um, 10 K)
    @pytest.mark.parametrize("L, T", [(1e-6, 300.0), (10e-6, 300.0), (1e-6, 10.0)])
    def test_against_matsubara_sum(self, L, T):
        pair = CavityReflection(PERFECT, PERFECT)
        e_per_area, f_per_area, rel_err, _ = casimir._per_area(pair, L, T)
        e_ref, f_ref, ref_err, _ = casimir._matsubara_per_area(pair, L, T)
        assert e_per_area == pytest.approx(e_ref, rel=rel_err + ref_err)
        assert f_per_area == pytest.approx(f_ref, rel=rel_err + ref_err)

    def test_few_terms_flag_matches_matsubara_sum(self):
        # crosses the flag's edge (near du = 3.24) at each temperature
        pair = CavityReflection(PERFECT, PERFECT)
        for T in (300.0, 77.0, 20.0):
            for L in np.geomspace(1e-6, 40e-6, 15):
                flags = casimir._per_area(pair, float(L), T)[3]
                contributing = casimir._matsubara_per_area(pair, float(L), T)[3]
                assert (FLAG_FEW_MATSUBARA in flags) == (contributing < 10), (L, T)

    # once minutes and then ConvergenceError (0.01 K), and 1,000,000 terms
    # in 16 s and then a raise (1 nm, 3 K)
    @pytest.mark.parametrize("L, T", [(1e-6, 0.01), (1e-9, 3.0)])
    def test_low_temperature_returns_at_once(self, L, T):
        mpmath = pytest.importorskip("mpmath")
        start = time.perf_counter()
        res = thermal_force(cavity(L, T, PERFECT))
        assert time.perf_counter() - start < 1.0
        with mpmath.workdps(30):
            t = 2 * mpmath.mpf(K_B) * T * L / (mpmath.mpf(HBAR) * mpmath.mpf(C))
            eta_e = 1 + 45 * mpmath.zeta(3) / mpmath.pi**3 * t**3 - t**4
            eta_f = 1 + t**4 / 3
        assert 0.0 < res.numerical_error <= 1e-13
        assert abs(res.eta_E / eta_e - 1) <= res.numerical_error
        assert abs(res.eta_F / eta_f - 1) <= res.numerical_error
        assert FLAG_FEW_MATSUBARA not in res.flags


class TestErrorCeiling:
    @pytest.mark.parametrize(
        "mirror, T, path",
        [
            (PERFECT, 0.0, "closed form"),
            (GOLD, 0.0, "T = 0 quadrature"),
            (GOLD, 300.0, "Matsubara sum"),
            (PERFECT, 300.0, "perfect-pair series"),
            (PERFECT, 10.0, "perfect-pair low-T form"),
        ],
        ids=["closed-form", "zero-T-quadrature", "matsubara-sum", "perfect-series", "perfect-low-T"],
    )
    def test_message_names_path_length_and_temperature(self, monkeypatch, mirror, T, path):
        monkeypatch.setattr(casimir, "_ERROR_CEILING", -1.0)  # below every estimate
        context = rf"\({re.escape(path)}, L=1\.000e-06 m, T={T} K\)"
        with pytest.raises(ConvergenceError, match="above ceiling .*" + context):
            thermal_force(cavity(1e-6, T, mirror))


class TestLargeDistanceMatsubara:
    # at 300 K, u_1 lies near or past the u cut of 80 from about 24 um on
    @pytest.mark.parametrize("L", [24.79e-6, 26e-6, 40e-6])
    def test_perfect_mirrors_match_lambert_series(self, L):
        res = thermal_force(cavity(L, 300.0, PERFECT, A=1.0))
        e_ref, f_ref = lambert_perfect_per_area(L, 300.0)
        assert res.energy == pytest.approx(e_ref, rel=res.numerical_error)
        assert res.force == pytest.approx(f_ref, rel=res.numerical_error)

    @pytest.mark.parametrize("L", [26e-6, 40e-6])
    def test_gold_sphere_plane_returns(self, L):
        config = SpherePlaneConfig(R=1e-3, L=L, temperature=300.0, mirrors=CavityReflection(GOLD, GOLD))
        res = sphere_plane_force(config)
        perfect = thermal_energy(cavity(L, 300.0, PERFECT, A=1.0))
        assert 0.0 < res.plane_energy_per_area < perfect.energy
        assert 0.0 < res.numerical_error <= 1e-8


class TestEtaSweep:
    def test_perfect_zero_temperature_all_unity(self):
        sweep = eta_sweep(0.5e-6, 5e-6, 4, PERFECT, 0.0)
        assert np.all(sweep.eta_plasma == 1.0)
        assert np.all(sweep.eta_thermal == 1.0)
        assert np.all(sweep.eta_full == 1.0)
        assert np.all(sweep.eta_product == 1.0)

    def test_gold_room_temperature_columns(self):
        sweep = eta_sweep(0.5e-6, 2e-6, 3, GOLD, 300.0)
        assert np.all(sweep.eta_plasma < 1.0)
        assert np.all(sweep.eta_thermal > 1.0)
        dev = np.abs(sweep.eta_full - sweep.eta_product) / sweep.eta_full
        assert np.all(dev < 0.05)

    def test_log_spacing(self):
        sweep = eta_sweep(0.1e-6, 10e-6, 3, PERFECT, 0.0)
        np.testing.assert_allclose(sweep.lengths, [0.1e-6, 1e-6, 10e-6], rtol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            eta_sweep(1e-6, 1e-7, 5, GOLD, 300.0)
        with pytest.raises(DomainError):
            eta_sweep(1e-7, 1e-6, 1, GOLD, 300.0)

    @pytest.mark.parametrize("mirror", [PERFECT, GOLD], ids=["perfect", "gold"])
    @pytest.mark.parametrize("temperature", [-5.0, math.nan])
    def test_bad_temperature_raises_before_any_quadrature(self, monkeypatch, mirror, temperature):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a quadrature ran before the temperature check")

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", no_quadrature)
        with pytest.raises(DomainError, match="temperature"):
            eta_sweep(1e-7, 1e-6, 3, mirror, temperature)

    def test_fractional_points_rejected(self):
        with pytest.raises(DomainError):
            eta_sweep(1e-7, 1e-6, 2.5, GOLD, 300.0)

    @pytest.mark.parametrize("points", [10**6 + 1, 10**9])
    def test_points_cap_checked_before_allocating(self, monkeypatch, points):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the sweep allocated its lengths before the points check")

        monkeypatch.setattr(casimir.np, "geomspace", no_allocation)
        with pytest.raises(DomainError, match="points"):
            eta_sweep(1e-7, 1e-6, points, PERFECT, 0.0)

    def test_one_zero_temperature_solve_per_point(self, monkeypatch):
        calls = []
        solve = casimir._zero_temperature_per_area

        def counting(cavity_reflection, L):
            calls.append(L)
            return solve(cavity_reflection, L)

        monkeypatch.setattr(casimir, "_zero_temperature_per_area", counting)
        sweep = eta_sweep(0.5e-6, 2e-6, 3, GOLD, 300.0)
        assert len(calls) == 3
        # eta_full and the error estimate match the single-point calls
        for L, eta_full in zip(sweep.lengths, sweep.eta_full):
            assert eta_full == thermal_energy(cavity(float(L), 300.0, GOLD)).eta_E

    def test_error_estimate_is_worst_behind_sweep(self):
        sweep = eta_sweep(0.5e-6, 2e-6, 2, GOLD, 300.0)
        behind = [
            f(cavity(float(L), T, mirror)).numerical_error
            for L in sweep.lengths
            for f, T, mirror in (
                (real_mirror_energy, 0.0, GOLD),
                (thermal_energy, 300.0, PERFECT),
                (thermal_energy, 300.0, GOLD),
            )
        ]
        assert sweep.numerical_error == max(behind)
        assert eta_sweep(0.5e-6, 2e-6, 2, PERFECT, 0.0).numerical_error == 0.0


class TestSpherePlane:
    def test_perfect_closed_form(self):
        # oracle: 2 pi R hbar c pi^2 / (720 L^3)
        config = SpherePlaneConfig(
            R=1e-4, L=1e-6, temperature=0.0, mirrors=CavityReflection(PERFECT, PERFECT)
        )
        res = sphere_plane_force(config)
        assert res.force == pytest.approx(2.7229770503097453e-13, rel=1e-12)
        assert res.eta == 1.0
        assert res.numerical_error == 0.0

    def test_eta_equals_plane_plane_eta(self):
        config = SpherePlaneConfig(
            R=1e-3, L=0.5e-6, temperature=0.0, mirrors=CavityReflection(GOLD, GOLD)
        )
        res = sphere_plane_force(config)
        plane = real_mirror_energy(cavity(0.5e-6, 0.0, GOLD))
        assert res.eta == pytest.approx(plane.eta_E, rel=1e-9)
        assert res.force == pytest.approx(
            2 * math.pi * 1e-3 * plane.eta_E * ideal_energy_per_area(0.5e-6), rel=1e-8
        )

    def test_thermal_sphere_eta_matches_plane(self):
        config = SpherePlaneConfig(
            R=1e-3, L=2e-6, temperature=300.0, mirrors=CavityReflection(PERFECT, PERFECT)
        )
        res = sphere_plane_force(config)
        plane = thermal_energy(cavity(2e-6, 300.0, PERFECT))
        assert res.eta == pytest.approx(plane.eta_E, rel=1e-9)

    def test_proximity_flag_contract(self):
        near = SpherePlaneConfig(
            R=0.99e-4, L=1e-6, temperature=0.0, mirrors=CavityReflection(PERFECT, PERFECT)
        )
        assert FLAG_PROXIMITY in sphere_plane_force(near).flags  # R <= 100 L
        far = SpherePlaneConfig(
            R=1.01e-4, L=1e-6, temperature=0.0, mirrors=CavityReflection(PERFECT, PERFECT)
        )
        assert FLAG_PROXIMITY not in sphere_plane_force(far).flags

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            SpherePlaneConfig(R=0.0, L=1e-6, temperature=0.0,
                              mirrors=CavityReflection(PERFECT, PERFECT))
        with pytest.raises(DomainError):
            SpherePlaneConfig(R=1e-4, L=-1e-6, temperature=0.0,
                              mirrors=CavityReflection(PERFECT, PERFECT))

"""Casimir engine: closed forms, imaginary-axis quadrature, Matsubara
sums, correction sweeps, and the sphere-plane mapping."""

import collections
import itertools
import dataclasses
import math
import pickle
import re
import sys
import threading
import time
import tracemalloc
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
from vacuumkit import casimir, quadrature
from vacuumkit.casimir import FLAG_FEW_MATSUBARA, FLAG_PLANE_LIMIT, FLAG_PROXIMITY
from vacuumkit.constants import C, HBAR, K_B
from vacuumkit.mirrors import Scratch
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
                g_e, g_f = expression_kernels(expression_loop_amplitudes(cavity_reflection, xi, (0.5 / L) * u), u)
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

        def integrand(u, n=n):
            if n == 0:
                amplitudes = expression_static_amplitudes(cavity_reflection, (0.5 / L) * u)
            else:
                amplitudes = expression_loop_amplitudes(cavity_reflection, n * theta, (0.5 / L) * u)
            g_e, g_f = expression_kernels(amplitudes, u)
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


def expression_loop_amplitudes(cavity_reflection, xi, kappa):
    """Loop amplitudes at xi and kappa with a new array for every
    intermediate: the expression-style evaluation that the buffered one
    replaced, kept as its reference."""

    def mirror_pair(mirror):
        if isinstance(mirror, PerfectMirror):
            return -1.0, 1.0
        wp = mirror.plasma_frequency
        q2 = (xi / C) ** 2
        kappa2 = kappa**2
        kp2 = (wp / C) ** 2
        kappa_m = np.sqrt(kappa2 + kp2)
        d_te = kp2 / (kappa + kappa_m)
        a = (wp / xi) ** 2
        eps = 1.0 + a
        d_tm = a * ((eps + 1.0) * kappa2 - q2) / (eps * kappa + kappa_m)
        return -d_te / (d_te + 2.0 * kappa), d_tm / (d_tm + 2.0 * kappa_m)

    te1, tm1 = mirror_pair(cavity_reflection.mirror1)
    te2, tm2 = mirror_pair(cavity_reflection.mirror2)
    return te1 * te2, tm1 * tm2


def expression_static_amplitudes(cavity_reflection, k):
    """Loop amplitudes at xi -> 0 and in-plane k: r_TM = 1, and r_TE of a
    plasma mirror -d / (d + 2k) with d = kp^2 / (k + sqrt(k^2 + kp^2))."""

    def mirror_te(mirror):
        if isinstance(mirror, PerfectMirror):
            return -1.0
        kp2 = (mirror.plasma_frequency / C) ** 2
        d = kp2 / (k + np.sqrt(k * k + kp2))
        return -d / (d + 2.0 * k)

    return mirror_te(cavity_reflection.mirror1) * mirror_te(cavity_reflection.mirror2), 1.0


def expression_kernels(amplitudes, u):
    r_te, r_tm = amplitudes
    emu = np.exp(-u)
    x_te = r_te * emu
    x_tm = r_tm * emu
    g_e = -(np.log1p(-x_te) + np.log1p(-x_tm))
    g_f = x_te / (1.0 - x_te) + x_tm / (1.0 - x_tm)
    return g_e, g_f


def expression_zero_t_inner(cavity_reflection, L, phis, u):
    """The T = 0 u-integrand in expression style, the reference of
    ``casimir._zero_t_inner``."""
    uc = u[:, None]
    xi = (0.5 * C / L) * np.cos(phis) * uc
    g_e, g_f = expression_kernels(expression_loop_amplitudes(cavity_reflection, xi, (0.5 / L) * uc), uc)
    u2 = uc * uc
    out = np.empty((u.size, 2 * phis.size))
    out[:, : phis.size] = u2 * g_e
    out[:, phis.size :] = u2 * uc * g_f
    return out


def expression_matsubara_block(cavity_reflection, L, du, theta, n, s):
    """The Matsubara block integrand in expression style, the reference of
    ``casimir._matsubara_block``."""
    u_n, xi = n * du, n * theta
    u = u_n + s[:, None]
    g_e, g_f = expression_kernels(expression_loop_amplitudes(cavity_reflection, xi, (0.5 / L) * u), u)
    return np.concatenate([u * g_e, u * u * g_f], axis=1)


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

    def test_one_amplitude_call_per_u_quadrature_step(self, monkeypatch):
        # each u-quadrature evaluates each amplitude or deficit it uses once
        # on its whole start mesh, the dyadic chain of depth d (d + 1
        # panels), then once per bisection, and nothing else evaluates them.
        # At 1 um the T = 0 solve behind eta_T takes the remainder
        # (static_deficit and tm_deficit), and the one Matsubara block holds
        # n = 0 (static_deficit) and n >= 1 (amplitude_imaginary)
        calls = collections.Counter()
        names = ("amplitude_imaginary", "static_deficit", "tm_deficit")
        for name in names:
            method = getattr(CavityReflection, name)

            def counting(self, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(CavityReflection, name, counting)
        made = []
        quadrature = casimir.adaptive_gauss_legendre

        def recording(f, a, b, **kwargs):
            before = collections.Counter(calls)
            res = quadrature(f, a, b, **kwargs)
            if b == casimir._U_SPAN:
                steps = res.panels - len(kwargs["points"])
                during = calls - before
                assert during and set(during.values()) == {steps}, (during, steps)
                made.append(during)
            return res

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", recording)
        thermal_force(cavity(1e-6, 300.0, GOLD))
        assert len(made) > 1
        assert sum(made, collections.Counter()) == calls
        assert set(calls) == set(names)

    @pytest.mark.parametrize(
        "mirror, L, T",
        [
            (GOLD, 1e-6, 0.0),
            (GOLD, 1e-6, 300.0),
            # 11 inner u-quadratures, refined to depths 10 to 17
            (PlasmaMirror.from_wavelength(1e-6), 1e-9, 0.0),
            # n = 0 and three Matsubara blocks, of 64 terms from depth 6 and
            # of 128 from depth 2
            (GOLD, 50e-9, 300.0),
            # deep heads: 46 terms from depth 9, and 56 terms from depth 7
            # after n = 0 refined to depth 9
            (GOLD, 20e-9, 30.0),
            (PlasmaMirror.from_wavelength(1e-6), 3.16e-9, 3000.0),
        ],
        ids=["gold-1um-0K", "gold-1um-300K", "1um-1nm-0K", "gold-50nm-300K", "gold-20nm-30K", "1um-3nm-3000K"],
    )
    def test_start_mesh_keeps_the_bits_of_refining_from_one_panel(self, monkeypatch, mirror, L, T):
        # each u start mesh is a chain that refinement from [0, U_SPAN]
        # reaches, and the panel sum runs in position order, so the results
        # are the same bits as without it.  The phi start is left in place:
        # one u-quadrature then holds every phi column, whose panels refining
        # phi from one panel would share otherwise (test_phi_start_moves_...).
        # So does the x-quadrature of a Gregory tail, over [8, U_SPAN]: the
        # u-quadratures are those over [0, U_SPAN]
        pair = CavityReflection(mirror, mirror)
        started = casimir._per_area(pair, L, T)
        agl = casimir.adaptive_gauss_legendre

        def one_u_panel(f, a, b, *, points=(), **kwargs):
            return agl(f, a, b, points=() if (a, b) == (0.0, casimir._U_SPAN) else points, **kwargs)

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", one_u_panel)
        assert started == casimir._per_area(pair, L, T)

    @pytest.mark.parametrize("pair", [
        CavityReflection(GOLD, GOLD),
        CavityReflection(PlasmaMirror.from_wavelength(1e-6), PlasmaMirror.from_wavelength(1e-6)),
        CavityReflection(GOLD, PERFECT),
        CavityReflection(GOLD, PlasmaMirror.from_wavelength(231e-9)),
    ], ids=["gold", "1um", "gold-perfect", "gold-231nm"])
    def test_phi_start_moves_results_by_a_thousandth_of_the_estimate(self, monkeypatch, pair):
        # starting phi on its chain shares each u-quadrature's panels among
        # more phi columns than refining phi from one panel does, which
        # moves last bits only
        ratios = [1e-3, 0.0074, 0.074, 0.36, 0.56, 0.72]
        started = [casimir._per_area(pair, x * pair.max_plasma_wavelength, 0.0) for x in ratios]
        agl = casimir.adaptive_gauss_legendre

        def one_phi_panel(f, a, b, *, points=(), **kwargs):
            return agl(f, a, b, points=points if b == casimir._U_SPAN else (), **kwargs)

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", one_phi_panel)
        for x, (e, f, rel_err, _) in zip(ratios, started):
            e_ref, f_ref, _, _ = casimir._per_area(pair, x * pair.max_plasma_wavelength, 0.0)
            assert abs(e / e_ref - 1.0) <= 1e-3 * rel_err, x
            assert abs(f / f_ref - 1.0) <= 1e-3 * rel_err, x

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

    def test_angular_failure_names_length_and_one_relative_estimate(self, monkeypatch):
        monkeypatch.setattr(casimir, "_OUTER_REL_TOL", 1e-20)  # below the round-off floor
        with pytest.raises(ConvergenceError) as info:
            real_mirror_energy(cavity(50e-9, 0.0, GOLD))
        message = str(info.value)
        assert re.fullmatch(
            r"angular quadrature did not converge \(L=5\.000e-08 m, relative error estimate \d\.\d{3}e-\d\d\)",
            message,
        ), message
        assert 1e-20 < float(message.rsplit(" ", 1)[1].rstrip(")")) < 1e-8


class TestZeroTemperatureStarts:
    """Below lambda_p the direct T = 0 solve starts phi on the chain toward
    pi/2, and its first u-quadrature on the chain toward 0, that refining
    each from one panel reaches."""

    # L / lambda_p, with the dips of a plasma mirror facing a perfect one,
    # where its phi refinement stops a level short of the ratios around
    RATIOS = np.union1d(np.geomspace(1e-3, 1.0, 80), 0.7 * 0.5 ** np.arange(3, 10))

    @staticmethod
    def reached(edges, chain):
        """How many leading edges of ``chain`` refinement produced."""
        return next((k for k, p in enumerate(chain) if p not in edges), len(chain))

    @pytest.mark.parametrize("kind", ["symmetric", "plasma-perfect", "perfect-plasma", "1.7"])
    def test_never_deeper_than_refinement_from_one_panel(self, monkeypatch, kind):
        def pair_of(plasma_wavelength):
            mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
            return {
                "symmetric": CavityReflection(mirror, mirror),
                "plasma-perfect": CavityReflection(mirror, PERFECT),
                "perfect-plasma": CavityReflection(PERFECT, mirror),
                "1.7": CavityReflection(mirror, PlasmaMirror.from_wavelength(1.7 * plasma_wavelength)),
            }[kind]

        half_pi = 0.5 * math.pi
        phi_chain = casimir._chain_toward(half_pi, 40)
        u_chain = [math.ldexp(casimir._U_SPAN, -k) for k in range(1, 40)]
        # every edge each quadrature evaluates panels between; bisection
        # only adds edges, so these are its final ones
        evaluate, edges = quadrature._evaluate_panels, []

        def recording(f, panel_edges):
            edges[-1].update(np.asarray(panel_edges).tolist())
            return evaluate(f, panel_edges)

        monkeypatch.setattr(quadrature, "_evaluate_panels", recording)
        agl = casimir.adaptive_gauss_legendre
        reached = []  # (b, start depth, reached depth) of each quadrature

        def one_panel_where(drop):
            def refine(f, a, b, *, points=(), **kwargs):
                points = () if drop(b) else points
                edges.append(set())
                try:
                    res = agl(f, a, b, points=points, **kwargs)
                    chain = phi_chain if b == half_pi else u_chain
                    reached.append((b, len(points), self.reached(edges[-1], chain)))
                finally:
                    edges.pop()
                return res

            return refine

        # the depths depend on L / lambda_p alone; the ratios alternate
        # between lambda_p of 136 nm and 1 um
        for x, pair in zip(self.RATIOS, itertools.cycle([pair_of(136e-9), pair_of(1e-6)])):
            L = float(x * pair.max_plasma_wavelength)
            phi_depth, u_depth = casimir._zero_t_direct_starts(pair, L)
            # phi refined from one panel; the u-quadratures started as shipped
            monkeypatch.setattr(casimir, "adaptive_gauss_legendre", one_panel_where(lambda b: b == half_pi))
            reached.clear()
            casimir._zero_t_direct_per_area(pair, L)
            (phi_reached,) = [r for b, _, r in reached if b == half_pi]
            assert phi_depth <= phi_reached, (x, phi_depth, phi_reached)
            # phi started as shipped; every u-quadrature refined from one panel
            monkeypatch.setattr(casimir, "adaptive_gauss_legendre", one_panel_where(lambda b: b != half_pi))
            reached.clear()
            casimir._zero_t_direct_per_area(pair, L)
            u_reached = [r for b, _, r in reached if b != half_pi]
            assert u_depth <= u_reached[0], (x, u_depth, u_reached)
            # and those of the phi refinement steps
            assert casimir._PHI_STEP_DEPTH <= min(u_reached[1:], default=math.inf), (x, u_reached)

    @pytest.mark.parametrize("L", [50e-9, 63e-9])
    def test_gold_takes_one_call_of_each_integrand(self, monkeypatch, L):
        calls = collections.Counter()
        agl = casimir.adaptive_gauss_legendre

        def counting(f, a, b, **kwargs):
            def g(x):
                calls["phi" if b == 0.5 * math.pi else "u"] += 1
                return f(x)

            return agl(g, a, b, **kwargs)

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", counting)
        casimir._zero_temperature_per_area(CavityReflection(GOLD, GOLD), L)
        assert calls == {"phi": 1, "u": 1}


def remainder_oracle_per_area(L, plasma_wavelengths):
    """(E/A, F/A) at T = 0, and the absolute error of each, of two mirrors
    with the given plasma wavelengths (None for a perfect mirror): the
    closed forms less the remainder R of the loop deficits d_p = 1 - r_p,
    by QUADPACK in t = cos(phi) and u = 2 kappa L over u in [0, 200], with
    the deficits written out here.  With a = 4 pi L / lambda_p and
    eps = 1 + a^2 / (u t)^2, one plasma mirror has

        1 - |r_TE| = 2 u / (u + sqrt(u^2 + a^2)),
        1 - r_TM = 2 sqrt(u^2 + a^2) / (eps u + sqrt(u^2 + a^2)),

    a perfect one 0, the loop 1 - (1 - d_1)(1 - d_2), and

        E/A = hbar c / (32 pi^2 L^3) [4 zeta(4) - Int dt Int du u^2 sum_p log1p(d_p / expm1(u))],
        F/A = hbar c / (32 pi^2 L^4) [12 zeta(4) - Int dt Int du u^3 sum_p d_p / ((expm1(u) + d_p)(1 - e^-u))].

    d_TE holds no t, so its part is one u-integral."""
    scipy_integrate = pytest.importorskip("scipy.integrate")
    a_values = [None if lp is None else 4.0 * math.pi * L / lp for lp in plasma_wavelengths]

    def loop(deficit):
        d1, d2 = (0.0 if a is None else deficit(a) for a in a_values)
        return d1 + d2 * (1.0 - d1)

    def te(u):
        return loop(lambda a: 2.0 * u / (u + math.hypot(u, a)))

    def tm(u, t):
        return loop(lambda a: 2.0 * math.hypot(u, a) / ((1.0 + (a / (u * t)) ** 2) * u + math.hypot(u, a)))

    kernels = [
        lambda u, d: u * u * math.log1p(d / math.expm1(u)),
        lambda u, d: u**3 * d / ((math.expm1(u) + d) * -math.expm1(-u)),
    ]
    options = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    results = []
    for kernel, perfect, power in zip(kernels, (math.pi**4 / 22.5, 2.0 * math.pi**4 / 15.0), (3, 4)):
        r_te, te_err = scipy_integrate.quad(lambda u: kernel(u, te(u)), 0.0, 200.0, **options)
        inner_errors = []

        def over_u(t):
            value, error = scipy_integrate.quad(lambda u: kernel(u, tm(u, t)), 0.0, 200.0, **options)
            inner_errors.append(error)
            return value

        r_tm, tm_err = scipy_integrate.quad(over_u, 0.0, 1.0, **options)
        prefactor = HBAR * C / (32.0 * math.pi**2 * L**power)
        error = te_err + tm_err + max(inner_errors)
        results.append((prefactor * (perfect - r_te - r_tm), prefactor * error))
    return results


class TestZeroTemperatureRemainder:
    """At L >= lambda_p, T = 0 is the closed forms less the (u, phi)
    integral of the remainder kernels in the loop deficits d_p = 1 - r_p:

        R_E = sum_p log1p(d_p / expm1(u)),
        R_F = sum_p d_p / ((expm1(u) + d_p)(1 - e^-u)),

    formed without subtraction; below lambda_p, and for perfect pairs, the
    pair's own kernels are integrated."""

    @pytest.mark.parametrize("plasma_wavelengths, ratio", [
        ((136e-9, 136e-9), 1.0),
        ((136e-9, 136e-9), 30.0),
        ((136e-9, None), 3.0),
    ], ids=["gold-1", "gold-30", "gold-perfect-3"])
    def test_against_quadpack_oracle(self, plasma_wavelengths, ratio):
        # the oracle is good to a tenth of the estimate it checks, which falls
        # to about 5e-14 far above lambda_p
        mirrors = [PERFECT if lp is None else PlasmaMirror.from_wavelength(lp) for lp in plasma_wavelengths]
        L = ratio * 136e-9
        e_per_area, f_per_area, rel_err = casimir._zero_temperature_per_area(CavityReflection(*mirrors), L)
        for value, (ref, ref_err) in zip((e_per_area, f_per_area), remainder_oracle_per_area(L, plasma_wavelengths)):
            assert ref_err <= 0.1 * rel_err * ref
            assert abs(value / ref - 1.0) <= rel_err, (value / ref - 1.0, rel_err)

    @pytest.mark.parametrize("ratio", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("partner", [GOLD, PERFECT], ids=["symmetric", "perfect"])
    def test_direct_and_remainder_forms_agree(self, ratio, partner):
        pair = CavityReflection(GOLD, partner)
        L = ratio * GOLD.plasma_wavelength
        e_direct, f_direct, err_direct = casimir._zero_t_direct_per_area(pair, L)
        e_rem, f_rem, err_rem = casimir._zero_t_remainder_per_area(pair, L)
        assert abs(e_rem / e_direct - 1.0) <= err_direct + err_rem
        assert abs(f_rem / f_direct - 1.0) <= err_direct + err_rem
        assert casimir._zero_temperature_per_area(pair, L) == (e_rem, f_rem, err_rem)

    @pytest.mark.parametrize("order", [1, -1], ids=["136-231", "231-136"])
    def test_unequal_pair_switches_on_its_larger_plasma_wavelength(self, order):
        pair = CavityReflection(*(GOLD, PlasmaMirror.from_wavelength(231e-9))[::order])
        assert pair.max_plasma_wavelength == PlasmaMirror.from_wavelength(231e-9).plasma_wavelength
        below, at = 0.99 * pair.max_plasma_wavelength, pair.max_plasma_wavelength
        assert casimir._zero_temperature_per_area(pair, below) == casimir._zero_t_direct_per_area(pair, below)
        assert casimir._zero_temperature_per_area(pair, at) == casimir._zero_t_remainder_per_area(pair, at)
        assert casimir._zero_t_direct_per_area(pair, at) != casimir._zero_t_remainder_per_area(pair, at)

    def test_perfect_pair_keeps_its_own_kernels(self, monkeypatch):
        pair = CavityReflection(PERFECT, PERFECT)
        monkeypatch.setattr(casimir, "_zero_t_remainder_per_area", None)
        assert casimir._zero_temperature_per_area(pair, 1e-6) == casimir._zero_t_direct_per_area(pair, 1e-6)


class TestAsymptoticOracles:
    """T = 0 plasma pairs against series that share nothing with the
    quadrature, at both ends of the L range."""

    @pytest.mark.parametrize("plasma_wavelength", [136e-9, 1e-6, 1e-3])
    def test_large_distance_series(self, plasma_wavelength):
        # Lambrecht & Reynaud, Eur. Phys. J. D 8, 309 (2000), in
        # d = lambda_p / (2 pi L); eta_E takes the d^k coefficient of eta_F
        # times 3 / (3 + k).  The residual is about -440 d^5 (F) and -165 d^5
        # (E), so the bound pins the d^3 coefficient to 0.1 %
        c3, c4 = 1.0 - math.pi**2 / 210.0, 1.0 - 163.0 * math.pi**2 / 7350.0
        mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
        for ratio in (10.0, 30.0, 100.0, 300.0, 1000.0):
            L = ratio * plasma_wavelength
            d = 1.0 / (2.0 * math.pi * ratio)
            eta_f = 1 - 16 / 3 * d + 24 * d**2 - 640 / 7 * c3 * d**3 + 2800 / 9 * c4 * d**4
            eta_e = 1 - 4 * d + 72 / 5 * d**2 - 320 / 7 * c3 * d**3 + 400 / 3 * c4 * d**4
            res = real_mirror_force(cavity(L, 0.0, mirror))
            bound = 1000.0 * d**5 + res.numerical_error
            assert abs(res.eta_F - eta_f) <= bound, (ratio, res.eta_F - eta_f)
            assert abs(res.eta_E - eta_e) <= bound, (ratio, res.eta_E - eta_e)

    def test_short_distance_limit(self):
        # nonretarded limit of two plasma half-spaces: E/A = hbar omega_p J /
        # (16 pi^2 L^2), with (eps - 1)/(eps + 1) = 1/(1 + 2 t^2) at
        # xi = omega_p t, so eta_E -> 90 J L / (pi^3 lambda_p).
        # J = Int_0^inf Li3((1 + 2 t^2)^-2) dt by mpmath at 30 digits
        J = 0.616685930996120500729
        plasma_wavelength = 1e-6
        mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
        gaps = []
        for ratio in (3e-2, 1e-2, 3e-3, 1e-3):
            L = ratio * plasma_wavelength
            eta_e = real_mirror_energy(cavity(L, 0.0, mirror)).eta_E
            gaps.append(eta_e * math.pi**3 / (90.0 * J * ratio) - 1.0)
        assert all(a < b < 0.0 for a, b in zip(gaps, gaps[1:])), gaps
        assert abs(gaps[-1]) <= 1e-3


class TestMatsubaraSum:
    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_error_bounds_perfect_pair_at_small_spacing(self, T):
        # du = 5.5e-4 and 1.1e-3: the tail runs over thousands of terms
        L = 0.1e-6
        pair = CavityReflection(PERFECT, PERFECT)
        e_per_area, f_per_area, rel_err, _, _ = casimir._matsubara_per_area(pair, L, T)
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
        e_per_area, f_per_area, rel_err, _, _ = casimir._matsubara_per_area(pair, L, T)
        e_ref, f_ref, ref_err = matsubara_per_term_loop(pair, L, T)
        assert e_per_area == pytest.approx(e_ref, rel=rel_err + ref_err)
        assert f_per_area == pytest.approx(f_ref, rel=rel_err + ref_err)

    def test_failure_names_term_length_and_temperature(self, monkeypatch):
        monkeypatch.setattr(casimir, "_INNER_REL_TOL", 1e-20)  # below the round-off floor
        with pytest.raises(ConvergenceError, match=r"n=0 \(L=1\.000e-06 m, T=300\.0 K"):
            thermal_force(cavity(1e-6, 300.0, GOLD))

    def test_block_failure_names_its_terms(self, monkeypatch):
        # only the terms n >= 1 use the imaginary-axis amplitudes; at 1 um
        # and 300 K they end at n_max = floor(U_SPAN / du), in one block
        du = 2.0 * ThermalState(300.0).temperature_frequency * 1e-6 / C
        n_max = int(casimir._U_SPAN // du)
        nan = lambda self, xi, kappa, scratch: (np.full(np.broadcast_shapes(np.shape(xi), np.shape(kappa)), np.nan),) * 2
        monkeypatch.setattr(CavityReflection, "amplitude_imaginary", nan)
        last = rf"{n_max - 1}, {n_max} \(L=1\.000e-06 m, T=300\.0 K"
        with pytest.raises(ConvergenceError, match=r"n=1, 2, 3, .*, " + last):
            thermal_force(cavity(1e-6, 300.0, GOLD))

    # at 1 nm and 1e-12 K the last term below the u-cut has n near 1.5e19,
    # beyond the int64 range
    @pytest.mark.parametrize("L, T, text", [(1e-6, 10.0, "L=1.000e-06 m, T=10.0 K"),
                                            (1e-9, 1e-12, "L=1.000e-09 m, T=1e-12 K")])
    def test_term_cap_raises_with_length_and_temperature(self, monkeypatch, L, T, text):
        monkeypatch.setattr(casimir, "_MATSUBARA_MAX_TERMS", 50)
        with pytest.raises(ConvergenceError, match=rf"exceeded 50 terms \({re.escape(text)}\)"):
            thermal_force(cavity(L, T, GOLD))

    @staticmethod
    def record_blocks(monkeypatch):
        """(terms, [nodes of each integrand call]) of every Matsubara block."""
        blocks = []
        block = casimir._matsubara_block

        def recording(cavity_reflection, L, du, theta, n):
            f = block(cavity_reflection, L, du, theta, n)
            calls = []
            blocks.append((n.size, calls))

            def counted(s):
                calls.append(s.size)
                return f(s)

            return counted

        monkeypatch.setattr(casimir, "_matsubara_block", recording)
        return blocks

    # each block starts from the chain that its first term's u_lo says
    # refinement reaches, so a serial call is left only where a block goes
    # one level deeper; from depth 2 the same sums took [6, 2, 1], [4] and
    # [2] calls.  A rule in u_lo alone that started deeper here would start
    # deeper than refinement from [0, U_SPAN] reaches elsewhere.  The sum at
    # 50 nm, of 486 terms, stays on the direct path, without a Gregory tail
    @pytest.mark.parametrize("L, calls", [(50e-9, [2, 2, 2]), (0.3e-6, [2]), (1e-6, [1])])
    def test_blocks_start_from_the_chain_of_their_first_term(self, monkeypatch, L, calls):
        monkeypatch.setattr(casimir, "_GREGORY_MIN_TERMS", math.inf)
        blocks = self.record_blocks(monkeypatch)
        thermal_force(cavity(L, 300.0, GOLD))
        assert [len(nodes) for _, nodes in blocks] == calls

    # from 32-term blocks at depth 14 (1 nm, 1e-12 K, stopped by the term
    # cap) to 128-term blocks at depth 2
    @pytest.mark.parametrize("mirror, L, T", [
        (GOLD, 50e-9, 300.0),
        (GOLD, 20e-9, 30.0),
        (GOLD, 1e-6, 1.0),
        (PlasmaMirror.from_wavelength(1e-6), 3.16e-9, 3000.0),
        (GOLD, 1e-9, 1e-12),
    ], ids=["gold-50nm-300K", "gold-20nm-30K", "gold-1um-1K", "1um-3nm-3000K", "gold-1nm-1e-12K"])
    def test_no_start_mesh_exceeds_128_terms_on_84_nodes(self, monkeypatch, mirror, L, T):
        # so the integrand buffers stay below 86 kB (the largest start mesh
        # is 32 terms on the 315 nodes of depth 14)
        blocks = self.record_blocks(monkeypatch)
        if T < 1e-6:
            monkeypatch.setattr(casimir, "_MATSUBARA_MAX_TERMS", 100)
            with pytest.raises(ConvergenceError, match="exceeded 100 terms"):
                casimir._matsubara_per_area(CavityReflection(mirror, mirror), L, T)
        else:
            casimir._matsubara_per_area(CavityReflection(mirror, mirror), L, T)
        assert len(blocks) > 1
        for terms, nodes in blocks:
            assert terms * nodes[0] <= 128 * 84
        # the first block holds every term the few-terms count reads here,
        # though the count would read on into later blocks
        assert blocks[0][0] >= casimir._FEW_TERMS_WARN

    def test_few_terms_flag_does_not_depend_on_block_size(self, monkeypatch):
        # the count reads the first ten terms from whichever blocks hold them:
        # 3-term blocks keep the flags of gold at 300 K, off at 1 um
        pair = CavityReflection(GOLD, GOLD)
        lengths = (1e-6, 3e-6, 10e-6)
        flags = [casimir._per_area(pair, L, 300.0)[3] for L in lengths]
        assert flags == [(), (FLAG_FEW_MATSUBARA,), (FLAG_FEW_MATSUBARA,)]
        block_start = casimir._block_start
        monkeypatch.setattr(casimir, "_block_start", lambda u_lo: (block_start(u_lo)[0], 3))
        assert [casimir._per_area(pair, L, 300.0)[3] for L in lengths] == flags

    @pytest.mark.parametrize("T, text", [
        (1e-100, "the Matsubara terms are not finite"),
        (5e-324, "underflows to 0"),  # du is 0.0
    ])
    def test_tiny_temperature_is_a_domain_error(self, T, text):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=rf"T={T!r} K is too small at L=1e-06 m: .*{text}"):
            thermal_force(cavity(1e-6, T, GOLD))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("T", [300.0, 3000.0])
    def test_nearly_perfect_pair_matches_the_perfect_series(self, T):
        # at 0.1 m the n = 0 remainder of a 1 nm plasma pair is about -7.7e-9
        # of the term, and the sum stays within 1e-7 of a perfect pair's
        e_per_area, f_per_area, rel_err, _ = casimir._per_area(symmetric_pair(1e-9), 0.1, T)
        assert rel_err < casimir._ERROR_CEILING
        e_perfect, f_perfect, _, _, _ = casimir._perfect_thermal_per_area(0.1, T)
        assert e_per_area == pytest.approx(e_perfect, rel=1e-7)
        assert f_per_area == pytest.approx(f_perfect, rel=1e-7)


def spacing_length(du, T):
    """L at which the Matsubara terms at T are du = 2 xi_1 L / c apart."""
    return du * HBAR * C / (4.0 * math.pi * K_B * T)


def matsubara_path(pair, L, T, monkeypatch, min_terms, term_rel=None):
    """_matsubara_per_area with the Gregory switch at ``min_terms`` terms,
    and the tail bound at ``term_rel`` where given."""
    with monkeypatch.context() as patch:
        patch.setattr(casimir, "_GREGORY_MIN_TERMS", min_terms)
        if term_rel is not None:
            patch.setattr(casimir, "_MATSUBARA_TERM_REL", term_rel)
        return casimir._matsubara_per_area(pair, L, T)


class TestGregoryTail:
    PAIRS = {
        "gold": CavityReflection(GOLD, GOLD),
        "gold-perfect": CavityReflection(GOLD, PERFECT),
        "perfect-gold": CavityReflection(PERFECT, GOLD),
        "gold-231nm": CavityReflection(GOLD, PlasmaMirror.from_wavelength(231e-9)),
    }

    # n_max = floor(40 / du) from 200 to 1000 terms
    @pytest.mark.parametrize("T", [300.0, 20.0])
    @pytest.mark.parametrize("n_max", [200, 300, 500, 1000])
    @pytest.mark.parametrize("pair", ["gold", "gold-perfect", "perfect-gold", "gold-231nm"])
    def test_against_the_direct_sum(self, monkeypatch, pair, n_max, T):
        # the direct sum with its tail bound at 1e-15 as the reference
        pair = self.PAIRS[pair]
        L = spacing_length(40.0 / (n_max + 0.5), T)
        e, f, rel_err, _, path = casimir._matsubara_per_area(pair, L, T)
        assert path.startswith("Matsubara sum, Gregory tail from n=")
        e_ref, f_ref, _, _, ref_path = matsubara_path(pair, L, T, monkeypatch, math.inf, 1e-15)
        assert ref_path == "Matsubara sum"
        assert abs(e / e_ref - 1.0) <= rel_err <= 1e-9
        assert abs(f / f_ref - 1.0) <= rel_err

    @pytest.mark.parametrize("T", [300.0, 20.0])
    @pytest.mark.parametrize("n_max", [150, 199, 200, 250])
    def test_both_sides_of_the_switch_agree(self, monkeypatch, n_max, T):
        # each result against the other path at the same point: below the
        # switch with the tail forced, above it with the direct sum forced
        pair = CavityReflection(GOLD, GOLD)
        L = spacing_length(40.0 / (n_max + 0.5), T)
        e, f, rel_err, _, path = casimir._matsubara_per_area(pair, L, T)
        gregory = n_max >= casimir._GREGORY_MIN_TERMS
        assert ("Gregory" in path) == gregory
        e_other, f_other, _, _, other = matsubara_path(pair, L, T, monkeypatch, math.inf if gregory else 0)
        assert other != path
        assert abs(e / e_other - 1.0) <= rel_err
        assert abs(f / f_other - 1.0) <= rel_err

    def test_stop_inside_the_head_keeps_the_direct_bits(self, monkeypatch):
        # a 1 um pair at 60 nm and 300 K: 404 terms below the cut, but terms
        # fall fast enough that the tail bound stops the sum before N = 81
        pair = symmetric_pair(1e-6)
        result = casimir._matsubara_per_area(pair, 60e-9, 300.0)
        assert result[4] == "Matsubara sum"
        assert result == matsubara_path(pair, 60e-9, 300.0, monkeypatch, math.inf)

    # du from 5.5e-4 (72,727 terms below the cut, N = 14,546) to 0.2, where
    # n_max = 199 keeps the direct sum
    @pytest.mark.parametrize("du", [5.5e-4, 3e-3, 0.02, 0.05, 0.2])
    def test_perfect_pair_against_the_lambert_series(self, du):
        pair = CavityReflection(PERFECT, PERFECT)
        L = 0.1e-6
        T = du * HBAR * C / (4.0 * math.pi * K_B * L)
        e, f, rel_err, _, path = casimir._matsubara_per_area(pair, L, T)
        assert ("Gregory" in path) == (du < 0.2)
        e_ref, f_ref = lambert_perfect_per_area(L, T)
        assert abs(e / e_ref - 1.0) <= rel_err <= 1e-9
        assert abs(f / f_ref - 1.0) <= rel_err

    def test_block_count_for_gold_at_1um_and_1K(self, monkeypatch):
        # du = 5.5e-3, 7,285 terms below the cut.  The head runs through
        # the block that holds N - 1 = 1,457, the 13th, and one more block
        # holds the term N + 6 = 1,464 of the differences.  The tail
        # integral adds one u-quadrature on the 63 x-nodes of its start
        # mesh, in one call.  The direct sum took 44 blocks
        blocks = TestMatsubaraSum.record_blocks(monkeypatch)
        *_, path = casimir._matsubara_per_area(CavityReflection(GOLD, GOLD), 1e-6, 1.0)
        assert path == "Matsubara sum, Gregory tail from n=1458"
        assert len(blocks) == 15
        assert blocks[-2:] == [(1, [63]), (63, [63])]

    def test_ceiling_error_names_the_gregory_path(self, monkeypatch):
        monkeypatch.setattr(casimir, "_ERROR_CEILING", -1.0)  # below every estimate
        context = r"\(Matsubara sum, Gregory tail from n=1458, L=1\.000e-06 m, T=1\.0 K\)"
        with pytest.raises(ConvergenceError, match="above ceiling .*" + context):
            thermal_force(cavity(1e-6, 1.0, GOLD))

    def test_unconverged_tail_integral_names_length_temperature_and_range(self, monkeypatch):
        agl = casimir.adaptive_gauss_legendre

        def x_fails(f, a, b, **kwargs):
            res = agl(f, a, b, **kwargs)
            return res if a == 0.0 else dataclasses.replace(res, converged=False)

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", x_fails)
        text = r"tail integral over x in \[8\.00118, 40\] did not converge \(L=1\.000e-06 m, T=1\.0 K"
        with pytest.raises(ConvergenceError, match=text):
            thermal_force(cavity(1e-6, 1.0, GOLD))


def symmetric_pair(plasma_wavelength):
    mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
    return CavityReflection(mirror, mirror)


BUFFERED_PAIRS = {
    "perfect-plasma": CavityReflection(PERFECT, GOLD),
    "plasma-perfect": CavityReflection(GOLD, PERFECT),
    "30nm": symmetric_pair(30e-9),
    "136nm": symmetric_pair(136e-9),
    "1um": symmetric_pair(1e-6),
    "136/231nm": CavityReflection(GOLD, PlasmaMirror.from_wavelength(231e-9)),
}


class TestBufferedIntegrands:
    # (nodes, columns) that grow, shrink and grow again, so that a buffer's
    # stale contents would show in a result; 63 and 210 nodes are the
    # depth-2 Matsubara and the T = 0 start meshes, 42 a refinement step
    SHAPES = [(63, 128), (42, 5), (210, 42), (42, 128), (63, 5), (210, 128)]

    @pytest.mark.parametrize("pair", BUFFERED_PAIRS.values(), ids=BUFFERED_PAIRS.keys())
    def test_bit_equal_to_expression_style(self, pair):
        L, T = 0.3e-6, 300.0
        theta = ThermalState(T).temperature_frequency
        du = 2.0 * theta * L / C
        rng = np.random.default_rng(19)
        for q, c in self.SHAPES:
            nodes = np.sort(rng.uniform(0.0, casimir._U_SPAN, q))
            phis = np.sort(rng.uniform(0.0, 0.5 * math.pi, c))
            n = np.arange(1, c + 1)
            # each buffered result is compared before the next call reuses it
            got = casimir._zero_t_inner(casimir._loop_kernels, pair, L, phis)(nodes)
            want = expression_zero_t_inner(pair, L, phis, nodes)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (q, c)
            got = casimir._matsubara_block(pair, L, du, theta, n)(nodes)
            want = expression_matsubara_block(pair, L, du, theta, n, nodes)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (q, c)

    @pytest.mark.parametrize("pair", ["136nm", "136/231nm", "perfect-plasma"])
    def test_warm_calls_allocate_no_grid_sized_array(self, pair):
        # every (nodes, columns) array of a call is a kept buffer: the traced
        # peak of a warm call is numpy's 64 kB iterator buffers, about 0.14 of
        # one grid array; an expression-style integrand peaks above 1
        pair = BUFFERED_PAIRS[pair]
        L, T, q, c = 0.3e-6, 300.0, 231, 512
        theta = ThermalState(T).temperature_frequency
        du = 2.0 * theta * L / C
        rng = np.random.default_rng(20)
        nodes = np.sort(rng.uniform(0.0, casimir._U_SPAN, q))
        phis = np.sort(rng.uniform(0.0, 0.5 * math.pi, c))
        for f in (
            casimir._zero_t_inner(casimir._loop_kernels, pair, L, phis),
            casimir._zero_t_inner(casimir._deficit_kernels, pair, L, phis),
            casimir._matsubara_block(pair, L, du, theta, np.arange(1, c + 1)),
            casimir._matsubara_block(pair, L, du, theta, np.arange(0, c)),
        ):
            f(nodes)
            tracemalloc.start()
            try:
                f(nodes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * q * c * 8


class TestThreads:
    def test_concurrent_calls_match_solo_runs(self):
        # the integrands' buffers are per thread: four threads on different
        # pairs, half at T = 0, give the bits of each call run alone
        calls = [
            (thermal_force, cavity(1e-6, 0.0, GOLD)),
            (thermal_force, cavity(0.4e-6, 300.0, PlasmaMirror.from_wavelength(231e-9))),
            (sphere_plane_force, SpherePlaneConfig(R=1e-4, L=0.1e-6, temperature=0.0,
                                                   mirrors=symmetric_pair(30e-9))),
            (sphere_plane_force, SpherePlaneConfig(R=1e-3, L=2e-6, temperature=77.0,
                                                   mirrors=symmetric_pair(1e-6))),
        ]
        solo = [pickle.dumps(call(config)) for call, config in calls]
        results = [[] for _ in calls]
        errors = []
        barrier = threading.Barrier(len(calls))

        def run(i):
            call, config = calls[i]
            try:
                barrier.wait(timeout=60)
                for _ in range(20):
                    results[i].append(pickle.dumps(call(config)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [[ref] * 20 for ref in solo]


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
    """The n = 0 term: perfect-pair parts in closed form plus a smooth TE
    remainder by quadrature, formed from the static TE deficit 1 - r_TE."""

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
        # the precondition of the split: r_TE(k = 0) = 1, a deficit of exactly
        # 0 (r_TM = 1 at every k, test_mirrors)
        assert np.all(np.asarray(pair.static_deficit(k)) == 0.0)

    def test_perfect_pair_remainder_is_exactly_zero(self):
        u = np.geomspace(1e-12, 80.0, 200)
        pair = CavityReflection(PERFECT, PERFECT)
        g_e, g_f = casimir._remainder_kernels(pair.static_deficit(u / 2e-6), 0.0, u, Scratch())
        assert np.all(g_e == 0.0) and np.all(g_f == 0.0)

    @pytest.mark.parametrize("plasma_wavelength", [1e-9, 30e-9])
    @pytest.mark.parametrize("partner_perfect", [False, True], ids=["symmetric", "perfect"])
    @pytest.mark.parametrize("L", [1e-3, 1e-2, 0.1])
    def test_converges_on_its_start_mesh(self, monkeypatch, plasma_wavelength, partner_perfect, L):
        # at 0.1 m the remainder of a 1 nm pair is some 1e-9 of the term, yet
        # known to 1e-10 of itself: n = 0, the first u-quadrature of the sum,
        # ends on its 4 start panels, 84 evaluations
        mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
        pair = CavityReflection(mirror, PERFECT if partner_perfect else mirror)
        results = []
        quadrature = casimir.adaptive_gauss_legendre

        def recording(f, a, b, **kwargs):
            results.append(quadrature(f, a, b, **kwargs))
            return results[-1]

        monkeypatch.setattr(casimir, "adaptive_gauss_legendre", recording)
        casimir._per_area(pair, L, 300.0)
        static = results[0]
        assert static.converged
        assert (static.panels, static.evaluations) == (casimir._REMAINDER_DEPTH + 1, 84)

    @pytest.mark.parametrize(
        "L, partner_perfect",
        [(1e-8, False), (1e-6, False), (1e-6, True)],
        ids=["gold-10nm", "gold-1um", "gold-perfect-1um"],
    )
    def test_against_mpmath_of_unsplit_kernels(self, L, partner_perfect):
        # du = 200 puts every term n >= 1 past the u-cut: the sum is its n = 0 term
        T = 200.0 * HBAR * C / (4.0 * math.pi * K_B * L)
        pair = CavityReflection(GOLD, PERFECT if partner_perfect else GOLD)
        e_per_area, f_per_area, rel_err, contributing, _ = casimir._matsubara_per_area(pair, L, T)
        assert contributing == 1
        i_e, i_f = mpmath_static_integrals(L, 136e-9, partner_perfect)
        half_prefactor = 0.5 * K_B * T / (8.0 * math.pi)
        for value, integral, power in ((e_per_area, i_e, 2), (f_per_area, i_f, 3)):
            error = abs(value / float(half_prefactor * integral / L**power) - 1.0)
            assert error <= rel_err
            assert error <= 1e-14  # exact to round-off

    # every term n >= 1 lies past the u-cut, and the n = 0 remainder is some
    # 1e-8 of the term, known to 1e-10 of itself: without the round-off of
    # assembling the result the estimate would fall below the true error
    @pytest.mark.parametrize("plasma_wavelength, partner_perfect, L, T", [
        (1e-9, True, 0.1, 300.0),
        (1e-9, True, 0.01, 300.0),
        (1e-9, False, 0.1, 3000.0),
        (30e-9, True, 0.01, 300.0),
    ], ids=["1nm-perfect-10cm-300K", "1nm-perfect-1cm-300K", "1nm-10cm-3000K", "30nm-perfect-1cm-300K"])
    def test_error_estimate_covers_round_off(self, plasma_wavelength, partner_perfect, L, T):
        mirror = PlasmaMirror.from_wavelength(plasma_wavelength)
        pair = CavityReflection(mirror, PERFECT if partner_perfect else mirror)
        e_per_area, f_per_area, rel_err, _ = casimir._per_area(pair, L, T)
        assert rel_err >= casimir._ROUNDOFF_ERROR
        i_e, i_f = mpmath_static_integrals(L, plasma_wavelength, partner_perfect)
        half_prefactor = 0.5 * K_B * T / (8.0 * math.pi)
        for value, integral, power in ((e_per_area, i_e, 2), (f_per_area, i_f, 3)):
            assert abs(value / float(half_prefactor * integral / L**power) - 1.0) <= rel_err


class TestUCut:
    """Every u-quadrature stops at U_SPAN, and every error estimate of a
    quadrature path adds ``_U_CUT_ERROR``: no column's share of its
    integral past the cut may exceed it."""

    PLASMAS = {f"{lp:g}": PlasmaMirror.from_wavelength(lp) for lp in (1e-9, 136e-9, 1e-6, 1e-3, 1.0)}
    PAIRS = {
        "perfect": CavityReflection(PERFECT, PERFECT),
        **{name: CavityReflection(mirror, mirror) for name, mirror in PLASMAS.items()},
        **{f"{name}-perfect": CavityReflection(mirror, PERFECT) for name, mirror in PLASMAS.items()},
    }
    LENGTHS = [1e-10, 1e-8, 1e-6, 1e-4, 0.1]
    TEMPERATURES = [3.0, 300.0, 3000.0, 1e6]

    @staticmethod
    def share_past_cut(f, depth, offset=0.0):
        """Largest |Int_U^2U f| / |offset + Int_0^2U f| over f's columns."""
        head = offset + casimir._u_quadrature(f, str, "", depth)[0]
        tail = adaptive_gauss_legendre(f, casimir._U_SPAN, 2.0 * casimir._U_SPAN, rel_tol=1e-10)
        assert tail.converged
        return float(np.max(np.abs(tail.value) / np.abs(head + tail.value)))

    @staticmethod
    def remainder_past_cut(f, perfect):
        """Largest |Int_U^2U f| / perfect over f's columns: a remainder's
        share past the cut, which the T = 0 remainder path counts against
        the closed forms ``perfect``."""
        tail = adaptive_gauss_legendre(f, casimir._U_SPAN, 2.0 * casimir._U_SPAN, rel_tol=1e-10)
        assert tail.converged
        return float(np.max(np.abs(tail.value) / perfect))

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
    def test_share_past_cut_is_within_the_added_estimate(self, pair):
        phis = np.array([1e-3, 0.4, 0.8, 1.2, 1.5, 1.57])
        shares = []
        for L in self.LENGTHS:
            direct = casimir._zero_t_inner(casimir._loop_kernels, pair, L, phis)
            shares.append(self.share_past_cut(direct, casimir._ZERO_T_DEPTH))
            remainder = casimir._zero_t_inner(casimir._deficit_kernels, pair, L, phis)
            shares.append(self.remainder_past_cut(remainder, np.repeat(casimir._PERFECT_ZERO_T, phis.size)))

            # n = 0 alone: the closed form less the remainder
            static = casimir._matsubara_block(pair, L, 1.0, 1.0, np.array([0]))
            static_term = lambda u: -static(u)
            shares.append(self.share_past_cut(static_term, casimir._REMAINDER_DEPTH, casimir._PERFECT_STATIC))
            for T in self.TEMPERATURES:
                theta = ThermalState(T).temperature_frequency
                du = 2.0 * theta * L / C
                n_max = int(casimir._U_SPAN // du)
                if n_max == 0:
                    continue
                # the first 16 terms, one halfway and the last two the sum can reach
                n = np.unique(np.clip(np.r_[np.arange(1, 17), n_max // 2, n_max - 1, n_max], 1, n_max))
                depth, _ = casimir._block_start(du)
                shares.append(self.share_past_cut(casimir._matsubara_block(pair, L, du, theta, n), depth))
        assert max(shares) <= casimir._U_CUT_ERROR


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
        e_ref, f_ref, ref_err, _, _ = casimir._matsubara_per_area(pair, L, T)
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
    # at 300 K, u_1 = 2 xi_1 L / c passes the u cut of 40 from about 24.3 um
    # on, so that only n = 0 is left
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

"""Reference values computed independently of vacuumkit.

Every function here uses its own copy of the CODATA-2018 constants and
its own formulas, so that a fault in the library cannot cancel out of a
comparison.  numpy is the only dependency, except for
``plasma_zero_t_energy_per_area``, which imports scipy when called.
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 1.054571817e-34  # J s
C = 299792458.0  # m/s
K_B = 1.380649e-23  # J/K
ZETA3 = 1.2020569031595942853997


def theta(temperature: float) -> float:
    """Temperature frequency 2 pi k_B T / hbar [rad/s]."""
    return 2.0 * math.pi * K_B * temperature / HBAR


def ideal_energy_per_area(L: float) -> float:
    return HBAR * C * math.pi**2 / (720.0 * L**3)


def ideal_force_per_area(L: float) -> float:
    return HBAR * C * math.pi**2 / (240.0 * L**4)


def perfect_thermal_per_area(L: float, temperature: float) -> tuple[float, float]:
    """(E/A, F/A) of perfect mirrors at T > 0 from the Lambert series.

    With du = 2 theta L / c and x_m = exp(-m du) the Matsubara sum of the
    perfect-mirror terms 2[u_n Li2(e^-u_n) + Li3(e^-u_n)] is

        E/A = k_B T / (8 pi L^2) * 2 S,
        S   = zeta(3)/2 + sum_m x_m / ((1 - x_m) m^3)
                        + du sum_m x_m / ((1 - x_m)^2 m^2),

    and F/A = -d(E/A)/dL = k_B T / (4 pi L^3) * [2 S + du^2 sum_m
    x_m (1 + x_m) / ((1 - x_m)^3 m)].
    """
    du = 2.0 * theta(temperature) * L / C
    m = np.arange(1.0, math.ceil(60.0 / du) + 2.0)
    x = np.exp(-m * du)
    one_minus = -np.expm1(-m * du)
    s = 0.5 * ZETA3 + np.sum(x / (one_minus * m**3)) + du * np.sum(x / (one_minus**2 * m**2))
    e_per_area = K_B * temperature / (8.0 * math.pi * L**2) * 2.0 * s
    f_extra = du * du * np.sum(x * (1.0 + x) / (one_minus**3 * m))
    f_per_area = K_B * temperature / (4.0 * math.pi * L**3) * (2.0 * s + f_extra)
    return float(e_per_area), float(f_per_area)


def plasma_zero_t_energy_per_area(L: float, plasma_wavelength: float) -> float:
    """E/A at T = 0 for two identical plasma mirrors, by scipy's QUADPACK.

    The double integral runs over the rectangular variables x = u cos(phi)
    (frequency) and y = u sin(phi) (transverse wavevector), with the
    Fresnel amplitudes written out here:

        E/A = hbar c / (32 pi^2 L^3) Int dx Int dy  y G_E(x, y).
    """
    from scipy import integrate

    kp2 = (2.0 * math.pi / plasma_wavelength) ** 2 * (2.0 * L) ** 2  # (2 L omega_p / c)^2

    def kernel(y, x):
        u = math.hypot(x, y)
        km = math.sqrt(u * u + kp2)
        r_te = (u - km) / (u + km)
        eps_u = (1.0 + kp2 / (x * x)) * u
        r_tm = (eps_u - km) / (eps_u + km)
        emu = math.exp(-u)
        return -y * (math.log1p(-r_te * r_te * emu) + math.log1p(-r_tm * r_tm * emu))

    value, _ = integrate.dblquad(kernel, 1e-12, 80.0, 0.0, 80.0, epsabs=0.0, epsrel=1e-11)
    return HBAR * C / (32.0 * math.pi**2 * L**3) * value

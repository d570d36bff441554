"""Per-mode thermal energies, the thermal weight factor, and the cutoff
energy density of the fluctuating field.

Two historical per-mode laws are provided: the first assigns ``n hbar
omega`` to a mode, the second adds the zero-point half quantum, ``(1/2 +
n) hbar omega``.  Only the second has the correct classical limit
``k_B T`` at high temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B
from .errors import _check_finite, _check_positive
from .quadrature import adaptive_gauss_legendre

_TWO_PI = 2.0 * math.pi

# temperature -> temperature frequency conversion, theta = 2 pi k_B T / hbar
_THETA_PER_KELVIN = _TWO_PI * K_B / HBAR

# above this value of hbar*omega/(k_B T) the Bose factor underflows;
# exp(-x) keeps the result finite and strictly monotone
_EXP_ARG_MAX = 700.0

_VACUUM_DENSITY_DENOM = 8.0 * math.pi**2 * C**3
_THERMAL_DENSITY_DENOM = 160.0 * math.pi**2 * C**3


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium temperature and the derived temperature frequency."""

    temperature: float  # K

    def __post_init__(self):
        object.__setattr__(
            self, "temperature", _check_positive("temperature", self.temperature, allow_zero=True)
        )

    @property
    def temperature_frequency(self) -> float:
        """theta = 2 pi k_B T / hbar [rad/s]."""
        return _THETA_PER_KELVIN * self.temperature

    @classmethod
    def from_frequency(cls, theta: float) -> "ThermalState":
        """Build the state whose temperature frequency equals ``theta``."""
        theta = _check_positive("temperature frequency", theta, allow_zero=True)
        return cls(temperature=theta / _THETA_PER_KELVIN)


def mean_photon_number(omega: float, state: ThermalState) -> float:
    """Bose occupation 1/(exp(hbar omega / k_B T) - 1); 0 at T = 0."""
    omega = _check_positive("omega", omega)
    if state.temperature == 0.0:
        return 0.0
    # k_B * T can underflow for tiny T; dividing twice keeps x finite or inf
    x = (HBAR * omega / K_B) / state.temperature
    if x > _EXP_ARG_MAX:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def mode_energy_first_law(omega: float, state: ThermalState) -> float:
    """Mode energy n hbar omega (vanishes at T = 0)."""
    return mean_photon_number(omega, state) * HBAR * omega


def mode_energy_second_law(omega: float, state: ThermalState) -> float:
    """Mode energy (1/2 + n) hbar omega, including the zero-point half quantum."""
    return (0.5 + mean_photon_number(omega, state)) * HBAR * omega


def thermal_weight(omega: float, state: ThermalState) -> float:
    """coth(hbar omega / 2 k_B T), the factor turning a zero-point mode
    energy into its thermally weighted value; equals 1 at T = 0.

    Identity: hbar omega * thermal_weight == 2 * mode_energy_second_law.
    """
    return 1.0 + 2.0 * mean_photon_number(omega, state)


@dataclass(frozen=True)
class EnergyDensity:
    """Cutoff energy density split into its vacuum and thermal addends [J/m^3]."""

    vacuum: float
    thermal: float

    @property
    def total(self) -> float:
        return self.vacuum + self.thermal


def energy_density(omega_max: float, state: ThermalState) -> EnergyDensity:
    """Energy density (hbar / 160 pi^2 c^3) (20 omega_max^4 + theta^4).

    The vacuum addend hbar omega_max^4 / (8 pi^2 c^3) diverges with the
    cutoff; the thermal addend hbar theta^4 / (160 pi^2 c^3) is finite.
    Note that the thermal coefficient written this way is 3/2 times the
    blackbody (Stefan-Boltzmann) energy density; ``blackbody_energy_density``
    below is the independent check quantifying exactly that ratio.
    """
    omega_max = _check_positive("omega_max", omega_max, allow_zero=True)
    w2 = omega_max * omega_max
    vacuum = HBAR * (w2 * w2) / _VACUUM_DENSITY_DENOM
    theta = state.temperature_frequency
    t2 = theta * theta
    thermal = HBAR * (t2 * t2) / _THERMAL_DENSITY_DENOM
    _check_finite("energy_density", vacuum + thermal, omega_max=omega_max, T=state.temperature)
    return EnergyDensity(vacuum=vacuum, thermal=thermal)


def blackbody_energy_density(state: ThermalState) -> float:
    """Blackbody energy density by direct quadrature of the mode sum,

        integral of hbar omega * n(omega, T) * omega^2 / (pi^2 c^3) d omega,

    evaluated through the substitution x = hbar omega / k_B T.  Equals
    pi^2 (k_B T)^4 / (15 hbar^3 c^3), which is 2/3 of the thermal addend of
    ``energy_density``.  The quadrature runs at relative tolerance 1e-12.
    """
    if state.temperature == 0.0:
        return 0.0

    def integrand(x):
        return x**3 / np.expm1(x)

    # x^3 e^-x tail beyond 60 is below 1e-21 of the integral
    res = adaptive_gauss_legendre(integrand, 0.0, 60.0, rel_tol=1e-12)
    scale = (K_B * state.temperature) ** 4 / (math.pi**2 * HBAR**3 * C**3)
    return scale * res.scalar

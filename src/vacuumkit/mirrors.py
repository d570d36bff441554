"""Mirror reflection models and the cavity redistribution (Airy) factor.

Two mirror variants are provided: the perfect reflector and the lossless
plasma model with dielectric function eps(i xi) = 1 + omega_p^2 / xi^2 on
the imaginary frequency axis.  All Casimir computations for real mirrors
run on the imaginary axis, where the amplitudes are real, bounded by one
in magnitude (unitarity) and transparent at high frequency.  There are no
real-axis amplitudes: below the plasma frequency a plasma mirror totally
reflects and the real-axis spectral integrand is not an ordinary
function.  ``airy_factor`` evaluates the real-axis redistribution factor
for a loop amplitude supplied by the caller.

Every amplitude method returns the pair (r_TE, r_TM) that each spectral
sum needs; a plasma mirror forms kappa and kappa_m once for both.  A perfect
mirror's pair is the scalars (-1.0, 1.0); ``reflection_amplitude_imaginary``
checks its inputs and shapes the pair to them.  A cavity of two equal
mirrors evaluates the mirror once and squares its pair, which gives the
same bits as the product of two evaluations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import C
from .errors import DomainError, SingularResonanceError, _check_positive


@dataclass(frozen=True)
class PerfectMirror:
    """Unit reflection at every frequency.

    Sign convention at the surface: TE amplitude -1, TM amplitude +1.
    Observables depend only on amplitude products and magnitudes, so the
    convention is fixed by requiring the ideal closed forms in the
    perfect-mirror limit.
    """

    def amplitude_imaginary(self, xi, k):
        return -1.0, 1.0

    def amplitude_static(self, k):
        return -1.0, 1.0


@dataclass(frozen=True)
class PlasmaMirror:
    """Lossless metal with plasma frequency omega_p.

    eps(i xi) = 1 + omega_p^2 / xi^2, kappa_m = sqrt(eps xi^2/c^2 + k^2),
    TE: (kappa - kappa_m)/(kappa + kappa_m),
    TM: (eps kappa - kappa_m)/(eps kappa + kappa_m).

    Both numerators are formed without cancellation (a = eps - 1):
    kappa_m - kappa = (omega_p/c)^2/(kappa + kappa_m),
    eps kappa - kappa_m = a (eps xi^2/c^2 + (eps+1) k^2)/(eps kappa + kappa_m).
    """

    plasma_frequency: float  # rad/s

    def __post_init__(self):
        object.__setattr__(
            self, "plasma_frequency", _check_positive("plasma frequency", self.plasma_frequency)
        )

    @property
    def plasma_wavelength(self) -> float:
        """lambda_p = 2 pi c / omega_p [m]."""
        return 2.0 * math.pi * C / self.plasma_frequency

    @classmethod
    def from_wavelength(cls, plasma_wavelength: float) -> "PlasmaMirror":
        plasma_wavelength = _check_positive("plasma wavelength", plasma_wavelength)
        return cls(plasma_frequency=2.0 * math.pi * C / plasma_wavelength)

    def amplitude_imaginary(self, xi, k):
        xi = np.asarray(xi, dtype=float)
        k = np.asarray(k, dtype=float)
        q2 = (xi / C) ** 2
        k2 = k * k
        kp2 = (self.plasma_frequency / C) ** 2
        kappa = np.sqrt(q2 + k2)
        kappa_m = np.sqrt(q2 + kp2 + k2)
        d_te = kp2 / (kappa + kappa_m)
        a = (self.plasma_frequency / xi) ** 2
        eps = 1.0 + a
        d_tm = a * (eps * q2 + (eps + 1.0) * k2) / (eps * kappa + kappa_m)
        return -d_te / (d_te + 2.0 * kappa), d_tm / (d_tm + 2.0 * kappa_m)

    def amplitude_static(self, k):
        """xi -> 0 limit at fixed k: TM -> +1, TE keeps its k dependence."""
        k = np.asarray(k, dtype=float)
        kp2 = (self.plasma_frequency / C) ** 2
        d = kp2 / (k + np.sqrt(k * k + kp2))
        return -d / (d + 2.0 * k), 1.0


Mirror = Union[PerfectMirror, PlasmaMirror]


def reflection_amplitude_imaginary(model: Mirror, xi, k):
    """Imaginary-axis (TE, TM) reflection amplitudes of one mirror, real in
    [-1, 1]: floats for scalar xi and k, else arrays of their broadcast shape.

    xi must be > 0 and k >= 0 (elementwise for array input).
    """
    xi_a = np.asarray(xi, dtype=float)
    k_a = np.asarray(k, dtype=float)
    if not (np.all(np.isfinite(xi_a)) and np.all(xi_a > 0.0)):
        raise DomainError("xi must be finite and > 0")
    if not (np.all(np.isfinite(k_a)) and np.all(k_a >= 0.0)):
        raise DomainError("k must be finite and >= 0")
    try:
        shape = np.broadcast_shapes(xi_a.shape, k_a.shape)
    except ValueError:
        raise DomainError(
            f"xi of shape {xi_a.shape} and k of shape {k_a.shape} do not broadcast"
        ) from None
    pair = model.amplitude_imaginary(xi_a, k_a)
    if shape == ():
        return tuple(float(r) for r in pair)
    return tuple(np.full(shape, r) for r in pair)


@dataclass(frozen=True)
class CavityReflection:
    """Mirror pair of a cavity; the loop amplitude is the product of the
    two single-mirror amplitudes at identical mode coordinates.  A pair of
    equal mirrors evaluates the mirror once and squares its amplitudes."""

    mirror1: Mirror
    mirror2: Mirror

    @property
    def both_perfect(self) -> bool:
        return isinstance(self.mirror1, PerfectMirror) and isinstance(self.mirror2, PerfectMirror)

    def amplitude_imaginary(self, xi, k):
        te1, tm1 = self.mirror1.amplitude_imaginary(xi, k)
        if self.mirror2 == self.mirror1:
            return te1 * te1, tm1 * tm1
        te2, tm2 = self.mirror2.amplitude_imaginary(xi, k)
        return te1 * te2, tm1 * tm2

    def amplitude_static(self, k):
        te1, tm1 = self.mirror1.amplitude_static(k)
        if self.mirror2 == self.mirror1:
            return te1 * te1, tm1 * tm1
        te2, tm2 = self.mirror2.amplitude_static(k)
        return te1 * te2, tm1 * tm2


def airy_factor(r_p: complex, kappa_L: float) -> float:
    """Cavity redistribution factor g = (1 - |r|^2) / |1 - r exp(2 i kappa L)|^2.

    ``r_p`` is the loop amplitude (product of the two mirror amplitudes)
    at the mode, ``kappa_L`` the phase kappa * L.  For |r| < 1 the factor
    lies in [(1-|r|)/(1+|r|), (1+|r|)/(1-|r|)] and averages to 1 over a
    phase period.  |r| = 1 returns 0 off resonance and raises
    SingularResonanceError on resonance.
    """
    r = complex(r_p)
    mag2 = abs(r) ** 2
    if mag2 > 1.0 + 1e-12:
        raise DomainError(f"|r_p| must not exceed 1, got {abs(r)!r}")
    num = max(1.0 - mag2, 0.0)
    denom = abs(1.0 - r * complex(math.cos(2.0 * kappa_L), math.sin(2.0 * kappa_L))) ** 2
    if denom < 1e-30 and num < 1e-30:
        raise SingularResonanceError(
            "unit-reflectivity cavity evaluated on resonance; use the closed-form "
            "perfect-mirror expressions"
        )
    return num / denom


# --- material presets ------------------------------------------------------

# name -> plasma wavelength in nm; 136 nm reproduces the conduction
# correction scale of gold and copper mirrors
DEFAULT_MATERIALS = {"gold": 136.0, "copper": 136.0}

# points at a preset file overriding/extending the built-in table
MATERIALS_ENV_VAR = "VACUUMKIT_MATERIALS"


def load_material_file(path: str) -> dict[str, float]:
    """Parse a preset file of lines ``name = <plasma wavelength in nm>``.

    Blank lines and ``#`` comments are ignored.
    """
    table: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'name = <nm>', got {raw.rstrip()!r}")
            name, _, value = line.partition("=")
            name = name.strip()
            try:
                nm = float(value.strip())
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad plasma wavelength {value.strip()!r}") from exc
            if not (math.isfinite(nm) and nm > 0.0):
                raise DomainError(f"{path}:{lineno}: plasma wavelength must be > 0")
            table[name] = nm
    return table


def material_table() -> dict[str, float]:
    """Built-in presets merged with the optional environment override file."""
    table = dict(DEFAULT_MATERIALS)
    override = os.environ.get(MATERIALS_ENV_VAR)
    if override:
        table.update(load_material_file(override))
    return table


def preset_mirror(name: str) -> PlasmaMirror:
    """Plasma mirror for a named material preset."""
    table = material_table()
    if name not in table:
        raise DomainError(f"unknown material preset {name!r}; known: {sorted(table)}")
    return PlasmaMirror.from_wavelength(table[name] * 1e-9)

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

The imaginary-axis amplitude methods return the pair (r_TE, r_TM) that
each spectral sum needs.  They take xi and the decay constant
kappa = sqrt(xi^2/c^2 + k^2), which the Casimir integrands hold as u/2L;
``reflection_amplitude_imaginary``, the entry in xi and the in-plane
wavenumber k, alone forms it.  A perfect mirror's pair is the scalars
(-1.0, 1.0).  A cavity of two equal mirrors evaluates the mirror once and squares its pair, which gives the
same bits as the product of two evaluations.  At xi -> 0 every mirror has
r_TM = 1; ``static_deficit`` returns 1 - |r_TE|, which depends on kappa
alone, and ``tm_deficit`` 1 - r_TM at any xi, neither formed by
subtraction, so they stay accurate where |r| lies within rounding of 1.

The imaginary-axis amplitudes take an optional ``Scratch``: named float64
buffers that are kept from call to call, separately in each thread.  With
one, every intermediate and the returned pair are written into its
buffers, with the ufuncs and operand grouping of the formula, so the bits
are those of a call without it, which returns new arrays.  The Casimir
engine evaluates its integrands this way and allocates no full-size array
per call.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import C
from .errors import DomainError, SingularResonanceError, _check_finite, _check_positive


# tuples of arrays a Scratch keeps, one per name, shape and count, so that a
# repeated request makes no new array objects; the cap bounds them in a
# process that meets many block sizes
_MAX_VIEWS = 1024


class Scratch(threading.local):
    """Named float64 buffers kept for reuse across calls, separately in
    each thread that uses the object.

    ``scratch(name, shape, count)`` returns ``count`` C-contiguous arrays
    of ``shape`` on the buffer ``name``, which grows to the largest size
    asked of it and is kept.  The next request for ``name`` in the same
    thread overwrites them.  ``partner`` is a second Scratch, for the other
    mirror of an unequal pair.
    """

    def __init__(self):
        self._buffers = {}
        self._views = {}  # (name, shape, count) -> arrays on the buffer name
        self._partner = None

    def __call__(self, name: str, shape: tuple, count: int) -> tuple:
        views = self._views.get((name, shape, count))
        if views is None:
            size = math.prod(shape)
            buffer = self._buffers.get(name)
            if buffer is None or buffer.size < count * size:
                buffer = self._buffers[name] = np.empty(count * size)
                self._views.clear()  # arrays on the old buffer would keep it alive
            elif len(self._views) >= _MAX_VIEWS:
                self._views.clear()
            views = self._views[name, shape, count] = tuple(
                buffer[i * size : (i + 1) * size].reshape(shape) for i in range(count)
            )
        return views

    @property
    def partner(self) -> "Scratch":
        if self._partner is None:
            self._partner = Scratch()
        return self._partner


def _fresh(name: str, shape: tuple, count: int) -> tuple:
    """New arrays for every request: the buffers of a call without a Scratch."""
    return tuple(np.empty(shape) for _ in range(count))


@dataclass(frozen=True)
class PerfectMirror:
    """Unit reflection at every frequency.

    Sign convention at the surface: TE amplitude -1, TM amplitude +1.
    Observables depend only on amplitude products and magnitudes, so the
    convention is fixed by requiring the ideal closed forms in the
    perfect-mirror limit.
    """

    # the limit omega_p -> infinity of a plasma mirror
    plasma_wavelength = 0.0

    def amplitude_imaginary(self, xi, kappa, scratch=None):
        return -1.0, 1.0

    def static_deficit(self, k):
        return 0.0

    def tm_deficit(self, xi, kappa, scratch):
        return 0.0


@dataclass(frozen=True)
class PlasmaMirror:
    """Lossless metal with plasma frequency omega_p.

    eps(i xi) = 1 + omega_p^2 / xi^2, kappa_m = sqrt(kappa^2 + omega_p^2/c^2),
    TE: (kappa - kappa_m)/(kappa + kappa_m),
    TM: (eps kappa - kappa_m)/(eps kappa + kappa_m).

    Both are formed as d/(d + positive), so |r| <= 1 by construction, with
    numerators free of cancellation (a = eps - 1):
    d_te = (omega_p/c)^2/(kappa + kappa_m), r_TE = -d_te/(d_te + 2 kappa),
    d_tm = a ((eps+1) kappa^2 - xi^2/c^2)/(eps kappa + kappa_m), r_TM = d_tm/(d_tm + 2 kappa_m).
    """

    plasma_frequency: float  # rad/s

    def __post_init__(self):
        wp = _check_positive("plasma frequency", self.plasma_frequency)
        _check_finite("(omega_p/c)^2", (wp / C) * (wp / C), plasma_frequency=wp)
        object.__setattr__(self, "plasma_frequency", wp)

    @property
    def plasma_wavelength(self) -> float:
        """lambda_p = 2 pi c / omega_p [m]."""
        return 2.0 * math.pi * C / self.plasma_frequency

    @classmethod
    def from_wavelength(cls, plasma_wavelength: float) -> "PlasmaMirror":
        plasma_wavelength = _check_positive("plasma wavelength", plasma_wavelength)
        return cls(plasma_frequency=2.0 * math.pi * C / plasma_wavelength)

    def amplitude_imaginary(self, xi, kappa, scratch=None):
        """(r_TE, r_TM) at imaginary frequency xi and decay constant kappa:
        r_TE of kappa's shape, r_TM of the broadcast shape, in the buffers of
        ``scratch``, which the next call with it overwrites, or new without
        it."""
        take = _fresh if scratch is None else scratch
        xi = np.asarray(xi, dtype=float)
        kappa = np.asarray(kappa, dtype=float)
        kappa_m, d_tm, work = self._tm_parts(xi, kappa, take)
        d_te, two_kappa = take("plasma te", kappa.shape, 2)
        np.add(kappa, kappa_m, out=d_te)
        np.divide((self.plasma_frequency / C) ** 2, d_te, out=d_te)
        # r_TE = -d_te / (d_te + 2 kappa), r_TM = d_tm / (d_tm + 2 kappa_m)
        np.multiply(2.0, kappa, out=two_kappa)
        np.add(d_te, two_kappa, out=two_kappa)
        np.negative(d_te, out=d_te)
        np.divide(d_te, two_kappa, out=d_te)
        np.multiply(2.0, kappa_m, out=kappa_m)
        np.add(d_tm, kappa_m, out=work)
        np.divide(d_tm, work, out=d_tm)
        return d_te, d_tm

    def tm_deficit(self, xi, kappa, scratch):
        """1 - r_TM = 2 kappa_m / (d_tm + 2 kappa_m) at imaginary frequency xi
        and decay constant kappa, of their broadcast shape, in the buffers
        of ``scratch``, which the next call with it overwrites."""
        kappa_m, d_tm, work = self._tm_parts(np.asarray(xi, dtype=float), np.asarray(kappa, dtype=float), scratch)
        np.multiply(2.0, kappa_m, out=kappa_m)
        np.add(d_tm, kappa_m, out=work)
        np.divide(kappa_m, work, out=d_tm)
        return d_tm

    def _tm_parts(self, xi, kappa, take):
        """kappa_m = sqrt(kappa^2 + kp^2) of kappa's shape, and d_tm with a
        free buffer of the broadcast shape, all from ``take``."""
        kp2 = (self.plasma_frequency / C) ** 2
        # factors of xi alone keep xi's shape, those of kappa alone kappa's
        q2, a, eps, eps_1 = take("plasma xi", xi.shape, 4)
        kappa2, kappa_m = take("plasma kappa", kappa.shape, 2)
        work, d_tm = take("plasma", np.broadcast(xi, kappa).shape, 2)
        np.divide(xi, C, out=q2)
        np.square(q2, out=q2)
        np.square(kappa, out=kappa2)
        np.add(kappa2, kp2, out=kappa_m)
        np.sqrt(kappa_m, out=kappa_m)
        np.divide(self.plasma_frequency, xi, out=a)
        np.square(a, out=a)
        np.add(1.0, a, out=eps)
        # d_tm = a ((eps + 1) kappa^2 - q2) / (eps kappa + kappa_m)
        np.add(eps, 1.0, out=eps_1)
        np.multiply(eps_1, kappa2, out=work)
        np.subtract(work, q2, out=work)
        np.multiply(a, work, out=work)
        np.multiply(eps, kappa, out=d_tm)
        np.add(d_tm, kappa_m, out=d_tm)
        np.divide(work, d_tm, out=d_tm)
        return kappa_m, d_tm, work

    def static_deficit(self, k):
        """1 - |r_TE| = 2k/(d + 2k) at xi -> 0 and in-plane wavenumber k."""
        k = np.asarray(k, dtype=float)
        kp2 = (self.plasma_frequency / C) ** 2
        d = kp2 / (k + np.sqrt(k * k + kp2))
        return 2.0 * k / (d + 2.0 * k)


Mirror = Union[PerfectMirror, PlasmaMirror]


def reflection_amplitude_imaginary(model: Mirror, xi, k):
    """Imaginary-axis (TE, TM) reflection amplitudes of one mirror, real in
    [-1, 1]: floats for scalar xi and k, else new arrays of their broadcast
    shape.

    xi must be > 0 and k >= 0 (elementwise for array input); the mirror
    gets kappa = sqrt(xi^2/c^2 + k^2).  DomainError names the first xi and
    k at which an amplitude is not finite, where xi/c, k or omega_p/xi is
    so far out of range that its square overflows or underflows.
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
    with np.errstate(all="ignore"):
        pair = model.amplitude_imaginary(xi_a, np.sqrt(np.square(xi_a / C) + np.square(k_a)))
    finite = np.isfinite(pair[0]) & np.isfinite(pair[1])
    if not np.all(finite):
        i = np.argmin(np.broadcast_to(finite, shape))
        xi_i, k_i = (float(np.broadcast_to(a, shape).flat[i]) for a in (xi_a, k_a))
        raise DomainError(f"reflection amplitudes are not finite at xi={xi_i!r} rad/s, k={k_i!r} 1/m")
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

    @property
    def max_plasma_wavelength(self) -> float:
        """The larger plasma wavelength of the two mirrors, 0 for a perfect one."""
        return max(self.mirror1.plasma_wavelength, self.mirror2.plasma_wavelength)

    def amplitude_imaginary(self, xi, kappa, scratch=None):
        """Loop amplitudes (r_TE, r_TM) at xi and kappa, written over the
        first mirror's arrays: in ``scratch``, whose ``partner`` holds the
        second mirror's of an unequal pair, or new without it."""
        te1, tm1 = self.mirror1.amplitude_imaginary(xi, kappa, scratch)
        if self.mirror2 == self.mirror1:
            return _product(te1, te1), _product(tm1, tm1)
        te2, tm2 = self.mirror2.amplitude_imaginary(xi, kappa, None if scratch is None else scratch.partner)
        return _product(te1, te2), _product(tm1, tm2)

    def static_deficit(self, k):
        """1 - r_TE of the loop at xi -> 0, from the mirrors' deficits:
        1 - (1 - delta_1)(1 - delta_2) = delta_1 + delta_2 (1 - delta_1)."""
        delta1 = self.mirror1.static_deficit(k)
        if self.mirror2 == self.mirror1:
            return delta1 * (2.0 - delta1)
        return delta1 + self.mirror2.static_deficit(k) * (1.0 - delta1)

    def tm_deficit(self, xi, kappa, scratch):
        """1 - r_TM of the loop at xi and kappa, delta_1 + delta_2 (1 - delta_1)
        as in ``static_deficit``, written over the first mirror's array in
        ``scratch``, whose ``partner`` holds the second mirror's of an
        unequal pair; a perfect mirror's deficit, 0, drops out exactly."""
        delta1 = self.mirror1.tm_deficit(xi, kappa, scratch)
        delta2 = delta1 if self.mirror2 == self.mirror1 else self.mirror2.tm_deficit(xi, kappa, scratch.partner)
        if isinstance(delta1, float) or isinstance(delta2, float):
            return delta2 if isinstance(delta1, float) else delta1
        (work,) = scratch("loop deficit", delta1.shape, 1)
        np.subtract(1.0, delta1, out=work)
        np.multiply(delta2, work, out=work)
        return np.add(delta1, work, out=delta1)


def _product(r1, r2):
    """r1 * r2, written over r1 or else r2 where that is an array; a mirror
    returns arrays of its own, so no caller's array is overwritten."""
    if isinstance(r1, np.ndarray):
        return np.multiply(r1, r2, out=r1)
    if isinstance(r2, np.ndarray):
        return np.multiply(r1, r2, out=r2)
    return r1 * r2


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

"""Casimir force and energy between plane mirrors, and the proximity
mapping to the sphere-plane geometry.

Perfect mirrors use the closed forms

    F = hbar c pi^2 A / (240 L^4),    E = hbar c pi^2 A / (720 L^3),

with force positive for attraction and energy positive as the magnitude
of the binding energy (the physical binding energy is -E), so that
F = -dE/dL holds for the reported quantities.

Real mirrors are evaluated on the imaginary frequency axis, where the
spectral integrand is smooth and free of the oscillations of the
real-axis form.  After the substitution u = 2 kappa L that compresses the
exponential tail, the zero-temperature results per unit area read

    E/A = hbar c / (32 pi^2 L^3) * Int dphi sin(phi) Int du u^2 G_E(u, phi)
    F/A = hbar c / (32 pi^2 L^4) * Int dphi sin(phi) Int du u^3 G_F(u, phi)

with the polarization-summed kernels

    G_E = sum_p -ln(1 - r_p e^-u),   G_F = sum_p r_p e^-u / (1 - r_p e^-u),

r_p the loop amplitude of the mirror pair at xi = (c u / 2L) cos(phi),
k = (u / 2L) sin(phi).  At finite temperature the xi integral becomes the
Matsubara sum over xi_n = n * 2 pi k_B T / hbar with the n = 0 term at
half weight:

    E/A = k_B T / (8 pi L^2) * Sum'_n Int_{u_n} du u   G_E(u; xi_n)
    F/A = k_B T / (8 pi L^3) * Sum'_n Int_{u_n} du u^2 G_F(u; xi_n)

where u_n = 2 xi_n L / c.  The T = 0 operations recover the closed forms
for perfect mirrors to machine precision.

A perfect pair at T > 0 needs no quadrature: every Matsubara term
integrates in closed form to polylogarithms of exp(-u_n), and the sum over
n is a Lambert series of at most 74 terms (``_perfect_thermal_per_area``).
Where t = 2 k_B T L / (hbar c) <= 0.087 the low-temperature form of Brown
and Maclay replaces the series; it reduces to the closed forms as T -> 0.
Both report a round-off bound of 32 eps as their error estimate.

Every u-integral runs through one batched routine, ``_u_quadrature``: a
vector-valued quadrature over u in [0, 80], one column per integral, each
column held to the inner tolerance on its own.  At T = 0 each refinement
step of the outer phi quadrature evaluates the phi integrand once, at the
21 nodes of the first panel or the 42 nodes of both halves of a bisected
one, and so runs one u-quadrature with twice as many columns.  The
Matsubara sum runs n = 0 alone and n >= 1 in blocks of 128 terms, two
columns per term, on u = u_n + s, s in [0, 80].

The n = 0 kernels have a log singularity at u = 0.  Every supported pair
reflects fully there (r_p = 1 at k = 0), so each kernel splits into that
of a perfect pair, which integrates to 2 zeta(3) (energy) and 4 zeta(3)
(force) summed over polarizations, and a remainder that is smooth at
u = 0 (``_static_remainder``); only the remainder is integrated.

Terms fall monotonically in n for every supported pair (r_TE depends on
kappa = u/2L only, r_TM falls with xi, and the lower limit u_n rises) and
vanish past n_max = floor(80/du), where the u-cut drops them.  After term
N the rest of the sum is therefore at most (n_max - N)|term_N|.  The sum
stops at the first N where that bound is at most 1e-10 of the total for
energy and force, reports it as the tail error, and raises
ConvergenceError past 1,000,000 terms.

``_per_area(mirrors, L, T)`` is the single dispatch point: it picks the
closed form, the perfect-pair series or low-T form, the T = 0 quadrature
or the Matsubara sum, flags a result with few contributing Matsubara terms
and raises ConvergenceError, naming the path, L and T, above the error
ceiling.  Every public operation, the sweep and the sphere-plane mapping
are built on it.

All quadratures and sums run in a fixed order; identical inputs give
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B
from .errors import ConvergenceError, DomainError, _check_integer, _check_positive
from .mirrors import CavityReflection, Mirror, PerfectMirror
from .planck import ThermalState
from .quadrature import adaptive_gauss_legendre

# exp(-u) beyond this u is below 1.8e-35; irrelevant against the 1e-9 targets
_U_SPAN = 80.0

# inner tolerance is kept a decade and a half below the outer one so the
# outer refinement never chases inner quadrature noise
_OUTER_REL_TOL = 3e-9
_INNER_REL_TOL = 1e-10

_MATSUBARA_TERM_REL = 1e-10
_MATSUBARA_MAX_TERMS = 1_000_000
# terms per Matsubara block; larger blocks make numpy temporaries that the
# allocator returns to the system after every use, and the page faults cost
# more than the larger batch saves
_BLOCK_TERMS = 128
_FEW_TERMS_WARN = 10

# reported relative error must stay below this, else ConvergenceError
_ERROR_CEILING = 1e-8

# a sweep holds five float64 arrays of this many points, each at most 8 MB
_MAX_POINTS = 1_000_000

_ZETA3 = 1.2020569031595942
# Int_0^inf du u G_E and Int_0^inf du u^2 G_F of a perfect pair at n = 0,
# summed over both polarizations
_PERFECT_STATIC = np.array([2.0 * _ZETA3, 4.0 * _ZETA3])
# t = 2 k_B T L / (hbar c) at and below which a perfect pair takes the
# low-temperature form; above it the Lambert series needs at most 74 terms
_LOW_T_SWITCH = 0.087
# the Lambert series stops at m du >= 40, where x_m < e^-40
_LAMBERT_SPAN = 40.0
# relative error bound of the perfect-pair thermal path: round-off of at most
# 74 positive terms of a few correctly rounded operations each, of their
# sum, and of du and the prefactor; both truncations lie below 1e-18
_PERFECT_THERMAL_ERROR = 32.0 * float(np.finfo(float).eps)

FLAG_PLANE_LIMIT = "A_not_much_larger_than_L_squared"
FLAG_PROXIMITY = "R_not_much_larger_than_L"
FLAG_FEW_MATSUBARA = "few_matsubara_terms"


# --- ideal closed forms ----------------------------------------------------


def _length_power(L: float, n: int) -> float:
    """L**n of a length L > 0; DomainError naming L where it overflows or
    underflows to 0."""
    L = _check_positive("L", L)
    try:
        power = L**n
    except OverflowError:
        raise DomainError(f"L={L!r} m is too large: L**{n} overflows") from None
    if power == 0.0:
        raise DomainError(f"L={L!r} m is too small: L**{n} underflows to 0")
    return power


def _nonzero(value: float, L: float) -> float:
    """A closed form in 1/L**n; DomainError naming L where it underflows to 0."""
    if value == 0.0:
        raise DomainError(f"L={float(L)!r} m is too large: the closed form underflows to 0")
    return value


def ideal_force_per_area(L: float) -> float:
    """hbar c pi^2 / (240 L^4) [N/m^2]."""
    return _nonzero(HBAR * C * math.pi**2 / (240.0 * _length_power(L, 4)), L)


def ideal_energy_per_area(L: float) -> float:
    """hbar c pi^2 / (720 L^3) [J/m^2]."""
    return _nonzero(HBAR * C * math.pi**2 / (720.0 * _length_power(L, 3)), L)


def ideal_force(L: float, A: float) -> float:
    """Perfect-mirror attraction at T = 0 [N]; scales as 1/L^4."""
    A = _check_positive("A", A)
    return A * ideal_force_per_area(L)


def ideal_energy(L: float, A: float) -> float:
    """Perfect-mirror binding-energy magnitude at T = 0 [J]; equals F L / 3."""
    A = _check_positive("A", A)
    return A * ideal_energy_per_area(L)


# --- configuration and result records --------------------------------------


@dataclass(frozen=True)
class CavityConfig:
    """Plane-plane cavity: distance L, area A, temperature, mirror pair."""

    L: float
    A: float
    temperature: float
    mirrors: CavityReflection

    def __post_init__(self):
        object.__setattr__(self, "L", _check_positive("L", self.L))
        object.__setattr__(self, "A", _check_positive("A", self.A))
        object.__setattr__(
            self, "temperature", _check_positive("temperature", self.temperature, allow_zero=True)
        )

    @property
    def plane_limit_ok(self) -> bool:
        """Large-plate condition A >> L^2, checked as A > 100 L^2."""
        return self.A > 100.0 * _length_power(self.L, 2)

    @classmethod
    def symmetric(cls, L: float, A: float, temperature: float, mirror: Mirror) -> "CavityConfig":
        return cls(L=L, A=A, temperature=temperature, mirrors=CavityReflection(mirror, mirror))


@dataclass(frozen=True)
class ForceResult:
    """Plane-plane observables with correction factors and error estimate.

    force [N] is positive for attraction, energy [J] positive as the
    binding-energy magnitude; eta_E = energy / ideal_energy and
    eta_F = force / ideal_force.  numerical_error is the relative upper
    estimate accumulated by the quadrature and summation routines (0 for
    closed forms).  eta_T = F(T)/F(0) is attached by the thermal path.
    """

    force: float
    energy: float
    eta_E: float
    eta_F: float
    numerical_error: float
    flags: tuple[str, ...] = ()
    eta_T: float | None = None


@dataclass(frozen=True)
class SpherePlaneConfig:
    """Sphere of radius R above a plane at closest approach L."""

    R: float
    L: float
    temperature: float
    mirrors: CavityReflection

    def __post_init__(self):
        object.__setattr__(self, "R", _check_positive("R", self.R))
        object.__setattr__(self, "L", _check_positive("L", self.L))
        object.__setattr__(
            self, "temperature", _check_positive("temperature", self.temperature, allow_zero=True)
        )

    @property
    def proximity_ok(self) -> bool:
        """Proximity-mapping condition R >> L, checked as R > 100 L."""
        return self.R > 100.0 * self.L


@dataclass(frozen=True)
class SpherePlaneResult:
    """Proximity-theorem force 2 pi R E_pp(L)/A and the plane-plane eta."""

    force: float
    eta: float
    plane_energy_per_area: float
    numerical_error: float
    flags: tuple[str, ...] = ()


# --- spectral kernels -------------------------------------------------------


def _kernels(amplitudes, u):
    """Polarization-summed energy and force kernels at exp(-u) of the loop
    amplitudes ``(r_TE, r_TM)``."""
    r_te, r_tm = amplitudes
    emu = np.exp(-u)
    x_te = r_te * emu
    x_tm = r_tm * emu
    g_e = -(np.log1p(-x_te) + np.log1p(-x_tm))
    g_f = x_te / (1.0 - x_te) + x_tm / (1.0 - x_tm)
    return g_e, g_f


def _static_remainder(amplitudes, u):
    """The n = 0 energy and force kernels of the static loop amplitudes
    ``(r_TE, r_TM)`` less those of a perfect pair.

    Every supported pair has r_p = 1 at k = 0.  With d = 1 - r_p each
    polarization's kernel splits exactly into its perfect-pair part and a
    remainder that stays finite as u -> 0, where d/u does:

        -ln(1 - r e^-u) = -ln(1 - e^-u) - log1p(d / expm1(u)),
        r e^-u / (1 - r e^-u) = 1 / expm1(u) - d / ((expm1(u) + d)(-expm1(-u))).
    """
    em1 = np.expm1(u)
    one_minus = -np.expm1(-u)
    g_e = g_f = 0.0
    for r in amplitudes:
        d = 1.0 - r
        g_e = g_e - np.log1p(d / em1)
        g_f = g_f - d / ((em1 + d) * one_minus)
    return g_e, g_f


def _relative(error, value) -> float:
    """Largest error / |value| over components; a zero value counts as 1."""
    scale = np.abs(value)
    scale[scale == 0.0] = 1.0
    return float(np.max(error / scale))


def _u_quadrature(f, names, context: str):
    """(value, absolute error) of every column of f over u in [0, U_SPAN].

    f maps nodes of shape (q,) to values of shape (q, 2c): c energy
    columns, then the c force columns.  Each column meets the inner
    tolerance on its own, as the quadrature ranks panels per column in
    units of its own integral of |f|.  A ConvergenceError names the
    failing column pairs by ``names(mask)`` and adds ``context``.
    """
    res = adaptive_gauss_legendre(f, 0.0, _U_SPAN, rel_tol=_INNER_REL_TOL)
    if not res.converged:
        failing = (res.error > _INNER_REL_TOL * np.abs(res.value)).reshape(2, -1).any(axis=0)
        raise ConvergenceError(
            f"inner u-quadrature did not converge at {names(failing if failing.any() else ~failing)} "
            f"({context}, error estimate {float(np.max(res.error))})"
        )
    return res.value, res.error


def _zero_temperature_per_area(cavity: CavityReflection, L: float):
    """(E/A, F/A, relative error) at T = 0 by the (u, phi) double quadrature.

    Each call of the phi-integrand at m nodes (21 or 42, one outer
    refinement step) runs one batched u-quadrature: columns j and m + j
    are the energy and force integrals at phi_j.
    """
    worst_inner = [0.0]

    def outer_integrand(phis):
        cos_phi = np.cos(phis)
        sin_phi = np.sin(phis)

        def inner(u):
            # the full (u, phi) grid: a perfect pair's amplitudes are scalars
            uc = np.broadcast_to(u[:, None], (u.size, phis.size))
            xi = (0.5 * C / L) * cos_phi * uc
            k = (0.5 / L) * sin_phi * uc
            g_e, g_f = _kernels(cavity.amplitude_imaginary(xi, k), uc)
            u2 = uc * uc
            return np.concatenate([u2 * g_e, u2 * uc * g_f], axis=1)

        value, error = _u_quadrature(
            inner, lambda bad: "phi=" + ", ".join(f"{p:.6f}" for p in phis[bad]), f"L={L:.3e} m"
        )
        worst_inner[0] = max(worst_inner[0], _relative(error, value))
        return sin_phi[:, None] * value.reshape(2, phis.size).T

    outer = adaptive_gauss_legendre(outer_integrand, 0.0, 0.5 * math.pi, rel_tol=_OUTER_REL_TOL)
    if not outer.converged:
        raise ConvergenceError(
            f"angular quadrature did not converge (L={L:.3e} m, error estimate {outer.error})"
        )

    j_e, j_f = outer.value
    prefactor = HBAR * C / (32.0 * math.pi**2)
    rel_err = _relative(outer.error, outer.value) + worst_inner[0]
    return prefactor * j_e / L**3, prefactor * j_f / L**4, rel_err


def _matsubara_per_area(cavity: CavityReflection, L: float, temperature: float):
    """(E/A, F/A, relative error, contributing terms) of the Matsubara sum.

    The relative error adds the quadrature errors of the summed terms and
    the tail bound.  Contributing terms are counted over n = 0 and the
    first block; as terms fall with n, the count is exact below its size.
    """
    theta = ThermalState(temperature).temperature_frequency
    du = 2.0 * theta * L / C  # spacing of u_n = 2 xi_n L / c
    # later terms start past the u-cut; a float, as it may exceed any integer type
    n_max = _U_SPAN // du if du > 0.0 else math.inf
    context = f"L={L:.3e} m, T={temperature} K"

    def static_term(u):
        g_e, g_f = _static_remainder(cavity.amplitude_static((0.5 / L) * u), u)
        return np.stack([u * g_e, u * u * g_f], axis=-1)

    # n = 0: the perfect-pair parts in closed form (their share past the
    # u-cut is below 1e-30), and the smooth remainder by quadrature
    value, error = _u_quadrature(static_term, lambda bad: "n=0", context)
    value = value + _PERFECT_STATIC
    totals, quad_err, tail = 0.5 * value, 0.5 * error, np.zeros(2)
    mags = np.max(np.abs(totals), keepdims=True)

    for n_lo in range(1, _MATSUBARA_MAX_TERMS + 1, _BLOCK_TERMS):
        if n_lo > n_max:
            break
        n = np.arange(n_lo, n_lo + _BLOCK_TERMS)
        n = n[n <= n_max]
        u_n, xi = n * du, n * theta

        def block(s):
            sc = s[:, None]
            u = u_n + sc
            k = (0.5 / L) * np.sqrt(sc * (sc + 2.0 * u_n))
            g_e, g_f = _kernels(cavity.amplitude_imaginary(xi, k), u)
            return np.concatenate([u * g_e, u * u * g_f], axis=1)

        value, error = _u_quadrature(block, lambda bad: "n=" + ", ".join(map(str, n[bad])), context)
        terms = value.reshape(2, -1)
        running = np.cumsum(np.concatenate([totals[:, None], terms], axis=1), axis=1)[:, 1:]
        bound = (n_max - n) * np.abs(terms)
        stop = np.flatnonzero(np.all(bound <= _MATSUBARA_TERM_REL * np.abs(running), axis=0))
        last = stop[0] if stop.size else n.size - 1
        totals = running[:, last]
        quad_err = quad_err + error.reshape(2, -1)[:, : last + 1].sum(axis=1)
        if n_lo == 1:
            mags = np.concatenate([mags, np.max(np.abs(terms[:, : last + 1]), axis=0)])
        if stop.size:
            tail = bound[:, last]
            break
    else:
        raise ConvergenceError(f"Matsubara sum exceeded {_MATSUBARA_MAX_TERMS} terms ({context})")

    threshold = _MATSUBARA_TERM_REL * max(float(np.max(np.abs(totals))), 1e-300)
    prefactor = K_B * temperature / (8.0 * math.pi)
    rel_err = _relative(quad_err + tail, totals)
    return prefactor * totals[0] / L**2, prefactor * totals[1] / L**3, rel_err, int(np.sum(mags >= threshold))


def _perfect_thermal_per_area(L: float, temperature: float):
    """(E/A, F/A, relative error, few terms, path) of a perfect pair at T > 0.

    Every Matsubara term integrates in closed form: with u_n = n du,
    E_n = 2[u_n Li2 + Li3] and F_n = 2[u_n^2 Li1 + 2 u_n Li2 + 2 Li3] at
    exp(-u_n).  Summed over n they form Lambert series in x_m = exp(-m du):

        E/A = k_B T / (8 pi L^2) * [zeta(3) + 2 sum_m (q_m/m^3 + du S1_m/m^2)]
        F/A = k_B T / (8 pi L^3) * [2 zeta(3)
                  + 2 sum_m (2 q_m/m^3 + 2 du S1_m/m^2 + du^2 S2_m/m)]

    with q = x/(1-x), S1 = x/(1-x)^2 and S2 = x(1+x)/(1-x)^3, truncated at
    m du >= 40.  For t = du / 2 pi <= 0.087 the low-temperature form of
    Brown and Maclay (Phys. Rev. 184, 1272 (1969)) takes over:

        E/E_ideal = 1 + (45 zeta(3) / pi^3) t^3 - t^4,   F/F_ideal = 1 + t^4/3.

    It leaves out terms of order 40 t exp(-2 pi / t), below 1e-30 at the
    switch (measured against 60-digit sums), and keeps the series from
    growing as 40/du at small du.  Both branches report the round-off
    bound ``_PERFECT_THERMAL_ERROR``.

    Fewer than ten terms contribute, as the Matsubara sum counts them,
    exactly when the term n = 9 lies past the u-cut or below 1e-10 of the
    total: terms fall with n >= 1, n = 0 contributes above the switch, and
    force terms and totals bound the energy ones.  Below the switch the
    flag stays off: ten or more terms contribute wherever du > 1e-9, and
    below that every term is a vanishing share of the total.
    """
    theta = ThermalState(temperature).temperature_frequency
    du = 2.0 * theta * L / C
    t = du / (2.0 * math.pi)  # 2 k_B T L / (hbar c)
    if t <= _LOW_T_SWITCH:
        e_per_area = ideal_energy_per_area(L) * (1.0 + (45.0 * _ZETA3 / math.pi**3) * t**3 - t**4)
        f_per_area = ideal_force_per_area(L) * (1.0 + t**4 / 3.0)
        return e_per_area, f_per_area, _PERFECT_THERMAL_ERROR, False, "perfect-pair low-T form"

    m = np.arange(1.0, math.ceil(_LAMBERT_SPAN / du) + 1.0)
    x = np.exp(-m * du)
    one_minus = -np.expm1(-m * du)
    q = x / one_minus
    s1 = q / one_minus
    s2 = s1 * (1.0 + x) / one_minus
    li3_part = np.sum(q / m**3)
    li2_part = du * np.sum(s1 / m**2)
    li1_part = du * du * np.sum(s2 / m)
    s_e = _ZETA3 + 2.0 * (li3_part + li2_part)
    s_f = 2.0 * _ZETA3 + 2.0 * (2.0 * li3_part + 2.0 * li2_part + li1_part)

    n = _FEW_TERMS_WARN - 1
    u = n * du
    few = n > _U_SPAN // du or (
        2.0 * np.sum(x**n * (u * u / m + 2.0 * u / m**2 + 2.0 / m**3)) < _MATSUBARA_TERM_REL * s_f
    )
    prefactor = K_B * temperature / (8.0 * math.pi)
    e_per_area, f_per_area = prefactor * s_e / L**2, prefactor * s_f / L**3
    return e_per_area, f_per_area, _PERFECT_THERMAL_ERROR, bool(few), "perfect-pair series"


# --- public operations ------------------------------------------------------


def _per_area(mirrors: CavityReflection, L: float, temperature: float):
    """(E/A, F/A, relative error, flags) of a plane-plane cavity.

    The one place that picks the path: for a perfect pair the closed forms
    at T = 0 and the Lambert series or low-temperature form at T > 0
    (``_perfect_thermal_per_area``); for any other pair the (u, phi)
    quadrature at T = 0 and the Matsubara sum at T > 0.  Raises
    ConvergenceError, naming the path, L and T, when the error estimate
    exceeds the ceiling.
    """
    # DomainError where L**4, the highest power any path divides by, or the
    # smallest closed form leaves the float range
    ideal_force_per_area(L)
    few = False
    if temperature == 0.0 and mirrors.both_perfect:
        path = "closed form"
        e_per_area, f_per_area, rel_err = ideal_energy_per_area(L), ideal_force_per_area(L), 0.0
    elif temperature == 0.0:
        path = "T = 0 quadrature"
        e_per_area, f_per_area, rel_err = _zero_temperature_per_area(mirrors, L)
    elif mirrors.both_perfect:
        e_per_area, f_per_area, rel_err, few, path = _perfect_thermal_per_area(L, temperature)
    else:
        path = "Matsubara sum"
        e_per_area, f_per_area, rel_err, contributing = _matsubara_per_area(mirrors, L, temperature)
        few = contributing < _FEW_TERMS_WARN
    if rel_err > _ERROR_CEILING:
        raise ConvergenceError(
            f"error estimate {rel_err:.2e} above ceiling {_ERROR_CEILING:.0e} "
            f"({path}, L={L:.3e} m, T={temperature} K)"
        )
    return e_per_area, f_per_area, rel_err, (FLAG_FEW_MATSUBARA,) if few else ()


def _plane_result(config: CavityConfig) -> ForceResult:
    """ForceResult of a cavity at its temperature; eta_T is set for T > 0."""
    e_per_area, f_per_area, rel_err, flags = _per_area(config.mirrors, config.L, config.temperature)
    eta_t = None
    if config.temperature > 0.0:
        f0_per_area = _per_area(config.mirrors, config.L, 0.0)[1]
        eta_t = config.A * f_per_area / (config.A * f0_per_area)
    return ForceResult(
        force=config.A * f_per_area,
        energy=config.A * e_per_area,
        eta_E=e_per_area / ideal_energy_per_area(config.L),
        eta_F=f_per_area / ideal_force_per_area(config.L),
        numerical_error=rel_err,
        flags=(() if config.plane_limit_ok else (FLAG_PLANE_LIMIT,)) + flags,
        eta_T=eta_t,
    )


def real_mirror_energy(config: CavityConfig) -> ForceResult:
    """Zero-temperature energy (and force) of a real-mirror cavity.

    Perfect pairs route to the closed forms; anything else goes through
    the imaginary-axis quadrature.  Requires config.temperature == 0; use
    ``thermal_force`` for finite temperature.
    """
    if config.temperature != 0.0:
        raise DomainError("real_mirror_energy requires temperature == 0; use thermal_force")
    return _plane_result(config)


def real_mirror_force(config: CavityConfig) -> ForceResult:
    """Zero-temperature force (and energy); see ``real_mirror_energy``."""
    if config.temperature != 0.0:
        raise DomainError("real_mirror_force requires temperature == 0; use thermal_force")
    return _plane_result(config)


def thermal_force(config: CavityConfig) -> ForceResult:
    """Finite-temperature force (and free energy): the Matsubara sum, or
    for perfect mirrors its closed-form Lambert series or low-temperature
    form.

    T = 0 reduces exactly to ``real_mirror_force``.  The result carries
    eta_T = F(T)/F(0) and warns when fewer than 10 Matsubara terms
    contribute (large-T or large-L regime).
    """
    return _plane_result(config)


def thermal_energy(config: CavityConfig) -> ForceResult:
    """Finite-temperature free energy (and force); same record as
    ``thermal_force``, provided for callers whose primary output is the
    energy correction factor."""
    return _plane_result(config)


# --- correction-factor sweep -------------------------------------------------


@dataclass(frozen=True)
class EtaSweepResult:
    """Log-spaced eta_E curves: conduction-only, thermal-only, combined,
    and the product of the two single-effect columns.  numerical_error is
    the largest relative error estimate of the results behind the curves
    (0 when all of them are closed forms)."""

    lengths: np.ndarray
    eta_plasma: np.ndarray
    eta_thermal: np.ndarray
    eta_full: np.ndarray
    numerical_error: float

    @property
    def eta_product(self) -> np.ndarray:
        return self.eta_plasma * self.eta_thermal

    def rows(self):
        return zip(self.lengths, self.eta_plasma, self.eta_thermal, self.eta_full, self.eta_product)


def eta_sweep(
    L_min: float,
    L_max: float,
    points: int,
    mirror: Mirror,
    temperature: float,
) -> EtaSweepResult:
    """Sweep the energy correction factors over log-spaced distances.

    eta_plasma is evaluated at T = 0 with the given mirror on both plates,
    eta_thermal with perfect mirrors at the given temperature, eta_full
    with both effects at once.  The combined correction is approximately
    the product of the two single-effect columns because the two effects
    matter in non-overlapping distance ranges.
    """
    L_min = _check_positive("L_min", L_min)
    L_max = _check_positive("L_max", L_max)
    if not L_min < L_max:
        raise DomainError(f"need L_min < L_max, got [{L_min!r}, {L_max!r}]")
    points = _check_integer("points", points, 2, _MAX_POINTS)
    temperature = _check_positive("temperature", temperature, allow_zero=True)

    real = CavityReflection(mirror, mirror)
    perfect = CavityReflection(PerfectMirror(), PerfectMirror())
    lengths = np.geomspace(L_min, L_max, points)
    eta_plasma = np.empty(points)
    eta_thermal = np.empty(points)
    eta_full = np.empty(points)
    worst_error = 0.0

    def eta(mirrors, L, T):
        nonlocal worst_error
        e_per_area, _, rel_err, _ = _per_area(mirrors, L, T)
        worst_error = max(worst_error, rel_err)
        return e_per_area / ideal_energy_per_area(L)

    for i, L in enumerate(lengths):
        L = float(L)
        eta_plasma[i] = eta(real, L, 0.0)
        eta_thermal[i] = eta(perfect, L, temperature)
        # a perfect pair or T = 0 leaves one effect: eta_full repeats the other
        if real.both_perfect:
            eta_full[i] = eta_thermal[i]
        elif temperature == 0.0:
            eta_full[i] = eta_plasma[i]
        else:
            eta_full[i] = eta(real, L, temperature)

    return EtaSweepResult(
        lengths=lengths,
        eta_plasma=eta_plasma,
        eta_thermal=eta_thermal,
        eta_full=eta_full,
        numerical_error=worst_error,
    )


# --- sphere-plane proximity mapping ------------------------------------------


def sphere_plane_force(config: SpherePlaneConfig) -> SpherePlaneResult:
    """Proximity-theorem sphere-plane force F = 2 pi R * E_pp(L)/A.

    E_pp/A is the plane-plane energy per unit area at the closest-approach
    distance, same mirrors and temperature, so the returned eta equals the
    plane-plane eta_E at that distance.  The 2 pi R prefactor is the
    standard Derjaguin coefficient of the mapping.
    """
    e_per_area, _, rel_err, flags = _per_area(config.mirrors, config.L, config.temperature)
    return SpherePlaneResult(
        force=2.0 * math.pi * config.R * e_per_area,
        eta=e_per_area / ideal_energy_per_area(config.L),
        plane_energy_per_area=e_per_area,
        numerical_error=rel_err,
        flags=(() if config.proximity_ok else (FLAG_PROXIMITY,)) + flags,
    )

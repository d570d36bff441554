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

r_p the loop amplitude of the mirror pair at xi = (c u / 2L) cos(phi)
and kappa = u / 2L (in-plane k = kappa sin(phi)).  At finite temperature
the xi integral becomes the Matsubara sum over xi_n = n * 2 pi k_B T / hbar
with the n = 0 term at half weight:

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
vector-valued quadrature over u in [0, 40], one column per integral, each
column held to the inner tolerance on its own.  Past the cut at 40 no
column holds more than 4.6e-14 of its integral, and every error estimate
of a quadrature path adds that share.  It starts, in one integrand call,
from the dyadic chain of panels toward u = 0 that its refinement always
reaches, so its bits are those of refining from one panel: for the direct
T = 0 kernels of depth 9 to 17 by L / lambda_p and the pair, 9 for their
later calls and for perfect pairs, 3 for the remainders below, and for each
block of n >= 1 terms the depth its first term's u_lo sets, 2 to 14
(``_block_start``).  At T = 0 the outer phi quadrature starts likewise, on
the chain toward phi = pi/2 that its refinement reaches below lambda_p, 0
to 10 deep (``_zero_t_direct_starts``): it evaluates the phi integrand once
on the 21 nodes of each starting panel, then once per refinement step on
the 42 of both halves of a bisected panel, and each call runs one
u-quadrature with two columns per node.  The usual direct solve thus makes
one call of each integrand.  One u-quadrature then holds the columns that
phi refined from one panel spreads over several, whose panels they share,
which moves results in their last bits only.  The Matsubara sum runs its
terms in blocks of up to 128, two columns per term, on u = u_n + s, s in
[0, 40]: the first block holds n = 0 too, from depth 3 or deeper, and
fewer terms stand in a block where its start chain is deeper, so that no
start mesh holds more values than 128 terms on 84 nodes would.  A sum
whose terms n >= 1 fit in one block takes one quadrature call.

At u -> 0 every supported pair reflects fully: r_TE = 1 at kappa = 0, and
r_TM = 1 at xi = 0.  So the kernels split exactly into those of a perfect
pair, with their u^2 ln u (T = 0) or ln u (n = 0) at u = 0, and a
remainder in the loop deficits delta_p = 1 - r_p that stays finite there
(``_remainder_kernels``); the mirrors form the deficits without
subtraction.  The perfect parts integrate in closed form, only the
remainder by quadrature:

    n = 0:  2 zeta(3) (energy) and 4 zeta(3) (force) less the remainder of
            the static TE deficit (r_TM = 1);
    T = 0:  the closed forms less the (u, phi) remainder, for a pair that
            is not perfect at L at or above its larger lambda_p.  There
            the remainder, 1 - eta_E ~ 4 lambda_p / (2 pi L), is small.
            Below, it nears the closed form and the subtraction would
            cancel, so such lengths, and perfect pairs, integrate the
            pair's own kernels.

Terms fall monotonically in n for every supported pair (r_TE depends on
kappa = u/2L only, r_TM falls with xi, and the lower limit u_n rises) and
vanish past n_max = floor(40/du), where the u-cut drops them.  After term
N the rest of the sum is therefore at most (n_max - N)|term_N|.  The sum
stops at the first N where that bound is at most 1e-10 of the total for
energy and force, reports it as the tail error, and raises
ConvergenceError past 1,000,000 terms.  Where T is so small that du
underflows to 0 or a term is not finite, first in the first block, which
holds the smallest xi, it raises DomainError naming L and T.

A sum of n_max >= 200 terms that has not stopped by N = ceil(8/du), near
u = 8, where it would run on to u_n near 25, sums only its head directly,
through the term N + 6, and the rest in Gregory's end-corrected form
(Genet, Lambrecht and Reynaud, PRA 62, 012110 (2000)):

    sum_{n >= N} F_n = (1/du) Int_{N du}^{40} F(x) dx + F_N / 2
                       - sum_{k=1..6} g_k Delta^k F_N,

with g = (1/12, -1/24, 19/720, -3/160, 863/60480, -275/24192) and forward
differences of the head's terms N .. N + 6.  F(x) is the term continued to
real n, analytic from x = 8 on (at x = 0 its x^2 ln x term would make the
integral costly).  One x-quadrature from [a, 2a], [2a, 4a], [4a, 40]
integrates it, each call running one u-quadrature with its nodes as
columns (``_gregory_tail``), both to 1e-10 of the sum, kept within 1e-10
to 1e-8 of the integral.  Its error estimate adds the head's quadrature
errors, those of F_N .. F_N+6 weighted by their Gregory coefficients, the
x-quadrature's error over du, the inner u-errors in proportion to the
tail, the last correction |g_6 Delta^6 F_N|, the share past the u-cut and
round-off.  Below 200 terms, and wherever the direct stop is met in the
head, every bit of the direct sum stays.  The head still grows as 8/du,
so time is not bounded where L T falls below about 1e-8 m K, and the
term cap is reached near L T = 1.5e-9 m K.

``_per_area(mirrors, L, T)`` is the single dispatch point: it picks the
closed form, the perfect-pair series or low-T form, the T = 0 quadrature
or the Matsubara sum, flags a result with few contributing Matsubara terms
and raises ConvergenceError, naming the path, L and T, above the error
ceiling.  Every public operation, the sweep and the sphere-plane mapping
are built on it.

The T = 0 and Matsubara integrands (``_zero_t_inner``,
``_zero_t_remainder_inner``, ``_matsubara_block``) evaluate the
amplitudes or deficits, kernels and their own values into buffers that
each thread keeps from call to call (``_SCRATCH``), with the ufuncs and
operand grouping of the expressions they stand for, so no call allocates a
full-size array and the bits are those of a fresh evaluation.

All quadratures and sums run in a fixed order; identical inputs give
bit-identical results, also with the engine called from several threads
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B
from .errors import ConvergenceError, DomainError, _check_finite, _check_integer, _check_positive
from .mirrors import CavityReflection, Mirror, PerfectMirror, Scratch
from .planck import ThermalState
from .quadrature import adaptive_gauss_legendre

# the u-cut: exp(-u) beyond it is below 4.3e-18
_U_SPAN = 40.0

# inner tolerance is kept a decade and a half below the outer one so the
# outer refinement never chases inner quadrature noise
_OUTER_REL_TOL = 3e-9
_INNER_REL_TOL = 1e-10

# depth of the dyadic chain [0, U_SPAN 2^-d], ..., [U_SPAN/4, U_SPAN/2],
# [U_SPAN/2, U_SPAN] that each u-quadrature starts from.  Refined from
# [0, U_SPAN] alone, every u-quadrature over lambda_p from 30 nm to 1 um,
# L from 1 nm to 100 um and T up to 3000 K ended on such a chain: at depth
# 9 to 17 for the direct T = 0 kernels (each has a perfect pair's u^2 ln u
# at u = 0, as a plasma pair reflects fully at kappa -> 0), at least 3 for
# the remainders, which leave that part out (n = 0, and T = 0 at
# L >= lambda_p, BENCH_26.json), and, for the n >= 1 blocks, at least the
# depth ``_block_start`` gives (BENCH_18.json, BENCH_21.json and
# BENCH_22.json; the first two measured the same chains with one more
# panel, [U_SPAN, 2 U_SPAN]).  Starting there keeps every bit of the
# result and makes one integrand call where the chain took d + 1 serial
# ones.  ``_ZERO_T_DEPTH`` starts a perfect pair's direct u-quadratures;
# the first u-quadrature of any other direct solve starts deeper, from
# ``_DIRECT_STARTS``, and those of its phi refinement steps from
# ``_PHI_STEP_DEPTH``, the least depth any of them reached (BENCH_27.json)
_ZERO_T_DEPTH = 9
_PHI_STEP_DEPTH = 10
_REMAINDER_DEPTH = 3

# start depths of the direct T = 0 solve (``_zero_t_direct_starts``) by
# x = L / lambda_p of the pair's larger lambda_p, as (c, steps) for a pair
# of equal mirrors (True) and for any other (False): the phi chain is
# floor(log2(c / x)) deep, the first u chain ``_ZERO_T_DEPTH`` plus one
# for each step at or above x.  Refined from one panel, at 401 ratios x
# from 1e-3 to 4 and lambda_p of 136 nm and 1 um, phi reached that depth
# with c up to 1.17 for equal mirrors and up to 0.68 for a plasma mirror
# facing a perfect one, whose depth is not monotone in x; the first
# u-quadrature, with phi so started, reached the depth of the steps, each
# the largest x measured at that depth, rounded down (BENCH_27.json).
# Unequal plasma pairs take the rule of a plasma mirror facing a perfect
# one, the limit of a vanishing smaller lambda_p, which started them at or
# above the reached depths at lambda_p ratios from 1.2 to 100.  Below
# x = 1e-3, the smallest ratio measured, x counts as 1e-3
_DIRECT_STARTS = {
    True: (1.15, (1.47, 0.206, 0.0716, 0.0306, 0.0139, 0.0066, 0.00319, 0.00158)),
    False: (0.66, (0.730, 0.0863, 0.0243, 0.00795, 0.00276)),
}
_DIRECT_MIN_RATIO = 1e-3

_MATSUBARA_TERM_REL = 1e-10
_MATSUBARA_MAX_TERMS = 1_000_000
# a sum of n_max = floor(U_SPAN / du) >= _GREGORY_MIN_TERMS terms that runs
# on to N = ceil(_GREGORY_HEAD_U / du) takes its terms from N on in
# Gregory's form (``_gregory_tail``).  Measured on this code: below 200
# terms the direct sum was the cheaper, from 200 on the Gregory form, and
# a head to u_N = 8 held its truncation to 8e-12 where one to u_N = 6 let
# it reach 5e-11 for 10 % less time (BENCH_28.json)
_GREGORY_MIN_TERMS = 200
_GREGORY_HEAD_U = 8.0
# the loosest tolerance of the tail's quadratures; up to it, refinement of
# each u-quadrature from one panel still reached the chain it starts from
_GREGORY_MAX_REL_TOL = 1e-8
# Gregory's end corrections g_1 .. g_6: sum_{n >= N} F_n =
# (1/du) Int_{u_N} F dx + F_N / 2 - sum_k g_k Delta^k F_N
_GREGORY_G = np.array([1 / 12, -1 / 24, 19 / 720, -3 / 160, 863 / 60480, -275 / 24192])
# Delta^k F_N = sum_j (-1)^(k - j) C(k, j) F_{N + j}: row k, j = 0 .. 6
_DIFFERENCES = np.array([[(-1) ** (k - j) * math.comb(k, j) for j in range(7)] for k in range(7)], dtype=float)
# the weights of F_N .. F_{N + 6} in F_N / 2 - sum_k g_k Delta^k F_N, and in
# the last correction g_6 Delta^6 F_N, which bounds the truncation
_GREGORY_WEIGHTS = 0.5 * _DIFFERENCES[0] - _GREGORY_G @ _DIFFERENCES[1:]
_GREGORY_LAST = _GREGORY_G[-1] * _DIFFERENCES[-1]
# terms per Matsubara block at depth 2, and fewer on deeper start chains
# (``_block_start``).  The terms of a block share the panels of one
# u-quadrature, each refined until the worst of them converges, so another
# block size moves the last bits of the sum
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
# Int dphi sin(phi) Int_0^inf du u^2 G_E, and u^3 G_F, of a perfect pair at
# T = 0: 4 zeta(4) and 12 zeta(4), the closed forms over hbar c / (32 pi^2 L^n)
_PERFECT_ZERO_T = np.array([math.pi**4 / 22.5, 2.0 * math.pi**4 / 15.0])
# t = 2 k_B T L / (hbar c) at and below which a perfect pair takes the
# low-temperature form; above it the Lambert series needs at most 74 terms
_LOW_T_SWITCH = 0.087
# relative round-off of assembling a result from its parts: constants,
# prefactors, powers of L and, on the perfect-pair thermal path, at most 74
# positive terms of a few correctly rounded operations each.  It is that
# path's whole error bound, as both its truncations lie below 1e-18; the
# quadrature paths add it to their estimates
_ROUNDOFF_ERROR = 32.0 * float(np.finfo(float).eps)
# relative share past the u-cut of the perfect pair's T = 0 force column,
# Gamma(4, U_SPAN) / (6 zeta(4)) = 4.52e-14, rounded up.  Loop amplitudes
# lie in [0, 1], so no kernel exceeds a perfect pair's, and the columns
# weighted by u or u^2 from u_n on lose less past the cut: this bounds the
# share of every column (largest measured 4.5e-14, BENCH_22.json)
_U_CUT_ERROR = 4.6e-14

# the buffers of the T = 0 and Matsubara integrands, kept per thread; each
# grows to the largest node-by-column array asked of it: about 65 kB for a
# 128-term block on 63 nodes, and at most 86 kB for the first block's 128
# terms on 84 nodes, the largest Matsubara start mesh (32 terms on the 315
# nodes of depth 14 take 81 kB).  The direct T = 0 start meshes are larger
# where L is far below lambda_p: 378 u-nodes by 231 angles for equal
# mirrors at L / lambda_p <= 1e-3, 0.7 MB per array, which took the peak
# RSS of a process making one such solve from 30.7 to 38.1 MB; from
# L / lambda_p = 0.29 up they are at most 231 by 42, 78 kB.  The
# integrands never run inside one another, so they share names
_SCRATCH = Scratch()

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
    return _times_area("ideal_force", A, ideal_force_per_area(L), L=L, A=A)


def ideal_energy(L: float, A: float) -> float:
    """Perfect-mirror binding-energy magnitude at T = 0 [J]; equals F L / 3."""
    A = _check_positive("A", A)
    return _times_area("ideal_energy", A, ideal_energy_per_area(L), L=L, A=A)


def _times_area(name: str, factor: float, per_area: float, **inputs) -> float:
    """factor (A, or 2 pi R) times a result per area; DomainError naming the
    ``inputs`` where it is not finite, underflows to 0, or is subnormal:
    nonzero but below the smallest normal float, where its relative error
    exceeds any estimate."""
    value = _check_finite(name, factor * per_area, **inputs)
    tiny = float(np.finfo(float).tiny)
    if abs(value) < tiny:
        args = ", ".join(f"{key}={arg!r}" for key, arg in inputs.items())
        if value == 0.0:
            raise DomainError(f"{name} underflows to 0 at {args}")
        raise DomainError(f"{name} is subnormal at {args}: {value!r} lies below the smallest normal float {tiny!r}")
    return value


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


def _kernels(amplitudes, u, scratch: Scratch):
    """Polarization-summed energy and force kernels at exp(-u) of the loop
    amplitudes ``(r_TE, r_TM)``, arrays of their broadcast shape with u in
    the buffers of ``scratch``, which the next call with it overwrites.
    The TE terms keep the shape of r_TE and u, which at T = 0 holds no
    angle, as r_TE depends on kappa alone, and broadcast into the sums.
    exp and log1p, whose vector loops may round otherwise on strided
    operands, run on contiguous arrays of u's and those shapes."""
    r_te, r_tm = amplitudes
    (emu,) = scratch("exp(-u)", u.shape, 1)
    np.negative(u, out=emu)
    np.exp(emu, out=emu)
    # x / (1 - x) and log1p(-x) at x = r e^-u, the latter over x
    te_e, te_f = scratch("te kernels", np.broadcast(r_te, u).shape, 2)
    np.multiply(r_te, emu, out=te_e)
    np.subtract(1.0, te_e, out=te_f)
    np.divide(te_e, te_f, out=te_f)
    np.negative(te_e, out=te_e)
    np.log1p(te_e, out=te_e)
    g_e, g_f = scratch("kernels", np.broadcast(r_te, r_tm, u).shape, 2)
    np.multiply(r_tm, emu, out=g_e)
    np.subtract(1.0, g_e, out=g_f)
    np.divide(g_e, g_f, out=g_f)
    np.negative(g_e, out=g_e)
    np.log1p(g_e, out=g_e)
    # g_e = -(log1p(-x_te) + log1p(-x_tm)),
    # g_f = x_te / (1 - x_te) + x_tm / (1 - x_tm)
    np.add(te_e, g_e, out=g_e)
    np.negative(g_e, out=g_e)
    np.add(te_f, g_f, out=g_f)
    return g_e, g_f


def _remainder_kernels(d_te, d_tm, u, scratch: Scratch):
    """Polarization-summed energy and force kernels of a perfect pair less
    those of the pair with loop deficits ``d_te`` and ``d_tm`` = 1 - r_p,
    arrays of their broadcast shape with u in the buffers of ``scratch``,
    which the next call with it overwrites.

    Each kernel splits exactly into its perfect-pair part and a remainder,
    formed without subtraction, that stays finite as u -> 0, where d/u does:

        -ln(1 - r e^-u) = -ln(1 - e^-u) - log1p(d / expm1(u)),
        r e^-u / (1 - r e^-u) = 1 / expm1(u) - d / ((expm1(u) + d)(-expm1(-u))).

    The TE terms keep the shape of d_te and u, which at T = 0 holds no
    angle, as r_TE depends on kappa alone.  A float d_tm is a perfect
    pair's 0 (r_TM = 1, as at n = 0), which adds nothing.
    """
    em1 = np.expm1(u)
    one_minus = -np.expm1(-u)
    te_e = np.log1p(d_te / em1)
    te_f = d_te / ((em1 + d_te) * one_minus)
    if isinstance(d_tm, float):
        return te_e, te_f
    r_e, r_f = scratch("remainder", np.broadcast(d_te, d_tm, u).shape, 2)
    np.divide(d_tm, em1, out=r_e)
    np.log1p(r_e, out=r_e)
    np.add(te_e, r_e, out=r_e)
    np.add(em1, d_tm, out=r_f)
    np.multiply(r_f, one_minus, out=r_f)
    np.divide(d_tm, r_f, out=r_f)
    np.add(te_f, r_f, out=r_f)
    return r_e, r_f


def _relative(error, value) -> float:
    """Largest error / |value| over components; a zero value counts as 1."""
    scale = np.abs(value)
    scale[scale == 0.0] = 1.0
    return float(np.max(error / scale))


def _u_quadrature(f, names, context: str, depth: int, rel_tol: float | None = None):
    """(value, absolute error) of every column of f over [0, U_SPAN].

    f maps nodes of shape (q,) to values of shape (q, 2c): c energy
    columns, then the c force columns.  Refinement starts from the dyadic
    chain of ``depth``, with edges at U_SPAN 2^-depth, ..., U_SPAN/2, which
    the caller's kernels always reach.  Each column meets ``rel_tol``, by
    default the inner tolerance, of its own value, as the quadrature ranks
    panels per column in units of its own integral of |f|.  A
    ConvergenceError names the failing column pairs by ``names(mask)`` and
    adds ``context``.
    """
    rel_tol = _INNER_REL_TOL if rel_tol is None else rel_tol
    points = [math.ldexp(_U_SPAN, -d) for d in range(depth, 0, -1)]
    res = adaptive_gauss_legendre(f, 0.0, _U_SPAN, rel_tol=rel_tol, points=points)
    if not res.converged:
        failing = ~(res.error <= rel_tol * np.abs(res.value)).reshape(2, -1).all(axis=0)  # NaN fails
        if failing.any():
            raise ConvergenceError(
                f"inner u-quadrature did not converge at {names(failing)} "
                f"({context}, error estimate {float(np.max(res.error))})"
            )
    return res.value, res.error


def _zero_t_inner(cavity: CavityReflection, L: float, phis):
    """The T = 0 u-integrand at the m angles ``phis``: nodes u of shape (q,)
    to the (q, 2m) values u^2 G_E and u^3 G_F, energy columns first.  Every
    array of q m elements is a buffer of this thread's scratch, the result
    too, which the next call overwrites."""
    xi_scale = (0.5 * C / L) * np.cos(phis)
    m = phis.size

    def inner(u):
        # exp(-u), u^2 and kappa = u / 2L on the u axis, xi on the (u, phi)
        # grid; the products broadcast a perfect pair's scalar amplitudes
        # over that grid
        scratch = _SCRATCH
        uc = u[:, None]
        (xi,) = scratch("grid", (u.size, m), 1)
        np.multiply(xi_scale, uc, out=xi)
        g_e, g_f = _kernels(cavity.amplitude_imaginary(xi, (0.5 / L) * uc, scratch), uc, scratch)
        u2 = uc * uc
        (out,) = scratch("integrand", (u.size, 2 * m), 1)
        np.multiply(u2, g_e, out=out[:, :m])
        np.multiply(u2 * uc, g_f, out=out[:, m:])
        return out

    return inner


def _zero_t_remainder_inner(cavity: CavityReflection, L: float, phis):
    """The T = 0 remainder's u-integrand at the m angles ``phis``: nodes u
    of shape (q,) to the (q, 2m) values u^2 R_E and u^3 R_F of the perfect
    pair's kernels less the pair's (``_remainder_kernels``), energy columns
    first.  Only the TM deficit is formed on the (u, phi) grid, r_TE
    depending on kappa = u / 2L alone.  Every array of q m elements is a
    buffer of this thread's scratch, the result too, which the next call
    overwrites."""
    xi_scale = (0.5 * C / L) * np.cos(phis)
    m = phis.size

    def inner(u):
        scratch = _SCRATCH
        uc = u[:, None]
        kappa = (0.5 / L) * uc
        (xi,) = scratch("grid", (u.size, m), 1)
        np.multiply(xi_scale, uc, out=xi)
        d_tm = cavity.tm_deficit(xi, kappa, scratch)
        r_e, r_f = _remainder_kernels(cavity.static_deficit(kappa), d_tm, uc, scratch)
        u2 = uc * uc
        (out,) = scratch("integrand", (u.size, 2 * m), 1)
        np.multiply(u2, r_e, out=out[:, :m])
        np.multiply(u2 * uc, r_f, out=out[:, m:])
        return out

    return inner


def _matsubara_block(cavity: CavityReflection, L: float, du: float, theta: float, n):
    """The u-integrand of the Matsubara terms ``n``, on u = u_n + s: nodes
    s of shape (q,) to the (q, 2c) values u G_E and u^2 G_F of the c terms,
    energy columns first.  A term n = 0, first where ``n`` holds it, takes
    the perfect pair's kernels less the pair's (``_remainder_kernels`` of
    the static deficits), which stay finite at u = 0.  Every array of q c
    elements is a buffer of this thread's scratch, the result too, which
    the next call overwrites."""
    static = int(n[0] == 0)
    u_n, xi = n[static:] * du, n[static:] * theta
    c = n.size

    def block(s):
        scratch = _SCRATCH
        (out,) = scratch("integrand", (s.size, 2 * c), 1)
        if static:
            r_e, r_f = _remainder_kernels(cavity.static_deficit((0.5 / L) * s), 0.0, s, scratch)
            np.multiply(s, r_e, out=out[:, 0])
            np.multiply(s * s, r_f, out=out[:, c])
        if c > static:
            u, kappa = scratch("grid", (s.size, c - static), 2)
            np.add(u_n, s[:, None], out=u)
            np.multiply(0.5 / L, u, out=kappa)
            g_e, g_f = _kernels(cavity.amplitude_imaginary(xi, kappa, scratch), u, scratch)
            np.multiply(u, g_e, out=out[:, static:c])
            u2 = np.multiply(u, u, out=g_e)
            np.multiply(u2, g_f, out=out[:, c + static :])
        return out

    return block


def _zero_t_direct_starts(cavity: CavityReflection, L: float):
    """(phi depth, u depth) that the direct T = 0 solve starts from, no
    deeper than refinement from one panel reaches: by x = L / lambda_p of
    the pair's larger lambda_p and whether its mirrors are equal
    (``_DIRECT_STARTS``).  A perfect pair starts from one phi panel and the
    u chain of ``_ZERO_T_DEPTH``."""
    if cavity.both_perfect:
        return 0, _ZERO_T_DEPTH
    c, steps = _DIRECT_STARTS[cavity.mirror1 == cavity.mirror2]
    x = max(L / cavity.max_plasma_wavelength, _DIRECT_MIN_RATIO)
    return max(0, math.floor(math.log2(c / x))), _ZERO_T_DEPTH + sum(x <= step for step in steps)


def _chain_toward(b: float, depth: int):
    """Edges of the dyadic chain [0, b/2], [b/2, 3b/4], ... toward b, each
    formed as refinement forms it, the midpoint of the last panel."""
    points, p = [], 0.0
    for _ in range(depth):
        p = 0.5 * (p + b)
        points.append(p)
    return points


def _angular(inner, cavity: CavityReflection, L: float, depth: int, start=None):
    """(outer QuadratureResult, worst relative inner error) of the double
    quadrature of ``inner(cavity, L, phis)`` over phi in [0, pi/2].

    ``start`` is the (phi depth d, u depth) of the starting call, and
    (0, ``depth``) where None.  The phi quadrature starts from the d + 1
    panels of the chain toward pi/2, with edges pi/2 (1 - 2^-k),
    k = 1 .. d, in one call of the phi-integrand on their 21 (d + 1) nodes,
    and each outer refinement step calls it on 42.  Each call at m nodes
    runs one batched u-quadrature, whose columns j and m + j are the energy
    and force integrals at phi_j: the starting call's from the chain of the
    start's u depth, every later one's from the chain of ``depth``.  A
    ConvergenceError names the failing angles, or the outer relative error
    estimate, and L.
    """
    phi_depth, u_depth = (0, depth) if start is None else start
    # the u depth of the next call, and the worst relative inner error so far
    state = [u_depth, 0.0]

    def outer_integrand(phis):
        value, error = _u_quadrature(
            inner(cavity, L, phis),
            lambda bad: "phi=" + ", ".join(f"{p:.6f}" for p in phis[bad]),
            f"L={L:.3e} m",
            state[0],
        )
        state[:] = depth, max(state[1], _relative(error, value))
        return np.sin(phis)[:, None] * value.reshape(2, phis.size).T

    b = 0.5 * math.pi
    outer = adaptive_gauss_legendre(
        outer_integrand, 0.0, b, rel_tol=_OUTER_REL_TOL, points=_chain_toward(b, phi_depth)
    )
    if not outer.converged:
        raise ConvergenceError(
            f"angular quadrature did not converge (L={L:.3e} m, "
            f"relative error estimate {_relative(outer.error, outer.value):.3e})"
        )
    return outer, state[1]


def _zero_t_direct_per_area(cavity: CavityReflection, L: float):
    """(E/A, F/A, relative error) at T = 0 from the pair's own kernels.

    Both quadratures start from the chains that refinement from one panel
    reaches (``_zero_t_direct_starts``), so the usual solve makes one call
    of the phi integrand, which runs one u-quadrature in one call.  At 1 nm
    with lambda_p = 1 um that call holds 378 u-nodes by 231 angles, where
    phi refined from one panel, and u from the chain of ``_ZERO_T_DEPTH``,
    took 11 serial phi calls and 64 serial u calls.
    """
    outer, inner_error = _angular(_zero_t_inner, cavity, L, _PHI_STEP_DEPTH, _zero_t_direct_starts(cavity, L))
    j_e, j_f = outer.value
    prefactor = HBAR * C / (32.0 * math.pi**2)
    rel_err = _relative(outer.error, outer.value) + inner_error + _U_CUT_ERROR + _ROUNDOFF_ERROR
    return prefactor * j_e / L**3, prefactor * j_f / L**4, rel_err


def _zero_t_remainder_per_area(cavity: CavityReflection, L: float):
    """(E/A, F/A, relative error) at T = 0 as the closed forms less the
    remainder R of ``_zero_t_remainder_inner``, whose u-quadratures start
    from the chain of depth ``_REMAINDER_DEPTH``, 84 nodes.

    R is 1 - eta of the result, about 4 lambda_p / (2 pi L) for the energy
    far above lambda_p, so the estimate scales R's error by
    R / (closed form - R).  That ratio grows without bound as L falls
    below lambda_p, where the subtraction cancels.  The perfect pair's
    share past the u-cut, which bounds R's, counts against the closed form.
    """
    outer, inner_error = _angular(_zero_t_remainder_inner, cavity, L, _REMAINDER_DEPTH)
    j_e, j_f = value = _PERFECT_ZERO_T - outer.value
    error = outer.error + inner_error * np.abs(outer.value) + _U_CUT_ERROR * _PERFECT_ZERO_T
    prefactor = HBAR * C / (32.0 * math.pi**2)
    return prefactor * j_e / L**3, prefactor * j_f / L**4, _relative(error, value) + _ROUNDOFF_ERROR


def _zero_temperature_per_area(cavity: CavityReflection, L: float):
    """(E/A, F/A, relative error) at T = 0 by a (u, phi) double quadrature.

    A pair that is not perfect takes the closed forms less a remainder in
    its deficits 1 - r_p where L is at least its larger plasma wavelength
    (``_zero_t_remainder_per_area``); perfect pairs, and any pair below
    that length, where the subtraction would cancel, integrate their own
    kernels (``_zero_t_direct_per_area``).
    """
    if not cavity.both_perfect and L >= cavity.max_plasma_wavelength:
        return _zero_t_remainder_per_area(cavity, L)
    return _zero_t_direct_per_area(cavity, L)


def _block_start(u_lo: float):
    """(depth, terms) of the Matsubara block on u = u_lo + s whose first
    term starts at u_lo > 0.

    Refinement bisects a block toward s = 0 until its first panel [0, w]
    is some 1 to 4 u_lo wide, or narrower relative to u_lo where
    u_lo < 0.1, never past w = 2^-15 U_SPAN.  The block starts from the
    chain of the narrowest dyadic w >= max(3 u_lo, sqrt(1.5 u_lo)), 2 to
    14 deep, which refinement reached in every block measured but a few of
    a nearly transparent plasma mirror (L < 1e-3 lambda_p) facing a
    perfect one (BENCH_21.json, BENCH_22.json); uncapped, 1 nm at 1e-12 K
    would start at depth 59, where exp(-u) rounds to 1.  It holds 128
    terms on the 63 nodes of depth 2 and 512 // (depth + 2) on deeper
    chains, so no start mesh holds more values than 128 terms on 84 nodes
    would: 32 terms at depth 14.
    """
    width = max(3.0 * u_lo, math.sqrt(1.5 * u_lo))
    depth = int(max(2, min(14, math.log2(_U_SPAN / width))))
    return depth, min(_BLOCK_TERMS, 4 * _BLOCK_TERMS // (depth + 2))


def _gregory_tail(cavity: CavityReflection, L: float, a: float, rel_tol: float, context: str):
    """(value, absolute error, worst relative inner error) of Int F(x) dx
    over x in [a, U_SPAN] to ``rel_tol``, energy then force, where F(x) is
    the Matsubara term at u_n = x, xi_n = x c / 2L, continued to real n.

    F is the block integrand at spacing 1, so each call of the x-integrand
    at m nodes runs one u-quadrature of m columns, each to ``rel_tol`` too,
    from the chain its smallest x sets (``_block_start``).  The
    x-quadrature starts from the panels [a, 2a], [2a, 4a], [4a, U_SPAN],
    where F is analytic.  A ConvergenceError names L, T and the x-range.
    """
    theta = C / (2.0 * L)
    inner_error = [0.0]

    def integrand(x):
        value, error = _u_quadrature(
            _matsubara_block(cavity, L, 1.0, theta, x),
            lambda bad: "x=" + ", ".join(f"{v:.6f}" for v in x[bad]),
            context,
            _block_start(float(x.min()))[0],
            rel_tol,
        )
        inner_error[0] = max(inner_error[0], _relative(error, value))
        return value.reshape(2, x.size).T

    res = adaptive_gauss_legendre(integrand, a, _U_SPAN, rel_tol=rel_tol, points=(2.0 * a, 4.0 * a))
    if not res.converged:
        raise ConvergenceError(
            f"Matsubara tail integral over x in [{a:.6g}, {_U_SPAN:g}] did not converge "
            f"({context}, relative error estimate {_relative(res.error, res.value):.3e})"
        )
    return res.value, res.error, inner_error[0]


def _matsubara_per_area(cavity: CavityReflection, L: float, temperature: float):
    """(E/A, F/A, relative error, contributing terms, path) of the Matsubara
    sum.

    The first block holds n = 0 and the block of terms from n = 1, in one
    u-quadrature from the chain of depth ``_REMAINDER_DEPTH`` or the deeper
    one u_1 sets, and at most 512 // (depth + 1) terms, so that its start
    mesh too holds no more values than 128 terms on 84 nodes would.  Each
    later block starts from the chain its first term's u_lo sets
    (``_block_start``).  Where du is small the first blocks are short and
    deep, the later ones 128 terms at depth 2.  n = 0 is the perfect
    pair's term in closed form less the quadrature of its smooth
    remainder.  The blocks run until the tail bound stops the sum, or,
    where n_max >= ``_GREGORY_MIN_TERMS``, through the one that holds the
    term N - 1 with N = ceil(``_GREGORY_HEAD_U`` / du); there, if the sum
    has not stopped, the terms from N on are the tail integral over x in
    [N du, U_SPAN] divided by du plus Gregory's end corrections from
    F_N .. F_N+6, the last of which one more block holds if need be.  The
    relative error adds the quadrature errors of the summed terms, those of
    F_N .. F_N+6 weighted by their share of the corrections, the tail
    integral's error over du and its inner errors in proportion, the tail
    bound or the last correction g_6 Delta^6 F_N, the share past the u-cut
    and the round-off of assembling the result.  Contributing terms are
    counted over the blocks that hold the first ``_FEW_TERMS_WARN`` terms,
    exact below that as terms fall with n.  DomainError names L and T where
    du underflows to 0 or a term is not finite, first in the first block,
    which holds the smallest xi.
    """
    theta = ThermalState(temperature).temperature_frequency
    du = 2.0 * theta * L / C  # spacing of u_n = 2 xi_n L / c
    context = f"L={L:.3e} m, T={temperature} K"
    too_cold = f"T={temperature!r} K is too small at L={L!r} m"
    if du == 0.0:
        raise DomainError(f"{too_cold}: the Matsubara spacing 2 xi_1 L / c underflows to 0")
    # later terms start past the u-cut; a float, as it may exceed any integer type
    n_max = _U_SPAN // du
    # the first term N of a Gregory tail, whose blocks run through the one
    # that holds N - 1
    head = math.ceil(_GREGORY_HEAD_U / du) if n_max >= _GREGORY_MIN_TERMS else None
    n_last = n_max if head is None else head - 1

    path = "Matsubara sum"
    tail = np.zeros(2)
    stopped = False
    n_lo = 0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            while n_lo <= n_last:
                if n_lo > _MATSUBARA_MAX_TERMS:
                    raise ConvergenceError(f"Matsubara sum exceeded {_MATSUBARA_MAX_TERMS} terms ({context})")
                if n_lo:
                    depth, size = _block_start(n_lo * du)
                else:
                    # u_1, or the cut where n = 1 lies past it
                    depth, size = _block_start(min(du, _U_SPAN))
                    depth = max(depth, _REMAINDER_DEPTH)
                    size = min(size + 1, 4 * _BLOCK_TERMS // (depth + 1))
                n = np.arange(n_lo, n_lo + size)
                n = n[n <= n_max]
                # a failing n = 0 is named alone, as the term of the sum's first call
                names = lambda bad: "n=0" if bad[0] and n[0] == 0 else "n=" + ", ".join(map(str, n[bad]))
                value, error = _u_quadrature(_matsubara_block(cavity, L, du, theta, n), names, context, depth)
                terms, error = value.reshape(2, -1), error.reshape(2, -1)
                if n_lo == 0:
                    # n = 0 at half weight: the perfect-pair parts in closed form
                    # (their share past the u-cut is below 3e-15) less the remainder
                    totals, quad_err = 0.5 * (_PERFECT_STATIC - terms[:, 0]), 0.5 * error[:, 0]
                    mags = np.max(np.abs(totals), keepdims=True)
                    n, terms, error = n[1:], terms[:, 1:], error[:, 1:]
                    if not n.size:
                        break
                running = np.cumsum(np.concatenate([totals[:, None], terms], axis=1), axis=1)[:, 1:]
                bound = (n_max - n) * np.abs(terms)
                stop = np.flatnonzero(np.all(bound <= _MATSUBARA_TERM_REL * np.abs(running), axis=0))
                last = stop[0] if stop.size else n.size - 1
                if head is not None and n[-1] >= head - 1:
                    # the sum of the terms below N and its error, and the
                    # terms N .. N + 6 of the differences this block holds
                    k = head - n[0]
                    head_totals, head_error = running[:, k - 1], quad_err + error[:, :k].sum(axis=1)
                    window, window_error = terms[:, k : k + 7].copy(), error[:, k : k + 7].copy()
                totals = running[:, last]
                quad_err = quad_err + error[:, : last + 1].sum(axis=1)
                if mags.size < _FEW_TERMS_WARN:
                    mags = np.concatenate([mags, np.max(np.abs(terms[:, : last + 1]), axis=0)])
                if stop.size:
                    tail = bound[:, last]
                    stopped = True
                    break
                n_lo += size
            if head is not None and not stopped:
                path = f"Matsubara sum, Gregory tail from n={head}"
                if window.shape[1] < 7:
                    # the rest of them, in one more block
                    n = np.arange(head + window.shape[1], head + 7)
                    value, error = _u_quadrature(
                        _matsubara_block(cavity, L, du, theta, n), names, context, _block_start(n[0] * du)[0]
                    )
                    window = np.concatenate([window, value.reshape(2, -1)], axis=1)
                    window_error = np.concatenate([window_error, error.reshape(2, -1)], axis=1)
                # the integral to 1e-10 of the sum, as the direct sum's tail
                # bound holds it: the integral is at most du (n_max - N + 1) |F_N|,
                # as terms fall with n, and the head is less than the sum
                share = np.min(np.abs(head_totals) / ((n_max - head + 1) * np.abs(window[:, 0])))
                rel_tol = float(np.clip(_MATSUBARA_TERM_REL * share, _INNER_REL_TOL, _GREGORY_MAX_REL_TOL))
                integral, integral_error, inner_error = _gregory_tail(cavity, L, head * du, rel_tol, context)
                totals = head_totals + integral / du + window @ _GREGORY_WEIGHTS
                quad_err = (
                    head_error
                    + window_error @ np.abs(_GREGORY_WEIGHTS)
                    + (integral_error + inner_error * np.abs(integral)) / du
                )
                tail = np.abs(window @ _GREGORY_LAST)
    except FloatingPointError:
        raise DomainError(f"{too_cold}: the Matsubara terms are not finite") from None

    threshold = _MATSUBARA_TERM_REL * max(float(np.max(np.abs(totals))), 1e-300)
    prefactor = K_B * temperature / (8.0 * math.pi)
    rel_err = _relative(quad_err + tail, totals) + _U_CUT_ERROR + _ROUNDOFF_ERROR
    return (
        prefactor * totals[0] / L**2,
        prefactor * totals[1] / L**3,
        rel_err,
        int(np.sum(mags >= threshold)),
        path,
    )


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
    bound ``_ROUNDOFF_ERROR``.

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
        return e_per_area, f_per_area, _ROUNDOFF_ERROR, False, "perfect-pair low-T form"

    m = np.arange(1.0, math.ceil(_U_SPAN / du) + 1.0)
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
    return e_per_area, f_per_area, _ROUNDOFF_ERROR, bool(few), "perfect-pair series"


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
        e_per_area, f_per_area, rel_err, contributing, path = _matsubara_per_area(mirrors, L, temperature)
        few = contributing < _FEW_TERMS_WARN
    if rel_err > _ERROR_CEILING:
        raise ConvergenceError(
            f"error estimate {rel_err:.2e} above ceiling {_ERROR_CEILING:.0e} "
            f"({path}, L={L:.3e} m, T={temperature} K)"
        )
    return float(e_per_area), float(f_per_area), rel_err, (FLAG_FEW_MATSUBARA,) if few else ()


def _plane_result(config: CavityConfig) -> ForceResult:
    """ForceResult of a cavity at its temperature; eta_T, set for T > 0, is
    F/A(T) / F/A(0), which needs no area."""
    e_per_area, f_per_area, rel_err, flags = _per_area(config.mirrors, config.L, config.temperature)
    force = _times_area("force", config.A, f_per_area, L=config.L, A=config.A)
    eta_t = None
    if config.temperature > 0.0:
        eta_t = f_per_area / _per_area(config.mirrors, config.L, 0.0)[1]
    return ForceResult(
        force=force,
        energy=_times_area("energy", config.A, e_per_area, L=config.L, A=config.A),
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
        force=_times_area("sphere_plane_force", 2.0 * math.pi * config.R, e_per_area, R=config.R, L=config.L),
        eta=e_per_area / ideal_energy_per_area(config.L),
        plane_energy_per_area=e_per_area,
        numerical_error=rel_err,
        flags=(() if config.proximity_ok else (FLAG_PROXIMITY,)) + flags,
    )

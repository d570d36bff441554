"""Mechanical couplings of a mirror to the fluctuating field: the inertia
of the cavity stress, the linear-response susceptibilities relating motion
to force, and the time-domain reaction forces on a prescribed trajectory.

The asymptotic laws implemented here are

    chi[Omega] = i hbar A theta^4 Omega / (240 pi^2 c^4)   (thermal field)
    chi[Omega] = i hbar A Omega^5     /  (60 pi^2 c^4)     (vacuum, T = 0)

with the corresponding time-domain forces

    F(t) = + hbar A theta^4 q'(t) / (240 pi^2 c^4)
    F(t) = - hbar A q'''''(t)     /  (60 pi^2 c^4)

The thermal force is written with the sign of the linear-response law
above; the vacuum force annihilates every trajectory polynomial of degree
four or less, so uniform velocity and uniform acceleration draw no
reaction from the vacuum.  Validity flags (plate much larger than the
wavelength of the motion, temperature frequency large against the motion
frequency) are advisory: the laws are evaluated wherever requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .casimir import ideal_energy, ideal_force
from .constants import C, HBAR
from .errors import DomainError, _check_finite, _check_positive
from .planck import ThermalState

_VACUUM_COEF = HBAR / (60.0 * math.pi**2 * C**4)
_THERMAL_COEF = HBAR / (240.0 * math.pi**2 * C**4)

# advisory "much larger than" factor used by the validity flags
_MUCH_GREATER = 100.0


def finite_difference_weights(derivative: int, offsets) -> np.ndarray:
    """Stencil weights for the m-th derivative on a unit grid, from the
    exact (Fraction) solve of the moment conditions; divide by dt**m for
    spacing dt.

    The two stencils used below are the centered 11-point rules
    (offsets -5..5), stored as literals so that importing the module runs
    no exact solve:

        first derivative, order 10:
            [-1/1260, 5/504, -5/84, 5/21, -5/6, 0,
              5/6, -5/21, 5/84, -5/504, 1/1260]
        fifth derivative, order 6:
            [-13/288, 19/36, -87/32, 13/2, -323/48, 0,
              323/48, -13/2, 87/32, -19/36, 13/288]
    """
    from fractions import Fraction

    offsets = [int(o) for o in offsets]
    n = len(offsets)
    if not 0 <= derivative < n:
        raise DomainError(f"derivative order {derivative} needs more than {n} points")

    rows = [[Fraction(o) ** p for o in offsets] for p in range(n)]
    rhs = [Fraction(0)] * n
    rhs[derivative] = Fraction(math.factorial(derivative))

    # exact Gaussian elimination with partial (first nonzero) pivoting
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
            rhs[r] = rhs[r] - factor * rhs[col]
    weights = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = rhs[r] - sum(rows[r][c] * weights[c] for c in range(r + 1, n))
        weights[r] = acc / rows[r][r]
    return np.array([float(w) for w in weights])


STENCIL_OFFSETS = tuple(range(-5, 6))
STENCIL_HALF_WIDTH = 5
FIRST_DERIVATIVE_STENCIL = np.array(
    [-1 / 1260, 5 / 504, -5 / 84, 5 / 21, -5 / 6, 0.0, 5 / 6, -5 / 21, 5 / 84, -5 / 504, 1 / 1260]
)
FIFTH_DERIVATIVE_STENCIL = np.array(
    [-13 / 288, 19 / 36, -87 / 32, 13 / 2, -323 / 48, 0.0, 323 / 48, -13 / 2, 87 / 32, -19 / 36, 13 / 288]
)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled mirror position q(t_i) [m] with step dt [s]."""

    positions: np.ndarray
    dt: float

    def __post_init__(self):
        q = np.asarray(self.positions, dtype=float)
        if q.ndim != 1 or q.size < len(STENCIL_OFFSETS):
            raise DomainError(
                f"trajectory needs at least {len(STENCIL_OFFSETS)} uniform samples, got {q.size}"
            )
        if not np.all(np.isfinite(q)):
            raise DomainError("trajectory samples must be finite")
        object.__setattr__(self, "dt", _check_positive("dt", self.dt))
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "positions", q)

    @property
    def n_samples(self) -> int:
        return self.positions.size

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_samples)

    @classmethod
    def from_file(cls, path: str) -> "Trajectory":
        """Load a two-column (t, q) text file and validate finite, uniform sampling."""
        data = np.loadtxt(path, dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError(f"{path}: expected two columns (t, q)")
        t, q = data[:, 0], data[:, 1]
        if t.size < len(STENCIL_OFFSETS):
            raise DomainError(f"{path}: need at least {len(STENCIL_OFFSETS)} samples, got {t.size}")
        for name, column in (("time", t), ("position", q)):
            if not np.all(np.isfinite(column)):
                raise DomainError(f"{path}: {name} column must be finite")
        steps = np.diff(t)
        dt = float(steps[0])
        if dt <= 0.0 or np.max(np.abs(steps - dt)) > 1e-6 * abs(dt):
            raise DomainError(f"{path}: time column must increase with a uniform step")
        return cls(positions=q, dt=dt)


@dataclass(frozen=True)
class Susceptibility:
    """Linear response chi[Omega] of the force to the motion, N/m."""

    Omega: float
    value: complex


@dataclass(frozen=True)
class MotionalValidity:
    """Advisory domain flags of the asymptotic susceptibility laws."""

    area_ok: bool  # A >> c^2 / Omega^2
    temperature_ok: bool  # theta >> Omega, or theta == 0 for the vacuum law

    def warnings(self) -> tuple[str, ...]:
        out = ()
        if not self.area_ok:
            out += ("A_not_much_larger_than_c2_over_Omega2",)
        if not self.temperature_ok:
            out += ("theta_not_much_larger_than_Omega",)
        return out


@dataclass(frozen=True)
class TrajectoryForce:
    """Force samples on the trajectory grid; the stencil half-width at each
    end cannot be evaluated and is flagged invalid (NaN in ``force``)."""

    force: np.ndarray
    valid: np.ndarray

    @property
    def interior(self) -> np.ndarray:
        return self.force[self.valid]


def _pow4(x: float) -> float:
    x2 = x * x
    return x2 * x2


def _pow5(x: float) -> float:
    return _pow4(x) * x


def casimir_inertia_mass(L: float, A: float) -> float:
    """Inertia correction mu = (E - F L) / c^2 of the stressed cavity [kg].

    With E = F L / 3 this is -2 E / c^2, negative for every geometry and
    scaling as 1/L^3.
    """
    mass = (ideal_energy(L, A) - ideal_force(L, A) * L) / C**2
    return _check_finite("casimir_inertia_mass", mass, L=L, A=A)


def thermal_susceptibility(Omega: float, A: float, state: ThermalState):
    """chi = i hbar A theta^4 Omega / (240 pi^2 c^4); linear in Omega,
    vanishing at T = 0.  Returns (Susceptibility, MotionalValidity)."""
    Omega = _check_positive("Omega", Omega)
    A = _check_positive("A", A)
    theta = state.temperature_frequency
    chi = 1j * (_THERMAL_COEF * A * _pow4(theta) * Omega)
    _check_finite("thermal_susceptibility", chi, Omega=Omega, A=A, T=state.temperature)
    validity = MotionalValidity(
        area_ok=A > _MUCH_GREATER * (C / Omega) ** 2,
        temperature_ok=theta > _MUCH_GREATER * Omega,
    )
    return Susceptibility(Omega=Omega, value=chi), validity


def vacuum_susceptibility(Omega: float, A: float):
    """chi = i hbar A Omega^5 / (60 pi^2 c^4); the T = 0 reaction of the
    vacuum, fifth power of the motion frequency.  Returns
    (Susceptibility, MotionalValidity)."""
    Omega = _check_positive("Omega", Omega)
    A = _check_positive("A", A)
    chi = 1j * (_VACUUM_COEF * A * _pow5(Omega))
    _check_finite("vacuum_susceptibility", chi, Omega=Omega, A=A)
    validity = MotionalValidity(
        area_ok=A > _MUCH_GREATER * (C / Omega) ** 2,
        temperature_ok=True,  # the vacuum law assumes theta = 0 exactly
    )
    return Susceptibility(Omega=Omega, value=chi), validity


def _stencil_derivative(traj: Trajectory, weights: np.ndarray, order: int):
    # both stencils are antisymmetric (odd derivatives); pairing the
    # samples as q[i+j] - q[i-j] before weighting makes constants cancel
    # exactly and reduces the summation noise of the high-order rule
    q = traj.positions
    hw = STENCIL_HALF_WIDTH
    m = traj.n_samples - 2 * hw
    interior = np.zeros(m)
    for j in range(1, hw + 1):
        interior += weights[hw + j] * (q[hw + j : hw + j + m] - q[hw - j : hw - j + m])
    interior /= traj.dt**order
    force = np.full(traj.n_samples, np.nan)
    valid = np.zeros(traj.n_samples, dtype=bool)
    force[hw : traj.n_samples - hw] = interior
    valid[hw : traj.n_samples - hw] = True
    return force, valid


def motional_force_time_domain(traj: Trajectory, A: float) -> TrajectoryForce:
    """Vacuum reaction force -(hbar A / 60 pi^2 c^4) q''''' on the interior
    samples; annihilates polynomials of degree <= 4."""
    A = _check_positive("A", A)
    q5, valid = _stencil_derivative(traj, FIFTH_DERIVATIVE_STENCIL, 5)
    return TrajectoryForce(force=-(_VACUUM_COEF * A) * q5, valid=valid)


def thermal_friction_force(traj: Trajectory, A: float, state: ThermalState) -> TrajectoryForce:
    """Thermal-field force +(hbar A / 240 pi^2 c^4) theta^4 q' on the
    interior samples; zero for any trajectory at T = 0."""
    A = _check_positive("A", A)
    q1, valid = _stencil_derivative(traj, FIRST_DERIVATIVE_STENCIL, 1)
    theta = state.temperature_frequency
    return TrajectoryForce(force=(_THERMAL_COEF * A * _pow4(theta)) * q1, valid=valid)

"""Photon noise at a beam splitter from the field fluctuations of the
unused input port.

A strong beam enters port a; the number difference n = n_c - n_d between
the two output ports fluctuates as delta_n ~ sqrt(<n_a>) delta_B1 / E0,
where B1 is the in-phase quadrature of whatever state feeds the normally
disregarded port b.  Vacuum in port b gives Poissonian statistics
(Fano factor 1); squeezing the B1 quadrature below the vacuum level gives
sub-Poissonian statistics.  The large-field linearization makes Gaussian
sampling of delta_B1 the faithful Monte-Carlo model; full counting
statistics are deliberately not simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_integer, _check_positive

# linearization is trusted above this mean photon number
_LINEAR_REGIME_MIN = 100.0

_MIN_TRIALS = 1000
# two float64 arrays of trials samples, each at most 80 MB
_MAX_TRIALS = 10_000_000

# relative slack on the minimum-uncertainty product check, floats only
_HEISENBERG_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureState:
    """Gaussian quadrature statistics of one field mode.

    var1 and var2 are the variances of the two quadratures, E0 the vacuum
    fluctuation scale; the Heisenberg bound var1 * var2 >= E0^4 is
    enforced at construction.  Vacuum has zero means and var1 = var2 =
    E0^2.
    """

    var1: float
    var2: float
    mean1: float = 0.0
    mean2: float = 0.0
    vacuum_scale: float = 1.0

    def __post_init__(self):
        e0 = _check_positive("vacuum scale", self.vacuum_scale)
        object.__setattr__(self, "vacuum_scale", e0)
        object.__setattr__(self, "var1", _check_positive("var1", self.var1))
        object.__setattr__(self, "var2", _check_positive("var2", self.var2))
        if not (math.isfinite(self.mean1) and math.isfinite(self.mean2)):
            raise DomainError("quadrature means must be finite")
        bound = e0**4 * (1.0 - _HEISENBERG_TOL)
        if self.var1 * self.var2 < bound:
            raise DomainError(
                f"Heisenberg bound violated: var1*var2 = {self.var1 * self.var2!r} "
                f"< E0^4 = {e0**4!r}"
            )

    @classmethod
    def vacuum(cls, vacuum_scale: float = 1.0) -> "QuadratureState":
        e2 = vacuum_scale * vacuum_scale
        return cls(var1=e2, var2=e2, vacuum_scale=vacuum_scale)


def make_squeezed(vacuum_scale: float, squeeze_factor: float) -> QuadratureState:
    """Minimum-uncertainty state with var1 = s E0^2 and var2 = E0^2 / s.

    s < 1 squeezes the first quadrature below the vacuum level; s = 1 is
    the vacuum.
    """
    squeeze_factor = _check_positive("squeeze factor", squeeze_factor)
    e2 = vacuum_scale * vacuum_scale
    return QuadratureState(
        var1=squeeze_factor * e2, var2=e2 / squeeze_factor, vacuum_scale=vacuum_scale
    )


@dataclass(frozen=True)
class BeamSplitterSetup:
    """Strong beam of mean photon number <n_a> in port a, an arbitrary
    Gaussian state in port b."""

    mean_photon_number_a: float
    port_b: QuadratureState

    def __post_init__(self):
        object.__setattr__(
            self,
            "mean_photon_number_a",
            _check_positive("mean photon number", self.mean_photon_number_a),
        )

    @property
    def linearized_ok(self) -> bool:
        """The linearized treatment assumes <n_a> >> 1."""
        return self.mean_photon_number_a >= _LINEAR_REGIME_MIN


def difference_variance(setup: BeamSplitterSetup) -> float:
    """Variance of n = n_c - n_d: <n_a> * var1_b / E0^2.

    Vacuum in port b gives the Poissonian value <n_a>.
    """
    b = setup.port_b
    return setup.mean_photon_number_a * b.var1 / b.vacuum_scale**2


def fano_factor(setup: BeamSplitterSetup) -> float:
    """difference_variance / <n_a> = var1_b / E0^2; 1 means Poissonian."""
    b = setup.port_b
    return b.var1 / b.vacuum_scale**2


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical statistics of the sampled number difference."""

    mean: float
    variance: float
    fano: float
    trials: int
    seed: int


def monte_carlo_difference(setup: BeamSplitterSetup, trials: int, seed: int) -> MonteCarloResult:
    """Sample delta_n = sqrt(<n_a>) * delta_B1 / E0 and return the
    empirical mean and variance.

    delta_B1 is drawn as a centered Gaussian of variance var1_b from
    numpy's PCG64 generator initialized with the mandatory seed, so a
    fixed seed reproduces the stream bit for bit.  The empirical variance
    (ddof=1) converges to ``difference_variance`` as trials grow.
    """
    trials = _check_integer("trials", trials, _MIN_TRIALS, _MAX_TRIALS)
    seed = _check_integer("seed", seed, 0)

    b = setup.port_b
    rng = np.random.default_rng(seed)
    delta_b1 = rng.normal(0.0, math.sqrt(b.var1), trials)
    delta_n = (math.sqrt(setup.mean_photon_number_a) / b.vacuum_scale) * delta_b1

    mean = float(np.mean(delta_n))
    variance = float(np.var(delta_n, ddof=1))
    return MonteCarloResult(
        mean=mean,
        variance=variance,
        fano=variance / setup.mean_photon_number_a,
        trials=trials,
        seed=seed,
    )

"""Globally adaptive Gauss-Legendre quadrature with embedded error estimates.

Each panel is integrated with a 16-point rule and a 32-point rule.  The
panel error estimate is the larger of the difference between the two and
the round-off floor 50 eps Int|f| of the finer rule (QUADPACK's resabs
term, Piessens et al. 1983); it is an upper bound for the finer rule on
smooth integrands, also once the rule difference has sunk into
floating-point noise.  The panel with the largest estimate is bisected
until every component of the (possibly vector-valued) integral meets the
requested tolerance.

Determinism: panel selection breaks ties on the left endpoint and an
insertion counter, and the final accumulation runs over panels sorted by
position, so identical inputs give bit-identical results regardless of
refinement history or thread count (the routine itself is single
threaded).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# QUADPACK's round-off floor (Piessens et al., 1983): no panel error estimate
# is allowed below 50 eps times the panel integral of |f|
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps

# node count of the coarse rule of the embedded (16, 32) pair
_ORDER = 16


@lru_cache(maxsize=None)
def _gauss_legendre_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@dataclass
class QuadratureResult:
    """Value and error of a (vector-valued) integral.

    value and error have one entry per integrand component; error entries
    are absolute upper estimates, summed over panels, of
    max(|fine - coarse|, 50 eps Int|f|) from the embedded rule pair.
    """

    value: np.ndarray
    error: np.ndarray
    panels: int
    evaluations: int
    converged: bool

    @property
    def scalar(self) -> float:
        return float(self.value[0])


def _evaluate_panel(f: Callable, a: float, b: float):
    """Integrate one panel with the embedded (16, 32) pair."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)

    x_lo, w_lo = _gauss_legendre_rule(_ORDER)
    x_hi, w_hi = _gauss_legendre_rule(2 * _ORDER)

    v_lo = np.atleast_2d(np.asarray(f(mid + half * x_lo), dtype=float).T).T
    v_hi = np.atleast_2d(np.asarray(f(mid + half * x_hi), dtype=float).T).T

    coarse = half * (w_lo @ v_lo)
    fine = half * (w_hi @ v_hi)
    resabs = half * (w_hi @ np.abs(v_hi))
    return fine, np.maximum(np.abs(fine - coarse), _ROUNDOFF_FLOOR * resabs), 3 * _ORDER


def adaptive_gauss_legendre(
    f: Callable,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    max_panels: int = 512,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to the requested tolerance.

    Parameters
    ----------
    f : callable
        Maps an array of nodes ``x`` of shape (m,) to integrand values of
        shape (m,) or (m, ncomp).  All components are integrated together
        and must all converge.
    a, b : float
        Integration bounds, a < b.
    rel_tol : float
        Per-component convergence target; a component converges when its
        accumulated error estimate is at most rel_tol * |value|.  The
        estimate never drops below the round-off floor 50 eps Int|f|, so
        a tolerance under that floor cannot be met: the call then refines
        up to ``max_panels`` and returns ``converged=False``.
    max_panels : int
        Hard refinement limit; on hit the result is returned with
        ``converged=False`` and the accumulated estimates.

    Returns
    -------
    QuadratureResult
    """
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise ValueError(f"invalid integration bounds [{a}, {b}]")

    fine, err, n_eval = _evaluate_panel(f, a, b)
    panels = [(a, b, fine, err)]
    heap = [(-float(err.max()), a, 0, 0)]  # (-max err, left edge, counter, index)
    counter = 1
    evaluations = n_eval

    total = fine.copy()
    total_err = err.copy()

    def _done() -> bool:
        return bool(np.all(total_err <= rel_tol * np.abs(total)))

    converged = _done()
    while not converged and len(panels) < max_panels:
        _, _, _, idx = heapq.heappop(heap)
        pa, pb, pv, pe = panels[idx]
        pm = 0.5 * (pa + pb)

        left_v, left_e, n1 = _evaluate_panel(f, pa, pm)
        right_v, right_e, n2 = _evaluate_panel(f, pm, pb)
        evaluations += n1 + n2

        total += left_v + right_v - pv
        total_err += left_e + right_e - pe

        panels[idx] = (pa, pm, left_v, left_e)
        panels.append((pm, pb, right_v, right_e))
        heapq.heappush(heap, (-float(left_e.max()), pa, counter, idx))
        counter += 1
        heapq.heappush(heap, (-float(right_e.max()), pm, counter, len(panels) - 1))
        counter += 1

        converged = _done()

    # Fixed-order accumulation: sum panels left to right.
    panels.sort(key=lambda p: p[0])
    value = np.sum(np.stack([p[2] for p in panels]), axis=0)
    error = np.sum(np.stack([p[3] for p in panels]), axis=0)

    return QuadratureResult(
        value=value,
        error=error,
        panels=len(panels),
        evaluations=evaluations,
        converged=converged,
    )

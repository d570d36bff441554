"""Globally adaptive Gauss-Legendre quadrature with embedded error estimates.

Each panel is integrated with a 16-point rule and a 32-point rule.  The
panel error estimate is the larger of the difference between the two and
the round-off floor 50 eps Int|f| of the finer rule (QUADPACK's resabs
term, Piessens et al. 1983); it is an upper bound for the finer rule on
smooth integrands, also once the rule difference has sunk into
floating-point noise.  The panel with the largest estimate is bisected
until every component of the (possibly vector-valued) integral meets the
requested tolerance, or until every panel of each component that has not
met it sits at its floor: bisection cannot lower a sum of floors, so the
call then returns unconverged at once (QUADPACK's round-off exit, ier = 2).

Each refinement step calls the integrand once: the first panel on its 48
nodes, then both halves of the bisected panel, with both rules, on 96
nodes, so a vector-valued integrand pays its per-call overhead once per
step.

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

# hard refinement limit; on hit the result is returned with converged=False
_MAX_PANELS = 512


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


@lru_cache(maxsize=None)
def _panel_rule():
    """Nodes of one panel, the 16-point rule's before the 32-point rule's,
    and the weights of both rules."""
    x_lo, w_lo = _gauss_legendre_rule(_ORDER)
    x_hi, w_hi = _gauss_legendre_rule(2 * _ORDER)
    return np.concatenate([x_lo, x_hi]), w_lo, w_hi


def _evaluate_panels(f: Callable, edges):
    """Integrate the panels between consecutive ``edges`` with the embedded
    (16, 32) pair in one call of f on the nodes of all of them, panel by
    panel: per panel (value, error estimate, which components are above
    the round-off floor)."""
    nodes, w_lo, w_hi = _panel_rule()
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])

    x = (mid[:, None] + half[:, None] * nodes).ravel()
    # splitting the node axis makes no copy: each panel's rows keep the
    # memory order f returned, as with one call per panel and rule
    v = np.atleast_2d(np.asarray(f(x), dtype=float).T).T.reshape(half.size, nodes.size, -1)

    out = []
    for h, panel in zip(half, v):
        v_lo, v_hi = panel[:_ORDER], panel[_ORDER:]
        coarse = h * (w_lo @ v_lo)
        fine = h * (w_hi @ v_hi)
        diff = np.abs(fine - coarse)
        floor = _ROUNDOFF_FLOOR * h * (w_hi @ np.abs(v_hi))
        out.append((fine, np.maximum(diff, floor), diff > floor))
    return out


def adaptive_gauss_legendre(
    f: Callable,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
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
        a tolerance under that floor cannot be met: the call then returns
        ``converged=False`` as soon as every panel of each unconverged
        component sits at its floor.  Past ``_MAX_PANELS`` panels the
        call also returns ``converged=False`` with the accumulated
        estimates.

    Returns
    -------
    QuadratureResult
    """
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise ValueError(f"invalid integration bounds [{a}, {b}]")

    ((fine, err, above),) = _evaluate_panels(f, (a, b))
    panels = [(a, b, fine, err, above)]
    heap = [(-float(err.max()), a, 0, 0)]  # (-max err, left edge, counter, index)
    counter = 1
    evaluations = 3 * _ORDER

    total = fine.copy()
    total_err = err.copy()
    # panels above their round-off floor, per component; an exact count, where
    # running float sums of errors and floors would differ by round-off
    total_above = above.astype(int)

    def _status() -> tuple[bool, bool]:
        """(converged, finished): finished once every component has
        converged or has all its panels at their floor."""
        met = total_err <= rel_tol * np.abs(total)
        return bool(np.all(met)), bool(np.all(met | (total_above == 0)))

    converged, finished = _status()
    while not finished and len(panels) < _MAX_PANELS:
        _, _, _, idx = heapq.heappop(heap)
        pa, pb, pv, pe, p_above = panels[idx]
        pm = 0.5 * (pa + pb)

        (left_v, left_e, left_above), (right_v, right_e, right_above) = _evaluate_panels(f, (pa, pm, pb))
        evaluations += 6 * _ORDER

        total += left_v + right_v - pv
        total_err += left_e + right_e - pe
        total_above += left_above.astype(int) + right_above - p_above

        panels[idx] = (pa, pm, left_v, left_e, left_above)
        panels.append((pm, pb, right_v, right_e, right_above))
        heapq.heappush(heap, (-float(left_e.max()), pa, counter, idx))
        counter += 1
        heapq.heappush(heap, (-float(right_e.max()), pm, counter, len(panels) - 1))
        counter += 1

        converged, finished = _status()

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

"""Globally adaptive Gauss-Kronrod quadrature with embedded error estimates.

Each panel is integrated with the nested Gauss-Kronrod (10, 21) pair: the
21-point Kronrod rule gives the value, and the 10-point Gauss rule on
every other of its nodes the comparison.  The panel error estimate is the
larger of |K21 - G10| and the round-off floor 50 eps K21 Int|f| (QUADPACK's
resabs term, Piessens et al. 1983); it is an upper bound for K21 on smooth
integrands, also once the rule difference has sunk into floating-point
noise.  QUADPACK's (200 err)^1.5 rescaling is not applied, as the scaled
estimate would no longer bound the error.  The panel with the largest
estimate is bisected until every component of the (possibly vector-valued)
integral meets the requested tolerance, or until every panel of each
component that has not met it sits at its floor: bisection cannot lower a
sum of floors, so the call then returns unconverged at once (QUADPACK's
round-off exit, ier = 2).

Panels rank by their largest error in units of each component's Int|f|
over the first panel, rounded up to a power of two, so a component many
decades smaller than another converges in the panels it would take alone;
values, errors and convergence tests stay unscaled.

Each refinement step calls the integrand once: the first panel on its 21
nodes, then both halves of the bisected panel on 42 nodes, so a
vector-valued integrand pays its per-call overhead once per step.

Determinism: panel selection breaks ties on the left endpoint and an
insertion counter, and the final accumulation runs over panels sorted by
position, so identical inputs give bit-identical results regardless of
refinement history or thread count (the routine itself is single
threaded).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

# QUADPACK's round-off floor (Piessens et al., 1983): no panel error estimate
# is allowed below 50 eps times the panel integral of |f|
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps

# hard refinement limit; on hit the result is returned with converged=False
_MAX_PANELS = 512

# the Gauss-Kronrod (10, 21) pair on [-1, 1] (QUADPACK's qk21), from x = 0
# outwards; the rules are symmetric, and the Gauss nodes are the Kronrod
# nodes at odd index
_KRONROD_X_HALF = (
    0.0,
    0.148874338981631210884826001129720,
    0.294392862701460198131126603103866,
    0.433395394129247190799265943165784,
    0.562757134668604683339000099272694,
    0.679409568299024406234327365114874,
    0.780817726586416897063717578345042,
    0.865063366688984510732096688423493,
    0.930157491355708226001207180059508,
    0.973906528517171720077964012084452,
    0.995657163025808080735527280689003,
)
_KRONROD_W_HALF = (
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068,
    0.142775938577060080797094273138717,
    0.134709217311473325928054001771707,
    0.123491976262065851077958109831074,
    0.109387158802297641899210590325805,
    0.093125454583697605535065465083366,
    0.075039674810919952767043140916190,
    0.054755896574351996031381300244580,
    0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
)
_GAUSS_W_HALF = (
    0.295524224714752870173892994651338,
    0.269266719309996355091226921569469,
    0.219086362515982043995534934228163,
    0.149451349150580593145776339657697,
    0.066671344308688137593568809893332,
)

# ascending nodes and Kronrod weights, and the Gauss weights of nodes 1, 3, ..., 19
_KRONROD_NODES = np.concatenate([-np.array(_KRONROD_X_HALF[:0:-1]), _KRONROD_X_HALF])
_KRONROD_WEIGHTS = np.array(_KRONROD_W_HALF[:0:-1] + _KRONROD_W_HALF)
_GAUSS_WEIGHTS = np.array(_GAUSS_W_HALF[::-1] + _GAUSS_W_HALF)


@dataclass
class QuadratureResult:
    """Value and error of a (vector-valued) integral.

    value and error have one entry per integrand component; error entries
    are absolute upper estimates, summed over panels, of
    max(|K21 - G10|, 50 eps K21 Int|f|) from the nested rule pair.
    evaluations is 42 panels - 21: 21 nodes for the first panel and 42
    for both halves of every bisected one.
    """

    value: np.ndarray
    error: np.ndarray
    panels: int
    evaluations: int
    converged: bool

    @property
    def scalar(self) -> float:
        return float(self.value[0])


def _evaluate_panels(f: Callable, edges):
    """Integrate the panels between consecutive ``edges`` with the nested
    (10, 21) pair in one call of f on the nodes of all of them, panel by
    panel: per panel (value, error estimate, which components are above
    the round-off floor, Kronrod sum of |f|, which is Int|f| over the
    panel divided by its half-width)."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])

    x = (mid[:, None] + half[:, None] * _KRONROD_NODES).ravel()
    # splitting the node axis makes no copy: each panel's rows keep the
    # memory order f returned, as with one call per panel
    v = np.atleast_2d(np.asarray(f(x), dtype=float).T).T.reshape(half.size, _KRONROD_NODES.size, -1)

    out = []
    for h, panel in zip(half, v):
        kronrod = h * (_KRONROD_WEIGHTS @ panel)
        gauss = h * (_GAUSS_WEIGHTS @ panel[1::2])
        diff = np.abs(kronrod - gauss)
        abs_sum = _KRONROD_WEIGHTS @ np.abs(panel)
        floor = _ROUNDOFF_FLOOR * h * abs_sum
        out.append((kronrod, np.maximum(diff, floor), diff > floor, abs_sum))
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
        accumulated error estimate is at most rel_tol * |value|.  Panels
        rank by error in units of each component's Int|f| over [a, b],
        so a small component is refined as if integrated alone.  The
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

    ((val, err, above, abs_sum),) = _evaluate_panels(f, (a, b))
    # each component's unit: the power of two in (I, 2I] of its Int|f| over
    # [a, b], or 1 where that is 0 or not finite; dividing by it is exact
    unit = np.ldexp(1.0, np.frexp(0.5 * (b - a) * abs_sum)[1])
    panels = [(a, b, val, err, above)]
    heap = [(-float((err / unit).max()), a, 0, 0)]  # (-max err in units, left edge, counter, index)
    counter = 1
    evaluations = _KRONROD_NODES.size

    total = val.copy()
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

        (left_v, left_e, left_above, _), (right_v, right_e, right_above, _) = _evaluate_panels(f, (pa, pm, pb))
        evaluations += 2 * _KRONROD_NODES.size

        total += left_v + right_v - pv
        total_err += left_e + right_e - pe
        total_above += left_above.astype(int) + right_above - p_above

        panels[idx] = (pa, pm, left_v, left_e, left_above)
        panels.append((pm, pb, right_v, right_e, right_above))
        heapq.heappush(heap, (-float((left_e / unit).max()), pa, counter, idx))
        counter += 1
        heapq.heappush(heap, (-float((right_e / unit).max()), pm, counter, len(panels) - 1))
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

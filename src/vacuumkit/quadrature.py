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

Refinement starts from the panels between a, the optional ``points`` and
b (QUADPACK's qagp start mesh).  Where refinement from [a, b] alone would
reach those panels anyway, the start changes no bit of the result and
saves the serial steps that would have reached them.

Panels rank by their largest error in units of each component's Int|f|
over the starting panels, rounded up to a power of two, so a component
many decades smaller than another converges in the panels it would take
alone; values, errors and convergence tests stay unscaled.

Each refinement step calls the integrand once: the starting panels on
their 21 nodes each, then both halves of the bisected panel on 42 nodes,
so a vector-valued integrand pays its per-call overhead once per step;
each rule is one product over the step's panels.  The heap that ranks
the panels is their only store; a call whose starting panels already
meet the tolerance returns without building it.

Determinism: panel selection breaks ties on the left endpoint and an
insertion counter, and the final accumulation runs over panels sorted by
position, so identical inputs give bit-identical results regardless of
refinement history or thread count (the routine itself is single
threaded).
"""

from __future__ import annotations

import heapq
import itertools
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
    evaluations is derived from panels as 21 (2 panels - s) for s
    starting panels: 21 nodes for each starting panel and 42 for both
    halves of every bisected one.
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
    (10, 21) pair: one call of f on all their nodes, and one product per rule
    over the (panel, node, component) stack of values.  Returns arrays with
    one row per panel, each bit-equal to a call on that panel alone: value,
    error estimate, which components are above the round-off floor, and the
    Kronrod sum of |f| (Int|f| over the panel divided by its half-width)."""
    edges = np.asarray(edges, dtype=float)
    h = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]

    x = (mid + h * _KRONROD_NODES).ravel()
    # splitting the node axis makes no copy: each panel's rows keep the
    # memory order f returned, as with one call per panel
    v = np.atleast_2d(np.asarray(f(x), dtype=float).T).T.reshape(h.size, _KRONROD_NODES.size, -1)
    kronrod = h * (_KRONROD_WEIGHTS @ v)
    diff = np.abs(kronrod - h * (_GAUSS_WEIGHTS @ v[:, 1::2]))
    abs_sum = _KRONROD_WEIGHTS @ np.abs(v)
    floor = _ROUNDOFF_FLOOR * h * abs_sum
    return kronrod, np.maximum(diff, floor), diff > floor, abs_sum


def adaptive_gauss_legendre(
    f: Callable,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    points=(),
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
        summed over the starting panels, so a small component is refined
        as if integrated alone.  The estimate never drops below the
        round-off floor 50 eps Int|f|, so a tolerance under that floor
        cannot be met: the call then returns ``converged=False`` as soon
        as every panel of each unconverged component sits at its floor.
        Past ``_MAX_PANELS`` panels the call also returns
        ``converged=False`` with the accumulated estimates.
    points : sequence of float
        Finite, strictly increasing edges inside (a, b), else ValueError:
        refinement starts from the panels between a, the points and b,
        all integrated in one call of f.

    Returns
    -------
    QuadratureResult
    """
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise ValueError(f"invalid integration bounds [{a}, {b}]")
    edges = np.array([a, *points, b], dtype=float)
    if not (np.isfinite(edges).all() and (np.diff(edges) > 0.0).all()):
        raise ValueError(f"points {points!r} must be finite, strictly increasing and inside ({a}, {b})")

    values, errors, aboves, abs_sums = _evaluate_panels(f, edges)
    total = values.sum(axis=0)
    total_err = errors.sum(axis=0)
    # panels above their round-off floor, per component; an exact count, where
    # running float sums of errors and floors would differ by round-off
    total_above = aboves.sum(axis=0, dtype=int)

    def done():
        met = total_err <= rel_tol * np.abs(total)
        # done once each component has converged or has all panels at their floor
        return met, (met | (total_above == 0)).all()

    met, finished = done()
    if finished:
        # the start mesh suffices: its panels are already in position order
        return _result(values, errors, edges.size - 1, edges.size - 1, met)

    # each component's unit: the power of two in (I, 2I] of its Int|f| over
    # the starting panels, or 1 where that is 0 or not finite; dividing by it
    # is exact
    unit = np.ldexp(1.0, np.frexp((0.5 * np.diff(edges)) @ abs_sums)[1])
    # the panels: (-max err in units, left edge, counter, right edge, value,
    # error, above floor); the unique counter keeps arrays from being compared
    counter = itertools.count()
    bounds = edges.tolist()
    heap = [
        (-float((e / unit).max()), lo, next(counter), hi, v, e, ab)
        for lo, hi, v, e, ab in zip(bounds[:-1], bounds[1:], values, errors, aboves)
    ]
    heapq.heapify(heap)

    while not finished and len(heap) < _MAX_PANELS:
        _, pa, _, pb, pv, pe, p_above = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)

        values, errors, aboves, _ = _evaluate_panels(f, (pa, pm, pb))
        total += values[0] + values[1] - pv
        total_err += errors[0] + errors[1] - pe
        total_above += aboves.sum(axis=0) - p_above

        for lo, hi, v, e, ab in zip((pa, pm), (pm, pb), values, errors, aboves):
            heapq.heappush(heap, (-float((e / unit).max()), lo, next(counter), hi, v, e, ab))
        met, finished = done()

    heap.sort(key=lambda p: p[1])
    return _result(np.array([p[4] for p in heap]), np.array([p[5] for p in heap]), len(heap), len(bounds) - 1, met)


def _result(values, errors, panels: int, starting: int, met) -> QuadratureResult:
    """QuadratureResult of the panels' (panel, component) values and errors
    in position order.  Fixed-order accumulation: a running sum, left to
    right, of each component; a one-component integrand keeps the bits of
    numpy's pairwise sum over its column."""
    if values.shape[1] == 1:
        value, error = values.sum(axis=0), errors.sum(axis=0)
    else:
        value, error = values[0].copy(), errors[0].copy()
        for v, e in zip(values[1:], errors[1:]):
            value += v
            error += e
    return QuadratureResult(
        value=value,
        error=error,
        panels=panels,
        evaluations=_KRONROD_NODES.size * (2 * panels - starting),
        converged=bool(met.all()),
    )

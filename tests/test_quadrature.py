"""Adaptive Gauss-Legendre integrator."""

import math
import warnings

import numpy as np
import pytest

from vacuumkit import quadrature
from vacuumkit.quadrature import adaptive_gauss_legendre


def test_polynomial_exact():
    res = adaptive_gauss_legendre(lambda x: x**2, 0.0, 2.0, rel_tol=1e-12)
    assert res.converged
    assert res.scalar == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_exponential_tail():
    res = adaptive_gauss_legendre(lambda x: x**3 * np.exp(-x), 0.0, 80.0, rel_tol=1e-12)
    assert res.scalar == pytest.approx(6.0, rel=1e-12)
    assert res.error[0] <= 1e-10 * 6.0


def test_log_endpoint_singularity():
    # integrable endpoint singularity of the lossless n = 0 kernel
    res = adaptive_gauss_legendre(lambda u: -u * np.log1p(-np.exp(-u)), 0.0, 60.0, rel_tol=1e-10)
    zeta3 = 1.2020569031595943
    assert res.converged
    assert res.scalar == pytest.approx(zeta3, rel=1e-10)


def test_vector_components_converge_together():
    def f(x):
        return np.stack([np.sin(x), np.exp(-x)], axis=-1)

    res = adaptive_gauss_legendre(f, 0.0, math.pi, rel_tol=1e-12)
    assert res.converged
    assert res.value[0] == pytest.approx(2.0, rel=1e-12)
    assert res.value[1] == pytest.approx(1.0 - math.exp(-math.pi), rel=1e-12)


def test_zero_integrand_converges_immediately():
    res = adaptive_gauss_legendre(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert res.converged
    assert res.value[0] == 0.0
    assert res.panels == 1


def test_error_estimate_is_upper_bound_here():
    res = adaptive_gauss_legendre(lambda x: np.cos(7 * x), 0.0, 5.0, rel_tol=1e-11)
    exact = math.sin(35.0) / 7.0
    assert abs(res.scalar - exact) <= max(res.error[0], 1e-15)


@pytest.mark.parametrize("rel_tol", [1e-11, 1e-12])
@pytest.mark.parametrize("b", [1.0, 5.0, 10.0])
@pytest.mark.parametrize("k", [3, 7, 13, 29])
@pytest.mark.parametrize(
    "f, antiderivative",
    [
        (np.cos, math.sin),
        (np.sin, lambda x: 2.0 * math.sin(0.5 * x) ** 2),  # 1 - cos(x) without cancellation
    ],
    ids=["cos", "sin"],
)
def test_error_estimate_bounds_oscillatory_integrals(f, antiderivative, k, b, rel_tol):
    # no absolute cushion: the estimate alone must cover the true error
    res = adaptive_gauss_legendre(lambda x: f(k * x), 0.0, b, rel_tol=rel_tol)
    exact = antiderivative(k * b) / k
    assert abs(res.scalar - exact) <= res.error[0]


def test_tolerance_below_roundoff_floor_stops_early():
    # every panel reaches its floor 50 eps Int|f| long before 512 panels
    # (at about 70); bisection cannot lower that sum, so the call gives up
    # there, where without the exit it would bisect on to the panel limit
    res = adaptive_gauss_legendre(lambda x: np.cos(29 * x), 0.0, 10.0, rel_tol=1e-12)
    assert not res.converged
    assert res.panels <= quadrature._MAX_PANELS // 4
    assert abs(res.scalar - math.sin(290.0) / 29.0) <= res.error[0]


def test_panel_limit_reports_non_convergence(monkeypatch):
    # near-singular integrand with a hopeless budget
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    res = adaptive_gauss_legendre(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-14), 0.0, 1.0, rel_tol=1e-14)
    assert not res.converged


def test_deterministic_repeat():
    def f(x):
        return np.exp(-x) / (1.0 + x**2)

    a = adaptive_gauss_legendre(f, 0.0, 50.0, rel_tol=1e-12)
    b = adaptive_gauss_legendre(f, 0.0, 50.0, rel_tol=1e-12)
    assert a.value[0] == b.value[0]
    assert a.error[0] == b.error[0]


def _exp_and_scaled_cos2(s):
    return lambda x: np.stack([np.exp(-x), s * np.cos(30 * x) ** 2], axis=-1)


@pytest.mark.parametrize("s", [1.0, 1e-8, 1e-300])
def test_small_component_is_ranked_in_its_own_units(s):
    # the cos^2 component alone takes 64 panels; ranked by absolute error,
    # a component 1e-8 of the other took 105 and one 1e-300 of it did not
    # converge in 512
    alone = adaptive_gauss_legendre(lambda x: np.cos(30 * x) ** 2, 0.0, 10.0, rel_tol=1e-10)
    res = adaptive_gauss_legendre(_exp_and_scaled_cos2(s), 0.0, 10.0, rel_tol=1e-10)
    assert alone.panels == 64
    assert res.converged
    assert res.panels == alone.panels
    assert res.value[1] / s == pytest.approx(5.0 + math.sin(600.0) / 120.0, rel=1e-15)


def test_subnormal_component_gives_finite_results():
    # its unit, a power of two near Int|f| = 5e-315, is subnormal: the
    # errors are divided by it, where multiplying by 1/unit would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = adaptive_gauss_legendre(_exp_and_scaled_cos2(1e-315), 0.0, 10.0, rel_tol=1e-10)
    assert np.all(np.isfinite(res.value))
    assert np.all(np.isfinite(res.error))


@pytest.mark.parametrize(
    "f",
    [lambda x: np.cos(7 * x), lambda x: np.stack([np.sin(13 * x), np.exp(-x)], axis=-1)],
    ids=["scalar", "vector"],
)
def test_one_integrand_call_per_refinement_step(f):
    # the first panel is one call on its 21 nodes; every bisection after it
    # is one call on the 42 nodes of both halves
    sizes = []

    def counting(x):
        sizes.append(x.size)
        return f(x)

    res = adaptive_gauss_legendre(counting, 0.0, 5.0, rel_tol=1e-11)
    assert res.panels > 1
    assert len(sizes) == res.panels
    assert sizes == [21] + [42] * (res.panels - 1)
    assert res.evaluations == 42 * res.panels - 21 == sum(sizes)


_RATES = np.linspace(0.1, 8.4, 84)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: np.cos(7 * x) / (1.0 + x),
        lambda x: np.exp(-np.outer(x, _RATES)),  # C-ordered, 84 columns
        lambda x: np.exp(-np.outer(_RATES, x)).T,  # F-ordered, 84 columns
    ],
    ids=["scalar", "c_order", "f_order"],
)
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 4.1), (1e-3, 60.0)])
def test_batched_step_equals_single_panels(f, a, b):
    # a bisection step integrates both halves in one call; bit-identical
    # results need each row to equal the call on that panel alone
    m = 0.5 * (a + b)
    both = quadrature._evaluate_panels(f, (a, m, b))
    for row, edges in enumerate([(a, m), (m, b)]):
        for batched, single in zip(both, quadrature._evaluate_panels(f, edges)):
            assert batched[row].tobytes() == single[0].tobytes()


def test_rule_literals_match_scipy_gauss_kronrod():
    rules = pytest.importorskip("scipy.integrate._rules")
    kronrod = rules.GaussKronrodQuadrature(21)
    # scipy keeps the Kronrod rule as literals and computes the Gauss rule,
    # whose outermost weight is 1.5e-14 off the (correct) QUADPACK literal
    for (ours_x, ours_w), rule, rtol in (
        ((quadrature._KRONROD_NODES, quadrature._KRONROD_WEIGHTS), kronrod, 1e-15),
        ((quadrature._KRONROD_NODES[1::2], quadrature._GAUSS_WEIGHTS), kronrod.gauss, 5e-14),
    ):
        x, w = (np.asarray(a) for a in rule.nodes_and_weights)
        order = np.argsort(x)
        np.testing.assert_allclose(ours_x, x[order], rtol=rtol, atol=1e-16)
        np.testing.assert_allclose(ours_w, w[order], rtol=rtol)


@pytest.mark.parametrize(
    "nodes, weights, degree",
    [
        (quadrature._KRONROD_NODES, quadrature._KRONROD_WEIGHTS, 31),
        (quadrature._KRONROD_NODES[1::2], quadrature._GAUSS_WEIGHTS, 19),
    ],
    ids=["K21", "G10"],
)
def test_rules_integrate_monomials_exactly(nodes, weights, degree):
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights @ nodes**k - exact) <= 8 * np.finfo(float).eps


def test_bad_bounds():
    with pytest.raises(ValueError):
        adaptive_gauss_legendre(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize(
    "points",
    [(0.5, 0.25), (0.5, 0.5), (math.nan,), (math.inf,), (0.0,), (1.0,), (-0.5,), (1.5,)],
    ids=["unsorted", "repeated", "nan", "inf", "at_a", "at_b", "below_a", "above_b"],
)
def test_bad_points(points):
    with pytest.raises(ValueError):
        adaptive_gauss_legendre(lambda x: x, 0.0, 1.0, points=points)


@pytest.mark.parametrize("points", [(1.0,), (0.5, 1.0, 2.5)])
def test_start_mesh_is_one_call(points):
    # the panels between a, the points and b take one call on all their
    # nodes; every bisection after it is one call on 42 nodes
    sizes = []

    def counting(x):
        sizes.append(x.size)
        return np.cos(7 * x)

    res = adaptive_gauss_legendre(counting, 0.0, 5.0, rel_tol=1e-11, points=points)
    start = len(points) + 1
    assert res.panels > start
    assert sizes == [21 * start] + [42] * (res.panels - start)
    assert res.evaluations == 21 * (2 * res.panels - len(points) - 1) == sum(sizes)


@pytest.mark.parametrize(
    "f, b, value, error, panels",
    [
        (lambda x: np.cos(7 * x) / (1.0 + x), 5.0, ["0x1.21ef950947c2cp-7"], ["0x1.ca525731f446cp-47"], 8),
        (
            _exp_and_scaled_cos2(1e-8),
            10.0,
            ["0x1.fffa0ca192a6ep-1", "0x1.ad87426147c6ep-25"],
            ["0x1.8ffb59de3a926p-47", "0x1.c745c00000000p-62"],
            64,
        ),
    ],
    ids=["scalar", "vector"],
)
def test_no_points_keeps_the_bits_of_one_starting_panel(f, b, value, error, panels):
    # frozen from the routine as it was before it took a start mesh
    res = adaptive_gauss_legendre(f, 0.0, b, rel_tol=1e-11)
    assert [v.hex() for v in res.value] == value
    assert [e.hex() for e in res.error] == error
    assert res.panels == panels
    assert res.evaluations == 42 * panels - 21


def test_start_from_a_chain_refinement_reaches_keeps_the_bits():
    # refined from [0, 80], this vector case ends on the dyadic chain of
    # depth 16 toward its log singularity at 0; started from the chain of
    # depth 10, it ends on the same panels in fewer calls
    def f(u):
        return np.stack([-u * np.log1p(-np.exp(-u)), u * u * np.log(u) * np.exp(-u)], axis=-1)

    one = adaptive_gauss_legendre(f, 0.0, 80.0, rel_tol=1e-10)
    chain = adaptive_gauss_legendre(f, 0.0, 80.0, rel_tol=1e-10, points=[80.0 * 2.0**-d for d in range(10, 0, -1)])
    assert one.panels == chain.panels == 17
    assert one.value.tobytes() == chain.value.tobytes()
    assert one.error.tobytes() == chain.error.tobytes()
    assert chain.evaluations == 21 * (2 * 17 - 11) < one.evaluations

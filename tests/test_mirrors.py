"""Reflection amplitudes, the Airy factor, and material presets."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vacuumkit import (
    CavityReflection,
    DomainError,
    PerfectMirror,
    PlasmaMirror,
    SingularResonanceError,
    airy_factor,
    load_material_file,
    material_table,
    preset_mirror,
    reflection_amplitude_imaginary,
)
from vacuumkit.mirrors import MATERIALS_ENV_VAR, Scratch

from test_casimir import expression_loop_amplitudes

TE, TM = 0, 1  # positions in an amplitude pair
GOLD = PlasmaMirror.from_wavelength(136e-9)


class TestPerfectMirror:
    def test_unit_reflection(self):
        m = PerfectMirror()
        assert m.amplitude_imaginary(1e15, 0.0, Scratch())[TE] == -1.0
        assert m.amplitude_imaginary(1e15, 3e6, Scratch())[TM] == 1.0

    def test_pair_shaped_to_inputs(self):
        assert reflection_amplitude_imaginary(PerfectMirror(), 1e15, 3e6) == (-1.0, 1.0)
        r_te, r_tm = reflection_amplitude_imaginary(PerfectMirror(), np.array([1e14, 1e15]), 3e6)
        np.testing.assert_array_equal(r_te, [-1.0, -1.0])
        np.testing.assert_array_equal(r_tm, [1.0, 1.0])

    @pytest.mark.parametrize("mirror", [PerfectMirror(), GOLD], ids=["perfect", "plasma"])
    def test_shapes_that_do_not_broadcast(self, mirror):
        with pytest.raises(DomainError, match=r"\(3,\).*\(2,\)"):
            reflection_amplitude_imaginary(mirror, np.full(3, 1e15), np.full(2, 1e6))


class TestPlasmaAmplitudes:
    def test_high_frequency_transparency_series(self):
        # TE at k = 0 for xi >> omega_p: |r| -> omega_p^2 / (4 xi^2)
        wp = GOLD.plasma_frequency
        for xi in (50 * wp, 200 * wp):
            r = reflection_amplitude_imaginary(GOLD, xi, 0.0)[TE]
            assert r < 0.0
            assert abs(r) == pytest.approx(wp**2 / (4 * xi**2), rel=1e-3)

    def test_low_frequency_te_limit_at_normal_incidence(self):
        # r_TE -> -1 within O(xi/omega_p) at k = 0
        wp = GOLD.plasma_frequency
        for frac in (1e-3, 1e-4):
            r = reflection_amplitude_imaginary(GOLD, frac * wp, 0.0)[TE]
            assert abs(r + 1.0) < 3.0 * frac

    def test_tm_static_limit_is_plus_one_at_finite_k(self):
        for k in (1e5, 1e7):
            values = [
                reflection_amplitude_imaginary(GOLD, xi, k)[TM]
                for xi in (1e10, 1e8, 1e6)
            ]
            assert values[-1] == pytest.approx(1.0, abs=1e-4)

    def test_static_te_matches_small_xi(self):
        # the static deficit is 1 - |r_TE| in the limit xi -> 0
        k = 3e6
        near = reflection_amplitude_imaginary(GOLD, 1e4, k)[TE]
        assert GOLD.static_deficit(k) == pytest.approx(1.0 - abs(near), rel=1e-8)

    def test_magnitude_monotone_decreasing_in_xi(self):
        xis = np.geomspace(1e12, 1e18, 40)
        for k in (0.0, 1e6, 1e8):
            for pol in (TE, TM):
                mags = [abs(reflection_amplitude_imaginary(GOLD, float(x), k)[pol]) for x in xis]
                assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:])), (k, pol)

    def test_vectorized_matches_scalar(self):
        xi = np.array([1e13, 1e14, 1e15])
        k = np.array([0.0, 1e6, 1e7])
        vec = reflection_amplitude_imaginary(GOLD, xi, k)[TE]
        scal = [reflection_amplitude_imaginary(GOLD, float(a), float(b))[TE] for a, b in zip(xi, k)]
        np.testing.assert_allclose(vec, scal, rtol=0)

    @pytest.mark.parametrize("bad_xi", [0.0, -1.0, math.nan])
    def test_domain_error_on_xi(self, bad_xi):
        with pytest.raises(DomainError):
            reflection_amplitude_imaginary(GOLD, bad_xi, 0.0)

    def test_domain_error_on_negative_k(self):
        with pytest.raises(DomainError):
            reflection_amplitude_imaginary(GOLD, 1e14, -1.0)

    # finite inputs where (xi/c)^2, k^2 or (omega_p/xi)^2 leaves the float
    # range and the TM amplitude would be NaN
    @pytest.mark.parametrize("xi, k", [(1e-300, 0.0), (1e-130, 1e6), (1e200, 0.0), (1e14, 1e160)])
    def test_domain_error_names_xi_and_k_where_not_finite(self, xi, k):
        with pytest.raises(DomainError, match=re.escape(f"xi={xi!r} rad/s, k={k!r} 1/m")):
            reflection_amplitude_imaginary(GOLD, xi, k)

    def test_domain_error_names_the_first_element_not_finite(self):
        xi = np.array([1e14, 1e200, 1e-300])
        with pytest.raises(DomainError, match=re.escape("xi=1e+200 rad/s, k=2.0 1/m")):
            reflection_amplitude_imaginary(GOLD, xi, np.array([[2.0], [3.0]]))


def test_plasma_frequency_whose_square_overflows_is_refused():
    # (omega_p/c)^2 leaves the float range below lambda_p = 4.7e-154 m
    PlasmaMirror.from_wavelength(5e-154)
    with pytest.raises(DomainError, match=r"\(omega_p/c\)\^2 is not finite at plasma_frequency="):
        PlasmaMirror.from_wavelength(4e-154)


def test_amplitudes_match_mpmath_near_transparency():
    # log-uniform xi in [1e6, 1e20] rad/s, k in [1, 1e11] 1/m and lambda_p
    # in [1 nm, 2 um], deep into the nearly transparent regime where
    # kappa_m - kappa and eps kappa - kappa_m cancel
    mpmath = pytest.importorskip("mpmath")
    from vacuumkit.constants import C

    rng = np.random.default_rng(11)
    xi, k, lam = (np.exp(rng.uniform(math.log(lo), math.log(hi), 300))
                  for lo, hi in ((1e6, 1e20), (1.0, 1e11), (1e-9, 2e-6)))
    worst = 0.0
    with mpmath.workdps(40):
        for xi_i, k_i, lam_i in zip(xi, k, lam):
            mirror = PlasmaMirror.from_wavelength(float(lam_i))
            q = mpmath.mpf(float(xi_i)) / C
            kp = mpmath.mpf(mirror.plasma_frequency) / C
            kk = mpmath.mpf(float(k_i))
            eps = 1 + (kp / q) ** 2
            kappa, kappa_m = mpmath.sqrt(q**2 + kk**2), mpmath.sqrt(eps * q**2 + kk**2)
            k_m = mpmath.sqrt(kk**2 + kp**2)
            r_te, r_tm = mirror.amplitude_imaginary(xi_i, math.sqrt((xi_i / C) ** 2 + k_i**2), Scratch())
            pairs = [
                ((kappa - kappa_m) / (kappa + kappa_m), r_te),
                ((eps * kappa - kappa_m) / (eps * kappa + kappa_m), r_tm),
                (2 * kk / (kk + k_m), mirror.static_deficit(k_i)),
            ]
            worst = max(worst, max(float(abs(r - ref) / abs(ref)) for ref, r in pairs))
    assert worst <= 2e-15


@settings(max_examples=300, derandomize=True)
@given(
    xi=st.floats(min_value=1e6, max_value=1e20),
    k=st.floats(min_value=0.0, max_value=1e10),
    lam_nm=st.floats(min_value=1.0, max_value=2000.0),
    pol=st.sampled_from([TE, TM]),
)
def test_unitarity_bound_property(xi, k, lam_nm, pol):
    mirror = PlasmaMirror.from_wavelength(lam_nm * 1e-9)
    r = reflection_amplitude_imaginary(mirror, xi, k)[pol]
    assert -1.0 <= r <= 1.0


class TestAiryFactor:
    def test_transparent_mirror(self):
        assert airy_factor(0.0, 1.234) == 1.0

    def test_half_reflectivity_values(self):
        # oracle: direct evaluation of (1 - r^2)/|1 - r e^{2 i kL}|^2
        assert airy_factor(0.5, math.pi / 2) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert airy_factor(0.5, 0.0) == pytest.approx(3.0, rel=1e-14)

    def test_bounds_attained(self):
        r = 0.73
        lo = (1 - r) / (1 + r)
        hi = (1 + r) / (1 - r)
        assert airy_factor(r, math.pi / 2) == pytest.approx(lo, rel=1e-12)
        assert airy_factor(r, 0.0) == pytest.approx(hi, rel=1e-12)

    def test_unit_reflection_off_resonance_is_dark(self):
        assert airy_factor(1.0, 1.0) == 0.0

    def test_singular_resonance(self):
        with pytest.raises(SingularResonanceError):
            airy_factor(1.0, 0.0)

    def test_overshoot_rejected(self):
        with pytest.raises(DomainError):
            airy_factor(1.5, 0.2)

    @pytest.mark.parametrize("r_p, kappa_L", [(math.nan, 0.2), (0.5, math.nan), (complex(0.5, math.nan), 0.2),
                                              (0.5, math.inf), (0.5, -math.inf), (math.inf, 0.2)])
    def test_non_finite_inputs_rejected(self, r_p, kappa_L):
        with pytest.raises(DomainError, match=r"r_p and kappa_L must be finite, got r_p=.*, kappa_L="):
            airy_factor(r_p, kappa_L)

    @pytest.mark.parametrize("r_p", [0.3, 0.9, 0.5 * np.exp(0.7j), -0.6])
    def test_mode_average_is_unity(self, r_p):
        # lossless redistribution: the average of g over kappa L in [0, pi]
        # equals 1; quadrature oracle to 1e-6
        scipy_integrate = pytest.importorskip("scipy.integrate")
        val, _ = scipy_integrate.quad(lambda x: airy_factor(r_p, x), 0.0, math.pi, limit=200)
        assert val / math.pi == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=200, derandomize=True)
@given(
    mag=st.floats(min_value=0.0, max_value=0.95),
    phase=st.floats(min_value=0.0, max_value=2 * math.pi),
    kappa_l=st.floats(min_value=0.0, max_value=10.0),
)
def test_airy_bounds_property(mag, phase, kappa_l):
    r = mag * complex(math.cos(phase), math.sin(phase))
    g = airy_factor(r, kappa_l)
    assert 0.0 <= g <= (1 + mag) / (1 - mag) + 1e-12


class TestCavityReflection:
    def test_product_rule(self):
        cavity = CavityReflection(GOLD, PerfectMirror())
        xi, k = 3e14, 2e6
        expected = GOLD.amplitude_imaginary(xi, k, Scratch())[TE] * (-1.0)
        assert cavity.amplitude_imaginary(xi, k, Scratch())[TE] == pytest.approx(expected, rel=1e-15)

    def test_both_perfect_detection(self):
        assert CavityReflection(PerfectMirror(), PerfectMirror()).both_perfect
        assert not CavityReflection(GOLD, PerfectMirror()).both_perfect

    @staticmethod
    def _count_calls(monkeypatch, cls):
        calls = []
        for name in ("amplitude_imaginary", "static_deficit"):
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append((_name, self))
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        return calls

    def test_symmetric_pair_evaluates_its_mirror_once(self, monkeypatch):
        xi = np.array([1e13, 3e14, 2e16])
        k = np.array([[2e5], [2e6], [7e7]])
        expected_te, expected_tm = (r * r for r in GOLD.amplitude_imaginary(xi, k, Scratch()))
        delta = GOLD.static_deficit(k)
        calls = self._count_calls(monkeypatch, PlasmaMirror)
        # an equal mirror, not the same object, also counts as symmetric
        cavity = CavityReflection(GOLD, PlasmaMirror.from_wavelength(136e-9))
        te, tm = cavity.amplitude_imaginary(xi, k, Scratch())
        assert calls == [("amplitude_imaginary", GOLD)]
        np.testing.assert_array_equal(te, expected_te)
        np.testing.assert_array_equal(tm, expected_tm)
        calls.clear()
        deficit = cavity.static_deficit(k)
        assert calls == [("static_deficit", GOLD)]
        np.testing.assert_array_equal(deficit, delta * (2.0 - delta))

    def test_unequal_pairs_evaluate_both_mirrors(self, monkeypatch):
        other = PlasmaMirror.from_wavelength(1e-6)
        plasma_calls = self._count_calls(monkeypatch, PlasmaMirror)
        perfect_calls = self._count_calls(monkeypatch, PerfectMirror)
        xi, k = 3e14, 2e6
        te, tm = CavityReflection(GOLD, PerfectMirror()).amplitude_imaginary(xi, k, Scratch())
        assert plasma_calls == [("amplitude_imaginary", GOLD)]
        assert perfect_calls == [("amplitude_imaginary", PerfectMirror())]
        expected = GOLD.amplitude_imaginary(xi, k, Scratch())
        assert (te, tm) == (-expected[TE], expected[TM])
        plasma_calls.clear()
        te, tm = CavityReflection(GOLD, other).amplitude_imaginary(xi, k, Scratch())
        assert plasma_calls == [("amplitude_imaginary", GOLD), ("amplitude_imaginary", other)]
        plasma_calls.clear()
        deficit = CavityReflection(GOLD, other).static_deficit(k)
        assert plasma_calls == [("static_deficit", GOLD), ("static_deficit", other)]
        delta1, delta2 = GOLD.static_deficit(k), other.static_deficit(k)
        assert deficit == delta1 + delta2 * (1.0 - delta1)


class TestScratch:
    XI = np.array([1e13, 3e14, 2e16])
    K = np.array([[2e5], [2e6], [7e7]])

    def test_calls_without_scratch_return_new_arrays(self):
        # the public entry takes no Scratch: each call returns arrays of its own
        first = reflection_amplitude_imaginary(GOLD, self.XI, self.K)
        second = reflection_amplitude_imaginary(GOLD, self.XI, self.K)
        for a, b in zip(first, second):
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, self.XI) and not np.shares_memory(a, self.K)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("second", [GOLD, PlasmaMirror.from_wavelength(231e-9), PerfectMirror()],
                             ids=["symmetric", "unequal", "perfect"])
    def test_scratch_keeps_the_bits_and_reuses_its_buffers(self, second):
        pair = CavityReflection(GOLD, second)
        scratch = Scratch()
        expected = expression_loop_amplitudes(pair, self.XI, self.K)
        got = pair.amplitude_imaginary(self.XI, self.K, scratch)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        # a smaller call writes into the same buffers
        again = pair.amplitude_imaginary(self.XI[:2], self.K[:2], scratch)
        for a, b in zip(again, got):
            assert a.base is b.base
        for a, b in zip(again, expression_loop_amplitudes(pair, self.XI[:2], self.K[:2])):
            assert a.tobytes() == b.tobytes()

    def test_buffer_grows_to_the_largest_request_and_is_kept(self):
        scratch = Scratch()
        (small,) = scratch("x", (2, 3), 1)
        large_a, large_b = scratch("x", (4, 5), 2)
        assert not np.shares_memory(large_a, large_b)
        assert large_a.flags.c_contiguous and large_a.shape == (4, 5)
        (again,) = scratch("x", (2, 3), 1)
        assert again.base is large_a.base and small.base is not large_a.base


class TestMaterialPresets:
    def test_defaults(self):
        table = material_table()
        assert table["gold"] == 136.0
        assert table["copper"] == 136.0

    def test_preset_mirror(self):
        m = preset_mirror("gold")
        assert m.plasma_wavelength == pytest.approx(136e-9, rel=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            preset_mirror("unobtanium")

    def test_load_file(self, tmp_path):
        path = tmp_path / "materials.txt"
        path.write_text("# test presets\naluminium = 100\n\nsilver = 140  # noble\n")
        table = load_material_file(str(path))
        assert table == {"aluminium": 100.0, "silver": 140.0}

    def test_load_file_bad_line(self, tmp_path):
        path = tmp_path / "materials.txt"
        path.write_text("aluminium 100\n")
        with pytest.raises(DomainError):
            load_material_file(str(path))

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "materials.txt"
        path.write_text("gold = 120\nniobium = 170\n")
        monkeypatch.setenv(MATERIALS_ENV_VAR, str(path))
        table = material_table()
        assert table["gold"] == 120.0
        assert table["niobium"] == 170.0
        assert table["copper"] == 136.0

"""Results that overflow raise DomainError naming their inputs."""

import pytest

from vacuumkit import (
    CavityConfig,
    CavityReflection,
    DomainError,
    PerfectMirror,
    PlasmaMirror,
    SpherePlaneConfig,
    ThermalState,
    casimir_inertia_mass,
    energy_density,
    ideal_energy,
    ideal_force,
    sphere_plane_force,
    thermal_energy,
    thermal_force,
    thermal_susceptibility,
    vacuum_susceptibility,
)
from vacuumkit import casimir

PERFECT_PAIR = CavityReflection(PerfectMirror(), PerfectMirror())
GOLD = PlasmaMirror.from_wavelength(136e-9)
# a dense plasma mirror: at 1 nm its F/A is near that of a perfect pair
DENSE = PlasmaMirror.from_wavelength(0.1e-9)


@pytest.mark.parametrize(
    "call, inputs",
    [
        (lambda: ideal_force(1e-42, 1e296), r"L=1e-42, A=1e\+296"),
        (lambda: ideal_energy(1e-42, 1e296), r"L=1e-42, A=1e\+296"),
        (
            lambda: sphere_plane_force(SpherePlaneConfig(R=1e302, L=1e-21, temperature=0.0, mirrors=PERFECT_PAIR)),
            r"R=1e\+302, L=1e-21",
        ),
        (lambda: thermal_force(CavityConfig.symmetric(1e-26, 1e296, 0.0, PerfectMirror())), r"L=1e-26, A=1e\+296"),
        (lambda: thermal_energy(CavityConfig.symmetric(1e-18, 1e300, 300.0, PerfectMirror())), r"L=1e-18, A=1e\+300"),
        # the Matsubara sum, the T = 0 quadrature and the perfect-pair
        # series form their results from numpy sums: they return floats,
        # which overflow without a warning and print as inf
        (lambda: thermal_force(CavityConfig.symmetric(1e-9, 1e300, 300.0, DENSE)), r"L=1e-09, A=1e\+300: got inf$"),
        (lambda: thermal_force(CavityConfig.symmetric(1e-9, 1e300, 0.0, DENSE)), r"L=1e-09, A=1e\+300: got inf$"),
        (lambda: thermal_force(CavityConfig.symmetric(1e-9, 1e300, 1e6, PerfectMirror())),
         r"L=1e-09, A=1e\+300: got inf$"),
        (lambda: vacuum_susceptibility(1e300, 1e10), r"Omega=1e\+300, A=10000000000.0"),
        (lambda: thermal_susceptibility(1e300, 1e300, ThermalState(1e10)), r"Omega=1e\+300, A=1e\+300, T=1"),
        (lambda: energy_density(1e100, ThermalState(0.0)), r"omega_max=1e\+100, T=0.0"),
        (lambda: energy_density(1.0, ThermalState(1e300)), r"omega_max=1.0, T=1e\+300"),
        (lambda: casimir_inertia_mass(1e-80, 1e200), r"L=1e-80, A=1e\+200"),
    ],
    ids=[
        "ideal_force",
        "ideal_energy",
        "sphere_plane_force",
        "thermal_force",
        "thermal_energy",
        "thermal_force-matsubara",
        "thermal_force-zero-t-quadrature",
        "thermal_force-perfect-series",
        "vacuum_susceptibility",
        "thermal_susceptibility",
        "energy_density_cutoff",
        "energy_density_temperature",
        "casimir_inertia_mass",
    ],
)
def test_overflowing_result_is_a_domain_error(call, inputs):
    with pytest.raises(DomainError, match=f"not finite at {inputs}"):
        call()


@pytest.mark.parametrize(
    "config, message",
    [
        # F(T) and F(0) both underflow to 0, which left eta_T = 0/0
        (CavityConfig.symmetric(1e5, 1e-300, 300.0, GOLD), r"^force underflows to 0 at L=100000.0, A=1e-300$"),
        # F(T), about 3.96e-317 N, is subnormal: its relative error would
        # exceed any estimate
        (
            CavityConfig.symmetric(1e5, 1e-280, 300.0, GOLD),
            r"^force is subnormal at L=100000.0, A=1e-280: 3\.96\d*e-317 lies below "
            r"the smallest normal float 2\.2250738585072014e-308$",
        ),
    ],
    ids=["force", "subnormal-force"],
)
def test_underflowing_plane_result_is_a_domain_error(config, message):
    with pytest.raises(DomainError, match=message):
        thermal_force(config)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ideal_force(1e5, 1e-300), r"^ideal_force underflows to 0 at L=100000.0, A=1e-300$"),
        (lambda: ideal_energy(1e5, 1e-300), r"^ideal_energy underflows to 0 at L=100000.0, A=1e-300$"),
        (
            lambda: sphere_plane_force(SpherePlaneConfig(R=1e-300, L=1e5, temperature=0.0, mirrors=PERFECT_PAIR)),
            r"^sphere_plane_force underflows to 0 at R=1e-300, L=100000.0$",
        ),
    ],
    ids=["ideal_force", "ideal_energy", "sphere_plane_force"],
)
def test_underflowing_closed_form_result_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_eta_t_of_a_tiny_area_is_the_ratio_of_forces_per_area():
    # A F/A(0) would be subnormal here, 1.3e-317 N; the ratio needs no area
    res = thermal_force(CavityConfig.symmetric(1e5, 1e-270, 300.0, GOLD))
    pair = CavityReflection(GOLD, GOLD)
    assert res.eta_T == casimir._per_area(pair, 1e5, 300.0)[1] / casimir._per_area(pair, 1e5, 0.0)[1]

"""Output checks.  Each raises CheckError on a result outside its tolerance.

The expected values come from ``oracles.py`` (closed forms, the
perfect-mirror Lambert series, scipy) or from properties the method must
have; none is a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracles

ERROR_CEILING = 1e-8  # the library's accuracy contract
EPS = np.finfo(float).eps
CSV_REL = 1e-8  # "%.8e" keeps 9 significant digits
JSON_REL = 1e-12
MOTIONAL_REL = 1e-5  # 11-point stencils at w dt <= 0.16, relative to max |F|
STANDARD_ERRORS = 5.0


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(name: str, got: float, want: float, rel: float) -> None:
    got = float(got)
    require(math.isfinite(got) and abs(got - want) <= rel * abs(want),
            f"{name} = {got!r}, expected {want!r} within rel {rel:g}")


def finite(name: str, *values) -> None:
    require(all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values), f"{name}: non-finite value")


def error_estimate(value: float) -> None:
    require(0.0 <= value <= ERROR_CEILING, f"numerical_error {value!r} outside [0, {ERROR_CEILING:g}]")


# --- engine results ----------------------------------------------------------


def check_eta_sweep(params: dict, res) -> None:
    """Bounds and orderings of one sweep, and eta_thermal against the
    Lambert series.  eta_sweep reports no error estimate, so eta_thermal is
    held to the accuracy ceiling."""
    finite("eta_sweep", res.lengths, res.eta_plasma, res.eta_thermal, res.eta_full, res.eta_product)
    n = params["points"]
    require(len(res.lengths) == n, f"{len(res.lengths)} lengths, expected {n}")
    close("lengths[0]", res.lengths[0], params["L_min"], 4 * EPS)
    close("lengths[-1]", res.lengths[-1], params["L_max"], 4 * EPS)
    ep = res.eta_plasma
    require(bool(np.all((ep > 0.0) & (ep < 1.0))), f"eta_plasma {ep} outside (0, 1)")
    require(bool(np.all(np.diff(ep) > 0.0)), f"eta_plasma {ep} does not rise with L")
    for L, et in zip(res.lengths, res.eta_thermal):
        e_perfect, _ = oracles.perfect_thermal_per_area(float(L), params["temperature"])
        close("eta_thermal", et, e_perfect / oracles.ideal_energy_per_area(float(L)), ERROR_CEILING)
    require(bool(np.all(res.eta_full > 0.0)), f"eta_full {res.eta_full} not positive")
    require(bool(np.all(res.eta_full < res.eta_thermal)), "eta_full not below eta_thermal")
    for got, a, b in zip(res.eta_product, ep, res.eta_thermal):
        close("eta_product", got, a * b, 4 * EPS)


def check_thermal_perfect(params: dict, res) -> None:
    """Perfect mirrors at T > 0: energy and force equal the Lambert series
    within the result's own error estimate (1e-13 allows for the series'
    round-off)."""
    L, A = params["L"], params["A"]
    finite("thermal_force", res.force, res.energy, res.eta_E, res.eta_F, res.eta_T)
    error_estimate(res.numerical_error)
    e_per_area, f_per_area = oracles.perfect_thermal_per_area(L, params["temperature"])
    tol = res.numerical_error + 1e-13
    close("energy", res.energy, A * e_per_area, tol)
    close("force", res.force, A * f_per_area, tol)
    close("eta_E", res.eta_E, res.energy / (A * oracles.ideal_energy_per_area(L)), 1e-13)
    close("eta_F", res.eta_F, res.force / (A * oracles.ideal_force_per_area(L)), 1e-13)
    close("eta_T", res.eta_T, res.eta_F, 1e-13)


def check_sphere_plasma(params: dict, res) -> None:
    """Plasma mirrors at T > 0 bind less than perfect ones at the same
    (T, L), term by term since |r_p| <= 1; the proximity force is
    2 pi R E/A."""
    L = params["L"]
    finite("sphere_plane_force", res.force, res.eta, res.plane_energy_per_area)
    error_estimate(res.numerical_error)
    e_perfect, _ = oracles.perfect_thermal_per_area(L, params["temperature"])
    e = res.plane_energy_per_area
    require(0.0 < e < e_perfect, f"plasma E/A {e!r} not in (0, perfect {e_perfect!r})")
    close("force", res.force, 2.0 * math.pi * params["R"] * e, 1e-14)
    close("eta", res.eta, e / oracles.ideal_energy_per_area(L), 1e-13)


ENGINE_CHECKS = {
    "eta_sweep": check_eta_sweep,
    "thermal_perfect": check_thermal_perfect,
    "sphere_plasma": check_sphere_plasma,
}


def check_zero_t_point(L: float, plasma_wavelength: float, eta_plasma: float) -> None:
    """eta_plasma at T = 0 against scipy's evaluation of the double integral."""
    e = oracles.plasma_zero_t_energy_per_area(L, plasma_wavelength)
    close("eta_plasma vs scipy", eta_plasma, e / oracles.ideal_energy_per_area(L), ERROR_CEILING)


# --- CLI outputs -------------------------------------------------------------


def parse_cli(fmt: str, text: str) -> tuple[dict, float]:
    """(outputs by column, numerical_error) of one CLI output.  CSV columns
    of one row are scalars, of many rows lists."""
    if fmt == "json":
        record = json.loads(text)
        require(set(record) == {"inputs", "outputs", "flags", "numerical_error", "version"},
                f"JSON keys {sorted(record)}")
        return record["outputs"], float(record["numerical_error"])
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows), "malformed CSV")
    columns = {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}
    if len(rows) == 2:
        columns = {k: v[0] for k, v in columns.items()}
    error = columns.pop("numerical_error", 0.0)
    return columns, float(error)


def _want_planck(p):
    omega, T = p["omega"], p["temperature_K"]
    n = 1.0 / math.expm1(oracles.HBAR * omega / (oracles.K_B * T))
    e = oracles.HBAR * omega
    return {"mean_photon_number": n, "energy_first_law_J": n * e,
            "energy_second_law_J": (0.5 + n) * e, "thermal_weight": 1.0 + 2.0 * n}


def _want_density(p):
    th = oracles.theta(p["temperature_K"])
    vacuum = oracles.HBAR * p["omega_max"] ** 4 / (8.0 * math.pi**2 * oracles.C**3)
    thermal = oracles.HBAR * th**4 / (160.0 * math.pi**2 * oracles.C**3)
    blackbody = math.pi**2 * (oracles.K_B * p["temperature_K"]) ** 4 / (15.0 * oracles.HBAR**3 * oracles.C**3)
    return {"vacuum_J_per_m3": vacuum, "thermal_J_per_m3": thermal,
            "total_J_per_m3": vacuum + thermal, "blackbody_J_per_m3": blackbody}


def _want_chi(p):
    omega, A = p["omega"], p["area_m2"]
    c4 = oracles.C**4
    return {"chi_vacuum_im_N_per_m": oracles.HBAR * A * omega**5 / (60.0 * math.pi**2 * c4),
            "chi_thermal_im_N_per_m": oracles.HBAR * A * oracles.theta(p["temperature_K"]) ** 4 * omega
            / (240.0 * math.pi**2 * c4)}


def _want_ideal(p):
    L, A = p["length_um"] * 1e-6, p["area_cm2"] * 1e-4
    return {"force_N": A * oracles.ideal_force_per_area(L), "energy_J": A * oracles.ideal_energy_per_area(L)}


def _want_force(p):
    return {**_want_ideal(p), "eta_E": 1.0, "eta_F": 1.0, "eta_T": 1.0}


def _want_psphere(p):
    e = oracles.ideal_energy_per_area(p["length_um"] * 1e-6)
    return {"force_N": 2.0 * math.pi * p["radius_um"] * 1e-6 * e, "eta_E": 1.0,
            "plane_energy_per_area_J_m2": e}


CLOSED_FORMS = {
    "ideal": _want_ideal,
    "planck": _want_planck,
    "density": _want_density,
    "chi": _want_chi,
    "force": _want_force,
    "psphere": _want_psphere,
}


def _check_noise(p, out, rel):
    na, s, trials = p["na"], p["squeeze"], p["trials"]
    close("fano_analytic", out["fano_analytic"], s, rel)
    close("difference_variance_analytic", out["difference_variance_analytic"], na * s, rel)
    variance = na * s
    mean_se = math.sqrt(variance / trials)
    var_se = variance * math.sqrt(2.0 / (trials - 1))
    require(abs(out["mean_empirical"]) <= STANDARD_ERRORS * mean_se,
            f"mean_empirical {out['mean_empirical']!r} beyond {STANDARD_ERRORS} standard errors")
    require(abs(out["variance_empirical"] - variance) <= STANDARD_ERRORS * var_se,
            f"variance_empirical {out['variance_empirical']!r} beyond {STANDARD_ERRORS} standard errors of {variance!r}")
    close("fano_empirical", out["fano_empirical"], out["variance_empirical"] / na, rel)


def _check_motional(p, out, rel):
    traj = p["trajectory"]
    n = traj.samples
    for name in ("t_s", "q_m", "force_vacuum_N", "force_thermal_N", "valid"):
        require(len(out[name]) == n, f"{name}: {len(out[name])} samples, expected {n}")
    inner = np.ones(n, dtype=bool)
    inner[:5] = inner[-5:] = False  # the stencil's half width at each end
    require(bool(np.array_equal(np.asarray(out["valid"]) == 1, inner)), "valid column is wrong")
    t = traj.times()
    require(bool(np.all(np.abs(np.asarray(out["t_s"]) - t) <= rel * t)), "t_s differs from i * dt")
    q = traj.position()
    require(bool(np.max(np.abs(np.asarray(out["q_m"]) - q)) <= rel * np.max(np.abs(q))), "q_m differs from q(t)")

    A, T = p["area_m2"], p["temperature_K"]
    c4 = oracles.C**4
    want = {
        "force_vacuum_N": -oracles.HBAR * A / (60.0 * math.pi**2 * c4) * traj.fifth_derivative(),
        "force_thermal_N": oracles.HBAR * A * oracles.theta(T) ** 4 / (240.0 * math.pi**2 * c4)
        * traj.first_derivative(),
    }
    for name, w in want.items():
        got = np.asarray(out[name], dtype=float)
        require(bool(np.all(got[~inner] == 0.0)), f"{name}: nonzero on the invalid end samples")
        deviation = float(np.max(np.abs(got[inner] - w[inner])))
        scale = float(np.max(np.abs(w[inner])))
        require(deviation <= MOTIONAL_REL * scale, f"{name}: max deviation {deviation:.3e} from the analytic "
                f"derivative, over {MOTIONAL_REL:g} of its largest value {scale:.3e}")


def check_cli(kind: str, params: dict, outputs: dict, numerical_error: float) -> None:
    rel = JSON_REL if params["format"] == "json" else CSV_REL
    require(numerical_error == 0.0, f"numerical_error {numerical_error!r} for a closed form")
    if kind == "noise":
        _check_noise(params, outputs, rel)
    elif kind == "motional":
        _check_motional(params, outputs, rel)
    else:
        want = CLOSED_FORMS[kind](params)
        require(set(outputs) == set(want), f"{kind}: columns {sorted(outputs)}, expected {sorted(want)}")
        for name, value in want.items():
            # blackbody_J_per_m3 is a quadrature at rel_tol 1e-12
            close(name, outputs[name], value, max(rel, 1e-10) if name == "blackbody_J_per_m3" else rel)

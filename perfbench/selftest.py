"""Self-test of the output checks.

    python3 perfbench/selftest.py

Computes real results for each op kind (library calls, and CLI outputs
produced in this process), shows that every check accepts them, and
that it rejects each checked quantity once it is perturbed beyond the
check's tolerance.  Exits with code 1 if any check accepts a perturbed
result or rejects a real one.  Takes about ten seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from worker import _same  # noqa: E402

failures = []


def accept(label, check, *args):
    try:
        check(*args)
    except (checks.CheckError, ValueError, KeyError) as exc:
        failures.append(f"{label}: rejected a real result: {exc}")


def reject(label, check, *args):
    try:
        check(*args)
    except (checks.CheckError, ValueError, KeyError):
        return
    failures.append(f"{label}: accepted a perturbed result")


def engine_checks():
    from vacuumkit import casimir, mirrors

    gold = mirrors.preset_mirror("gold")
    over = 3.0  # perturbations are this many tolerances

    params = {"L_min": 2e-6, "L_max": 4e-6, "points": 2, "plasma_wavelength": 136e-9, "temperature": 300.0}
    res = casimir.eta_sweep(2e-6, 4e-6, 2, gold, 300.0)
    check = checks.check_eta_sweep
    accept("eta_sweep", check, params, res)

    def sweep_with(**arrays):
        return dataclasses.replace(res, **{k: np.asarray(v, dtype=float) for k, v in arrays.items()})

    ep, et, ef = res.eta_plasma, res.eta_thermal, res.eta_full
    reject("eta_sweep lengths", check, params, sweep_with(lengths=res.lengths * (1 + over * 4 * checks.EPS)))
    reject("eta_sweep eta_plasma >= 1", check, params, sweep_with(eta_plasma=[ep[0], 1.0]))
    reject("eta_sweep eta_plasma <= 0", check, params, sweep_with(eta_plasma=[-ep[0], ep[1]]))
    reject("eta_sweep eta_plasma falling", check, params, sweep_with(eta_plasma=ep[::-1]))
    reject("eta_sweep eta_thermal", check, params, sweep_with(eta_thermal=et * (1 + over * checks.ERROR_CEILING)))
    reject("eta_sweep eta_full >= eta_thermal", check, params, sweep_with(eta_full=et))
    reject("eta_sweep non-finite", check, params, sweep_with(eta_full=[ef[0], math.nan]))
    fields = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    product = types.SimpleNamespace(**fields, eta_product=res.eta_product * (1 + over * 4 * checks.EPS))
    reject("eta_sweep eta_product", check, params, product)

    L = res.lengths[0]
    accept("T = 0 vs scipy", checks.check_zero_t_point, float(L), 136e-9, float(ep[0]))
    reject("T = 0 vs scipy", checks.check_zero_t_point, float(L), 136e-9,
           float(ep[0]) * (1 + over * checks.ERROR_CEILING))

    params = {"L": 3e-6, "A": 2e-4, "temperature": 77.0}
    res = casimir.thermal_force(casimir.CavityConfig.symmetric(3e-6, 2e-4, 77.0, mirrors.PerfectMirror()))
    check = checks.check_thermal_perfect
    accept("thermal_perfect", check, params, res)
    tol = over * (res.numerical_error + 1e-13)
    for field, value in (("energy", res.energy * (1 + tol)), ("force", res.force * (1 - tol)),
                         ("eta_E", res.eta_E * (1 + over * 1e-13)), ("eta_F", res.eta_F * (1 + over * 1e-13)),
                         ("eta_T", res.eta_T * (1 - over * 1e-13)), ("numerical_error", over * checks.ERROR_CEILING),
                         ("energy", math.inf)):
        reject(f"thermal_perfect {field}", check, params, dataclasses.replace(res, **{field: value}))

    params = {"L": 0.5e-6, "R": 1e-3, "plasma_wavelength": 136e-9, "temperature": 300.0}
    cfg = casimir.SpherePlaneConfig(R=1e-3, L=0.5e-6, temperature=300.0, mirrors=mirrors.CavityReflection(gold, gold))
    res = casimir.sphere_plane_force(cfg)
    check = checks.check_sphere_plasma
    accept("sphere_plasma", check, params, res)
    e_perfect, _ = oracles.perfect_thermal_per_area(0.5e-6, 300.0)
    for field, value in (("plane_energy_per_area", e_perfect * (1 + 1e-6)), ("plane_energy_per_area", -1e-9),
                         ("force", res.force * (1 + over * 1e-14)), ("eta", res.eta * (1 + over * 1e-13)),
                         ("numerical_error", over * checks.ERROR_CEILING), ("force", math.nan)):
        reject(f"sphere_plasma {field}", check, params, dataclasses.replace(res, **{field: value}))

    if _same(res, dataclasses.replace(res, force=np.nextafter(res.force, 0.0))):
        failures.append("repeat comparison: accepted a result one ulp apart")


def cli_output(op) -> str:
    from vacuumkit import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(op.argv))
    if code != 0:
        raise RuntimeError(f"CLI exit code {code} for {op.argv}")
    return buffer.getvalue()


def cli_checks(tmp_dir: Path):
    ops = wl.cli_ops(0, wl.make_trajectories(0, tmp_dir))
    seen = set()
    for op in ops:
        fmt = op.params["format"]
        if (op.kind, fmt) in seen:
            continue
        seen.add((op.kind, fmt))
        label = f"cli {op.kind} {fmt}"
        outputs, error = checks.parse_cli(fmt, cli_output(op))
        accept(label, checks.check_cli, op.kind, op.params, outputs, error)
        reject(f"{label} numerical_error", checks.check_cli, op.kind, op.params, outputs, 1e-9)
        reject(f"{label} unparsable", lambda: checks.parse_cli(fmt, "force_N\n1.0,2.0\n" if fmt == "csv" else "{"))
        rel = checks.JSON_REL if fmt == "json" else checks.CSV_REL
        for name in outputs:
            bad = dict(outputs)
            if op.kind == "motional":
                if name == "valid":
                    bad[name] = [1] * len(outputs[name])
                else:
                    column = np.asarray(outputs[name], dtype=float)
                    scale = float(np.max(np.abs(column))) or 1.0
                    column[len(column) // 2] += 3.0 * max(checks.MOTIONAL_REL, rel) * scale
                    bad[name] = list(column)
            elif op.kind == "noise" and name in ("mean_empirical", "variance_empirical"):
                variance = op.params["na"] * op.params["squeeze"]
                se = (math.sqrt(variance / op.params["trials"]) if name == "mean_empirical"
                      else variance * math.sqrt(2.0 / (op.params["trials"] - 1)))
                bad[name] = (0.0 if name == "mean_empirical" else variance) + 1.2 * checks.STANDARD_ERRORS * se
            else:
                tol = max(rel, 1e-10) if name == "blackbody_J_per_m3" else rel
                bad[name] = outputs[name] * (1 + 3.0 * tol)
            reject(f"{label} {name}", checks.check_cli, op.kind, op.params, bad, error)


def main() -> int:
    engine_checks()
    out_dir = HERE.parent / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp_dir:
        cli_checks(Path(tmp_dir))
    for message in failures:
        print(f"FAIL {message}")
    print("self-test:", "failed" if failures else "every check accepts real results and rejects perturbed ones")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

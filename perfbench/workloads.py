"""Op lists of the three workloads, generated from a seed.

Every workload draws its inputs from fixed strata: the seed moves each
input inside its stratum and shuffles the order, but the number of ops
and their mix of costs stay the same for every seed.  That keeps the
run-to-run spread of the timings small while each seed still exercises
different inputs.

An op is one library call (``sweep``, ``matsubara``, run by
``call_engine``) or one CLI process (``cli``, run by ``call_cli``).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import C, theta

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("sweep", "matsubara", "cli")

# Executions of each op per round; an op's time in a round is the best of
# them.  Passes run one after the other over the whole list, so a burst of
# preemption by other processes rarely hits both executions of one op.
# The sweep's op list is too costly to run twice within one run.
REPEATS = {"sweep": 1, "matsubara": 2, "cli": 2}

# Kept failure: Matsubara sums at 300 K whose 20-term minimum reaches
# terms where exp(-u) is subnormal; each raises ConvergenceError today.
KEPT_FAILURE_LENGTHS_UM = (24.79, 26.0, 40.0)

GOLD_NM = 136.0
NOISE_TRIALS = 20_000
TRAJECTORY_SAMPLES = (20_001, 25_001, 30_001)


@dataclass
class Op:
    kind: str
    params: dict
    argv: list = field(default_factory=list)  # cli only
    handle: object = None  # prebuilt library config (engine only)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _strata(lo, hi, n):
    edges = np.geomspace(lo, hi, n + 1)
    return list(zip(edges[:-1], edges[1:]))


def _banded(rng, bands):
    """Values drawn log-uniformly from log-spaced strata of each band
    (lo, hi, count): stratified, so that each band's spread of values is
    nearly the same for every seed."""
    return [_log_uniform(rng, s_lo, s_hi) for lo, hi, n in bands for s_lo, s_hi in _strata(lo, hi, n)]


# --- sweep -------------------------------------------------------------------


def sweep_ops(seed: int) -> list[Op]:
    """40 two-point eta_sweep calls for plasma mirrors at 300 K; the longer
    distance is twice the shorter one.

    Cost is about four T = 0 solves per call, plus Matsubara sums whose
    length grows as the distance shrinks.  28 calls start in [0.3, 5] um,
    where the T = 0 solves dominate, with plasma wavelengths in
    [100, 400] nm; 12 start in [0.05, 0.065] um, where the sums are about
    300 terms long, with plasma wavelengths in [100, 150] nm.  The median
    falls among the first group and the tail rank (10 calls beyond it)
    among the second, so both land in a band of like calls for every seed."""
    rng = np.random.default_rng([seed, 1])
    starts = _banded(rng, [(0.3, 5.0, 28), (0.05, 0.065, 12)])
    wavelengths = _banded(rng, [(100.0, 400.0, 28), (100.0, 150.0, 12)])
    # decouple the distance and wavelength strata within each group
    wavelengths = [wavelengths[i] for i in np.concatenate([rng.permutation(28), 28 + rng.permutation(12)])]
    ops = [
        Op("eta_sweep", {"L_min": l_min * 1e-6, "L_max": 2.0 * l_min * 1e-6, "points": 2,
                         "plasma_wavelength": wavelength * 1e-9, "temperature": 300.0})
        for l_min, wavelength in zip(starts, wavelengths)
    ]
    rng.shuffle(ops)
    return ops


# --- matsubara ---------------------------------------------------------------


def matsubara_ops(seed: int) -> list[Op]:
    """42 finite-temperature results that never run the T = 0 double
    quadrature, at T in {300, 77, 20} K and L in [0.2, 3] um, plus the 6
    kept-failure ops.

    The cost of a Matsubara sum is set by the spacing du = 2 theta L / c of
    its terms: about 23 / du terms, at least 20.  The ops sit in four bands
    of du: 14 shallow sums at the 20-term minimum (du in [1, 4.9]), 14 of
    about 110 terms (du in [0.19, 0.23]), 12 of about 470 (du in [0.045,
    0.055]) and 2 of about 1000 (du in [0.022, 0.025]).  The median op
    falls in the second band and the tail rank (10 ops beyond it) in the
    third, each in a band of like ops for every seed.  In each band the
    seed draws du, picks one of the temperatures that reach it with L in
    [0.2, 3] um and sets L from the two.  Ops alternate between
    thermal_force with perfect mirrors and sphere_plane_force with plasma
    mirrors (100-400 nm)."""
    rng = np.random.default_rng([seed, 2])
    temperatures = (300.0, 77.0, 20.0)
    l_lo, l_hi = 0.2e-6, 3e-6
    spacings = _banded(rng, [(1.0, 4.9, 14), (0.19, 0.23, 14), (0.045, 0.055, 12), (0.022, 0.025, 2)])
    phase = int(rng.integers(2))
    ops = []
    for k, du in enumerate(spacings):
        reach = [T for T in temperatures if l_lo <= du * C / (2.0 * theta(T)) <= l_hi]
        temperature = reach[int(rng.integers(len(reach)))]
        L = du * C / (2.0 * theta(temperature))
        if (k + phase) % 2 == 0:
            ops.append(Op("thermal_perfect",
                          {"L": L, "A": _log_uniform(rng, 0.1, 10.0) * 1e-4, "temperature": temperature}))
        else:
            ops.append(Op("sphere_plasma", {"L": L, "R": _log_uniform(rng, 300.0, 3000.0) * 1e-6,
                                            "plasma_wavelength": _log_uniform(rng, 100.0, 400.0) * 1e-9,
                                            "temperature": temperature}))
    for length_um in KEPT_FAILURE_LENGTHS_UM:
        ops.append(Op("thermal_perfect", {"L": length_um * 1e-6, "A": 1e-4, "temperature": 300.0}))
        ops.append(Op("sphere_plasma", {"L": length_um * 1e-6, "R": 10e-3, "plasma_wavelength": GOLD_NM * 1e-9,
                                        "temperature": 300.0}))
    rng.shuffle(ops)
    return ops


def build_engine_handles(ops: list[Op]) -> None:
    """Build the library's config objects, outside the timed section."""
    from vacuumkit import casimir, mirrors

    for op in ops:
        p = op.params
        if op.kind == "eta_sweep":
            op.handle = mirrors.PlasmaMirror.from_wavelength(p["plasma_wavelength"])
        elif op.kind == "thermal_perfect":
            op.handle = casimir.CavityConfig.symmetric(p["L"], p["A"], p["temperature"], mirrors.PerfectMirror())
        elif op.kind == "sphere_plasma":
            m = mirrors.PlasmaMirror.from_wavelength(p["plasma_wavelength"])
            op.handle = casimir.SpherePlaneConfig(
                R=p["R"], L=p["L"], temperature=p["temperature"], mirrors=mirrors.CavityReflection(m, m)
            )
        else:
            raise ValueError(f"not an engine op: {op.kind}")


def call_engine(op: Op):
    """One library call.  Functions are looked up on the module at call
    time, so the tracer's wrappers see them."""
    from vacuumkit import casimir

    p = op.params
    if op.kind == "eta_sweep":
        return casimir.eta_sweep(p["L_min"], p["L_max"], p["points"], op.handle, p["temperature"])
    if op.kind == "thermal_perfect":
        return casimir.thermal_force(op.handle)
    return casimir.sphere_plane_force(op.handle)


def engine_warm_up() -> None:
    from vacuumkit import casimir, mirrors

    casimir.thermal_force(casimir.CavityConfig.symmetric(3e-6, 1e-4, 300.0, mirrors.PerfectMirror()))


# --- cli ---------------------------------------------------------------------


@dataclass
class Trajectory:
    """Samples q_i = v t_i + sum_j a_j sin(2 pi i / P_j + phi_j), t_i = i dt,
    with their analytic first and fifth time derivatives.  Each period P_j
    is a whole number of samples, so the phase is reduced exactly and the
    samples carry no round-off beyond that of sin itself: the library's
    fifth-derivative stencil multiplies that round-off by about
    33 / (w dt)^5."""

    path: str
    dt: float
    velocity: float
    amplitudes: np.ndarray
    periods: np.ndarray  # samples per period, integers
    phases: np.ndarray
    samples: int

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.samples)

    def _phase(self):
        i = np.arange(self.samples)
        return 2.0 * math.pi * (i % self.periods[:, None]) / self.periods[:, None] + self.phases[:, None]

    def _omegas(self):
        return 2.0 * math.pi / (self.periods * self.dt)

    def position(self):
        return self.velocity * self.times() + self.amplitudes @ np.sin(self._phase())

    def first_derivative(self):
        return self.velocity + (self.amplitudes * self._omegas()) @ np.cos(self._phase())

    def fifth_derivative(self):
        return (self.amplitudes * self._omegas() ** 5) @ np.cos(self._phase())


def make_trajectories(seed: int, directory: Path) -> list[Trajectory]:
    """Write the trajectory files of a run.  Periods of 40 to 80 samples
    (w dt from 0.08 to 0.16) keep the stencils' truncation error below
    1e-6 and their round-off below 1e-7."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for k, samples in enumerate(TRAJECTORY_SAMPLES):
        dt = _log_uniform(rng, 1e-10, 1e-8)
        amplitudes = np.array([_log_uniform(rng, 1e-10, 1e-8) for _ in range(3)])
        periods = rng.integers(40, 81, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, 3)
        # a drift below the oscillation over the whole trajectory
        velocity = float(amplitudes[0] / (samples * dt) * rng.uniform(-1.0, 1.0))
        traj = Trajectory(str(directory / f"trajectory-{k}.txt"), dt, velocity, amplitudes, periods, phases, samples)
        np.savetxt(traj.path, np.column_stack([traj.times(), traj.position()]), fmt="%.17g")
        out.append(traj)
    return out


def _argv(command: str, pairs: list) -> tuple[dict, list]:
    """CLI arguments from (flag, value) pairs, and the values as the CLI
    parses them back, keyed by the flag name."""
    argv = [command]
    params = {}
    for flag, value in pairs:
        text = value if isinstance(value, str) else (str(value) if isinstance(value, int) else f"{value:.6g}")
        argv += [f"--{flag}", text]
        params[flag.replace("-", "_")] = value if isinstance(value, (str, int)) else float(text)
    return params, argv


def cli_ops(seed: int, trajectories: list[Trajectory]) -> list[Op]:
    """40 CLI processes: per subcommand (ideal, planck, density, chi,
    noise, psphere, force) two CSV and two JSON calls, and motional twice
    in CSV and twice in JSON on each of the three trajectory files.  The
    28 one-line outputs hold the median, the 12 motional calls, which
    write megabytes, the tail rank (10 ops beyond it)."""
    rng = np.random.default_rng([seed, 3])

    def lu(lo, hi):
        return _log_uniform(rng, lo, hi)

    def pairs(kind):
        if kind == "ideal":
            return [("length-um", lu(0.1, 10.0)), ("area-cm2", lu(0.1, 10.0))]
        if kind == "planck":
            return [("omega", lu(1e11, 1e14)), ("temperature-K", lu(3.0, 3000.0))]
        if kind == "density":
            return [("omega-max", lu(1e14, 1e17)), ("temperature-K", lu(1.0, 3000.0))]
        if kind == "chi":
            return [("omega", lu(1e6, 1e12)), ("area-m2", lu(1e-6, 1.0)), ("temperature-K", lu(1.0, 300.0))]
        if kind == "noise":
            return [("na", lu(1e3, 1e8)), ("squeeze", float(rng.uniform(0.2, 1.0))),
                    ("trials", NOISE_TRIALS), ("seed", int(rng.integers(2**31)))]
        if kind == "psphere":
            return [("radius-um", lu(10.0, 1000.0)), ("length-um", lu(0.05, 5.0)),
                    ("temperature-K", 0.0), ("material", "perfect")]
        return [("length-um", lu(0.05, 5.0)), ("area-cm2", lu(0.1, 10.0)),
                ("temperature-K", 0.0), ("material", "perfect")]

    ops = []
    for kind in ("ideal", "planck", "density", "chi", "noise", "psphere", "force"):
        for fmt in ("csv", "json", "csv", "json"):
            params, argv = _argv(kind, pairs(kind) + [("format", fmt)])
            ops.append(Op(kind, params, argv))
    for traj in trajectories:
        for fmt, temperature in (("csv", 0.0), ("json", 0.0), ("csv", lu(1.0, 300.0)), ("json", lu(1.0, 300.0))):
            params, argv = _argv("motional", [("trajectory-file", traj.path), ("area-m2", lu(1e-4, 1.0)),
                                              ("temperature-K", temperature), ("format", fmt)])
            params["trajectory"] = traj
            ops.append(Op("motional", params, argv))
    rng.shuffle(ops)
    return ops


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("VACUUMKIT_MATERIALS", None)
    return env


def call_cli(op: Op, env: dict) -> subprocess.CompletedProcess:
    """One CLI process, waited for; stdout holds the output."""
    return subprocess.run(
        [sys.executable, "-m", "vacuumkit.cli", *op.argv],
        cwd=ROOT, env=env, capture_output=True, timeout=120, check=False,
    )

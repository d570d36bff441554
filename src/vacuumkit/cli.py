"""Command-line front end.

Units at the boundary: lengths and radii in micrometers, plane areas in
cm^2, mirror areas of the motional commands in m^2, temperatures in
kelvin, frequencies in rad/s.  Everything is converted to SI at the edge
and the engine works in SI throughout.

Output is machine readable.  Each subcommand handler maps the parsed
flags to one ordered dict of outputs, its flags and its numerical_error,
and ``main`` writes that result once.  CSV uses a header row, one "%.8e"
value per cell (9 significant digits, "." decimal separator) and
newline-terminated rows: the header is the output keys (plus
numerical_error for force and psphere), and the rows are their values,
one row per element when the values are lists.  JSON emits one object
{inputs, outputs, flags, numerical_error, version} with sorted keys; its
inputs are the parsed flags under their argparse names (plus the
trajectory's samples and dt_s for motional).  Results are written only
after they are computed, so a failed run leaves --output untouched.
Identical flags (and seed, where applicable) give byte-identical output.

Materials are selected as "perfect", "plasma:<wavelength in nm>", or a
preset name.  Presets ship as gold = 136 and copper = 136 (nm) and can be
extended through a file of "name = <nm>" lines pointed at by the
VACUUMKIT_MATERIALS environment variable.

Exit codes: 0 success, 2 argument or domain error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable

import numpy as np

from . import __version__
from .casimir import (
    CavityConfig,
    SpherePlaneConfig,
    eta_sweep,
    ideal_energy,
    ideal_force,
    sphere_plane_force,
    thermal_force,
)
from .errors import ConvergenceError, DomainError
from .mirrors import (
    CavityReflection,
    Mirror,
    PerfectMirror,
    PlasmaMirror,
    material_table,
)
from .motional import (
    Trajectory,
    motional_force_time_domain,
    thermal_friction_force,
    thermal_susceptibility,
    vacuum_susceptibility,
)
from .photon_noise import (
    BeamSplitterSetup,
    difference_variance,
    fano_factor,
    make_squeezed,
    monte_carlo_difference,
)
from .planck import (
    ThermalState,
    blackbody_energy_density,
    energy_density,
    mean_photon_number,
    mode_energy_first_law,
    mode_energy_second_law,
    thermal_weight,
)

_UM = 1e-6
_CM2 = 1e-4


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def resolve_material(text: str) -> Mirror:
    """Map a material selector to a mirror model."""
    if text == "perfect":
        return PerfectMirror()
    if text.startswith("plasma:"):
        try:
            nm = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad plasma wavelength in {text!r}") from exc
        return PlasmaMirror.from_wavelength(nm * 1e-9)
    table = material_table()
    if text not in table:
        raise DomainError(
            f"unknown material {text!r}; use 'perfect', 'plasma:<nm>' or one of {sorted(table)}"
        )
    return PlasmaMirror.from_wavelength(table[text] * 1e-9)


def _emit(stream, fmt: str, inputs: dict, outputs: dict, flags: Iterable[str],
          numerical_error: float, error_column: bool) -> None:
    """Write one result as JSON or CSV.

    The CSV header is the output names, with a numerical_error column when
    ``error_column`` is set.  Its rows are the output values: one row, or
    one row per element when the outputs are lists.
    """
    if fmt == "json":
        record = {
            "inputs": inputs,
            "outputs": outputs,
            "flags": sorted(flags),
            "numerical_error": numerical_error,
            "version": __version__,
        }
        text = json.dumps(record, sort_keys=True) + "\n"
    else:
        header = list(outputs)
        columns = [v if isinstance(v, list) else [v] for v in outputs.values()]
        if error_column:
            header.append("numerical_error")
            columns.append([numerical_error] * len(columns[0]))
        lines = [",".join(header)]
        for row in zip(*columns):
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    stream.write(text)
    stream.flush()


# --- subcommand handlers ----------------------------------------------------
# Each maps the parsed args to (outputs, flags, numerical_error).


def _cmd_ideal(args):
    L = args.length_um * _UM
    A = args.area_cm2 * _CM2
    return {"force_N": ideal_force(L, A), "energy_J": ideal_energy(L, A)}, (), 0.0


def _cmd_force(args):
    mirror = resolve_material(args.material)
    config = CavityConfig.symmetric(
        args.length_um * _UM, args.area_cm2 * _CM2, args.temperature_K, mirror
    )
    result = thermal_force(config)
    outputs = {
        "force_N": result.force,
        "energy_J": result.energy,
        "eta_E": result.eta_E,
        "eta_F": result.eta_F,
        "eta_T": 1.0 if result.eta_T is None else result.eta_T,
    }
    return outputs, result.flags, result.numerical_error


def _cmd_eta(args):
    mirror = resolve_material(args.material)
    sweep = eta_sweep(
        args.lmin_um * _UM, args.lmax_um * _UM, args.points, mirror, args.temperature_K
    )
    outputs = {
        "L_um": (sweep.lengths / _UM).tolist(),
        "eta_plasma": sweep.eta_plasma.tolist(),
        "eta_thermal": sweep.eta_thermal.tolist(),
        "eta_full": sweep.eta_full.tolist(),
        "eta_product": sweep.eta_product.tolist(),
    }
    return outputs, (), sweep.numerical_error


def _cmd_psphere(args):
    mirror = resolve_material(args.material)
    config = SpherePlaneConfig(
        R=args.radius_um * _UM,
        L=args.length_um * _UM,
        temperature=args.temperature_K,
        mirrors=CavityReflection(mirror, mirror),
    )
    result = sphere_plane_force(config)
    outputs = {
        "force_N": result.force,
        "eta_E": result.eta,
        "plane_energy_per_area_J_m2": result.plane_energy_per_area,
    }
    return outputs, result.flags, result.numerical_error


def _cmd_motional(args):
    traj = Trajectory.from_file(args.trajectory_file)
    state = ThermalState(args.temperature_K)
    vacuum = motional_force_time_domain(traj, args.area_m2)
    thermal = thermal_friction_force(traj, args.area_m2, state)
    # derived inputs; main reports them with the parsed flags
    args.samples, args.dt_s = traj.n_samples, traj.dt
    # the stencil end samples are reported as 0 with valid = 0
    valid = vacuum.valid
    outputs = {
        "t_s": traj.times.tolist(),
        "q_m": traj.positions.tolist(),
        "force_vacuum_N": np.where(valid, vacuum.force, 0.0).tolist(),
        "force_thermal_N": np.where(valid, thermal.force, 0.0).tolist(),
        "valid": valid.astype(int).tolist(),
    }
    return outputs, (), 0.0


def _cmd_chi(args):
    state = ThermalState(args.temperature_K)
    chi_vac, validity_vac = vacuum_susceptibility(args.omega_rad_s, args.area_m2)
    chi_th, validity_th = thermal_susceptibility(args.omega_rad_s, args.area_m2, state)
    flags = tuple(f"vacuum:{w}" for w in validity_vac.warnings()) + tuple(
        f"thermal:{w}" for w in validity_th.warnings()
    )
    outputs = {
        "chi_vacuum_im_N_per_m": chi_vac.value.imag,
        "chi_thermal_im_N_per_m": chi_th.value.imag,
    }
    return outputs, flags, 0.0


def _cmd_noise(args):
    setup = BeamSplitterSetup(
        mean_photon_number_a=args.na, port_b=make_squeezed(1.0, args.squeeze)
    )
    mc = monte_carlo_difference(setup, args.trials, args.seed)
    outputs = {
        "fano_analytic": fano_factor(setup),
        "difference_variance_analytic": difference_variance(setup),
        "fano_empirical": mc.fano,
        "mean_empirical": mc.mean,
        "variance_empirical": mc.variance,
    }
    return outputs, () if setup.linearized_ok else ("mean_photon_number_below_linear_regime",), 0.0


def _cmd_planck(args):
    state = ThermalState(args.temperature_K)
    outputs = {
        "mean_photon_number": mean_photon_number(args.omega_rad_s, state),
        "energy_first_law_J": mode_energy_first_law(args.omega_rad_s, state),
        "energy_second_law_J": mode_energy_second_law(args.omega_rad_s, state),
        "thermal_weight": thermal_weight(args.omega_rad_s, state),
    }
    return outputs, (), 0.0


def _cmd_density(args):
    state = ThermalState(args.temperature_K)
    density = energy_density(args.omega_max_rad_s, state)
    outputs = {
        "vacuum_J_per_m3": density.vacuum,
        "thermal_J_per_m3": density.thermal,
        "total_J_per_m3": density.total,
        "blackbody_J_per_m3": blackbody_energy_density(state),
    }
    return outputs, (), 0.0


# --- parser -----------------------------------------------------------------

# parsed keys that select and shape the output; every other key is an input
_PARSER_KEYS = ("command", "handler", "format", "output", "error_column")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuumkit",
        description="Quantum-vacuum observables: Casimir forces, vacuum friction, photon noise.",
    )
    parser.add_argument("--version", action="version", version=f"vacuumkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, fmt, error_column=False):
        p.add_argument("--format", choices=("csv", "json"), default=fmt,
                       help="output format (default: %(default)s)")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.set_defaults(handler=handler, error_column=error_column)

    p = sub.add_parser("ideal", help="perfect-mirror force and energy at T = 0")
    p.add_argument("--length-um", type=float, required=True, help="plate distance [um]")
    p.add_argument("--area-cm2", type=float, required=True, help="plate area [cm^2]")
    add_common(p, _cmd_ideal, "json")

    p = sub.add_parser("force", help="real-mirror force with temperature correction")
    p.add_argument("--length-um", type=float, required=True)
    p.add_argument("--area-cm2", type=float, required=True)
    p.add_argument("--temperature-K", type=float, default=0.0)
    p.add_argument("--material", default="perfect",
                   help="perfect | plasma:<nm> | preset name (gold, copper, ...)")
    add_common(p, _cmd_force, "json", error_column=True)

    p = sub.add_parser("eta", help="correction-factor sweep over distance")
    p.add_argument("--lmin-um", type=float, required=True)
    p.add_argument("--lmax-um", type=float, required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--material", default="gold")
    p.add_argument("--temperature-K", type=float, default=300.0)
    add_common(p, _cmd_eta, "csv")

    p = sub.add_parser("psphere", help="sphere-plane force by the proximity mapping")
    p.add_argument("--radius-um", type=float, required=True, help="sphere radius [um]")
    p.add_argument("--length-um", type=float, required=True, help="closest approach [um]")
    p.add_argument("--temperature-K", type=float, default=0.0)
    p.add_argument("--material", default="perfect")
    add_common(p, _cmd_psphere, "json", error_column=True)

    p = sub.add_parser("motional", help="time-domain reaction forces on a trajectory")
    p.add_argument("--trajectory-file", required=True,
                   help="two-column text file: time [s], position [m], uniform step")
    p.add_argument("--area-m2", type=float, required=True, help="mirror area [m^2]")
    p.add_argument("--temperature-K", type=float, default=0.0)
    add_common(p, _cmd_motional, "csv")

    p = sub.add_parser("chi", help="motional susceptibilities at one frequency")
    p.add_argument("--omega", dest="omega_rad_s", metavar="OMEGA", type=float, required=True,
                   help="motion frequency [rad/s]")
    p.add_argument("--area-m2", type=float, required=True)
    p.add_argument("--temperature-K", type=float, default=0.0)
    add_common(p, _cmd_chi, "json")

    p = sub.add_parser("noise", help="beam-splitter photon noise, analytic and Monte Carlo")
    p.add_argument("--na", type=float, default=1e6, help="mean photon number of port a")
    p.add_argument("--squeeze", type=float, default=1.0,
                   help="squeeze factor of port b (1 = vacuum)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True, help="Monte-Carlo seed (mandatory)")
    add_common(p, _cmd_noise, "json")

    p = sub.add_parser("planck", help="per-mode energies and the thermal weight")
    p.add_argument("--omega", dest="omega_rad_s", metavar="OMEGA", type=float, required=True,
                   help="mode frequency [rad/s]")
    p.add_argument("--temperature-K", type=float, default=0.0)
    add_common(p, _cmd_planck, "json")

    p = sub.add_parser("density", help="cutoff energy density, vacuum and thermal parts")
    p.add_argument("--omega-max", dest="omega_max_rad_s", metavar="OMEGA_MAX", type=float,
                   required=True, help="frequency cutoff [rad/s]")
    p.add_argument("--temperature-K", type=float, default=0.0)
    add_common(p, _cmd_density, "json")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        outputs, flags, numerical_error = args.handler(args)
        inputs = {k: v for k, v in vars(args).items() if k not in _PARSER_KEYS}
        # opened only now, so a failed run leaves an existing file untouched
        with (contextlib.nullcontext(sys.stdout) if args.output is None
              else open(args.output, "w", encoding="utf-8", newline="\n")) as stream:
            _emit(stream, args.format, inputs, outputs, flags, numerical_error, args.error_column)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

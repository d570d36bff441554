"""Command line: schemas, units, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from vacuumkit import __version__
from vacuumkit.cli import main

CSV_NUMBER = re.compile(r"^-?\d\.\d{8}e[+-]\d{2,3}$")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0
    return json.loads(out)


class TestSchemas:
    def test_json_schema_fields(self, capsys):
        record = run_json(capsys, ["ideal", "--length-um", "1", "--area-cm2", "1"])
        assert set(record) == {"inputs", "outputs", "flags", "numerical_error", "version"}
        assert record["version"] == __version__

    def test_csv_numbers_have_nine_significant_digits(self, capsys):
        code, out = run(capsys, ["ideal", "--length-um", "1", "--area-cm2", "1", "--format", "csv"])
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "force_N,energy_J"
        for cell in lines[1].split(","):
            assert CSV_NUMBER.match(cell), cell
        assert out.endswith("\n")

    def test_eta_csv_header(self, capsys):
        code, out = run(
            capsys,
            ["eta", "--lmin-um", "1", "--lmax-um", "2", "--points", "2",
             "--material", "perfect", "--temperature-K", "0"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "L_um,eta_plasma,eta_thermal,eta_full,eta_product"
        assert len(lines) == 3

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(["ideal", "--length-um", "1", "--area-cm2", "1", "--output", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["outputs"]["force_N"] > 0


class TestValues:
    def test_ideal_reference(self, capsys):
        record = run_json(capsys, ["ideal", "--length-um", "1", "--area-cm2", "1"])
        assert record["outputs"]["force_N"] == pytest.approx(1.3001257724477538e-07, rel=1e-9)
        assert record["outputs"]["energy_J"] == pytest.approx(4.333752574825846e-14, rel=1e-9)

    def test_ideal_length_scaling(self, capsys):
        f1 = run_json(capsys, ["ideal", "--length-um", "1", "--area-cm2", "1"])["outputs"]["force_N"]
        f2 = run_json(capsys, ["ideal", "--length-um", "2", "--area-cm2", "1"])["outputs"]["force_N"]
        assert f1 / f2 == pytest.approx(16.0, rel=1e-12)

    def test_force_perfect_t0(self, capsys):
        record = run_json(capsys, ["force", "--length-um", "1", "--area-cm2", "1"])
        assert record["outputs"]["eta_E"] == 1.0
        assert record["outputs"]["eta_F"] == 1.0
        assert record["numerical_error"] == 0.0

    def test_force_gold_long_distance(self, capsys):
        record = run_json(
            capsys,
            ["force", "--length-um", "10", "--area-cm2", "1", "--material", "gold"],
        )
        assert record["outputs"]["eta_E"] > 0.99

    def test_eta_json_reports_error_estimate(self, capsys):
        argv = ["eta", "--lmin-um", "1", "--lmax-um", "2", "--points", "2", "--format", "json",
                "--temperature-K", "300"]
        gold = run_json(capsys, argv + ["--material", "gold"])
        assert 0.0 < gold["numerical_error"] < 1e-8
        perfect_t0 = run_json(capsys, argv[:-2] + ["--temperature-K", "0", "--material", "perfect"])
        assert perfect_t0["numerical_error"] == 0.0

    def test_plasma_material_spelling(self, capsys):
        a = run_json(capsys, ["force", "--length-um", "1", "--area-cm2", "1", "--material", "gold"])
        b = run_json(capsys, ["force", "--length-um", "1", "--area-cm2", "1", "--material", "plasma:136"])
        assert a["outputs"]["force_N"] == b["outputs"]["force_N"]

    def test_psphere_reference(self, capsys):
        record = run_json(capsys, ["psphere", "--radius-um", "100", "--length-um", "1"])
        assert record["outputs"]["force_N"] == pytest.approx(2.7229770503097453e-13, rel=1e-9)
        assert record["outputs"]["eta_E"] == 1.0
        assert "R_not_much_larger_than_L" in record["flags"]  # R == 100 L is not >>

    def test_psphere_eta_equals_plane_eta(self, capsys):
        sphere = run_json(
            capsys,
            ["psphere", "--radius-um", "1000", "--length-um", "0.5", "--material", "gold"],
        )
        plane = run_json(
            capsys,
            ["force", "--length-um", "0.5", "--area-cm2", "1", "--material", "gold"],
        )
        assert sphere["outputs"]["eta_E"] == pytest.approx(plane["outputs"]["eta_E"], rel=1e-9)

    def test_planck_zero_point(self, capsys):
        record = run_json(capsys, ["planck", "--omega", "1e15", "--temperature-K", "0"])
        assert record["outputs"]["energy_second_law_J"] == pytest.approx(
            0.5 * 1.054571817e-34 * 1e15, rel=1e-12
        )
        assert record["outputs"]["energy_first_law_J"] == 0.0

    def test_density_thermal_reference(self, capsys):
        record = run_json(capsys, ["density", "--omega-max", "0", "--temperature-K", "300"])
        assert record["outputs"]["thermal_J_per_m3"] == pytest.approx(9.192365915987224e-06, rel=1e-9)
        assert record["outputs"]["blackbody_J_per_m3"] == pytest.approx(
            (2.0 / 3.0) * 9.192365915987224e-06, rel=1e-8
        )

    def test_noise_poissonian(self, capsys):
        record = run_json(capsys, ["noise", "--squeeze", "1", "--seed", "7", "--trials", "10000"])
        assert record["outputs"]["fano_analytic"] == 1.0

    def test_chi_values(self, capsys):
        record = run_json(
            capsys,
            ["chi", "--omega", "1e9", "--area-m2", "1e-4", "--temperature-K", "300"],
        )
        assert record["outputs"]["chi_vacuum_im_N_per_m"] == pytest.approx(2.204663709477543e-30, rel=1e-9)
        assert any(f.startswith("vacuum:A_not_much_larger") for f in record["flags"])

    def test_motional_linear_trajectory(self, capsys, tmp_path):
        t = 1e-3 * np.arange(41)
        path = tmp_path / "traj.txt"
        np.savetxt(path, np.column_stack([t, 2.0 * t]))
        record = run_json(
            capsys,
            ["motional", "--trajectory-file", str(path), "--area-m2", "1",
             "--temperature-K", "0", "--format", "json"],
        )
        forces = np.array(record["outputs"]["force_vacuum_N"])
        valid = np.array(record["outputs"]["valid"], dtype=bool)
        assert np.max(np.abs(forces[valid])) < 1e-40
        assert np.max(np.abs(np.array(record["outputs"]["force_thermal_N"]))) == 0.0


class TestExitCodes:
    def test_domain_error_is_two(self, capsys):
        assert main(["force", "--length-um", "-1", "--area-cm2", "1"]) == 2
        capsys.readouterr()

    def test_unknown_material_is_two(self, capsys):
        assert main(["force", "--length-um", "1", "--area-cm2", "1", "--material", "x"]) == 2
        capsys.readouterr()

    def test_argparse_error_is_two(self, capsys):
        assert main(["force"]) == 2
        capsys.readouterr()

    def test_missing_file_is_two(self, capsys):
        assert main(["motional", "--trajectory-file", "/nonexistent", "--area-m2", "1"]) == 2
        capsys.readouterr()

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def _run_subprocess(argv, extra_env=None):
    env = dict(os.environ)
    env.update(extra_env or {})
    proc = subprocess.run(
        [sys.executable, "-m", "vacuumkit.cli", *argv],
        capture_output=True,
        env=env,
        check=True,
    )
    return proc.stdout


class TestByteDeterminism:
    CASES = [
        ["ideal", "--length-um", "1", "--area-cm2", "1"],
        ["force", "--length-um", "1", "--area-cm2", "1", "--temperature-K", "300",
         "--material", "gold"],
        ["eta", "--lmin-um", "0.5", "--lmax-um", "2", "--points", "3",
         "--material", "gold", "--temperature-K", "300"],
        ["noise", "--na", "1e6", "--squeeze", "0.5", "--trials", "20000", "--seed", "42"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_repeat_runs_byte_identical(self, argv):
        assert _run_subprocess(argv) == _run_subprocess(argv)

    def test_thread_count_invariance(self):
        argv = self.CASES[1]
        one = _run_subprocess(argv, {"OMP_NUM_THREADS": "1"})
        many = _run_subprocess(argv, {"OMP_NUM_THREADS": "4"})
        assert one == many

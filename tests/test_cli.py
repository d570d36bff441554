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
        assert main(["eta", "--lmin-um", "1", "--lmax-um", "2", "--material", "perfect",
                     "--temperature-K", "-5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ideal", "--length-um", "1e-300", "--area-cm2", "1"],
            ["force", "--length-um", "1e-300", "--area-cm2", "1"],
            ["psphere", "--radius-um", "1", "--length-um", "1e-300"],
            ["eta", "--lmin-um", "1e-300", "--lmax-um", "1e-299", "--points", "2", "--material", "perfect"],
        ],
        ids=["ideal", "force", "psphere", "eta"],
    )
    def test_underflowing_length_is_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "underflows" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ideal", "--length-um", "1e300", "--area-cm2", "1"],
            ["force", "--length-um", "1e100", "--area-cm2", "1"],
            ["force", "--length-um", "1e82", "--area-cm2", "1"],  # L**4 fits, F/A underflows
            ["force", "--length-um", "1e100", "--area-cm2", "1", "--material", "gold", "--temperature-K", "300"],
            ["psphere", "--radius-um", "1", "--length-um", "1e100", "--material", "gold"],
        ],
        ids=["ideal", "force", "force-underflow", "force-gold-300K", "psphere-gold"],
    )
    def test_overflowing_length_is_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "too large" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["ideal", "--length-um", "1e-30", "--area-cm2", "1e300"], "force_N"),
            (["force", "--length-um", "1e-20", "--area-cm2", "1e300"], "force_N"),
            (["psphere", "--radius-um", "1e308", "--length-um", "1e-15"], "force_N"),
            (["chi", "--omega", "1e300", "--area-m2", "1e10"], "chi_vacuum_im_N_per_m"),
            (["density", "--omega-max", "1e100"], "vacuum_J_per_m3"),
        ],
        ids=["ideal", "force", "psphere", "chi", "density"],
    )
    def test_non_finite_output_is_two(self, capsys, tmp_path, argv, key, fmt):
        # neither JSON's non-standard Infinity nor CSV's inf is written
        assert main(argv + ["--format", fmt]) == 2
        captured = capsys.readouterr()
        assert f"{key} is not finite" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        path = tmp_path / "out"
        path.write_bytes(b"earlier result\n")
        assert main(argv + ["--format", fmt, "--output", str(path)]) == 2
        assert path.read_bytes() == b"earlier result\n"
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

    def test_points_cap_is_two(self, capsys, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the sweep allocated its lengths before the points check")

        monkeypatch.setattr(np, "geomspace", no_allocation)
        assert main(["eta", "--lmin-um", "1", "--lmax-um", "2", "--points", "1000000000",
                     "--material", "perfect", "--temperature-K", "0"]) == 2
        assert "points" in capsys.readouterr().err

    def test_failed_run_leaves_output_file_unchanged(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"earlier result\n")
        argv = ["force", "--length-um", "-1", "--area-cm2", "1", "--output", str(path)]
        assert main(argv) == 2
        assert path.read_bytes() == b"earlier result\n"
        capsys.readouterr()

    def test_unwritable_output_is_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        assert main(["ideal", "--length-um", "1", "--area-cm2", "1", "--output", str(path)]) == 2
        assert not path.exists()
        assert capsys.readouterr().out == ""

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestGoldenOutput:
    """Byte-exact CLI output for results with no quadrature behind them."""

    CASES = {
        "ideal": ["ideal", "--length-um", "1", "--area-cm2", "1"],
        "planck": ["planck", "--omega", "1e13", "--temperature-K", "300"],
        "density": ["density", "--omega-max", "1e15", "--temperature-K", "0"],
        "chi": ["chi", "--omega", "1e9", "--area-m2", "1e-4", "--temperature-K", "300"],
        "noise": ["noise", "--na", "1e6", "--squeeze", "0.5", "--trials", "2000", "--seed", "42"],
        "motional": ["motional", "--trajectory-file", "traj.txt", "--area-m2", "1e-4",
                     "--temperature-K", "300"],
        "force": ["force", "--length-um", "1", "--area-cm2", "1"],
        "psphere": ["psphere", "--radius-um", "100", "--length-um", "1"],
        "eta": ["eta", "--lmin-um", "0.5", "--lmax-um", "5", "--points", "3",
                "--material", "perfect", "--temperature-K", "0"],
    }

    GOLDEN = {
        ("ideal", "csv"): (
            "force_N,energy_J\n"
            "1.30012577e-07,4.33375257e-14\n"
        ),
        ("ideal", "json"): (
            '{"flags": [], "inputs": {"area_cm2": 1.0, "length_um": 1.0}, "numerical_error": '
            '0.0, "outputs": {"energy_J": 4.3337525748258454e-14, "force_N": '
            '1.3001257724477536e-07}, "version": "0.1.0"}'
            "\n"
        ),
        ("planck", "csv"): (
            "mean_photon_number,energy_first_law_J,energy_second_law_J,thermal_weight\n"
            "3.44880460e+00,3.63701213e-21,4.16429804e-21,7.89760920e+00\n"
        ),
        ("planck", "json"): (
            '{"flags": [], "inputs": {"omega_rad_s": 10000000000000.0, "temperature_K": '
            '300.0}, "numerical_error": 0.0, "outputs": {"energy_first_law_J": '
            '3.637012134216635e-21, "energy_second_law_J": 4.164298042716635e-21, '
            '"mean_photon_number": 3.4488046006795905, "thermal_weight": 7.897609201359181}, '
            '"version": "0.1.0"}'
            "\n"
        ),
        ("density", "csv"): (
            "vacuum_J_per_m3,thermal_J_per_m3,total_J_per_m3,blackbody_J_per_m3\n"
            "4.95706164e-02,0.00000000e+00,4.95706164e-02,0.00000000e+00\n"
        ),
        ("density", "json"): (
            '{"flags": [], "inputs": {"omega_max_rad_s": 1000000000000000.0, "temperature_K": '
            '0.0}, "numerical_error": 0.0, "outputs": {"blackbody_J_per_m3": 0.0, '
            '"thermal_J_per_m3": 0.0, "total_J_per_m3": 0.04957061643957529, '
            '"vacuum_J_per_m3": 0.04957061643957529}, "version": "0.1.0"}'
            "\n"
        ),
        ("chi", "csv"): (
            "chi_vacuum_im_N_per_m,chi_thermal_im_N_per_m\n"
            "2.20466371e-30,2.04416215e-09\n"
        ),
        ("chi", "json"): (
            '{"flags": ["thermal:A_not_much_larger_than_c2_over_Omega2", '
            '"vacuum:A_not_much_larger_than_c2_over_Omega2"], "inputs": {"area_m2": 0.0001, '
            '"omega_rad_s": 1000000000.0, "temperature_K": 300.0}, "numerical_error": 0.0, '
            '"outputs": {"chi_thermal_im_N_per_m": 2.0441621463310734e-09, '
            '"chi_vacuum_im_N_per_m": 2.2046637094775434e-30}, "version": "0.1.0"}'
            "\n"
        ),
        ("noise", "csv"): (
            "fano_analytic,difference_variance_analytic,fano_empirical,mean_empirical,variance_empirical\n"
            "5.00000000e-01,5.00000000e+05,5.02054722e-01,-3.89862991e+01,5.02054722e+05\n"
        ),
        ("noise", "json"): (
            '{"flags": [], "inputs": {"na": 1000000.0, "seed": 42, "squeeze": 0.5, "trials": '
            '2000}, "numerical_error": 0.0, "outputs": {"difference_variance_analytic": '
            '500000.0, "fano_analytic": 0.5, "fano_empirical": 0.5020547217992427, '
            '"mean_empirical": -38.98629905666597, "variance_empirical": 502054.72179924266}, '
            '"version": "0.1.0"}'
            "\n"
        ),
        ("motional", "csv"): (
            "t_s,q_m,force_vacuum_N,force_thermal_N,valid\n"
            "0.00000000e+00,0.00000000e+00,0.00000000e+00,0.00000000e+00,0\n"
            "1.00000000e-03,-2.00000000e-09,0.00000000e+00,0.00000000e+00,0\n"
            "2.00000000e-03,2.00000000e-08,0.00000000e+00,0.00000000e+00,0\n"
            "3.00000000e-03,2.16000000e-07,0.00000000e+00,0.00000000e+00,0\n"
            "4.00000000e-03,9.76000000e-07,0.00000000e+00,0.00000000e+00,0\n"
            "5.00000000e-03,3.05000000e-06,-2.64559645e-67,6.32668184e-21,1\n"
            "6.00000000e-03,7.66800000e-06,-2.64559645e-67,1.31725809e-20,1\n"
            "7.00000000e-03,1.66600000e-05,0.00000000e+00,0.00000000e+00,0\n"
            "8.00000000e-03,3.25760000e-05,0.00000000e+00,0.00000000e+00,0\n"
            "9.00000000e-03,5.88060000e-05,0.00000000e+00,0.00000000e+00,0\n"
            "1.00000000e-02,9.97000000e-05,0.00000000e+00,0.00000000e+00,0\n"
            "1.10000000e-02,1.60688000e-04,0.00000000e+00,0.00000000e+00,0\n"
        ),
        ("motional", "json"): (
            '{"flags": [], "inputs": {"area_m2": 0.0001, "dt_s": 0.001, "samples": 12, '
            '"temperature_K": 300.0, "trajectory_file": "traj.txt"}, "numerical_error": 0.0, '
            '"outputs": {"force_thermal_N": [0.0, 0.0, 0.0, 0.0, 0.0, 6.326681842894673e-21, '
            '1.3172580870957436e-20, 0.0, 0.0, 0.0, 0.0, 0.0], "force_vacuum_N": [0.0, 0.0, '
            '0.0, 0.0, 0.0, -2.6455964513726156e-67, -2.6455964513733252e-67, 0.0, 0.0, 0.0, '
            '0.0, 0.0], "q_m": [0.0, -1.9999999999999997e-09, 2e-08, 2.16e-07, 9.76e-07, '
            '3.05e-06, 7.668e-06, 1.666e-05, 3.2576e-05, 5.8806000000000006e-05, '
            '9.970000000000001e-05, 0.000160688], "t_s": [0.0, 0.001, 0.002, 0.003, 0.004, '
            '0.005, 0.006, 0.007, 0.008, 0.009000000000000001, 0.01, 0.011], "valid": [0, 0, '
            '0, 0, 0, 1, 1, 0, 0, 0, 0, 0]}, "version": "0.1.0"}'
            "\n"
        ),
        ("force", "csv"): (
            "force_N,energy_J,eta_E,eta_F,eta_T,numerical_error\n"
            "1.30012577e-07,4.33375257e-14,1.00000000e+00,1.00000000e+00,1.00000000e+00,0.00000000e+00\n"
        ),
        ("force", "json"): (
            '{"flags": [], "inputs": {"area_cm2": 1.0, "length_um": 1.0, "material": '
            '"perfect", "temperature_K": 0.0}, "numerical_error": 0.0, "outputs": '
            '{"energy_J": 4.3337525748258454e-14, "eta_E": 1.0, "eta_F": 1.0, "eta_T": 1.0, '
            '"force_N": 1.3001257724477536e-07}, "version": "0.1.0"}'
            "\n"
        ),
        ("psphere", "csv"): (
            "force_N,eta_E,plane_energy_per_area_J_m2,numerical_error\n"
            "2.72297705e-13,1.00000000e+00,4.33375257e-10,0.00000000e+00\n"
        ),
        ("psphere", "json"): (
            '{"flags": ["R_not_much_larger_than_L"], "inputs": {"length_um": 1.0, "material": '
            '"perfect", "radius_um": 100.0, "temperature_K": 0.0}, "numerical_error": 0.0, '
            '"outputs": {"eta_E": 1.0, "force_N": 2.722977050309745e-13, '
            '"plane_energy_per_area_J_m2": 4.333752574825845e-10}, "version": "0.1.0"}'
            "\n"
        ),
        ("eta", "csv"): (
            "L_um,eta_plasma,eta_thermal,eta_full,eta_product\n"
            "5.00000000e-01,1.00000000e+00,1.00000000e+00,1.00000000e+00,1.00000000e+00\n"
            "1.58113883e+00,1.00000000e+00,1.00000000e+00,1.00000000e+00,1.00000000e+00\n"
            "5.00000000e+00,1.00000000e+00,1.00000000e+00,1.00000000e+00,1.00000000e+00\n"
        ),
        ("eta", "json"): (
            '{"flags": [], "inputs": {"lmax_um": 5.0, "lmin_um": 0.5, "material": "perfect", '
            '"points": 3, "temperature_K": 0.0}, "numerical_error": 0.0, "outputs": {"L_um": '
            '[0.5, 1.5811388300841895, 5.0], "eta_full": [1.0, 1.0, 1.0], "eta_plasma": [1.0, '
            '1.0, 1.0], "eta_product": [1.0, 1.0, 1.0], "eta_thermal": [1.0, 1.0, 1.0]}, '
            '"version": "0.1.0"}'
            "\n"
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_bytes(self, capsys, tmp_path, monkeypatch, name, fmt):
        # the trajectory path is part of the JSON inputs, so it is relative
        monkeypatch.chdir(tmp_path)
        k = np.arange(12.0)
        np.savetxt("traj.txt", np.column_stack([1e-3 * k, 1e-9 * k**5 - 3e-9 * k**2]))
        code, out = run(capsys, self.CASES[name] + ["--format", fmt])
        assert code == 0
        assert out == self.GOLDEN[(name, fmt)]


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

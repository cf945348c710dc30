import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import quintic_flow
from quintic_flow import _kernels as kx
from quintic_flow import basins as bs
from quintic_flow import params as pr
from quintic_flow import solver as sv
from quintic_flow.cli import main


def _coeff_json(roots):
    coeffs = np.poly(np.asarray(roots, dtype=complex))[1:]
    return json.dumps({"coefficients": [[c.real, c.imag] for c in coeffs]})


class TestSolve:
    def test_known_roots(self, tmp_path):
        src = os.path.join(tmp_path, "q.json")
        with open(src, "w") as fh:
            fh.write(_coeff_json([1, 2, 3, 4, 6]))
        result = CliRunner().invoke(main, ["solve", src])
        assert result.exit_code == 0
        roots = [complex(re, im) for re, im in json.loads(result.output)["roots"]]
        for want in (1, 2, 3, 4, 6):
            assert min(abs(r - want) for r in roots) < 1e-6

    def test_malformed_input(self):
        result = CliRunner().invoke(main, ["solve", "-"],
                                    input='{"coefficients": [[1, 0]]}')
        assert result.exit_code == 1
        assert "malformed" in result.stderr

    def test_non_finite_coefficient_rejected(self):
        result = CliRunner().invoke(
            main, ["solve", "-"],
            input='{"coefficients": [[NaN,0],[0,0],[0,0],[0,0],[1,0]]}')
        assert result.exit_code == 1
        assert "malformed" in result.stderr

    def test_overflowing_coefficient_exits_bad_input(self):
        result = CliRunner().invoke(
            main, ["solve", "-"],
            input='{"coefficients": [[1e80,0],[0,0],[0,0],[0,0],[1,0]]}')
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "malformed" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("payload", [
        '{"coefficients": [[1%s,0],[0,0],[0,0],[0,0],[1,0]]}' % ("0" * 400),
        "[" * 100_000,
    ], ids=["integer_too_large_for_a_double", "nested_too_deep"])
    def test_unreadable_json_exits_bad_input(self, payload):
        result = CliRunner().invoke(main, ["solve", "-"], input=payload)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "malformed" in result.stderr
        assert "Traceback" not in result.stderr

    def test_repeated_root_exits_degenerate(self):
        result = CliRunner().invoke(main, ["solve", "-"],
                                    input=_coeff_json([1, 1 + 1e-8, 2, 3, 4]))
        assert result.exit_code == 4
        assert "degenerate" in result.stderr

    def test_five_fold_root_exits_degenerate(self):
        result = CliRunner().invoke(main, ["solve", "-"],
                                    input=_coeff_json([0] * 5))
        assert result.exit_code == 4
        assert "degenerate" in result.stderr

    def test_seed_determinism(self):
        payload = _coeff_json([0.3 + 1j, -2, 1.5, 0.7 - 0.2j, -1j])
        runs = [CliRunner().invoke(main, ["solve", "-", "--seed", "5"],
                                   input=payload) for _ in range(2)]
        assert runs[0].exit_code == 0
        assert runs[0].output == runs[1].output

    def test_overflowing_phiK_step_prints_nothing_to_stderr(self):
        # input 128 of the near-reduction band (b2 = 1e-8 e^(i theta)): one
        # start's phi_K step overflows, and the solve still succeeds quietly
        payload = json.dumps({"coefficients": [
            [0.0, 0.0], [9.656731063791499e-09, 2.5976037345223243e-09],
            [-0.2461573096006576, -0.4519769731628085],
            [-0.12190839480602847, -0.009605283039135331],
            [-1.5274707520789663, 1.8637509690002445]]})
        src = os.path.dirname(os.path.dirname(quintic_flow.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-m", "quintic_flow.cli", "solve", "--seed",
             "128", "-"], input=payload, env=env, capture_output=True,
            text=True)
        assert out.returncode == 0
        assert out.stderr == ""
        assert len(json.loads(out.stdout)["roots"]) == 5

    def test_negative_seed_exits_2_without_traceback(self):
        result = CliRunner().invoke(main, ["solve", "-", "--seed", "-1"],
                                    input=_coeff_json([1, 2, 3, 4, 6]))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("exc, code, prefix", [
        (sv.NonFiniteCoefficients("nan coefficient"), 1, "malformed input: "),
        (sv.NoConvergence("no start converged"), 2, "no convergence: "),
        (sv.RegularizationFailed("no regular image"), 3,
         "regularization failed: "),
        (pr.DegenerateK("T_K is singular"), 4, "degenerate parameters: ")])
    def test_typed_solve_failure_exit_code(self, monkeypatch, exc, code, prefix):
        def fail(p, seed):
            raise exc
        monkeypatch.setattr(sv, "solve", fail)
        result = CliRunner().invoke(main, ["solve", "-"],
                                    input=_coeff_json([1, 2, 3, 4, 6]))
        assert result.exit_code == code, result.output
        assert result.stderr == f"{prefix}{exc}\n"
        assert result.stdout == ""
        assert "Traceback" not in result.output


class TestVerify:
    def test_filtered_category_passes(self):
        result = CliRunner().invoke(main, ["verify", "--filter", "group"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "checks passed" in result.output

    def test_numpy_random_loads_in_the_command_not_on_import(self):
        # in a fresh interpreter: importing the package (and the CLI) leaves
        # numpy.random unloaded, and the verify command loads it before the
        # first check starts, so no check's time includes its import
        script = """
import sys
import quintic_flow.cli
assert "numpy.random" not in sys.modules
from quintic_flow import verify as vf
vf.run = lambda category=None: print("numpy.random" in sys.modules) or []
quintic_flow.cli.main(["verify"])
"""
        src = os.path.dirname(os.path.dirname(quintic_flow.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == "True"


class TestOrbits:
    def test_five_point_orbit_rows(self):
        result = CliRunner().invoke(main, ["orbits", "p5_1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 6  # header + 5 orbit points
        assert lines[0].startswith("x1_re,x1_im")

    def test_unknown_descriptor(self):
        result = CliRunner().invoke(main, ["orbits", "p7_1"])
        assert result.exit_code == 1


class TestResolvent:
    def test_cubic_coefficient_printed(self):
        result = CliRunner().invoke(main, ["resolvent", "1", "1", "1"])
        assert result.exit_code == 0
        assert "s^3: -62.5" in result.output

    def test_degenerate_parameters(self):
        result = CliRunner().invoke(main, ["resolvent", "1", "0", "1"])
        assert result.exit_code == 1

    def test_huge_k2_gives_finite_coefficients(self):
        # every true coefficient is finite; the K2^-2 terms underflow to 0
        result = CliRunner().invoke(main, ["resolvent", "1", "1e200", "1"])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert [ln.split(":")[0] for ln in lines] == [f"s^{p}" for p in range(5, -1, -1)]
        coeffs = [complex(ln.split(": ")[1]) for ln in lines]
        assert np.isfinite(coeffs).all()
        assert coeffs[2] != 0 and coeffs[4] == coeffs[5] == 0

    @pytest.mark.parametrize("k", [["nan", "1", "1"], ["1", "inf", "1"],
                                   ["1", "1", "-inf"], ["1e308", "1", "1"],
                                   ["1", "1e-7", "1e300"]])
    def test_non_finite_or_overflowing_parameters(self, k):
        result = CliRunner().invoke(main, ["resolvent", "--"] + k)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "bad parameters" in result.stderr
        assert "s^" not in result.output


class TestBasins:
    def test_small_render_writes_files(self, tmp_path):
        out = os.path.join(tmp_path, "img.ppm")
        stats = os.path.join(tmp_path, "img.json")
        result = CliRunner().invoke(main, [
            "basins", "--map", "octahedral5", "--res", "32",
            "--max-iter", "40", "--out", out, "--stats", stats])
        assert result.exit_code == 0, result.output
        with open(out, "rb") as fh:
            assert fh.read(3) == b"P6\n"
        with open(stats) as fh:
            data = json.load(fh)
        assert data["window"]["resolution"] == [32, 32]
        assert data["threads"] == kx.thread_count()
        assert isinstance(data["render_s"], float) and data["render_s"] > 0

    def test_map_choices_are_the_registry(self):
        (option,) = [p for p in main.commands["basins"].params
                     if p.name == "map_name"]
        assert list(option.type.choices) == sorted(bs.PORTRAITS)

    @pytest.mark.parametrize("name", sorted(bs.PORTRAITS))
    def test_every_map_renders_its_row(self, name, tmp_path):
        out = os.path.join(tmp_path, "img.ppm")
        stats = os.path.join(tmp_path, "img.json")
        result = CliRunner().invoke(main, [
            "basins", "--map", name, "--res", "8", "--seed", "3",
            "--out", out, "--stats", stats])
        assert result.exit_code == 0, result.output
        with open(stats) as fh:
            data = json.load(fh)
        center, width, height = bs.PORTRAITS[name].window
        assert data["window"] == {"center": [center.real, center.imag],
                                  "width": width, "height": height,
                                  "resolution": [8, 8]}
        labels = bs.portrait_attractors(name, 3).labels
        assert data["legend"] == {str(i): lab for i, lab in enumerate(labels)}

    def test_overflowing_window_leaves_those_cells_unresolved(self, tmp_path):
        # every cell but the centre overflows on its first step; the kernel
        # drops such columns without a warning, even with warnings as errors
        out = os.path.join(tmp_path, "img.ppm")
        stats = os.path.join(tmp_path, "img.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(main, [
                "basins", "--map", "octahedral5", "--res", "3",
                "--window", "0,0,1e308,1e308", "--out", out, "--stats", stats])
        assert result.exit_code == 0, result.output
        with open(out, "rb") as fh:
            pixels = np.frombuffer(fh.read()[-27:], dtype=np.uint8)
        black = (pixels.reshape(9, 3) == 0).all(1)
        assert black[[0, 1, 2, 3, 5, 6, 7, 8]].all()

    def test_bad_window(self):
        result = CliRunner().invoke(main, [
            "basins", "--map", "power4", "--window", "0,0,4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--window", "0,0,-1,1"],
        ["--window", "0,0,1,0"],
        ["--window", "a,b,c,d"],
        ["--window", "0,0,nan,1"],
        ["--window", "inf,0,1,1"],
        ["--res", "0"],
        ["--res", "1"],
        ["--max-iter", "0"],
        ["--max-iter", "-3"],
        ["--seed", "-1"],
    ])
    def test_bad_arguments_exit_2_without_traceback(self, args, tmp_path):
        result = CliRunner().invoke(main, [
            "basins", "--map", "power4", "--res", "8",
            "--out", os.path.join(tmp_path, "img.ppm"),
            "--stats", os.path.join(tmp_path, "img.json")] + args)
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert "Traceback" not in result.output
        assert not os.path.exists(os.path.join(tmp_path, "img.ppm"))

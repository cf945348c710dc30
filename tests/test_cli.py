import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

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


class TestVerify:
    def test_filtered_category_passes(self):
        result = CliRunner().invoke(main, ["verify", "--filter", "group"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "checks passed" in result.output


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
        assert data["backend"] == "numpy"

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
        ["--max-iter", "0"],
        ["--max-iter", "-3"],
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

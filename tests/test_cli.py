import hashlib
import json
import math

import numpy as np
import pytest

from bift import reportio
from bift.cli import main
from bift.scenarios import random_instance

LN2 = math.log(2.0)


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text()


class TestRun:
    def test_werner_pure(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner",
                             "--p", "1", "--beta", "1")
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["gamma_restricted"] == pytest.approx(0.25, abs=1e-10)
        assert doc["report"]["integral_ft_lhs"] == pytest.approx(0.25, abs=1e-10)
        assert doc["passed"] is True

    def test_werner_uncorrelated(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0")
        assert code == 0
        doc = json.loads(text)
        avg = doc["report"]["averages"]
        assert avg["delta_i"] == pytest.approx(0.0, abs=1e-12)
        assert avg["delta_j"] == pytest.approx(0.0, abs=1e-12)
        assert doc["report"]["bound_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_random_instance(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "random",
                             "--seed", "7", "--dims", "2,2,2")
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["integral_ft_lhs"] == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_bytes(self, tmp_path):
        _, first = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.37")
        _, second = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.37")
        assert first == second

    def test_emit_tuples(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner",
                             "--p", "0.5", "--emit-tuples")
        assert code == 0
        doc = json.loads(text)
        table = np.asarray(doc["tables"]["forward"])
        assert table.shape == (4, 2, 2, 4, 2, 2, 1, 1)
        assert table.sum() == pytest.approx(1.0, abs=1e-10)

    def test_counterexample(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "counterexample",
                             "--p", "0.5")
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["reverse_avg_exp_di"] == pytest.approx(10 / 9, abs=1e-10)


# sha256 of the output bytes, pinned from the seed implementation; none
# of these cases draws a Haar sample.
GOLDEN = {
    "werner-p0": (("run", "--scenario", "werner", "--p", "0"),
                  "c6b09c46250bb7a033946c32423dd3f1e15cd5899833766c1985730d3f8f4c62"),
    "werner-p0.37": (("run", "--scenario", "werner", "--p", "0.37"),
                     "e727e4045a7c5e888fd0214f08dbfec7ceda68702d73d92ff36fa394287cf946"),
    "werner-p1": (("run", "--scenario", "werner", "--p", "1"),
                  "9f749c52d8d1e8451f18bad8bbd8e976db2acce7a006dc8727d64e1817982bcd"),
    "counterexample-unitary": (
        ("run", "--scenario", "counterexample", "--p", "0.5"),
        "dae1bd2375197ecd51e162bc1f9cab5898f3511dd583e564f4e1e0f599b97d8e"),
    "counterexample-analytic": (
        ("run", "--scenario", "counterexample", "--p", "0.5", "--config", "analytic.json"),
        "457c7f4e87064d6f24a09b979600087932f3e12712d768649cc00acca336bb39"),
    "sweep-werner": (("sweep", "--scenario", "werner", "--p", "0:1:11"),
                     "dc8b80773a5af83de32b7c95baaf7d51153ae4f94e9070005f641a1f91aebc28"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_bytes(tmp_path, monkeypatch, case):
    argv, digest = GOLDEN[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "analytic.json").write_text(json.dumps({"route": "analytic"}))
    code, text = run_cli(tmp_path, *argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSweep:
    def test_werner_grid_monotone_gap(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "--scenario", "werner",
                             "--p", "0:1:101")
        assert code == 0
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "p" and "bound_gap" in header
        assert len(lines) == 102
        col = header.index("bound_gap")
        gaps = [float(row.split(",")[col]) for row in lines[1:]]
        assert all(g >= -1e-12 for g in gaps)
        assert all(b - a >= -1e-10 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(2 * LN2, abs=1e-10)

    def test_counterexample_ordering_column(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "--scenario", "counterexample",
                             "--p", "0.05:0.95:19")
        assert code == 0
        lines = text.strip().splitlines()
        col = lines[0].split(",").index("bound_gap")
        gaps = [float(row.split(",")[col]) for row in lines[1:]]
        # the reverse-averaged bound is strictly weaker here
        assert all(g < 0.0 for g in gaps)

    def test_single_point_matches_run(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "--scenario", "werner", "--p", "0.6")
        assert code == 0
        header, row = text.strip().splitlines()
        values = dict(zip(header.split(","), (float(x) for x in row.split(","))))
        _, run_text = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.6")
        doc = json.loads(run_text)
        assert values["delta_i_avg"] == pytest.approx(
            doc["report"]["averages"]["delta_i"], abs=1e-12)
        assert values["bound_gap"] == pytest.approx(
            doc["report"]["bound_gap"], abs=1e-12)

    def test_needs_grid(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "werner"]) == 2
        assert "grid" in capsys.readouterr().err


class TestVerify:
    def test_werner_passes(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--scenario", "werner", "--p", "0.7")
        assert code == 0
        assert "FAIL" not in text
        assert "forward_factorization" in text
        assert "info_avg_is_mutual_information" in text

    def test_corrupted_reverse_fails_named(self, tmp_path):
        out = tmp_path / "v.txt"
        code = main(["verify", "--scenario", "werner", "--p", "1",
                     "--corrupt-reverse", "--out", str(out)])
        text = out.read_text()
        assert code == 1
        assert "FAIL detailed_ft" in text
        assert "worst trajectory (0, 0, 0, 0, 0, 0, 0, 0)" in text

    def test_corrupted_werner_keeps_work_bounds(self, tmp_path):
        out = tmp_path / "v.txt"
        code = main(["verify", "--scenario", "werner", "--p", "1",
                     "--corrupt-reverse", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert code == 1
        assert any(line.startswith("FAIL detailed_ft") for line in lines)
        for name in ("work_bound_info_gamma", "work_bound_reverse_info"):
            (line,) = [ln for ln in lines if f"bound:{name} " in ln]
            assert "kind=upper" in line

    def test_random_passes(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--scenario", "random",
                             "--seed", "3", "--dims", "2,3,2")
        assert code == 0
        assert "FAIL" not in text


class TestConfigs:
    def _explicit_config(self, tmp_path):
        system = random_instance(2, 2, 2, seed=13)
        cfg = {
            "system": {
                "dims": [2, 2, 2],
                "rho_ab": reportio.encode_complex_matrix(system.rho_ab.matrix),
                "unitary": reportio.encode_complex_matrix(system.unitary),
                "reservoir": {"energies": list(system.reservoir.energies),
                              "beta": system.reservoir.beta},
            }
        }
        path = tmp_path / "system.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_explicit_system_verifies(self, tmp_path):
        path = self._explicit_config(tmp_path)
        code, text = run_cli(tmp_path, "verify", "--config", str(path))
        assert code == 0
        assert "FAIL" not in text

    def test_explicit_system_run(self, tmp_path):
        path = self._explicit_config(tmp_path)
        code, text = run_cli(tmp_path, "run", "--config", str(path))
        assert code == 0
        doc = json.loads(text)
        assert doc["scenario"]["name"] == "explicit"
        assert doc["report"]["gamma_restricted"] == pytest.approx(1.0, abs=1e-10)

    def test_missing_field_reports_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"system": {"dims": [2, 2, 2]}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "system.rho_ab" in capsys.readouterr().err

    def test_invalid_state_rejected(self, tmp_path, capsys):
        cfg = {
            "system": {
                "dims": [2, 1, 1],
                "rho_ab": reportio.encode_complex_matrix(np.eye(2)),  # trace 2
                "unitary": reportio.encode_complex_matrix(np.eye(2)),
                "reservoir": {"energies": [0.0], "beta": 1.0},
            }
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert "system" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["run", "--scenario", "random", "--dims", "2,2"]) == 2
        assert "dims" in capsys.readouterr().err

    def test_tolerance_flag(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.5",
                             "--tolerance", "1e-6")
        assert code == 0
        assert json.loads(text)["tolerances"]["equality"] == pytest.approx(1e-6)


class TestReportIO:
    def test_float_format(self):
        assert reportio.format_float(0.25) == "0.25"
        assert reportio.format_float(float("-inf")) == "-Infinity"
        assert reportio.format_float(1 / 3) == "0.333333333333333"

    def test_dumps_round_trips(self):
        doc = {"a": [1.5, float("-inf")], "b": {"c": None, "d": True}}
        parsed = json.loads(reportio.dumps(doc))
        assert parsed["a"][0] == 1.5
        assert parsed["a"][1] == float("-inf")
        assert parsed["b"] == {"c": None, "d": True}

    def test_parse_grid(self):
        assert reportio.parse_grid("0.5") == [0.5]
        assert reportio.parse_grid("0.1,0.9") == [0.1, 0.9]
        grid = reportio.parse_grid("0:1:5")
        assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(Exception):
            reportio.parse_grid("0:1")

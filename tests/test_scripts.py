"""The scripts under ``scripts/``, run as a user runs them."""

import subprocess
from pathlib import Path

import pytest

from conftest import python_command

ROOT = Path(__file__).resolve().parents[1]


def run_stress(*argv):
    cmd, env = python_command(str(ROOT / "scripts" / "random_stress.py"), *argv)
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


class TestRandomStress:
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_rejects_fewer_than_one_instance(self, count):
        proc = run_stress("--instances", count)
        assert proc.returncode == 2
        assert "argument --instances: must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_one_instance(self):
        proc = run_stress("--instances", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "OK"

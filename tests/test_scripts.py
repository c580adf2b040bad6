"""The scripts under ``scripts/``, run as a user runs them."""

import re
import runpy
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


class TestMutants:
    def test_every_mutant_applies_once(self):
        # scripts/mutants.py runs outside tier-1; this keeps each mutant's
        # text and named tests in step with the tree
        mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"), run_name="mutants")
        assert mutants["MUTANTS"]
        for mutant in mutants["MUTANTS"]:
            assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
            for node in mutant.tests:
                path, *names = node.split("::")
                text = (ROOT / path).read_text()
                assert all(re.search(rf"^\s*(class|def) {name}\b", text, re.M)
                           for name in names), node

"""The scripts under ``scripts/``, run as a user runs them."""

import importlib.util
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import python_command

ROOT = Path(__file__).resolve().parents[1]


def names_a_test(node: str) -> bool:
    """Whether each class and function a pytest node id names is defined in
    its file; a parametrized row, ``name[row]``, counts as its function."""
    path, *names = node.split("::")
    if names:
        names[-1] = re.sub(r"\[.*\]$", "", names[-1])
    text = (ROOT / path).read_text()
    return all(re.search(rf"^\s*(class|def) {re.escape(name)}\b", text, re.M)
               for name in names)


class TestMutants:
    def test_every_mutant_applies_once(self):
        # scripts/mutants.py runs outside tier-1; this keeps each mutant's
        # text and named tests in step with the tree
        mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"), run_name="mutants")
        assert mutants["MUTANTS"]
        for mutant in mutants["MUTANTS"]:
            assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
            for node in mutant.tests:
                assert names_a_test(node), node

    @pytest.mark.parametrize("node, named", [
        ("tests/test_cli.py::TestExitCodes::test_error_line_names_the_input", True),
        ("tests/test_cli.py::TestExitCodes::"
         "test_error_line_names_the_input[heat-exponent-past-limit]", True),
        ("tests/test_cli.py::TestExitCodes::test_error_line_names_the_input[a-z]", True),
        ("tests/test_cli.py::TestExitCodes::test_error_line_names_the[heat-exponent]", False),
        ("tests/test_cli.py::TestNoSuchClass", False),
    ])
    def test_node_ids_with_rows(self, node, named):
        # a row id holds characters that are not literal in a pattern
        assert names_a_test(node) is named


def load_bytes_diff(monkeypatch):
    """scripts/bytes_diff.py as a module, with the scripts it imports on the path."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("bytes_diff", ROOT / "scripts" / "bytes_diff.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bytes_diff", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestBytesDiff:
    def test_tree_against_itself_is_same(self):
        # both sides given as directories, so no git history is needed
        cmd, env = python_command(str(ROOT / "scripts" / "bytes_diff.py"),
                                  "--parent", str(ROOT), "--change", str(ROOT),
                                  "--cases", "werner-p0.37,verify-werner-p0.37")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["same  werner-p0.37", "same  verify-werner-p0.37"]
        assert lines[2].startswith("2 outputs: 2 same, 0 moved")

    @pytest.mark.parametrize("parent", ["missing", "broken"])
    def test_a_side_that_cannot_run_exits_2(self, tmp_path, parent):
        # "missing" is neither a directory nor a revision; "broken" is a
        # tree whose bift does not import
        package = tmp_path / "broken" / "src" / "bift"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text("raise ImportError('broken on purpose')\n")
        cmd, env = python_command(str(ROOT / "scripts" / "bytes_diff.py"),
                                  "--parent", str(tmp_path / parent), "--change", str(ROOT),
                                  "--cases", "werner-p0.37")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith(f"error: {tmp_path / parent}")
        assert proc.stdout == ""

    def test_error_cases_exit_2_as_in_the_tests(self, monkeypatch, tmp_path):
        # every CONFIG_ERRORS case of tests/test_cli.py is in the corpus and
        # runs as TestExitCodes runs it: it reads its own config file, and
        # the case that names its own --out keeps it
        bytes_diff = load_bytes_diff(monkeypatch)
        workdir = tmp_path / "work"
        workdir.mkdir()
        cases = bytes_diff.error_cases(workdir)
        assert len(cases) == len(bytes_diff.cli_tables()["CONFIG_ERRORS"])
        results = bytes_diff.run_side(ROOT, cases, workdir, tmp_path / "out")
        for case in cases:
            _, status, err = results[case.name]
            assert status == 2 and err.startswith("error: ") and err.count("\n") == 1, case
            configs = [arg for arg in case.argv if (workdir / arg).is_file()]
            if configs:
                assert f"config {configs[0]}: No such file" not in err, case
        [own_out] = [case for case in cases if "--out" in case.argv]
        assert results[own_out.name][2] == \
            "error: out missing/out.json: No such file or directory\n"

    def test_layout_change_keeps_shared_fields_compared(self, monkeypatch):
        # a field removed before the shared ones and one added after them:
        # the shared fields still pair up, the k-th at a path with the k-th
        bytes_diff = load_bytes_diff(monkeypatch)
        old = [("schema", 1), ("bounds[a].slack", 0.5), ("bounds[b].slack", 0.25),
               ("xs[*]", 1.0), ("xs[*]", 2.0), ("passed", True)]
        new = [("xs[*]", 1.0), ("xs[*]", 3.0), ("passed", True), ("tolerances.trace", 1e-12)]
        lines, moved = bytes_diff.moved_fields(old, new)
        assert lines == [
            "removed schema", "removed bounds[*].slack  (2 fields)",
            "added tolerances.trace", "xs[*]  (1 moved)  abs 1  rel 0.5"]
        assert moved == {"removed schema": 0.0, "removed bounds[*].slack": 0.0,
                         "added tolerances.trace": 0.0, "xs[*]": 1.0}
        equal = "bytes differ, every parsed field is equal"
        assert bytes_diff.moved_fields(old, old) == ([equal], {equal: 0.0})

    def test_summary_counts_outputs_per_moved_path(self, monkeypatch, capsys):
        # "a" moves its exit status, its stderr and x; "b" moves x further
        # and one check; "c" stays the same
        bytes_diff = load_bytes_diff(monkeypatch)
        check = [{"name": "c", "value": 0.5}]
        outputs = {
            "parent": {"a": ({"x": 1.0, "checks": check}, 0, ""),
                       "b": ({"x": 1.0, "checks": check}, 0, ""),
                       "c": ({"x": 1.0}, 0, "")},
            "change": {"a": ({"x": 1.25, "checks": check}, 1, "warning\n"),
                       "b": ({"x": 1.5, "checks": [{"name": "c", "value": 0.75}]}, 0, ""),
                       "c": ({"x": 1.0}, 0, "")},
        }

        def run_side(tree, cases, workdir, outdir):
            outdir.mkdir()
            results = {}
            for case in cases:
                doc, status, err = outputs[outdir.name.removeprefix("out-")][case.name]
                (outdir / case.name).write_text(json.dumps(doc))
                results[case.name] = (outdir / case.name, status, err)
            return results

        monkeypatch.setattr(bytes_diff, "golden_cases",
                            lambda: [bytes_diff.Case(name, ("run",)) for name in "abc"])
        monkeypatch.setattr(bytes_diff, "error_cases", lambda workdir: [])
        monkeypatch.setattr(bytes_diff, "workload_cases", lambda workdir: [])
        monkeypatch.setattr(bytes_diff, "run_side", run_side)
        assert bytes_diff.main(["--parent", str(ROOT), "--change", str(ROOT)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-5].startswith("3 outputs: 1 same, 2 moved")
        assert out[-4:] == ["across exit status  (1 outputs)",
                            "across stderr  (1 outputs)",
                            "across x  (2 outputs)  abs 0.5",
                            "across checks[c].value  (1 outputs)  abs 0.25"]

    def test_a_revision_that_does_not_export_exits_2(self, monkeypatch, capsys):
        bytes_diff = load_bytes_diff(monkeypatch)

        def fail(dest, rev="HEAD"):
            raise subprocess.CalledProcessError(128, ["git", "archive", rev])

        monkeypatch.setattr(bytes_diff, "export", fail)
        monkeypatch.setattr(bytes_diff, "workload_cases", lambda workdir: [])
        assert bytes_diff.main(["--parent", "HEAD", "--change", str(ROOT),
                                "--cases", "werner-p0.37"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: HEAD: neither a directory nor a git revision that exports")

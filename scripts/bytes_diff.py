#!/usr/bin/env python3
"""Byte diff: run one fixed corpus of ``bift`` calls on two source trees
and say, per output, whether its bytes moved.

    python scripts/bytes_diff.py --parent HEAD~1            # against the working tree
    python scripts/bytes_diff.py --parent v1 --change v2    # two revisions
    python scripts/bytes_diff.py --parent ../old --change . --cases werner-p0.37

Each side is a git revision of this repository, exported with ``git
archive`` (committed files only), or a directory that holds a source
tree; ``--change`` defaults to the working tree.  The corpus comes from
the checkout that holds this script: the ``GOLDEN`` argv set and the
``CONFIG_ERRORS`` table of ``tests/test_cli.py``, and the ops and
negative controls of the three workloads of ``perfbench/workloads.py``
at seed 3.  The configs of both tables' cases are written into one work
directory, where every call runs.  Each side runs the whole corpus in
one child process, with its own ``src`` first on ``PYTHONPATH``.

An output is what a call writes to ``--out``, its exit status and its
stderr; a case that names its own ``--out`` keeps it, and only its
status and stderr are compared.  Each prints as ``same`` or ``moved``.
For a moved report, sweep table or ``verify`` text, the fields only one
side holds are listed as removed or added, and every moved field shared
by both with its largest absolute and relative change; list entries are
named by their ``name`` key when they have one and collapse to ``[*]``
otherwise.  After the count of moved outputs comes one ``across`` line
per path that moved anywhere, with the number of outputs that moved it
and its largest absolute change: exit status and stderr first, then the
rest, the path moved in most outputs first.  Exit 0 when every output is
the same, 1 when one moved, 2 on a usage error or when a side cannot
run: a revision that does not export, a tree whose corpus does not run,
or a corpus that cannot be read.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mutants import export

ROOT = Path(__file__).resolve().parents[1]
SEED = 3

# Runs in the child, one per side: argv[1] is the side's src, argv[2] the
# case list, argv[3] where the statuses and stderr texts go.  Each case
# runs under its own ``catch_warnings``, which resets the once-per-location
# record, so it prints every warning a ``bift`` process of its own would.
CHILD = """
import contextlib, io, json, sys, warnings
from pathlib import Path
src, cases, results = sys.argv[1:]
import bift.cli
if Path(bift.cli.__file__).resolve().parent != Path(src).resolve() / "bift":
    sys.exit(f"imported bift from {bift.cli.__file__}, not {src}")
out = {}
for name, argv, path in json.loads(Path(cases).read_text()):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        try:
            status = bift.cli.main(argv if "--out" in argv else [*argv, "--out", path])
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:
            status = f"{type(exc).__name__}: {exc}"
    out[name] = [status, err.getvalue()]
Path(results).write_text(json.dumps(out))
"""


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]


def definitions(path: Path, names: set[str], namespace: dict) -> dict:
    """``namespace`` after running the top-level assignments and functions
    of ``path`` that bind ``names``, in file order: a test module's tables
    without its imports, so without importing ``bift``."""
    nodes = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name in names
             or isinstance(node, ast.Assign) and any(
                 isinstance(t, ast.Name) and t.id in names for t in node.targets)]
    exec(compile(ast.Module(nodes, type_ignores=[]), str(path), "exec"), namespace)
    missing = names - namespace.keys()
    if missing:
        raise UsageError(f"{path.relative_to(ROOT)} defines no {', '.join(sorted(missing))}")
    return namespace


def cli_tables() -> dict:
    """The ``GOLDEN`` and ``CONFIG_ERRORS`` tables of tests/test_cli.py."""
    tests = ROOT / "tests"
    namespace = definitions(tests / "conftest.py", {"encode_complex_matrix"}, {"np": np})
    return definitions(tests / "test_cli.py",
                       {"ONE_LEVEL_SYSTEM", "TWO_QUBIT_SYSTEM", "GOLDEN", "CONFIG_ERRORS"},
                       namespace)


def golden_cases() -> list[Case]:
    """The ``GOLDEN`` argv set of tests/test_cli.py."""
    return [Case(name, tuple(argv)) for name, (argv, _digest) in cli_tables()["GOLDEN"].items()]


def error_cases(workdir: Path) -> list[Case]:
    """The ``CONFIG_ERRORS`` table of tests/test_cli.py, each case's config
    written into ``workdir`` under the case's name, which its argv then
    reads in place of ``config.json``."""
    cases = []
    for i, (argv, config) in enumerate(cli_tables()["CONFIG_ERRORS"]):
        name = f"config-error-{i}"
        if config is not None:
            path = workdir / f"{name}.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = [path.name if arg == "config.json" else arg for arg in argv]
        cases.append(Case(name, tuple(argv)))
    return cases


def workload_cases(workdir: Path) -> list[Case]:
    """The ops and negative controls of each benchmark workload at seed 3;
    their config files are written into ``workdir``."""
    cases = []
    try:
        workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
        for workload in workloads["WORKLOADS"]:
            ops, negatives = workloads["generate"](workload, SEED, str(workdir))
            cases += [Case(f"{workload}/{op.label}", tuple(op.argv)) for op in ops + negatives]
    except Exception as exc:
        raise UsageError(f"perfbench/workloads.py: {type(exc).__name__}: {exc}") from exc
    return cases


def source_tree(spec: str, scratch: Path) -> tuple[Path, str]:
    """The tree a side names, a directory or a revision exported under
    ``scratch``, and how to print it."""
    path = Path(spec)
    if path.is_dir():
        if not (path / "src" / "bift" / "cli.py").is_file():
            raise UsageError(f"{spec}: a directory with no src/bift/cli.py")
        return path.resolve(), str(path)
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                                 f"{spec}^{{commit}}"], capture_output=True, text=True,
                                check=True).stdout.strip()
        export(scratch, commit)
    except (OSError, subprocess.CalledProcessError) as exc:
        raise UsageError(f"{spec}: neither a directory nor a git revision that exports "
                         f"({exc})") from exc
    return scratch, f"{spec} ({commit[:12]})"


def run_side(tree: Path, cases: list[Case], workdir: Path, outdir: Path) -> dict:
    """Run every case on ``tree`` in one child process; each case's
    output file, exit status and stderr."""
    outdir.mkdir()
    listing = [(c.name, list(c.argv), str(outdir / f"{i}.out")) for i, c in enumerate(cases)]
    (outdir / "cases.json").write_text(json.dumps(listing))
    results = outdir / "results.json"
    src = tree / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), str(outdir / "cases.json"),
                           str(results)], cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise UsageError(f"{tree}: the corpus did not run:\n{proc.stderr.strip()}")
    codes = json.loads(results.read_text())
    return {name: (Path(path), *codes[name]) for name, _, path in listing}


# -- field paths -------------------------------------------------------------

def json_leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            tag = value.get("name") if isinstance(value, dict) else None
            yield from json_leaves(value, f"{path}[{tag if isinstance(tag, str) else '*'}]")
    else:
        yield path, obj


def number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_leaves(text: str):
    rows = list(csv.reader(text.splitlines()))
    yield "header", ",".join(rows[0]) if rows else ""
    for row in rows[1:]:
        for column, cell in zip(rows[0], row):
            yield column, number(cell)


CHECK_LINE = re.compile(r"(PASS|FAIL) (\S+) value=(\S+)(?:  \((.*)\))?$")


def verify_leaves(text: str):
    for line in text.splitlines():
        match = CHECK_LINE.match(line)
        if match:
            status, name, value, detail = match.groups()
            yield f"{name}.status", status
            yield f"{name}.value", number(value)
            yield f"{name}.detail", detail or ""
        else:
            yield "line", line


def leaves(command: str, data: bytes) -> list:
    text = data.decode("ascii", errors="replace")
    if command == "run":
        try:
            return list(json_leaves(json.loads(text)))
        except ValueError:
            pass
    elif command == "sweep":
        return list(csv_leaves(text))
    elif command == "verify":
        return list(verify_leaves(text))
    return [("text", text)]


def finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass
class Moved:
    count: int = 0
    abs: float = 0.0       # largest |new - old| over the finite pairs
    rel: float = 0.0       # largest |new - old| / |old| over them
    example: str = ""      # the first other change


def occurrences(fields: list) -> dict:
    """Each field by (path, k): the k-th field at its path, in order."""
    seen: Counter = Counter()
    out = {}
    for path, value in fields:
        out[path, seen[path]] = value
        seen[path] += 1
    return out


def layout_changes(kind: str, keys) -> Counter:
    """``kind`` and each path among ``keys`` (pairs (path, k)), list
    entries' names collapsed to ``[*]``, with how many fields it stands
    for."""
    return Counter(kind + " " + re.sub(r"\[[^]]*\]", "[*]", path) for path, _ in keys)


EQUAL_FIELDS = "bytes differ, every parsed field is equal"


def moved_fields(old: list, new: list) -> tuple[list[str], dict[str, float]]:
    """The field paths only one side holds, as removed or added, then each
    path both hold whose value moved, with its largest absolute and
    relative change.  The k-th field at a path on one side pairs with the
    k-th at that path on the other, so a change of layout leaves every
    shared field compared.  Returns the lines, and each line's path with
    its largest absolute change (0.0 where none is numeric)."""
    old_at, new_at = occurrences(old), occurrences(new)
    layout = (layout_changes("removed", [k for k in old_at if k not in new_at])
              + layout_changes("added", [k for k in new_at if k not in old_at]))
    moved: dict[str, Moved] = {}
    for (path, k), a in old_at.items():
        if (path, k) not in new_at:
            continue
        b = new_at[path, k]
        if a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b)):
            continue
        m = moved.setdefault(path, Moved())
        m.count += 1
        if finite(a) and finite(b):
            m.abs = max(m.abs, abs(b - a))
            m.rel = max(m.rel, abs(b - a) / abs(a) if a else math.inf)
        else:
            m.example = m.example or f"{a!r} -> {b!r}"
    if not moved and not layout:
        return [EQUAL_FIELDS], {EQUAL_FIELDS: 0.0}
    lines = [key + (f"  ({n} fields)" if n > 1 else "") for key, n in layout.items()] + [
        f"{path}  ({m.count} moved)" + (f"  abs {m.abs:.3g}  rel {m.rel:.3g}" if m.abs else "")
        + (f"  first other change {m.example}" if m.example else "")
        for path, m in moved.items()]
    return lines, dict.fromkeys(layout, 0.0) | {path: m.abs for path, m in moved.items()}


def compare(command: str, old: tuple, new: tuple) -> tuple[list[str], dict[str, float]] | None:
    """None when the two outputs are the same, else their differences as
    lines, and what moved as ``moved_fields`` gives it, after ``exit
    status`` and ``stderr`` when those moved."""
    (old_path, old_status, old_err), (new_path, new_status, new_err) = old, new
    old_bytes = old_path.read_bytes() if old_path.exists() else b""
    new_bytes = new_path.read_bytes() if new_path.exists() else b""
    if (old_bytes, old_status, old_err) == (new_bytes, new_status, new_err):
        return None
    lines, what = [], {}
    if old_status != new_status:
        lines.append(f"exit status {old_status!r} -> {new_status!r}")
        what["exit status"] = 0.0
    if old_err != new_err:
        lines.append(f"stderr {old_err.strip()!r} -> {new_err.strip()!r}")
        what["stderr"] = 0.0
    if old_bytes != new_bytes:
        field_lines, fields = moved_fields(leaves(command, old_bytes), leaves(command, new_bytes))
        lines += field_lines
        what |= fields
    return lines, what


def summary(moves: list[dict[str, float]]) -> list[str]:
    """One line per path that moved in any output, given what moved in
    each moved output: how many outputs moved it and its largest absolute
    change.  Exit status and stderr come first, then the other paths by
    outputs, most first."""
    outputs: Counter = Counter()
    largest: dict[str, float] = {}
    for what in moves:
        outputs.update(what.keys())
        for path, change in what.items():
            largest[path] = max(largest.get(path, 0.0), change)
    first = [path for path in ("exit status", "stderr") if path in outputs]
    rest = sorted(outputs.keys() - set(first), key=lambda path: (-outputs[path], path))
    return [f"{path}  ({outputs[path]} outputs)"
            + (f"  abs {largest[path]:.3g}" if largest[path] else "") for path in first + rest]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision or source-tree directory")
    ap.add_argument("--change",
                    help="git revision or source-tree directory (default: the working tree)")
    ap.add_argument("--cases", help="comma list of case names to run (default: all)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bift-bytes-diff-") as tmp:
        tmp = Path(tmp)
        workdir = tmp / "work"
        workdir.mkdir()
        try:
            cases = golden_cases() + error_cases(workdir) + workload_cases(workdir)
            if args.cases is not None:
                wanted = args.cases.split(",")
                unknown = set(wanted) - {c.name for c in cases}
                if unknown:
                    raise UsageError(f"unknown cases {sorted(unknown)}")
                cases = [c for c in cases if c.name in wanted]
            sides = [source_tree(args.parent, tmp / "tree-parent"),
                     source_tree(args.change, tmp / "tree-change") if args.change is not None
                     else (ROOT, "the working tree")]
            runs = [run_side(tree, cases, workdir, tmp / f"out-{role}")
                    for role, (tree, _) in zip(("parent", "change"), sides)]
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        moves = []
        for case in cases:
            diff = compare(case.argv[0], runs[0][case.name], runs[1][case.name])
            print(f"{'same ' if diff is None else 'moved'} {case.name}")
            if diff is not None:
                for line in diff[0]:
                    print(f"      {line}")
                moves.append(diff[1])
    print(f"{len(cases)} outputs: {len(cases) - len(moves)} same, {len(moves)} moved "
          f"(parent {sides[0][1]}, change {sides[1][1]})")
    for line in summary(moves):
        print(f"across {line}")
    return 1 if moves else 0


if __name__ == "__main__":
    sys.exit(main())

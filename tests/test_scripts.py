"""Smoke tests of the example scripts: each runs to the end."""
import pathlib
import re
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_dual_plane_moduli_matches_the_hexagon(tmp_path):
    # assembles the toy complex, embeds it and matches the embedded fan with
    # the hexagon by fan_isomorphisms; the figure goes to the given path
    figure = tmp_path / "fan.svg"
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "dual_plane_moduli.py"), str(figure)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "f-vector: (1, 6, 6)" in run.stdout
    [match] = [line for line in run.stdout.splitlines() if line.startswith("unimodular match with the hexagon fan:")]
    assert not match.endswith("None")
    svg = figure.read_text()
    assert svg.startswith("<svg") and svg.count("<path") == 6


def test_src_lines_split_every_line_of_each_module():
    # code, docstring, comment and blank lines sum to each module's plain
    # line count, and the total row to the package's
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "src_lines.py")], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    header, *rows, total = [line.split() for line in run.stdout.splitlines()]
    assert header == ["module", "code", "docstring", "comment", "blank", "lines"]
    package = SCRIPTS.parent / "src" / "tropcount"
    assert sorted(row[0] for row in rows) == sorted(path.name for path in package.glob("*.py"))
    for name, *counts in rows:
        *kinds, lines = map(int, counts)
        assert sum(kinds) == lines == len((package / name).read_text().splitlines())
    assert total[0] == "total"
    assert [int(x) for x in total[1:]] == [sum(int(row[k]) for row in rows) for k in range(1, 6)]
    assert all(int(x) for x in total[1:])


def test_reach_lists_the_functions_no_call_enters():
    # the fan command enters the static method Fan.make, whose code starts at
    # its decorator's line; neither call enters the count or a cached property
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "reach.py"), "fan --name p2", "oracle kontsevich 2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    header, *rows, total = [line.split() for line in run.stdout.splitlines()]
    assert header == ["module", "function", "lines"]
    listed = {(module, name) for module, name, _ in rows}
    assert ("counting.py", "count") in listed and ("polyhedral.py", "Fan.cone_refs") in listed
    assert not listed & {("polyhedral.py", "Fan.make"), ("counting.py", "kontsevich_oracle"), ("cli.py", "main")}
    # a nested function is listed only under an entered one
    assert ("counting.py", "_marked_dfs") in listed and ("counting.py", "_marked_dfs.rec") not in listed
    assert total == ["total", f"{len(rows)}", "functions", f"{sum(int(row[2]) for row in rows)}"]


# What no command enters, each with why it stays under src/. A function
# missing here fails the test below, and so does an entry no longer listed.
UNREACHED = {
    ("cli.py", "_logger"): "error path: built only when a retry notice or an --svg refusal is logged",
    ("cli.py", "_Parser.error"): "error path: a usage error, exit 64",
    ("counting.py", "mikhalkin_multiplicity"): "perfbench reads it: check_mikhalkin's vertex product on count_plane_d3",
    ("counting.py", "_map_workers"): "pool-worker path: a count on more than one worker",
    ("counting.py", "count_result_from_json"): "JSON reader kept for validating count files (ROADMAP item 15)",
    ("lp.py", "_phase_one"): "perfbench reads it: under lp.strict_point, which the tracer wraps (ROADMAP item 17)",
    ("lp.py", "strict_point"): "perfbench reads it: the tracer wraps it by name (ROADMAP item 17)",
    ("maps.py", "ValidationReport.conditions"): "error path: names the failed conditions in _solve_tree's SolveCheckError",
    ("moduli.py", "_matrix_from_json"): "JSON reader kept for validating complex files (ROADMAP item 15)",
    ("moduli.py", "complex_from_json"): "JSON reader kept for validating complex files (ROADMAP item 15)",
    ("moduli.py", "embedding_from_json"): "JSON reader kept for validating embed files (ROADMAP item 15)",
    ("polyhedral.py", "Fan.__getstate__"): "pool-worker path: pickles a fan without its caches",
}
# Each reason names one of these kinds; a test oracle goes to tests/oracles.py.
REASON = re.compile(r"error path: |pool-worker path: |perfbench reads it: |JSON reader kept for .* \(ROADMAP item 15\)$")


def test_reach_lists_only_the_allowed_functions():
    # a ratchet: a new function that no command enters must be given a reason
    # here, and one that a command now enters, or that is gone, leaves
    run = subprocess.run([sys.executable, str(SCRIPTS / "reach.py")], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    _, *rows, _ = [line.split() for line in run.stdout.splitlines()]
    listed = {(module, name) for module, name, _ in rows}
    assert sorted(listed - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - listed) == []
    assert [key for key, reason in UNREACHED.items() if not REASON.match(reason)] == []

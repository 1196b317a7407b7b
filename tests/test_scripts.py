"""Smoke tests of the example scripts: each runs to the end."""
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_dual_plane_moduli_matches_the_hexagon(tmp_path):
    # assembles the toy complex, embeds it and matches the embedded fan with
    # the hexagon by unimodular_equivalent; the figure goes to the given path
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
    ("counting.py", "evaluation_matrix"): "test oracle: the evaluation rows of a type as one matrix",
    ("counting.py", "multiplicity"): "test oracle: a type's lattice index, apart from the count",
    ("counting.py", "mikhalkin_multiplicity"): "test oracle: Mikhalkin's vertex product",
    ("counting.py", "_map_workers"): "pool-worker path: a count on more than one worker",
    ("counting.py", "count_result_from_json"): "JSON reader kept for validating count files (ROADMAP item 15)",
    ("exactmath.py", "IntMatrix.column"): "test oracle: read by the tests' lattice checks",
    ("exactmath.py", "SmithDecomposition.diagonal"): "test oracle: the Smith form",
    ("exactmath.py", "SmithDecomposition.rank"): "test oracle: the Smith form",
    ("exactmath.py", "_diagonalize"): "test oracle: the Smith form",
    ("exactmath.py", "smith_normal_form"): "test oracle: the Smith form",
    ("exactmath.py", "lattice_index"): "test oracle: lattice indices by the Smith form",
    ("exactmath.py", "solve_rational"): "test oracle: exact solves apart from the fraction-free elimination",
    ("lp.py", "_phase_one"): "test oracle: the exact LP, which perfbench's tracer imports (ROADMAP item 17)",
    ("lp.py", "strict_point"): "test oracle: the exact LP, which perfbench's tracer imports (ROADMAP item 17)",
    ("maps.py", "ValidationReport.conditions"): "test oracle: the set of violated conditions",
    ("moduli.py", "ModuliCone.ambient_dim"): "test oracle: the ambient view of a moduli cone",
    ("moduli.py", "ModuliCone.ambient_coordinates"): "test oracle: the ambient view of a moduli cone",
    ("moduli.py", "contains"): "test oracle: classifies a map against a moduli cone",
    ("moduli.py", "unimodular_equivalent"): "caller under scripts/: dual_plane_moduli.py",
    ("moduli.py", "_matrix_from_json"): "JSON reader kept for validating complex files (ROADMAP item 15)",
    ("moduli.py", "complex_from_json"): "JSON reader kept for validating complex files (ROADMAP item 15)",
    ("moduli.py", "embedding_from_json"): "JSON reader kept for validating embed files (ROADMAP item 15)",
    ("polyhedral.py", "Fan.__getstate__"): "pool-worker path: pickles a fan without its caches",
    ("polyhedral.py", "point_fan"): "test oracle: the rank-0 fan",
    ("polyhedral.py", "extended_point"): "test oracle: ev_trop's limit point of a contact leg, which no command asks for",
}


def test_reach_lists_only_the_allowed_functions():
    # a ratchet: a new function that no command enters must be given a reason
    # here, and one that a command now enters, or that is gone, leaves
    run = subprocess.run([sys.executable, str(SCRIPTS / "reach.py")], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    _, *rows, _ = [line.split() for line in run.stdout.splitlines()]
    listed = {(module, name) for module, name, _ in rows}
    assert sorted(listed - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - listed) == []

#!/usr/bin/env python3
"""List the functions of ``src/tropcount`` that no CLI command enters.

Runs ``tropcount.cli.main`` in this process under ``sys.setprofile`` over a
list of calls and prints every function under ``src/tropcount`` that none
of them entered, with its line count, one row per function and a total
row, in the columns of ``scripts/src_lines.py``. A nested function is
listed only when its enclosing function was entered, so no line is counted
twice. Usage:

    python scripts/reach.py [CALL ...]

Each CALL is one ``tropcount`` command line, split as a shell would split
it, such as ``"fan --name p2"``. With no CALL the script runs its default
list: the ``PINNED`` cases of ``tests/test_pinned_outputs.py``, ``fan``,
``oracle``, a count whose solved map ``validate`` then reads, and
``complex --svg``; the outputs go to a temporary directory.

A function is matched to the code objects the calls entered by its file
and line span: a code object enters the innermost function whose span,
decorators included, holds all of its lines. ``co_firstlineno`` alone is
the decorator's line for a ``@staticmethod`` or ``@cached_property``, so it
would miss those methods.

Only this process is traced: the pool workers of a count with more than
one thread are not, so what only they run is listed as never entered.
"""
import ast
import contextlib
import io
import json
import pathlib
import shlex
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropcount"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def functions(path: pathlib.Path) -> list[tuple[str, int, int, tuple]]:
    """(qualified name, first line, last line, enclosing function) of every
    function of a module; a function's span starts at its first decorator."""
    found = []

    def visit(node, prefix: str, enclosing) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                entry = (prefix + child.name, first, child.end_lineno, enclosing)
                found.append(entry)
                visit(child, f"{prefix}{child.name}.", entry)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", enclosing)
            else:
                visit(child, prefix, enclosing)

    visit(ast.parse(path.read_text()), "", None)
    return found


def code_span(code) -> tuple[int, int]:
    """The first and last line of a code object."""
    lines = [line for _, _, line in code.co_lines() if line is not None]
    return min([code.co_firstlineno] + lines), max([code.co_firstlineno] + lines)


def run_calls(calls: list[list[str]], entered: set) -> None:
    """Run each call through ``cli.main``, adding the code objects it enters
    to ``entered``; its output is dropped. Exits if a call fails."""
    from tropcount import cli

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for argv in calls:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(profile)
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            finally:
                sys.setprofile(None)
        if status != 0:
            sys.exit(f"call {shlex.join(argv)} exited {status}: {sink.getvalue().strip()}")


def default_calls(entered: set) -> None:
    """Run the default list of calls, writing their outputs to a temporary directory."""
    from test_pinned_outputs import LINE, PINNED

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        out, line, solved = str(tmp / "out.json"), tmp / "line.json", tmp / "map.json"
        calls = [[*argv, "--out", out] for argv, _ in PINNED.values()]
        calls += [
            ["fan", "--name", "p2", "--out", out],
            ["oracle", "kontsevich", "4"],
            ["complex", *LINE, "--svg", str(tmp / "fan.svg"), "--out", out],
            ["count", *LINE, "--points", "2", "--seed", "7", "--out", str(line)],
        ]
        run_calls(calls, entered)
        solved.write_text(json.dumps(json.loads(line.read_text())["contributions"][0]["map"]))
        run_calls([["validate", "--in", str(solved)]], entered)


def main() -> None:
    entered: set = set()
    if sys.argv[1:]:
        run_calls([shlex.split(call) for call in sys.argv[1:]], entered)
    else:
        default_calls(entered)
    spans: dict[str, list[tuple[int, int]]] = {}
    for code in entered:
        spans.setdefault(str(pathlib.Path(code.co_filename).resolve()), []).append(code_span(code))
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        found = functions(path)
        hit = set()
        for first, last in spans.get(str(path), ()):
            holders = [f for f in found if f[1] <= first and last <= f[2]]
            if holders:
                hit.add(max(holders, key=lambda f: f[1]))  # the innermost starts last
        for f in found:
            if f not in hit and (f[3] is None or f[3] in hit):
                rows.append((path.name, f[0], f[2] - f[1] + 1))
    print(f"{'module':<16}{'function':<48}{'lines':>11}")
    for module, name, lines in rows:
        print(f"{module:<16}{name:<48}{lines:>11}")
    print(f"{'total':<16}{f'{len(rows)} functions':<48}{sum(r[2] for r in rows):>11}")


if __name__ == "__main__":
    main()

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount.cli import main
from tropcount.counting import count_result_from_json
from tropcount.maps import map_from_json, validate
from tropcount.moduli import complex_from_json, embedding_from_json
from tropcount.polyhedral import fan_from_json


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, check=True):
    """Run the CLI in a child interpreter that imports the package from ``src``."""
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tropcount.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_oracle_kontsevich():
    proc = run_cli("oracle", "kontsevich", "4")
    assert proc.stdout.strip() == "620"


def test_fan_roundtrip(tmp_path):
    proc = run_cli("fan", "--name", "p1xp1")
    data = json.loads(proc.stdout)
    fan = fan_from_json(data)
    assert fan.rank == 2 and len(fan.rays) == 4
    # reader accepts files as well
    path = tmp_path / "fan.json"
    path.write_text(proc.stdout)
    again = run_cli("fan", "--in", str(path))
    assert again.stdout == proc.stdout


def test_complex_toy_f_vector(tmp_path):
    out = tmp_path / "cx.json"
    svg = tmp_path / "toy.svg"
    proc = run_cli(
        "complex",
        "--fan",
        "p2",
        "--contacts",
        "p2-degree:1-transverse",
        "--out",
        str(out),
        "--svg",
        str(svg),
    )
    data = json.loads(out.read_text())
    assert data["f_vector"] == [1, 6, 6]
    assert "f-vector = [1, 6, 6]" in proc.stderr
    cx = complex_from_json(data)
    assert cx.f_vector() == (1, 6, 6)
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<path") == 6


@pytest.mark.parametrize(
    "extra,svg_name,message",
    [
        (("--points", "1"), "cx.svg", "svg output needs an embedding of ambient rank 2\n"),
        (("--root", "9"), "cx.svg", "error: ValueError: root label 9 is not a marked leg\n"),
        ((), "no-such-dir/f.svg", "error: FileNotFoundError: [Errno 2] No such file or directory: '{svg}'\n"),
    ],
    ids=["ambient-rank-3", "bad-root", "unwritable-svg-path"],
)
def test_failing_svg_writes_no_file(tmp_path, capsys, extra, svg_name, message):
    out, svg = tmp_path / "cx.json", tmp_path / svg_name
    argv = ["complex", "--fan", "p2", "--contacts", "p2-degree:1", *extra, "--svg", str(svg), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == message.format(svg=svg)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["p2-degree:-1", "p1xp1-bidegree:1"])
def test_malformed_contact_shorthand_is_refused(tmp_path, capsys, spec):
    out = tmp_path / "cx.json"
    assert main(["complex", "--fan", "p2", "--contacts", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ValueError: malformed contact shorthand: {spec!r}\n"
    assert not out.exists()


def test_embed_toy(tmp_path):
    out = tmp_path / "emb.json"
    run_cli("embed", "--fan", "p2", "--contacts", "p2-degree:1", "--out", str(out))
    data = json.loads(out.read_text())
    emb = embedding_from_json(data)
    assert emb.ambient_rank == 2
    assert sorted(data["rays"]) == [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]


def test_count_summary_and_roundtrip(tmp_path):
    out = tmp_path / "count.json"
    proc = run_cli(
        "count",
        "--fan",
        "p2",
        "--contacts",
        "p2-degree:1",
        "--points",
        "2",
        "--seed",
        "7",
        "--out",
        str(out),
    )
    assert "degree = 1 (types: 1, seed: 7)" in proc.stderr
    data = json.loads(out.read_text())
    res = count_result_from_json(data)
    assert res.total == 1
    solved = map_from_json(data["contributions"][0]["map"])
    assert validate(solved).valid


def test_count_byte_identical_across_threads_and_runs():
    # degree 2 has 17 skeletons, so --threads 2 deals them to two workers,
    # through 5 points and through 5 points and two lines alike
    conics = ["count", "--fan", "p2", "--contacts", "p2-degree:2", "--points", "5"]
    for argv in ([*conics, "--seed", "7"], [*conics, "--subspace", "1,1", "--subspace", "1,-2", "--seed", "0"]):
        a = run_cli(*argv)
        b = run_cli(*argv)
        c = run_cli(*argv, "--threads", "2")
        assert a.stdout == b.stdout == c.stdout


def test_count_retries_nongeneric_seeds():
    # degree 2, seed 2 is known non-generic; the CLI walks to the next seed
    proc = run_cli(
        "count", "--fan", "p2", "--contacts", "p2-degree:2", "--points", "5",
        "--seed", "2", "--retries", "3",
    )
    assert "not generic" in proc.stderr
    assert "degree = 1" in proc.stderr


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("lines", [["1,1"], ["1,1", "1,-2"]], ids=["one-line", "two-lines"])
def test_conics_past_nine_legs_meet_lines_as_bezout_says(tmp_path, lines, seed):
    # the conic through 5 points meets a line of direction v in
    # sum_i max(0, det(u_i, v)) points over its ends u_i: twice for (1, 1),
    # 6 times for (1, -2); 12 and 13 legs, past the former 9-leg census
    argv = ["count", "--fan", "p2", "--contacts", "p2-degree:2", "--points", "5", "--seed", str(seed), "--retries", "0"]
    for spec in lines:
        argv += ["--subspace", spec]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    want = 1
    for spec in lines:
        v = [int(x) for x in spec.split(",")]
        want *= sum(max(0, u[0] * v[1] - u[1] * v[0]) for _, u in data["contact_legs"])
    assert want == {1: 2, 2: 12}[len(lines)]
    assert data["total"] == want


def test_count_subspace_flag():
    proc = run_cli(
        "count", "--fan", "p2", "--contacts", "p2-degree:1", "--points", "2",
        "--subspace", "1,1", "--seed", "9",
    )
    data = json.loads(proc.stdout)
    assert data["total"] == 1


def test_validate_exit_codes(tmp_path):
    out = run_cli(
        "count", "--fan", "p2", "--contacts", "p2-degree:1", "--points", "2", "--seed", "7"
    )
    data = json.loads(out.stdout)
    good = tmp_path / "map.json"
    good.write_text(json.dumps(data["contributions"][0]["map"]))
    proc = run_cli("validate", "--in", str(good))
    assert json.loads(proc.stdout)["valid"] is True

    bad_map = data["contributions"][0]["map"]
    bad_map["lengths"] = ["-5" for _ in bad_map["lengths"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_map))
    proc = run_cli("validate", "--in", str(bad), check=False)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["valid"] is False
    assert {"positive-length"} <= {v["condition"] for v in report["violations"]}


def test_validate_reads_stdin_and_leaves_it_open(tmp_path, monkeypatch, capsys):
    found = tmp_path / "found.json"
    line = ["--fan", "p2", "--contacts", "p2-degree:1", "--points", "2", "--seed", "7"]
    assert main(["count", *line, "--out", str(found)]) == 0
    stdin = io.StringIO(json.dumps(json.loads(found.read_text())["contributions"][0]["map"]))
    monkeypatch.setattr(sys, "stdin", stdin)
    # an in-process caller may read its standard input again
    for _ in range(2):
        stdin.seek(0)
        assert main(["validate"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
    assert not stdin.closed


def test_usage_error_exit_code():
    proc = run_cli("count", "--nonsense", check=False)
    assert proc.returncode == 64


def test_solve_check_failure_is_a_named_error(monkeypatch, capsys):
    from tropcount import counting
    from tropcount.maps import ValidationReport, Violation

    monkeypatch.setattr(
        counting, "validate", lambda f: ValidationReport((Violation("balancing", "injected"),))
    )
    code = main(
        ["count", "--fan", "p2", "--contacts", "p2-degree:1", "--points", "2", "--seed", "7"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "SolveCheckError" in err
    assert "seed 7" in err and "leg" in err and "balancing" in err


def test_main_entrypoint_in_process(capsys):
    code = main(["oracle", "kontsevich", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "12"


@pytest.mark.parametrize("bad", ["0", "-2"], ids=["zero", "negative"])
def test_bad_thread_count_is_a_usage_error(bad):
    argv = ["count", "--fan", "p2", "--contacts", "p2-degree:1", "--points", "2", "--threads", bad]
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 64
    assert f"argument --threads: not a positive integer: '{bad}'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,kind",
    [
        (("count", "--contacts", "p2-degree:1", "--points", "2", "--retries", "-1"), "non-negative"),
        (("count", "--contacts", "p2-degree:1", "--points", "-1"), "non-negative"),
        (("count", "--contacts", "p2-degree:1", "--points", "2", "--height-bound", "0"), "positive"),
        (("complex", "--contacts", "p2-degree:1", "--points", "-1"), "non-negative"),
        (("embed", "--contacts", "p2-degree:1", "--points", "-1"), "non-negative"),
        (("oracle", "degree", "0"), "positive"),
        (("oracle", "degree", "-2"), "positive"),
    ],
    ids=[
        "count-retries", "count-points", "count-height-bound", "complex-points", "embed-points",
        "oracle-degree-0", "oracle-degree-negative",
    ],
)
def test_bad_integer_argument_is_a_usage_error(argv, kind):
    command, *rest = argv
    # the oracle's degree is a positional argument after its kind, named "degree"
    given = ("kontsevich", rest[-1]) if command == "oracle" else ("--fan", "p2", *rest)
    proc = run_cli(command, *given, check=False)
    assert proc.returncode == 64
    assert f"argument {rest[-2]}: not a {kind} integer: '{rest[-1]}'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_retries_exhausted_exit_code():
    # degree-2 seed 2 is non-generic; with zero retries the command gives up
    proc = run_cli(
        "count", "--fan", "p2", "--contacts", "p2-degree:2", "--points", "5",
        "--seed", "2", "--retries", "0", check=False,
    )
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "argv,payload",
    [
        (("fan", "--in"), {}),
        (("validate", "--in"), {}),
        (("count", "--fan", "p2", "--points", "2", "--contacts"), [[1]]),
        (("fan", "--in"), [1, 2]),  # a fan file whose top level is not an object
        (("count", "--contacts", "p2-degree:1", "--points", "2", "--fan"), [1, 2]),
    ],
)
def test_malformed_json_input_is_a_named_error(tmp_path, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    proc = run_cli(*argv, str(path), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: MalformedInputError: malformed ")
    assert "Traceback" not in proc.stderr


def test_a_leg_on_a_missing_vertex_is_a_named_error(tmp_path):
    found = tmp_path / "found.json"
    line = ("--fan", "p2", "--contacts", "p2-degree:1", "--points", "2", "--seed", "7")
    assert main(["count", *line, "--out", str(found)]) == 0
    data = json.loads(found.read_text())["contributions"][0]["map"]
    data["type"]["legs"][0][0] = data["type"]["vertices"]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    proc = run_cli("validate", "--in", str(path), check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: ValueError: leg attached to a missing vertex\n"


def _append_a_coordinate(data):
    data["positions"][0].append("5")


def _widen_a_leg_contact(data):
    data["type"]["legs"][0][2] = [1, 0, 0]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_append_a_coordinate, "the position of vertex 0 has 3 coordinates, but the fan has rank 2"),
        (_widen_a_leg_contact, "the contact of leg 1 has 3 coordinates, but the fan has rank 2"),
    ],
    ids=["position", "leg-contact"],
)
def test_a_coordinate_of_the_wrong_rank_is_a_named_error(tmp_path, mutate, message):
    found = tmp_path / "found.json"
    line = ("--fan", "p2", "--contacts", "p2-degree:1", "--points", "2", "--seed", "7")
    assert main(["count", *line, "--out", str(found)]) == 0
    data = json.loads(found.read_text())["contributions"][0]["map"]
    assert data["type"]["legs"][0][1] == 1
    mutate(data)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    proc = run_cli("validate", "--in", str(path), check=False)
    assert proc.returncode == 2
    assert proc.stderr == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("command", ["complex", "embed"])
def test_subspace_is_an_option_of_count_only(command):
    # a complex or an embedding reads no constraint, so a subspace only added a marked leg
    proc = run_cli(command, "--fan", "p2", "--contacts", "p2-degree:1", "--subspace", "1,1", check=False)
    assert proc.returncode == 64
    assert "unrecognized arguments: --subspace 1,1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_bare_rank_one_contact_file_reads_as_the_labelled_one(tmp_path):
    # a bare entry [1] is one coordinate, not a label with its contact
    outputs = []
    for name, contacts in (("bare", [[1], [-1]]), ("labelled", [[1, [1]], [2, [-1]]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(contacts))
        outputs.append(run_cli("count", "--fan", "p1", "--contacts", str(path), "--points", "1").stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["total"] == 1


@pytest.mark.parametrize("command", ["count", "complex"])
@pytest.mark.parametrize(
    "contacts",
    [[[1.5, 0], [0, 1], [-1, -1]], [[True, 0], [0, 1], [-1, -1]], [[True, [1, 0]], [2, [0, 1]], [3, [-1, -1]]]],
    ids=["float", "bool", "bool-label"],
)
def test_non_integer_contact_is_a_named_error(tmp_path, command, contacts):
    path = tmp_path / "contacts.json"
    path.write_text(json.dumps(contacts))
    proc = run_cli(command, "--fan", "p2", "--contacts", str(path), "--points", "2", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: MalformedInputError: malformed contacts: ")
    assert "not an integer" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["count", "complex"])
def test_unbalanced_contacts_are_refused_as_input(tmp_path, command):
    # contacts that do not sum to zero are an input error, not an engine defect
    path = tmp_path / "contacts.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    proc = run_cli(command, "--fan", "p2", "--contacts", str(path), "--points", "1", check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: ValueError: the contact orders sum to [1, 1], not to zero, so no map balances\n"


def test_curve_count_table_script_agrees_with_the_recursion():
    script = SRC.parent / "scripts" / "curve_count_table.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert len(proc.stdout.splitlines()) == 4  # a header, degrees 1 and 2, and the quadric


@pytest.mark.parametrize("where", ["subspace", "position", "length"])
def test_zero_denominator_is_a_named_error(tmp_path, where):
    # Fraction("1/0") raises ZeroDivisionError, which is no ValueError
    line = ("--fan", "p2", "--contacts", "p2-degree:1", "--points", "2")
    if where == "subspace":
        argv = ("count", *line, "--subspace", "1,1;1/0,0", "--subspace", "1,0")
    else:
        found = tmp_path / "found.json"
        assert main(["count", *line, "--seed", "7", "--out", str(found)]) == 0
        data = json.loads(found.read_text())["contributions"][0]["map"]
        if where == "position":
            data["positions"][0][0] = "1/0"
        else:
            data["lengths"][0] = "1/0"
        path = tmp_path / "map.json"
        path.write_text(json.dumps(data))
        argv = ("validate", "--in", str(path))
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2
    what = "subspace" if where == "subspace" else "map"
    assert proc.stderr.startswith(f"error: MalformedInputError: malformed {what}: ")
    assert "Fraction(1, 0)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_census_limit_is_a_named_error(monkeypatch, capsys):
    from tropcount import counting

    def must_not_run(*args):
        raise AssertionError("the census was grown or a worker started")

    monkeypatch.setattr(counting, "grow_trees", must_not_run)
    monkeypatch.setattr(counting, "_map_workers", must_not_run)
    argv = ["count", "--fan", "p2", "--contacts", "p2-degree:1", "--points", "2", "--threads", "2"]
    for spec in ("1,0", "0,1", "1,1", "1,0", "0,1", "1,1"):
        argv += ["--subspace", spec]  # 6 lines grown on each search tree of 3 + 2 legs
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CensusTooLargeError: ")
    assert "6 legs" in err and "2,297,295" in err and "Traceback" not in err


# contact shorthand -> the number of contact legs it makes (0 when malformed)
CONTACTS = {
    "p2-degree:0": 0,
    "p2-degree:1": 3,
    "p2-degree:2": 6,
    "p1-degree:1": 2,
    "p1-degree:2": 4,
    "p1xp1-bidegree:1,1": 4,
    "p2-degree:x": 0,
    "p2-degree:-1": 0,
    "p2-degree:": 0,
    "p1xp1-bidegree:1": 0,
    "no-such-contacts.json": 0,
}
SUBSPACES = ("1,0", "0,1", "1,1", "1", "1,0,0", "1,0|0,1", "1,1;1/2,-3", "1,0;1", "x", "")


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["count", "complex", "embed"]))
    # at most 5 marked legs for a complex or an embedding (6 take a minute),
    # at most 7 for a count
    room = 7 if command == "count" else 5
    contacts = draw(st.sampled_from(sorted(c for c, n in CONTACTS.items() if n <= room)))
    room -= CONTACTS[contacts]
    # only a count takes subspace constraints
    subspaces = draw(st.lists(st.sampled_from(SUBSPACES), max_size=min(2, room) if command == "count" else 0))
    points = draw(st.integers(0, min(4, room - len(subspaces))))
    fan = draw(st.sampled_from(["p1", "p2", "p1xp1", "p3"]))
    argv = [command, "--fan", fan, "--contacts", contacts, "--points", str(points)]
    for spec in subspaces:
        argv += ["--subspace", spec]
    if command == "count":
        argv += ["--seed", str(draw(st.integers(0, 3))), "--retries", "1"]
    return argv


@settings(max_examples=100, deadline=None)
@given(cli_argv())
def test_cli_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 64, err.getvalue()
    assert code in (0, 2, 3, 64), err.getvalue()
    assert "Traceback" not in err.getvalue()

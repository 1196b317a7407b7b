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

"""Smoke tests of the example scripts: each runs to the end."""
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_dual_plane_moduli_matches_the_hexagon():
    # assembles the toy complex, embeds it and matches the embedded fan with
    # the hexagon by unimodular_equivalent; the figure it writes is ignored
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "dual_plane_moduli.py")], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert "f-vector: (1, 6, 6)" in run.stdout
    [match] = [line for line in run.stdout.splitlines() if line.startswith("unimodular match with the hexagon fan:")]
    assert not match.endswith("None")

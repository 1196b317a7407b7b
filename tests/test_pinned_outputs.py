"""The JSON of fourteen standard CLI cases, pinned by its sha256, and of two
large complexes, pinned in slow tests.

A change that alters one of these outputs on purpose updates its hash
here and says in CHANGES.md what changed and why.
"""
import hashlib

import pytest

from tropcount.cli import main

LINE = ("--fan", "p2", "--contacts", "p2-degree:1")

PINNED = {
    "count-conics-seed-0": (
        ("count", "--fan", "p2", "--contacts", "p2-degree:2", "--points", "5", "--seed", "0"),
        "3e219fb0ba9dcf11010f05f70647a206fd1ef43fd63b3bfa002b69726f07a043",
    ),
    "count-quadric-1-1": (
        ("count", "--fan", "p1xp1", "--contacts", "p1xp1-bidegree:1,1", "--points", "3"),
        "8163e9ea3db6ef0bb88eab2ec55b342882975b710c8a2927fac0572c6cb3c50d",
    ),
    "count-subspace-seed-1000": (
        ("count", *LINE, "--points", "2", "--subspace", "1,1", "--subspace", "1,0", "--seed", "1000"),
        "f7d439ab63d8e8b47dbc431b06af5f16be5cb88c8286ed6dd1aa1a0c1a524611",
    ),
    "complex-toy": (
        ("complex", *LINE),
        "f843e21c0f0527871c9194624f83c6189c62c206bbd8cfbbb143fde17b93c500",
    ),
    "complex-1-point": (
        ("complex", *LINE, "--points", "1"),
        "7c5f8528481c66c6acbf7b2cb1ea1a7313fecc09c10956d4227f5a14f0bb0097",
    ),
    "complex-2-points": (
        ("complex", *LINE, "--points", "2"),
        "56bde5e5e8dccc8a5d884d95ff4a52733ac000bb115beae92bf26679935b93ca",
    ),
    "complex-quadric-1-1": (
        ("complex", "--fan", "p1xp1", "--contacts", "p1xp1-bidegree:1,1"),
        "27465c47db8759840373e1e775c04632769831bc739dbe4a2b3f331bfc585c77",
    ),
    "embed-toy": (
        ("embed", *LINE),
        "5ae8ba40b78756f7f2ad47016623d52e022f603137e67ef913deac85a247351c",
    ),
    "embed-1-point": (
        ("embed", *LINE, "--points", "1"),
        "bad64e0999e21e7de4365dc3e7e026fb3c87ce0bb65b7a2c4e18dfc28ab31910",
    ),
    "embed-2-points": (
        ("embed", *LINE, "--points", "2"),
        "f48b83a1d355faf973e3b82c6731227529044cea3451afb730c4582aac139306",
    ),
    # the inputs of the perfbench workloads count_plane_d3 and count_lines_fallback
    "count-cubics-seed-0": (
        ("count", "--fan", "p2", "--contacts", "p2-degree:3", "--points", "8", "--seed", "0",
         "--retries", "5", "--threads", "1"),
        "5d081ec423412a65729f4b4f0a1b4c43136382c88472bcd9cbfe75a49dc65d5a",
    ),
    "count-subspace-seed-0": (
        ("count", *LINE, "--points", "2", "--subspace", "1,1", "--subspace", "1,0", "--seed", "0",
         "--retries", "5"),
        "dc12d8a10dd21c5ffd7e1a47843255bf7459ed87cfa9d0c857147a3081bd966c",
    ),
    # the one standard case where dedup drops trees of the census over all
    # legs: 10,395 trees give 3,105 types, every one of them singular
    "count-p1xp1-2-0-subspace": (
        ("count", "--fan", "p1xp1", "--contacts", "p1xp1-bidegree:2,0", "--points", "3",
         "--subspace", "1,1", "--seed", "0"),
        "29ed041a49c9d39a22ba280ef9ff7c63e5bb3e3432e3aa3cd197ce04bf5a4f89",
    ),
}


# the two largest complexes measured in the ROADMAP; every cone of the first
# is simplicial, and the second has 480 non-simplicial cones of 12,080
SLOW_PINNED = {
    "complex-3-points": (
        ("complex", *LINE, "--points", "3"),
        "e541a4a12d1fffc7a5275da94449ac585a2fbb6ba2c44956104923cf7163c3fc",
    ),
    "complex-conics": (
        ("complex", "--fan", "p2", "--contacts", "p2-degree:2"),
        "535e1ea9ed5e964c6f21b135998e912572b1f1964b83a6fde8476077099d1116",
    ),
}


def assert_pinned(tmp_path, argv, digest):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", PINNED)
def test_standard_output_is_pinned(tmp_path, name):
    assert_pinned(tmp_path, *PINNED[name])


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_PINNED)
def test_large_complex_is_pinned(tmp_path, name):
    assert_pinned(tmp_path, *SLOW_PINNED[name])


def test_rank_three_lines_are_pinned(tmp_path):
    # lines in P^3 through 2 points: a rank-3 path-cone search, pinned from
    # before its cone test moved off the LP
    contacts = tmp_path / "contacts.json"
    contacts.write_text("[[1,0,0],[0,1,0],[0,0,1],[-1,-1,-1]]")
    out = tmp_path / "out.json"
    argv = ["count", "--fan", "p3", "--contacts", str(contacts), "--points", "2", "--seed", "0"]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "23c7a07042c418ee16d7645ccab497a741c2926e53ef02fdafeae0e09ba7d0de"
    )

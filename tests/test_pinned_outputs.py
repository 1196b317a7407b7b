"""The JSON of fourteen standard CLI cases, pinned by its sha256, and of two
large complexes, pinned in slow tests.

A change that alters one of these outputs on purpose updates its hash
here and says in CHANGES.md what changed and why.

Each complex and embed JSON is pinned a second time with its lattice
bases left out: the span bases and face maps of a complex, the lattice
maps of an embedding. That pin holds the types, dimensions, f-vector,
cone order, face pairs and embedded rays, which a change of the cones'
coordinates leaves alone.
"""
import hashlib
import json

import pytest

from tropcount import moduli
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
        "78ed873a1adc636558496702c9c935ff9e35d308f7bd7da00fb5c16a02d2558b",
    ),
    "complex-1-point": (
        ("complex", *LINE, "--points", "1"),
        "a07ff1259432c4f23d85e039028d4534b23a25c8bc9c2c455d7ff0f12a0da536",
    ),
    "complex-2-points": (
        ("complex", *LINE, "--points", "2"),
        "01642661d8a43314067289067ca03f46daa2ba737451db79fa1293922781d9bc",
    ),
    "complex-quadric-1-1": (
        ("complex", "--fan", "p1xp1", "--contacts", "p1xp1-bidegree:1,1"),
        "5027267d60f9e4c0b5e27ecb54b9a378d81ad753b6a2b1e9370861bba4aba62d",
    ),
    "embed-toy": (
        ("embed", *LINE),
        "b54c6dce243ede08c9bb20328ff0e75802340082781e50c5629cf9456e400afa",
    ),
    "embed-1-point": (
        ("embed", *LINE, "--points", "1"),
        "8ed05081c97b3509cb7fb5d6bf59bf06b04aae36da582e58ac92c79029810ee4",
    ),
    "embed-2-points": (
        ("embed", *LINE, "--points", "2"),
        "0b91c58473a891b63539cdd6f5a0f51f97b8cda53c4e87de4c850117230d0ce6",
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
        "05a09db24c2448da301bf01ecedf96b9193424c5493672596d98303cb183de46",
    ),
    "complex-conics": (
        ("complex", "--fan", "p2", "--contacts", "p2-degree:2"),
        "be5a316930c9fabb19fd2826dddd0e4ba41eb2152b1d0dbac787091c592b1124",
    ),
}


# sha256 of the sorted-key JSON of each complex and embed output without
# its lattice bases (see ``without_bases``)
WITHOUT_BASES = {
    "complex-toy": "bd01cb1cd819ae3e680187241037deae2d294cb982966f7b1c20aefed92843b7",
    "complex-1-point": "709e6d23f62fab707475323efd281d4553f3dbeb227c839a48b325e7b27e32e6",
    "complex-2-points": "a1189b0373510398710e69d0fca161d108e4203e90530ad2896d0ddcfd4222b3",
    "complex-quadric-1-1": "a0ae7a75071d6b02437e1e2c5f816e8ce3f05f61532326cf891d2604d674d812",
    "embed-toy": "685539cfa5815b7e61f0669b1f514da576b1d0691705eb9012a21743cdbac00a",
    "embed-1-point": "907491633c8804a15a7e02db80a2b9a623ad2fc1d1cbacd17ab6bea43704ea32",
    "embed-2-points": "9b9270f7c445df1b6b5ee666f2ca623a9e3f5bd3318c761fd4b237d9484363d3",
    "complex-3-points": "2c01c32764a811d0dfa48e08b41f3ef540125b31e70fcc6ad9b69cf00ef7f17b",
    "complex-conics": "8126797376b74433de700ebc7cc1cd6f778ac01c8e7b3530c8facdb833897025",
}


def without_bases(data: dict) -> bytes:
    """A complex without its span bases and face matrices, or an embedding
    without its lattice maps, as sorted-key JSON."""
    if data["kind"] == "complex":
        for cone in data["cones"]:
            del cone["span_basis"]
        data["faces"] = [face[:2] for face in data["faces"]]
    else:
        for cone in data["cones"]:
            del cone["lattice_map"]
    return json.dumps(data, sort_keys=True).encode()


def assert_pinned(tmp_path, name, argv, digest):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    raw = out.read_bytes()
    if name in WITHOUT_BASES:
        assert hashlib.sha256(without_bases(json.loads(raw))).hexdigest() == WITHOUT_BASES[name]
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("name", PINNED)
def test_standard_output_is_pinned(tmp_path, name):
    assert_pinned(tmp_path, name, *PINNED[name])


# the moduli cones each large complex builds from scratch: one per orbit's
# representative, and one per orbit of empty candidates (40 of the conics');
# every other cone is transported along its orbit
SLOW_MODULI_CONES = {"complex-3-points": 315, "complex-conics": 537}


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_PINNED)
def test_large_complex_is_pinned(monkeypatch, tmp_path, name):
    built = []
    build = moduli.moduli_cone
    monkeypatch.setattr(moduli, "moduli_cone", lambda theta: built.append(theta) or build(theta))
    assert_pinned(tmp_path, name, *SLOW_PINNED[name])
    assert len(built) == SLOW_MODULI_CONES[name]


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


@pytest.mark.parametrize(
    "subspaces,digest",
    [
        (["1,0|0,1"], "1c6e5dd5aee68388dfa865af3ede1da774b5c417ccb33c64bf9c1ff2a85ce756"),
        (["1,0", "1,0|0,1"], "5875b58a95e41936ac267345dcce1db55015c04b4d12d5a22f27cf742dfc1055"),
    ],
    ids=["one-leg", "two-legs"],
)
def test_fewer_than_three_legs_count_nothing(tmp_path, subspaces, digest):
    # no stable tree has one or two legs, so the count is the empty sum
    contacts = tmp_path / "contacts.json"
    contacts.write_text("[]")
    out = tmp_path / "out.json"
    argv = ["count", "--fan", "p2", "--contacts", str(contacts)]
    for subspace in subspaces:
        argv += ["--subspace", subspace]
    assert main([*argv, "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert (data["total"], data["rejected_nongeneric"], data["contributions"]) == (0, 0, [])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

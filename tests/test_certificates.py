"""Exact certificates on assembled complexes: incidences, Euler
characteristic, pseudo-manifold counts, the fan embedding and the
geometric subdivision of each stored type.

Each complex is assembled once for the whole module.
"""
from functools import cache
from math import factorial

import pytest

from tropcount.exactmath import IntMatrix, solve_rational_matrix
from tropcount.maps import DiscreteData, TropicalStableMap, subdivide
from tropcount.moduli import assemble_complex, gkm_embedding
from tropcount.polyhedral import fan_product, fan_projective_space

P2 = fan_projective_space(2)
P1P1 = fan_product(fan_projective_space(1), fan_projective_space(1))
LINE = ((1, (1, 0)), (2, (0, 1)), (3, (-1, -1)))
QUADRIC = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))

CASES = {
    "toy": DiscreteData(P2, LINE, ()),
    "p2_1pt": DiscreteData(P2, LINE, (4,)),
    "p2_2pts": DiscreteData(P2, LINE, (4, 5)),
    "p1xp1": DiscreteData(P1P1, QUADRIC, ()),
}


@cache
def assembled(name):
    return assemble_complex(CASES[name])


def witness_image(m, cone, witness):
    """The lattice map m on the span point whose lift is the witness, by a
    solve of span_basis · y = witness of its own."""
    sol = solve_rational_matrix(cone.span_basis, [[x] for x in witness])
    assert sol is not None
    return m.apply([row[0] for row in sol])


def dims(cx):
    return [cc.cone.dimension for cc in cx.cones]


def direct_parents(cx):
    parents = {i: [] for i in range(len(cx.cones))}
    for small, big, _ in cx.face_maps:
        parents[small].append(big)
    return parents


@pytest.mark.parametrize("name", CASES)
def test_every_cone_below_top_has_a_parent(name):
    cx = assembled(name)
    d = dims(cx)
    top = max(d)
    parents = direct_parents(cx)
    orphans = [i for i in range(len(d)) if d[i] < top and not any(d[p] == d[i] + 1 for p in parents[i])]
    assert orphans == []


@pytest.mark.parametrize("name", CASES)
def test_every_k_cone_has_k_rays(name):
    cx = assembled(name)
    for idx, cc in enumerate(cx.cones):
        assert len(cx.skeleton(idx, 1)) >= cc.cone.dimension, idx


@pytest.mark.parametrize("name", CASES)
def test_codimension_one_cones_lie_in_two_or_three_top_cones(name):
    # 2 inside a refined M_0,n cone, 3 on an M_0,n wall
    cx = assembled(name)
    d = dims(cx)
    top = max(d)
    parents = direct_parents(cx)
    for i in range(len(d)):
        if d[i] == top - 1:
            assert sum(1 for p in parents[i] if d[p] == top) in (2, 3), i


@pytest.mark.parametrize("name", CASES)
def test_euler_characteristic(name):
    # |M_0,n^trop| x R^r: the link of M_0,n^trop is a wedge of (n-2)! spheres
    gamma = CASES[name]
    n = len(gamma.contact_legs) + len(gamma.trivial_legs)
    r = gamma.fan.rank
    euler = sum((-1) ** k * f for k, f in enumerate(assembled(name).f_vector()))
    assert euler == (-1) ** (n + r + 1) * factorial(n - 2)


@pytest.mark.parametrize("name", CASES)
def test_embedded_cones_are_spanned_by_their_generators(name):
    cx = assembled(name)
    emb = gkm_embedding(cx, 1)
    for cc, gens, m in zip(cx.cones, emb.cone_images, emb.lattice_maps):
        assert len(gens) == cc.cone.dimension
        if not gens:
            continue
        image = witness_image(m, cc.cone, cc.witness)
        columns = IntMatrix.from_rows([[g[i] for g in gens] for i in range(emb.ambient_rank)])
        coeffs = solve_rational_matrix(columns, [[x] for x in image])
        assert coeffs is not None and all(row[0] > 0 for row in coeffs)
    # distinct cones have distinct images (70 for p2_1pt)
    assert len(emb.to_fan().cones) == len(cx.cones)


@pytest.mark.parametrize("name", CASES)
def test_stored_types_are_their_own_geometric_subdivision(name):
    # The assembly cuts edges at walls by combinatorial walks (``_walks`` and
    # ``Fan.germ``), ``subdivide`` by the geometric walk of a map (``_walk``
    # and ``locate``). At its witness each stored type is already cut at
    # every wall, with the vertex cones and carriers the geometry gives.
    cx = assembled(name)
    r = cx.gamma.fan.rank
    for idx, cc in enumerate(cx.cones):
        nv = cc.type.shape.vertices
        positions = tuple(tuple(cc.witness[v * r : v * r + r]) for v in range(nv))
        f = TropicalStableMap(cc.type, positions, tuple(cc.witness[nv * r :]))
        assert subdivide(f).type == cc.type, idx

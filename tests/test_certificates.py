"""Exact certificates on assembled complexes: incidences, Euler
characteristic, pseudo-manifold counts, the gluing of the face maps, the
fan embedding and the geometric subdivision of each stored type.

Each complex is assembled once for the whole module.
"""
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, gcd

import pytest

from tropcount.exactmath import IntMatrix, solve_rational
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
    """The lattice map m on the span point of the witness, by a solve of
    span_basis · y = (root position, lengths) of its own."""
    r = cone.type.fan.rank
    x = [*witness[cone.root * r : cone.root * r + r], *witness[r * cone.type.shape.vertices :]]
    sol = solve_rational(cone.span_basis, x)
    assert sol is not None
    return m.apply(list(sol[0]))


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


def determinant(rows):
    """Determinant by Gaussian elimination over QQ, apart from the engine's
    integer eliminations."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


@pytest.mark.parametrize("name", CASES)
def test_face_maps_are_saturated_injections(name):
    # X has full column rank and a saturated image exactly when the gcd of
    # its maximal minors is 1
    cx = assembled(name)
    d = dims(cx)
    for small, big, m in cx.face_maps:
        assert (m.rows, m.cols) == (d[big], d[small])
        rows = m.to_lists()
        minors = [determinant([rows[i] for i in pick]) for pick in combinations(range(m.rows), m.cols)]
        assert gcd(*minors) == 1, (small, big)


# codimension-2 faces a of a cone c, summed over the cones c
DIAMONDS = {"toy": 6, "p2_1pt": 105, "p2_2pts": 1746, "p1xp1": 106}


@pytest.mark.parametrize("name", CASES)
def test_face_maps_commute_on_every_diamond(name):
    # each codimension-2 face a of c lies in exactly two facets b, b' of c,
    # and the two ways round the diamond agree: X_bc X_ab = X_b'c X_ab'
    cx = assembled(name)
    maps = {(small, big): m for small, big, m in cx.face_maps}
    diamonds = 0
    for c in range(len(cx.cones)):
        facets_over: dict[int, list[int]] = {}
        for b in cx.faces_of(c):
            for a in cx.faces_of(b):
                facets_over.setdefault(a, []).append(b)
        for a, (b, *others) in facets_over.items():
            assert len(others) == 1, (a, c)
            assert maps[b, c] @ maps[a, b] == maps[others[0], c] @ maps[a, others[0]], (a, c)
            diamonds += 1
    assert diamonds == DIAMONDS[name]


@pytest.mark.parametrize("name", CASES)
def test_embedded_cones_are_spanned_by_their_generators(name):
    cx = assembled(name)
    emb = gkm_embedding(cx, 1)
    for cc, gens, m in zip(cx.cones, emb.cone_images, emb.lattice_maps):
        assert len(gens) == cc.cone.dimension
        if not gens:
            continue
        image = witness_image(m, cc.cone, cc.cone.relint_witness())
        columns = IntMatrix.from_rows([[g[i] for g in gens] for i in range(emb.ambient_rank)])
        coeffs = solve_rational(columns, image)
        assert coeffs is not None and all(c > 0 for c in coeffs[0])
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
        witness = cc.cone.relint_witness()
        positions = tuple(tuple(witness[v * r : v * r + r]) for v in range(nv))
        f = TropicalStableMap(cc.type, positions, tuple(witness[nv * r :]))
        assert subdivide(f).type == cc.type, idx

import random
from fractions import Fraction

import pytest

from tropcount.curves import (
    INF,
    TreeShape,
    TropicalCurve,
    curve_from_json,
    curve_to_json,
    is_smooth,
    overvalence,
    stabilize,
)


def tripod():
    return TropicalCurve(1, (), ((0, 1), (0, 2), (0, 3)))


def test_tree_invariant_enforced():
    with pytest.raises(ValueError):
        TropicalCurve(2, (), ((0, 1), (1, 2)))  # disconnected, wrong edge count
    with pytest.raises(ValueError):
        TropicalCurve(1, (), ((0, 1), (0, 1)))  # duplicate labels
    with pytest.raises(ValueError):
        TropicalCurve(2, ((0, 1, Fraction(-1)),), ((0, 1), (1, 2)))
    with pytest.raises(ValueError):  # a tree's edge count, but vertex 2 is cut off
        TropicalCurve(3, ((0, 1, Fraction(1)), (1, 0, Fraction(2))), ((0, 1), (1, 2), (2, 3)))


def test_is_smooth():
    assert is_smooth(tripod())
    nodal = TropicalCurve(2, ((0, 1, INF),), ((0, 1), (0, 2), (1, 3), (1, 4)))
    assert not is_smooth(nodal)
    path = TropicalCurve(
        3,
        ((0, 1, Fraction(1)), (1, 2, Fraction(2))),
        ((0, 1), (0, 2), (1, 3), (2, 4), (2, 5)),
    )
    assert is_smooth(path)


def test_stabilize_straightens_a_chain():
    # v0 -(1)- w -(2)- v1 with w two-valent
    c = TropicalCurve(
        3,
        ((0, 2, Fraction(1)), (2, 1, Fraction(2))),
        ((0, 1), (0, 2), (1, 3), (1, 4)),
    )
    s = stabilize(c)
    assert s.vertices == 2
    assert len(s.internal_edges) == 1
    assert s.internal_edges[0][2] == Fraction(3)


def test_stabilize_fixes_trivalent_curves():
    path = TropicalCurve(
        2,
        ((0, 1, Fraction(5)),),
        ((0, 1), (0, 2), (1, 3), (1, 4)),
    )
    assert stabilize(path) == path
    assert stabilize(stabilize(path)) == stabilize(path)


def test_stabilize_long_chain():
    # chain of three 2-valent vertices, lengths (1,1,1,1) -> one edge of length 4
    c = TropicalCurve(
        5,
        (
            (0, 2, Fraction(1)),
            (2, 3, Fraction(1)),
            (3, 4, Fraction(1)),
            (4, 1, Fraction(1)),
        ),
        ((0, 1), (0, 2), (1, 3), (1, 4)),
    )
    s = stabilize(c)
    assert s.vertices == 2
    assert s.internal_edges[0][2] == Fraction(4)


def test_stabilize_slides_a_leg():
    # w carries one leg and one internal edge; the leg slides to the far end.
    c = TropicalCurve(2, ((0, 1, Fraction(7)),), ((0, 1), (0, 2), (1, 3)))
    s = stabilize(c)
    assert s.vertices == 1
    assert s.internal_edges == ()
    assert sorted(lab for _, lab in s.legs) == [1, 2, 3]


def test_stabilize_keeps_two_leg_vertex():
    c = TropicalCurve(1, (), ((0, 1), (0, 2)))
    assert stabilize(c) == c


def random_subdivided_tree(rng, n_legs):
    """A trivalent tree with labelled legs, then internal edges subdivided."""
    edges = []
    legs = [(0, 1), (0, 2), (0, 3)]
    vertices = 1
    for lab in range(4, n_legs + 1):
        # attach a new leg via a new vertex dropped onto a random leg or edge
        if edges and rng.random() < 0.5:
            a, b, l = edges.pop(rng.randrange(len(edges)))
            cut = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            w = vertices
            vertices += 1
            edges += [(a, w, cut), (w, b, l)]
            legs.append((w, lab))
        else:
            v, moved = legs.pop(rng.randrange(len(legs)))
            w = vertices
            vertices += 1
            edges.append((v, w, Fraction(rng.randint(1, 9))))
            legs += [(w, moved), (w, lab)]
    return TropicalCurve(vertices, tuple(edges), tuple(legs))


def subdivide_edges(curve, rng):
    """Insert 2-valent vertices on random internal edges, preserving metric."""
    edges = list(curve.internal_edges)
    vertices = curve.vertices
    for _ in range(rng.randint(1, 3)):
        if not edges:
            break
        i = rng.randrange(len(edges))
        a, b, l = edges.pop(i)
        if l == INF:
            edges.append((a, b, l))
            continue
        t = Fraction(rng.randint(1, 3), 4) * l
        w = vertices
        vertices += 1
        edges += [(a, w, t), (w, b, l - t)]
    return TropicalCurve(vertices, tuple(edges), curve.legs)


def test_stabilize_idempotent_and_distance_preserving():
    rng = random.Random(23)
    for _ in range(40):
        base = random_subdivided_tree(rng, rng.randint(3, 7))
        curve = subdivide_edges(base, rng)
        s = stabilize(curve)
        assert stabilize(s) == s
        labels = [lab for _, lab in curve.legs]
        for i in labels:
            for j in labels:
                if i < j:
                    assert curve.leg_distance(i, j) == s.leg_distance(i, j)


def test_overvalence_examples():
    assert overvalence(tripod()) == 0
    star4 = TropicalCurve(1, (), ((0, 1), (0, 2), (0, 3), (0, 4)))
    assert overvalence(star4) == 1
    # degrees (5,3,3) after stabilization -> 2
    c = TropicalCurve(
        3,
        ((0, 1, Fraction(1)), (0, 2, Fraction(1))),
        ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7)),
    )
    assert c.shape.valence(0) == 5
    assert overvalence(c) == 2


def test_overvalence_vs_edge_deficit():
    rng = random.Random(9)
    for _ in range(40):
        c = random_subdivided_tree(rng, rng.randint(3, 8))
        n_legs = len(c.legs)
        stab = stabilize(c)
        assert overvalence(c) == (n_legs - 3) - len(stab.internal_edges)


@pytest.mark.parametrize("seed", range(20))
def test_parent_walk_reaches_each_vertex_once_after_its_parent(seed):
    # a random tree on shuffled vertices, each edge running either way
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    names = list(range(n))
    rng.shuffle(names)
    edges = []
    for k in range(1, n):
        a, b = names[rng.randrange(k)], names[k]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    root = rng.randrange(n)
    walk = TreeShape.parent_walk(n, edges, root)
    order = [root] + [v for v, _, _ in walk]
    assert sorted(order) == list(range(n))
    for v, u, i in walk:
        assert set(edges[i]) == {u, v}
        assert order.index(u) < order.index(v)
    assert sorted(i for _, _, i in walk) == list(range(n - 1))


def test_curve_json_roundtrip():
    c = TropicalCurve(
        2,
        ((0, 1, Fraction(5, 3)),),
        ((0, 1), (0, 2), (1, 3), (1, 4)),
    )
    assert curve_from_json(curve_to_json(c)) == c
    nodal = TropicalCurve(2, ((0, 1, INF),), ((0, 1), (0, 2), (1, 3), (1, 4)))
    assert curve_from_json(curve_to_json(nodal)) == nodal

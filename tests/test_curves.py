import random
from fractions import Fraction

import pytest

from tropcount.curves import TreeShape


def straightened(shape, lengths):
    """``shape.straighten()``'s tree, each of its edges as long as its group."""
    _, stab, groups = shape.straighten()
    return stab, [sum((lengths[i] for i in group), Fraction(0)) for group in groups]


def leg_distance(shape, lengths, label_a, label_b):
    """Sum of the edge lengths along the path between two legs."""
    paths = TreeShape.signed_paths(shape.vertices, shape.edges, shape.leg_vertex(label_a))
    return sum((lengths[i] for i, _ in paths[shape.leg_vertex(label_b)]), Fraction(0))


def test_tree_invariant_enforced():
    assert not TreeShape(2, (), ((0, 1), (1, 2))).is_tree()  # disconnected, wrong edge count
    with pytest.raises(ValueError):
        TreeShape(1, (), ((0, 1), (0, 1)))  # duplicate labels
    with pytest.raises(ValueError):
        TreeShape(2, ((1, 0),), ((0, 1), (1, 2)))  # an edge against tail < head
    with pytest.raises(ValueError):
        TreeShape(1, (), ((0, 1), (1, 2)))  # a leg on a missing vertex
    # a tree's edge count, but vertex 2 is cut off
    assert not TreeShape(3, ((0, 1), (0, 1)), ((0, 1), (1, 2), (2, 3))).is_tree()
    assert TreeShape(2, ((0, 1),), ((0, 1), (1, 2))).is_tree()


def test_stabilize_straightens_a_chain():
    # v0 -(1)- w -(2)- v1 with w two-valent
    shape = TreeShape(3, ((0, 2), (1, 2)), ((0, 1), (0, 2), (1, 3), (1, 4)))
    kept, stab, groups = shape.straighten()
    assert kept == [0, 1]
    assert stab == TreeShape(2, ((0, 1),), shape.legs)
    assert straightened(shape, [Fraction(1), Fraction(2)])[1] == [Fraction(3)]


def test_stabilize_fixes_trivalent_curves():
    path = TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3), (1, 4)))
    assert path.straighten() == ([0, 1], path, [[0]])


def test_stabilize_long_chain():
    # chain of three 2-valent vertices, lengths (1,1,1,1) -> one edge of length 4
    shape = TreeShape(5, ((0, 2), (2, 3), (3, 4), (1, 4)), ((0, 1), (0, 2), (1, 3), (1, 4)))
    stab, lengths = straightened(shape, [Fraction(1)] * 4)
    assert stab.vertices == 2
    assert lengths == [Fraction(4)]


def test_stabilize_slides_a_leg():
    # w carries one leg and one internal edge; the leg slides to the far end.
    shape = TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3)))
    kept, stab, groups = shape.straighten()
    assert kept == [0]
    assert stab == TreeShape(1, (), ((0, 1), (0, 2), (0, 3)))
    assert groups == []


def test_stabilize_keeps_two_leg_vertex():
    shape = TreeShape(1, (), ((0, 1), (0, 2)))
    assert shape.straighten() == ([0], shape, [])


def random_subdivided_tree(rng, n_legs):
    """A trivalent tree with labelled legs and positive rational edge lengths,
    as (shape, lengths)."""
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
    return with_lengths(vertices, edges, legs)


def with_lengths(vertices, edges, legs):
    """(shape, lengths) of ``(a, b, length)`` edges that may run either way."""
    shape = TreeShape(vertices, tuple((min(a, b), max(a, b)) for a, b, _ in edges), tuple(legs))
    return shape, [l for _, _, l in edges]


def subdivide_edges(shape, lengths, rng):
    """Insert 2-valent vertices on random internal edges, preserving metric."""
    edges = [(a, b, l) for (a, b), l in zip(shape.edges, lengths)]
    vertices = shape.vertices
    for _ in range(rng.randint(1, 3)):
        if not edges:
            break
        a, b, l = edges.pop(rng.randrange(len(edges)))
        t = Fraction(rng.randint(1, 3), 4) * l
        w = vertices
        vertices += 1
        edges += [(a, w, t), (w, b, l - t)]
    return with_lengths(vertices, edges, shape.legs)


def test_stabilize_idempotent_and_distance_preserving():
    rng = random.Random(23)
    for _ in range(40):
        shape, lengths = subdivide_edges(*random_subdivided_tree(rng, rng.randint(3, 7)), rng)
        stab, stab_lengths = straightened(shape, lengths)
        assert stab.straighten() == (list(range(stab.vertices)), stab, [[i] for i in range(len(stab.edges))])
        labels = [lab for _, lab in shape.legs]
        for i in labels:
            for j in labels:
                if i < j:
                    assert leg_distance(shape, lengths, i, j) == leg_distance(stab, stab_lengths, i, j)


def test_overvalence_vs_edge_deficit():
    # a straightened subdivided trivalent tree is trivalent again: no vertex
    # above valence 3, and so n - 3 edges
    rng = random.Random(9)
    for _ in range(40):
        shape, lengths = subdivide_edges(*random_subdivided_tree(rng, rng.randint(3, 8)), rng)
        _, stab, _ = shape.straighten()
        valence = [0] * stab.vertices
        for v in [v for edge in stab.edges for v in edge] + [v for v, _ in stab.legs]:
            valence[v] += 1
        overvalence = sum(max(k - 3, 0) for k in valence)
        assert overvalence == 0
        assert overvalence == (len(shape.legs) - 3) - len(stab.edges)


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

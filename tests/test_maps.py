import random
from fractions import Fraction

import pytest

from oracles import ExtendedPoint, ev_trop
from tropcount.curves import UnknownLabelError
from tropcount.maps import (
    CombinatorialType,
    DiscreteData,
    InvalidTypeError,
    TreeShape,
    TropicalStableMap,
    map_from_json,
    map_to_json,
    subdivide,
    torically_transverse,
    validate,
)
from tropcount.polyhedral import fan_product, fan_projective_space

P2 = fan_projective_space(2)
U1, U2, U3 = (1, 0), (0, 1), (-1, -1)
ZERO = P2.cone_index(())
RAY = {u: P2.cone_index((P2.rays.index(u),)) for u in (U1, U2, U3)}
CONE2 = {
    (a, b): P2.cone_index(tuple(sorted((P2.rays.index(a), P2.rays.index(b)))))
    for a, b in ((U1, U2), (U1, U3), (U2, U3))
}


def frac_point(*xs):
    return tuple(Fraction(x) for x in xs)


def tripod_map(contacts=(U1, U2, U3), position=(0, 0), vertex_cone=ZERO, carriers=None):
    if carriers is None:
        carriers = tuple(RAY[c] if c in RAY else None for c in contacts)
    t = CombinatorialType(
        P2,
        TreeShape(1, (), ((0, 1), (0, 2), (0, 3))),
        (vertex_cone,),
        (),
        (),
        tuple(contacts),
        tuple(carriers),
    )
    return TropicalStableMap(t, (frac_point(*position),), ())


def test_tripod_is_valid():
    report = validate(tripod_map())
    assert report.valid, report


def test_tripod_weight_mutation_breaks_balancing():
    bad = tripod_map(contacts=(U1, U2, (-2, -2)))
    report = validate(bad)
    assert "balancing" in report.conditions()


def test_tripod_position_mutation_leaves_cone():
    bad = tripod_map(position=(-1, -2))
    report = validate(bad)
    assert "vertex-in-cone" in report.conditions()


def subdivided_wall_map(root=(2, 1), wall=(1, 0), length=1):
    """Root in <u1,u2>, leg 3 crossing the wall <u1> at ``wall``."""
    shape = TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3)))
    t = CombinatorialType(
        P2,
        shape,
        (CONE2[(U1, U2)], RAY[U1]),
        (U3,),
        (CONE2[(U1, U2)],),
        (U1, U2, U3),
        (CONE2[(U1, U2)], CONE2[(U1, U2)], CONE2[(U1, U3)]),
    )
    return TropicalStableMap(t, (frac_point(*root), frac_point(*wall)), (Fraction(length),))


def test_wall_vertex_is_stable():
    report = validate(subdivided_wall_map())
    assert report.valid, report


def test_negative_length_rejected():
    f = subdivided_wall_map()
    bad = TropicalStableMap(f.type, f.positions, (Fraction(-1),))
    assert "positive-length" in validate(bad).conditions()


def test_an_integer_length_is_finite():
    # the valid wall map with its length 1 as a plain int
    f = subdivided_wall_map()
    report = validate(TropicalStableMap(f.type, f.positions, (1,)))
    assert report.valid, report
    # an int that is off by one still meets the edge equation check
    report = validate(TropicalStableMap(f.type, f.positions, (2,)))
    assert report.conditions() == {"edge-equation"}


@pytest.mark.parametrize("length", [float("inf"), True], ids=["inf", "bool"])
def test_a_length_that_is_not_exact_is_not_smooth(length):
    f = subdivided_wall_map()
    assert validate(TropicalStableMap(f.type, f.positions, (length,))).conditions() == {"smooth"}


def test_midcone_divalent_vertex_is_unstable():
    # Subdivide the bounded edge of the valid wall map at its midpoint: the
    # new vertex joins two collinear edges strictly inside a maximal cone.
    shape = TreeShape(3, ((0, 1), (1, 2)), ((0, 1), (0, 2), (2, 3)))
    c12 = CONE2[(U1, U2)]
    t = CombinatorialType(
        P2,
        shape,
        (c12, c12, RAY[U1]),
        (U3, U3),
        (c12, c12),
        (U1, U2, U3),
        (c12, c12, CONE2[(U1, U3)]),
    )
    f = TropicalStableMap(
        t,
        (frac_point(2, 1), frac_point(Fraction(3, 2), Fraction(1, 2)), frac_point(1, 0)),
        (Fraction(1, 2), Fraction(1, 2)),
    )
    report = validate(f)
    assert report.conditions() == {"stability"}


def test_contracted_two_marked_component_is_unstable():
    shape = TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (0, 3), (1, 4)))
    t = CombinatorialType(
        P2,
        shape,
        (ZERO, ZERO),
        ((0, 0),),
        (ZERO,),
        (U1, U2, U3, (0, 0)),
        (RAY[U1], RAY[U2], RAY[U3], ZERO),
    )
    f = TropicalStableMap(t, (frac_point(0, 0), frac_point(0, 0)), (Fraction(1),))
    report = validate(f)
    assert report.conditions() == {"stability"}


def test_edge_equation_violation_reported():
    f = subdivided_wall_map(root=(2, 1), wall=(1, 1), length=1)
    report = validate(f)
    assert "edge-equation" in report.conditions()


def test_subdivide_inserts_wall_vertex():
    # Root at (2,1), leg 3 pointing along u3: minimal subdivision cuts at (1,0).
    shape = TreeShape(1, (), ((0, 1), (0, 2), (0, 3)))
    t = CombinatorialType(
        P2,
        shape,
        (CONE2[(U1, U2)],),
        (),
        (),
        (U1, U2, U3),
        (None, None, None),
    )
    f = TropicalStableMap(t, (frac_point(2, 1),), ())
    g = subdivide(f)
    assert g.type.shape.vertices == 2
    assert g.positions[1] == frac_point(1, 0)
    assert g.lengths == (Fraction(1),)
    assert g.type.vertex_cones[1] == RAY[U1]
    assert validate(g).valid
    assert subdivide(g).type.shape.vertices == 2  # idempotent


def test_subdivide_fixes_valid_map():
    f = subdivided_wall_map()
    g = subdivide(f)
    assert g.type.shape.vertices == f.type.shape.vertices
    assert g.positions == f.positions
    assert g.lengths == f.lengths


def test_subdivide_keeps_ray_legs_at_origin():
    f = tripod_map(carriers=(None, None, None))
    g = subdivide(f)
    assert g.type.shape.vertices == 1
    assert g.type.leg_carriers == (RAY[U1], RAY[U2], RAY[U3])


def test_subdivide_through_origin():
    # Leg from (-1, 0) along u1 passes through the origin.
    shape = TreeShape(1, (), ((0, 1), (0, 2), (0, 3)))
    t = CombinatorialType(
        P2,
        shape,
        (CONE2[(U2, U3)],),
        (),
        (),
        (U1, U2, U3),
        (None, None, None),
    )
    f = TropicalStableMap(t, (frac_point(-1, 0),), ())
    g = subdivide(f)
    assert g.type.shape.vertices == 2
    assert g.positions[1] == frac_point(0, 0)
    assert g.type.vertex_cones[1] == ZERO
    assert validate(g).valid, validate(g)


def test_ev_trop_examples():
    shape = TreeShape(1, (), ((0, 1), (0, 2), (0, 3), (0, 4)))
    t = CombinatorialType(
        P2,
        shape,
        (None,),
        (),
        (),
        (U1, U2, U3, (0, 0)),
        (None, None, None, None),
    )
    f = TropicalStableMap(t, (frac_point(3, 5),), ())
    ep = ev_trop(f, 4)
    assert ep == ExtendedPoint(ZERO, frac_point(3, 5))

    f = TropicalStableMap(t, (frac_point(1, 1),), ())
    ep = ev_trop(f, 3)
    assert ep.stratum_cone == RAY[U3]
    assert ep.coset == (Fraction(0),)

    f = TropicalStableMap(t, (frac_point(0, 0),), ())
    ep = ev_trop(f, 1)
    assert ep.stratum_cone == RAY[U1]
    assert ep.coset == (Fraction(0),)

    with pytest.raises(UnknownLabelError):
        ev_trop(f, 9)


def test_ev_trop_translation_equivariance():
    rng = random.Random(17)
    shape = TreeShape(1, (), ((0, 1), (0, 2), (0, 3), (0, 4)))
    t = CombinatorialType(
        P2, shape, (None,), (), (), (U1, U2, U3, (0, 0)), (None, None, None, None)
    )
    for _ in range(30):
        p = frac_point(rng.randint(-9, 9), rng.randint(-9, 9))
        shift = frac_point(rng.randint(-5, 5), rng.randint(-5, 5))
        f = TropicalStableMap(t, (p,), ())
        g = TropicalStableMap(t, (tuple(a + b for a, b in zip(p, shift)),), ())
        assert tuple(
            a + b for a, b in zip(ev_trop(f, 4).coset, shift)
        ) == ev_trop(g, 4).coset


def test_global_balancing_of_valid_maps():
    f = subdivide(subdivided_wall_map())
    total = [0, 0]
    for c in f.type.leg_contacts:
        total = [a + b for a, b in zip(total, c)]
    assert total == [0, 0]


def test_torically_transverse():
    gamma = DiscreteData(P2, ((1, U1), (2, U2), (3, U3)), ())
    assert torically_transverse(gamma)

    gamma = DiscreteData(P2, ((1, (1, 1)), (2, (-1, -1)), (3, U3)), ())
    assert not torically_transverse(gamma)

    gamma = DiscreteData(P2, (), (1, 2, 3))
    assert torically_transverse(gamma)


def test_type_check_catches_unbalanced():
    t = CombinatorialType(
        P2,
        TreeShape(1, (), ((0, 1), (0, 2), (0, 3))),
        (ZERO,),
        (),
        (),
        (U1, U2, (0, -1)),
        (RAY[U1], RAY[U2], None),
    )
    with pytest.raises(InvalidTypeError):
        t.check()


def test_map_json_roundtrip():
    f = subdivide(subdivided_wall_map())
    data = map_to_json(f)
    g = map_from_json(data)
    assert map_to_json(g) == data
    assert validate(g).valid


def test_degree_vector_p1xp1():
    f = fan_product(fan_projective_space(1), fan_projective_space(1))
    gamma = DiscreteData(
        f,
        ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1))),
        (5,),
    )
    assert torically_transverse(gamma)
    # degree (1, 1, 1, 1): each contact is a ray of its own, with weight 1
    assert sorted(f.rays.index(c) for _, c in gamma.contact_legs) == list(range(4))


def test_subdivide_stabilize_metric_compatibility():
    # the edge from (2, 1) along u3 crosses the wall <u1> at (1, 0); cutting
    # it there keeps every leg-to-leg distance, before straightening and after
    def leg_distance(shape, lengths, i, j):
        paths = TreeShape.signed_paths(shape.vertices, shape.edges, shape.leg_vertex(i))
        return sum((lengths[k] for k, _ in paths[shape.leg_vertex(j)]), Fraction(0))

    def straightened(h):
        _, stab, groups = h.type.shape.straighten()
        return stab, [sum((h.lengths[k] for k in group), Fraction(0)) for group in groups]

    shape = TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3), (1, 4)))
    t = CombinatorialType(P2, shape, (None, None), (U3,), (None,), (U1, U2, U3, (0, 0)), (None,) * 4)
    f = TropicalStableMap(t, (frac_point(2, 1), frac_point(-1, -2)), (Fraction(3),))
    g = subdivide(f)
    assert g.type.shape.vertices == 3 and sorted(g.lengths) == [Fraction(1), Fraction(2)]
    labels = [lab for _, lab in f.type.shape.legs]
    for i in labels:
        for j in labels:
            if i < j:
                assert leg_distance(f.type.shape, f.lengths, i, j) == leg_distance(g.type.shape, g.lengths, i, j)
                assert leg_distance(*straightened(f), i, j) == leg_distance(*straightened(g), i, j)

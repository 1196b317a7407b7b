import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import extended_point, smith_normal_form
from tropcount.exactmath import IntMatrix, clear_denominators, integer_kernel
from tropcount.polyhedral import (
    DependentGeneratorsError,
    Fan,
    NotCompleteError,
    NotSimplicialError,
    fan_from_json,
    fan_product,
    fan_projective_space,
    fan_to_json,
    locate,
    quotient_projection,
)

P2 = fan_projective_space(2)
U1, U2, U3 = (1, 0), (0, 1), (-1, -1)


def in_relint(fan, idx, p):
    """Whether p lies in the cone and in none of its proper faces."""
    return fan.contains(idx, p) and not any(fan.contains(face, p) for face in fan.face_indices(idx) if face != idx)


def test_p1_fan():
    f = fan_projective_space(1)
    assert f.rays == ((1,), (-1,))
    assert sorted(f.maximal_cones()) == [f.cone_index((0,)), f.cone_index((1,))]


def test_p2_fan_rays_and_cones():
    assert set(P2.rays) == {U1, U2, U3}
    assert sum(1 for c in P2.cones if len(c) == 2) == 3
    # smoothness: every maximal cone has unimodular ray matrix
    for idx in P2.maximal_cones():
        cone = P2.cones[idx]
        m = [[P2.rays[i][r] for i in cone] for r in range(2)]
        assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1


def test_zero_rank_rejected():
    with pytest.raises(ValueError):
        fan_projective_space(0)


def test_nonsimplicial_rejected():
    with pytest.raises(NotSimplicialError):
        Fan.make(2, [[1, 0], [0, 1], [1, 1]], [[0, 1, 2]])


def test_product_p1xp1():
    f = fan_product(fan_projective_space(1), fan_projective_space(1))
    assert f.rank == 2
    assert set(f.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len([c for c in f.cones if len(c) == 2]) == 4


def test_product_with_point_fan_is_identity():
    f = fan_product(P2, Fan(0, (), ((),), "pt"))
    assert f.rank == P2.rank
    assert set(f.rays) == set(P2.rays)
    assert len(f.cones) == len(P2.cones)


def test_product_p2xp1_maximal_count():
    f = fan_product(P2, fan_projective_space(1))
    assert len([c for c in f.cones if len(c) == 3]) == 6


def test_locate_examples():
    assert locate(P2, (Fraction(0), Fraction(0))) == P2.cone_index(())
    idx = locate(P2, (Fraction(1), Fraction(1)))
    assert P2.cones[idx] == tuple(sorted((P2.rays.index(U1), P2.rays.index(U2))))
    idx = locate(P2, (Fraction(2), Fraction(0)))
    assert P2.cones[idx] == (P2.rays.index(U1),)


@pytest.mark.parametrize("point", [(1, 2, 3), (1,)], ids=["long", "short"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: locate(P2, p),
        lambda p: P2.contains(P2.cone_index((0,)), p),
        lambda p: P2.cone_coefficients(P2.cone_index((0,)), p),
    ],
    ids=["locate", "contains", "cone_coefficients"],
)
def test_a_point_of_the_wrong_length_is_refused(call, point):
    # the cone's rows would be zipped with the point, silently dropping or
    # missing coordinates
    with pytest.raises(ValueError, match=f"the point has {len(point)} coordinates, but the fan has rank 2"):
        call(tuple(Fraction(x) for x in point))


@pytest.mark.parametrize("direction", [(1, 0, 5), (1,)], ids=["long", "short"])
def test_a_germ_direction_of_the_wrong_length_is_refused(direction):
    # checked when the lookup misses the germ cache, which a fresh fan's does
    fan = fan_projective_space(2)
    with pytest.raises(ValueError, match=f"the direction has {len(direction)} coordinates, but the fan has rank 2"):
        fan.germ(0, direction)
    assert fan.germ(0, (1, 0)) == fan.cone_index((fan.rays.index(U1),))


def test_locate_incomplete_fan():
    half = Fan.make(2, [[1, 0], [0, 1]], [[0, 1]])
    with pytest.raises(NotCompleteError):
        locate(half, (Fraction(-1), Fraction(-1)))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_locate_partitions_p2(px, py, qx, qy):
    p = (Fraction(px, qx), Fraction(py, qy))
    hits = [i for i in range(len(P2.cones)) if in_relint(P2, i, p)]
    assert hits == [locate(P2, p)]


def test_locate_partitions_p1xp1_randomized():
    f = fan_product(fan_projective_space(1), fan_projective_space(1))
    rng = random.Random(3)
    for _ in range(200):
        p = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        hits = [i for i in range(len(f.cones)) if in_relint(f, i, p)]
        assert hits == [locate(f, p)]


def test_quotient_projection_examples():
    assert quotient_projection(P2, IntMatrix(2, 0, ())) == IntMatrix.identity(2)

    q = quotient_projection(P2, IntMatrix.from_rows([[1], [1]]))
    assert q.rows == 1
    x_minus_y = q.to_lists()[0]
    assert x_minus_y in ([1, -1], [-1, 1])

    assert quotient_projection(P2, IntMatrix.identity(2)).rows == 0


def test_quotient_projection_rejects_dependent():
    with pytest.raises(DependentGeneratorsError):
        quotient_projection(P2, IntMatrix.from_rows([[1, 2], [1, 2]]))


def test_quotient_projection_unit_snf_randomized():
    rng = random.Random(5)
    for _ in range(50):
        v = [rng.randint(-5, 5), rng.randint(-5, 5)]
        if v == [0, 0]:
            continue
        q = quotient_projection(P2, IntMatrix.from_rows([[v[0]], [v[1]]]))
        # the saturation of the span of v is spanned by v over the gcd of its entries
        saturation = integer_kernel(q)
        assert saturation.cols == 1 and saturation.transpose().row(0) in {tuple(x // g for x in v) for g in (gcd(*v), -gcd(*v))}
        assert all(d == 1 for d in smith_normal_form(q).diagonal())


def test_extended_point_examples():
    ep = extended_point(P2, (Fraction(1), Fraction(1)), U3)
    assert P2.cones[ep.stratum_cone] == (P2.rays.index(U3),)
    assert ep.coset == (Fraction(0),)

    ep = extended_point(P2, (Fraction(0), Fraction(0)), U1)
    assert P2.cones[ep.stratum_cone] == (P2.rays.index(U1),)
    assert ep.coset == (Fraction(0),)

    ep = extended_point(P2, (Fraction(0), Fraction(5)), U1)
    assert ep.coset in ((Fraction(5),), (Fraction(-5),))
    with pytest.raises(ValueError, match="length mismatch"):
        extended_point(P2, (Fraction(0), Fraction(5), Fraction(1)), U1)


def test_extended_point_invariant_under_span_translation():
    rng = random.Random(11)
    for _ in range(50):
        base = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        direction = random.choice([U1, U2, U3])
        t = rng.randint(-5, 5)
        shifted = (base[0] + t * direction[0], base[1] + t * direction[1])
        assert extended_point(P2, base, direction) == extended_point(P2, shifted, direction)


def test_locate_germ():
    def germ(p, d):
        return P2.germ(locate(P2, p), clear_denominators(d)[0])

    origin = (Fraction(0), Fraction(0))
    g = germ(origin, (Fraction(1), Fraction(0)))
    assert P2.cones[g] == (P2.rays.index(U1),)
    g = germ(origin, (Fraction(-1), Fraction(0)))
    assert len(P2.cones[g]) == 2  # interior of <u2,u3>
    g = germ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)))
    assert P2.cones[g] == (P2.rays.index(U1),)


def test_fan_json_roundtrip():
    for fan in (P2, fan_product(fan_projective_space(1), fan_projective_space(1))):
        data = fan_to_json(fan)
        back = fan_from_json(data)
        assert fan_to_json(back) == data
        assert data["rays"] == sorted(data["rays"])


def test_fan_json_reader_accepts_any_order():
    data = fan_to_json(P2)
    scrambled = dict(data)
    scrambled["rays"] = list(reversed(data["rays"]))
    n = len(data["rays"])
    scrambled["cones"] = [[n - 1 - i for i in c] for c in data["cones"]]
    assert fan_to_json(fan_from_json(scrambled)) == data

import dataclasses
import re
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount.counting import (
    CodimensionMismatchError,
    CountProblem,
    NonGenericError,
    NotPlanarPointProblemError,
    SingularError,
    count,
    evaluation_matrix,
    generate_constraints,
    kontsevich_oracle,
    mikhalkin_multiplicity,
    multiplicity,
)
from tropcount.exactmath import IntMatrix
from tropcount.maps import CombinatorialType, DiscreteData, TreeShape, ev_trop, validate
from tropcount.moduli import contains, moduli_cone
from tropcount.polyhedral import fan_product, fan_projective_space

P2 = fan_projective_space(2)
P1 = fan_projective_space(1)
P1P1 = fan_product(P1, P1)
U1, U2, U3 = (1, 0), (0, 1), (-1, -1)


def p2_gamma(d, m=None):
    contacts = tuple((i + 1, [U1, U2, U3][i // d]) for i in range(3 * d))
    m = 3 * d - 1 if m is None else m
    return DiscreteData(P2, contacts, tuple(range(3 * d + 1, 3 * d + 1 + m)))


def p2_problem(d, seed):
    gamma = p2_gamma(d)
    return CountProblem(gamma, generate_constraints(gamma, None, seed))


def skeleton_census(problem):
    """The skeleton census over a problem's contact legs."""
    from tropcount.counting import _skeleton_census

    return _skeleton_census(problem.gamma.fan.rank, [c for _, c in problem.gamma.contact_legs])


def count_trees(problem):
    """The trees that ``count`` solves: the marked-point search over the
    skeleton census where ``count`` runs it, else the census over all legs."""
    from tropcount.counting import _rigid_trees, _searches_skeletons

    return _rigid_trees(problem, skeleton_census(problem) if _searches_skeletons(problem) else None)


def rigid_types(problem, trees):
    """The stabilized type of each working tree, as ``count`` builds it for a solution."""
    from tropcount.counting import _tree_to_type

    return [_tree_to_type(problem, tree) for tree in trees]


def tangency_problem(contacts, seed=0):
    """Rational plane curves with these contact vectors through n - 1 points."""
    n = len(contacts)
    gamma = DiscreteData(P2, tuple(enumerate(contacts, 1)), tuple(range(n + 1, 2 * n)))
    return CountProblem(gamma, generate_constraints(gamma, None, seed))


def unit(r, i):
    return tuple(int(k == i) for k in range(r))


def projective_problem(r, d, seed):
    """Rational curves of degree d in P^r through the points that make them rigid."""
    fan = fan_projective_space(r)
    dirs = [unit(r, i) for i in range(r)] + [(-1,) * r]
    n = d * (r + 1)
    m = (r - 3 + n) // (r - 1)  # r - 3 + n + m = r m
    gamma = DiscreteData(fan, tuple((i + 1, dirs[i // d]) for i in range(n)), tuple(range(n + 1, n + 1 + m)))
    return CountProblem(gamma, generate_constraints(gamma, None, seed))


def p1_cube_problem(degrees, seed):
    """Rational curves of multidegree ``degrees`` in (P^1)^3 through n / 2 points."""
    fan = fan_product(P1, fan_product(P1, P1))
    dirs = [tuple(s * x for x in unit(3, i)) for i, a in enumerate(degrees) for s in (1, -1) for _ in range(a)]
    n = len(dirs)
    gamma = DiscreteData(fan, tuple(enumerate(dirs, 1)), tuple(range(n + 1, n + 1 + n // 2)))
    return CountProblem(gamma, generate_constraints(gamma, None, seed))


# tangent to the line of the ray (0, 1): conics once, cubics once and at a contact of order 3
CONIC_TANGENT = [U1] * 2 + [(0, 2)] + [U3] * 2
CUBIC_TANGENT = [U1] * 3 + [(0, 2), U2] + [U3] * 3
CUBIC_FLEX = [U1] * 3 + [(0, 3)] + [U3] * 3


def test_kontsevich_oracle_values():
    assert kontsevich_oracle(1) == 1
    assert kontsevich_oracle(2) == 1
    assert kontsevich_oracle(3) == 12
    assert kontsevich_oracle(4) == 620
    assert kontsevich_oracle(5) == 87304


def test_generate_constraints_deterministic():
    gamma = p2_gamma(1)
    a = generate_constraints(gamma, None, 42)
    b = generate_constraints(gamma, None, 42)
    assert a == b
    c = generate_constraints(gamma, None, 43)
    assert a != c
    for constraint in a.constraints:
        for x in constraint.translation:
            assert abs(x.numerator) <= 32 * 32 and x.denominator <= 32


def test_generate_constraints_codimension_balance():
    gamma = p2_gamma(1)  # dim = 2 - 3 + 2 + 3 = 4 = two point constraints
    generate_constraints(gamma, None, 1)
    too_many = DiscreteData(P2, p2_gamma(1).contact_legs, (4, 5, 6))
    with pytest.raises(CodimensionMismatchError):
        generate_constraints(too_many, None, 1)


def test_enumerate_census_degree_one():
    from tropcount.counting import _rigid_trees

    prob = p2_problem(1, 7)
    unpruned = rigid_types(prob, _rigid_trees(prob, None))
    assert len(unpruned) == 15  # (2*5-5)!! labeled trivalent trees
    pruned = rigid_types(prob, _rigid_trees(prob, skeleton_census(prob)))
    assert 1 <= len(pruned) <= 15
    pruned_keys = {t.shape.legs for t in pruned}
    assert pruned_keys <= {t.shape.legs for t in unpruned} | pruned_keys


def test_skeleton_census_sizes():
    from tropcount.counting import _skeleton_census

    # stabilized skeletons over the 3d contact legs of plane curves of degree d
    for d, size in ((1, 1), (2, 17), (3, 791)):
        assert len(_skeleton_census(2, [U1] * d + [U2] * d + [U3] * d)) == size


def _census_keying_every_child(rank, contacts):
    """The skeleton census as a key of every child, then a drop of the trees
    with an internal edge of zero contact, the oracle of the census that
    tests the contact before it keys."""
    from tropcount import counting
    from tropcount.moduli import forced_edge_contacts, grow_trees

    trees = grow_trees([(c, 0) for c in sorted(contacts)], counting._tree_key)
    return [
        (nv, edges, legs)
        for nv, edges, legs in trees
        if all(any(c) for c in forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), rank))
    ]


QUADRIC_ONE_ONE = [(1, 0), (-1, 0), (0, 1), (0, -1)]
CENSUS_CASES = {
    **{f"p2-d{d}": (lambda d=d: (2, [U1] * d + [U2] * d + [U3] * d)) for d in (1, 2, 3)},
    "quadric-(1,1)": lambda: (2, QUADRIC_ONE_ONE),
    "quadric-(2,2)": lambda: (2, QUADRIC_ONE_ONE * 2),
    "p3-conics": lambda: (3, [c for _, c in projective_problem(3, 2, 0).gamma.contact_legs]),
    "p1-cube-(1,1,1)": lambda: (3, [c for _, c in p1_cube_problem((1, 1, 1), 0).gamma.contact_legs]),
}


@pytest.mark.parametrize("name", list(CENSUS_CASES))
def test_skeleton_census_matches_keying_every_child(name):
    # a contracted edge is an isomorphism invariant, so testing it before the
    # key drops whole classes and keeps the first tree of every other class
    from tropcount.counting import _skeleton_census

    rank, contacts = CENSUS_CASES[name]()
    assert _skeleton_census(rank, contacts) == _census_keying_every_child(rank, contacts)


def _edge_contacts_by_edge_walks(vertices, edges, legs, rank):
    """Per edge (a, b), a walk over the b side that sums its leg contacts:
    the per-edge form of ``forced_edge_contacts``, its oracle."""
    adj = [[] for _ in range(vertices)]
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    at_vertex = [[] for _ in range(vertices)]
    for v, c in legs:
        at_vertex[v].append(c)
    out = []
    for i, (a, b) in enumerate(edges):
        total = [0] * rank
        seen, stack = {a, b}, [b]
        while stack:
            v = stack.pop()
            for c in at_vertex[v]:
                total = [x + y for x, y in zip(total, c)]
            for w, j in adj[v]:
                if w not in seen and j != i:
                    seen.add(w)
                    stack.append(w)
        out.append(tuple(total))
    return out


@pytest.mark.parametrize("name", list(CENSUS_CASES))
def test_forced_edge_contacts_match_edge_walks_on_the_census(name):
    from tropcount.counting import _skeleton_census
    from tropcount.moduli import forced_edge_contacts

    rank, contacts = CENSUS_CASES[name]()
    for nv, edges, legs in _skeleton_census(rank, contacts):
        leg_contacts = [(v, c) for v, c, _ in legs]
        want = _edge_contacts_by_edge_walks(nv, edges, leg_contacts, rank)
        assert forced_edge_contacts(nv, edges, leg_contacts, rank) == want, (nv, edges, legs)


def _random_working_tree(rng, rank, span, scramble):
    """A tree grown by ``insert_leg`` with legs (vertex, contact, 0), whose
    split edges run from the new vertex to the old head, so that some edges
    run tail > head; the contacts need not balance.  ``scramble`` renames
    the vertices and turns edges round at random, so that a child end (the
    end farther from vertex 0) may be a tail."""
    from tropcount.moduli import insert_leg

    contact = lambda: tuple(rng.randint(-span, span) for _ in range(rank))
    tree = (1, (), tuple((0, contact(), 0) for _ in range(3)))
    for _ in range(rng.randint(0, 12)):
        nv, edges, legs = tree
        if edges and rng.random() < 0.5:
            tree = insert_leg(tree, (contact(), 0), edge=rng.randrange(len(edges)))
        else:
            tree = insert_leg(tree, (contact(), 0), at_leg=rng.randrange(len(legs)))
    if not scramble:
        return tree
    nv, edges, legs = tree
    name = list(range(nv))
    rng.shuffle(name)
    edges = tuple((name[b], name[a]) if rng.random() < 0.5 else (name[a], name[b]) for a, b in edges)
    return nv, edges, tuple((name[leg[0]],) + leg[1:] for leg in legs)


@pytest.mark.parametrize("seed", range(20))
def test_forced_edge_contacts_match_edge_walks_on_random_trees(seed):
    import random

    from tropcount.moduli import forced_edge_contacts

    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    nv, edges, legs = _random_working_tree(rng, rank, 3, scramble=seed % 2)
    leg_contacts = [(v, c) for v, c, _ in legs]
    want = _edge_contacts_by_edge_walks(nv, edges, leg_contacts, rank)
    assert forced_edge_contacts(nv, edges, leg_contacts, rank) == want, (nv, edges, legs)


@pytest.mark.parametrize("seed", range(20))
def test_uncontracted_sites_are_the_sites_with_no_zero_edge(seed):
    # the oracle inserts the leg at every site and keeps the children with
    # no edge of zero contact, in site order; small contacts make edges of
    # contact 0 and -c common
    import random

    from tropcount.counting import _uncontracted_sites
    from tropcount.moduli import forced_edge_contacts, insert_leg

    rng = random.Random(seed)
    rank = rng.randint(1, 2)
    for _ in range(10):
        tree = _random_working_tree(rng, rank, 1, scramble=True)
        c = (1,) + tuple(rng.randint(-1, 1) for _ in range(rank - 1))
        leg = (c if rng.random() < 0.5 else tuple(-x for x in c), 0)
        nv, edges, legs = tree
        every = [(i, None) for i in range(len(edges))] + [(None, k) for k in range(len(legs))]
        want = []
        for site in every:
            cnv, cedges, clegs = insert_leg(tree, leg, *site)
            if all(any(p) for p in forced_edge_contacts(cnv, cedges, ((v, x) for v, x, _ in clegs), rank)):
                want.append(site)
        assert _uncontracted_sites(rank, tree, leg) == want, (tree, leg)


def test_skeleton_census_keys_no_contracted_child(monkeypatch):
    # of the 3,510 children at the last level of the d=3 census, 1,293 have
    # an edge of zero contact and go unkeyed
    from tropcount import counting

    keyed = []
    tree_key = counting._tree_key

    def counted(tree):
        keyed.append(len(tree[2]))
        return tree_key(tree)

    monkeypatch.setattr(counting, "_tree_key", counted)
    contacts = [U1] * 3 + [U2] * 3 + [U3] * 3
    _census_keying_every_child(2, contacts)
    assert keyed.count(9) == 3510
    keyed.clear()
    counting._skeleton_census(2, contacts)
    assert keyed.count(9) == 2217


def test_census_bound_sits_at_nine_legs():
    from tropcount.counting import CensusTooLargeError, _census_legs

    # lines through 2 points and s lines: 3 + 2 + s legs
    line = IntMatrix.from_rows([[1], [0]])
    for s in (4, 5):
        gamma = p2_gamma(1, 2 + s)
        subspaces = {lab: line for lab in gamma.trivial_legs[2:]}
        prob = CountProblem(gamma, generate_constraints(gamma, subspaces, 1))
        if s == 4:
            assert len(_census_legs(prob)) == 9
        else:
            with pytest.raises(CensusTooLargeError, match="10 legs"):
                count(prob)


def test_enumerate_p1_single_path_type():
    from tropcount.counting import _rigid_trees

    gamma = DiscreteData(P1, ((1, (1,)), (2, (-1,))), (3,))
    prob = CountProblem(gamma, generate_constraints(gamma, None, 5))
    types = rigid_types(prob, _rigid_trees(prob, None))
    assert len(types) == 1
    assert count(prob).total == 1


def test_degree_zero_m3_single_contracted_type():
    from tropcount.counting import _rigid_trees

    gamma = DiscreteData(P2, (), (1, 2, 3))
    subspaces = {1: None, 2: IntMatrix.identity(2), 3: IntMatrix.identity(2)}
    cfg = generate_constraints(gamma, subspaces, 11)
    prob = CountProblem(gamma, cfg)
    types = rigid_types(prob, _rigid_trees(prob, None))
    assert len(types) == 1
    res = count(prob)
    assert res.total == 1


def test_evaluation_matrix_point_legs_on_root():
    # both point legs at the single vertex: the matrix stacks two identities
    gamma = p2_gamma(1)
    prob = CountProblem(gamma, generate_constraints(gamma, None, 3))
    shape = TreeShape(1, (), tuple((0, lab) for lab in range(1, 6)))
    theta = CombinatorialType(
        P2, shape, (None,), (), (), (U1, U2, U3, (0, 0), (0, 0)), (None,) * 5
    )
    m = evaluation_matrix(theta, prob)
    assert m.rows == 4 and m.cols == 2
    cols = {m.column(0), m.column(1)}
    assert cols == {(1, 0, 1, 0), (0, 1, 0, 1)}
    with pytest.raises(SingularError):
        multiplicity(theta, prob)  # 4x2 cannot be rigid


def test_evaluation_matrix_leg_across_an_edge():
    # point leg 5 across a bounded edge of contact u1 from the root leg 4
    gamma = p2_gamma(1)
    prob = CountProblem(gamma, generate_constraints(gamma, None, 3))
    shape = TreeShape(
        2, ((0, 1),), ((0, 1), (1, 2), (1, 3), (0, 4), (1, 5))
    )
    theta = CombinatorialType(
        P2,
        shape,
        (None, None),
        ((-1, 0),),  # contacts beyond the head: u2 + u3
        (None,),
        (U1, U2, U3, (0, 0), (0, 0)),
        (None,) * 5,
    )
    m = evaluation_matrix(theta, prob)
    # rows: ev4 = pos_0, ev5 = pos_1; span basis is rank 3
    assert m.rows == 4 and m.cols == 3
    mc = moduli_cone(theta)
    assert mc.dimension == 3
    # (root position, lengths) is no lattice basis once a vertex is confined
    confined = dataclasses.replace(theta, vertex_cones=(P2.maximal_cones()[0], None))
    with pytest.raises(ValueError, match="unconfined"):
        multiplicity(confined, prob)


def test_multiplicity_refuses_a_singular_square_matrix():
    # both point legs on the root vertex of a path with two bounded edges:
    # a 4x4 evaluation matrix of rank 2
    gamma = p2_gamma(1)
    prob = CountProblem(gamma, generate_constraints(gamma, None, 3))
    shape = TreeShape(3, ((0, 1), (1, 2)), ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5)))
    theta = CombinatorialType(
        P2, shape, (None,) * 3, ((-1, 0), U3), (None,) * 2, (U1, U2, U3, (0, 0), (0, 0)), (None,) * 5
    )
    m = evaluation_matrix(theta, prob)
    assert m.rows == m.cols == 4
    with pytest.raises(SingularError):
        multiplicity(theta, prob)


def test_multiplicity_weighted_vertex():
    # weighted directions (2,1) and (1,2) meeting (-3,-3): vertex factor 3
    shape = TreeShape(1, (), ((0, 1), (0, 2), (0, 3)))
    theta = CombinatorialType(
        P2, shape, (None,), (), (), ((2, 1), (1, 2), (-3, -3)), (None,) * 3
    )
    assert mikhalkin_multiplicity(theta) == 3


def test_mikhalkin_rejects_higher_rank():
    p3 = fan_projective_space(3)
    shape = TreeShape(1, (), ((0, 1), (0, 2)))
    theta = CombinatorialType(
        p3, shape, (None,), (), (), ((1, 0, 0), (-1, 0, 0)), (None, None)
    )
    with pytest.raises(NotPlanarPointProblemError):
        mikhalkin_multiplicity(theta)


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 1)])
def test_plane_counts_small_degrees(d, expected):
    seeds = {1: (7, 8, 9), 2: (0, 1, 3)}[d]
    totals = set()
    for seed in seeds:
        res = count(p2_problem(d, seed))
        totals.add(res.total)
        for c in res.contributions:
            assert validate(c.map).valid
            assert mikhalkin_multiplicity(c.type) == c.multiplicity
    assert totals == {expected}


@pytest.mark.slow
def test_plane_degree_four_on_two_workers():
    # 66,748 skeletons and 11 points: minutes of pure Python (pytest -m slow)
    assert count(p2_problem(4, 0), threads=2).total == kontsevich_oracle(4) == 620


@pytest.mark.parametrize(
    "contacts,expected",
    [(CONIC_TANGENT, 2), (CUBIC_TANGENT, 36), (CUBIC_FLEX, 21)],
    ids=["conics-4pts-tangent", "cubics-7pts-tangent", "cubics-6pts-contact-3"],
)
def test_plane_counts_with_tangency(contacts, expected):
    assert count(tangency_problem(contacts)).total == expected


def test_quadric_bidegree_one_one():
    contacts = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))
    totals = set()
    for seed in (0, 1, 2):
        gamma = DiscreteData(P1P1, contacts, (5, 6, 7))
        res = count(CountProblem(gamma, generate_constraints(gamma, None, seed)))
        totals.add(res.total)
    assert totals == {1}


def test_quadric_bidegree_two_two():
    # 12 rational curves of bidegree (2,2) through 7 general points of
    # P^1 x P^1; each weight is the product of the Mikhalkin vertex
    # multiplicities
    directions = [(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 1), (0, 1), (0, -1), (0, -1)]
    gamma = DiscreteData(P1P1, tuple(enumerate(directions, 1)), tuple(range(9, 16)))
    res = count(CountProblem(gamma, generate_constraints(gamma, None, 0)))
    assert res.total == 12
    for c in res.contributions:
        assert mikhalkin_multiplicity(c.type) == c.multiplicity


def test_quadric_count_matches_bilinear_kernel_oracle():
    # independent oracle: bilinear forms a+bx+cy+dxy through 3 generic points
    # form a 3-dimensional kernel condition with exactly one curve
    from tropcount.counting import _splitmix64

    stream = _splitmix64(123)
    pts = []
    for _ in range(3):
        x = Fraction(next(stream) % 41 - 20, next(stream) % 7 + 1)
        y = Fraction(next(stream) % 41 - 20, next(stream) % 7 + 1)
        pts.append((x, y))
    rows = [[Fraction(1), x, y, x * y] for x, y in pts]
    from math import lcm

    from tropcount.exactmath import rank

    # scaling a row by the lcm of its denominators keeps the rank
    scaled = [[int(q * lcm(*(p.denominator for p in r))) for q in r] for r in rows]
    assert rank(IntMatrix.from_rows(scaled)) == 3  # one-dimensional kernel: exactly one (1,1)-curve


def _unpruned_solutions(problem):
    """{key: multiplicity} of every interior solution over the trees of the census of all legs."""
    from tropcount.counting import _rigid_trees, _solve_tree
    from tropcount.moduli import canonical_form

    found = {}
    for tree in _rigid_trees(problem, None):
        try:
            solved = _solve_tree(problem, tree)
        except SingularError:
            continue
        if solved is not None:
            theta, _, weight = solved
            found[canonical_form(theta, identify_contacts=True)[0]] = weight
    return found


@pytest.mark.parametrize("r,seed", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1)])
def test_lines_through_two_points_in_higher_rank(r, seed):
    # the pruned search keeps every solution of the unpruned census (the
    # targets of P^4 seed 2 lie on a wall)
    prob = projective_problem(r, 1, seed)
    res = count(prob)
    assert res.total == 1
    assert {c.key: c.multiplicity for c in res.contributions} == _unpruned_solutions(prob)


RANK_THREE_COUNTS = {
    "p1-cube-(1,1,1)-3pts": (lambda: p1_cube_problem((1, 1, 1), 0), 1),
    # a conic spans a plane, which 4 generic points of P^3 do not lie on
    "p3-conics-4pts": (lambda: projective_problem(3, 2, 0), 0),
    # the last two factors of a (2,1,1) curve are a Mobius map, which 4 generic pairs do not fit
    "p1-cube-(2,1,1)-4pts": (lambda: p1_cube_problem((2, 1, 1), 0), 0),
}


@pytest.mark.parametrize("name", sorted(RANK_THREE_COUNTS))
def test_rank_three_point_counts(name):
    problem, expected = RANK_THREE_COUNTS[name]
    assert count(problem()).total == expected


def test_count_contributions_are_interior_and_on_target():
    prob = p2_problem(2, 0)
    res = count(prob)
    assert res.seed_echo == 0
    assert res.total == sum(c.multiplicity for c in res.contributions)
    targets = {c.label: c.translation for c in prob.constraints.constraints}
    for c in res.contributions:
        for label in prob.gamma.trivial_legs:
            ep = ev_trop(c.map, label)
            assert ep.coset == targets[label]


# two targets for the point legs 4 and 5 of a line in P^2 (contacts u1, u2, u3)
NONGENERIC_TARGETS = {
    # seed 0's target for leg 5, and one for leg 4 on the ray u1
    "target-on-a-wall": (lambda seed0: ((1, 0), seed0[1]), "target for leg 4 lies on a wall"),
    # the line's vertex is (1, 0), on the ray u1
    "vertex-on-a-wall": (lambda seed0: ((1, 2), (0, -1)), "a stabilized vertex landed on a wall"),
    # the vertex is (1, 1), and its (-1, -1) leg runs through the origin
    "leg-through-the-origin": (lambda seed0: ((3, 1), (1, 4)), "an edge crossed a stratum of codimension > 1"),
}


@pytest.mark.parametrize("name", sorted(NONGENERIC_TARGETS))
def test_nongeneric_seed_detected(name):
    # seed 2 puts a solved edge length at exactly zero for degree 3; use
    # cheap handmade collisions instead
    from tropcount.counting import Constraint, ConstraintConfig

    gamma = p2_gamma(1)
    seed0 = [c.translation for c in generate_constraints(gamma, None, 0).constraints]
    targets, message = NONGENERIC_TARGETS[name]
    bad = ConstraintConfig(
        tuple(Constraint(label, None, tuple(Fraction(x) for x in t)) for label, t in zip((4, 5), targets(seed0))),
        0,
        32,
    )
    with pytest.raises(NonGenericError, match=message):
        count(CountProblem(gamma, bad))


def test_seed_and_thread_determinism():
    prob = p2_problem(2, 1)
    r1 = count(prob, threads=1)
    r2 = count(prob, threads=2)
    r3 = count(prob, threads=1)
    assert r1.total == r2.total == r3.total
    assert [c.key for c in r1.contributions] == [c.key for c in r2.contributions]
    assert [c.key for c in r1.contributions] == [c.key for c in r3.contributions]


def test_writing_a_count_holds_no_whole_contribution_list(tmp_path):
    # fails if count_result_to_json gives its contributions as a list again,
    # which the writer encodes in one call: the d=2 count's contributions,
    # repeated 60 times, written as the streamed iterator and as that list
    import tracemalloc

    from tropcount.cli import _emit
    from tropcount.counting import count_result_to_json

    prob = p2_problem(2, 1)
    result = count(prob)
    result = dataclasses.replace(result, contributions=result.contributions * 60)

    def peak(write) -> int:
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    data = count_result_to_json(prob, result)
    assert hasattr(data["contributions"], "__next__")
    streamed = peak(lambda: _emit(data, str(tmp_path / "streamed.json")))
    data = count_result_to_json(prob, result)
    whole = peak(lambda: _emit({**data, "contributions": list(data["contributions"])}, str(tmp_path / "whole.json")))
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "whole.json").read_bytes()
    assert streamed * 10 < whole, (streamed, whole)


def test_count_deals_the_census_to_at_most_one_worker_per_skeleton(monkeypatch):
    # the stand-in pool records its size and starts no process; the CPU count
    # is fixed, so the pools are capped by skeletons and threads alone
    from tropcount import counting

    pools = []

    def in_process(problem, chunks):
        pools.append(len(chunks))
        return [counting._count_worker((problem, chunk)) for chunk in chunks]

    assert counting._usable_cpus() >= 1
    monkeypatch.setattr(counting, "_map_workers", in_process)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 4)
    assert count(p2_problem(1, 0), threads=2).total == 1  # one skeleton: no pool
    assert count(quadric_problem(), threads=3).total == 1  # two skeletons
    assert count(p2_problem(2, 1), threads=3).total == 1  # 17 skeletons
    assert pools == [2, 3]
    # and no more workers than CPUs, however many threads are asked for
    assert count(p2_problem(2, 1), threads=800).total == 1
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    assert count(p2_problem(2, 1), threads=800).total == 1
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 1)
    assert count(p2_problem(2, 1), threads=800).total == 1  # one CPU: no pool
    assert pools == [2, 3, 4, 2]


@pytest.mark.parametrize("threads", [0, -2])
def test_count_rejects_a_thread_count_below_one(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        count(p2_problem(1, 0), threads=threads)


def test_subspace_constraint_line_through_two_points():
    # degree 1 with two point constraints and one subtorus-line constraint:
    # the line through the two points is unique and meets the translate once
    gamma = DiscreteData(P2, p2_gamma(1).contact_legs, (4, 5, 6))
    subspaces = {4: None, 5: None, 6: IntMatrix.from_rows([[1], [1]])}
    cfg = generate_constraints(gamma, subspaces, 9)
    prob = CountProblem(gamma, cfg)
    res = count(prob)
    assert res.total == 1


def test_count_requires_marked_point():
    from tropcount.counting import ConstraintConfig

    gamma = DiscreteData(P2, p2_gamma(1).contact_legs, ())
    with pytest.raises(ValueError):
        CountProblem(gamma, ConstraintConfig((), 0, 32))


def test_unbalanced_contacts_are_refused():
    # no curve balances unless the contact orders sum to zero
    gamma = DiscreteData(P2, ((1, U1), (2, U2), (3, U3), (4, U1)), (5, 6, 7))
    with pytest.raises(ValueError, match=re.escape("sum to [1, 0], not to zero")):
        CountProblem(gamma, generate_constraints(gamma, None, 0))


def test_contributions_interior_to_their_moduli_cone():
    prob = p2_problem(2, 0)
    for c in count(prob).contributions:
        assert contains(moduli_cone(c.map.type), c.map) == "interior"


small_vectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def _lp_in_cone(v, dirs):
    # v lies in the closed cone of dirs iff sum_i lam_i d_i = v has a solution
    # lam >= 0; rows with a negative entry of v are negated so that b >= 0
    from tropcount.lp import _phase_one

    a = []
    b = []
    for k in range(len(v)):
        sign = -1 if v[k] < 0 else 1
        a.append([Fraction(sign * d[k]) for d in dirs])
        b.append(Fraction(sign * v[k]))
    return _phase_one(a, b) is not None


def _in_cone(v, dirs):
    # the search's cone test on one vector, in the rank of v
    from tropcount.counting import _closed_cone_test

    return bool(_closed_cone_test([v], len(v))(dirs))


@settings(max_examples=400, deadline=None)
@given(small_vectors, st.lists(small_vectors, max_size=6))
def test_closed_cone_test_matches_lp_feasibility(v, dirs):
    assert _in_cone(v, dirs) == _lp_in_cone(v, dirs)


small_4vectors = st.tuples(*[st.integers(-2, 2)] * 4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_4vectors, min_size=1, max_size=4),
    st.lists(st.lists(small_4vectors, max_size=7), min_size=1, max_size=3),
)
def test_closed_cone_test_matches_lp_feasibility_in_rank_four(vs, cones):
    # one test over several vectors and the growing prefixes of several cones,
    # so later cones read the bitsets cached for earlier ones, and a prefix
    # one direction longer than a cached one may take its dual
    from tropcount.counting import _closed_cone_test

    test = _closed_cone_test(vs, 4)
    for dirs in cones:
        for k in range(len(dirs) + 1):
            assert test(dirs[:k]) == sum(_lp_in_cone(v, dirs[:k]) << i for i, v in enumerate(vs)), dirs[:k]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_one_step_duals_match_the_duals_built_from_scratch(monkeypatch, rank):
    # direction chains grown one direction at a time: a test that has seen
    # every prefix may cut a cached dual by the new direction, where a fresh
    # test builds the dual from scratch; both give the same verdicts
    import random

    from tropcount import counting
    from tropcount.moduli import ConeRays

    cuts = []
    cut = ConeRays.cut
    monkeypatch.setattr(ConeRays, "cut", lambda self, *args: cuts.append(args) or cut(self, *args))
    rng = random.Random(rank)

    def vector():
        return tuple(rng.randint(-2, 2) for _ in range(rank))

    for _ in range(40):
        vs = [vector() for _ in range(6)]
        chain = [vector() for _ in range(rank + 4)]
        grown = counting._closed_cone_test(vs, rank, 2)
        for k in range(len(chain) + 1):
            assert grown(chain[:k]) == counting._closed_cone_test(vs, rank, 2)(chain[:k]), chain[:k]
    assert cuts


small_3vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))


def _caratheodory_in_cone(v, dirs):
    # v = 0, or v is a nonnegative combination of linearly independent dirs,
    # at most rank of v of them; it shares neither the LP nor the dual rays
    from itertools import combinations

    from tropcount.exactmath import solve_rational

    if not any(v):
        return True
    for k in range(1, len(v) + 1):
        for subset in combinations(dirs, k):
            sol = solve_rational(IntMatrix.from_rows([[d[i] for d in subset] for i in range(len(v))]), v)
            if sol is not None and sol[1] and min(sol[0]) >= 0:
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(small_3vectors, st.lists(small_3vectors, max_size=5))
def test_in_closed_cone_matches_caratheodory(v, dirs):
    assert _in_cone(v, dirs) == _caratheodory_in_cone(v, dirs)


@settings(max_examples=300, deadline=None)
@given(st.lists(small_vectors, min_size=1, max_size=4), st.lists(small_vectors, max_size=6))
def test_in_closed_cone_matches_cone_verdicts_in_rank_two(vs, dirs):
    # each vector's own test, its bit in one test over all the vectors, and
    # the Caratheodory reference agree in rank two
    from tropcount.counting import _closed_cone_test

    verdicts = _closed_cone_test(vs, 2)(dirs)
    for i, v in enumerate(vs):
        assert _in_cone(v, dirs) == bool(verdicts >> i & 1) == _caratheodory_in_cone(v, dirs), v


CONE_CASES = {
    "no ray": ([], [((0, 0), True), ((1, 0), False), ((0, -3), False)]),
    "one ray": ([(2, 1)], [((4, 2), True), ((2, 1), True), ((0, 0), True), ((-2, -1), False), ((1, 2), False)]),
    "zero and non-primitive": ([(0, 0), (3, 0), (0, 0)], [((1, 0), True), ((-1, 0), False), ((1, 1), False)]),
    "line": ([(1, -1), (-2, 2)], [((3, -3), True), ((-1, 1), True), ((1, 0), False), ((0, 1), False)]),
    "half-plane": (
        [(1, 0), (-2, 0), (1, 1)],
        [((5, 0), True), ((-1, 0), True), ((-3, 1), True), ((0, -1), False), ((7, -1), False)],
    ),
    "half-plane, more rays": (
        [(0, 1), (1, 1), (1, 0), (1, -1), (0, -2)],
        [((0, 4), True), ((0, -1), True), ((2, -9), True), ((-1, 0), False), ((-1, 5), False)],
    ),
    "pointed sector": (
        [(1, 0), (1, 1), (2, 1)],
        [((3, 1), True), ((2, 2), True), ((4, 0), True), ((0, 0), True)]
        + [((1, 2), False), ((1, -1), False), ((-1, -1), False)],
    ),
    "positively spanning": ([(1, 0), (0, 1), (-1, -1)], [((0, 0), True), ((-5, 2), True), ((3, -7), True)]),
    "plane, no line in it": ([(1, 2), (-3, 1), (1, -4)], [((-1, -1), True), ((9, 9), True), ((0, 1), True)]),
    "rank 3, line": (
        [(1, 2, 0), (-2, -4, 0)],
        [((3, 6, 0), True), ((-1, -2, 0), True), ((0, 0, 0), True), ((1, 0, 0), False), ((0, 0, 1), False)],
    ),
    "rank 3, plane through three directions": (
        [(1, 0, 1), (0, 1, 1), (-1, -1, -2)],
        [((5, -3, 2), True), ((-2, -7, -9), True), ((0, 0, 1), False), ((1, 1, 1), False)],
    ),
    "rank 3, half-space": (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)],
        [((3, -4, 0), True), ((-1, 2, 5), True), ((0, 0, -1), False), ((7, 7, -1), False)],
    ),
    "rank 3, cone over a square": (
        [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)],
        [((0, 0, 1), True), ((1, 0, 1), True), ((2, 1, 2), True), ((0, 0, 0), True)]
        + [((1, 1, 0), False), ((2, 2, 1), False), ((3, 0, 2), False), ((0, 0, -1), False)],
    ),
    "rank 3, positively spanning": (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [((0, 0, 0), True), ((-5, 2, 3), True), ((1, -1, -7), True)],
    ),
    "rank 3, no direction": ([], [((0, 0, 0), True), ((1, 0, 0), False), ((0, 0, -2), False)]),
    "rank 3, zero direction": (
        [(0, 0, 0), (2, 0, 0)],
        [((1, 0, 0), True), ((0, 0, 0), True), ((-1, 0, 0), False), ((0, 1, 0), False)],
    ),
}


@pytest.mark.parametrize("name", sorted(CONE_CASES))
def test_cone_verdicts_named_cases(name):
    # every listed v against the LP, one by one and as one verdict bitset,
    # packed one bit apart and three apart
    from tropcount.counting import _closed_cone_test

    dirs, cases = CONE_CASES[name]
    rank = len(cases[0][0])
    for v, inside in cases:
        assert _in_cone(v, dirs) == inside == _lp_in_cone(v, dirs), v
    vs = [v for v, _ in cases]
    for stride in (1, 3):
        expected = sum(inside << stride * i for i, (_, inside) in enumerate(cases))
        assert _closed_cone_test(vs, rank, stride)(dirs) == expected


# --- reference marked-point search -------------------------------------------
#
# The from-scratch form of ``counting._marked_dfs``: every node recomputes the
# end counts of the unmarked forest and runs a fresh BFS from every marked
# point for the directions of the walks to it.  The table-driven search must
# yield the same trees in the same order.


def _reference_end_counts(nv, edges, legs, marked):
    """(ends below each vertex, ends per component, parent edge, component id)
    of the forest left by deleting the marked vertices."""
    own = [0] * nv
    for v, c, _ in legs:
        if any(c) and v not in marked:
            own[v] += 1
    adj = [[] for _ in range(nv)]
    for i, (a, b) in enumerate(edges):
        if a not in marked and b not in marked:
            adj[a].append((b, i))
            adj[b].append((a, i))
    totals = []
    below = [0] * nv
    parent_vertex = [-1] * nv
    parent_edge = [-1] * nv
    comp = [-1] * nv
    for root in range(nv):
        if root in marked or comp[root] != -1:
            continue
        order = []
        stack = [root]
        comp[root] = len(totals)
        while stack:
            v = stack.pop()
            order.append(v)
            for w, i in adj[v]:
                if comp[w] == -1:
                    comp[w] = comp[root]
                    parent_vertex[w] = v
                    parent_edge[w] = i
                    stack.append(w)
        for v in reversed(order):
            below[v] += own[v]
            if parent_vertex[v] >= 0:
                below[parent_vertex[v]] += below[v]
        totals.append(below[root])
    return below, totals, parent_edge, comp


def _reference_end_sites(tree, marked):
    """The sites of the tree that pass the end count, as (edge, None) and
    (None, leg) pairs: edges and contact legs off the marked vertices whose
    component keeps an end on both sides."""
    nv, edges, legs = tree
    below, totals, parent_edge, comp = _reference_end_counts(nv, edges, legs, marked)
    sites = []
    for i, (a, b) in enumerate(edges):
        if a in marked or b in marked:
            continue
        child = b if parent_edge[b] == i else a
        if below[child] >= 1 and totals[comp[a]] - below[child] >= 1:
            sites.append((i, None))
    for k, (v, c, _) in enumerate(legs):
        if any(c) and v not in marked and totals[comp[v]] >= 2:
            sites.append((None, k))
    return sites


def _neg(c):
    return tuple(-x for x in c)


def _reference_walks(tree, contacts, source):
    """Per vertex: its depth from source and the directions of its walk to source."""
    nv, edges, _ = tree
    adj = [[] for _ in range(nv)]
    for i, (x, y) in enumerate(edges):
        adj[x].append((y, contacts[i]))  # the step y -> x goes along -c
        adj[y].append((x, _neg(contacts[i])))
    depth = [-1] * nv
    dirs = [frozenset()] * nv
    depth[source] = 0
    stack = [source]
    while stack:
        v = stack.pop()
        for w, c in adj[v]:
            if depth[w] == -1:
                depth[w] = depth[v] + 1
                dirs[w] = dirs[v] | {_neg(c)}
                stack.append(w)
    return depth, dirs


def _reference_site_walk(tree, contacts, te, tl, walks):
    """The directions of the walk from a new vertex on edge te or leg tl to
    the source of ``walks``."""
    depth, dirs = walks
    if te is not None:
        (a, b), c = tree[1][te], contacts[te]
    else:
        (a, c, _), b = tree[2][tl], None
    if b is None or depth[a] < depth[b]:
        return dirs[a] | {_neg(c)}
    return dirs[b] | {c}


def _reference_marked_dfs(problem, skeleton, trivial_labels, nodes):
    """Yield the completed trees; append each search node at depth k to nodes[k - 1]."""
    from tropcount.moduli import forced_edge_contacts, insert_leg

    rank = problem.gamma.fan.rank
    zero = (0,) * rank
    targets = {c.label: c.translation for c in problem.constraints.constraints}
    in_cone = {}  # (v, walk) -> the LP verdict, shared with no cone code of the engine

    def lp_in_cone(v, walk):
        key = (v, tuple(sorted(walk)))
        if key not in in_cone:
            in_cone[key] = _lp_in_cone(v, key[1])
        return in_cone[key]

    def rec(tree, contacts, j, marked_vertex):
        if j:
            nodes[j - 1].append(tree)
        if j == len(trivial_labels):
            yield tree
            return
        label = trivial_labels[j]
        legs = tree[2]
        candidates = _reference_end_sites(tree, set(marked_vertex.values()))
        tj = targets[label]
        geo = {lab_i: _reference_walks(tree, contacts, s) for lab_i, s in marked_vertex.items()}
        for te, tl in candidates:
            if te is not None:
                c = contacts[te]
                grown_contacts = contacts[:te] + contacts[te + 1 :] + (c, c)
            else:
                grown_contacts = contacts + (legs[tl][1],)
            ok = True
            for lab_i, walks in geo.items():
                walk = _reference_site_walk(tree, contacts, te, tl, walks)
                if not lp_in_cone(tuple(a - b for a, b in zip(targets[lab_i], tj)), walk):
                    ok = False
                    break
            if not ok:
                continue
            grown = insert_leg(tree, (zero, label), te, tl)
            yield from rec(grown, grown_contacts, j + 1, {**marked_vertex, label: grown[0] - 1})

    nv, edges, legs = skeleton
    contacts = tuple(forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), rank))
    yield from rec(skeleton, contacts, 0, {})


def _assert_dfs_matches_reference(problem, limit=None, start=0):
    """Compare the two searches on every skeleton, at every depth: the trees
    yielded for the first k trivial labels are the search nodes at depth k.
    Returns the number of nodes per depth."""
    from tropcount.counting import _marked_dfs, _skeleton_census

    trivial = sorted(problem.gamma.trivial_legs)
    skeletons = _skeleton_census(problem.gamma.fan.rank, [c for _, c in problem.gamma.contact_legs])
    skeletons = skeletons[start:limit]
    nodes = [[] for _ in trivial]
    want = [tree for skeleton in skeletons for tree in _reference_marked_dfs(problem, skeleton, trivial, nodes)]
    assert list(_marked_dfs(problem, skeletons, trivial)) == want
    for k in range(1, len(trivial)):
        assert list(_marked_dfs(problem, skeletons, trivial[:k])) == nodes[k - 1], k
    return [len(level) for level in nodes]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_marked_dfs_matches_reference_plane_degree_two(seed):
    assert _assert_dfs_matches_reference(p2_problem(2, seed))[-1] > 0


def test_marked_dfs_matches_reference_quadric():
    contacts = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))
    gamma = DiscreteData(P1P1, contacts, (5, 6, 7))
    prob = CountProblem(gamma, generate_constraints(gamma, None, 0))
    assert _assert_dfs_matches_reference(prob)[-1] > 0


def test_marked_dfs_matches_reference_plane_degree_three_head():
    # no tree over these skeletons survives all eight points of seed 0
    nodes = _assert_dfs_matches_reference(p2_problem(3, 0), limit=40)
    assert nodes[0] > 0 and nodes[-1] == 0


def test_marked_dfs_matches_reference_p3_lines():
    # points in a rank-3 fan: both prunes, with the LP cone test
    p3 = fan_projective_space(3)
    contacts = ((1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1)), (4, (-1, -1, -1)))
    gamma = DiscreteData(p3, contacts, (5, 6))
    prob = CountProblem(gamma, generate_constraints(gamma, None, 0))
    assert _assert_dfs_matches_reference(prob)[-1] > 0


def test_marked_dfs_matches_reference_p3_conics():
    assert _assert_dfs_matches_reference(projective_problem(3, 2, 0), limit=60) == [780, 777, 129, 40]


def test_marked_dfs_matches_reference_p1_cube():
    assert _assert_dfs_matches_reference(p1_cube_problem((1, 1, 1), 0)) == [612, 137, 5]


def quadric_problem():
    contacts = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))
    gamma = DiscreteData(P1P1, contacts, (5, 6, 7))
    return CountProblem(gamma, generate_constraints(gamma, None, 0))


# skeletons 160-209 of the d=3 census: 44 trees over 9 of them survive all
# eight points of seed 0, so a lookahead that drops a completing subtree shows
D3_SLICE = (160, 210)


def test_marked_dfs_matches_reference_plane_degree_three_slice():
    start, stop = D3_SLICE
    nodes = _assert_dfs_matches_reference(p2_problem(3, 0), limit=stop, start=start)
    assert nodes[-1] == 44


def test_marked_dfs_nodes_per_depth_with_lookahead(monkeypatch):
    # one insert_leg call builds each search node, a child in which the later
    # points keep sites that pass the distinct-sites rule; a child the
    # lookahead drops gets no tree (the search offers 750 / 1,700 / 808 / 137 /
    # 128 / 52 / 122 / 44 children per depth on this slice).  The reference
    # search, without the lookahead, makes 750 / 3,244 / 5,870 / 5,667 / 3,797
    # / 1,317 / 304 / 44 (20,993) nodes on the same slice
    from tropcount import counting

    prob = p2_problem(3, 0)
    start, stop = D3_SLICE
    skeletons = counting._skeleton_census(2, [c for _, c in prob.gamma.contact_legs])[start:stop]
    per_depth = [0] * prob.gamma.m
    insert_leg = counting.insert_leg

    def counted(tree, *args):
        child = insert_leg(tree, *args)
        per_depth[sum(1 for _, c, _ in child[2] if not any(c)) - 1] += 1
        return child

    monkeypatch.setattr(counting, "insert_leg", counted)
    trees = list(counting._marked_dfs(prob, skeletons, sorted(prob.gamma.trivial_legs)))
    assert len(trees) == 44
    assert per_depth == [212, 199, 62, 104, 45, 48, 42, 44]


def test_distinct_sites_rule():
    # fields of 5 bits: three points that share two sites are refused, as is
    # any i of them, the fewest-site first, on fewer than i sites
    from tropcount.counting import _distinct_sites

    def packed(*sites):
        return sum(sum(1 << t for t in ts) << 5 * u for u, ts in enumerate(sites))

    assert not _distinct_sites(packed({0, 1}, {0, 1}, {0, 1}), 3, 5)
    assert not _distinct_sites(packed({1, 2, 3}, {0}, {0}), 3, 5)
    assert _distinct_sites(packed({0, 1}, {0, 1}, {2}), 3, 5)
    assert _distinct_sites(packed({4}, {3, 4}, {2, 3, 4}, {0, 1, 2, 3, 4}), 4, 5)
    assert not _distinct_sites(packed({4}, {3, 4}, {3, 4}, {0, 1, 2, 3, 4}), 4, 5)
    assert _distinct_sites(packed({0, 1}, {0, 1}, {0, 1}), 2, 5)  # only the first k fields count


# slices on which trees complete for the other d=3 seeds: 8 trees over
# skeletons 128-135 for seed 1, 10 over skeletons 92-99 for seed 3
D3_OTHER_SLICES = {1: ((128, 136), 8), 3: ((92, 100), 10)}


@pytest.mark.parametrize("seed", sorted(D3_OTHER_SLICES))
def test_marked_dfs_matches_reference_plane_degree_three_other_seeds(seed):
    (start, stop), completed = D3_OTHER_SLICES[seed]
    nodes = _assert_dfs_matches_reference(p2_problem(3, seed), limit=stop, start=start)
    assert nodes[-1] == completed


def _reference_packed_end_sites(reach, n_legs, n_sites):
    """The bitset of the sites whose field of a packed reach holds an end on both sides."""
    side = (1 << n_legs) - 1
    passing = 0
    for t in range(n_sites):
        r = reach >> 2 * n_legs * t
        if r & side and r >> n_legs & side:
            passing |= 1 << t
    return passing


@pytest.mark.parametrize(
    "prob,every",
    [(p2_problem(2, s), 1) for s in range(5)]
    + [(p2_problem(3, 0), 16), (quadric_problem(), 1), (tangency_problem(CONIC_TANGENT), 1)],
    ids=[f"p2-d2-seed{s}" for s in range(5)] + ["p2-d3", "quadric", "conic-tangent"],
)
def test_site_tables_match_the_marked_tree(prob, every):
    # facts (i)-(iii) of ``_marked_dfs``, on random insertion sequences: at
    # every node the unused skeleton sites sit at their predicted tree
    # indices, the end count offers only them and the packed reach gives
    # its verdict, and the static walk mask from each of them to each mark
    # is the mask of the walk in the marked tree
    import random
    from math import gcd

    from tropcount.counting import _site_tables, _skeleton_census
    from tropcount.moduli import forced_edge_contacts, insert_leg

    alphabet = {}

    def bits(c):
        g = gcd(*c)
        ray = (c[0] // g, c[1] // g)
        for d in (ray, _neg(ray)):
            alphabet.setdefault(d, 1 << len(alphabet))
        return alphabet[ray], alphabet[_neg(ray)]

    def mask_of(dirs):
        mask = 0
        for d in dirs:
            mask |= bits(d)[0]
        return mask

    rng = random.Random(0)
    labels = sorted(prob.gamma.trivial_legs)
    checked = 0
    for skeleton in _skeleton_census(2, [c for _, c in prob.gamma.contact_legs])[::every]:
        nv, edges, legs = skeleton
        contacts = tuple(forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), 2))
        groups, notfar, reach = _site_tables(skeleton, [bits(c) for c in contacts], [bits(c) for _, c, _ in legs])
        n_edges, n_sites = len(edges), len(edges) + len(legs)
        walk_mask = [{t: mask for mask, group in row for t in range(n_sites) if group >> t & 1} for row in groups]
        for _ in range(2):
            tree, tree_contacts, now, used, marks = skeleton, contacts, reach, 0, {}
            for label in labels:
                unused = [t for t in range(n_sites) if not used >> t & 1]
                index = {}  # (i): site id -> (edge, None) or (None, leg) in the tree
                for t in unused:
                    below = used & ((1 << t) - 1)
                    if t < n_edges:
                        index[t] = (t - below.bit_count(), None)
                        assert tree[1][index[t][0]] == edges[t]
                    else:
                        index[t] = (None, t - n_edges - (below >> n_edges).bit_count())
                        assert tree[2][index[t][1]] == legs[t - n_edges]
                offered = _reference_end_sites(tree, set(marks.values()))
                passing = _reference_packed_end_sites(now, len(legs), n_sites)
                assert passing & used == 0
                assert offered == [index[t] for t in unused if passing >> t & 1]  # in tree order
                for s, vertex in marks.items():  # (ii)
                    walks = _reference_walks(tree, tree_contacts, vertex)
                    for t in unused:
                        assert walk_mask[s][t] == mask_of(_reference_site_walk(tree, tree_contacts, *index[t], walks))
                        checked += 1
                s = rng.choice(unused)
                te, tl = index[s]
                if te is None:
                    tree_contacts += (tree[2][tl][1],)
                else:
                    tree_contacts = tree_contacts[:te] + tree_contacts[te + 1 :] + (tree_contacts[te],) * 2
                tree = insert_leg(tree, ((0, 0), label), te, tl)
                marks[s] = tree[0] - 1
                used |= 1 << s
                now &= notfar[s]  # (iii)
    assert checked > 0


@pytest.mark.parametrize(
    "prob",
    [p2_problem(2, s) for s in range(5)] + [quadric_problem()],
    ids=[f"p2-d2-seed{s}" for s in range(5)] + ["quadric"],
)
def test_marked_dfs_completes_the_same_types_in_any_point_order(prob):
    # the lemma behind the lookahead: both site tests hold in a completed tree
    # whatever order the points went in, so any label order completes the
    # same types over each skeleton
    import random
    from collections import Counter

    from tropcount.counting import _marked_dfs, _skeleton_census, _tree_to_type
    from tropcount.moduli import canonical_form

    def types(skeleton, labels):
        trees = _marked_dfs(prob, [skeleton], labels)
        return Counter(canonical_form(_tree_to_type(prob, t), identify_contacts=True)[0] for t in trees)

    labels = sorted(prob.gamma.trivial_legs)
    shuffled = labels[:]
    random.Random(len(labels)).shuffle(shuffled)
    completed = 0
    for skeleton in _skeleton_census(2, [c for _, c in prob.gamma.contact_legs]):
        want = types(skeleton, labels)
        completed += sum(want.values())
        for order in (labels[::-1], shuffled):
            assert types(skeleton, order) == want, order
    assert completed > 0


# --- census key ----------------------------------------------------------------


def _brute_centres(nv, edges):
    adj = [[] for _ in range(nv)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def eccentricity(s):
        depth = {s: 0}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    stack.append(w)
        return max(depth.values())

    ecc = [eccentricity(v) for v in range(nv)]
    return sorted(v for v in range(nv) if ecc[v] == min(ecc))


def test_centres_are_the_eccentricity_minimisers():
    import random

    from tropcount.counting import _centres

    trees = [(n, [(i, i + 1) for i in range(n - 1)]) for n in range(1, 9)]  # paths, odd and even
    trees += [(n, [(0, i) for i in range(1, n)]) for n in range(2, 7)]  # stars
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 14)
        labels = list(range(n))
        rng.shuffle(labels)
        trees.append((n, [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)]))
    for nv, edges in trees:
        centres = _centres(nv, edges)
        assert centres == _brute_centres(nv, edges), (nv, edges)
        assert len(centres) in (1, 2)


@pytest.mark.parametrize(
    "contacts",
    [[U1] * d + [U2] * d + [U3] * d for d in (1, 2, 3)] + [[(1, 0), (-1, 0), (0, 1), (0, -1)]],
    ids=["d1", "d2", "d3", "quadric"],
)
def test_skeleton_census_keyed_at_centres_keeps_the_all_roots_list(contacts, monkeypatch):
    # isomorphisms map centres to centres, so the centre-rooted key splits the
    # trees into the same classes and dedup keeps the same first tree of each
    from tropcount import counting
    from tropcount.moduli import rooted_form

    def all_roots_key(tree):
        nv, edges, legs = tree
        at_vertex = [[] for _ in range(nv)]
        for v, c, _ in legs:
            at_vertex[v].append(c)
        tokens = [(tuple(sorted(cs)),) for cs in at_vertex]
        return rooted_form(nv, edges, tokens, [((), ())] * len(edges))[0]

    centred = counting._skeleton_census(2, contacts)
    monkeypatch.setattr(counting, "_tree_key", all_roots_key)
    assert counting._skeleton_census(2, contacts) == centred


# --- evaluation rows and solved positions against their former formulation ----


def _signed_path(shape, a, b):
    """Edges from vertex a to vertex b, each +1 when walked tail to head, by a
    plain recursive search."""

    def walk(v, came, out):
        if v == b:
            return out
        for i, (x, y) in enumerate(shape.edges):
            if i != came and v in (x, y):
                found = walk(y if v == x else x, i, out + [(i, 1 if v == x else -1)])
                if found is not None:
                    return found
        return None

    return walk(a, -1, [])


def _reference_evaluation_matrix(theta, problem):
    """The former rows: per leg, its projection times the r x (r + ne) block
    (I | sign·contact at each edge on the leg's path from the root, the
    vertex of leg 1)."""
    r = problem.gamma.fan.rank
    shape = theta.shape
    ne = len(shape.edges)
    root_vertex = shape.leg_vertex(1)
    rows = []
    for label in sorted(problem.gamma.trivial_legs):
        proj = IntMatrix.from_rows([p for lab, p in problem.rows if lab == label], r)
        block = [[int(i == j) for j in range(r)] + [0] * ne for i in range(r)]
        for e, sign in _signed_path(shape, root_vertex, shape.leg_vertex(label)):
            c = theta.edge_contacts[e]
            for i in range(r):
                block[i][r + e] = sign * c[i]
        for i in range(proj.rows):
            rows.append([sum(proj.at(i, k) * block[k][j] for k in range(r)) for j in range(r + ne)])
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, r + ne, ())


def _projected_targets(problem):
    """Each evaluation row's target: its covector applied to its leg's translation."""
    translation = {c.label: c.translation for c in problem.constraints.constraints}
    return [sum(a * x for a, x in zip(p, translation[label])) for label, p in problem.rows]


def _fallback_problem(seed):
    # lines through 2 points and the translates of the subtori (1, 1) and (1, 0)
    gamma = DiscreteData(P2, p2_gamma(1).contact_legs, (4, 5, 6, 7))
    lines = {6: IntMatrix.from_rows([[1], [1]]), 7: IntMatrix.from_rows([[1], [0]])}
    return CountProblem(gamma, generate_constraints(gamma, {4: None, 5: None, **lines}, seed))


def _p3_lines_through_a_point_and_two_lines():
    fan = fan_projective_space(3)
    dirs = [unit(3, i) for i in range(3)] + [(-1, -1, -1)]
    gamma = DiscreteData(fan, tuple(enumerate(dirs, 1)), (5, 6, 7))
    lines = {6: IntMatrix.from_rows([[1], [2], [0]]), 7: IntMatrix.from_rows([[0], [1], [-3]])}
    return CountProblem(gamma, generate_constraints(gamma, {5: None, **lines}, 0))


def _p1xp1_two_zero_through_three_points_and_a_line():
    # bidegree (2, 0) through 3 points and the translate of the subtorus (1, 1)
    gamma = DiscreteData(P1P1, ((1, (1, 0)), (2, (1, 0)), (3, (-1, 0)), (4, (-1, 0))), (5, 6, 7, 8))
    subspaces = {5: None, 6: None, 7: None, 8: IntMatrix.from_rows([[1], [1]])}
    return CountProblem(gamma, generate_constraints(gamma, subspaces, 0))


# name -> (problem, rows per projection); each takes the trees that count solves
ROWS_PROBLEMS = {
    **{
        f"fallback-{seed}": (lambda seed=seed: _fallback_problem(seed), {1, 2})
        for seed in (1000, 1001, 1002)
    },
    # eleven legs are past the census bound, so the plane conics take the searched types
    "plane-conics": (lambda: p2_problem(2, 0), {2}),
    "p3-lines-point-two-lines": (_p3_lines_through_a_point_and_two_lines, {2, 3}),
}


@pytest.mark.parametrize("name", ROWS_PROBLEMS)
def test_count_problem_holds_its_constraints_as_integer_rows(name):
    # in label order, a point's rows are the identity's, and a subspace L's
    # are a basis of the covectors vanishing on L (those of a unimodular Smith
    # factor); the targets are those rows at the translations, cleared over
    # their least common denominator
    from math import lcm

    from tropcount.exactmath import smith_normal_form

    prob = ROWS_PROBLEMS[name][0]()
    r = prob.gamma.fan.rank
    assert [label for label, _ in prob.rows] == sorted(label for label, _ in prob.rows)
    for c in prob.constraints.constraints:
        quotient = IntMatrix.from_rows([p for label, p in prob.rows if label == c.label], r)
        if c.subspace is None:
            assert quotient == IntMatrix.identity(r)
            continue
        assert quotient.rows == r - c.subspace.cols
        assert not any((quotient @ c.subspace).entries)
        assert all(abs(d) == 1 for d in smith_normal_form(quotient).diagonal())
    projected = _projected_targets(prob)
    assert prob.denominator == lcm(*(Fraction(x).denominator for x in projected))
    assert [Fraction(b, prob.denominator) for b in prob.targets] == projected


@pytest.mark.parametrize("name", ROWS_PROBLEMS)
def test_evaluation_rows_match_the_identity_block_formulation(name):
    from collections import Counter

    from tropcount.counting import _evaluation_rows, _labelled_legs, _solve_tree, _tree_to_type
    from tropcount.exactmath import lattice_index, solve_rational
    from tropcount.moduli import forced_edge_contacts

    make, heights = ROWS_PROBLEMS[name]
    prob = make()
    r = prob.gamma.fan.rank
    rhs = _projected_targets(prob)
    assert set(Counter(label for label, _ in prob.rows).values()) == heights
    types = solved = 0
    for tree in count_trees(prob):
        theta = _tree_to_type(prob, tree)
        want = _reference_evaluation_matrix(theta, prob)
        assert evaluation_matrix(theta, prob) == want
        # the tree's rows are the type's, with the length columns in the tree's edge order
        nv, edges, legs = tree
        contacts = forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), r)
        at = {lab: v for v, lab, _ in _labelled_legs(prob, legs)}
        rows, _ = _evaluation_rows(prob, nv, edges, contacts, at)
        column = [theta.shape.edges.index((min(a, b), max(a, b))) for a, b in edges]
        assert rows == [row[:r] + [row[r + k] for k in column] for row in want.to_lists()]
        types += 1
        try:
            found = _solve_tree(prob, tree)
        except (SingularError, NonGenericError):
            continue
        if found is None:
            continue
        solved += 1
        solved_type, f, weight = found
        assert solved_type == theta
        assert weight == lattice_index(want)
        values, unique = solve_rational(want, rhs)
        assert unique
        x, lengths = values[:r], values[r:]
        root_vertex = theta.shape.leg_vertex(1)
        for v in range(theta.shape.vertices):
            p = list(x)
            for e, sign in _signed_path(theta.shape, root_vertex, v):
                p = [pi + sign * lengths[e] * ci for pi, ci in zip(p, theta.edge_contacts[e])]
            assert f.positions[v] == tuple(p)
    assert types and solved


def _reference_outcome(problem, tree):
    """The outcome of a tree by the former route: ``_reference_evaluation_matrix``
    of its type solved by ``solve_rational``, then the length and wall rules:
    "singular", "non-generic", "miss", or the subdivided map and its weight."""
    from tropcount.counting import _tree_to_type
    from tropcount.exactmath import lattice_index, solve_rational
    from tropcount.maps import TropicalStableMap, subdivide

    theta = _tree_to_type(problem, tree)
    fan = problem.gamma.fan
    r = fan.rank
    m = _reference_evaluation_matrix(theta, problem)
    rhs = _projected_targets(problem)
    got = solve_rational(m, rhs) if m.rows == m.cols else None
    if got is None:
        return "singular"
    values, unique = got
    lengths = values[r:]
    if not unique or (0 in lengths and min(lengths) >= 0):
        return "non-generic"
    if min(lengths, default=0) < 0:
        return "miss"
    root_vertex = theta.shape.leg_vertex(1)
    positions = []
    for v in range(theta.shape.vertices):
        p = list(values[:r])
        for e, sign in _signed_path(theta.shape, root_vertex, v):
            p = [pi + sign * lengths[e] * ci for pi, ci in zip(p, theta.edge_contacts[e])]
        positions.append(tuple(p))
    full = subdivide(TropicalStableMap(theta, tuple(positions), tuple(lengths)))
    cones = full.type.vertex_cones
    nv = theta.shape.vertices
    if any(fan.dim(c) != r for c in cones[:nv]) or any(fan.dim(c) != r - 1 for c in cones[nv:]):
        return "non-generic"
    return full, lattice_index(m)


def _tree_outcome(problem, tree):
    from tropcount.counting import _solve_tree

    try:
        found = _solve_tree(problem, tree)
    except SingularError:
        return "singular"
    except NonGenericError:
        return "non-generic"
    if found is None:
        return "miss"
    return found[1:]


# name -> (problem, trees that are singular, missed and solved)
OUTCOME_PROBLEMS = {
    **{
        f"fallback-{seed}": (lambda seed=seed: _fallback_problem(seed), (869, 75, 1))
        for seed in (1000, 1001, 1002)
    },
    "p3-lines-point-two-lines": (_p3_lines_through_a_point_and_two_lines, (795, 147, 3)),
    # a (2, 0) curve's contacts span one line, so every type is singular
    "p1xp1-2-0-subspace": (_p1xp1_two_zero_through_three_points_and_a_line, (3105, 0, 0)),
}


@pytest.mark.parametrize("name", OUTCOME_PROBLEMS)
def test_each_tree_solves_as_its_type_by_the_former_route(name):
    # the bare tree's rows, labels and edge contacts, and the order-free
    # length rule, give every tree the outcome of its type's reference solve
    from collections import Counter

    make, sizes = OUTCOME_PROBLEMS[name]
    prob = make()
    seen = Counter()
    for tree in count_trees(prob):
        want = _reference_outcome(prob, tree)
        assert _tree_outcome(prob, tree) == want
        seen[want if isinstance(want, str) else "solved"] += 1
    assert (seen["singular"], seen["miss"], seen["solved"]) == sizes, seen


def test_a_negative_length_is_a_miss_in_any_edge_order():
    # a negative length puts the solution outside the closed cone, whatever
    # the other lengths: on seed 1065, trees whose reference solution has a
    # zero and a negative length are misses, in any order of their edges
    from tropcount.counting import _solve_tree, _tree_to_type
    from tropcount.exactmath import solve_rational

    prob = _fallback_problem(1065)
    r = prob.gamma.fan.rank
    rhs = _projected_targets(prob)
    found = 0
    for tree in count_trees(prob):
        got = solve_rational(_reference_evaluation_matrix(_tree_to_type(prob, tree), prob), rhs)
        if got is None or not got[1] or 0 not in got[0][r:] or min(got[0][r:]) >= 0:
            continue
        found += 1
        nv, edges, legs = tree
        for order in (edges, edges[::-1], tuple((b, a) for a, b in edges)):
            assert _solve_tree(prob, (nv, order, legs)) is None
    assert found == 38


# --- rigid-type dedup against its former canonical-form formulation ----------


def _reference_rigid_types(problem):
    """The former dedup: a ``canonical_form(identify_contacts=True)`` of the
    type of every tree of the codimension, in stream order, keeping the first
    type of each key."""
    from tropcount import counting
    from tropcount.moduli import canonical_form, grow_trees

    gamma = problem.gamma
    if counting._searches_skeletons(problem):
        skeletons = counting._skeleton_census(problem.gamma.fan.rank, [c for _, c in gamma.contact_legs])
        trees = counting._marked_dfs(problem, skeletons, sorted(gamma.trivial_legs))
    else:
        trees = grow_trees([(c, lab) for lab, c in counting._census_legs(problem)])
    codim = counting.expected_codimension(problem.gamma.fan, gamma)
    seen = set()
    for tree in trees:
        theta = counting._tree_to_type(problem, tree)
        if problem.gamma.fan.rank + len(theta.shape.edges) != codim:
            continue
        key, _ = canonical_form(theta, identify_contacts=True)
        if key not in seen:
            seen.add(key)
            yield theta


# name -> (problem, number of rigid types)
DEDUP_PROBLEMS = {
    "plane-conics": (lambda: p2_problem(2, 0), 1),
    "plane-cubics": (lambda: p2_problem(3, 0), 66),
    "fallback-1000": (lambda: _fallback_problem(1000), 945),
    # 10,395 trees of the census over all 8 legs give 3,105 types
    "p1xp1-2-0-subspace": (_p1xp1_two_zero_through_three_points_and_a_line, 3105),
    # pairwise distinct contacts, searched with no tree key
    "p3-lines-2pts": (lambda: projective_problem(3, 1, 0), 1),
    "p1-cube-(1,1,1)-3pts": (lambda: p1_cube_problem((1, 1, 1), 0), 5),
}


@pytest.mark.parametrize("name", DEDUP_PROBLEMS)
def test_tree_key_dedup_keeps_the_canonical_form_types(name):
    # legs of equal contact are interchangeable in both keys, and edge
    # contacts follow from leg contacts, so the tree key splits the trees
    # into the classes of canonical_form(identify_contacts=True) and keeps
    # the same first tree of each
    make, size = DEDUP_PROBLEMS[name]
    prob = make()
    got = rigid_types(prob, count_trees(prob))
    assert got == list(_reference_rigid_types(prob))
    assert len(got) == size


@pytest.mark.parametrize("name", ["fallback-1000", "p3-lines-2pts", "p1-cube-(1,1,1)-3pts"])
def test_no_tree_key_is_taken_when_the_contacts_are_distinct(name, monkeypatch):
    # each leg is told apart by its contact or its label, so no two trees share a key
    from tropcount import counting

    prob = DEDUP_PROBLEMS[name][0]()
    census = skeleton_census(prob) if counting._searches_skeletons(prob) else None

    def refuse(tree):
        raise AssertionError("a tree was keyed")

    monkeypatch.setattr(counting, "_tree_key", refuse)
    assert len(list(counting._rigid_trees(prob, census))) == DEDUP_PROBLEMS[name][1]

import dataclasses
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
    enumerate_rigid_types,
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
    return CountProblem(P2, gamma, generate_constraints(gamma, None, seed))


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
    prob = p2_problem(1, 7)
    unpruned = list(enumerate_rigid_types(prob, prune=False))
    assert len(unpruned) == 15  # (2*5-5)!! labeled trivalent trees
    pruned = list(enumerate_rigid_types(prob))
    assert 1 <= len(pruned) <= 15
    pruned_keys = {t.shape.legs for t in pruned}
    assert pruned_keys <= {t.shape.legs for t in unpruned} | pruned_keys


def test_skeleton_census_sizes():
    from tropcount.counting import _skeleton_census

    # stabilized skeletons over the 3d contact legs of plane curves of degree d
    for d, size in ((1, 1), (2, 17), (3, 791)):
        assert len(_skeleton_census(2, [U1] * d + [U2] * d + [U3] * d)) == size


def test_census_bound_sits_at_nine_legs():
    from tropcount.counting import CensusTooLargeError, _census_legs

    # lines through 2 points and s lines: 3 + 2 + s legs
    line = IntMatrix.from_rows([[1], [0]])
    for s in (4, 5):
        gamma = p2_gamma(1, 2 + s)
        subspaces = {lab: line for lab in gamma.trivial_legs[2:]}
        prob = CountProblem(P2, gamma, generate_constraints(gamma, subspaces, 1))
        if s == 4:
            assert len(_census_legs(prob)) == 9
        else:
            with pytest.raises(CensusTooLargeError, match="10 legs"):
                count(prob)


def test_enumerate_p1_single_path_type():
    gamma = DiscreteData(P1, ((1, (1,)), (2, (-1,))), (3,))
    prob = CountProblem(P1, gamma, generate_constraints(gamma, None, 5))
    types = list(enumerate_rigid_types(prob, prune=False))
    assert len(types) == 1
    assert count(prob).total == 1


def test_degree_zero_m3_single_contracted_type():
    gamma = DiscreteData(P2, (), (1, 2, 3))
    subspaces = {1: None, 2: IntMatrix.identity(2), 3: IntMatrix.identity(2)}
    cfg = generate_constraints(gamma, subspaces, 11)
    prob = CountProblem(P2, gamma, cfg)
    types = list(enumerate_rigid_types(prob, prune=False))
    assert len(types) == 1
    res = count(prob)
    assert res.total == 1


def test_evaluation_matrix_point_legs_on_root():
    # both point legs at the single vertex: the matrix stacks two identities
    gamma = p2_gamma(1)
    prob = CountProblem(P2, gamma, generate_constraints(gamma, None, 3))
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
    prob = CountProblem(P2, gamma, generate_constraints(gamma, None, 3))
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


def test_quadric_bidegree_one_one():
    contacts = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))
    totals = set()
    for seed in (0, 1, 2):
        gamma = DiscreteData(P1P1, contacts, (5, 6, 7))
        res = count(CountProblem(P1P1, gamma, generate_constraints(gamma, None, seed)))
        totals.add(res.total)
    assert totals == {1}


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


def test_count_contributions_are_interior_and_on_target():
    prob = p2_problem(2, 0)
    res = count(prob)
    assert res.seed_echo == 0
    assert res.total == sum(c.multiplicity for c in res.contributions)
    for c in res.contributions:
        for label in prob.gamma.trivial_legs:
            ep = ev_trop(c.map, label)
            assert ep.coset == prob.target(label)


def test_nongeneric_seed_detected():
    # seed 2 puts a solved edge length at exactly zero for degree 3; use a
    # cheap handmade collision instead: a target on a wall of the fan
    gamma = p2_gamma(1)
    cfg = generate_constraints(gamma, None, 0)
    from tropcount.counting import Constraint, ConstraintConfig

    bad = ConstraintConfig(
        (
            Constraint(4, None, (Fraction(1), Fraction(0))),  # on the ray u1
            cfg.constraints[1],
        ),
        0,
        32,
    )
    with pytest.raises(NonGenericError):
        count(CountProblem(P2, gamma, bad))


def test_seed_and_thread_determinism():
    prob = p2_problem(2, 1)
    r1 = count(prob, threads=1)
    r2 = count(prob, threads=2)
    r3 = count(prob, threads=1)
    assert r1.total == r2.total == r3.total
    assert [c.key for c in r1.contributions] == [c.key for c in r2.contributions]
    assert [c.key for c in r1.contributions] == [c.key for c in r3.contributions]


def test_subspace_constraint_line_through_two_points():
    # degree 1 with two point constraints and one subtorus-line constraint:
    # the line through the two points is unique and meets the translate once
    gamma = DiscreteData(P2, p2_gamma(1).contact_legs, (4, 5, 6))
    subspaces = {4: None, 5: None, 6: IntMatrix.from_rows([[1], [1]])}
    cfg = generate_constraints(gamma, subspaces, 9)
    prob = CountProblem(P2, gamma, cfg)
    res = count(prob)
    assert res.total == 1


def test_count_requires_marked_point():
    from tropcount.counting import ConstraintConfig

    gamma = DiscreteData(P2, p2_gamma(1).contact_legs, ())
    with pytest.raises(ValueError):
        CountProblem(P2, gamma, ConstraintConfig((), 0, 32))


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
    for k in range(2):
        sign = -1 if v[k] < 0 else 1
        a.append([Fraction(sign * d[k]) for d in dirs])
        b.append(Fraction(sign * v[k]))
    return _phase_one(a, b) is not None


@settings(max_examples=400, deadline=None)
@given(small_vectors, st.lists(small_vectors, max_size=6))
def test_closed_cone_test_matches_lp_feasibility(v, dirs):
    from tropcount.counting import _cone_verdicts

    assert _cone_verdicts(dirs, [v]) == _lp_in_cone(v, dirs)


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
}


@pytest.mark.parametrize("name", sorted(CONE_CASES))
def test_cone_verdicts_named_cases(name):
    # every listed v against the LP, one by one and as one verdict bitset
    from tropcount.counting import _cone_verdicts

    dirs, cases = CONE_CASES[name]
    for v, inside in cases:
        assert _cone_verdicts(dirs, [v]) == inside == _lp_in_cone(v, dirs), v
    assert _cone_verdicts(dirs, [v for v, _ in cases]) == sum(inside << i for i, (_, inside) in enumerate(cases))


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
    from tropcount.counting import _integer_targets
    from tropcount.moduli import forced_edge_contacts, insert_leg

    planar_points = problem.is_point_problem() and problem.fan.rank == 2
    rank = problem.fan.rank
    zero = (0,) * rank
    targets = _integer_targets(problem)
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
        nv, edges, legs = tree
        if planar_points:
            candidates = _reference_end_sites(tree, set(marked_vertex.values()))
        else:
            candidates = [(i, None) for i in range(len(edges))]
            candidates.extend((None, k) for k, (_, c, _) in enumerate(legs) if any(c))
        tj = targets[label]
        geo = {lab_i: _reference_walks(tree, contacts, s) for lab_i, s in marked_vertex.items()}
        for te, tl in candidates:
            if te is not None:
                c = contacts[te]
                grown_contacts = contacts[:te] + contacts[te + 1 :] + (c, c)
            else:
                grown_contacts = contacts + (legs[tl][1],)
            if planar_points:
                ok = True
                for lab_i, walks in geo.items():
                    walk = _reference_site_walk(tree, contacts, te, tl, walks)
                    ti = targets[lab_i]
                    if not lp_in_cone((ti[0] - tj[0], ti[1] - tj[1]), walk):
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
    skeletons = _skeleton_census(problem.fan.rank, [c for _, c in problem.gamma.contact_legs])
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
    prob = CountProblem(P1P1, gamma, generate_constraints(gamma, None, 0))
    assert _assert_dfs_matches_reference(prob)[-1] > 0


def test_marked_dfs_matches_reference_plane_degree_three_head():
    # no tree over these skeletons survives all eight points of seed 0
    nodes = _assert_dfs_matches_reference(p2_problem(3, 0), limit=40)
    assert nodes[0] > 0 and nodes[-1] == 0


def test_marked_dfs_matches_reference_unpruned():
    # points in a rank-3 fan: every site is tried, without pruning
    p3 = fan_projective_space(3)
    contacts = ((1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1)), (4, (-1, -1, -1)))
    gamma = DiscreteData(p3, contacts, (5, 6))
    prob = CountProblem(p3, gamma, generate_constraints(gamma, None, 0))
    assert _assert_dfs_matches_reference(prob)[-1] > 0


def quadric_problem():
    contacts = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))
    gamma = DiscreteData(P1P1, contacts, (5, 6, 7))
    return CountProblem(P1P1, gamma, generate_constraints(gamma, None, 0))


# skeletons 160-209 of the d=3 census: 44 trees over 9 of them survive all
# eight points of seed 0, so a lookahead that drops a completing subtree shows
D3_SLICE = (160, 210)


def test_marked_dfs_matches_reference_plane_degree_three_slice():
    start, stop = D3_SLICE
    nodes = _assert_dfs_matches_reference(p2_problem(3, 0), limit=stop, start=start)
    assert nodes[-1] == 44


def test_marked_dfs_nodes_per_depth_with_lookahead(monkeypatch):
    # every search node is made by one insert_leg call; the reference search,
    # without the lookahead, makes 750 / 3,244 / 5,870 / 5,667 / 3,797 /
    # 1,317 / 304 / 44 (20,993) on the same slice
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
    assert per_depth == [750, 2816, 1714, 706, 626, 223, 272, 44]


# slices on which trees complete for the other d=3 seeds: 8 trees over
# skeletons 128-135 for seed 1, 10 over skeletons 92-99 for seed 3
D3_OTHER_SLICES = {1: ((128, 136), 8), 3: ((92, 100), 10)}


@pytest.mark.parametrize("seed", sorted(D3_OTHER_SLICES))
def test_marked_dfs_matches_reference_plane_degree_three_other_seeds(seed):
    (start, stop), completed = D3_OTHER_SLICES[seed]
    nodes = _assert_dfs_matches_reference(p2_problem(3, seed), limit=stop, start=start)
    assert nodes[-1] == completed


@pytest.mark.parametrize(
    "prob,every",
    [(p2_problem(2, s), 1) for s in range(5)] + [(p2_problem(3, 0), 16), (quadric_problem(), 1)],
    ids=[f"p2-d2-seed{s}" for s in range(5)] + ["p2-d3", "quadric"],
)
def test_site_tables_match_the_marked_tree(prob, every):
    # facts (i)-(iii) of ``_marked_dfs``, on random insertion sequences: at
    # every node the unused skeleton sites sit at their predicted tree
    # indices, the end count offers only them and the static reach gives
    # its verdict, and the static walk mask from each of them to each mark
    # is the mask of the walk in the marked tree
    import random
    from math import gcd

    from tropcount.counting import _end_sites, _site_tables, _skeleton_census
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
                passing = _end_sites(now, len(legs))
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
                now = [r & f for r, f in zip(now, notfar[s])]  # (iii)
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
    monkeypatch.setattr(counting, "_skeleton_key", all_roots_key)
    assert counting._skeleton_census(2, contacts) == centred

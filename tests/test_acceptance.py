"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report.  Every tolerance is exact (integer or rational equality); runtime
budgets are asserted where stated.
"""
import random
import time
from fractions import Fraction

import pytest

from oracles import RankDeficientError, ambient_coordinates, ambient_dim, lattice_index, smith_normal_form
from test_counting import census_trees, type_rows
from tropcount.cli import _emit
from tropcount.counting import (
    CountProblem,
    SingularError,
    _lattice_index,
    _tree_to_type,
    count,
    count_result_to_json,
    generate_constraints,
    kontsevich_oracle,
    mikhalkin_multiplicity,
)
from tropcount.exactmath import IntMatrix, integer_kernel
from tropcount.maps import (
    CombinatorialType,
    DiscreteData,
    TreeShape,
    TropicalStableMap,
    validate,
)
from tropcount.moduli import (
    assemble_complex,
    canonical_form,
    face_types,
    fan_isomorphisms,
    gkm_embedding,
    moduli_cone,
    vertex_positions,
)
from tropcount.polyhedral import Fan, fan_product, fan_projective_space

P2 = fan_projective_space(2)
P1P1 = fan_product(fan_projective_space(1), fan_projective_space(1))
U1, U2, U3 = (1, 0), (0, 1), (-1, -1)
TOY = DiscreteData(P2, ((1, U1), (2, U2), (3, U3)), ())

D3_SEEDS = (0, 1, 3)  # seed 2 draws a degenerate configuration, by design


def ok(criterion, message):
    print(f"[PASS] criterion {criterion}: {message}")


def p2_problem(d, seed):
    contacts = tuple((i + 1, [U1, U2, U3][i // d]) for i in range(3 * d))
    m = 3 * d - 1
    gamma = DiscreteData(P2, contacts, tuple(range(3 * d + 1, 3 * d + 1 + m)))
    return CountProblem(gamma, generate_constraints(gamma, None, seed))


_COUNTS = {}


def plane_count(d, seed):
    """Shared across criteria 3 and 6 so every run is checked exactly once."""
    if (d, seed) not in _COUNTS:
        _COUNTS[(d, seed)] = count(p2_problem(d, seed))
    return _COUNTS[(d, seed)]


def test_criterion_1_toy_complex_f_vector():
    start = time.monotonic()
    cx = assemble_complex(TOY)
    elapsed = time.monotonic() - start
    assert cx.f_vector() == (1, 6, 6)
    assert elapsed < 1.0, f"assembly took {elapsed:.2f}s"
    ok(1, f"toy complex f-vector (1, 6, 6) in {elapsed:.2f}s")


HEXAGON = Fan.make(
    2,
    [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
    [[0, 2], [1, 2], [0, 4], [3, 5], [1, 3], [4, 5]],
)


def test_criterion_2_hexagon_fan():
    start = time.monotonic()
    cx = assemble_complex(TOY)
    emb = gkm_embedding(cx, 1)
    elapsed = time.monotonic() - start
    assert emb.ambient_rank == 2
    g = next(fan_isomorphisms(emb.to_fan(), HEXAGON), None)
    assert g is not None, (sorted(emb.rays()), sorted(HEXAGON.rays))
    assert elapsed < 1.0, f"embedding took {elapsed:.2f}s"
    ok(2, f"embedded toy complex is the six-ray hexagon fan in {elapsed:.2f}s")


def test_criterion_3_correspondence_counts():
    budgets = {1: 10.0, 2: 10.0, 3: 600.0}
    seeds = {1: (7, 8, 9), 2: (0, 1, 3), 3: D3_SEEDS}
    for d in (1, 2, 3):
        expected = kontsevich_oracle(d)
        totals = set()
        start = time.monotonic()
        for seed in seeds[d]:
            totals.add(plane_count(d, seed).total)
        elapsed = time.monotonic() - start
        assert totals == {expected}, (d, totals)
        assert elapsed < 3 * budgets[d], f"degree {d} took {elapsed:.1f}s"
        ok(3, f"degree {d} count = {expected} over seeds {seeds[d]} in {elapsed:.1f}s")


def test_criterion_4_quadric_bidegree_one_one():
    contacts = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))
    totals = set()
    start = time.monotonic()
    for seed in (0, 1, 2):
        gamma = DiscreteData(P1P1, contacts, (5, 6, 7))
        res = count(CountProblem(gamma, generate_constraints(gamma, None, seed)))
        totals.add(res.total)
    elapsed = time.monotonic() - start
    assert totals == {1}
    assert elapsed < 10.0
    ok(4, f"bidegree (1,1) through 3 points = 1 over 3 seeds in {elapsed:.2f}s")


def random_trivalent_type(fan, rng):
    from tropcount.moduli import forced_edge_contacts, labeled_trees

    n_legs = rng.randint(3, 7)
    shape = rng.choice(labeled_trees(list(range(1, n_legs + 1))))
    contacts = {}
    total = [0] * fan.rank
    for lab in range(1, n_legs):
        c = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
        contacts[lab] = c
        total = [a + b for a, b in zip(total, c)]
    contacts[n_legs] = tuple(-x for x in total)
    maximal = fan.maximal_cones()
    return CombinatorialType(
        fan,
        shape,
        tuple(rng.choice(maximal) for _ in range(shape.vertices)),
        tuple(
            forced_edge_contacts(
                shape.vertices, shape.edges, [(v, contacts[lab]) for v, lab in shape.legs], fan.rank
            )
        ),
        (None,) * len(shape.edges),
        tuple(contacts[lab] for _, lab in shape.legs),
        (None,) * len(shape.legs),
    )


def test_criterion_5_dimension_formula():
    rng = random.Random(2024)
    checked = 0
    for fan in (P2, P1P1):
        for _ in range(50):
            theta = random_trivalent_type(fan, rng)
            n_legs = len(theta.shape.legs)
            assert moduli_cone(theta).dimension == fan.rank - 3 + n_legs
            checked += 1
    assert checked == 100
    ok(5, "exact rank equals dim X - 3 + m + n on 100 generic trivalent types")


def det_multiplicity(theta, problem):
    """The count's weight: ``_lattice_index`` of the type's evaluation rows,
    the |last pivot| of their fraction-free elimination, or None if they
    are not rigid."""
    n = problem.gamma.fan.rank + len(theta.shape.edges)
    try:
        return _lattice_index(type_rows(theta, problem), n) or None
    except SingularError:
        return None


def snf_multiplicity(theta, problem):
    """Reference weight: the Smith-normal-form lattice index of the stacked
    evaluations on the moduli span lattice, or None if they are not rigid."""
    mc = moduli_cone(theta)
    r = problem.gamma.fan.rank
    rows = []
    for c in sorted(problem.constraints.constraints, key=lambda c: c.label):
        if c.subspace is None:
            quotient = IntMatrix.identity(r).to_lists()
        else:
            # the rows of a unimodular left factor past the rank vanish on L
            # and span the covectors that do: the quotient lattice, up to a
            # unimodular change, which leaves |det| as it is
            snf = smith_normal_form(c.subspace)
            quotient = snf.left.to_lists()[snf.rank() :]
        v = theta.shape.leg_vertex(c.label)
        for p in quotient:
            row = [0] * ambient_dim(mc)
            row[v * r : (v + 1) * r] = p
            rows.append(row)
    # the span lattice on every vertex position: P·span_basis, for P the map
    # from (root position, lengths)
    lifted = [mc.ambient_point(column) for column in mc.span_basis.transpose().to_lists()]
    m = IntMatrix.from_rows(rows) @ IntMatrix.from_rows(lifted, ambient_dim(mc)).transpose()
    if m.rows != m.cols:
        return None
    try:
        return lattice_index(m)
    except RankDeficientError:
        return None


def test_criterion_6_multiplicity_equivalence():
    checked = 0
    for d in (1, 2, 3):
        seeds = {1: (7, 8, 9), 2: (0, 1, 3), 3: D3_SEEDS}[d]
        for seed in seeds:
            problem = p2_problem(d, seed)
            for c in plane_count(d, seed).contributions:
                assert mikhalkin_multiplicity(c.type) == c.multiplicity
                assert snf_multiplicity(c.type, problem) == c.multiplicity
                assert det_multiplicity(c.type, problem) == c.multiplicity
                checked += 1
    assert checked > 0
    # no vertex formula off planar point conditions: every rigid type of the
    # quadric and of a count with subtorus constraints against the SNF weight
    quadric = DiscreteData(P1P1, ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1))), (5, 6, 7))
    lines = DiscreteData(P2, ((1, U1), (2, U2), (3, U3)), (4, 5, 6, 7))
    subtori = {4: None, 5: None, 6: IntMatrix.from_rows([[1], [1]]), 7: IntMatrix.from_rows([[1], [0]])}
    weights = []
    for gamma, subspaces in ((quadric, None), (lines, subtori)):
        problem = CountProblem(gamma, generate_constraints(gamma, subspaces, 1000))
        # every type of the census over all legs
        for theta in (_tree_to_type(problem, tree) for tree in census_trees(problem)):
            got = det_multiplicity(theta, problem)
            assert got == snf_multiplicity(theta, problem)
            weights.append(got)
    assert any(w is None for w in weights) and any(w is not None for w in weights)
    ok(
        6,
        f"vertex product, |det| and SNF lattice index agree on {checked} contributions; "
        f"|det| and SNF agree on {len(weights)} quadric and subtorus types",
    )


def embed_face_witness(parent, fd):
    # both roots are the vertex of leg 1; a contracted edge gets length 0
    r = parent.type.fan.rank
    lengths = tuple(Fraction(0) if fe is None else Fraction(fd.point[r + fe]) for fe in fd.edge_map)
    positions = vertex_positions(fd.point[:r] + lengths, parent.paths, parent.type.edge_contacts)
    return TropicalStableMap(parent.type, tuple(map(tuple, positions)), lengths)


def test_criterion_7_face_correctness():
    rng = random.Random(77)
    cx = assemble_complex(TOY)
    pool = [cc.type for cc in cx.cones] + [
        random_trivalent_type(P2, rng) for _ in range(40)
    ]
    checked = 0
    for theta in pool:
        parent = moduli_cone(theta)
        for fd in face_types(parent):
            mc = moduli_cone(fd.face)
            assert mc.dimension == parent.dimension - 1
            assert mc.classify(mc.ambient_point(fd.point)) == "interior"
            lifted = embed_face_witness(parent, fd)
            assert parent.classify(ambient_coordinates(lifted)) == "boundary"
            checked += 1
        if checked >= 20:
            break
    assert checked >= 20
    ok(7, f"{checked} faces drop dimension by one and lie on the parent boundary")


def test_criterion_8_exactmath_property_suite():
    rng = random.Random(8128)
    for trial in range(1000):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        )
        snf = smith_normal_form(a)
        assert snf.left @ a @ snf.right == snf.diag
        diag = [d for d in snf.diagonal() if d]
        assert all(d > 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        return sum(
            (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1 :] for r in rows[1:]])
            for j in range(n)
        )

    for trial in range(1000):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = det(rows)
        if d == 0:
            continue
        assert lattice_index(IntMatrix.from_rows(rows)) == abs(d)

    for trial in range(1000):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        )
        k = integer_kernel(a)
        if k.cols:
            assert all(x == 0 for x in (a @ k).entries)
            assert all(d == 1 for d in smith_normal_form(k).diagonal())
    ok(8, "SNF, lattice-index and kernel-saturation properties over 1000 instances each")


def test_criterion_9_validation_mutation_suite():
    zero = P2.cone_index(())
    ray = {u: P2.cone_index((P2.rays.index(u),)) for u in (U1, U2, U3)}
    c12 = P2.cone_index(tuple(sorted((P2.rays.index(U1), P2.rays.index(U2)))))
    c13 = P2.cone_index(tuple(sorted((P2.rays.index(U1), P2.rays.index(U3)))))

    tripod = TropicalStableMap(
        CombinatorialType(
            P2,
            TreeShape(1, (), ((0, 1), (0, 2), (0, 3))),
            (zero,),
            (),
            (),
            (U1, U2, U3),
            (ray[U1], ray[U2], ray[U3]),
        ),
        ((Fraction(0), Fraction(0)),),
        (),
    )
    assert validate(tripod).valid

    unbalanced = TropicalStableMap(
        CombinatorialType(
            P2, tripod.type.shape, (zero,), (), (),
            (U1, U2, (-2, -2)), (ray[U1], ray[U2], ray[U3]),
        ),
        tripod.positions,
        (),
    )
    assert "balancing" in validate(unbalanced).conditions()

    displaced = TropicalStableMap(tripod.type, ((Fraction(-1), Fraction(-2)),), ())
    assert "vertex-in-cone" in validate(displaced).conditions()

    wall = TropicalStableMap(
        CombinatorialType(
            P2,
            TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3))),
            (c12, ray[U1]),
            (U3,),
            (c12,),
            (U1, U2, U3),
            (c12, c12, c13),
        ),
        ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(0))),
        (Fraction(1),),
    )
    assert validate(wall).valid
    negated = TropicalStableMap(wall.type, wall.positions, (Fraction(-1),))
    assert "positive-length" in validate(negated).conditions()

    # contracted component carrying only two special points
    contracted = TropicalStableMap(
        CombinatorialType(
            P2,
            TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (0, 3), (1, 4))),
            (zero, zero),
            ((0, 0),),
            (zero,),
            (U1, U2, U3, (0, 0)),
            (ray[U1], ray[U2], ray[U3], zero),
        ),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        (Fraction(1),),
    )
    assert validate(contracted).conditions() == {"stability"}
    ok(9, "tripod validates; each single mutation is rejected with its condition named")


def test_criterion_10_determinism(tmp_path):
    # the text that cli._emit writes, which reads the contributions one at a time
    problem = p2_problem(2, 1)
    runs = [count(problem, threads=1), count(problem, threads=2), count(problem, threads=1)]
    payloads = set()
    for i, r in enumerate(runs):
        _emit(count_result_to_json(problem, r), str(tmp_path / f"{i}.json"))
        payloads.add((tmp_path / f"{i}.json").read_bytes())
    assert len(payloads) == 1
    keys = [tuple(c.key for c in r.contributions) for r in runs]
    assert len(set(keys)) == 1
    ok(10, "count totals and canonical contribution lists byte-identical across workers and reruns")

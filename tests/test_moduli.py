import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from tropcount import lp, moduli
from tropcount.cli import _emit
from tropcount.exactmath import IntMatrix, lattice_quotient, rank as int_rank, smith_normal_form, solve_rational
from tropcount.maps import CombinatorialType, DiscreteData, InvalidTypeError, TreeShape, TropicalStableMap
from tropcount.moduli import (
    ConeComplex,
    UnsupportedRankError,
    _candidates,
    _type_at,
    assemble_complex,
    canonical_form,
    complex_from_json,
    complex_to_json,
    contains,
    edge_permutation,
    embedding_to_json,
    fan_isomorphisms,
    face_inclusion_matrix,
    face_types,
    forced_edge_contacts,
    gkm_embedding,
    labeled_trees,
    moduli_cone,
    orbit,
    symmetry_group,
    unimodular_equivalent,
    vertex_positions,
)
from tropcount.polyhedral import SCHEMA, Fan, fan_product, fan_projective_space, fan_to_json, locate, point_fan

P2 = fan_projective_space(2)
P1P1 = fan_product(fan_projective_space(1), fan_projective_space(1))
P3 = fan_projective_space(3)
U1, U2, U3 = (1, 0), (0, 1), (-1, -1)
ZERO = P2.cone_index(())
RAY = {u: P2.cone_index((P2.rays.index(u),)) for u in (U1, U2, U3)}
C12 = P2.cone_index(tuple(sorted((P2.rays.index(U1), P2.rays.index(U2)))))
C13 = P2.cone_index(tuple(sorted((P2.rays.index(U1), P2.rays.index(U3)))))

TOY = DiscreteData(P2, ((1, U1), (2, U2), (3, U3)), ())


def root_type():
    return CombinatorialType(
        P2,
        TreeShape(1, (), ((0, 1), (0, 2), (0, 3))),
        (ZERO,),
        (),
        (),
        (U1, U2, U3),
        (RAY[U1], RAY[U2], RAY[U3]),
    )


def wall_type():
    return CombinatorialType(
        P2,
        TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3))),
        (C12, RAY[U1]),
        (U3,),
        (C12,),
        (U1, U2, U3),
        (C12, C12, C13),
    )


def test_moduli_cone_root_type_is_a_point():
    mc = moduli_cone(root_type())
    assert mc.ambient_dim == 2
    assert mc.dimension == 0
    assert mc.relint_witness() == [0, 0]


def test_moduli_cone_wall_type():
    mc = moduli_cone(wall_type())
    assert mc.ambient_dim == 5
    # on (root position, length) the edge equation takes no row: the
    # vertex-on-ray cut is the one row
    assert (mc.constraint_matrix.rows, mc.constraint_matrix.cols) == (1, 3)
    assert int_rank(mc.constraint_matrix) == 1
    assert mc.dimension == 2


def test_moduli_cone_overvalent_unconfined():
    # 4-valent vertex roaming a maximal cone, four ray legs: rank = formula
    shape = TreeShape(1, (), ((0, 1), (0, 2), (0, 3), (0, 4)))
    t = CombinatorialType(
        P2,
        shape,
        (None,),
        (),
        (),
        (U1, U1, (0, 2), (-2, -2)),
        (None, None, None, None),
    )
    mc = moduli_cone(t)
    assert mc.dimension == 2  # = dim X - 3 + 0 + 4 - ov with ov = 1
    # no inequality at all: the cone is its lineality space, the plane
    assert mc.extreme_rays.rank == 0
    assert mc.relint_witness() == [0, 0]
    assert face_types(mc) == []


def test_unconfined_edge_has_a_lineality_space():
    # two roaming vertices: only the edge length is >= 0, so the cone is a
    # half-space with a 2-dimensional lineality space, which the extreme
    # rays leave out; its one facet contracts the edge
    shape = TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3), (1, 4)))
    legs = (U1, U2, U3, (0, 0))
    t = CombinatorialType(
        P2,
        shape,
        (None, None),
        tuple(forced_edge_contacts(2, shape.edges, [(v, c) for (v, _), c in zip(shape.legs, legs)], 2)),
        (None,),
        legs,
        (None,) * 4,
    )
    mc = moduli_cone(t)
    assert (mc.dimension, mc.extreme_rays.rank) == (3, 1)
    span_rows = (IntMatrix.from_rows(mc._inequality_rows()) @ mc.span_basis).to_lists()
    assert lp.strict_point(span_rows, mc.dimension) is not None
    witness = mc.relint_witness()
    assert mc.classify(witness) == "interior"
    [fd] = face_types(mc)
    assert fd.edge_map == (None,) and fd.face.shape.vertices == 1
    face = moduli_cone(fd.face)
    assert face.dimension == 2 and face.classify(face.ambient_point(fd.point)) == "interior"


def random_balanced_type(fan, rng, max_legs=7):
    n_legs = rng.randint(3, max_legs)
    shape = rng.choice(labeled_trees(list(range(1, n_legs + 1))))
    contacts = {}
    total = [0] * fan.rank
    for lab in range(1, n_legs):
        c = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
        contacts[lab] = c
        total = [a + b for a, b in zip(total, c)]
    contacts[n_legs] = tuple(-x for x in total)
    maximal = fan.maximal_cones()
    cones = tuple(rng.choice(maximal) for _ in range(shape.vertices))
    edge_contacts = forced_edge_contacts(
        shape.vertices, shape.edges, [(v, contacts[lab]) for v, lab in shape.legs], fan.rank
    )
    return CombinatorialType(
        fan,
        shape,
        cones,
        tuple(edge_contacts),
        (None,) * len(shape.edges),
        tuple(contacts[lab] for _, lab in shape.legs),
        (None,) * len(shape.legs),
    )


def test_dimension_formula_on_generic_trivalent_types():
    rng = random.Random(41)
    for fan in (P2, P1P1):
        for _ in range(50):
            t = random_balanced_type(fan, rng)
            n_legs = len(t.shape.legs)
            mc = moduli_cone(t)
            assert mc.dimension == fan.rank - 3 + n_legs, t


def test_contains_classification():
    mc = moduli_cone(root_type())
    f = TropicalStableMap(root_type(), ((Fraction(0), Fraction(0)),), ())
    assert contains(mc, f) == "interior"

    wt = wall_type()
    mcw = moduli_cone(wt)
    good = TropicalStableMap(
        wt, ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(0))), (Fraction(1),)
    )
    assert contains(mcw, good) == "interior"
    tight = TropicalStableMap(
        wt, ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))), (Fraction(0),)
    )
    assert contains(mcw, tight) == "boundary"
    off = TropicalStableMap(
        wt, ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))), (Fraction(1),)
    )
    assert contains(mcw, off) == "outside"


def test_face_types_of_wall_type():
    fds = face_types(moduli_cone(wall_type()))
    assert len(fds) == 2
    dims = sorted(moduli_cone(fd.face).dimension for fd in fds)
    assert dims == [1, 1]
    vertex_counts = sorted(fd.face.shape.vertices for fd in fds)
    assert vertex_counts == [1, 2]  # the edge's length and the wall vertex's ray coefficient reach 0


def test_root_type_has_no_faces():
    assert face_types(moduli_cone(root_type())) == []
    # both ends at the origin pin the edge's length to 0: no relative interior
    pinned = CombinatorialType(
        P2,
        TreeShape(2, ((0, 1),), ((0, 1), (0, 2), (1, 3))),
        (ZERO, ZERO),
        (U3,),
        (None,),
        (U1, U2, U3),
        (None, None, None),
    )
    assert face_types(moduli_cone(pinned)) == []


def embed_face_witness(parent, fd):
    """Lift a face's point into the parent's coordinates by its edge map: the
    root position stays, as both roots are the vertex of leg 1, a kept edge
    takes its image's length and a contracted one 0."""
    r = parent.type.fan.rank
    lengths = tuple(Fraction(0) if fe is None else Fraction(fd.point[r + fe]) for fe in fd.edge_map)
    positions = vertex_positions(fd.point[:r] + lengths, parent.paths, parent.type.edge_contacts)
    return TropicalStableMap(parent.type, tuple(map(tuple, positions)), lengths)


def test_faces_are_boundary_strata():
    rng = random.Random(99)
    for fan in (P2, P1P1, P3):
        checked = 0
        candidates = [wall_type()] if fan is P2 else []
        candidates += [random_balanced_type(fan, rng, max_legs=5) for _ in range(30)]
        for t in candidates:
            parent = moduli_cone(t)
            for fd in face_types(parent):
                mc = moduli_cone(fd.face)
                assert mc.dimension == parent.dimension - 1
                assert mc.classify(mc.ambient_point(fd.point)) == "interior"
                lifted = embed_face_witness(parent, fd)
                assert contains(parent, lifted) == "boundary"
                # each parent vertex sits where its face vertex does
                at_face = mc.ambient_point(fd.point)
                for v, w in enumerate(vertex_map_of(parent, mc, fd.edge_map)):
                    assert list(lifted.positions[v]) == at_face[w * fan.rank : w * fan.rank + fan.rank]
                checked += 1
            if checked >= 20:
                break
        assert checked >= 20, fan.name


def test_assemble_complex_toy_f_vector():
    cx = assemble_complex(TOY)
    assert cx.f_vector() == (1, 6, 6)


@pytest.mark.parametrize("trivial", [(), (4,)])
def test_stored_witnesses_are_relative_interior_points(trivial):
    cx = assemble_complex(DiscreteData(P2, TOY.contact_legs, trivial))
    for cc in cx.cones:
        witness = cc.cone.relint_witness()
        x = root_and_lengths(cc.cone, witness)
        assert cc.cone.ambient_point(x) == witness
        assert all(v == 0 for v in cc.cone.constraint_matrix.apply(x))
        for row in cc.cone._inequality_rows():
            assert sum(a * v for a, v in zip(row, x)) > 0


def test_assemble_complex_toy_incidences():
    cx = assemble_complex(TOY)
    zero = [i for i, c in enumerate(cx.cones) if c.cone.dimension == 0]
    ones = [i for i, c in enumerate(cx.cones) if c.cone.dimension == 1]
    twos = [i for i, c in enumerate(cx.cones) if c.cone.dimension == 2]
    assert len(zero) == 1
    # every 1-cone contains the 0-cone
    for i in ones:
        assert cx.faces_of(i) == zero
    # adjacent 2-cones share exactly one 1-cone
    shared = {}
    for i in twos:
        for f in cx.faces_of(i):
            shared.setdefault(f, []).append(i)
    for f, parents in shared.items():
        assert len(parents) == 2
    # Euler count for a complete fan in the plane
    assert 1 - 6 + 6 == 1


def test_assemble_complex_face_maps_are_injective_lattice_maps():
    cx = assemble_complex(TOY)
    for small, big, m in cx.face_maps:
        assert m.rows == cx.cones[big].cone.dimension
        assert m.cols == cx.cones[small].cone.dimension
        assert int_rank(m) == m.cols


def root_and_lengths(cone, ambient):
    """The cone's coordinates (root position, lengths) of an ambient point."""
    r = cone.type.fan.rank
    return [*ambient[cone.root * r : cone.root * r + r], *ambient[r * cone.type.shape.vertices :]]


def solve_columns(a, columns):
    """Per column v, the unique solution of A x = v over QQ, as the columns
    of the result's rows; None if some column has none."""
    out = []
    for v in columns:
        sol = solve_rational(a, [Fraction(x) for x in v])
        if sol is None or not sol[1]:
            return None
        out.append(sol[0])
    return [list(row) for row in zip(*out)] if out else [[] for _ in range(a.cols)]


def face_basis_on_parent(parent, face_cone, edge_map):
    """The columns of iota · face span basis on the parent's (root position,
    lengths): the face's root rows, then for each parent edge the face's row
    of the image edge's length, or zero for a contracted edge."""
    r = parent.type.fan.rank
    rows = [list(face_cone.span_basis.row(i)) for i in range(r)]
    for fe in edge_map:
        rows.append([0] * face_cone.dimension if fe is None else list(face_cone.span_basis.row(r + fe)))
    return [list(col) for col in zip(*rows)]


@pytest.mark.parametrize("trivial", [(4,), (4, 5)], ids=["1-point", "2-points"])
def test_face_maps_match_the_rational_solve(monkeypatch, trivial):
    # every face map of the complex, solved against the parent's Hermite
    # basis by forward substitution, is the solution of
    # span_basis · X = iota · face basis that fraction-free elimination over
    # QQ finds
    integer = moduli.face_inclusion_matrix
    made = []

    def checked(parent, face_cone, edge_map):
        got = integer(parent, face_cone, edge_map)
        want = solve_columns(parent.span_basis, face_basis_on_parent(parent, face_cone, edge_map))
        assert want is not None
        assert got.to_lists() == want
        made.append(got)
        return got

    monkeypatch.setattr(moduli, "face_inclusion_matrix", checked)
    cx = assemble_complex(DiscreteData(P2, TOY.contact_legs, trivial))
    assert {id(m) for _, _, m in cx.face_maps} == {id(m) for m in made}
    assert len(made) == len(cx.face_maps) > 0


def test_face_inclusion_refuses_a_wrong_edge_map():
    theta = wall_type()
    parent = moduli_cone(theta)
    [fd] = [fd for fd in face_types(parent) if fd.edge_map == (0,)]
    face = moduli_cone(fd.face)
    assert face_inclusion_matrix(parent, face, fd.edge_map).to_lists() == [[1], [1]]
    # with its edge sent to length 0, the face's lattice leaves the parent's span
    with pytest.raises(InvalidTypeError):
        face_inclusion_matrix(parent, face, (None,))


def test_assemble_complex_p1():
    P1 = fan_projective_space(1)
    cx = assemble_complex(DiscreteData(P1, ((1, (1,)), (2, (-1,))), ()))
    assert cx.f_vector() == (1, 2)


def test_assemble_complex_degree_zero_is_the_fan():
    cx = assemble_complex(DiscreteData(P2, (), (1, 2, 3)))
    assert cx.f_vector() == (1, 3, 3)


def test_assemble_complex_rejects_high_rank():
    p3 = fan_projective_space(3)
    with pytest.raises(UnsupportedRankError):
        assemble_complex(DiscreteData(p3, (), (1, 2, 3)))


ASSEMBLED = {
    "toy": TOY,
    "p2_1pt": DiscreteData(P2, TOY.contact_legs, (4,)),
    "p2_2pts": DiscreteData(P2, TOY.contact_legs, (4, 5)),
    "p1xp1": DiscreteData(P1P1, ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1))), ()),
}


@pytest.mark.parametrize("name", ASSEMBLED)
def test_candidates_are_valid_nonempty_and_located(name):
    # assembly stores each candidate as it comes: none fails check(), none
    # has an empty cone, and each is the type of the map at its witness
    seen = 0
    for theta in _candidates(ASSEMBLED[name]):
        theta.check()
        mc = moduli_cone(theta)
        witness = mc.relint_witness()
        assert witness is not None
        assert _type_at(mc, root_and_lengths(mc, witness)).face == theta
        seen += 1
    assert seen > 0


@pytest.mark.parametrize("name", ASSEMBLED)
def test_each_face_is_located_at_its_point(monkeypatch, name):
    # a face's vertex cones are read off the coefficients at the facet's
    # witness; locating every vertex position there must give the same cones
    faces = []
    original = moduli.face_types

    def recorded(*args):
        found = original(*args)
        faces.extend(found)
        return found

    monkeypatch.setattr(moduli, "face_types", recorded)
    assemble_complex(ASSEMBLED[name])
    assert faces
    for fd in faces:
        cone = moduli_cone(fd.face)
        r = fd.face.fan.rank
        p = cone.ambient_point(fd.point)
        located = tuple(locate(fd.face.fan, p[v * r : v * r + r]) for v in range(fd.face.shape.vertices))
        assert fd.face.vertex_cones == located


def snf_span_basis(theta):
    """The former span basis, as columns: the SNF kernel of every edge
    equation head - tail - length·contact = 0 and every confined vertex's
    span cuts, on every vertex position and length."""
    fan = theta.fan
    r = fan.rank
    nv = theta.shape.vertices
    ambient = r * nv + len(theta.shape.edges)
    rows = []
    for e, ((a, b), c) in enumerate(zip(theta.shape.edges, theta.edge_contacts)):
        for i in range(r):
            row = [0] * ambient
            row[b * r + i] += 1
            row[a * r + i] -= 1
            row[nv * r + e] = -c[i]
            rows.append(row)
    for v, cone_idx in enumerate(theta.vertex_cones):
        if cone_idx is not None:
            for cut in fan.cone_data(cone_idx).projection:
                row = [0] * ambient
                row[v * r : v * r + r] = cut
                rows.append(row)
    if not rows:
        return [[int(i == j) for i in range(ambient)] for j in range(ambient)]
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    return [list(snf.right.column(j)) for j in range(snf.rank(), ambient)]


def coordinate_columns(cone):
    """The columns of P·span_basis, for P the map from (root position,
    lengths) to every vertex position and length."""
    return [cone.ambient_point(list(cone.span_basis.column(j))) for j in range(cone.dimension)]


def times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def from_columns(columns, nrows):
    return IntMatrix(nrows, len(columns), tuple(x for row in zip(*columns) for x in row))


def vertex_map_of(parent, face_cone, edge_map):
    """Parent vertex -> face vertex, by a walk out from the parent's root,
    which goes to the face's root: across a contracted edge a vertex maps
    where its neighbour does, across a kept one to the face edge's other
    end. Every kept edge's ends must land on the ends of its image."""
    edges = parent.type.shape.edges
    face_edges = face_cone.type.shape.edges
    vertex_map = {parent.root: face_cone.root}
    frontier = [parent.root]
    while frontier:
        u = frontier.pop()
        for e, (a, b) in enumerate(edges):
            if u in (a, b) and (v := b if u == a else a) not in vertex_map:
                if edge_map[e] is None:
                    vertex_map[v] = vertex_map[u]
                else:
                    fa, fb = face_edges[edge_map[e]]
                    assert vertex_map[u] in (fa, fb)
                    vertex_map[v] = fb if vertex_map[u] == fa else fa
                frontier.append(v)
    out = [vertex_map[v] for v in range(parent.type.shape.vertices)]
    for (a, b), fe in zip(edges, edge_map):
        if fe is not None:
            assert {out[a], out[b]} == set(face_edges[fe])
    return out


@pytest.mark.parametrize("name", ASSEMBLED)
def test_bases_and_face_maps_agree_with_the_ambient_snf(monkeypatch, name):
    # the SNF of the former constraint matrix on every vertex position is the
    # oracle. P·H spans the lattice of its basis B, by an integer change U
    # with B·U = P·H and det U = ±1; and the former face map X_old, the
    # solution of B_c·X_old = iota·B_b, satisfies X_old·U_b = U_c·X.
    integer = moduli.face_inclusion_matrix
    made = []

    def recorded(parent, face_cone, edge_map):
        got = integer(parent, face_cone, edge_map)
        made.append((parent, face_cone, edge_map, got))
        return got

    monkeypatch.setattr(moduli, "face_inclusion_matrix", recorded)
    cx = assemble_complex(ASSEMBLED[name])
    snf, change = {}, {}
    for cc in cx.cones:
        # every matrix the cone reduces or solves has r + E columns or rows
        r_plus_e = cx.gamma.fan.rank + len(cc.type.shape.edges)
        assert cc.cone.constraint_matrix.cols == cc.cone.span_basis.rows == r_plus_e
        basis = snf_span_basis(cc.type)
        u = solve_columns(from_columns(basis, cc.cone.ambient_dim), coordinate_columns(cc.cone))
        assert u is not None and len(u) == cc.cone.dimension
        assert all(x.denominator == 1 for row in u for x in row)
        if u:
            assert smith_normal_form(IntMatrix.from_rows([[int(x) for x in row] for row in u])).diagonal() == (1,) * len(u)
        snf[id(cc.cone)], change[id(cc.cone)] = basis, u
    assert len(made) == len(cx.face_maps)
    for parent, face_cone, edge_map, x_new in made:
        vertex_map = vertex_map_of(parent, face_cone, edge_map)
        r = parent.type.fan.rank
        fnv = face_cone.type.shape.vertices
        face_basis = snf[id(face_cone)]
        # iota on every vertex position and length, as rows per parent coordinate
        source = [vertex_map[v] * r + i for v in range(parent.type.shape.vertices) for i in range(r)]
        source += [None if fe is None else fnv * r + fe for fe in edge_map]
        target = [[0 if a is None else col[a] for a in source] for col in face_basis]
        x_old = solve_columns(from_columns(snf[id(parent)], parent.ambient_dim), target)
        assert x_old is not None
        assert times(x_old, change[id(face_cone)]) == times(change[id(parent)], x_new.to_lists())


@pytest.mark.parametrize("name", ASSEMBLED)
def test_one_moduli_cone_per_stored_cone(monkeypatch, name):
    # built from scratch: one stored cone per orbit, its representative, and
    # no empty cone on these complexes; every other cone is transported
    built = counting(monkeypatch, "moduli_cone")
    parents = counting(monkeypatch, "face_types")
    cx = assemble_complex(ASSEMBLED[name])
    assert len(built) == len(set(built)) == len(parents)
    assert set(built) == {cone.type for cone in parents} <= {cc.type for cc in cx.cones}
    if name == "p2_2pts":
        assert len(built) == 74


HEXAGON = Fan.make(
    2,
    [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
    [[0, 2], [1, 2], [0, 4], [3, 5], [1, 3], [4, 5]],
    name="bl3-dual-plane",
)


def test_gkm_embedding_toy_is_the_hexagon_fan():
    cx = assemble_complex(TOY)
    emb = gkm_embedding(cx, 1)
    assert emb.ambient_rank == 2
    assert emb.rays() == sorted(map(tuple, HEXAGON.rays))
    g = unimodular_equivalent(emb.to_fan(), HEXAGON)
    assert g is not None


def test_gkm_embedding_moves_by_one_change_of_quotient_coordinates(monkeypatch):
    # the former quotient was the rows past the rank of the SNF's left
    # factor of the translation map; the Hermite quotient is U times it for
    # one unimodular U, so every lattice map and ray image moves by diag(I, U)
    cx = assemble_complex(ASSEMBLED["p2_1pt"])
    new = gkm_embedding(cx, 1)
    quotients = []

    def snf_quotient(phi):
        snf = smith_normal_form(phi)
        old = IntMatrix.from_rows(snf.left.to_lists()[snf.rank() :], phi.rows)
        quotients.append((old, lattice_quotient(phi)))
        return old

    monkeypatch.setattr(moduli, "lattice_quotient", snf_quotient)
    old = gkm_embedding(cx, 1)
    [(q_old, q_new)] = quotients
    assert q_old != q_new and q_new.rows == 2
    u = solve_columns(q_old.transpose(), [q_new.row(i) for i in range(q_new.rows)])
    assert u is not None and all(x.denominator == 1 for row in u for x in row)
    u = [[int(x) for x in row] for row in zip(*u)]  # U·q_old = q_new
    assert smith_normal_form(IntMatrix.from_rows(u)).diagonal() == (1, 1)
    r = P2.rank
    change = IntMatrix.from_rows(
        [[int(i == j) for j in range(r + 2)] for i in range(r)] + [[0] * r + row for row in u]
    )
    assert new.ambient_rank == old.ambient_rank == r + 2
    assert new.lattice_maps == tuple(change @ m for m in old.lattice_maps)
    assert new.cone_images == tuple(tuple(tuple(change.apply(g)) for g in gens) for gens in old.cone_images)


def test_gkm_embedding_injective_per_cone():
    cx = assemble_complex(TOY)
    emb = gkm_embedding(cx, 1)
    for cc, m in zip(cx.cones, emb.lattice_maps):
        got = int_rank(m) if m.entries else 0
        assert got == cc.cone.dimension


def test_gkm_embedding_disjoint_maximal_interiors():
    cx = assemble_complex(TOY)
    emb = gkm_embedding(cx, 1)
    fan = emb.to_fan()
    seen = set()
    for cc, m in zip(cx.cones, emb.lattice_maps):
        if cc.cone.dimension != 2:
            continue
        # image of the witness is interior to exactly one image cone, by a
        # solve of span_basis · y = (root position, lengths) of the test's own
        from tropcount.polyhedral import locate

        sol = solve_rational(cc.cone.span_basis, root_and_lengths(cc.cone, cc.cone.relint_witness()))
        img = m.apply(list(sol[0]))
        idx = locate(fan, img)
        assert fan.dim(idx) == 2
        assert idx not in seen
        seen.add(idx)
    assert len(seen) == 6


def test_complex_json_round_trip_refuses_a_basis_it_did_not_rebuild(tmp_path):
    cx = assemble_complex(ASSEMBLED["p2_1pt"])
    out = tmp_path / "cx.json"
    _emit(complex_to_json(cx), str(out))
    data = json.loads(out.read_text())
    again = complex_from_json(data)
    assert [cc.cone.span_basis for cc in again.cones] == [cc.cone.span_basis for cc in cx.cones]
    assert again.face_maps == cx.face_maps
    # the face maps are written on the stored bases, so a file whose bases
    # differ from the rebuilt ones would load its maps in the wrong basis
    cones = data["cones"]
    i, j = next((i, j) for i in range(len(cones)) for j in range(i)
                if cones[i]["dimension"] == cones[j]["dimension"] and cones[i]["span_basis"] != cones[j]["span_basis"])
    cones[i]["span_basis"], cones[j]["span_basis"] = cones[j]["span_basis"], cones[i]["span_basis"]
    with pytest.raises(ValueError, match="span basis"):
        complex_from_json(data)


def test_gkm_embedding_point_target():
    pt = point_fan()
    cx = assemble_complex(DiscreteData(pt, (), (1, 2, 3)))
    assert cx.f_vector() == (1,)
    emb = gkm_embedding(cx, 1)
    assert emb.ambient_rank == 0


def test_unimodular_equivalent_negative():
    other = Fan.make(
        2,
        [[1, 0], [0, 1], [1, 2], [-1, 0], [0, -1], [-1, -2]],
        [[0, 2], [1, 2], [1, 3], [3, 5], [4, 5], [0, 4]],
    )
    assert unimodular_equivalent(other, HEXAGON) is None
    assert unimodular_equivalent(HEXAGON, HEXAGON) is not None


def test_canonical_form_invariant_under_relabeling():
    t = wall_type()
    # same type with the two vertices swapped
    swapped = CombinatorialType(
        P2,
        TreeShape(2, ((0, 1),), ((1, 1), (1, 2), (0, 3))),
        (RAY[U1], C12),
        (tuple(-x for x in U3),),
        (C12,),
        (U1, U2, U3),
        (C12, C12, C13),
    )
    assert canonical_form(t)[0] == canonical_form(swapped)[0]


def _rooted_form_with_orders(vertices, edges, vertex_tokens, edge_tokens, roots=None):
    """``rooted_form`` as one recursion that builds every root's vertex order
    alongside its serialization, the oracle of the form that serializes each
    branch once and reads one order off the least serialization."""
    adj = [[] for _ in range(vertices)]
    for i, (a, b) in enumerate(edges):
        adj[a].append((i, b, 0))
        adj[b].append((i, a, 1))

    def serialize(v, come_from):
        children = []
        for i, w, side in adj[v]:
            if i != come_from:
                child_ser, child_order = serialize(w, i)
                children.append((edge_tokens[i][side] + (child_ser,), child_order))
        children.sort(key=lambda t: t[0])
        order = [v]
        for _, child_order in children:
            order.extend(child_order)
        return vertex_tokens[v] + (tuple(c[0] for c in children),), order

    best = None
    for root in range(vertices) if roots is None else roots:
        ser, order = serialize(root, -1)
        if best is None or ser < best:
            best, best_order = ser, order
    return best, best_order


def test_rooted_form_matches_every_root_ordered():
    # few token values make many equal branches and equal roots, so the order
    # of equal children and the tie between roots (the first least) both count
    rng = random.Random(24)
    for _ in range(3000):
        nv = rng.randrange(1, 12)
        labels = list(range(nv))
        rng.shuffle(labels)
        edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, nv)]
        rng.shuffle(edges)
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        k = rng.choice([1, 2, 3])
        vertex_tokens = [(rng.randrange(k),) for _ in range(nv)]
        if rng.random() < 0.5:
            edge_tokens = [((), ())] * len(edges)
        else:
            edge_tokens = [((rng.randrange(k),), (rng.randrange(k),)) for _ in edges]
        roots = None if rng.random() < 0.5 else rng.sample(range(nv), rng.randrange(1, nv + 1))
        args = (nv, edges, vertex_tokens, edge_tokens, roots)
        assert moduli.rooted_form(*args) == _rooted_form_with_orders(*args), args


def test_labeled_trees_census_sizes():
    # (2n - 5)!! trivalent trees with n labelled legs
    for n, size in zip(range(3, 9), (1, 3, 15, 105, 945, 10395)):
        assert len(labeled_trees(list(range(1, n + 1)))) == size


P1 = fan_projective_space(1)
# no two rays form a lattice basis (each pair has determinant ±3), though
# a rotation of order 3 in GL_2(ZZ) permutes them
NO_BASIS = Fan.make(2, [[2, 1], [-1, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]])


@pytest.mark.parametrize("fan,count", [
    (point_fan(), 1), (P1, 2), (P2, 6), (P1P1, 8), (HEXAGON, 12), (NO_BASIS, 0),
], ids=["point", "p1", "p2", "p1xp1", "hexagon", "no-basis"])
def test_fan_isomorphisms_are_the_lattice_automorphisms(fan, count):
    found = list(fan_isomorphisms(fan, fan))
    assert len(found) == len({m for m, _ in found}) == count
    for m, perm in found:
        assert [tuple(m.apply(ray)) for ray in fan.rays] == [fan.rays[i] for i in perm]
        assert {tuple(sorted(perm[i] for i in cone)) for cone in fan.cones} == set(fan.cones)
    if fan.rank == 2:
        assert unimodular_equivalent(fan, fan) == (found[0][0] if found else None)


def test_symmetry_group_is_a_group_acting_on_types():
    gamma = ASSEMBLED["p2_2pts"]
    group = symmetry_group(gamma)
    identity = group.elements[0]
    assert identity.matrix == IntMatrix.identity(2) and identity.labels == tuple(range(6))
    n = len(group.elements)
    types = [cc.type for cc in assemble_complex(gamma).cones[::50]]
    for h in range(n):
        assert sorted(group.compose(h, g) for g in range(n)) == list(range(n))
        assert group.compose(h, group.inverse(h)) == group.compose(group.inverse(h), h) == 0
        for g in range(n):
            for theta in types:
                assert group.act(h, group.act(g, theta)) == group.act(group.compose(h, g), theta)
    # a fan whose rays hold no lattice basis keeps the identity matrix alone
    lonely = symmetry_group(DiscreteData(NO_BASIS, (), (1, 2, 3)))
    assert {g.matrix for g in lonely.elements} == {IntMatrix.identity(2)}
    assert len(lonely.elements) == 6


# |G| and the number of orbits, which is the number of face_types calls;
# the last three have no contacts, so their legs permute freely and most
# cones have large stabilizers
SYMMETRIC = {
    "toy": (TOY, 6, 4),
    "p2_1pt": (ASSEMBLED["p2_1pt"], 6, 16),
    "p2_2pts": (ASSEMBLED["p2_2pts"], 12, 74),
    "p1xp1": (ASSEMBLED["p1xp1"], 8, 16),
    "p1_2pts": (DiscreteData(P1, ((1, (1,)), (2, (-1,))), (3, 4)), 4, 7),
    "point": (DiscreteData(point_fan(), (), (1, 2, 3)), 6, 1),
    "point_6": (DiscreteData(point_fan(), (), (1, 2, 3, 4, 5, 6)), 720, 7),
    "p2_4pts": (DiscreteData(P2, (), (1, 2, 3, 4)), 144, 6),
}


def materialized(data: dict) -> dict:
    """A builder's JSON data with each one-shot iterator made a list."""
    return {key: list(value) if hasattr(value, "__next__") else value for key, value in data.items()}


def one_shot_dump(data: dict) -> str:
    """The writer that ``cli._emit`` streams: one json.dumps of the whole output."""
    return json.dumps(materialized(data), sort_keys=True, separators=(",", ":")) + "\n"


# every assembled complex, the point complex (no faces: an empty array) and
# one embedding
@pytest.mark.parametrize("name", [*ASSEMBLED, "point", "p2_2pts_embedding"])
def test_streamed_output_is_the_one_shot_dump(tmp_path, capsys, name):
    cx = assemble_complex(SYMMETRIC["point"][0] if name == "point" else ASSEMBLED[name.removesuffix("_embedding")])
    if name.endswith("_embedding"):
        build, built = embedding_to_json, gkm_embedding(cx, 1)
    else:
        build, built = complex_to_json, cx
    # compared as bytes: pytest reports the first differing index, where its
    # diff of two one-line strings this long would take minutes
    expected = one_shot_dump(build(built)).encode()
    assert (b'"faces":[]' in expected) == (name == "point")
    out = tmp_path / "out.json"
    _emit(build(built), str(out))
    assert out.read_bytes() == expected
    _emit(build(built), None)
    assert capsys.readouterr().out.encode() == expected


# outputs with no iterator, as fan and validate write them: nested values,
# keys out of order, an empty list and a string that json.dumps escapes
@pytest.mark.parametrize("data", [
    fan_to_json(P2),
    {"valid": False, "schema": SCHEMA, "kind": "validation", "violations": [
        {"detail": "vertex \"v₀\" is not balanced", "condition": "balancing"}]},
    {"kind": "validation", "valid": True, "violations": []},
])
def test_plain_output_is_the_one_shot_dump(tmp_path, capsys, data):
    expected = one_shot_dump(data).encode()
    out = tmp_path / "out.json"
    _emit(data, str(out))
    assert out.read_bytes() == expected
    _emit(data, None)
    assert capsys.readouterr().out.encode() == expected


def test_writing_a_complex_holds_no_whole_output(tmp_path):
    # fails if the writer builds the whole dict of lists or the whole string
    # again: streamed, p2_2pts peaks at tens of KB; built whole, at MBs
    cx = assemble_complex(ASSEMBLED["p2_2pts"])

    def peak(write) -> int:
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: _emit(complex_to_json(cx), str(tmp_path / "cx.json")))
    whole = peak(lambda: one_shot_dump(complex_to_json(cx)))
    assert streamed * 10 < whole, (streamed, whole)


def identity_group(monkeypatch):
    """Make assembly see G = {id}: every cone is then its own orbit, and its
    rays, witness and faces are computed directly."""
    monkeypatch.setattr(moduli, "symmetry_group", lambda gamma: moduli.SymmetryGroup(symmetry_group(gamma).elements[:1]))


def counting(monkeypatch, name: str) -> list:
    """Count the calls of a moduli function, as assembly makes them."""
    calls = []
    original = getattr(moduli, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(moduli, name, counted)
    return calls


@pytest.mark.parametrize("name", SYMMETRIC)
def test_assembly_per_orbit_writes_the_complex_of_the_identity_group(monkeypatch, capsys, name):
    gamma, order, orbits = SYMMETRIC[name]
    assert len(symmetry_group(gamma).elements) == order
    parents = counting(monkeypatch, "face_types")
    forms = counting(monkeypatch, "canonical_form")

    def written():
        parents.clear()
        forms.clear()
        cx = assemble_complex(gamma)
        _emit(complex_to_json(cx), None)
        return len(cx.cones), capsys.readouterr().out

    cones, per_orbit = written()
    assert len(parents) == orbits
    orbit_forms = len(forms)
    identity_group(monkeypatch)
    assert written() == (cones, per_orbit)
    assert len(parents) == cones
    # one canonical form per image and per face of a representative, and
    # at most log2 |Stab| more per orbit: never many more than cone by cone
    assert orbit_forms <= len(forms) + 2 * orbits


@pytest.mark.parametrize("name", SYMMETRIC)
def test_transported_cones_are_the_cones_built_from_scratch(name):
    # the checks that assembly runs on representatives only, on every cone
    for cc in assemble_complex(SYMMETRIC[name][0]).cones:
        cc.type.check()
        assert moduli_cone(cc.type) == cc.cone
        assert cc.cone.classify(cc.cone.relint_witness()) == "interior"


@pytest.mark.parametrize("name", ["p2_2pts", "p1_2pts", "point_6"])
def test_an_orbit_reads_every_element_off_its_cosets(monkeypatch, name):
    gamma = SYMMETRIC[name][0]
    group = symmetry_group(gamma)
    n = len(group.elements)
    cones = assemble_complex(gamma).cones
    forms = counting(monkeypatch, "canonical_form")
    for cc in cones[:: max(1, len(cones) // 12)]:
        forms.clear()
        found = orbit(group, cc.type)
        assert len(found.images) * len(found.stabilizer) == n
        assert len(found.images) <= len(forms) <= len(found.images) + math.log2(len(found.stabilizer))
        assert found.images[0][:2] == (0, cc.key)
        for k in range(n):
            key, relabel = canonical_form(group.act(k, cc.type))
            assert found.at(k) == (key, edge_permutation(cc.type.shape, relabel))


@pytest.mark.parametrize("name", [name for name, (_, order, _) in SYMMETRIC.items() if order <= 144])
def test_the_group_maps_every_stored_key_to_a_stored_key(monkeypatch, name):
    # on the complex assembled cone by cone, with no transport: the property
    # that lets assembly store a whole orbit from one representative
    gamma = SYMMETRIC[name][0]
    group = symmetry_group(gamma)
    identity_group(monkeypatch)
    cx = assemble_complex(gamma)
    keys = {cc.key for cc in cx.cones}
    for g in range(len(group.elements)):
        assert {canonical_form(group.act(g, cc.type))[0] for cc in cx.cones} == keys


@pytest.mark.slow
def test_plane_lines_through_four_points_assemble():
    # |G| = 144: the lines' S_3 on the fan times S_4 on the points
    cx = assemble_complex(DiscreteData(P2, TOY.contact_legs, (4, 5, 6, 7)))
    assert cx.f_vector() == (1, 107, 1732, 9846, 24675, 27855, 11520)
    assert len(cx.cones) == 75736

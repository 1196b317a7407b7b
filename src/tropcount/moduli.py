"""Moduli cones of combinatorial types and the glued cone complex.

A type's moduli cone lives on (position of the root, length of every
internal edge), the coordinates of ``counting.evaluation_matrix``: the
root is the vertex of leg 1, which no contraction removes, and a vertex
sits at the root plus sign·length·contact over the edges of its path
from it. A confined vertex's span cuts pos_v in span(cone_v) are
integral rows on these r + E coordinates, and the cone is carved out of
their kernel lattice by the ray-coefficient and length inequalities; its
span basis is the kernel's Hermite basis, which depends on the lattice
alone. Dimensions are exact ranks, never the generic formula.
``contains`` and ``classify`` still read every vertex position.

Faces come from the same inequalities. An exact double description over
the integers finds each cone's extreme rays once; their sum is the
cone's relative-interior witness, a facet is an inequality whose zero
rays are inclusion-maximal, the sum of those rays is the facet's
witness, and the face's type is the type of the map there, read by the
rule that reads a relative-interior point. A face map is the coordinate
map (root to root, a kept edge to its image, a contracted edge to 0), so
it needs only the edge map. All of it is integer arithmetic, with no LP.

Assembly works once per orbit of the group G of ``symmetry_group``: the
lattice automorphisms of the fan, each with the leg relabelings that carry
every contact along. Per orbit, for its representative only, come the
moduli cone with its ``CombinatorialType.check``, the rays, the witness
with its ``classify`` assert, the face types and the orbit (``orbit``: a
canonical form per coset of the stabilizer, and a few more while it is
found); an orbit of empty cones is found once, then skipped. Each other
cone g·rep gets the canonical form of g·rep for the first g of its coset,
the Hermite basis of its own span cuts' kernel, asserted of rep's
dimension, and the face maps, whose edge maps are composed through the
canonical edge relabelings and each solved by ``face_inclusion_matrix``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .curves import TreeShape
from .exactmath import (
    IntMatrix,
    clear_denominators,
    fraction_free_rref,
    hermite_solve,
    integer_kernel,
    lattice_quotient,
    primitive_vector,
)
from .maps import (
    CombinatorialType,
    DiscreteData,
    InvalidTypeError,
    TropicalStableMap,
    Vector,
    oriented,
    threaded,
)
from .polyhedral import Fan, locate


class UnsupportedRankError(ValueError):
    """Complex assembly is only implemented for fans of rank <= 2."""


class NotAssembledError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


# --- moduli cones ----------------------------------------------------------


def _ray_sum(rays: Sequence[Sequence[int]], dim: int) -> list[int]:
    return [sum(ray[c] for ray in rays) for c in range(dim)]


class ConeRays(NamedTuple):
    """The cone {y in QQ^dim : row·y >= 0 for every row}, by its extreme rays.

    ``normals`` are the rows up to positive multiples, primitive, in order
    of first appearance, and ``rank`` is their rank. The cone is its
    pointed part plus the lineality space where every normal vanishes.
    ``rays`` are the primitive extreme rays of the pointed part, and bit j
    of ``tight[i]`` is set when normal j vanishes on ray i. ``lineality``
    is a basis of primitive vectors of the lineality space, dim - rank of
    them.
    """

    # a named tuple: building a frozen dataclass costs about 1 ms at every
    # start of the program
    dim: int
    normals: tuple[tuple[int, ...], ...]
    rank: int
    rays: tuple[tuple[int, ...], ...]
    tight: tuple[int, ...]
    lineality: tuple[tuple[int, ...], ...]

    def interior_point(self) -> Optional[list[int]]:
        """The sum of the rays, strict on every normal; None when some normal
        vanishes on every ray, and so on the whole cone."""
        everywhere = (1 << len(self.normals)) - 1
        for t in self.tight:
            everywhere &= t
        return None if everywhere else _ray_sum(self.rays, self.dim)

    def cut(self, row: Sequence[int]) -> ConeRays:
        """The cone cut by one more row, in the span of the normals and
        negative on some ray: one ``_dd_step``, as ``cone_rays`` takes for
        each row past the first independent ones. Such a row vanishes on the
        lineality space, so the rank and the lineality stay, and it is no
        positive multiple of a normal, so its normal is new."""
        g = gcd(*row)
        values = [sum(map(mul, row, ray)) for ray in self.rays]
        rays, tight = _dd_step(self.rays, self.tight, values, 1 << len(self.normals), self.rank)
        return self._replace(
            normals=(*self.normals, tuple(x // g for x in row)),
            rays=tuple(rays),
            tight=tuple(tight),
        )

    def facets(self) -> list[tuple[int, list[int]]]:
        """(normal index, relative-interior point) of each facet, in normal order.

        Every face is where some normals vanish, and is the cone on the rays
        there. So a normal is a facet's when the set of rays it vanishes on
        is inclusion-maximal among the normals' sets; each set is a bitset
        over the rays. The sum of a facet's rays is strict on every other
        normal, which would otherwise vanish on the facet's hyperplane and so
        be a positive multiple of this one. A cone with no interior point has
        no facets here.
        """
        if self.interior_point() is None:
            return []
        zero = [sum(1 << i for i, t in enumerate(self.tight) if t >> j & 1) for j in range(len(self.normals))]
        return [
            (j, _ray_sum([ray for i, ray in enumerate(self.rays) if z >> i & 1], self.dim))
            for j, z in enumerate(zero)
            if not any(z & w == z != w for w in zero)
        ]


def cone_rays(rows: Sequence[Sequence[int]], dim: int) -> Optional[ConeRays]:
    """Extreme rays of {y in QQ^dim : row·y >= 0}, or None when a row is zero.

    A double description over the integers (Fukuda and Prodon, *Double
    description method revisited*, 1996). The first independent normals
    cut out a simplicial cone. Its rays are the columns of their inverse on
    the first columns independent on them; the other coordinates stay 0,
    which drops the lineality space and leaves the pointed part. The same
    elimination gives the lineality space: per free column f, the kernel
    vector that is d at f and minus column f of the reduced rows at the
    pivots. Each further normal cuts the rays by one ``_dd_step``.
    """
    primitive = []
    for row in rows:
        g = gcd(*row)
        if g == 0:
            return None
        primitive.append(tuple(x // g for x in row))
    normals = list(dict.fromkeys(primitive))
    basis, _ = fraction_free_rref([list(col) for col in zip(*normals)], len(normals))
    k = len(basis)
    # Gauss-Jordan on (A | I) leaves d times A_P^-1 in the right block, for
    # A_P the columns of A at the pivots P
    top = [list(normals[i]) + [int(s == t) for t in range(k)] for s, i in enumerate(basis)]
    cols, d = fraction_free_rref(top, dim)
    sign = 1 if d > 0 else -1
    start = sum(1 << i for i in basis)
    rays = [primitive_vector([sign * top[t][dim + s] for t in range(k)]) for s in range(k)]
    lineality = []
    for f in sorted(set(range(dim)).difference(cols)):
        y = [0] * dim
        y[f] = sign * d
        for c, row in zip(cols, top):
            y[c] = -sign * row[f]
        lineality.append(primitive_vector(y))
    tight = [start & ~(1 << i) for i in basis]
    for i, h in enumerate(normals):
        if not start >> i & 1:
            a = [h[c] for c in cols]
            rays, tight = _dd_step(rays, tight, [sum(map(mul, a, ray)) for ray in rays], 1 << i, k)
    padded = []
    for ray in rays:
        y = [0] * dim
        for c, x in zip(cols, ray):
            y[c] = x
        padded.append(tuple(y))
    return ConeRays(dim, tuple(normals), k, tuple(padded), tuple(tight), tuple(lineality))


def _dd_step(rays: list, tight: list[int], values: list[int], bit: int, rank: int) -> tuple[list, list[int]]:
    """One double-description step: the rays and tight bitsets of a pointed
    cone of the given rank cut by one more normal, of the given values on the
    rays and the given bit. It keeps the rays where the normal is >= 0 and
    adds, for each adjacent pair on opposite sides of its hyperplane, the
    primitive point of their segment on it. Two rays are adjacent when the
    normals zero on both have at least rank - 2 members and no third ray is
    zero on all of them (the combinatorial test, exact on the minimal ray set
    that every step keeps)."""
    next_rays = [ray for ray, v in zip(rays, values) if v >= 0]
    next_tight = [t | bit if v == 0 else t for t, v in zip(tight, values) if v >= 0]
    for p, vp in enumerate(values):
        if vp <= 0:
            continue
        for n, vn in enumerate(values):
            if vn >= 0:
                continue
            common = tight[p] & tight[n]
            if common.bit_count() < rank - 2 or any(
                t & common == common for q, t in enumerate(tight) if q != p and q != n
            ):
                continue
            next_rays.append(primitive_vector([vp * y - vn * x for x, y in zip(rays[p], rays[n])]))
            next_tight.append(common | bit)
    return next_rays, next_tight


def position_row(covector: Sequence[int], path, contacts) -> list[int]:
    """The row on (root position, lengths) of covector·(a vertex's position),
    for the vertex's signed path from the root: covector·(sign·contact) at
    each of its edges."""
    r = len(covector)
    row = list(covector) + [0] * len(contacts)
    for e, sign in path:
        row[r + e] = sign * sum(map(mul, covector, contacts[e]))
    return row


def vertex_positions(x: Sequence, paths, contacts) -> list[list]:
    """Each vertex's position at x = (root position, lengths): the root plus
    sign·length·contact over the edges of its signed path from the root."""
    r = len(x) - len(contacts)
    out = []
    for path in paths:
        p = list(x[:r])
        for e, sign in path:
            p = [a + sign * x[r + e] * c for a, c in zip(p, contacts[e])]
        out.append(p)
    return out


@dataclass(frozen=True)
class ModuliCone:
    """The cone of maps with a fixed combinatorial type, with integral structure.

    Its coordinates are (position of ``root``, edge lengths), and ``paths``
    are the signed paths from the root. ``constraint_matrix`` holds the
    confined vertices' span cuts on those coordinates, and the columns of
    ``span_basis`` are the Hermite basis of its kernel.
    """

    type: CombinatorialType
    root: int
    paths: tuple[tuple[tuple[int, int], ...], ...]
    constraint_matrix: IntMatrix
    span_basis: IntMatrix
    dimension: int

    @property
    def ambient_dim(self) -> int:
        """The number of ambient coordinates: every vertex position, then the lengths."""
        return self.type.fan.rank * self.type.shape.vertices + len(self.type.shape.edges)

    def ambient_coordinates(self, f: TropicalStableMap) -> list[Fraction]:
        if f.type.shape.edges != self.type.shape.edges or f.type.shape.legs != self.type.shape.legs:
            raise ShapeMismatchError("map shape does not match the type")
        return [Fraction(x) for p in f.positions for x in p] + [Fraction(l) for l in f.lengths]

    def ambient_point(self, x: Sequence) -> list:
        """Ambient coordinates of the point x = (root position, lengths)."""
        positions = vertex_positions(x, self.paths, self.type.edge_contacts)
        return [c for p in positions for c in p] + list(x[self.type.fan.rank :])

    def classify(self, coords: Sequence[Fraction]) -> str:
        """Classify ambient coordinates exactly: 'interior', 'boundary' or 'outside'."""
        # every test below reads signs, which clearing denominators keeps
        coords, _ = clear_denominators(coords)
        r = self.type.fan.rank
        x = coords[self.root * r : self.root * r + r] + coords[r * self.type.shape.vertices :]
        values = [sum(a * y for a, y in zip(row, x)) for row in self._inequality_rows()]
        # off an edge equation, off a vertex cone's span, or past an inequality
        if self.ambient_point(x) != coords or any(self.constraint_matrix.apply(x)) or min(values, default=0) < 0:
            return "outside"
        return "boundary" if 0 in values else "interior"

    def _inequality_rows(self) -> list[list[int]]:
        """Inequalities as integer rows on (root position, lengths), valid on the span.

        First each confined vertex's rows, in vertex order, from its cone's
        ``ConeData``: adj(G)·Rᵀ gives det G > 0 times the ray coefficients
        of any point of span(cone). Then one row per length.
        """
        fan = self.type.fan
        contacts = self.type.edge_contacts
        rows = [
            position_row(lam, path, contacts)
            for cone_idx, path in zip(self.type.vertex_cones, self.paths)
            if cone_idx is not None
            for lam in fan.cone_data(cone_idx).coefficients
        ]
        n = self.span_basis.rows
        return rows + [[int(i == e) for i in range(n)] for e in range(fan.rank, n)]

    @cached_property
    def extreme_rays(self) -> Optional[ConeRays]:
        """The cone on span coordinates (the inequality rows times the span
        basis) by its extreme rays, found once per cone; None when an
        inequality vanishes on the whole span."""
        rows = self._inequality_rows()
        a = IntMatrix.from_rows(rows, self.span_basis.rows)
        return cone_rays((a @ self.span_basis).to_lists(), self.dimension)

    def relint_witness(self) -> Optional[list[int]]:
        """The ambient coordinates of the sum of the extreme rays, an integer
        point with every inequality strict; None when no point of the cone is."""
        rays = self.extreme_rays
        y = None if rays is None else rays.interior_point()
        return None if y is None else self.ambient_point(self.span_basis.apply(y))


def _unchecked_cone(theta: CombinatorialType) -> ModuliCone:
    """A type's moduli cone, with no ``check``: its span cuts on (root
    position, lengths) and their kernel's Hermite basis. Integer root and
    lengths give integer positions, and back, so the edge equations take no
    rows. Per confined vertex, the integral projection killing
    span(cone_v), read at the vertex's position, gives the rows."""
    fan = theta.fan
    shape = theta.shape
    # the vertex of the least leg label, which no contraction removes
    root = shape.leg_vertex(1) if shape.legs else 0
    paths = tuple(tuple(path) for path in TreeShape.signed_paths(shape.vertices, shape.edges, root))
    rows = [
        position_row(cut, path, theta.edge_contacts)
        for cone_idx, path in zip(theta.vertex_cones, paths)
        if cone_idx is not None
        for cut in fan.cone_data(cone_idx).projection
    ]
    matrix = IntMatrix.from_rows(rows, fan.rank + len(theta.shape.edges))
    basis = integer_kernel(matrix)
    return ModuliCone(theta, root, paths, matrix, basis, basis.cols)


def moduli_cone(theta: CombinatorialType) -> ModuliCone:
    """A checked type's moduli cone: its span cuts and their kernel's Hermite basis."""
    theta.check()
    return _unchecked_cone(theta)


def contains(cone: ModuliCone, f: TropicalStableMap) -> str:
    """Classify a map against a moduli cone: 'interior', 'boundary' or 'outside'."""
    return cone.classify(cone.ambient_coordinates(f))


# --- canonical forms -------------------------------------------------------


def rooted_form(
    vertices: int,
    edges: Sequence[tuple[int, int]],
    vertex_tokens: Sequence[tuple],
    edge_tokens: Sequence[tuple[tuple, tuple]],
    roots: Optional[Sequence[int]] = None,
) -> tuple[tuple, list[int]]:
    """Least rooted serialization of a decorated tree, and its vertex order.

    A vertex serializes as its token plus the sorted tuple of its children,
    each as the token of the edge to it plus the child's serialization; edge
    ``(a, b)`` shows ``edge_tokens[i][0]`` from ``a`` and ``[1]`` from ``b``.
    The least is over ``roots`` (default: every vertex); roots picked by a
    rule isomorphisms respect, such as the tree's centres, keep it a key.
    Each branch, an edge with all beyond one of its sides, serializes once
    for all roots, with no vertex order.  The order, the vertices as the
    least serialization lists them with equal children in adjacency order,
    is read off that serialization alone; ties between roots go to the
    first least in ``roots``.
    """
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(vertices)]
    for i, (a, b) in enumerate(edges):
        adj[a].append((i, b, 0))
        adj[b].append((i, a, 1))
    # 2i + side: the token of edge i from that side and the serialization beyond it,
    # the same from every root
    branches: list[Optional[tuple]] = [None] * (2 * len(edges))
    head: dict[int, int] = {}  # id of a branch -> the vertex it leads to

    def serialize(v: int, come_from: int) -> tuple:
        children = []
        for i, w, side in adj[v]:
            if i != come_from:
                k = 2 * i + side
                if branches[k] is None:
                    branches[k] = edge_tokens[i][side] + (serialize(w, i),)
                    head[id(branches[k])] = w
                children.append(branches[k])
        children.sort()
        return vertex_tokens[v] + (tuple(children),)

    best = None
    for root in range(vertices) if roots is None else roots:
        ser = serialize(root, -1)
        if best is None or ser < best:
            best, best_root = ser, root
    # every branch is its own object, so equal branches keep the adjacency order
    # that the stable sort left them in
    order: list[int] = []

    def walk(v: int, ser: tuple) -> None:
        order.append(v)
        for branch in ser[-1]:
            walk(head[id(branch)], branch[-1])

    walk(best_root, best)
    del serialize, walk  # free the branches now, not at a later collection of the closures' cycles
    return best, order


def canonical_form(
    theta: CombinatorialType, identify_contacts: bool = False
) -> tuple[tuple, tuple[int, ...]]:
    """Canonical serialization of a type plus the vertex relabeling achieving it.

    With ``identify_contacts`` legs with nonzero contact order are compared
    by their contact vector instead of their label, so types differing only
    by a permutation of equal-contact legs collapse together.
    """
    shape = theta.shape

    def token(idx: Optional[int]) -> int:
        return -1 if idx is None else idx

    legs_at: list[list[tuple]] = [[] for _ in range(shape.vertices)]
    for (v, lab), c, car in zip(shape.legs, theta.leg_contacts, theta.leg_carriers):
        if identify_contacts and any(c):
            legs_at[v].append(("c", c, token(car)))
        else:
            legs_at[v].append(("l", lab, c, token(car)))
    vertex_tokens = [
        (token(cone), tuple(sorted(legs))) for cone, legs in zip(theta.vertex_cones, legs_at)
    ]
    edge_tokens = [
        ((c, token(car)), (tuple(-x for x in c), token(car)))
        for c, car in zip(theta.edge_contacts, theta.edge_carriers)
    ]
    best, best_order = rooted_form(shape.vertices, shape.edges, vertex_tokens, edge_tokens)
    return best, tuple(_inverse(best_order))


def _inverse(perm: Sequence[int]) -> list[int]:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return out


def relabel_type(theta: CombinatorialType, relabel: Sequence[int]) -> CombinatorialType:
    """Apply a vertex permutation, renormalizing edge orientations."""
    shape = theta.shape
    # edges are distinct, so the sort never compares contacts or carriers
    moved = sorted(
        (*oriented(relabel[a], relabel[b], c), car)
        for (a, b), c, car in zip(shape.edges, theta.edge_contacts, theta.edge_carriers)
    )
    leg_order = sorted(range(len(shape.legs)), key=lambda j: shape.legs[j][1])
    legs = tuple((relabel[shape.legs[j][0]], shape.legs[j][1]) for j in leg_order)
    inv = _inverse(relabel)
    return CombinatorialType(
        theta.fan,
        TreeShape(shape.vertices, tuple(e for e, _, _ in moved), legs),
        tuple(theta.vertex_cones[inv[v]] for v in range(shape.vertices)),
        tuple(c for _, c, _ in moved),
        tuple(car for _, _, car in moved),
        tuple(theta.leg_contacts[j] for j in leg_order),
        tuple(theta.leg_carriers[j] for j in leg_order),
    )


def edge_permutation(old: TreeShape, relabel: Sequence[int]) -> list[int]:
    """old edge index -> new edge index after relabeling by ``relabel``."""
    renamed = [tuple(sorted((relabel[a], relabel[b]))) for a, b in old.edges]
    order = sorted(range(len(renamed)), key=lambda i: renamed[i])
    out = [0] * len(renamed)
    for new, i in enumerate(order):
        out[i] = new
    return out


# --- face enumeration ------------------------------------------------------


@dataclass(frozen=True)
class FaceData:
    """A codimension-one face together with its edge correspondence."""

    face: CombinatorialType
    edge_map: tuple[Optional[int], ...]  # parent edge -> face edge (None if contracted)
    point: tuple[int, ...]  # the face's (root position, lengths) at a relative-interior point


def _type_at(cone: ModuliCone, x: Sequence[int]) -> FaceData:
    """The type of the map at x = (root position, lengths), a point of the cone.

    Every zero-length edge is contracted at once (its ends coincide), and
    vertex cones and carriers are located at the point; whatever the type
    leaves None stays None. A confined vertex gets the face of its cone on
    the rays with a positive coefficient at its position, by the sign of
    its cone's coefficient rows there (the rows of ``_inequality_rows``):
    the whole cone at a relative-interior point, and at a facet's witness,
    where exactly the facet's inequality rows vanish, the face that the
    facet leaves it.
    """
    theta = cone.type
    fan = theta.fan
    r = fan.rank
    shape = theta.shape
    lengths = x[r:]
    # the ends of each zero-length edge merge into the class's least vertex
    least = list(range(shape.vertices))
    for (a, b), l in zip(shape.edges, lengths):
        if l == 0:
            lo, hi = sorted((least[a], least[b]))
            least = [lo if w == hi else w for w in least]
    reps = sorted(set(least))
    index = {w: i for i, w in enumerate(reps)}
    vmap = [index[w] for w in least]
    # merged vertices sit at one point, so they agree
    positions = vertex_positions(x, cone.paths, theta.edge_contacts)
    cones: list[Optional[int]] = [None] * len(reps)
    for v, cone_idx in enumerate(theta.vertex_cones):
        if cone_idx is not None:
            rays = fan.cones[cone_idx]
            rows = fan.cone_data(cone_idx).coefficients
            kept = [ray for ray, row in zip(rays, rows) if sum(map(mul, row, positions[v])) > 0]
            cones[vmap[v]] = cone_idx if len(kept) == len(rays) else fan.cone_index(kept)
    # a carrier is the germ at its vertex's cone, located for an unconfined vertex
    at = [c if c is not None else locate(fan, positions[reps[w]]) for w, c in enumerate(cones)]

    def carrier(old: Optional[int], w: int, c: tuple[int, ...]) -> Optional[int]:
        return None if old is None else fan.germ(at[w], c)

    edges: list[tuple[int, int]] = []
    contacts: list[tuple[int, ...]] = []
    e_cars: list[Optional[int]] = []
    emap: list[Optional[int]] = []
    for (a, b), c, car, l in zip(shape.edges, theta.edge_contacts, theta.edge_carriers, lengths):
        if l == 0:
            emap.append(None)
            continue
        edge, c = oriented(vmap[a], vmap[b], c)
        emap.append(len(edges))
        edges.append(edge)
        contacts.append(c)
        e_cars.append(carrier(car, edge[0], c))
    l_cars = tuple(
        carrier(car, vmap[v], c)
        for (v, _), c, car in zip(shape.legs, theta.leg_contacts, theta.leg_carriers)
    )
    face = CombinatorialType(
        fan,
        TreeShape(len(reps), tuple(edges), tuple((vmap[v], lab) for v, lab in shape.legs)),
        tuple(cones),
        tuple(contacts),
        tuple(e_cars),
        theta.leg_contacts,
        l_cars,
    )
    # the face's root is this one's image, at the same position
    return FaceData(face, tuple(emap), tuple(x[:r]) + tuple(l for l in lengths if l))


def face_types(cone: ModuliCone) -> list[FaceData]:
    """Codimension-one faces of a type's moduli cone, read off its extreme rays.

    The inequality rows, on the span basis, fall into groups of positive
    multiples of one row. A group is a facet exactly when the extreme rays
    it vanishes on are inclusion-maximal (see ``ConeRays.facets``); their
    sum is the face's witness, and ``_type_at`` reads the face type off it.
    A cone with no relative-interior point has no faces.
    """
    rays = cone.extreme_rays
    if rays is None:
        return []
    return [_type_at(cone, cone.span_basis.apply(y)) for _, y in rays.facets()]


def face_inclusion_matrix(
    parent: ModuliCone, face_cone: ModuliCone, edge_map: Sequence[Optional[int]]
) -> IntMatrix:
    """Integral matrix expressing the face's span lattice inside the parent's.

    ``edge_map`` translates parent edges to the face's (a contracted parent
    edge maps to None). The face sits in the parent by the coordinate map
    iota: root to root, a kept edge's length to its image's, a contracted
    edge's to 0. The roots agree: a face keeps every leg, and each root is
    the vertex of leg 1. ``hermite_solve`` finds X with B·X = iota·B_face
    for the parent's span basis B, or refuses a face lattice outside the
    parent's.
    """
    r = parent.type.fan.rank
    face_basis = face_cone.span_basis
    zero = (0,) * face_cone.dimension
    target = IntMatrix(
        parent.span_basis.rows,
        face_cone.dimension,
        face_basis.entries[: r * face_cone.dimension]
        + tuple(x for fe in edge_map for x in (zero if fe is None else face_basis.row(r + fe))),
    )
    inclusion = hermite_solve(parent.span_basis, target)
    if inclusion is None:
        raise InvalidTypeError("face lattice does not lie in the parent's span lattice")
    return inclusion


# --- symmetry --------------------------------------------------------------


def fan_isomorphisms(a: Fan, b: Fan) -> Iterator[tuple[IntMatrix, tuple[int, ...]]]:
    """Each A in GL_r(ZZ) that maps a's rays onto b's and a's cones onto b's,
    with its ray permutation (a's ray i goes to b's ray ``perm[i]``).

    A is fixed by the images of a lattice basis, and they are rays of b. So
    the first ordered r-tuple of a's rays with determinant ±1, the columns
    of S, goes to each ordered r-tuple of b's rays, the columns of T, and
    A = T·S⁻¹ is kept when it matches the rays and the cones. Each A comes
    once. None comes when a's rays hold no lattice basis.
    """
    r = a.rank
    if r != b.rank or len(a.rays) != len(b.rays) or len(a.cones) != len(b.cones):
        return

    def columns(rays: Sequence[Vector], picked: Sequence[int]) -> list[list[int]]:
        return [[rays[i][k] for i in picked] for k in range(r)]

    for basis in itertools.permutations(range(len(a.rays)), r):
        # Gauss-Jordan on (S | I) leaves (d·I | d·S⁻¹), and d = ±1 = 1/d
        rows = [row + [int(i == j) for j in range(r)] for i, row in enumerate(columns(a.rays, basis))]
        pivots, d = fraction_free_rref(rows, r)
        if len(pivots) == r and abs(d) == 1:
            break
    else:
        return
    inverse = IntMatrix.from_rows([[d * x for x in row[r:]] for row in rows], r)
    cones = set(b.cones)
    for target in itertools.permutations(range(len(b.rays)), r):
        m = IntMatrix.from_rows(columns(b.rays, target), r) @ inverse
        mapped = [tuple(m.apply(ray)) for ray in a.rays]
        if sorted(mapped) != sorted(b.rays):
            continue
        perm = tuple(b.rays.index(v) for v in mapped)
        if {tuple(sorted(perm[x] for x in cone)) for cone in a.cones} == cones:
            yield m, perm


def unimodular_equivalent(a: Fan, b: Fan) -> Optional[IntMatrix]:
    """A GL_2(ZZ) transform matching ray multisets and cones, if one exists."""
    if a.rank != 2 or b.rank != 2:
        raise UnsupportedRankError("unimodular matching implemented for rank 2")
    return next((m for m, _ in fan_isomorphisms(a, b)), None)


class Symmetry(NamedTuple):
    """An element (A, σ) of the group that acts on a complex.

    A is a lattice automorphism of the fan, and ``cones[i]`` is the index
    of A applied to cone i. σ is a bijection of the leg labels, ``labels[l]``
    = σ(l) (entry 0 unused): it takes a contact leg to a leg with contact
    A·c and a trivial leg to a trivial leg.
    """

    matrix: IntMatrix
    cones: tuple[int, ...]
    labels: tuple[int, ...]


class SymmetryGroup:
    """The elements of G, the identity first, and their action on types. An
    element is fixed by its matrix and labels, so a product or an inverse is
    looked up by those."""

    def __init__(self, elements: Sequence[Symmetry]):
        self.elements = tuple(elements)
        # the matrices, numbered in order of first use, so the identity is 0
        number = {m: i for i, m in enumerate(dict.fromkeys(g.matrix for g in self.elements))}
        self._matrix = [number[g.matrix] for g in self.elements]
        self._index = {(number[g.matrix], g.labels): i for i, g in enumerate(self.elements)}
        self._products = [[number[a @ b] for b in number] for a in number]
        self._inverses = [row.index(0) for row in self._products]
        # per matrix A, A·c for each contact moved so far: a fan has few
        # automorphisms, and a complex few contacts
        self._moved: list[dict[Vector, Vector]] = [{} for _ in number]

    def act(self, g: int, theta: CombinatorialType) -> CombinatorialType:
        """g·theta: the same tree and vertex numbers, each leg relabeled by σ,
        each contact moved by A and each cone by its permutation."""
        element = self.elements[g]
        cones, labels, moved = element.cones, element.labels, self._moved[self._matrix[g]]

        def move(c: Vector) -> Vector:
            image = moved.get(c)
            if image is None:
                image = moved[c] = tuple(element.matrix.apply(c))
            return image

        def cone(idx: Optional[int]) -> Optional[int]:
            return None if idx is None else cones[idx]

        shape = theta.shape
        return CombinatorialType(
            theta.fan,
            TreeShape(shape.vertices, shape.edges, tuple((v, labels[lab]) for v, lab in shape.legs)),
            tuple(map(cone, theta.vertex_cones)),
            tuple(map(move, theta.edge_contacts)),
            tuple(map(cone, theta.edge_carriers)),
            tuple(map(move, theta.leg_contacts)),
            tuple(map(cone, theta.leg_carriers)),
        )

    def compose(self, h: int, g: int) -> int:
        """The index of h∘g, which acts as h after g."""
        labels = self.elements[h].labels
        product = self._products[self._matrix[h]][self._matrix[g]]
        return self._index[product, tuple(map(labels.__getitem__, self.elements[g].labels))]

    def inverse(self, g: int) -> int:
        return self._index[self._inverses[self._matrix[g]], tuple(_inverse(self.elements[g].labels))]


def symmetry_group(gamma: DiscreteData) -> SymmetryGroup:
    """The lattice automorphisms of the fan (``fan_isomorphisms``; the
    identity alone when its rays hold no lattice basis), each with every leg
    bijection that carries the contacts along."""
    fan = gamma.fan
    identity = IntMatrix.identity(fan.rank)
    autos = sorted(fan_isomorphisms(fan, fan), key=lambda t: t[0] != identity)
    # legs by contact, the trivial ones as the class of None
    classes: dict[Optional[Vector], list[int]] = {}
    for lab, c in gamma.contact_legs:
        classes.setdefault(c, []).append(lab)
    classes[None] = list(gamma.trivial_legs)
    size = len(gamma.contact_legs) + len(gamma.trivial_legs) + 1
    elements = []
    for m, perm in autos or [(identity, tuple(range(len(fan.rays))))]:
        cones = tuple(fan.cone_index([perm[i] for i in cone]) for cone in fan.cones)
        targets = [classes.get(c if c is None else tuple(m.apply(c)), ()) for c in classes]
        if any(len(t) != len(labs) for t, labs in zip(targets, classes.values())):
            continue
        for choice in itertools.product(*map(itertools.permutations, targets)):
            labels = [0] * size
            for labs, images in zip(classes.values(), choice):
                for lab, image in zip(labs, images):
                    labels[lab] = image
            elements.append(Symmetry(m, cones, tuple(labels)))
    return SymmetryGroup(elements)


class Orbit(NamedTuple):
    """The orbit of a stored type theta under G, by the cosets of its
    stabilizer.

    ``images[i]`` = (h, key, eperm, image): h is the first element of its
    coset h·Stab in G's order, key the canonical key of h·theta, image the
    stored type of that key, h·theta under its canonical relabeling, and
    eperm carries theta's edges to image's. ``stabilizer[j]`` = (s, edge
    map): s·theta is theta with its edges renumbered by the map. Each
    element k of G is h_i∘s_j for one pair, and ``where[k]`` = i·|G| + j."""

    images: list[tuple[int, tuple, list[int], CombinatorialType]]
    stabilizer: list[tuple[int, tuple[int, ...]]]
    where: list[int]

    def at(self, k: int) -> tuple[tuple, list[int]]:
        """(key, eperm) of k·theta."""
        i, j = divmod(self.where[k], len(self.where))
        _, key, eperm, _ = self.images[i]
        if j:
            return key, [eperm[e] for e in self.stabilizer[j][1]]
        return key, eperm


def orbit(group: SymmetryGroup, theta: CombinatorialType) -> Orbit:
    """The orbit of theta, one ``canonical_form`` per element of G that no
    known coset holds yet. Such an element starts a coset, or its key is a
    known image's, h·theta, and then h⁻¹∘g is a stabilizer element not known
    before: the known stabilizer grows to the group they generate, at least
    twice its size. So the canonical forms number the orbit's size and at
    most log₂|Stab| more, however large G is."""
    n = len(group.elements)
    where = [-1] * n
    images: list = []
    stabilizer = [(0, tuple(range(len(theta.shape.edges))))]
    gens: list = []
    found: dict[tuple, int] = {}

    def mark(i: int, start: int) -> None:
        h = images[i][0]
        for j in range(start, len(stabilizer)):
            where[group.compose(h, stabilizer[j][0])] = i * n + j

    for g in range(n):
        if where[g] >= 0:
            continue
        moved = group.act(g, theta)
        key, relabel = canonical_form(moved)
        eperm = edge_permutation(theta.shape, relabel)
        i = found.get(key)
        if i is None:
            found[key] = len(images)
            images.append((g, key, eperm, relabel_type(moved, relabel)))
            mark(len(images) - 1, 0)
            continue
        # g·theta = h·theta, so s = h⁻¹∘g fixes theta, through this edge map
        h, _, h_eperm, _ = images[i]
        back = _inverse(h_eperm)
        s = group.compose(group.inverse(h), g)
        gens.append((s, tuple(back[f] for f in eperm)))
        start = len(stabilizer)
        members = {x for x, _ in stabilizer}
        for x, x_e in stabilizer:  # grows as it goes: the closure
            for y, y_e in gens:
                z = group.compose(x, y)
                if z not in members:
                    members.add(z)
                    stabilizer.append((z, tuple(x_e[e] for e in y_e)))
        for i in range(len(images)):
            mark(i, start)
    assert len(images) * len(stabilizer) == n
    return Orbit(images, stabilizer, where)


# --- complex assembly ------------------------------------------------------


@dataclass(frozen=True)
class ComplexCone:
    type: CombinatorialType
    cone: ModuliCone
    key: tuple


@dataclass(frozen=True)
class ConeComplex:
    gamma: DiscreteData
    cones: tuple[ComplexCone, ...]
    face_maps: tuple[tuple[int, int, IntMatrix], ...]  # (small, big, inclusion)

    def f_vector(self) -> tuple[int, ...]:
        top = max((c.cone.dimension for c in self.cones), default=-1)
        counts = [0] * (top + 1)
        for c in self.cones:
            counts[c.cone.dimension] += 1
        return tuple(counts)

    @cached_property
    def _faces(self) -> dict[int, list[int]]:
        """big -> its faces, in face-map order; built once."""
        index: dict[int, list[int]] = {}
        for s, b, _ in self.face_maps:
            index.setdefault(b, []).append(s)
        return index

    def faces_of(self, idx: int) -> list[int]:
        return list(self._faces.get(idx, ()))

    def skeleton(self, idx: int, dim: int) -> set[int]:
        """Iterated faces of the given cone having the requested dimension."""
        frontier = {idx}
        seen = {idx}
        while frontier:
            nxt = set()
            for c in frontier:
                for s in self.faces_of(c):
                    if s not in seen:
                        seen.add(s)
                        nxt.add(s)
            frontier = nxt
        return {i for i in seen if self.cones[i].cone.dimension == dim}


def insert_leg(tree: tuple, leg: tuple, edge: Optional[int] = None, at_leg: Optional[int] = None) -> tuple:
    """Attach ``leg`` at a fresh vertex subdividing edge ``edge`` or leg ``at_leg``.

    A tree is ``(vertex count, edges, legs)`` with bare ``(a, b)`` edges and
    each leg a tuple whose first entry is its vertex; ``leg`` holds the
    entries after the vertex.
    """
    nv, edges, legs = tree
    if edge is not None:
        a, b = edges[edge]
        rest_edges = edges[:edge] + edges[edge + 1 :]
        return (nv + 1, rest_edges + ((a, nv), (nv, b)), legs + ((nv,) + leg,))
    old = legs[at_leg]
    rest = legs[:at_leg] + legs[at_leg + 1 :]
    return (nv + 1, edges + ((old[0], nv),), rest + ((nv,) + old[1:], (nv,) + leg))


def grow_trees(
    legs: Sequence[tuple],
    dedup_key: Optional[Callable[[tuple], object]] = None,
    last_sites: Optional[Callable[[tuple, tuple], Iterable[tuple[Optional[int], Optional[int]]]]] = None,
) -> list[tuple]:
    """Trivalent trees over ``legs`` by leaf insertion, in ``insert_leg``'s encoding.

    The first three legs form the tripod (one vertex when there are fewer).
    A leg goes at every edge of each tree, then at every leg; at the last
    level, ``last_sites(tree, leg)`` may name a subset of these sites, as
    ``(edge, at_leg)`` pairs for ``insert_leg`` in the same order.  With
    ``dedup_key`` each level keeps only the first tree of every key.
    """
    trees = [(1, (), tuple((0,) + leg for leg in legs[:3]))]
    for depth, leg in enumerate(legs[3:], 4):
        seen = set()
        grown: list[tuple] = []
        for tree in trees:
            if last_sites is not None and depth == len(legs):
                sites = last_sites(tree, leg)
            else:
                sites = [(i, None) for i in range(len(tree[1]))] + [(None, j) for j in range(len(tree[2]))]
            for edge, at_leg in sites:
                child = insert_leg(tree, leg, edge, at_leg)
                if dedup_key is not None:
                    key = dedup_key(child)
                    if key in seen:
                        continue
                    seen.add(key)
                grown.append(child)
        trees = grown
    return trees


def labeled_trees(labels: Sequence[int]) -> list[TreeShape]:
    """All trivalent trees with the given leg labels (single vertex for <= 3)."""
    if not labels:
        raise ValueError("need at least one leg")
    return [
        TreeShape(nv, tuple(sorted((min(a, b), max(a, b)) for a, b in edges)), legs)
        for nv, edges, legs in grow_trees([(lab,) for lab in sorted(labels)])
    ]


def forced_edge_contacts(
    vertices: int,
    edges: Sequence[tuple[int, int]],
    legs: Iterable[tuple[int, tuple[int, ...]]],
    rank: int,
) -> list[tuple[int, ...]]:
    """Edge contact orders implied by balancing: for edge (a, b), the sum of
    the contacts of the (vertex, contact) legs on the b side.

    One parent walk from vertex 0 sums the leg contacts over each subtree,
    in reverse walk order.  An edge's child end is its end farther from
    vertex 0: the edge gets that end's subtree sum when the end is b, and
    the total minus that sum when it is a.
    """
    below = [[0] * rank for _ in range(vertices)]
    for v, c in legs:
        row = below[v]
        for k in range(rank):
            row[k] += c[k]
    walk = TreeShape.parent_walk(vertices, edges, 0)
    for v, u, _ in reversed(walk):
        up, row = below[u], below[v]
        for k in range(rank):
            up[k] += row[k]
    total = below[0]
    out: list[tuple[int, ...]] = [()] * len(edges)
    # tuple() of a list: of a generator, it was slower and raised the
    # count's peak memory
    for v, _, i in walk:
        out[i] = tuple(below[v]) if edges[i][1] == v else tuple([t - x for t, x in zip(total, below[v])])
    return out


def _walks(fan: Fan, start_cone: int, c: tuple[int, ...], end_cone: Optional[int]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Combinatorial wall-crossing patterns for a segment or ray of direction c.

    Yields (carriers, crossing faces). ``Fan.germ`` decides every step:
    carriers[0] is the germ along c at the start vertex (whose cone is
    ``start_cone``); a carrier is left through a proper face whose germ along
    -c is that carrier, into the face's germ along c; a ray ends in a carrier
    containing c, a segment in the germ along -c at the head vertex (whose
    cone is ``end_cone``). Its strict positivity keeps a segment running
    inside a wall in that wall. With c = 0 the one walk stays in
    ``start_cone``, so a contracted edge has it only between equal cones.

    No walk revisits a carrier (rank <= 2). Crossing a ray u out of a
    sector into the sector tau beyond, c = a u + b w with b > 0 for the
    other ray w of tau, so the walk turns the way sign(cross(u, c))
    gives; leaving tau across w needs a < 0, and then cross(w, c) has that
    sign too. So the crossed rays turn one way only, strictly, and all
    lie in the open half-plane where cross(., c) has that sign. To cross
    a ray twice the walk would go all the way round, across every ray,
    and the rays of a complete fan do not lie in an open half-plane. A
    walk through the origin goes from the cone holding -c to the cone
    holding c, and that cone has no exit. Rank 3 needs a proof of its own.

    So a carrier is the germ along c at its piece's tail and along -c at
    its head. At a relative-interior point of a threaded type's cone every
    length is positive and every vertex in its cone's relative interior,
    so ``_type_at`` finds the same cones and germs: the type is located.
    """
    neg = tuple(-x for x in c)

    def ends_ok(car: int) -> bool:
        if end_cone is None:
            return fan.contains(car, c)
        return fan.germ(end_cone, neg) == car

    def rec(carriers: tuple[int, ...], faces: tuple[int, ...]) -> Iterator:
        cur = carriers[-1]
        if ends_ok(cur):
            yield carriers, faces
        for face in fan.face_indices(cur):
            if face == cur or fan.germ(face, neg) != cur:
                continue
            nxt = fan.germ(face, c)
            if nxt is not None:
                yield from rec(carriers + (nxt,), faces + (face,))

    first = fan.germ(start_cone, c)
    if first is not None:
        yield from rec((first,), ())


def _candidates(gamma: DiscreteData) -> Iterator[CombinatorialType]:
    """Candidate types, every top cone among them: each stabilized tree with each
    vertex-cone assignment over maximal cones and wall-crossing pattern, threaded."""
    fan = gamma.fan
    leg_contact = dict(gamma.contact_legs)
    for lab in gamma.trivial_legs:
        leg_contact[lab] = (0,) * fan.rank
    maximal = fan.maximal_cones()

    @cache
    def walks(start: int, c: tuple[int, ...], end: Optional[int]) -> list:
        return list(_walks(fan, start, c, end))

    for shape in labeled_trees(list(leg_contact)):
        edge_contacts = forced_edge_contacts(
            shape.vertices, shape.edges, ((v, leg_contact[lab]) for v, lab in shape.legs), fan.rank
        )
        leg_contacts = [leg_contact[lab] for _, lab in shape.legs]
        ne = len(shape.edges)
        for assignment in itertools.product(maximal, repeat=shape.vertices):
            options = [walks(assignment[a], c, assignment[b]) for (a, b), c in zip(shape.edges, edge_contacts)]
            options += [walks(assignment[v], c, None) for (v, _), c in zip(shape.legs, leg_contacts)]
            for pattern in itertools.product(*options):
                yield threaded(fan, shape, assignment, edge_contacts, leg_contacts, pattern[:ne], pattern[ne:])


def _stored_cone(theta: CombinatorialType, key: tuple) -> Optional[ComplexCone]:
    """The record of a type built from scratch: its checked moduli cone,
    whose relative-interior witness (the ambient point of the sum of its
    extreme rays, cached for ``face_types``) is certified by ``classify``;
    None when the cone has no relative-interior point. Assembly builds its
    representatives here, and ``complex_from_json`` every record it reads."""
    mc = moduli_cone(theta)
    witness = mc.relint_witness()
    if witness is None:
        return None
    assert mc.classify(witness) == "interior"
    return ComplexCone(theta, mc, key)


def assemble_complex(gamma: DiscreteData) -> ConeComplex:
    """Enumerate all combinatorial types with the given discrete data and glue them.

    Works over fans of rank <= 2. The complex subdivides M_0,n^trop x the
    fan, so it is pure, and in a top cone every vertex of the stabilized
    tree lies in a maximal cone of the fan. Candidates are therefore the
    stabilized trees with every vertex-cone assignment over maximal cones
    and every wall-crossing pattern; each is already its own located type
    (see ``_walks``). Every lower cone is reached by face closure, with
    canonical deduplication; a candidate whose cone is empty is not stored.

    The group G of ``symmetry_group`` acts on the complex, and assembly
    works per orbit. A new key is stored as a representative, with its
    moduli cone, extreme rays and witness, and with its ``orbit``; a new
    key of an empty cone puts its whole orbit's keys aside. Each image
    h·rep is stored too, on the canonical type its orbit built, with the
    cone of its own span cuts and no ``check``, rays or witness.
    Only representatives run ``face_types``, and each of their faces is
    admitted, so it is stored as g_f·(its representative). The same face of
    an image h·rep is then (h∘g_f)·(that representative): its key and
    edge relabeling are read off that representative's orbit (``Orbit.at``),
    and the edge map composed through the relabelings. Every face pair
    still gets its own ``face_inclusion_matrix``.
    """
    fan = gamma.fan
    if fan.rank > 2:
        raise UnsupportedRankError("complex assembly supports fan rank <= 2 only")
    gamma.check_contacts("assembly")
    if len(gamma.contact_legs) + len(gamma.trivial_legs) < 2:
        raise ValueError("need at least two marked legs")

    group = symmetry_group(gamma)
    by_key: dict[tuple, ComplexCone] = {}
    orbits: dict[tuple, Orbit] = {}  # per representative
    # each stored key -> (its representative's key, the first g with key = g·rep)
    origin: dict[tuple, tuple[tuple, int]] = {}
    reps: list[tuple] = []  # the representatives whose faces are still to be found
    empty: set[tuple] = set()  # the keys of the orbits of empty cones

    def admit(theta: CombinatorialType) -> tuple[tuple, tuple[int, ...]]:
        """Store the orbit of a located type unless its key is known or its
        cone is empty; returns (key, relabel)."""
        key, relabel = canonical_form(theta)
        if key in by_key or key in empty:
            return key, relabel
        found = orbit(group, relabel_type(theta, relabel))
        rep = _stored_cone(found.images[0][3], key)  # the identity comes first
        if rep is None:
            empty.update(image[1] for image in found.images)
            return key, relabel
        by_key[key] = rep
        origin[key] = (key, 0)
        orbits[key] = found
        # no key of a new orbit is stored yet: orbits are stored whole
        for g, image_key, _, image in found.images[1:]:
            # g moves rep's cone onto this one by a lattice isomorphism, so
            # the type needs no check and the dimension is rep's
            cone = _unchecked_cone(image)
            assert cone.dimension == rep.cone.dimension
            by_key[image_key] = ComplexCone(image, cone, image_key)
            origin[image_key] = (key, g)
        reps.append(key)
        return key, relabel

    for theta in _candidates(gamma):
        admit(theta)

    # face closure, recording pairs and inclusion matrices as we go
    face_rel: dict[tuple[tuple, tuple], IntMatrix] = {}
    while reps:
        key = reps.pop()
        rep = by_key[key]
        for fd in face_types(rep.cone):
            face_key, relabel = admit(fd.face)
            # the stored face is g·face_rep: pull rep's edges back through
            # the face to face_rep's
            face_rep, g = origin[face_key]
            face_orbit = orbits[face_rep]
            back = _inverse(face_orbit.at(g)[1])
            eperm = edge_permutation(fd.face.shape, relabel)
            to_face_rep = [None if e is None else back[eperm[e]] for e in fd.edge_map]
            # this face of h·rep is (h∘g)·face_rep: map h·rep's edges back to
            # rep's, then to face_rep's, then on to its image
            for h, image_key, p_eperm, _ in orbits[key].images:
                f_key, f_eperm = face_orbit.at(group.compose(h, g))
                pair = (f_key, image_key)
                # one representative facet and one coset give each pair
                assert pair not in face_rel
                emap: list[Optional[int]] = [None] * len(p_eperm)
                for e, f in zip(p_eperm, to_face_rep):
                    emap[e] = None if f is None else f_eperm[f]
                face_rel[pair] = face_inclusion_matrix(by_key[image_key].cone, by_key[f_key].cone, emap)

    ordered = sorted(by_key.values(), key=lambda c: (c.cone.dimension, c.key))
    index = {c.key: i for i, c in enumerate(ordered)}
    face_maps = sorted(
        ((index[f], index[p], m) for (f, p), m in face_rel.items()),
        key=lambda t: (t[0], t[1]),
    )
    return ConeComplex(gamma, tuple(ordered), tuple(face_maps))


# --- fan embedding ---------------------------------------------------------


@dataclass(frozen=True)
class EmbeddedFan:
    ambient_rank: int
    cone_images: tuple[tuple[tuple[int, ...], ...], ...]  # per cone: primitive ray images
    lattice_maps: tuple[IntMatrix, ...]  # per cone: embedding on the span basis

    def rays(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for gens in self.cone_images:
            for g in gens:
                if g not in out:
                    out.append(g)
        return sorted(out)

    def to_fan(self, name: str = "embedded") -> Fan:
        rays = self.rays()
        cones = []
        for gens in self.cone_images:
            cones.append(tuple(sorted(rays.index(g) for g in gens)))
        return Fan.make(self.ambient_rank, rays, cones, name=name)


def gkm_embedding(complex_: ConeComplex, root_label: int) -> EmbeddedFan:
    """Embed the cone complex linearly into RR^k as a fan.

    A map goes to the position of the (stabilized) vertex carrying the root
    leg together with the pairwise leg-distance vector reduced modulo the
    lattice spanned by per-leg translations.  The quotient basis is the
    canonical one of ``lattice_quotient``. A ray cone goes to the
    primitive image, under its lattice map, of its extreme ray.
    """
    if not complex_.cones:
        raise NotAssembledError("empty complex")
    gamma = complex_.gamma
    fan = gamma.fan
    labels = sorted([lab for lab, _ in gamma.contact_legs] + list(gamma.trivial_legs))
    if root_label not in labels:
        raise ValueError(f"root label {root_label} is not a marked leg")
    big_l = len(labels)
    pairs = [(labels[i], labels[j]) for i in range(big_l) for j in range(i + 1, big_l)]
    phi = IntMatrix.from_rows([[1 if lab in pair else 0 for lab in labels] for pair in pairs], big_l)
    proj = lattice_quotient(phi)
    k = fan.rank + comb(big_l, 2) - big_l

    images = []
    lattice_maps = []
    r = fan.rank
    for cc in complex_.cones:
        ne = len(cc.type.edge_contacts)
        kept, stab, groups = cc.type.shape.straighten()
        root_path = cc.cone.paths[kept[stab.leg_vertex(root_label)]]
        rows = [position_row([int(i == j) for j in range(r)], root_path, cc.type.edge_contacts) for i in range(r)]
        # the distance of each pair: 1 on each edge of its path
        walks = {la: TreeShape.signed_paths(stab.vertices, stab.edges, stab.leg_vertex(la)) for la in labels}
        on_path = [{orig for s, _ in walks[la][stab.leg_vertex(lb)] for orig in groups[s]} for la, lb in pairs]
        dist = IntMatrix(len(pairs), r + ne, tuple(int(e - r in path) for path in on_path for e in range(r + ne)))
        rows += (proj @ dist).to_lists()
        lattice_maps.append(IntMatrix.from_rows(rows, r + ne) @ cc.cone.span_basis)

    # ray images come from the embedded 1-skeleton
    ray_image: dict[int, tuple[int, ...]] = {}
    for idx, cc in enumerate(complex_.cones):
        if cc.cone.dimension != 1:
            continue
        y = cc.cone.extreme_rays.interior_point()
        ray_image[idx] = primitive_vector(lattice_maps[idx].apply(y))
    for idx, cc in enumerate(complex_.cones):
        gens: list[tuple[int, ...]] = []
        for face_idx in sorted(complex_.skeleton(idx, 1)):
            if face_idx in ray_image and ray_image[face_idx] not in gens:
                gens.append(ray_image[face_idx])
        images.append(tuple(gens))
    return EmbeddedFan(k, tuple(images), tuple(lattice_maps))


# --- JSON interface --------------------------------------------------------


def _matrix_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [list(m.row(i)) for i in range(m.rows)]}


def _matrix_from_json(data: dict) -> IntMatrix:
    return IntMatrix(
        data["rows"], data["cols"], tuple(x for row in data["entries"] for x in row)
    )


def complex_to_json(complex_: ConeComplex) -> dict:
    """The complex's JSON data. Its cones and faces are one-shot iterators
    that build each entry when it is read, for ``cli._emit`` to write one at
    a time; ``complex_from_json`` reads them back as lists."""
    from .maps import type_to_json
    from .polyhedral import SCHEMA, fan_to_json

    gamma = complex_.gamma
    return {
        "schema": SCHEMA,
        "kind": "complex",
        "fan": fan_to_json(gamma.fan),
        "contact_legs": [[lab, list(c)] for lab, c in gamma.contact_legs],
        "trivial_legs": list(gamma.trivial_legs),
        "f_vector": list(complex_.f_vector()),
        "cones": (
            {
                "dimension": cc.cone.dimension,
                "type": type_to_json(cc.type),
                "span_basis": _matrix_json(cc.cone.span_basis),
            }
            for cc in complex_.cones
        ),
        "faces": ([s, b, _matrix_json(m)] for s, b, m in complex_.face_maps),
    }


def complex_from_json(data: dict) -> ConeComplex:
    from .maps import DiscreteData, type_from_json
    from .polyhedral import fan_from_json

    fan = fan_from_json(data["fan"])
    gamma = DiscreteData(
        fan,
        tuple((lab, tuple(c)) for lab, c in data["contact_legs"]),
        tuple(data["trivial_legs"]),
    )
    cones = []
    for entry in data["cones"]:
        theta = type_from_json(fan, entry["type"])
        cc = _stored_cone(theta, canonical_form(theta)[0])
        if cc is None:
            raise ValueError("stored type has an empty moduli cone")
        if cc.cone.dimension != entry["dimension"]:
            raise ValueError("stored dimension disagrees with the recomputed cone")
        if _matrix_from_json(entry["span_basis"]) != cc.cone.span_basis:  # the face maps' bases
            raise ValueError("stored span basis disagrees with the recomputed cone")
        cones.append(cc)
    face_maps = tuple((s, b, _matrix_from_json(m)) for s, b, m in data["faces"])
    return ConeComplex(gamma, tuple(cones), face_maps)


def embedding_to_json(emb: EmbeddedFan) -> dict:
    """The embedding's JSON data. Its cones are a one-shot iterator, as in
    ``complex_to_json``; ``embedding_from_json`` reads them back as a list."""
    from .polyhedral import SCHEMA

    return {
        "schema": SCHEMA,
        "kind": "embedded_fan",
        "ambient_rank": emb.ambient_rank,
        "rays": [list(r) for r in emb.rays()],
        "cones": (
            {"rays": [list(g) for g in gens], "lattice_map": _matrix_json(m)}
            for gens, m in zip(emb.cone_images, emb.lattice_maps)
        ),
    }


def embedding_from_json(data: dict) -> EmbeddedFan:
    return EmbeddedFan(
        data["ambient_rank"],
        tuple(tuple(tuple(g) for g in entry["rays"]) for entry in data["cones"]),
        tuple(_matrix_from_json(entry["lattice_map"]) for entry in data["cones"]),
    )

"""Degrees of tropical evaluation maps: rigid types, lattice multiplicities, counts.

The count of rational curves through seeded generic constraints is the sum
of lattice indices of evaluation matrices over rigid combinatorial types.
Enumeration works with stabilized types (no subdivision vertices): a
skeleton census over the contact legs is grown by inserting the marked
legs one at a time, with sound pruning against the seeded targets.  Each
surviving working tree is solved exactly on its bare edges, and its type
is built only for a solution, which is accepted only in the interior of
the moduli cone.  Trees are keyed for dedup only when two contact legs
share a contact vector.  Boundary solutions abort the whole count so the
caller can reseed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, gcd, prod
from operator import add, mul
from typing import Iterator, Optional, Sequence

from .curves import TreeShape
from .exactmath import IntMatrix, clear_denominators, fraction_free_rref
from .maps import (
    CombinatorialType,
    DiscreteData,
    TropicalStableMap,
    ev_trop,
    map_from_json,
    map_to_json,
    oriented,
    subdivide,
    type_from_json,
    type_to_json,
    validate,
)
from .moduli import (
    ConeRays,
    canonical_form,
    cone_rays,
    forced_edge_contacts,
    grow_trees,
    insert_leg,
    position_row,
    relabel_type,
    rooted_form,
    vertex_positions,
)
from .polyhedral import SCHEMA, Fan, fan_from_json, fan_to_json, locate, quotient_projection

Vec = tuple[int, ...]
Point = tuple[Fraction, ...]


class CodimensionMismatchError(ValueError):
    """Constraint codimensions do not cut the moduli down to dimension zero."""


class SingularError(ValueError):
    """The evaluation matrix of a type is singular against the constraints."""


class SolveCheckError(ValueError):
    """A solved map failed a self-check: a defect of the engine, not of the input."""


class NonGenericError(RuntimeError):
    """A solution landed on a cone boundary; reseed and recount."""


class NotPlanarPointProblemError(ValueError):
    pass


class CensusTooLargeError(ValueError):
    """The trivalent census over all legs is too large to grow."""


# The census over k legs holds all (2k-5)!! labeled trivalent trees, a whole
# level at a time: 135,135 at 9 legs, 2,027,025 at 10.
MAX_CENSUS_LEGS = 9


MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> Iterator[int]:
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class Constraint:
    label: int
    subspace: Optional[IntMatrix]  # columns span L; None is a point constraint
    translation: Point


@dataclass(frozen=True)
class ConstraintConfig:
    constraints: tuple[Constraint, ...]
    seed: int
    height_bound: int


@dataclass(frozen=True)
class CountProblem:
    gamma: DiscreteData
    constraints: ConstraintConfig
    # the constraints as integers, built once per problem: per evaluation row,
    # in label order, (label, covector), the identity's rows for a point and the
    # rows of its quotient projection for a subspace; beside them the projected
    # targets, cleared over one common denominator
    rows: tuple[tuple[int, Vec], ...] = field(init=False, repr=False, compare=False)
    targets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma.m < 1:
            raise ValueError("at least one marked point with trivial contact is required")
        self.gamma.check_contacts("counting")
        labels = {c.label for c in self.constraints.constraints}
        if labels != set(self.gamma.trivial_legs):
            raise ValueError("constraints must cover exactly the trivial legs")
        rows, projected = [], []
        for c in sorted(self.constraints.constraints, key=lambda c: c.label):
            if c.subspace is None:
                proj = IntMatrix.identity(self.gamma.fan.rank)
            else:
                proj = quotient_projection(self.gamma.fan, c.subspace)
            rows += [(c.label, proj.row(i)) for i in range(proj.rows)]
            projected += proj.apply(c.translation)
        targets, den = clear_denominators(projected)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "targets", tuple(targets))
        object.__setattr__(self, "denominator", den)

    def is_point_problem(self) -> bool:
        return all(c.subspace is None for c in self.constraints.constraints)


@dataclass(frozen=True)
class Contribution:
    type: CombinatorialType  # stabilized rigid type, canonical labeling
    map: TropicalStableMap  # solved and minimally subdivided
    multiplicity: int
    key: tuple


@dataclass(frozen=True)
class CountResult:
    total: int
    contributions: tuple[Contribution, ...]
    seed_echo: int
    # types rejected as singular (SingularError); a non-generic solution
    # aborts the count for a reseed instead of adding to it
    rejected_nongeneric: int


def expected_codimension(fan: Fan, gamma: DiscreteData) -> int:
    return fan.rank - 3 + gamma.n + gamma.m


def generate_constraints(
    gamma: DiscreteData,
    subspaces: Optional[dict[int, Optional[IntMatrix]]] = None,
    seed: int = 0,
    height_bound: int = 32,
) -> ConstraintConfig:
    """Seeded generic translations for each trivial leg's constraint.

    Rationals are drawn from a splitmix64 stream, with numerator and
    denominator bounded by ``height_bound``; identical seeds give
    identical configurations on every platform.
    """
    if height_bound < 1:
        raise ValueError("height_bound must be positive")
    fan = gamma.fan
    subspaces = subspaces or {}
    total = 0
    for label in gamma.trivial_legs:
        basis = subspaces.get(label)
        dim_l = 0 if basis is None else basis.cols
        total += fan.rank - dim_l
    if total != expected_codimension(fan, gamma):
        raise CodimensionMismatchError(
            f"constraint codimension {total} != moduli dimension {expected_codimension(fan, gamma)}"
        )
    stream = _splitmix64(seed)
    constraints = []
    for label in sorted(gamma.trivial_legs):
        coords = []
        for _ in range(fan.rank):
            num = next(stream) % (2 * height_bound + 1) - height_bound
            den = next(stream) % height_bound + 1
            coords.append(Fraction(num, den))
        constraints.append(Constraint(label, subspaces.get(label), tuple(coords)))
    return ConstraintConfig(tuple(constraints), seed, height_bound)


def kontsevich_oracle(d: int) -> int:
    """Rational plane curve counts from the associativity recursion, exactly."""
    if d < 1:
        raise ValueError("degree must be positive")
    n = [0, 1]
    for deg in range(2, d + 1):
        total = 0
        for d1 in range(1, deg):
            d2 = deg - d1
            total += (
                n[d1]
                * n[d2]
                * d1 * d1 * d2
                * (d2 * comb(3 * deg - 4, 3 * d1 - 2) - d1 * comb(3 * deg - 4, 3 * d1 - 1))
            )
        n.append(total)
    return n[d]


# --- working trees and site tables -------------------------------------------
#
# During enumeration a stabilized type is held as a plain tuple
# (nv, edges, legs), as grown by ``moduli.grow_trees``: edges are bare
# (a, b) pairs and legs are (vertex, contact, label).  Edge contact orders
# are derived data (the sum of leg contacts beyond the head), recomputed
# when needed so that leaf insertions never have to patch them.
#
# The marked-point search reads its prunes off ``_site_tables``, built once
# per skeleton over site ids 0..E-1 (the edges) and E..E+L-1 (the legs):
# per site s, the walk masks from the other sites to a mark on s, grouped
# by mask, and one int that clears the ends such a mark cuts off from each
# site; and one int of the ends each site reaches on either side.


def _centres(nv: int, edges) -> list[int]:
    """The one or two vertices of least eccentricity, left by peeling leaves."""
    adj: list[set[int]] = [set() for _ in range(nv)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    left = set(range(nv))
    while len(left) > 2:
        leaves = [v for v in left if len(adj[v]) == 1]
        for v in leaves:
            adj[adj[v].pop()].discard(v)
        left.difference_update(leaves)
    return sorted(left)


def _tree_key(tree) -> tuple:
    """Isomorphism key of a working tree, rooted at its centres.

    A contact leg is its contact vector, a trivial leg its zero contact and
    label; edge contacts follow, so trees share a key iff their types share
    ``canonical_form(identify_contacts=True)``.
    """
    nv, edges, legs = tree
    at_vertex: list[list[Vec]] = [[] for _ in range(nv)]
    for v, c, label in legs:
        at_vertex[v].append(c if any(c) else c + (label,))
    vertex_tokens = [(tuple(sorted(cs)),) for cs in at_vertex]
    return rooted_form(nv, edges, vertex_tokens, [((), ())] * len(edges), _centres(nv, edges))[0]


def _skeleton_census(rank: int, contacts: Sequence[Vec]) -> list[tuple]:
    """Distinct stabilized trivalent trees over the contact legs, one per symmetry class.

    Trees are grown from the tripod by leaf insertion in a fixed contact
    order, and each level keeps the first tree of every ``_tree_key``, so
    the census never holds more than one representative per class.  A tree
    with a contracted internal edge is left out, as its evaluation matrices
    always carry a zero column: the last leg goes only at the sites that
    ``_uncontracted_sites`` leaves, before any child is keyed.  A contracted
    edge is an isomorphism invariant, so whole classes drop out and every
    other class keeps the same first tree.
    """
    if len(contacts) < 3:
        raise ValueError("skeleton census needs at least three contact legs")
    return grow_trees([(c, 0) for c in sorted(contacts)], _tree_key, partial(_uncontracted_sites, rank))


def _uncontracted_sites(rank: int, tree, leg) -> list[tuple[Optional[int], Optional[int]]]:
    """The ``insert_leg`` sites at which ``leg`` leaves ``tree`` no edge of zero contact, in site order.

    An edge carries the sum of the contacts beyond it (``forced_edge_contacts``),
    so the new leg's contact c adds to the edges whose far side it joins and
    leaves the rest.  An old edge of contact 0 survives only if the leg lands
    beyond it, one of contact -c only if it does not; a split edge's two
    halves carry its contact p and p + c, and a new edge at a leg of
    contact c' carries c' + c.

    These risky edges are bits: one parent walk from vertex 0 gives each
    vertex the bits of the risky edges on its path.  A vertex lies beyond
    edge (a, b) iff the edge's bit is set and its child end (the end farther
    from vertex 0) is b, or unset and that end is a; so a site passes iff
    its vertex's bits equal ``need`` once the bits of the edges whose child
    end is a are flipped.
    """
    nv, edges, legs = tree
    c = leg[0]
    zero, minus = (0,) * rank, tuple(-x for x in c)
    risky = need = 0
    for j, p in enumerate(forced_edge_contacts(nv, edges, ((v, x) for v, x, _ in legs), rank)):
        if p == zero or p == minus:
            risky |= 1 << j
            if p == zero:
                need |= 1 << j
    bits = [0] * nv
    if risky:
        for v, u, j in TreeShape.parent_walk(nv, edges, 0):
            bit = risky & 1 << j
            bits[v] = bits[u] | bit
            if edges[j][0] == v:
                need ^= bit
    sites: list[tuple[Optional[int], Optional[int]]] = [
        (i, None) for i, (a, _) in enumerate(edges) if not risky >> i & 1 and bits[a] == need
    ]
    sites += [(None, k) for k, (v, x, _) in enumerate(legs) if any(map(add, x, c)) and bits[v] == need]
    return sites


def _closed_cone_test(vs: Sequence[Vec], rank: int, stride: int = 1):
    """A function from directions to the bitset of the vs in their closed cone, vs[i] at bit stride*i.

    By Farkas' lemma v lies in the closed cone of the directions iff y.v >= 0
    for every y in the dual cone {y : d.y >= 0 for every direction d}: for
    each of its extreme rays (``moduli.cone_rays``), and for y and -y for each
    y of its lineality basis.  Each such y's bitset is cached, so a verdict is
    an AND of ints.  A direction set that is a cached one plus a direction d
    in the cached set's span, which is where every lineality vector vanishes,
    takes the cached dual: as it is when d lies in the cached cone (y.d >= 0
    on every ray), else cut by d in one double-description step
    (``ConeRays.cut``).  Any other set's dual is built from scratch.
    """
    every = sum(1 << stride * i for i in range(len(vs)))
    passing: dict[Vec, int] = {}  # y -> the bits of the vs with y.v >= 0
    bit_of: dict[Vec, int] = {}  # a bit per direction met
    known: dict[int, ConeRays] = {}  # a set of direction bits -> its dual

    def bits(y: Vec) -> int:
        if y not in passing:
            passing[y] = sum(1 << stride * i for i, v in enumerate(vs) if sum(map(mul, y, v)) >= 0)
        return passing[y]

    def verdicts(dirs: Sequence[Vec]) -> int:
        dirs = list(dict.fromkeys(d for d in dirs if any(d)))
        key = sum(bit_of.setdefault(d, 1 << len(bit_of)) for d in dirs)  # distinct dirs: an OR
        step = None  # a cached dual to cut, and the direction to cut it by
        for d in dirs:
            dual = known.get(key - bit_of[d])
            if dual is not None and not any(sum(map(mul, y, d)) for y in dual.lineality):
                if all(sum(map(mul, y, d)) >= 0 for y in dual.rays):
                    break
                step = step or (dual, d)
        else:
            dual = step[0].cut(step[1]) if step else cone_rays(dirs, rank)
        known[key] = dual
        ok = every
        for y in dual.rays:
            ok &= bits(y)
        for y in dual.lineality:
            ok &= bits(y) & bits(tuple(-x for x in y))
        return ok

    return verdicts


def _marked_dfs(problem: CountProblem, skeletons, trivial_labels):
    """Yield the completed trees over each skeleton in turn, pruning against the targets.

    The trivial legs, each pinned to a point, are inserted in label order,
    each at a fresh marked 2-valent vertex subdividing an edge or a contact
    leg.  A site must pass two tests, sound in every fan rank r >= 2 (a
    rank-1 point problem has two contact legs and never comes here):

    - end count: every component of the tree minus the marked vertices
      keeps a contact end, so a site is offered only when it reaches an
      end on each of its two sides without crossing a mark.  A component
      without an end is bounded by k >= 2 marks; at most 2k - 3 edge
      lengths move the r(k - 1) coordinates of the differences of their
      points, and 2k - 3 < r(k - 1), so generic points avoid it;
    - path cone: for every earlier point i, target i minus the new point's
      target lies in the closed cone of the directions of the walk from
      the new vertex to mark i, as two points of the tree differ by the
      sum of l_e c_e over the edges e between them, every l_e > 0.

    Four facts put both tests on static tables of the skeleton
    (``_site_tables``), the same for every node over it, and a fifth
    prunes by them:

    (i) Every site the search offers is an unused edge or leg of the
        skeleton.  Both halves of a split edge or leg (a moved leg is the
        outer half) touch a mark, and a new mark on either would leave the
        open segment between the two marks as a component without an end.
        So a point's sites are a bitset over the skeleton's E + L edges and
        legs.  ``insert_leg`` keeps the unused skeleton edges and legs, in
        order, ahead of all it appends, so ascending bit order is tree
        order, and a site's index among the tree's edges (legs) is its
        index among the skeleton's edges (legs) minus the used ones below
        it.
    (ii) The walk from site t to a mark on site s has the ray mask of the
        skeleton walk between their midpoints: subdividing an edge keeps
        its direction on both halves.
    (iii) A mark on s cuts off, from each site t, exactly the contact ends
        beyond s: an end reaches t unless a mark lies on the skeleton path
        between them, and that path passes through s exactly when the end
        lies on the far side of s from t.  With ``reach`` holding, in one
        field per site t, the ends t reaches on each of its sides, a mark
        on s sets ``reach &= notfar[s]``, which clears from field t the
        ends beyond s and all of field s, and t passes the end count while
        neither side of its field is empty.
    (iv) The cone test of a site t of point k against the mark of an
        earlier point j on s reads only the walk mask from t to s, so by
        (ii) a pair's verdict depends only on its two sites: the pair
        relation is a static table of the skeleton.  ``compat[s]`` packs
        it in one int, whose field (j, k) of E + L bits holds the sites of
        point k compatible with a mark of point j on s, built from the
        mask groups and one verdict over all pairs per walk mask.  By
        Farkas' lemma a pair lies in the mask's cone iff it is >= 0 on each
        extreme ray of the dual cone and 0 on its lineality space, one rule
        for every rank (``_closed_cone_test``).
    (v) In any completed tree below a node, its later points sit on
        distinct sites, each among its sites at the node: by (i) a site
        with a mark is never offered again, and a child's sites are among
        its parent's (below).  So the later points' site bitsets have
        distinct representatives, and by Hall's theorem any i of them hold
        at least i sites together.  The search asks it of the i bitsets of
        fewest sites, for each i (``_distinct_sites``): a child that fails
        completes nothing.

    Each node carries the sites of every later point.  A child's sites are
    among its parent's (by (ii) the tests against earlier marks stay as
    they were, and the end count only tightens), so a child keeps those
    that pass the end count and its pair fields against its own mark.  The
    end count is packed: ``reach`` and ``notfar[s]`` hold a field of 2L
    bits per site, its two sides of L bits, so a mark is one AND.  In
    ``end_sites`` a carry test leaves a flag at the top bit of each
    nonempty side, and one multiply gathers the sites with both flags into
    a bitset.  The copies it shifts together never meet, as the E + L
    fields are 2L bits apart and E + L <= 2L - 1 (a stable tree with L legs
    has at most L - 3 edges); the multiply leaves stray copies from bit
    E + L up, which a mask drops.

    The sites are packed too.  A node for point j holds one int whose field
    k - j, of E + L bits, holds the sites of point k >= j, the layout of
    ``compat[s] >> first[j]·(E + L)`` shifted up by one field.  So with
    ``rest`` the node's int less its field 0, and ``rep`` one bit per field,
    a child's sites are one AND, ``rest & compat[s] >> shift & passing·rep``.
    The lookahead drops a child in which a later point has no site left, by
    a carry test that flags each nonempty field as ``end_sites`` flags a
    side, and then a child that fails (v); only then are its fields unpacked.
    All of this reads only the tables and bitsets, so a child's tree is
    built (``insert_leg``) only once it has passed the lookahead, and a
    dropped child costs no tree.  A completed tree passes both tests in any
    insertion order (the cone test is symmetric in the two points, the end
    count weakens as marks are removed), and the lookahead drops only
    subtrees that complete nothing: the same trees come out in the same
    order.
    """
    rank = problem.gamma.fan.rank
    zero = (0,) * rank
    last = len(trivial_labels)
    # direction alphabet, one bit per ray: bits[c] = (bit of +c, bit of -c)
    alphabet: dict[Vec, int] = {}
    bits: dict[Vec, tuple[int, int]] = {}

    def bits_of(c: Vec) -> tuple[int, int]:
        got = bits.get(c)
        if got is None:
            g = gcd(*c)  # a ray and its opposite enter the alphabet together
            rays = (tuple(s * x // g for x in c) for s in (1, -1))
            got = bits[c] = tuple(alphabet.setdefault(d, 1 << len(alphabet)) for d in rays)
        return got

    # each point's target is its rows' cleared targets; the cone tests are scale-invariant
    points = [
        tuple(b for (lab, _), b in zip(problem.rows, problem.targets) if lab == label) for label in trivial_labels
    ]
    # pair (j, k), j < k, is field first[j] + k - j - 1, for the vector target j - target k
    pairs = [tuple(a - b for a, b in zip(tj, tk)) for j, tj in enumerate(points) for tk in points[j + 1 :]]
    first = [j * (2 * last - j - 1) // 2 for j in range(last)]
    pair_fields: dict[int, int] = {}  # walk mask -> the fields of the pairs whose cone test it passes
    # every skeleton has the L contact legs and L - 3 edges; a field of 2L bits per site
    n_legs = problem.gamma.n
    n_edges = n_legs - 3
    n_sites = n_edges + n_legs
    in_cone = _closed_cone_test(pairs, rank, n_sites)
    per_site = sum(1 << t * 2 * n_legs for t in range(n_sites))
    low = (per_site | per_site << n_legs) * ((1 << n_legs - 1) - 1)  # the low L - 1 bits of each side
    high = (per_site | per_site << n_legs) << n_legs - 1  # the top bit of each side
    near = per_site << n_legs - 1  # the top bit of each site's side 0
    gather = sum(1 << u * (2 * n_legs - 1) for u in range(n_sites))
    gather_at = n_legs - 1 + (n_sites - 1) * (2 * n_legs - 1)
    one_site = (1 << n_sites) - 1
    # the packed lookahead: one field of E + L bits per point, as in a row of compat
    rep = sum(1 << u * n_sites for u in range(last))
    field_low = rep * (one_site >> 1)  # the low E + L - 1 bits of each field
    field_high = rep << n_sites - 1  # the top bit of each field

    def end_sites(reach):
        # the sites with an end on both sides
        sides = ((reach & low) + low | reach) & high
        return (sides & sides >> n_legs & near) * gather >> gather_at & one_site

    def rec(tree, used, reach, j, open_sites):
        # field k - j of open_sites: the site bitset of point k, for every k >= j
        if j == last:
            yield tree
            return
        leg = (zero, trivial_labels[j])
        todo = open_sites & one_site
        rest = open_sites >> n_sites
        shift = first[j] * n_sites
        k = last - j - 1  # the later points
        full = field_high & (1 << k * n_sites) - 1  # the top bits of their fields
        while todo:
            bit = todo & -todo
            todo ^= bit
            s = bit.bit_length() - 1
            child_reach = reach & notfar[s]
            later = rest & compat[s] >> shift & end_sites(child_reach) * rep
            if ((later & field_low) + field_low | later) & field_high != full:
                continue  # the lookahead: a later point has no site left
            if not _distinct_sites(later, k, n_sites):
                continue  # (v)
            below = used & (bit - 1)
            if s < n_edges:
                child = insert_leg(tree, leg, s - below.bit_count())
            else:
                child = insert_leg(tree, leg, None, s - n_edges - (below >> n_edges).bit_count())
            yield from rec(child, used | bit, child_reach, j + 1, later)

    for skeleton in skeletons:  # rec reads the tables of the skeleton in hand
        nv, edges, legs = skeleton
        lbits = [bits_of(c) for _, c, _ in legs]
        ebits = [bits_of(c) for c in forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), rank)]
        groups, notfar, reach = _site_tables(skeleton, ebits, lbits)
        for mask in {mask for row in groups for mask, _ in row}.difference(pair_fields):
            pair_fields[mask] = in_cone([d for d, b in alphabet.items() if mask & b])
        # a site's groups are disjoint, so the sum is an OR
        compat = [sum(group * pair_fields[mask] for mask, group in row) for row in groups]
        yield from rec(skeleton, 0, reach, 0, end_sites(reach) * rep)


def _distinct_sites(packed: int, k: int, width: int) -> bool:
    """Whether the k site bitsets packed in fields of ``width`` bits pass the
    distinct-sites rule: for each i, the i bitsets of fewest sites hold at
    least i sites together. These are some of Hall's inequalities, so a
    family with distinct representatives passes."""
    one = (1 << width) - 1
    fields = []
    for _ in range(k):
        fields.append(packed & one)
        packed >>= width
    fields.sort(key=int.bit_count)
    union = 0
    for i, sites in enumerate(fields):
        union |= sites
        if union.bit_count() <= i:
            return False
    return True


def _site_tables(skeleton, ebits: list[tuple[int, int]], lbits: list[tuple[int, int]]):
    """(groups, notfar, reach) of a skeleton, over site ids 0..E-1 (edges) and E..E+L-1 (legs).

    ``groups[s]`` lists, for a mark on site s, (walk mask, bitset of the
    sites t whose walk to the mark has that mask), from the midpoint of t
    to the midpoint of s.  The other two are packed, a field of 2L bits per
    site t at bit 2Lt: in ``reach`` it holds the legs that t reaches on its
    side 0 in its low L bits and on its side 1 in its high L bits; an edge
    (a, b) has a on side 0 and b on side 1, a leg has its vertex on side 0
    and its own end on side 1.  ``reach & notfar[s]`` clears from each
    field the legs beyond a mark on s, and all of field s.  ``ebits`` and
    ``lbits`` give each edge's and leg's (bit of +c, bit of -c), with an
    edge's c pointing from a to b and a leg's away from its vertex.
    """
    nv, edges, legs = skeleton
    n_edges, n_legs = len(edges), len(legs)
    width = 2 * n_legs
    # star[v]: per site t at v, (bit of t, low bit of the side of t that v is on in a field of
    # t, bit of the step from the midpoint of t to v, the vertex on the other side or None)
    star: list[list[tuple]] = [[] for _ in range(nv)]
    # per site and side: (the stack its walk starts from, the sites it holds beyond the walk);
    # a stack entry is (vertex, bit of the site stepped in by, mask of the walk from the vertex)
    sides = []
    for t, ((a, b), (plus, minus)) in enumerate(zip(edges, ebits)):
        star[a].append((1 << t, 1 << t * width, minus, b))
        star[b].append((1 << t, 1 << t * width + n_legs, plus, a))
        sides.append((([(a, 1 << t, plus)], 0), ([(b, 1 << t, minus)], 0)))
    for t, ((v, _, _), (plus, minus)) in enumerate(zip(legs, lbits), n_edges):
        star[v].append((1 << t, 1 << t * width, minus, None))
        sides.append((([(v, 1 << t, plus)], 0), ([], 1 << t)))  # side 1 is the leg's own end
    everything = (1 << width * len(sides)) - 1
    groups = []
    notfar = []
    reach = 0
    for s, s_sides in enumerate(sides):
        by_mask: dict[int, int] = {}
        ends = []  # per side of s: the legs on it
        facing = []  # per side of s: the low bit of the side facing s of each site on it
        for stack, found in s_sides:  # one walk out of each side of s
            seen = 0
            while stack:
                y, came, mask = stack.pop()
                for bit, low, out, z in star[y]:
                    if bit != came:
                        m = mask | out
                        by_mask[m] = by_mask.get(m, 0) | bit
                        found |= bit
                        seen |= low
                        if z is not None:
                            stack.append((z, bit, m))
            ends.append(found >> n_edges)
            facing.append(seen)
        groups.append(list(by_mask.items()))
        notfar.append(everything ^ ((1 << width) - 1) << s * width ^ ends[1] * facing[0] ^ ends[0] * facing[1])
        reach |= (ends[0] | ends[1] << n_legs) << s * width
    return groups, notfar, reach


def _labelled_legs(problem: CountProblem, legs) -> list[tuple[int, int, Vec]]:
    """(vertex, label, contact) of each leg of a working tree, in leg order.

    Contact legs in the census carry placeholder labels; the original labels
    are reassigned per contact order in a deterministic sweep, which is
    harmless because equally-decorated legs are interchangeable.
    """
    pool: dict[Vec, list[int]] = {}  # contact -> its labels, the least last
    for lab, c in sorted(problem.gamma.contact_legs, reverse=True):
        pool.setdefault(c, []).append(lab)
    return [(v, lab or pool[c].pop(), c) for v, c, lab in legs]


def _tree_to_type(problem: CountProblem, tree) -> CombinatorialType:
    """Stabilized combinatorial type (unconfined vertices) from a working tree,
    its legs labelled by ``_labelled_legs``; vertex ids are kept, and each edge
    is oriented tail < head, in sorted order."""
    nv, edges, legs = tree
    labelled = sorted(_labelled_legs(problem, legs), key=lambda t: t[1])
    derived = forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), problem.gamma.fan.rank)
    oriented_edges = sorted(oriented(a, b, c) for (a, b), c in zip(edges, derived))
    shape = TreeShape(nv, tuple(e for e, _ in oriented_edges), tuple((v, lab) for v, lab, _ in labelled))
    return CombinatorialType(
        problem.gamma.fan,
        shape,
        (None,) * nv,
        tuple(c for _, c in oriented_edges),
        (None,) * len(edges),
        tuple(c for _, _, c in labelled),
        (None,) * len(labelled),
    )


def _rigid_trees(problem: CountProblem, skeletons: Optional[list[tuple]]) -> Iterator[tuple]:
    """Working trees of the stabilized types that the constraints may make
    rigid, one tree per type.

    A skeleton list runs the marked-point search over it, which drops only
    trees that cannot meet the seeded targets; None runs the census over all
    legs. Both grow trees of L - 3 edges over L legs, whose moduli cones have
    the constraint codimension, the rank plus L - 3, as their dimension;
    fewer than three legs leave no stable tree. When two contact legs share a
    contact vector, trees are deduplicated on ``_tree_key``; no type spans
    two skeletons, so a chunk's dedup holds. When no two do, each leg is told
    apart by its contact or its label, so no two trees share a key, and none
    is taken.
    """
    gamma = problem.gamma
    if gamma.n + gamma.m < 3:
        return
    if skeletons is None:
        trees = grow_trees([(c, lab) for lab, c in _census_legs(problem)])
    else:
        trees = _marked_dfs(problem, skeletons, sorted(gamma.trivial_legs))
    contacts = [c for _, c in gamma.contact_legs]
    if len(set(contacts)) == len(contacts):
        yield from trees
        return
    seen = set()
    for tree in trees:
        key = _tree_key(tree)
        if key not in seen:
            seen.add(key)
            yield tree


def _searches_skeletons(problem: CountProblem) -> bool:
    """Whether ``count`` runs the skeleton census and marked-point search."""
    return problem.is_point_problem() and problem.gamma.n >= 3


def _census_legs(problem: CountProblem) -> list[tuple[int, Vec]]:
    """(label, contact) of every leg for the census over all legs, which
    subspace constraints and fewer than three contact legs need; raises
    CensusTooLargeError past ``MAX_CENSUS_LEGS`` legs."""
    gamma = problem.gamma
    zero = (0,) * gamma.fan.rank
    legs = sorted([*gamma.contact_legs, *((lab, zero) for lab in gamma.trivial_legs)])
    k = len(legs)
    if k > MAX_CENSUS_LEGS:
        raise CensusTooLargeError(
            f"the census over {k} legs would grow {prod(range(1, 2 * k - 4, 2)):,} "
            f"labeled trivalent trees; at most {MAX_CENSUS_LEGS} legs are supported"
        )
    return legs


def evaluation_matrix(theta: CombinatorialType, problem: CountProblem) -> IntMatrix:
    """Stacked constrained evaluations of an unconfined stabilized type.

    Columns are the position of the vertex carrying leg 1, the root of
    ``moduli.moduli_cone``, followed by the internal edge lengths, a basis
    of the type's moduli lattice; rows are the projected evaluations of the
    trivial legs in label order, each projection row p read at its leg's
    vertex by ``moduli.position_row``.
    """
    if any(cone is not None for cone in theta.vertex_cones):
        raise ValueError("evaluation matrices are built for unconfined stabilized types")
    shape = theta.shape
    at = {lab: v for v, lab in shape.legs}
    rows, _ = _evaluation_rows(problem, shape.vertices, shape.edges, theta.edge_contacts, at)
    return IntMatrix.from_rows(rows, problem.gamma.fan.rank + len(shape.edges))


def _evaluation_rows(problem: CountProblem, vertices: int, edges, contacts, leg_vertex: dict[int, int]):
    """The rows of ``evaluation_matrix`` of a tree on bare ``(a, b)`` edges,
    each of contact pointing from a to b, with ``leg_vertex`` taking a label
    to its leg's vertex; and the ``signed_paths`` from its root, the vertex
    of leg 1, that they read. A type and a working tree share it."""
    paths = TreeShape.signed_paths(vertices, edges, leg_vertex[1])
    rows = [position_row(p, paths[leg_vertex[label]], contacts) for label, p in problem.rows]
    return rows, paths


def _lattice_index(rows: list[list[int]], n: int) -> int:
    """|det| of the n-column evaluation matrix in ``rows``, by one ``fraction_free_rref``
    in place that carries any later columns: the |last pivot|, or 0 below full rank.
    SingularError unless the matrix is square, or if a carried column leaves its span."""
    if len(rows) != n:
        raise SingularError("evaluation system is not square")
    pivots, d = fraction_free_rref(rows, n)
    if any(any(row[n:]) for row in rows[len(pivots) :]):
        raise SingularError("evaluation matrix is singular (inconsistent)")
    return abs(d) if len(pivots) == n else 0


def multiplicity(theta: CombinatorialType, problem: CountProblem) -> int:
    """The type's contribution weight, the lattice index |det| of its evaluation
    matrix (``_lattice_index``); SingularError unless it is square and of full rank."""
    m = evaluation_matrix(theta, problem)
    index = _lattice_index(m.to_lists(), m.cols)
    if not index:
        raise SingularError("type is not rigid against this constraint pattern")
    return index


def mikhalkin_multiplicity(theta: CombinatorialType) -> int:
    """Product over trivalent image vertices of |det| of two outgoing directions.

    Defined for planar point conditions: the fan has rank 2 and forgetting
    the trivial legs leaves a trivalent tree.
    """
    if theta.fan.rank != 2:
        raise NotPlanarPointProblemError("vertex multiplicities need a rank-2 fan")
    nv = theta.shape.vertices
    star: list[list[Vec]] = [[] for _ in range(nv)]
    for (a, b), c in zip(theta.shape.edges, theta.edge_contacts):
        star[a].append(c)
        star[b].append(tuple(-x for x in c))
    for (v, _), c in zip(theta.shape.legs, theta.leg_contacts):
        if any(c):
            star[v].append(c)
    total = 1
    for v in range(nv):
        outs = star[v]
        if len(outs) == 2:
            continue  # straightened away by stabilization
        if len(outs) != 3:
            raise NotPlanarPointProblemError(f"vertex {v} has {len(outs)} non-contracted branches")
        total *= abs(outs[0][0] * outs[1][1] - outs[0][1] * outs[1][0])
    return total


def _solve_tree(problem: CountProblem, tree):
    """Solve the evaluation system of one working tree, on its bare edges.

    The rows are ``_evaluation_rows`` of the tree, its legs labelled by
    ``_labelled_legs`` and its edge contacts by ``forced_edge_contacts``.
    ``_lattice_index`` of the evaluation matrix, with the cleared targets
    b·den carried, leaves row i as d·(e_i | x_i·den) and the weight |d|; the
    positions sum along the rows' ``signed_paths``. A negative length puts
    the solution outside the closed cone, a miss, and otherwise a zero
    length is non-generic, whatever the edge order. Only a solution builds
    its type (``_tree_to_type``, which keeps the vertex ids, so the
    positions carry over), its lengths put in the type's edge order.
    Returns (type, map, weight), or None for a miss; raises SingularError,
    NonGenericError (also for a consistent system below full rank) and
    SolveCheckError.
    """
    fan = problem.gamma.fan
    r = fan.rank
    nv, edges, legs = tree
    contacts = forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), r)
    at = {lab: v for v, lab, _ in _labelled_legs(problem, legs)}
    rows, paths = _evaluation_rows(problem, nv, edges, contacts, at)
    for row, b in zip(rows, problem.targets):
        row.append(b)
    weight = _lattice_index(rows, r + len(edges))
    if not weight:
        raise NonGenericError("constraints meet a positive-dimensional family")
    den = problem.denominator
    values = [Fraction(row[-1], row[i] * den) for i, row in enumerate(rows)]
    lengths = values[r:]
    if any(l < 0 for l in lengths):
        return None
    if 0 in lengths:
        raise NonGenericError("a solved edge length is exactly zero")
    theta = _tree_to_type(problem, tree)
    shape = theta.shape
    by_edge = {(min(a, b), max(a, b)): l for (a, b), l in zip(edges, lengths)}
    positions = tuple(tuple(p) for p in vertex_positions(values, paths, contacts))
    full = subdivide(TropicalStableMap(theta, positions, tuple(by_edge[e] for e in shape.edges)))
    cones = full.type.vertex_cones
    if any(fan.dim(cone) != r for cone in cones[: shape.vertices]):
        raise NonGenericError("a stabilized vertex landed on a wall")
    if any(fan.dim(cone) != r - 1 for cone in cones[shape.vertices :]):
        raise NonGenericError("an edge crossed a stratum of codimension > 1")
    report = validate(full)
    if not report.valid:
        raise SolveCheckError(
            f"seed {problem.constraints.seed}: the map solved from the vertex of leg 1 "
            f"for type {shape} fails validation: {sorted(report.conditions())}"
        )
    cosets = {label: ev_trop(full, label).coset for label in problem.gamma.trivial_legs}
    for (label, p), b in zip(problem.rows, problem.targets):
        if sum(map(mul, p, cosets[label])) * den != b:
            raise SolveCheckError(
                f"seed {problem.constraints.seed}: the map solved from the vertex of leg 1 "
                f"for type {shape} misses the constraint translate of leg {label}"
            )
    return theta, full, weight


def _check_problem_genericity(problem: CountProblem) -> None:
    fan = problem.gamma.fan
    if problem.is_point_problem():
        for c in problem.constraints.constraints:
            cone = locate(fan, c.translation)
            if fan.dim(cone) != fan.rank:
                raise NonGenericError(f"target for leg {c.label} lies on a wall")


def count(problem: CountProblem, threads: int = 1) -> CountResult:
    """Sum lattice multiplicities of rigid types solved against the constraints.

    The result is independent of the seed for generic seeds and of the
    worker count; contribution lists are canonically sorted.  This is the
    one place that picks where the trees come from: a point problem with at
    least three contact legs (``_searches_skeletons``) builds the skeleton
    census once and deals it to at most one worker per skeleton, and to no
    more workers than the CPUs this process may run on (``_usable_cpus``),
    each running the marked-point search over its chunk; any other problem
    runs the census over all legs in one worker.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, not {threads}")
    _check_problem_genericity(problem)
    if _searches_skeletons(problem):  # one census, dealt out skeleton by skeleton
        census = _skeleton_census(problem.gamma.fan.rank, [c for _, c in problem.gamma.contact_legs])
        workers = max(1, min(threads, len(census), _usable_cpus()))  # an empty census still runs one worker
        chunks = [census[i::workers] for i in range(workers)]
    else:
        chunks = [None]  # the census over all legs, in one worker
    results = _map_workers(problem, chunks) if len(chunks) > 1 else [_count_worker((problem, chunks[0]))]
    # chunks never share a type (see _rigid_trees)
    contributions = sorted((c for items, _ in results for c in items), key=lambda c: c.key)
    rejected = sum(rej for _, rej in results)
    total = sum(c.multiplicity for c in contributions)
    return CountResult(total, tuple(contributions), problem.constraints.seed, rejected)


def _count_worker(args):
    """Solve the rigid types of one chunk of skeletons (None: the census over
    all legs), the trees of ``_rigid_trees``; returns the contributions and
    the number of trees rejected as singular."""
    problem, skeletons = args
    contributions = []
    rejected = 0
    for tree in _rigid_trees(problem, skeletons):
        try:
            solved = _solve_tree(problem, tree)
        except SingularError:
            rejected += 1
            continue
        if solved is not None:
            theta, full, mult = solved
            key, relabel = canonical_form(theta, identify_contacts=True)
            contributions.append(Contribution(relabel_type(theta, relabel), full, mult, key))
    return contributions, rejected


def _usable_cpus() -> int:
    import os

    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_workers(problem: CountProblem, chunks: list):
    import multiprocessing as mp

    with mp.Pool(len(chunks)) as pool:
        return pool.map(_count_worker, [(problem, chunk) for chunk in chunks])


# --- JSON interface --------------------------------------------------------


def count_result_to_json(problem: CountProblem, result: CountResult) -> dict:
    """The count's JSON data; its ``contributions`` are a one-shot iterator
    that builds each entry when it is read, for ``cli._emit`` to write one at
    a time, as ``moduli.complex_to_json`` gives its cones."""
    return {
        "schema": SCHEMA,
        "kind": "count",
        "fan": fan_to_json(problem.gamma.fan),
        "contact_legs": [[lab, list(c)] for lab, c in problem.gamma.contact_legs],
        "trivial_legs": list(problem.gamma.trivial_legs),
        "seed": result.seed_echo,
        "height_bound": problem.constraints.height_bound,
        "total": result.total,
        "rejected_nongeneric": result.rejected_nongeneric,
        "contributions": (
            {
                "multiplicity": c.multiplicity,
                "type": type_to_json(c.type),
                "map": map_to_json(c.map),
            }
            for c in result.contributions
        ),
    }


def count_result_from_json(data: dict) -> CountResult:
    fan = fan_from_json(data["fan"])
    contributions = []
    for entry in data["contributions"]:
        theta = type_from_json(fan, entry["type"])
        solved = map_from_json(entry["map"])
        key, _ = canonical_form(theta, identify_contacts=True)
        contributions.append(Contribution(theta, solved, entry["multiplicity"], key))
    total = data["total"]
    if total != sum(c.multiplicity for c in contributions):
        raise ValueError("stored total disagrees with the contributions")
    return CountResult(total, tuple(contributions), data["seed"], data["rejected_nongeneric"])

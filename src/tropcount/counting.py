"""Degrees of tropical evaluation maps: rigid types, lattice multiplicities, counts.

The count of rational curves through seeded generic constraints is the sum
of lattice indices of evaluation matrices over rigid combinatorial types.
Enumeration works with stabilized types (no subdivision vertices): a
skeleton census over the contact legs is grown by inserting the marked
legs one at a time, with sound pruning against the seeded targets; each
surviving type is solved exactly and its solution accepted only in the
interior of the moduli cone.  Boundary solutions abort the whole count so
the caller can reseed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import comb, gcd, prod
from operator import lshift
from typing import Iterator, Optional, Sequence

from .curves import TreeShape
from .exactmath import IntMatrix, clear_denominators, determinant, solve_rational
from .maps import (
    CombinatorialType,
    DiscreteData,
    TropicalStableMap,
    ev_trop,
    oriented,
    subdivide,
    torically_transverse,
    validate,
)
from .moduli import (
    canonical_form,
    forced_edge_contacts,
    grow_trees,
    insert_leg,
    relabel_type,
    rooted_form,
)
from .polyhedral import Fan, locate, quotient_projection

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
    fan: Fan
    gamma: DiscreteData
    constraints: ConstraintConfig
    # label -> (projection onto N / L, projected target), built once per problem
    projected: dict[int, tuple[IntMatrix, Point]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma.m < 1:
            raise ValueError("at least one marked point with trivial contact is required")
        if not torically_transverse(self.gamma):
            raise ValueError("counting requires torically transverse contact data")
        labels = {c.label for c in self.constraints.constraints}
        if labels != set(self.gamma.trivial_legs):
            raise ValueError("constraints must cover exactly the trivial legs")
        projected = {}
        for c in self.constraints.constraints:
            if c.subspace is None:
                proj = IntMatrix.identity(self.fan.rank)
            else:
                proj = quotient_projection(self.fan, c.subspace).projection
            projected[c.label] = (proj, tuple(proj.apply(list(c.translation))))
        object.__setattr__(self, "projected", projected)

    def target(self, label: int) -> Point:
        for c in self.constraints.constraints:
            if c.label == label:
                return c.translation
        raise KeyError(label)

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
# by mask, and the ends that such a mark cuts off from each site; and per
# site, the contact ends it reaches on either side before any mark.


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


def _skeleton_key(tree) -> tuple:
    """Isomorphism key of a census tree, rooted at its centres.

    Census legs all carry placeholder labels, so each leg is identified by
    its contact vector alone.
    """
    nv, edges, legs = tree
    at_vertex: list[list[Vec]] = [[] for _ in range(nv)]
    for v, c, _ in legs:
        at_vertex[v].append(c)
    vertex_tokens = [(tuple(sorted(cs)),) for cs in at_vertex]
    return rooted_form(nv, edges, vertex_tokens, [((), ())] * len(edges), _centres(nv, edges))[0]


def _skeleton_census(rank: int, contacts: Sequence[Vec]) -> list[tuple]:
    """Distinct stabilized trivalent trees over the contact legs, one per symmetry class.

    Trees are grown from the tripod by leaf insertion in a fixed contact
    order with canonical deduplication after every level, so the census
    never holds more than one representative per class.
    """
    if len(contacts) < 3:
        raise ValueError("skeleton census needs at least three contact legs")
    trees = grow_trees([(c, 0) for c in sorted(contacts)], _skeleton_key)
    # drop skeletons with a contracted internal edge: their evaluation
    # matrices always carry a zero column
    return [
        (nv, edges, legs)
        for nv, edges, legs in trees
        if all(any(c) for c in forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), rank))
    ]


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _by_angle(a: Vec, b: Vec) -> int:
    """Compare nonzero plane vectors by angle in [0, 2pi) from the positive x-axis."""
    return ((a[1], a[0]) < (0, 0)) - ((b[1], b[0]) < (0, 0)) or _cross(b, a)


def _cone_verdicts(dirs: Sequence[Vec], vs: Sequence[Vec]) -> int:
    """Bit i is set iff vs[i] lies in the closed cone spanned by dirs (rank 2, exact).

    The gaps of at least pi between neighbours of the primitive rays of
    dirs, sorted by angle, give the cone: none, the plane; two (of pi), a
    line; one of pi, a closed half-plane; one of more, the pointed sector
    between its ends.  It is kept as the vectors u with v in the cone iff
    cross(u, v) >= 0 for each u: at most two, but three for one ray and
    four for none.
    """
    rays = sorted({(d[0] // gcd(*d), d[1] // gcd(*d)) for d in dirs if any(d)}, key=cmp_to_key(_by_angle))
    wide = [(a, b) for a, b in zip(rays, rays[1:] + rays[:1]) if _cross(a, b) <= 0]
    if not wide:  # the plane, or {0} when there is no ray
        bounds = [] if rays else [(1, 0), (-1, 0), (0, 1), (0, -1)]
    elif len(wide) == 2:  # the line through a = -b
        bounds = list(wide[0])
    else:  # from b counterclockwise to a: a half-plane if b = -a; for one ray a = b, also a.v >= 0
        a, b = wide[0]
        bounds = [b, (-a[0], -a[1])] + [(a[1], -a[0])] * (len(rays) == 1)
    return sum(1 << i for i, v in enumerate(vs) if all(_cross(u, v) >= 0 for u in bounds))


def _integer_targets(problem: CountProblem) -> dict[int, Vec]:
    """Targets rescaled by a common denominator; cone tests are scale-invariant."""
    constraints = problem.constraints.constraints
    cleared = iter(clear_denominators([x for c in constraints for x in c.translation])[0])
    return {c.label: tuple(next(cleared) for _ in c.translation) for c in constraints}


def _marked_dfs(problem: CountProblem, skeletons, trivial_labels):
    """Yield the completed trees over each skeleton in turn, pruning against the targets.

    The trivial legs are inserted in label order, each at a fresh marked
    2-valent vertex subdividing an edge or a contact leg.  For planar point
    conditions a site must pass two sound tests:

    - end count: every component of the tree minus the marked vertices
      keeps a contact end, so a site is offered only when it reaches an
      end on each of its two sides without crossing a mark;
    - path cone: for every earlier point i, target i minus the new point's
      target lies in the closed cone of the directions of the walk from
      the new vertex to mark i.

    Four facts put both tests on static tables of the skeleton
    (``_site_tables``), the same for every node over it:

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
        lies on the far side of s from t.  With ``reach[t]`` the ends t
        reaches on each of its sides, a mark on s sets
        ``reach[t] &= notfar[s][t]``, and t passes the end count while
        neither side is empty.
    (iv) The cone test of a site t of point k against the mark of an
        earlier point j on s reads only the walk mask from t to s, so by
        (ii) a pair's verdict depends only on its two sites: the pair
        relation is a static table of the skeleton.  ``compat[s]`` packs
        it in one int, whose field (j, k) of E + L bits holds the sites of
        point k compatible with a mark of point j on s, built from the
        mask groups and one verdict bitset over all pairs per walk mask.

    Each node carries the sites of every later point.  A child's sites are
    among its parent's (by (ii) the tests against earlier marks stay as
    they were, and the end count only tightens), so a child keeps those
    that pass the end count and its pair fields against its own mark.  The
    end count is packed: ``reach`` and ``notfar[s]`` hold a field of 2L
    bits per site, its two sides of L bits, so a mark is one AND.  A carry
    test leaves a flag at the top bit of each nonempty side, and one
    multiply gathers the sites with both flags into a bitset.  The copies
    it shifts together never meet, as the E + L fields are 2L bits apart
    and E + L <= 2L - 1 (a stable tree with L legs has at most L - 3
    edges).  The lookahead drops a child in which a later point has no
    site left.  A completed tree passes both tests in any insertion order
    (the cone test is symmetric in the two points, the end count weakens as
    marks are removed), so the lookahead drops only subtrees that complete
    nothing: the same trees come out in the same order.  Other point problems
    insert every leg at every site, without pruning.
    """
    zero = (0,) * problem.fan.rank
    last = len(trivial_labels)
    if not (problem.is_point_problem() and problem.fan.rank == 2):

        def grow(tree, j):
            if j == last:
                yield tree
                return
            leg = (zero, trivial_labels[j])
            for te in range(len(tree[1])):
                yield from grow(insert_leg(tree, leg, te), j + 1)
            for tl, (_, c, _) in enumerate(tree[2]):
                if any(c):
                    yield from grow(insert_leg(tree, leg, None, tl), j + 1)

        for skeleton in skeletons:
            yield from grow(skeleton, 0)
        return

    # direction alphabet, one bit per ray: bits[c] = (bit of +c, bit of -c)
    alphabet: dict[Vec, int] = {}
    bits: dict[Vec, tuple[int, int]] = {}

    def bits_of(c: Vec) -> tuple[int, int]:
        got = bits.get(c)
        if got is None:
            g = gcd(*c)
            ray = (c[0] // g, c[1] // g)
            for d in (ray, (-ray[0], -ray[1])):
                if d not in alphabet:
                    alphabet[d] = 1 << len(alphabet)
            got = bits[c] = (alphabet[ray], alphabet[(-ray[0], -ray[1])])
        return got

    targets = _integer_targets(problem)
    points = [targets[label] for label in trivial_labels]
    # pair (j, k), j < k, is field first[j] + k - j - 1, for the vector target j - target k
    pairs = [(tj[0] - tk[0], tj[1] - tk[1]) for j, tj in enumerate(points) for tk in points[j + 1 :]]
    first = [j * (2 * last - j - 1) // 2 for j in range(last)]
    pair_fields: dict[int, int] = {}  # walk mask -> the fields of the pairs whose cone test it passes
    # every skeleton has the L contact legs and L - 3 edges; a field of 2L bits per site
    n_legs = problem.gamma.n
    n_edges = n_legs - 3
    n_sites = n_edges + n_legs
    per_site = sum(1 << t * 2 * n_legs for t in range(n_sites))
    low = (per_site | per_site << n_legs) * ((1 << n_legs - 1) - 1)  # the low L - 1 bits of each side
    high = (per_site | per_site << n_legs) << n_legs - 1  # the top bit of each side
    near = per_site << n_legs - 1  # the top bit of each site's side 0
    gather = sum(1 << u * (2 * n_legs - 1) for u in range(n_sites))
    gather_at = n_legs - 1 + (n_sites - 1) * (2 * n_legs - 1)
    offsets = [t * 2 * n_legs for t in range(n_sites)]

    def rec(tree, used, reach, j, open_sites):
        # open_sites[k - j]: the site bitset of point k, for every k >= j
        if j == last:
            yield tree
            return
        leg = (zero, trivial_labels[j])
        todo = open_sites[0]
        while todo:
            bit = todo & -todo
            todo ^= bit
            s = bit.bit_length() - 1
            below = used & (bit - 1)
            if s < n_edges:
                child = insert_leg(tree, leg, s - below.bit_count())
            else:
                child = insert_leg(tree, leg, None, s - n_edges - (below >> n_edges).bit_count())
            child_reach = reach & notfar[s]
            sides = ((child_reach & low) + low | child_reach) & high
            passing = (sides & sides >> n_legs & near) * gather >> gather_at
            row = compat[s] >> first[j] * n_sites
            later = []
            for sites in open_sites[1:]:
                sites &= passing & row
                if not sites:
                    break  # the lookahead: a later point has no site left
                later.append(sites)
                row >>= n_sites
            else:
                yield from rec(child, used | bit, child_reach, j + 1, later)

    for skeleton in skeletons:  # rec reads the tables of the skeleton in hand
        nv, edges, legs = skeleton
        lbits = [bits_of(c) for _, c, _ in legs]
        ebits = [bits_of(c) for c in forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), 2)]
        groups, notfar_rows, reach_row = _site_tables(skeleton, ebits, lbits)
        for mask in {mask for row in groups for mask, _ in row}.difference(pair_fields):
            ok = _cone_verdicts([d for d, b in alphabet.items() if mask & b], pairs)
            pair_fields[mask] = sum(1 << f * n_sites for f in range(len(pairs)) if ok >> f & 1)
        # a site's groups are disjoint, so the sum is an OR
        compat = [sum(group * pair_fields[mask] for mask, group in row) for row in groups]
        notfar = [sum(map(lshift, row, offsets)) for row in notfar_rows]
        reach = sum(map(lshift, reach_row, offsets))
        yield from rec(skeleton, 0, reach, 0, [_end_sites(reach_row, n_legs)] * last)


def _site_tables(skeleton, ebits: list[tuple[int, int]], lbits: list[tuple[int, int]]):
    """(groups, notfar, reach) of a skeleton, over site ids 0..E-1 (edges) and E..E+L-1 (legs).

    ``groups[s]`` lists, for a mark on site s, (walk mask, bitset of the
    sites t whose walk to the mark has that mask), from the midpoint of t
    to the midpoint of s.  ``reach[t]`` holds the legs that t reaches on
    its side 0 in bits 0..L-1 and on its side 1 in bits L..2L-1; an edge
    (a, b) has a on side 0 and b on side 1, a leg has its vertex on side 0
    and its own end on side 1.  ``notfar[s][t]`` clears from ``reach[t]``
    the legs beyond a mark on s, and ``notfar[s][s]`` clears it all.
    ``ebits``/``lbits`` give each edge's and leg's (bit of +c, bit of -c),
    with an edge's c pointing from a to b and a leg's away from its vertex.
    """
    nv, edges, legs = skeleton
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for (a, b), (plus, minus) in zip(edges, ebits):
        adj[a].append((b, plus))
        adj[b].append((a, minus))
    # walk[x][y]: the rays of the walk from vertex x to y; first[x][y]: its first step
    walk = []
    first = []
    for x in range(nv):
        mask = [0] * nv
        step = [-1] * nv
        step[x] = x
        stack = [x]
        while stack:
            y = stack.pop()
            for z, ray in adj[y]:
                if step[z] == -1:
                    step[z] = z if y == x else step[y]
                    mask[z] = mask[y] | ray
                    stack.append(z)
        walk.append(mask)
        first.append(step)
    # per site and side: (vertex, bit of the step in from it, bit of the step out to it)
    sides = [((a, plus, minus), (b, minus, plus)) for (a, b), (plus, minus) in zip(edges, ebits)]
    sides += [((v, plus, minus),) for (v, _, _), (plus, minus) in zip(legs, lbits)]
    # facing[t][y]: the side of site t that vertex y lies on
    facing = [[int(first[a][y] == b) for y in range(nv)] for a, b in edges]
    facing += [[0] * nv] * len(legs)
    anchor = [side[0][0] for side in sides]
    n_legs = len(legs)
    full = (1 << n_legs) - 1
    ends = []  # ends[t][k]: the legs on side k of site t
    for on in facing[: len(edges)]:
        far = sum(1 << u for u, (v, _, _) in enumerate(legs) if on[v])
        ends.append((full ^ far, far))
    ends += [(full ^ 1 << u, 1 << u) for u in range(n_legs)]
    reach = [near | far << n_legs for near, far in ends]
    everything = (1 << 2 * n_legs) - 1
    groups = []
    notfar = []
    for s, (in_s, at_s, ends_s) in enumerate(zip(sides, facing, ends)):
        # to_s[k][x]: the rays of the walk from vertex x to the midpoint of s, entering from side k
        to_s = [[walk[x][x_s] | into for x in range(nv)] for x_s, into, _ in in_s]
        by_mask: dict[int, int] = {}
        row = [0] * len(sides)
        for t, (out_t, at_t, y_t) in enumerate(zip(sides, facing, anchor)):
            if t != s:
                k_s = at_s[y_t]  # the side of s facing t
                k_t = at_t[anchor[s]]  # the side of t facing s
                x_t, _, out = out_t[k_t]
                mask = out | to_s[k_s][x_t]
                by_mask[mask] = by_mask.get(mask, 0) | 1 << t
                row[t] = everything ^ ends_s[1 - k_s] << k_t * n_legs
        groups.append(list(by_mask.items()))
        notfar.append(row)
    return groups, notfar, reach


def _end_sites(reach: list[int], n_legs: int) -> int:
    """The bitset of the sites that reach an end on both sides."""
    low = (1 << n_legs) - 1
    passing = 0
    for t, r in enumerate(reach):
        if r & low and r >> n_legs:
            passing |= 1 << t
    return passing


def _tree_to_type(problem: CountProblem, tree) -> CombinatorialType:
    """Stabilized combinatorial type (unconfined vertices) from a working tree.

    Contact legs in the census carry placeholder labels; the original labels
    are reassigned per contact order in a deterministic sweep, which is
    harmless because equally-decorated legs are interchangeable.
    """
    nv, edges, legs = tree
    pool: dict[Vec, list[int]] = {}
    for lab, c in sorted(problem.gamma.contact_legs):
        pool.setdefault(c, []).append(lab)
    pool = {c: sorted(labs, reverse=True) for c, labs in pool.items()}
    labelled = []
    for v, c, lab in legs:
        if lab:
            labelled.append((v, lab, c))
        else:
            labelled.append((v, pool[c].pop(), c))
    labelled.sort(key=lambda t: t[1])
    derived = forced_edge_contacts(nv, edges, ((v, c) for v, c, _ in legs), problem.fan.rank)
    oriented_edges = sorted(oriented(a, b, c) for (a, b), c in zip(edges, derived))
    shape = TreeShape(nv, tuple(e for e, _ in oriented_edges), tuple((v, lab) for v, lab, _ in labelled))
    return CombinatorialType(
        problem.fan,
        shape,
        (None,) * nv,
        tuple(c for _, c in oriented_edges),
        (None,) * len(edges),
        tuple(c for _, _, c in labelled),
        (None,) * len(labelled),
    )


def enumerate_rigid_types(problem: CountProblem, prune: bool = True) -> Iterator[CombinatorialType]:
    """Stabilized types whose moduli cone dimension matches the constraint codimension.

    Duplicates are eliminated by a canonical form that treats legs with
    equal contact order as interchangeable.  With ``prune`` the stream is
    filtered by sound necessary conditions against the problem's seeded
    targets (a pruned-away type can never contribute to this problem).
    """
    for _, _, theta in _rigid_types(problem, prune):
        yield theta


def _rigid_types(problem: CountProblem, prune: bool, skeletons: Optional[list[tuple]] = None):
    """Yield (canonical key, relabeling, type) for the distinct rigid types of one chunk.

    With pruning, point problems with at least three contact legs run the
    marked-point search over ``skeletons``, by default the whole skeleton
    census; distinct final types never cross skeleton classes, so
    per-chunk deduplication is globally valid.  Every other problem runs
    the full trivalent census over all legs.
    """
    gamma = problem.gamma
    fan = problem.fan
    if prune and _searches_skeletons(problem):
        if skeletons is None:
            skeletons = _skeleton_census(fan.rank, [c for _, c in gamma.contact_legs])
        trees = _marked_dfs(problem, skeletons, sorted(gamma.trivial_legs))
    else:
        trees = grow_trees([(c, lab) for lab, c in _census_legs(problem)])
    codim = expected_codimension(fan, gamma)
    seen = set()
    for tree in trees:
        theta = _tree_to_type(problem, tree)
        if fan.rank + len(theta.shape.edges) != codim:
            continue
        key, relabel = canonical_form(theta, identify_contacts=True)
        if key not in seen:
            seen.add(key)
            yield key, relabel, theta


def _searches_skeletons(problem: CountProblem) -> bool:
    """Whether pruned enumeration runs the skeleton census and marked-point search."""
    return problem.is_point_problem() and problem.gamma.n >= 3


def _census_legs(problem: CountProblem) -> list[tuple[int, Vec]]:
    """(label, contact) of every leg for the census over all legs, which
    subspace constraints and fewer than three contact legs need; raises
    CensusTooLargeError past ``MAX_CENSUS_LEGS`` legs."""
    gamma = problem.gamma
    zero = (0,) * problem.fan.rank
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

    Columns are the position of the vertex carrying the smallest trivial leg
    followed by the internal edge lengths, a basis of the type's moduli
    lattice; rows are the projected evaluations of the trivial legs in
    label order.
    """
    if any(cone is not None for cone in theta.vertex_cones):
        raise ValueError("evaluation matrices are built for unconfined stabilized types")
    r = problem.fan.rank
    shape = theta.shape
    ne = len(shape.edges)
    root_vertex = shape.leg_vertex(min(problem.gamma.trivial_legs))
    rows: list[list[int]] = []
    for label in sorted(problem.gamma.trivial_legs):
        proj = problem.projected[label][0]
        block = [[int(i == j) for j in range(r)] + [0] * ne for i in range(r)]
        for e, sign in shape.path_edges(root_vertex, shape.leg_vertex(label)):
            c = theta.edge_contacts[e]
            for i in range(r):
                block[i][r + e] = sign * c[i]
        for i in range(proj.rows):
            rows.append([sum(proj.at(i, k) * block[k][j] for k in range(r)) for j in range(r + ne)])
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, r + ne, ())


def multiplicity(theta: CombinatorialType, problem: CountProblem) -> int:
    """Lattice index of the evaluation matrix, |det|; the type's contribution weight."""
    m = evaluation_matrix(theta, problem)
    det = determinant(m) if m.rows == m.cols else 0
    if det == 0:
        raise SingularError("type is not rigid against this constraint pattern")
    return abs(det)


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
            raise NotPlanarPointProblemError(
                f"vertex {v} has {len(outs)} non-contracted branches"
            )
        total *= abs(_cross(outs[0], outs[1]))
    return total


def _solve_type(problem: CountProblem, theta: CombinatorialType):
    """Solve the evaluation system for one type.

    Returns (map, multiplicity) for an interior solution, where the
    multiplicity is |det| of the solved ``evaluation_matrix``, and None for a
    miss; raises SingularError or NonGenericError as appropriate, and
    SolveCheckError if the solved map fails validation or its constraints.
    """
    fan = problem.fan
    r = fan.rank
    shape = theta.shape
    ne = len(shape.edges)
    root_label = min(problem.gamma.trivial_legs)
    matrix = evaluation_matrix(theta, problem)
    if matrix.rows != matrix.cols:
        raise SingularError("evaluation system is not square")
    rhs = [x for label in sorted(problem.gamma.trivial_legs) for x in problem.projected[label][1]]
    sol = solve_rational(matrix, rhs)
    if sol is None:
        raise SingularError("evaluation matrix is singular (inconsistent)")
    values, unique = sol
    if not unique:
        raise NonGenericError("constraints meet a positive-dimensional family")
    x = values[:r]
    lengths = values[r:]
    for l in lengths:
        if l < 0:
            return None
        if l == 0:
            raise NonGenericError("a solved edge length is exactly zero")
    # each vertex sits at the root position plus the signed edges of its path
    root_vertex = shape.leg_vertex(root_label)
    positions = []
    for v in range(shape.vertices):
        p = list(x)
        for e, sign in shape.path_edges(root_vertex, v):
            p = [pi + sign * lengths[e] * ci for pi, ci in zip(p, theta.edge_contacts[e])]
        positions.append(tuple(p))
    stab_cones = []
    for p in positions:
        cone = locate(fan, p)
        if fan.dim(cone) != fan.rank:
            raise NonGenericError("a stabilized vertex landed on a wall")
        stab_cones.append(cone)
    concrete = CombinatorialType(
        fan,
        shape,
        tuple(stab_cones),
        theta.edge_contacts,
        (None,) * ne,
        theta.leg_contacts,
        (None,) * len(shape.legs),
    )
    solved = TropicalStableMap(concrete, tuple(positions), tuple(lengths))
    full = subdivide(solved)
    for v in range(shape.vertices, full.type.shape.vertices):
        if fan.dim(full.type.vertex_cones[v]) != fan.rank - 1:
            raise NonGenericError("an edge crossed a stratum of codimension > 1")
    report = validate(full)
    if not report.valid:
        raise SolveCheckError(
            f"seed {problem.constraints.seed}: the map solved from root leg {root_label} "
            f"for type {shape} fails validation: {sorted(report.conditions())}"
        )
    for label in problem.gamma.trivial_legs:
        proj, want = problem.projected[label]
        if tuple(proj.apply(list(ev_trop(full, label).coset))) != want:
            raise SolveCheckError(
                f"seed {problem.constraints.seed}: the map solved for type {shape} "
                f"misses the constraint translate of leg {label}"
            )
    return full, abs(determinant(matrix))


def _check_problem_genericity(problem: CountProblem) -> None:
    if problem.is_point_problem():
        for c in problem.constraints.constraints:
            cone = locate(problem.fan, c.translation)
            if problem.fan.dim(cone) != problem.fan.rank:
                raise NonGenericError(f"target for leg {c.label} lies on a wall")


def count(problem: CountProblem, threads: int = 1) -> CountResult:
    """Sum lattice multiplicities of rigid types solved against the constraints.

    The result is independent of the seed for generic seeds and of the
    worker count; contribution lists are canonically sorted.
    """
    _check_problem_genericity(problem)
    if _searches_skeletons(problem):  # one census, dealt out skeleton by skeleton
        census = _skeleton_census(problem.fan.rank, [c for _, c in problem.gamma.contact_legs])
        chunks = [census[i::threads] for i in range(threads)] if threads > 1 else [census]
    else:
        chunks = [None]  # the census over all legs, in one worker
    results = _map_workers(problem, chunks) if len(chunks) > 1 else [_count_worker((problem, chunks[0]))]
    # chunks never share a type (see _rigid_types)
    contributions = sorted((c for items, _ in results for c in items), key=lambda c: c.key)
    rejected = sum(rej for _, rej in results)
    total = sum(c.multiplicity for c in contributions)
    return CountResult(total, tuple(contributions), problem.constraints.seed, rejected)


def _count_worker(args):
    """Solve the rigid types of one chunk of skeletons (None: the census over all legs)."""
    problem, skeletons = args
    contributions = []
    rejected = 0
    for key, relabel, theta in _rigid_types(problem, True, skeletons):
        try:
            solved = _solve_type(problem, theta)
        except SingularError:
            rejected += 1
            continue
        if solved is not None:
            full, mult = solved
            contributions.append(Contribution(relabel_type(theta, relabel), full, mult, key))
    return contributions, rejected


def _map_workers(problem: CountProblem, chunks: list):
    import multiprocessing as mp

    with mp.Pool(len(chunks)) as pool:
        return pool.map(_count_worker, [(problem, chunk) for chunk in chunks])


# --- JSON interface --------------------------------------------------------


def count_result_to_json(problem: CountProblem, result: CountResult) -> dict:
    from .maps import map_to_json, type_to_json
    from .polyhedral import SCHEMA, fan_to_json

    return {
        "schema": SCHEMA,
        "kind": "count",
        "fan": fan_to_json(problem.fan),
        "contact_legs": [[lab, list(c)] for lab, c in problem.gamma.contact_legs],
        "trivial_legs": list(problem.gamma.trivial_legs),
        "seed": result.seed_echo,
        "height_bound": problem.constraints.height_bound,
        "total": result.total,
        "rejected_nongeneric": result.rejected_nongeneric,
        "contributions": [
            {
                "multiplicity": c.multiplicity,
                "type": type_to_json(c.type),
                "map": map_to_json(c.map),
            }
            for c in result.contributions
        ],
    }


def count_result_from_json(data: dict) -> CountResult:
    from .maps import map_from_json, type_from_json
    from .polyhedral import fan_from_json

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

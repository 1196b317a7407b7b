"""The fraction-free exact kernels against their ``Fraction`` references.

``lp._phase_one``, ``solve_rational`` of ``tests/oracles.py`` (which
runs ``exactmath.fraction_free_rref``, as ``rank`` does) and the per-cone
integer data behind ``Fan.cone_coefficients``, ``contains``, ``locate`` and
the former ``locate_germ`` (now ``Fan.germ`` at the located cone) used to
do their arithmetic over ``Fraction``. The former implementations are kept
below as references, and the property tests require exact equality with
them: same pivots, same points, same decisions. So are the former germ
rules of ``moduli._germ_into`` and ``maps._points_into``, which
``Fan.germ`` replaced, and the former facet search of
``moduli.face_types``, one ``lp.strict_point`` per hyperplane, against
which ``moduli.cone_rays`` is checked, with its lineality basis against
the kernel lattice (``exactmath.integer_kernel``). ``Fan.cone_data`` is checked
against the determinant and the ``Fraction`` inverse of each cone's Gram
matrix. The last test checks that the kernels do no ``Fraction``
arithmetic at all.
"""
import itertools
import random
from fractions import Fraction
from math import gcd, prod
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import solve_rational
from tropcount import lp
from tropcount.curves import TreeShape
from tropcount.exactmath import IntMatrix, clear_denominators, integer_kernel, rank
from tropcount.maps import CombinatorialType, DiscreteData, InvalidTypeError
from tropcount.moduli import assemble_complex, cone_rays
from tropcount.polyhedral import (
    Fan,
    NotCompleteError,
    fan_product,
    fan_projective_space,
    load_fan,
    locate,
)

# --- references: the former Fraction implementations -------------------------


def _reference_phase_one(a: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b (b >= 0 assumed), or None."""
    m = len(a)
    n = len(a[0]) if m else 0
    tab = [a[i][:] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (n + m) + [Fraction(0)]
    for j in range(n + m):
        cost[j] = -sum(tab[i][j] for i in range(m))
    cost[n + m] = -sum(b)
    for j in range(n, n + m):
        cost[j] += 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return None
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
        elif tab[i][-1] != 0:
            return None
    return x


def _reference_strict_point(rows: list[list[Fraction]], dim: int) -> Optional[list[Fraction]]:
    if not rows:
        return [Fraction(0)] * dim
    m = len(rows)
    a = []
    for r in rows:
        a.append([Fraction(x) for x in r] + [-Fraction(x) for x in r] + [
            Fraction(-1) if j == len(a) else Fraction(0) for j in range(m)
        ])
    sol = _reference_phase_one(a, [Fraction(1)] * m)
    if sol is None:
        return None
    return [sol[j] - sol[dim + j] for j in range(dim)]


def _reference_facets(rows: list[list[int]], dim: int) -> list[tuple[int, ...]]:
    """The former facet search of ``moduli.face_types``: the primitive normals,
    one per group of positive multiples, on whose hyperplane an exact LP finds
    a point with every other group strict. A zero row leaves no facets."""
    normals: dict[tuple[int, ...], None] = {}
    for row in rows:
        g = gcd(*row)
        if g == 0:
            return []
        normals.setdefault(tuple(x // g for x in row))
    out = []
    for h in normals:
        # on h·y = 0, y_k = -(sum of h_j y_j over j != k) / h_k; each other
        # row g becomes |h_k| times its restriction, an integer row
        k = next(j for j, x in enumerate(h) if x)
        s = 1 if h[k] > 0 else -1
        restricted = [[s * (g[j] * h[k] - g[k] * h[j]) for j in range(dim) if j != k] for g in normals if g != h]
        if lp.strict_point(restricted, dim - 1) is not None:
            out.append(h)
    return out


def _reference_row_echelon(rows: list[list[Fraction]]) -> tuple[list[int], list[list[Fraction]]]:
    if not rows:
        return [], rows
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows


def _reference_solve_rational(a: IntMatrix, b: list[Fraction]):
    aug = [[Fraction(x) for x in a.row(i)] + [Fraction(b[i])] for i in range(a.rows)]
    pivots, rows = _reference_row_echelon(aug)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return tuple(x), len(pivots) == a.cols


def _reference_cone_coefficients(fan: Fan, cone_idx: int, p) -> Optional[list[Fraction]]:
    cone = fan.cones[cone_idx]
    if not cone:
        return [] if all(x == 0 for x in p) else None
    sol = _reference_solve_rational(fan._ray_matrix(cone), [Fraction(x) for x in p])
    return None if sol is None else list(sol[0])


def _reference_contains(fan: Fan, cone_idx: int, p, strict: bool) -> bool:
    coeffs = _reference_cone_coefficients(fan, cone_idx, p)
    if coeffs is None:
        return False
    return all(c > 0 for c in coeffs) if strict else all(c >= 0 for c in coeffs)


def _reference_locate(fan: Fan, p) -> int:
    for idx in range(len(fan.cones)):
        if _reference_contains(fan, idx, p, True):
            return idx
    raise NotCompleteError("no cone")


def _reference_locate_germ(fan: Fan, base, direction) -> int:
    if all(x == 0 for x in direction):
        return _reference_locate(fan, base)
    for idx in range(len(fan.cones)):
        cb = _reference_cone_coefficients(fan, idx, base)
        cd = _reference_cone_coefficients(fan, idx, direction)
        if cb is None or cd is None:
            continue
        if all(b > 0 or (b == 0 and d > 0) for b, d in zip(cb, cd)):
            return idx
    raise NotCompleteError("no cone")


def _reference_germ_into(fan: Fan, carrier: int, base: int, c) -> bool:
    """The former ``moduli._germ_into``: moving off relint(base) along c lands
    immediately in relint(carrier)."""
    cone = fan.cones[carrier]
    base_rays = set(fan.cones[base])
    if not base_rays <= set(cone):
        return False
    coeffs = fan.cone_coefficients(carrier, [Fraction(x) for x in c])
    if coeffs is None:
        return False
    return all(q > 0 for ray, q in zip(cone, coeffs) if ray not in base_rays)


def _reference_points_into(fan: Fan, carrier: int, base: int, c) -> bool:
    """The former ``maps._points_into``: c lies in carrier + span(base)."""
    cone = fan.cones[carrier]
    free = set(fan.cones[base])
    coeffs = fan.cone_coefficients(carrier, [Fraction(x) for x in c])
    if coeffs is None:
        return False
    return all(q >= 0 for ray, q in zip(cone, coeffs) if ray not in free)


# --- strategies ---------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5):
    """Small integer matrices, about half of them a product through a thin
    middle dimension, so that rank-deficient ones are common."""
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    entries = st.integers(-4, 4)
    if draw(st.booleans()):
        rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    else:
        k = draw(st.integers(0, min(nr, nc) - 1))
        left = [[draw(entries) for _ in range(k)] for _ in range(nr)]
        right = [[draw(entries) for _ in range(nc)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]
    return IntMatrix.from_rows(rows)


@st.composite
def right_hand_sides(draw, a: IntMatrix):
    """A rational b: random (often inconsistent) or A·x for a rational x."""
    if draw(st.booleans()):
        return [draw(rationals) for _ in range(a.rows)]
    x = [draw(rationals) for _ in range(a.cols)]
    return [sum((a.at(i, j) * x[j] for j in range(a.cols)), Fraction(0)) for i in range(a.rows)]


# --- the LP ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_strict_point_matches_fraction_reference(dim, m, data):
    rows = [[data.draw(rationals) for _ in range(dim)] for _ in range(m)]
    got = lp.strict_point(rows, dim)
    assert got == _reference_strict_point(rows, dim)
    if got is not None:
        assert all(sum(x * y for x, y in zip(row, got)) >= 1 for row in rows)


F = Fraction


@pytest.mark.parametrize("rows", [
    # rows with different denominators: scaling each row by its lcm without
    # reweighting its artificial variable in the phase-I objective changes
    # the pivots, and so the point
    [[F(-5), F(-1, 4), F(-2), F(-1)], [F(5, 6), F(0), F(2, 3), F(1)], [F(-5), F(0), F(-3), F(-1)]],
    [[F(-3), F(-2), F(1)], [F(3, 4), F(1), F(1, 3)]],
    # a tie in the ratio test: reversing Bland's tie-break on the basic
    # index, or taking the later of two equal ratios, changes the point
    [[F(3), F(4), F(1), F(1)], [F(-1, 6), F(1), F(1), F(-2, 3)], [F(-5, 4), F(-1), F(0), F(0)]],
])
def test_strict_point_pivot_sensitive_cases(rows):
    dim = len(rows[0])
    assert lp.strict_point(rows, dim) == _reference_strict_point(rows, dim)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_phase_one_matches_fraction_reference(m, n, data):
    a = [[data.draw(rationals) for _ in range(n)] for _ in range(m)]
    b = [abs(data.draw(rationals)) for _ in range(m)]
    got = lp._phase_one(a, b)
    want = _reference_phase_one(a, b)
    if want is None:
        assert got is None
    else:
        nums, d = got
        assert d > 0
        assert [Fraction(x, d) for x in nums] == want


# --- extreme rays against the hyperplane LP --------------------------------------


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@st.composite
def cone_rows(draw):
    """Integer rows of a cone {row·y >= 0} in dimension 1-4, often with
    positive multiples of a row, redundant sums of two rows, a row beside its
    negative, a zero row, or rank below the dimension (a lineality space).
    Half of them have every row turned to be >= 0 at one point, so that most
    of those cones have an interior and many are not simplicial."""
    dim = draw(st.integers(1, 4))
    k = dim if draw(st.booleans()) else draw(st.integers(1, dim))
    entries = st.integers(-3, 3)
    # rows of rank <= k: nonzero random rows times a k x dim matrix of rank k
    lift = [[int(i == j) for j in range(dim)] for i in range(k)]
    if k < dim and draw(st.booleans()):
        lift = [[draw(entries) for _ in range(dim)] for _ in range(k)]
    centre = [draw(entries) for _ in range(dim)] if draw(st.booleans()) else [0] * dim
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        x = draw(st.lists(entries, min_size=k, max_size=k).filter(any))
        row = [sum(a * b[j] for a, b in zip(x, lift)) for j in range(dim)]
        rows.append([-a for a in row] if dot(row, centre) < 0 else row)
    for extra in draw(st.lists(st.sampled_from(["multiple", "sum", "negative", "zero"]), max_size=2)):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append({
            "multiple": [draw(st.integers(1, 3)) * x for x in a],
            "sum": [x + y for x, y in zip(a, b)],
            "negative": [-x for x in a],
            "zero": [0] * dim,
        }[extra])
    return rows, dim


def check_cone_rays(rows: list[list[int]], dim: int) -> None:
    cone = cone_rays(rows, dim)
    if any(not any(row) for row in rows):
        assert cone is None
        return
    normals = cone.normals
    assert all(gcd(*h) == 1 for h in normals) and len(normals) == len(set(normals))
    # each ray is extreme in the pointed part: in the cone, on normals of rank - 1
    for ray, t in zip(cone.rays, cone.tight):
        assert all(dot(h, ray) > 0 for j, h in enumerate(normals) if not t >> j & 1)
        assert all(dot(h, ray) == 0 for j, h in enumerate(normals) if t >> j & 1)
        on = [h for j, h in enumerate(normals) if t >> j & 1]
        assert rank(IntMatrix(len(on), dim, tuple(x for h in on for x in h))) == cone.rank - 1
    witness = cone.interior_point()
    assert (witness is None) == (lp.strict_point(rows, dim) is None)
    if witness is not None:
        assert all(dot(row, witness) > 0 for row in rows)
    facets = cone.facets()
    assert [normals[j] for j, _ in facets] == _reference_facets(rows, dim)
    assert [j for j, _ in facets] == rank_rule_facets(cone)
    for j, point in facets:
        assert dot(normals[j], point) == 0
        assert all(dot(h, point) > 0 for i, h in enumerate(normals) if i != j)


def rank_rule_facets(cone) -> list[int]:
    """The former facet rule of ``ConeRays.facets``: a normal is a facet's
    when the rays it vanishes on have rank one less than the normals'."""
    if cone.interior_point() is None:
        return []
    out = []
    for j in range(len(cone.normals)):
        on = [ray for ray, t in zip(cone.rays, cone.tight) if t >> j & 1]
        if rank(IntMatrix(len(on), cone.dim, tuple(x for ray in on for x in ray))) == cone.rank - 1:
            out.append(j)
    return out


def check_facets_on_assembled_cones(gamma) -> int:
    """Facets by inclusion-maximal zero sets against the rank rule, on every
    stored cone; returns how many cones are not simplicial."""
    non_simplicial = 0
    for cc in assemble_complex(gamma).cones:
        rays = cc.cone.extreme_rays
        assert [j for j, _ in rays.facets()] == rank_rule_facets(rays)
        non_simplicial += len(rays.rays) > rays.rank
    return non_simplicial


@pytest.mark.parametrize("gamma", [
    DiscreteData(load_fan("p2"), ((1, (1, 0)), (2, (0, 1)), (3, (-1, -1))), (4, 5)),
    DiscreteData(load_fan("p1xp1"), ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1))), (5,)),
], ids=["p2-2-points", "p1xp1-1-point"])
def test_facets_match_the_rank_rule_on_assembled_cones(gamma):
    check_facets_on_assembled_cones(gamma)


@pytest.mark.slow
def test_facets_match_the_rank_rule_on_non_simplicial_cones():
    # conics: 480 of the 12,080 stored cones are not simplicial
    contacts = tuple((i + 1, c) for i, c in enumerate([(1, 0), (1, 0), (0, 1), (0, 1), (-1, -1), (-1, -1)]))
    assert check_facets_on_assembled_cones(DiscreteData(load_fan("p2"), contacts, ())) == 480


@settings(max_examples=400, deadline=None)
@given(cone_rows())
def test_cone_rays_match_the_hyperplane_lp(case):
    check_cone_rays(*case)


def test_cone_rays_match_the_hyperplane_lp_on_uniform_cones():
    # hypothesis favours small entries and few rows; uniform draws around a
    # centre give non-simplicial cones in dimensions 3 and 4 about half the time
    rng = random.Random(7)
    for _ in range(300):
        dim = rng.randint(3, 4)
        centre = [rng.randint(-3, 3) for _ in range(dim)]
        rows = []
        while len(rows) < rng.randint(3, 8):
            row = [rng.randint(-3, 3) for _ in range(dim)]
            if any(row):
                rows.append([-x for x in row] if dot(row, centre) < 0 else row)
        check_cone_rays(rows, dim)


@pytest.mark.parametrize("rows", [
    # the cone over a square: four facets, four rays, not simplicial
    [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
    # the cone over a pentagon, one facet given twice and one redundant row
    [[1, 0, 1], [0, 1, 1], [-1, 0, 2], [0, -1, 2], [-1, -1, 3], [2, 0, 2], [-1, -1, 5]],
    # a row beside its negative: no interior point, no facets
    [[1, 2, 0], [-1, -2, 0], [0, 0, 1]],
    # the same around a square cone, then a cut between two opposite corners:
    # every ray is zero on the first two rows, so only the combinatorial
    # adjacency test keeps the corners from being joined
    [[0, 0, 0, 1], [0, 0, 0, -1], [1, 0, 1, 0], [-1, 0, 1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [1, 1, 0, 0]],
    # a zero row
    [[1, 0], [0, 0]],
    # lineality: the half-space x >= 0 and a wedge, times a line
    [[1, 0, 0]],
    [[1, 1, 0], [1, -1, 0], [2, 0, 0]],
    # a simplicial cone with all of its facets
    [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 0, 1], [1, -1, 1, 1]],
])
def test_cone_rays_on_chosen_cones(rows):
    check_cone_rays(rows, len(rows[0]))


def check_lineality(rows: list[list[int]], dim: int) -> None:
    # dim - rank primitive vectors on which every normal vanishes, spanning
    # what the kernel lattice of the rows spans
    cone = cone_rays(rows, dim)
    if cone is None:
        return
    line = cone.lineality
    assert len(line) == dim - cone.rank
    for y in line:
        assert gcd(*y) == 1
        assert all(dot(h, y) == 0 for h in cone.normals)
    kernel = integer_kernel(IntMatrix(len(rows), dim, tuple(x for row in rows for x in row)))
    assert kernel.cols == len(line) == rank(IntMatrix(len(line), dim, tuple(x for y in line for x in y)))
    both = [*line, *kernel.transpose().to_lists()]
    assert rank(IntMatrix(len(both), dim, tuple(x for y in both for x in y))) == len(line)


@settings(max_examples=300, deadline=None)
@given(cone_rows())
def test_cone_lineality_spans_the_kernel(case):
    check_lineality(*case)


@pytest.mark.parametrize("rows, dim, lines", [
    ([], 3, 3),  # no row: the whole space
    ([[1, 0, 0], [-2, 0, 0]], 3, 2),  # a plane, its normal given both ways: lineality only
    ([[1, 2, 0, -1], [-1, -2, 0, 1], [0, 0, 3, 0]], 4, 2),
])
def test_cone_lineality_on_chosen_cones(rows, dim, lines):
    check_lineality(rows, dim)
    assert len(cone_rays(rows, dim).lineality) == lines


def test_cone_rays_over_a_square():
    cone = cone_rays([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], 3)
    assert sorted(cone.rays) == [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    assert cone.interior_point() == [0, 0, 4]
    assert [point for _, point in cone.facets()] == [[-2, 0, 2], [2, 0, 2], [0, -2, 2], [0, 2, 2]]


# --- exact solves ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_solve_rational_matches_fraction_reference(data):
    a = data.draw(int_matrices())
    b = data.draw(right_hand_sides(a))
    assert solve_rational(a, b) == _reference_solve_rational(a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_and_matrix_solve_match_fraction_reference(data):
    a = data.draw(int_matrices())
    reference_rank = len(_reference_row_echelon([[Fraction(x) for x in a.row(i)] for i in range(a.rows)])[0])
    assert rank(a) == reference_rank
    columns = [data.draw(right_hand_sides(a)) for _ in range(data.draw(st.integers(1, 3)))]
    assert [solve_rational(a, col) for col in columns] == [_reference_solve_rational(a, col) for col in columns]


def test_singular_solves():
    # a consistent singular system is solved with unique False (counting
    # turns that into NonGenericError); an inconsistent one gives None
    a = IntMatrix.from_rows([[1, 2], [2, 4]])
    assert solve_rational(a, [Fraction(1, 3), Fraction(2, 3)]) == ((Fraction(1, 3), Fraction(0)), False)
    assert solve_rational(a, [Fraction(1, 3), Fraction(1)]) is None


# --- per-cone integer data on Fan ---------------------------------------------

SKEW = Fan.make(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)], name="skew")
FANS = {
    "p2": fan_projective_space(2),
    "p1xp1": fan_product(fan_projective_space(1), fan_projective_space(1)),
    "p3": fan_projective_space(3),
    "skew": SKEW,
}


@st.composite
def fan_points(draw, fan: Fan):
    """A cone of the fan and a rational point that often lies in its span."""
    idx = draw(st.integers(0, len(fan.cones) - 1))
    coeffs = [draw(rationals) for _ in fan.cones[idx]]
    p = [sum((c * fan.rays[i][k] for c, i in zip(coeffs, fan.cones[idx])), Fraction(0)) for k in range(fan.rank)]
    if draw(st.booleans()):
        p = [x + draw(rationals) for x in p]
    return idx, p


def test_skew_fan_is_not_unimodular():
    assert sorted(SKEW.cone_data(SKEW.cone_index(c)).det for c in [(0, 1), (1, 2), (0, 2)]) == [1, 1, 4]


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1", "skew"])
def test_cone_data_matches_the_gram_references(name):
    # det is det G, and coefficients is det G times the Fraction inverse G⁻¹Rᵀ
    fan = SKEW if name == "skew" else load_fan(name)
    for idx, cone in enumerate(fan.cones):
        rays = fan._ray_matrix(cone)
        gram = rays.transpose() @ rays
        data = fan.cone_data(idx)
        assert data.det == _leibniz_det(gram.to_lists()) > 0
        inverse = [solve_rational(gram, column)[0] for column in rays.to_lists()]
        assert [list(row) for row in data.coefficients] == [[data.det * x for x in row] for row in zip(*inverse)]


@pytest.mark.parametrize("name", sorted(FANS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cone_coefficients_match_fraction_reference(name, data):
    fan = FANS[name]
    idx, p = data.draw(fan_points(fan))
    assert fan.cone_coefficients(idx, p) == _reference_cone_coefficients(fan, idx, p)
    assert fan.contains(idx, p) == _reference_contains(fan, idx, p, False)
    assert (locate(fan, p) == idx) == _reference_contains(fan, idx, p, True)
    _, direction = data.draw(fan_points(fan))
    assert locate(fan, p) == _reference_locate(fan, p)
    germ = fan.germ(locate(fan, p), clear_denominators(direction)[0])
    assert germ == _reference_locate_germ(fan, p, direction)


def test_cone_cache_is_not_part_of_the_fan():
    import pickle

    fan = fan_projective_space(2)
    fresh = fan_projective_space(2)
    locate(fan, [Fraction(1), Fraction(2)])
    assert fan.germ(fan.cone_index(()), (1, 2)) == fan.cone_index((0, 1))
    refs, index = fan.cone_refs  # the cone references of a type's JSON
    assert refs[fan.cone_index((0, 2))] == ((-1, -1), (1, 0)) and index[((-1, -1), (1, 0))] == fan.cone_index((0, 2))
    assert fan == fresh and hash(fan) == hash(fresh) and repr(fan) == repr(fresh)
    assert pickle.dumps(fan) == pickle.dumps(fresh)
    assert locate(pickle.loads(pickle.dumps(fan)), [1, 2]) == fan.cone_index((0, 1))


# --- the germ rule ------------------------------------------------------------

P2_HOLED = Fan.make(2, FANS["p2"].rays, [(0, 1), (1, 2)], name="p2-holed")  # the cone (0, 2) removed
# the same fan with every cone listed before its faces: the germ must not
# depend on the order in which the cones are scanned
P2_REVERSED = Fan(2, FANS["p2"].rays, FANS["p2"].cones[::-1], name="p2-reversed")
GERM_FANS = {"p1": fan_projective_space(1), "p2-holed": P2_HOLED, "p2-reversed": P2_REVERSED, **FANS}


@st.composite
def directions(draw, fan: Fan, cone_idx: int):
    """An integer direction: random, or an integer combination of the cone's rays."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(-3, 3), min_size=fan.rank, max_size=fan.rank)))
    coeffs = [draw(st.integers(-2, 2)) for _ in fan.cones[cone_idx]]
    return tuple(sum(k * fan.rays[i][j] for k, i in zip(coeffs, fan.cones[cone_idx])) for j in range(fan.rank))


@pytest.mark.parametrize("name", sorted(GERM_FANS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_germ_is_the_one_cone_the_former_scan_passes(name, data):
    fan = GERM_FANS[name]
    toward = data.draw(st.integers(0, len(fan.cones) - 1))
    for direction in (data.draw(directions(fan, toward)), (0,) * fan.rank):
        for base in range(len(fan.cones)):
            passing = [idx for idx in range(len(fan.cones)) if _reference_germ_into(fan, idx, base, direction)]
            # a complete fan has exactly one; P2 without a maximal cone at most one
            assert len(passing) == 1 or (fan is P2_HOLED and not passing)
            assert fan.germ(base, direction) == (passing[0] if passing else None)


def test_germ_is_none_off_the_support():
    inside = (1, -1)  # in the relative interior of the removed cone (0, 2)
    assert FANS["p2"].germ(FANS["p2"].cone_index(()), inside) == FANS["p2"].cone_index((0, 2))
    for base in [(), (0,), (2,)]:
        assert P2_HOLED.germ(P2_HOLED.cone_index(base), inside) is None
    assert P2_HOLED.germ(P2_HOLED.cone_index((0,)), (0, 1)) == P2_HOLED.cone_index((0, 1))


@pytest.mark.parametrize("name", sorted(FANS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_check_matches_the_former_points_into(name, data):
    # one edge from vertex 0 to vertex 1 with contact c in ``carrier``, each end
    # in a face of it or unconfined, balanced by a leg at each end
    fan = FANS[name]
    carrier = data.draw(st.integers(0, len(fan.cones) - 1))
    ends = [data.draw(st.sampled_from(fan.face_indices(carrier) + [None])) for _ in range(2)]
    c = data.draw(directions(fan, carrier))
    neg = tuple(-x for x in c)
    theta = CombinatorialType(
        fan, TreeShape(2, ((0, 1),), ((0, 1), (1, 2))), tuple(ends), (c,), (carrier,), (neg, c), (None, None)
    )
    want = all(
        _reference_points_into(fan, carrier, carrier if end is None else end, d) for end, d in zip(ends, (c, neg))
    )
    try:
        theta.check()
        assert want
    except InvalidTypeError:
        assert not want


# --- no Fraction arithmetic in the kernels --------------------------------------

FRACTION_ARITHMETIC = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
]


def test_kernels_do_no_fraction_arithmetic(monkeypatch):
    toy = DiscreteData(FANS["p2"], ((1, (1, 0)), (2, (0, 1)), (3, (-1, -1))), (4,))
    cones = [cc.cone for cc in assemble_complex(toy).cones]
    fan = Fan.make(2, SKEW.rays, SKEW.cones)  # its cone data is built under the guard
    half, third = Fraction(1, 2), Fraction(-2, 3)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic")

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, forbidden)
    with pytest.raises(AssertionError):
        half + 1

    assert lp.strict_point([[half, third], [Fraction(1, 5), half]], 2) is not None
    a = IntMatrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    assert solve_rational(a, [half, third, Fraction(-1, 6)]) is not None
    assert solve_rational(IntMatrix.identity(2), [half, third]) == ((half, third), True)
    for idx in range(len(fan.cones)):
        fan.contains(idx, [half, third])
        fan.cone_coefficients(idx, [half, third])
    locate(fan, [half, third])
    fan.germ(locate(fan, [half, Fraction(0)]), clear_denominators([Fraction(0), third])[0])
    for cone in cones:
        assert cone.relint_witness() is not None

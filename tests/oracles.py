"""Independent references that the tests check the engine against.

No module under ``src/tropcount`` imports this one (``tests/test_imports.py``
holds that), so nothing here runs inside a command. Each reference was the
engine's own once and moved here when no command called it:

- the Smith normal form (``smith_normal_form``, on the loop
  ``_diagonalize``) and ``lattice_index``, the lattice index it gives;
- ``solve_rational``, an exact solve of A x = b over ℚ;
- ``extended_point`` and ``ev_trop``: the limit point of a leg in the
  compactified fan, a point of the stratum of a cone with coordinates in
  the fixed basis of N/span(cone);
- ``ambient_coordinates`` and ``ambient_dim``: a map's coordinates on
  every vertex position, then the edge lengths, which
  ``ModuliCone.classify`` reads.

Two of them run engine code, so they check the engine less independently
than the rest: ``solve_rational`` eliminates by
``exactmath.fraction_free_rref``, and ``extended_point``, and through it
``ev_trop``, reads ``polyhedral.locate`` and ``Fan.cone_data``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from tropcount.curves import UnknownLabelError
from tropcount.exactmath import IntMatrix, fraction_free_rref
from tropcount.polyhedral import Fan, NotCompleteError, locate

# --- the Smith normal form ----------------------------------------------------


class RankDeficientError(ValueError):
    """The matrix does not surject onto its target lattice after ⊗ℚ."""


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular left/right factors with left·A·right = diag."""

    left: IntMatrix
    diag: IntMatrix
    right: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.diag.rows, self.diag.cols)
        return tuple(self.diag.at(i, i) for i in range(n))

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _diagonalize(
    d: list[list[int]],
    ncols: int,
    rows: Sequence[list[list[int]]] = (),
    cols: Sequence[list[list[int]]] = (),
) -> int:
    """Bring the integer rows ``d`` (``ncols`` wide) to Smith normal form in
    place and return the rank.

    Pivots are chosen as the smallest nonzero absolute value in the
    remaining block, which keeps intermediate entries from exploding.
    The diagonal ends nonnegative and satisfies the divisibility chain
    d_i | d_{i+1}.

    The transforms asked for start as identities and are all kept row by
    row, so each update is one list comprehension. For U·A·V = D:
    a matrix in ``rows`` receives every row operation on d and ends as U;
    one in ``cols`` ends as Vᵀ.
    """
    m, n = len(d), ncols

    def row_add(src: int, dst: int, f: int) -> None:
        for mat in (d, *rows):
            mat[dst] = [x + f * y for x, y in zip(mat[dst], mat[src])]

    def row_swap(a: int, b: int) -> None:
        for mat in (d, *rows):
            mat[a], mat[b] = mat[b], mat[a]

    def col_add(src: int, dst: int, f: int) -> None:
        for row in d:
            row[dst] += f * row[src]
        for mat in cols:
            mat[dst] = [x + f * y for x, y in zip(mat[dst], mat[src])]

    def col_swap(a: int, b: int) -> None:
        for row in d:
            row[a], row[b] = row[b], row[a]
        for mat in cols:
            mat[a], mat[b] = mat[b], mat[a]

    t = 0
    while t < min(m, n):
        # Locate the smallest-|value| nonzero pivot in the trailing block.
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = abs(d[i][j])
                if v and (best == 0 or v < best):
                    best, pi, pj = v, i, j
        if best == 0:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        while True:
            # Reduce column t, then row t, restarting whenever a remainder
            # smaller than the pivot shows up.
            restart = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        row_add(t, i, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        col_add(t, j, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # Divisibility fix-up: fold a non-divisible entry into row t.
            # A unit pivot divides everything.
            bad = None
            if abs(d[t][t]) != 1:
                for i in range(t + 1, m):
                    if any(x % d[t][t] for x in d[i][t + 1 :]):
                        bad = i
                        break
            if bad is None:
                break
            row_add(bad, t, 1)
        t += 1

    for i in range(t):
        if d[i][i] < 0:
            for mat in (d, *rows):
                mat[i] = [-x for x in mat[i]]
    return t


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize over ℤ with unimodular row/column operations (see
    ``_diagonalize``); left·A·right = diag."""
    d = a.to_lists()
    left, right_t = IntMatrix.identity(a.rows).to_lists(), IntMatrix.identity(a.cols).to_lists()
    _diagonalize(d, a.cols, rows=[left], cols=[right_t])
    return SmithDecomposition(
        IntMatrix.from_rows(left, a.rows), IntMatrix.from_rows(d, a.cols), IntMatrix.from_rows(right_t, a.cols).transpose()
    )


def lattice_index(a: IntMatrix) -> int:
    """Index of the image lattice A(ℤ^cols) inside ℤ^rows.

    Requires A to be surjective after tensoring with ℚ; equals |det A| for
    square A.
    """
    d = a.to_lists()
    r = _diagonalize(d, a.cols)
    if r < a.rows:
        raise RankDeficientError(f"matrix of rank {r} cannot surject onto ZZ^{a.rows}")
    return math.prod(d[i][i] for i in range(r))


# --- exact solves ---------------------------------------------------------------


def solve_rational(
    a: IntMatrix, b: Sequence[Fraction]
) -> Optional[tuple[tuple[Fraction, ...], bool]]:
    """Solve A x = b exactly over ℚ, by fraction-free elimination.

    b is cleared of its denominators first, so the elimination runs over
    ``int``; the result is divided out once at the end. Returns
    ``(solution, unique)`` where ``unique`` is True iff the kernel is
    trivial, or ``None`` when the system is inconsistent. The free
    variables of a non-unique solution are 0.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    den = math.lcm(*(x.denominator for x in b))
    rhs = [x.numerator * (den // x.denominator) for x in b]
    rows = [list(a.row(i)) + [y] for i, y in enumerate(rhs)]
    pivots, d = fraction_free_rref(rows, a.cols)
    if any(row[-1] for row in rows[len(pivots) :]):
        return None
    x = [Fraction(0)] * a.cols
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[-1], d * den)
    return tuple(x), len(pivots) == a.cols


# --- points of the compactified fan ---------------------------------------------


class DirectionOutsideFanError(NotCompleteError):
    """The requested recession direction misses the fan's support."""


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the compactified fan, lying in the stratum of ``stratum_cone``.

    ``coset`` holds coordinates in the fixed basis of N/span(cone); for the
    zero cone this is an honest point of N_R.
    """

    stratum_cone: int
    coset: tuple[Fraction, ...]


def extended_point(fan: Fan, base: Sequence[Fraction], direction: Sequence[int]) -> ExtendedPoint:
    """Limit point of base + t*direction, t -> infinity, in the compactified fan."""
    direction = tuple(int(x) for x in direction)
    if all(x == 0 for x in direction):
        raise ValueError("direction must be nonzero")
    try:
        stratum = locate(fan, [Fraction(x) for x in direction])
    except NotCompleteError as exc:
        raise DirectionOutsideFanError(str(exc)) from exc
    if len(base) != fan.rank:
        raise ValueError("vector length mismatch")
    base = [Fraction(x) for x in base]
    coset = tuple(sum(a * x for a, x in zip(row, base)) for row in fan.cone_data(stratum).projection)
    return ExtendedPoint(stratum, coset)


def ev_trop(f, label: int) -> ExtendedPoint:
    """Image of the infinite point of the marked edge with the given label
    under the tropical stable map f: the position of its vertex for a
    trivial leg, else its ``extended_point``."""
    fan = f.type.fan
    for (v, lab), c in zip(f.type.shape.legs, f.type.leg_contacts):
        if lab == label:
            if not any(c):
                zero = fan.cone_index(())
                return ExtendedPoint(zero, tuple(f.positions[v]))
            return extended_point(fan, f.positions[v], c)
    raise UnknownLabelError(f"no leg labelled {label}")


# --- the ambient view of a moduli cone ------------------------------------------


def ambient_coordinates(f) -> list[Fraction]:
    """The coordinates of the map f that ``ModuliCone.classify`` reads: every
    vertex position, then the edge lengths."""
    return [Fraction(x) for p in f.positions for x in p] + [Fraction(l) for l in f.lengths]


def ambient_dim(cone) -> int:
    """The number of ambient coordinates of a moduli cone's maps."""
    return cone.type.fan.rank * cone.type.shape.vertices + len(cone.type.shape.edges)

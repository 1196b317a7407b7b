"""Exact integer and rational linear algebra.

Everything downstream (cone membership, moduli cone dimensions, lattice
multiplicities) is decided by the routines in this module, so all of them
work over arbitrary-precision ``int`` and never touch floating point.
Rational inputs and results are ``fractions.Fraction``, but no
elimination does arithmetic on them. There are two eliminations.

- ``fraction_free_rref``, a fraction-free Gauss–Jordan, answers the
  questions over ℚ. ``rank`` runs it, and determinants are read off its
  last pivot.
- ``integer_kernel``, a unimodular row reduction to Hermite normal form,
  gives a kernel lattice its canonical basis, and through that a span's
  quotient projection (``lattice_quotient``) and saturation.
  ``hermite_solve`` solves against such a basis.

The Smith normal form that the tests check both against lives with the
tests, in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

# Rational coordinates throughout the package are plain ``Fraction``s; the
# stdlib type already maintains denominator > 0 and gcd-reduced form.
Rational = Fraction


def clear_denominators(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers q and the least positive den with vec = q / den.

    Takes ``int`` or ``Fraction`` entries and does no ``Fraction`` arithmetic.
    """
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def rational_to_string(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        # int.__instancecheck__(e) is isinstance(e, int), with no Python
        # frame per entry
        if not all(map(int.__instancecheck__, self.entries)):
            raise TypeError("IntMatrix entries must be ints")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """The matrix of a list of rows; ``cols`` gives the width of an empty list."""
        c = cols if cols is not None else len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(len(rows), c, tuple(int(x) for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product, each row as a combination of other's rows over the
        nonzero entries of the row of self."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        rows = [other.row(k) for k in range(other.rows)]
        out: list[int] = []
        for i in range(self.rows):
            acc = [0] * other.cols
            for c, row in zip(self.row(i), rows):
                if c:
                    acc = [x + c * y for x, y in zip(acc, row)]
            out.extend(acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product; accepts int or Fraction coordinates."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(a * x for a, x in zip(self.row(i), vec)) for i in range(self.rows)]


def _from_columns(columns: Sequence[Sequence[int]], nrows: int) -> IntMatrix:
    return IntMatrix(nrows, len(columns), tuple(x for row in zip(*columns) for x in row))


def rank(a: IntMatrix) -> int:
    """Rank over ℚ, by fraction-free Gauss–Jordan elimination over ``int``."""
    return len(fraction_free_rref([list(a.row(i)) for i in range(a.rows)], a.cols)[0])


def _reduce(row: list[int], pivot: Sequence[int], c: int) -> list[int]:
    """row minus the multiple of pivot that leaves row[c] between 0 and pivot[c]."""
    q = row[c] // pivot[c]
    return [x - q * y for x, y in zip(row, pivot)] if q else row


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """The Hermite basis of the kernel lattice {x in ZZ^n : A x = 0}, as columns.

    Unimodular row operations on the rows (column j of A | unit vector j),
    by Euclid down each column. The rows left with a pivot in the A part
    stay unreduced; the others span the kernel, and their unit-vector parts
    end in Hermite normal form. There each row's first nonzero entry, its
    pivot, is positive and right of the previous row's, and the entries
    above a pivot lie in [0, pivot): a lattice's one such basis (Cohen, *A
    Course in Computational Algebraic Number Theory*, §2.4).
    """
    m, n = a.rows, a.cols
    rows = [[a.at(i, j) for i in range(m)] + [int(j == k) for k in range(n)] for j in range(n)]
    top = tail = 0  # rows above top hold pivots, those from tail on are reduced
    for c in range(m + n):
        live = [i for i in range(top, n) if rows[i][c]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][c]))
            rows = [row if i < top or i == p else _reduce(row, rows[p], c) for i, row in enumerate(rows)]
            live = [i for i in live if rows[i][c]]
        if live:
            rows[top], rows[live[0]] = rows[live[0]], rows[top]
            if rows[top][c] < 0:
                rows[top] = [-x for x in rows[top]]
            for i in range(tail, top):
                rows[i] = _reduce(rows[i], rows[top], c)
            top += 1
            tail = top if c < m else tail
    return _from_columns([row[m:] for row in rows[tail:top]], n)


def hermite_solve(h: IntMatrix, t: IntMatrix) -> Optional[IntMatrix]:
    """The integer X with H·X = T, for a basis H from ``integer_kernel``, or
    None when a column of T is not in the lattice of H's columns.

    Column i of H is zero above its pivot row p_i, and p_0 < p_1 < ..., so
    going down the rows, a pivot row solves its column by forward
    substitution and every other row must already hold.
    """
    solved: list[list[int]] = []
    for q in range(h.rows):
        row, acc = h.row(q), list(t.row(q))
        for c, x in zip(row, solved):
            if c:
                acc = [a - c * b for a, b in zip(acc, x)]
        i = len(solved)
        if i < h.cols and row[i]:  # the pivot row of column i
            if any(a % row[i] for a in acc):
                return None
            solved.append([a // row[i] for a in acc])
        elif any(acc):
            return None
    return IntMatrix.from_rows(solved, t.cols)


def fraction_free_rref(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss–Jordan elimination on the first ``ncols`` columns.

    Reduces the integer ``rows`` in place to d·R, where R is the reduced row
    echelon form that Gauss–Jordan over ℚ reaches with the same pivot
    choices (first nonzero entry from the top), and returns
    ``(pivot columns, d)``. Each step updates every other row to
    ``(x·p − f·y) // d_prev``, which divides exactly (Bareiss), so the
    entries stay integer minors of the input; d is the last pivot, nonzero
    and possibly negative. Columns past ``ncols`` are carried along.

    When the pivots cover every one of the ``ncols`` columns of a square
    block, d is the determinant of that block with its rows permuted, so
    |det| = |d|; the pivots fall short exactly when the determinant is 0.
    """
    pivots: list[int] = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(x * p - f * y) // d for x, y in zip(row, top)]
        d = p
        pivots.append(c)
    return pivots, d


def lattice_quotient(basis: IntMatrix) -> IntMatrix:
    """Projection ℤ^n → ℤ^(n−r) whose kernel is the saturation of the column span.

    Its rows are the Hermite basis of the integer covectors that vanish on
    the columns, ``integer_kernel`` of the transpose. That lattice is
    saturated, so the map is onto; ``integer_kernel`` of it is the
    saturation. The Hermite basis is canonical, which makes quotient
    coordinates reproducible across runs.
    """
    return integer_kernel(basis.transpose()).transpose()


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    """Divide out the gcd; sign is preserved. Zero vector is rejected."""
    g = math.gcd(*[abs(int(x)) for x in v]) if any(v) else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in v)

"""Exact integer and rational linear algebra.

Everything downstream (cone membership, moduli cone dimensions, lattice
multiplicities) is decided by the routines in this module, so all of them
work over arbitrary-precision ``int`` and never touch floating point.
Rational inputs and results are ``fractions.Fraction``, but no
elimination does arithmetic on them. Apart from the Smith normal form,
which works on ``int`` directly, there is one elimination:
``fraction_free_rref``, a fraction-free Gauss–Jordan. ``rank``,
``solve_rational`` and ``solve_rational_matrix`` run it on right-hand
sides cleared of their denominators and divide out once at the end;
determinants are read off its last pivot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

# Rational coordinates throughout the package are plain ``Fraction``s; the
# stdlib type already maintains denominator > 0 and gcd-reduced form.
Rational = Fraction


class RankDeficientError(ValueError):
    """The matrix does not surject onto its target lattice after ⊗ℚ."""


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
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("IntMatrix entries must be ints")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(int(x) for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product; accepts int or Fraction coordinates."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(self.at(i, j) * vec[j] for j in range(self.cols)) for i in range(self.rows)]


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


def _swap_rows(m: list[list[int]], a: int, b: int) -> None:
    m[a], m[b] = m[b], m[a]


def _swap_cols(m: list[list[int]], a: int, b: int) -> None:
    for row in m:
        row[a], row[b] = row[b], row[a]


def _add_row(m: list[list[int]], src: int, dst: int, factor: int) -> None:
    row_s, row_d = m[src], m[dst]
    for j in range(len(row_d)):
        row_d[j] += factor * row_s[j]


def _add_col(m: list[list[int]], src: int, dst: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize over ℤ with unimodular row/column operations.

    Pivots are chosen as the smallest nonzero absolute value in the
    remaining block, which keeps intermediate entries from exploding.
    The returned diagonal is nonnegative and satisfies the divisibility
    chain d_i | d_{i+1}.
    """
    m, n = a.rows, a.cols
    d = a.to_lists()
    left = IntMatrix.identity(m).to_lists()
    right = IntMatrix.identity(n).to_lists()

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
            _swap_rows(d, t, pi)
            _swap_rows(left, t, pi)
        if pj != t:
            _swap_cols(d, t, pj)
            _swap_cols(right, t, pj)

        while True:
            # Reduce column t, then row t, restarting whenever a remainder
            # smaller than the pivot shows up.
            restart = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        _add_row(d, t, i, -q)
                        _add_row(left, t, i, -q)
                    if d[i][t]:
                        _swap_rows(d, t, i)
                        _swap_rows(left, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        _add_col(d, t, j, -q)
                        _add_col(right, t, j, -q)
                    if d[t][j]:
                        _swap_cols(d, t, j)
                        _swap_cols(right, t, j)
                        restart = True
                        break
            if restart:
                continue
            # Divisibility fix-up: fold a non-divisible entry into row t.
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _add_row(d, bad, t, 1)
            _add_row(left, bad, t, 1)
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            for j in range(n):
                d[i][j] = -d[i][j]
            for j in range(m):
                left[i][j] = -left[i][j]

    return SmithDecomposition(
        IntMatrix.from_rows(left) if m else IntMatrix(0, 0, ()),
        IntMatrix.from_rows(d) if d else IntMatrix(0, n, ()),
        IntMatrix.from_rows(right) if n else IntMatrix(0, 0, ()),
    )


def rank(a: IntMatrix) -> int:
    """Rank over ℚ, by fraction-free Gauss–Jordan elimination over ``int``."""
    return len(fraction_free_rref([list(a.row(i)) for i in range(a.rows)], a.cols)[0])


def lattice_index(a: IntMatrix) -> int:
    """Index of the image lattice A(ℤ^cols) inside ℤ^rows.

    Requires A to be surjective after tensoring with ℚ; equals |det A| for
    square A.
    """
    snf = smith_normal_form(a)
    if snf.rank() < a.rows:
        raise RankDeficientError(
            f"matrix of rank {snf.rank()} cannot surject onto ZZ^{a.rows}"
        )
    return math.prod(d for d in snf.diagonal() if d)


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Basis of the saturated kernel lattice {x in ZZ^cols : A x = 0}.

    The columns of the right unimodular SNF factor beyond the rank span
    exactly the integer kernel, and the kernel of a map to a torsion-free
    group is automatically saturated, so no post-processing is needed.
    """
    snf = smith_normal_form(a)
    r = snf.rank()
    cols = [snf.right.column(j) for j in range(r, a.cols)]
    entries = tuple(col[i] for i in range(a.cols) for col in cols)
    return IntMatrix(a.cols, len(cols), entries)


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


def _solve(a: IntMatrix, b: Sequence[Sequence[Fraction]]) -> Optional[tuple[list[list[Fraction]], int]]:
    """Solve A X = B with every column of B attached to one elimination.

    Each column is cleared of its denominators first, so the elimination
    runs over ``int``; the result is divided out once at the end. Returns
    ``(X, rank A)`` with the free variables set to 0, or None when some
    column is inconsistent.
    """
    ncols = len(b[0]) if b else 0
    columns = [clear_denominators([b[i][j] for i in range(a.rows)]) for j in range(ncols)]
    rows = [list(a.row(i)) + [col[i] for col, _ in columns] for i in range(a.rows)]
    pivots, d = fraction_free_rref(rows, a.cols)
    if any(any(row[a.cols :]) for row in rows[len(pivots) :]):
        return None
    zero = Fraction(0)
    x = [[zero] * ncols for _ in range(a.cols)]
    for row, c in zip(rows, pivots):
        x[c] = [Fraction(n, d * den) for n, (_, den) in zip(row[a.cols :], columns)]
    return x, len(pivots)


def solve_rational(
    a: IntMatrix, b: Sequence[Fraction]
) -> Optional[tuple[tuple[Fraction, ...], bool]]:
    """Solve A x = b exactly over ℚ, by fraction-free elimination.

    Returns ``(solution, unique)`` where ``unique`` is True iff the kernel
    is trivial, or ``None`` when the system is inconsistent. The free
    variables of a non-unique solution are 0.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    sol = _solve(a, [[x] for x in b])
    if sol is None:
        return None
    x, r = sol
    return tuple(row[0] for row in x), r == a.cols


def solve_rational_matrix(a: IntMatrix, b: Sequence[Sequence[Fraction]]) -> Optional[list[list[Fraction]]]:
    """Solve A X = B in one elimination; None if any column is inconsistent."""
    sol = _solve(a, b)
    return None if sol is None else sol[0]


def lattice_quotient(basis: IntMatrix) -> IntMatrix:
    """Projection ℤ^n → ℤ^(n−r) whose kernel is the saturation of the column span.

    The quotient basis is fixed by the SNF of ``basis``: the projection is
    the block of rows of the left unimodular factor past the rank, which
    makes quotient coordinates reproducible across runs.
    """
    snf = smith_normal_form(basis)
    r = snf.rank()
    n = basis.rows
    entries = tuple(snf.left.at(i, j) for i in range(r, n) for j in range(n))
    return IntMatrix(n - r, n, entries)


def saturate_columns(basis: IntMatrix) -> IntMatrix:
    """Basis of the saturation {x in ZZ^n : x in span_QQ(columns)}."""
    snf = smith_normal_form(basis)
    r = snf.rank()
    # left·B·right = D, so the saturation is spanned by the first r columns
    # of left^{-1}; recover them by solving left·X = (e_1 … e_r).
    n = basis.rows
    sol = solve_rational_matrix(snf.left, [[int(k == i) for i in range(r)] for k in range(n)])
    assert sol is not None
    return IntMatrix(n, r, tuple(int(x) for row in sol for x in row))


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    """Divide out the gcd; sign is preserved. Zero vector is rejected."""
    g = math.gcd(*[abs(int(x)) for x in v]) if any(v) else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in v)

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount.exactmath import (
    IntMatrix,
    RankDeficientError,
    fraction_free_rref,
    hermite_solve,
    integer_kernel,
    lattice_index,
    lattice_quotient,
    primitive_vector,
    rank,
    rational_to_string,
    smith_normal_form,
    solve_rational,
)
from tropcount.polyhedral import DependentGeneratorsError, fan_projective_space, quotient_projection


def cofactor_det(rows):
    """Independent determinant oracle by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def reduction_oracle_diagonal(rows):
    """Brute-force elementary row/column reduction, no transform tracking."""
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    t = 0
    while t < min(nr, nc):
        nz = [(abs(m[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if m[i][j]]
        if not nz:
            break
        _, pi, pj = min(nz)
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        done = False
        while not done:
            done = True
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
            if done:
                bad = [(i, j) for i in range(t + 1, nr) for j in range(t + 1, nc) if m[i][j] % m[t][t]]
                if bad:
                    i = bad[0][0]
                    m[t] = [x + y for x, y in zip(m[t], m[i])]
                    done = False
        t += 1
    return tuple(abs(m[i][i]) for i in range(min(nr, nc)))


def check_snf(a: IntMatrix):
    snf = smith_normal_form(a)
    assert snf.left @ a @ snf.right == snf.diag
    assert abs(cofactor_det(snf.left.to_lists())) == 1
    assert abs(cofactor_det(snf.right.to_lists())) == 1
    diag = snf.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert snf.diag.at(i, j) == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert list(diag[: len(nonzero)]) == nonzero, "zero entries must trail"
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return snf


def test_snf_identity():
    a = IntMatrix.identity(2)
    snf = check_snf(a)
    assert snf.diagonal() == (1, 1)
    assert snf.left == IntMatrix.identity(2)
    assert snf.right == IntMatrix.identity(2)


def test_snf_worked_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    snf = check_snf(a)
    assert snf.diagonal() == (2, 4)
    assert snf.diagonal() == reduction_oracle_diagonal([[2, 4], [6, 8]])


def test_snf_zero_matrix():
    snf = check_snf(IntMatrix.from_rows([[0]]))
    assert snf.diagonal() == (0,)


def test_snf_matches_reduction_oracle_randomized():
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        snf = check_snf(IntMatrix.from_rows(rows))
        assert snf.diagonal() == reduction_oracle_diagonal(rows)


def test_the_package_reaches_no_smith_form(monkeypatch, tmp_path):
    # the Smith form is the tests' oracle alone: span cuts, quotient
    # projections, counts, complexes and embeddings run with it refused,
    # each on fans built after the refusal, so no cached cone data hides it
    from tropcount import exactmath
    from tropcount.cli import main

    def refused(*args, **kwargs):
        raise AssertionError("Smith normal form")

    monkeypatch.setattr(exactmath, "_diagonalize", refused)
    with pytest.raises(AssertionError):
        smith_normal_form(IntMatrix.identity(1))
    for r in (2, 3):
        fan = fan_projective_space(r)
        for idx in range(len(fan.cones)):
            fan.cone_data(idx)
    assert quotient_projection(fan_projective_space(2), IntMatrix.from_rows([[1], [1]])).rows == 1
    line = ("--fan", "p2", "--contacts", "p2-degree:1")
    runs = [
        ("count", "--fan", "p2", "--contacts", "p2-degree:2", "--points", "5", "--seed", "0"),
        ("count", *line, "--points", "2", "--subspace", "1,1", "--subspace", "1,0", "--seed", "0"),
        ("complex", *line, "--points", "1"),
        ("embed", *line, "--points", "1"),
    ]
    for argv in runs:
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0


def test_lattice_index_examples():
    assert lattice_index(IntMatrix.identity(2)) == 1
    assert lattice_index(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
    assert lattice_index(IntMatrix.from_rows([[1, 0], [1, 2]])) == 2
    assert lattice_index(IntMatrix.from_rows([[1, 0], [1, 2]])) == abs(
        cofactor_det([[1, 0], [1, 2]])
    )


def test_lattice_index_rejects_rank_deficient():
    with pytest.raises(RankDeficientError):
        lattice_index(IntMatrix.from_rows([[1, 2], [2, 4]]))


def test_integer_kernel_examples():
    k = integer_kernel(IntMatrix.from_rows([[1, 1]]))
    assert k.cols == 1
    assert k.column(0) in {(1, -1), (-1, 1)}

    assert integer_kernel(IntMatrix.identity(2)).cols == 0

    k = integer_kernel(IntMatrix.from_rows([[2, -1, 0], [0, 1, -2]]))
    assert k.cols == 1
    assert k.column(0) in {(1, 2, 1), (-1, -2, -1)}
    # Oracle: small integer vectors solving A x = 0 are all multiples.
    sols = [
        (x, y, z)
        for x in range(-4, 5)
        for y in range(-4, 5)
        for z in range(-4, 5)
        if 2 * x - y == 0 and y - 2 * z == 0 and (x, y, z) != (0, 0, 0)
    ]
    v = k.column(0)
    assert all(x * v[1] == y * v[0] and y * v[2] == z * v[1] for x, y, z in sols)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_is_saturated_and_annihilated(nr, nc, data):
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)
    ]
    a = IntMatrix.from_rows(rows)
    k = integer_kernel(a)
    if k.cols:
        prod = a @ k
        assert all(e == 0 for e in prod.entries)
        assert all(d == 1 for d in smith_normal_form(k).diagonal())
    assert rank(a) + k.cols == a.cols


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_is_the_hermite_form_of_the_snf_tail(nr, nc, data):
    # the columns of smith_normal_form's right factor past the rank span the
    # kernel lattice; the Hermite basis spans the same lattice, by a
    # unimodular change of basis, and is in Hermite normal form as rows
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)]
    a = IntMatrix.from_rows(rows)
    basis = integer_kernel(a)
    snf = smith_normal_form(a)
    tail = [snf.right.column(j) for j in range(snf.rank(), a.cols)]
    assert basis.cols == len(tail)
    if not tail:
        return
    change = solve_columns(basis, tail)
    assert change is not None and all(x.denominator == 1 for col in change for x in col)
    assert abs(cofactor_det([[int(col[i]) for col in change] for i in range(basis.cols)])) == 1
    assert_hermite([basis.column(j) for j in range(basis.cols)])
    # hermite_solve recovers the change of basis
    assert hermite_solve(basis, IntMatrix.from_rows([list(r) for r in zip(*tail)])).to_lists() == [
        [int(col[i]) for col in change] for i in range(basis.cols)
    ]


def assert_hermite(vectors):
    """The vectors, as rows, are in Hermite normal form: each pivot (first
    nonzero entry) positive and right of the previous one, and the entries
    above it in [0, pivot)."""
    pivots = [next(c for c, x in enumerate(v) if x) for v in vectors]
    assert pivots == sorted(set(pivots))
    for i, (v, p) in enumerate(zip(vectors, pivots)):
        assert v[p] > 0 and all(0 <= w[p] < v[p] for w in vectors[:i])


def solve_columns(a, columns):
    """Per column v, the unique solution of A x = v over QQ, or None."""
    out = []
    for v in columns:
        sol = solve_rational(a, [Fraction(x) for x in v])
        if sol is None or not sol[1]:
            return None
        out.append(sol[0])
    return out


def test_hermite_solve_refuses_a_point_off_the_lattice():
    basis = integer_kernel(IntMatrix.from_rows([[1, 1, 2]]))
    assert basis.to_lists() == [[1, 0], [1, 2], [-1, -1]]
    assert hermite_solve(basis, IntMatrix.from_rows([[1], [3], [-2]])).to_lists() == [[1], [1]]
    # off the span
    assert hermite_solve(basis, IntMatrix.from_rows([[1], [0], [0]])) is None
    # in the span of a lattice that is not saturated, but not in the lattice
    lattice = IntMatrix.from_rows([[2, 0], [1, 3]])
    assert hermite_solve(lattice, IntMatrix.from_rows([[2], [4]])).to_lists() == [[1], [1]]
    assert hermite_solve(lattice, IntMatrix.from_rows([[1], [0]])) is None


@given(st.integers(1, 4), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_lattice_quotient_and_saturation_against_the_snf(n, k, data):
    # the oracle: with left·B·right = D, the rows of left past the rank r
    # span the covectors that vanish on B. The quotient spans the same
    # lattice, by a unimodular change, so it has the same kernel; it is onto,
    # and its kernel's basis, the saturation, is saturated and spans B's space
    rows = [[data.draw(st.integers(-6, 6)) for _ in range(k)] for _ in range(n)]
    basis = IntMatrix.from_rows(rows, k)
    proj = lattice_quotient(basis)
    sat = integer_kernel(proj)
    r = rank(basis)
    assert (proj.rows, proj.cols, sat.rows, sat.cols) == (n - r, n, n, r)
    if r < n:
        snf = smith_normal_form(basis)
        tail = [snf.left.row(i) for i in range(r, n)]
        change = solve_columns(IntMatrix.from_rows(tail).transpose(), [proj.row(i) for i in range(n - r)])
        assert change is not None and all(x.denominator == 1 for col in change for x in col)
        assert abs(cofactor_det([[int(x) for x in col] for col in change])) == 1
        assert smith_normal_form(proj).diagonal() == (1,) * (n - r)
        assert_hermite([proj.row(i) for i in range(n - r)])
    assert all(e == 0 for e in (proj @ basis).entries)
    if r:
        assert all(e == 0 for e in (proj @ sat).entries)
        assert smith_normal_form(sat).diagonal() == (1,) * r
        assert rank(IntMatrix.from_rows([b + s for b, s in zip(rows, sat.to_lists())])) == r
        assert_hermite([sat.column(j) for j in range(r)])
    fan = fan_projective_space(n)
    if r == k:
        assert quotient_projection(fan, basis) == proj
    else:
        with pytest.raises(DependentGeneratorsError):
            quotient_projection(fan, basis)


def test_solve_rational_examples():
    sol = solve_rational(IntMatrix.identity(2), [Fraction(1, 2), Fraction(3)])
    assert sol == ((Fraction(1, 2), Fraction(3)), True)

    sol = solve_rational(IntMatrix.from_rows([[1, 1]]), [Fraction(0)])
    assert sol is not None and sol[1] is False
    assert sol[0][0] + sol[0][1] == 0

    assert solve_rational(IntMatrix.from_rows([[1, 0], [1, 0]]), [Fraction(0), Fraction(1)]) is None


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_rational_roundtrip(nr, nc, data):
    rows = [[data.draw(st.integers(-6, 6)) for _ in range(nc)] for _ in range(nr)]
    b = [Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))) for _ in range(nr)]
    a = IntMatrix.from_rows(rows)
    sol = solve_rational(a, b)
    if sol is not None:
        assert a.apply(list(sol[0])) == b


def test_determinant_matches_cofactor():
    # |det| is |last pivot| of fraction_free_rref once its pivots cover
    # every column, and they fall short exactly on the singular squares
    rng = random.Random(12)
    singular = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        want = cofactor_det(rows)
        pivots, d = fraction_free_rref([list(row) for row in rows], n)
        assert (len(pivots) == n) == (want != 0)
        if want:
            assert abs(d) == abs(want)
        singular += want == 0
    assert singular


def test_lattice_quotient_kills_span_and_is_onto():
    basis = IntMatrix.from_rows([[1], [1]])
    proj = lattice_quotient(basis)
    assert proj.rows == 1 and proj.cols == 2
    assert all(e == 0 for e in (proj @ basis).entries)
    assert all(d == 1 for d in smith_normal_form(proj).diagonal())


def test_saturate_columns():
    sat = integer_kernel(quotient_projection(fan_projective_space(2), IntMatrix.from_rows([[2], [4]])))
    assert sat.cols == 1
    assert sat.column(0) in {(1, 2), (-1, -2)}


def test_primitive_vector():
    assert primitive_vector([2, -4, 6]) == (1, -2, 3)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


def test_rational_strings():
    assert rational_to_string(Fraction(3, 1)) == "3"
    assert rational_to_string(Fraction(-3, 7)) == "-3/7"

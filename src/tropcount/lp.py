"""Exact rational feasibility for polyhedral cones.

``strict_point`` finds a point of a cone {y : B y >= 0} with every
inequality strict, or proves there is none: since the region is a cone,
that is a point with B y >= 1. The package reads such points off extreme
rays instead (``moduli.cone_rays``); the tests keep this LP as their
reference. A small dense phase-I simplex settles it exactly. It is
fraction-free (Edmonds' integer pivoting): the tableau is integer
numerators over one common positive denominator, so no step does
``Fraction`` arithmetic, and it makes the same pivots as the simplex over
``Fraction``. Bland's rule keeps it from cycling; the systems involved are
tiny (tens of rows/columns).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .exactmath import clear_denominators

Row = Sequence[Fraction]


def _phase_one(a: Sequence[Row], b: Row) -> Optional[tuple[list[int], int]]:
    """Find x >= 0 with A x = b (b >= 0 assumed), or None.

    A and b may be rational (``int`` or ``Fraction``). The point comes back
    as integer numerators over one positive common denominator.

    Row i is scaled by the lcm s_i of its denominators, which scales its
    artificial variable by s_i too, so the phase-I objective weighs that
    artificial by lcm(s)/s_i. This is the same LP in rescaled variables:
    every reduced cost and every ratio of the rational tableau keeps its
    sign and order, so the entering column (first negative reduced cost),
    the leaving row (least ratio, ties to the least basic index) and the
    returned point match the simplex run over ``Fraction``. A pivot on p
    updates every other row, cost row included, to (x·p − f·y) // d and
    makes p the new common denominator d; the division is exact.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    # Tableau columns: n structural + m artificial + rhs.
    tab = []
    scales = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        ints, s = clear_denominators([*row, rhs])
        tab.append(ints[:-1] + [1 if j == i else 0 for j in range(m)] + ints[-1:])
        scales.append(s)
    total = lcm(*scales)
    weights = [total // s for s in scales]
    # Objective: minimize the weighted sum of artificials; keep reduced costs
    # explicitly (they vanish on the artificial columns).
    cost = [-sum(w * row[j] for w, row in zip(weights, tab)) for j in range(n + m + 1)]
    for i, w in enumerate(weights):
        cost[n + i] += w
    basis = [n + i for i in range(m)]
    d = 1

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test with Bland's rule on ties; ratios compared cross-multiplied.
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # Unbounded phase-I objective cannot happen; defensive.
            return None
        top = tab[leave]
        piv = top[enter]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(x * piv - f * y) // d for x, y in zip(tab[i], top)]
        f = cost[enter]
        cost = [(x * piv - f * y) // d for x, y in zip(cost, top)]
        d = piv
        basis[leave] = enter

    if cost[-1] != 0:
        return None
    x = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
        elif tab[i][-1] != 0:
            return None
    return x, d


def strict_point(rows: list[list[Fraction]], dim: int) -> Optional[list[Fraction]]:
    """A point y with row·y >= 1 for every row, or None if {row·y > 0} is
    empty; with no rows, the zero vector of dimension ``dim``."""
    if not rows:
        return [Fraction(0)] * dim
    # y = u - w with u, w >= 0; slacks s >= 0: B u - B w - s = 1.
    m = len(rows)
    a = [list(r) + [-x for x in r] + [-1 if j == i else 0 for j in range(m)] for i, r in enumerate(rows)]
    sol = _phase_one(a, [1] * m)
    if sol is None:
        return None
    x, d = sol
    return [Fraction(x[j] - x[dim + j], d) for j in range(dim)]


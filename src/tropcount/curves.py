"""Abstract marked rational tropical curves: trees with edge lengths and legs.

Legs are unbounded marked edges attached at a vertex; internal edges carry
a strictly positive rational length, or ``INF`` for a nodal curve.  Nodal
curves can be represented but every moduli operation downstream rejects
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exactmath import rational_to_string

INF = math.inf
Length = Union[Fraction, float]  # Fraction, or math.inf for nodal edges


@dataclass(frozen=True)
class TropicalCurve:
    """A tree with ``vertices`` vertices, weighted internal edges and labelled legs."""

    vertices: int
    internal_edges: tuple[tuple[int, int, Length], ...]
    legs: tuple[tuple[int, int], ...]  # (vertex, label)

    def __post_init__(self):
        for a, b, length in self.internal_edges:
            if not (0 <= a < self.vertices and 0 <= b < self.vertices) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            if length != INF and (not isinstance(length, Fraction) or length <= 0):
                raise ValueError("internal lengths must be positive rationals or INF")
        for v, _ in self.legs:
            if not 0 <= v < self.vertices:
                raise ValueError("leg attached to a missing vertex")
        labels = sorted(label for _, label in self.legs)
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("leg labels must be exactly 1..n+m")
        # Tree check: #edges = #vertices - 1 and connected.
        if len(self.internal_edges) != self.vertices - 1:
            raise ValueError("edge count does not match a tree")
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        if self.vertices == 0:
            return False
        adj: list[list[int]] = [[] for _ in range(self.vertices)]
        for a, b, _ in self.internal_edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertices

    def valence(self, v: int) -> int:
        deg = sum(1 for a, b, _ in self.internal_edges for x in (a, b) if x == v)
        return deg + sum(1 for w, _ in self.legs if w == v)

    def leg_vertex(self, label: int) -> int:
        for v, lab in self.legs:
            if lab == label:
                return v
        raise KeyError(f"no leg labelled {label}")

    def path_vertices(self, a: int, b: int) -> list[int]:
        """Vertices along the unique a-b path, endpoints included."""
        parent = {a: None}
        stack = [a]
        adj: list[list[int]] = [[] for _ in range(self.vertices)]
        for x, y, _ in self.internal_edges:
            adj[x].append(y)
            adj[y].append(x)
        while stack:
            v = stack.pop()
            if v == b:
                break
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        return path[::-1]

    def leg_distance(self, label_a: int, label_b: int) -> Length:
        """Sum of finite internal lengths along the path between two legs."""
        path = self.path_vertices(self.leg_vertex(label_a), self.leg_vertex(label_b))
        lengths = {}
        for x, y, l in self.internal_edges:
            lengths[(x, y)] = l
            lengths[(y, x)] = l
        total: Length = Fraction(0)
        for x, y in zip(path, path[1:]):
            total += lengths[(x, y)]
        return total


def is_smooth(curve: TropicalCurve) -> bool:
    """True iff every internal edge has finite length."""
    return all(l != INF for _, _, l in curve.internal_edges)


def straighten(
    vertices: int,
    edges: Sequence[tuple[int, int]],
    legs: Sequence[tuple[int, int]],
) -> tuple[list[int], list[tuple[int, int]], tuple[tuple[int, int], ...], list[list[int]]]:
    """Erase the 2-valent vertices of a tree combinatorially, as ``stabilize`` does.

    Returns the surviving vertices in increasing order (new vertex ``k`` is
    ``kept[k]``), the straightened edges and legs on the new numbering, and
    per straightened edge the indices of the original edges merged into it.
    """
    work = [[a, b, [i]] for i, (a, b) in enumerate(edges)]
    moved = [[v, lab] for v, lab in legs]
    alive = set(range(vertices))

    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            inc_e = [e for e in work if v in (e[0], e[1])]
            inc_l = [l for l in moved if l[0] == v]
            if len(inc_e) + len(inc_l) != 2:
                continue
            if len(inc_e) == 2:
                e1, e2 = inc_e
                u1 = e1[0] if e1[1] == v else e1[1]
                u2 = e2[0] if e2[1] == v else e2[1]
                work.remove(e1)
                work.remove(e2)
                work.append([u1, u2, e1[2] + e2[2]])
                alive.discard(v)
                changed = True
                break
            if len(inc_e) == 1 and len(inc_l) == 1:
                (e,) = inc_e
                u = e[0] if e[1] == v else e[1]
                work.remove(e)
                inc_l[0][0] = u
                alive.discard(v)
                changed = True
                break
            # two legs: nothing to straighten

    kept = sorted(alive)
    relabel = {old: new for new, old in enumerate(kept)}
    return (
        kept,
        [(relabel[a], relabel[b]) for a, b, _ in work],
        tuple(sorted((relabel[v], lab) for v, lab in moved)),
        [group for _, _, group in work],
    )


def stabilize(curve: TropicalCurve) -> TropicalCurve:
    """Erase 2-valent vertices, adding the lengths of the merged edges.

    A 2-valent vertex whose incident edges are an internal edge and a leg is
    straightened too: the leg slides to the far endpoint (the removed finite
    length is absorbed into the leg's infinite one).  A vertex carrying two
    legs and nothing else is irreducible and stays.
    """
    kept, edges, legs, groups = straighten(
        curve.vertices, [(a, b) for a, b, _ in curve.internal_edges], curve.legs
    )
    lengths = [l for _, _, l in curve.internal_edges]
    merged = tuple(
        (a, b, sum((lengths[k] for k in group), Fraction(0)))
        for (a, b), group in zip(edges, groups)
    )
    return TropicalCurve(len(kept), merged, legs)


def overvalence(curve: TropicalCurve) -> int:
    """Total excess valence of the stabilization over trivalence.

    Each finite vertex of the stabilization contributes max(deg - 3, 0);
    vertices of valence below three only occur for curves with fewer than
    three legs, where the notion degenerates.
    """
    stab = stabilize(curve)
    return sum(max(stab.valence(v) - 3, 0) for v in range(stab.vertices))


# --- JSON interface -------------------------------------------------------


def length_to_json(l: Length) -> str:
    return "inf" if l == INF else rational_to_string(l)


def length_from_json(s: str) -> Length:
    return INF if s == "inf" else Fraction(s)


def curve_to_json(curve: TropicalCurve) -> dict:
    return {
        "schema": "tropcount/1",
        "kind": "curve",
        "vertices": curve.vertices,
        "edges": [[a, b, length_to_json(l)] for a, b, l in curve.internal_edges],
        "legs": [[v, lab] for v, lab in curve.legs],
    }


def curve_from_json(data: dict) -> TropicalCurve:
    return TropicalCurve(
        data["vertices"],
        tuple((a, b, length_from_json(s)) for a, b, s in data["edges"]),
        tuple((v, lab) for v, lab in data["legs"]),
    )

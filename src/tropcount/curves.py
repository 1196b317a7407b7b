"""Abstract marked rational trees and tropical curves.

``TreeShape`` is the one tree of the package: vertices, internal edges
oriented tail < head, and labelled legs (unbounded marked edges attached
at a vertex). Its staticmethod ``parent_walk`` is the package's one
depth-first parent walk, over bare edges that may run either way: it is
behind the tree's connectivity check, its paths from a root
(``signed_paths``), the edge contacts of ``moduli`` and the census sites
of ``counting``. A ``TropicalCurve`` is a view on such a tree: each
internal edge carries a strictly positive rational length, or ``INF`` for
a nodal curve. Nodal curves can be represented but every moduli
operation downstream rejects them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .exactmath import rational_to_string

INF = math.inf
Length = Union[Fraction, float]  # Fraction, or math.inf for nodal edges


class UnknownLabelError(KeyError):
    pass


@dataclass(frozen=True)
class TreeShape:
    """Combinatorial tree with labelled legs and canonically oriented edges."""

    vertices: int
    edges: tuple[tuple[int, int], ...]  # (tail, head) with tail < head
    legs: tuple[tuple[int, int], ...]  # (vertex, label)

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < b < self.vertices):
                raise ValueError(f"edge ({a},{b}) must satisfy tail < head")
        if not all(0 <= v < self.vertices for v, _ in self.legs):
            raise ValueError("leg attached to a missing vertex")
        labels = sorted(lab for _, lab in self.legs)
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("leg labels must be 1..n+m")

    def valence(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b)) + sum(
            1 for w, _ in self.legs if w == v
        )

    def leg_vertex(self, label: int) -> int:
        for v, lab in self.legs:
            if lab == label:
                return v
        raise UnknownLabelError(f"no leg labelled {label}")

    @staticmethod
    def parent_walk(vertices: int, edges, root: int) -> list[tuple[int, int, int]]:
        """Depth-first walk from ``root`` over bare ``(a, b)`` edges, which may
        run either way: (vertex, parent, edge index) per vertex reached past
        the root, each vertex after its parent."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
        for i, (x, y) in enumerate(edges):
            adj[x].append((y, i))
            adj[y].append((x, i))
        walk: list[tuple[int, int, int]] = []
        seen = [False] * vertices
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for w, i in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    walk.append((w, v, i))
                    stack.append(w)
        return walk

    def is_tree(self) -> bool:
        return (
            self.vertices > 0
            and len(self.edges) == self.vertices - 1
            and len(TreeShape.parent_walk(self.vertices, self.edges, 0)) == self.vertices - 1
        )

    @staticmethod
    def signed_paths(vertices: int, edges, root: int) -> list[list[tuple[int, int]]]:
        """Per vertex, the edge indices along its path from ``root`` over bare
        ``(a, b)`` edges, each +1 when walked from a to b and -1 against,
        all read off one parent walk."""
        paths: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
        # the walk reaches each vertex after its parent
        for v, u, i in TreeShape.parent_walk(vertices, edges, root):
            paths[v] = paths[u] + [(i, 1 if edges[i] == (u, v) else -1)]
        return paths

    def straighten(self) -> tuple[list[int], TreeShape, list[list[int]]]:
        """Erase the 2-valent vertices of a tree combinatorially, as ``stabilize`` does.

        Returns the surviving vertices in increasing order (new vertex ``k`` is
        ``kept[k]``), the straightened tree on the new numbering, and per
        straightened edge the indices of the original edges merged into it.
        """
        work = [[a, b, [i]] for i, (a, b) in enumerate(self.edges)]
        moved = [[v, lab] for v, lab in self.legs]
        alive = set(range(self.vertices))

        while True:
            for v in sorted(alive):
                inc_e = [e for e in work if v in (e[0], e[1])]
                inc_l = [l for l in moved if l[0] == v]
                if len(inc_e) + len(inc_l) == 2 and inc_e:  # a vertex with two legs stays
                    break
            else:
                break
            far = [e[0] if e[1] == v else e[1] for e in inc_e]
            for e in inc_e:
                work.remove(e)
            if len(inc_e) == 2:
                work.append([far[0], far[1], inc_e[0][2] + inc_e[1][2]])
            else:
                inc_l[0][0] = far[0]
            alive.discard(v)

        kept = sorted(alive)
        relabel = {old: new for new, old in enumerate(kept)}
        edges = tuple(tuple(sorted((relabel[a], relabel[b]))) for a, b, _ in work)
        legs = tuple(sorted((relabel[v], lab) for v, lab in moved))
        return kept, TreeShape(len(kept), edges, legs), [group for _, _, group in work]


@dataclass(frozen=True)
class TropicalCurve:
    """A tree with ``vertices`` vertices, weighted internal edges and labelled legs."""

    vertices: int
    internal_edges: tuple[tuple[int, int, Length], ...]
    legs: tuple[tuple[int, int], ...]  # (vertex, label)

    def __post_init__(self):
        for _, _, length in self.internal_edges:
            if length != INF and (not isinstance(length, Fraction) or length <= 0):
                raise ValueError("internal lengths must be positive rationals or INF")
        if not self.shape.is_tree():
            raise ValueError("graph is not a tree")

    @cached_property
    def shape(self) -> TreeShape:
        """The underlying tree: each edge oriented tail < head, in this curve's edge order."""
        return TreeShape(
            self.vertices,
            tuple((min(a, b), max(a, b)) for a, b, _ in self.internal_edges),
            self.legs,
        )

    def leg_distance(self, label_a: int, label_b: int) -> Length:
        """Sum of finite internal lengths along the path between two legs."""
        shape = self.shape
        paths = TreeShape.signed_paths(shape.vertices, shape.edges, shape.leg_vertex(label_a))
        return sum((self.internal_edges[i][2] for i, _ in paths[shape.leg_vertex(label_b)]), Fraction(0))


def is_smooth(curve: TropicalCurve) -> bool:
    """True iff every internal edge has finite length."""
    return all(l != INF for _, _, l in curve.internal_edges)


def stabilize(curve: TropicalCurve) -> TropicalCurve:
    """Erase 2-valent vertices, adding the lengths of the merged edges.

    A 2-valent vertex whose incident edges are an internal edge and a leg is
    straightened too: the leg slides to the far endpoint (the removed finite
    length is absorbed into the leg's infinite one).  A vertex carrying two
    legs and nothing else is irreducible and stays. Edges come out oriented
    tail < head.
    """
    _, stab, groups = curve.shape.straighten()
    lengths = [l for _, _, l in curve.internal_edges]
    merged = tuple(
        (a, b, sum((lengths[k] for k in group), Fraction(0)))
        for (a, b), group in zip(stab.edges, groups)
    )
    return TropicalCurve(stab.vertices, merged, stab.legs)


def overvalence(curve: TropicalCurve) -> int:
    """Total excess valence of the stabilization over trivalence.

    Each finite vertex of the stabilization contributes max(deg - 3, 0);
    vertices of valence below three only occur for curves with fewer than
    three legs, where the notion degenerates.
    """
    stab = stabilize(curve).shape
    return sum(max(stab.valence(v) - 3, 0) for v in range(stab.vertices))


# --- JSON interface -------------------------------------------------------


def length_to_json(l: Length) -> str:
    return "inf" if l == INF else rational_to_string(l)


def length_from_json(s: str) -> Length:
    return INF if s == "inf" else Fraction(s)


def curve_to_json(curve: TropicalCurve) -> dict:
    from .polyhedral import SCHEMA  # here, not at the top, so that curves loads before polyhedral
    return {
        "schema": SCHEMA,
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

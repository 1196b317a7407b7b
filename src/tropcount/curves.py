"""Abstract marked rational trees.

``TreeShape`` is the one tree of the package: vertices, internal edges
oriented tail < head, and labelled legs (unbounded marked edges attached
at a vertex). Its staticmethod ``parent_walk`` is the package's one
depth-first parent walk, over bare edges that may run either way: it is
behind the tree's connectivity check, its paths from a root
(``signed_paths``), the edge contacts of ``moduli`` and the census sites
of ``counting``. ``straighten`` is the package's one stabilizer: a tree's
lengths or a map's follow it through the edge groups it returns.
"""
from __future__ import annotations

from dataclasses import dataclass


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
        """Erase the 2-valent vertices of a tree combinatorially.

        The two edges at a 2-valent vertex merge into one. At a vertex with
        one edge and one leg, the leg slides to the edge's far end (its
        infinite length absorbs the edge's). A vertex carrying two legs and
        nothing else is irreducible and stays.

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

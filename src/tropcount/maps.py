"""Tropical stable maps to a fan: discrete data, combinatorial types, validation.

A combinatorial type records the source tree (a ``curves.TreeShape``), a
cone for each vertex, a contact order for each edge and a carrier cone for
every edge and leg.  Edge contacts are stored for the tail->head
orientation with tail < head, the form ``oriented`` puts an edge in.
``CombinatorialType.stars`` gives the star of every vertex in one pass,
read by type checks, balancing and stability.  Vertex cones and carriers
may be ``None`` for the stabilized types used by the counting engine,
where vertices roam freely; the solver fills them in afterwards.

Constructors here are deliberately permissive: broken maps must be
representable so that ``validate`` can report exactly which conditions
fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .curves import TreeShape, TropicalCurve, UnknownLabelError
from .exactmath import rational_to_string
from .polyhedral import (
    Fan,
    SCHEMA,
    NotCompleteError,
    extended_point,
    fan_from_json,
    fan_to_json,
    locate,
    ExtendedPoint,
)

Vector = tuple[int, ...]
Point = tuple[Fraction, ...]
Walk = tuple[tuple[int, ...], tuple[int, ...]]  # (carriers, crossed faces)
Star = list[tuple[Vector, Optional[int]]]  # (contact leaving a vertex, carrier) per edge and leg at it


class InvalidTypeError(ValueError):
    pass


class InfiniteCrossingError(RuntimeError):
    """An edge cannot be threaded through the fan (incomplete support)."""


def oriented(a: int, b: int, c: Vector) -> tuple[tuple[int, int], Vector]:
    """Edge a->b with contact c, stored as (tail, head) with tail < head."""
    return ((a, b), c) if a < b else ((b, a), tuple(-x for x in c))


@dataclass(frozen=True)
class DiscreteData:
    """Contact orders for the marked legs of a map to ``fan``."""

    fan: Fan
    contact_legs: tuple[tuple[int, Vector], ...]  # (label, contact order != 0)
    trivial_legs: tuple[int, ...]  # labels

    def __post_init__(self):
        labels = sorted([lab for lab, _ in self.contact_legs] + list(self.trivial_legs))
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("labels must partition 1..n+m")
        for lab, c in self.contact_legs:
            if len(c) != self.fan.rank:
                raise ValueError("contact order has wrong rank")
            if all(x == 0 for x in c):
                raise ValueError(f"contact leg {lab} has zero contact order")

    @property
    def n(self) -> int:
        return len(self.contact_legs)

    @property
    def m(self) -> int:
        return len(self.trivial_legs)

    def check_contacts(self, use: str) -> None:
        """Refuse contacts that ``use`` cannot take: off the fan's rays, or unbalanced."""
        if not torically_transverse(self):
            raise ValueError(f"{use} requires torically transverse contact data")
        total = [sum(c[k] for _, c in self.contact_legs) for k in range(self.fan.rank)]
        if any(total):
            raise ValueError(f"the contact orders sum to {total}, not to zero, so no map balances")

    def degree_vector(self) -> dict[int, int]:
        """Per-ray total weight; defined only for torically transverse data."""
        if not torically_transverse(self):
            raise ValueError("degree vector needs torically transverse contacts")
        out = {i: 0 for i in range(len(self.fan.rays))}
        for _, c in self.contact_legs:
            ray_idx = self.fan.cones[locate(self.fan, [Fraction(x) for x in c])][0]
            ray = self.fan.rays[ray_idx]
            w = next(abs(ci) // abs(ri) for ci, ri in zip(c, ray) if ri)
            out[ray_idx] += w
        return out


def torically_transverse(gamma: DiscreteData) -> bool:
    """True iff every nonzero contact order sits on a ray of the fan."""
    for _, c in gamma.contact_legs:
        try:
            idx = locate(gamma.fan, [Fraction(x) for x in c])
        except NotCompleteError:
            return False
        if gamma.fan.dim(idx) != 1:
            return False
    return True


@dataclass(frozen=True)
class CombinatorialType:
    """Discrete skeleton of a tropical stable map.

    ``vertex_cones[v]`` is a cone index or None (vertex unconfined);
    ``edge_contacts[i]`` is the contact order of edge i for its tail->head
    orientation; carriers are cone indices or None when undetermined.
    """

    fan: Fan
    shape: TreeShape
    vertex_cones: tuple[Optional[int], ...]
    edge_contacts: tuple[Vector, ...]
    edge_carriers: tuple[Optional[int], ...]
    leg_contacts: tuple[Vector, ...]  # aligned with shape.legs
    leg_carriers: tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.vertex_cones) != self.shape.vertices:
            raise ValueError("vertex_cones length mismatch")
        if len(self.edge_contacts) != len(self.shape.edges):
            raise ValueError("edge_contacts length mismatch")
        if len(self.edge_carriers) != len(self.shape.edges):
            raise ValueError("edge_carriers length mismatch")
        if len(self.leg_contacts) != len(self.shape.legs):
            raise ValueError("leg_contacts length mismatch")
        if len(self.leg_carriers) != len(self.shape.legs):
            raise ValueError("leg_carriers length mismatch")

    def stars(self) -> list[Star]:
        """Per vertex v, its star: (contact leaving v, carrier) of its edges, then its legs."""
        out: list[Star] = [[] for _ in range(self.shape.vertices)]
        for (a, b), c, car in zip(self.shape.edges, self.edge_contacts, self.edge_carriers):
            out[a].append((c, car))
            out[b].append((tuple(-x for x in c), car))
        for (w, _), c, car in zip(self.shape.legs, self.leg_contacts, self.leg_carriers):
            out[w].append((c, car))
        return out

    def check(self) -> None:
        """Raise InvalidTypeError if the structural invariants fail."""
        if not self.shape.is_tree():
            raise InvalidTypeError("shape is not a tree")
        if not all(_balanced(star) for star in self.stars()):
            raise InvalidTypeError("balancing fails at some vertex")
        for i, (a, b) in enumerate(self.shape.edges):
            car = self.edge_carriers[i]
            if car is None:
                continue
            for v, sign in ((a, 1), (b, -1)):
                cone_v = self.vertex_cones[v]
                if cone_v is not None and not _is_face(self.fan, cone_v, car):
                    raise InvalidTypeError(f"vertex cone of {v} is not a face of edge {i}'s carrier")
                c = tuple(sign * x for x in self.edge_contacts[i])
                # base is a face of car, so this says c lies in car + span(base)
                germ = self.fan.germ(cone_v if cone_v is not None else car, c)
                if germ is None or not _is_face(self.fan, germ, car):
                    raise InvalidTypeError(f"edge {i} does not point into its carrier from vertex {v}")
        for j, (v, lab) in enumerate(self.shape.legs):
            car = self.leg_carriers[j]
            if car is None:
                continue
            cone_v = self.vertex_cones[v]
            if cone_v is not None and not _is_face(self.fan, cone_v, car):
                raise InvalidTypeError(f"vertex cone of leg {lab}'s vertex is not a face of its carrier")
            c = self.leg_contacts[j]
            if any(c) and not self.fan.contains(car, c):
                raise InvalidTypeError(f"leg {lab} leaves its carrier cone")


def _balanced(star: Star) -> bool:
    return not any(sum(xs) for xs in zip(*(c for c, _ in star)))


def _is_face(fan: Fan, small: int, big: int) -> bool:
    return set(fan.cones[small]) <= set(fan.cones[big])


@dataclass(frozen=True)
class TropicalStableMap:
    """Vertex positions and edge lengths realizing a combinatorial type."""

    type: CombinatorialType
    positions: tuple[Point, ...]
    lengths: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.positions) != self.type.shape.vertices:
            raise ValueError("positions length mismatch")
        if len(self.lengths) != len(self.type.shape.edges):
            raise ValueError("lengths length mismatch")

    def curve(self) -> TropicalCurve:
        return TropicalCurve(
            self.type.shape.vertices,
            tuple((a, b, l) for (a, b), l in zip(self.type.shape.edges, self.lengths)),
            self.type.shape.legs,
        )


@dataclass(frozen=True)
class Violation:
    condition: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def conditions(self) -> set[str]:
        return {v.condition for v in self.violations}


CHECK_ORDER = (
    "tree",
    "smooth",
    "positive-length",
    "vertex-in-cone",
    "edge-equation",
    "edge-in-cone",
    "balancing",
    "stability",
)


def validate(f: TropicalStableMap) -> ValidationReport:
    """Check the defining conditions of a tropical stable map, in order.

    Returns a report listing every violated condition with the offending
    vertex or edge; an empty report means the map is valid.
    """
    fan = f.type.fan
    shape = f.type.shape
    out: list[Violation] = []

    if not shape.is_tree():
        out.append(Violation("tree", "source graph is not a tree"))
        return ValidationReport(tuple(out))

    for i, l in enumerate(f.lengths):
        if not isinstance(l, Fraction):
            out.append(Violation("smooth", f"edge {i} has non-finite length"))
        elif l <= 0:
            out.append(Violation("positive-length", f"edge {i} has length {l} <= 0"))

    for v, cone in enumerate(f.type.vertex_cones):
        if cone is None:
            continue
        if not fan.contains(cone, f.positions[v]):
            out.append(Violation("vertex-in-cone", f"vertex {v} lies outside its cone"))

    for i, ((a, b), c) in enumerate(zip(shape.edges, f.type.edge_contacts)):
        if not isinstance(f.lengths[i], Fraction):
            continue
        expect = tuple(pa + f.lengths[i] * ci for pa, ci in zip(f.positions[a], c))
        if expect != tuple(f.positions[b]):
            out.append(Violation("edge-equation", f"edge {i}: head - tail != length * contact"))

    for i, ((a, b), car) in enumerate(zip(shape.edges, f.type.edge_carriers)):
        if car is None:
            out.append(Violation("edge-in-cone", f"edge {i} has no carrier cone"))
            continue
        # Both endpoints inside the closed simplicial carrier is enough:
        # the segment between them cannot leave it.
        if not (fan.contains(car, f.positions[a]) and fan.contains(car, f.positions[b])):
            out.append(Violation("edge-in-cone", f"edge {i} leaves its carrier cone"))
    for j, ((v, lab), car) in enumerate(zip(shape.legs, f.type.leg_carriers)):
        if car is None:
            out.append(Violation("edge-in-cone", f"leg {lab} has no carrier cone"))
            continue
        c = f.type.leg_contacts[j]
        inside = fan.contains(car, f.positions[v])
        ray_ok = (not any(c)) or fan.contains(car, [Fraction(x) for x in c])
        if not (inside and ray_ok):
            out.append(Violation("edge-in-cone", f"leg {lab} leaves its carrier cone"))

    stars = f.type.stars()
    for v, star in enumerate(stars):
        if not _balanced(star):
            out.append(Violation("balancing", f"vertex {v} is unbalanced"))

    out.extend(_stability_violations(f, stars))
    order = {name: k for k, name in enumerate(CHECK_ORDER)}
    out.sort(key=lambda viol: order[viol.condition])
    return ValidationReport(tuple(out))


def _stability_violations(f: TropicalStableMap, stars: list[Star]) -> list[Violation]:
    fan = f.type.fan
    out = []
    for v, branches in enumerate(stars):
        if all(not any(c) for c, _ in branches):
            # Vertex is contracted to a point; it needs three special points.
            if len(branches) < 3:
                out.append(
                    Violation("stability", f"contracted vertex {v} has only {len(branches)} special points")
                )
            continue
        if len(branches) != 2:
            continue
        (c1, car1), (c2, car2) = branches
        if not (any(c1) and any(c2)):
            continue  # unbalanced; reported elsewhere
        # Divalent image vertex: stable only as a genuine wall crossing.
        try:
            small = locate(fan, f.positions[v])
        except NotCompleteError:
            continue
        ok = (
            car1 is not None
            and car2 is not None
            and car1 != car2
            and _is_face(fan, small, car1)
            and _is_face(fan, small, car2)
            and fan.dim(small) < fan.dim(car1)
            and fan.dim(small) < fan.dim(car2)
        )
        if not ok:
            out.append(Violation("stability", f"divalent vertex {v} is not a wall crossing"))
    return out


def _walk(fan: Fan, cone: int, start: Point, c: Vector, total: Optional[Fraction]):
    """Cut the segment (or ray, when total is None) from ``start``, a point of
    relint(cone), along c where it crosses walls.

    Returns (carriers, crossed faces, crossing points, lengths of the
    bounded pieces): the walk ``threaded`` takes, and where it goes.
    """
    carriers, faces, points, lengths = [], [], [], []
    current = list(start)
    remaining = total
    cfrac = [Fraction(x) for x in c]
    for _ in range(len(fan.cones) + 1):
        germ = fan.germ(cone, c)
        if germ is None:
            raise InfiniteCrossingError(f"no cone carries the germ at {current} toward {c}")
        carriers.append(germ)
        cb = fan.cone_coefficients(germ, current)
        cd = fan.cone_coefficients(germ, cfrac)
        assert cb is not None and cd is not None
        exit_t = min((-b / d for b, d in zip(cb, cd) if d < 0), default=None)
        if exit_t is None or (remaining is not None and exit_t >= remaining):
            if remaining is not None:
                lengths.append(remaining)
            return tuple(carriers), tuple(faces), points, lengths
        lengths.append(exit_t)
        current = [x + exit_t * ci for x, ci in zip(current, cfrac)]
        points.append(tuple(current))
        cone = locate(fan, current)  # a face of the closed germ, so never off the fan
        faces.append(cone)
        if remaining is not None:
            remaining -= exit_t
    raise InfiniteCrossingError("crossed more walls than the fan has cones")


def threaded(
    fan: Fan,
    shape: TreeShape,
    cones: Sequence[int],
    edge_contacts: Sequence[Vector],
    leg_contacts: Sequence[Vector],
    edge_walks: Sequence[Walk],
    leg_walks: Sequence[Walk],
) -> CombinatorialType:
    """The type of ``shape`` with every edge and leg cut where its walk crosses a wall.

    ``cones`` holds the cones of the shape's vertices, edge contacts are for
    the tail->head orientation, and each walk has a crossed face between
    each two carriers. A 2-valent vertex is chained on at each crossed
    face. New vertices are numbered on from ``shape.vertices``, edge by
    edge and then leg by leg, and the pieces of the edges and legs follow
    in the same order.
    """
    cones = list(cones)
    edges: list[tuple[int, int]] = []
    contacts: list[Vector] = []
    carriers: list[int] = []

    def add_edge(a: int, b: int, c: Vector, carrier: int) -> None:
        edge, c = oriented(a, b, c)
        edges.append(edge)
        contacts.append(c)
        carriers.append(carrier)

    def chain(cursor: int, c: Vector, walk: Walk) -> int:
        """Chain a new vertex on each crossed face from ``cursor``; returns the last."""
        for carrier, face in zip(*walk):
            add_edge(cursor, len(cones), c, carrier)
            cursor = len(cones)
            cones.append(face)
        return cursor

    for (a, b), c, walk in zip(shape.edges, edge_contacts, edge_walks):
        add_edge(chain(a, c, walk), b, c, walk[0][-1])
    legs = tuple((chain(v, c, walk), lab) for (v, lab), c, walk in zip(shape.legs, leg_contacts, leg_walks))
    return CombinatorialType(
        fan,
        TreeShape(len(cones), tuple(edges), legs),
        tuple(cones),
        tuple(contacts),
        tuple(carriers),
        tuple(leg_contacts),
        tuple(cars[-1] for cars, _ in leg_walks),
    )


def subdivide(f: TropicalStableMap) -> TropicalStableMap:
    """Insert 2-valent vertices exactly where edge segments cross cone walls.

    The output satisfies the one-edge-one-cone condition, restricts to the
    input on surviving vertices, and recomputes vertex cones and carriers
    canonically (smallest cones) from the geometry: each vertex and each
    crossing point is located once.
    """
    fan = f.type.fan
    shape = f.type.shape
    cones = [locate(fan, p) for p in f.positions]
    positions = [tuple(p) for p in f.positions]
    lengths: list[Fraction] = []

    def walk(v: int, c: Vector, total: Optional[Fraction]):
        carriers, faces, points, pieces = _walk(fan, cones[v], f.positions[v], c, total)
        positions.extend(points)
        lengths.extend(pieces)
        return carriers, faces

    edge_walks = [walk(a, c, l) for (a, _), c, l in zip(shape.edges, f.type.edge_contacts, f.lengths)]
    leg_walks = [walk(v, c, None) for (v, _), c in zip(shape.legs, f.type.leg_contacts)]
    new_type = threaded(fan, shape, cones, f.type.edge_contacts, f.type.leg_contacts, edge_walks, leg_walks)
    return TropicalStableMap(new_type, tuple(positions), tuple(lengths))


def ev_trop(f: TropicalStableMap, label: int) -> ExtendedPoint:
    """Image of the infinite point of the marked edge with the given label."""
    fan = f.type.fan
    for (v, lab), c in zip(f.type.shape.legs, f.type.leg_contacts):
        if lab == label:
            if not any(c):
                zero = fan.cone_index(())
                return ExtendedPoint(zero, tuple(f.positions[v]))
            return extended_point(fan, f.positions[v], c)
    raise UnknownLabelError(f"no leg labelled {label}")


# --- JSON interface -------------------------------------------------------


def _cone_ref(fan: Fan, idx: Optional[int]):
    return None if idx is None else fan.cone_refs[0][idx]


def _cone_deref(fan: Fan, ref) -> Optional[int]:
    if ref is None:
        return None
    idx = fan.cone_refs[1].get(tuple(sorted(tuple(r) for r in ref)))
    if idx is None:
        raise ValueError(f"no cone with rays {ref}")
    return idx


def type_to_json(t: CombinatorialType) -> dict:
    return {
        "vertices": t.shape.vertices,
        "vertex_cones": [_cone_ref(t.fan, c) for c in t.vertex_cones],
        "edges": [
            [a, b, list(c), _cone_ref(t.fan, car)]
            for (a, b), c, car in zip(t.shape.edges, t.edge_contacts, t.edge_carriers)
        ],
        "legs": [
            [v, lab, list(c), _cone_ref(t.fan, car)]
            for (v, lab), c, car in zip(t.shape.legs, t.leg_contacts, t.leg_carriers)
        ],
    }


def _check_rank(fan: Fan, what: str, vector) -> None:
    """Refuse an input vector with other than the fan's rank of coordinates."""
    if len(vector) != fan.rank:
        raise ValueError(f"{what} has {len(vector)} coordinates, but the fan has rank {fan.rank}")


def type_from_json(fan: Fan, data: dict) -> CombinatorialType:
    for a, b, c, _ in data["edges"]:
        _check_rank(fan, f"the contact of edge ({a}, {b})", c)
    for _, lab, c, _ in data["legs"]:
        _check_rank(fan, f"the contact of leg {lab}", c)
    edges = tuple((a, b) for a, b, _, _ in data["edges"])
    legs = tuple((v, lab) for v, lab, _, _ in data["legs"])
    return CombinatorialType(
        fan,
        TreeShape(data["vertices"], edges, legs),
        tuple(_cone_deref(fan, ref) for ref in data["vertex_cones"]),
        tuple(tuple(c) for _, _, c, _ in data["edges"]),
        tuple(_cone_deref(fan, ref) for _, _, _, ref in data["edges"]),
        tuple(tuple(c) for _, _, c, _ in data["legs"]),
        tuple(_cone_deref(fan, ref) for _, _, _, ref in data["legs"]),
    )


def map_to_json(f: TropicalStableMap) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "map",
        "fan": fan_to_json(f.type.fan),
        "type": type_to_json(f.type),
        "positions": [[rational_to_string(x) for x in p] for p in f.positions],
        "lengths": [rational_to_string(l) for l in f.lengths],
    }


def map_from_json(data: dict, fan: Optional[Fan] = None) -> TropicalStableMap:
    fan = fan if fan is not None else fan_from_json(data["fan"])
    t = type_from_json(fan, data["type"])
    for v, p in enumerate(data["positions"]):
        _check_rank(fan, f"the position of vertex {v}", p)
    positions = tuple(tuple(Fraction(x) for x in p) for p in data["positions"])
    lengths = tuple(Fraction(l) for l in data["lengths"])
    return TropicalStableMap(t, positions, lengths)

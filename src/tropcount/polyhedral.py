"""Complete simplicial fans, their canonical compactifications, and quotients.

A fan is stored as primitive ray vectors plus cones given by ray-index
sets; the zero cone is the empty set. Membership, location and the cone
a germ enters (``Fan.germ``) are decided exactly by the signs of ray
coefficients, read as integer dot products from per-cone data that the
fan builds once (``ConeData``), and points of the compactified fan are
represented by the stratum they fall in together with rational
coordinates in a deterministically chosen quotient basis.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .exactmath import (
    IntMatrix,
    clear_denominators,
    fraction_free_rref,
    lattice_quotient,
    primitive_vector,
    rank,
)

SCHEMA = "tropcount/1"


class NotSimplicialError(ValueError):
    """A cone's rays are linearly dependent."""


class NotCompleteError(ValueError):
    """No cone of the fan contains the queried point/direction."""


class DependentGeneratorsError(ValueError):
    """Subspace generators are linearly dependent."""


class DirectionOutsideFanError(NotCompleteError):
    """The requested recession direction misses the fan's support."""


Vector = tuple[int, ...]
Point = tuple[Fraction, ...]


class ConeData(NamedTuple):
    """Integer data that decides membership in one simplicial cone.

    With R the cone's ray matrix and G = RᵀR its Gram matrix, an integer
    vector q lies in span(R) iff ``projection``·q = 0, and then its ray
    coefficients are ``coefficients``·q / ``det``, where ``coefficients``
    is adj(G)·Rᵀ and ``det`` = det G > 0.
    """

    projection: tuple[tuple[int, ...], ...]
    coefficients: tuple[tuple[int, ...], ...]
    det: int


def _dot(row: Sequence[int], q: Sequence[int]) -> int:
    return sum(a * x for a, x in zip(row, q))


@dataclass(frozen=True)
class Fan:
    """A simplicial fan in ZZ^rank, closed under taking faces.

    ``cones`` lists sorted ray-index tuples; the empty tuple is the zero
    cone and is always present. Completeness is assumed for the named
    constructors and spot-checked by random location in the tests rather
    than certified.
    """

    rank: int
    rays: tuple[Vector, ...]
    cones: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        for ray in self.rays:
            if len(ray) != self.rank:
                raise ValueError("ray length differs from fan rank")
            if primitive_vector(ray) != tuple(ray):
                raise ValueError(f"ray {ray} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        seen = set(self.cones)
        if len(seen) != len(self.cones):
            raise ValueError("duplicate cones")
        if () not in seen:
            raise ValueError("zero cone missing; use Fan.make to normalize")
        for cone in self.cones:
            if list(cone) != sorted(set(cone)):
                raise ValueError("cone ray indices must be sorted and distinct")
            if any(i < 0 or i >= len(self.rays) for i in cone):
                raise ValueError("cone refers to a missing ray")
            if cone and rank(self._ray_matrix(cone)) != len(cone):
                raise NotSimplicialError(f"cone {cone} has dependent rays")
            for i in range(len(cone)):
                face = cone[:i] + cone[i + 1 :]
                if face not in seen:
                    raise ValueError("fan is not closed under faces")

    @staticmethod
    def make(rank: int, rays: Sequence[Sequence[int]], cones: Sequence[Sequence[int]], name: str = "") -> "Fan":
        """Normalize input: add all faces, sort, deduplicate."""
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        closed: set[tuple[int, ...]] = {()}
        for cone in cones:
            cone = tuple(sorted(set(int(i) for i in cone)))
            for mask in range(1 << len(cone)):
                closed.add(tuple(c for k, c in enumerate(cone) if mask >> k & 1))
        return Fan(rank, rays, tuple(sorted(closed, key=lambda c: (len(c), c))), name)

    def _ray_matrix(self, cone: Sequence[int]) -> IntMatrix:
        """Rays of the cone as matrix columns (rank x |cone|)."""
        entries = tuple(self.rays[i][r] for r in range(self.rank) for i in cone)
        return IntMatrix(self.rank, len(cone), entries)

    def cone_index(self, cone: Sequence[int]) -> int:
        return self.cones.index(tuple(sorted(cone)))

    def dim(self, cone_idx: int) -> int:
        return len(self.cones[cone_idx])

    def maximal_cones(self) -> list[int]:
        out = []
        for i, c in enumerate(self.cones):
            s = set(c)
            if not any(s < set(d) for d in self.cones):
                out.append(i)
        return out

    @cached_property
    def _cone_cache(self) -> dict[int, ConeData]:
        # Not a field, so ==, hash and repr ignore it; __getstate__ drops it.
        return {}

    @cached_property
    def _germ_cache(self) -> dict[tuple[int, Vector], Optional[int]]:
        return {}

    @cached_property
    def cone_refs(self) -> tuple[tuple[tuple[Vector, ...], ...], dict[tuple[Vector, ...], int]]:
        """Each cone as its sorted ray vectors, by which a type's JSON refers
        to it, and the index of each such reference."""
        refs = tuple(tuple(sorted(self.rays[i] for i in cone)) for cone in self.cones)
        return refs, {ref: idx for idx, ref in enumerate(refs)}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for cache in ("_cone_cache", "_germ_cache", "cone_refs"):
            state.pop(cache, None)
        return state

    def cone_data(self, cone_idx: int) -> ConeData:
        """The cone's ``ConeData``, built on first use and cached on the fan.

        One ``fraction_free_rref`` on (G | Rᵀ) leaves d·(I | G⁻¹Rᵀ). G is
        positive definite, so every pivot is a positive leading minor, no
        row is swapped and d = det G: the right block is adj(G)·Rᵀ.
        """
        data = self._cone_cache.get(cone_idx)
        if data is None:
            rays = self._ray_matrix(self.cones[cone_idx])
            rays_t = rays.transpose()
            gram = rays_t @ rays
            k = gram.rows
            rows = [list(gram.row(i)) + list(rays_t.row(i)) for i in range(k)]
            _, det = fraction_free_rref(rows, k)
            proj = lattice_quotient(rays)
            data = ConeData(
                tuple(proj.row(i) for i in range(proj.rows)),
                tuple(tuple(row[k:]) for row in rows),
                det,
            )
            self._cone_cache[cone_idx] = data
        return data

    def _coefficient_numerators(self, cone_idx: int, q: Sequence[int]) -> Optional[list[int]]:
        """adj(G)·Rᵀ·q for an integer q in the cone's span, None if q is off it."""
        data = self.cone_data(cone_idx)
        if any(_dot(row, q) for row in data.projection):
            return None
        return [_dot(row, q) for row in data.coefficients]

    def cone_coefficients(self, cone_idx: int, p: Sequence[Fraction]) -> Optional[list[Fraction]]:
        """Coefficients of p in the cone's ray basis, or None if p is off its span.

        The first call for a cone builds its ``ConeData`` (span cuts,
        adj(G)·Rᵀ and det G for the Gram matrix G = RᵀR of the ray matrix R)
        and caches it on the fan. After p's denominators are cleared, the
        span test and the coefficients are integer dot products; the only
        ``Fraction``s built are the returned values.
        """
        q, den = clear_denominators(p)
        nums = self._coefficient_numerators(cone_idx, q)
        if nums is None:
            return None
        scale = self.cone_data(cone_idx).det * den
        return [Fraction(x, scale) for x in nums]

    def contains(self, cone_idx: int, p: Sequence[Fraction]) -> bool:
        """Whether p lies in the closed cone; ``locate`` finds the cone of its relative interior."""
        # the coefficients are the numerators over a positive denominator
        nums = self._coefficient_numerators(cone_idx, clear_denominators(p)[0])
        return nums is not None and all(c >= 0 for c in nums)

    def germ(self, base: int, direction: Sequence[int]) -> Optional[int]:
        """The cone entered by moving off relint(base) along an integer direction.

        It is the cone containing base on whose other rays the direction's
        coefficients are all > 0, strictly, so a direction running inside a
        wall stays in the wall; None off the fan's support. Cached per
        (base, direction): both range over finite sets, unlike points.
        """
        key = (base, tuple(direction))
        cache = self._germ_cache
        if key not in cache:
            inner = set(self.cones[base])
            cache[key] = None
            for idx, cone in enumerate(self.cones):
                nums = self._coefficient_numerators(idx, key[1]) if inner <= set(cone) else None
                if nums is not None and all(x > 0 for ray, x in zip(cone, nums) if ray not in inner):
                    cache[key] = idx
                    break
        return cache[key]

    def face_indices(self, cone_idx: int) -> list[int]:
        s = set(self.cones[cone_idx])
        return [i for i, c in enumerate(self.cones) if set(c) <= s]


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the compactified fan, lying in the stratum of ``stratum_cone``.

    ``coset`` holds coordinates in the fixed basis of N/span(cone); for the
    zero cone this is an honest point of N_R.
    """

    stratum_cone: int
    coset: Point


def fan_projective_space(r: int) -> Fan:
    """The complete fan with rays e_1..e_r and -(e_1+...+e_r)."""
    if r < 1:
        raise ValueError("projective space fan needs rank >= 1")
    rays = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    rays.append(tuple(-1 for _ in range(r)))
    cones = [c for k in range(1, r + 1) for c in itertools.combinations(range(r + 1), k)]
    return Fan.make(r, rays, cones, name=f"p{r}")


def fan_product(f: Fan, g: Fan) -> Fan:
    rays = [tuple(r) + (0,) * g.rank for r in f.rays]
    rays += [(0,) * f.rank + tuple(r) for r in g.rays]
    off = len(f.rays)
    cones = [tuple(c) + tuple(i + off for i in d) for c in f.cones for d in g.cones]
    name = f"{f.name}x{g.name}" if f.name and g.name else ""
    return Fan.make(f.rank + g.rank, rays, cones, name=name)


def point_fan() -> Fan:
    return Fan(0, (), ((),), name="pt")


def locate(fan: Fan, p: Sequence[Fraction]) -> int:
    """Index of the unique cone containing p in its relative interior."""
    p = tuple(Fraction(x) for x in p)
    q, _ = clear_denominators(p)
    for idx in range(len(fan.cones)):
        nums = fan._coefficient_numerators(idx, q)
        if nums is not None and all(c > 0 for c in nums):
            return idx
    raise NotCompleteError(f"no cone contains {p} in its relative interior")


def quotient_projection(fan: Fan, l_basis: IntMatrix) -> IntMatrix:
    """The projection of ZZ^rank onto the quotient lattice by L, for L spanned
    by the independent columns of ``l_basis``: ``lattice_quotient``, whose
    kernel is the saturation of L ∩ ZZ^rank."""
    if l_basis.rows != fan.rank:
        raise ValueError("subspace basis lives in the wrong lattice")
    if rank(l_basis) != l_basis.cols:
        raise DependentGeneratorsError("subspace generators are dependent")
    projection = lattice_quotient(l_basis)
    if any((projection @ l_basis).entries):
        raise ValueError("projection does not kill the subspace")
    return projection


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
    coset = tuple(_dot(row, base) for row in fan.cone_data(stratum).projection)
    return ExtendedPoint(stratum, coset)


# --- JSON interface -------------------------------------------------------

NAMED_FANS = {
    "p1": lambda: fan_projective_space(1),
    "p2": lambda: fan_projective_space(2),
    "p3": lambda: fan_projective_space(3),
    "p1xp1": lambda: fan_product(fan_projective_space(1), fan_projective_space(1)),
}


def fan_to_json(fan: Fan) -> dict:
    """Canonical form: rays sorted lexicographically, cones sorted."""
    order = sorted(range(len(fan.rays)), key=lambda i: fan.rays[i])
    relabel = {old: new for new, old in enumerate(order)}
    rays = [list(fan.rays[i]) for i in order]
    cones = sorted(tuple(sorted(relabel[i] for i in c)) for c in fan.cones)
    return {
        "schema": SCHEMA,
        "kind": "fan",
        "name": fan.name,
        "rank": fan.rank,
        "rays": rays,
        "cones": [list(c) for c in cones],
    }


def fan_from_json(data: dict) -> Fan:
    if not isinstance(data, dict):
        raise TypeError(f"a fan is a JSON object, not {type(data).__name__}")
    if data.get("schema", SCHEMA) != SCHEMA:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    return Fan.make(data["rank"], data["rays"], data["cones"], name=data.get("name", ""))


def load_fan(spec: str) -> Fan:
    """Named constructor shorthand or a path to a fan JSON file."""
    if spec in NAMED_FANS:
        return NAMED_FANS[spec]()
    with open(spec) as fh:
        return fan_from_json(json.load(fh))

"""Command-line surface: fan inspection, validation, complexes, embeddings, counts.

All output is deterministic for a fixed invocation; JSON goes to --out or
standard output, human-readable summaries to standard error.  The retry
notices of ``count`` and the refusal of an ``--svg`` that has no plane
embedding go through the ``tropcount`` logger, whose one handler is
Python's last-resort handler: it writes them to standard error as bare
messages.  Exit codes:
0 success, 2 validation failure, 3 generic-position retries exhausted,
64 usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import figures
from .counting import (
    Constraint,
    ConstraintConfig,
    CodimensionMismatchError,
    CountProblem,
    NonGenericError,
    count,
    count_result_to_json,
    generate_constraints,
    kontsevich_oracle,
)
from .exactmath import IntMatrix
from .maps import DiscreteData, map_from_json, validate
from .moduli import (
    assemble_complex,
    complex_to_json,
    embedding_to_json,
    gkm_embedding,
)
from .polyhedral import NAMED_FANS, SCHEMA, fan_to_json, load_fan


def _logger():
    import logging  # here, not at the top: loading it adds ~0.6 MiB to every run

    log = logging.getLogger("tropcount")
    if not log.handlers:
        # Python's last-resort handler writes bare messages to the standard
        # error current at each call; attached here, it does so even when the
        # root logger has handlers of its own, which would otherwise take
        # the messages instead
        log.addHandler(logging.lastResort)
        log.propagate = False
    return log


class MalformedInputError(ValueError):
    """An input file parsed as JSON but lacks a field or has the wrong shape."""


def _parse_input(what: str, parse, *args):
    """Call an input parser, naming the lookups that malformed JSON makes fail
    and the rationals with a zero denominator, such as "1/0"."""
    try:
        return parse(*args)
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def _int_at_least(low: int):
    """argparse type of the integers >= low, which is 0 or 1."""
    kind = ("non-negative", "positive")[low]

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"not a {kind} integer: {text!r}")
        return int(text)

    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def _emit(data: dict, out: str | None) -> None:
    """Write the line ``json.dumps(data, sort_keys=True, separators=(",", ":"))``
    to out or standard output, one top-level key at a time. A value that is an
    iterator (see ``complex_to_json`` and ``count_result_to_json``) is
    written as an array one entry at a time, as it is built, so that no
    whole-output list or string is held. out is opened before the first
    entry is built: an error while building one leaves a partial file there."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        fh.write("{")
        for i, (key, value) in enumerate(sorted(data.items())):
            fh.write(("," if i else "") + encode(key) + ":")
            if hasattr(value, "__next__"):
                fh.write("[")
                fh.writelines(("," if j else "") + encode(entry) for j, entry in enumerate(value))
                fh.write("]")
            else:
                fh.write(encode(value))
        fh.write("}\n")


# contact shorthand -> per number, the directions that each get that many legs
_SHORTHANDS = {
    "p2-degree": (((1, 0), (0, 1), (-1, -1)),),
    "p1-degree": (((1,), (-1,)),),
    "p1xp1-bidegree": (((1, 0), (-1, 0)), ((0, 1), (0, -1))),
}


def _parse_contacts(spec: str, fan) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Shorthand like p2-degree:3 or p1xp1-bidegree:1,1, where a suffix after a
    dash (p2-degree:1-transverse) is ignored, or a JSON file path."""
    name, _, rest = spec.partition(":")
    if name in _SHORTHANDS:
        numbers = rest.split("-")[0].split(",")
        groups = _SHORTHANDS[name]
        if len(numbers) != len(groups) or not all(x.isdecimal() for x in numbers):
            raise ValueError(f"malformed contact shorthand: {spec!r}")
        dirs = [c for n, group in zip(numbers, groups) for c in group for _ in range(int(n))]
        return tuple((i + 1, c) for i, c in enumerate(dirs))
    with open(spec) as fh:
        data = json.load(fh)
    out = []
    for i, entry in enumerate(data):
        labelled = len(entry) == 2 and type(entry[0]) is int and isinstance(entry[1], list)
        label, c = entry if labelled else (i + 1, entry)
        if not all(type(x) is int for x in c):  # a bool is an int, but no label or coordinate
            raise TypeError(f"contact {c!r} has a coordinate that is not an integer")
        if len(c) != fan.rank:
            raise IndexError(f"contact {c!r} has {len(c)} coordinates on a fan of rank {fan.rank}")
        out.append((label, tuple(c)))
    return tuple(out)


def _parse_subspace(spec: str, rank: int):
    """BASIS[;TRANSLATION] with basis vectors separated by '|', e.g. '1,1;3/2,0'."""
    parts = spec.split(";")
    vectors = [
        [int(x) for x in vec.split(",")] for vec in parts[0].split("|") if vec
    ]
    if any(len(v) != rank for v in vectors):
        raise ValueError(f"subspace vectors must have {rank} coordinates")
    basis = IntMatrix(
        rank, len(vectors), tuple(vectors[j][i] for i in range(rank) for j in range(len(vectors)))
    )
    translation = None
    if len(parts) > 1 and parts[1]:
        translation = tuple(Fraction(x) for x in parts[1].split(","))
        if len(translation) != rank:
            raise ValueError(f"translation must have {rank} coordinates")
    return basis, translation


def _gamma_from_args(args, fan, subspaces: int = 0) -> DiscreteData:
    """The contact legs, then ``--points`` marked legs and ``subspaces`` more."""
    contacts = _parse_input("contacts", _parse_contacts, args.contacts, fan) if args.contacts else ()
    n = len(contacts)
    return DiscreteData(fan, contacts, tuple(range(n + 1, n + 1 + args.points + subspaces)))


def _build_problem(args, fan, seed: int) -> CountProblem:
    specs = args.subspace or []
    gamma = _gamma_from_args(args, fan, len(specs))
    subspaces = {}
    overrides = {}
    for label, spec in enumerate(specs, len(gamma.contact_legs) + args.points + 1):
        basis, translation = _parse_input("subspace", _parse_subspace, spec, fan.rank)
        subspaces[label] = basis
        if translation is not None:
            overrides[label] = translation
    config = generate_constraints(gamma, subspaces, seed, args.height_bound)
    if overrides:
        constraints = tuple(
            Constraint(c.label, c.subspace, overrides.get(c.label, c.translation))
            for c in config.constraints
        )
        config = ConstraintConfig(constraints, config.seed, config.height_bound)
    return CountProblem(gamma, config)


def _cmd_fan(args) -> int:
    fan = _parse_input("fan", load_fan, args.name if args.name else args.infile)
    _emit(fan_to_json(fan), args.out)
    return 0


def _cmd_validate(args) -> int:
    with open(args.infile) if args.infile else nullcontext(sys.stdin) as fh:
        data = json.load(fh)
    fan = _parse_input("fan", load_fan, args.fan) if args.fan else None
    report = validate(_parse_input("map", map_from_json, data, fan))
    _emit(
        {
            "schema": SCHEMA,
            "kind": "validation",
            "valid": report.valid,
            "violations": [
                {"condition": v.condition, "detail": v.detail} for v in report.violations
            ],
        },
        args.out,
    )
    return 0 if report.valid else 2


def _cmd_complex(args) -> int:
    fan = _parse_input("fan", load_fan, args.fan)
    gamma = _gamma_from_args(args, fan)
    cx = assemble_complex(gamma)
    # embed before any output, so that a failing --svg or --root writes no file
    emb = gkm_embedding(cx, args.root) if args.svg else None
    if emb is not None and emb.ambient_rank != 2:
        _logger().error("svg output needs an embedding of ambient rank 2")
        return 2
    # open the SVG before writing the JSON, so that an unwritable path writes no file
    with open(args.svg, "w") if emb is not None else nullcontext() as svg:
        _emit(complex_to_json(cx), args.out)
        sys.stderr.write(f"f-vector = {list(cx.f_vector())}\n")
        if svg is not None:
            svg.write(figures.fan_svg(emb.to_fan(), title=f"embedded fan ({fan.name})"))
    return 0


def _cmd_embed(args) -> int:
    fan = _parse_input("fan", load_fan, args.fan)
    gamma = _gamma_from_args(args, fan)
    emb = gkm_embedding(assemble_complex(gamma), args.root)
    _emit(embedding_to_json(emb), args.out)
    return 0


def _cmd_count(args) -> int:
    fan = _parse_input("fan", load_fan, args.fan)
    for seed in range(args.seed, args.seed + args.retries + 1):
        problem = _build_problem(args, fan, seed)
        try:
            result = count(problem, threads=args.threads)
        except NonGenericError as exc:
            _logger().warning("seed %d is not generic (%s); retrying", seed, exc)
            continue
        _emit(count_result_to_json(problem, result), args.out)
        sys.stderr.write(
            f"degree = {result.total} (types: {len(result.contributions)}, seed: {seed})\n"
        )
        return 0
    _logger().error("gave up after %d non-generic seeds", args.retries + 1)
    return 3


def _cmd_oracle(args) -> int:
    sys.stdout.write(f"{kontsevich_oracle(args.degree)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tropcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fan", help="emit a fan in canonical JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", choices=sorted(NAMED_FANS))
    group.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("validate", help="check a tropical stable map")
    p.add_argument("--in", dest="infile")
    p.add_argument("--fan")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    for name, fn in (("complex", _cmd_complex), ("embed", _cmd_embed)):
        p = sub.add_parser(name, help=f"{name} of the moduli of tropical stable maps")
        p.add_argument("--fan", required=True)
        p.add_argument("--contacts")
        p.add_argument("--points", type=_int_at_least(0), default=0)
        p.add_argument("--root", type=int, default=1)
        p.add_argument("--out")
        if name == "complex":
            p.add_argument("--svg")
        p.set_defaults(func=fn)

    p = sub.add_parser("count", help="degree of the constrained evaluation map")
    p.add_argument("--fan", required=True)
    p.add_argument("--contacts", required=True)
    p.add_argument("--points", type=_int_at_least(0), default=0)
    p.add_argument("--subspace", action="append")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height-bound", type=_int_at_least(1), default=32)
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.add_argument("--retries", type=_int_at_least(0), default=5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oracle", help="independent enumerative oracles")
    p.add_argument("which", choices=["kontsevich"])
    p.add_argument("degree", type=_int_at_least(1))
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CodimensionMismatchError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

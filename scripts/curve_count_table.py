#!/usr/bin/env python3
"""Tabulate plane curve counts against the associativity recursion.

Runs the tropical count of degree-d rational plane curves through 3d-1
seeded generic points and compares with the recursion values.  Degree 3
takes about two seconds per seed in pure Python on one core of a 2-vCPU
VM; pass --max-degree 3 to include it.
"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tropcount.counting import (
    CountProblem,
    NonGenericError,
    count,
    generate_constraints,
    kontsevich_oracle,
)
from tropcount.maps import DiscreteData
from tropcount.polyhedral import fan_product, fan_projective_space

U = [(1, 0), (0, 1), (-1, -1)]


def plane_problem(d: int, seed: int) -> CountProblem:
    fan = fan_projective_space(2)
    contacts = tuple((i + 1, U[i // d]) for i in range(3 * d))
    gamma = DiscreteData(fan, contacts, tuple(range(3 * d + 1, 6 * d)))
    return CountProblem(gamma, generate_constraints(gamma, None, seed))


def count_with_retries(make_problem, seed: int, retries: int = 5):
    for _ in range(retries + 1):
        try:
            return seed, count(make_problem(seed))
        except NonGenericError:
            seed += 1
    raise SystemExit("no generic seed found")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-degree", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'degree':>6} {'tropical':>9} {'recursion':>10} {'types':>6} {'seed':>5} {'time':>8}")
    for d in range(1, args.max_degree + 1):
        start = time.monotonic()
        seed, res = count_with_retries(lambda s: plane_problem(d, s), args.seed)
        elapsed = time.monotonic() - start
        oracle = kontsevich_oracle(d)
        flag = "" if res.total == oracle else "  MISMATCH"
        print(
            f"{d:>6} {res.total:>9} {oracle:>10} {len(res.contributions):>6} "
            f"{seed:>5} {elapsed:>7.2f}s{flag}"
        )

    # the quadric surface: bidegree (1,1) curves through 3 points
    fan = fan_product(fan_projective_space(1), fan_projective_space(1))
    contacts = ((1, (1, 0)), (2, (-1, 0)), (3, (0, 1)), (4, (0, -1)))
    gamma = DiscreteData(fan, contacts, (5, 6, 7))
    start = time.monotonic()
    seed, res = count_with_retries(
        lambda s: CountProblem(gamma, generate_constraints(gamma, None, s)),
        args.seed,
    )
    elapsed = time.monotonic() - start
    print(
        f"{'(1,1)':>6} {res.total:>9} {1:>10} {len(res.contributions):>6} "
        f"{seed:>5} {elapsed:>7.2f}s"
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""tropcount benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Every invocation of the program goes through its real entry
point, ``tropcount.cli.main(argv)``, in a fresh interpreter started by
``perfbench/runner.py``, with the JSON written to ``--out``.

``--trace 0`` times whole passes with tracing off and prints the
end-to-end metrics; ``--trace 1`` makes a fixed set of passes, untraced
once and traced twice, and prints the per-layer metrics.  ``--workload
all`` runs every workload in turn.  The last line of standard output is
one JSON object; the lines before it give every metric by name and unit.
Records of each run go to ``.perfbench_out/`` in the checkout.  See
``perfbench/README.md`` for why each workload is here.
"""
from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
# Times are reported at the speed at which runner.reference_work takes this
# long (about its median inside runner.py on the 2-vCPU VM with Python 3.11
# where the first numbers in README.md were taken).
REFERENCE_S = 0.0015
RETRIES = 5  # handed to the CLI's own --retries
RUN_LIMIT_S = 170  # per workload; a pass still running then is killed and fails
# The d=3 DFS work depends on the point configuration: rescaled 1-worker
# times of 18.8-24.6 s over CLI seeds 11-19.  Runs with different --seed
# would then measure the inputs, not the program, so every run counts
# through the configuration of seed 0, the ROADMAP baseline (192,036 DFS
# nodes).  The fallback workload sweeps seeds instead.
D3_SEED = 0
FALLBACK_TOTAL = 1
FALLBACK_TRACE_SEEDS = 3  # traced passes need a fixed input set
FALLBACK_SEED_STRIDE = 1000  # --seed n sweeps CLI seeds 1000n, 1000n+1, ...
COMPLEX_F_VECTOR = [1, 25, 135, 249, 144]

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "counting.self_s": "s",
    "counting.contributions": "count",
    "counting.singular": "count",
    "counting.retries": "count",
    "counting.useful_ratio": "ratio",
    "counting.wall_2w_s": "s",
    "exactmath.self_s": "s",
    "exactmath.calls": "count",
    "exactmath.solve_rational.calls": "count",
    "exactmath.solve_rational.self_s": "s",
    "exactmath.saturate_columns.calls": "count",
    "exactmath.lattice_index.calls": "count",
    "polyhedral.self_s": "s",
    "polyhedral.quotient_projection.calls": "count",
    "polyhedral.locate.calls": "count",
    "polyhedral.locate_germ.calls": "count",
    "lp.self_s": "s",
    "lp.strict_point.calls": "count",
    "lp.strict_point.self_s": "s",
    "moduli.self_s": "s",
    "moduli.canonical_form.calls": "count",
    "moduli.moduli_cone.calls": "count",
    "moduli.cones": "count",
    "moduli.useful_ratio": "ratio",
    "maps.self_s": "s",
    "maps.validate.calls": "count",
    "maps.subdivide.calls": "count",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run here."""


# --- invoking the program ---------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "TROPCOUNT_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(mode: str, argv: list[str], timeout: float, spans: pathlib.Path | None = None) -> dict:
    """Run runner.py once and return its report, plus the spawn time."""
    cmd = [sys.executable, str(BENCH_DIR / "runner.py"), mode, str(SRC)]
    cmd += [str(spans)] if spans else []
    cmd += ["--", *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # also ends a --threads 2 worker pool
        proc.communicate()
        return {"rc": None, "error": f"killed at the {RUN_LIMIT_S} s limit of a run", "argv": argv}
    if proc.returncode != 0 or not out.strip():
        return {"rc": None, "error": f"runner exited {proc.returncode}: {err[-500:]}", "argv": argv}
    report = json.loads(out.strip().splitlines()[-1])
    report["spawned"] = spawned
    report["argv"] = argv
    return report


def at_reference_speed(seconds: float, report: dict) -> float:
    """Rescale a time to the speed at which the reference work takes REFERENCE_S."""
    return seconds * REFERENCE_S / report["reference_s"]


def setup_seconds(ledger: Ledger, argv: list[str]) -> float:
    """Median time from spawning an interpreter to its first engine call."""
    times = []
    for _ in range(SETUP_PROBES):
        report = invoke("setup", argv, ledger.remaining())
        if "engine_at" not in report:
            raise BenchError(f"set-up probe never reached the engine: {report}")
        times.append(at_reference_speed(report["engine_at"] - report["spawned"], report))
    return statistics.median(times)


# --- output checks ------------------------------------------------------------


def _engine():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from tropcount import counting, maps, polyhedral

    return counting, maps, polyhedral


def check_count(path: pathlib.Path, want_total: int, requested_seed: int) -> dict:
    """Outcome of one count JSON; raises AssertionError if it is wrong."""
    data = json.loads(path.read_text())
    if data["total"] != want_total:
        raise AssertionError(f"total {data['total']} != {want_total}")
    if data["total"] != sum(c["multiplicity"] for c in data["contributions"]):
        raise AssertionError("total disagrees with the contributions")
    if data["seed"] < requested_seed:
        raise AssertionError(f"seed {data['seed']} before the requested {requested_seed}")
    return {
        "contributions": len(data["contributions"]),
        "singular": data["rejected_nongeneric"],
        "seed_used": data["seed"],
        "retries": data["seed"] - requested_seed,  # the CLI retries with seed + 1
    }


def check_mikhalkin(path: pathlib.Path) -> None:
    counting, maps, polyhedral = _engine()
    data = json.loads(path.read_text())
    fan = polyhedral.fan_from_json(data["fan"])
    for entry in data["contributions"]:
        theta = maps.type_from_json(fan, entry["type"])
        got = counting.mikhalkin_multiplicity(theta)
        if got != entry["multiplicity"]:
            raise AssertionError(f"multiplicity {entry['multiplicity']} != Mikhalkin {got}")


def check_complex(path: pathlib.Path) -> dict:
    data = json.loads(path.read_text())
    if data["f_vector"] != COMPLEX_F_VECTOR:
        raise AssertionError(f"f-vector {data['f_vector']} != {COMPLEX_F_VECTOR}")
    return {"cones": sum(data["f_vector"])}


# --- workloads ----------------------------------------------------------------


class Ledger:
    """Invocations attempted and failed in one benchmark run."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, mode: str, argv: list[str], check, spans=None) -> dict | None:
        """Invoke once and check the output; None if either failed."""
        self.attempted += 1
        report = invoke(mode, argv, self.remaining(), spans)
        try:
            if report["rc"] != 0:
                raise AssertionError(report.get("error") or f"exit {report['rc']}: {report['output'][-300:]}")
            report["outcome"] = check()
        except (AssertionError, KeyError, ValueError, OSError) as exc:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: {exc}")
            return None
        return report

    def error(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _out(name: str) -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.unlink(missing_ok=True)  # a stale file must not pass a check
    return path


def d3_argv(threads: int, out: pathlib.Path) -> list[str]:
    return ["count", "--fan", "p2", "--contacts", "p2-degree:3", "--points", "8",
            "--seed", str(D3_SEED), "--retries", str(RETRIES), "--threads", str(threads),
            "--out", str(out)]


def fallback_argv(seed: int, out: pathlib.Path) -> list[str]:
    return ["count", "--fan", "p2", "--contacts", "p2-degree:1", "--points", "2",
            "--subspace", "1,1", "--subspace", "1,0", "--seed", str(seed),
            "--retries", str(RETRIES), "--out", str(out)]


def complex_argv(out: pathlib.Path) -> list[str]:
    return ["complex", "--fan", "p2", "--contacts", "p2-degree:1", "--points", "2",
            "--out", str(out)]


def check_d3(out: pathlib.Path, same_as: pathlib.Path | None) -> dict:
    counting, _, _ = _engine()
    outcome = check_count(out, counting.kontsevich_oracle(3), D3_SEED)
    check_mikhalkin(out)
    if same_as is not None and out.read_bytes() != same_as.read_bytes():
        raise AssertionError(f"{out.name} and {same_as.name} are not byte-identical")
    return outcome


def d3_pass(ledger: Ledger, threads: int = 1, mode: str = "plain", spans=None, tag: str = "",
            same_as: pathlib.Path | None = None) -> dict | None:
    """One count; with same_as, its JSON must equal that file byte for byte."""
    out = _out(f"d3-{threads}w{tag}.json")
    return ledger.run(mode, d3_argv(threads, out), lambda: check_d3(out, same_as), spans)


def fallback_pass(ledger: Ledger, seed: int, mode: str = "plain", spans=None) -> dict | None:
    out = _out(f"fallback-{mode}.json")
    return ledger.run(mode, fallback_argv(seed, out), lambda: check_count(out, FALLBACK_TOTAL, seed), spans)


def complex_pass(ledger: Ledger, mode: str = "plain", spans=None) -> dict | None:
    out = _out(f"complex-{mode}.json")
    return ledger.run(mode, complex_argv(out), lambda: check_complex(out), spans)


WORKLOADS = ("count_plane_d3", "count_lines_fallback", "complex_plane_2pts")


def _timed_loop(seconds: float, one_pass) -> None:
    """Run whole passes; start another only if the last one would fit again."""
    start = time.monotonic()
    while True:
        before = time.monotonic()
        one_pass()
        now = time.monotonic()
        if now - start + (now - before) > seconds:
            return


def end_to_end(workload: str, seed: int, seconds: float, ledger: Ledger, record: dict) -> dict:
    walls: list[float] = []
    rss: list[float] = []
    passes: list[dict] = []

    def keep(report):
        if report is not None:
            walls.append(at_reference_speed(report["wall_s"], report))
            rss.append(report["peak_rss_mib"])
            passes.append({"wall_s": walls[-1], "raw_wall_s": report["wall_s"],
                           "reference_s": report["reference_s"], **report["outcome"]})

    if workload == "count_plane_d3":
        setup = setup_seconds(ledger, d3_argv(1, OUT_DIR / "setup.json"))

        def one_pass():
            one = d3_pass(ledger)
            keep(one)
            if one is not None:
                two = d3_pass(ledger, threads=2, same_as=OUT_DIR / "d3-1w.json")
                if two is not None:
                    passes[-1]["raw_wall_2w_s"] = two["wall_s"]

        _timed_loop(seconds, one_pass)
    elif workload == "count_lines_fallback":
        setup = setup_seconds(ledger, fallback_argv(seed, OUT_DIR / "setup.json"))
        sweep = itertools.count(seed * FALLBACK_SEED_STRIDE)
        _timed_loop(seconds, lambda: keep(fallback_pass(ledger, next(sweep))))
    else:
        setup = setup_seconds(ledger, complex_argv(OUT_DIR / "setup.json"))
        _timed_loop(seconds, lambda: keep(complex_pass(ledger)))
    record["passes"] = passes
    if not walls:
        raise BenchError("no pass succeeded")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mib": statistics.median(rss),
    }


# --- traced run -------------------------------------------------------------


COUNTERS = ("contributions", "singular", "retries", "cones")


def _traced_pair(ledger: Ledger, run_traced) -> list[dict] | None:
    """Two traced passes; their call counts and outcomes must agree exactly."""
    reports = [run_traced(k) for k in (1, 2)]
    if any(r is None for r in reports):
        return None
    first, second = ({"calls": r["trace"]["calls_by_caller"], "spans": r["trace"]["spans"],
                      **{k: r["outcome"].get(k) for k in COUNTERS}} for r in reports)
    if first != second:
        diff = sorted(k for k in set(first["calls"]) | set(second["calls"])
                      if first["calls"].get(k) != second["calls"].get(k))
        ledger.error(f"traced counters differ between two runs: {diff[:10]} "
                     f"{ {k: (first[k], second[k]) for k in first if k != 'calls'} }")
    return reports


def _sum_outcomes(reports: list[dict]) -> dict:
    return {k: sum(r["outcome"].get(k, 0) for r in reports) for k in COUNTERS}


def per_layer(workload: str, seed: int, ledger: Ledger, record: dict) -> dict:
    """Untraced once, traced twice, over a fixed input set."""
    wall_2w = 0.0
    plain: list[dict] = []
    traced: list[list[dict]] = []  # per input, the two traced passes
    if workload == "count_plane_d3":
        one = d3_pass(ledger)
        two = d3_pass(ledger, threads=2, same_as=OUT_DIR / "d3-1w.json") if one else None
        wall_2w = two["wall_s"] if two else 0.0
        plain = [one]
        traced = [_traced_pair(ledger, lambda k: d3_pass(
            ledger, mode="trace", spans=OUT_DIR / f"spans-{workload}-{k}", tag=f"-trace{k}",
            same_as=OUT_DIR / "d3-1w.json"))]
    elif workload == "count_lines_fallback":
        for s in range(seed * FALLBACK_SEED_STRIDE, seed * FALLBACK_SEED_STRIDE + FALLBACK_TRACE_SEEDS):
            plain.append(fallback_pass(ledger, s))
            traced.append(_traced_pair(ledger, lambda k: fallback_pass(
                ledger, s, "trace", OUT_DIR / f"spans-{workload}-{s}-{k}")))
    else:
        plain = [complex_pass(ledger)]
        traced = [_traced_pair(ledger, lambda k: complex_pass(
            ledger, "trace", OUT_DIR / f"spans-{workload}-{k}"))]
    if any(p is None for p in plain) or any(t is None for t in traced):
        raise BenchError("a pass of the traced run failed")

    # Times are the mean of the two traced passes at the reference speed,
    # summed over the inputs; counts come from the first pass (the second
    # must equal it).
    firsts = [pair[0] for pair in traced]

    def seconds(get) -> float:
        return sum(statistics.fmean(at_reference_speed(get(r["trace"]), r) for r in pair) for pair in traced)

    def calls(name: str, caller: str | None = None) -> int:
        total = 0
        for r in firsts:
            by_caller = r["trace"]["calls_by_caller"]
            total += sum(n for key, n in by_caller.items()
                         if key.split("<")[0] == name and caller in (None, key.split("<")[1]))
        return total

    outcome = _sum_outcomes(firsts)
    canonical_from_counting = calls("moduli.canonical_form", "counting")
    strict_points = calls("lp.strict_point")
    overhead = statistics.median(
        statistics.fmean(at_reference_speed(r["wall_s"], r) for r in pair) - at_reference_speed(p["wall_s"], p)
        for pair, p in zip(traced, plain))
    metrics = {
        "counting.contributions": outcome["contributions"],
        "counting.singular": outcome["singular"],
        "counting.retries": outcome["retries"],
        "counting.useful_ratio": outcome["contributions"] / canonical_from_counting if canonical_from_counting else 0.0,
        "counting.wall_2w_s": wall_2w,
        "exactmath.calls": sum(r["trace"]["layer_calls"]["exactmath"] for r in firsts),
        "moduli.cones": outcome["cones"],
        "moduli.useful_ratio": outcome["cones"] / strict_points if strict_points else 0.0,
        "trace_overhead_s": overhead,
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".self_s") and name.count(".") == 1:
            layer = name.split(".")[0]
            metrics[name] = seconds(lambda t: t["layer_self_s"][layer])
        elif name.endswith(".self_s"):
            fn = name[: -len(".self_s")]
            metrics[name] = seconds(lambda t: t["self_s"].get(fn, 0.0))
        elif name.endswith(".calls"):
            metrics[name] = calls(name[: -len(".calls")])
        else:
            raise BenchError(f"no rule for per-layer metric {name}")
    record["traced"] = [{"wall_s": r["wall_s"], "spans": r["trace"]["spans"], "wrapped": r["wrapped"],
                         "layer_self_s": r["trace"]["layer_self_s"]} for pair in traced for r in pair]
    record["untraced_wall_s"] = [p["wall_s"] for p in plain]
    return {name: metrics[name] for name in PER_LAYER}


# --- reporting ---------------------------------------------------------------


def environment() -> dict:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            rev = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ledger = Ledger()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                    "environment": environment()}
    if trace:
        metrics = per_layer(workload, seed, ledger, record)
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, seed, seconds, ledger, record)
        units = END_TO_END
    record.update(attempted=ledger.attempted, failed=ledger.failed, errors=ledger.errors,
                  metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    env = record["environment"]
    print(f"# {workload} (seed {seed}, trace {int(trace)}): python {env['python']}, "
          f"nproc {env['nproc']}, rev {env['git_revision']}, load {env['loadavg_at_start']}")
    for p in record.get("passes", []):
        print(f"#   pass: {json.dumps(p)}")
    for message in ledger.errors:
        print(f"#   FAILED: {message}", file=sys.stderr)
    print(f"#   failed_share = {ledger.failed}/{ledger.attempted}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropcount" / "cli.py").is_file():
        print(f"error: no tropcount sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Byte-compile first, so that set-up time never includes compiling.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

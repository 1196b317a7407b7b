"""One tropcount invocation in a fresh interpreter, run in-process.

Usage: python3 perfbench/runner.py MODE SRC_DIR [SPANS_PREFIX] -- TROPCOUNT_ARGV...

MODE is one of
  plain  call tropcount.cli.main(argv) and time it, sampling the speed of
         the processor meanwhile (see ``SpeedSampler``);
  trace  the same with every cross-module call wrapped in a span; the
         speed samples are left out of the span that was open;
  setup  stop at the first call into the engine (count or
         assemble_complex), report the monotonic clock at that moment,
         then sample the speed.

The last line of standard output is a JSON object describing the call.
The program's own standard output and error are captured into it.
"""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import signal
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.2
SAMPLES_AROUND = 5  # taken just before and just after the call


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work (~1 ms).

    It mixes what the engine spends its time on: Fraction arithmetic with
    small denominators, integer row operations, tuple keys in a dict.  It
    belongs to the benchmark, so a change to the program never changes it.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict = {}
    rows = [[(i * j) % 7 - 3 for j in range(5)] for i in range(5)]
    for k in range(250):
        acc += Fraction(k % 5 + 1, k % 7 + 2)
        pivot = rows[k % 5]
        rows[(k + 1) % 5] = [(x * 3 - y * 2) % 101 for x, y in zip(rows[(k + 1) % 5], pivot)]
        key = tuple(sorted(pivot))
        table[key] = table.get(key, 0) + acc.denominator % 11
    return time.perf_counter() - start


class SpeedSampler:
    """Runs ``reference_work`` every SAMPLE_INTERVAL_S from SIGALRM.

    On a shared machine the processor's speed changes by tens of percent
    over seconds to minutes.  The mean sample duration over a call tracks
    the speed the call ran at; ``spent_s`` is the time the samples took
    inside the call, which the caller subtracts from its wall time.
    """

    def __init__(self, tracer=None) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.tracer = tracer

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(reference_work())

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_work())
        spent = time.perf_counter() - start
        self.spent_s += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_mib() -> float:
    """High-water resident memory of this process image.

    ``ru_maxrss`` is not used: Linux carries it across ``execve`` from the
    address space the process had before, which for a child spawned by
    ``subprocess`` is the benchmark's own parent process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


class _EngineReached(Exception):
    pass


def _stop_at_engine(*args, **kwargs):
    raise _EngineReached(time.monotonic())


def main() -> int:
    mode, src_dir = sys.argv[1], pathlib.Path(sys.argv[2])
    split = sys.argv.index("--")
    spans_prefix = sys.argv[3] if split > 3 else None
    argv = sys.argv[split + 1 :]
    sys.path.insert(0, str(src_dir))
    from tropcount import cli

    report: dict = {"mode": mode}
    entry = cli.main
    tracer = None
    timing = contextlib.nullcontext()
    if mode == "setup":
        cli.count = _stop_at_engine
        cli.assemble_complex = _stop_at_engine
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        report["wrapped"] = tracer.install(src_dir / "tropcount")
        entry = tracer.wrap("cli.main", cli.main)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")
    sampler = SpeedSampler(tracer)
    if mode != "setup":
        sampler.sample(SAMPLES_AROUND)
        timing = sampler

    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with timing, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = entry(argv)
    except _EngineReached as reached:
        report["engine_at"] = reached.args[0]
        rc = 0
    except SystemExit as exc:  # argparse usage errors exit with 64
        rc = exc.code if isinstance(exc.code, int) else 1
    report["wall_s"] = time.perf_counter() - start - sampler.spent_s
    sampler.sample(2 * SAMPLES_AROUND if mode == "setup" else SAMPLES_AROUND)
    report["reference_s"] = sum(sampler.samples) / len(sampler.samples)
    report["rc"] = rc
    report["output"] = captured.getvalue()
    report["peak_rss_mib"] = peak_rss_mib()
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spans_prefix:
            tracer.dump(pathlib.Path(spans_prefix))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

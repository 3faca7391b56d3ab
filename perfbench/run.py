"""Benchmark of aperiodix: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bloch --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (setup_s, wall_s, op_p50_s, peak_rss_mb); with `--trace 1` a separate
traced run gives the per-layer ones and writes its spans to
perfbench/out/trace-<workload>-seed<seed>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("bloch", "diffraction", "chains", "invariants")
SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
# The machine's speed swings by up to a factor of two, for seconds and for
# tens of minutes at a time, and the program's time swings with it.  While
# set-up or a run's operations are timed, a timer signal runs speed_probe(), a
# fixed piece of interpreter work made apart from the program, every
# SAMPLE_EVERY_S seconds.  Every time metric is scaled by REFERENCE_PROBE_S /
# (mean probe time while it was measured): it reads in seconds at the speed at
# which the probe takes REFERENCE_PROBE_S.  The probe is pure Python, so that
# it can run while numpy is being imported, and its data is small, so that the
# size of the program's data does not change its time.  It follows the slow
# spells of compute-bound work (eigen-solves, the interpreter) and misses part
# of those of memory-bound work (large numpy arrays, sympy's object churn); a
# probe over a large list follows those better, but it also slows when the
# program's own data fills the cache, and would hide changes in it.
SAMPLE_EVERY_S = 0.025
REFERENCE_PROBE_S = 3e-4  # about the probe's time on the reference machine


def speed_probe() -> tuple[int, Fraction]:
    s = 0
    for i in range(1000):
        s += i * i % 7
    x = Fraction(0)
    for i in range(1, 40):
        x += Fraction(1, i)
    return s, x


class SpeedSampler:
    """Probe times sampled from a timer signal while the `with` block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        speed_probe()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="aperiodix benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="time the import and input building in this interpreter")
    parser.add_argument("--inputs", metavar="DIR",
                        help="write the seeded inputs and the operation list to DIR and exit")
    return parser.parse_args(argv)


def probe(workload: str, seed: int) -> None:
    """Import aperiodix and build the inputs in this fresh interpreter.

    The benchmark's own draws (workloads.draw) are made between the import
    and the build and are not timed.
    """
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        import aperiodix  # noqa: F401
        t1 = time.perf_counter()
    import workloads

    drawn = workloads.draw(workload, seed)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, sampler:
        t2 = time.perf_counter()
        workloads.build(workload, seed, Path(tmp), drawn=drawn)
        t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0 + t3 - t2) * sampler.scale()}))


def _subprocess(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {' '.join(args)} exited {proc.returncode}")
    return proc


def setup_seconds(workload: str, seed: int) -> float:
    values = []
    for _ in range(SETUP_PROBES):
        proc = _subprocess([str(HERE / "run.py"), "--probe", "--workload", workload,
                            "--seed", str(seed)])
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def import_seconds() -> tuple[float, float]:
    """Cumulative import time of aperiodix and of sympy, from -X importtime."""
    proc = _subprocess(["-X", "importtime", "-c",
                        f"import sys; sys.path.insert(0, {str(SRC)!r}); import aperiodix"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    return cumulative["aperiodix"], cumulative["sympy"]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "aperiodix").rglob("*.py")))


def time_once(op, tracer=None):
    """(seconds, output, span id) of one execution from cold sympy caches."""
    import workloads as W

    W.cold_caches()
    t0 = time.perf_counter()
    if tracer is None:
        out, sid = op.run(), None
    else:
        out, sid = tracer.call(op.span, op.run)
    return time.perf_counter() - t0, out, sid


def run_round(ops, tracer=None):
    """One round: (seconds, output or exception) per operation.

    A traced round runs each operation once and then replays its parts.
    """
    row = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            dt, out, sid = time_once(op, tracer)
        except Exception as exc:  # the program failed; counted by verify()
            row.append((time.perf_counter() - t0, exc))
            continue
        row.append((dt, out))
        if tracer is not None and op.parts is not None:
            op.parts(tracer, sid, out)
    return row


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of every operation until the next round would overrun.

    Returns per round a list of (seconds, output key) and the first output
    seen under each key; an operation that raised has its exception as key.
    """
    rounds, outputs = [], {}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        row = []
        for i, (dt, res) in enumerate(run_round(ops, tracer)):
            key = res if isinstance(res, Exception) else (i, pickle.dumps(res))
            if not isinstance(res, Exception):
                outputs.setdefault(key, res)
            row.append((dt, key))
        rounds.append(row)
        now = time.perf_counter()
        if tracer is not None or now - start + (now - round_start) > seconds:
            return rounds, outputs


def judge(op, output) -> tuple[bool, str | None]:
    """(failed, problem) of one output; an exception stands for the output of
    an operation that raised.  A failure is no problem when the output shows
    the operation's named fault and no other."""
    import workloads as W

    if isinstance(output, Exception):
        return True, f"raised {type(output).__name__}: {output}"
    try:
        op.check(output)
        return False, None
    except W.CheckFailed as exc:
        problem = str(exc)
    except Exception as exc:  # malformed output breaks the check
        problem = f"check raised {type(exc).__name__}: {exc}"
    if op.fault is not None:
        try:
            if op.fault.shows(output):
                return True, None
        except Exception:  # malformed output is not the named fault
            pass
    return True, problem


def verify(ops, rounds, outputs) -> tuple[int, list[str]]:
    """(failed operations, problems outside the named faults)."""
    verdicts: dict = {}
    failed, problems = 0, []
    for row in rounds:
        for i, (_, key) in enumerate(row):
            if key not in verdicts:
                output = key if isinstance(key, Exception) else outputs[key]
                verdicts[key] = judge(ops[i], output)
            bad, problem = verdicts[key]
            failed += bad
            if problem is not None:
                problems.append(f"{ops[i].label}: {problem}")
    return failed, problems


def measure(workload: str, seed: int, seconds: float) -> dict:
    setup_s = setup_seconds(workload, seed)
    import workloads as W

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops = W.build(workload, seed, Path(tmp))
        with SpeedSampler() as sampler:
            rounds, outputs = run_rounds(ops, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = verify(ops, rounds, outputs)
    scale = sampler.scale()
    times = [dt for row in rounds for dt, _ in row]
    wall = statistics.median(sum(dt for dt, _ in row) for row in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall * scale, "s"),
        "op_p50_s": (statistics.median(times) * scale, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result(problems, len(times), failed, metrics,
                  f"{len(rounds)} rounds of {len(ops)} operations; unscaled wall "
                  f"{wall:.4g} s, speed scale {scale:.4g} from {len(sampler.samples)} probes")


def measure_traced(workload: str, seed: int) -> dict:
    import workloads as W
    from tracing import LAYER_METRICS, Tracer

    import_s, import_sympy_s = import_seconds()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, SpeedSampler() as sampler:
        ops = W.build(workload, seed, Path(tmp), tracer)
        rounds, outputs = run_rounds(ops, 0.0, tracer)
    failed, problems = verify(ops, rounds, outputs)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    # Span times are scaled like the end-to-end ones; counts and the import
    # times (from another interpreter, with no sampler) are not.
    scale = sampler.scale()
    metrics = {name: (read(tracer) * (scale if unit == "s" else 1), unit)
               for name, (unit, read) in LAYER_METRICS.items()}
    metrics["package.import_s"] = (import_s, "s")
    metrics["package.import_sympy_s"] = (import_sympy_s, "s")
    metrics["package.src_lines"] = (src_lines(), "lines")
    metrics["trace.wall_s"] = (sum(dt for dt, _ in rounds[0]) * scale, "s")
    metrics["trace.speed_scale"] = (scale, "ratio")
    return result(problems, len(ops), failed, metrics, "traced round")


def result(problems, attempted, failed, metrics, note) -> dict:
    for line in problems:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    print(f"perfbench: {note}, {failed} of {attempted} failed", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aperiodix" / "__init__.py").is_file():
        print(f"perfbench: no aperiodix sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.inputs:
        import workloads

        target = Path(args.inputs)
        target.mkdir(parents=True, exist_ok=True)
        ops = workloads.build(args.workload, args.seed, target)
        (target / "operations.txt").write_text("".join(f"{op.label}\n" for op in ops))
        return 0
    if args.trace:
        doc = measure_traced(args.workload, args.seed)
    else:
        doc = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

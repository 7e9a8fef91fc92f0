"""cubesum benchmark: one closed-loop client, one process, sequential calls.

    python3 perfbench/run.py --workload grid-q --seed 1 --seconds 28 --trace 0

Run from the repository root; the program is imported from ./src.  With
--trace 0 the workload runs untraced for --seconds and the end-to-end
metrics are reported; with --trace 1 a fixed number of ops runs untraced and
then traced, the two verdict digests must match, and the per-layer metrics
are reported.  The metric names and units come from BENCHMARK.json.
Latencies are scaled to a nominal machine speed; see speed.py.

Output: human-readable lines, one `report {...}` JSON line with provenance,
memo statistics and all seven end-to-end metrics (fail_ratio included), and
as the last line the result object {"correct", "attempted", "failed",
"metrics"}.  Exit code 0 when every op was correct, 1 when one was wrong,
2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time

import check
import workloads
from speed import Speedometer
from tracer import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

# The seed whose theorems-large and verify-full records reference.json holds.
REFERENCE_SEED = 1

SETUP_ARGV = ["classify", "21", "--scope", "Q"]
SETUP_EXPECT = "NoSolutions [Theorem 2.3]"
SETUP_REPEATS = 11

# Traced runs execute a fixed number of ops, so their counts repeat exactly
# for a given seed and --seconds.  The rates are round, somewhat low figures
# for the untraced ops/s of each workload at the commit that defined the
# benchmark, so each of the two passes (untraced, traced) takes at most
# about a third of --seconds there.
NOMINAL_OPS_PER_S = {"grid-q": 14.0, "grid-k": 4.0, "theorems-large": 20.0}


def trace_op_count(workload: str, seconds: int) -> int:
    return max(6, round(NOMINAL_OPS_PER_S[workload] * seconds / 3))


# -- program access -------------------------------------------------------


def import_program():
    sys.path.insert(0, str(SRC))
    import cubesum.classifier
    import cubesum.factorization
    import cubesum.search
    import cubesum.verify

    return cubesum


class Runner:
    """Executes ops through the names the program's callers use, so that a
    tracer installed around a pass sees every call."""

    def __init__(self, cubesum, reference: dict) -> None:
        self.cs = cubesum
        self.reference = reference
        self.speed = Speedometer()
        self.criteria = {n: fn for n, _, _, fn in cubesum.verify.CRITERIA}
        self.memo = cubesum.factorization.split_prime  # the lru_cache object

    def prepare(self, op):
        if op.criterion is not None:
            return self.criteria[op.criterion], ()
        budget = self.cs.search.SearchBudget() if op.searched else None
        m = self.cs.eisenstein.EisensteinInt(*op.target)
        return self.cs.classifier.classify, (m, op.scope, budget)

    @staticmethod
    def record(op, out) -> list:
        """The op's record, from its result or the exception it raised."""
        if isinstance(out, Exception):
            return ["error", f"{type(out).__name__}: {out}"]
        if op.criterion is not None:
            return ["ok", out]
        return check.verdict_record(out)

    def cold_memo(self) -> None:
        self.memo.cache_clear()
        assert_cold(self.memo)


def assert_cold(memo) -> None:
    size = memo.cache_info().currsize
    if size:
        raise RuntimeError(f"split_prime memo holds {size} entries at the start of a timed run")


class Pass:
    """Outcome of running a sequence of ops: records, latencies, memo use."""

    def __init__(self) -> None:
        self.records: list[tuple] = []  # (op, record)
        self.raw: list[float] = []  # seconds as measured
        self.latencies: list[float] = []  # seconds at the nominal speed (speed.py)
        self.wall = 0.0
        self.cpu = 0.0
        self.memo_hits = 0
        self.memo_misses = 0

    def extend(self, other: "Pass") -> None:
        self.records += other.records
        self.raw += other.raw
        self.latencies += other.latencies
        self.wall += other.wall
        self.cpu += other.cpu
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses


def run_pass(runner: Runner, ops, deadline: float | None = None) -> Pass:
    """Run ops in order (until the deadline, if one is given), timing each
    call alone; preparing inputs and checking outputs stay outside."""
    result = Pass()
    info0 = runner.memo.cache_info()
    wall0, cpu0 = perf_counter(), process_time()
    calls = []
    with runner.speed as speed:
        for op in ops:
            if deadline is not None and perf_counter() >= deadline:
                break
            fn, args = runner.prepare(op)
            t0 = perf_counter()
            stolen = speed.stolen
            try:
                out = fn(*args)
            except Exception as exc:  # noqa: BLE001 - a failing op is counted
                out = exc
            t1 = perf_counter()
            calls.append((t0, t1, t1 - t0 - (speed.stolen - stolen)))
            result.records.append((op, runner.record(op, out)))
    result.wall, result.cpu = perf_counter() - wall0, process_time() - cpu0
    for t0, t1, dt in calls:
        result.raw.append(dt)
        result.latencies.append(dt * speed.scale(t0, t1))
    info1 = runner.memo.cache_info()
    result.memo_hits = info1.hits - info0.hits
    result.memo_misses = info1.misses - info0.misses
    return result


class ClassifyProbe:
    """Counts and times the classify calls the criteria make, through
    verify's own binding of classify, for decided_ratio and the latency
    quantiles on verify-full."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.calls = 0
        self.decided = 0
        self.timed: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def latencies(self) -> list[float]:
        """Seconds at the nominal speed, as for the ops."""
        return [dt * self.runner.speed.scale(t0, t1) for t0, t1, dt in self.timed]

    @contextmanager
    def installed(self):
        verify, speed = self.runner.cs.verify, self.runner.speed
        original = verify.classify

        def probe(*args, **kwargs):
            t0, stolen = perf_counter(), speed.stolen
            v = original(*args, **kwargs)
            t1 = perf_counter()
            self.timed.append((t0, t1, t1 - t0 - (speed.stolen - stolen)))
            self.calls += 1
            self.decided += v.status != "Unknown"
            return v

        verify.classify = probe
        try:
            yield self
        finally:
            verify.classify = original


def decided_ratio(p: Pass, probe: ClassifyProbe) -> float:
    """Share of classify calls whose status is not Unknown: the ops
    themselves, or on verify-full the calls the criteria made."""
    if probe.calls:
        return probe.decided / probe.calls
    statuses = [r[0] for op, r in p.records if op.criterion is None]
    return sum(s not in ("Unknown", "error") for s in statuses) / len(statuses)


# -- workload drivers -----------------------------------------------------


def op_stream(workload: str, seed: int, reference: dict):
    if workload in ("grid-q", "grid-k"):
        strata = {k: rec[0] for k, rec in reference[workload].items()}
        return workloads.grid_ops(workload, seed, strata)
    return workloads.large_ops(seed)


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[Pass, ClassifyProbe]:
    """The untraced run: the pass, and the probe on the criteria's classify
    calls (empty unless the workload is verify-full)."""
    with ClassifyProbe(runner).installed() as probe:
        if workload == "verify-full":
            p = timed_verify(runner, seconds)
        else:
            stream = op_stream(workload, seed, runner.reference)
            p = run_pass(runner, stream, deadline=perf_counter() + seconds)
    return p, probe


def timed_verify(runner: Runner, seconds: float) -> Pass:
    """Whole passes over the ten criteria, each from a cold memo (as a fresh
    `cubesum verify full` process would be).  Another pass starts while it
    would end closer to --seconds than stopping now."""
    total = Pass()
    start = perf_counter()
    while True:
        if total.records:
            runner.cold_memo()
        total.extend(run_pass(runner, workloads.verify_pass(list(runner.criteria))))
        elapsed = perf_counter() - start
        per_pass = elapsed * len(runner.criteria) / len(total.records)
        if elapsed + per_pass / 2 >= seconds:
            return total


def fixed_ops(runner: Runner, workload: str, seed: int, seconds: int) -> list:
    if workload == "verify-full":
        return workloads.verify_pass(list(runner.criteria))
    stream = op_stream(workload, seed, runner.reference)
    return [next(stream) for _ in range(trace_op_count(workload, seconds))]


def traced_run(runner: Runner, workload: str, seed: int, seconds: int):
    """The same ops untraced, then traced, each pass from a cold memo.
    Returns both passes, the tracer and the untraced decided_ratio."""
    ops = fixed_ops(runner, workload, seed, seconds)
    with ClassifyProbe(runner).installed() as probe:
        plain = run_pass(runner, ops)
    runner.cold_memo()
    tracer = Tracer()
    criteria = runner.criteria
    runner.criteria = {n: tracer.wrap(f"verify.criterion_{n}", fn) for n, fn in criteria.items()}
    try:
        with installed(tracer):
            traced = run_pass(runner, ops)
    finally:
        runner.criteria = criteria
    return plain, traced, tracer, decided_ratio(plain, probe)


def _keyed(p: Pass) -> list:
    return [(op.key, rec) for op, rec in p.records]


def _rate(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


# -- checking ---------------------------------------------------------------


def failures(p: Pass, workload: str, reference: dict) -> list[str]:
    """One line per failed op: it raised, or its record is wrong."""
    ref = reference.get(workload)
    out = []
    for op, record in p.records:
        if record[0] == "error":
            msgs = [f"raised {record[1]}"]
        elif op.criterion is not None:
            msgs = check.verify_problems(record, op, ref)
        else:
            msgs = check.classify_problems(record, op, ref)
        if msgs:
            out.append(f"{op.key}: " + "; ".join(msgs))
    return out


# -- set-up and provenance -------------------------------------------------


def subprocess_seconds(code: str, repeats: int, expect: str | None = None) -> list[float]:
    """Wall time of fresh interpreters running `code` from the repo root,
    each scaled to the nominal machine speed like the call latencies."""
    argv = [sys.executable, "-c", code]
    subprocess.run(argv, cwd=ROOT, capture_output=True, check=False)  # compiles bytecode once
    runs = []
    with Speedometer() as speed:
        for _ in range(repeats):
            t0 = perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            runs.append((t0, perf_counter()))
            if done.returncode != 0 or (expect is not None and not done.stdout.startswith(expect)):
                raise RuntimeError(f"set-up command failed: {done.returncode} {done.stdout!r} {done.stderr!r}")
    return [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in runs]


def setup_seconds() -> float:
    code = ("import sys; sys.path.insert(0, 'src'); from cubesum.cli import main; "
            f"raise SystemExit(main({SETUP_ARGV!r}))")
    return statistics.median(subprocess_seconds(code, SETUP_REPEATS, SETUP_EXPECT))


def cli_layer_seconds() -> dict[str, float]:
    """Interpreter start, `import cubesum` and in-process main(), each the
    median over fresh interpreters."""
    bare = statistics.median(subprocess_seconds("pass", SETUP_REPEATS))
    code = ("import io, sys, contextlib; from time import perf_counter as t; "
            "sys.path.insert(0, 'src'); a = t(); import cubesum.cli; b = t(); "
            "out = io.StringIO()\n"
            f"with contextlib.redirect_stdout(out): cubesum.cli.main({SETUP_ARGV!r})\n"
            "c = t(); sys.stderr.write(f'{b - a} {c - b}')")
    argv = [sys.executable, "-c", code]
    imports, mains = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        a, b = map(float, done.stderr.split())
        imports.append(a)
        mains.append(b)
    return {"cli.interpreter_s": bare, "cli.import_s": statistics.median(imports),
            "cli.main_s": statistics.median(mains)}


def provenance() -> dict:
    # the ceiling keeps git from reporting an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, check=False).stdout.strip() or None
    except OSError:
        sha = None
    lines = {}
    for path in sorted((SRC / "cubesum").glob("*.py")):
        with open(path) as f:
            lines[path.name] = sum(1 for _ in f)
    return {"python": platform.python_version(), "git_sha": sha, "nproc": os.cpu_count(),
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# -- main -----------------------------------------------------------------


def quantiles(latencies: list[float]) -> tuple[float, float]:
    """(p50, p90) in ms."""
    deciles = statistics.quantiles(latencies, n=10)
    return statistics.median(latencies) * 1000, deciles[-1] * 1000


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int):
    p, probe = timed_run(runner, workload, seed, seconds)
    bad = failures(p, workload, runner.reference)
    # latency is per classify call: the ops, or on verify-full the calls
    # the criteria make (a criterion median would sit between two criteria)
    if probe.calls:
        latencies, raw = probe.latencies(), [dt for _, _, dt in probe.timed]
    else:
        latencies, raw = p.latencies, p.raw
    p50, p90 = quantiles(latencies)
    values = {
        "ops_per_s": _rate(p.latencies),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mb": peak_rss_mb(),
        "fail_ratio": len(bad) / len(p.records),
        "decided_ratio": decided_ratio(p, probe),
    }
    raw50, raw90 = quantiles(raw)
    extra = {"ops": len(p.records), "latency_samples": len(latencies),
             "digest": check.digest(_keyed(p)),
             "raw": {"ops_per_s": _rate(p.raw), "op_ms_p50": raw50, "op_ms_p90": raw90},
             "machine_speed": _rate(p.raw) / _rate(p.latencies),
             "memo_hits": p.memo_hits, "memo_misses": p.memo_misses,
             "offcpu_ratio": 1 - p.cpu / p.wall}
    return values, len(p.records), bad, extra


def per_layer(runner: Runner, workload: str, seed: int, seconds: int):
    plain, traced, tracer, decided = traced_run(runner, workload, seed, seconds)
    bad = failures(plain, workload, runner.reference) + failures(traced, workload, runner.reference)
    digests = check.digest(_keyed(plain)), check.digest(_keyed(traced))
    if digests[0] != digests[1]:
        bad.append(f"traced verdict digest {digests[1]} != untraced {digests[0]}")
    values = tracer.metrics()
    values["factorization.split_prime.hits"] = traced.memo_hits
    values["factorization.split_prime.misses"] = traced.memo_misses
    values["factorization.split_prime.hit_ratio"] = traced.memo_hits / max(
        1, traced.memo_hits + traced.memo_misses)
    values["run.trace_overhead"] = _rate(traced.latencies) / _rate(plain.latencies)
    values["run.offcpu_ratio"] = 1 - (plain.cpu + traced.cpu) / (plain.wall + traced.wall)
    values["decided_ratio"] = decided
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}.jsonl")
    extra = {"ops": len(plain.records), "digest": digests[1],
             "spans": len(tracer.spans), "spans_file": str(OUT_DIR / f"spans-{workload}.jsonl")}
    return values, len(plain.records) + len(traced.records), bad, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubesum" / "__init__.py").is_file():
        print(f"perfbench: no cubesum sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    runner = Runner(import_program(), check.load_reference())
    assert_cold(runner.memo)  # nothing has run in this process yet

    measure = per_layer if args.trace else end_to_end
    values, attempted, bad, extra = measure(runner, args.workload, args.seed, args.seconds)
    if args.trace:
        values.update(cli_layer_seconds())
    else:
        values["setup_s"] = setup_seconds()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {extra['ops']} ops, closed loop, 1 client")
    shown = wanted + ([] if args.trace else [{"name": "fail_ratio", "unit": "ratio"}])
    for m in shown:
        print(f"  {m['name']:<52} {values.get(m['name'], 0.0):>14.6g} {m['unit']}")
    for line in bad[:20]:
        print(f"  FAILED {line}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(), **extra, "values": values}
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())

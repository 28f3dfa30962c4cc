"""The compcount benchmark: one workload and seed per run, as a closed loop
with one client.

    python3 perfbench/run.py --workload graph-sparse --seed 1 --seconds 40 --trace 0

Each query is an argv list passed to ``compcount.cli.run(argv, out, err)`` in
this process; the next query starts only after the previous one returns.
Of each output only its digest and byte count are kept. After the loop,
every answer is checked against an independent reference (references.py).
The references are built only then, so the peak RSS read at the end of the
loop is the program's.

A run imports the program once and goes through the workload's fixed query
list, which takes well under ``--seconds`` here; a program slow enough to pass
``--seconds`` is stopped early, on a prefix of the list, and the record and
output say so. Reported times are wall times scaled by a calibration loop
run between queries (see below).

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` every query runs on two imports of the
program, one with every layer function wrapped (tracing.py), and the last
line holds the per-layer metrics, including the tracing overhead.
Run records and spans are written under .perfbench_runs/.

Known defect, kept visible: the CLI exits 1 on any answer of more than 4300
digits, since Python limits integer-to-string conversion. The sequences
workload keeps a fixed share of such queries; they count as failed, and the
run is still correct if each of them fails with that error or prints the
right answer. Any other failure, or a wrong answer, makes the run incorrect.
Nothing here lifts the limit.
"""

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path
from typing import NamedTuple

import references
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The host's speed drifts by 10 to 40% within minutes, and by up to 25%
# between one second and the next, and a pure-Python loop tracks the
# program's speed closely. So a calibration loop runs after every query, and
# query times are scaled by the calibrations nearest them to seconds at the
# speed where the loop takes CALIBRATION_REF_S. Raw wall times are printed
# and recorded as well.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.005
CALIBRATION_WINDOW = 2
# Set-up is sampled this many times, spread over the run: start-up time
# switches between a fast and a slow state that lasts seconds.
SETUP_SAMPLES = 21
# Times the import and parser build in a fresh interpreter, between two runs
# of the calibration loop, by which set-up time is scaled as query times are.
SETUP_CODE = f"""\
import time
def calibration():
    start = time.perf_counter()
    x = 0
    for i in range({CALIBRATION_LOOPS}):
        x += i * i % 7
    return time.perf_counter() - start
before = calibration()
start = time.perf_counter()
import compcount.cli
compcount.cli.build_parser()
elapsed = time.perf_counter() - start
print(elapsed, before, calibration(), compcount.__file__)
"""
# The error the CLI prints for an answer of more than 4300 digits.
KNOWN_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"


def main() -> int:
    args = parse_args()
    os.chdir(ROOT)
    if not (SRC / "compcount" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/compcount", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = workloads.generate(args.workload, args.seed)
    for path, text in workload.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    queries = workload.queries

    spans = None
    if args.trace:
        outcomes, metrics, spans = traced_run(queries, args.seconds)
    else:
        outcomes, measured = timed_run(queries, args.seconds)
    # The references are built only now, after the loop, so that the peak
    # RSS read at its end is the program's and not theirs.
    sides = 2 if args.trace else 1  # a traced run has a plain and a traced side
    ran = queries[:len(outcomes) // sides]
    expected = references.expected_outputs([q.answer for q in ran])
    tally = judge([q.argv for q in ran] * sides, outcomes, expected * sides)
    timings = {}
    if not args.trace:
        metrics, timings = end_to_end_metrics(outcomes, tally, measured)
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")

    over_limit = sum(e.over_limit for e in expected)
    stopped_early = len(ran) < len(queries)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version, "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT), "input_digest": workload.digest(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "queries": len(queries), "queries_run": len(ran), "stopped_early": stopped_early,
        "over_limit_queries_run": over_limit,
        **tally.summary(), "metrics": metrics, "timings": timings,
    }
    stem = Path(workloads.RUN_DIR) / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.parent.mkdir(exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    units = {m["name"]: m["unit"] for m in wanted}
    print(f"# {args.workload} seed={args.seed} queries run: {len(ran)} of {len(queries)}"
          f"{' (stopped early at --seconds)' if stopped_early else ''}; "
          f"answers over 4300 digits: {over_limit}; record: {stem.with_suffix('.json')}")
    for reason, count in sorted(tally.failures.items()):
        print(f"# failed x{count}: {reason}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} ratio")
    if not args.trace:
        print(f"query_samples {len(outcomes)} count")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    for name, value in sorted(timings.items()):
        if not isinstance(value, list):
            print(f"# {name} {value:.6g}")
    print(json.dumps({
        "correct": tally.unexpected == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


class Outcome(NamedTuple):
    """What one query did: its wall time, exit code (None if it raised), the
    start of its error text, and the digest and byte count of its output."""
    seconds: float
    code: int | None
    error: str
    sha256: str
    nbytes: int


def run_query(cli, argv: tuple[str, ...]) -> Outcome:
    """Run one query and time it. Only the output's digest and size are kept."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.run(list(argv), out, err)
    except Exception as exc:  # a query that raises is a failed query
        seconds = time.perf_counter() - start
        return Outcome(seconds, None, f"{type(exc).__name__}: {str(exc)[:100]}", "", 0)
    seconds = time.perf_counter() - start
    data = out.getvalue().encode()
    return Outcome(seconds, code, err.getvalue().strip()[:120], sha256(data).hexdigest(), len(data))


class Tally:
    """The verdict on a run's outcomes. A query fails if it raises, exits
    nonzero or prints anything but its reference answer. Failures are
    expected only on answers over the limit, and only as the known defect's
    error; any other failure is unexpected and makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = self.unexpected = 0
        self.correct_answers = self.output_bytes = self.nonzero_exits = 0
        self.failures: Counter = Counter()

    def add(self, argv: tuple[str, ...], outcome: Outcome, expected: references.Expected) -> None:
        self.attempted += 1
        self.output_bytes += outcome.nbytes
        if outcome.code == 0 and (outcome.nbytes, outcome.sha256) == (expected.nbytes,
                                                                       expected.sha256):
            self.correct_answers += 1
            return
        if outcome.code is None:
            problem = f"raised {outcome.error}"
        elif outcome.code != 0:
            self.nonzero_exits += 1
            problem = f"exit {outcome.code}: {outcome.error}"
        else:
            self.wrong += 1
            problem = f"wrong answer to {' '.join(argv[:2])}"
        known = expected.over_limit and outcome.code == 1 and KNOWN_DEFECT in outcome.error
        if not known:
            self.unexpected += 1
            problem = "UNEXPECTED " + problem
        self.failed += 1
        self.failures[problem] += 1

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong_answers": self.wrong, "unexpected_failures": self.unexpected,
                "failures": dict(self.failures)}


def judge(argvs, outcomes: list[Outcome], expected: list[references.Expected]) -> Tally:
    tally = Tally()
    for argv, outcome, answer in zip(argvs, outcomes, expected, strict=True):
        tally.add(argv, outcome, answer)
    return tally


def fresh_program() -> dict:
    """Import the program's modules anew, as {layer: module}. Modules of an
    earlier import stay usable, with their own caches, as long as the caller
    holds them."""
    for name in [m for m in sys.modules if m == "compcount" or m.startswith("compcount.")]:
        del sys.modules[name]
    gc.collect()
    modules = {layer: importlib.import_module(f"compcount.{layer}") for layer in tracing.LAYERS}
    if SRC not in Path(modules["cli"].__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {modules['cli'].__file__}, not the program in {SRC}")
    return modules


def timed_run(queries, seconds: float) -> tuple[list[Outcome], dict]:
    """The queries in order on one fresh import, stopping early only if the
    run passes --seconds, with set-up samples spread over the run. Returns
    the outcomes and what else was measured, before any answer is checked."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_sample(env)  # uncounted: writes the bytecode cache
    setups = []
    every = max(1, len(queries) // SETUP_SAMPLES)
    outcomes = []
    cli = fresh_program()["cli"]
    rss_before = max_rss_mb()
    calibrations = [calibration()]
    stop_at = time.perf_counter() + seconds
    for index, query in enumerate(queries):
        if time.perf_counter() > stop_at:
            break
        if index % every == 0:
            setups.append(setup_sample(env))
        outcomes.append(run_query(cli, query.argv))
        calibrations.append(calibration())
    return outcomes, {"peak_rss_mb": max_rss_mb(), "rss_before_queries_mb": rss_before,
                      "calibrations": calibrations, "setups": setups}


def end_to_end_metrics(outcomes: list[Outcome], tally: Tally, measured: dict) -> tuple[dict, dict]:
    """The metrics of BENCHMARK.json, with query and set-up times scaled to
    the reference speed, and the timings behind them, raw figures included."""
    raw = [o.seconds for o in outcomes]
    slowdowns = local_slowdowns(measured["calibrations"])
    scaled = [t / slowdown for t, slowdown in zip(raw, slowdowns)]
    setups = measured["setups"]
    metrics = {"setup_s": statistics.median(scaled_s for scaled_s, _ in setups),
               **latency_metrics(scaled, tally.correct_answers),
               "peak_rss_mb": measured["peak_rss_mb"]}
    timings = {f"raw_{name}": value
               for name, value in latency_metrics(raw, tally.correct_answers).items()}
    timings.update(raw_setup_s=statistics.median(raw_s for _, raw_s in setups),
                   rss_before_queries_mb=measured["rss_before_queries_mb"],
                   median_slowdown=statistics.median(slowdowns),
                   setup_samples_s=[round(s, 6) for s, _ in setups],
                   scaled_query_s=[round(t, 7) for t in scaled],
                   raw_query_s=[round(t, 7) for t in raw],
                   calibration_s=[round(c, 7) for c in measured["calibrations"]])
    return metrics, timings


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def local_slowdowns(calibrations: list[float]) -> list[float]:
    """For query i, run between calibrations i and i + 1: the median of the
    calibrations within CALIBRATION_WINDOW places of it over the reference.
    A single 5 ms loop jitters by about 15%, which the median of six damps;
    a wider window would blur the host's changes of speed from second to
    second."""
    return [statistics.median(calibrations[max(0, i - CALIBRATION_WINDOW):
                                           i + CALIBRATION_WINDOW + 2]) / CALIBRATION_REF_S
            for i in range(len(calibrations) - 1)]


def latency_metrics(times: list[float], correct: int) -> dict:
    """queries_per_s divides by the summed query time rather than the loop's
    wall time, so that the benchmark's own calibrations and set-up samples
    between queries do not count."""
    return {"query_p50_s": harrell_davis(times, 0.5),
            "query_p90_s": harrell_davis(times, 0.9),
            "queries_per_s": correct / sum(times)}


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by a Beta(p(n+1), (1-p)(n+1)) density over their ranks. Unlike
    a single order statistic it does not jump when a workload's costs are
    sparse near the quantile, so it varies less from run to run."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule over each rank's slice [i/n, (i+1)/n]
    h = 1 / (n * steps)
    weights = [sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(i / n + k * h)
                   for k in range(steps + 1)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def calibration() -> float:
    """Wall time of a fixed pure-Python loop, the machine's speed right now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def traced_run(queries, seconds: float) -> tuple[list[Outcome], dict, list]:
    """Each query on two separate imports of the program, one plain and one
    traced, alternating which runs first. Both see the same machine
    conditions and the same cache history, so their time ratio is the
    tracing overhead. Returns the plain outcomes followed by the traced
    ones, the per-layer metrics, and the spans."""
    plain, traced = fresh_program(), fresh_program()
    bell = traced["exactnum"].bell
    tracer = tracing.Tracer()
    tracer.install(traced)
    plain_outcomes, traced_outcomes = [], []
    sides = [(plain["cli"], plain_outcomes), (traced["cli"], traced_outcomes)]
    stop_at = time.perf_counter() + 2 * seconds
    for index, query in enumerate(queries):
        if time.perf_counter() > stop_at:
            break
        tracer.query = index
        for cli, outcomes in sides if index % 2 == 0 else sides[::-1]:
            outcomes.append(run_query(cli, query.argv))
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    metrics["cli.output_bytes"] = sum(o.nbytes for o in traced_outcomes)
    metrics["cli.nonzero_exits"] = sum(o.code not in (0, None) for o in traced_outcomes)
    metrics["exactnum.bell.cache_entries"] = (
        bell.cache_info().currsize if hasattr(bell, "cache_info") else 0)
    metrics["trace.overhead_frac"] = (sum(o.seconds for o in traced_outcomes)
                                      / sum(o.seconds for o in plain_outcomes) - 1)
    return plain_outcomes + traced_outcomes, metrics, [tuple(span) for span in tracer.spans]


def setup_sample(env: dict) -> tuple[float, float]:
    """Time, in a fresh interpreter, to import the program and build its CLI
    parser: scaled to the reference speed by the calibration loops run in
    that interpreter just before and after, and raw."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed, before, after, origin = done.stdout.split(maxsplit=3)
    if SRC not in Path(origin.strip()).resolve().parents:
        raise SystemExit(f"perfbench: set-up imported {origin.strip()}, not {SRC}")
    slowdown = (float(before) + float(after)) / 2 / CALIBRATION_REF_S
    return float(elapsed) / slowdown, float(elapsed)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())

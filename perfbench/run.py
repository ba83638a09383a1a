"""Benchmark command for mbce.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs one workload in this single-threaded process. One caller drives the
``mbce`` CLI in-process (``mbce.cli.main([..., "--out", path])``) in a
closed loop and reads every report back through ``mbce.io.load_report``; an
operation is that pair. A round is the workload's fixed list of operations
for the seed; the run repeats whole rounds while another round still fits in
``--seconds`` of operation time (at least one), so every run covers the same
operations. After the timed rounds, every report of the first round is
checked apart from the program (``checks.py``) and every later round must
reproduce its bytes.

``--trace 0`` prints the end-to-end metrics, with times rescaled to a
reference machine speed (``speed.py``). ``--trace 1`` runs one round with
each operation done twice in a row, untraced and then with
``tracer.Tracer`` installed, and prints the per-layer metrics of the traced
half plus the tracing overhead; its spans go to
``.perfbench_out/trace-<workload>-seed<n>.jsonl.gz``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is timed this many times, each in a fresh interpreter, and the
# median reported: one sub-second reading does not repeat within a tenth.
SETUP_REPS = 7
SETUP_TIMEOUT_S = 120

# One set-up in a fresh interpreter: import the CLI and the report loader,
# then build and write the workload's inputs. Prints its own elapsed seconds
# and the speed kernel's time right after, to rescale them.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
src, bench, workload, seed, dest = sys.argv[1:]
sys.path[:0] = [src, bench]
import mbce.cli, mbce.io
import inputs
inputs.write_cases(inputs.build_cases(workload, int(seed)), dest)
elapsed = time.perf_counter() - start
import speed
speed.kernel()
print(elapsed, sum(speed.kernel() for _ in range(3)) / 3)
"""

# A speed reading is taken at the start and end of a round and after every
# operation that ends this much operation time after the last reading.
SAMPLE_EVERY_S = 0.1

def time_setup(workload: str, seed: int, dest: Path) -> list[tuple[float, float]]:
    """(seconds, kernel seconds) of each set-up, in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(BENCH),
             workload, str(seed), str(dest)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{probe.stderr}")
        elapsed, kernel = probe.stdout.split()
        times.append((float(elapsed), float(kernel)))
    return times


class Round:
    """Latencies, exit codes, loaded reports and report digests of one round."""

    def __init__(self, keep_reports: bool):
        self.keep_reports = keep_reports
        self.latencies: list[float] = []
        self.seconds = 0.0
        self.outcomes: list[tuple[int, dict] | None] = []
        self.digests: list[str | None] = []
        self.errors: list[str] = []

    def run_op(self, mbce, case, path: str, out: Path, sink: io.StringIO) -> None:
        """One timed operation: the CLI command, then the report reload.

        ``mbce.cli.main`` and ``mbce.io.load_report`` are looked up at call
        time, so a tracer installed on the modules sees them."""
        index = len(self.latencies)
        start = time.perf_counter()
        try:
            code = mbce.cli.main([case.command, path, "--out", str(out)])
            report = mbce.io.load_report(str(out))
        except Exception as err:  # the loop must go on; the op counts as failed
            self.latencies.append(time.perf_counter() - start)
            self.seconds += self.latencies[-1]
            self.outcomes.append(None)
            self.digests.append(None)
            self.errors.append(f"op {index} ({case.command}): {err!r} {sink.getvalue()}")
        else:
            self.latencies.append(time.perf_counter() - start)
            self.seconds += self.latencies[-1]
            self.digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
            if code in (0, 2):
                self.outcomes.append((code, report if self.keep_reports else None))
            else:
                self.outcomes.append(None)
                self.errors.append(f"op {index} ({case.command}): exit {code} {sink.getvalue()}")
        sink.seek(0)
        sink.truncate()


def run_rounds(mbce, cases, paths, out_dir: Path, seconds: float, pace) -> list[Round]:
    """Whole rounds while another one still fits in ``seconds`` (at least
    one), sampling ``pace`` between operations. Only the first round keeps
    its reports, so memory does not grow with the number of rounds."""
    rounds: list[Round] = []
    elapsed = 0.0
    with contextlib.redirect_stderr(io.StringIO()) as sink:
        while True:
            done = Round(keep_reports=not rounds)
            pace.sample(0.0)
            sampled = 0.0
            for index, (case, path) in enumerate(zip(cases, paths)):
                done.run_op(mbce, case, path, out_dir / f"{index:04d}.json", sink)
                if done.seconds - sampled >= SAMPLE_EVERY_S:
                    pace.sample(done.seconds - sampled)
                    sampled = done.seconds
            if done.seconds > sampled:
                pace.sample(done.seconds - sampled)
            rounds.append(done)
            elapsed += done.seconds
            if elapsed + done.seconds > seconds:
                return rounds


def run_traced_round(mbce, cases, paths, out_dir: Path, spans) -> tuple[Round, Round]:
    """Each operation twice in a row, untraced and then traced, so that the
    overhead compares the two over the same stretch of time."""
    plain, traced = Round(keep_reports=True), Round(keep_reports=False)
    with contextlib.redirect_stderr(io.StringIO()) as sink:
        for index, (case, path) in enumerate(zip(cases, paths)):
            out = out_dir / f"{index:04d}.json"
            plain.run_op(mbce, case, path, out, sink)
            spans.install()
            try:
                traced.run_op(mbce, case, path, out, sink)
            finally:
                spans.uninstall()
    return plain, traced


def make_oracle(mbce):
    """Decides a ``sweep`` instance with the program's own LP route."""

    def oracle(doc) -> bool:
        game = mbce.game.make_game(doc["states"], doc["actions"], doc["utility"], doc["prior"])
        marginal = mbce.game.make_marginal(doc["marginal"])
        feasible, _ = mbce.consistency.oracle_feasibility(game, marginal)
        return feasible

    return oracle


def check_rounds(cases, rounds: list[Round], oracle) -> list[str]:
    """Check the first round's reports; later rounds must repeat its bytes."""
    problems = []
    first = rounds[0]
    for index, (case, outcome) in enumerate(zip(cases, first.outcomes)):
        if outcome is None:
            continue
        code, report = outcome
        try:
            checks.check_report(case, report, code, oracle)
        except checks.CheckFailure as err:
            problems.append(f"op {index} ({case.command}): {err}")
    for number, later in enumerate(rounds[1:], start=2):
        for index, (a, b) in enumerate(zip(first.digests, later.digests)):
            if a is not None and b is not None and a != b:
                problems.append(f"op {index}: round {number} report bytes differ from round 1")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbce" / "__init__.py").is_file():
        print(f"error: no mbce sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = time_setup(args.workload, args.seed, work / "inputs")

        import mbce.cli
        import mbce.consistency
        import mbce.game
        import mbce.io

        if Path(mbce.__file__).resolve().parent != SRC / "mbce":
            print(f"error: mbce imported from {mbce.__file__}, not {SRC}", file=sys.stderr)
            return 2
        cases = inputs.build_cases(args.workload, args.seed)
        paths = [str(work / "inputs" / f"{i:04d}.json") for i in range(len(cases))]
        out_dir = work / "reports"
        out_dir.mkdir(parents=True)

        if args.trace:
            spans = tracer.Tracer()
            rounds = list(run_traced_round(mbce, cases, paths, out_dir, spans))
            OUT.mkdir(exist_ok=True)
            spans.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            pace = speed.Speed()
            rounds = run_rounds(mbce, cases, paths, out_dir, args.seconds, pace)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = check_rounds(cases, rounds, make_oracle(mbce))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for r in rounds for e in r.errors]
    attempted = sum(len(r.latencies) for r in rounds)
    digest = hashlib.sha256("".join(d or "-" for d in rounds[0].digests).encode()).hexdigest()

    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} operations a round")
    print(f"round seconds: {' '.join(f'{r.seconds:.3f}' for r in rounds)}")
    print(f"attempted {attempted}, failed {len(errors)}")
    for line in errors[:10] + problems[:10]:
        print(f"  {line}")
    print(f"checks {'passed' if not problems else f'FAILED ({len(problems)})'}")
    print(f"report_sha256 {digest} (round 1 report bytes, informational)")

    if args.trace:
        plain, traced = rounds
        metrics = spans.layer_metrics()
        metrics["trace.overhead_pct"] = ((traced.seconds / plain.seconds - 1) * 100, "%")
    else:
        # Times are rescaled to the reference kernel speed (speed.py); the
        # wall-clock figures they come from are printed beside them.
        latencies = [t for r in rounds for t in r.latencies]
        completed = sum(1 for r in rounds for o in r.outcomes if o is not None)
        p50 = statistics.median(latencies)
        setup = statistics.median(
            t * speed.REFERENCE_KERNEL_S / kernel for t, kernel in setup_times
        )
        metrics = {
            "ops_per_s": (completed / pace.scale(sum(latencies)), "1/s"),
            "latency_p50_ms": (pace.scale(p50) * 1000, "ms"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"kernel {pace.mean_kernel_s * 1000:.3f} ms over "
              f"{len(pace.readings)} samples (reference {speed.REFERENCE_KERNEL_S * 1000} ms)")
        print(f"wall clock: {completed / sum(latencies):.4f} ops/s, p50 {p50 * 1000:.3f} ms, "
              f"set-up {statistics.median(t for t, _ in setup_times):.4f} s")
        # Only where ten or more samples lie beyond it; not every workload
        # gets there, so it stays out of the JSON line.
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[8]
            print(f"latency_p90_ms {pace.scale(p90) * 1000} ms (n={len(latencies)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

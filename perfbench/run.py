"""Benchmark of the certaintrust reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process runs one workload as a closed loop with one client: the next
operation starts when the previous one has returned.  Every output is
checked against the independent reference model in ``reference.py``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
slice of the workload twice, untraced and then with every public function
of the five modules wrapped (``layers.py``), and reports per-layer metrics.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See NOTES.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

import workloads  # noqa: E402  (modules of this directory)
from layers import Tracer, layer_metrics  # noqa: E402
from setup_probe import readout, run_cli  # noqa: E402


@dataclass(frozen=True)
class Spec:
    exercised: tuple[str, ...]  # layers the traced run must see called
    min_passes: int  # each position's latency is its fastest of at least this many passes
    trace_ops: int | None = None  # traced slice: the first N operations of pass 0 (None: all)


WORKLOADS = {
    "scenario-fleet": Spec(("cli", "topology", "opinions", "fuzzy", "case_studies"), min_passes=3),
    "topology-large": Spec(("cli", "topology", "opinions"), min_passes=5, trace_ops=6),
    "fuzzy-sweep": Spec(("fuzzy", "opinions"), min_passes=3),
}
SETUP_SAMPLES = 7
WALL_LIMIT_S = 140.0  # stop starting passes after this, whatever --seconds says
TRACE_RECURSION_LIMIT = 6000  # each traced call adds a frame; 600-deep chains need the room


class Program:
    """The program under test, imported from the checkout's ``src``."""

    def __init__(self):
        sys.path.insert(0, SRC)
        import certaintrust.cli as cli
        from certaintrust import fuzzy, opinions

        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"error: certaintrust was imported from {cli.__file__}, not from {SRC}")
        self.cli, self.fuzzy, self.opinions = cli, fuzzy, opinions

    def execute(self, op):
        """(seconds, result) of one operation."""
        if op.point is not None:
            return readout(self.fuzzy, self.opinions, *op.point)
        return run_cli(self.cli, op.argv)


@dataclass
class Tally:
    passes: list[list[float]] = field(default_factory=list)  # latency per pass and position
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    output_bytes: int = 0
    parse_nodes: int = 0

    def run_pass(self, ops, execute, corrupt=None) -> None:
        latencies = []
        for op in ops:
            elapsed, result = execute(op)
            latencies.append(elapsed)
            self.record(op, result, corrupt)
        self.passes.append(latencies)

    def record(self, op, result, corrupt=None) -> None:
        if corrupt is not None and not self.failed:
            result = corrupt(op, result) or result
        self.attempted += 1
        self.parse_nodes += op.nodes
        if op.argv is not None and isinstance(result, tuple):
            self.output_bytes += len(result[1].encode("utf-8"))
        try:
            reason = op.check(result)
        except Exception as exc:  # a checker that cannot read the output fails the operation
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.argv or op.point}: {reason}")

    @property
    def seconds(self) -> float:
        return sum(map(sum, self.passes))

    def quiet(self) -> list[float]:
        """Each position's fastest latency over the passes."""
        return [min(column) for column in zip(*self.passes)]


def _pass_dir(workdir: str, index: int) -> str:
    path = os.path.join(workdir, f"pass{index}")
    os.makedirs(path)
    return path


def timed_run(program: Program, name: str, seed: int, seconds: float, workdir: str,
              tiny: bool = False, corrupt=None) -> Tally:
    """Whole passes until ``seconds`` of operation time and the workload's minimum passes."""
    min_passes = 1 if tiny else WORKLOADS[name].min_passes
    tally = Tally()
    started = time.perf_counter()
    while True:
        passdir = _pass_dir(workdir, len(tally.passes))
        ops = workloads.make_pass(name, seed, len(tally.passes), passdir, tiny)
        gc.collect()
        tally.run_pass(ops, program.execute, corrupt)
        shutil.rmtree(passdir)
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
        if len(tally.passes) >= min_passes and tally.seconds >= seconds:
            break
    return tally


def traced_run(program: Program, name: str, seed: int, workdir: str, tiny: bool = False):
    """The same slice untraced, then traced: (untraced tally, traced tally, tracer)."""
    ops = workloads.make_pass(name, seed, 0, _pass_dir(workdir, 0), tiny)[:WORKLOADS[name].trace_ops]
    plain = Tally()
    gc.collect()
    plain.run_pass(ops, program.execute)
    tracer = Tracer()
    traced = Tally()
    limit = sys.getrecursionlimit()
    tracer.install()
    sys.setrecursionlimit(max(limit, TRACE_RECURSION_LIMIT))
    try:
        gc.collect()
        traced.run_pass(ops, lambda op: tracer.run_op(lambda: program.execute(op)))
    finally:
        sys.setrecursionlimit(limit)
        tracer.uninstall()
    return plain, traced, tracer


def setup_samples(name: str, warm) -> list[float]:
    """Wall time of fresh processes that import the CLI and run the warm-up op."""
    probe = os.path.join(HERE, "setup_probe.py")
    if warm.point is not None:
        args = ["point", *map(repr, warm.point)]
    else:
        args = ["cli", *warm.argv]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, probe, SRC, *args], capture_output=True, text=True,
                              timeout=60, cwd=ROOT)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed for {name}: {done.stderr.strip()[-400:]}")
    return samples


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile that leaves at least ten samples
    above it: (value, percentile, samples above)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _emit(tally: Tally, metrics: dict, notes: list[str]) -> None:
    for line in notes:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))


def summarize(tally: Tally, setup: list[float], peak_mb: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of a timed run, and the lines that explain them."""
    quiet = tally.quiet()
    tail_s, tail_pct, above = tail(quiet)
    every = [x for latencies in tally.passes for x in latencies]
    metrics = {
        "ops_per_s": (len(quiet) / sum(quiet), "1/s"),
        "op_p50_ms": (statistics.median(quiet) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"  {len(tally.passes)} passes of {len(quiet)} operations, {tally.seconds:.2f} s of operation time; "
        f"a position's latency is its fastest pass",
        f"  op_tail_ms is p{tail_pct:.4g} of {len(quiet)} positions, {above} above it",
        f"  over every sample: {len(every) / sum(every):.6g} ops/s, p50 {statistics.median(every) * 1e3:.6g} ms",
        f"  setup_s is the median of {len(setup)} fresh processes: " + ", ".join(f"{s:.3f}" for s in setup),
        f"  fail_ratio {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})",
    ]
    return metrics, notes


def end_to_end(name: str, seed: int, seconds: float, workdir: str) -> None:
    warm = workloads.warmup(name, workdir)
    setup = setup_samples(name, warm)
    program = Program()
    program.execute(warm)
    tally = timed_run(program, name, seed, seconds, workdir)
    metrics, notes = summarize(tally, setup, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    _emit(tally, metrics, [f"workload {name}, seed {seed}"] + notes)


def traced_metrics(name: str, plain: Tally, traced: Tally, tracer: Tracer) -> tuple[dict, Tally, list[str]]:
    """Per-layer metrics, the combined tally and the problems of a traced run."""
    metrics, problems = layer_metrics(tracer, WORKLOADS[name].exercised, traced.parse_nodes,
                                      traced.output_bytes, traced.seconds / plain.seconds)
    both = Tally(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed,
                 reasons=plain.reasons + traced.reasons)
    return metrics, both, problems


def per_layer(name: str, seed: int, workdir: str) -> None:
    program = Program()
    program.execute(workloads.warmup(name, workdir))
    plain, traced, tracer = traced_run(program, name, seed, workdir)
    metrics, both, problems = traced_metrics(name, plain, traced, tracer)
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"trace-{name}.npz"))
    if problems:
        raise SystemExit("error: " + "; ".join(problems))
    notes = [
        f"workload {name}, seed {seed}: traced slice of {traced.attempted} operations, "
        f"{len(tracer.name_id)} spans written to .perfbench/trace-{name}.npz",
    ]
    if tracer.absent:
        notes.append("  absent (reported as 0): " + ", ".join(tracer.absent))
    _emit(both, metrics, notes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "certaintrust")):
        print(f"error: no program to benchmark: {SRC}/certaintrust is missing", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            per_layer(args.workload, args.seed, workdir)
        else:
            end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

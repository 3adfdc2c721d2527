"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, from the checkout's ``src``:

* as is: no operation may fail the checker;
* with one wrong value injected into one operation's output: the checker
  must fail it, so fail_ratio rises above 0;
* traced: every layer the workload exercises records calls, and the metric
  names match the lists in BENCHMARK.json.

Prints one line per check and exits 0 only when all of them hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def inject(op, result):
    """One wrong output value: the trust of a fuzzy readout, or the last
    printed digit of a successful ``assess``.  None where it does not apply."""
    if op.point is not None:
        return (result[0] + 1e-6,) + result[1:]
    code, out, err = result
    if op.argv[0] != "assess" or code != 0:
        return None
    i = max(i for i, ch in enumerate(out) if ch.isdigit())
    return code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:], err


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    per_layer = {m["name"] for m in contract["per_layer"]}
    program = run.Program()
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    results = []

    def expect(label: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))

    try:
        for name in run.WORKLOADS:
            os.makedirs(workdir)
            clean = run.timed_run(program, name, 7, 0.0, workdir, tiny=True)
            expect(f"{name}: clean run passes the checker", clean.failed == 0, "; ".join(clean.reasons))
            metrics, _ = run.summarize(clean, [0.1], 1.0)
            expect(f"{name}: end-to-end metrics match BENCHMARK.json", set(metrics) == end_to_end,
                   str(sorted(set(metrics) ^ end_to_end)))
            dirty = run.timed_run(program, name, 7, 0.0, workdir, tiny=True, corrupt=inject)
            expect(f"{name}: injected wrong value raises fail_ratio above 0", dirty.failed / dirty.attempted > 0)
            plain, traced, tracer = run.traced_run(program, name, 7, workdir, tiny=True)
            metrics, _, problems = run.traced_metrics(name, plain, traced, tracer)
            expect(f"{name}: traced run sees every layer it exercises", not problems, "; ".join(problems))
            expect(f"{name}: per-layer metrics match BENCHMARK.json", set(metrics) == per_layer,
                   str(sorted(set(metrics) ^ per_layer)))
            shutil.rmtree(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checks hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

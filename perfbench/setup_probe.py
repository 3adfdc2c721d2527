"""Set-up probe, run in a fresh interpreter for each set-up sample.

    python3 perfbench/setup_probe.py SRC_DIR cli ARG...
    python3 perfbench/setup_probe.py SRC_DIR point C T STEP

Imports ``certaintrust.cli`` and runs one warm-up operation: a CLI
invocation or one fuzzy readout.  It imports nothing else that the program
would not import itself, so the process's wall time is what a CLI user pays
for interpreter start, imports and the first operation.  It prints one JSON
line with the split.  The benchmark imports ``run_cli`` and ``readout``
from here so that the probe and the timed loop call the program the same way.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def run_cli(cli, argv: list[str]):
    """``cli.main(argv)`` with stdout and stderr captured: (seconds, (code, out, err))."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue(), err.getvalue())


def readout(fuzzy, opinions, c: float, t: float, step: float):
    """One point's full fuzzy readout: (seconds, values)."""
    start = time.perf_counter()
    try:
        trust = fuzzy.infer_trust(c, t, step)
        label = fuzzy.classify_trust(trust)
        behavior = opinions.behavioral_probability(trust, 0.5)
        fam20 = fuzzy.fam_people20().lookup(c, t)
        fam100 = fuzzy.fam_people100().lookup(c, t)
        values = (trust, label.value, behavior.behavior_percent, behavior.behavior_percent_raw,
                  behavior.behavior_class.value, behavior.direction.value, fam20.value, fam100.value)
    except Exception as exc:  # an escaping exception is a failed operation
        values = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, values


def main(argv: list[str]) -> int:
    src, kind, args = argv[1], argv[2], argv[3:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import certaintrust.cli as cli

    imported = time.perf_counter()
    if kind == "point":
        from certaintrust import fuzzy, opinions

        _, values = readout(fuzzy, opinions, *map(float, args))
        ok = not isinstance(values, str)
    else:
        _, (code, _, _) = run_cli(cli, args)
        ok = code == 0
    print(json.dumps({"import_s": imported - start, "warmup_s": time.perf_counter() - imported}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

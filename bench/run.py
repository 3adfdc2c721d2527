"""Per-layer timings of the fuzzy layer, in microseconds per call.

Run from anywhere:

    python3 bench/run.py > result.json

The program is imported from the ``src/`` directory next to this one, so the
same script measures any checkout it is copied into.  Every layer's output is
first checked against its golden value, so a fast wrong answer cannot pass;
a mismatch exits with code 1 before anything is timed.  Each layer is then
timed with ``timeit``: the loop count comes from ``Timer.autorange`` (at
least 0.2 s per repeat) and the report gives the min and median of
``REPEATS`` repeats, plus the Python and numpy versions.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from certaintrust.fuzzy import (  # noqa: E402
    FuzzyLabel,
    MamdaniEngine,
    aggregate,
    classify_trust,
    defuzzify_centroid,
    fuzzify,
    gaussian_mf,
    implicate,
    rule_strength,
)

REPEATS = 7
C, T = 0.63, 3.7  # an interior point where 8 of the 25 rules fire above weight 0.01

# Values of the seed implementation; the precompiled engine reproduces them bit for bit.
GOLDEN_MF_HIGH = 0.6417129487814521
GOLDEN_MF_AVERAGE = 0.7461305576870197
GOLDEN_TOP_RULE = ("R18", 0.7461305576870197)
GOLDEN_INFER = {0.1: 57.167373626743974, 0.01: 57.16559882915349}
GOLDEN_CLASS = (51.69, FuzzyLabel.AVERAGE)


def _close(got: float, golden: float) -> bool:
    return math.isclose(got, golden, rel_tol=1e-12, abs_tol=1e-15)


def layers() -> dict[str, tuple[object, object]]:
    """Layer name -> (zero-argument call, check of its result)."""
    engines = {step: MamdaniEngine(step=step) for step in GOLDEN_INFER}
    engine = engines[0.1]
    certainty = engine.certainty_var
    high = certainty.set_for(FuzzyLabel.HIGH)
    # the reference aggregate at (C, T), so the centroid is timed on a real input
    mc, mt = fuzzify(certainty, C), fuzzify(engine.rating_var, T)
    aggregated = aggregate(
        [
            implicate(engine.trust_var.set_for(rule.trust_label), rule_strength(rule, mc, mt), engine.samples)
            for rule in engine.rules
        ]
    )

    def top_rule(activations):
        top = max(activations, key=lambda a: a.weight)
        return len(activations) == 25 and top.name == GOLDEN_TOP_RULE[0] and _close(top.weight, GOLDEN_TOP_RULE[1])

    table = {
        "gaussian_mf": (lambda: gaussian_mf(C, high), lambda r: _close(r, GOLDEN_MF_HIGH)),
        "fuzzify": (
            lambda: fuzzify(certainty, C),
            lambda r: _close(r[FuzzyLabel.HIGH], GOLDEN_MF_HIGH) and _close(r[FuzzyLabel.AVERAGE], GOLDEN_MF_AVERAGE),
        ),
        "activations": (lambda: engine.activations(C, T), top_rule),
    }
    for step, eng in engines.items():
        table[f"infer_step_{step}"] = (
            lambda eng=eng: eng.infer(C, T),
            lambda r, step=step: _close(r, GOLDEN_INFER[step]),
        )
    table["defuzzify_centroid"] = (
        lambda: defuzzify_centroid(engine.samples, aggregated),
        lambda r: _close(r, GOLDEN_INFER[0.1]),
    )
    table["classify_trust"] = (lambda: classify_trust(GOLDEN_CLASS[0]), lambda r: r is GOLDEN_CLASS[1])
    return table


def main() -> int:
    table = layers()
    wrong = [name for name, (call, check) in table.items() if not check(call())]
    if wrong:
        print(f"golden mismatch in: {', '.join(wrong)}", file=sys.stderr)
        return 1
    result = {}
    for name, (call, _) in table.items():
        timer = timeit.Timer(call)
        number, _ = timer.autorange()
        per_call = [t / number * 1e6 for t in timer.repeat(repeat=REPEATS, number=number)]
        result[name] = {"min_us": round(min(per_call), 2), "median_us": round(statistics.median(per_call), 2)}
        print(f"{name:22s} min {min(per_call):9.2f} us   median {statistics.median(per_call):9.2f} us", file=sys.stderr)
    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": REPEATS,
        "point": {"c": C, "t_scaled": T},
        "layers_us_per_call": result,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

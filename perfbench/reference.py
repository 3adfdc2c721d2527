"""Independent reference model of the Certain Trust pipeline.

Nothing here imports ``certaintrust``.  The formulas are written from the
published model (PAPER.md and the CertainLogic operator definitions), the
fuzzy partitions from the published class ranges, and the FAM grids and
case-study golden rows are copied by hand from the paper.  The benchmark
compares every program output against these values.

Formula trees are plain tuples: ``("leaf", name)``, ``("not", child)``,
``("and", left, right)`` and ``("or", left, right)``.  Every walk is
iterative, so chains of any depth are safe.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# opinions: (t, c, f) triples

_SLACK = 1e-9  # floating-point spill allowed outside [0, 1] before it is an error


class ReferenceDomainError(ValueError):
    """The reference model has no defined value here."""


def _unit(value: float, what: str) -> float:
    if -_SLACK < value < 0.0:
        return 0.0
    if 1.0 < value < 1.0 + _SLACK:
        return 1.0
    if not 0.0 <= value <= 1.0:
        raise ReferenceDomainError(f"{what} = {value} outside [0, 1]")
    return value


def from_evidence(r: int, s: int, n_max: int, w: float, f: float) -> tuple[float, float, float]:
    """t = r/(r+s) (0.5 without evidence), c = N(r+s) / (2w(N-(r+s)) + N(r+s))."""
    k = r + s
    if k > n_max:
        raise ReferenceDomainError("evidence overflow")
    if k == 0:
        return 0.5, 0.0, f
    return r / k, n_max * k / (2.0 * w * (n_max - k) + n_max * k), f


def expectation(t: float, c: float, f: float) -> float:
    return c * t + (1.0 - c) * f


def op_and(a, b):
    ta, ca, fa = a
    tb, cb, fb = b
    g = 1.0 - fa * fb
    if g == 0.0:
        raise ReferenceDomainError("AND with f_a = f_b = 1")
    c = _unit(ca + cb - ca * cb - (cb * (1.0 - ca) * (1.0 - fa) * tb + ca * (1.0 - cb) * (1.0 - fb) * ta) / g, "AND c")
    if c == 0.0:
        return 0.5, 0.0, fa * fb
    t = _unit(
        (ca * cb * ta * tb + (ca * (1.0 - cb) * (1.0 - fa) * fb * ta + cb * (1.0 - ca) * fa * (1.0 - fb) * tb) / g) / c,
        "AND t",
    )
    return t, c, fa * fb


def op_or(a, b):
    ta, ca, fa = a
    tb, cb, fb = b
    f = fa + fb - fa * fb
    if f == 0.0:
        raise ReferenceDomainError("OR with f_a = f_b = 0")
    c = _unit(ca + cb - ca * cb - (ca * (1.0 - cb) * fb * (1.0 - ta) + cb * (1.0 - ca) * fa * (1.0 - tb)) / f, "OR c")
    if c == 0.0:
        return 0.5, 0.0, f
    return _unit((ca * ta + cb * tb - ca * cb * ta * tb) / c, "OR t"), c, f


def op_not(a, preserve_certainty: bool):
    t, c, f = a
    return 1.0 - t, (c if preserve_certainty else 1.0 - c), 1.0 - f


def trust_percent(t, c):
    """T = c * t * 100 (the scale cancels), clamped to [0, 100]."""
    return np.clip(np.multiply(c, t) * 100.0, 0.0, 100.0)


def behavior(trust_pct, f):
    """(P clamped to +-100, raw P) with P = (T/100 - f) / f * 100."""
    f = np.asarray(f, dtype=float)
    if np.any((f <= 0.0) | (f > 1.0)):
        raise ReferenceDomainError("behavioral probability needs f in (0, 1]")
    raw = (np.divide(trust_pct, 100.0) - f) / f * 100.0
    return np.clip(raw, -100.0, 100.0), raw


# Behavior bands over T in order; "balanced" is exactly T = 50.
BANDS = ("lowest", "lower", "low", "balanced", "high", "higher", "highest")


def _band_index(trust_pct: np.ndarray) -> np.ndarray:
    """[0, 20] lowest, (20, 40] lower, (40, 50) low, 50 balanced, (50, 60] high,
    (60, 80] higher, above 80 highest."""
    return np.select(
        [trust_pct <= 20.0, trust_pct <= 40.0, trust_pct < 50.0, trust_pct == 50.0, trust_pct <= 60.0,
         trust_pct <= 80.0],
        [0, 1, 2, 3, 4, 5], 6)


def band_ok(trust_pct, printed) -> np.ndarray:
    """Printed band is the band of T, or a neighbour when T is within 1e-9 of an edge."""
    trust_pct = np.asarray(trust_pct, dtype=float)
    index = np.array([BANDS.index(b) if b in BANDS else -1 for b in printed])
    return (index >= _band_index(trust_pct - _SLACK)) & (index <= _band_index(trust_pct + _SLACK))


def direction_ok(trust_pct, f, printed) -> np.ndarray:
    """Printed direction is the sign of T/100 - f, any reading within 1e-9 of zero."""
    x = np.asarray(trust_pct, dtype=float) / 100.0 - np.asarray(f, dtype=float)
    printed = np.asarray(printed, dtype=object)
    return (((printed == "higher") & (x > -_SLACK)) | ((printed == "lower") & (x < _SLACK))
            | ((printed == "balanced") & (np.abs(x) <= _SLACK)))


# ---------------------------------------------------------------------------
# fuzzy layer: Gaussian partitions reconstructed from the published ranges

LABELS = ("very_low", "low", "average", "high", "very_high")
SHORT = {"very_low": "VL", "low": "L", "average": "M", "high": "H", "very_high": "VH"}

CERTAINTY_RANGES = ((0.0, 0.2), (0.1, 0.4), (0.3, 0.7), (0.6, 0.9), (0.8, 1.0))
RATING_RANGES = ((1.0, 2.0), (1.5, 3.0), (2.0, 4.0), (3.0, 4.5), (4.25, 5.0))
TRUST_RANGES = ((0.0, 20.0), (10.0, 40.0), (30.0, 70.0), (60.0, 90.0), (80.0, 100.0))

# Trust consequent of the rule for (rating class, certainty class), both
# indexed very_low .. very_high.  Rules are numbered R1..R25 rating-major.
RULES = (
    (0, 0, 0, 0, 0),
    (0, 1, 1, 2, 2),
    (0, 1, 2, 2, 3),
    (0, 1, 2, 3, 3),
    (0, 1, 2, 3, 4),
)


def _gauss_params(ranges):
    """Center at the range midpoint, membership 0.5 at both range ends."""
    half_height = math.sqrt(2.0 * math.log(2.0))
    centers = np.array([(lo + hi) / 2.0 for lo, hi in ranges])
    sigmas = np.array([(hi - lo) / 2.0 / half_height for lo, hi in ranges])
    return centers, sigmas


_C_PARAMS = _gauss_params(CERTAINTY_RANGES)
_T_PARAMS = _gauss_params(RATING_RANGES)
_Y_PARAMS = _gauss_params(TRUST_RANGES)


def _memberships(x: np.ndarray, params) -> np.ndarray:
    centers, sigmas = params
    z = (x[..., None] - centers) / sigmas
    return np.exp(-0.5 * z * z)


def class_ok(trust_pct, printed) -> np.ndarray:
    """Printed class has the highest membership at T (clamped into [0, 100]),
    ties within 1e-9 accepted either way."""
    mu = _memberships(np.clip(np.asarray(trust_pct, dtype=float), 0.0, 100.0), _Y_PARAMS)
    index = np.array([LABELS.index(p) if p in LABELS else -1 for p in printed])
    picked = np.where(index >= 0, mu[np.arange(len(index)), index], -1.0)
    return picked >= mu.max(axis=1) - _SLACK


def trust_classes(trust_pct: float) -> set[str]:
    """Every class that ``class_ok`` accepts at one T."""
    return {label for label, ok in zip(LABELS, class_ok([trust_pct] * 5, LABELS)) if ok}


def rule_weights(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Firing weights, shape (points, 25), in rule order R1..R25."""
    mc = _memberships(np.clip(c, 0.0, 1.0), _C_PARAMS)
    mt = _memberships(np.clip(t, 1.0, 5.0), _T_PARAMS)
    return np.minimum(mt[:, :, None], mc[:, None, :]).reshape(len(c), 25)


_CONSEQUENT = np.array([k for row in RULES for k in row])


def mamdani(c, t, step: float, chunk: int = 200) -> np.ndarray:
    """Crisp trust for each (c, t'): min-implication, max-aggregation, centroid."""
    c = np.asarray(c, dtype=float)
    t = np.asarray(t, dtype=float)
    samples = np.linspace(0.0, 100.0, int(round(100.0 / step)) + 1)
    curves = _memberships(samples, _Y_PARAMS).T  # (5, samples)
    weights = rule_weights(c, t)
    # max over the rules sharing a consequent, then truncate and aggregate
    per_class = np.stack([weights[:, _CONSEQUENT == k].max(axis=1) for k in range(5)], axis=1)
    out = np.empty(len(c))
    for lo in range(0, len(c), chunk):
        w = per_class[lo:lo + chunk]
        agg = np.minimum(w[:, :, None], curves[None, :, :]).max(axis=1)
        out[lo:lo + chunk] = agg @ samples / agg.sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# FAM grids, copied from the published tables

FAM_GRIDS = {
    "people20": (
        (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        (1.0, 2.0, 3.0, 4.0, 5.0),
        (
            "N  N  N  N  N",
            "VL VL VL VL VL",
            "VL VL L  L  L",
            "VL L  L  M  M",
            "VL L  M  H  H",
            "VL L  M  H  VH",
        ),
    ),
    "people100": (
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
        (
            "N  N  N  N  N  N  N  N  N",
            "VL VL VL VL VL VL VL VL VL",
            "VL VL VL VL VL VL VL VL VL",
            "VL VL VL VL VL L  L  L  L",
            "VL VL VL VL L  L  L  L  L",
            "VL VL VL L  L  L  L  M  M",
            "VL VL L  L  L  M  M  M  M",
            "VL L  L  L  M  M  M  H  H",
            "VL L  L  L  M  M  H  H  H",
            "VL L  L  M  M  H  H  VH VH",
            "VL L  L  M  M  H  H  VH VH",
        ),
    ),
}


def _nearest(grid, value: float) -> int:
    """Index of the nearest grid value; a tie keeps the lower one."""
    best = 0
    for i in range(1, len(grid)):
        if abs(value - grid[i]) < abs(value - grid[best]):
            best = i
    return best


def fam_lookup(table: str, c: float, t: float) -> str:
    c_grid, t_grid, rows = FAM_GRIDS[table]
    return rows[_nearest(c_grid, c)].split()[_nearest(t_grid, t)]


# ---------------------------------------------------------------------------
# formula language: canonical text and post-order node walk

_PREC = {"or": 1, "and": 2, "not": 3, "leaf": 4}
_SYMBOL = {"and": " & ", "or": " | "}


def post_order(root, paths: bool = False) -> list:
    """Every node, children first and left before right; with ``paths``,
    ``(node, path)`` pairs where the root is ``root`` and children append
    ``.left``, ``.right`` or ``.operand``."""
    out = []
    stack = [(root, "root")]
    while stack:  # node, right, left is the reverse of left, right, node
        node, path = stack.pop()
        out.append((node, path) if paths else node)
        kind = node[0]
        if kind == "not":
            stack.append((node[1], path + ".operand" if paths else None))
        elif kind != "leaf":
            stack.append((node[1], path + ".left" if paths else None))
            stack.append((node[2], path + ".right" if paths else None))
    out.reverse()
    return out


def fold(root, leaf, unary, binary) -> list:
    """Post-order fold on an explicit stack: the value of every node, in
    ``post_order`` order.  ``leaf(node)``, ``unary(node, child)`` and
    ``binary(node, left, right)`` give a node's value from its children's."""
    values, stack = [], []
    for node in post_order(root):
        kind = node[0]
        if kind == "leaf":
            value = leaf(node)
        elif kind == "not":
            value = unary(node, stack.pop())
        else:
            right = stack.pop()
            value = binary(node, stack.pop(), right)
        stack.append(value)
        values.append(value)
    return values


def canonical_texts(root) -> list[str]:
    """Minimal-parenthesis text of every node, in ``post_order`` order.

    NOT binds tighter than AND, AND tighter than OR, both binary operators
    associate to the left: a right operand of equal precedence needs
    parentheses, a left one does not.
    """
    def unary(node, child):
        return "!" + (f"({child})" if _PREC[node[1][0]] < _PREC["not"] else child)

    def binary(node, left, right):
        prec = _PREC[node[0]]
        if _PREC[node[1][0]] < prec:
            left = f"({left})"
        if _PREC[node[2][0]] <= prec:
            right = f"({right})"
        return left + _SYMBOL[node[0]] + right

    return fold(root, lambda node: node[1], unary, binary)


def evaluate(root, leaves: dict, preserve_certainty: bool) -> list[tuple]:
    """(t, c, f) of every node, leaves included, in ``post_order`` order."""
    def binary(node, left, right):
        return op_and(left, right) if node[0] == "and" else op_or(left, right)

    return fold(root, lambda node: leaves[node[1]], lambda node, child: op_not(child, preserve_certainty), binary)


# ---------------------------------------------------------------------------
# case studies: published golden rows

# row: (t, c, f, E, T, acceptable classes, P direction)
CASE1_ROWS = {
    "A1": (0.714, 0.724, 0.5, 0.65, 51.69, ("M",), "higher"),
    "A2": (0.459, 0.806, 0.5, 0.467, 37.0, ("M", "L"), "lower"),
    "B1": (0.604, 0.786, 0.5, 0.582, 47.47, ("M",), "lower"),
    "B2": (0.867, 0.648, 0.5, 0.74, 56.18, ("M",), "higher"),
    "S1": (0.829, 0.839, 0.75, 0.82, 69.55, ("H",), "lower"),
    "S2": (0.892, 0.863, 0.75, 0.87, 77.0, ("H",), "higher"),
    "S": (0.736, 0.853, 0.5625, 0.753, 62.78, ("M",), "higher"),
}
CASE1_FORMULA = ("and", ("or", ("leaf", "A1"), ("leaf", "A2")), ("or", ("leaf", "B1"), ("leaf", "B2")))
# Display precision of the published table.
CASE1_TOL = {"t": 0.005, "c": 0.005, "f": 0.005, "E": 0.01, "T": 0.05}
# Case 2: certainty 1.0, scaled rating 3.75 of 5, f = 0.5 -> T = 75, P = +50.
CASE2 = {"t": 0.75, "c": 1.0, "f": 0.5, "T": 75.0, "P": 50.0, "fam20": "H"}

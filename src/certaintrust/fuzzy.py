"""Fuzzy representational layer for trust opinions.

Three linguistic variables partition certainty (over [0, 1]), scaled rating
(over [1, 5]) and output trust (over [0, 100]) into five Gaussian sets each,
``very_low .. very_high``.  The published tables give each set as a plain
range; the Gaussian parameters are reconstructed as

    center = (lo + hi) / 2
    sigma  = (hi - lo) / (2 * sqrt(2 ln 2))

so membership at each range boundary is exactly 0.5, matching the crossover
behavior of the published membership plots.  Both parameters can be
overridden per set.

Inference is classic Mamdani over a 25-rule base: min-conjunction of the two
antecedent memberships, min-truncation implication, max aggregation and
discrete centroid defuzzification over a sampled trust grid.
``MamdaniEngine`` precompiles everything that depends only on its
configuration: each consequent curve is sampled once over the trust grid (five
curves serve the 25 default rules) and the rules are grouped by consequent.  A
call fuzzifies each input with one vectorised Gaussian, takes all rule weights
as one outer minimum, keeps the strongest weight per consequent and aggregates
``max_k min(w_k, curve_k)``.  Because min and max only select among their
operands, ``max_r min(w_r, curve_k(r))`` equals
``max_k min(max_{r: k(r) = k} w_r, curve_k)`` element for element, so the
crisp result is bit-identical to the stage-by-stage chain ``fuzzify ->
rule_strength -> implicate -> aggregate -> defuzzify_centroid``, which stays
public as the reference the tests compare the engine against.  Non-finite
inputs raise ``DomainError``; finite inputs outside a universe are clamped to
its edge.

The module also carries the two published fuzzy associative memory (FAM)
tables -- coarse (certainty, rating) -> class grids for the 20-person and
100-person scalings -- with nearest-grid-point lookup.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "FuzzyLabel",
    "FamClass",
    "FuzzySet",
    "LinguisticVariable",
    "Rule",
    "RuleBase",
    "RuleActivation",
    "FamTable",
    "CERTAINTY_RANGES",
    "RATING_RANGES",
    "TRUST_RANGES",
    "gaussian_mf",
    "build_default_variables",
    "fuzzify",
    "rule_strength",
    "implicate",
    "aggregate",
    "defuzzify_centroid",
    "build_default_rulebase",
    "MamdaniEngine",
    "infer_trust",
    "classify_trust",
    "fam_people20",
    "fam_people100",
]

_HALF_HEIGHT = math.sqrt(2.0 * math.log(2.0))


class FuzzyLabel(enum.Enum):
    """The five linguistic classes, ordered lowest to highest."""

    VERY_LOW = "very_low"
    LOW = "low"
    AVERAGE = "average"
    HIGH = "high"
    VERY_HIGH = "very_high"

    @property
    def rank(self) -> int:
        return _LABEL_ORDER.index(self)


_LABEL_ORDER = (
    FuzzyLabel.VERY_LOW,
    FuzzyLabel.LOW,
    FuzzyLabel.AVERAGE,
    FuzzyLabel.HIGH,
    FuzzyLabel.VERY_HIGH,
)


class FamClass(enum.Enum):
    """Cell classes of the FAM grids; ``N`` marks the no-certainty row."""

    N = "N"
    VL = "VL"
    L = "L"
    M = "M"
    H = "H"
    VH = "VH"

    @property
    def rank(self) -> int:
        return ("N", "VL", "L", "M", "H", "VH").index(self.value)

    @classmethod
    def from_label(cls, label: FuzzyLabel) -> "FamClass":
        return _LABEL_TO_FAM[label]


_LABEL_TO_FAM = {
    FuzzyLabel.VERY_LOW: FamClass.VL,
    FuzzyLabel.LOW: FamClass.L,
    FuzzyLabel.AVERAGE: FamClass.M,
    FuzzyLabel.HIGH: FamClass.H,
    FuzzyLabel.VERY_HIGH: FamClass.VH,
}


@dataclass(frozen=True)
class FuzzySet:
    """A labeled Gaussian membership set ``exp(-(x-center)^2 / (2 sigma^2))``."""

    label: FuzzyLabel
    center: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError(f"sigma of set {self.label.value!r} must be positive, got {self.sigma}")

    @classmethod
    def from_range(cls, label: FuzzyLabel, lo: float, hi: float) -> "FuzzySet":
        """Set whose membership is 1 at the range midpoint and 0.5 at its ends."""
        if not hi > lo:
            raise ConfigError(f"range of set {label.value!r} must have hi > lo, got [{lo}, {hi}]")
        halfwidth = (hi - lo) / 2.0
        return cls(label=label, center=(lo + hi) / 2.0, sigma=halfwidth / _HALF_HEIGHT)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def gaussian_mf(x, fset: FuzzySet):
    """Gaussian membership of ``x`` in ``fset``; accepts scalars or arrays."""
    z = (np.asarray(x, dtype=float) - fset.center) / fset.sigma
    out = np.exp(-0.5 * z * z)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinguisticVariable:
    """A named universe of discourse partitioned into ordered fuzzy sets."""

    name: str
    domain_lo: float
    domain_hi: float
    sets: tuple[FuzzySet, ...]

    def __post_init__(self):
        if not self.domain_lo < self.domain_hi:
            raise ConfigError(f"variable {self.name!r}: domain_lo must be below domain_hi")
        centers = [s.center for s in self.sets]
        for s in self.sets:
            if not self.domain_lo <= s.center <= self.domain_hi:
                raise ConfigError(
                    f"variable {self.name!r}: center {s.center} of set {s.label.value!r} "
                    f"lies outside [{self.domain_lo}, {self.domain_hi}]"
                )
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ConfigError(f"variable {self.name!r}: set centers must be strictly increasing")

        # read-only set parameters for the one-call vectorised membership
        object.__setattr__(self, "_centers", _read_only(np.array([s.center for s in self.sets])))
        object.__setattr__(self, "_sigmas", _read_only(np.array([s.sigma for s in self.sets])))

    def clamp(self, x: float) -> float:
        """``x`` moved into the universe; NaN and infinities raise ``DomainError``."""
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"{self.name} input must be a finite number, got {x}")
        return min(self.domain_hi, max(self.domain_lo, x))

    def memberships(self, x: float) -> np.ndarray:
        """Membership of the clamped ``x`` in every set, in set order.

        One vectorised Gaussian; equal element for element to
        ``gaussian_mf(self.clamp(x), s)`` for each set ``s``.
        """
        z = (self.clamp(x) - self._centers) / self._sigmas
        return np.exp(-0.5 * z * z)

    def set_for(self, label: FuzzyLabel) -> FuzzySet:
        for s in self.sets:
            if s.label is label:
                return s
        raise KeyError(label)


def fuzzify(var: LinguisticVariable, x: float) -> dict[FuzzyLabel, float]:
    """Membership of ``x`` in every set of ``var``.

    Inputs outside the universe are clamped to its edge first (scaled ratings
    can legitimately fall below the rating variable's 1.0 floor).  This is
    the stage-by-stage reference; the engine uses ``var.memberships``.
    """
    x = var.clamp(x)
    return {s.label: gaussian_mf(x, s) for s in var.sets}


# Published class ranges for the three variables.
CERTAINTY_RANGES: dict[FuzzyLabel, tuple[float, float]] = {
    FuzzyLabel.VERY_LOW: (0.0, 0.2),
    FuzzyLabel.LOW: (0.1, 0.4),
    FuzzyLabel.AVERAGE: (0.3, 0.7),
    FuzzyLabel.HIGH: (0.6, 0.9),
    FuzzyLabel.VERY_HIGH: (0.8, 1.0),
}
RATING_RANGES: dict[FuzzyLabel, tuple[float, float]] = {
    FuzzyLabel.VERY_LOW: (1.0, 2.0),
    FuzzyLabel.LOW: (1.5, 3.0),
    FuzzyLabel.AVERAGE: (2.0, 4.0),
    FuzzyLabel.HIGH: (3.0, 4.5),
    FuzzyLabel.VERY_HIGH: (4.25, 5.0),
}
TRUST_RANGES: dict[FuzzyLabel, tuple[float, float]] = {
    FuzzyLabel.VERY_LOW: (0.0, 20.0),
    FuzzyLabel.LOW: (10.0, 40.0),
    FuzzyLabel.AVERAGE: (30.0, 70.0),
    FuzzyLabel.HIGH: (60.0, 90.0),
    FuzzyLabel.VERY_HIGH: (80.0, 100.0),
}

# overrides structure: {variable name: {label value: {"center": .., "sigma": ..}}}
MembershipOverrides = Mapping[str, Mapping[str, Mapping[str, float]]]


def _build_variable(
    name: str,
    domain: tuple[float, float],
    ranges: Mapping[FuzzyLabel, tuple[float, float]],
    overrides: Mapping[str, Mapping[str, float]] | None,
) -> LinguisticVariable:
    overrides = dict(overrides or {})
    sets = []
    for label in _LABEL_ORDER:
        fset = FuzzySet.from_range(label, *ranges[label])
        patch = overrides.pop(label.value, None)
        if patch:
            unknown = set(patch) - {"center", "sigma"}
            if unknown:
                raise ConfigError(f"unknown membership override keys for {name}.{label.value}: {sorted(unknown)}")
            fset = FuzzySet(
                label=label,
                center=float(patch.get("center", fset.center)),
                sigma=float(patch.get("sigma", fset.sigma)),
            )
        sets.append(fset)
    if overrides:
        raise ConfigError(f"unknown set labels in membership overrides for {name!r}: {sorted(overrides)}")
    return LinguisticVariable(name=name, domain_lo=domain[0], domain_hi=domain[1], sets=tuple(sets))


def build_default_variables(
    overrides: MembershipOverrides | None = None,
) -> tuple[LinguisticVariable, LinguisticVariable, LinguisticVariable]:
    """The (certainty, rating, trust) variables with their default sets."""
    overrides = dict(overrides or {})
    unknown = set(overrides) - {"certainty", "rating", "trust"}
    if unknown:
        raise ConfigError(f"unknown variable names in membership overrides: {sorted(unknown)}")
    certainty = _build_variable("certainty", (0.0, 1.0), CERTAINTY_RANGES, overrides.get("certainty"))
    rating = _build_variable("rating", (1.0, 5.0), RATING_RANGES, overrides.get("rating"))
    trust = _build_variable("trust", (0.0, 100.0), TRUST_RANGES, overrides.get("trust"))
    return certainty, rating, trust


@dataclass(frozen=True)
class Rule:
    """One if-then rule: antecedents on certainty and rating, trust consequent."""

    certainty_label: FuzzyLabel
    rating_label: FuzzyLabel
    trust_label: FuzzyLabel


# Consequent grid, rating class (rows, VL..VH) x certainty class (columns,
# VL..VH).  Rule numbering runs certainty-first within each rating row.
_CONSEQUENTS = {
    FuzzyLabel.VERY_LOW: ("very_low", "very_low", "very_low", "very_low", "very_low"),
    FuzzyLabel.LOW: ("very_low", "low", "low", "average", "average"),
    FuzzyLabel.AVERAGE: ("very_low", "low", "average", "average", "high"),
    FuzzyLabel.HIGH: ("very_low", "low", "average", "high", "high"),
    FuzzyLabel.VERY_HIGH: ("very_low", "low", "average", "high", "very_high"),
}


class RuleBase:
    """An ordered, total rule base: one rule per (certainty, rating) pair."""

    def __init__(self, rules: Iterable[Rule]):
        self.rules = tuple(rules)
        pairs = {(r.certainty_label, r.rating_label) for r in self.rules}
        expected = {(c, t) for c in _LABEL_ORDER for t in _LABEL_ORDER}
        if len(pairs) != len(self.rules) or pairs != expected:
            raise ConfigError("rule base must contain exactly one rule per (certainty, rating) pair")

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def name_of(self, index: int) -> str:
        return f"R{index + 1}"


def build_default_rulebase() -> RuleBase:
    """The canonical 25 rules, R1..R25."""
    rules = []
    for rating_label in _LABEL_ORDER:
        consequents = _CONSEQUENTS[rating_label]
        for certainty_label, trust_value in zip(_LABEL_ORDER, consequents):
            rules.append(
                Rule(
                    certainty_label=certainty_label,
                    rating_label=rating_label,
                    trust_label=FuzzyLabel(trust_value),
                )
            )
    return RuleBase(rules)


def rule_strength(
    rule: Rule,
    c_memberships: Mapping[FuzzyLabel, float],
    t_memberships: Mapping[FuzzyLabel, float],
) -> float:
    """Firing weight of a rule: min of its two antecedent memberships.

    Reference stage; ``MamdaniEngine.infer`` takes every weight in one outer
    minimum.
    """
    return min(c_memberships[rule.certainty_label], t_memberships[rule.rating_label])


def implicate(consequent: FuzzySet, weight: float, samples: np.ndarray) -> np.ndarray:
    """Mamdani implication: the consequent's curve truncated at ``weight``.

    Reference stage; ``MamdaniEngine.infer`` truncates its precomputed curves.
    """
    if not 0.0 <= weight <= 1.0:
        raise DomainError(f"rule weight must lie in [0, 1], got {weight}")
    return np.minimum(weight, gaussian_mf(samples, consequent))


def aggregate(truncated: Sequence[np.ndarray]) -> np.ndarray:
    """Pointwise maximum of the truncated rule outputs.

    Reference stage; ``MamdaniEngine.infer`` aggregates one truncated curve
    per consequent.
    """
    if len(truncated) == 0:
        raise DomainError("cannot aggregate an empty rule output list")
    return np.maximum.reduce(list(truncated))


def defuzzify_centroid(samples: np.ndarray, memberships: np.ndarray) -> float:
    """Discrete centroid ``sum(y * mu(y)) / sum(mu(y))`` over the sample grid."""
    memberships = np.asarray(memberships, dtype=float)
    total = float(memberships.sum())
    if total <= 0.0:
        raise DomainError("cannot defuzzify an all-zero aggregate (no rule fired)")
    return float(np.dot(np.asarray(samples, dtype=float), memberships) / total)


@dataclass(frozen=True)
class RuleActivation:
    """One rule's contribution in an inference run, for explain traces."""

    name: str
    rule: Rule
    weight: float


class MamdaniEngine:
    """Full pipeline from (certainty, scaled rating) to a crisp trust percent.

    Deterministic for a fixed sampling step; instances are immutable after
    construction (the precomputed arrays are read-only) and safe to share
    between threads.
    """

    def __init__(
        self,
        variables: tuple[LinguisticVariable, LinguisticVariable, LinguisticVariable] | None = None,
        rules: RuleBase | None = None,
        step: float = 0.1,
    ):
        if not 0.0 < step <= 1.0:
            raise ConfigError(f"sampling step must lie in (0, 1], got {step}")
        self.certainty_var, self.rating_var, self.trust_var = variables or build_default_variables()
        self.rules = rules or build_default_rulebase()
        self.step = float(step)
        span = self.trust_var.domain_hi - self.trust_var.domain_lo
        n = int(round(span / self.step)) + 1
        self.samples = _read_only(np.linspace(self.trust_var.domain_lo, self.trust_var.domain_hi, n))
        # Rules grouped by consequent: rule r fires at cell (i, j) of the outer
        # minimum of the certainty and rating memberships, flattened here.
        c_index = {s.label: i for i, s in enumerate(self.certainty_var.sets)}
        t_index = {s.label: j for j, s in enumerate(self.rating_var.sets)}
        cells: dict[FuzzyLabel, list[int]] = {}
        for rule in self.rules:
            cell = c_index[rule.certainty_label] * len(t_index) + t_index[rule.rating_label]
            cells.setdefault(rule.trust_label, []).append(cell)
        consequents = sorted(cells, key=lambda label: label.rank)
        self._rule_cells = _read_only(np.array([i for label in consequents for i in cells[label]]))
        self._group_starts = _read_only(np.cumsum([0] + [len(cells[label]) for label in consequents[:-1]]))
        self._curves = _read_only(
            np.array([gaussian_mf(self.samples, self.trust_var.set_for(label)) for label in consequents])
        )

    def activations(self, c: float, t_scaled: float) -> list[RuleActivation]:
        """Firing weight of every rule at the given crisp inputs (for explain traces)."""
        mc = fuzzify(self.certainty_var, c)
        mt = fuzzify(self.rating_var, t_scaled)
        return [
            RuleActivation(name=self.rules.name_of(i), rule=rule, weight=rule_strength(rule, mc, mt))
            for i, rule in enumerate(self.rules)
        ]

    def infer(self, c: float, t_scaled: float) -> float:
        """Crisp trust percent; bit-identical to the stage-by-stage reference chain.

        The strongest weight per consequent truncates that consequent's curve:
        min and max only select, so this equals truncating once per rule.
        """
        weights = np.minimum.outer(self.certainty_var.memberships(c), self.rating_var.memberships(t_scaled))
        strongest = np.maximum.reduceat(weights.ravel()[self._rule_cells], self._group_starts)
        return defuzzify_centroid(self.samples, np.maximum.reduce(np.minimum(strongest[:, None], self._curves)))


@lru_cache(maxsize=8)
def _default_engine(step: float) -> MamdaniEngine:
    return MamdaniEngine(step=step)


def infer_trust(c: float, t_scaled: float, step: float = 0.1) -> float:
    """Run the default engine; the result always lies inside [0, 100]."""
    return _default_engine(float(step)).infer(c, t_scaled)


def classify_trust(trust_pct: float, trust_var: LinguisticVariable | None = None) -> FuzzyLabel:
    """Class with the highest membership at ``trust_pct``, ties to the higher class.

    The published trust ranges overlap, so crisp bucketing alone would be
    ill-defined; maximum membership gives a deterministic reduction.
    """
    trust_var = trust_var or _default_engine(0.1).trust_var
    memberships = trust_var.memberships(trust_pct)
    # sets ascend, so the last maximum is the higher class on ties
    return trust_var.sets[memberships.size - 1 - int(memberships[::-1].argmax())].label


@dataclass(frozen=True)
class FamTable:
    """A discrete (certainty, rating) -> class lookup grid."""

    name: str
    c_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    cells: tuple[tuple[FamClass, ...], ...]

    def __post_init__(self):
        if len(self.cells) != len(self.c_grid) or any(len(row) != len(self.t_grid) for row in self.cells):
            raise ConfigError(f"FAM table {self.name!r}: cell grid does not match its axes")
        if any(b <= a for a, b in zip(self.c_grid, self.c_grid[1:])):
            raise ConfigError(f"FAM table {self.name!r}: certainty grid must be strictly increasing")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError(f"FAM table {self.name!r}: rating grid must be strictly increasing")
        for ci, cv in enumerate(self.c_grid):
            if cv == 0.0 and any(cell is not FamClass.N for cell in self.cells[ci]):
                raise ConfigError(f"FAM table {self.name!r}: the c = 0 row must be all N")
        ranks = [[cell.rank for cell in row] for row in self.cells]
        for row in ranks:
            if any(b < a for a, b in zip(row, row[1:])):
                raise ConfigError(f"FAM table {self.name!r}: classes must be nondecreasing along rating")
        for col in zip(*ranks):
            if any(b < a for a, b in zip(col, col[1:])):
                raise ConfigError(f"FAM table {self.name!r}: classes must be nondecreasing along certainty")

    def _nearest(self, grid: tuple[float, ...], value: float, axis: str) -> int:
        if not math.isfinite(value):
            raise DomainError(f"{axis} value must be a finite number, got {value}")
        lo_step = grid[1] - grid[0]
        hi_step = grid[-1] - grid[-2]
        if value < grid[0] - lo_step / 2.0 or value > grid[-1] + hi_step / 2.0:
            raise DomainError(
                f"{axis} value {value} lies outside the {self.name!r} grid "
                f"[{grid[0] - lo_step / 2.0}, {grid[-1] + hi_step / 2.0}]"
            )
        best, best_dist = 0, abs(value - grid[0])
        for i, g in enumerate(grid[1:], start=1):
            dist = abs(value - g)
            if dist < best_dist:  # strict: ties stay at the lower grid value
                best, best_dist = i, dist
        return best

    def lookup(self, c: float, t: float) -> FamClass:
        """Class of the cell whose grid point is nearest to (c, t); ties round down."""
        return self.cells[self._nearest(self.c_grid, c, "certainty")][self._nearest(self.t_grid, t, "rating")]


def _parse_cells(rows: Sequence[str]) -> tuple[tuple[FamClass, ...], ...]:
    return tuple(tuple(FamClass(cell) for cell in row.split()) for row in rows)


@lru_cache(maxsize=1)
def fam_people20() -> FamTable:
    """FAM grid for certainty quantized over 20 respondents, integer ratings."""
    return FamTable(
        name="people20",
        c_grid=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        t_grid=(1.0, 2.0, 3.0, 4.0, 5.0),
        cells=_parse_cells(
            [
                "N  N  N  N  N",
                "VL VL VL VL VL",
                "VL VL L  L  L",
                "VL L  L  M  M",
                "VL L  M  H  H",
                "VL L  M  H  VH",
            ]
        ),
    )


@lru_cache(maxsize=1)
def fam_people100() -> FamTable:
    """FAM grid for the 100-respondent scaling, half-point ratings."""
    return FamTable(
        name="people100",
        c_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        t_grid=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
        cells=_parse_cells(
            [
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
            ]
        ),
    )

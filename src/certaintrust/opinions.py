"""Evidence-based trust opinions and the certain-logic operator algebra.

An opinion about a proposition is the triple ``(t, c, f)``:

* ``t`` -- average rating: the degree to which past observations support the
  proposition; 0 means only contradicting evidence, 1 only supporting.
* ``c`` -- certainty: the degree to which the average rating is assumed to be
  representative for the future; 0 means no evidence at all, 1 means the
  collected evidence is considered fully representative.
* ``f`` -- initial expectation: the assumption about the proposition in the
  absence of any evidence.

Opinions are derived from positive/negative evidence counts::

    t = r / (r + s)                   (0.5 when r + s = 0)
    c = N(r+s) / (2w(N - (r+s)) + N(r+s))

where ``N`` is the maximum number of evidence and ``w`` the dispositional
trust controlling how quickly certainty rises with evidence volume.  The
expectation value blends rating and prior by certainty::

    E(t, c, f) = t*c + (1 - c)*f

The propositional operators AND, OR and NOT combine opinions so that at full
certainty they coincide with the standard probabilistic evaluation, i.e.
``E(a AND b) = E(a)E(b)`` and ``E(a OR b) = E(a) + E(b) - E(a)E(b)`` whenever
``c_a = c_b = 1``.

On top of the algebra sit two representational metrics: the trust percentage

    T = (c * t') / scale * 100        with scaled rating t' = t * scale

and the behavioral probability

    P = (T - f) / f * 100             (T taken as a fraction in [0, 1])

which reads as the signed percentage deviation of trust from the initial
expectation, clamped to [-100, 100] for reporting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "NotMode",
    "BehaviorClass",
    "Direction",
    "Opinion",
    "EvidenceRecord",
    "TrustAssessment",
    "average_rating",
    "certainty",
    "derive_opinion",
    "expectation",
    "op_not",
    "op_and",
    "op_or",
    "scaled_rating",
    "trust_percent",
    "behavioral_probability",
    "quantized_certainty",
]

# Slack for clipping operator outputs back into [0, 1]; anything further out
# is a genuine bug, not floating-point noise.
_RANGE_EPS = 1e-9


class NotMode(enum.Enum):
    """Convention for the NOT operator's certainty component.

    ``NEGATE_CERTAINTY`` (wire value ``"paper"``) complements all three
    components, matching the extended model's operator table.
    ``PRESERVE_CERTAINTY`` keeps ``c`` unchanged, matching the original
    CertainLogic convention.
    """

    NEGATE_CERTAINTY = "paper"
    PRESERVE_CERTAINTY = "preserve_certainty"


class BehaviorClass(enum.Enum):
    """Behavior bands over the trust percentage T.

    Band boundaries (T in percent): [0, 20] lowest, (20, 40] lower,
    (40, 50) low, exactly 50 balanced, (50, 60] high, (60, 80] higher,
    above 80 highest.  The published band table starts at 1%; the lowest
    band is extended down to 0 so every T is classified.
    """

    LOWEST = "lowest"
    LOWER = "lower"
    LOW = "low"
    BALANCED = "balanced"
    HIGH = "high"
    HIGHER = "higher"
    HIGHEST = "highest"


class Direction(enum.Enum):
    """Sign of the behavioral probability relative to the expectation."""

    BELOW_EXPECTATION = "lower"
    BALANCED = "balanced"
    ABOVE_EXPECTATION = "higher"


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class Opinion:
    """Immutable trust opinion ``(t, c, f)``, each component in [0, 1]."""

    t: float
    c: float
    f: float

    def __post_init__(self):
        object.__setattr__(self, "t", _check_unit("average rating t", self.t))
        object.__setattr__(self, "c", _check_unit("certainty c", self.c))
        object.__setattr__(self, "f", _check_unit("initial expectation f", self.f))


@dataclass(frozen=True)
class EvidenceRecord:
    """Raw evidence for one proposition plus its context parameters.

    ``r``/``s`` count positive/negative evidence, ``big_n`` is the maximum
    number of evidence, ``w`` the dispositional trust and ``f`` the initial
    expectation.
    """

    r: int
    s: int
    big_n: int
    w: float = 1.0
    f: float = 0.5

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise DomainError(f"evidence counts must be nonnegative, got r={self.r}, s={self.s}")
        if self.big_n < 1:
            raise DomainError(f"maximum evidence N must be at least 1, got {self.big_n}")
        if self.r + self.s > self.big_n:
            raise DomainError(
                f"evidence overflow: r + s = {self.r + self.s} exceeds the declared maximum N = {self.big_n}"
            )
        if not self.w > 0:
            raise DomainError(f"dispositional trust w must be positive, got {self.w}")
        _check_unit("initial expectation f", self.f)


@dataclass(frozen=True)
class TrustAssessment:
    """Behavioral reading of a trust percentage against an expectation.

    ``behavior_percent`` is clamped to [-100, 100]; the unclamped value is
    kept in ``behavior_percent_raw`` for diagnostics.
    """

    trust_percent: float
    behavior_percent: float
    behavior_percent_raw: float
    behavior_class: BehaviorClass
    direction: Direction


def average_rating(r: int, s: int) -> float:
    """Fraction of positive evidence, ``r / (r + s)``; 0.5 without evidence."""
    if r < 0 or s < 0:
        raise DomainError(f"evidence counts must be nonnegative, got r={r}, s={s}")
    if r + s == 0:
        return 0.5
    return r / (r + s)


def certainty(r: int, s: int, big_n: int, w: float) -> float:
    """Certainty from evidence volume: ``N(r+s) / (2w(N-(r+s)) + N(r+s))``.

    Rises from 0 (no evidence) to 1 (``r + s = N``); ``w`` controls how fast.
    Raises ``DomainError`` when ``r + s`` exceeds the declared maximum ``N``.
    """
    if r < 0 or s < 0:
        raise DomainError(f"evidence counts must be nonnegative, got r={r}, s={s}")
    if big_n < 1:
        raise DomainError(f"maximum evidence N must be at least 1, got {big_n}")
    if not w > 0:
        raise DomainError(f"dispositional trust w must be positive, got {w}")
    k = r + s
    if k > big_n:
        raise DomainError(f"evidence overflow: r + s = {k} exceeds the declared maximum N = {big_n}")
    if k == 0:
        return 0.0
    return (big_n * k) / (2.0 * w * (big_n - k) + big_n * k)


def derive_opinion(ev: EvidenceRecord) -> Opinion:
    """Build the opinion ``(t, c, f)`` from an evidence record."""
    return Opinion(
        t=average_rating(ev.r, ev.s),
        c=certainty(ev.r, ev.s, ev.big_n, ev.w),
        f=ev.f,
    )


def expectation(op: Opinion) -> float:
    """Expectation value ``E = t*c + (1 - c)*f``."""
    return op.t * op.c + (1.0 - op.c) * op.f


def _clip01(value: float, what: str) -> float:
    """Clip floating-point spill back into [0, 1]; larger excursions raise."""
    if 0.0 <= value <= 1.0:
        return value
    if -_RANGE_EPS < value < 0.0:
        return 0.0
    if 1.0 < value < 1.0 + _RANGE_EPS:
        return 1.0
    raise DomainError(f"{what} left [0, 1]: {value}")


def op_not(a: Opinion, mode: NotMode = NotMode.NEGATE_CERTAINTY) -> Opinion:
    """Negate an opinion.

    The default complements every component, ``(1-t, 1-c, 1-f)``.  With
    ``NotMode.PRESERVE_CERTAINTY`` the certainty is kept: ``(1-t, c, 1-f)``.
    Both modes are involutions.
    """
    c = 1.0 - a.c if mode is NotMode.NEGATE_CERTAINTY else a.c
    return Opinion(t=1.0 - a.t, c=c, f=1.0 - a.f)


def op_and(a: Opinion, b: Opinion) -> Opinion:
    """Conjunction of two independent opinions.

    The prior composes as ``f = f_a * f_b``.  Undefined when both priors are
    1 (the ``1 - f_a f_b`` denominator vanishes); when the combined certainty
    is 0 the rating falls back to 0.5.
    """
    fa, fb = a.f, b.f
    denom = 1.0 - fa * fb
    if denom == 0.0:
        raise DomainError("AND is undefined for f_a = f_b = 1 (denominator 1 - f_a*f_b vanishes)")
    c = a.c + b.c - a.c * b.c - (
        (1.0 - a.c) * b.c * (1.0 - fa) * b.t + a.c * (1.0 - b.c) * (1.0 - fb) * a.t
    ) / denom
    c = _clip01(c, "AND certainty")
    if c == 0.0:
        t = 0.5
    else:
        t = (
            a.c * b.c * a.t * b.t
            + (a.c * (1.0 - b.c) * (1.0 - fa) * fb * a.t + (1.0 - a.c) * b.c * fa * (1.0 - fb) * b.t) / denom
        ) / c
        t = _clip01(t, "AND rating")
    return Opinion(t=t, c=c, f=fa * fb)


def op_or(a: Opinion, b: Opinion) -> Opinion:
    """Disjunction of two independent opinions.

    The prior composes as ``f = f_a + f_b - f_a f_b``.  Undefined when both
    priors are 0 (that same expression is the certainty correction's
    denominator); when the combined certainty is 0 the rating falls back
    to 0.5.
    """
    fa, fb = a.f, b.f
    f = fa + fb - fa * fb
    if f == 0.0:
        raise DomainError("OR is undefined for f_a = f_b = 0 (denominator f_a + f_b - f_a*f_b vanishes)")
    c = a.c + b.c - a.c * b.c - (
        a.c * (1.0 - b.c) * fb * (1.0 - a.t) + (1.0 - a.c) * b.c * fa * (1.0 - b.t)
    ) / f
    c = _clip01(c, "OR certainty")
    if c == 0.0:
        t = 0.5
    else:
        t = (a.c * a.t + b.c * b.t - a.c * b.c * a.t * b.t) / c
        t = _clip01(t, "OR rating")
    return Opinion(t=t, c=c, f=f)


def scaled_rating(op: Opinion, scale: float = 5.0) -> float:
    """Rating rescaled onto the developer's scale: ``t' = t * scale``."""
    if not scale >= 1:
        raise DomainError(f"rating scale must be >= 1, got {scale}")
    return op.t * scale


def trust_percent(op: Opinion, scale: float = 5.0) -> float:
    """Trust percentage ``T = (c * t') / scale * 100`` (equals ``c*t*100``)."""
    value = (op.c * scaled_rating(op, scale) / scale) * 100.0
    return min(100.0, max(0.0, value))


def _behavior_class(t_percent: float) -> BehaviorClass:
    if t_percent <= 20.0:
        return BehaviorClass.LOWEST
    if t_percent <= 40.0:
        return BehaviorClass.LOWER
    if t_percent < 50.0:
        return BehaviorClass.LOW
    if t_percent == 50.0:
        return BehaviorClass.BALANCED
    if t_percent <= 60.0:
        return BehaviorClass.HIGH
    if t_percent <= 80.0:
        return BehaviorClass.HIGHER
    return BehaviorClass.HIGHEST


def behavioral_probability(trust_pct: float, f: float) -> TrustAssessment:
    """Behavioral probability ``P = (T - f) / f * 100`` with T as a fraction.

    ``trust_pct`` enters in percent and is converted to a fraction before the
    deviation is taken, so ``P`` is the relative deviation from ``f`` in
    percent.  The reported value is clamped to [-100, 100]; the direction is
    the exact sign of the deviation, and the behavior class is the band of
    ``trust_pct`` itself.

    Raises ``DomainError`` for ``f`` outside (0, 1] (the metric divides by
    ``f``) and for negative trust percentages.
    """
    if trust_pct < 0.0:
        raise DomainError(f"trust percentage must be nonnegative, got {trust_pct}")
    if not 0.0 < f <= 1.0:
        raise DomainError(f"initial expectation f must lie in (0, 1], got {f}")
    t_frac = trust_pct / 100.0
    raw = (t_frac - f) / f * 100.0
    clamped = min(100.0, max(-100.0, raw))
    if t_frac > f:
        direction = Direction.ABOVE_EXPECTATION
    elif t_frac < f:
        direction = Direction.BELOW_EXPECTATION
    else:
        direction = Direction.BALANCED
    return TrustAssessment(
        trust_percent=trust_pct,
        behavior_percent=clamped,
        behavior_percent_raw=raw,
        behavior_class=_behavior_class(trust_pct),
        direction=direction,
    )


def quantized_certainty(n: int, n_max: int, buckets: int = 5) -> float:
    """Certainty from a count of certain respondents, quantized into buckets.

    With ``n_max`` respondents split into ``buckets`` equal ranges, ``n``
    respondents yield certainty ``ceil(n / (n_max/buckets)) / buckets``;
    0 respondents yield 0.  ``n_max`` must split into ``buckets`` equal
    integer ranges.
    """
    if buckets < 1:
        raise DomainError(f"bucket count must be at least 1, got {buckets}")
    if n_max < 1:
        raise DomainError(f"respondent maximum must be at least 1, got {n_max}")
    if n_max % buckets != 0:
        raise DomainError(f"respondent maximum {n_max} does not split into {buckets} equal ranges")
    if n < 0:
        raise DomainError(f"respondent count must be nonnegative, got {n}")
    if n > n_max:
        raise DomainError(f"respondent count {n} exceeds the maximum {n_max}")
    if n == 0:
        return 0.0
    step = n_max // buckets
    return math.ceil(n / step) / buckets

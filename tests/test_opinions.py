"""Unit and property tests for the opinion algebra and its metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certaintrust import (
    BehaviorClass,
    Direction,
    DomainError,
    EvidenceRecord,
    NotMode,
    Opinion,
    average_rating,
    behavioral_probability,
    certainty,
    derive_opinion,
    expectation,
    op_and,
    op_not,
    op_or,
    quantized_certainty,
    scaled_rating,
    trust_percent,
)

# Golden leaf/composite triples from the published reference table.
A1 = Opinion(0.714, 0.724, 0.5)
A2 = Opinion(0.459, 0.806, 0.5)
B1 = Opinion(0.604, 0.786, 0.5)
B2 = Opinion(0.867, 0.648, 0.5)
S1 = Opinion(0.829, 0.839, 0.75)
S2 = Opinion(0.892, 0.863, 0.75)

# Dyadic unit floats (multiples of 2^-53): complements are exact, so the
# NOT involution can be asserted with ==, matching how evidence-driven
# values behave in practice.
dyadic_unit = st.integers(0, 2**53).map(lambda k: k / 2**53)
# Priors away from the degenerate corners that the operators reject.
dyadic_prior = st.integers(205, 3891).map(lambda k: k / 4096)


def opinions(f=dyadic_prior):
    return st.builds(Opinion, t=dyadic_unit, c=dyadic_unit, f=f)


class TestAverageRating:
    def test_no_evidence_is_half(self):
        assert average_rating(0, 0) == 0.5

    def test_published_leaf(self):
        assert average_rating(5, 2) == pytest.approx(0.714, abs=1e-3)

    def test_all_positive(self):
        assert average_rating(7, 0) == 1.0

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            average_rating(-1, 2)


class TestCertainty:
    def test_no_evidence(self):
        assert certainty(0, 0, 10, 1.0) == 0.0

    def test_full_evidence(self):
        assert certainty(5, 2, 7, 1.0) == 1.0

    def test_hand_value(self):
        # 8*4 / (2*1*4 + 8*4) = 32/40
        assert certainty(2, 2, 8, 1.0) == 0.8

    def test_rejects_overflow(self):
        with pytest.raises(DomainError):
            certainty(6, 5, 10, 1.0)

    def test_rejects_nonpositive_w(self):
        with pytest.raises(DomainError):
            certainty(1, 1, 10, 0.0)

    @pytest.mark.parametrize("big_n,w", [(10, 1.0), (16, 2.0), (7, 0.5)])
    def test_nondecreasing_in_evidence_volume(self, big_n, w):
        values = [certainty(k, 0, big_n, w) for k in range(big_n + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0 and values[-1] == 1.0


class TestDeriveOpinion:
    def test_vacuous(self):
        op = derive_opinion(EvidenceRecord(r=0, s=0, big_n=10, w=1.0, f=0.5))
        assert op == Opinion(0.5, 0.0, 0.5)

    def test_published_leaf_counts(self):
        op = derive_opinion(EvidenceRecord(r=5, s=2, big_n=7, w=1.0, f=0.5))
        assert op.t == pytest.approx(0.714, abs=1e-3)
        assert op.c == 1.0  # see test_acceptance.test_criterion_10
        assert op.f == 0.5

    def test_half_evidence_double_w(self):
        # 16*8 / (2*2*8 + 16*8) = 128/160 by hand
        op = derive_opinion(EvidenceRecord(r=4, s=4, big_n=16, w=2.0, f=0.5))
        assert op == Opinion(0.5, 0.8, 0.5)

    def test_record_invariants(self):
        with pytest.raises(DomainError):
            EvidenceRecord(r=8, s=3, big_n=10)
        with pytest.raises(DomainError):
            EvidenceRecord(r=1, s=1, big_n=10, f=1.5)


class TestExpectation:
    def test_published_row(self):
        assert expectation(A1) == pytest.approx(0.65, abs=0.01)

    def test_zero_certainty_collapses_to_prior(self):
        assert expectation(Opinion(0.9, 0.0, 0.3)) == 0.3

    def test_full_certainty_collapses_to_rating(self):
        assert expectation(Opinion(0.9, 1.0, 0.3)) == 0.9

    @given(opinions())
    def test_bounded_by_rating_and_prior(self, op):
        e = expectation(op)
        assert min(op.t, op.f) - 1e-12 <= e <= max(op.t, op.f) + 1e-12


class TestOpinionValidation:
    @pytest.mark.parametrize("triple", [(1.2, 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, 7.0)])
    def test_out_of_range_components(self, triple):
        with pytest.raises(DomainError):
            Opinion(*triple)


class TestNot:
    def test_negates_all_components(self):
        assert op_not(Opinion(0.3, 0.6, 0.4)) == Opinion(0.7, 0.4, 0.6)

    def test_preserve_certainty_mode(self):
        assert op_not(Opinion(0.3, 0.6, 0.4), NotMode.PRESERVE_CERTAINTY) == Opinion(0.7, 0.6, 0.6)

    def test_fixed_point(self):
        assert op_not(Opinion(0.5, 0.5, 0.5)) == Opinion(0.5, 0.5, 0.5)

    @given(opinions())
    def test_involution_both_modes(self, op):
        for mode in NotMode:
            assert op_not(op_not(op, mode), mode) == op


class TestAnd:
    def test_full_certainty_is_probabilistic_product(self):
        got = op_and(Opinion(0.6, 1.0, 0.5), Opinion(0.5, 1.0, 0.5))
        assert got.t == pytest.approx(0.30, abs=1e-12)
        assert got.c == pytest.approx(1.0, abs=1e-12)
        assert got.f == 0.25

    def test_published_composite_row(self):
        got = op_and(S1, S2)
        assert got.t == pytest.approx(0.736, abs=0.005)
        assert got.c == pytest.approx(0.853, abs=0.005)
        assert got.f == pytest.approx(0.5625, abs=0.005)

    def test_vacuous_operands_fall_back_to_half_rating(self):
        got = op_and(Opinion(0.5, 0.0, 0.5), Opinion(0.5, 0.0, 0.5))
        assert got == Opinion(0.5, 0.0, 0.25)

    def test_rejects_degenerate_priors(self):
        with pytest.raises(DomainError):
            op_and(Opinion(0.5, 0.5, 1.0), Opinion(0.5, 0.5, 1.0))

    def test_mixed_extreme_priors_are_fine(self):
        op_and(Opinion(0.5, 0.5, 1.0), Opinion(0.5, 0.5, 0.0))


class TestOr:
    def test_published_first_subsystem(self):
        got = op_or(A1, A2)
        assert got.t == pytest.approx(0.829, abs=0.005)
        assert got.c == pytest.approx(0.839, abs=0.005)
        assert got.f == pytest.approx(0.75, abs=0.005)

    def test_full_certainty_is_probabilistic_sum(self):
        got = op_or(Opinion(0.5, 1.0, 0.5), Opinion(0.5, 1.0, 0.5))
        assert got.t == pytest.approx(0.75, abs=1e-12)
        assert got.c == pytest.approx(1.0, abs=1e-12)
        assert got.f == 0.75

    def test_second_subsystem_recomputed(self):
        # Exact operator-table evaluation, frozen from a rational-arithmetic
        # oracle.  The published composite row for these operands reads
        # (0.892, 0.863): it matches the formula only with its rating
        # complements swapped, so the published row is not used as the
        # oracle here (see the case-study notes).
        got = op_or(B1, B2)
        assert got.t == pytest.approx(0.917204, abs=1e-5)
        assert got.c == pytest.approx(0.839335, abs=1e-5)
        assert got.f == 0.75

    def test_rejects_degenerate_priors(self):
        with pytest.raises(DomainError):
            op_or(Opinion(0.5, 0.5, 0.0), Opinion(0.5, 0.5, 0.0))


class TestScaledRatingAndTrust:
    def test_scaled_rating(self):
        assert scaled_rating(A1, 5.0) == pytest.approx(3.57, abs=1e-9)
        assert scaled_rating(Opinion(0.0, 0.5, 0.5), 5.0) == 0.0
        assert scaled_rating(Opinion(1.0, 0.5, 0.5), 5.0) == 5.0

    def test_scale_below_one_rejected(self):
        with pytest.raises(DomainError):
            scaled_rating(A1, 0.9)

    def test_trust_percent_published_chain(self):
        assert trust_percent(A1, 5.0) == pytest.approx(51.69, abs=0.01)

    def test_trust_percent_extremes(self):
        assert trust_percent(Opinion(0.9, 0.0, 0.5)) == 0.0
        assert trust_percent(Opinion(1.0, 1.0, 0.5)) == 100.0

    @given(opinions())
    def test_trust_percent_range(self, op):
        assert 0.0 <= trust_percent(op) <= 100.0


class TestBehavioralProbability:
    def test_published_chain(self):
        got = behavioral_probability(51.69, 0.5)
        assert got.behavior_percent == pytest.approx(3.39, abs=0.01)
        assert got.direction is Direction.ABOVE_EXPECTATION

    def test_balanced(self):
        got = behavioral_probability(50.0, 0.5)
        assert got.behavior_percent == 0.0
        assert got.direction is Direction.BALANCED
        assert got.behavior_class is BehaviorClass.BALANCED

    def test_case2_values(self):
        got = behavioral_probability(75.0, 0.5)
        assert got.behavior_percent == pytest.approx(50.0, abs=1e-9)
        assert got.direction is Direction.ABOVE_EXPECTATION
        assert got.behavior_class is BehaviorClass.HIGHER

    def test_composite_prior(self):
        # subsystem row: T = 69.5531 against its own emergent prior 0.75
        got = behavioral_probability(69.5531, 0.75)
        assert got.behavior_percent == pytest.approx(-7.26, abs=0.01)
        assert got.direction is Direction.BELOW_EXPECTATION

    def test_clamps_but_exposes_raw(self):
        got = behavioral_probability(100.0, 0.25)
        assert got.behavior_percent == 100.0
        assert got.behavior_percent_raw == pytest.approx(300.0, abs=1e-9)
        low = behavioral_probability(0.0, 0.5)
        assert low.behavior_percent == -100.0

    def test_rejects_zero_prior(self):
        with pytest.raises(DomainError):
            behavioral_probability(50.0, 0.0)

    @pytest.mark.parametrize(
        "t_pct,expected",
        [
            (0.0, BehaviorClass.LOWEST),
            (20.0, BehaviorClass.LOWEST),
            (20.5, BehaviorClass.LOWER),
            (40.0, BehaviorClass.LOWER),
            (49.9, BehaviorClass.LOW),
            (50.0, BehaviorClass.BALANCED),
            (50.1, BehaviorClass.HIGH),
            (60.0, BehaviorClass.HIGH),
            (80.0, BehaviorClass.HIGHER),
            (81.0, BehaviorClass.HIGHEST),
            (100.0, BehaviorClass.HIGHEST),
        ],
    )
    def test_band_boundaries(self, t_pct, expected):
        assert behavioral_probability(t_pct, 0.5).behavior_class is expected

    @given(st.floats(0.0, 100.0, allow_nan=False), st.floats(0.01, 1.0, allow_nan=False))
    def test_sign_law(self, t_pct, f):
        got = behavioral_probability(t_pct, f)
        if t_pct / 100.0 > f:
            assert got.direction is Direction.ABOVE_EXPECTATION
        elif t_pct / 100.0 < f:
            assert got.direction is Direction.BELOW_EXPECTATION
        else:
            assert got.direction is Direction.BALANCED
        assert (got.behavior_percent == 0.0) == (got.direction is Direction.BALANCED)


class TestQuantizedCertainty:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 0.0), (1, 0.2), (4, 0.2), (5, 0.4), (8, 0.4), (9, 0.6), (12, 0.6), (13, 0.8), (16, 0.8), (17, 1.0), (20, 1.0)],
    )
    def test_twenty_person_scaling(self, n, expected):
        assert quantized_certainty(n, 20, 5) == expected

    def test_rejects_overflow_and_bad_split(self):
        with pytest.raises(DomainError):
            quantized_certainty(21, 20, 5)
        with pytest.raises(DomainError):
            quantized_certainty(-1, 20, 5)
        with pytest.raises(DomainError):
            quantized_certainty(3, 21, 5)


# --------------------------------------------------------------------------
# algebraic properties

pairs = st.tuples(opinions(), opinions())


@settings(max_examples=300)
@given(pairs)
def test_range_closure(pair):
    a, b = pair
    for op in (op_and(a, b), op_or(a, b), op_not(a)):
        assert 0.0 <= op.t <= 1.0 and 0.0 <= op.c <= 1.0 and 0.0 <= op.f <= 1.0


@settings(max_examples=300)
@given(pairs)
def test_commutativity(pair):
    a, b = pair
    for forward, backward in ((op_and(a, b), op_and(b, a)), (op_or(a, b), op_or(b, a))):
        assert forward.t == pytest.approx(backward.t, abs=1e-12)
        assert forward.c == pytest.approx(backward.c, abs=1e-12)
        assert forward.f == pytest.approx(backward.f, abs=1e-12)


@settings(max_examples=300)
@given(pairs)
def test_prior_composition_exact(pair):
    a, b = pair
    assert op_and(a, b).f == a.f * b.f
    assert op_or(a, b).f == a.f + b.f - a.f * b.f


@settings(max_examples=300)
@given(st.tuples(opinions(), opinions()))
def test_probabilistic_compliance_at_full_certainty(pair):
    a, b = pair
    a = Opinion(a.t, 1.0, a.f)
    b = Opinion(b.t, 1.0, b.f)
    ea, eb = expectation(a), expectation(b)
    assert expectation(op_and(a, b)) == pytest.approx(ea * eb, abs=1e-9)
    assert expectation(op_or(a, b)) == pytest.approx(ea + eb - ea * eb, abs=1e-9)


def test_behavior_band_magnitude_sweep():
    """At f = 0.5, |P| stays within each published band's span (+-1 point)."""
    bands = [(1.0, 20.0, 60.0, 98.0), (21.0, 40.0, 20.0, 58.0), (41.0, 49.0, 2.0, 18.0),
             (51.0, 60.0, 2.0, 20.0), (61.0, 80.0, 22.0, 60.0), (81.0, 100.0, 62.0, 100.0)]
    for lo, hi, span_lo, span_hi in bands:
        for i in range(1000):
            t_pct = lo + (hi - lo) * i / 999
            p = abs(behavioral_probability(t_pct, 0.5).behavior_percent)
            assert span_lo - 1.0 <= p <= span_hi + 1.0
    assert behavioral_probability(50.0, 0.5).behavior_percent == 0.0

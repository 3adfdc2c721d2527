"""Tests for membership functions, the rule base, Mamdani inference and FAM."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certaintrust import (
    ConfigError,
    DomainError,
    FamClass,
    FamTable,
    FuzzyLabel,
    FuzzySet,
    LinguisticVariable,
    MamdaniEngine,
    Rule,
    RuleBase,
    aggregate,
    build_default_rulebase,
    build_default_variables,
    classify_trust,
    defuzzify_centroid,
    fam_people20,
    fam_people100,
    fuzzify,
    gaussian_mf,
    implicate,
    infer_trust,
    rule_strength,
)

HALF_HEIGHT = math.sqrt(2.0 * math.log(2.0))
CERTAINTY, RATING, TRUST = build_default_variables()


class TestGaussianMembership:
    def test_center_is_one(self):
        fset = FuzzySet(FuzzyLabel.AVERAGE, center=0.5, sigma=0.17)
        assert gaussian_mf(0.5, fset) == 1.0

    def test_half_height_points(self):
        # analytic half-height offset: sigma * sqrt(2 ln 2)
        fset = FuzzySet(FuzzyLabel.AVERAGE, center=0.5, sigma=0.17)
        offset = fset.sigma * HALF_HEIGHT
        assert gaussian_mf(0.5 + offset, fset) == pytest.approx(0.5, abs=1e-9)
        assert gaussian_mf(0.5 - offset, fset) == pytest.approx(0.5, abs=1e-9)

    @given(st.floats(-3.0, 3.0, allow_nan=False))
    def test_symmetry(self, d):
        # mirrored arguments differ by one rounding step, hence the tolerance
        fset = FuzzySet(FuzzyLabel.LOW, center=1.0, sigma=0.4)
        assert gaussian_mf(1.0 + d, fset) == pytest.approx(gaussian_mf(1.0 - d, fset), abs=1e-12)

    @given(st.floats(0.0, 100.0, allow_nan=False))
    def test_strictly_positive_at_most_one(self, x):
        for fset in TRUST.sets:
            mu = gaussian_mf(x, fset)
            assert 0.0 < mu <= 1.0

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigError):
            FuzzySet(FuzzyLabel.LOW, center=1.0, sigma=0.0)


class TestDefaultVariables:
    def test_domains(self):
        assert (CERTAINTY.domain_lo, CERTAINTY.domain_hi) == (0.0, 1.0)
        assert (RATING.domain_lo, RATING.domain_hi) == (1.0, 5.0)
        assert (TRUST.domain_lo, TRUST.domain_hi) == (0.0, 100.0)

    def test_centers_are_range_midpoints(self):
        assert CERTAINTY.set_for(FuzzyLabel.AVERAGE).center == 0.5
        assert RATING.set_for(FuzzyLabel.VERY_LOW).center == 1.5
        assert TRUST.set_for(FuzzyLabel.VERY_HIGH).center == 90.0

    def test_boundary_membership_is_half(self):
        avg = CERTAINTY.set_for(FuzzyLabel.AVERAGE)  # published range 0.3-0.7
        assert gaussian_mf(0.3, avg) == pytest.approx(0.5, abs=1e-9)
        assert gaussian_mf(0.7, avg) == pytest.approx(0.5, abs=1e-9)

    def test_centers_strictly_increasing(self):
        for var in (CERTAINTY, RATING, TRUST):
            centers = [s.center for s in var.sets]
            assert all(b > a for a, b in zip(centers, centers[1:]))

    def test_overrides_apply(self):
        _, _, trust = build_default_variables({"trust": {"average": {"center": 52.0, "sigma": 18.0}}})
        fset = trust.set_for(FuzzyLabel.AVERAGE)
        assert (fset.center, fset.sigma) == (52.0, 18.0)

    def test_overrides_validate(self):
        with pytest.raises(ConfigError):
            build_default_variables({"speed": {}})
        with pytest.raises(ConfigError):
            build_default_variables({"trust": {"middling": {"center": 1.0}}})
        with pytest.raises(ConfigError):
            build_default_variables({"trust": {"average": {"centre": 1.0}}})


class TestFuzzify:
    def test_center_membership(self):
        assert fuzzify(CERTAINTY, 0.5)[FuzzyLabel.AVERAGE] == 1.0

    def test_very_low_dominates_at_zero(self):
        memberships = fuzzify(CERTAINTY, 0.0)
        top = max(memberships, key=memberships.get)
        assert top is FuzzyLabel.VERY_LOW
        assert all(memberships[FuzzyLabel.VERY_LOW] > v for k, v in memberships.items() if k is not FuzzyLabel.VERY_LOW)

    def test_out_of_domain_clamps(self):
        assert fuzzify(RATING, 0.5) == fuzzify(RATING, 1.0)
        assert fuzzify(RATING, 9.0) == fuzzify(RATING, 5.0)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_membership_range(self, x):
        assert all(0.0 < v <= 1.0 for v in fuzzify(CERTAINTY, x).values())

    @given(st.floats(-1.0, 7.0, allow_nan=False))
    def test_vectorised_memberships_equal_reference(self, x):
        for var in (CERTAINTY, RATING):
            assert var.memberships(x).tolist() == list(fuzzify(var, x).values())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            fuzzify(RATING, value)


class TestRuleBase:
    def test_exactly_25_rules(self):
        assert len(build_default_rulebase()) == 25

    def test_total_over_label_pairs(self):
        rules = build_default_rulebase()
        pairs = {(r.certainty_label, r.rating_label) for r in rules}
        assert len(pairs) == 25

    def test_known_rules(self):
        rules = build_default_rulebase().rules
        # R14: high certainty and average rating give average trust
        assert rules[13].certainty_label is FuzzyLabel.HIGH
        assert rules[13].rating_label is FuzzyLabel.AVERAGE
        assert rules[13].trust_label is FuzzyLabel.AVERAGE
        # R25: very high certainty and very high rating give very high trust
        assert rules[24].certainty_label is FuzzyLabel.VERY_HIGH
        assert rules[24].rating_label is FuzzyLabel.VERY_HIGH
        assert rules[24].trust_label is FuzzyLabel.VERY_HIGH
        # R1: everything very low
        assert rules[0].trust_label is FuzzyLabel.VERY_LOW

    def test_rule_names(self):
        rules = build_default_rulebase()
        assert rules.name_of(0) == "R1"
        assert rules.name_of(24) == "R25"

    def test_strength_is_min(self):
        rule = build_default_rulebase().rules[13]
        mc = {label: 0.0 for label in FuzzyLabel}
        mt = {label: 0.0 for label in FuzzyLabel}
        mc[rule.certainty_label], mt[rule.rating_label] = 0.8, 0.6
        assert rule_strength(rule, mc, mt) == 0.6
        mt[rule.rating_label] = 0.0
        assert rule_strength(rule, mc, mt) == 0.0
        mc[rule.certainty_label], mt[rule.rating_label] = 1.0, 1.0
        assert rule_strength(rule, mc, mt) == 1.0


class TestImplicationAggregation:
    samples = np.linspace(0.0, 100.0, 1001)

    def test_weight_one_is_identity(self):
        fset = TRUST.set_for(FuzzyLabel.AVERAGE)
        np.testing.assert_array_equal(implicate(fset, 1.0, self.samples), gaussian_mf(self.samples, fset))

    def test_weight_zero_is_flat(self):
        fset = TRUST.set_for(FuzzyLabel.AVERAGE)
        assert not implicate(fset, 0.0, self.samples).any()

    def test_truncation_caps_curve(self):
        fset = TRUST.set_for(FuzzyLabel.AVERAGE)
        curve = gaussian_mf(self.samples, fset)
        truncated = implicate(fset, 0.5, self.samples)
        assert truncated.max() == 0.5
        below = curve < 0.5
        np.testing.assert_array_equal(truncated[below], curve[below])

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(DomainError):
            implicate(TRUST.sets[0], 1.2, self.samples)

    def test_aggregate_single_identity(self):
        curve = implicate(TRUST.sets[0], 0.7, self.samples)
        np.testing.assert_array_equal(aggregate([curve]), curve)

    def test_aggregate_dominates_inputs(self):
        a = implicate(TRUST.set_for(FuzzyLabel.LOW), 0.7, self.samples)
        b = implicate(TRUST.set_for(FuzzyLabel.HIGH), 0.4, self.samples)
        agg = aggregate([a, b])
        assert (agg >= a).all() and (agg >= b).all()

    def test_aggregate_preserves_disjoint_peaks(self):
        a = implicate(TRUST.set_for(FuzzyLabel.VERY_LOW), 0.7, self.samples)
        b = implicate(TRUST.set_for(FuzzyLabel.VERY_HIGH), 0.4, self.samples)
        agg = aggregate([a, b])
        assert agg[100] == pytest.approx(0.7)  # y = 10
        assert agg[900] == pytest.approx(0.4)  # y = 90

    def test_aggregate_rejects_empty(self):
        with pytest.raises(DomainError):
            aggregate([])


class TestCentroid:
    def test_symmetric_mass_centers(self):
        samples = np.linspace(0.0, 100.0, 1001)
        memberships = np.exp(-0.5 * ((samples - 50.0) / 10.0) ** 2)
        assert defuzzify_centroid(samples, memberships) == pytest.approx(50.0, abs=0.1)

    def test_single_point_mass(self):
        samples = np.array([10.0, 30.0, 80.0])
        assert defuzzify_centroid(samples, np.array([0.0, 1.0, 0.0])) == 30.0

    def test_published_quotient(self):
        # weighted sums chosen to hit the published worked division 1783.81/32.851
        samples = np.array([50.0, 60.0])
        memberships = np.array([18.725, 14.126])
        assert float(np.dot(samples, memberships)) == pytest.approx(1783.81, abs=1e-9)
        assert float(memberships.sum()) == pytest.approx(32.851, abs=1e-9)
        assert defuzzify_centroid(samples, memberships) == pytest.approx(54.3, abs=0.01)

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            defuzzify_centroid(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_within_support_hull(self):
        samples = np.linspace(0.0, 100.0, 101)
        memberships = np.where((samples >= 20) & (samples <= 40), 0.5, 0.0)
        crisp = defuzzify_centroid(samples, memberships)
        assert 20.0 <= crisp <= 40.0


class TestInference:
    def test_worked_example_is_average(self):
        crisp = infer_trust(0.7, 3.0)
        assert 30.0 <= crisp <= 70.0
        assert classify_trust(crisp) is FuzzyLabel.AVERAGE

    def test_strong_inputs(self):
        crisp = infer_trust(1.0, 5.0)
        assert 70.0 <= crisp <= 80.0  # frozen oracle: 73.38 with the 0.1 step
        assert classify_trust(crisp) in (FuzzyLabel.HIGH, FuzzyLabel.VERY_HIGH)

    def test_weak_inputs(self):
        crisp = infer_trust(0.05, 1.2)
        assert crisp <= 25.0
        assert classify_trust(crisp) in (FuzzyLabel.VERY_LOW, FuzzyLabel.LOW)

    def test_zero_certainty(self):
        crisp = infer_trust(0.0, 3.0)
        assert crisp <= 25.0
        assert classify_trust(crisp) in (FuzzyLabel.VERY_LOW, FuzzyLabel.LOW)

    def test_deterministic(self):
        engine = MamdaniEngine(step=0.1)
        assert engine.infer(0.63, 3.7) == engine.infer(0.63, 3.7)
        assert infer_trust(0.63, 3.7) == MamdaniEngine(step=0.1).infer(0.63, 3.7)

    def test_parallel_evaluation_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        engine = MamdaniEngine(step=0.1)
        grid = [(c / 10, 1.0 + t / 2) for c in range(11) for t in range(9)]
        serial = [engine.infer(c, t) for c, t in grid]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda ct: engine.infer(*ct), grid))
        assert parallel == serial

    @given(st.floats(0.0, 1.0, allow_nan=False), st.floats(1.0, 5.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_output_inside_trust_domain(self, c, t):
        assert 0.0 <= infer_trust(c, t) <= 100.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_are_rejected(self, value):
        engine = MamdaniEngine()
        for c, t in ((value, 3.0), (0.5, value)):
            with pytest.raises(DomainError, match="finite"):
                engine.infer(c, t)
            with pytest.raises(DomainError, match="finite"):
                engine.activations(c, t)

    def test_finite_out_of_domain_inputs_still_clamp(self):
        assert infer_trust(7.0, 30.0) == infer_trust(1.0, 5.0)
        assert infer_trust(-1.0, 0.0) == infer_trust(0.0, 1.0)

    def test_precomputed_arrays_are_read_only(self):
        engine = MamdaniEngine()
        for array in (engine.samples, engine._curves, engine.certainty_var._centers):
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_step_must_be_sane(self):
        with pytest.raises(ConfigError):
            MamdaniEngine(step=0.0)
        with pytest.raises(ConfigError):
            MamdaniEngine(step=1.5)

    def test_activation_trace(self):
        engine = MamdaniEngine()
        activations = {a.name: a for a in engine.activations(0.7, 3.0)}
        assert len(activations) == 25
        # R14 (high certainty, average rating) carries the largest weight here
        top = max(activations.values(), key=lambda a: a.weight)
        assert top.name == "R14"
        assert top.weight == pytest.approx(0.9259, abs=1e-3)

    def test_lattice_monotonicity_violation_set_is_stable(self):
        """The default construction is NOT monotone on the published lattice.

        The extreme sets peak inside their domains (certainty very_high is
        centered at 0.9, rating very_low at 1.5), so activation mass falls
        off toward the domain edges and the centroid can move backwards.
        This regression pins the exact adjacent-pair violations so any
        change in behavior is caught; acceptance test 8 asserts the
        aspirational lattice monotonicity itself and documents its failure.
        """
        cs = [round(0.1 * i, 1) for i in range(1, 11)]
        ts = [1.0 + 0.5 * i for i in range(9)]
        values = {(c, t): infer_trust(c, t) for c in cs for t in ts}
        violations = set()
        for ci, c in enumerate(cs):
            for ti, t in enumerate(ts):
                if ci + 1 < len(cs) and values[(cs[ci + 1], t)] < values[(c, t)] - 1e-9:
                    violations.add(("c", c, t))
                if ti + 1 < len(ts) and values[(c, ts[ti + 1])] < values[(c, t)] - 1e-9:
                    violations.add(("t", c, t))
        assert violations == {
            ("t", 0.1, 1.0), ("t", 0.1, 2.5), ("c", 0.4, 1.5), ("c", 0.4, 2.0),
            ("t", 0.4, 4.5), ("t", 0.5, 1.0), ("c", 0.6, 1.5), ("t", 0.7, 4.5),
            ("c", 0.8, 1.5), ("t", 0.8, 4.5), ("c", 0.9, 2.0), ("c", 0.9, 2.5),
            ("c", 0.9, 3.0), ("t", 0.9, 3.0), ("c", 0.9, 4.5),
        }


def reference_infer(engine: MamdaniEngine, c: float, t: float) -> float:
    """The stage-by-stage chain on the engine's own variables, rules and grid."""
    mc, mt = fuzzify(engine.certainty_var, c), fuzzify(engine.rating_var, t)
    truncated = [
        implicate(engine.trust_var.set_for(rule.trust_label), rule_strength(rule, mc, mt), engine.samples)
        for rule in engine.rules
    ]
    return defuzzify_centroid(engine.samples, aggregate(truncated))


def _custom_rulebase(consequent) -> RuleBase:
    return RuleBase(Rule(c, t, consequent(c.rank, t.rank)) for c in FuzzyLabel for t in FuzzyLabel)


LABELS = list(FuzzyLabel)
OVERRIDES = {
    "certainty": {"high": {"sigma": 0.05}},
    "rating": {"low": {"center": 2.0}},
    "trust": {"average": {"center": 52.0, "sigma": 18.0}, "very_high": {"sigma": 4.0}},
}
ENGINES = {
    "default-0.1": MamdaniEngine(step=0.1),
    "default-0.01": MamdaniEngine(step=0.01),
    "overrides": MamdaniEngine(variables=build_default_variables(OVERRIDES), step=0.1),
    # every class used, paired differently from the default
    "rules-midpoint": MamdaniEngine(rules=_custom_rulebase(lambda c, t: LABELS[(c + t) // 2]), step=0.01),
    # two consequents only, so the engine keeps two curves, not five
    "rules-two-class": MamdaniEngine(
        rules=_custom_rulebase(lambda c, t: FuzzyLabel.VERY_HIGH if c + t >= 5 else FuzzyLabel.VERY_LOW)
    ),
}
PEOPLE100_POINTS = [(c, t) for c in fam_people100().c_grid for t in fam_people100().t_grid]


class TestEngineMatchesReference:
    """The precompiled engine equals the reference chain exactly, not approximately."""

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_people100_grid(self, name):
        engine = ENGINES[name]
        for c, t in PEOPLE100_POINTS:
            assert engine.infer(c, t) == reference_infer(engine, c, t), (c, t)

    @given(
        st.sampled_from(sorted(ENGINES)),
        st.floats(-0.25, 1.25, allow_nan=False),
        st.floats(0.5, 5.5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_points(self, name, c, t):
        engine = ENGINES[name]
        assert engine.infer(c, t) == reference_infer(engine, c, t)

    def test_configuration_is_read_from_the_engine(self):
        # guards against a precompute that silently falls back to the defaults
        default = ENGINES["default-0.1"]
        for name in ("overrides", "rules-two-class"):
            assert any(ENGINES[name].infer(c, t) != default.infer(c, t) for c, t in PEOPLE100_POINTS), name


class TestClassifyTrust:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (90.0, FuzzyLabel.VERY_HIGH),
            (50.0, FuzzyLabel.AVERAGE),
            (51.69, FuzzyLabel.AVERAGE),
            (5.0, FuzzyLabel.VERY_LOW),
            (25.0, FuzzyLabel.LOW),
            (75.0, FuzzyLabel.HIGH),
        ],
    )
    def test_published_anchors(self, value, expected):
        assert classify_trust(value) is expected

    def test_ties_resolve_to_higher_class(self):
        lo = FuzzySet(FuzzyLabel.LOW, center=40.0, sigma=10.0)
        hi = FuzzySet(FuzzyLabel.HIGH, center=60.0, sigma=10.0)
        var = LinguisticVariable("trust", 0.0, 100.0, (lo, hi))
        assert classify_trust(50.0, var) is FuzzyLabel.HIGH  # exact membership tie

    def test_out_of_domain_clamped(self):
        assert classify_trust(150.0) is FuzzyLabel.VERY_HIGH
        assert classify_trust(-3.0) is FuzzyLabel.VERY_LOW

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            classify_trust(value)


EXPECTED_PEOPLE20 = [
    "N  N  N  N  N",
    "VL VL VL VL VL",
    "VL VL L  L  L",
    "VL L  L  M  M",
    "VL L  M  H  H",
    "VL L  M  H  VH",
]

EXPECTED_PEOPLE100 = [
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


class TestFamTables:
    def test_people20_cells(self):
        table = fam_people20()
        got = [" ".join(cell.value for cell in row) for row in table.cells]
        assert got == [" ".join(r.split()) for r in EXPECTED_PEOPLE20]

    def test_people100_cells(self):
        table = fam_people100()
        got = [" ".join(cell.value for cell in row) for row in table.cells]
        assert got == [" ".join(r.split()) for r in EXPECTED_PEOPLE100]

    def test_lookup_anchors(self):
        assert fam_people20().lookup(1.0, 5.0) is FamClass.VH
        assert fam_people20().lookup(0.0, 3.0) is FamClass.N
        assert fam_people100().lookup(0.5, 2.5) is FamClass.L
        assert fam_people100().lookup(0.9, 4.5) is FamClass.VH

    def test_rounding_ties_go_low(self):
        # 0.1 sits exactly between the 0.0 and 0.2 rows; 1.5 between columns 1 and 2
        assert fam_people20().lookup(0.1, 3.0) is FamClass.N
        assert fam_people20().lookup(1.0, 1.5) is FamClass.VL

    def test_half_step_bounds(self):
        table = fam_people20()
        assert table.lookup(1.09, 5.4) is FamClass.VH
        with pytest.raises(DomainError):
            table.lookup(1.11, 5.0)
        with pytest.raises(DomainError):
            table.lookup(0.5, 5.6)
        with pytest.raises(DomainError):
            table.lookup(-0.2, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_lookup_is_rejected(self, value):
        for table in (fam_people20(), fam_people100()):
            with pytest.raises(DomainError, match="finite"):
                table.lookup(value, 3.0)
            with pytest.raises(DomainError, match="finite"):
                table.lookup(0.5, value)

    def test_invariant_validation(self):
        with pytest.raises(ConfigError):
            FamTable(
                name="bad",
                c_grid=(0.0, 1.0),
                t_grid=(1.0, 2.0),
                cells=((FamClass.N, FamClass.VL), (FamClass.VL, FamClass.VL)),
            )
        with pytest.raises(ConfigError):  # non-monotone along certainty
            FamTable(
                name="bad",
                c_grid=(0.0, 0.5, 1.0),
                t_grid=(1.0, 2.0),
                cells=(
                    (FamClass.N, FamClass.N),
                    (FamClass.H, FamClass.H),
                    (FamClass.L, FamClass.VH),
                ),
            )

    @pytest.mark.xfail(
        strict=True,
        reason="the coarse FAM grids and the Gaussian Mamdani pipeline disagree by "
        "two class steps on 8 low-rating cells; see the pinned outlier test below",
    )
    def test_fam_pipeline_agreement_within_one_step(self):
        for table in (fam_people20(), fam_people100()):
            for ci, c in enumerate(table.c_grid):
                if c == 0.0:
                    continue
                for tj, t in enumerate(table.t_grid):
                    pipeline = FamClass.from_label(classify_trust(infer_trust(c, t)))
                    assert abs(table.cells[ci][tj].rank - pipeline.rank) <= 1, (c, t)

    def test_fam_pipeline_outliers_are_pinned(self):
        """Where the grids and the pipeline disagree by more than one step.

        All outliers sit in the low-rating region where the grids say VL but
        the centroid lands in the average band; the disagreement never
        exceeds two steps.
        """
        outliers = set()
        for table in (fam_people20(), fam_people100()):
            for ci, c in enumerate(table.c_grid):
                if c == 0.0:
                    continue
                for tj, t in enumerate(table.t_grid):
                    pipeline = FamClass.from_label(classify_trust(infer_trust(c, t)))
                    gap = abs(table.cells[ci][tj].rank - pipeline.rank)
                    assert gap <= 2, (table.name, c, t)
                    if gap > 1:
                        outliers.add((table.name, c, t))
        assert outliers == {
            ("people20", 0.4, 2.0),
            ("people100", 0.3, 2.0), ("people100", 0.3, 2.5), ("people100", 0.3, 3.0),
            ("people100", 0.4, 2.0), ("people100", 0.4, 2.5), ("people100", 0.5, 2.0),
            ("people100", 0.6, 1.5),
        }

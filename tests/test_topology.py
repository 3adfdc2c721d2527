"""Tests for the formula DSL, the evaluator and scenario assessment."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certaintrust.topology as topology
from certaintrust import (
    And,
    EvaluationError,
    EvidenceRecord,
    FormulaSyntaxError,
    FuzzyLabel,
    Leaf,
    Not,
    NotMode,
    Opinion,
    Or,
    ScenarioError,
    UnbalancedParenthesesError,
    UnboundComponentError,
    assess_system,
    behavioral_probability,
    classify_trust,
    evaluate_formula,
    expectation,
    free_variables,
    load_scenario,
    op_and,
    op_not,
    op_or,
    parse_formula,
    scenario_from_dict,
    trust_percent,
    unparse,
)

EQ4 = "(A1 | A2) & (B1 | B2)"

LEAVES = {
    "A1": Opinion(0.714, 0.724, 0.5),
    "A2": Opinion(0.459, 0.806, 0.5),
    "B1": Opinion(0.604, 0.786, 0.5),
    "B2": Opinion(0.867, 0.648, 0.5),
}


class TestParser:
    def test_redundant_system_formula(self):
        assert parse_formula(EQ4) == And(
            Or(Leaf("A1"), Leaf("A2")), Or(Leaf("B1"), Leaf("B2"))
        )

    def test_single_identifier(self):
        assert parse_formula("A") == Leaf("A")

    def test_precedence(self):
        assert parse_formula("!A & B | C") == Or(And(Not(Leaf("A")), Leaf("B")), Leaf("C"))

    def test_left_associativity(self):
        assert parse_formula("A & B & C") == And(And(Leaf("A"), Leaf("B")), Leaf("C"))
        assert parse_formula("A | B | C") == Or(Or(Leaf("A"), Leaf("B")), Leaf("C"))

    def test_keyword_operators_case_insensitive(self):
        # AND binds tighter than OR regardless of keyword casing
        expected = Or(And(Leaf("a"), Leaf("b")), Not(Leaf("c")))
        assert parse_formula("a AND b Or NOT c") == expected
        assert parse_formula("a and b or not c") == expected
        assert parse_formula("a & b | ! c") == expected

    def test_keyword_prefixed_identifiers(self):
        assert parse_formula("ANDy & Nota") == And(Leaf("ANDy"), Leaf("Nota"))

    def test_identifier_charset(self):
        assert parse_formula("srv_1 & db2") == And(Leaf("srv_1"), Leaf("db2"))

    def test_double_negation(self):
        assert parse_formula("!!A") == Not(Not(Leaf("A")))

    def test_whitespace_insignificant(self):
        assert parse_formula(" (A1|A2)&(B1|B2) ") == parse_formula(EQ4)

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ")

    def test_missing_operand_reports_offset_and_expected(self):
        with pytest.raises(FormulaSyntaxError) as exc_info:
            parse_formula("A & ")
        err = exc_info.value
        assert err.offset == 4
        assert "identifier" in err.expected

    def test_leading_operator(self):
        with pytest.raises(FormulaSyntaxError) as exc_info:
            parse_formula("& A")
        assert exc_info.value.offset == 0

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as exc_info:
            parse_formula("A $ B")
        assert exc_info.value.offset == 2

    def test_unclosed_paren_is_distinct(self):
        with pytest.raises(UnbalancedParenthesesError) as exc_info:
            parse_formula("(A | B")
        assert "unclosed" in str(exc_info.value)

    def test_stray_close_paren_is_distinct(self):
        with pytest.raises(UnbalancedParenthesesError):
            parse_formula("A | B)")
        with pytest.raises(UnbalancedParenthesesError):
            parse_formula(")A")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError) as exc_info:
            parse_formula("A B")
        assert exc_info.value.offset == 2

    def test_free_variables(self):
        assert free_variables(parse_formula(EQ4)) == {"A1", "A2", "B1", "B2"}
        assert free_variables(parse_formula("!x & x | y")) == {"x", "y"}


def random_formula(rng: random.Random, depth: int):
    names = ("A", "B1", "c_2", "Delta", "nOde", "ANDy")
    if depth <= 0 or rng.random() < 0.3:
        return Leaf(rng.choice(names))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    left = random_formula(rng, depth - 1)
    right = random_formula(rng, depth - 1)
    return And(left, right) if kind == 1 else Or(left, right)


formula_nodes = st.recursive(
    st.sampled_from(["A", "B1", "c_2", "Delta"]).map(Leaf),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda lr: And(*lr)),
        st.tuples(children, children).map(lambda lr: Or(*lr)),
    ),
    max_leaves=24,
)


class TestUnparse:
    def test_minimal_parentheses(self):
        assert unparse(parse_formula(EQ4)) == EQ4
        assert unparse(parse_formula("A & B & C")) == "A & B & C"
        assert unparse(And(Leaf("A"), And(Leaf("B"), Leaf("C")))) == "A & (B & C)"
        assert unparse(Not(And(Leaf("A"), Leaf("B")))) == "!(A & B)"
        assert unparse(Not(Not(Leaf("A")))) == "!!A"

    def test_parse_unparse_parse_fixed_point(self):
        for text in (EQ4, "!A & B | C", "a and (b or not c)", "!!x"):
            ast = parse_formula(text)
            rendered = unparse(ast)
            assert parse_formula(rendered) == ast
            assert unparse(parse_formula(rendered)) == rendered

    @given(formula_nodes)
    @settings(max_examples=300)
    def test_round_trip_property(self, ast):
        assert parse_formula(unparse(ast)) == ast

    def test_round_trip_seeded_sample(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            ast = random_formula(rng, 6)
            assert parse_formula(unparse(ast)) == ast


class TestEvaluate:
    def test_leaf_identity(self):
        assert evaluate_formula(Leaf("A1"), LEAVES) == LEAVES["A1"]

    def test_matches_manual_fold(self):
        got = evaluate_formula(parse_formula(EQ4), LEAVES)
        manual = op_and(op_or(LEAVES["A1"], LEAVES["A2"]), op_or(LEAVES["B1"], LEAVES["B2"]))
        assert got == manual

    def test_full_chain_frozen_values(self):
        # rational-arithmetic oracle for the whole fold over the four leaves
        got = evaluate_formula(parse_formula(EQ4), LEAVES)
        assert got.t == pytest.approx(0.757896, abs=1e-5)
        assert got.c == pytest.approx(0.839707, abs=1e-5)
        assert got.f == pytest.approx(0.5625, abs=1e-12)
        assert expectation(got) == pytest.approx(0.726575, abs=1e-5)

    def test_first_subsystem_matches_published_row(self):
        got = evaluate_formula(parse_formula("A1 | A2"), LEAVES)
        assert got.t == pytest.approx(0.829, abs=0.005)
        assert got.c == pytest.approx(0.839, abs=0.005)
        assert got.f == pytest.approx(0.75, abs=0.005)

    def test_probabilistic_fold_at_full_certainty(self):
        leaves = {"a": Opinion(0.6, 1.0, 0.5), "b": Opinion(0.5, 1.0, 0.5)}
        got = evaluate_formula(parse_formula("a & b"), leaves)
        assert got.t == pytest.approx(0.30, abs=1e-12)
        assert got.c == pytest.approx(1.0, abs=1e-12)

    def test_not_mode_is_threaded(self):
        leaves = {"A": Opinion(0.3, 0.6, 0.4)}
        assert evaluate_formula(parse_formula("!A"), leaves) == Opinion(0.7, 0.4, 0.6)
        assert evaluate_formula(parse_formula("!A"), leaves, NotMode.PRESERVE_CERTAINTY) == Opinion(0.7, 0.6, 0.6)

    def test_unbound_component_is_named(self):
        with pytest.raises(UnboundComponentError) as exc_info:
            evaluate_formula(parse_formula("A1 & missing"), LEAVES)
        assert "missing" in str(exc_info.value)

    def test_domain_error_carries_path_and_expression(self):
        leaves = {"A": Opinion(0.5, 0.5, 1.0), "B": Opinion(0.5, 0.5, 1.0), "C": Opinion(0.5, 0.5, 0.5)}
        with pytest.raises(EvaluationError) as exc_info:
            evaluate_formula(parse_formula("(A & B) | C"), leaves)
        err = exc_info.value
        assert err.path == "root.left"
        assert err.expression == "A & B"

    def test_exactly_three_operator_applications_for_eq4(self, monkeypatch):
        calls = {"and": 0, "or": 0, "not": 0}
        real_and, real_or, real_not = topology.op_and, topology.op_or, topology.op_not

        monkeypatch.setattr(topology, "op_and", lambda a, b: calls.__setitem__("and", calls["and"] + 1) or real_and(a, b))
        monkeypatch.setattr(topology, "op_or", lambda a, b: calls.__setitem__("or", calls["or"] + 1) or real_or(a, b))
        monkeypatch.setattr(topology, "op_not", lambda a, mode: calls.__setitem__("not", calls["not"] + 1) or real_not(a, mode))
        evaluate_formula(parse_formula(EQ4), LEAVES)
        assert calls == {"and": 1, "or": 2, "not": 0}

    @given(st.tuples(
        st.builds(Opinion,
                  t=st.floats(0.0, 1.0, allow_nan=False),
                  c=st.floats(0.0, 1.0, allow_nan=False),
                  f=st.floats(0.05, 0.95, allow_nan=False)),
        st.builds(Opinion,
                  t=st.floats(0.0, 1.0, allow_nan=False),
                  c=st.floats(0.0, 1.0, allow_nan=False),
                  f=st.floats(0.05, 0.95, allow_nan=False)),
    ))
    @settings(max_examples=200)
    def test_operand_swap_invariance(self, pair):
        a, b = pair
        leaves = {"x": a, "y": b}
        for text, swapped in (("x & y", "y & x"), ("x | y", "y | x")):
            lhs = evaluate_formula(parse_formula(text), leaves)
            rhs = evaluate_formula(parse_formula(swapped), leaves)
            assert lhs.t == pytest.approx(rhs.t, abs=1e-12)
            assert lhs.c == pytest.approx(rhs.c, abs=1e-12)
            assert lhs.f == pytest.approx(rhs.f, abs=1e-12)


class TestScenario:
    def scenario_doc(self):
        return {
            "formula": "(A | B) & C",
            "defaults": {"N": 10, "w": 1.0, "f": 0.5},
            "components": {
                "A": {"r": 5, "s": 2, "N": 7},
                "B": {"t": 0.459, "c": 0.806},
                "C": {"r": 3, "s": 1},
            },
        }

    def test_mixed_forms_and_defaults(self):
        scenario = scenario_from_dict(self.scenario_doc())
        a = scenario.components["A"]
        assert isinstance(a, EvidenceRecord) and a.big_n == 7 and a.w == 1.0
        c = scenario.components["C"]
        assert isinstance(c, EvidenceRecord) and c.big_n == 10
        b = scenario.components["B"]
        assert isinstance(b, Opinion) and b.f == 0.5

    def test_rejects_mixed_component(self):
        doc = self.scenario_doc()
        doc["components"]["A"] = {"r": 5, "s": 2, "t": 0.5, "c": 0.5}
        with pytest.raises(ScenarioError, match="mutually exclusive"):
            scenario_from_dict(doc)

    def test_rejects_unknown_fields(self):
        doc = self.scenario_doc()
        doc["components"]["B"] = {"t": 0.5, "c": 0.5, "confidence": 1}
        with pytest.raises(ScenarioError, match="components.B"):
            scenario_from_dict(doc)

    def test_rejects_missing_n(self):
        doc = self.scenario_doc()
        del doc["defaults"]["N"]
        del doc["components"]["A"]["N"]
        with pytest.raises(ScenarioError, match="no N given"):
            scenario_from_dict(doc)

    def test_rejects_missing_half_of_pair(self):
        doc = self.scenario_doc()
        doc["components"]["B"] = {"t": 0.5}
        with pytest.raises(ScenarioError, match="both t and c"):
            scenario_from_dict(doc)

    def test_rejects_unbound_formula_variable(self):
        doc = self.scenario_doc()
        doc["formula"] = "(A | B) & C & D"
        with pytest.raises(ScenarioError, match="D"):
            scenario_from_dict(doc)

    def test_rejects_empty_components(self):
        doc = self.scenario_doc()
        doc["components"] = {}
        with pytest.raises(ScenarioError, match="components"):
            scenario_from_dict(doc)

    def test_rejects_unknown_top_level_key(self):
        doc = self.scenario_doc()
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="extra"):
            scenario_from_dict(doc)

    def test_evidence_errors_carry_component_path(self):
        doc = self.scenario_doc()
        doc["components"]["A"] = {"r": 9, "s": 2, "N": 7}
        with pytest.raises(ScenarioError, match="components.A"):
            scenario_from_dict(doc)

    def test_load_scenario_rejects_duplicate_keys(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"formula": "A", "components": {"A": {"t": 0.5, "c": 0.5}, "A": {"t": 0.1, "c": 0.1}}}')
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(path)

    def test_load_scenario_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"formula": "A",\n  "components": }')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_rejects_scale_key(self):
        # the rating scale cancels out of T = c * t * scale / scale * 100
        doc = self.scenario_doc()
        doc["defaults"]["scale"] = 5
        with pytest.raises(ScenarioError, match="defaults"):
            scenario_from_dict(doc)
        doc = self.scenario_doc()
        doc["components"]["C"]["scale"] = 5
        with pytest.raises(ScenarioError, match="components.C"):
            scenario_from_dict(doc)

    def test_extra_components_beyond_formula_are_allowed(self):
        doc = self.scenario_doc()
        doc["components"]["Watcher"] = {"t": 0.9, "c": 0.9}
        scenario = scenario_from_dict(doc)
        assert "Watcher" in scenario.components


class TestAssessSystem:
    def test_report_coherence(self):
        doc = {
            "formula": "(A | B) & C",
            "defaults": {"f": 0.5},
            "components": {
                "A": {"t": 0.714, "c": 0.724},
                "B": {"t": 0.459, "c": 0.806},
                "C": {"r": 3, "s": 1, "N": 8},
            },
        }
        report = assess_system(scenario_from_dict(doc))
        for comp in report.components:
            assert comp.expectation == expectation(comp.opinion)
            assert comp.trust_percent == trust_percent(comp.opinion)
            assert comp.trust_class is classify_trust(comp.trust_percent)
            recomputed = behavioral_probability(comp.trust_percent, comp.opinion.f)
            assert comp.behavior == recomputed
        root = report.root
        assert root.expectation == expectation(root.opinion)
        assert root.trust_percent == trust_percent(root.opinion)
        assert root.behavior == behavioral_probability(root.trust_percent, root.opinion.f)

    def test_nodes_are_post_order_with_paths(self):
        doc = {
            "formula": "A | !B",
            "components": {"A": {"t": 0.5, "c": 0.5}, "B": {"t": 0.5, "c": 0.5}},
        }
        report = assess_system(scenario_from_dict(doc))
        assert [(n.path, n.expression) for n in report.nodes] == [
            ("root.left", "A"),
            ("root.right.operand", "B"),
            ("root.right", "!B"),
            ("root", "A | !B"),
        ]

    def test_subsystem_priors_are_emergent(self):
        doc = {
            "formula": EQ4,
            "defaults": {"f": 0.5},
            "components": {name: {"t": op.t, "c": op.c} for name, op in LEAVES.items()},
        }
        report = assess_system(scenario_from_dict(doc))
        by_path = {n.path: n for n in report.nodes}
        assert by_path["root.left"].opinion.f == pytest.approx(0.75)
        assert by_path["root.right"].opinion.f == pytest.approx(0.75)
        assert by_path["root"].opinion.f == pytest.approx(0.5625)

    def test_vacuous_single_component(self):
        doc = {"formula": "A", "components": {"A": {"r": 0, "s": 0, "N": 10}}}
        report = assess_system(scenario_from_dict(doc))
        assert report.root.trust_percent == 0.0
        assert report.root.behavior.behavior_percent == -100.0
        assert report.root.trust_class is FuzzyLabel.VERY_LOW

    def test_full_certainty_conjunction_clamps_behavior(self):
        # hand fold: both priors 0.5 compose to 0.25, so P raw = +300
        doc = {
            "formula": "A & B",
            "components": {"A": {"t": 1.0, "c": 1.0}, "B": {"t": 1.0, "c": 1.0}},
        }
        report = assess_system(scenario_from_dict(doc))
        assert report.root.trust_percent == pytest.approx(100.0, abs=1e-9)
        assert report.root.behavior.behavior_percent == 100.0
        assert report.root.behavior.behavior_percent_raw == pytest.approx(300.0, abs=1e-6)

    def test_redundant_system_at_full_certainty(self):
        # hand fold over the redundancy formula: root prior 0.5625, T = 100
        doc = {
            "formula": EQ4,
            "components": {name: {"t": 1.0, "c": 1.0} for name in ("A1", "A2", "B1", "B2")},
        }
        report = assess_system(scenario_from_dict(doc))
        assert report.root.trust_percent == pytest.approx(100.0, abs=1e-9)
        assert report.root.behavior.behavior_percent_raw == pytest.approx((1.0 - 0.5625) / 0.5625 * 100.0, abs=1e-6)

    def test_not_mode_changes_assessment(self):
        doc = {"formula": "!A", "components": {"A": {"t": 0.3, "c": 0.6, "f": 0.4}}}
        scenario = scenario_from_dict(doc)
        negated = assess_system(scenario)
        preserved = assess_system(scenario, not_mode=NotMode.PRESERVE_CERTAINTY)
        assert negated.root.opinion.c == pytest.approx(0.4)
        assert preserved.root.opinion.c == pytest.approx(0.6)

    def test_evaluation_domain_error_propagates(self):
        doc = {
            "formula": "A & B",
            "components": {"A": {"t": 0.5, "c": 0.5, "f": 1.0}, "B": {"t": 0.5, "c": 0.5, "f": 1.0}},
        }
        with pytest.raises(EvaluationError):
            assess_system(scenario_from_dict(doc))


def chain(n: int) -> str:
    return " & ".join(f"L{i}" for i in range(n))


def same_tree(a, b) -> bool:
    """Structural equality without recursion (dataclass ``==`` recurses)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Leaf):
            if x != y:
                return False
        elif isinstance(x, Not):
            stack.append((x.child, y.child))
        else:
            stack += [(x.left, y.left), (x.right, y.right)]
    return True


class TestDeepFormulas:
    """Formula depth is bounded by memory, not by the interpreter's recursion limit."""

    def test_left_deep_chain(self):
        n = 2500
        formula = parse_formula(chain(n))
        assert free_variables(formula) == {f"L{i}" for i in range(n)}
        text = unparse(formula)
        assert text == chain(n)
        assert same_tree(parse_formula(text), formula)
        # f = 0.999 keeps the root prior 0.999**2500 well clear of underflow
        leaves = {f"L{i}": Opinion(0.9, 0.8, 0.999) for i in range(n)}
        expected = leaves["L0"]
        for i in range(1, n):
            expected = op_and(expected, leaves[f"L{i}"])
        assert evaluate_formula(formula, leaves) == expected

    def test_right_deep_tree_unparses_with_parentheses(self):
        n = 1500
        formula = Leaf(f"L{n - 1}")
        for i in reversed(range(n - 1)):
            formula = Or(Leaf(f"L{i}"), formula)
        text = unparse(formula)
        assert text == " | (".join(f"L{i}" for i in range(n - 1)) + f" | L{n - 1}" + ")" * (n - 2)
        assert free_variables(formula) == {f"L{i}" for i in range(n)}

    def test_free_variables_do_not_run_the_fold(self, monkeypatch):
        nested = parse_formula("!(A & !B) | !!(C | (A & !D))")
        long_chain = parse_formula(chain(5000))
        expected = [
            frozenset(node.name for node, *_ in topology._fold(f) if isinstance(node, Leaf))
            for f in (nested, long_chain)
        ]
        assert expected[0] == {"A", "B", "C", "D"}
        monkeypatch.setattr(topology, "_fold", None)  # collecting names needs no paths or texts
        assert [free_variables(nested), free_variables(long_chain)] == expected

    def test_stacked_negations_parse(self):
        formula = parse_formula("!" * 1200 + "A")
        assert unparse(formula) == "!" * 1200 + "A"
        leaves = {"A": Opinion(0.25, 0.5, 0.375)}  # exact under x -> 1 - x
        assert evaluate_formula(formula, leaves) == leaves["A"]  # NOT is an involution

    def test_deep_parentheses_are_a_syntax_error(self):
        with pytest.raises(FormulaSyntaxError, match="nested too deeply") as info:
            parse_formula("(" * 400 + "A" + ")" * 400)
        assert 0 < info.value.offset < 400

    def test_moderate_nesting_still_parses(self):
        assert parse_formula("(" * 100 + "A" + ")" * 100) == Leaf("A")
        assert parse_formula("!(" * 50 + "A" + ")" * 50) == parse_formula("!" * 50 + "A")

    def test_deep_json_is_a_scenario_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ScenarioError, match="nested too deeply"):
            load_scenario(path)

    def test_assess_long_chain(self):
        n = 1200
        doc = {"formula": chain(n), "components": {f"L{i}": {"t": 0.9, "c": 0.8, "f": 0.999} for i in range(n)}}
        report = assess_system(scenario_from_dict(doc))
        assert len(report.nodes) == 2 * n - 1
        assert report.nodes[-1].path == "root"
        assert report.root.name == chain(n)

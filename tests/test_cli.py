"""End-to-end tests of the command-line interface."""

import json

import pytest

from certaintrust import cli
from certaintrust.case_studies import bundled_scenario_dict


@pytest.fixture
def case1_path(tmp_path):
    path = tmp_path / "case1.json"
    path.write_text(json.dumps(bundled_scenario_dict("case1")))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAssess:
    def test_table_output_mirrors_reference_columns(self, capsys, case1_path):
        code, out, _ = run(capsys, "assess", case1_path)
        assert code == 0
        header = out.splitlines()[1].split()
        assert header == ["name", "t", "c", "f", "E", "T", "class", "P", "direction"]
        a1 = next(line for line in out.splitlines() if line.startswith("A1")).split()
        assert a1 == ["A1", "0.714", "0.724", "0.500", "0.655", "51.69", "M", "+3.39", "higher"]

    def test_json_output_round_trips_byte_identical(self, capsys, case1_path):
        code, out, _ = run(capsys, "assess", case1_path, "--format", "json")
        assert code == 0
        assert cli.render_json(json.loads(out)) == out

    def test_json_structure(self, capsys, case1_path):
        _, out, _ = run(capsys, "assess", case1_path, "--format", "json")
        doc = json.loads(out)
        assert {c["id"] for c in doc["components"]} == {"A1", "A2", "B1", "B2", "S1", "S2", "S"}
        assert doc["root"]["expression"] == "(A1 | A2) & (B1 | B2)"
        assert doc["components"][0]["trust_percent"] == 51.69
        paths = [n["path"] for n in doc["nodes"]]
        assert paths[-1] == "root"

    def test_csv_output(self, capsys, case1_path):
        code, out, _ = run(capsys, "assess", case1_path, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("kind,name,expression,t,c,f,")
        assert any(line.startswith("component,A1,") for line in lines)
        assert any(line.startswith("root,") for line in lines)

    def test_out_file(self, capsys, tmp_path, case1_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "assess", case1_path, "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["root"]["trust_percent"] == pytest.approx(63.64)

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "assess", "/nonexistent/scenario.json")
        assert code == 2
        assert "error" in err

    def test_invalid_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"formula": "A",}')
        code, _, err = run(capsys, "assess", str(path))
        assert code == 2
        assert "line 1" in err

    def test_unbound_variable_is_named(self, capsys, tmp_path):
        path = tmp_path / "unbound.json"
        path.write_text('{"formula": "A & ghost", "components": {"A": {"t": 0.5, "c": 0.5}}}')
        code, _, err = run(capsys, "assess", str(path))
        assert code == 2
        assert "ghost" in err

    def test_empty_components(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"formula": "A", "components": {}}')
        code, _, err = run(capsys, "assess", str(path))
        assert code == 2

    def test_domain_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({
            "formula": "A & B",
            "components": {"A": {"t": 0.5, "c": 0.5, "f": 1.0}, "B": {"t": 0.5, "c": 0.5, "f": 1.0}},
        }))
        code, _, err = run(capsys, "assess", str(path))
        assert code == 3
        assert "root" in err

    def test_not_mode_flag(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text('{"formula": "!A", "components": {"A": {"t": 0.3, "c": 0.6, "f": 0.4}}}')
        _, out_default, _ = run(capsys, "assess", str(path), "--format", "json")
        _, out_preserve, _ = run(capsys, "assess", str(path), "--format", "json", "--not-mode", "preserve-certainty")
        assert json.loads(out_default)["root"]["c"] == 0.4
        assert json.loads(out_preserve)["root"]["c"] == 0.6


class TestInfer:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "infer", "--c", "0.7", "--t", "3.0")
        assert code == 0
        assert "trust          50.00" in out
        assert "average" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "infer", "--c", "1.0", "--t", "5.0", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert 70.0 <= doc["trust_percent"] <= 80.0
        assert doc["trust_class"] in ("high", "very_high")

    def test_zero_certainty_lands_low(self, capsys):
        code, out, _ = run(capsys, "infer", "--c", "0", "--t", "3.0", "--format", "json")
        doc = json.loads(out)
        assert doc["trust_percent"] <= 25.0
        assert doc["trust_class"] in ("very_low", "low")

    def test_explain_lists_rule_weights(self, capsys):
        code, out, _ = run(capsys, "infer", "--c", "0.7", "--t", "3.0", "--explain")
        assert code == 0
        assert "rule activations:" in out
        r14 = next(line for line in out.splitlines() if line.startswith("R14"))
        assert float(r14.split()[-1]) == pytest.approx(0.9259, abs=1e-3)

    def test_explain_json(self, capsys):
        _, out, _ = run(capsys, "infer", "--c", "0.7", "--t", "3.0", "--explain", "--format", "json")
        doc = json.loads(out)
        assert len(doc["rules"]) == 25
        assert doc["rules"][13]["name"] == "R14"

    def test_out_of_range_f(self, capsys):
        code, _, err = run(capsys, "infer", "--c", "0.7", "--t", "3.0", "--f", "0")
        assert code == 2
        assert "f" in err

    def test_bad_number_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "infer", "--c", "zero", "--t", "3.0")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--c", "--t"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_is_usage_error(self, capsys, flag, value):
        args = {"--c": "0.7", "--t": "3.0", flag: value}
        code, out, err = run(capsys, "infer", *(f"{k}={v}" for k, v in args.items()))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "finite" in err

    def test_custom_f(self, capsys):
        _, out, _ = run(capsys, "infer", "--c", "1.0", "--t", "5.0", "--f", "0.9", "--format", "json")
        assert json.loads(out)["direction"] == "lower"


class TestMembershipDump:
    def test_center_row(self, capsys):
        code, out, _ = run(capsys, "membership-dump", "certainty", "--samples", "11")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,very_low,low,average,high,very_high"
        row = next(line for line in lines if line.startswith("0.500000"))
        assert row.split(",")[3] == "1.000000"

    def test_even_spacing(self, capsys):
        _, out, _ = run(capsys, "membership-dump", "trust", "--samples", "3")
        xs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert xs == [0.0, 50.0, 100.0]

    def test_memberships_positive_everywhere(self, capsys):
        _, out, _ = run(capsys, "membership-dump", "rating", "--samples", "21")
        for line in out.splitlines()[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert sum(values) > 0.0
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_unknown_variable(self, capsys):
        code, _, _ = run(capsys, "membership-dump", "velocity")
        assert code == 2

    def test_too_few_samples(self, capsys):
        code, _, err = run(capsys, "membership-dump", "trust", "--samples", "1")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curves.csv"
        code, out, _ = run(capsys, "membership-dump", "trust", "--samples", "5", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("x,very_low")


class TestFam:
    @pytest.mark.parametrize("flag", ["--c", "--t"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lookup_is_usage_error(self, capsys, flag, value):
        args = {"--c": "0.6", "--t": "3", flag: value}
        code, out, err = run(capsys, "fam", "people20", *(f"{k}={v}" for k, v in args.items()))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "finite" in err

    def test_people20_grid(self, capsys):
        code, out, _ = run(capsys, "fam", "people20")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows[0] == ["c\\t", "1", "2", "3", "4", "5"]
        assert rows[1] == ["0.0", "N", "N", "N", "N", "N"]
        assert rows[6] == ["1.0", "VL", "L", "M", "H", "VH"]

    def test_lookup(self, capsys):
        code, out, _ = run(capsys, "fam", "people100", "--c", "0.9", "--t", "4.5")
        assert code == 0
        assert out.strip() == "VH"

    def test_lookup_zero_row(self, capsys):
        code, out, _ = run(capsys, "fam", "people20", "--c", "0.0", "--t", "1")
        assert code == 0
        assert out.strip() == "N"

    def test_out_of_grid(self, capsys):
        code, _, err = run(capsys, "fam", "people20", "--c", "1.5", "--t", "3")
        assert code == 2
        assert "grid" in err

    def test_partial_lookup_args(self, capsys):
        code, _, err = run(capsys, "fam", "people20", "--c", "0.5")
        assert code == 2

    def test_unknown_table(self, capsys):
        code, _, _ = run(capsys, "fam", "people7")
        assert code == 2

    def test_csv_and_json_formats(self, capsys):
        _, out_csv, _ = run(capsys, "fam", "people20", "--format", "csv")
        assert out_csv.splitlines()[1] == "0.0,N,N,N,N,N"
        _, out_json, _ = run(capsys, "fam", "people20", "--format", "json")
        doc = json.loads(out_json)
        assert doc["cells"][5] == ["VL", "L", "M", "H", "VH"]


class TestCaseStudy:
    def test_case2_passes(self, capsys):
        code, out, _ = run(capsys, "case-study", "case2")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_case1_reports_known_inconsistency(self, capsys):
        # 48 of 49 graded checks reproduce; the published E of the composite
        # row is inconsistent with its own triple, so the harness exits 1.
        code, out, _ = run(capsys, "case-study", "case1")
        assert code == 1
        assert "48/49 checks within tolerance" in out
        failing = [line for line in out.splitlines() if line.split()[-1:] == ["FAIL"]]
        assert len(failing) == 1
        assert failing[0].startswith("S    E")

    def test_unknown_case(self, capsys):
        code, _, _ = run(capsys, "case-study", "case9")
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "case-study", "case2", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert {c["field"] for c in doc["checks"]} >= {"T", "P"}
        assert cli.render_json(doc) == out  # byte-identical round trip


class TestConfigFile:
    def test_config_file_sets_format_and_flags_override(self, capsys, tmp_path, case1_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output_format": "json"}))
        _, out, _ = run(capsys, "assess", case1_path, "--config", str(config))
        assert json.loads(out)["root"]["expression"]
        _, out, _ = run(capsys, "assess", case1_path, "--config", str(config), "--format", "csv")
        assert out.startswith("kind,")

    def test_unknown_config_key(self, capsys, tmp_path, case1_path):
        config = tmp_path / "config.json"
        config.write_text('{"sampling": 0.1}')
        code, _, err = run(capsys, "assess", case1_path, "--config", str(config))
        assert code == 2
        assert "sampling" in err

    def test_bad_step(self, capsys, case1_path):
        code, _, err = run(capsys, "assess", case1_path, "--step", "2.0")
        assert code == 2

    def test_membership_overrides_are_applied(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "membership_overrides": {"trust": {"average": {"center": 52.0}}}
        }))
        _, out, _ = run(capsys, "membership-dump", "trust", "--samples", "101",
                        "--config", str(config))
        row = next(line for line in out.splitlines() if line.startswith("52.000000"))
        assert row.split(",")[3] == "1.000000"
        # the shifted consequent also moves the crisp inference output
        _, moved, _ = run(capsys, "infer", "--c", "0.7", "--t", "3.0", "--config", str(config), "--format", "json")
        _, stock, _ = run(capsys, "infer", "--c", "0.7", "--t", "3.0", "--format", "json")
        assert json.loads(moved)["trust_percent"] != json.loads(stock)["trust_percent"]

    def test_bad_override_label(self, capsys, tmp_path, case1_path):
        config = tmp_path / "config.json"
        config.write_text('{"membership_overrides": {"trust": {"middling": {"sigma": 3}}}}')
        code, _, err = run(capsys, "assess", case1_path, "--config", str(config))
        assert code == 2


class TestExitCodesAndHelp:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["transmute"]) == 2


class TestDeepInputs:
    """Deep inputs end in a result or a typed error, never a traceback."""

    def write(self, tmp_path, text: str) -> str:
        path = tmp_path / "deep.json"
        path.write_text(text)
        return str(path)

    def scenario(self, tmp_path, formula: str, names) -> str:
        components = {name: {"t": 0.9, "c": 0.8, "f": 0.999} for name in names}
        return self.write(tmp_path, json.dumps({"formula": formula, "components": components}))

    def test_long_chain_assesses(self, capsys, tmp_path):
        names = [f"L{i}" for i in range(1200)]
        path = self.scenario(tmp_path, " & ".join(names), names)
        code, out, _ = run(capsys, "assess", path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1].startswith("root,root,L0 & L1 & ")

    def test_stacked_negations_assess(self, capsys, tmp_path):
        code, _, _ = run(capsys, "assess", self.scenario(tmp_path, "!" * 1200 + "A", ["A"]), "--format", "json")
        assert code == 0

    def test_deep_parentheses_are_usage_error(self, capsys, tmp_path):
        path = self.scenario(tmp_path, "(" * 400 + "A" + ")" * 400, ["A"])
        code, _, err = run(capsys, "assess", path)
        assert code == 2
        assert "nested too deeply at byte offset" in err

    def test_deep_json_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "assess", self.write(tmp_path, "[" * 200_000 + "]" * 200_000))
        assert code == 2
        assert "nested too deeply" in err

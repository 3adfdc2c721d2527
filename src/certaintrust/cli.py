"""Command-line front end.

Commands: ``assess`` (score a scenario file), ``infer`` (run the fuzzy
pipeline on crisp inputs), ``membership-dump`` (export membership curves as
CSV), ``fam`` (print or query the FAM grids) and ``case-study`` (reproduce
the bundled case studies against their golden values).

Exit codes: 0 success, 1 golden-value mismatch, 2 input or usage error,
3 evaluation domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .case_studies import CaseStudyResult, run_case_study
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    FormulaSyntaxError,
    ScenarioError,
    UnboundComponentError,
)
from .fuzzy import (
    FamClass,
    FamTable,
    MamdaniEngine,
    build_default_variables,
    classify_trust,
    fam_people20,
    fam_people100,
    gaussian_mf,
)
from .opinions import NotMode, behavioral_probability
from .topology import Readout, SystemReport, assess_system, load_scenario

__all__ = ["RunConfig", "build_parser", "main", "console_main", "render_json"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Effective run options after merging defaults, config file and flags."""

    not_mode: NotMode = NotMode.NEGATE_CERTAINTY
    sampling_step: float = 0.1
    f: float = 0.5
    output_format: str = "table"
    membership_overrides: dict = field(default_factory=dict)
    explain: bool = False

    def __post_init__(self):
        if not 0.0 < self.sampling_step <= 1.0:
            raise ConfigError(f"sampling step must lie in (0, 1], got {self.sampling_step}")
        if not 0.0 < self.f <= 1.0:
            raise ConfigError(f"f must lie in (0, 1], got {self.f}")
        if self.output_format not in _FORMATS:
            raise ConfigError(f"unknown output format {self.output_format!r}")

    def variables(self):
        return build_default_variables(self.membership_overrides or None)


def _parse_not_mode(value: str) -> NotMode:
    try:
        return NotMode(value.replace("-", "_"))
    except ValueError:
        raise ConfigError(f"unknown NOT mode {value!r}; use 'paper' or 'preserve-certainty'") from None


_CONFIG_KEYS = {"not_mode", "sampling_step", "f", "output_format", "membership_overrides"}


def _load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid config JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    return doc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge builtin defaults, then the config file, then explicit flags."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    if getattr(args, "format", None):
        values["output_format"] = args.format
    if getattr(args, "not_mode", None):
        values["not_mode"] = args.not_mode
    if getattr(args, "step", None) is not None:
        values["sampling_step"] = args.step
    if getattr(args, "f", None) is not None:
        values["f"] = args.f
    if isinstance(values.get("not_mode"), str):
        values["not_mode"] = _parse_not_mode(values["not_mode"])
    overrides = values.get("membership_overrides", {})
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ConfigError("membership_overrides must be an object")
    try:
        config = RunConfig(
            not_mode=values.get("not_mode", NotMode.NEGATE_CERTAINTY),
            sampling_step=float(values.get("sampling_step", 0.1)),
            f=float(values.get("f", 0.5)),
            output_format=values.get("output_format", "table"),
            membership_overrides=overrides,
            explain=bool(getattr(args, "explain", False)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    config.variables()  # fail fast on bad membership overrides
    return config


# --------------------------------------------------------------------------
# rendering helpers

def render_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(headers: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _f3(x: float) -> str:
    return f"{x:.3f}"


def _f2(x: float) -> str:
    return f"{x:.2f}"


def _s2(x: float) -> str:
    return f"{x:+.2f}"


def _short_class(label) -> str:
    return FamClass.from_label(label).value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# assess

def _tcfe(row) -> tuple[float, ...]:
    """The t, c, f and E values that every report row carries."""
    return (row.opinion.t, row.opinion.c, row.opinion.f, row.expectation)


def _tcfe_cells(row) -> list[str]:
    return [_f3(v) for v in _tcfe(row)]


def _tcfe_doc(row) -> dict:
    return dict(zip(("t", "c", "f", "expectation"), (round(v, 3) for v in _tcfe(row))))


def _readout_doc(r: Readout) -> dict:
    return {
        **_tcfe_doc(r),
        "trust_percent": round(r.trust_percent, 2),
        "trust_class": r.trust_class.value,
        "behavior_percent": round(r.behavior.behavior_percent, 2),
        "behavior_percent_raw": round(r.behavior.behavior_percent_raw, 2),
        "behavior_class": r.behavior.behavior_class.value,
        "direction": r.behavior.direction.value,
    }


def _report_doc(report: SystemReport) -> dict:
    return {
        "components": [{"id": c.name, **_readout_doc(c)} for c in report.components],
        "nodes": [{"path": n.path, "expression": n.expression, **_tcfe_doc(n)} for n in report.nodes],
        "root": {"expression": report.root.name, **_readout_doc(report.root)},
    }


def _readout_table_cells(r: Readout) -> list[str]:
    return [
        *_tcfe_cells(r),
        _f2(r.trust_percent),
        _short_class(r.trust_class),
        _s2(r.behavior.behavior_percent),
        r.behavior.direction.value,
    ]


def _report_table(report: SystemReport) -> str:
    parts = ["components:\n"]
    headers = ["name", "t", "c", "f", "E", "T", "class", "P", "direction"]
    rows = [[c.name, *_readout_table_cells(c)] for c in report.components]
    parts.append(_render_table(headers, rows))
    parts.append("\nformula nodes (recomputed from the leaves):\n")
    node_rows = [[n.path, n.expression, *_tcfe_cells(n)] for n in report.nodes]
    parts.append(_render_table(["path", "expression", "t", "c", "f", "E"], node_rows))
    parts.append(
        "\nroot {!r}: t={} c={} f={} E={} T={} class={} P={} ({})\n".format(
            report.root.name, *_readout_table_cells(report.root)
        )
    )
    return "".join(parts)


def _readout_csv_cells(r: Readout) -> list[str]:
    return [
        *_tcfe_cells(r),
        _f2(r.trust_percent),
        r.trust_class.value,
        _s2(r.behavior.behavior_percent),
        r.behavior.behavior_class.value,
        r.behavior.direction.value,
    ]


def _report_csv(report: SystemReport) -> str:
    headers = [
        "kind", "name", "expression", "t", "c", "f", "expectation",
        "trust_percent", "trust_class", "behavior_percent", "behavior_class", "direction",
    ]
    rows = [["component", c.name, "", *_readout_csv_cells(c)] for c in report.components]
    rows += [["node", n.path, n.expression, *_tcfe_cells(n), "", "", "", "", ""] for n in report.nodes]
    rows.append(["root", "root", report.root.name, *_readout_csv_cells(report.root)])
    return _render_csv(headers, rows)


def cmd_assess(args: argparse.Namespace, config: RunConfig) -> int:
    scenario = load_scenario(args.scenario)
    trust_var = config.variables()[2]
    report = assess_system(scenario, not_mode=config.not_mode, trust_var=trust_var)
    if config.output_format == "json":
        text = render_json(_report_doc(report))
    elif config.output_format == "csv":
        text = _report_csv(report)
    else:
        text = _report_table(report)
    _emit(text, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# infer

def cmd_infer(args: argparse.Namespace, config: RunConfig) -> int:
    # the engine rejects these too, but as a DomainError (exit 3); a bad flag is a usage error
    for flag, value in (("--c", args.c), ("--t", args.t)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value}")
    engine = MamdaniEngine(variables=config.variables(), step=config.sampling_step)
    trust = engine.infer(args.c, args.t)
    activations = engine.activations(args.c, args.t) if config.explain else []
    label = classify_trust(trust, engine.trust_var)
    behavior = behavioral_probability(trust, config.f)
    if config.output_format == "json":
        doc = {
            "certainty": args.c,
            "rating": args.t,
            "trust_percent": round(trust, 2),
            "trust_class": label.value,
            "behavior_percent": round(behavior.behavior_percent, 2),
            "behavior_percent_raw": round(behavior.behavior_percent_raw, 2),
            "behavior_class": behavior.behavior_class.value,
            "direction": behavior.direction.value,
        }
        if config.explain:
            doc["rules"] = [
                {
                    "name": a.name,
                    "certainty": a.rule.certainty_label.value,
                    "rating": a.rule.rating_label.value,
                    "trust": a.rule.trust_label.value,
                    "weight": round(a.weight, 6),
                }
                for a in activations
            ]
        sys.stdout.write(render_json(doc))
        return EXIT_OK
    if config.output_format == "csv":
        headers = ["certainty", "rating", "trust_percent", "trust_class",
                   "behavior_percent", "behavior_class", "direction"]
        rows = [[f"{args.c:g}", f"{args.t:g}", _f2(trust), label.value,
                 _s2(behavior.behavior_percent), behavior.behavior_class.value, behavior.direction.value]]
        sys.stdout.write(_render_csv(headers, rows))
        return EXIT_OK
    lines = [
        f"certainty      {args.c:g}",
        f"scaled rating  {args.t:g}",
        f"trust          {_f2(trust)}",
        f"trust class    {label.value} ({_short_class(label)})",
        f"behavior P     {_s2(behavior.behavior_percent)} ({behavior.direction.value}, "
        f"class {behavior.behavior_class.value}, f={config.f:g})",
    ]
    text = "\n".join(lines) + "\n"
    if config.explain:
        rows = [
            [a.name, a.rule.certainty_label.value, a.rule.rating_label.value,
             a.rule.trust_label.value, f"{a.weight:.6f}"]
            for a in activations
        ]
        text += "\nrule activations:\n" + _render_table(
            ["rule", "certainty", "rating", "trust", "weight"], rows
        )
    sys.stdout.write(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# membership-dump

def cmd_membership_dump(args: argparse.Namespace, config: RunConfig) -> int:
    if args.samples < 2:
        raise ConfigError(f"need at least 2 samples, got {args.samples}")
    variables = {v.name: v for v in config.variables()}
    var = variables[args.variable]
    headers = ["x"] + [s.label.value for s in var.sets]
    rows = []
    span = var.domain_hi - var.domain_lo
    for i in range(args.samples):
        x = var.domain_lo + span * i / (args.samples - 1)
        rows.append([f"{x:.6f}"] + [f"{gaussian_mf(x, s):.6f}" for s in var.sets])
    _emit(_render_csv(headers, rows), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# fam

_FAM_TABLES = {"people20": fam_people20, "people100": fam_people100}


def _axis_fmt(grid: tuple[float, ...]):
    if all(v == int(v) for v in grid):
        return lambda v: f"{v:g}"
    return lambda v: f"{v:.1f}"


def _fam_grid_rows(table: FamTable) -> tuple[list[str], list[list[str]]]:
    tf, cf = _axis_fmt(table.t_grid), _axis_fmt(table.c_grid)
    headers = ["c\\t"] + [tf(t) for t in table.t_grid]
    rows = [[cf(c)] + [cell.value for cell in row] for c, row in zip(table.c_grid, table.cells)]
    return headers, rows


def cmd_fam(args: argparse.Namespace, config: RunConfig) -> int:
    table = _FAM_TABLES[args.table]()
    if (args.c is None) != (args.t is None):
        raise ConfigError("--c and --t must be given together")
    if args.c is not None:
        try:
            cell = table.lookup(args.c, args.t)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if config.output_format == "json":
            sys.stdout.write(render_json({"table": table.name, "c": args.c, "t": args.t, "class": cell.value}))
        else:
            sys.stdout.write(cell.value + "\n")
        return EXIT_OK
    if config.output_format == "json":
        doc = {
            "table": table.name,
            "c_grid": list(table.c_grid),
            "t_grid": list(table.t_grid),
            "cells": [[cell.value for cell in row] for row in table.cells],
        }
        sys.stdout.write(render_json(doc))
        return EXIT_OK
    headers, rows = _fam_grid_rows(table)
    render = _render_csv if config.output_format == "csv" else _render_table
    sys.stdout.write(render(headers, rows))
    return EXIT_OK


# --------------------------------------------------------------------------
# case-study

def _fmt_value(value) -> str:
    return f"{value:.4f}" if isinstance(value, (int, float)) else str(value)


def _case_study_text(result: CaseStudyResult) -> str:
    parts = [f"case study {result.name}\n"]
    for note in result.notes:
        parts.append(f"note: {note}\n")
    rows = []
    for check in result.checks:
        status = "INFO" if check.informational else ("PASS" if check.passed else "FAIL")
        rows.append([
            check.row,
            check.fieldname,
            _fmt_value(check.expected),
            _fmt_value(check.actual),
            _fmt_value(check.delta) if check.delta is not None else "-",
            _fmt_value(check.tolerance) if check.tolerance is not None else "-",
            status,
        ])
        if check.note and (check.informational or not check.passed):
            rows.append(["", "", "", "", "", "", f"({check.note})"])
    parts.append(_render_table(["row", "field", "expected", "computed", "delta", "tol", "status"], rows))
    graded = [c for c in result.checks if not c.informational]
    failed = [c for c in graded if not c.passed]
    parts.append(
        f"\nresult: {len(graded) - len(failed)}/{len(graded)} checks within tolerance"
        + (f", {len(failed)} FAILED\n" if failed else "\n")
    )
    return "".join(parts)


def _case_study_doc(result: CaseStudyResult) -> dict:
    return {
        "name": result.name,
        "passed": result.passed,
        "notes": list(result.notes),
        "checks": [
            {
                "row": c.row,
                "field": c.fieldname,
                "expected": round(c.expected, 4) if isinstance(c.expected, float) else c.expected,
                "actual": round(c.actual, 4) if isinstance(c.actual, float) else c.actual,
                "tolerance": c.tolerance,
                "status": "info" if c.informational else ("pass" if c.passed else "fail"),
                "note": c.note,
            }
            for c in result.checks
        ],
    }


def cmd_case_study(args: argparse.Namespace, config: RunConfig) -> int:
    result = run_case_study(args.which)
    if config.output_format == "json":
        sys.stdout.write(render_json(_case_study_doc(result)))
    elif config.output_format == "csv":
        headers = ["row", "field", "expected", "computed", "delta", "tolerance", "status"]
        rows = [
            [c.row, c.fieldname, _fmt_value(c.expected), _fmt_value(c.actual),
             _fmt_value(c.delta) if c.delta is not None else "",
             _fmt_value(c.tolerance) if c.tolerance is not None else "",
             "info" if c.informational else ("pass" if c.passed else "fail")]
            for c in result.checks
        ]
        sys.stdout.write(_render_csv(headers, rows))
    else:
        sys.stdout.write(_case_study_text(result))
    return EXIT_OK if result.passed else EXIT_MISMATCH


# --------------------------------------------------------------------------
# parser / main

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run-config file")
    common.add_argument("--format", choices=_FORMATS, help="output format (default: table)")
    common.add_argument("--not-mode", dest="not_mode", choices=("paper", "preserve-certainty"),
                        help="NOT operator convention (default: paper)")
    common.add_argument("--step", type=float, help="trust-domain sampling step (default: 0.1)")
    common.add_argument("--f", type=float, help="initial expectation for behavior metrics (default: 0.5)")
    common.add_argument("--explain", action="store_true", help="print per-rule firing weights")

    parser = argparse.ArgumentParser(
        prog="certaintrust",
        description="Evidence-based trust opinions, topology assessment and fuzzy trust representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", parents=[common], help="assess a scenario file")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--out", metavar="PATH", help="write the report to a file instead of stdout")
    p.set_defaults(handler=cmd_assess)

    p = sub.add_parser("infer", parents=[common], help="fuzzy trust inference on crisp inputs")
    p.add_argument("--c", type=float, required=True, help="certainty in [0, 1]")
    p.add_argument("--t", type=float, required=True, help="scaled rating in [1, 5]")
    p.set_defaults(handler=cmd_infer)

    p = sub.add_parser("membership-dump", parents=[common], help="export membership curves as CSV")
    p.add_argument("variable", choices=("certainty", "rating", "trust"))
    p.add_argument("--samples", type=int, default=101, help="number of evenly spaced samples (default: 101)")
    p.add_argument("--out", metavar="PATH", help="write the CSV to a file instead of stdout")
    p.set_defaults(handler=cmd_membership_dump)

    p = sub.add_parser("fam", parents=[common], help="print a FAM grid or look up one cell")
    p.add_argument("table", choices=sorted(_FAM_TABLES))
    p.add_argument("--c", type=float, help="certainty for a single-cell lookup")
    p.add_argument("--t", type=float, help="scaled rating for a single-cell lookup")
    p.set_defaults(handler=cmd_fam)

    p = sub.add_parser("case-study", parents=[common], help="reproduce a bundled case study")
    p.add_argument("which", choices=("case1", "case2"))
    p.set_defaults(handler=cmd_case_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = resolve_config(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args, config)
    except (ScenarioError, FormulaSyntaxError, UnboundComponentError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

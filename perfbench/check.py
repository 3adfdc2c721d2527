"""Check CLI outputs against the independent reference model.

Every ``check_*`` function returns ``None`` when the output is right and a
short reason when it is not.  Numbers are compared at the precision the
program prints them: a printed value passes when it is a correct rounding
of a value within 1e-9 (relative, for large values) of the reference.
Class labels at a tie or band edge within 1e-9 accept either neighbour.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

import reference as ref


def near(printed, expected: float, decimals: int) -> bool:
    try:
        value = float(printed)
    except (TypeError, ValueError):
        return False
    return abs(value - expected) <= 0.5 * 10.0 ** -decimals + 1e-9 * max(1.0, abs(expected))


def _first_bad(printed: list, expected: np.ndarray, decimals: int) -> int | None:
    """Index of the first printed value that is not a rounding of its reference."""
    got = np.asarray(printed, dtype=float)
    ok = np.abs(got - expected) <= 0.5 * 10.0 ** -decimals + 1e-9 * np.maximum(1.0, np.abs(expected))
    return None if ok.all() else int(np.argmin(ok))


# ---------------------------------------------------------------------------
# assess

def _readouts(triples) -> dict:
    """Reference metrics for rows of (t, c, f)."""
    t, c, f = np.asarray(triples, dtype=float).reshape(-1, 3).T
    trust = ref.trust_percent(t, c)
    p, p_raw = ref.behavior(trust, f)
    return {"t": t, "c": c, "f": f, "E": ref.expectation(t, c, f), "T": trust, "P": p, "P_raw": p_raw}


def assess_reference(scenario) -> dict:
    """Expected readout of a generated scenario (see ``workloads.Scenario``)."""
    leaves = scenario.leaves()
    names = list(leaves)
    values = ref.evaluate(scenario.tree, leaves, scenario.preserve_certainty)
    nodes = _readouts(values)
    nodes["paths"] = [path for _, path in ref.post_order(scenario.tree, paths=True)]
    nodes["texts"] = ref.canonical_texts(scenario.tree)
    root = _readouts(values[-1])
    root["expression"] = nodes["texts"][-1]
    return {"names": names, "components": _readouts([leaves[n] for n in names]), "nodes": nodes, "root": root}


_NUMERIC = (("t", 3), ("c", 3), ("f", 3), ("E", 3), ("T", 2), ("P", 2), ("P_raw", 2))


def _check_readouts(cols: dict, want: dict, labels: list, where: str) -> str | None:
    """Printed columns (t, c, f, E, T, P, [P_raw,] class, [band,] dir) against the reference."""
    for key, decimals in _NUMERIC:
        if key in cols:
            i = _first_bad(cols[key], want[key], decimals)
            if i is not None:
                return f"{where} {labels[i]}: {key} = {cols[key][i]!r}, reference {want[key][i]!r}"
    verdicts = {
        "class": lambda printed: ref.class_ok(want["T"], printed),
        "band": lambda printed: ref.band_ok(want["T"], printed),
        "dir": lambda printed: ref.direction_ok(want["T"], want["f"], printed),
    }
    for key, verdict in verdicts.items():
        if key in cols:
            ok = verdict(cols[key])
            if not ok.all():
                i = int(np.argmin(ok))
                return f"{where} {labels[i]}: {key} {cols[key][i]!r} at T = {want['T'][i]!r}"
    return None


def _check_nodes(paths: list, texts: list, cols: dict, want: dict) -> str | None:
    if paths != want["paths"]:
        if len(paths) != len(want["paths"]):
            return f"{len(paths)} formula nodes printed, reference has {len(want['paths'])}"
        i = next(i for i, (a, b) in enumerate(zip(paths, want["paths"])) if a != b)
        return f"node {i}: path {paths[i][:60]!r}, reference {want['paths'][i][:60]!r}"
    if texts != want["texts"]:
        i = next(i for i, (a, b) in enumerate(zip(texts, want["texts"])) if a != b)
        return f"node {paths[i][:60]}: expression {texts[i][:60]!r}, reference {want['texts'][i][:60]!r}"
    return _check_readouts(cols, want, paths, "node")


_JSON_KEYS = {"t": "t", "c": "c", "f": "f", "E": "expectation", "T": "trust_percent", "P": "behavior_percent",
              "P_raw": "behavior_percent_raw", "class": "trust_class", "band": "behavior_class", "dir": "direction"}


def _json_columns(rows: list[dict], keys) -> dict:
    return {key: [row.get(_JSON_KEYS[key]) for row in rows] for key in keys}


def _check_assess_json(out: str, want: dict) -> str | None:
    doc = json.loads(out)
    comps = doc["components"]
    if [c.get("id") for c in comps] != want["names"]:
        return "component names or order differ from the scenario document"
    reason = _check_readouts(_json_columns(comps, _JSON_KEYS), want["components"], want["names"], "component")
    if reason:
        return reason
    nodes = doc["nodes"]
    reason = _check_nodes([n.get("path") for n in nodes], [n.get("expression") for n in nodes],
                          _json_columns(nodes, ("t", "c", "f", "E")), want["nodes"])
    if reason:
        return reason
    if doc["root"].get("expression") != want["root"]["expression"]:
        return "root expression differs from the reference"
    return _check_readouts(_json_columns([doc["root"]], _JSON_KEYS), want["root"], ["root"], "root")


_SHORT_TO_LABEL = {short: label for label, short in ref.SHORT.items()}
_TABLE_COLUMNS = ("t", "c", "f", "E", "T", "class", "P", "dir")


def _table_columns(rows: list[list[str]]) -> dict:
    """Columns of table cells t, c, f, E, T, short class, P, direction."""
    cols = {key: [row[i] for row in rows] for i, key in enumerate(_TABLE_COLUMNS)}
    cols["class"] = [_SHORT_TO_LABEL.get(c, c) for c in cols["class"]]
    return cols


_ROOT_LINE = re.compile(
    r"^root (?P<expr>'.*'): t=(\S+) c=(\S+) f=(\S+) E=(\S+) T=(\S+) class=(\S+) P=(\S+) \((\S+)\)$"
)


def _check_assess_table(out: str, want: dict) -> str | None:
    lines = out.split("\n")
    if lines[0] != "components:" or not lines[1].startswith("name"):
        return "table does not start with the components section"
    i = 2
    comps = []
    while lines[i]:
        comps.append(lines[i].split())
        i += 1
    if [row[0] for row in comps] != want["names"] or any(len(row) != 9 for row in comps):
        return "component rows differ from the scenario document"
    reason = _check_readouts(_table_columns([row[1:] for row in comps]), want["components"], want["names"],
                             "component")
    if reason:
        return reason
    if lines[i + 1] != "formula nodes (recomputed from the leaves):" or not lines[i + 2].startswith("path"):
        return "formula node section missing"
    i += 3
    nodes = []
    while lines[i]:
        nodes.append(lines[i].split())
        i += 1
    cols = {key: [row[j - 4] for row in nodes] for j, key in enumerate(("t", "c", "f", "E"))}
    reason = _check_nodes([row[0] for row in nodes], [" ".join(row[1:-4]) for row in nodes], cols, want["nodes"])
    if reason:
        return reason
    match = _ROOT_LINE.match(lines[i + 1])
    if not match:
        return f"root line not recognised: {lines[i + 1][:80]!r}"
    if match["expr"] != repr(want["root"]["expression"]):
        return "root expression differs from the reference"
    return _check_readouts(_table_columns([match.groups()[1:]]), want["root"], ["root"], "root")


_CSV_HEADER = ["kind", "name", "expression", "t", "c", "f", "expectation", "trust_percent",
               "trust_class", "behavior_percent", "behavior_class", "direction"]


def _csv_columns(rows: list[list[str]]) -> dict:
    keys = ("t", "c", "f", "E", "T", "class", "P", "band", "dir")
    return {key: [row[3 + i] for row in rows] for i, key in enumerate(keys)}


def _check_assess_csv(out: str, want: dict) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != _CSV_HEADER:
        return f"unexpected CSV header {rows[0]}"
    n_comp = len(want["names"])
    comps, nodes, root = rows[1:1 + n_comp], rows[1 + n_comp:-1], rows[-1]
    if [r[0] for r in comps] != ["component"] * n_comp or [r[1] for r in comps] != want["names"]:
        return "component rows differ from the scenario document"
    reason = _check_readouts(_csv_columns(comps), want["components"], want["names"], "component")
    if reason:
        return reason
    if any(r[0] != "node" for r in nodes):
        return "node rows out of place"
    cols = {key: [r[3 + i] for r in nodes] for i, key in enumerate(("t", "c", "f", "E"))}
    reason = _check_nodes([r[1] for r in nodes], [r[2] for r in nodes], cols, want["nodes"])
    if reason:
        return reason
    if root[:3] != ["root", "root", want["root"]["expression"]]:
        return "root row differs from the reference"
    return _check_readouts(_csv_columns([root]), want["root"], ["root"], "root")


def check_assess(result, fmt: str, want: dict) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit code {code}, expected 0 ({err.strip()[:120]})"
    try:
        return {"json": _check_assess_json, "table": _check_assess_table, "csv": _check_assess_csv}[fmt](out, want)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{fmt} output not readable: {type(exc).__name__}: {exc}"


def check_error(result, fragments: tuple[str, ...]) -> str | None:
    """A malformed input: exit 2, nothing on stdout, a typed message on stderr."""
    code, out, err = result
    if code != 2:
        return f"exit code {code}, expected 2"
    if out:
        return "malformed input produced output on stdout"
    missing = [frag for frag in fragments if frag not in err]
    if missing or not err.startswith("error: "):
        return f"error message {err.strip()[:160]!r} lacks {missing}"
    return None


# ---------------------------------------------------------------------------
# infer, fam

def infer_reference(c: float, t: float, f: float) -> dict:
    trust = float(ref.mamdani([c], [t], 0.1)[0])
    p, p_raw = ref.behavior(trust, f)
    weights = ref.rule_weights(np.array([c]), np.array([t]))[0]
    rules = []
    for i in range(25):
        rating, certainty = divmod(i, 5)
        rules.append((f"R{i + 1}", ref.LABELS[certainty], ref.LABELS[rating],
                      ref.LABELS[ref.RULES[rating][certainty]], float(weights[i])))
    return {"T": trust, "f": f, "P": float(p), "P_raw": float(p_raw), "rules": rules}


def _check_rules(got: list, want: list) -> str | None:
    if len(got) != 25:
        return f"{len(got)} rule activations printed, expected 25"
    for g, w in zip(got, want):
        if tuple(g[:4]) != w[:4] or not near(g[4], w[4], 6):
            return f"rule activation {g} differs from reference {w}"
    return None


_INFER_LINES = (
    re.compile(r"^trust +(\S+)$"),
    re.compile(r"^trust class +(\S+) \((\S+)\)$"),
    re.compile(r"^behavior P +(\S+) \((\S+), class (\S+), f=(\S+)\)$"),
)


def check_infer(result, fmt: str, want: dict) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit code {code}, expected 0 ({err.strip()[:120]})"
    try:
        if fmt == "json":
            doc = json.loads(out)
            got = [doc["trust_percent"], doc["trust_class"], doc["behavior_percent"], doc["behavior_percent_raw"],
                   doc["behavior_class"], doc["direction"]]
            rules = [(r["name"], r["certainty"], r["rating"], r["trust"], r["weight"]) for r in doc["rules"]]
        else:
            lines = out.split("\n")
            trust = _INFER_LINES[0].match(lines[2])[1]
            cls = _INFER_LINES[1].match(lines[3])
            beh = _INFER_LINES[2].match(lines[4])
            if cls[2] != ref.SHORT.get(cls[1]):
                return f"class {cls[1]} printed with short form {cls[2]}"
            got = [trust, cls[1], beh[1], beh[1], beh[3], beh[2]]
            if lines[6] != "rule activations:":
                return "rule activation table missing"
            rules = [line.split() for line in lines[8:] if line]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{fmt} output not readable: {type(exc).__name__}: {exc}"
    trust, cls, p, p_raw, band, direction = got
    if not near(trust, want["T"], 2):
        return f"trust {trust!r}, reference {want['T']!r}"
    if not (ref.class_ok([want["T"]], [cls])[0] and ref.band_ok([want["T"]], [band])[0]
            and ref.direction_ok([want["T"]], [want["f"]], [direction])[0]):
        return f"class/band/direction {cls}/{band}/{direction} differ from the reference at T = {want['T']!r}"
    if not (near(p, want["P"], 2) and (fmt != "json" or near(p_raw, want["P_raw"], 2))):
        return f"behavior P {p!r}, reference {want['P']!r}"
    return _check_rules(rules, want["rules"])


def check_fam(result, fmt: str, table: str, c: float, t: float) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit code {code}, expected 0 ({err.strip()[:120]})"
    cell = ref.fam_lookup(table, c, t)
    if fmt == "json":
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return f"json output not readable: {exc}"
        got = doc.get("class") if doc.get("table") == table and doc.get("c") == c and doc.get("t") == t else None
    else:
        got = out.rstrip("\n")
    return None if got == cell else f"FAM {table}({c}, {t}) = {got!r}, reference {cell!r}"


# ---------------------------------------------------------------------------
# case studies

def case_study_reference(which: str) -> list[tuple]:
    """Expected checks: (row, field, expected, actual or set of actuals, status)."""
    if which == "case2":
        t, c, f = ref.CASE2["t"], ref.CASE2["c"], ref.CASE2["f"]
        trust = float(ref.trust_percent(t, c))
        p = float(ref.behavior(trust, f)[0])
        return [
            ("W", "T", ref.CASE2["T"], trust, "pass" if abs(trust - ref.CASE2["T"]) <= 0.005 else "fail"),
            ("W", "P", ref.CASE2["P"], p, "pass" if abs(p - ref.CASE2["P"]) <= 0.005 else "fail"),
            ("W", "FAM(people20)", ref.CASE2["fam20"], ref.fam_lookup("people20", c, t * 5.0), "info"),
        ]
    checks = []
    for row, (t, c, f, e, trust, classes, direction) in ref.CASE1_ROWS.items():
        got = {key: float(value[0]) for key, value in _readouts([(t, c, f)]).items()}
        for field, expected in (("t", t), ("c", c), ("f", f), ("E", e), ("T", trust)):
            status = "pass" if abs(got[field] - expected) <= ref.CASE1_TOL[field] else "fail"
            checks.append((row, field, expected, got[field], status))
        short = {ref.SHORT[k] for k in ref.trust_classes(got["T"])}
        checks.append((row, "class", "/".join(classes), short, "pass" if short <= set(classes) else "fail"))
        dirs = {d for d in ("higher", "lower", "balanced") if ref.direction_ok([got["T"]], [f], [d])[0]}
        checks.append((row, "P direction", direction, dirs, "pass" if dirs == {direction} else "fail"))
        checks.append((row, "|P|", None, abs(got["P"]), "info"))
    return checks


def _same(printed, value, decimals: int = 4) -> bool:
    if value is None:
        return True
    if isinstance(value, set):
        return printed in value
    if isinstance(value, str):
        return printed == value
    return near(printed, value, decimals)


def _check_case_rows(rows: list, want: list) -> str | None:
    if len(rows) != len(want):
        return f"{len(rows)} case-study checks printed, reference has {len(want)}"
    for got, (row, field, expected, actual, status) in zip(rows, want):
        if got[0] != row or got[1] != field:
            return f"check {got[:2]} where the reference has {(row, field)}"
        if not (_same(got[2], expected) and _same(got[3], actual)):
            return f"check {row}/{field}: printed {got[2]!r}/{got[3]!r}, reference {expected!r}/{actual!r}"
        if got[4].lower() != status:
            return f"check {row}/{field}: status {got[4]!r}, reference {status!r}"
    return None


def check_case_study(result, fmt: str, which: str) -> str | None:
    code, out, err = result
    want = case_study_reference(which)
    failed = sum(1 for w in want if w[4] == "fail")
    graded = sum(1 for w in want if w[4] != "info")
    expected_code = 1 if failed else 0
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    try:
        if fmt == "json":
            doc = json.loads(out)
            if doc["name"] != which or doc["passed"] != (failed == 0):
                return "case-study name or verdict differs from the reference"
            rows = [(c["row"], c["field"], c["expected"], c["actual"], c["status"]) for c in doc["checks"]]
        elif fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))
            rows = [(r[0], r[1], r[2], r[3], r[6]) for r in table[1:]]
        else:
            lines = out.split("\n")
            if lines[0] != f"case study {which}":
                return "case-study title missing"
            body = [line for line in lines if line and not line.startswith((" ", "note:", "case study", "result:"))]
            rows = [tuple(re.split(r" {2,}", line.strip())) for line in body[1:]]
            rows = [(r[0], r[1], r[2], r[3], r[6]) for r in rows]
            verdict = f"result: {graded - failed}/{graded} checks within tolerance" + (
                f", {failed} FAILED" if failed else "")
            if verdict not in lines:
                return f"verdict line {verdict!r} missing"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{fmt} output not readable: {type(exc).__name__}: {exc}"
    return _check_case_rows(rows, want)

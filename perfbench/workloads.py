"""Seeded input generators for the three benchmark workloads.

A run is a series of *passes*.  Every pass follows the same *plan*, drawn
from ``random.Random(f"{workload}:{seed}")``: the list of operation
positions with each one's kind, size, output format and flags.  The content
of each position (component values, names, NOT placement, points) is drawn
afresh for every pass from ``random.Random(f"{workload}:{seed}:{pass}")``.
So the same seed gives the same inputs, no input repeats inside a run (a
result cache in the program cannot hide work), and position j costs about
the same in every pass, which lets the benchmark take each position's
fastest pass as its latency.

Sizes are drawn stratified over their ranges (one uniform draw in each of
n equal strata), so a plan covers each range evenly, two seeds cost nearly
the same, and no size is a fixed grid value.

The program sees only the generated scenario files (written into the run's
work directory) or the generated points.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import check
import reference as ref

FORMATS = ("table", "json", "csv")
NOT_MODES = ("paper", "preserve-certainty")


@dataclass
class Op:
    """One operation of a pass: a CLI invocation or one fuzzy point."""

    argv: list[str] | None = None
    point: tuple[float, float, float] | None = None  # (c, t', step)
    check: Callable[[object], str | None] = lambda result: None
    nodes: int = 0  # formula nodes this operation hands to the parser


@dataclass
class Scenario:
    tree: tuple
    components: list  # [(name, ("evidence", r, s, N, w, f) | ("direct", t, c, f))], document order
    preserve_certainty: bool
    doc: dict = field(default_factory=dict)

    def leaves(self) -> dict:
        """Reference (t, c, f) of every component, in document order."""
        return {name: ref.from_evidence(*spec[1:]) if spec[0] == "evidence" else spec[1:]
                for name, spec in self.components}


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw in each of n equal strata of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def spread(rng: random.Random, n: int, choices) -> list:
    """n items cycling through ``choices``, shuffled: exact shares per pass."""
    items = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# formula text

_AND = (" & ", " & ", " & ", " AND ", " and ")
_OR = (" | ", " | ", " | ", " OR ", " or ")
_NOT = ("!", "!", "NOT ", "not ")
_SYMBOL = {"and": " & ", "or": " | "}


def render(tree, rng: random.Random | None = None) -> str:
    """Formula text for a tree.  With ``rng``, vary keyword spelling and add
    redundant parentheses; the parsed tree is the same either way."""
    def leaf(node):
        return f"({node[1]})" if rng and rng.random() < 0.05 else node[1]

    def unary(node, child):
        if node[1][0] in ("and", "or"):
            child = f"({child})"
        return (rng.choice(_NOT) if rng else "!") + child

    def binary(node, left, right):
        kind, right_kind = node[0], node[2][0]
        if kind == "and" and node[1][0] == "or":
            left = f"({left})"
        if right_kind in ("and", "or") and (kind == "and" or right_kind == "or"):
            right = f"({right})"
        elif rng and right_kind == "and" and rng.random() < 0.3:
            right = f"({right})"
        return left + (rng.choice(_AND if kind == "and" else _OR) if rng else _SYMBOL[kind]) + right

    return ref.fold(tree, leaf, unary, binary)[-1]


def _chain(kind: str, terms: list):
    node = terms[0]
    for term in terms[1:]:
        node = (kind, node, term)
    return node


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _valid(scenario: Scenario) -> bool:
    """No operator of the reference model leaves its domain, with margin."""
    try:
        values = ref.evaluate(scenario.tree, scenario.leaves(), scenario.preserve_certainty)
    except ref.ReferenceDomainError:
        return False
    return all(1e-300 < f < 1.0 - 1e-9 for _, _, f in values)


# ---------------------------------------------------------------------------
# components

_LETTERS = "ABDEFGHJKLMPQRSUVWXYZ"


def _component(rng: random.Random, defaults: dict, f_range: tuple[float, float]):
    """(reference spec, JSON entry as written) for one component: evidence or
    direct form, half each."""
    d_f = defaults.get("f", 0.5)
    if rng.random() < 0.5:
        raw: dict = {}
        n_max = defaults["N"]
        if rng.random() < 0.2:
            n_max = raw["N"] = rng.randint(5, 60)
        k = rng.randint(0, n_max)
        raw["r"] = rng.randint(0, k)
        raw["s"] = k - raw["r"]
        if rng.random() < 0.3:
            raw["w"] = round(rng.uniform(0.5, 2.0), 3)
        if rng.random() < 0.3:
            raw["f"] = round(rng.uniform(*f_range), 3)
        return ("evidence", raw["r"], raw["s"], n_max, raw.get("w", defaults.get("w", 1.0)), raw.get("f", d_f)), raw
    raw = {"t": round(rng.uniform(0.0, 1.0), 3), "c": round(rng.uniform(0.05, 1.0), 3)}
    if rng.random() < 0.4:
        raw["f"] = round(rng.uniform(*f_range), 3)
    return ("direct", raw["t"], raw["c"], raw.get("f", d_f)), raw


def _defaults(rng: random.Random, f_range) -> dict:
    defaults = {"N": rng.randint(5, 60)}
    if rng.random() < 0.3:
        defaults["w"] = round(rng.uniform(0.5, 2.0), 3)
    if rng.random() < 0.5:
        defaults["f"] = round(rng.uniform(*f_range), 3)
    return defaults


def _scenario(rng, names, build_tree, preserve: bool, f_range, fancy: bool) -> Scenario:
    """Draw trees and inputs until the reference model is defined everywhere."""
    while True:
        tree = build_tree()
        defaults = _defaults(rng, f_range)
        components = [(name, *_component(rng, defaults, f_range)) for name in names]
        rng.shuffle(components)
        scenario = Scenario(tree, [(name, spec) for name, spec, _ in components], preserve)
        if _valid(scenario):
            scenario.doc = {
                "formula": render(tree, rng if fancy else None),
                "defaults": defaults,
                "components": {name: raw for name, _, raw in components},
            }
            return scenario


def _assess_op(workdir: str, position: int, scenario: Scenario, fmt: str, argv_extra: list[str],
               indent: int | None = None) -> Op:
    path = _write(workdir, f"op{position}.json", json.dumps(scenario.doc, indent=indent))

    def verify(result, scenario=scenario, fmt=fmt):
        return check.check_assess(result, fmt, check.assess_reference(scenario))

    return Op(argv=["assess", path, "--format", fmt] + argv_extra, check=verify,
              nodes=len(ref.post_order(scenario.tree)))




# ---------------------------------------------------------------------------
# scenario-fleet

def _fleet_tree(rng: random.Random, names: list[str]):
    """Case-1-like: redundant singles, pairs and triples in series, some NOTs."""
    def leaf(name):
        node = ("leaf", name)
        return ("not", node) if rng.random() < 0.1 else node

    terms, i = [], 0
    while i < len(names):
        size = min(rng.choice((1, 2, 2, 3, 3)), len(names) - i)
        # mostly a redundant group; sometimes a series block nested on the right
        group = _chain("or" if rng.random() < 0.9 else "and", [leaf(n) for n in names[i:i + size]])
        if size > 1 and rng.random() < 0.1:
            group = ("not", group)
        terms.append(group)
        i += size
    return _chain("and", terms)


def _fleet_assess(rng, workdir, position, size, fmt, mode, explicit_mode, indent) -> Op:
    names = [f"{rng.choice(_LETTERS)}{j}" for j in range(size)]
    scenario = _scenario(rng, names, lambda: _fleet_tree(rng, names), mode == "preserve-certainty",
                         (0.2, 0.8), fancy=True)
    flags = ["--not-mode", mode] if explicit_mode else []
    return _assess_op(workdir, position, scenario, fmt, flags, indent)


def _error_doc(rng: random.Random, kind: str, defect: str) -> tuple[str, tuple[str, ...], int]:
    """A malformed document: (file text, expected message fragments, nodes parsed)."""
    names = [f"{rng.choice(_LETTERS)}{i}" for i in range(rng.randint(3, 8))]
    comps = {n: {"t": round(rng.random(), 3), "c": round(rng.uniform(0.05, 1.0), 3)} for n in names}
    good = render(_chain("and", [("leaf", n) for n in names]), rng)
    if kind == "syntax":
        # the defect follows an em space (3 bytes in UTF-8), so the byte
        # offset differs from the character index
        head = f"{names[0]}\u2003& {names[1]}"
        text, at = {
            "double": (f"{head} & & {names[2]}", len(head) + 3),
            "char": (f"{head} # {names[2]}", len(head) + 1),
            "trailing": (f"{head} &", len(head) + 2),
            "extra": (f"{head} {names[2]}", len(head) + 1),
        }[defect]
        offset = len(text[:at].encode("utf-8"))
        return json.dumps({"formula": text, "components": comps}), (f"at byte offset {offset}",), 0
    if kind == "unbound":
        ghost = f"Q{len(names) + rng.randint(0, 99)}"
        return (json.dumps({"formula": f"{good} & {ghost}", "components": comps}),
                ("unbound component", ghost), 2 * len(names) + 1)
    if kind == "overflow":
        n_max, extra = rng.randint(5, 40), rng.randint(1, 10)
        comps[rng.choice(names)] = {"r": n_max, "s": extra, "N": n_max}
        return (json.dumps({"formula": good, "components": comps}),
                ("evidence overflow", f"r + s = {n_max + extra}", f"N = {n_max}"), 0)
    dup = rng.choice(names)  # a duplicate key in the components object
    body = json.dumps({"formula": good, "components": comps})
    text = body[:-2] + f", {json.dumps(dup)}: {json.dumps({'t': 0.5, 'c': 0.5})}" + body[-2:]
    return text, ("duplicate key", repr(dup)), 0


def _fleet_error(rng, workdir, position, kind, defect, fmt) -> Op:
    text, fragments, nodes = _error_doc(rng, kind, defect)
    path = _write(workdir, f"op{position}.json", text)
    return Op(argv=["assess", path, "--format", fmt], nodes=nodes,
              check=lambda result: check.check_error(result, fragments))


def _case_study(rng, workdir, position, which, fmt) -> Op:
    nodes = len(ref.post_order(ref.CASE1_FORMULA)) if which == "case1" else 1
    return Op(argv=["case-study", which, "--format", fmt], nodes=nodes,
              check=lambda result: check.check_case_study(result, fmt, which))


def _fam(rng, workdir, position, fmt) -> Op:
    c, t = round(rng.uniform(0.0, 1.0), 3), round(rng.uniform(1.0, 5.0), 3)
    return Op(argv=["fam", "people100", "--c", repr(c), "--t", repr(t), "--format", fmt],
              check=lambda result: check.check_fam(result, fmt, "people100", c, t))


def _infer(rng, workdir, position, fmt, with_f) -> Op:
    c, t = round(rng.uniform(0.0, 1.0), 3), round(rng.uniform(1.0, 5.0), 3)
    argv = ["infer", "--c", repr(c), "--t", repr(t), "--explain", "--format", fmt]
    f = 0.5
    if with_f:
        f = round(rng.uniform(0.2, 0.8), 3)
        argv += ["--f", repr(f)]
    want = check.infer_reference(c, t, f)
    return Op(argv=argv, check=lambda result: check.check_infer(result, fmt, want))


def fleet_plan(rng: random.Random, tiny: bool = False) -> list:
    """Small assess runs, malformed documents, case studies, FAM and infer."""
    n_assess, n_err, n_each = (24, 1, 2) if tiny else (320, 4, 8)
    formats = spread(rng, n_assess, FORMATS)
    modes = spread(rng, n_assess, NOT_MODES)
    sizes = stratified(rng, n_assess, 4, 41)
    plan = [
        partial(_fleet_assess, size=int(sizes[i]), fmt=formats[i], mode=modes[i],
                explicit_mode=modes[i] != "paper" or rng.random() < 0.5, indent=rng.choice((None, 2)))
        for i in range(n_assess)
    ]
    for kind in spread(rng, 4 * n_err, ("syntax", "unbound", "overflow", "duplicate")):
        plan.append(partial(_fleet_error, kind=kind, defect=rng.choice(("double", "char", "trailing", "extra")),
                            fmt=rng.choice(FORMATS)))
    plan += [partial(_case_study, which=w, fmt=rng.choice(FORMATS)) for w in spread(rng, n_each, ("case1", "case2"))]
    plan += [partial(_fam, fmt=rng.choice(("table", "json"))) for _ in range(n_each)]
    plan += [partial(_infer, fmt=rng.choice(("table", "json")), with_f=rng.random() < 0.5) for _ in range(n_each)]
    rng.shuffle(plan)
    return plan


# ---------------------------------------------------------------------------
# topology-large

def _balanced(rng: random.Random, names: list[str], not_density: float, first: str):
    """Balanced tree, AND and OR alternating by level, NOTs at the given density."""
    other = "or" if first == "and" else "and"

    def maybe_not(node):
        return ("not", node) if rng.random() < not_density else node

    level = [maybe_not(("leaf", n)) for n in names]
    depth = 0
    while len(level) > 1:
        kind = first if depth % 2 else other
        nxt = [maybe_not((kind, level[i], level[i + 1])) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        depth += 1
    return level[0]


def _topology_op(rng, workdir, position, shape, size, mode, density=0.0, first="and") -> Op:
    prefix = rng.choice(_LETTERS) + rng.choice(_LETTERS)  # fresh formula text in every pass
    names = [f"{prefix}{j}" for j in range(2 * size if shape == "pairs" else size)]

    def build():
        if shape == "chain":
            return _chain("and", [("leaf", n) for n in names])
        if shape == "pairs":
            return _chain("and", [("or", ("leaf", a), ("leaf", b)) for a, b in zip(names[::2], names[1::2])])
        return _balanced(rng, names, density, first)

    scenario = _scenario(rng, names, build, mode == "preserve-certainty", (0.4, 0.9), fancy=False)
    return _assess_op(workdir, position, scenario, "json", ["--not-mode", mode])


def topology_plan(rng: random.Random, tiny: bool = False) -> list:
    """Left-deep chains, pairs in series and balanced trees, round robin."""
    per_shape, scale = (1, 0.05) if tiny else (10, 1.0)
    chains = stratified(rng, per_shape, 300 * scale, 601 * scale)
    pairs = stratified(rng, per_shape, 30 * scale, 301 * scale)
    trees = stratified(rng, per_shape, 2000 * scale, 4001 * scale)
    not_densities = stratified(rng, per_shape, 0.0, 0.3)
    plan = []
    for i in range(per_shape):
        mode = NOT_MODES[i % 2]
        plan.append(partial(_topology_op, shape="chain", size=int(chains[i]), mode=mode))
        plan.append(partial(_topology_op, shape="pairs", size=int(pairs[i]), mode=mode))
        plan.append(partial(_topology_op, shape="tree", size=int(trees[i]), mode=mode,
                            density=not_densities[i], first=rng.choice(("and", "or"))))
    return plan


# ---------------------------------------------------------------------------
# fuzzy-sweep

_C_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0)
_T_EDGES = (1.0, 1.5, 2.0, 3.0, 4.0, 4.25, 4.5, 5.0)


def _point(rng, workdir, position, kind, step) -> Op:
    if kind == "grid":
        c_grid, t_grid, _ = ref.FAM_GRIDS[rng.choice(("people20", "people100"))]
        c, t = rng.choice(c_grid), rng.choice(t_grid)
    elif kind == "edge":
        c, t = rng.choice(_C_EDGES), rng.choice(_T_EDGES)
    elif kind == "case2":
        c, t = 1.0, 3.75
    else:
        c, t = rng.uniform(0.0, 1.0), rng.uniform(1.0, 5.0)
    return Op(point=(c, t, step))


def fuzzy_plan(rng: random.Random, tiny: bool = False) -> list:
    """Uniform points on [0,1]x[1,5], with shares on FAM grid points, on class
    range edges and at the case-2 point; one point in ten at step 0.01."""
    n = 60 if tiny else 1000
    kinds = spread(rng, n, ["uniform"] * 88 + ["grid"] * 5 + ["edge"] * 5 + ["case2"] * 2)
    steps = spread(rng, n, [0.1] * 9 + [0.01])
    return [partial(_point, kind=k, step=s) for k, s in zip(kinds, steps)]


def _attach_readout_checks(ops: list[Op]) -> None:
    """Reference trust for all points at once (vectorised), then one check per point."""
    trust = {}
    for step in {op.point[2] for op in ops}:
        chosen = [i for i, op in enumerate(ops) if op.point[2] == step]
        values = ref.mamdani([ops[i].point[0] for i in chosen], [ops[i].point[1] for i in chosen], step)
        trust.update(zip(chosen, values.tolist()))
    for i, op in enumerate(ops):
        op.check = partial(check_readout, point=op.point, trust=trust[i])


def check_readout(result, point, trust: float) -> str | None:
    """One point's fuzzy readout: trust, class, behavior at f = 0.5, two FAM cells."""
    c, t, _ = point
    got_trust, label, p, p_raw, band, direction, fam20, fam100 = result
    if abs(got_trust - trust) > 1e-9:
        return f"infer_trust{point} = {got_trust!r}, reference {trust!r}"
    want_p, want_raw = ref.behavior(got_trust, 0.5)
    if not ref.class_ok([trust], [label])[0]:
        return f"classify_trust({got_trust}) = {label}, reference {sorted(ref.trust_classes(trust))}"
    if abs(p - want_p) > 1e-9 or abs(p_raw - want_raw) > 1e-9:
        return f"behavioral_probability({got_trust}, 0.5) = {p!r}, reference {want_p!r}"
    if not (ref.band_ok([trust], [band])[0] and ref.direction_ok([trust], [0.5], [direction])[0]):
        return f"behavior band/direction {band}/{direction} differ from the reference at T = {trust!r}"
    if fam20 != ref.fam_lookup("people20", c, t) or fam100 != ref.fam_lookup("people100", c, t):
        return f"FAM cells {fam20}/{fam100} at {point[:2]} differ from the reference"
    return None


# ---------------------------------------------------------------------------

PLANS = {"scenario-fleet": fleet_plan, "topology-large": topology_plan, "fuzzy-sweep": fuzzy_plan}


def make_pass(name: str, seed: int, index: int, workdir: str, tiny: bool = False) -> list[Op]:
    """The operations of pass ``index``: the seed's plan with fresh content."""
    plan = PLANS[name](random.Random(f"{name}:{seed}"), tiny)
    content = random.Random(f"{name}:{seed}:{index}")
    ops = [step(content, workdir, position) for position, step in enumerate(plan)]
    if name == "fuzzy-sweep":
        _attach_readout_checks(ops)
    return ops


def warmup(name: str, workdir: str) -> Op:
    """The fixed, seed-independent operation that ends a workload's set-up."""
    rng = random.Random(f"warmup:{name}")
    if name == "fuzzy-sweep":
        ops = [Op(point=(0.5, 3.0, 0.1))]
        _attach_readout_checks(ops)
        return ops[0]
    if name == "topology-large":
        return _topology_op(rng, workdir, 0, "chain", 300, "paper")
    return _fleet_assess(rng, workdir, 0, 12, "json", "paper", False, None)

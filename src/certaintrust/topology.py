"""Propositional system topologies and their trust assessment.

A system's redundancy structure is written as a propositional formula over
component names, e.g. ``(A1 | A2) & (B1 | B2)`` for a server that needs one
of two app servers and one of two database servers.  The formula is parsed
into an AST and evaluated by folding the opinion operators over per-component
opinions, giving the composite opinion of the whole system.

Grammar (whitespace insignificant)::

    formula  := or_expr
    or_expr  := and_expr (("|" | "OR") and_expr)*
    and_expr := unary (("&" | "AND") unary)*
    unary    := ("!" | "NOT") unary | atom
    atom     := IDENT | "(" or_expr ")"
    IDENT    := [A-Za-z][A-Za-z0-9_]*

Keywords are case-insensitive; NOT binds tighter than AND, which binds
tighter than OR; AND and OR associate to the left.

A scenario bundles a formula with its component inputs -- either raw
evidence counts or direct ``(t, c, f)`` opinions -- and assessment produces
opinions, expectation values, trust percentages, behavioral probabilities
and linguistic classes for every component, every subexpression and the
system root.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

from .errors import (
    DomainError,
    EvaluationError,
    FormulaSyntaxError,
    ScenarioError,
    UnbalancedParenthesesError,
    UnboundComponentError,
)
from .fuzzy import FuzzyLabel, LinguisticVariable, classify_trust
from .opinions import (
    EvidenceRecord,
    NotMode,
    Opinion,
    TrustAssessment,
    behavioral_probability,
    derive_opinion,
    expectation,
    op_and,
    op_not,
    op_or,
    trust_percent,
)

__all__ = [
    "Formula",
    "Leaf",
    "Not",
    "And",
    "Or",
    "parse_formula",
    "unparse",
    "free_variables",
    "evaluate_formula",
    "ScenarioDefaults",
    "Scenario",
    "scenario_from_dict",
    "load_scenario",
    "Readout",
    "NodeAssessment",
    "SystemReport",
    "assess_system",
]


class Formula:
    """Base class of formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(Formula):
    name: str

    def __post_init__(self):
        if not self.name:
            raise FormulaSyntaxError("component name must be non-empty", 0)


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


_PRECEDENCE = {Or: 1, And: 2, Not: 3, Leaf: 4}


def _operand(text: str, child: Formula, bound: int) -> str:
    """Parenthesize an operand whose precedence falls below ``bound``."""
    return f"({text})" if _PRECEDENCE[type(child)] < bound else text


def _fold(
    formula: Formula,
    leaves: Mapping[str, Opinion] | None = None,
    not_mode: NotMode = NotMode.NEGATE_CERTAINTY,
):
    """One post-order pass: yield ``(node, path, text, opinion)`` per node.

    Children come before their parent; the root comes last.  Each node's
    text is built once from its children's texts with minimal parentheses,
    so ``parse(unparse(x)) == x``.  With ``leaves`` the opinion operators are
    folded along the way (an unbound leaf raises ``UnboundComponentError``, an
    operator domain failure ``EvaluationError``); without, every opinion is
    None.  The pass keeps an explicit stack, so depth is bounded by memory
    alone, and holds only the results still waiting for their parent.
    """
    pending: list[tuple[str, Opinion | None]] = []
    stack = [(formula, "root", False)]
    while stack:
        node, path, expanded = stack.pop()
        op = None
        if isinstance(node, Leaf):
            text = node.name
            if leaves is not None:
                try:
                    op = leaves[node.name]
                except KeyError:
                    raise UnboundComponentError(node.name) from None
        elif not isinstance(node, (Not, And, Or)):
            raise TypeError(f"not a formula node: {node!r}")
        elif not expanded:
            stack.append((node, path, True))
            if isinstance(node, Not):
                stack.append((node.child, f"{path}.operand", False))
            else:
                stack.append((node.right, f"{path}.right", False))
                stack.append((node.left, f"{path}.left", False))
            continue
        elif isinstance(node, Not):
            child_text, child_op = pending.pop()
            text = "!" + _operand(child_text, node.child, _PRECEDENCE[Not])
            if leaves is not None:
                op = op_not(child_op, not_mode)
        else:
            right_text, right_op = pending.pop()
            left_text, left_op = pending.pop()
            prec = _PRECEDENCE[type(node)]
            # left-associative: an equal-precedence right operand needs parens
            text = (
                f"{_operand(left_text, node.left, prec)} {'&' if isinstance(node, And) else '|'} "
                f"{_operand(right_text, node.right, prec + 1)}"
            )
            if leaves is not None:
                try:
                    op = op_and(left_op, right_op) if isinstance(node, And) else op_or(left_op, right_op)
                except DomainError as exc:
                    raise EvaluationError(str(exc), path, text) from exc
        pending.append((text, op))
        yield node, path, text, op


def free_variables(node: Formula) -> frozenset[str]:
    """The component names referenced by a formula."""
    names: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack += (node.left, node.right)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return frozenset(names)


def unparse(node: Formula) -> str:
    """Render a formula with minimal parentheses; parse(unparse(x)) == x."""
    return deque(_fold(node), maxlen=1).pop()[2]


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<not>!)
      | (?P<lparen>\()
      | (?P<rparen>\))
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not"}


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | and | or | not | lparen | rparen | end
    text: str
    offset: int  # byte offset into the source


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[index]!r}",
                _byte_offset(text, index),
                frozenset({"identifier", "'&'", "'|'", "'!'", "'('", "')'"}),
            )
        kind = match.lastgroup
        if kind != "ws":
            value = match.group()
            if kind == "ident" and value.casefold() in _KEYWORDS:
                kind = value.casefold()
            tokens.append(_Token(kind, value, _byte_offset(text, index)))
        index = match.end()
    tokens.append(_Token("end", "", _byte_offset(text, len(text))))
    return tokens


_TOKEN_NAMES = {
    "ident": "identifier",
    "and": "'&'",
    "or": "'|'",
    "not": "'!'",
    "lparen": "'('",
    "rparen": "')'",
    "end": "end of input",
}

_ATOM_EXPECTED = frozenset({"identifier", "'('", "'!'"})


class _Parser:
    """Recursive-descent parser over the token list; only parentheses recurse."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def match(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.index += 1
            return True
        return False

    def or_expr(self) -> Formula:
        node = self.and_expr()
        while self.match("or"):
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> Formula:
        node = self.unary()
        while self.match("and"):
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        negations = 0
        while self.match("not"):
            negations += 1
        node = self.atom()
        for _ in range(negations):
            node = Not(node)
        return node

    def atom(self) -> Formula:
        token = self.peek()
        if token.kind == "ident":
            self.advance()
            return Leaf(token.text)
        if token.kind == "lparen":
            open_token = self.advance()
            node = self.or_expr()
            closer = self.peek()
            if closer.kind != "rparen":
                raise UnbalancedParenthesesError(
                    f"unclosed '(' opened at byte offset {open_token.offset}",
                    closer.offset,
                    frozenset({"')'"}),
                )
            self.advance()
            return node
        if token.kind == "rparen":
            raise UnbalancedParenthesesError("unmatched ')'", token.offset, _ATOM_EXPECTED)
        raise FormulaSyntaxError(
            f"unexpected {_TOKEN_NAMES[token.kind]}", token.offset, _ATOM_EXPECTED
        )


def parse_formula(text: str) -> Formula:
    """Parse a topology formula; see the module docstring for the grammar."""
    if not text or not text.strip():
        raise FormulaSyntaxError("empty formula", 0, _ATOM_EXPECTED)
    parser = _Parser(_tokenize(text))
    try:
        node = parser.or_expr()
    except RecursionError:
        raise FormulaSyntaxError("parentheses nested too deeply", parser.peek().offset) from None
    trailing = parser.peek()
    if trailing.kind != "end":
        if trailing.kind == "rparen":
            raise UnbalancedParenthesesError("unmatched ')'", trailing.offset, frozenset({"end of input"}))
        raise FormulaSyntaxError(
            f"unexpected {_TOKEN_NAMES[trailing.kind]} after complete formula",
            trailing.offset,
            frozenset({"'&'", "'|'", "end of input"}),
        )
    return node


def evaluate_formula(
    node: Formula,
    leaves: Mapping[str, Opinion],
    not_mode: NotMode = NotMode.NEGATE_CERTAINTY,
) -> Opinion:
    """Fold the opinion operators over a formula, post-order.

    Raises ``UnboundComponentError`` for a leaf with no bound opinion and
    wraps operator domain failures into ``EvaluationError`` carrying the
    offending subexpression and its path.
    """
    return deque(_fold(node, leaves, not_mode), maxlen=1).pop()[3]


@dataclass(frozen=True)
class ScenarioDefaults:
    """Context parameters applied where a component omits them."""

    big_n: int | None = None
    w: float = 1.0
    f: float = 0.5


@dataclass(frozen=True)
class Scenario:
    """A topology formula plus the inputs of every referenced component."""

    formula: Formula
    components: Mapping[str, Union[EvidenceRecord, Opinion]]
    defaults: ScenarioDefaults = field(default_factory=ScenarioDefaults)

    def __post_init__(self):
        if not self.components:
            raise ScenarioError("scenario has no components", "components")
        unbound = sorted(free_variables(self.formula) - set(self.components))
        if unbound:
            raise ScenarioError(
                f"formula references unbound component(s): {', '.join(unbound)}", "formula"
            )


_EVIDENCE_KEYS = {"r", "s", "N", "w", "f"}
_DIRECT_KEYS = {"t", "c", "f"}


def _component_from_dict(name: str, raw: dict, defaults: ScenarioDefaults):
    where = f"components.{name}"
    if not isinstance(raw, dict):
        raise ScenarioError("component entry must be an object", where)
    keys = set(raw)
    has_evidence = bool(keys & {"r", "s"})
    has_direct = bool(keys & {"t", "c"})
    if has_evidence and has_direct:
        raise ScenarioError("evidence form (r, s) and direct form (t, c) are mutually exclusive", where)
    try:
        if has_evidence:
            unknown = keys - _EVIDENCE_KEYS
            if unknown:
                raise ScenarioError(f"unknown field(s) {sorted(unknown)}", where)
            if "r" not in raw or "s" not in raw:
                raise ScenarioError("evidence form needs both r and s", where)
            big_n = raw.get("N", defaults.big_n)
            if big_n is None:
                raise ScenarioError("no N given and no default N in the scenario", where)
            return EvidenceRecord(
                r=_as_count(raw["r"], f"{where}.r"),
                s=_as_count(raw["s"], f"{where}.s"),
                big_n=_as_count(big_n, f"{where}.N"),
                w=_as_number(raw.get("w", defaults.w), f"{where}.w"),
                f=_as_number(raw.get("f", defaults.f), f"{where}.f"),
            )
        if has_direct:
            unknown = keys - _DIRECT_KEYS
            if unknown:
                raise ScenarioError(f"unknown field(s) {sorted(unknown)}", where)
            if "t" not in raw or "c" not in raw:
                raise ScenarioError("direct form needs both t and c", where)
            return Opinion(
                t=_as_number(raw["t"], f"{where}.t"),
                c=_as_number(raw["c"], f"{where}.c"),
                f=_as_number(raw.get("f", defaults.f), f"{where}.f"),
            )
    except DomainError as exc:
        raise ScenarioError(str(exc), where) from exc
    raise ScenarioError("component must give either evidence (r, s) or a direct opinion (t, c)", where)


def _as_count(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"must be an integer, got {value!r}", where)
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"must be a number, got {value!r}", where)
    return float(value)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a scenario from its JSON document form.

    Document shape::

        {"formula": "<DSL string>",
         "defaults": {"N": ..., "w": ..., "f": ...},
         "components": {"A1": {"r": 5, "s": 2} | {"t": 0.714, "c": 0.724, "f": 0.5}, ...}}
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(doc) - {"formula", "defaults", "components"}
    if unknown:
        raise ScenarioError(f"unknown top-level field(s): {sorted(unknown)}")
    if "formula" not in doc:
        raise ScenarioError("missing required field", "formula")
    if not isinstance(doc["formula"], str):
        raise ScenarioError("must be a string", "formula")
    raw_defaults = doc.get("defaults", {})
    if not isinstance(raw_defaults, dict):
        raise ScenarioError("must be an object", "defaults")
    unknown = set(raw_defaults) - {"N", "w", "f"}
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)}", "defaults")
    defaults = ScenarioDefaults(
        big_n=_as_count(raw_defaults["N"], "defaults.N") if "N" in raw_defaults else None,
        w=_as_number(raw_defaults.get("w", 1.0), "defaults.w"),
        f=_as_number(raw_defaults.get("f", 0.5), "defaults.f"),
    )
    raw_components = doc.get("components")
    if not isinstance(raw_components, dict) or not raw_components:
        raise ScenarioError("must be a non-empty object", "components")
    components = {
        name: _component_from_dict(name, raw, defaults) for name, raw in raw_components.items()
    }
    return Scenario(formula=parse_formula(doc["formula"]), components=components, defaults=defaults)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} in scenario document")
        seen[key] = value
    return seen


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError("invalid JSON: arrays or objects nested too deeply") from None
    return scenario_from_dict(doc)


@dataclass(frozen=True)
class Readout:
    """Full metric readout for one component or for the system root.

    ``name`` is the component name, or the root's formula text.
    """

    name: str
    opinion: Opinion
    expectation: float
    trust_percent: float
    trust_class: FuzzyLabel
    behavior: TrustAssessment


@dataclass(frozen=True)
class NodeAssessment:
    """Opinion and expectation of one formula subexpression."""

    path: str
    expression: str
    opinion: Opinion
    expectation: float


@dataclass(frozen=True)
class SystemReport:
    components: tuple[Readout, ...]
    nodes: tuple[NodeAssessment, ...]
    root: Readout


def _readout(name: str, op: Opinion, trust_var: LinguisticVariable | None) -> Readout:
    t_pct = trust_percent(op)
    return Readout(
        name=name,
        opinion=op,
        expectation=expectation(op),
        trust_percent=t_pct,
        trust_class=classify_trust(t_pct, trust_var),
        behavior=behavioral_probability(t_pct, op.f),
    )


def assess_system(
    scenario: Scenario,
    not_mode: NotMode = NotMode.NEGATE_CERTAINTY,
    trust_var: LinguisticVariable | None = None,
) -> SystemReport:
    """Assess every component, every formula node and the system root.

    Behavioral probabilities are taken against each node's own initial
    expectation (composite priors emerge from the operator algebra, they are
    never user-supplied at internal nodes).
    """
    opinions = {
        name: derive_opinion(entry) if isinstance(entry, EvidenceRecord) else entry
        for name, entry in scenario.components.items()
    }
    components = tuple(_readout(name, op, trust_var) for name, op in opinions.items())
    nodes = tuple(
        NodeAssessment(path=path, expression=text, opinion=op, expectation=expectation(op))
        for _, path, text, op in _fold(scenario.formula, opinions, not_mode)
    )
    root = nodes[-1]
    return SystemReport(components=components, nodes=nodes, root=_readout(root.expression, root.opinion, trust_var))

"""Nested counterfactual formula language: parsing, printing, identifiability.

A formula describes the potential outcome of ``Y`` when the exposure and the
mediators of a declared causal structure are pinned to (possibly
counterfactual) values, e.g. ``Y(a, M1(a*), M2(a, M1(a*)))``.

Grammar (whitespace-insensitive)::

    formula  := 'Y' '(' exp (',' mspec)* ')'
    mspec    := fixed | 'M' INT '(' exp (',' mspec)* ')'
    exp      := 'a' '*'? | IDENT
    fixed    := 'm' INT '*' | IDENT

``a`` is the treatment level, ``a*`` the reference level, and any other
symbol (``a**``, ``acme``) an opaque named exposure level.  ``m1*``, ``m2*``
and other bare symbols in mediator position denote externally fixed mediator
levels.  The canonical rendering puts a single space after each comma.

Identifiability is decided syntactically: a formula is problematic exactly
when some mediator is pinned in two different ways anywhere in the tree, for
instance activated under both ``a`` and ``a*``, or fixed at ``m1*`` in one
slot while activated counterfactually inside another mediator's history.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

__all__ = [
    "ArityError",
    "CfExpr",
    "Conflict",
    "Counterfactual",
    "ExposureLevel",
    "Fixed",
    "IdentifiabilityVerdict",
    "MediatorSpec",
    "ParseError",
    "REFERENCE",
    "Scenario",
    "ScenarioKind",
    "TREATMENT",
    "UnknownMediatorError",
    "check_identifiability",
    "format_cf",
    "parse_cf",
    "validate_cf",
]

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\**")
_MEDIATOR_HEAD_RE = re.compile(r"M([0-9]+)\Z")


class ParseError(ValueError):
    """Formula does not conform to the grammar; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ArityError(ParseError):
    """A mediator spec carries the wrong number of parent specs."""


class UnknownMediatorError(ParseError):
    """A mediator index lies outside the declared structure."""


class ScenarioKind(Enum):
    SINGLE = "single"
    NONSEQ = "nonseq"
    CHAIN = "chain"


@dataclass(frozen=True)
class Scenario:
    """Declared mediator structure: one mediator, k parallel, or a k-chain.

    A chain declares the edges M1 -> M2 -> ... -> Mk and no other
    inter-mediator edges; a non-sequential scenario declares no
    inter-mediator edges at all.
    """

    kind: ScenarioKind
    k: int

    def __post_init__(self) -> None:
        if self.kind is ScenarioKind.SINGLE:
            if self.k != 1:
                raise ValueError("single-mediator scenario requires k = 1")
        elif self.k < 2:
            raise ValueError(f"{self.kind.value} scenario requires k >= 2, got {self.k}")

    @staticmethod
    def single() -> "Scenario":
        return Scenario(ScenarioKind.SINGLE, 1)

    @staticmethod
    def nonseq(k: int = 2) -> "Scenario":
        return Scenario(ScenarioKind.NONSEQ, k)

    @staticmethod
    def chain(k: int = 2) -> "Scenario":
        return Scenario(ScenarioKind.CHAIN, k)

    @property
    def id(self) -> str:
        """Stable textual id: ``single``, ``nonseq2``, ``seq2``, ``seq3``, ..."""
        if self.kind is ScenarioKind.SINGLE:
            return "single"
        if self.kind is ScenarioKind.NONSEQ:
            return f"nonseq{self.k}"
        return f"seq{self.k}"

    @staticmethod
    def from_id(text: str) -> "Scenario":
        """Inverse of `id`; also accepts ``chainK`` as an alias for ``seqK``."""
        ident = text.strip().lower()
        if ident == "single":
            return Scenario.single()
        m = re.fullmatch(r"(nonseq|seq|chain)([0-9]+)", ident)
        if m is None:
            raise ValueError(f"unknown scenario {text!r}; expected single, nonseqK, or seqK")
        kind, k = m.group(1), int(m.group(2))
        if kind == "nonseq":
            return Scenario.nonseq(k)
        return Scenario.chain(k)


@dataclass(frozen=True)
class ExposureLevel:
    """Exposure symbol: ``a`` (treatment), ``a*`` (reference), or a named label."""

    symbol: str

    def __post_init__(self) -> None:
        if _SYMBOL_RE.fullmatch(self.symbol) is None:
            raise ValueError(f"invalid exposure symbol {self.symbol!r}")


TREATMENT = ExposureLevel("a")
REFERENCE = ExposureLevel("a*")


@dataclass(frozen=True)
class Fixed:
    """Mediator held externally at a fixed level, e.g. ``m1*``."""

    label: str

    def __post_init__(self) -> None:
        if _SYMBOL_RE.fullmatch(self.label) is None:
            raise ValueError(f"invalid fixed-level label {self.label!r}")


@dataclass(frozen=True)
class Counterfactual:
    """Mediator taking its counterfactual value under `exposure`.

    In a chain scenario the spec for M_i carries exactly i-1 parent specs
    (its predecessors' histories, in order); elsewhere `parents` is empty.
    """

    exposure: ExposureLevel
    parents: tuple["MediatorSpec", ...] = ()


MediatorSpec = Union[Fixed, Counterfactual]


@dataclass(frozen=True)
class CfExpr:
    """AST of a nested counterfactual formula: Y's exposure plus one spec per mediator."""

    exposure: ExposureLevel
    mediators: tuple[MediatorSpec, ...]


@dataclass(frozen=True)
class Conflict:
    """Distinct ways mediator `mediator` is pinned, rendered canonically."""

    mediator: int
    specs: tuple[str, ...]


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    conflicts: tuple[Conflict, ...] = ()

    @property
    def identifiable(self) -> bool:
        return not self.conflicts

    @property
    def status(self) -> str:
        return "identifiable" if self.identifiable else "problematic"


# ---------------------------------------------------------------------------
# formatting


def _format_spec(spec: MediatorSpec, index: int) -> str:
    if isinstance(spec, Fixed):
        return spec.label
    inner = ", ".join(
        [spec.exposure.symbol]
        + [_format_spec(p, j) for j, p in enumerate(spec.parents, start=1)]
    )
    return f"M{index}({inner})"


def format_cf(expr: CfExpr) -> str:
    """Render `expr` canonically; ``parse_cf(format_cf(e))`` returns an equal AST."""
    inner = ", ".join(
        [expr.exposure.symbol]
        + [_format_spec(s, i) for i, s in enumerate(expr.mediators, start=1)]
    )
    return f"Y({inner})"


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class _Token:
    kind: str  # "symbol" | "(" | ")" | "," | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _SYMBOL_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append(_Token("symbol", m.group(0), i))
        i = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, scenario: Scenario):
        self.tokens = _tokenize(text)
        self.scenario = scenario
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {what}, found {found}", tok.pos)
        return tok

    def parse(self) -> CfExpr:
        head = self.expect("symbol", "'Y'")
        if head.text != "Y":
            raise ParseError(f"expected 'Y', found {head.text!r}", head.pos)
        self.expect("(", "'('")
        exposure = self.parse_exposure()
        mediators: list[MediatorSpec] = []
        while self.peek().kind == ",":
            self.next()
            slot = len(mediators) + 1
            mediators.append(self.parse_mspec(slot))
        close = self.expect(")", "')' or ','")
        tail = self.next()
        if tail.kind != "end":
            raise ParseError(f"trailing input {tail.text!r}", tail.pos)
        if len(mediators) != self.scenario.k:
            raise ArityError(
                f"expected {self.scenario.k} mediator spec(s) for scenario "
                f"{self.scenario.id}, found {len(mediators)}",
                close.pos,
            )
        return CfExpr(exposure, tuple(mediators))

    def parse_exposure(self) -> ExposureLevel:
        tok = self.expect("symbol", "an exposure symbol")
        return ExposureLevel(tok.text)

    def parse_mspec(self, slot: int) -> MediatorSpec:
        tok = self.expect("symbol", "a mediator spec")
        head = _MEDIATOR_HEAD_RE.fullmatch(tok.text)
        if head is not None and self.peek().kind == "(":
            index = int(head.group(1))
            if not 1 <= index <= self.scenario.k:
                raise UnknownMediatorError(
                    f"M{index} does not exist in scenario {self.scenario.id}", tok.pos
                )
            if index != slot:
                raise ParseError(
                    f"M{index} cannot appear in the M{slot} slot", tok.pos
                )
            self.next()  # "("
            exposure = self.parse_exposure()
            parents: list[MediatorSpec] = []
            while self.peek().kind == ",":
                self.next()
                parents.append(self.parse_mspec(len(parents) + 1))
            close = self.expect(")", "')' or ','")
            expected = index - 1 if self.scenario.kind is ScenarioKind.CHAIN else 0
            if len(parents) != expected:
                raise ArityError(
                    f"M{index} takes {expected} parent spec(s) in scenario "
                    f"{self.scenario.id}, found {len(parents)}",
                    close.pos,
                )
            return Counterfactual(exposure, tuple(parents))
        return Fixed(tok.text)


def parse_cf(text: str, scenario: Scenario) -> CfExpr:
    """Parse a counterfactual formula against a declared mediator structure.

    Parameters
    ----------
    text : str
        Formula such as ``"Y(a, M1(a*), M2(a, M1(a*)))"``.  Whitespace is
        ignored everywhere outside symbols.
    scenario : Scenario
        Structure the formula must fit: slot count equals ``scenario.k`` and,
        in a chain, the spec for M_i carries exactly i-1 parent specs.

    Returns
    -------
    CfExpr

    Raises
    ------
    ParseError
        On a syntax error (the offending position is reported), a mediator
        spec appearing in the wrong slot, or — via the `ArityError` and
        `UnknownMediatorError` subclasses — a wrong parent count or an index
        outside the structure.
    """
    return _Parser(text, scenario).parse()


def validate_cf(expr: CfExpr, scenario: Scenario) -> None:
    """Check a hand-built AST by parsing its rendering against `scenario`.

    Raises what ``parse_cf(format_cf(expr), scenario)`` raises: the message
    names a position in that text, and a counterfactual mediator beyond slot
    ``scenario.k`` is an `UnknownMediatorError`.
    """
    parse_cf(format_cf(expr), scenario)


# ---------------------------------------------------------------------------
# identifiability


def check_identifiability(expr: CfExpr, scenario: Scenario) -> IdentifiabilityVerdict:
    """Decide identifiability of a well-formed formula, syntactically.

    Every occurrence of mediator i's spec is collected: its top-level slot
    plus every appearance as a parent inside later mediators' histories,
    recursively.  The formula is identifiable iff each mediator is pinned in
    exactly one way — all occurrences syntactically identical, and never a
    fixed level in one place with a counterfactual activation elsewhere.
    Formulas with every mediator fixed are identifiable.  The rule is
    structural, so the verdict is a pure function of `expr`.
    """
    occurrences: dict[int, list[MediatorSpec]] = {}

    def visit(spec: MediatorSpec, index: int) -> None:
        occurrences.setdefault(index, []).append(spec)
        if isinstance(spec, Counterfactual):
            for j, parent in enumerate(spec.parents, start=1):
                visit(parent, j)

    for i, spec in enumerate(expr.mediators, start=1):
        visit(spec, i)

    conflicts: list[Conflict] = []
    for index in sorted(occurrences):
        distinct: list[MediatorSpec] = []
        for spec in occurrences[index]:
            if spec not in distinct:
                distinct.append(spec)
        if len(distinct) > 1:
            conflicts.append(
                Conflict(index, tuple(_format_spec(s, index) for s in distinct))
            )
    return IdentifiabilityVerdict(tuple(conflicts))

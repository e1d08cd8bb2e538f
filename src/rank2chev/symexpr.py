"""Tiny exact expression language for the table and witness data files.

Expressions are sums/products of integers, rationals and named symbols
(q1..q6 for p-power exponents, c4..c6 for free coefficients), e.g.

    (q1+q3)/3      2*q1      -1/2      (1/2)*(c5-3*c4)      c4*(c4-3)

Values are polynomials with Fraction coefficients over the symbols,
represented as {exponent-dict-as-sorted-tuple: Fraction}.  Evaluation at a
symbol assignment produces an exact Fraction.

A comparison ``lhs OP rhs``, OP one of ``COMPARISONS``, is a rule: the case
tables' p-constraints (``>=5`` is the rule ``p>=5``) and the witness
guards (``p>2``, ``q1=2q3``) are rules.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Mapping

SymPoly = dict  # {tuple[(symbol, exponent), ...]: Fraction}


def poly_const(c) -> SymPoly:
    c = Fraction(c)
    return {(): c} if c else {}


def poly_sym(name: str) -> SymPoly:
    return {((name, 1),): Fraction(1)}


def poly_add(a: SymPoly, b: SymPoly) -> SymPoly:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_neg(a: SymPoly) -> SymPoly:
    return {k: -v for k, v in a.items()}


def poly_mul(a: SymPoly, b: SymPoly) -> SymPoly:
    out: SymPoly = {}
    for k1, v1 in a.items():
        d1 = dict(k1)
        for k2, v2 in b.items():
            d = dict(d1)
            for sym, e in k2:
                d[sym] = d.get(sym, 0) + e
            key = tuple(sorted(d.items()))
            s = out.get(key, Fraction(0)) + v1 * v2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def poly_div(a: SymPoly, b: SymPoly) -> SymPoly:
    if list(b.keys()) not in ([()], []):
        raise ValueError("division only by constants")
    c = b.get((), Fraction(0))
    if not c:
        raise ZeroDivisionError("division by zero in expression")
    return {k: v / c for k, v in a.items()}


def poly_eval(a: SymPoly, env: Mapping[str, object]) -> Fraction:
    total = Fraction(0)
    for k, v in a.items():
        term = v
        for sym, e in k:
            if sym not in env:
                raise ValueError(f"symbol {sym} unassigned")
            term *= Fraction(env[sym]) ** e
        total += term
    return total


def poly_symbols(a: SymPoly) -> set[str]:
    return {sym for k in a for sym, _ in k}


def poly_is_zero(a: SymPoly) -> bool:
    return not a


class ExprError(ValueError):
    pass


# a name (a letter, then letters, digits or _) and a number, each after
# optional whitespace
_NAME = re.compile(r"\s*([^\W\d_]\w*)")
_NUMBER = re.compile(r"\s*(\d+)")


class Parser:
    """Recursive-descent reader of the data language; the witness module
    and vector syntax is read on the same tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ExprError(f"{msg} at {self.pos} in {self.text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _token(self, pattern: re.Pattern, what: str) -> str:
        m = pattern.match(self.text, self.pos)
        if not m:
            self.peek()
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(1)

    def ident(self) -> str:
        return self._token(_NAME, "a name")

    def number(self) -> int:
        return int(self._token(_NUMBER, "a number"))

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def end(self):
        if self.peek():
            self.error("trailing input")

    def expr(self) -> SymPoly:
        ch = self.peek()
        neg = False
        if ch in ("+", "-"):
            neg = ch == "-"
            self.pos += 1
        out = self.term()
        if neg:
            out = poly_neg(out)
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                out = poly_add(out, self.term())
            elif ch == "-":
                self.pos += 1
                out = poly_add(out, poly_neg(self.term()))
            else:
                return out

    def term(self) -> SymPoly:
        out = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                out = poly_mul(out, self.factor())
            elif ch == "/":
                self.pos += 1
                out = poly_div(out, self.factor())
            elif ch == "(" or ch.isalpha():
                # implicit multiplication: 2q1, (1/2)c5, c4(c4-3)
                out = poly_mul(out, self.factor())
            else:
                return out

    def factor(self) -> SymPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            self.expect(")")
            return out
        if ch.isdigit():
            return poly_const(self.number())
        return poly_sym(self.ident())


def parse_expr(text: str) -> SymPoly:
    parser = Parser(text)
    out = parser.expr()
    parser.end()
    return out


# longer operators first, so ">=" is not read as ">"
COMPARISONS = {
    ">=": operator.ge,
    "<=": operator.le,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    "=": operator.eq,
}

Rule = tuple  # (operator, lhs SymPoly, rhs SymPoly)


def parse_comparison(text: str) -> Rule:
    """(op, lhs, rhs) of a comparison such as "p>=5" or "q1=2q3"."""
    parser = Parser(text)
    lhs = parser.expr()
    parser.peek()
    op = next((op for op in COMPARISONS if text.startswith(op, parser.pos)), None)
    if op is None:
        parser.error("expected a comparison")
    parser.pos += len(op)
    rhs = parser.expr()
    parser.end()
    return op, lhs, rhs


def rule_symbols(rule: Rule) -> set[str]:
    _, lhs, rhs = rule
    return poly_symbols(lhs) | poly_symbols(rhs)


def holds(rule: Rule, env: Mapping[str, object]) -> bool:
    op, lhs, rhs = rule
    return COMPARISONS[op](poly_eval(lhs, env), poly_eval(rhs, env))

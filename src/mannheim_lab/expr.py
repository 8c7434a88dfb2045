"""A small scalar-expression grammar for prescribing kappa(s) and tau(s).

Grammar (left-associative, ^ binds tightest and takes an unsigned integer
exponent):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)*
    atom   := number | 's' | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'sinh' | 'cosh' | 'exp'

There is no unary minus; write ``0 - x``.  Parse errors carry the byte
offset of the failure.  Evaluation is total on finite inputs except for
division by zero, overflow and math-domain errors, which raise
ExprDomainError naming the failing subexpression and ``s``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ExprDomainError, ExprSyntaxError

__all__ = ["Expr", "Num", "Var", "BinOp", "Func", "Pow", "parse_expr", "FUNCTIONS"]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "exp": math.exp,
}

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class Expr:
    """Base class of expression nodes."""

    def eval(self, s: float) -> float:
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError

    def _domain_error(self, s: float, exc: Exception) -> ExprDomainError:
        # pow's OverflowError carries (errno, message); keep the message
        return ExprDomainError(f"{self} is undefined at s={s!r} ({exc.args[-1]})")


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, s: float) -> float:
        return self.value

    def __str__(self) -> str:
        # repr round-trips doubles exactly; literals are never negative, so
        # the printed form stays inside the grammar
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    def eval(self, s: float) -> float:
        return s

    def __str__(self) -> str:
        return "s"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, s: float) -> float:
        a, b = self.left.eval(s), self.right.eval(s)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        try:
            return a / b
        except ZeroDivisionError as exc:
            raise self._domain_error(s, exc) from None

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr

    def eval(self, s: float) -> float:
        x = self.arg.eval(s)
        try:
            return FUNCTIONS[self.name](x)
        except (OverflowError, ValueError) as exc:
            raise self._domain_error(s, exc) from None

    def __str__(self) -> str:
        return f"{self.name}({self.arg})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def eval(self, s: float) -> float:
        x = self.base.eval(s)
        try:
            return x**self.exponent
        except OverflowError as exc:
            raise self._domain_error(s, exc) from None

    def __str__(self) -> str:
        return f"{self.base}^{self.exponent}"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        self.skip_ws()
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise self.error(f"expected {ch!r}")

    def parse(self) -> Expr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+" or ch == "-":
                self.pos += 1
                node = BinOp(ch, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*" or ch == "/":
                self.pos += 1
                node = BinOp(ch, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        node = self.atom()
        while self.take("^"):
            self.skip_ws()
            m = re.compile(r"\d+").match(self.text, self.pos)
            if not m:
                raise self.error("expected an unsigned integer exponent")
            self.pos = m.end()
            node = Pow(node, int(m.group()))
        return node

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()))
        if self.take("("):
            node = self.expr()
            self.expect(")")
            return node
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            if name == "s":
                self.pos = m.end()
                return Var()
            if name in FUNCTIONS:
                self.pos = m.end()
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Func(name, arg)
            raise self.error(f"unknown name {name!r}")
        raise self.error(f"unexpected character {self.peek()!r}")


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExprSyntaxError with the byte offset of the first failure.
    """
    return _Parser(text).parse()

"""A small scalar-expression grammar for prescribing kappa(s) and tau(s).

Grammar (left-associative, ^ binds tightest and takes an unsigned integer
exponent):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)*
    atom   := number | 's' | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'sinh' | 'cosh' | 'exp'

There is no unary minus; write ``0 - x``.  Parse errors carry the byte
offset of the failure.  Division by zero and the overflow and math-domain
errors of functions and ``^`` raise ExprDomainError naming the failing
subexpression and ``s``; ``+ - * /`` otherwise follow IEEE arithmetic and
may give inf or nan, which ``frenet_synthesize`` rejects.

``Expr.eval`` also takes a ``Jet2``, the identity jet at an array of
abscissae, and returns the value with its first two derivatives there in
one pass.  The error of a jet names the first failing abscissa, as
evaluating the abscissae one by one would.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError

__all__ = ["Expr", "Num", "Var", "BinOp", "Func", "Pow", "Jet2", "sqrt", "parse_expr", "FUNCTIONS"]

# Each function f with f' and the sign c of f'' = c f.
_JETS = {
    "sin": (math.sin, math.cos, -1.0),
    "cos": (math.cos, lambda x: -math.sin(x), -1.0),
    "sinh": (math.sinh, math.cosh, 1.0),
    "cosh": (math.cosh, math.sinh, 1.0),
    "exp": (math.exp, math.exp, 1.0),
}
FUNCTIONS = {name: f for name, (f, *_) in _JETS.items()}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _per_element(f, x):
    """``f`` of a float, or of each element of an array in Python floats."""
    if np.ndim(x) == 0:
        return f(x)
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _jet(x) -> Jet2:
    return x if isinstance(x, Jet2) else Jet2(x)


class Jet2:
    """A truncated order-2 Taylor number: value ``v``, derivatives ``d`` and ``dd``.

    Components are floats or arrays of one shape.  Values are the float
    operations', elementwise in scalar order (``sqrt`` is the correctly
    rounded ``np.sqrt``; ``**`` and functions run per element in Python
    floats), so they match scalar evaluation bit for bit on any CPU, and
    errors are the float ones.  With no ``__float__``, ``math.sin(jet)``
    raises TypeError.
    """

    __slots__ = ("v", "d", "dd")
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, v, d=0.0, dd=0.0):
        self.v, self.d, self.dd = v, d, dd

    def _chain(self, f0, f1, f2) -> Jet2:
        """f(self) from f, f' and f'' at the value: the chain rule to order 2."""
        return Jet2(f0, f1 * self.d, f2 * self.d * self.d + f1 * self.dd)

    def __add__(self, o) -> Jet2:
        o = _jet(o)
        return Jet2(self.v + o.v, self.d + o.d, self.dd + o.dd)

    def __sub__(self, o) -> Jet2:
        o = _jet(o)
        return Jet2(self.v - o.v, self.d - o.d, self.dd - o.dd)

    def __mul__(self, o) -> Jet2:
        o = _jet(o)
        dd = self.dd * o.v + 2.0 * (self.d * o.d) + self.v * o.dd
        return Jet2(self.v * o.v, self.d * o.v + self.v * o.d, dd)

    def __truediv__(self, o) -> Jet2:
        o = _jet(o)
        if np.any(o.v == 0.0):
            raise ZeroDivisionError("float division by zero")
        q = self.v / o.v
        d = (self.d - q * o.d) / o.v
        return Jet2(q, d, (self.dd - 2.0 * (d * o.d) - q * o.dd) / o.v)

    __radd__, __rmul__ = __add__, __mul__
    __rsub__ = lambda self, o: _jet(o) - self
    __rtruediv__ = lambda self, o: _jet(o) / self

    def __pow__(self, n: int) -> Jet2:
        if not isinstance(n, int) or n < 0:  # the grammar's exponents only
            return NotImplemented
        value, f1, f2 = (
            _per_element(lambda u: u**k, self.v) if k >= 0 else 0.0 for k in (n, n - 1, n - 2)
        )
        return self._chain(value, n * f1, n * (n - 1) * f2)

    def sqrt(self) -> Jet2:
        if np.any(self.v < 0.0):
            raise ValueError("math domain error")
        root = np.sqrt(self.v)
        return self._chain(root, 0.5 / root, -0.25 / (root * self.v))

    def func(self, name: str) -> Jet2:
        """The grammar function ``name`` of this jet."""
        f, derivative, sign = _JETS[name]
        value = _per_element(f, self.v)
        return self._chain(value, _per_element(derivative, self.v), sign * value)


def sqrt(x):
    """Square root of a float or a ``Jet2``."""
    return x.sqrt() if isinstance(x, Jet2) else math.sqrt(x)


class Expr:
    """Base class of expression nodes.

    ``eval`` takes a float or a ``Jet2`` and returns the same kind.  A node is
    immutable: its fields, the names in its class's ``__slots__``, are set
    once by position, and two nodes are equal when they are of one class
    with equal fields, so a tree compares by structure.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((type(self), self._fields()))

    def eval(self, s):
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError

    def _domain_error(self, s, exc: Exception) -> ExprDomainError:
        # On a jet, a later subexpression may fail at an earlier abscissa than
        # the one that raised: the error is the first of a one-by-one walk.
        if isinstance(s, Jet2):
            for row, x in enumerate(np.ravel(s.v).tolist()):
                try:
                    self.eval(x)
                except ExprDomainError as err:
                    err.row = row
                    return err
        if isinstance(exc, ExprDomainError):
            return exc
        # pow's OverflowError carries (errno, message); keep the message
        return ExprDomainError(f"{self} is undefined at s={s!r} ({exc.args[-1]})")


class Num(Expr):
    __slots__ = ("value",)

    def eval(self, s: float) -> float:
        return self.value

    def __str__(self) -> str:
        # repr round-trips doubles exactly; literals are never negative, so
        # the printed form stays inside the grammar
        return repr(self.value)


class Var(Expr):
    __slots__ = ()

    def eval(self, s: float) -> float:
        return s

    def __str__(self) -> str:
        return "s"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def eval(self, s: float) -> float:
        try:
            return _OPS[self.op](self.left.eval(s), self.right.eval(s))
        except (ZeroDivisionError, ExprDomainError) as exc:
            raise self._domain_error(s, exc) from None

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Func(Expr):
    __slots__ = ("name", "arg")

    def eval(self, s: float) -> float:
        try:
            x = self.arg.eval(s)
            return x.func(self.name) if isinstance(x, Jet2) else FUNCTIONS[self.name](x)
        except (OverflowError, ValueError, ExprDomainError) as exc:
            raise self._domain_error(s, exc) from None

    def __str__(self) -> str:
        return f"{self.name}({self.arg})"


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def eval(self, s: float) -> float:
        try:
            return self.base.eval(s) ** self.exponent
        except (OverflowError, ExprDomainError) as exc:
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

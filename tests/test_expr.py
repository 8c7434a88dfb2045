"""Expression grammar tests, including the independent reference parser.

The reference implementation below is a deliberately naive transcription of
the grammar (character-by-character recursive descent, no tokenizer, no
regular expressions) used as an accept/reject and evaluation oracle for the
fuzz corpus.
"""

import math
import random

import pytest

from mannheim_lab.errors import ExprDomainError, ExprSyntaxError, MannheimLabError
from mannheim_lab.expr import parse_expr

# ---------------------------------------------------------------------------
# reference oracle

_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "exp": math.exp,
}


class _Reject(Exception):
    pass


def _safe(fn, *args):
    """Fold arithmetic without letting blowups abort recognition."""
    try:
        return fn(*args)
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.nan


class _RefParser:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t\r\n\x0b\x0c":
            self.i += 1

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def expr(self):
        value = self.term()
        while True:
            self.ws()
            if self.peek() == "+":
                self.i += 1
                value = value + self.term()
            elif self.peek() == "-":
                self.i += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            self.ws()
            if self.peek() == "*":
                self.i += 1
                value = value * self.factor()
            elif self.peek() == "/":
                self.i += 1
                rhs = self.factor()
                value = _safe(lambda a, b: a / b, value, rhs) if rhs != 0 else (
                    math.inf if value > 0 else -math.inf if value < 0 else math.nan
                )
            else:
                return value

    def factor(self):
        value = self.atom()
        while True:
            self.ws()
            if self.peek() == "^":
                self.i += 1
                self.ws()
                digits = ""
                while self.peek().isdigit():
                    digits += self.peek()
                    self.i += 1
                if not digits:
                    raise _Reject
                value = _safe(lambda a, b: a**b, value, int(digits))
            else:
                return value

    def number(self):
        start = self.i
        while self.peek().isdigit():
            self.i += 1
        saw_int = self.i > start
        saw_frac = False
        if self.peek() == ".":
            mark = self.i
            self.i += 1
            frac_start = self.i
            while self.peek().isdigit():
                self.i += 1
            saw_frac = self.i > frac_start
            if not saw_int and not saw_frac:
                self.i = mark
        if not (saw_int or saw_frac):
            raise _Reject
        if self.peek() in "eE":
            mark = self.i
            self.i += 1
            if self.peek() in "+-":
                self.i += 1
            exp_start = self.i
            while self.peek().isdigit():
                self.i += 1
            if self.i == exp_start:
                self.i = mark
        return float(self.text[start:self.i])

    def atom(self):
        self.ws()
        ch = self.peek()
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch == "(":
            self.i += 1
            value = self.expr()
            self.ws()
            if self.peek() != ")":
                raise _Reject
            self.i += 1
            return value
        name = ""
        while self.peek().isalnum() or self.peek() == "_":
            name += self.peek()
            self.i += 1
        if name == "s":
            return self.s_value
        if name in _FUNCS:
            self.ws()
            if self.peek() != "(":
                raise _Reject
            self.i += 1
            value = self.expr()
            self.ws()
            if self.peek() != ")":
                raise _Reject
            self.i += 1
            return _safe(_FUNCS[name], value)
        raise _Reject

    def run(self, s_value):
        self.s_value = s_value
        value = self.expr()
        self.ws()
        if self.i != len(self.text):
            raise _Reject
        return value


def ref_eval(text, s_value):
    """Evaluate via the reference parser; None means reject, nan means the
    parse succeeded but the arithmetic blew up along the way."""
    try:
        return _RefParser(text).run(s_value)
    except _Reject:
        return None


# ---------------------------------------------------------------------------
# direct cases


def test_constant():
    assert parse_expr("2").eval(0.0) == 2.0


def test_precedence_and_function():
    e = parse_expr("1 + 0.1*sin(s)")
    assert e.eval(math.pi / 2) == pytest.approx(1.1, abs=1e-15)
    assert e.eval(0.0) == pytest.approx(1.0)


def test_unbalanced_paren_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("cosh(s^2")
    assert err.value.offset == 8


def test_left_associativity():
    assert parse_expr("8 - 3 - 2").eval(0.0) == 3.0
    assert parse_expr("16 / 4 / 2").eval(0.0) == 2.0


def test_power_binds_tightest_and_chains():
    assert parse_expr("2*s^2").eval(3.0) == 18.0
    assert parse_expr("s^2^3").eval(2.0) == 64.0  # (s^2)^3


def test_no_unary_minus():
    with pytest.raises(ExprSyntaxError):
        parse_expr("-2")
    assert parse_expr("0-2").eval(0.0) == -2.0


def test_unknown_name_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("tan(s)")


def test_error_offsets():
    for text, offset in [("", 0), ("1 +", 3), ("sin 3", 4), ("2 @ 3", 2)]:
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert err.value.offset == offset, text


def test_round_trip_through_str():
    # printing then reparsing reproduces the tree itself, not just values
    for text in [
        "1 + 0.1*sin(s)",
        "cosh(s)^2 - sinh(s)^2",
        "2/(1+s)",
        "exp(0-s)*3.5e2",
        "0.12345678901234567",
        "s^2^3",
    ]:
        tree = parse_expr(text)
        assert parse_expr(str(tree)) == tree


def test_division_by_zero_raises():
    e = parse_expr("1/s")
    with pytest.raises(ExprDomainError, match=r"\(1\.0 / s\) is undefined at s=0\.0"):
        e.eval(0.0)


@pytest.mark.parametrize(
    "text,s,node",
    [
        ("2 + exp(s*1000)", 0.75, "exp((s * 1000.0))"),
        ("cosh(s)^2 + (s*1e200)^2", 1.0, "(s * 1e+200)^2"),
        ("1 + 1/(s - 0.5)^2", 0.5, "(1.0 / (s - 0.5)^2)"),
        ("sin(exp(s)*exp(s))", 600.0, "sin((exp(s) * exp(s)))"),
    ],
)
def test_domain_errors_name_the_failing_node(text, s, node):
    with pytest.raises(ExprDomainError) as err:
        parse_expr(text).eval(s)
    assert str(err.value).startswith(f"{node} is undefined at s={s!r} (")
    assert isinstance(err.value, MannheimLabError)


# ---------------------------------------------------------------------------
# fuzz comparison (the full 10^4 corpus runs in the acceptance suite)


def make_fuzz_corpus(n, seed=20240901):
    rng = random.Random(seed)
    atoms = ["s", "1", "2", "0.5", "3.25", "10", ".5", "2e3", "1.5e-2"]
    funcs = ["sin", "cos", "sinh", "cosh", "exp"]

    def grow(depth):
        r = rng.random()
        if depth <= 0 or r < 0.35:
            return rng.choice(atoms)
        if r < 0.55:
            return f"{rng.choice(funcs)}({grow(depth - 1)})"
        if r < 0.70:
            return f"({grow(depth - 1)})"
        if r < 0.82:
            return f"{grow(depth - 1)}^{rng.randint(0, 4)}"
        op = rng.choice("+-*/")
        return f"{grow(depth - 1)}{rng.choice(['', ' '])}{op}{rng.choice(['', ' '])}{grow(depth - 1)}"

    noise = "0123456789.+-*/^()se coshinexp_@#,"
    corpus = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.45:
            text = grow(rng.randint(1, 4))
        elif kind < 0.8:
            text = grow(rng.randint(1, 3))
            # mutate: insert, delete or replace one character
            if text:
                op = rng.randint(0, 2)
                pos = rng.randrange(len(text) + (op == 0))
                if op == 0:
                    text = text[:pos] + rng.choice(noise) + text[pos:]
                elif op == 1:
                    text = text[:pos] + text[pos + 1 :]
                else:
                    text = text[:pos] + rng.choice(noise) + text[pos + 1 :]
        else:
            text = "".join(rng.choice(noise) for _ in range(rng.randint(0, 14)))
        corpus.append(text)
    return corpus


def run_fuzz_comparison(n, seed=20240901):
    """Compare accept/reject and values; returns (n_accepted, n_rejected)."""
    eval_points = (0.0, 0.37, -1.25, 2.0)
    accepted = rejected = 0
    for text in make_fuzz_corpus(n, seed):
        try:
            tree = parse_expr(text)
            ours = tree
        except ExprSyntaxError:
            ours = None
        ref_accepts = ref_eval(text, 0.0) is not None
        if ours is None:
            assert not ref_accepts, f"oracle accepts, parser rejects: {text!r}"
            rejected += 1
            continue
        assert ref_accepts, f"parser accepts, oracle rejects: {text!r}"
        accepted += 1
        for s in eval_points:
            try:
                mine = ours.eval(s)
            except ExprDomainError:
                continue
            theirs = ref_eval(text, s)
            if theirs is None or not math.isfinite(theirs) or not math.isfinite(mine):
                continue
            scale = max(1.0, abs(mine), abs(theirs))
            assert abs(mine - theirs) <= 1e-15 * scale, (text, s, mine, theirs)
    return accepted, rejected


def test_fuzz_small():
    accepted, rejected = run_fuzz_comparison(1500)
    # both classes must actually be exercised
    assert accepted > 300
    assert rejected > 300

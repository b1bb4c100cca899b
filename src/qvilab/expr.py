"""Small arithmetic expression language for problem data.

Hamiltonians, terminal payoffs, impulse costs and bump terms enter the
library as infix strings over a declared variable set (t, x1..xn, p1..pn,
xi1..xin, plus whatever extra names a caller admits).  The grammar is
deliberately tiny:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative
    atom   := NUMBER | NAME | NAME '(' expr {',' expr} ')' | '(' expr ')'

so '^' binds above '*' and '/', which bind above binary '+' and '-', and a
unary minus binds tighter than a binary minus ("-a - b" is "(-a) - b").
Exponentiation is right associative: "2^3^2" is 2^(3^2) = 512.

Numbers are decimal literals with optional scientific notation; one that
overflows a float is a ParseError.  Functions: exp, log, sqrt, abs, sin,
cos, sign (one argument) and min, max (two).

Nesting is bounded by MAX_DEPTH, twice over: an expression is at most
MAX_DEPTH levels deep, where every operator and function call adds one
level to each leaf below it ("2*(x1 + 1)" is two levels deep), and at most
MAX_DEPTH parentheses are open at any point, a call's own included.
Deeper text is a ParseError.  The bound keeps the parser and every walk
over a parsed tree (evaluation, printing, hashing, `variables`, `degree`)
far below Python's recursion limit, and `to_source` of a parsed tree
stays within it.

Evaluation works elementwise on floats or numpy arrays and either returns a
finite result or raises DomainError naming the offending operation and the
first offending argument value.  ASTs are immutable; `to_source` prints a
fully parenthesized form that reparses to an equivalent tree.  `variables`
and `degree` answer questions about a tree's shape, so no other module
needs to know the node types.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UndeclaredVariableError(ExprError):
    def __init__(self, name, pos, allowed):
        allowed_list = ", ".join(sorted(allowed)) if allowed else "(none)"
        super().__init__(
            f"undeclared variable '{name}' (at position {pos}); declared: {allowed_list}"
        )
        self.name = name
        self.pos = pos


class DomainError(ExprError):
    def __init__(self, op, value):
        super().__init__(f"domain error in '{op}' for argument {value!r}")
        self.op = op
        self.value = value


# ----------------------------------------------------------------- AST ----

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


_UNARY_FUNCS = ("exp", "log", "sqrt", "abs", "sin", "cos", "sign")
_BINARY_FUNCS = ("min", "max")
FUNCTION_NAMES = _UNARY_FUNCS + _BINARY_FUNCS

# The parser spends five stack frames per open parenthesis (six for a
# call) and at most two per other level, each tree walk one per level: 50
# of each stay under 400 of the default recursion limit of 1000.  The
# deepest shipped expression, the separating example's bump, is 10 deep.
MAX_DEPTH = 50

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace before complaining
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad_at]!r}", bad_at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent over the tokens.  Each parse_* method returns the
    node it read and its depth, in levels as the module docstring counts
    them.  `level` counts the operators and calls, and `parens` the
    parentheses, open around the current token, so text nested too deep
    is refused before the recursion goes deeper."""

    def __init__(self, tokens, allowed_vars):
        self.tokens = tokens
        self.i = 0
        self.allowed = frozenset(allowed_vars)
        self.level = 0
        self.parens = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected '{symbol}'", pos)
        return self.advance()

    def bounded(self, depth, pos):
        """`depth` of a node read at this level, if the levels open around
        it leave room for it."""
        if self.level + depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels",
                             pos)
        return depth

    def enter(self, pos):
        self.level += 1
        self.bounded(0, pos)

    def open_paren(self, pos):
        self.parens += 1
        if self.parens > MAX_DEPTH:
            raise ParseError(f"more than {MAX_DEPTH} parentheses open", pos)

    def parse_expr(self):
        node, depth = self.parse_term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right, right_depth = self.parse_term()
                node = Bin(text, node, right)
                depth = self.bounded(max(depth, right_depth) + 1, pos)
            else:
                return node, depth

    def parse_term(self):
        node, depth = self.parse_unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right, right_depth = self.parse_unary()
                node = Bin(text, node, right)
                depth = self.bounded(max(depth, right_depth) + 1, pos)
            else:
                return node, depth

    def parse_unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.enter(pos)
            arg, depth = self.parse_unary()
            self.level -= 1
            return Neg(arg), depth + 1
        return self.parse_power()

    def parse_power(self):
        base, depth = self.parse_atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            self.enter(pos)
            expo, expo_depth = self.parse_unary()
            self.level -= 1
            return Bin("^", base, expo), self.bounded(max(depth, expo_depth) + 1, pos)
        return base, depth

    def parse_atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} overflows a float", pos)
            return Num(value), 0
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                return self.parse_call(text, pos)
            if text in FUNCTION_NAMES:
                raise ParseError(f"function '{text}' needs an argument list", pos)
            if text not in self.allowed:
                raise UndeclaredVariableError(text, pos, self.allowed)
            return Var(text), 0
        if kind == "op" and text == "(":
            self.open_paren(pos)
            node = self.parse_expr()
            self.expect_op(")")
            self.parens -= 1
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)

    def parse_call(self, func, pos):
        if func not in FUNCTION_NAMES:
            raise ParseError(f"unknown function '{func}'", pos)
        self.expect_op("(")
        self.open_paren(pos)
        self.enter(pos)
        args = [self.parse_expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.parse_expr())
            else:
                break
        self.expect_op(")")
        self.level -= 1
        self.parens -= 1
        want = 1 if func in _UNARY_FUNCS else 2
        if len(args) != want:
            raise ParseError(f"function '{func}' takes {want} argument(s), got {len(args)}", pos)
        return (Call(func, tuple(node for node, _ in args)),
                max(depth for _, depth in args) + 1)


def parse(source, allowed_vars=()):
    """Parse `source` into an immutable AST.

    Raises ParseError on malformed input, a literal that overflows a
    float, or nesting deeper than MAX_DEPTH, and UndeclaredVariableError
    for any name outside `allowed_vars` (function names are always
    reserved).
    """
    parser = _Parser(_tokenize(source), allowed_vars)
    node, _ = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", pos)
    return node


# ----------------------------------------------------------- evaluation ----

def _first_offender(values, mask):
    values, mask = np.broadcast_arrays(np.asarray(values, dtype=float), mask)
    idx = np.argwhere(mask)
    if idx.size == 0:
        return float(np.ravel(values)[0]) if values.size else float("nan")
    return float(values[tuple(idx[0])])


def _check_finite(result, op, argument):
    bad = ~np.isfinite(result)
    if np.any(bad):
        raise DomainError(op, _first_offender(argument, bad))
    return result


def _eval_power(base, expo):
    base = np.asarray(base, dtype=float)
    expo = np.asarray(expo, dtype=float)
    # the masks, np.power and _first_offender all broadcast, so the exponent
    # is never spread to the base's shape: a constant exponent costs one
    # scalar test, and each base test runs only where it can fail
    fractional = np.mod(expo, 1.0) != 0.0
    if np.any(fractional):
        neg_frac = (base < 0.0) & fractional
        if np.any(neg_frac):
            raise DomainError("^", _first_offender(base, neg_frac))
    negative = expo < 0.0
    if np.any(negative) and np.any((base == 0.0) & negative):
        raise DomainError("^", 0.0)
    with np.errstate(all="ignore"):
        out = np.power(base, expo)
    return _check_finite(out, "^", base)


def evaluate(node, env):
    """Evaluate an AST against an environment of floats or numpy arrays.

    Array values broadcast elementwise.  Returns a numpy array, or a plain
    float when every input is scalar.  numpy's floating-point warnings are
    off: an operation whose result is not finite raises DomainError.
    """
    with np.errstate(all="ignore"):
        out = _eval(node, env)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UndeclaredVariableError(node.name, -1, env.keys()) from None
    if isinstance(node, Neg):
        return np.negative(_eval(node.arg, env))
    if isinstance(node, Bin):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        if node.op == "+":
            return _check_finite(np.add(left, right), "+", left)
        if node.op == "-":
            return _check_finite(np.subtract(left, right), "-", left)
        if node.op == "*":
            return _check_finite(np.multiply(left, right), "*", left)
        if node.op == "/":
            zero = np.asarray(right, dtype=float) == 0.0
            if np.any(zero):
                raise DomainError("/", 0.0)
            return _check_finite(np.divide(left, right), "/", left)
        if node.op == "^":
            return _eval_power(left, right)
        raise ExprError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        return _eval_call(node.func, args)
    raise ExprError(f"unknown node {node!r}")


def _eval_call(func, args):
    a = np.asarray(args[0], dtype=float)
    if func == "exp":
        return _check_finite(np.exp(a), "exp", a)
    if func == "log":
        bad = a <= 0.0
        if np.any(bad):
            raise DomainError("log", _first_offender(a, bad))
        return np.log(a)
    if func == "sqrt":
        bad = a < 0.0
        if np.any(bad):
            raise DomainError("sqrt", _first_offender(a, bad))
        return np.sqrt(a)
    if func == "abs":
        return np.abs(a)
    if func == "sin":
        return np.sin(a)
    if func == "cos":
        return np.cos(a)
    if func == "sign":
        return np.sign(a)
    if func == "min":
        return np.minimum(a, args[1])
    if func == "max":
        return np.maximum(a, args[1])
    raise ExprError(f"unknown function {func!r}")


# -------------------------------------------------------------- printing ----

def to_source(node):
    """Print a fully parenthesized form that reparses to an equivalent AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.arg)})"
    if isinstance(node, Bin):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    raise ExprError(f"unknown node {node!r}")


def variables(node):
    """Set of variable names appearing in the AST."""
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.arg)
    if isinstance(node, Bin):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= variables(a)
        return out
    raise ExprError(f"unknown node {node!r}")


def degree(node, names):
    """Degree of the expression in the variables `names`, by its structure.

    0 when it reads none of them; 1 when it is affine in them: built from
    sums, differences, negations, products with at most one factor that
    reads them, and quotients by a term that reads none.  None otherwise,
    for instance a power or a function of a term that reads them.
    """
    if isinstance(node, Num):
        return 0
    if isinstance(node, Var):
        return int(node.name in names)
    if isinstance(node, Neg):
        return degree(node.arg, names)
    if isinstance(node, Bin):
        left, right = degree(node.left, names), degree(node.right, names)
        if left is None or right is None:
            return None
        if node.op in ("+", "-"):
            return max(left, right)
        if node.op == "*":
            return left + right if left + right <= 1 else None
        if node.op == "/":
            return left if right == 0 else None
        return 0 if left == right == 0 else None  # "^"
    if isinstance(node, Call):
        args = [degree(a, names) for a in node.args]
        return 0 if all(d == 0 for d in args) else None
    raise ExprError(f"unknown node {node!r}")

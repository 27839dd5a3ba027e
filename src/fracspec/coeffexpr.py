"""Tiny arithmetic expressions for coefficient functions.

Config files carry k(x), b(x), c(x), f(x) as strings like "exp(x)" or
"piecewise(0.5; 2; 1)".  This module parses them into immutable ASTs that
evaluate on scalars or numpy arrays and can report their jump locations so
quadrature can split at them.  sample and breaks_of are the one way the rest
of the package evaluates any coefficient, parsed or a plain callable.

Grammar (whitespace insignificant):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | primary ('^' factor)?
    primary := number | 'x' | ident '(' args ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so "-x^2"
means -(x^2).  Functions: sin, cos, exp, log, sqrt, abs, and
piecewise(x0; left; right), which selects left for x < x0 and right for
x >= x0.  The breakpoint x0 must be a constant expression.
"""

from __future__ import annotations

import math

import numpy as np

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

_MAX_DEPTH = 400

# numbers are written in ASCII digits, though float() reads other digits too
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    """Syntax or arity problem, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Domain failure during evaluation, naming the offending subexpression."""


class Expr:
    """Parsed expression node.  Calling it evaluates at scalar or array x."""

    def eval(self, x: float) -> float:
        return float(self(np.asarray([x], dtype=float))[0])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def breakpoints(self) -> list[float]:
        """Sorted distinct piecewise breakpoints lying strictly inside (0,1)."""
        out = set()
        self._collect_breaks(out)
        return sorted(b for b in out if 0.0 < b < 1.0)

    def _collect_breaks(self, out: set):
        pass

    def pretty(self) -> str:
        """Canonical rendering; parse(e.pretty()) reproduces the same tree."""
        return self._fmt(0)

    def _fmt(self, ctx: int) -> str:
        raise NotImplementedError


def _checked(node: Expr, fn, *args) -> np.ndarray:
    """fn(*args), where a floating-point hazard or a non-finite value is an
    EvalError naming node; gradual underflow is harmless."""
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise", under="ignore"):
            v = fn(*args)
    except FloatingPointError as exc:
        raise EvalError(f"domain error evaluating '{node.pretty()}': {exc}") from None
    if not np.isfinite(v).all():
        raise EvalError(f"non-finite value from '{node.pretty()}'")
    return v


def _wrap(s: str, prec: int, ctx: int) -> str:
    return f"({s})" if prec < ctx else s


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def __call__(self, x):
        return np.full(np.shape(x), self.value)

    def _fmt(self, ctx):
        return repr(self.value)


class Var(Expr):
    def __call__(self, x):
        return np.asarray(x, dtype=float)

    def _fmt(self, ctx):
        return "x"


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child

    def __call__(self, x):
        return -self.child(x)

    def _collect_breaks(self, out):
        self.child._collect_breaks(out)

    def _fmt(self, ctx):
        return _wrap("-" + self.child._fmt(3), 3, ctx)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def __call__(self, x):
        return _checked(self, _OPS[self.op], self.left(x), self.right(x))

    def _collect_breaks(self, out):
        self.left._collect_breaks(out)
        self.right._collect_breaks(out)

    def _fmt(self, ctx):
        p = self._PREC[self.op]
        if self.op == "^":
            s = self.left._fmt(5) + "^" + self.right._fmt(p)
        else:
            s = self.left._fmt(p) + self.op + self.right._fmt(p + 1)
        return _wrap(s, p, ctx)


class Call(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        self.name = name
        self.arg = arg

    def __call__(self, x):
        return _checked(self, _FUNCS[self.name], self.arg(x))

    def _collect_breaks(self, out):
        self.arg._collect_breaks(out)
        if self.name == "abs":
            # abs(c0 + c1 x) has its kink where the argument changes sign
            line = _affine(self.arg)
            if line is not None and line[1] != 0.0:
                out.add(-line[0] / line[1])

    def _fmt(self, ctx):
        return f"{self.name}({self.arg._fmt(0)})"


class Piecewise(Expr):
    __slots__ = ("x0", "left", "right")

    def __init__(self, x0: float, left: Expr, right: Expr):
        self.x0 = x0
        self.left = left
        self.right = right

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        mask = x < self.x0
        # evaluate each branch only where it is selected, so a domain
        # hazard in the inactive branch cannot fire
        if mask.any():
            out[mask] = np.broadcast_to(self.left(x[mask]), x[mask].shape)
        if (~mask).any():
            out[~mask] = np.broadcast_to(self.right(x[~mask]), x[~mask].shape)
        return out

    def _collect_breaks(self, out):
        out.add(self.x0)
        self.left._collect_breaks(out)
        self.right._collect_breaks(out)

    def _fmt(self, ctx):
        return f"piecewise({self.x0!r}; {self.left._fmt(0)}; {self.right._fmt(0)})"


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0
        self.x_reads = 0  # occurrences of x parsed so far

    def _error(self, message: str, pos=None) -> ParseError:
        """A ParseError at the UTF-8 byte offset of pos, by default self.pos."""
        pos = self.pos if pos is None else pos
        return ParseError(message, len(self.src[:pos].encode("utf-8")))

    def _scan(self, accept) -> str:
        """Advance past the characters accept(ch) holds for; returns them."""
        start = self.pos
        while self.pos < len(self.src) and accept(self.src[self.pos]):
            self.pos += 1
        return self.src[start : self.pos]

    def _peek(self) -> str:
        self._scan(str.isspace)
        return self.src[self.pos : self.pos + 1]

    def _take(self, chars: str) -> str:
        """The next non-space character if it is one of chars, consumed; else ''."""
        ch = self._peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        return ""

    def _expect(self, ch: str):
        if not self._take(ch):
            found = self._peek() or "end of input"
            raise self._error(f"expected '{ch}', found '{found}'")

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self._error("expression too deeply nested")

    def parse(self) -> Expr:
        if not self._peek():
            raise self._error("empty expression")
        e = self.expr()
        if self._peek():
            raise self._error(f"unexpected trailing input '{self._peek()}'")
        return e

    # expr and factor count nesting depth; a ParseError ends the parse, so
    # only a normal return steps back out
    def expr(self) -> Expr:
        self._enter()
        e = self.term()
        while op := self._take("+-"):
            e = BinOp(op, e, self.term())
        self.depth -= 1
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self._take("*/"):
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        self._enter()
        if self._take("-"):
            e = Neg(self.factor())
        else:
            e = self.primary()
            if self._take("^"):
                e = BinOp("^", e, self.factor())
        self.depth -= 1
        return e

    def primary(self) -> Expr:
        ch = self._peek()
        start = self.pos
        if self._take("("):
            e = self.expr()
            self._expect(")")
            return e
        if ch in _DIGITS or ch == ".":
            return self.number()
        if not (ch.isalpha() or ch == "_"):
            raise self._error(f"expected a value, found '{ch or 'end of input'}'")
        name = self._scan(lambda c: c.isalnum() or c == "_")
        if name == "x":
            self.x_reads += 1
            return Var()
        if not self._take("("):
            raise self._error(f"unknown identifier '{name}'", start)
        if name == "piecewise":
            return self.piecewise(start)
        if name not in _FUNCS:
            raise self._error(f"unknown function '{name}'", start)
        arg = self.expr()
        if self._peek() in (";", ","):
            raise self._error(f"'{name}' takes exactly one argument")
        self._expect(")")
        return Call(name, arg)

    def piecewise(self, start: int) -> Expr:
        x_reads_before = self.x_reads
        x0_expr = self.expr()
        x0_reads_x = self.x_reads != x_reads_before
        self._expect(";")
        left = self.expr()
        self._expect(";")
        right = self.expr()
        if self._peek() == ";":
            raise self._error("'piecewise' takes exactly three ';'-separated arguments")
        self._expect(")")
        if x0_reads_x:
            raise self._error("piecewise breakpoint must be a constant expression", start)
        try:
            x0 = x0_expr.eval(0.0)
        except EvalError as exc:
            msg = f"piecewise breakpoint failed to fold: {exc}"
            raise self._error(msg, start) from None
        return Piecewise(x0, left, right)

    def number(self) -> Expr:
        start = self.pos
        self._scan(_DIGITS.__contains__)
        if self.src.startswith(".", self.pos):
            self.pos += 1
            self._scan(_DIGITS.__contains__)
        if self.src.startswith(("e", "E"), self.pos):
            mark = self.pos
            self.pos += 1
            if self.src.startswith(("+", "-"), self.pos):
                self.pos += 1
            if not self._scan(_DIGITS.__contains__):
                self.pos = mark  # bare 'e' belongs to a following identifier error
        text = self.src[start : self.pos]
        try:
            value = float(text)
        except ValueError:
            raise self._error(f"bad number '{text}'", start) from None
        if not math.isfinite(value):
            raise self._error(f"number '{text}' overflows", start)
        return Num(value)


def _affine(e: Expr):
    """(c0, c1) with e(x) = c0 + c1 x when e is built from numbers, x,
    negation, + and -, and * or / by a constant; None otherwise."""
    if isinstance(e, Num):
        return e.value, 0.0
    if isinstance(e, Var):
        return 0.0, 1.0
    if isinstance(e, Neg):
        inner = _affine(e.child)
        return None if inner is None else (-inner[0], -inner[1])
    if not isinstance(e, BinOp) or e.op == "^":
        return None
    left, right = _affine(e.left), _affine(e.right)
    if left is None or right is None:
        return None
    (a0, a1), (b0, b1) = left, right
    if e.op == "+":
        return a0 + b0, a1 + b1
    if e.op == "-":
        return a0 - b0, a1 - b1
    if e.op == "*" and a1 == 0.0:
        return a0 * b0, a0 * b1
    if e.op == "*" and b1 == 0.0:
        return a0 * b0, a1 * b0
    if e.op == "/" and b1 == 0.0 and b0 != 0.0:
        return a0 / b0, a1 / b0
    return None


def parse(src: str) -> Expr:
    """Parse a coefficient expression; raises ParseError with a byte offset."""
    if not isinstance(src, str):
        raise ParseError("expression source must be text", 0)
    return _Parser(src).parse()


def breaks_of(fn) -> list[float]:
    """Breakpoints of a coefficient strictly inside (0,1); [] for a callable
    that reports none."""
    bp = getattr(fn, "breakpoints", None)
    if callable(bp):
        return [x for x in bp() if 0.0 < x < 1.0]
    return []


def sample(fn, x: np.ndarray) -> np.ndarray:
    """A coefficient's values at the points x, as a float array shaped like x.

    fn is called once on the whole array.  A callable that accepts only
    scalars (TypeError or ValueError) is evaluated point by point, and a
    constant result is broadcast.  An EvalError is a domain failure of the
    coefficient itself and propagates at once; a NaN or infinite value is
    one too, an EvalError naming the first point that gives it.
    """
    try:
        vals = np.asarray(fn(x), dtype=float)
    except EvalError:
        raise
    except (TypeError, ValueError):
        vals = np.array([float(fn(xi)) for xi in x])
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape).astype(float)
    finite = np.isfinite(vals)
    if not finite.all():
        i = np.argmin(finite)  # the first non-finite value
        raise EvalError(f"coefficient is {vals.flat[i]} at x = {x.flat[i]:.17g}")
    return vals

"""Small arithmetic expression language for coefficient functions.

Grammar (highest precedence first):

    power   :=  primary ['^' unary]          # right-associative exponent
    unary   :=  '-' unary | power
    term    :=  unary (('*' | '/') unary)*
    expr    :=  term (('+' | '-') term)*
    primary :=  NUMBER | VARIABLE | FUNC '(' expr {',' expr} ')' | '(' expr ')'

Variables are t, x, y, w and z1, z2, ... (contraction components); functions
are sin, cos, exp, tanh, abs (one argument) and min, max (two); nesting
or chaining deeper than ``MAX_DEPTH`` is a syntax error.  Errors carry the
character offset into the source string.  ``evaluate`` takes one node's
floats or a whole level of nodes as arrays, and chooses how to evaluate a
level: node by node on small levels, by array operations on large ones,
with the same bits and errors either way.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    ExpressionDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownIdentifier,
)

FUNCTIONS = {
    "sin": (math.sin, 1),
    "cos": (math.cos, 1),
    "exp": (math.exp, 1),
    "tanh": (math.tanh, 1),
    "abs": (abs, 1),
    "min": (min, 2),
    "max": (max, 2),
}

#: Fewest nodes on which ``Expression.evaluate`` takes the array form: its
#: 10-35 us a call and the node loop's 0.1-0.6 us a node break even at 96-160
#: nodes (the benchmark's coefficients, one core of a shared 2-core x86_64),
#: and the loop's first call also compiles it (0.2-0.4 ms).
ARRAY_FORM_MIN = 96

#: Most operands open at once (parentheses, calls, minus signs, exponents)
#: and most node levels (a sum of k terms has k): parsing recurses 5 frames
#: a parenthesis, compiling and the array form 1 a level, well inside 1000.
MAX_DEPTH = 100

_VARIABLE = re.compile(r"^(t|x|y|w|z[1-9][0-9]*)$")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Num:
    value: float
    position: int


@dataclass(frozen=True)
class Var:
    name: str
    position: int


@dataclass(frozen=True)
class Unary:
    operand: object
    position: int


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    position: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    position: int


class Expression:
    """Parsed expression; evaluate with a variable environment."""

    def __init__(self, root, source, variables):
        self.root = root
        self.source = source
        self.variables = frozenset(variables)
        self._compiled = self._names = None  # see ``_compile``

    def evaluate(self, env):
        """Evaluate at one node, or at every node of a level.

        ``env`` maps variable names to floats or to float arrays of one
        common length n, one entry per node.  Returns a float when every
        value is a float, else the array of the n node values.  Finite
        inputs give finite values or an ExpressionDomainError; a missing
        variable raises UnknownIdentifier at its first use.  A fault raises
        the error of the first failing node, whose index it carries as
        ``node``.  Below ``ARRAY_FORM_MIN`` nodes the loop of ``_compile``
        runs; from there on numpy array operations give the same bits and
        hand the level to the loop when they cannot vouch for that: an
        input or the result is not finite, or an operation raises a
        floating-point error or leaves the real domain.
        """
        n = None
        for value in env.values():
            if isinstance(value, np.ndarray):
                n = len(value)
                break
        if n is not None and n >= ARRAY_FORM_MIN:
            out = self._array_form(env, n)
            if out is not None:
                return out
        if self._compiled is None:
            self._compiled, self._names = _compile_source(self.source)
        size = 1 if n is None else n
        columns = [_column(env[name], size) if name in env else _Absent(name, position)
                   for name, position in self._names]
        out = self._compiled(size, *columns)
        return out[0] if n is None else np.array(out, dtype=float)

    def _array_form(self, env, n):
        """The level by array operations, or None where the loop must
        decide node by node.  sin, cos, exp, tanh and ^ map ``math`` over
        the entries, since numpy's versions differ from it in the last bit."""
        values = {
            name: np.asarray(env[name], dtype=float).reshape(-1)
            for name in self.variables & env.keys()
        }
        if not all(np.isfinite(v).all() for v in values.values()):
            return None
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                out = np.broadcast_to(_eval_level(self.root, values), (n,))
        except (ArithmeticError, ValueError, KeyError):
            return None
        return np.array(out) if np.isfinite(out).all() else None

    def __repr__(self):
        return f"Expression({self.source!r})"


class _Absent:
    """A missing variable's column: reading it raises UnknownIdentifier."""

    def __init__(self, name, position):
        self.name, self.position = name, position

    def __getitem__(self, i):
        raise UnknownIdentifier(self.name, self.position)


def _column(value, n):
    """A variable's n node values as a list of floats."""
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).tolist()
    return [float(value)] * n


@functools.lru_cache(maxsize=256)
def _compile_source(source):
    """``_compile`` of the tree of ``source``, once per text in a process
    that reloads its files.  Keyed by the text, not by the tree, which
    compares ``Num(0.0)`` equal to ``Num(-0.0)``."""
    return _compile(_Parser(source).parse())


def _compile(root):
    """The expression as a straight-line Python loop over the nodes.

    Returns ``(fn, names)``: ``fn(n, *columns)`` lists the values of nodes
    0..n-1, one column of n floats per (variable, offset of its first use)
    of ``names``.  Operands are computed left to right before their
    operation, as the tree reads, and each operation is followed by its own
    checks, so a value or an error is the one of a walk over the tree: a
    variable reads entry i of its column (UnknownIdentifier at its first use
    when the column is ``_Absent``); ``/`` refuses a zero divisor; ``^`` is
    ``math.pow`` with OverflowError and ValueError mapped to "overflow" and
    "invalid power"; a function maps ValueError, OverflowError and
    ZeroDivisionError to "<name> left the real domain"; every binary
    operation and call then refuses a non-finite result.  Constants,
    variables and negations are unchecked.  The error of node i gets
    ``node = i``.

    The source names only validated variables, ``FUNCTIONS`` keys,
    temporaries and integer offsets; float constants are bound in the
    namespace, never written into the source.
    """
    namespace = {
        "__builtins__": {},
        "OverflowError": OverflowError,
        "ValueError": ValueError,
        "ZeroDivisionError": ZeroDivisionError,
        "_range": range,
        "_isfinite": math.isfinite,
        "_pow": math.pow,
        "_error": ExpressionError,
        "_domain": ExpressionDomainError,
    }
    body = []
    read = {}  # variable name -> the temporary holding it
    names = []  # (variable name, offset of its first use), one per column
    fresh = itertools.count()

    def emit(node):
        """Statements computing ``node``; returns the text of its value."""
        if isinstance(node, Num):
            name = f"_c{next(fresh)}"
            namespace[name] = node.value
            return name
        if isinstance(node, Var):
            if node.name not in read:
                read[node.name] = temp = f"v{next(fresh)}"
                body.append(f"{temp} = c{len(names)}[i]")
                names.append((node.name, node.position))
            return read[node.name]
        if isinstance(node, Unary):
            return f"(-{emit(node.operand)})"
        if isinstance(node, Binary):
            a, b = emit(node.left), emit(node.right)
            temp = f"v{next(fresh)}"
            if node.op == "^":
                body.extend([
                    "try:",
                    f"    {temp} = _pow({a}, {b})",
                    "except OverflowError:",
                    f"    raise _domain('overflow', {node.position}) from None",
                    "except ValueError:",
                    f"    raise _domain('invalid power', {node.position}) from None",
                ])
            else:
                if node.op == "/":
                    body.append(f"if not {b}: raise _domain('division by zero', {node.position})")
                body.append(f"{temp} = {a} {node.op} {b}")
        else:
            args = ", ".join([emit(arg) for arg in node.args])
            temp = f"v{next(fresh)}"
            namespace[f"_{node.name}"] = FUNCTIONS[node.name][0]
            body.extend([
                "try:",
                f"    {temp} = _{node.name}({args})",
                "except (ValueError, OverflowError, ZeroDivisionError):",
                f"    raise _domain('{node.name} left the real domain', {node.position}) from None",
            ])
        body.append(f"if not _isfinite({temp}): raise _domain('non-finite result', {node.position})")
        return temp

    result = emit(root)
    columns = "".join(f", c{k}" for k in range(len(names)))
    source = "\n".join(
        [f"def _evaluate(n{columns}):", "    out = []", "    try:",
         "        for i in _range(n):"]
        + [f"            {line}" for line in body + [f"out.append({result})"]]
        + ["    except _error as err:", "        err.node = i", "        raise", "    return out"]
    )
    exec(source, namespace)
    # popped, so the function's globals hold no reference back to it and it
    # is freed with its Expression, without waiting for the cycle collector
    return namespace.pop("_evaluate"), tuple(names)


def _eval_level(node, env):
    """The tree walked over 1-D arrays (length 1 or n), under a raising errstate.

    Constants are length-1 arrays, so every operation signals through numpy.
    Python's min and max keep the first argument on a tie, hence ``np.where``.
    """
    if isinstance(node, Num):
        if not math.isfinite(node.value):  # 1e999 parses to inf: evaluate decides
            raise FloatingPointError("non-finite constant")
        return np.array([node.value])
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        return -_eval_level(node.operand, env)
    if isinstance(node, Binary):
        a = _eval_level(node.left, env)
        b = _eval_level(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return _map(math.pow, a, b)
    a = [_eval_level(arg, env) for arg in node.args]
    if node.name == "abs":
        return np.abs(a[0])
    if node.name == "min":
        return np.where(a[1] < a[0], a[1], a[0])
    if node.name == "max":
        return np.where(a[1] > a[0], a[1], a[0])
    return _map(FUNCTIONS[node.name][0], *a)


def _map(fn, *args):
    """``fn`` over the entries of 1-D arrays of length 1 or n, as floats."""
    n = max(len(a) for a in args)
    columns = [a.tolist() * n if len(a) == 1 else a.tolist() for a in args]
    return np.array([fn(*xs) for xs in zip(*columns)], dtype=float)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m and (ch.isdigit() or ch == "."):
            tokens.append(_Token("number", m.group(0), i))
            i = m.end()
            continue
        m = _IDENT.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(0), i))
            i = m.end()
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.open = 0
        self.variables = set()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, hint):
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {hint}", tok.position)
        return self.advance()

    def parse(self):
        root = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.position)
        level = [root]
        for _ in range(MAX_DEPTH):  # after round k, the nodes at depth k + 1
            level = [child for node in level for child in (
                (node.left, node.right) if isinstance(node, Binary) else
                (node.operand,) if isinstance(node, Unary) else getattr(node, "args", ()))]
            if not level:
                return root
        raise ExpressionSyntaxError(f"chained deeper than {MAX_DEPTH}", level[0].position)

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            node = Binary(tok.kind, node, self.term(), tok.position)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            node = Binary(tok.kind, node, self.unary(), tok.position)
        return node

    def unary(self):
        tok = self.peek()
        self.open += 1  # every nested operand passes here
        if self.open > MAX_DEPTH:
            raise ExpressionSyntaxError(f"nested deeper than {MAX_DEPTH}", tok.position)
        if tok.kind == "-":
            self.advance()
        node = Unary(self.unary(), tok.position) if tok.kind == "-" else self.power()
        self.open -= 1
        return node

    def power(self):
        node = self.primary()
        tok = self.peek()
        if tok.kind == "^":
            self.advance()
            # right-associative; the exponent may carry a unary minus
            node = Binary("^", node, self.unary(), tok.position)
        return node

    def primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text), tok.position)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.position)
                self.advance()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")", "')'")
                _, arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ArityError(tok.text, arity, len(args), tok.position)
                return Call(tok.text, tuple(args), tok.position)
            if not _VARIABLE.match(tok.text):
                raise UnknownIdentifier(tok.text, tok.position)
            self.variables.add(tok.text)
            return Var(tok.text, tok.position)
        raise ExpressionSyntaxError("expected an operand", tok.position)


def parse_expression(source: str) -> Expression:
    """Parse an expression string; errors carry exact character offsets."""
    parser = _Parser(source)
    root = parser.parse()
    return Expression(root, source, parser.variables)

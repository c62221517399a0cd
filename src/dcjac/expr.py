"""Scalar expression language: parsing, evaluation, and exact gradients.

Expressions are C1 functions of the variables ``x1 .. xn`` built from
``+ - * / ^``, the functions ``sin cos exp log sqrt``, and decimal
constants.  Gradients are computed by vector forward-mode automatic
differentiation: one sweep over the tree carries the value and the whole
gradient, so they are exact up to rounding (never finite differences).
Every walk is a loop over the tree's postorder and no parse or walk
recurses, so no depth of nesting reaches the Python stack.

An affine piece also carries its coefficient data (``Affine``), from
which ``PieceStack`` evaluates many pieces at once with the tree's own
IEEE operations, bit for bit.  ``SmoothFn.from_text`` reads the text of
such a piece with one scanner and parses it only when its tree is read.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Expr",
    "SmoothFn",
    "Affine",
    "PieceStack",
    "ParseError",
    "DomainError",
    "parse",
    "unparse",
    "affine_expr",
]

UNARY_FUNCS = ("neg", "sin", "cos", "exp", "log", "sqrt")
BINARY_OPS = ("+", "-", "*", "/", "^")
FUNC_NAMES = ("sin", "cos", "exp", "log", "sqrt")


class ParseError(ValueError):
    """Raised on malformed input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the admissible domain (log/sqrt/div/pow violation,
    or sin/cos of an infinite value)."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        if subexpr is not None:
            message = f"{message} in subexpression '{unparse(subexpr)}'"
        super().__init__(message)
        self.subexpr = subexpr


class _Node:
    """``==``, ``hash`` and ``repr`` of a tree node, the ones ``dataclass``
    would generate, computed in loops (equality and hash over the tree's
    ``_postorder``) so that no depth of nesting reaches the Python stack."""

    __slots__ = ()

    def _key(self) -> tuple:
        """Per node in postorder its class and its own fields, a '^' node
        with its exponent; with each class's arity this fixes the tree."""
        key = []
        for node in _postorder(self):
            if isinstance(node, Const):
                key.append((Const, node.value))
            elif isinstance(node, Var):
                key.append((Var, node.index))
            elif isinstance(node, Unary):
                key.append((Unary, node.op))
            else:
                key.append((Binary, node.op, node.right if node.op == "^" else None))
        return tuple(key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        out, todo = [], [self]  # nodes to print and the text that closes them
        while todo:
            node = todo.pop()
            if isinstance(node, str):
                out.append(node)
            elif isinstance(node, Const):
                out.append(f"Const(value={node.value!r})")
            elif isinstance(node, Var):
                out.append(f"Var(index={node.index!r})")
            elif isinstance(node, Unary):
                out.append(f"Unary(op={node.op!r}, operand=")
                todo += [")", node.operand]
            else:
                out.append(f"Binary(op={node.op!r}, left=")
                todo += [")", node.right, ", right=", node.left]
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    index: int  # 0-based; rendered as x{index+1}


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Node):
    op: str  # one of UNARY_FUNCS
    operand: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Node):
    op: str  # one of BINARY_OPS; for "^" the right child is always Const
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]


# ---------------------------------------------------------------------------
# Tokenizer


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind  # "num" | "ident" | "op" | "lparen" | "rparen" | "eof"
        self.text = text
        self.offset = offset


# A number: ASCII digits, an optional fraction, and an exponent only where
# a digit follows its 'e'; a lexeme that float() refuses ('.') is malformed
_NUMBER = re.compile(r"[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        elif "0" <= c <= "9" or c == ".":
            start, i = i, _NUMBER.match(text, i).end()
            lexeme = text[start:i]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number '{lexeme}'", start) from None
            tokens.append(_Token("num", lexeme, start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
        else:
            raise ParseError(f"unexpected character '{c}'", i)
    tokens.append(_Token("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Operator-stack parser
#
# expr   := term (('+'|'-') term)*          left-assoc
# term   := factor (('*'|'/') factor)*      left-assoc
# factor := '-' factor | power
# power  := atom ('^' factor)?              right-assoc, binds above unary '-'
# atom   := number | ident | ident '(' expr ')' | '(' expr ')'
#
# One explicit stack reads this grammar (shunting-yard), so no depth of
# input reaches the Python stack: operators wait on it by precedence, '('
# and function names until their ')'.  The exponent of '^' must contain no
# variables; it is folded to a single constant as soon as it is complete,
# so every power node has a Const right child.

# Binding strength of binary '+ -', binary '* /', unary '-' ("neg"), '^'
# (right-assoc) and of an atom or a function call, in parsing and printing
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC = {
    "+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "neg": _PREC_NEG, "^": _PREC_POW
}


def _postorder(node: Expr) -> list[Expr]:
    """Every node of the tree ``node``, each after its operands (the left
    before the right), found without recursion.  The constant exponent of
    '^' is read from its node and has no entry of its own."""
    order, todo = [], [node]
    while todo:  # root, right, left: the reverse of the postorder
        node = todo.pop()
        order.append(node)
        if isinstance(node, Unary):
            todo.append(node.operand)
        elif isinstance(node, Binary):
            todo.append(node.left)
            if node.op != "^":
                todo.append(node.right)
    order.reverse()
    return order


def _structure(order: list[Expr]) -> tuple[bool, bool]:
    """(contains a variable, is affine by construction) of the tree whose
    ``_postorder`` is ``order``.  A variable-free subtree is a constant; a
    function of a variable is never affine, even where its gradient is
    constant (``0*sin(x1)``)."""
    stack = []
    for node in order:
        if not isinstance(node, (Unary, Binary)):
            stack.append((isinstance(node, Var), True))
        elif isinstance(node, Unary):
            var, aff = stack[-1]
            stack[-1] = var, not var or (aff and node.op == "neg")
        else:
            rvar, raff = (False, True) if node.op == "^" else stack.pop()
            lvar, laff = stack[-1]
            if not (lvar or rvar):
                stack[-1] = False, True
            elif node.op in "+-":
                stack[-1] = True, laff and raff
            elif node.op == "*":
                stack[-1] = True, (not lvar and raff) or (not rvar and laff)
            elif node.op == "/":
                stack[-1] = True, not rvar and laff
            else:  # '^'
                c = node.right.value
                stack[-1] = True, c == 0.0 or (c == 1.0 and laff)
    return stack[0]


def _const(value: float) -> Expr:
    """The tree ``parse`` gives for ``repr(value)``: a leading minus sign,
    that of -0.0 included, becomes a negation of the magnitude."""
    if math.copysign(1.0, value) < 0.0:
        return Unary("neg", Const(-value))
    return Const(value)


def affine_expr(coeffs, constant) -> Expr:
    """sum_j coeffs[j]*x_{j+1} + constant, as ``parse`` reads that sum
    written left to right with ``repr(float(...))`` numbers."""
    terms = [Binary("*", _const(float(c)), Var(j)) for j, c in enumerate(coeffs)]
    terms.append(_const(float(constant)))
    return functools.reduce(lambda left, right: Binary("+", left, right), terms)


def _atom(tok: _Token, dim: int) -> Expr:
    """The number or variable that ``tok`` stands for."""
    if tok.kind == "num":
        return Const(float(tok.text))
    name = tok.text
    if tok.kind != "ident":
        raise ParseError(f"expected a value, found '{name or 'end of input'}'", tok.offset)
    if name.startswith("x") and name[1:].isascii() and name[1:].isdigit():
        digits = name[1:].lstrip("0")  # counted before int(), which refuses over 4300
        index = int(digits or "0") - 1 if len(digits) <= len(str(dim)) else dim
        if index < 0 or index >= dim:
            raise ParseError(f"variable '{name}' out of range for dimension {dim}", tok.offset)
        return Var(index)
    raise ParseError(f"unknown identifier '{name}'", tok.offset)


def parse(text: str, dim: int) -> Expr:
    """Parse ``text`` into an AST over variables x1..x{dim}.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, variable indices outside 1..dim, and non-constant
    exponents.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    tokens = _tokenize(text)
    operands: list[Expr] = []
    waiting: list[tuple[str, int]] = []  # operators, '(' and function names, with offsets

    def reduce() -> None:
        op, offset = waiting.pop()
        right = operands.pop()
        if op == "neg":
            operands.append(Unary("neg", right))
        elif op != "^":
            operands[-1] = Binary(op, operands[-1], right)
        else:
            order = _postorder(right)
            if _structure(order)[0]:
                raise ParseError("exponent of '^' must be a constant", offset)
            operands[-1] = Binary("^", operands[-1], Const(_eval_float(order, ())))

    i = 0
    while True:  # an operand is due: prefixes, then an atom
        tok = tokens[i]
        i += 1
        if tok.kind == "lparen" or (tok.kind == "op" and tok.text == "-"):
            waiting.append(("(" if tok.kind == "lparen" else "neg", tok.offset))
            continue
        if tok.kind == "ident" and tok.text in FUNC_NAMES:
            if tokens[i].kind != "lparen":
                raise ParseError(f"expected '(' after function '{tok.text}'", tokens[i].offset)
            waiting.append((tok.text, tok.offset))
            i += 1
            continue
        operands.append(_atom(tok, dim))
        while True:  # a binary operator is due, or the end of a group
            tok = tokens[i]
            i += 1
            if tok.kind == "op":
                if tok.text != "^":  # '^' binds tightest, to the right
                    while waiting and _PREC.get(waiting[-1][0], 0) >= _PREC[tok.text]:
                        reduce()
                waiting.append((tok.text, tok.offset))
                break
            while waiting and waiting[-1][0] in _PREC:
                reduce()
            if not waiting:
                if tok.kind == "eof":
                    return operands[0]
                raise ParseError(f"unexpected trailing input '{tok.text}'", tok.offset)
            if tok.kind != "rparen":
                raise ParseError(f"expected ')', found '{tok.text or 'end of input'}'", tok.offset)
            name = waiting.pop()[0]
            if name != "(":
                operands[-1] = Unary(name, operands[-1])


# ---------------------------------------------------------------------------
# Printing (inverse of parse up to structural equality)


def _prec(node: Expr) -> int:
    return _PREC.get(getattr(node, "op", None), _PREC_ATOM)


def unparse(node: Expr) -> str:
    """Render an AST as text that reparses to a structurally equal AST."""
    out, todo = [], [node]  # nodes to render and the text around them

    def push(child, wrap: bool, before: str = "", after: str = ""):  # before, (child), after
        todo.extend([f"){after}" if wrap else after, child, f"{before}(" if wrap else before])

    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Const):
            out.append(repr(node.value))
        elif isinstance(node, Var):
            out.append(f"x{node.index + 1}")
        elif isinstance(node, Unary):
            # '-' binds below '^', '*', '/'; parenthesize weaker operands
            wrap = node.op != "neg" or _prec(node.operand) < _PREC_NEG
            push(node.operand, wrap, "-" if node.op == "neg" else node.op)
        elif node.op == "^":  # base must be an atom, exponent parses at factor level
            # of the atoms only a negative number's text starts with '-'
            left = node.left
            minus = isinstance(left, Const) and repr(left.value).startswith("-")
            push(left, _prec(left) < _PREC_ATOM or minus, after=f"^{node.right.value!r}")
        else:
            prec = _PREC[node.op]
            # left-assoc: a right operand at the same level must be parenthesized
            push(node.right, _prec(node.right) <= prec, f" {node.op} " if prec == _PREC_ADD else node.op)
            push(node.left, _prec(node.left) < prec)
    return "".join(out)


# ---------------------------------------------------------------------------
# Evaluation: loops over ``_postorder`` with a stack of operand values

_MATH_UNARY = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}
_PERIODIC = ("sin", "cos")  # math.sin and math.cos of an infinity raise ValueError
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval_float(order: list[Expr], x) -> float:
    """Value at x of the tree whose ``_postorder`` is ``order``."""
    stack = []
    for node in order:
        if isinstance(node, Const):
            stack.append(node.value)
        elif isinstance(node, Var):
            stack.append(float(x[node.index]))
        elif isinstance(node, Unary):
            v = stack[-1]
            if node.op == "log" and v <= 0.0:
                raise DomainError(f"log of non-positive value {v!r}", node)
            if node.op == "sqrt" and v < 0.0:
                raise DomainError(f"sqrt of negative value {v!r}", node)
            if node.op in _PERIODIC and math.isinf(v):
                raise DomainError(f"{node.op} of infinite value {v!r}", node)
            try:
                stack[-1] = -v if node.op == "neg" else _MATH_UNARY[node.op](v)
            except OverflowError:  # math.exp, the one that raises it
                raise _overflow(f"{node.op} of {v!r}", node) from None
        elif node.op == "^":
            stack[-1] = _pow_value(stack[-1], node.right.value, node)
        else:
            rv = stack.pop()
            if node.op == "/" and rv == 0.0:
                raise DomainError("division by zero", node)
            stack[-1] = _ARITHMETIC[node.op](stack[-1], rv)
    return stack[0]


def _overflow(what: str, node: Expr) -> OverflowError:
    """The error for an operation whose result is too large for a float,
    naming the subexpression as ``DomainError`` does."""
    return OverflowError(f"{what} in subexpression '{unparse(node)}'")


def _pow_value(base: float, c: float, node: Expr) -> float:
    if float(c).is_integer():
        if base == 0.0 and c < 0.0:
            raise DomainError("zero raised to a negative power", node)
    elif base <= 0.0:
        raise DomainError(
            f"non-integer power of non-positive base {base!r}", node
        )
    try:
        return base**c
    except OverflowError:
        raise _overflow(f"{base!r} raised to the power {c!r}", node) from None


def _eval_tangent(order: list[Expr], x, zero: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and full gradient at x of the tree whose ``_postorder`` is
    ``order``, in one forward sweep.

    Vector forward mode: ``dot`` holds one lane per coordinate, and every
    lane takes exactly the IEEE operations, in the same order, of a scalar
    dual number seeded with that coordinate's unit vector.  ``zero`` is the
    shared derivative of constants; no array is modified once returned.
    """
    stack = []
    for node in order:
        if isinstance(node, Const):
            stack.append((node.value, zero))
        elif isinstance(node, Var):
            dot = zero.copy()
            dot[node.index] = 1.0
            stack.append((float(x[node.index]), dot))
        elif isinstance(node, Unary):
            v, d = stack[-1]
            op = node.op
            if op == "neg":
                stack[-1] = -v, -d
            elif op in _PERIODIC and math.isinf(v):
                raise DomainError(f"{op} of infinite value {v!r}", node)
            elif op == "sin":
                stack[-1] = math.sin(v), math.cos(v) * d
            elif op == "cos":
                stack[-1] = math.cos(v), -math.sin(v) * d
            elif op == "exp":
                try:
                    e = math.exp(v)
                except OverflowError:
                    raise _overflow(f"exp of {v!r}", node) from None
                stack[-1] = e, e * d
            elif op == "log":
                if v <= 0.0:
                    raise DomainError(f"log of non-positive value {v!r}", node)
                stack[-1] = math.log(v), d / v
            else:  # sqrt, the last of UNARY_FUNCS
                if v < 0.0:
                    raise DomainError(f"sqrt of negative value {v!r}", node)
                if v == 0.0:
                    raise DomainError("sqrt not differentiable at 0", node)
                r = math.sqrt(v)
                stack[-1] = r, 0.5 * d / r
        elif node.op == "^":
            lv, ld = stack[-1]
            c = node.right.value
            v = _pow_value(lv, c, node)  # with the domain and overflow checks
            try:
                stack[-1] = (1.0, zero) if c == 0.0 else (v, c * lv ** (c - 1.0) * ld)
            except OverflowError:
                raise _overflow(f"derivative of {lv!r} raised to the power {c!r}", node) from None
        else:
            rv, rd = stack.pop()
            lv, ld = stack[-1]
            if node.op == "+":
                stack[-1] = lv + rv, ld + rd
            elif node.op == "-":
                stack[-1] = lv - rv, ld - rd
            elif node.op == "*":
                stack[-1] = lv * rv, ld * rv + lv * rd
            elif rv == 0.0:
                raise DomainError("division by zero", node)
            else:
                inv = 1.0 / rv
                stack[-1] = lv * inv, (ld - lv * rd * inv) * inv
    return stack[0]


@dataclass(frozen=True, eq=False)
class Affine:
    """Coefficient data of an affine piece.

    An affine piece is a left-associated chain of ``+``/``-`` terms, each
    a constant, a variable or constant*variable (any of them possibly
    negated), with every variable at most once and every coefficient
    finite; the whole chain may be negated.  ``terms`` has a column per
    term and four rows: its coefficient c, its variable index j (``dim``
    for a constant term, read as 1.0), and two flags, zero_sign and
    zero_flips.  Term k's value is c*x[j].  The terms add left to right
    and ``negate`` applies a unary minus last: the tree's IEEE operations,
    hence its bits.

    Off the lanes of its nonzero coefficients the tree's gradient is a
    signed zero.  Term k adds -0 to it exactly when
    ``zero_sign ^ (zero_flips & signbit(x[j]))``, and a sum of zeros is -0
    only when every addend is.
    """

    terms: np.ndarray  # float, shape (4, number of terms)
    negate: bool


def _strip_neg(node: Expr, flip: bool) -> tuple[bool, Expr]:
    while isinstance(node, Unary) and node.op == "neg":
        node, flip = node.operand, not flip
    return flip, node


def _affine_data(node: Expr, dim: int) -> Affine | None:
    """The coefficient data of ``node``, or None when it is not an affine
    piece in the sense of ``Affine``.  Walks the chain without recursion."""
    negate, node = _strip_neg(node, False)
    chain = []
    while isinstance(node, Binary) and node.op in "+-":
        chain.append((node.op == "-", node.right))
        node = node.left
    chain.append((False, node))
    terms, seen = [], set()
    for minus, term in reversed(chain):
        flip, term = _strip_neg(term, minus)
        if isinstance(term, Const):
            c, j, neg_c, product = term.value, dim, False, False
        elif isinstance(term, Var):
            c, j, neg_c, product = 1.0, term.index, False, False
        elif isinstance(term, Binary) and term.op == "*" and isinstance(term.right, Var):
            neg_c, const = _strip_neg(term.left, False)
            if not isinstance(const, Const):
                return None
            c, j, product = (-const.value if neg_c else const.value), term.right.index, True
        else:
            return None
        if not math.isfinite(c) or (j != dim and (j in seen or not 0 <= j < dim)):
            return None
        seen.add(j)
        zero_sign, zero_flips = _zero_flags(product, math.copysign(1.0, c) < 0.0, neg_c, flip)
        terms.append((-c if flip else c, j, zero_sign, zero_flips))
    return Affine(np.array(terms, dtype=float).T, negate)


def _zero_flags(product, c_signbit, neg_c, flip):
    """The zero_sign and zero_flips flags of ``Affine`` for a term c*x_j
    (bools, or bool arrays with one entry per term).  ``product`` marks a
    term written constant*variable, whose constant c is written as a
    negation when ``neg_c``; ``flip`` marks a negated term.

    Off lane j a product's gradient is d(c)*x_j + c*0.0, with d(c) the
    zero -0 when ``neg_c``: it can be -0 only when c's sign bit is set,
    and then exactly when neg_c ^ signbit(x_j).  A constant or a variable
    adds +0 there.  ``flip`` negates the term and its zero.
    """
    zero_flips = product & c_signbit
    return flip ^ (neg_c & zero_flips), zero_flips


# One term of an affine piece, with the tokenizer's blanks and number
# lexeme (one with a digit, so that float() reads it): a binary '+' or '-'
# (none before the first term), a run of unary minus signs, then
# number*variable, a number or a variable
_BLANK = "[ \t\r\n]*"
_SCAN_NUMBER = rf"(?=\.?[0-9]){_NUMBER.pattern}"
_AFFINE_TERM = re.compile(
    rf"{_BLANK}([+-]?){_BLANK}((?:-{_BLANK})*)"
    rf"(?:({_SCAN_NUMBER}){_BLANK}\*{_BLANK}x([0-9]+)|({_SCAN_NUMBER})|x([0-9]+)){_BLANK}"
)


def _scan_affine(text: str, dim: int) -> tuple[np.ndarray, bool] | None:
    """The fields (terms, negate) of ``_affine_data(parse(text, dim), dim)``
    when ``text`` is an affine piece in the grammar ``Affine`` describes,
    read term by term without a tree.  None for any other text:
    parentheses, '^', '/', other identifiers, a variable out of range or
    repeated, a constant that is not finite, and every malformed text, so
    that ``parse`` decides them.

    The minus signs before a product negate its constant; those before a
    number or a variable flip the term, or, when that term is the whole
    text, the piece (``-x1`` parses as neg(x1) at the root).
    """
    if dim < 0:
        return None
    rows, seen, pos = [], set(), 0
    while pos < len(text) or not rows:
        match = _AFFINE_TERM.match(text, pos)
        if match is None:
            return None
        pos = match.end()
        op, minus, c_text, j_text, const, var = match.groups()
        if rows:
            if not op:
                return None
            flip, minus = op == "-", minus.count("-") % 2 == 1
        elif op == "+":
            return None
        else:  # the first term's '-' is a unary minus
            flip, minus = False, (op + minus).count("-") % 2 == 1
        if c_text is not None:  # c*x_j
            product, neg_c = True, minus
            c = -float(c_text) if minus else float(c_text)
        else:
            product, neg_c, flip, j_text = False, False, flip ^ minus, var
            c = 1.0 if const is None else float(const)
        if j_text is None:
            j = dim
        elif len(j_text) > 18:  # out of range for any dimension; int() refuses 4300 digits
            return None
        else:
            j = int(j_text) - 1
            if not 0 <= j < dim or j in seen:
                return None
            seen.add(j)
        if not math.isfinite(c):
            return None
        zero_sign, zero_flips = _zero_flags(product, math.copysign(1.0, c) < 0.0, neg_c, flip)
        rows.append((-c if flip else c, j, zero_sign, zero_flips))
    negate = len(rows) == 1 and not product and flip
    if negate:  # a lone number or variable: its minus signs negate the root
        rows[0] = (c, j, False, False)
    return np.array(rows, dtype=float).T, negate


class SmoothFn:
    """A C1 function of ``dim`` real variables with exact gradient.

    ``affine`` holds the coefficient data of an affine piece (see
    ``Affine``), else None.  A piece made by ``from_affine``, or read by
    ``from_text`` without a tree, builds its tree only when ``expr``,
    ``==``, ``hash``, ``repr`` or ``str`` reads it.  Instances are
    immutable.
    """

    def __init__(self, expr: Expr, dim: int):
        self.__dict__.update(_expr=expr, _text=None, dim=dim, affine=_affine_data(expr, dim))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to '{name}': SmoothFn is immutable")

    @classmethod
    def from_text(cls, text: str, dim: int) -> "SmoothFn":
        """The piece ``text`` over x1..x{dim}.  An affine piece in the
        grammar ``Affine`` describes is read by one scanner
        (``_scan_affine``) and parsed only when its tree is read; any other
        text is parsed, with its errors and their offsets."""
        scanned = _scan_affine(text, dim)
        if scanned is None:
            return cls(parse(text, dim), dim)
        return _premade(None, dim, *scanned, text=text)

    @classmethod
    def from_affine(cls, coeffs, constant, negate: bool = False) -> "SmoothFn":
        """The piece ``affine_expr(coeffs, constant)``, negated when
        ``negate``, made straight from its coefficient data: the one-row
        case of ``_affine_rows``."""
        coeffs = np.asarray(coeffs, dtype=float).ravel()
        return _affine_rows(coeffs[None], [float(constant)], negate)[0]

    @property
    def expr(self) -> Expr:
        if self._expr is None:  # read by from_text's scanner, or made by from_affine
            if self._text is not None:
                tree = parse(self._text, self.dim)
            else:
                coefs = self.affine.terms[0]
                tree = affine_expr(coefs[:-1], coefs[-1])
                tree = Unary("neg", tree) if self.affine.negate else tree
            self.__dict__["_expr"] = tree
        return self._expr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.expr, self.dim) == (other.expr, other.dim)

    def __hash__(self):
        return hash((self.expr, self.dim))

    def __repr__(self) -> str:
        return f"SmoothFn(expr={self.expr!r}, dim={self.dim!r})"

    def eval(self, x) -> float:
        """Value at x (sequence of length dim)."""
        if len(x) != self.dim:
            raise ValueError(f"point has length {len(x)}, expected {self.dim}")
        return _eval_float(self._order, x)

    @functools.cached_property
    def _order(self) -> list[Expr]:
        """``_postorder(self.expr)``, the walk every evaluation reads; built once."""
        return _postorder(self.expr)

    @functools.cached_property
    def is_affine(self) -> bool:
        """Affine by construction (see ``_structure``); computed once."""
        return self.affine is not None or _structure(self._order)[1]

    def grad(self, x) -> np.ndarray:
        """Exact gradient at x via one vector forward-mode sweep."""
        if len(x) != self.dim:
            raise ValueError(f"point has length {len(x)}, expected {self.dim}")
        if self.dim == 0:
            return np.empty(0)
        # lanes overflow to inf/nan silently, as the scalar floats they mirror
        with np.errstate(all="ignore"):
            return _eval_tangent(self._order, x, np.zeros(self.dim))[1]

    def __str__(self) -> str:
        return unparse(self.expr)


def _affine_layout(coeffs, constants) -> np.ndarray:
    """The coefficient data of the pieces ``affine_expr(coeffs[r],
    constants[r])``, one per row of the matrix ``coeffs``, in one array of
    shape (4, rows, dim + 1): ``Affine.terms`` of row r is the view
    ``layout[:, r]``, and ``layout[0]`` is ``[coeffs | constants]``."""
    coeffs = np.asarray(coeffs, dtype=float)
    rows, dim = coeffs.shape
    layout = np.empty((4, rows, dim + 1))
    layout[0, :, :dim] = coeffs
    layout[0, :, dim] = constants
    if not np.isfinite(layout[0]).all():
        raise ValueError("coefficients must be finite")
    layout[1] = np.arange(dim + 1)
    # affine_expr writes a number with its sign bit set as neg(|number|):
    # in a product c*x_j a negated constant, as the last term a negated
    # |constant|
    sign = np.signbit(layout[0])
    product = np.arange(dim + 1) < dim
    layout[2], layout[3] = _zero_flags(product, sign, sign & product, sign & ~product)
    return layout


def _affine_rows(coeffs, constants, negate: bool = False) -> list[SmoothFn]:
    """The pieces ``affine_expr(coeffs[r], constants[r])``, negated when
    ``negate``, one per row of the matrix ``coeffs``, made straight from
    their coefficient data (``_affine_layout``) in one pass over the whole
    matrix.  Each piece builds its tree only when read."""
    layout = _affine_layout(coeffs, constants)
    dim = layout.shape[2] - 1
    return [_premade(None, dim, layout[:, r], negate) for r in range(layout.shape[1])]


def _premade(
    tree: Expr | None, dim: int, terms: np.ndarray, negate: bool, text: str | None = None
) -> SmoothFn:
    """The piece ``tree`` with the data ``Affine(terms, negate)`` that
    ``_affine_data`` would derive from it.  A tree given as None is built
    when read: parsed from ``text``, or without one from the data."""
    fn = SmoothFn.__new__(SmoothFn)
    fn.__dict__.update(_expr=tree, _text=text, dim=dim, affine=Affine(terms, negate))
    return fn


# Entries of one chunk of term products in PieceStack._sweep (8 MB)
_SWEEP_CHUNK = 1 << 20


def _bucket(widths) -> np.ndarray:
    """The block of ``PieceStack`` that sweeps a piece of each of
    ``widths`` terms: up to 8 terms share block 0, then widths double.
    ``frexp`` gives the bit length of w - 1 exactly."""
    return np.maximum(np.frexp(np.asarray(widths) - 1)[1] - 3, 0)


def _affine_groups(pieces, dim: int) -> list[tuple]:
    """The coefficient groups of the pieces with ``Affine`` data (see
    ``PieceStack``): one per bucket of term counts (``_bucket``), with
    each piece's terms in a row, padded to the widest by the neutral term
    (coefficient -0.0 on the constant lane, zero_sign set)."""
    rows = [k for k, p in enumerate(pieces) if p.affine is not None]
    data = [pieces[k].affine for k in rows]
    lengths = np.array([a.terms.shape[1] for a in data], dtype=np.intp)
    terms = np.concatenate([np.empty((4, 0)), *(a.terms for a in data)], axis=1)
    owner = np.repeat(np.arange(len(data)), lengths)  # each term's piece, as an index of data
    col = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    rows, negate = np.array(rows, dtype=np.intp), np.array([a.negate for a in data], dtype=bool)
    bucket = _bucket(lengths)
    groups = []
    for b in np.unique(bucket):
        member = bucket == b
        mine, widths = member[owner], lengths[member]
        width = int(widths.max())
        group = np.empty((4, widths.size * width))
        group[...] = np.array([[-0.0], [dim], [1.0], [0.0]])
        # a term goes to its piece's row among the members, at its column
        group[:, ((np.cumsum(member) - 1) * width)[owner[mine]] + col[mine]] = terms[:, mine]
        coefs, index, zero_sign, zero_flips = group.reshape(4, -1, width)
        index, zero_sign, zero_flips = index.astype(np.intp), zero_sign != 0.0, zero_flips != 0.0
        groups.append((rows[member], coefs, index, zero_sign, zero_flips, negate[member]))
    return groups


def _shape_error(shape: tuple, dim: int, ndim: int) -> ValueError:
    """The refusal of an array of ``shape`` given as a point (``ndim`` 1)
    or as points, one per row (``ndim`` 2), of length ``dim``."""
    if len(shape) == ndim:
        return ValueError(f"point has length {shape[-1]}, expected {dim}")
    if ndim == 1:
        return ValueError(f"point has shape {shape}, expected ({dim},)")
    return ValueError(f"points have shape {shape}, expected (k, {dim})")


class PieceStack:
    """Pieces of one dimension ``dim``, evaluated together.  Every array
    is indexed by piece.

    The pieces with coefficient data are swept: their term products are
    summed left to right with ``np.add.accumulate`` (never ``@`` or
    ``sum``, which reassociate), over blocks of rows of equal width
    padded by the product -0.0*1.0 (column dim of a point reads 1.0),
    which changes no sum, not even the sign of a zero.  A swept piece's
    gradient is its row of ``table``, the nonzero coefficients negated
    with it, with every other lane set to the signed zero that ``Affine``
    derives.  The other pieces go through ``SmoothFn.eval`` and ``grad``,
    as every piece does at a point that is not finite.  Values and
    gradients have the bits of those methods.

    One derivation (``_derive``) makes every array from coefficient
    groups.  A group is a tuple (rows, coefs, index, zero_sign,
    zero_flips, negate) of pieces given as rows of one width: their stack
    positions, their terms' coefficients, variables and flags as in
    ``Affine`` (index None for dense rows, whose lane j is x_j for j <
    dim and the constant last), and their negation; each group is one
    sweep block.  ``PieceStack(pieces, dim)`` makes a group of each
    bucket of term counts (``_affine_groups``); ``newton.build_ncp``
    hands over its own (``_of_groups``).
    """

    def __init__(self, pieces, dim: int):
        pieces = tuple(pieces)
        self._derive(pieces, dim, _affine_groups(pieces, dim))

    @classmethod
    def _of_groups(cls, pieces, dim: int, groups) -> "PieceStack":
        """The stack of ``pieces`` derived from the caller's groups; a
        piece in no group is walked."""
        stack = cls.__new__(cls)
        stack._derive(tuple(pieces), dim, groups)
        return stack

    def _derive(self, pieces: tuple, dim: int, groups) -> None:
        swept, negate = np.zeros(len(pieces), dtype=bool), np.zeros(len(pieces), dtype=bool)
        table, zero_neg = np.zeros((len(pieces), dim)), np.ones(len(pieces), dtype=bool)
        blocks, flips = [], []
        for rows, coefs, index, zero_sign, zero_flips, neg in groups:
            swept[rows], negate[rows] = True, neg
            owner = np.broadcast_to(rows[:, None], coefs.shape)
            if index is None:
                index = np.broadcast_to(np.arange(dim + 1), coefs.shape)
                table[rows] = coefs[:, :dim]
            else:
                lane = index < dim
                table[owner[lane], index[lane]] = coefs[lane]
            blocks.append((rows, coefs, index))
            # The zero lanes of a gradient are -0 before the negation when
            # every term adds -0: always for a term without zero_flips whose
            # zero_sign is set, never for one with neither flag, and for one
            # with zero_flips when signbit(x[var]) equals flip_sign
            zero_neg[rows[~(zero_sign | zero_flips).all(axis=1)]] = False
            flips.append((owner[zero_flips], index[zero_flips], ~zero_sign[zero_flips]))
        # a lane is negated with its piece, and +0 where the coefficient is
        # zero (-0.0 + 0.0 is +0); grads makes it -0 where zero_neg != negate
        np.negative(table, out=table, where=negate[:, None])
        table += 0.0
        self.pieces, self.dim = pieces, dim
        self.swept, self.walked = swept, np.flatnonzero(~swept).tolist()
        self.negate, self.blocks, self.table, self.zero_neg = negate, blocks, table, zero_neg
        # one group's lanes as they are: at n = 1000 an NCP's are 8 MB
        none = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, bool))
        flips = [f for f in flips if f[0].size] or [none]
        self.flip_row, self.flip_var, self.flip_sign = (
            np.concatenate(f) if len(f) > 1 else f[0] for f in zip(*flips)
        )

    def values(self, X) -> tuple[np.ndarray, tuple | None]:
        """Every piece's value at every row of X, shape (points, pieces).

        The second item is None, or (point, piece, exception) for the first
        tree walk that raised, in point-major order; the walks after it
        are skipped and their entries left NaN.
        """
        X = np.asarray(X, dtype=float)
        if X.shape[1:] != (self.dim,):
            raise _shape_error(X.shape, self.dim, 2)
        out = np.full((len(X), len(self.pieces)), np.nan)
        self._sweep(X, out)
        finite = np.isfinite(X).all(axis=1)
        walks = range(len(X)) if self.walked else np.flatnonzero(~finite)
        for i in walks:
            for r in self.walked if finite[i] else range(len(self.pieces)):
                try:
                    out[i, r] = self.pieces[r].eval(X[i])
                except ArithmeticError as exc:  # DomainError, OverflowError
                    return out, (int(i), r, exc)
        return out, None

    def _sweep(self, X: np.ndarray, out: np.ndarray) -> None:
        X1 = np.concatenate([X, np.ones((len(X), 1))], axis=1)
        # values overflow to inf/nan silently, as the scalar floats of the tree
        with np.errstate(all="ignore"):
            for pieces, coefs, index in self.blocks:
                step = max(1, _SWEEP_CHUNK // coefs.size)
                for s in range(0, len(X), step):
                    terms = coefs * X1[s : s + step, index]
                    out[s : s + step, pieces] = np.add.accumulate(terms, axis=2)[..., -1]
        np.negative(out, out=out, where=self.negate)

    def grads(self, x, pieces) -> np.ndarray:
        """Gradients at the point x of the pieces indexed by ``pieces``, one
        row each.  Tree walks run in the order given; the first that
        raises propagates."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise _shape_error(x.shape, self.dim, 1)
        pieces = np.asarray(pieces, dtype=np.intp)
        out = self.table[pieces]
        if not np.isfinite(x).all():
            walk = range(pieces.size)  # every piece walks
        else:
            zero_neg = self.zero_neg.copy()
            zero_neg[self.flip_row[np.signbit(x)[self.flip_var] != self.flip_sign]] = False
            out[(out == 0.0) & (zero_neg != self.negate)[pieces, None]] = -0.0
            if not self.walked:
                return out
            walk = np.flatnonzero(~self.swept[pieces]).tolist()
        for k in walk:
            out[k] = self.pieces[pieces[k]].grad(x)
        return out

    def grads_keys(self, X, pieces) -> list[tuple]:
        """Per row k of X, what ``grads(X[k], pieces[k])`` reads of that
        point: rows with equal keys get gradients equal bit for bit.  When
        every piece is swept and the point is finite, the gradients are
        ``table`` rows signed by the zero-sign rule above, so only the sign
        bits that rule reads count; otherwise a tree walk reads the whole
        point."""
        X = np.asarray(X, dtype=float)
        if X.shape[1:] != (self.dim,):
            raise _shape_error(X.shape, self.dim, 2)
        pieces = np.asarray(pieces, dtype=np.intp)
        swept = self.swept[pieces].all(axis=1) & np.isfinite(X).all(axis=1)
        signs = np.signbit(X)[:, self.flip_var]
        return [
            ("swept", p.tobytes(), s.tobytes()) if ok else ("walked", p.tobytes(), x.tobytes())
            for ok, p, s, x in zip(swept.tolist(), pieces, signs, X)
        ]

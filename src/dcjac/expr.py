"""Scalar expression language: parsing, evaluation, and exact gradients.

Expressions are C1 functions of the variables ``x1 .. xn`` built from
``+ - * / ^``, the functions ``sin cos exp log sqrt``, and decimal
constants.  Gradients are computed by vector forward-mode automatic
differentiation: one sweep over the tree carries the value and the whole
gradient, so they are exact up to rounding (never finite differences).

An affine piece also carries its coefficient data (``Affine``), from
which ``PieceStack`` evaluates many pieces at once with the tree's own
IEEE operations, bit for bit.
"""

from __future__ import annotations

import functools
import math
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
    """Evaluation left the admissible domain (log/sqrt/div/pow violation)."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        if subexpr is not None:
            message = f"{message} in subexpression '{unparse(subexpr)}'"
        super().__init__(message)
        self.subexpr = subexpr


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; rendered as x{index+1}


@dataclass(frozen=True)
class Unary:
    op: str  # one of UNARY_FUNCS
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
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
        elif c.isdigit() or c == ".":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
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
# Recursive-descent parser
#
# expr   := term (('+'|'-') term)*          left-assoc
# term   := factor (('*'|'/') factor)*      left-assoc
# factor := '-' factor | power
# power  := atom ('^' factor)?              right-assoc, binds above unary '-'
# atom   := number | ident | ident '(' expr ')' | '(' expr ')'
#
# The exponent of '^' must contain no variables; it is folded to a single
# constant at parse time so every power node has a Const right child.


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found '{tok.text or 'end of input'}'", tok.offset)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.parse_factor()
            if _structure(exponent)[0]:
                raise ParseError("exponent of '^' must be a constant", tok.offset)
            return Binary("^", base, Const(_eval_float(exponent, ())))
        return base

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "lparen":
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name in FUNC_NAMES:
                if self.peek().kind != "lparen":
                    raise ParseError(f"expected '(' after function '{name}'", self.peek().offset)
                self.advance()
                arg = self.parse_expr()
                self.expect("rparen", "')'")
                return Unary(name, arg)
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:]) - 1
                if index < 0 or index >= self.dim:
                    raise ParseError(
                        f"variable '{name}' out of range for dimension {self.dim}", tok.offset
                    )
                return Var(index)
            raise ParseError(f"unknown identifier '{name}'", tok.offset)
        raise ParseError(f"expected a value, found '{tok.text or 'end of input'}'", tok.offset)


def _structure(node: Expr) -> tuple[bool, bool]:
    """(contains a variable, is affine by construction).  A variable-free
    subtree is a constant; a function of a variable is never affine, even
    where its gradient is constant (``0*sin(x1)``)."""
    if not isinstance(node, (Unary, Binary)):
        return isinstance(node, Var), True
    if isinstance(node, Unary):
        var, aff = _structure(node.operand)
        return var, not var or (aff and node.op == "neg")
    lvar, laff = _structure(node.left)
    rvar, raff = _structure(node.right)
    if not (lvar or rvar):
        return False, True
    if node.op in "+-":
        return True, laff and raff
    if node.op == "*":
        return True, (not lvar and raff) or (not rvar and laff)
    if node.op == "/":
        return True, not rvar and laff
    c = node.right.value  # '^'
    return True, c == 0.0 or (c == 1.0 and laff)


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


def parse(text: str, dim: int) -> Expr:
    """Parse ``text`` into an AST over variables x1..x{dim}.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, variable indices outside 1..dim, and non-constant
    exponents.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    parser = _Parser(_tokenize(text), dim)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.offset)
    return node


# ---------------------------------------------------------------------------
# Printing (inverse of parse up to structural equality)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    if isinstance(node, Binary):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Unary):
        return _PREC_NEG if node.op == "neg" else _PREC_ATOM
    return _PREC_ATOM


def unparse(node: Expr) -> str:
    """Render an AST as text that reparses to a structurally equal AST."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = unparse(node.operand)
            # '-' binds below '^', '*', '/'; parenthesize weaker operands
            if _prec(node.operand) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({unparse(node.operand)})"
    left, right = unparse(node.left), unparse(node.right)
    if node.op in "+-":
        if _prec(node.left) < _PREC_ADD:
            left = f"({left})"
        # left-assoc: a right operand at the same level must be parenthesized
        if _prec(node.right) <= _PREC_ADD:
            right = f"({right})"
    elif node.op in "*/":
        if _prec(node.left) < _PREC_MUL:
            left = f"({left})"
        if _prec(node.right) <= _PREC_MUL:
            right = f"({right})"
    else:  # '^': base must be an atom, exponent parses at factor level
        if _prec(node.left) < _PREC_ATOM or left.startswith("-"):
            left = f"({left})"
    return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"


# ---------------------------------------------------------------------------
# Evaluation

_MATH_UNARY = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _eval_float(node: Expr, x) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index])
    if isinstance(node, Unary):
        v = _eval_float(node.operand, x)
        if node.op == "neg":
            return -v
        if node.op == "log" and v <= 0.0:
            raise DomainError(f"log of non-positive value {v!r}", node)
        if node.op == "sqrt" and v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r}", node)
        return _MATH_UNARY[node.op](v)
    lv = _eval_float(node.left, x)
    if node.op == "^":
        c = node.right.value
        return _pow_value(lv, c, node)
    rv = _eval_float(node.right, x)
    if node.op == "+":
        return lv + rv
    if node.op == "-":
        return lv - rv
    if node.op == "*":
        return lv * rv
    if rv == 0.0:
        raise DomainError("division by zero", node)
    return lv / rv


def _pow_value(base: float, c: float, node: Expr) -> float:
    if float(c).is_integer():
        if base == 0.0 and c < 0.0:
            raise DomainError("zero raised to a negative power", node)
        return base**c
    if base <= 0.0:
        raise DomainError(
            f"non-integer power of non-positive base {base!r}", node
        )
    return base**c


def _eval_tangent(node: Expr, x, zero: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and full gradient of ``node`` at x in one forward sweep.

    Vector forward mode: ``dot`` holds one lane per coordinate, and every
    lane takes exactly the IEEE operations, in the same order, of a scalar
    dual number seeded with that coordinate's unit vector.  ``zero`` is the
    shared derivative of constants; no array is modified once returned.
    """
    if isinstance(node, Const):
        return node.value, zero
    if isinstance(node, Var):
        dot = zero.copy()
        dot[node.index] = 1.0
        return float(x[node.index]), dot
    if isinstance(node, Unary):
        v, d = _eval_tangent(node.operand, x, zero)
        op = node.op
        if op == "neg":
            return -v, -d
        if op == "sin":
            return math.sin(v), math.cos(v) * d
        if op == "cos":
            return math.cos(v), -math.sin(v) * d
        if op == "exp":
            e = math.exp(v)
            return e, e * d
        if op == "log":
            if v <= 0.0:
                raise DomainError(f"log of non-positive value {v!r}", node)
            return math.log(v), d / v
        # sqrt, the last of UNARY_FUNCS
        if v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r}", node)
        if v == 0.0:
            raise DomainError("sqrt not differentiable at 0", node)
        r = math.sqrt(v)
        return r, 0.5 * d / r
    lv, ld = _eval_tangent(node.left, x, zero)
    if node.op == "^":
        c = node.right.value
        _pow_value(lv, c, node)  # domain check
        if c == 0.0:
            return 1.0, zero
        return lv**c, c * lv ** (c - 1.0) * ld
    rv, rd = _eval_tangent(node.right, x, zero)
    if node.op == "+":
        return lv + rv, ld + rd
    if node.op == "-":
        return lv - rv, ld - rd
    if node.op == "*":
        return lv * rv, ld * rv + lv * rd
    if rv == 0.0:
        raise DomainError("division by zero", node)
    inv = 1.0 / rv
    return lv * inv, (ld - lv * rd * inv) * inv


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


class SmoothFn:
    """A C1 function of ``dim`` real variables with exact gradient.

    ``affine`` holds the coefficient data of an affine piece (see
    ``Affine``), else None.  A piece made by ``from_affine`` builds its
    tree only when ``expr``, ``==``, ``hash``, ``repr`` or ``str`` reads it.
    Instances are immutable.
    """

    def __init__(self, expr: Expr, dim: int):
        self.__dict__.update(_expr=expr, dim=dim, affine=_affine_data(expr, dim))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to '{name}': SmoothFn is immutable")

    @classmethod
    def from_text(cls, text: str, dim: int) -> "SmoothFn":
        return cls(parse(text, dim), dim)

    @classmethod
    def from_affine(cls, coeffs, constant, negate: bool = False) -> "SmoothFn":
        """The piece ``affine_expr(coeffs, constant)``, negated when
        ``negate``, made straight from its coefficient data."""
        coefs = np.append(np.asarray(coeffs, dtype=float), float(constant))
        if not np.isfinite(coefs).all():
            raise ValueError("coefficients must be finite")
        dim = coefs.size - 1
        # affine_expr writes a number with its sign bit set as neg(|number|):
        # in a product c*x_j a negated constant, as the last term a negated
        # |constant|
        sign = np.signbit(coefs)
        product = np.arange(dim + 1) < dim
        flags = _zero_flags(product, sign, sign & product, sign & ~product)
        terms = np.stack([coefs, np.arange(dim + 1), *flags])
        fn = cls.__new__(cls)
        fn.__dict__.update(_expr=None, dim=dim, affine=Affine(terms, negate))
        return fn

    @property
    def expr(self) -> Expr:
        if self._expr is None:  # made by from_affine
            coefs = self.affine.terms[0]
            tree = affine_expr(coefs[:-1], coefs[-1])
            self.__dict__["_expr"] = Unary("neg", tree) if self.affine.negate else tree
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
        return _eval_float(self.expr, x)

    @functools.cached_property
    def is_affine(self) -> bool:
        """Affine by construction (see ``_structure``); computed once."""
        return self.affine is not None or _structure(self.expr)[1]

    def grad(self, x) -> np.ndarray:
        """Exact gradient at x via one vector forward-mode sweep."""
        if len(x) != self.dim:
            raise ValueError(f"point has length {len(x)}, expected {self.dim}")
        if self.dim == 0:
            return np.empty(0)
        # lanes overflow to inf/nan silently, as the scalar floats they mirror
        with np.errstate(all="ignore"):
            return _eval_tangent(self.expr, x, np.zeros(self.dim))[1]

    def __str__(self) -> str:
        return unparse(self.expr)


# Entries of one chunk of term products in PieceStack._sweep (8 MB)
_SWEEP_CHUNK = 1 << 20


class PieceStack:
    """Pieces of one dimension ``dim``, evaluated together.

    The pieces with coefficient data are swept: their term products are
    summed left to right with ``np.add.accumulate`` (never ``@`` or
    ``sum``, which reassociate), over blocks of pieces with similar term
    counts padded to a common width.  Their gradients are the nonzero
    coefficients, kept by piece, with every other lane set to the signed
    zero that ``Affine`` derives.  The other pieces go through
    ``SmoothFn.eval`` and ``grad``, as every piece does at a point that is
    not finite.  Values and gradients have the bits of those methods.
    """

    def __init__(self, pieces, dim: int):
        self.pieces = tuple(pieces)
        self.dim = dim
        data = [p.affine for p in self.pieces]
        swept = [r for r, a in enumerate(data) if a is not None]
        self.walked = [r for r, a in enumerate(data) if a is None]
        self.swept = np.array(swept, dtype=np.intp)
        self.row = np.full(len(data), -1)  # row of each piece among the swept ones, or -1
        self.row[swept] = np.arange(len(swept))
        data = [data[r] for r in swept]
        self.negate = np.array([a.negate for a in data], dtype=bool)
        lengths = [a.terms.shape[1] for a in data]
        coefs, index, zero_sign, zero_flips = (
            np.concatenate([a.terms for a in data], axis=1) if data else np.empty((4, 0))
        )
        index = index.astype(np.intp)
        zero_sign, zero_flips = zero_sign != 0.0, zero_flips != 0.0
        owner = np.repeat(np.arange(len(data)), lengths)  # swept row of each term
        col = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)

        # Values: up to 8 terms share a block, then widths double.  A pad
        # is the product -0.0*1.0 (column dim of a point reads 1.0), and
        # adding -0.0 changes no sum, not even the sign of a zero.
        buckets = [max(0, (length - 1).bit_length() - 3) for length in lengths]
        bucket, lengths = np.array(buckets), np.array(lengths)
        self.blocks = []
        for b in sorted(set(buckets)):
            rows = np.flatnonzero(bucket == b)
            terms = bucket[owner] == b
            at = (np.searchsorted(rows, owner[terms]), col[terms])
            shape = (rows.size, int(lengths[rows].max()))
            block_coefs = np.full(shape, -0.0)
            block_coefs[at] = coefs[terms]
            block_index = np.full(shape, dim, dtype=np.intp)
            block_index[at] = index[terms]
            self.blocks.append((rows, block_coefs, block_index))

        # Gradients: the nonzero coefficient lanes of each row, stored by
        # row, and the signed zero elsewhere, -0 when every term adds -0:
        # always for a term without zero_flips whose zero_sign is set, and
        # for one with zero_flips when signbit(x[var]) equals flip_sign.
        lane = (index < dim) & (coefs != 0.0)
        self.lane_start = np.searchsorted(owner[lane], np.arange(len(data) + 1))
        self.lane_col = index[lane]
        self.lane_val = np.where(self.negate[owner[lane]], -coefs[lane], coefs[lane])
        self.zero_neg = np.ones(len(data), dtype=bool)
        self.zero_neg[owner[~zero_flips & ~zero_sign]] = False
        self.flip_row = owner[zero_flips]
        self.flip_var = index[zero_flips]
        self.flip_sign = ~zero_sign[zero_flips]

    def values(self, X) -> tuple[np.ndarray, tuple | None]:
        """Every piece's value at every row of X, shape (points, pieces).

        The second item is None, or (point, piece, exception) for the first
        tree walk that raised, in point-major order; the walks after it
        are skipped and their entries left NaN.
        """
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.dim:
            raise ValueError(f"point has length {X.shape[1]}, expected {self.dim}")
        out = np.full((len(X), len(self.pieces)), np.nan)
        if self.swept.size:
            out[:, self.swept] = self._sweep(X)
        finite = np.isfinite(X).all(axis=1)
        walks = range(len(X)) if self.walked else np.flatnonzero(~finite)
        for i in walks:
            for r in self.walked if finite[i] else range(len(self.pieces)):
                try:
                    out[i, r] = self.pieces[r].eval(X[i])
                except (ArithmeticError, RecursionError) as exc:  # DomainError, OverflowError
                    return out, (int(i), r, exc)
        return out, None

    def _sweep(self, X: np.ndarray) -> np.ndarray:
        X1 = np.concatenate([X, np.ones((len(X), 1))], axis=1)
        out = np.empty((len(X), self.negate.size))
        # values overflow to inf/nan silently, as the scalar floats of the tree
        with np.errstate(all="ignore"):
            for rows, coefs, index in self.blocks:
                step = max(1, _SWEEP_CHUNK // coefs.size)
                for s in range(0, len(X), step):
                    terms = coefs * X1[s : s + step, index]
                    out[s : s + step, rows] = np.add.accumulate(terms, axis=2)[..., -1]
        return np.negative(out, out=out, where=self.negate)

    def grads(self, x, pieces) -> np.ndarray:
        """Gradients at the point x of the pieces indexed by ``pieces``, one
        row each.  Tree walks run in the order given; the first that
        raises propagates."""
        x = np.asarray(x, dtype=float)
        pieces = np.asarray(pieces, dtype=np.intp)
        rows = self.row[pieces] if np.isfinite(x).all() else np.full(pieces.size, -1)
        out = np.empty((pieces.size, self.dim))
        swept = rows >= 0
        if swept.any():
            out[swept] = self._sweep_grads(x, rows[swept])
        for k in np.flatnonzero(~swept):
            out[k] = self.pieces[pieces[k]].grad(x)
        return out

    def _sweep_grads(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        zero_neg = self.zero_neg.copy()
        zero_neg[self.flip_row[np.signbit(x)[self.flip_var] != self.flip_sign]] = False
        out = np.zeros((rows.size, self.dim))
        out[zero_neg[rows] != self.negate[rows]] = -0.0
        starts = self.lane_start[rows]
        counts = self.lane_start[rows + 1] - starts
        k = np.repeat(np.arange(rows.size), counts)
        src = np.arange(k.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        out[k, self.lane_col[src]] = self.lane_val[src]
        return out

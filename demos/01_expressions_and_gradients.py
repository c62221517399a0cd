"""Parsing smooth pieces and differentiating them exactly.

The expression language covers +, -, *, /, ^ (constant exponents), the
functions sin/cos/exp/log/sqrt, and variables x1..xn.  Gradients come from
one vector forward-mode sweep, so they are exact up to rounding.
"""

import numpy as np

from dcjac import DomainError, ParseError, SmoothFn, parse, unparse

print("== parsing ==")
tree = parse("2*x1 + x2^2", 2)
print("AST for '2*x1 + x2^2':", tree)
print("printed back:", unparse(tree))
print("reparses to the same structure:", parse(unparse(tree), 2) == tree)

print()
print("== evaluation and exact gradients ==")
fn = SmoothFn.from_text("sin(x1)*exp(-x2) + x1^3", 2)
x = np.array([0.7, 0.3])
print("f(x) =", fn.eval(x))
print("grad f(x) =", fn.grad(x))

h = 1e-6
fd = np.array(
    [
        (fn.eval(x + h * e) - fn.eval(x - h * e)) / (2 * h)
        for e in np.eye(2)
    ]
)
print("central finite differences:", fd)
print("max deviation:", np.max(np.abs(fn.grad(x) - fd)))

print()
print("== errors carry positions and subexpressions ==")
try:
    parse("2*(x1", 1)
except ParseError as err:
    print("syntax:", err)
try:
    SmoothFn.from_text("1 + log(x1)", 1).eval([-1.0])
except DomainError as err:
    print("domain:", err)

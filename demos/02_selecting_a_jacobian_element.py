"""Selecting one element of the Clarke generalized Jacobian.

F = G - H with componentwise maxima is nonsmooth exactly where several
pieces tie.  The selection filters the tied gradients coordinate by
coordinate until the survivors coincide; the difference vectors between
rejected and surviving gradients then admit a witness direction along
which the directional derivative is linear, certifying the element.  The
witness carries the difference vectors, so each check takes the witness.
"""

import numpy as np

from dcjac import (
    check_witness,
    clarke_jacobian_element,
    load_problem,
    selection_differences,
    verify_cone_linearity,
    verify_limit_inclusion,
    witness_direction,
)

print("== |x| at the kink ==")
F = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "-x1"]}]})
for conv in ("min", "max"):
    elem = clarke_jacobian_element(F, [0.0], convention=conv)
    print(f"convention {conv}: xi = {elem.xi.tolist()}  (both lie in [-1, 1])")

print()
print("== a genuinely two-dimensional instance ==")
doc = {"n": 2, "m": 1, "components": [{"g": ["x1 + x2", "2*x1", "0"], "h": ["x1", "x2"]}]}
F2 = load_problem(doc)
x = np.zeros(2)
elem = clarke_jacobian_element(F2, x)
# term t's active pieces are a slice of elem.pieces, and each level of its
# filtration holds positions into that slice
for name, t in (("g", 0), ("h", 1)):
    active = elem.pieces[elem.bounds[t] : elem.bounds[t + 1]]
    filtration = [active[list(level)].tolist() for level in elem.chains[t]]
    print(f"active {name} pieces:", active.tolist(), "filtration:", filtration)
print("xi =", elem.xi.tolist())

diffs = selection_differences(elem)
print("difference vectors (rejected - selected):")
print(diffs.vectors)

witness = witness_direction(diffs)
print("witness direction:", witness.y_bar, " weights:", np.abs(witness.y_bar))
report = check_witness(witness)
print("slopes along witness strictly negative:", report.passed,
      " margins:", report.margins)

print()
print("== certifying the element ==")
cone = verify_cone_linearity(elem, witness, samples=500)
print(f"cone linearity: kept {cone.kept}/{cone.samples} directions, "
      f"max discrepancy {cone.max_discrepancy:.2e} -> passed {cone.passed}")
limit = verify_limit_inclusion(F2, x, elem, witness)
print("classical Jacobians along the witness ray:")
for p in limit.points:
    tag = "degenerate" if p.degenerate else f"distance {p.distance:.2e}"
    print(f"  t = {p.t:.0e}: {tag}")
print("limit inclusion passed:", limit.passed)

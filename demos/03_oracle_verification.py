"""Brute-force verification against the definition of the generalized
Jacobian.

For piecewise-affine functions the generalized Jacobian is exactly the
convex hull of the Jacobians active on full-dimensional regions nearby.
Only the pieces active at x can win there.  The oracle recovers those
regions from the active pieces alone, independently of the selection
(a depth-first search that prunes every pattern whose cone has no
interior), and decides hull membership with a minimum-norm-point
computation.
"""

import numpy as np

from dcjac import (
    brute_force_subdifferential,
    clarke_jacobian_element,
    hull_membership,
    load_problem,
    random_affine_problem,
    sample_limiting_jacobians,
)

print("== regions of max(x1+x2, 2*x1, 0) ==")
F = load_problem({"n": 2, "m": 1, "components": [{"g": ["x1 + x2", "2*x1", "0"]}]})
regions, report = brute_force_subdifferential(F, [0.0, 0.0])
for mat in regions:
    print("  region gradient:", mat.tolist())
print("  search finished:", report.enumerated)

print()
print("== membership certificates ==")
candidates = [np.array([[-1.0]]), np.array([[1.0]])]
inside = hull_membership(np.array([[0.0]]), candidates)
print("0 in co{-1, 1}:", inside.member, " weights:", inside.weights)
outside = hull_membership(np.array([[2.0]]), candidates)
print("2 in co{-1, 1}:", outside.member, " separation distance:", outside.violation)

print()
print("== the selected element always lands in the hull ==")
for seed in (1, 5, 9):
    G = random_affine_problem(n=3, m=2, pieces=5, seed=seed)
    x = np.zeros(3)
    mats, _ = brute_force_subdifferential(G, x)
    for conv in ("min", "max"):
        elem = clarke_jacobian_element(G, x, convention=conv)
        cert = hull_membership(elem.xi, mats)
        print(f"seed {seed} ({conv}): {len(mats)} candidate Jacobians, "
              f"member = {cert.member}")

print()
print("== sampled limiting Jacobians agree ==")
A = load_problem({"n": 1, "m": 1, "components": [{"g": ["x1", "-x1"]}]})
for s in sample_limiting_jacobians(A, [0.0], radius=0.5, count=64):
    print(f"  profile {s.active_profile} near x = {s.point.round(3)}: "
          f"Jacobian {s.jacobian.tolist()}")

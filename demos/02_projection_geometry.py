"""Walkthrough: how the distributed projection step works.

After one element's gradient bump, at most the two interference constraints
of its endpoint nodes can be violated. Each constraint is a halfspace whose
normal is the 0/1 indicator of its member elements, so projecting onto one
boundary subtracts excess / support-size from every member. For a violated
pair, alternating corrected projections converge to the Euclidean projection
onto the intersection; ``project_pair`` evaluates that limit in closed form.
"""

import numpy as np

from qwdr.oracle import (
    HalfspaceConstraint,
    alternating_projection_pair,
    project_onto_halfspace,
    project_pair,
    qp_project_exact,
)

a = HalfspaceConstraint(members=(0, 1))   # node constraint over elements 0, 1
b = HalfspaceConstraint(members=(1, 2))   # node constraint over elements 1, 2

s = np.array([0.9, 0.8, 0.9])  # both constraints violated (sums 1.7 and 1.7)
print(f"start point          {s}   sums: a={a.value(s):.2f}, b={b.value(s):.2f}")

single = project_onto_halfspace(s, a)
print(f"project onto a only  {np.round(single, 4)}   sums: a={a.value(single):.2f}, "
      f"b={b.value(single):.2f}  (b still violated)")

closed = project_pair(s, a, b)
print(f"pair projection      {np.round(closed, 4)}   sums: a={a.value(closed):.2f}, "
      f"b={b.value(closed):.2f}")

exact = qp_project_exact(s, [a, b])
print(f"exact QP reference   {np.round(exact, 4)}   distance to pair projection "
      f"{np.linalg.norm(closed - exact):.2e}")

print("\nalternating rounds approach the same point:")
for rounds in (1, 2, 4, 8, 16, 32):
    it = alternating_projection_pair(s, a, b, n_rep=rounds, tol=0.0)
    print(f"  {rounds:3d} rounds: distance to limit {np.linalg.norm(it - closed):.3e}")

# the step never harms a bystander constraint with non-negative normal
c = HalfspaceConstraint(members=(0,))
print(f"\nbystander constraint c: before {c.value(s):.2f} (satisfied), after "
      f"{c.value(closed):.2f} (projections only subtract, so it stays satisfied)")

"""Tour of the background geometry: cubic norm, matrix picture, symmetry.

Run with:  python demos/cubic_metric_and_symmetry.py
"""

import numpy as np

from finsler9 import (
    cubic_form,
    group_action,
    metric_coefficients,
    random_unimodular,
    vec_to_matrix,
)

rng = np.random.default_rng(42)

# A 9-vector and its cubic norm.  The same number is the determinant of the
# Hermitian 3x3 matrix attached to the vector.
x = rng.uniform(-2, 2, size=9)
print("x              =", np.array2string(x, precision=4))
print("cubic form     =", cubic_form(x))
print("det of matrix  =", np.linalg.det(vec_to_matrix(x)).real)

# The symmetric tensor behind the polynomial, the polarisation of the
# determinant: 16 nonzero non-decreasing triples, all equal to +-1/3.
g = metric_coefficients()
print("\nnonzero coefficient triples:", len(g.triples()))
print("G(0,0,8) =", g.coefficient(0, 0, 8), "  G(1,4,6) =", g.coefficient(1, 4, 6))
print("contraction minus polynomial:", g.contract(x) - cubic_form(x))

# A random determinant-1 complex matrix acts linearly on the 9-space and
# leaves the cubic form alone.
d = random_unimodular(rng)
ell = group_action(d)
moved = ell @ x
print("\n|det D - 1|     =", abs(np.linalg.det(d) - 1))
print("cubic before    =", cubic_form(x))
print("cubic after     =", cubic_form(moved))
print("relative change =", abs(cubic_form(moved) - cubic_form(x)) / abs(cubic_form(x)))

# The action is a homomorphism: composing group elements composes matrices.
d2 = random_unimodular(rng)
gap = np.abs(group_action(d @ d2) - ell @ group_action(d2)).max()
print("\nhomomorphism gap:", gap)

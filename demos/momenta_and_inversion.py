"""Canonical momenta and their closed-form inversion back to velocities.

Run with:  python demos/momenta_and_inversion.py
"""

import numpy as np

from finsler9 import (
    canonical_energy,
    canonical_momenta,
    invert_momenta,
    lagrangian,
    matrix_identity_residual,
    momentum_constraint_residual,
    unit_speed_velocity,
)

rng = np.random.default_rng(7)

# Start from a unit-speed velocity (cubic form exactly 1).
v = unit_speed_velocity(rng)
print("velocity      =", np.array2string(v, precision=4))
print("lagrangian    =", lagrangian(v))

# The nine momenta are scale invariant in the velocity and satisfy one
# scalar relation: the determinant of their matrix is pinned.
p = canonical_momenta(v)
print("\nmomenta       =", np.array2string(p, precision=4))
print("same momenta from 3x the velocity:",
      np.abs(canonical_momenta(3 * v) - p).max())
print("constraint residual:", momentum_constraint_residual(p))
print("canonical energy   :", canonical_energy(v), "(identically zero)")
print("matrix identity residual:", matrix_identity_residual(v))

# Inverting the momenta through the same quadratic map that produced them
# (the adjugate of the momentum matrix) returns the velocity; a generic LU
# inverse agrees with the closed form.
back = invert_momenta(p, method="adjugate")
alt = invert_momenta(p, method="inverse")
print("\nround-trip error (adjugate):", np.abs(back - v).max())
print("adjugate vs generic inverse:", np.abs(back - alt).max())

# Momenta off the constraint surface are rejected, not silently projected.
bad = p.copy()
bad[0] += 1e-3
try:
    invert_momenta(bad)
except Exception as exc:
    print("\nperturbed momenta rejected:", type(exc).__name__, "-", exc)

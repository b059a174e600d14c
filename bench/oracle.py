"""Seeded inputs and independent numpy oracles for the benchmark.

Nothing in this module imports finsler9.  The benchmark draws every input
here and checks the library's answers against these formulas, so a kernel
that goes wrong cannot also corrupt the reference it is checked against.
"""

import numpy as np

KAPPA = -1.0


def hermitian(x):
    """Hermitian 3x3 matrices of 9-vectors in finsler9's basis (last axis 9)."""
    x = np.asarray(x, dtype=float)
    m = np.zeros(x.shape[:-1] + (3, 3), dtype=complex)
    m[..., 0, 0] = x[..., 0] + x[..., 3]
    m[..., 1, 1] = x[..., 0] - x[..., 3]
    m[..., 2, 2] = x[..., 8]
    m[..., 1, 0] = x[..., 1] + 1j * x[..., 2]
    m[..., 2, 0] = x[..., 4] + 1j * x[..., 5]
    m[..., 2, 1] = x[..., 6] + 1j * x[..., 7]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m[..., i, j] = np.conj(m[..., j, i])
    return m


def cubic(x):
    """Cubic norm as the real determinant of the Hermitian matrix."""
    return np.linalg.det(hermitian(x)).real


def momenta(v, kappa=KAPPA):
    """Canonical momenta of velocities ``v`` through the adjugate.

    The momentum matrix is ``(2 kappa / 3) adj(X) / f^(2/3)``, which is
    ``(2 kappa / 3) f^(1/3) X^-1``; its entries are read back in the
    momentum basis (doubled lower-right corner).
    """
    v = np.asarray(v, dtype=float)
    m = hermitian(v)
    f = np.linalg.det(m).real
    n = (2.0 * kappa / 3.0) * np.cbrt(f)[..., None, None] * np.linalg.inv(m)
    return np.stack([
        0.5 * (n[..., 0, 0] + n[..., 1, 1]).real,
        n[..., 1, 0].real, n[..., 1, 0].imag,
        0.5 * (n[..., 0, 0] - n[..., 1, 1]).real,
        n[..., 2, 0].real, n[..., 2, 0].imag,
        n[..., 2, 1].real, n[..., 2, 1].imag,
        0.5 * n[..., 2, 2].real,
    ], axis=-1)


def unit_speed(rng, n, margin):
    """``n`` draws from [-1, 1]^9 with ``|f| >= margin |x|^3``, scaled to f = 1."""
    kept = np.empty((0, 9))
    while len(kept) < n:
        x = rng.uniform(-1.0, 1.0, size=(n, 9))
        f = cubic(x)
        x = x[np.abs(f) >= margin * np.linalg.norm(x, axis=1) ** 3]
        kept = np.concatenate([kept, x / np.cbrt(cubic(x))[:, None]])
    return kept[:n]


def unimodular(rng):
    """Determinant-1 complex 3x3 matrix with entries in the unit square."""
    while True:
        d = rng.random((3, 3)) + 1j * rng.random((3, 3))
        det = np.linalg.det(d)
        if abs(det) >= 0.1:
            return d / det ** (1.0 / 3.0)


def timelike(rng, n, spinor_cap=0.3):
    """``n`` 4-velocities with g(v, v) in [0.3, 2] and capped spinor parts."""
    spatial = rng.uniform(-0.5, 0.5, size=(n, 3))
    q = rng.uniform(0.3, 2.0, size=n)
    x4 = np.concatenate([np.sqrt(q + np.sum(spatial**2, axis=1))[:, None], spatial], axis=1)
    spinor = rng.uniform(-1.0, 1.0, size=(n, 4))
    scale = spinor_cap * np.sqrt(q) * rng.random(n) / np.linalg.norm(spinor, axis=1)
    return x4, spinor * scale[:, None]


def minkowski_sq(x4):
    return x4[..., 0] ** 2 - np.sum(x4[..., 1:] ** 2, axis=-1)

"""Background geometry of the 9-dimensional flat space with a cubic norm.

A point or velocity is a real 9-vector ``X`` (components ``X[0] .. X[8]``,
always the last axis of an array).  Its length cubed is a homogeneous cubic
polynomial, and every real 9-vector is equivalently a complex Hermitian 3x3
matrix through a fixed basis of nine Hermitian matrices (seven of which are
the Gell-Mann matrices).  Under ``M -> D M D^+`` with ``det D = 1`` the
determinant of the matrix -- and hence the cubic norm -- is preserved, which
realizes SL(3, C) as the symmetry group of the geometry.
"""

import numpy as np

from .exceptions import NonRealEntry, NotHermitian, NotUnimodular

UNIMODULAR_TOL = 1e-9
HERMITIAN_TOL = 1e-12
REAL_ENTRY_TOL = 1e-12

_I = 1j


def _basis():
    lam = np.zeros((9, 3, 3), dtype=complex)
    lam[0] = np.diag([1, 1, 0])
    lam[1] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    lam[2] = [[0, -_I, 0], [_I, 0, 0], [0, 0, 0]]
    lam[3] = np.diag([1, -1, 0])
    lam[4] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    lam[5] = [[0, 0, -_I], [0, 0, 0], [_I, 0, 0]]
    lam[6] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    lam[7] = [[0, 0, 0], [0, 0, -_I], [0, _I, 0]]
    lam[8] = np.diag([0, 0, 1])
    dual = lam.copy()
    dual[8] *= 2
    lam.setflags(write=False)
    dual.setflags(write=False)
    return lam, dual

#: The nine Hermitian basis matrices; entries are exact 0, +-1, +-i.
#: ``LAMBDA_MATRICES[1:8]`` are the Gell-Mann matrices.
LAMBDA_MATRICES, LAMBDA_DUAL = _basis()


def cubic_form(x):
    """Cubic norm ``|X|^3`` of a 9-vector (broadcasts over leading axes)."""
    x = np.asarray(x, dtype=float)
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = (x[..., a] for a in range(9))
    return (
        (x0**2 - x1**2 - x2**2 - x3**2) * x8
        - x0 * (x4**2 + x5**2 + x6**2 + x7**2)
        + 2.0 * x1 * (x4 * x6 + x5 * x7)
        + 2.0 * x2 * (x5 * x6 - x4 * x7)
        + x3 * (x4**2 + x5**2 - x6**2 - x7**2)
    )


class CubicMetric:
    """Sparse fully symmetric rank-3 coefficient table.

    Coefficients are stored once per non-decreasing index triple
    ``(a, b, c)`` with ``a <= b <= c``; zero coefficients are never stored.
    Contraction multiplies each stored monomial by the number of distinct
    permutations of its triple, so ``contract`` equals the dense triple sum.
    """

    def __init__(self, coefficients):
        self._coeff = {}
        for triple, value in coefficients.items():
            if tuple(sorted(triple)) != tuple(triple):
                raise ValueError(f"triple {triple} is not non-decreasing")
            if value != 0.0:
                self._coeff[tuple(triple)] = float(value)

    @staticmethod
    def _multiplicity(triple):
        a, b, c = triple
        if a == b == c:
            return 1
        if a == b or b == c:
            return 3
        return 6

    def coefficient(self, a, b, c):
        """Value of the symmetric tensor at any index order (0 if absent)."""
        return self._coeff.get(tuple(sorted((a, b, c))), 0.0)

    def triples(self):
        """Stored (non-decreasing triple, coefficient) pairs."""
        return dict(self._coeff)

    def contract(self, x):
        """Triple contraction with a 9-vector; equals :func:`cubic_form`."""
        x = np.asarray(x, dtype=float)
        total = 0.0
        for (a, b, c), g in self._coeff.items():
            total = total + self._multiplicity((a, b, c)) * g * (
                x[..., a] * x[..., b] * x[..., c]
            )
        return total

    def as_dense(self):
        """Dense symmetric (9, 9, 9) array with every permutation filled in."""
        dense = np.zeros((9, 9, 9))
        for (a, b, c), g in self._coeff.items():
            for i, j, k in {(a, b, c), (a, c, b), (b, a, c),
                            (b, c, a), (c, a, b), (c, b, a)}:
                dense[i, j, k] = g
        return dense


# Monomials of the cubic norm: (triple, coefficient in the expanded polynomial).
_MONOMIALS = [
    ((0, 0, 8), 1.0), ((1, 1, 8), -1.0), ((2, 2, 8), -1.0), ((3, 3, 8), -1.0),
    ((0, 4, 4), -1.0), ((0, 5, 5), -1.0), ((0, 6, 6), -1.0), ((0, 7, 7), -1.0),
    ((1, 4, 6), 2.0), ((1, 5, 7), 2.0), ((2, 5, 6), 2.0), ((2, 4, 7), -2.0),
    ((3, 4, 4), 1.0), ((3, 5, 5), 1.0), ((3, 6, 6), -1.0), ((3, 7, 7), -1.0),
]


def metric_coefficients():
    """Symmetric tensor whose triple contraction reproduces :func:`cubic_form`.

    Each monomial coefficient of the cubic polynomial is divided by the
    number of distinct permutations of its index triple.
    """
    table = {}
    for triple, coeff in _MONOMIALS:
        table[triple] = coeff / CubicMetric._multiplicity(triple)
    return CubicMetric(table)


def vec_to_matrix(x):
    """Hermitian 3x3 representation of a 9-vector (broadcasts over leading axes).

    The determinant of the result equals ``cubic_form(x)``.
    """
    x = np.asarray(x, dtype=float)
    return np.einsum("...a,aij->...ij", x, LAMBDA_MATRICES)


def matrix_to_vec(m, tol=HERMITIAN_TOL):
    """9-vector of a Hermitian 3x3 matrix; inverse of :func:`vec_to_matrix`.

    Raises :class:`NotHermitian` if the conjugate-symmetry residue of ``m``
    exceeds ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    residue = np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max()
    if residue > tol:
        raise NotHermitian(f"conjugate-symmetry residue {residue:.3e} exceeds {tol:.1e}")
    return 0.5 * np.einsum("aij,...ji->...a", LAMBDA_DUAL, m).real


def _require_unimodular(d, n=3):
    """``d`` as a complex ``(..., n, n)`` stack, or NotUnimodular for its worst gap."""
    d = np.asarray(d, dtype=complex)
    if d.shape[-2:] != (n, n):
        raise ValueError(f"expected {n}x{n} matrices, got shape {d.shape}")
    gap = np.max(np.abs(np.linalg.det(d) - 1.0), initial=0.0)
    if not gap <= UNIMODULAR_TOL:
        raise NotUnimodular(f"|det - 1| = {gap:.3e} exceeds {UNIMODULAR_TOL:.1e}")
    return d


def group_action(d):
    """Real 9x9 matrix of the linear action induced by a unimodular ``d``.

    Entry ``(a, b)`` is half the trace of ``dual[a] @ d @ lam[b] @ d^+``,
    computed as the conjugated basis ``d lam[b] d^+`` paired with the dual
    basis; ``d`` of shape ``(..., 3, 3)`` gives ``(..., 9, 9)``.  The cubic
    form is invariant under the returned matrix.  Imaginary residues of the
    trace are checked against an absolute tolerance and discarded; a
    violation means the input corrupted the algebra (for instance through
    catastrophically large entries) and raises :class:`NonRealEntry`.
    """
    d = _require_unimodular(d)
    m = np.einsum("...ij,bjk,...lk->...bil", d, LAMBDA_MATRICES, d.conj())
    ell = 0.5 * np.einsum("aij,...bji->...ab", LAMBDA_DUAL, m)
    residue = np.max(np.abs(ell.imag), initial=0.0)
    if residue > REAL_ENTRY_TOL:
        raise NonRealEntry(f"imaginary residue {residue:.3e} exceeds {REAL_ENTRY_TOL:.1e}")
    return ell.real


def conjugation_action(d, x):
    """Transform a 9-vector by conjugating its Hermitian representation.

    Returns the 9-vector of ``d @ vec_to_matrix(x) @ d^+``; equals
    ``group_action(d) @ x`` and broadcasts over leading axes.
    """
    d = _require_unimodular(d)
    m = d @ vec_to_matrix(x) @ np.conj(np.swapaxes(d, -1, -2))
    m = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))  # exact result is Hermitian
    return matrix_to_vec(m)


def _rejection_sample(draw, accept, size):
    """Draw candidate blocks until ``size`` of them pass ``accept``.

    ``draw(k)`` returns ``k`` candidates stacked on the first axis and
    ``accept`` maps them to a boolean mask.  The first block has ``size``
    candidates and every later one only the shortfall, so ``size=None``
    (one candidate per block, squeezed) consumes the generator exactly as a
    draw-one-test-one loop does.  ``size`` may be an int or a shape.
    """
    shape = () if size is None else tuple(size) if np.iterable(size) else (int(size),)
    count = int(np.prod(shape))
    kept = draw(count)
    kept = kept[accept(kept)]
    while len(kept) < count:
        more = draw(count - len(kept))
        kept = np.concatenate([kept, more[accept(more)]])
    return kept.reshape(shape + kept.shape[1:])


def random_unimodular(rng, n=3, size=None):
    """Random determinant-1 complex ``n x n`` matrices, shape ``size + (n, n)``.

    Entries are drawn uniformly from the unit square of the complex plane;
    draws with ``|det| < 0.1`` are rejected (and only the rejected ones are
    redrawn) and each survivor is divided by the principal cube (square)
    root of its determinant, which lands the determinant on 1 regardless of
    branch.  ``size=None`` returns one ``(n, n)`` matrix.
    """
    def draw(k):
        return rng.random((k, n, n)) + 1j * rng.random((k, n, n))

    d = _rejection_sample(draw, lambda d: np.abs(np.linalg.det(d)) >= 0.1, size)
    return d / (np.linalg.det(d) ** (1.0 / n))[..., None, None]

"""Background geometry of the 9-dimensional flat space with a cubic norm.

A point or velocity is a real 9-vector ``X`` (components ``X[0] .. X[8]``,
always the last axis of an array).  Its length cubed is a homogeneous cubic
polynomial, and every real 9-vector is equivalently a complex Hermitian 3x3
matrix through a fixed basis of nine Hermitian matrices (seven of which are
the Gell-Mann matrices).  Under ``M -> D M D^+`` with ``det D = 1`` the
determinant of the matrix -- and hence the cubic norm -- is preserved, which
realizes SL(3, C) as the symmetry group of the geometry.
"""

import itertools

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

#: ``LAMBDA_DUAL[a] == _DUAL_SCALE[a] * LAMBDA_MATRICES[a]``.
_DUAL_SCALE = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])


def _vectors(x):
    """``x`` as a float ``(..., 9)`` array, or ValueError naming its shape."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (9,):
        raise ValueError(f"expected 9-vectors of shape (..., 9), got shape {x.shape}")
    return x


def cubic_form(x):
    """Cubic norm ``|X|^3`` of a 9-vector (broadcasts over leading axes)."""
    x = _vectors(x)
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = (x[..., a] for a in range(9))
    return (
        (x0**2 - x1**2 - x2**2 - x3**2) * x8
        - x0 * (x4**2 + x5**2 + x6**2 + x7**2)
        + 2.0 * x1 * (x4 * x6 + x5 * x7)
        + 2.0 * x2 * (x5 * x6 - x4 * x7)
        + x3 * (x4**2 + x5**2 - x6**2 - x7**2)
    )


class CubicMetric:
    """Fully symmetric rank-3 coefficient tensor on the 9-space.

    Built from its coefficients at non-decreasing index triples
    ``(a, b, c)`` with ``0 <= a <= b <= c <= 8``; every other index order
    reads the entry of its sorted triple.  The tensor is held as one
    read-only dense ``(9, 9, 9)`` array.
    """

    def __init__(self, coefficients):
        table = np.zeros((9, 9, 9))
        for (a, b, c), value in coefficients.items():
            if not 0 <= a <= b <= c <= 8:
                raise ValueError(f"triple {(a, b, c)} is not non-decreasing in 0..8")
            table[a, b, c] = value
        self._dense = table[tuple(np.sort(np.indices(table.shape), axis=0))]
        self._dense.setflags(write=False)

    def coefficient(self, a, b, c):
        """Value of the symmetric tensor at any index order (0 if absent)."""
        return float(self._dense[a, b, c])

    def triples(self):
        """Nonzero (non-decreasing triple, coefficient) pairs."""
        return _sorted_entries(self._dense)

    def contract(self, x):
        """Triple contraction with a 9-vector; equals :func:`cubic_form`."""
        x = np.asarray(x, dtype=float)
        return np.einsum("abc,...a,...b,...c->...", self._dense, x, x, x)

    def as_dense(self):
        """Dense symmetric (9, 9, 9) array (a writable copy)."""
        return self._dense.copy()


def _sorted_entries(dense):
    """Nonzero entries of a (9, 9, 9) array at non-decreasing index triples."""
    return {triple: float(dense[triple])
            for triple in itertools.combinations_with_replacement(range(9), 3)
            if dense[triple]}


def _polarised_determinant():
    """``G_abc = Re(eps_ijk eps_lmn lam[a]_il lam[b]_jm lam[c]_kn) / 6``.

    The basis entries are 0, +-1 and +-i, so every sum is an exact Gaussian
    integer and each nonzero coefficient is the correctly rounded +-1/3.
    """
    eps = np.zeros((3, 3, 3))
    eps[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
    eps[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0
    lam = LAMBDA_MATRICES
    dense = np.einsum("ijk,lmn,ail,bjm,ckn->abc", eps, eps, lam, lam, lam,
                      optimize=True).real / 6.0
    return CubicMetric(_sorted_entries(dense))


#: The paper's cubic metric tensor ``G_abc``, the polarisation of the
#: determinant in the Hermitian basis, built once at import.
G = _polarised_determinant()


def metric_coefficients():
    """Symmetric tensor whose triple contraction reproduces :func:`cubic_form`."""
    return G


def _cubic_gradient(x):
    """Gradient ``3 G(x, x, .)`` of :func:`cubic_form`, shape ``(..., 9)``.

    It is the sharp map: component ``a`` is ``tr(lambda_a adj X)``.
    """
    x = _vectors(x)
    return 3.0 * np.einsum("abc,...b,...c->...a", G._dense, x, x)


def vec_to_matrix(x):
    """Hermitian 3x3 representation of a 9-vector (broadcasts over leading axes).

    The determinant of the result equals ``cubic_form(x)``.
    """
    x = _vectors(x)
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
    with np.errstate(invalid="ignore"):  # a NaN gap fails the test below
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

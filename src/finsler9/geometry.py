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
import numbers
from collections.abc import Mapping

import numpy as np

from .exceptions import DegeneratePath, NonRealEntry, NotHermitian, NotUnimodular

UNIMODULAR_TOL = 1e-9
HERMITIAN_TOL = 1e-12

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

#: The basis as the real-linear map R^9 -> C^(3x3) = R^18: row ``a`` is
#: ``LAMBDA_MATRICES[a]`` (``LAMBDA_DUAL[a]``) read as 18 floats, real and
#: imaginary parts interleaved.  Every entry is 0, +-1 or +-2, and every
#: row and column has at most two nonzero entries, so each entry of a
#: product with either matrix or its transpose is a sum of at most two exact
#: terms: it rounds at most once, whatever order BLAS sums in.
_B = LAMBDA_MATRICES.view(float).reshape(9, 18)
_B_DUAL = LAMBDA_DUAL.view(float).reshape(9, 18)


#: Rows per BLAS call in the real basis products.  OpenBLAS threads a real
#: product past about 2^20 multiply-adds (6 000 rows), and on 2 shared cores
#: that can make it 10-100x slower.
_BLOCK_ROWS = 4096


def _stack(x, *tail, dtype=float):
    """``x`` as a ``dtype`` stack of shape ``(..., *tail)``, or ValueError naming its shape."""
    x = np.asarray(x, dtype=dtype)
    if x.shape[-len(tail):] != tail:
        kind = ", ".join(map(str, tail))
        raise ValueError(f"expected shape (..., {kind}), got shape {x.shape}")
    return x


def _is_count(n, least):
    """Whether ``n`` is an integer of at least ``least``: a bool is not a count."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least


def _is_index(i):
    """Whether ``i`` indexes one of the nine components: an integer in 0..8, not a bool."""
    return _is_count(i, 0) and i <= 8


def _is_real(x):
    """Whether ``x`` is one real number: a Python or numpy int or float, or a 0-d array of one."""
    return np.ndim(x) == 0 and np.asarray(x).dtype.kind in "biuf"


#: The range of ``|kappa|``: ``2^-300`` to ``2^300``, about 4.9e-91 to 2.0e90.
_KAPPA_RANGE = (2.0**-300, 2.0**300)


def _in_range(kappa):
    """Whether ``2^-300 <= |kappa| <= 2^300``, for a float or element by element; NaN is not.

    In that range ``|2 kappa / 3|^3`` lies within ``2^-902 .. 2^899``.  On
    momenta of the order of ``|kappa|``, as unit-speed momenta are, with
    room for a factor ``2^20`` either way, the monomials of
    :func:`finsler9.dynamics.momentum_constraint_residual` and their exact
    rounding errors stay normal, products of two stay below ``2^996`` and
    the 16-term sum stays finite, so its stated accuracy holds.  Far
    outside it ``c^3`` overflows, or underflows and admission accepts
    anything.  Zero, NaN and the infinities are outside the range.
    """
    size = abs(kappa)
    return (size >= _KAPPA_RANGE[0]) & (size <= _KAPPA_RANGE[1])


def _check_real(x, what):
    """ValueError naming the argument ``what`` and the dtype of ``x`` if that is complex or text.

    None and other Python objects pass, to be read by ``float``.
    """
    dtype = np.asarray(x).dtype
    if dtype.kind in "cSU":
        raise ValueError(f"{what} must be real, got dtype {dtype}")


def _check_kappa(kappa):
    """One ``kappa`` as a Python float, or ValueError naming it unless one real number in range.

    A Python float keeps ``c ** 3`` on C ``pow``; numpy's array power may
    round it apart.
    """
    if not isinstance(kappa, float):
        if kappa is None or np.ndim(kappa) != 0:
            what = "None" if kappa is None else f"shape {np.shape(kappa)}"
            raise ValueError(f"kappa must be one number, got {what}")
        _check_real(kappa, "kappa")
    kappa = float(kappa)
    if not _in_range(kappa):
        raise ValueError(f"kappa must be nonzero, with 2^-300 <= |kappa| <= 2^300, got {kappa!r}")
    return kappa


def _check_kappas(kappa):
    """``kappa`` as a float array, or :func:`_check_real`'s ValueError.

    An element outside the range raises :func:`_check_kappa`'s, for the first one.
    """
    _check_real(kappa, "kappa")
    kappa = np.asarray(kappa, dtype=float)
    outside = ~_in_range(kappa)
    if outside.any():
        _check_kappa(kappa[outside].flat[0])
    return kappa


def _grid(tau, k, curve=None):
    """``tau`` as a float grid for the samples of ``curve``, an ``(..., samples, m)`` array.

    DegeneratePath unless ``tau`` is 1-d and finite with ``k`` samples or
    more; ValueError naming both shapes unless ``curve`` has as many
    samples as ``tau``.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or len(tau) < k:
        raise DegeneratePath(f"need a 1-d grid of at least {k} samples, got shape {tau.shape}")
    if not np.isfinite(tau).all():
        raise DegeneratePath(f"need a finite grid, got {float(tau[~np.isfinite(tau)][0])}")
    if curve is not None and np.shape(curve)[-2:-1] != tau.shape:
        raise ValueError(f"a grid of shape {tau.shape} does not align with the samples of a "
                         f"curve of shape {np.shape(curve)}")
    return tau


def _refuse_above(token, what, residuals, tol, source=None):
    """``token("<what> <worst> exceeds <tol>")`` unless every residual is at most ``tol``.

    ``worst`` is the largest residual, 0 for none; a NaN one fails.  With a
    ``source``, a NaN worst reads ``inf`` unless an entry of ``source`` is
    NaN: the terms of large or infinite entries overflowed.
    """
    worst = np.max(residuals, initial=0.0)
    if not worst <= tol:
        if source is not None and np.isnan(worst) and not np.isnan(source).any():
            worst = np.inf
        raise token(f"{what} {worst:.3e} exceeds {tol:.1e}")


def _item(r):
    """A Python float for a 0-d result, the array itself otherwise."""
    return float(r) if r.ndim == 0 else r


def _rows_times(a, b):
    """Real ``a @ b`` for a ``(..., k)`` stack ``a``, ``_BLOCK_ROWS`` rows a BLAS call."""
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty((len(rows), b.shape[1]))
    for start in range(0, len(rows), _BLOCK_ROWS):
        np.matmul(rows[start:start + _BLOCK_ROWS], b, out=out[start:start + _BLOCK_ROWS])
    return out.reshape(a.shape[:-1] + b.shape[1:])


def cubic_form(x):
    """Cubic norm ``|X|^3`` of a 9-vector (broadcasts over leading axes)."""
    x = _stack(x, 9)
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = (x[..., a] for a in range(9))
    s4, s5, s6, s7 = x4**2, x5**2, x6**2, x7**2
    return (
        (x0**2 - x1**2 - x2**2 - x3**2) * x8
        - x0 * (s4 + s5 + s6 + s7)
        + 2.0 * x1 * (x4 * x6 + x5 * x7)
        + 2.0 * x2 * (x5 * x6 - x4 * x7)
        + x3 * (s4 + s5 - s6 - s7)
    )


def _norm(x):
    """Euclidean norm of ``(..., 9)`` rows, shape ``(...)``.

    The squares are summed in numpy's pairwise order for nine terms,
    ``((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) + s8``, so the
    result has the bits of ``np.linalg.norm(x, axis=-1)`` on C-contiguous
    rows, and keeps that order for any other layout.
    """
    s = x * x
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = s.transpose(-1, *range(s.ndim - 1))
    return np.sqrt(((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) + s8)


class CubicMetric:
    """Fully symmetric rank-3 coefficient tensor on the 9-space.

    Built from a mapping of non-decreasing index triples ``(a, b, c)``,
    ``0 <= a <= b <= c <= 8``, to finite real coefficients; every other
    index order reads the entry of its sorted triple.  Anything else raises
    ValueError: naming the argument if it is not a mapping, the key if it is
    not such a triple (a bool is not an index), or the triple and its value
    if the value is not one finite real number.  The tensor is held as one
    read-only dense ``(9, 9, 9)`` array.
    """

    def __init__(self, coefficients):
        if not isinstance(coefficients, Mapping):
            raise ValueError("coefficients must be a mapping of index triples to values, "
                             f"got {type(coefficients).__name__}")
        table = np.zeros((9, 9, 9))
        for triple, value in coefficients.items():
            if not (isinstance(triple, tuple) and len(triple) == 3
                    and all(map(_is_index, triple)) and triple == tuple(sorted(triple))):
                raise ValueError(f"triple {triple!r} is not non-decreasing in 0..8")
            if not (_is_real(value) and np.isfinite(value)):
                raise ValueError(f"the coefficient at {triple!r} must be a finite real number, "
                                 f"got {value!r}")
            table[triple] = value
        self._dense = table[tuple(np.sort(np.indices(table.shape), axis=0))]
        self._dense.setflags(write=False)

    def coefficient(self, a, b, c):
        """Value of the symmetric tensor at any index order (0 if absent).

        Each index must be an integer in 0..8 (a bool is not); otherwise
        ValueError names the triple.
        """
        if not all(map(_is_index, (a, b, c))):
            raise ValueError(f"triple {(a, b, c)!r} is not in 0..8")
        return float(self._dense[a, b, c])

    def triples(self):
        """Nonzero (non-decreasing triple, coefficient) pairs."""
        return _sorted_entries(self._dense)

    def contract(self, x):
        """Triple contraction with a 9-vector; equals :func:`cubic_form`."""
        x = _stack(x, 9)
        return np.einsum("abc,...a,...b,...c->...", self._dense, x, x, x)

    def as_dense(self):
        """Dense symmetric (9, 9, 9) array (a writable copy)."""
        return self._dense.copy()


def _sorted_entries(dense):
    """Nonzero entries of a (9, 9, 9) array at non-decreasing index triples."""
    return {triple: float(dense[triple])
            for triple in itertools.combinations_with_replacement(range(9), 3)
            if dense[triple]}


def _det_forms():
    """``Re det d`` and ``Im det d`` as ``sum forms[k, p, q, r] z[p] z[q] z[r]``, ``k`` 0 and 1.

    ``z`` is ``d`` as 18 floats in ``_B``'s layout: ``Re d[i, j]`` at
    ``2 (3 i + j)`` and ``Im d[i, j]`` one after it.  The permutation
    ``sigma`` gives ``sign(sigma) d[0, s0] d[1, s1] d[2, s2]``, whose 8 real
    products take the parts ``t`` of the three factors with weight
    ``sign(sigma) i^(t0 + t1 + t2)``: real or imaginary, +-1.  48 terms, with
    ``p``, ``q`` and ``r`` from rows 0, 1 and 2.
    """
    forms = np.zeros((2, 18, 18, 18))
    for sigma in itertools.permutations(range(3)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))
        for parts in itertools.product((0, 1), repeat=3):
            w = sign * (1, 1j, -1, -1j)[sum(parts)]
            p, q, r = (2 * (3 * i + j) + t for i, (j, t) in enumerate(zip(sigma, parts)))
            forms[:, p, q, r] = w.real, w.imag
    return forms


def _polarised_determinant():
    """``G_abc``: ``Re det`` of :func:`_det_forms` read in the basis ``_B``, symmetrised.

    The basis entries are 0, +-1 and +-i, so every sum is an exact integer
    and each nonzero coefficient is the correctly rounded +-1/3.
    """
    rows = np.einsum("pqr,ap,bq,cr->abc", _det_forms()[0], _B, _B, _B, optimize=True)
    dense = sum(rows.transpose(axes) for axes in itertools.permutations(range(3))) / 6.0
    return CubicMetric(_sorted_entries(dense))


#: The paper's cubic metric tensor ``G_abc``, the polarisation of the
#: determinant in the Hermitian basis, built once at import.
G = _polarised_determinant()


def metric_coefficients():
    """Symmetric tensor whose triple contraction reproduces :func:`cubic_form`."""
    return G


class _Terms(tuple):
    """A term table ``(i, j, ..., w)``: the index arrays of each term's factors, then its weights.

    Built only by :func:`_terms`; read by :func:`_products` and
    :func:`_compensated_sums`, all factors in one gather at ``index``.
    When the table has more terms than its ``n`` variables times its
    distinct weights and 1, ``scale`` holds those values, in order, and
    ``index`` points into the stack ``scale[:, None] * x`` of
    ``len(scale) * n`` rows: each first factor at ``w x[i]``, the others at
    ``1 x[j]``.  Otherwise ``scale`` is None and ``index`` points into ``x``.
    """


def _terms(dense):
    """The nonzero ``dense[a, i, j, ...]`` as a :class:`_Terms` table of steps over outputs ``a``.

    Step ``s`` holds the ``s``-th nonzero entry of ``dense[a]`` in C order
    of ``(i, j, ...)``: index arrays ``(steps, len(dense))`` and weights
    ``(steps, len(dense), 1)``, zero where an ``a`` has fewer entries.
    ``geometry`` builds the gradient and action tables at import, and
    :mod:`finsler9.dynamics` the momentum determinant's.
    """
    a, *factors = np.nonzero(dense)
    counts = np.bincount(a, minlength=len(dense))
    step = np.arange(len(a)) - (np.cumsum(counts) - counts)[a]
    index = np.zeros((len(factors), counts.max(), len(dense)), dtype=np.intp)
    weights = np.zeros((counts.max(), len(dense), 1))
    index[:, step, a], weights[step, a, 0] = factors, dense[(a, *factors)]
    table = _Terms((*index, weights))
    n = dense.shape[-1]
    scale = np.array(sorted({*weights.flat, 1.0}))  # np.unique would import numpy.ma
    table.scale, table.index = None, index
    if scale.size * n < weights.size:
        rows = np.full(index.shape, np.searchsorted(scale, 1.0))
        rows[0] = np.searchsorted(scale, weights[..., 0])
        table.scale, table.index = scale, index + rows * n
    return table


#: ``G``'s 60 nonzero entries as 8 steps of one term per component.
_GRADIENT_TERMS = _terms(G._dense)


def _action_forms():
    """``Re tr(dual_a d lam_b d^+) / 2`` as ``sum z[p] forms[9 a + b, p, q] z[q]``, ``p <= q``.

    ``z`` is ``d`` as 18 floats.  At ``p = (j, k, s)``, ``q = (i, l, t)``
    the form is ``Re(c phase[s] conj(phase[t])) / 2``, exact, with
    ``c = dual_a[i, j] lam_b[k, l]`` and ``phase = (1, i)``; each ``(q, p)``
    entry is added to its ``(p, q)``.
    """
    c = np.multiply.outer(LAMBDA_DUAL, LAMBDA_MATRICES)  # (a, i, j, b, k, l)
    z = np.array([[c.real, c.imag], [-c.imag, c.real]])  # (s, t, a, i, j, b, k, l)
    forms = 0.5 * z.transpose(2, 5, 4, 6, 0, 3, 7, 1).reshape(81, 18, 18)
    return (forms + np.swapaxes(forms, -1, -2)) * (np.tri(18).T - np.eye(18) / 2)


#: The 81 entries of :func:`group_action` as 314 terms in 8 steps.
_ACTION_TERMS = _terms(_action_forms())

#: ``Re det d`` and ``Im det d`` as 24 steps of the 2 outputs.
_COMPLEX_DET_TERMS = _terms(_det_forms())


def _monomials(dense, scale):
    """The cubic form at ``scale * x`` as one output's monomials ``w x[a] x[b] x[c]``.

    A ``(1, 9, 9, 9)`` array, nonzero at non-decreasing triples only: the
    entry times its number of distinct index orders and the three scales.
    For ``G`` these round to exactly ``+-1`` or ``+-2``.
    """
    a, b, c = np.indices(dense.shape)
    orders = np.where(a == c, 1, np.where((a == b) | (b == c), 3, 6))
    weights = orders * dense * scale[a] * scale[b] * scale[c]
    return np.where((a <= b) & (b <= c), weights, 0.0)[None]


#: Products of a block of a term kernel: 288 KiB, which stay in cache.
_CACHE_TERMS = 36 * 1024


def _by_blocks(kernel, terms, rows, out, copies=1):
    """``out[..., i] = kernel(rows[i])`` for ``(n, k)`` rows, ``_CACHE_TERMS`` products a block.

    ``kernel(x, terms)`` gets a contiguous ``(k, m)`` copy of ``m`` rows and
    returns ``(..., m)``; it forms ``terms[-1].size`` products a row, and
    holds ``copies`` arrays of them at once.  A row-major result is filled
    through its transpose.  inf and NaN propagate without a warning.
    """
    size = _CACHE_TERMS // (copies * terms[-1].size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(rows), size):
            out[..., start:start + size] = kernel(rows[start:start + size].T.copy(), terms)
    return out


def _products(x, terms):
    """The products ``((w x[i]) x[j]) ...`` of a :class:`_Terms` table at rows ``x``.

    With a ``scale`` each block forms the stack of ``x`` times each
    distinct weight once; ``w x[i]`` is the same IEEE product either way,
    and ``1 x[j]`` is ``x[j]``, so the bits are those of the weight pass.
    """
    stack = x if terms.scale is None else (terms.scale[:, None, None] * x).reshape(-1, x.shape[-1])
    factors = stack[terms.index]  # at once: a second large temporary a block faults pages
    t = factors[0]
    if terms.scale is None:
        t *= terms[-1]
    for f in factors[1:]:
        t *= f
    return t


def _halves(t):
    """Sum over the first axis of a ``(2^k, ...)`` array, by halves."""
    while len(t) > 1:
        t = t[:len(t) // 2] + t[len(t) // 2:]
    return t[0]


def _plain_sums(x, terms):
    """A table's terms at rows ``x`` summed by halves, and their magnitudes summed likewise."""
    t = _products(x, terms)
    return _halves(t), _halves(np.abs(t, out=t))


#: Veltkamp's splitting constant ``2^27 + 1`` for float64.
_SPLITTER = 2.0**27 + 1.0


def _split(x):
    """Veltkamp's split ``x = hi + lo``, each half of at most 26 bits."""
    t = _SPLITTER * x
    hi = t - (t - x)
    return hi, x - hi


def _two_product(a, b):
    """``a * b`` and its rounding error, exactly (Dekker), for factors ``(value, hi, lo)``."""
    (a, ah, al), (b, bh, bl) = a, b
    p = a * b
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _two_sum(a, b):
    """``a + b`` and its rounding error, exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _compensated_sums(x, terms):
    """The sums of a degree-3 table without ``scale`` at rows ``x``: exact products, compensated.

    Each term is ``w (p2 + e2 + e1 x_c)`` with ``x_a x_b = p1 + e1`` and
    ``p1 x_c = p2 + e2`` exact; the ``w p2`` are summed by halves with
    their exact errors, which join the ``e`` parts in a plain sum (Ogita,
    Rump and Oishi's Dot2).  Each factor and its Veltkamp halves come from
    one gather at ``terms.index``: 9 arrays the size of the terms.
    """
    offsets = len(x) * np.arange(3)[:, None, None]
    a, b, c = np.concatenate([x, *_split(x)])[terms.index[:, None] + offsets]
    p1, e1 = _two_product(a, b)
    p2, e2 = _two_product((p1, *_split(p1)), c)
    s, q = terms[-1] * p2, terms[-1] * (e2 + e1 * c[0])
    while len(s) > 1:
        half = len(s) // 2
        s, e = _two_sum(s[:half], s[half:])
        q = q[:half] + q[half:] + e
    return s[0] + q[0]


def _cubic_gradient(x):
    """Gradient ``3 G(x, x, .)`` of :func:`cubic_form`, shape ``(..., 9)``.

    It is the sharp map: component ``a`` is ``tr(lambda_a adj X)``.  Each
    block forms the terms ``(w * x[b]) * x[c]`` of ``_GRADIENT_TERMS`` at
    once and sums them step by step from ``+0``: the order of the dense
    ``3 einsum("abc,...b,...c->...a", G, x, x)``, without its zero terms,
    so both give the same bits for finite ``x``, and a stack gives the
    bits of its rows.  That einsum is not library code: the tests keep it
    as their oracle, ``gradient_oracle``.
    """
    x = _stack(x, 9)
    rows = x.reshape(-1, 9)
    grad = np.empty(rows.shape)
    _by_blocks(lambda xt, terms: 3.0 * np.add.reduce(_products(xt, terms), initial=0.0),
               _GRADIENT_TERMS, rows, grad.T)
    return grad.reshape(x.shape)


def _basis_matrix(x, basis):
    """``sum_a x[..., a] basis[a]`` in ``_B`` or ``_B_DUAL``, as complex ``(..., 3, 3)``."""
    x = _stack(x, 9)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN propagate
        flat = _rows_times(x, basis)
    return flat.view(complex).reshape(x.shape[:-1] + (3, 3))


def vec_to_matrix(x):
    """Hermitian 3x3 representation of a 9-vector (broadcasts over leading axes).

    The determinant of the result equals ``cubic_form(x)``.
    """
    return _basis_matrix(x, _B)


def matrix_to_vec(m):
    """9-vector of a Hermitian 3x3 matrix; inverse of :func:`vec_to_matrix`.

    Component ``a`` is ``Re tr(LAMBDA_DUAL[a] m) / 2``; ``m`` has shape
    ``(..., 3, 3)`` (otherwise ValueError naming its shape).  Raises
    :class:`NotHermitian` if the conjugate-symmetry residue of ``m``
    exceeds ``HERMITIAN_TOL`` or is not finite.
    """
    m = _stack(m, 3, 3, dtype=complex)
    entries = np.ascontiguousarray(m).reshape(m.shape[:-2] + (9,))
    # inf - inf is NaN, which fails the residue test; two entries near the
    # float limit sum to inf
    with np.errstate(over="ignore", invalid="ignore"):
        _refuse_above(NotHermitian, "conjugate-symmetry residue", _hermitian_residue(entries),
                      HERMITIAN_TOL)
        return 0.5 * _rows_times(entries.view(float), _B_DUAL.T)


def _hermitian_residue(entries):
    """Largest ``|m_ij - conj(m_ji)|`` of row-major 3x3 entries ``(..., 9)``."""
    m = entries.reshape(entries.shape[:-1] + (3, 3))
    return np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))), initial=0.0)


def _require_unimodular(d):
    """``d`` as a complex ``(..., 3, 3)`` stack, or NotUnimodular for its worst gap ``|det - 1|``.

    ``det d`` is the 48 real terms of ``_COMPLEX_DET_TERMS``, each output's 24
    summed in sequence: real arithmetic, so a stack's verdict and message
    are those of its worst matrix.  A NaN gap reads ``inf`` unless an entry
    of ``d`` is NaN: the terms of large or infinite entries overflowed.
    """
    d = _stack(d, 3, 3, dtype=complex)
    z = np.ascontiguousarray(d).view(float).reshape(-1, 18)
    det = np.empty((len(z), 2))
    _by_blocks(lambda zt, terms: np.add.reduce(_products(zt, terms), axis=0),
               _COMPLEX_DET_TERMS, z, det.T)
    _refuse_above(NotUnimodular, "|det - 1| =", np.abs(det.view(complex) - 1.0), UNIMODULAR_TOL, d)
    return d


def group_action(d):
    """Real 9x9 matrix of the linear action induced by a unimodular ``d``.

    Entry ``(a, b)`` is half the trace of ``dual[a] @ d @ lam[b] @ d^+``, a
    quadratic form in the 18 floats of ``d``: at most 8 terms
    ``w z[p] z[q]`` of ``_ACTION_TERMS``, summed by halves.  ``d`` of shape
    ``(..., 3, 3)`` gives ``(..., 9, 9)``, and a stack gives the bits of its
    matrices.  The cubic form is invariant under the returned matrix.  With
    ``|d|_1`` the entrywise ``|Re d| + |Im d|`` and ``u = 2^-53``, an entry
    is within ``gamma_4 tr(|dual[a]| |d|_1 |lam[b]| |d|_1^T) / 2`` of its
    exact value, ``gamma_4 = 4u / (1 - 4u)``, while no product underflows
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    4.2).  A non-finite entry (for instance from catastrophically large
    entries) raises :class:`NonRealEntry`.
    """
    d = _require_unimodular(d)
    z = np.ascontiguousarray(d).view(float).reshape(-1, 18)
    ell = np.empty(d.shape[:-2] + (9, 9))
    _by_blocks(lambda zt, terms: _halves(_products(zt, terms)),
               _ACTION_TERMS, z, ell.reshape(-1, 81).T)
    if not np.isfinite(ell).all():
        raise NonRealEntry("the action has a non-finite entry")
    return ell


def conjugation_action(d, x):
    """Transform a 9-vector by conjugating its Hermitian representation.

    The 9-vector of ``d @ vec_to_matrix(x) @ d^+``, computed as the linear
    map ``group_action(d)`` applied to ``x``; ``d`` and ``x`` broadcast
    over leading axes.  A result with a NaN or infinite entry (a NaN or
    infinite ``x``, or one whose image exceeds the float range) raises
    :class:`NotHermitian`.
    """
    out = np.einsum("...ab,...b->...a", group_action(d), _stack(x, 9))
    if not np.isfinite(out).all():
        raise NotHermitian("the conjugated vector has a non-finite entry")
    return out


def _rejection_sample(draw, accept, size):
    """Draw candidate blocks until ``size`` of them pass ``accept``.

    ``draw(k)`` returns ``k`` candidates stacked on the first axis and
    ``accept`` maps them to a boolean mask.  The first block has ``size``
    candidates and every later one only the shortfall, so ``size=None``
    (one candidate per block, squeezed) consumes the generator exactly as a
    draw-one-test-one loop does.  ``size`` may be a non-negative int or a
    shape of them; anything else raises ValueError naming it.
    """
    shape = () if size is None else tuple(size) if np.iterable(size) else (size,)
    if not all(_is_count(k, 0) for k in shape):
        raise ValueError(f"size must be None, a non-negative integer or a tuple of them, "
                         f"got {size!r}")
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
    branch.  ``size=None`` returns one ``(n, n)`` matrix.  An ``n`` that is
    not a positive integer, or a ``size`` that is not a non-negative integer
    or a shape of them, raises ValueError naming it.
    """
    if not _is_count(n, 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")

    def draw(k):
        return rng.random((k, n, n)) + 1j * rng.random((k, n, n))

    d = _rejection_sample(draw, lambda d: np.abs(np.linalg.det(d)) >= 0.1, size)
    return d / (np.linalg.det(d) ** (1.0 / n))[..., None, None]

"""What the contract tests share: the bit predicate and the list of exported callables."""

import numpy as np

import finsler9


def _floats(x):
    """``x`` as a flat float64 array; a complex array as its real and imaginary parts."""
    x = np.asarray(x)
    x = x.astype(complex if np.iscomplexobj(x) else float, copy=False)
    return np.ascontiguousarray(x).reshape(-1).view(np.float64)


def same_bits(a, b):
    """Equal shapes, NaN in the same places, and every other float64 bit pattern equal.

    So ``-0.0`` differs from ``0.0``, and a NaN equals a NaN whatever its
    payload.  A complex array compares as its real and imaginary parts.
    """
    if np.shape(a) != np.shape(b):
        return False
    a, b = _floats(a), _floats(b)
    nan = np.isnan(b)
    return (a.shape == b.shape and np.array_equal(np.isnan(a), nan)
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def exported_callables():
    """Name -> object of every callable that ``finsler9`` exports, exceptions aside."""
    return {name: obj for name, obj in vars(finsler9).items()
            if not name.startswith("_") and callable(obj)
            and not (isinstance(obj, type) and issubclass(obj, BaseException))}

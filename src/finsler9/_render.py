"""The rows of ``propagate``: an exact, vectorised ``format(x, ".17g")``.

Only ``propagate`` imports this module, so no other command builds its
tables.  A value's text is 24 bytes, three little-endian words padded with
zero bytes: byte 1 the sign, 2-6 the lead "0.000" of a value below 1, 7
the first of its 17 digits and 8-23 the other sixteen.  A row is a
separator word before each of its ten values and a closing word; dropping
every zero byte leaves the text.

:class:`Renderer` renders every block of rows in one workspace allocated
when it is made, with ``out=`` in every step, so that a process pages its
arrays in once, whatever the number of rows.
"""

import numpy as np

from .geometry import _SPLITTER, _split

#: Rows rendered and written at a time.  A block's text and the copy a text
#: file encodes from it stay below glibc's 128 KiB trim threshold, so the
#: heap keeps their pages for the next block.
CHUNK_ROWS = 256

_U8 = np.dtype("<u8")
_8, _32, _52, _56, _E4, _E8 = (np.uint64(k) for k in (8, 32, 52, 56, 10**4, 10**8))


def _word(text):
    return int.from_bytes(text.encode(), "little")


_SEPARATORS = {"csv": ([""] + [","] * 9, "\n"),
               "json": ([', {"s": ', ', "x": ['] + [", "] * 8, "]}")}

# A value's code is q + 32 s for its sign s and q = 16 - X for its decimal
# exponent X, so that |x| 10^q has 17 digits before the point; X is in the
# window -4..16 exactly when ``code & 31 <= 20``.  Indexed by the twelve bits
# above the mantissa, the code of a binade's lower exponent and the power of
# ten where its upper one begins: ``|x| >= power`` takes one off the code.
# Zero takes q = 0 and prints from its own key below, a subnormal takes
# q = -1, and every other value outside the window lands on 21..31 or -11..-1.
_e = np.arange(4096) & 2047
_x0 = np.floor((_e - 1023) * np.log10(2.0)).astype(np.intp)  # exact: no k log10(2) is near an integer
_CODE = np.where(_e == 0, 0, np.clip(16 - _x0, -10, 31)) + 32 * (np.arange(4096) >> 11)
#: the powers 10^-4..10^17, each the double nearest it and not below
_POWER = np.array([float(f"1e{k}") for k in range(-4, 18)])[np.clip(_x0 + 5, 0, 21)]
_POWER[_e == 0] = 5e-324
#: ``10^q``, every one an exact double, and its halves, by code
_SCALE = np.array([float(f"1e{q}") for q in range(21)] + [1.0] * 11)[np.arange(64) & 31]
_SCALE = np.stack([_SCALE, *_split(_SCALE)])

# The 17 digits are g0, the first, and four groups g1..g4 of four.  Their
# words, read as one number of 24 bytes that are each at most 9, have the
# exponent 8 (K + 6) + 0..3 for the place K of their last nonzero digit
# among the 17, 0 for zero: a float of them, however rounded, tells K.
_t = np.arange(10, dtype=_U8)
#: Digit values of the 4-digit groups 0..9999, first digit in the lowest byte.
_DIGITS = (_t[:, None, None, None] | _t[:, None, None] << 8 | _t[:, None] << 16 | _t << 24).ravel()
_BYTE_WEIGHTS = np.array([1.0, 2.0**64, 2.0**128])
#: 64 K by the exponent bits of that float
_PLACES = np.where(np.arange(2048) > 0, 64 * ((np.arange(2048) - 1023) // 8 - 6), 0)


def _masks():
    """Word masks ``(3, 64)`` by code and ``(3, 1152)`` by key ``code + 64 K``.

    The first selects the integer part of a value of at least 1, bytes 7 to
    ``7 + X``, which moves one byte down to make room for its dot.  The
    second adds the sign, the lead, the dot and the ASCII zero of each of the
    K digits that print; the integer part prints whole.
    """
    q, b = np.arange(32)[:, None], np.arange(24, dtype=np.int8)
    x = np.where(q <= 20, 16 - q, -99)
    low = 255 * ((x >= 0) & (b <= 7 + x))
    k = np.arange(18)[:, None, None]
    digits = np.where(x >= 0, (b >= 6) & ((b <= 6 + x) | (b >= 8 + x) & (b <= 6 + k)),
                      (b >= 7) & (b <= 6 + k) | (b == 6 + x) | (b >= 8 + x) & (b <= 6))
    digits = np.where(k == 0, b == 6, digits & (x > -99))  # zero prints "0"
    dot = (k > 0) & (b == 7 + x) & ((x < 0) | (k > x + 1))
    lead = 48 * digits.astype(np.uint8) + 46 * dot
    low, lead = np.concatenate([low, low]), np.concatenate([lead, lead + 45 * (b == 1)], axis=1)
    return tuple(np.ascontiguousarray(m, np.uint8).view(_U8).reshape(-1, 3).T.copy()
                 for m in (low, lead))


_LOW, _LEAD = _masks()
del _e, _x0, _t


class Renderer:
    """One workspace that renders up to ``rows`` trajectory rows at a time, as ``fmt``."""

    def __init__(self, fmt, rows):
        n = 10 * rows
        seps, close = _SEPARATORS[fmt]
        self._buffer = bytearray(8 * 41 * rows)
        row_words = np.frombuffer(self._buffer, _U8).reshape(rows, 41)
        fields = row_words[:, :40].reshape(rows, 10, 4)
        fields[..., 0] = [_word(t) for t in seps]
        row_words[:, 40] = _word(close)
        self._slots = fields[..., 1:]
        self._values = np.empty((rows, 10))
        f = np.empty((13, n))
        i = np.empty((12, n), np.intp)
        u = np.empty((12, n), _U8)
        self._arrays = (  # named as in _render; fw reuses scale's rows, unused by then
            self._values.reshape(-1), f[0], f[1], f[2], f[3], f[4:7], f[7:9], f[9:13], f[4:7],
            i[0], i[1], i[2], i[3], i[4], i[5:7], i[7:12],
            np.empty(n, bool), u[:3], u[3:6], u[6:10], u[10:12],
            u[:3].reshape(3, rows, 10), u[3:6].reshape(3, rows, 10), self._slots.transpose(2, 0, 1))

    def text(self, s, points):
        """The text of the rows ``(s, points)``, each opened by its separator ("" or ", ")."""
        m = len(s)
        self._values[:m, 0] = s
        self._values[:m, 1:] = points
        self._values[m:] = 0.0
        self._render()
        raw = self._buffer if m == len(self._values) else self._buffer[:8 * 41 * m]
        return raw.translate(None, b"\0").decode("ascii")

    def _render(self):
        """Every value's words into the rows.

        ``|x| 10^q = p + e`` is exact (Dekker) for the decimal exponent
        ``X = 16 - q``, and ``p >= 2^53`` is an even integer, so ``p + rint(e)``
        is ``x`` rounded to 17 digits, half to even.  It has 17 digits: a
        value rounds up to the power of ten above it only from within
        ``5e-18`` of it, relatively, and no double of the window does (the
        nearest is ``8.3e-17`` below ``0.1``).  Values outside the window
        are formatted by Python, all in one ``%``, into their own words.
        """
        (v, a, t, p, e, scale, halves, products, fw, bits, code, d, key, scratch, hl, g,
         test, w, mask, digits, carry, words, masks, slots) = self._arrays
        # the code, and the values outside the window
        np.right_shift(v.view(_U8), _52, out=bits.view(_U8))
        np.abs(v, out=a)
        _CODE.take(bits, out=code, mode="clip")
        _POWER.take(bits, out=t, mode="clip")
        np.greater_equal(a, t, out=test)
        np.subtract(code, test.view(np.uint8), out=code)
        np.bitwise_and(code, 31, out=scratch)
        other = None
        if scratch.max() > 20:
            other = np.flatnonzero(scratch > 20)
            a[other] = 0.0  # rendered as zero, then overwritten
        # p and e, as geometry._split and _two_product give them, in place
        _SCALE.take(code, axis=1, out=scale, mode="clip")
        np.multiply(a, _SPLITTER, out=t)
        np.subtract(t, a, out=halves[1])
        np.subtract(t, halves[1], out=halves[0])
        np.subtract(a, halves[0], out=halves[1])
        np.multiply(a, scale[0], out=p)
        np.multiply(halves, scale[1], out=products[:2])
        np.multiply(halves, scale[2], out=products[2:])
        np.subtract(p, products[0], out=e)
        np.subtract(e, products[1], out=e)
        np.subtract(e, products[2], out=e)
        np.subtract(products[3], e, out=e)
        # the 17 digits as g = [g0, g1, g3, g2, g4]: the first, and four groups of four
        np.rint(e, out=scratch, casting="unsafe")
        np.copyto(d, p, casting="unsafe")
        np.add(d, scratch, out=d)
        gu, hlu = g.view(_U8), hl.view(_U8)
        np.floor_divide(d.view(_U8), _E8, out=hlu[0])
        np.multiply(hl[0], 10**8, out=hl[1])
        np.subtract(d, hl[1], out=hl[1])
        np.floor_divide(hlu, _E4, out=gu[1:3])  # g1 with the first digit, and g3
        np.multiply(g[1:3], 10**4, out=g[3:])
        np.subtract(hl, g[3:], out=g[3:])
        np.floor_divide(gu[1], _E4, out=gu[0])
        np.multiply(g[0], 10**4, out=scratch)
        np.subtract(g[1], scratch, out=g[1])
        # the digit words, and the key: the code and the place K of the last digit that prints
        _DIGITS.take(g[1:], out=digits, mode="clip")
        np.left_shift(g[0], 56, out=w[0].view(np.intp))
        np.left_shift(digits[2:], _32, out=w[1:])
        np.bitwise_or(w[1:], digits[:2], out=w[1:])
        np.copyto(fw, w.view(np.intp), casting="unsafe")
        np.matmul(_BYTE_WEIGHTS, fw, out=t)
        np.right_shift(t.view(_U8), _52, out=bits.view(_U8))
        _PLACES.take(bits, out=key, mode="clip")
        np.add(key, code, out=key)
        _LOW.take(code, axis=1, out=mask, mode="clip")
        np.bitwise_and(w, mask, out=mask)
        np.bitwise_xor(w, mask, out=w)
        np.left_shift(mask[1:], _56, out=carry)
        np.right_shift(mask, _8, out=mask)
        np.bitwise_or(mask[:2], carry, out=mask[:2])
        np.bitwise_or(w, mask, out=w)
        _LEAD.take(key, axis=1, out=mask, mode="clip")
        np.bitwise_or(words, masks, out=slots)
        if other is not None:
            # one % for the batch; "%.17g" is at most 24 characters, and the text has no spaces
            text = np.frombuffer(b"%-24.17g" * len(other) % tuple(v[other].tolist()), np.uint8)
            self._slots[np.divmod(other, 10)] = (text * (text != ord(" "))).view(_U8).reshape(-1, 3)

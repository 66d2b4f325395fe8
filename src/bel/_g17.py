"""Vectorised ``'%.17g' % x`` for tables of float64, byte for byte.

``format_rows(table)`` returns the text of ``"%.17g,...,%.17g\\n" % row``
over the rows of a 2-D float64 array.  Most cells get their digits from
numpy in long double arithmetic that proves them correct; the rest, which
the proof cannot cover, get ``'%.17g' % v`` itself.  This is the
fast-path-plus-fallback design of Grisu (Loitsch, PLDI 2010) applied to the
fixed 17-digit case of Ryu printf (Adams, PLDI 2019).

**Digits.**  For a finite normal ``x != 0`` with decimal exponent ``e``,
``z = |x| 10^(16-e)`` lies in ``[1e16, 1e17)`` and its nearest integer ``M``
holds the 17 significant digits ``'%.17g'`` prints (a carry to ``10^17``
means ``M = 10^16`` and exponent ``e + 1``).  The fast path computes
``y = fl(|x| P[16-e])`` in long double, where ``P[k]`` is ``10^k``
correctly rounded, so with ``u = 2^-(nmant+1)``:

* ``P[k] = 10^k (1 + d1)`` and ``y = |x| P[k] (1 + d2)`` with
  ``|d1|, |d2| <= u``, hence ``|y - z| <= z (2u + u^2)``;
* a cell is used only when ``y < 1e17``, and ``y >= z (1 - u)^2`` gives
  ``z < 1e17 (1 + 3u)``, so ``|y - z| < 1e17 (2u + u^2)(1 + 3u)
  <= 1e17 * 2u (1 + 2^-40) = _TIE_WINDOW`` (about 0.0108 for ``u = 2^-64``;
  the ``2^-40`` also covers the float64 rounding of the constant itself).

``y < 1e17 < 2^57`` leaves the 64-bit significand at least 7 fraction bits,
so ``t = floor(y)`` and ``frac = y - t`` are exact; ``y >= 2^53`` leaves
``frac`` at most 10 fraction bits, so it is exact in float64 too (for a quad
long double the float64 rounding is monotonic and maps the whole window
onto 0.5, so the test below holds as well).  When
``|frac - 1/2| > _TIE_WINDOW`` no half-integer lies between ``y`` and ``z``,
so ``round(z) = t + (frac > 1/2)``; this also holds across the decade
boundaries, where ``round(z)`` is ``10^16`` or the carry.  Every other cell,
and every non-finite or subnormal one, falls back; so do exact ties (``%``
rounds them half to even).

**Layout.**  Each cell owns ``_WIDTH`` byte slots: the separator before it,
its sign (or that separator again when it is positive), the 17 digits as an
integer part, ``0.`` and up to three zeros, the 17 digits again as a
fraction, and ``e`` with the exponent.  A point overwrites the fraction
digit at the exponent, so the kept integer and fraction digits meet it.  A
keep mask, looked up by (sign, exponent class, significant digits), selects
the slots ``%g`` prints: fixed notation for exponents -4..16, scientific
otherwise, trailing zeros dropped.  A fallback cell's ``'%.17g'`` text is
written into its slots after its separator.  ``buf[keep]`` is the text,
less the first separator and plus the final newline.
"""

from __future__ import annotations

import functools

import numpy as np

#: The fast path needs a long double of at least 64 significand bits
#: (x87 extended precision); a narrower one formats every cell with ``%``.
_FAST_PATH = np.finfo(np.longdouble).nmant >= 63

_U = 2.0 ** -(np.finfo(np.longdouble).nmant + 1)
#: Half-width of the band around ``frac = 1/2`` that falls back (see above).
_TIE_WINDOW = 1e17 * 2.0 * _U * (1.0 + 2.0**-40)

#: Decimal exponents of normal float64 values, one correction included.
_E_MIN, _E_MAX = -309, 309

_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
_LARGEST = float(np.finfo(np.float64).max)

# Slots of one cell; the last is a scratch slot that is never kept.
_SEP, _SIGN, _INT, _LEAD, _FRAC, _EXP, _WIDTH = 0, 1, 2, 19, 24, 41, 48
_SCRATCH = _WIDTH - 1
_LONGEST = 24  # '%.17g' text: "-2.2250738585072014e-308"

#: Cells formatted at a time, so that the temporaries stay in cache.
_BLOCK_CELLS = 8192

# Exponent classes: 0..20 fixed notation for e = -4..16, then scientific
# with a two- or three-digit exponent, zero, and fallback.
_SCI2, _SCI3, _ZERO, _FALLBACK = 21, 22, 23, 24
_CLASSES = 25


def _round_ratio(num: int, den: int, bits: int):
    """``(q, s)`` with ``q 2^-s`` the ``bits``-bit round-half-even value of
    ``num / den``."""
    s = bits - num.bit_length() + den.bit_length()
    a, b = (num << s, den) if s >= 0 else (num, den << -s)
    if a >= b << bits:
        s -= 1
        a, b = (num << s, den) if s >= 0 else (num, den << -s)
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q & 1):
        q += 1
    if q >> bits:
        q, s = q >> 1, s - 1
    return q, s


def _powers() -> np.ndarray:
    """``P[e - _E_MIN] = 10^(16-e)`` correctly rounded to long double, from
    exact integer quotients assembled out of exact 32-bit pieces."""
    bits = np.finfo(np.longdouble).nmant + 1
    q, s = zip(*(_round_ratio(10**k, 1, bits) if k >= 0 else _round_ratio(1, 10**-k, bits)
                 for k in range(16 - _E_MIN, 15 - _E_MAX, -1)))
    s = np.array(s)
    total = np.zeros(len(q), dtype=np.longdouble)
    for j in reversed(range(-(-bits // 32))):  # high piece first: every sum is exact
        piece = np.array([(v >> (32 * j)) & 0xFFFFFFFF for v in q], dtype=np.uint64)
        total += np.ldexp(piece.astype(np.longdouble), 32 * j - s)
    return total


def _keep_table() -> np.ndarray:
    """Keep masks, one row per ``(negative, class, significant digits - 1)``."""
    neg = np.arange(2)[:, None, None, None].astype(bool)
    cls = np.arange(_CLASSES)[None, :, None, None]
    nd = np.arange(1, 18)[None, None, :, None]
    slot = np.arange(_WIDTH)
    e = np.where(cls <= 20, cls - 4, 0)  # scientific notation splits like e = 0
    small = cls < 4
    split = ((cls >= 4) & (cls <= 20)) | (cls == _SCI2) | (cls == _SCI3)
    i, lead, f, x = slot - _INT, slot - _LEAD, slot - _FRAC, slot - _EXP
    keep = (
        ((slot == _SEP) & neg)
        | (slot == _SIGN)
        | ((i >= 0) & (i < 17) & split & (i <= e))
        | ((lead >= 0) & (lead < 5) & ((small & (lead >= 4 + e)) | ((cls == _ZERO) & (lead == 4))))
        | ((f >= 0) & (f < nd) & ((small | (split & (f >= e) & (nd > e + 1)))))
        | ((x >= 0) & (((cls == _SCI2) & (x < 4)) | ((cls == _SCI3) & (x < 5))))
    )
    return keep.reshape(-1, _WIDTH)


def _class_tables():
    """Per exponent ``e``: its class; per class: the slot that takes the
    point and the five bytes before the fraction; per exponent: ``e±dd``
    or ``e±ddd``, left-aligned."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    cls_of_e = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) >= 100, _SCI3, _SCI2))
    point = np.full(_CLASSES, _SCRATCH)
    point[4:21] = _FRAC + np.arange(17)
    point[[_SCI2, _SCI3]] = _FRAC
    lead = np.frombuffer(b"".join([(b"0." + b"0" * k).rjust(5) for k in (3, 2, 1, 0)]
                                  + [b"    0" if c == _ZERO else b"     "
                                     for c in range(4, _CLASSES)]),
                         dtype=np.uint8).reshape(_CLASSES, 5)
    a = np.abs(e)
    exp = np.stack([np.full(e.shape, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                    np.where(a >= 100, a // 100, a // 10 % 10) + ord("0"),
                    np.where(a >= 100, a // 10 % 10, a % 10) + ord("0"),
                    np.where(a >= 100, a % 10 + ord("0"), ord(" "))], axis=1)
    return cls_of_e, point, lead, exp.astype(np.uint8)


def _digit_tables():
    """``%04d`` of 0..9999 as uint32 (its four bytes) and their
    trailing-zero counts (4 for 0)."""
    n = np.arange(10000)
    chars = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    digits4 = np.ascontiguousarray(chars.astype(np.uint8)).view(np.uint32).ravel()
    zeros4 = sum((n % 10**k == 0) for k in range(1, 5)).astype(np.intp)
    return digits4, zeros4


def _fallback_keep() -> np.ndarray:
    """Keep masks of a fallback cell by the length of its text."""
    slot = np.arange(_WIDTH)
    return (slot == _SEP) | ((slot >= _SIGN) & (slot < _SIGN + np.arange(_LONGEST + 1)[:, None]))


@functools.lru_cache(maxsize=1)
def _tables():
    """Every lookup table, built on first use so that importing costs none."""
    return (_powers(), _keep_table(), *_class_tables(), *_digit_tables(), _fallback_keep())


def _decimal(ax: np.ndarray):
    """``(M, e, exact)`` for finite normal ``ax > 0``: the 17-digit integer
    ``M`` in ``[1e16, 1e17)``, the decimal exponent ``e``, and where the
    long double rounding is proven to equal the exact one."""
    powers = _tables()[0]
    e = np.floor(np.log10(ax)).astype(np.intp)
    y = ax.astype(np.longdouble) * powers.take(e - _E_MIN)
    t = y.astype(np.int64)
    off = np.flatnonzero((t < 10**16) | (t >= 10**17))  # log10 rounded across a power of 10
    if off.size:
        e[off] += np.where(t[off] < 10**16, -1, 1)
        y[off] = ax[off].astype(np.longdouble) * powers.take(e[off] - _E_MIN)
        t[off] = y[off].astype(np.int64)
    half = (y - t).astype(np.float64) - 0.5
    exact = (np.abs(half) > _TIE_WINDOW) & (t >= 10**16) & (t < 10**17)
    M = t + (half > 0.0)
    carry = np.flatnonzero(M == 10**17)
    M[carry] = 10**16
    e[carry] += 1
    return M, e, exact


def _cells(x: np.ndarray):
    """``(M, e, cls)`` per cell of the flat float64 array ``x``; ``cls`` is
    ``_ZERO`` for zeros and ``_FALLBACK`` where ``'%.17g'`` must format the
    cell."""
    ax = np.abs(x)
    normal = (ax >= _SMALLEST_NORMAL) & (ax <= _LARGEST)
    if not normal.all():
        ax[~normal] = 1.0
    M, e, exact = _decimal(ax)
    cls = _tables()[2].take(e - _E_MIN)
    cls[~(normal & exact)] = _FALLBACK
    cls[x == 0.0] = _ZERO
    return M, e, cls


def fallback_count(table: np.ndarray) -> int:
    """Cells of ``table`` that ``format_rows`` formats with ``'%.17g'``."""
    if not _FAST_PATH:
        return int(np.size(table))
    return int(np.count_nonzero(_cells(np.ravel(table).astype(np.float64))[2] == _FALLBACK))


def _percent_rows(table: np.ndarray) -> str:
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row % values for values in zip(*table.T.tolist()))


def format_rows(table: np.ndarray) -> str:
    """``"%.17g,...,%.17g\\n" % row`` for every row of the 2-D float64
    ``table``, concatenated."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    if not _FAST_PATH:
        return _percent_rows(table)
    step = max(1, _BLOCK_CELLS // cols)
    return b"".join([_format_block(table[i:i + step]) for i in range(0, rows, step)]).decode("ascii")


def _format_block(table: np.ndarray) -> bytes:
    """``format_rows`` of a block of whole rows, as bytes."""
    rows, cols = table.shape
    _, keep_rows, _, point, lead, exp, digits4, zeros4, fallback_keep = _tables()
    x = table.ravel()
    M, e, cls = _cells(x)

    first = M // 10**16
    rest = M - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    chunks = np.empty((4, x.size), dtype=np.intp)
    chunks[0] = high // 10**4
    chunks[1] = high - chunks[0] * 10**4
    chunks[2] = low // 10**4
    chunks[3] = low - chunks[2] * 10**4
    z = zeros4.take(chunks)
    tz = z[3] + (chunks[3] == 0) * (z[2] + (chunks[2] == 0) * (z[1] + (chunks[1] == 0) * z[0]))

    buf = np.empty((rows, cols, _WIDTH), dtype=np.uint8)
    seps = np.full(cols, ord(","), dtype=np.uint8)
    seps[0] = ord("\n")
    buf[:, :, _SEP] = seps
    negative = np.signbit(x)
    buf[:, :, _SIGN] = np.where(negative.reshape(rows, cols), ord("-"), seps)
    buf = buf.reshape(-1, _WIDTH)
    digits = digits4.take(chunks.T).view(np.uint8)
    first_char = (first + ord("0")).astype(np.uint8)
    buf[:, _INT] = first_char
    buf[:, _INT + 1:_INT + 17] = digits
    buf[:, _LEAD:_FRAC] = lead.take(cls, axis=0)
    buf[:, _FRAC] = first_char
    buf[:, _FRAC + 1:_FRAC + 17] = digits
    buf.reshape(-1)[np.arange(0, buf.size, _WIDTH) + point.take(cls)] = ord(".")
    sci = np.flatnonzero((cls == _SCI2) | (cls == _SCI3))
    if sci.size:
        buf[sci, _EXP:_EXP + 5] = exp.take(e[sci] - _E_MIN, axis=0)

    keep = keep_rows.take((negative * _CLASSES + cls) * 17 + (16 - tz), axis=0)
    fallback = np.flatnonzero(cls == _FALLBACK)
    if fallback.size:
        texts = [b"%.17g" % v for v in x[fallback].tolist()]
        buf[fallback, _SIGN:_SIGN + _LONGEST] = (
            np.array(texts, dtype=f"S{_LONGEST}").view(np.uint8).reshape(-1, _LONGEST))
        keep[fallback] = fallback_keep.take([len(t) for t in texts], axis=0)
    return buf[keep][1:].tobytes() + b"\n"

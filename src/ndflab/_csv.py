"""CSV rows holding the bytes of format(v, ".17g"), built a block of values at a time.

The Gram matrices of ``check-kernel`` and the paths of ``simulate-bbm`` are
written through :func:`rows`, which gives the same text as formatting each
value with Python but computes the digits of most values with float
arithmetic and table lookups.  The module is private: the bench tracer
charges its time to the public writers that call it.
"""

from __future__ import annotations

import functools

import numpy as np

# Below MIN values the per-row template is about as fast (the vectorised
# path costs some 200 us a call), and a process that writes no larger
# matrix never builds the tables nor pages in numpy code for them.
MIN = 400
BLOCK = 4800  # values per block, or one row; bounds the temporaries
# A value's slot: "-0.000", its 17 digits each followed by ".", then the
# separator in place of the last "."; a row of the keep table picks its text out.
SLOT = 40
_LOG10_E = 0.4342944819032518
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two halves of at most 26 bits
# 10**p at index X + 4 for p = 16 - X, X in [-4, 16]: exact doubles, and their Veltkamp split hi + lo
_SCALE = [float(10**p) for p in range(20, -1, -1)]
_SCALE_HI = [c * _VELTKAMP - (c * _VELTKAMP - c) for c in _SCALE]
_SCALE, _SCALE_HI, _SCALE_LO = (np.array(_SCALE), np.array(_SCALE_HI),
                                np.array([c - h for c, h in zip(_SCALE, _SCALE_HI)]))
_LEAD = 10000.0  # where the lead digits' words start in the word table


@functools.cache
def _tables():
    """The lookup tables of :func:`rows`, built on its first call.

    Like :func:`_digits`, they use only float arithmetic and byte copies:
    a first integer ufunc call would page in more of numpy's code than the
    tables take.
    """
    quads = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)  # "d.d.d.d." for each 4-digit w
    for i in range(4):
        quads[..., 2 * i] = np.frombuffer(b"0123456789", dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
    # then "-0.000d." for each lead digit d; a lead of 10 is N = 10**17, printed as 10**16 one exponent up
    lead = b"".join([b"-0.000%d." % (d % 10 or d // 10) for d in range(11)])
    words = np.concatenate([quads.view("<u8").ravel(), np.frombuffer(lead, dtype="<u8")])
    z = (np.arange(10.0) == 0) * 1.0
    trailing = z * (1.0 + z[:, None] * (1.0 + z[:, None, None] * (1.0 + z[:, None, None, None])))
    # keep[sign, X + 4, n] for exponent X and n significant digits; n = 0 is a zero
    neg = np.arange(2.0)[:, None, None, None]
    x = np.arange(-4.0, 17.0)[:, None, None]
    n = np.arange(18.0)[:, None]
    pos = np.arange(float(SLOT))
    digit = np.floor((pos - 6.0) / 2.0)
    dot = pos - 6.0 - 2.0 * digit
    keep = (((pos == 0) & (neg == 1))
            | ((n == 0) & (pos == 1))
            | ((n > 0) & (x < 0) & (pos >= 1) & (pos <= 1 - x))  # "0." and -X - 1 zeros
            | ((n > 0) & (pos >= 6) & (dot == 0) & (digit < np.maximum(n, x + 1)))
            | ((pos >= 6) & (dot == 1) & (digit == x) & (n > x + 1))
            | (pos == SLOT - 1))
    return words, trailing.ravel().astype(np.uint8), keep.reshape(-1, SLOT)


def rows(matrix, head: str = "") -> str:
    """``head``, then each row of ``matrix`` as a line of comma-separated format(v, ".17g").

    A matrix of fewer than ``MIN`` values goes through the %.17g template.
    A larger one is formatted by :func:`_block` a block of rows at a time,
    ``BLOCK`` values or one row.  The CLI writes each call's text before
    the next: one Gram block or four of bBm's.
    """
    mat = np.asarray(matrix, dtype=float)
    nrows, ncols = mat.shape
    if mat.size < MIN:
        line = ",".join(["%.17g"] * ncols) + "\n"  # the digits of format(v, ".17g")
        return head + "".join(line % tuple(row.tolist()) for row in mat)
    sep = np.frombuffer(b"," * (ncols - 1) + b"\n", dtype=np.uint8)
    step = max(1, BLOCK // ncols)
    return head + "".join([_block(mat[i:i + step], sep) for i in range(0, nrows, step)])


def _block(x: np.ndarray, sep: np.ndarray) -> str:
    """The CSV lines of the rows of ``x``, each value followed by its column's separator.

    Values with the digits of :func:`_digits` print from the slots of
    :func:`_slots`; the rest are formatted one at a time.
    """
    values = x.reshape(-1)
    slot, keep, ok = _slots(values)
    slot.reshape(x.shape + (SLOT,))[..., -1] = sep
    slow = np.flatnonzero(~ok)
    if slow.size:  # right-aligned in 24 bytes, the most a .17g text takes; keep drops the padding
        texts = ("%24.17g" * slow.size % tuple(values[slow].tolist())).encode("ascii")
        texts = np.frombuffer(texts, dtype=np.uint8).reshape(-1, 24)
        slot[slow, :24] = texts
        keep[slow, :-1] = False
        keep[slow, :24] = texts != ord(" ")
    slot *= keep  # the bytes not kept become NUL, which no text holds, and are deleted
    return slot.tobytes().translate(None, b"\0").decode("ascii")


def _slots(values: np.ndarray):
    """(slot, keep, ok): each value's slot and the mask of its text, one row per value.

    A zero prints as "0" or "-0" and a value with the digits of
    :func:`_digits` in fixed notation; ok is false for the others.
    """
    words, trailing4, keep_rows = _tables()
    digits, e, ok = _digits(values)
    slot = np.empty((values.size, SLOT), dtype=np.uint8)
    np.take(words, digits, out=slot.view("<u8"), mode="clip")
    z1, z2, z3, z4 = np.take(trailing4, digits[:, 1:].T, mode="clip").astype(float)
    trailing = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    zero = values == 0
    trailing += zero  # a zero has N = 10**16 and X = 0, and keeps no digit
    key = np.signbit(values) * 378.0 + e * 18.0 + (89.0 - trailing)  # (sign * 21 + X + 4) * 18 + n
    keep = np.take(keep_rows, key.astype(np.intp), axis=0, mode="clip")
    return slot, keep, ok | zero


def _digits(x: np.ndarray):
    """(digits, e, ok) for the values ``x``: word-table indices of the 17 significant digits, and the exponent.

    For |v| of exponent X in [-4, 16], N = round(|v| * 10**p), p = 16 - X.
    As 10**p is an exact double, Dekker's product gives |v| * 10**p = hi + lo
    exactly; once 1e16 <= hi + lo < 1e17 is checked exactly, hi > 2**53 is
    an even integer and N = hi + rint(lo) is rounded half to even.  N is
    split exactly into a lead digit times 10**16 and four 4-digit words (a
    lead of 10 is N = 10**17, which carries into X + 1).  ok marks the
    values so checked.  Every step is float arithmetic on integers below
    2**53, and the one floor of a quotient that can round across an
    integer is corrected.
    """
    a = np.abs(x)
    fixed = (a >= 1e-5) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    e = np.log(a)
    e *= _LOG10_E
    np.floor(e, out=e)  # X, or one off near a power of ten, or -5
    j = (e + 4.0).astype(np.intp)  # an X outside [-4, 16] scales by either end and fails ok
    hi = a * _SCALE.take(j, mode="clip")
    ah = a * _VELTKAMP
    ah -= ah - a
    al = a - ah
    scale_hi, scale_lo = _SCALE_HI.take(j, mode="clip"), _SCALE_LO.take(j, mode="clip")
    lo = ah * scale_hi - hi
    lo += ah * scale_lo
    lo += al * scale_hi
    lo += al * scale_lo
    # hi - c is exact where it is small, and |lo| is at most half an ulp of hi,
    # so (hi - c) + lo has the sign of hi + lo - c
    ok = fixed & ((hi - 1e16) + lo >= 0) & ((hi - 1e17) + lo < 0)
    high = np.floor(hi / 1e8)  # one off where hi / 1e8 rounds across an integer
    low = hi - high * 1e8
    low += np.rint(lo)
    shift = np.floor(low / 1e8)  # -1, 0 or 1: low is in [-14, 1e8 + 14)
    high += shift
    low -= shift * 1e8
    words = np.empty((x.size, 5))  # the lead digit's word, then the four 4-digit words of N
    words[:, 0] = np.floor(high / 1e8)
    high -= words[:, 0] * 1e8
    e += words[:, 0] == 10
    words[:, 0] += _LEAD
    words[:, 1] = np.floor(high / 1e4)
    words[:, 2] = high - words[:, 1] * 1e4
    words[:, 3] = np.floor(low / 1e4)
    words[:, 4] = low - words[:, 3] * 1e4
    return words.astype(np.intp), e, ok & (e <= 16)

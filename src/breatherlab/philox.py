"""Philox4x64-10, the package's one random generator.

The counter-based generator of Salmon et al. ("Parallel random numbers: as
easy as 1, 2, 3", SC'11): word j of block c of the stream keyed on (k0, k1)
is word j of ten cipher rounds on the counter (c, 0, 0, 0).  The streams are
those of NumPy's ``Philox(key=(k0, k1))`` bit for bit, its first block at
counter 1, so coupling fields, bootstrap resamples and eigensolver start
vectors all come from here and no command loads ``numpy.random``.  Work is
done in rounds of ``ROUND_BLOCKS`` (integers: ``DRAW_BLOCKS``) blocks at most,
so the temporaries of a draw do not grow with its size.
"""

import numpy as np

# round multipliers and Weyl key increments
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
ROUND_BLOCKS = 2**13  # blocks of one round of coupling fields: 32k words
DRAW_BLOCKS = 2**11  # of integer_rows, whose temporaries are 8x its words: 16k draws


def _mulhilo(m: int, a: np.ndarray):
    """High and low words of the 128-bit product m * a, through 32-bit halves."""
    m_lo, m_hi, a_lo, a_hi = m & 0xFFFFFFFF, m >> 32, a & 0xFFFFFFFF, a >> 32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> 32) + (lh & 0xFFFFFFFF) + (hl & 0xFFFFFFFF)
    return a_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), a * m


def words(keys, first: int, blocks: int) -> np.ndarray:
    """Words (S, 4 * blocks), uint64, of blocks first, ..., first + blocks - 1
    of the S streams keyed on the rows (k0, k1) of ``keys`` (S, 2)."""
    keys = np.asarray(keys, dtype=np.uint64)
    k0, k1 = keys[:, :1], keys[:, 1:]
    c0 = np.broadcast_to(np.arange(first, first + blocks, dtype=np.uint64), (len(keys), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = k0 + PHILOX_W[0], k1 + PHILOX_W[1]
        (hi0, lo0), (hi1, lo1) = _mulhilo(PHILOX_M[0], c0), _mulhilo(PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), 4 * blocks)


def doubles(keys, count: int) -> np.ndarray:
    """Doubles (S, count) in [0, 1): the first ``count`` draws of
    ``Generator(Philox(key=k)).random`` for each row k of ``keys`` (S, 2),
    the 53 high bits of one word each."""
    head = words(keys, 1, -(-count // 4))[:, :count]
    return (head >> 11) * (1.0 / 9007199254740992.0)


def integer_rows(key, bound: int, length: int):
    """Endless rows of ``length`` integers in [0, bound), 1 <= bound <= 2**32:
    the draws of repeated ``Generator(Philox(key=key)).integers(0, bound,
    size=length)``.

    That is Lemire's bounded draw ("Fast random integer generation in an
    interval", ACM TOMACS 29(1), 2019) on the 32-bit halves of the stream,
    low half first: a half times ``bound`` gives its high 32 bits, unless its
    low 32 bits fall below 2**32 mod bound and the half is rejected.  The
    stream is drawn a round at a time, as the rows need it.
    """
    keys, threshold = np.asarray([key], dtype=np.uint64), 2**32 % bound
    buf, pos, first = np.empty(0, dtype=np.int64), 0, 1
    while True:
        parts, short = [buf[pos:]], length - (buf.size - pos)
        while short > 0:
            w = words(keys, first, DRAW_BLOCKS)[0]
            first += DRAW_BLOCKS
            m = np.stack([w & 0xFFFFFFFF, w >> 32], axis=-1).ravel() * np.uint64(bound)
            parts.append((m >> 32)[(m & 0xFFFFFFFF) >= threshold].astype(np.int64))
            short -= parts[-1].size
        if len(parts) > 1:
            buf, pos = np.concatenate(parts), 0
        yield buf[pos:pos + length]
        pos += length

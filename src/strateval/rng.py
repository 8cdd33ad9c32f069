"""Seeded random-number plumbing shared by sampling, calibration, and simulation.

Reproducibility contract (scheme tag ``pcg64-fy-v2``):

* Bit source: numpy's PCG64, a named, versioned, platform-independent
  64-bit generator.
* Stream derivation: ``derive_seed(seed, *keys)`` is the first 64-bit
  word of the state of numpy's ``SeedSequence([seed, *keys])``.
  Distinct key paths give statistically independent streams; the
  mapping is documented numpy behaviour and does not depend on OS, word
  size, or endianness.
* Selection: stratum ``h`` of a draw with seed ``s`` takes ``n_h`` of its
  ``N_h < 2**32`` members by a partial Fisher-Yates shuffle over
  ``0..N_h-1``: step ``j`` swaps position ``j`` with position ``j + o_j``,
  where the offsets are ``Generator(PCG64(derive_seed(s, h))).integers(
  spans)`` for the spans ``N_h, N_h - 1, ..., N_h - n_h + 1``.
* Uniforms: ``uniforms(s, n)`` is ``Generator(PCG64(s)).random(n)``,
  ``(w >> 11) * 2**-53`` for each of the stream's 64-bit output words
  ``w``.  The simulator's two-point pools are drawn on them, and
  ``calibrate``'s split ranks them (``calibration.split_half``).

Given the same seed and key path, every function here returns identical
results on every platform for a fixed numpy major/minor version.

Bulk derivation.  :func:`fisher_yates` produces those bits for a whole
batch of (seed, stratum) streams in a fixed number of numpy calls, without
building a ``SeedSequence``, ``PCG64`` or ``Generator`` per stream:

* ``SeedSequence``'s published hash (pool of four 32-bit words, the
  ``hashmix``/``mix`` constants) runs over one row of entropy words per
  key; a key below 2**32 is one word and a larger one two, row by row.
* ``PCG64(int)`` hashes its seed the same way, then seeds its 128-bit LCG;
  the LCG runs in uint64 limbs, and output word ``k`` of a stream is taken
  directly from the seeded state as ``A_k * state + C_k * inc`` with
  jump-ahead multipliers (Brown 1994, "Random number generation with
  arbitrary strides"), then the XSL-RR output function.
* ``Generator.integers`` on a span below 2**32 is Lemire's bounded 32-bit
  method (arXiv:1805.10941) on the low, then the high half of each output
  word; a span of 1 consumes nothing.  A stream that would reject a draw
  is drawn again by Lemire's method one word at a time, on the stream's
  words below.  A stratum of 2**32 or more units, whose spans numpy draws
  by a 64-bit method, is refused.
* One stream's 64-bit output words come a block at a time, its 128-bit
  state carried between blocks, so a long stream needs no table of its
  length; its 32-bit words are their low, then high halves.
* The Fisher-Yates swaps of every stream are resolved at once: the unit a
  step selects is the one carried along the chain of earlier swaps into
  its position, found by one sort, one binary search and pointer
  jumping.

``tests/test_rng.py`` pins every stage word for word against live numpy,
and nothing here loads numpy's ``random`` module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ParseError

SCHEME = "pcg64-fy-v2"

_U32 = np.uint32
_U64 = np.uint64
_LOW32 = 0xFFFFFFFF
# numpy's SeedSequence: pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_STEP_ADD = np.array([[0], [1]], _U64)
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit limbs
_MULT = (_U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645))
_MULT_INT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW64, _LOW128 = (1 << 64) - 1, (1 << 128) - 1
_BLOCK = 4096  # output words a block of one stream's words


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` as a Python int; every seed of the package passes here.

    A seed is a Python or numpy integer, or a float with an integral value.

    Raises
    ------
    ParseError
        If ``seed`` is negative, a bool, a fractional or non-finite float,
        or not a number at all; the message names ``name``.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        value = int(seed)
    elif isinstance(seed, (float, np.floating)) and math.isfinite(seed) and seed == int(seed):
        value = int(seed)
    else:
        raise ParseError(f"{name} must be a non-negative integer, got {seed!r}")
    if value < 0:
        raise ParseError(f"{name} must be a non-negative integer, got {value}")
    return value


def derive_seed(seed: int, *keys: int) -> int:
    """Derive the 64-bit sub-seed for the stream addressed by ``keys``.

    Parameters
    ----------
    seed : int
        Root seed (any Python int >= 0).
    *keys : int
        Integer path components in ``[0, 2**64)``, e.g. a stratum index or
        a replication index.  ``derive_seed(s)`` with no keys is a plain
        whitening of ``s`` and is *not* equal to ``s``.

    Returns
    -------
    int
        Sub-seed in ``[0, 2**64)``.
    """
    return int(derive_seeds(seed, *keys)[0])


def derive_seeds(seed: int, *keys) -> np.ndarray:
    """:func:`derive_seed` for every row of the broadcast key arrays, as uint64."""
    cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(k, dtype=_U64)) for k in keys))
    return _join(_hash(*_entropy([seed, *(c.ravel() for c in cols)]), 2))[:, 0]


# -- SeedSequence, one row per key -----------------------------------------------


def _int_words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n``; 0 is one word, as in SeedSequence."""
    words = [n & _LOW32]
    while n > _LOW32:
        n >>= 32
        words.append(n & _LOW32)
    return words


def _chain(start: int, mult: int, count: int) -> np.ndarray:
    """``start * mult**t mod 2**32`` for ``t < count``: SeedSequence's hash constants."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _LOW32)
    return np.array(out, dtype=_U32)


def _entropy(keys: list):
    """SeedSequence's entropy words for ``keys``, one row per entry of the
    key arrays, and each row's word count.

    A key is a uint64 array (one word per row below 2**32, two from there,
    so later keys land row by row) or a Python int of any size, shared by
    every row: the seed a caller passed in, checked here.
    """
    keys = [k if isinstance(k, np.ndarray) else check_seed(k) for k in keys]
    rows = max((k.size for k in keys if isinstance(k, np.ndarray)), default=1)
    widths = [2 if isinstance(k, np.ndarray) else len(_int_words(k)) for k in keys]
    entropy = np.zeros((rows, max(sum(widths), _POOL)), dtype=_U32)
    length = np.zeros(rows, dtype=np.int64)
    at = np.arange(rows)
    for k, w in zip(keys, widths):
        if isinstance(k, np.ndarray):
            high = k >> 32
            entropy[at, length] = k & _LOW32
            entropy[at, length + 1] = high  # overwritten, or zero padding, when high == 0
            length += 1 + (high > 0)
        else:
            entropy[at[:, None], length[:, None] + np.arange(w)] = _int_words(k)
            length += w
    return entropy, length


def _hash(entropy: np.ndarray, length, n32: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n32, uint32)`` for every row of
    ``entropy``, which has at least pool-size columns.  Zero words past a
    row's ``length`` but within the pool size change nothing, so
    ``length`` is only read for entropy wider than the pool."""
    # mix_entropy: hash the first pool-size words in, cross-mix the pool
    # (word s into every other word), then mix each further word into
    # every pool word
    pool = entropy[:, :_POOL] ^ _HASH_IN[0]
    pool *= _HASH_IN[1]
    pool ^= pool >> 16
    for s in range(_POOL):
        pool = _mix(pool, pool[:, s : s + 1], _CROSS[s], keep=s)
    width = entropy.shape[1]
    if width > _POOL:
        c = _chain(_INIT_A, _MULT_A, 17 + 4 * (width - _POOL))
        for s in range(_POOL, width):
            t = 16 + 4 * (s - _POOL)
            mixed = _mix(pool, entropy[:, s : s + 1], (c[t : t + 4], c[t + 1 : t + 5]))
            pool = np.where((length > s)[:, None], mixed, pool)

    # generate_state: cycle the pool through the output hash
    out = np.tile(pool, (1, -(-n32 // _POOL)))[:, :n32]
    out ^= _HASH_OUT[0][:n32]
    out *= _HASH_OUT[1][:n32]
    out ^= out >> 16
    return out


def _join(words: np.ndarray) -> np.ndarray:
    """Little-endian pairs of uint32 words as uint64 values."""
    w = words.astype(_U64)
    return w[:, 0::2] | (w[:, 1::2] << 32)


def _mix(pool: np.ndarray, src: np.ndarray, c, keep: int | None = None) -> np.ndarray:
    """``mix(pool[:, i], hashmix(src))`` for each column ``i``, with hash
    constants ``c = (xor, mult)`` per column; column ``keep`` stays."""
    h = src ^ c[0]
    h *= c[1]
    h ^= h >> 16
    h *= _MIX_R
    x = pool * _MIX_L
    x -= h
    x ^= x >> 16
    if keep is not None:
        x[:, keep] = pool[:, keep]
    return x


def _hash_constants():
    """SeedSequence's hash constants, laid out per pool word: (xor, mult)
    pairs for the first hash-in, the four cross-mix rounds (a dummy in the
    column a round keeps) and eight output words."""
    a = _chain(_INIT_A, _MULT_A, 17)
    cross = []
    for s in range(_POOL):
        cols = [d for d in range(_POOL) if d != s]
        x, m = np.zeros(_POOL, _U32), np.zeros(_POOL, _U32)
        t = 4 + 3 * s
        x[cols], m[cols] = a[t : t + 3], a[t + 1 : t + 4]
        cross.append((x, m))
    b = _chain(_INIT_B, _MULT_B, 9)
    return (a[:4], a[1:5]), cross, (b[:8], b[1:9])


_HASH_IN, _CROSS, _HASH_OUT = _hash_constants()


# -- PCG64 in uint64 limbs --------------------------------------------------------


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b`` (``b`` broadcasts to
    ``a``), from 32-bit halves; in place where it can, to keep the
    temporaries few."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    p01 = a0 * b1
    p10 = a1 * b0
    a0 *= b0
    a0 >>= 32
    a1 *= b1
    a1 += p01 >> 32
    a1 += p10 >> 32
    p01 &= _LOW32
    p10 &= _LOW32
    a0 += p01
    a0 += p10
    a0 >>= 32
    a1 += a0
    return a1


def _mul128(ah, al, bh, bl):
    """``(ah:al) * (bh:bl) mod 2**128`` in (high, low) limbs; ``b`` broadcasts
    to ``a``."""
    hi = _mulhi(al, bl)
    hi += al * bh
    hi += ah * bl
    return hi, al * bl


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


@lru_cache(maxsize=None)
def _jumps(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low limbs of ``A_k`` (row 0) and ``C_k`` (row 1) for
    ``k < 2**bits``: ``k`` LCG steps take ``x`` to ``A_k x + C_k inc``."""
    if bits == 0:
        return np.zeros((2, 1), _U64), np.array([[1], [0]], _U64)
    hi, lo = _jumps(bits - 1)
    # one more step from the last entry gives k = half (A <- M A,
    # C <- M C + 1); k = half + t composes it with t steps:
    # A_half A_t and A_t C_half + C_t
    half_hi, half_lo = _add128(*_mul128(hi[:, -1:], lo[:, -1:], *_MULT), _U64(0), _STEP_ADD)
    far_a = _mul128(hi[0], lo[0], half_hi[0], half_lo[0])
    far_c = _add128(*_mul128(hi[0], lo[0], half_hi[1], half_lo[1]), hi[1], lo[1])
    tables = (
        np.concatenate([hi, np.stack([far_a[0], far_c[0]])], axis=1),
        np.concatenate([lo, np.stack([far_a[1], far_c[1]])], axis=1),
    )
    for t in tables:
        t.setflags(write=False)
    return tables


def _jump_columns(k: np.ndarray):
    """Jump-ahead limbs for output words ``k`` (from 1): ``(hi, lo)``, each
    of shape ``(2, 1, len(k))``, ``A_{k+1}`` over ``C_{k+1}``."""
    hi, lo = _jumps(int(k.max(initial=0) + 1).bit_length())
    return hi[:, None, k + 1], lo[:, None, k + 1]


def _pcg64_outputs(seeds: np.ndarray, stream: np.ndarray, jump) -> np.ndarray:
    """Output word ``k[j]`` (from 1) of ``PCG64(seed)`` for the seed of
    stream ``stream[j]`` in every row, given ``jump = _jump_columns(k)``.

    ``seeds`` holds each seed's two little-endian uint32 words, shape
    ``(rows, streams, 2)``; the result has shape ``(rows, len(k))``.
    """
    rows, streams = seeds.shape[:2]
    entropy = np.zeros((rows * streams, _POOL), dtype=_U32)
    entropy[:, :2] = seeds.reshape(-1, 2)
    v = _join(_hash(entropy, None, 8))
    # seeding: x = 0; step (x = inc); x += initstate; step.  Output word k
    # comes from k more steps, so it is A_{k+1} (inc + initstate) + C_{k+1} inc
    inc_hi = (v[:, 2] << 1) | (v[:, 3] >> 63)
    inc_lo = (v[:, 3] << 1) | 1
    x_hi, x_lo = _add128(inc_hi, inc_lo, v[:, 0], v[:, 1])
    y_hi = np.stack([x_hi, inc_hi]).reshape(2, rows, streams)[:, :, stream]
    y_lo = np.stack([x_lo, inc_lo]).reshape(2, rows, streams)[:, :, stream]
    hi, lo = _mul128(y_hi, y_lo, *jump)
    return _xsl_rr(*_add128(hi[0], lo[0], hi[1], lo[1]))


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output function: xor the halves, rotate right by the top six bits."""
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _pcg64_blocks(seed: int):
    """``PCG64(seed)``'s 64-bit output words 1, 2, ... as uint64 blocks of
    ``_BLOCK``, without end: the one PCG64 stream every draw of a single
    seed reads.

    The 128-bit state lives in a Python int between blocks; a block's
    states are that state jumped ``0 .. _BLOCK - 1`` steps ahead, so
    nothing grows with the number of words taken.
    """
    v = _join(_hash(*_entropy([seed]), 8))[0].tolist()
    inc = (v[2] << 65 | v[3] << 1 | 1) & _LOW128
    # seeding ends one step past inc + initstate; output word 1 comes
    # from the next step
    state = (_MULT_INT * (inc + (v[0] << 64 | v[1])) + inc) & _LOW128
    state = (_MULT_INT * state + inc) & _LOW128
    hi, lo = _jumps(_BLOCK.bit_length() - 1)
    inc_hi, inc_lo = _mul128(hi[1], lo[1], _U64(inc >> 64), _U64(inc & _LOW64))
    while True:
        s_hi, s_lo = _add128(*_mul128(hi[0], lo[0], _U64(state >> 64), _U64(state & _LOW64)),
                             inc_hi, inc_lo)
        state = (_MULT_INT * (int(s_hi[-1]) << 64 | int(s_lo[-1])) + inc) & _LOW128
        yield _xsl_rr(s_hi, s_lo)


def _pcg64_words(seed: int):
    """``PCG64(seed)``'s 32-bit words in the order numpy's bounded draws
    take them -- the low, then the high half of output words 1, 2, ... --
    as uint32 blocks of ``2 * _BLOCK``, without end."""
    for block in _pcg64_blocks(seed):
        # little-endian bytes, read back as little-endian halves, on any platform
        yield block.astype("<u8", copy=False).view("<u4")


def uniforms(seed: int, n: int) -> np.ndarray:
    """``Generator(PCG64(seed)).random(n)``, bit for bit: ``(w >> 11) * 2**-53``
    for ``PCG64(seed)``'s output words ``w_1 .. w_n``, filled into one
    float64 array a block at a time."""
    out = np.empty(n)
    blocks = _pcg64_blocks(seed)
    for at in range(0, n, _BLOCK):
        w = next(blocks)[: n - at]
        w >>= 11
        out[at : at + w.size] = w
    out *= 2.0**-53
    return out


# -- the batched draw ---------------------------------------------------------------


def fisher_yates(seeds, sizes, n_h) -> np.ndarray:
    """Stratified partial Fisher-Yates draws, one row per seed.

    Row ``r`` draws, for every stratum ``h``, ``n_h[h]`` of the positions
    ``0..sizes[h]-1`` on the stream ``Generator(PCG64(derive_seed(seeds[r],
    h)))`` (see the module notes).  ``seeds`` is an array of uint64 seeds,
    or one int seed of any size for a single row.  Positions are returned
    as *slots* in the stratum-major order of all units,
    ``sum(sizes[:h]) + position``: stratum 0's draws first, in selection
    order, then stratum 1's, and so on.  Shape ``(rows, sum(n_h))``, dtype
    int64.
    """
    plan = _plan(tuple(map(int, sizes)), tuple(map(int, n_h)))
    if isinstance(seeds, int):
        parent, reps = seeds, 1
    else:
        seeds = np.asarray(seeds, dtype=_U64)
        parent, reps = np.repeat(seeds, plan.strata.size), seeds.size

    # stream (row, h) is PCG64(derive_seed(seeds[row], h)); the draws
    # take its output words 1, 2, ...
    sub = _hash(*_entropy([parent, np.tile(plan.strata, reps)]), 2)
    sub = sub.reshape(reps, plan.strata.size, 2)
    u = _pcg64_outputs(sub, plan.word_h, plan.jump)[:, plan.column]

    # Lemire: the offset is the high half of u * span, rejected when the
    # low half falls below 2**32 mod span
    u >>= plan.shift
    u &= _LOW32
    u *= plan.span
    redo = (u & _LOW32) < plan.threshold
    u >>= 32
    offset = u.view(np.int64)
    if redo.any():
        rows, cols = np.nonzero(redo)
        for r, g in set(zip(rows.tolist(), plan.h[cols].tolist())):
            mine = plan.h == g
            seed = int(_join(sub[r, g][None])[0, 0])
            offset[r, mine] = _lemire(seed, plan.span[mine].tolist())
    del redo

    # resolve the swaps; rows are kept apart by a position offset of one
    # pool each
    row = np.arange(reps)[:, None] * plan.pool
    fill = row + plan.slot
    offset += fill
    out = _resolve(fill, offset)
    out -= row
    return out


def _lemire(seed: int, spans: list) -> list:
    """``Generator(PCG64(seed)).integers(spans)`` for spans below 2**32,
    rejections included: Lemire's method, one 32-bit word at a time."""
    words = chain.from_iterable(block.tolist() for block in _pcg64_words(seed))
    out = []
    for span in spans:
        m = 0
        if span > 1:  # a span of 1 consumes nothing
            m = next(words) * span
            if m & _LOW32 < span:
                threshold = (1 << 32) % span
                while m & _LOW32 < threshold:
                    m = next(words) * span
        out.append(m >> 32)
    return out


class _Plan(NamedTuple):
    """What every row of a draw shares, per draw: its stratum ``h``, its
    ``slot`` (stratum start + step), the ``span`` of its bounded integer
    and Lemire's rejection ``threshold``, and which half (``shift``) of
    which output word (``column``) it consumes; per output word, its
    stream ``word_h`` and jump-ahead limbs."""

    strata: np.ndarray
    pool: int
    h: np.ndarray
    slot: np.ndarray
    span: np.ndarray
    threshold: np.ndarray
    shift: np.ndarray
    column: np.ndarray
    word_h: np.ndarray
    jump: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=16)
def _plan(sizes: tuple, n_h: tuple) -> _Plan:
    sizes, n_h = np.array(sizes, dtype=np.int64), np.array(n_h, dtype=np.int64)
    if sizes.shape != n_h.shape or np.any(n_h < 0) or np.any(n_h > sizes):
        raise ValueError(f"sample sizes {n_h.tolist()} outside [0, {sizes.tolist()}]")
    if np.any(sizes > _LOW32):  # numpy draws such spans by a 64-bit method
        raise ValueError(f"cannot draw from a stratum of 2**32 or more units: "
                         f"sizes {sizes.tolist()}")
    n_strata = sizes.size
    h = np.repeat(np.arange(n_strata), n_h)
    step = np.arange(n_h.sum()) - (np.cumsum(n_h) - n_h)[h]
    span = sizes[h] - step
    words = (n_h + 1) // 2
    word_h = np.repeat(np.arange(n_strata), words)
    first_word = np.cumsum(words) - words
    plan = _Plan(
        strata=np.arange(n_strata, dtype=_U64),
        pool=int(sizes.sum()),
        h=h,
        slot=(np.cumsum(sizes) - sizes)[h] + step,
        span=span.astype(_U64),
        threshold=((1 << 32) % span).astype(_U64),
        shift=((step & 1) * 32).astype(_U64),
        column=first_word[h] + step // 2,
        word_h=word_h,
        jump=_jump_columns(np.arange(words.sum()) - first_word[word_h] + 1),
    )
    for a in (*plan, *plan.jump):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return plan


def _resolve(fill: np.ndarray, took: np.ndarray) -> np.ndarray:
    """Units selected by partial Fisher-Yates passes, given their swaps.

    Step ``t`` of row ``r`` fills position ``fill[r, t]`` with the unit at
    position ``took[r, t] >= fill[r, t]`` and moves the unit it displaces
    there; positions of different passes never coincide, and a pass's
    steps are in order.  Before step ``t``, a position holds what the last
    earlier step that took from it carried there, which is what that
    step's own position held before it, or else the position itself.  The
    takes, keyed (position, flat step) and sorted, answer "last earlier
    take from here": the key just below, if it is from the same position.
    A take's key is in that list, so the key just below it is its sorted
    neighbour; a fill's key is not, so a binary search places it (the
    fills' keys come in ascending order, which keeps that search cheap).
    A key's low bits are its flat step.  Pointer jumping follows the
    carries, at most one per step, back to their start, and stops at the
    first round that moves no pointer: chains are short.
    """
    reps, n = fill.shape
    flat = np.arange(reps * n).reshape(reps, n)
    bits = max(flat.size - 1, 1).bit_length()
    low = (1 << bits) - 1
    takes = took << bits
    takes |= flat
    takes = takes.reshape(-1)
    takes.sort()

    # each fill's position: the step whose fill it holds then, or its own
    i = fill << bits
    i |= flat
    i = np.searchsorted(takes, i)
    i -= 1
    ptr = takes[i]
    held = ptr >> bits == fill
    held &= i >= 0
    del i
    ptr &= low
    np.copyto(ptr, flat, where=~held)
    del held
    ptr = ptr.reshape(-1)
    for _ in range(n.bit_length()):
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):  # every carry reached its start
            break
        ptr = jumped

    # a take from where an earlier step took gets what that step's
    # position held; any other take gets its position's own unit
    below, key = takes[:-1], takes[1:]
    carried = below >> bits == key >> bits
    out = took.reshape(-1).copy()
    out[key[carried] & low] = fill.reshape(-1)[ptr[below[carried] & low]]
    return out.reshape(reps, n)

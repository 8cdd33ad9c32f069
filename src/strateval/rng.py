"""Seeded random-number plumbing shared by sampling, calibration, and simulation.

Reproducibility contract (scheme tag ``splitmix-fy-v3``):

* Draw bits: a counter-based stream.  Word ``c`` of the stream with
  64-bit key ``k`` is ``mix64(k + c * GAMMA mod 2**64)``, which is output
  ``c`` of SplitMix64 seeded with ``k`` (Steele, Lea & Flood, "Fast
  splittable pseudorandom number generators", OOPSLA 2014):
  ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is its finalizer.  A word
  depends on ``(k, c)`` alone, so any words of any streams come in one
  vectorised pass, and nothing is carried from word to word.
* Stream derivation: ``derive_seed(seed, *keys)`` folds the seed's
  little-endian 64-bit limbs (0 is one limb), then the keys, into a state
  that starts at the seed's limb count: ``h <- mix64((h ^ x) + GAMMA)``
  for each ``x`` in turn.  A fold is a bijection of its ``x``, so sibling
  keys never share a sub-seed, and a seed of any size is taken whole.
* Selection: stratum ``h`` of a draw with seed ``s`` takes ``n_h`` of its
  ``N_h < 2**32`` members by a partial Fisher-Yates shuffle over
  ``0..N_h-1``: step ``j`` swaps position ``j`` with position ``j + o_j``.
  The offset ``o_j``, of span ``N_h - j``, is Lemire's 32-bit bounded
  draw (arXiv:1805.10941) on the high half of word ``lane * 2**32 + j +
  1`` of the stream keyed ``derive_seed(s, h)``, at the first ``lane = 0,
  1, ...`` it does not reject.  So an offset depends only on the key, the
  step and its span: a larger ``n_h`` extends a draw, rejected steps
  included.  A stratum of 2**32 or more units is refused.
* Uniforms: ``uniforms(s, n)`` is ``Generator(PCG64(s)).random(n)`` of
  numpy, ``(w >> 11) * 2**-53`` for each of the stream's 64-bit output
  words ``w``: numpy's ``SeedSequence`` hash in Python ints seeds PCG64,
  whose 128-bit LCG runs in uint64 limbs.  The simulator's two-point
  pools are drawn on them, and ``calibrate``'s split ranks them
  (``calibration.split_half``).

Given the same seed and key path, every function here returns identical
results on every platform, and nothing here loads numpy's ``random``
module.  ``tests/oracles.py`` holds a plain-Python reference of the draw;
``tests/test_rng.py`` pins it with literal values and pins ``uniforms``
against live numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParseError

SCHEME = "splitmix-fy-v3"

_U64 = np.uint64
_LOW32 = 0xFFFFFFFF
_LOW64, _LOW128 = (1 << 64) - 1, (1 << 128) - 1
# SplitMix64: the counter increment and the finalizer's multipliers
_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA, _MIX_1, _MIX_2 = _U64(_GAMMA_INT), _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
# numpy's SeedSequence hash constants, for the seeding of uniforms' PCG64
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit limbs
_MULT = (_U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645))
_MULT_INT = 0x2360ED051FC65DA44385DF649FCCF645
_STEP_ADD = np.array([[0], [1]], _U64)
_BLOCK = 4096  # output words a block of one PCG64 stream's words


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
    h = _root(seed)
    for k in np.broadcast_arrays(*(np.atleast_1d(np.asarray(k, dtype=_U64)) for k in keys)):
        h = _fold(h, k.ravel())
    return h


def _root(seed) -> np.ndarray:
    """The seed's 64-bit limbs folded in, as a uint64 array: one entry for
    an int seed of any size, or one per entry of a uint64 seed array (one
    limb each)."""
    if isinstance(seed, np.ndarray):
        return _fold(np.ones_like(seed), seed)
    seed = check_seed(seed)
    limbs = [seed & _LOW64]
    while seed > _LOW64:
        seed >>= 64
        limbs.append(seed & _LOW64)
    h = np.array([len(limbs)], dtype=_U64)  # an array: numpy scalars warn on overflow
    for limb in limbs:
        h = _fold(h, _U64(limb))
    return h


def _fold(h: np.ndarray, x) -> np.ndarray:
    """``mix64((h ^ x) + GAMMA)``: key ``x`` folded into stream state ``h``."""
    z = h ^ x
    z += _GAMMA
    return _mix64(z)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array."""
    z ^= z >> 30
    z *= _MIX_1
    z ^= z >> 27
    z *= _MIX_2
    z ^= z >> 31
    return z


# -- uniforms: numpy's PCG64 -------------------------------------------------------


def _seed_sequence(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` of numpy, in Python ints.

    The entropy is the seed's little-endian 32-bit words (0 is one word).
    The first four are hashed into a pool, the pool is cross-mixed, each
    further word is mixed into every pool word, and the output cycles the
    pool through a second hash; ``hashmix`` advances its multiplier on
    every call.
    """
    words = [seed & _LOW32]
    while seed > _LOW32:
        seed >>= 32
        words.append(seed & _LOW32)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _LOW32
        value = value * const & _LOW32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _LOW32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _LOW32
        value = value * const & _LOW32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


# -- PCG64 in uint64 limbs, for uniforms ------------------------------------------


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


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output function: xor the halves, rotate right by the top six bits."""
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _pcg64_blocks(seed: int):
    """``PCG64(seed)``'s 64-bit output words 1, 2, ... as uint64 blocks of
    ``_BLOCK``, without end: the words :func:`uniforms` reads.

    The 128-bit state lives in a Python int between blocks; a block's
    states are that state jumped ``0 .. _BLOCK - 1`` steps ahead, so
    nothing grows with the number of words taken.
    """
    v = _seed_sequence(check_seed(seed))
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
    ``0..sizes[h]-1`` on the stream keyed ``derive_seed(seeds[r], h)``
    (see the module notes).  ``seeds`` is an array of uint64 seeds, or one
    int seed of any size for a single row.  Positions are returned as
    *slots* in the stratum-major order of all units,
    ``sum(sizes[:h]) + position``: stratum 0's draws first, in selection
    order, then stratum 1's, and so on.  Shape ``(rows, sum(n_h))``, dtype
    int64.
    """
    plan = _plan(tuple(map(int, sizes)), tuple(map(int, n_h)))
    if not isinstance(seeds, int):
        seeds = np.asarray(seeds, dtype=_U64).reshape(-1)
    keys = _fold(_root(seeds)[:, None], plan.strata)  # stream (row, h)'s key

    # Lemire: the offset is the high half of u * span for the high half u
    # of step j's word, rejected when the low half falls below 2**32 mod
    # span; a rejected step tries its lanes 1, 2, ... in turn
    u = keys[:, plan.h]
    u += plan.counter
    offset = _bounded(u, plan.span, plan.threshold)
    rows, cols = np.nonzero(offset < 0)
    lane = 0
    while rows.size:
        lane += 1
        u = keys[rows, plan.h[cols]]
        u += plan.counter[cols]
        u += _U64((lane << 32) * _GAMMA_INT & _LOW64)
        redo = _bounded(u, plan.span[cols], plan.threshold[cols])
        done = redo >= 0
        offset[rows[done], cols[done]] = redo[done]
        rows, cols = rows[~done], cols[~done]

    # resolve the swaps; rows are kept apart by a position offset of one
    # pool each
    row = np.arange(keys.shape[0])[:, None] * plan.pool
    fill = row + plan.slot
    offset += fill
    out = _resolve(fill, offset)
    out -= row
    return out


def _bounded(u: np.ndarray, span: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Lemire's 32-bit draws below ``span`` on the words ``mix64(u)`` of the
    counters ``u = key + counter * GAMMA`` (consumed), as int64; -1 where
    the draw rejects."""
    _mix64(u)
    u >>= 32
    u *= span
    reject = (u & _LOW32) < threshold
    u >>= 32
    offset = u.view(np.int64)
    offset[reject] = -1
    return offset


class _Plan(NamedTuple):
    """What every row of a draw shares, per draw: its stratum ``h``, its
    ``slot`` (stratum start + step), the ``span`` of its bounded integer
    and Lemire's rejection ``threshold``, and its lane-0 word counter
    ``step + 1`` times GAMMA."""

    strata: np.ndarray
    pool: int
    h: np.ndarray
    slot: np.ndarray
    span: np.ndarray
    threshold: np.ndarray
    counter: np.ndarray


@lru_cache(maxsize=16)
def _plan(sizes: tuple, n_h: tuple) -> _Plan:
    sizes, n_h = np.array(sizes, dtype=np.int64), np.array(n_h, dtype=np.int64)
    if sizes.shape != n_h.shape or np.any(n_h < 0) or np.any(n_h > sizes):
        raise ValueError(f"sample sizes {n_h.tolist()} outside [0, {sizes.tolist()}]")
    if np.any(sizes > _LOW32):  # a span fits Lemire's 32-bit draw, a step a counter's low half
        raise ValueError(f"cannot draw from a stratum of 2**32 or more units: "
                         f"sizes {sizes.tolist()}")
    h = np.repeat(np.arange(sizes.size), n_h)
    step = np.arange(n_h.sum()) - (np.cumsum(n_h) - n_h)[h]
    span = sizes[h] - step
    plan = _Plan(
        strata=np.arange(sizes.size, dtype=_U64),
        pool=int(sizes.sum()),
        h=h,
        slot=(np.cumsum(sizes) - sizes)[h] + step,
        span=span.astype(_U64),
        threshold=((1 << 32) % span).astype(_U64),
        counter=(step + 1).astype(_U64) * _GAMMA,
    )
    for a in plan:
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

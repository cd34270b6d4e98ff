"""Generators of a block of trial seeds, seeded in one hashing pass.

Every generator of the simulator is numpy's default_rng((seed, *stream)): a
PCG64 whose seed words numpy's SeedSequence hashes from the entropy words
of the seed (its 32-bit words, low first) followed by the stream's tags.
That hashing is fixed uint32 arithmetic, so stream_words runs it for every
(seed, stream) of a block at once, one lane per pair, and generators hands
each lane's words to PCG64 through numpy's ISeedSequence interface, which
hashes nothing. States, draws and outputs are default_rng's; the algorithm
is numpy's (numpy/random/bit_generator.pyx, or
https://numpy.org/doc/stable/reference/random/bit_generators/generated/numpy.random.SeedSequence.html).

numpy.random itself is imported when the first generator is built, not
with the package.
"""

from __future__ import annotations

import operator
from functools import cache, lru_cache

import numpy as np

# SeedSequence's constants: the pool size, the hash constants of mixing
# entropy into the pool (A) and of drawing state words out of it (B), and
# the multipliers of mix.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """The first n + 1 values of a hash constant, init * mult**k mod 2**32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


@lru_cache(maxsize=16)
def _plan(width: int, lanes: int):
    """Every constant of hashing lanes entropies of width words (width >= 4),
    each repeated over the lanes to match the flat word-major arrays the
    hash runs on, since numpy is fastest on same-shape operands.

    A hashmix xors a value with the running hash constant, steps the
    constant and multiplies by it, then xors the product with itself
    shifted right by 16, so it takes two consecutive constants, in
    SeedSequence's order. The pool is filled by hashmixing the first 4
    entropy words. Then each pool word, and after them each entropy word
    past the pool, is a source: it is taken to every pool word (rows) and
    hashmixed, and each pool word x it meets becomes mix(x, hashmix), with
    mix(x, y) = L * x - R * y, then xored with itself shifted right by 16.
    A pool word is not mixed into itself: its own column takes xor 0,
    multiplier 1 and mix multipliers 0 and -1, which give the word back,
    since x ^ x >> 16 is its own inverse on 32 bits. Last, 8 state words
    are hashmixed from the pool, cycling over it (cycle)."""
    a = _hash_constants(_INIT_A, _MULT_A, 4 * width)
    spread = lambda values: np.repeat(np.array(values, np.uint32), lanes)
    rows = lambda row: np.tile(np.arange(lanes), _POOL) + row * lanes
    fill = (spread(a[:_POOL]), spread(a[1 : _POOL + 1]))
    sources, k = [], _POOL
    for src in range(_POOL):
        steps = [(0, 1, 0, _MASK32)] * _POOL
        for dst in range(_POOL):
            if dst != src:
                steps[dst] = (a[k], a[k + 1], _MIX_MULT_L, _MIX_MULT_R)
                k += 1
        sources.append((rows(src), *map(spread, zip(*steps))))
    for word in range(_POOL, width):
        steps = [(a[k + dst], a[k + dst + 1], _MIX_MULT_L, _MIX_MULT_R) for dst in range(_POOL)]
        sources.append((rows(word), *map(spread, zip(*steps))))
        k += _POOL
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = (np.tile(np.arange(_POOL * lanes), 2), spread(b[:-1]), spread(b[1:]))
    return fill, sources, state, np.full(2 * _POOL * lanes, 16, np.uint32)


def _pool_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64's four uint64 seed words, (lanes, 4), of each column of a
    (width >= 4, lanes) uint32 entropy: SeedSequence's pool mixing and its
    generate_state(4, np.uint64). Entropy shorter than the pool is hashed
    as if padded with zero words to it, so every entropy of up to 4 words
    takes width 4. The arrays are flat and word-major: word w of lane i
    sits at w * lanes + i."""
    width, lanes = entropy.shape
    fill, sources, (cycle, state_xor, state_mult), sixteen = _plan(width, lanes)
    shift = sixteen[: _POOL * lanes]
    entropy = entropy.ravel()
    pool = entropy[: _POOL * lanes] ^ fill[0]
    pool *= fill[1]
    pool ^= pool >> shift
    for source, (rows, xor, mult, left, right) in enumerate(sources):
        y = (pool if source < _POOL else entropy).take(rows)
        y ^= xor
        y *= mult
        y ^= y >> shift
        y *= right
        pool *= left
        pool -= y
        pool ^= pool >> shift
    words = pool.take(cycle)
    words ^= state_xor
    words *= state_mult
    words ^= words >> sixteen
    # Each lane's eight uint32 words read as four little-endian uint64.
    return words.reshape(2 * _POOL, lanes).T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@cache
def _layout(n_words: int, streams: tuple) -> tuple[int, list]:
    """The lanes of a seed of n_words words under streams: the widest
    entropy, and for each entropy width (at least the pool's) the indices
    of the streams of that width and a (width, those streams) uint32
    template holding each stream's tags after the seed's words, which it
    leaves 0."""
    widths: dict[int, list[int]] = {}
    for j, stream in enumerate(streams):
        widths.setdefault(max(_POOL, n_words + len(stream)), []).append(j)
    layout = []
    for width, columns in widths.items():
        template = np.zeros((width, len(columns)), np.uint32)
        for column, j in enumerate(columns):
            template[n_words : n_words + len(streams[j]), column] = streams[j]
        layout.append((width, columns, template))
    return max(widths), layout


def stream_words(seeds, streams: tuple) -> np.ndarray:
    """PCG64 seed words of default_rng((seed, *stream)) for every seed and
    stream (a tuple of tuples of tags), as a (seeds, streams, 4) uint64
    array.

    Each (seed, stream) pair is a lane whose entropy is the seed's 32-bit
    words, low first, then the stream's tags. Lanes are grouped by the
    seed's word count and hashed one call per entropy width: every seed
    below 2**64, with streams of up to two tags, takes width 4. A seed that
    is not an integer is a TypeError and a negative one a ValueError, as in
    numpy, raised before anything is hashed."""
    seeds = [operator.index(seed) for seed in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError(f"seed must be non-negative, got {min(seeds)}")
    groups: dict[int, list[int]] = {}
    for i, seed in enumerate(seeds):
        groups.setdefault((seed.bit_length() + 31) // 32 or 1, []).append(i)
    out = np.empty((len(seeds), len(streams), 4), dtype=np.uint64)
    for n_words, rows in groups.items():
        widest, layout = _layout(n_words, streams)
        # Word-major: each seed's words, then zeros up to the widest entropy.
        words = [[seeds[i] >> 32 * k & _MASK32 for k in range(n_words)] + [0] * (widest - n_words) for i in rows]
        words = np.array(words, np.uint32).T[:, :, None]
        for width, columns, template in layout:
            # Lanes seed after seed, with their streams in order within each seed.
            entropy = (words[:width] | template[:, None, :]).reshape(width, -1)
            hashed = _pool_words(entropy).reshape(len(rows), len(columns), 4)
            if hashed.shape == out.shape:
                return hashed  # one group of one width: every lane, in order
            out[np.array(rows)[:, None], columns] = hashed
    return out


@cache
def _numpy_random():
    """numpy's Generator and PCG64, and a seed sequence that hands PCG64
    words hashed ahead (stream_words) as they are, answering only PCG64's
    request, four uint64 words. Made when the first generator is built, so
    importing the package does not import numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError(f"seed words answer PCG64's request for 4 uint64 words only, got {n_words} {dtype}")
            return self.words

    return Generator, PCG64, SeedWords


def generators(words: np.ndarray) -> list:
    """One numpy Generator per row of a (rows, 4) uint64 array of PCG64
    seed words (stream_words), with no hashing."""
    generator, pcg64, seed_words = _numpy_random()
    return [generator(pcg64(seed_words(row))) for row in np.ascontiguousarray(words, dtype=np.uint64)]

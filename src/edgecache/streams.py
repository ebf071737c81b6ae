"""numpy's trial substreams in bulk: SeedSequence, PCG64 and the first
normals of `standard_normal`, redone on arrays of seeds.

`phy` draws each trial's channels from its own
`default_rng(SeedSequence((seed, index)))`, its `substream`. Building one
generator per trial costs more than the trial's formulas, so
`trial_seeds` and `first_draws` compute the seeds, the PCG64 states and,
for small draws, the normals of a whole chunk of trials here, and use
numpy's generator only where these arrays cannot vouch for the result.
Everything here equals numpy's own output bit for bit: a campaign checks
its first seed per SNR point against `trial_seed`, and `first_draws` its
first state and draw against numpy's objects. This is the one module of
the package that redoes an algorithm of numpy's.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .model import MAX_SEED  # the largest seed or index `entropy_rows` takes

# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding
# (numpy/random/src/pcg64)
_POOL_SIZE = 4
MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT_LIMBS = np.array([[_PCG64_MULT >> 64], [_PCG64_MULT & _MASK64]],
                       np.uint64)  # high and low limb, one column each


@functools.lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """numpy's running hash constant over `count` hashes, as a column.

    Hash i xors its value with entry i and multiplies it by entry i + 1.
    The constants do not depend on the data, so one hash step serves a
    whole row of seeds. The cached array is read-only.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & MASK32)
    column = np.array(consts, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray, first: int) -> np.ndarray:
    """numpy's `hashmix` of each row of `values`, hashes first, first + 1, ...

    uint32 array arithmetic wraps, without numpy's overflow warnings.
    """
    values = values ^ consts[first:first + len(values)]
    values *= consts[first + 1:first + 1 + len(values)]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def entropy_rows(seeds, indices) -> np.ndarray:
    """numpy's entropy of `SeedSequence((seed, index))` per pair, (4, T) uint32.

    numpy makes one uint32 word of an int below 2**32 and two, low first,
    of one below 2**64 (MAX_SEED), so a pair's row is 2 to 4 words. A row
    shorter than the pool of 4 is zero-padded on the right, which is what
    numpy's `hashmix(0)` on the empty pool slots amounts to.
    """
    seeds, indices = np.broadcast_arrays(np.asarray(seeds, np.uint64),
                                         np.asarray(indices, np.uint64))
    s_hi, i_lo, i_hi = seeds >> 32, indices & MASK32, indices >> 32
    two = s_hi != 0  # a seed of two words
    return np.array([seeds & MASK32, np.where(two, s_hi, i_lo),
                     np.where(two, i_lo, i_hi), np.where(two, i_hi, 0)],
                    np.uint32)


def seed_sequence_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(column).generate_state(n_words)` per `entropy_rows` column.

    Each of numpy's loops over pool words runs as one array step where its
    hashes do not depend on each other. Returns an (n_words, T) uint32
    array.
    """
    # the pool's 4 hashes, then 3 for each of its 4 words' mixing rounds
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2)
    pool = _hashmix(entropy, consts, 0)
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        hashed = _hashmix(pool[[src] * len(others)], consts, used)
        pool[others] = _mix(pool[others], hashed)
        used += len(others)
    consts = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE], consts, 0)


def uint64_rows(words: np.ndarray) -> np.ndarray:
    """Pairs of rows of uint32 words, low word first, as uint64 rows."""
    return words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << 32


# PCG64 (O'Neill, HMC-CS-2014-0905) on uint64 limbs: a 128-bit value is a
# (high, low) pair of uint64 arrays, whose arithmetic wraps mod 2**64
def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The full 128-bit products of uint64 arrays, as (high, low) limbs."""
    a_lo, a_hi, b_lo, b_hi = a & MASK32, a >> 32, b & MASK32, b >> 32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo  # 32 x 32-bit partial products
    mid = (a_lo * b_lo >> 32) + (lo_hi & MASK32) + (hi_lo & MASK32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32), a * b


@functools.lru_cache(maxsize=8)
def _jump_constants(count: int) -> np.ndarray:
    """(MULT**j, c_j) for j = 1 .. count as (4, count) uint64 limbs.

    j LCG steps take a state s to MULT**j s + c_j inc, with
    c_j = MULT**(j - 1) + ... + MULT + 1. The cached array is read-only.
    """
    power, offset, columns = 1, 0, []
    for _ in range(count):
        power = power * _PCG64_MULT & _MASK128
        offset = (offset * _PCG64_MULT + 1) & _MASK128
        columns.append((power >> 64, power & _MASK64,
                        offset >> 64, offset & _MASK64))
    consts = np.array(columns, np.uint64).T.copy()
    consts.flags.writeable = False
    return consts


def _mul128(x_hi, x_lo, c_hi, c_lo) -> tuple[np.ndarray, np.ndarray]:
    """x * c mod 2**128 on limbs."""
    hi, lo = _mul64(x_lo, c_lo)
    return hi + x_lo * c_hi + x_hi * c_lo, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 on limbs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _jump(states: np.ndarray, consts: np.ndarray) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """The states each (4, T) limb state reaches by each of `consts`' jumps.

    `states` holds rows (state high, state low, inc high, inc low); returns
    the (T, count) high and low limbs of MULT**j s + c_j inc.
    """
    s_hi, s_lo, i_hi, i_lo = (limb[:, None] for limb in states)
    m_hi, m_lo, c_hi, c_lo = consts
    return _add128(*_mul128(s_hi, s_lo, m_hi, m_lo),
                   *_mul128(i_hi, i_lo, c_hi, c_lo))


def pcg64_states(seeds: list[int], index: int) -> np.ndarray:
    """The PCG64 (state, inc) of `SeedSequence((seed, index))` per seed.

    SeedSequence's 4 uint64 words seed PCG64 through its `srandom` step.
    Returns (4, T) uint64 limbs: rows state high, state low, inc high, inc
    low.
    """
    words = uint64_rows(seed_sequence_words(entropy_rows(seeds, index), 8))
    init_hi, init_lo, seq_hi, seq_lo = words
    # srandom(initstate, initseq): inc = initseq << 1 | 1; from state 0, one
    # LCG step, add initstate, one more step
    inc = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    start = _add128(init_hi, init_lo, *inc)
    return np.array([*_add128(*_mul128(*start, *_MULT_LIMBS), *inc), *inc])


def pcg64_words(states: np.ndarray, count: int) -> np.ndarray:
    """The first `count` uint64 outputs of each (4, T) limb state, (T, count).

    PCG64 steps its LCG, then outputs the XSL-RR of the new state: the high
    and low words xored, rotated right by the top 6 bits.
    """
    hi, lo = _jump(states, _jump_constants(count))
    mixed, turn = hi ^ lo, hi >> 58
    return mixed >> turn | mixed << ((64 - turn) & 63)


# numpy's standard_normal is a 256-layer ziggurat (Marsaglia & Tsang 2000)
# on one uint64 word w: layer idx = w & 0xff, sign bit 8, rabs = w >> 9 on 52
# bits. When rabs < ki[idx] it returns +-rabs * wi[idx] having taken that one
# word; otherwise it takes more
_RABS_BITS = 52


@functools.cache
def ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """wi, and lower bounds lb on ki, read from the installed numpy.

    Each probe sets a generator to a state whose next word is a chosen w
    (the inverted LCG step before a state with high word 0, whose output is
    its low word) and draws one normal. wi[idx] is the draw at rabs = 1,
    readable when that took one word. lb[idx], the candidate
    floor(2**52 wi[idx - 1] / wi[idx]) - 1 (ki's construction, with layer
    0's neighbour 255), holds only where a probe at rabs = lb - 1 took one
    word and returned (lb - 1) wi[idx]; as one word is taken exactly when
    rabs < ki, that proves lb <= ki. Elsewhere lb is 0: a layer whose wi
    is unreadable or whose bound failed, such as layer 1 (ki = 0), never
    certifies a word. About 512 probes, once per process.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    inc = state["state"]["inc"]
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def probe(word: int) -> tuple[float, bool]:
        """The draw whose first word is `word`, and whether it took one."""
        state["state"] = {"state": (word - inc) * inverse & _MASK128,
                          "inc": inc}
        bit_generator.state = state
        value = rng.standard_normal()
        return value, bit_generator.state["state"]["state"] == word

    wi, readable = zip(*(probe(idx | 1 << 9) for idx in range(256)))
    wi = np.array(wi)
    lb = np.zeros(256, np.uint64)
    for idx in np.flatnonzero(readable).tolist():
        bound = min(Fraction(wi[idx - 1]) * 2 ** _RABS_BITS
                    // Fraction(wi[idx]) - 1, 2 ** _RABS_BITS)
        if bound >= 1:
            value, one_word = probe(idx | (bound - 1) << 9)
            if one_word and value == (bound - 1) * wi[idx]:
                lb[idx] = bound
    wi.flags.writeable = lb.flags.writeable = False
    return wi, lb


def ziggurat_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's normal of each uint64 word, and whether it is certified.

    A word is certified when rabs < lb[idx] <= ki[idx]: numpy then takes it
    alone and returns +-rabs * wi[idx], one float64 product, as here. An
    uncertified word's value is meaningless.
    """
    wi, lb = ziggurat_tables()
    idx = words & 0xFF
    rabs = words >> 9 & (1 << _RABS_BITS) - 1
    normals = rabs.astype(np.float64) * wi[idx]
    np.negative(normals, out=normals, where=(words & 0x100).astype(bool))
    return normals, rabs < lb[idx]


def substream(seed: int, index: int) -> np.random.Generator:
    """numpy's generator of a trial's (seed, index) substream."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def trial_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed; independent of execution order."""
    ss = np.random.SeedSequence((master_seed, index))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_seeds(master_seed: int, start: int, count: int) -> list[int]:
    """`trial_seed(master_seed, i)` for i in range(start, start + count),
    in one array pass."""
    index = np.arange(start, start + count, dtype=np.uint64)
    rows = entropy_rows(master_seed, index)
    return uint64_rows(seed_sequence_words(rows, 2))[0].tolist()


_MAX_FAST_NORMALS = 16  # larger draws: the per-trial loop (`first_draws`)


def first_draws(seeds: list[int], index: int,
                shape: tuple[int, ...]) -> np.ndarray:
    """Each seed's first `shape` draw from its (seed, index) substream.

    The PCG64 states and, for draws of at most _MAX_FAST_NORMALS normals,
    each trial's words and normals are arrays. A trial with a word the
    ziggurat tables do not certify, or every trial of a larger draw, is
    drawn by one generator, `substream` of the first seed, set to the
    trial's state in turn. About 1.5% of words are uncertified, so a draw
    of n normals falls back with probability 1 - 0.985**n (42% at 36),
    and past 16 the arrays cost more than they save. The first seed's bulk
    state and draw must equal that generator's own, or a numpy whose
    seeding or normals changed would silently change every draw; a
    campaign checks them once per chunk and raises RuntimeError.
    """
    states = pcg64_states(seeds, index)
    rng = substream(seeds[0], index)
    bit_generator = rng.bit_generator
    state = bit_generator.state
    s_hi, s_lo, i_hi, i_lo = states[:, 0].tolist()
    if (state["state"]["state"], state["state"]["inc"]) != \
            (s_hi << 64 | s_lo, i_hi << 64 | i_lo):
        raise RuntimeError(f"bulk PCG64 seeding of substream ({seeds[0]}, "
                           f"{index}) differs from numpy's")
    first = rng.standard_normal(shape)
    count = math.prod(shape)
    if count > _MAX_FAST_NORMALS:
        draws, slow = np.empty((len(seeds), count)), np.arange(len(seeds))
    else:
        draws, certified = ziggurat_normals(pcg64_words(states, count))
        slow = np.flatnonzero(~certified.all(axis=1))
    # numpy's state dict holds (state, inc) as ints
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(slow.tolist(),
                                             states[:, slow].T.tolist()):
        state["state"] = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
        bit_generator.state = state
        rng.standard_normal(out=draws[row])
    draws = draws.reshape((len(seeds),) + shape)
    if draws[0].tobytes() != first.tobytes():
        raise RuntimeError(f"first draw of substream ({seeds[0]}, {index}) "
                           "differs from numpy's standard_normal")
    return draws

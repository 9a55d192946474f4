"""Samplers for the concrete stationary processes and their analytic
two-point correlation functions.

All models have intensity 1.  ``sample(model, R, n, seed, rung)`` is the one
sampler and the one seed schedule: it draws the n replicas of rung ``rung``
of an R ladder as one ``Replicas`` batch, replica j from its own stream
``Seed(seed.master, seed.replica + rung * n + j)``.  Stream ``Seed(m, r)`` is
numpy's ``default_rng(SeedSequence(entropy=m, spawn_key=(r,)))`` with m taken
mod 2**64; ``sample`` derives the seed words of every stream of a batch in one
vectorised pass of the SeedSequence hash.  So a replica's points depend only
on its model, R and stream, bit for bit, whatever batch it is drawn in, and
replicas can be drawn by any number of workers without shared state.  In a
batch, ``len`` counts replicas and ``n`` counts points; the window checks run
once per batch.

Each replica's stream is read through a bare ``PCG64`` bit generator, one
replica at a time, in one call where the stream is uniform: numpy's
``Generator.uniform(low, high)`` is ``low + (high - low) * (word >> 11) *
2**-53`` on PCG64's raw words, so the samplers read ``random_raw`` and convert
the words of the whole batch at once, with numpy's points bit for bit.  The
renewal draw keeps ``Generator.standard_gamma`` for gamma gaps and sums every
replica's first block of gaps at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special
from scipy.fft import next_fast_len

from .core import (
    ArgumentError,
    DomainError,
    NotApplicableError,
    Replicas,
    _side,
)


# ---------------------------------------------------------------------------
# gap laws for renewal models (all normalized to mean 1)
# ---------------------------------------------------------------------------

class GapLawKind(Enum):
    GAMMA = "gamma"
    UNIFORM_HAT = "uniform_hat"


@dataclass(frozen=True)
class GapLaw:
    """Mean-1 law of the i.i.d. gaps of a renewal process.

    ``GAMMA`` has shape ``theta`` and rate ``theta`` (theta = 1 is the
    exponential law); ``UNIFORM_HAT(k)`` is the law of ``1 + V' - V`` with V, V'
    independent uniform on [-1/k, 1/k], a triangular density supported on
    [1 - 2/k, 1 + 2/k] (k >= 2 so that gaps stay nonnegative).
    """

    kind: GapLawKind
    theta: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind is GapLawKind.GAMMA:
            if self.theta is None or not self.theta > 0:
                raise DomainError("Gamma gap law requires shape theta > 0")
        elif self.kind is GapLawKind.UNIFORM_HAT:
            if self.k is None or not (isinstance(self.k, (int, np.integer)) and self.k >= 2):
                raise DomainError("UniformHat gap law requires integer k >= 2")

    @staticmethod
    def exponential() -> "GapLaw":
        return GapLaw.gamma(1.0)

    @staticmethod
    def gamma(theta: float) -> "GapLaw":
        return GapLaw(GapLawKind.GAMMA, theta=float(theta))

    @staticmethod
    def uniform_hat(k: int) -> "GapLaw":
        return GapLaw(GapLawKind.UNIFORM_HAT, k=k)

    @property
    def std(self) -> float:
        if self.kind is GapLawKind.GAMMA:
            return self.theta**-0.5
        return math.sqrt(2.0 / 3.0) / self.k

    @property
    def head_exponent(self) -> float:
        """Power alpha with density ~ x**alpha as x -> 0 (0 when bounded)."""
        if self.kind is GapLawKind.GAMMA:
            return self.theta - 1.0
        return 0.0

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is GapLawKind.UNIFORM_HAT:
            w = 2.0 / self.k
            out = np.maximum(0.0, 1.0 - np.abs(x - 1.0) / w) / w
            return out
        theta = self.theta
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        out[pos] = np.exp(
            theta * math.log(theta)
            - special.gammaln(theta)
            + (theta - 1.0) * np.log(xp)
            - theta * xp
        )
        return out

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is GapLawKind.UNIFORM_HAT:
            w = 2.0 / self.k
            t = np.clip((x - 1.0) / w, -1.0, 1.0)
            return np.where(t < 0.0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)
        return special.gammainc(self.theta, self.theta * np.maximum(x, 0.0))

    def partial_mean(self, x) -> np.ndarray:
        """Cumulative first moment ``int_0^x t f(t) dt`` (reaches 1 at infinity)."""
        x = np.asarray(x, dtype=float)
        if self.kind is GapLawKind.UNIFORM_HAT:
            w = 2.0 / self.k
            inv_w2 = 1.0 / (w * w)
            lo, hi = 1.0 - w, 1.0 + w

            def ileft(t):
                return (t**3 / 3.0 - lo * t**2 / 2.0) * inv_w2

            def iright(t):
                return (hi * t**2 / 2.0 - t**3 / 3.0) * inv_w2

            t = np.clip(x, lo, hi)
            left = ileft(np.minimum(t, 1.0)) - ileft(lo)
            right = np.where(t > 1.0, iright(t) - iright(1.0), 0.0)
            return left + right
        # for a mean-1 gamma law, E[X 1_{X <= x}] is the regularized lower
        # incomplete gamma with shape theta + 1
        return special.gammainc(self.theta + 1.0, self.theta * np.maximum(x, 0.0))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind is GapLawKind.GAMMA:
            return rng.gamma(self.theta, 1.0 / self.theta, n)
        half = 1.0 / self.k
        return 1.0 + rng.uniform(-half, half, n) - rng.uniform(-half, half, n)


# ---------------------------------------------------------------------------
# process models and seeds
# ---------------------------------------------------------------------------

class Variant(Enum):
    POISSON = "poisson"
    LATTICE = "lattice"
    BERNOULLI_BLOCK = "bernoulli_block"
    VIBRATING_LATTICE = "vibrating_lattice"
    RENEWAL = "renewal"


@dataclass(frozen=True)
class ProcessModel:
    variant: Variant
    d: int = 1
    k: int | None = None
    gap: GapLaw | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or not (1 <= self.d <= 3):
            raise ArgumentError(f"dimension must be an integer in [1, 3], got {self.d!r}")
        v = self.variant
        if v is Variant.BERNOULLI_BLOCK:
            if self.k is None or not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
                raise DomainError("block model requires integer block side k >= 1")
        elif v is Variant.VIBRATING_LATTICE:
            if self.d != 1:
                raise ArgumentError("vibrating lattice is one-dimensional")
            if self.k is None or not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
                raise DomainError("vibrating lattice requires integer k >= 1")
        elif v is Variant.RENEWAL:
            if self.d != 1:
                raise ArgumentError("renewal models are one-dimensional")
            if self.gap is None:
                raise ArgumentError("renewal model requires a gap law")
        elif self.k is not None or self.gap is not None:
            raise ArgumentError(f"{v.value} model takes no extra parameters")

    @staticmethod
    def poisson(d: int = 1) -> "ProcessModel":
        return ProcessModel(Variant.POISSON, d)

    @staticmethod
    def lattice(d: int = 1) -> "ProcessModel":
        return ProcessModel(Variant.LATTICE, d)

    @staticmethod
    def bernoulli_block(k: int, d: int = 1) -> "ProcessModel":
        return ProcessModel(Variant.BERNOULLI_BLOCK, d, k=k)

    @staticmethod
    def vibrating_lattice(k: int) -> "ProcessModel":
        return ProcessModel(Variant.VIBRATING_LATTICE, 1, k=k)

    @staticmethod
    def renewal(gap: GapLaw) -> "ProcessModel":
        return ProcessModel(Variant.RENEWAL, 1, gap=gap)

    def describe(self) -> str:
        if self.variant is Variant.BERNOULLI_BLOCK:
            return f"bernoulli_block(k={self.k},d={self.d})"
        if self.variant is Variant.VIBRATING_LATTICE:
            return f"vibrating_lattice(k={self.k})"
        if self.variant is Variant.RENEWAL:
            g = self.gap
            if g.kind is GapLawKind.UNIFORM_HAT:
                return f"renewal(uniform_hat,k={g.k})"
            if g.theta == 1.0:
                return "renewal(exponential)"
            return f"renewal(gamma,theta={g.theta:g})"
        return f"{self.variant.value}(d={self.d})"


@dataclass(frozen=True)
class Seed:
    """(master, replica) pair; distinct replicas give independent streams.

    Both are integers, the replica nonnegative.  Stream (m, r) is numpy's
    ``default_rng(SeedSequence(entropy=m mod 2**64, spawn_key=(r,)))``, so
    masters congruent mod 2**64 alias and any replica can be rebuilt with
    plain numpy.
    """

    master: int
    replica: int = 0

    def __post_init__(self) -> None:
        for name in ("master", "replica"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ArgumentError(f"seed {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.replica < 0:
            raise ArgumentError(f"seed replica must be nonnegative, got {self.replica!r}")


# numpy's SeedSequence hash (O'Neill's seed_seq_fe; NEP 19 fixes its output),
# run for a whole batch of spawn keys at once.  The hash constants do not
# depend on the data, so step i of every replica is one array operation; the
# constants stay Python ints masked to 32 bits and the arrays uint32, which
# wrap silently (numpy scalars would warn on overflow)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # pool words; PCG64 asks for 4 uint64 = 8 uint32 state words


def _powers(init: int, mult: int, first: int, count: int) -> list[int]:
    """The hash constants ``init * mult**i`` mod 2**32 for i in [first, first +
    count]; hash step i xors its word with constant i and multiplies it by
    constant i + 1."""
    consts = [init * pow(mult, first, 1 << 32) & _MASK32]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


# the 16 hashmix steps that make the pool from the master come first
_MASTER_CONSTS = _powers(_INIT_A, _MULT_A, 0, 4 * _POOL)


@functools.lru_cache(maxsize=16)
def _master_pool(master: int) -> np.ndarray:
    """The entropy pool of ``master`` before a spawn key is mixed in, as a
    read-only ``(4, 1)`` column: the master's two words, zero-padded to the
    pool size, hashed and mixed with each other.  Cached, as one-replica
    calls would otherwise spend most of their seeding here."""
    c = _MASTER_CONSTS
    pool = [_hashmix(word, c[i], c[i + 1])
            for i, word in enumerate([master & _MASK32, master >> 32, 0, 0])]
    step = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[step], c[step + 1]))
                step += 1
    pool = np.array(pool, dtype=np.uint32)[:, None]
    pool.flags.writeable = False
    return pool


def _key_consts(word: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants, as ``(4, 1)`` columns, of the hash
    steps of spawn-key word ``word``: one step per pool word it mixes into."""
    consts = np.array(_powers(_INIT_A, _MULT_A, 4 * _POOL + _POOL * word, _POOL),
                      dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


_KEY_XOR, _KEY_MULT = _key_consts(0)
# generate_state's xor and multiplier constants of the 8 state words, which
# cycle through the pool: INIT_B * MULT_B**i and INIT_B * MULT_B**(i + 1)
_STATE_CONSTS = np.array(_powers(_INIT_B, _MULT_B, 0, 2 * _POOL), dtype=np.uint32)[:, None]
_STATE_XOR, _STATE_MULT = _STATE_CONSTS[:-1], _STATE_CONSTS[1:]


def _seed_states(master: int, first: int, n: int) -> np.ndarray:
    """The PCG64 seed words, ``(n, 4)`` uint64, of streams ``(master, first +
    j)``: ``SeedSequence(master mod 2**64, spawn_key=(first + j,))
    .generate_state(4, np.uint64)`` bit for bit.

    A spawn key r appends the 32-bit words of r, least significant first, to
    the entropy after the pool.  Between multiples of 2**32 only the first
    word varies, so each such run of replicas hashes that word as one ``(4,
    m)`` array and its other words as ``(4, 1)`` constants.
    """
    base = _master_pool(master & (2**64 - 1))
    states = []
    start, end = first, first + n
    while start < end:
        stop = min(end, ((start >> 32) + 1) << 32)
        low = np.arange(start & _MASK32, (start & _MASK32) + stop - start, dtype=np.uint32)
        pool = _mix(base, _hashmix(low, _KEY_XOR, _KEY_MULT))
        high, word = start >> 32, 1
        while high:
            pool = _mix(pool, _hashmix(high & _MASK32, *_key_consts(word)))
            high, word = high >> 32, word + 1
        words = (np.concatenate([pool, pool]) ^ _STATE_XOR) * _STATE_MULT
        words ^= words >> 16
        # pairs of uint32 words read as little-endian uint64, as numpy does
        states.append(np.ascontiguousarray(words.T, dtype="<u4").view("<u8"))
        start = stop
    return np.concatenate(states).astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """One stream's precomputed PCG64 seed words, handed to ``PCG64`` through
    numpy's seed-sequence interface."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64's 4 uint64 words only")
        return self.words


def _stream(state: np.ndarray) -> np.random.PCG64:
    """The bit generator of the stream with PCG64 seed words ``state``, which
    ``default_rng`` of that stream wraps."""
    return np.random.PCG64(_SeedWords(state))


def _words(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw words of each stream of ``states``, one row per
    replica.  The bit generators are made one at a time, so only one
    replica's is alive at once."""
    words = np.empty((len(states), count), dtype=np.uint64)
    for j, state in enumerate(states):
        words[j] = _stream(state).random_raw(count)
    return words


def _uniform(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` of the raw PCG64 words ``words``, bit
    for bit, computed in place: the words' memory is returned as float64.

    numpy draws ``low + (high - low) * next_double``, where ``next_double =
    (word >> 11) * 2**-53`` keeps a word's top 53 bits.  Scaling by a power of
    two is exact, so the factor 2**-53 folds into the range and every value
    rounds as numpy's does.
    """
    words >>= 11
    out = np.multiply(words, (high - low) * 2.0**-53, out=words.view(np.float64))
    if low:
        out += low
    return out


# ---------------------------------------------------------------------------
# samplers: each takes the seed words of the n replicas of one rung and
# returns the points of every replica, replica by replica, and their counts.
# Per replica a draw only builds the bit generator and reads its words, raw
# where the stream is uniform, in one call (two for a Poisson count or a gamma
# block); converting the words to uniforms (``_uniform``) and everything that
# follows (grid cells, shifts, the clip to C_R) is done for the whole batch.
# The grid draws give each replica a row of as many slots as R allows and
# keep the slots that hold a point inside C_R
# ---------------------------------------------------------------------------

def _span_cells(length: float) -> int:
    """The most unit cells an interval of length ``length`` meets, and so the
    most integers it holds, in exact arithmetic; rounding can add one, which
    the draws detect and read again for."""
    return math.ceil(length) + 1


def _grid(lo: np.ndarray, size: np.ndarray, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of one grid per replica, in ``slots`` slots a replica, and
    which slots hold a cell.

    Replica j's grid has ``size[j]`` cells along each axis from ``lo[j]``
    (both ``(n, d)`` int64), listed in C order (the order of
    ``np.meshgrid(..., indexing="ij")`` raveled) in its first
    ``prod(size[j])`` slots; the cells of later slots are meaningless.
    """
    n, d = size.shape
    cells = np.empty((n, slots, d), dtype=np.int64)
    rest = np.arange(slots)
    for a in range(d - 1, 0, -1):
        # an empty grid has no cell to list; dividing by 1 keeps numpy quiet
        rest, cells[:, :, a] = np.divmod(rest, np.maximum(size[:, a, None], 1))
    cells[:, :, 0] = rest
    cells += lo[:, None, :]
    return cells, np.arange(slots) < np.prod(size, axis=1)[:, None]


def _shifted(cells: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cells + u`` (float), computed in the cells' memory."""
    return np.add(cells, u, out=cells.view(np.float64))


def _select(rows: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``rows`` (``(n, slots, d)``, its last axis contiguous) in
    the slots ``keep`` marks, replica by replica, as one ``(N, d)`` array, and
    each replica's count."""
    d = rows.shape[2]
    # each point read as one d-coordinate item, so the mask copies whole points
    points = rows.view(np.dtype((np.void, 8 * d)))[:, :, 0]
    return points[keep].view(np.float64).reshape(-1, d), np.count_nonzero(keep, axis=1)


def _inside(pts: np.ndarray, half: float) -> np.ndarray:
    """Which points of ``pts`` (``(..., d)``) lie in the closed cube of
    half-side ``half``, tested one axis at a time."""
    inside = (pts[..., 0] >= -half) & (pts[..., 0] <= half)
    for a in range(1, pts.shape[-1]):
        inside &= (pts[..., a] >= -half) & (pts[..., a] <= half)
    return inside


def _draw_poisson(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    """A Poisson count through ``Generator.poisson``, then that many uniform
    points read raw from the same bit generator."""
    half, d = R / 2.0, model.d
    words = []
    for state in states:
        bits = _stream(state)
        words.append(bits.random_raw(np.random.Generator(bits).poisson(R**d) * d))
    counts = np.array([len(w) for w in words]) // d
    return _uniform(np.concatenate(words), -half, half).reshape(-1, d), counts


def _draw_lattice(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    half, d = R / 2.0, model.d
    u = _uniform(_words(states, d), 0.0, 1.0)
    lo = np.ceil(-half - u).astype(np.int64)
    size = np.floor(half - u).astype(np.int64) - lo + 1
    cells, full = _grid(lo, size, int(np.prod(size.max(axis=0))))
    return _select(_shifted(cells, u[:, None, :]), full)


def _draw_bernoulli(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    """``k**d`` uniform points in each tile of side k that meets C_R, the tiles
    shifted by a uniform stationarizing u; a replica's stream is u, then the
    points tile by tile in C order of the tiles."""
    n, half, d, k = len(states), R / 2.0, model.d, model.k
    per_tile = k**d
    tiles = np.full(d, _span_cells(R / k))
    while True:
        words = _words(states, d + int(np.prod(tiles)) * per_tile * d)
        u = _uniform(words[:, :d], 0.0, float(k))
        lo = np.floor((-half - u) / k).astype(np.int64)
        size = np.floor((half - u) / k).astype(np.int64) - lo + 1
        if (size <= tiles).all():
            break
        tiles = np.maximum(tiles, size.max(axis=0))
    cells, full = _grid(lo, size, int(np.prod(tiles)))
    pts = _uniform(words[:, d:], 0.0, float(k)).reshape(n, -1, per_tile, d)
    pts += np.repeat(cells * float(k), per_tile, axis=1).reshape(pts.shape)
    pts += u[:, None, None, :]
    pts = pts.reshape(n, -1, d)
    return _select(pts, np.repeat(full, per_tile, axis=1) & _inside(pts, half))


def _draw_vibrating(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    """The lattice shifted by a uniform u, each site jittered uniformly on
    [-1/k, 1/k]; a replica's stream is u, then one jitter per site that can
    reach C_R."""
    half, amp = R / 2.0, 1.0 / model.k
    sites = _span_cells(R + 2.0 * amp)
    while True:
        words = _words(states, 1 + sites)
        u = _uniform(words[:, :1], 0.0, 1.0)
        lo = np.ceil(-half - u - amp).astype(np.int64)
        size = np.floor(half - u + amp).astype(np.int64) - lo + 1
        if size.max() <= sites:
            break
        sites = int(size.max())
    cells, full = _grid(lo, size, sites)
    pts = _shifted(cells, u[:, None, :])
    pts += _uniform(words[:, 1:], -amp, amp)[:, :, None]
    return _select(pts, full & _inside(pts, half))


def _renewal_block(span: float) -> int:
    """The number of gaps a renewal draw takes at once to cover ``span``."""
    return int(span * 1.25) + int(10.0 * math.sqrt(span)) + 16


def _renewal_positions(gap: GapLaw, start: float, target: float,
                       rng: np.random.Generator) -> np.ndarray:
    # renewal positions from ``start`` until one passes ``target``
    span = target - start
    positions = [np.array([start])]
    pos = start
    while pos < target:
        block = positions[-1][-1] + np.cumsum(gap.sample(rng, _renewal_block(span)))
        positions.append(block)
        pos = block[-1]
        span = target - pos
    return np.concatenate(positions)


def _draw_renewal(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    """Renewal positions across C_R widened by a margin on each side, shifted
    by a uniform phase u; a replica's stream is u, then its gaps block by block.

    The first block almost always reaches the far end, so it is drawn into one
    row per replica (gamma gaps through ``Generator.standard_gamma``, hat gaps
    raw) and summed for the whole batch.  A replica whose first block falls
    short is drawn again from its stream by ``_renewal_positions``.
    """
    # oversample well past the window and apply a uniform phase shift over an
    # integer number of mean gaps; the margin covers the mixing length of the
    # gap law (verified downstream by the empirical-intensity invariant)
    gap, n, half = model.gap, len(states), R / 2.0
    margin = float(math.ceil(max(10.0, 10.0 * gap.std)))
    start, target = -half - margin, half + margin
    m = _renewal_block(target - start)
    pos = np.empty((n, m + 1))
    pos[:, 0] = start
    gaps = pos[:, 1:]
    if gap.kind is GapLawKind.GAMMA:
        phase = np.empty(n, dtype=np.uint64)
        for j, state in enumerate(states):
            bits = _stream(state)
            phase[j] = bits.random_raw()
            np.random.Generator(bits).standard_gamma(gap.theta, out=gaps[j])
        gaps *= 1.0 / gap.theta  # Generator.gamma scales standard_gamma
    else:
        words = _words(states, 1 + 2 * m)
        phase, w = words[:, 0], 1.0 / gap.k
        np.add(1.0, _uniform(words[:, 1:m + 1], -w, w), out=gaps)
        gaps -= _uniform(words[:, m + 1:], -w, w)
    u = _uniform(phase, 0.0, margin)
    np.cumsum(gaps, axis=1, out=gaps)
    gaps += start
    short = np.flatnonzero(pos[:, -1] < target)
    pos += u[:, None]
    rows = pos[:, :, None]
    pts, counts = _select(rows, _inside(rows, half))
    if short.size:
        parts = np.split(pts, np.cumsum(counts)[:-1])
        for j in short:
            bits = _stream(states[j])
            bits.random_raw()  # the phase
            row = _renewal_positions(gap, start, target, np.random.Generator(bits)) + u[j]
            parts[j] = row[np.abs(row) <= half][:, None]
            counts[j] = len(parts[j])
        pts = np.concatenate(parts)
    return pts, counts


_DRAWS = {
    Variant.POISSON: _draw_poisson,
    Variant.LATTICE: _draw_lattice,
    Variant.BERNOULLI_BLOCK: _draw_bernoulli,
    Variant.VIBRATING_LATTICE: _draw_vibrating,
    Variant.RENEWAL: _draw_renewal,
}


def sample(model: ProcessModel, R: float, n: int, seed: Seed, rung: int = 0) -> Replicas:
    """The ``n`` replicas of ``model`` in the centred cube of side ``R`` on rung
    ``rung`` of an R ladder, as one batch; replica j draws from
    ``Seed(seed.master, seed.replica + rung * n + j)``, that is from
    ``default_rng(SeedSequence(entropy=seed.master mod 2**64,
    spawn_key=(seed.replica + rung * n + j,)))``.

    The marginal law inside the window is exact for every variant: block and
    lattice models generate one tile of margin and clip, the renewal model
    oversamples an enlarged interval and applies a uniform shift.  The
    clipping, like the window checks, runs once for the whole batch.
    """
    R = _side(R)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ArgumentError(f"the number of replicas must be a positive integer, got {n!r}")
    n = int(n)
    states = _seed_states(seed.master, seed.replica + rung * n, n)
    pts, counts = _DRAWS[model.variant](model, R, states)
    return Replicas(pts, np.concatenate([[0], np.cumsum(counts)]), R)


# ---------------------------------------------------------------------------
# analytic two-point correlation functions
# ---------------------------------------------------------------------------

class Rho2Analytic:
    """Two-point correlation of a stationary model in dimension ``d``: a
    continuous density and atoms on the positive half-line (mirrored by
    symmetry).  In d = 1 ``continuous_part(v)`` gives one density value per
    separation, and the energy routes consume it on ``nodes_upto``, whose
    piecewise-linear interpolation is exact for every built-in model; in
    d >= 2 they read only ``block``: the side k of the separable deficit
    ``rho2 - 1 = -k^-d prod_i (1 - |v_i|/k)_+``, or None for no deficit.
    """

    def __init__(
        self,
        d: int,
        continuous_part: Callable[[np.ndarray], np.ndarray],
        nodes_fn: Callable[[float], np.ndarray],
        atoms_fn: Callable[[float], np.ndarray] | None = None,
        head_exponent: float = 0.0,
        tail_flat: bool = True,
        block: float | None = None,
    ):
        self.d = d
        self._continuous_part = continuous_part
        self._nodes_fn = nodes_fn
        self._atoms_fn = atoms_fn or (lambda limit: np.empty((0, 2)))
        self.head_exponent = head_exponent
        self.tail_flat = tail_flat
        self.block = block

    def continuous_part(self, v) -> np.ndarray:
        if self.d != 1:
            raise NotApplicableError("the continuous part is evaluated in d = 1 only; "
                                     "in d >= 2 the block side gives the deficit")
        return self._continuous_part(v)

    def nodes_upto(self, limit: float) -> np.ndarray:
        nodes = np.asarray(self._nodes_fn(limit), dtype=float)
        nodes = nodes[(nodes >= 0.0) & (nodes <= limit)]
        nodes = np.unique(np.concatenate([nodes, [0.0, limit]]))
        return nodes

    def atoms_upto(self, limit: float) -> np.ndarray:
        atoms = np.asarray(self._atoms_fn(limit), dtype=float).reshape(-1, 2)
        if atoms.size:
            atoms = atoms[(atoms[:, 0] > 0.0) & (atoms[:, 0] <= limit)]
        return atoms


def _rho2_poisson(d: int) -> Rho2Analytic:
    return Rho2Analytic(
        d=d,
        continuous_part=lambda v: np.ones(np.shape(v)),
        nodes_fn=lambda limit: np.array([0.0, limit]),
    )


def _rho2_lattice(d: int) -> Rho2Analytic:
    if d != 1:
        # the energy routes integrate atoms in d = 1 only
        raise NotApplicableError("atomic two-point parts are supported in d = 1 only")

    def atoms_fn(limit: float) -> np.ndarray:
        locs = np.arange(1.0, math.floor(limit) + 1.0)
        return np.stack([locs, np.ones_like(locs)], axis=1)

    return Rho2Analytic(
        d=1,
        continuous_part=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
        nodes_fn=lambda limit: np.array([0.0, limit]),
        atoms_fn=atoms_fn,
    )


def _rho2_bernoulli(k: int, d: int) -> Rho2Analytic:
    kk = float(k)

    def cont(v):
        v = np.asarray(v, dtype=float)
        return 1.0 - np.maximum(0.0, 1.0 - np.abs(v) / kk) / kk

    return Rho2Analytic(
        d=d,
        continuous_part=cont,
        nodes_fn=lambda limit: np.array([0.0, kk, limit]),
        block=kk,
    )


def _rho2_vibrating(k: int) -> Rho2Analytic:
    w = 2.0 / k
    reach = int(math.ceil(w)) + 1

    def cont(v):
        v = np.abs(np.asarray(v, dtype=float))
        out = np.zeros_like(v)
        base = np.rint(v)
        for off in range(-reach, reach + 1):
            m = base + off
            valid = np.abs(m) >= 0.5  # the m = 0 bump does not exist
            t = np.where(valid, 1.0 - np.abs(v - m) / w, 0.0)
            out += np.maximum(0.0, t) / w
        return out

    def nodes_fn(limit: float) -> np.ndarray:
        ms = np.arange(1.0, math.floor(limit + w) + 1.0)
        pts = np.concatenate([ms - w, ms, ms + w, w - ms])
        return pts[(pts >= 0.0) & (pts <= limit)]

    return Rho2Analytic(
        d=1,
        continuous_part=cont,
        nodes_fn=nodes_fn,
    )


# extent and step of the renewal density grid (the extent grows with the
# mixing length of the gap law, up to _RENEWAL_V_LIMIT)
_RENEWAL_V_MAX = 32.0
_RENEWAL_STEP = 2.0**-8
_RENEWAL_V_LIMIT = 4096
# damping eps of the grid's series: its wrap-around is eps^8 = 1e-16, and
# undamping scales the round-off by at most 1/eps (grid error below 1e-13)
_RENEWAL_DAMPING = 1e-2


def _renewal_density_grid(gap: GapLaw) -> tuple[np.ndarray, np.ndarray, bool]:
    """Renewal density ``u = sum_j f^{*j}`` on a uniform grid of [0, v_max].

    Gaps are positive, so u solves the causal renewal equation u = f + f * u
    and needs the gap law on [0, v_max] only.  It is deposited onto the nodes
    keeping mass and first moment per cell (cloud-in-cell), so the lattice
    renewal rate matches the continuous one to O(h^2), where a cell histogram
    would bias it by h/2.  Damping node j by eps^(j/m) keeps the transform F
    of the deposit inside the unit disk: u = F / (1 - F) is one FFT pass with
    no singular frequency and, at length 8 (m + 1), a wrap-around of eps^8.
    """
    h = _RENEWAL_STEP
    mixing = 3.0 / gap.std**2 + 10.0 * gap.std
    v_max = max(_RENEWAL_V_MAX, math.ceil(mixing))
    if v_max > _RENEWAL_V_LIMIT:
        raise DomainError(f"renewal gap law too narrow: its density grid needs "
                          f"v_max = {v_max} > {_RENEWAL_V_LIMIT}")
    m = int(round(v_max / h))
    edges = np.arange(m + 2) * h
    mass = np.diff(gap.cdf(edges))
    moment = np.diff(gap.partial_mean(edges))
    q = np.zeros(m + 2)
    keep = mass > 0.0
    idx = np.nonzero(keep)[0]
    frac = np.clip(moment[keep] / mass[keep] / h - idx, 0.0, 1.0)
    np.add.at(q, idx, mass[keep] * (1.0 - frac))
    np.add.at(q, idx + 1, mass[keep] * frac)
    damp = _RENEWAL_DAMPING ** (np.arange(m + 1) / m)
    n = next_fast_len(8 * (m + 1))
    F = np.fft.rfft(q[: m + 1] * damp, n)
    u = np.fft.irfft(F / (1.0 - F), n)[: m + 1] / (damp * h)
    vals = np.maximum(u, 0.0)  # clear the FFT round-off floor
    # node 0: the head is dominated by the gap density itself; pick the value
    # that preserves the integral of the interpolant over the first cell
    vals[0] = max(0.0, 2.0 * mass[0] / h - vals[1])
    tail_flat = bool(np.max(np.abs(vals[int(0.9 * m) :] - 1.0)) < 1e-5)
    return edges[: m + 1], vals, tail_flat


def _renewal_nodes(grid: np.ndarray):
    # one extra node just past the grid closes the deficit to exactly zero;
    # without it the integrator would bridge any residual linearly to the
    # far tent edge and amplify it by sqrt(R)
    h = grid[1] - grid[0]

    def nodes_fn(limit: float) -> np.ndarray:
        nodes = grid[grid <= limit]
        if limit > grid[-1]:
            nodes = np.append(nodes, min(limit, grid[-1] + h))
        return nodes

    return nodes_fn


def _rho2_renewal(gap: GapLaw) -> Rho2Analytic:
    grid, vals, tail_flat = _renewal_density_grid(gap)

    def cont(v):
        v = np.abs(np.asarray(v, dtype=float))
        return np.interp(v, grid, vals, right=1.0)

    return Rho2Analytic(
        d=1,
        continuous_part=cont,
        nodes_fn=_renewal_nodes(grid),
        head_exponent=gap.head_exponent,
        tail_flat=tail_flat,
    )


_HARDCORE_TRANSITION = 2.0**-20


def rho2_hardcore() -> Rho2Analytic:
    """Pair correlation ``1 - 1_B`` of the hypothetical hardcore benchmark,
    with B the ball of unit volume (d = 1: [-1/2, 1/2]).  The jump at 1/2 is
    smoothed over ``_HARDCORE_TRANSITION`` so the piecewise-linear profile
    stays exact to O(transition^2) under the energy quadratures."""
    t = _HARDCORE_TRANSITION

    def cont(v):
        v = np.abs(np.asarray(v, dtype=float))
        return np.clip((v - 0.5) / t + 0.5, 0.0, 1.0)

    return Rho2Analytic(
        d=1,
        continuous_part=cont,
        nodes_fn=lambda limit: np.array([0.0, 0.5 - t / 2.0, 0.5 + t / 2.0, limit]),
    )


def rho2_analytic(model: ProcessModel) -> Rho2Analytic:
    """Analytic (or numerically convolved, for renewal gaps) two-point
    correlation of ``model``, normalized so that Poisson gives identically 1.
    """
    v = model.variant
    if v is Variant.POISSON:
        return _rho2_poisson(model.d)
    if v is Variant.LATTICE:
        return _rho2_lattice(model.d)
    if v is Variant.BERNOULLI_BLOCK:
        return _rho2_bernoulli(model.k, model.d)
    if v is Variant.VIBRATING_LATTICE:
        return _rho2_vibrating(model.k)
    return _rho2_renewal(model.gap)

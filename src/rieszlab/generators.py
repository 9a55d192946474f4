"""Samplers for the concrete stationary processes and their analytic
two-point correlation functions.

A model variant is one row of ``_VARIANTS``: its parameter besides d, its
dimensions, draw and rho2 builder.  A ``ProcessModel`` or ``GapLaw`` that
lacks its parameter or sets one it does not take raises ``ArgumentError``.

All models have intensity 1.  ``sample(model, R, n, seed)`` is the one
sampler and the one seed schedule: it draws n replicas as one ``Replicas``
batch, replica j from stream ``Seed(seed.master, seed.replica + j)``, so a
caller drawing several batches offsets ``seed.replica``.  Stream ``Seed(m,
r)`` is numpy's ``default_rng(SeedSequence(entropy=m, spawn_key=(r,)))`` with
m taken mod 2**64; ``sample`` mixes the spawn keys of a batch into numpy's
pool of m in one vectorised pass of the SeedSequence hash.  So a replica's
points depend only on its model, R and stream, bit for bit, whatever batch
it is drawn in, and replicas can be drawn by any number of workers without
shared state.  In a batch, ``len`` counts replicas and ``n`` counts points;
the window checks run once per batch.

Each replica's stream is read through a bare ``PCG64`` bit generator, one
replica at a time, in one call where the stream is uniform: numpy's
``Generator.uniform(low, high)`` is ``low + (high - low) * (word >> 11) *
2**-53`` on PCG64's raw words, so the samplers read ``random_raw`` and convert
the words of the whole batch at once, with numpy's points bit for bit.  The
renewal draw keeps ``Generator.standard_gamma`` for gamma gaps; hat gap i is
``1 + U[2i] - U[2i + 1]`` over the uniforms after the phase.  The block,
vibrating and renewal draws read a bound on the words a replica can need, and
when a replica needs more they read the whole batch again with a larger bound:
a longer read extends each replica's row bit for bit, so the points do not
depend on the bound.  A batch that would need more than
``core._BATCH_LIMIT`` words raises ``DomainError`` before it is allocated,
and so does a batch of more seed words than that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

from .core import (
    _BATCH_LIMIT,
    ArgumentError,
    DomainError,
    NotApplicableError,
    Replicas,
    _check_batch,
    _is_int,
    _side,
    in_window,
)


# ---------------------------------------------------------------------------
# gap laws for renewal models (all normalized to mean 1)
# ---------------------------------------------------------------------------

class GapLawKind(Enum):
    GAMMA = "gamma"
    UNIFORM_HAT = "uniform_hat"


def _check_params(record, name: str, fields: tuple[str, ...], takes: str | None) -> None:
    """``ArgumentError`` unless ``takes`` is the one of ``fields`` that ``record`` sets."""
    for field in fields:
        given = getattr(record, field) is not None
        if given != (field == takes):
            raise ArgumentError(f"{name} {'takes no' if given else 'requires'} {field}")


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
        takes = "theta" if self.kind is GapLawKind.GAMMA else "k"
        _check_params(self, f"{self.kind.value} gap law", ("theta", "k"), takes)
        if takes == "theta":
            if not self.theta > 0:
                raise DomainError("Gamma gap law requires shape theta > 0")
        elif not (_is_int(self.k) and self.k >= 2):
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

    def describe(self) -> str:
        if self.kind is GapLawKind.UNIFORM_HAT:
            return f"uniform_hat,k={self.k}"
        return "exponential" if self.theta == 1.0 else f"gamma,theta={self.theta:g}"

    @property
    def std(self) -> float:
        return self.theta**-0.5 if self.kind is GapLawKind.GAMMA else math.sqrt(2.0 / 3.0) / self.k

    @property
    def upper_end(self) -> float:
        """A point past which the law holds at most 2^-60 of its mass, so that
        its ``cdf`` there rounds to 1: the hat's support end 1 + 2/k, or the
        Gamma law's 2^-60 upper quantile."""
        if self.kind is GapLawKind.UNIFORM_HAT:
            return 1.0 + 2.0 / self.k
        return float(special.gammainccinv(self.theta, 2.0**-60)) / self.theta

    @property
    def head_exponent(self) -> float:
        """Power alpha with density ~ x**alpha as x -> 0 (0 when bounded)."""
        return self.theta - 1.0 if self.kind is GapLawKind.GAMMA else 0.0

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is GapLawKind.UNIFORM_HAT:
            w = 2.0 / self.k
            return np.maximum(0.0, 1.0 - np.abs(x - 1.0) / w) / w
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
        row, name = _VARIANTS[self.variant], self.variant.value
        if not (_is_int(self.d) and self.d in row.dims):
            raise ArgumentError(f"{name} models take d in {list(row.dims)}, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))  # a plain int, whose powers stay exact
        _check_params(self, f"{name} model", ("k", "gap"), row.param)
        if row.param == "k" and not (_is_int(self.k) and self.k >= 1):
            raise DomainError(f"{name} model requires integer k >= 1, got {self.k!r}")

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
        """``variant(parameter,d=...)``, d only for a variant of several dimensions."""
        row = _VARIANTS[self.variant]
        parts = [self.gap.describe() if self.gap else f"k={self.k}"] if row.param else []
        parts += [f"d={self.d}"] if len(row.dims) > 1 else []
        return f"{self.variant.value}({','.join(parts)})"


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
            if not _is_int(value):
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


@functools.lru_cache(maxsize=16)
def _master_pool(master: int) -> np.ndarray:
    """The entropy pool of ``master`` before a spawn key is mixed in (a key
    only appends words), as a read-only ``(4, 1)`` column: numpy's
    ``SeedSequence(master).pool``, cached so that no replica builds one."""
    pool = np.random.SeedSequence(master).pool[:, None]
    pool.flags.writeable = False
    return pool


def _key_consts(word: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants, as ``(4, 1)`` columns, of the hash
    steps of spawn-key word ``word`` (after the pool's 16), one per pool word."""
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


def _batch(n: int, count: int, dtype=np.float64) -> np.ndarray:
    """An empty ``(n, count)`` array of 8-byte ``dtype``, one row per replica,
    checked against ``_BATCH_LIMIT``."""
    _check_batch(n, count)
    return np.empty((n, count), dtype=dtype)


def _words(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw words of each stream of ``states``, one row per
    replica.  The bit generators are made one at a time, so only one
    replica's is alive at once."""
    words = _batch(len(states), count, np.uint64)
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
# samplers: each takes the seed words of the n replicas of one batch and
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
    cells = _batch(n, slots * d, np.int64).reshape(n, slots, d)
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


def _draw_poisson(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    """A Poisson count through ``Generator.poisson``, then that many uniform
    points read raw from the same bit generator."""
    half, d = R / 2.0, model.d
    # the mean count, checked before numpy is asked to draw it; R is capped
    # at twice the limit, past which the batch is too large anyway, so that
    # R**d cannot overflow
    _check_batch(len(states), min(R, 2.0 * _BATCH_LIMIT)**d * d)
    words = []
    for state in states:
        bits = _stream(state)
        words.append(bits.random_raw(np.random.Generator(bits).poisson(R**d) * d))
    counts = np.array([len(w) for w in words]) // d
    return _uniform(np.concatenate(words), -half, half).reshape(-1, d), counts


def _draw_lattice(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    half, d = R / 2.0, model.d
    _check_batch(len(states), _span_cells(R)**d * d)  # before the int64 grid bounds
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
    return _select(pts, np.repeat(full, per_tile, axis=1) & in_window(pts, half))


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
    return _select(pts, full & in_window(pts, half))


def _renewal_block(span: float) -> int:
    """The number of gaps a renewal draw reads first to cover ``span``."""
    return int(span * 1.25) + int(10.0 * math.sqrt(span)) + 16


def _draw_renewal(model: ProcessModel, R: float, states) -> tuple[np.ndarray, np.ndarray]:
    """Renewal positions across C_R widened by a margin on each side, shifted
    by a uniform phase u; a replica's stream is u, then its gaps one after
    another (gamma gaps through ``Generator.standard_gamma``, hat gap i from
    the uniforms 2i and 2i + 1 after u), summed in one running sum per row.

    The first m gaps of every replica almost always reach the far end; when a
    replica ends short of it, the whole batch is read again with 2m gaps.
    A longer read extends each row bit for bit, and positions past the far
    end fall outside C_R, so the points do not depend on m.
    """
    # oversample well past the window and apply a uniform phase shift over an
    # integer number of mean gaps; the margin covers the mixing length of the
    # gap law (verified downstream by the empirical-intensity invariant)
    gap, n, half = model.gap, len(states), R / 2.0
    margin = float(math.ceil(max(10.0, 10.0 * gap.std)))
    start, target = -half - margin, half + margin
    m = _renewal_block(target - start)
    while True:
        pos = _batch(n, m + 1)
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
            v = _uniform(words[:, 1:], -w, w)
            np.add(1.0, v[:, 0::2], out=gaps)
            gaps -= v[:, 1::2]
        np.cumsum(gaps, axis=1, out=gaps)
        gaps += start
        if (pos[:, -1] >= target).all():
            break
        m *= 2
    pos += _uniform(phase, 0.0, margin)[:, None]
    rows = pos[:, :, None]
    return _select(rows, in_window(rows, half))


def sample(model: ProcessModel, R: float, n: int, seed: Seed) -> Replicas:
    """The ``n`` replicas of ``model`` in the centred cube of side ``R`` as
    one batch; replica j draws from ``Seed(seed.master, seed.replica + j)``,
    that is from ``default_rng(SeedSequence(entropy=seed.master mod 2**64,
    spawn_key=(seed.replica + j,)))``.

    The marginal law inside the window is exact for every variant: block and
    lattice models generate one tile of margin and clip, the renewal model
    oversamples an enlarged interval and applies a uniform shift.  The
    clipping, like the window checks, runs once for the whole batch.
    """
    R = _side(R)
    if not (_is_int(n) and n >= 1):
        raise ArgumentError(f"the number of replicas must be a positive integer, got {n!r}")
    n = int(n)
    _check_batch(n, 4)  # the n rows of 4 seed words, before the hash runs
    states = _seed_states(seed.master, seed.replica, n)
    pts, counts = _VARIANTS[model.variant].draw(model, R, states)
    return Replicas(pts, np.concatenate([[0], np.cumsum(counts)]), R)


# ---------------------------------------------------------------------------
# analytic two-point correlation functions
# ---------------------------------------------------------------------------

def _no_points(limit: float) -> np.ndarray:
    return np.empty(0)


@dataclass
class Rho2Analytic:
    """Two-point correlation of a stationary model in dimension ``d``: a
    continuous density and unit-mass atoms on the positive half-line
    (mirrored by symmetry).

    In d = 1 ``continuous_part(v)`` gives one density value per separation,
    and the energy routes consume it on ``nodes_upto``, whose
    piecewise-linear interpolation is exact for every built-in model, plus
    one unit mass at each position of ``atoms_upto``.  ``nodes_fn`` and
    ``atoms_fn`` may return positions outside the range asked for; the two
    ``*_upto`` methods keep those in range, and ``nodes_upto`` adds 0 and
    the limit.  In d >= 2 the routes read only ``block``: the side k of the
    separable deficit ``rho2 - 1 = -k^-d prod_i (1 - |v_i|/k)_+``, or None
    for no deficit.
    """

    d: int
    density: Callable[[np.ndarray], np.ndarray]
    nodes_fn: Callable[[float], np.ndarray] = _no_points
    atoms_fn: Callable[[float], np.ndarray] = _no_points
    head_exponent: float = 0.0
    tail_flat: bool = True
    block: float | None = None

    def continuous_part(self, v) -> np.ndarray:
        if self.d != 1:
            raise NotApplicableError("the continuous part is evaluated in d = 1 only; "
                                     "in d >= 2 the block side gives the deficit")
        return self.density(v)

    def nodes_upto(self, limit: float) -> np.ndarray:
        nodes = np.asarray(self.nodes_fn(limit), dtype=float)
        nodes = nodes[(nodes >= 0.0) & (nodes <= limit)]
        return np.unique(np.concatenate([nodes, [0.0, limit]]))

    def atoms_upto(self, limit: float) -> np.ndarray:
        atoms = np.asarray(self.atoms_fn(limit), dtype=float)
        return atoms[(atoms > 0.0) & (atoms <= limit)]


def _rho2_poisson(model: ProcessModel) -> Rho2Analytic:
    return Rho2Analytic(model.d, lambda v: np.ones(np.shape(v)))


def _rho2_lattice(model: ProcessModel) -> Rho2Analytic:
    if model.d != 1:
        # the energy routes integrate atoms in d = 1 only
        raise NotApplicableError("atomic two-point parts are supported in d = 1 only")

    def atoms_fn(limit: float) -> np.ndarray:
        _check_batch(1, math.floor(limit))
        return np.arange(1.0, math.floor(limit) + 1.0)

    return Rho2Analytic(1, lambda v: np.zeros_like(np.asarray(v, dtype=float)),
                        atoms_fn=atoms_fn)


def _rho2_bernoulli(model: ProcessModel) -> Rho2Analytic:
    kk = float(model.k)

    def cont(v):
        v = np.asarray(v, dtype=float)
        return 1.0 - np.maximum(0.0, 1.0 - np.abs(v) / kk) / kk

    return Rho2Analytic(model.d, cont, nodes_fn=lambda limit: np.array([kk]), block=kk)


def _rho2_vibrating(model: ProcessModel) -> Rho2Analytic:
    w = 2.0 / model.k
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
        _check_batch(4, math.floor(limit + w))
        ms = np.arange(1.0, math.floor(limit + w) + 1.0)
        return np.concatenate([ms - w, ms, ms + w, w - ms])

    return Rho2Analytic(1, cont, nodes_fn=nodes_fn)


# extent and step of the renewal density grid (the extent grows with the
# mixing length of the gap law, up to _RENEWAL_V_LIMIT)
_RENEWAL_V_MAX = 32.0
_RENEWAL_STEP = 2.0**-8
_RENEWAL_V_LIMIT = 4096
# damping eps of the grid's series: the transform's wrap-around, eps^3 of the
# plateau, is subtracted in closed form, and undamping scales the round-off
# by at most 1/eps (grid error below 1e-13)
_RENEWAL_DAMPING = 1e-2


@functools.lru_cache
def _fft_length(target: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= ``target``: the length pocketfft
    transforms fastest (scipy's ``next_fast_len`` for complex input)."""
    best = 1 << (target - 1).bit_length()  # a power of two
    f11 = 1
    while f11 < best:
        f7 = f11
        while f7 < best:
            f5 = f7
            while f5 < best:
                odd = f5
                while odd < best:
                    # lift the odd part 3^b 5^c 7^d 11^e by the fewest doublings
                    lifted = odd << (-(-target // odd) - 1).bit_length()
                    if lifted < best:
                        best = lifted
                    odd *= 3
                f5 *= 5
            f7 *= 7
        f11 *= 11
    return best


def _renewal_plateau(q: np.ndarray) -> tuple[float, float]:
    """The renewal sequence ``u = q + q * u`` of a deposit q that holds mass
    at most 1 tends to ``c lam^k`` (Feller, vol. II, ch. XI): lam is the root
    near 1 of ``sum_j q_j lam^-j = 1``, exactly 1 when q holds full mass, and
    ``c = 1 / sum_j j q_j lam^-j``.  Returns (lam, c)."""
    j = np.nonzero(q)[0]
    qj = q[j]
    # Newton's method for z = 1/lam on sum_j q_j z^j - 1, which is convex and
    # increasing in z: from z = 1 the first step overshoots the root and the
    # others descend to it; Gamma shapes above 0.02 reach it to rounding in
    # four steps, and the narrowest shapes the grid admits (near 1e-5) in six
    z = 1.0
    for _ in range(6):
        p = qj * z**j
        z -= (p.sum() - 1.0) * z / (j @ p)
    p = qj * z**j
    return 1.0 / z, 1.0 / (j @ p)


def _renewal_deposit(gap: GapLaw, m: int) -> tuple[np.ndarray, float]:
    """The gap law deposited onto nodes 0 .. m of step h keeping mass and
    first moment per cell (cloud-in-cell), and the mass of the first cell.

    Mass past node m is dropped.  The law is read up to its ``upper_end``
    only: past it every cell's mass is 0 in floating point.
    """
    h = _RENEWAL_STEP
    cells = math.ceil(min((m + 1) * h, gap.upper_end) / h)
    edges = np.arange(cells + 1) * h
    mass = np.diff(gap.cdf(edges))
    moment = np.diff(gap.partial_mean(edges))
    q = np.zeros(m + 2)
    keep = mass > 0.0
    idx = np.nonzero(keep)[0]
    frac = np.clip(moment[keep] / mass[keep] / h - idx, 0.0, 1.0)
    np.add.at(q, idx, mass[keep] * (1.0 - frac))
    np.add.at(q, idx + 1, mass[keep] * frac)
    return q[: m + 1], float(mass[0])


def _renewal_density_grid(gap: GapLaw) -> tuple[np.ndarray, np.ndarray, bool]:
    """Renewal density ``u = sum_j f^{*j}`` on a uniform grid of [0, v_max].

    Gaps are positive, so u solves the causal renewal equation u = f + f * u
    and needs the gap law on [0, v_max] only.  The law is deposited onto the
    nodes keeping mass and first moment per cell (``_renewal_deposit``), so
    the lattice renewal rate matches the continuous one to O(h^2), where a
    cell histogram would bias it by h/2.  Damping node j by eps^(j/m) keeps
    the transform F of the deposit inside the unit disk: u = F / (1 - F) is
    one pass of numpy's FFT with no singular frequency, at the smallest
    11-smooth length n >= 3 (m + 1) (``_fft_length``).  The division runs in
    place on F.  Past node m the renewal sequence is its plateau ``c lam^k``
    (``_renewal_plateau``), so the transform's wrap-around adds
    ``c lam^k r / (1 - r)`` to node k, with r = eps^(n/m) lam^n; that term
    is subtracted in closed form.
    """
    h = _RENEWAL_STEP
    mixing = 3.0 / gap.std**2 + 10.0 * gap.std
    if not mixing <= _RENEWAL_V_LIMIT:  # before the ceil, which takes no inf
        raise DomainError(f"renewal gap law too narrow: its density grid needs "
                          f"v_max = {np.ceil(mixing):.0f} > {_RENEWAL_V_LIMIT}")
    v_max = max(_RENEWAL_V_MAX, math.ceil(mixing))
    m = int(round(v_max / h))
    q, first_mass = _renewal_deposit(gap, m)
    damp = _RENEWAL_DAMPING ** (np.arange(m + 1) / m)
    n = _fft_length(3 * (m + 1))
    F = np.fft.rfft(q * damp, n)
    den = np.subtract(1.0, F)
    np.divide(F, den, out=F)  # F / (1 - F), holding one complex array less
    del den
    lam, c = _renewal_plateau(q)
    r = _RENEWAL_DAMPING ** (n / m) * lam**n
    wrap = c * r / (1.0 - r) * lam ** np.arange(m + 1)
    u = (np.fft.irfft(F, n)[: m + 1] / damp - wrap) / h
    vals = np.maximum(u, 0.0)  # clear the FFT round-off floor
    # node 0: the head is dominated by the gap density itself; pick the value
    # that preserves the integral of the interpolant over the first cell
    vals[0] = max(0.0, 2.0 * first_mass / h - vals[1])
    tail_flat = bool(np.max(np.abs(vals[int(0.9 * m) :] - 1.0)) < 1e-5)
    return np.arange(m + 1) * h, vals, tail_flat


def _rho2_renewal(model: ProcessModel) -> Rho2Analytic:
    gap = model.gap
    grid, vals, tail_flat = _renewal_density_grid(gap)
    # one extra node just past the grid closes the deficit to exactly zero;
    # without it the integrator would bridge any residual linearly to the
    # far tent edge and amplify it by sqrt(R)
    nodes = np.append(grid, grid[-1] + (grid[1] - grid[0]))

    def cont(v):
        v = np.abs(np.asarray(v, dtype=float))
        return np.interp(v, grid, vals, right=1.0)

    return Rho2Analytic(1, cont, nodes_fn=lambda limit: nodes,
                        head_exponent=gap.head_exponent, tail_flat=tail_flat)


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

    return Rho2Analytic(1, cont, nodes_fn=lambda limit: np.array([0.5 - t / 2.0, 0.5 + t / 2.0]))


def rho2_analytic(model: ProcessModel) -> Rho2Analytic:
    """Analytic (or numerically convolved, for renewal gaps) two-point
    correlation of ``model``, normalized so that Poisson gives identically 1.
    """
    return _VARIANTS[model.variant].rho2(model)


class _VariantRow(NamedTuple):
    param: str | None  # the field it takes besides d: "k", "gap" or none
    dims: tuple[int, ...]  # the dimensions it has
    draw: Callable  # (model, R, seed words of the batch) -> (points, counts)
    rho2: Callable  # model -> Rho2Analytic


# a model variant is one row: ProcessModel's checks and describe, sample and
# rho2_analytic read nothing else about it
_VARIANTS = {
    Variant.POISSON: _VariantRow(None, (1, 2, 3), _draw_poisson, _rho2_poisson),
    Variant.LATTICE: _VariantRow(None, (1, 2, 3), _draw_lattice, _rho2_lattice),
    Variant.BERNOULLI_BLOCK: _VariantRow("k", (1, 2, 3), _draw_bernoulli, _rho2_bernoulli),
    Variant.VIBRATING_LATTICE: _VariantRow("k", (1,), _draw_vibrating, _rho2_vibrating),
    Variant.RENEWAL: _VariantRow("gap", (1,), _draw_renewal, _rho2_renewal),
}

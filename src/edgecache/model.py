"""System parameters, file library and demand vectors.

Conventions used throughout the package: M edge nodes (ENs) serve K
single-antenna users over a shared real-valued AWGN channel. The library
holds N files of L bits each and every EN caches at most mu*N*L bits, with
mu in [1/M, 1] so the ENs can collectively store the whole library. Channel
coefficients are real standard-normal draws, i.i.d. across (user, EN) pairs
and constant within a transmission interval.

The fractional cache size mu is kept as an exact rational everywhere, never
a float, so downstream bound maximisation and envelope corner matching are
exact.

The schemes, the seed, SNR, trial and run limits and their checks, and
the converse tolerances live here too, so the command-line parser reads
them without numpy and every layer refuses what the parser refuses.

The library's bits are one numpy `integers(0, 2)` call per file, drawn on
first read; N*L is capped by MAX_LIBRARY_BITS.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (ArgumentError, DemandError, FeasibilityError,
                     InsufficientDataError)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SNR_GRID_DB = (20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_TRIALS_PER_SNR = 200
DEFAULT_FILE_BITS = 1200  # simulate's default L, and bounds' and the converse's
MIN_TRIALS_PER_SNR = 50  # fewer per SNR point and the slope fit is refused
MIN_SNR_POINTS = 3  # distinct SNR points the slope fit needs
MIN_SNR_SPAN_DB = 20.0  # and the span they must cover
MAX_SNR_DB = 1500.0  # P = 1e150, so squared gains times P stay finite floats
# Caps on a run, each 4x the largest a test or workload runs, refused before
# any work: M, K and ell (M = 100 in the bounds row-cap test), K*M, the size
# of every channel draw (8 x 8 in the converse acceptance test), and a
# campaign's trials times SNR points (5 x 5,000 in the largest campaign
# profiled) or a converse check's trials times cuts. The parser caps each
# flag, and `check_cap`, in `phy` and `converse`, the products.
MAX_NODES = 400
MAX_LINKS = 256
MAX_CAMPAIGN_TRIALS = 100_000
# A converse check's exact oracle costs about ell**3 (its Bareiss
# determinants), so a verify-converse run is also capped by trials times
# the sum of ell**3 over its cuts: 4x that of a 16x16 run of every ell at
# 50 trials, 50 * (1**3 + ... + 16**3) = 50 * 18,496.
MAX_CONVERSE_COST = 4 * 50 * 18_496
RECONSTRUCTION_TOL = 1e-9
LOGDET_ORACLE_TOL = 1e-10
NOISE_COV_TOL = 0.05


class Scheme(enum.Enum):
    """Edge transmission policies the simulator implements."""

    ZERO_FORCING = "zf"
    IA_XCHANNEL_2X2 = "ia"
    TDMA = "tdma"
    HYBRID_SHARE = "hybrid"


def as_fraction(value) -> Fraction:
    """Coerce to an exact rational. Floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ArgumentError(f"cannot parse rational from {value!r}") from exc
    raise ArgumentError(
        f"expected Fraction, int or 'p/q' string, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of an M x K cache-aided network."""

    num_ens: int          # M
    num_users: int        # K
    library_size: int     # N
    frac_cache: Fraction  # mu
    file_bits: int        # L


def validate_config(num_ens, num_users, library_size, frac_cache,
                    file_bits) -> SystemConfig:
    """Validate network parameters and return an immutable config.

    Raises ArgumentError for non-positive sizes, DemandError when the
    library cannot supply K distinct files, and FeasibilityError when the
    collective cache of the M ENs cannot hold the library (mu < 1/M) or
    mu exceeds 1.
    """
    for name, value in (("num_ens", num_ens), ("num_users", num_users),
                        ("library_size", library_size), ("file_bits", file_bits)):
        if not isinstance(value, int) or value < 1:
            raise ArgumentError(f"{name} must be a positive integer, got {value!r}")
    mu = as_fraction(frac_cache)
    if library_size < num_users:
        raise DemandError(
            f"library_size {library_size} < num_users {num_users}: "
            "no worst-case demand of distinct files exists"
        )
    if mu < Fraction(1, num_ens):
        raise FeasibilityError(
            f"frac_cache {mu} < 1/{num_ens}: collective cache cannot hold the library"
        )
    if mu > 1:
        raise FeasibilityError(f"frac_cache {mu} > 1: cache larger than the library")
    return SystemConfig(num_ens, num_users, library_size, mu, file_bits)


MAX_SEED = 2**64 - 1  # one uint64, so numpy's seeding rows fit its pool


def check_seed(seed) -> None:
    """Refuse, before any work, a seed that is not an integer in
    [0, MAX_SEED]; numpy's seeding rejects a negative seed only once it
    runs."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed <= MAX_SEED):
        raise ArgumentError(f"seed must be an integer in [0, {MAX_SEED}], "
                            f"got {seed!r}")


def check_trials(trials) -> None:
    """Refuse a trial count that is not a positive integer."""
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ArgumentError(f"trials must be a positive integer, got {trials!r}")


def check_snr_db(grid) -> None:
    """Refuse SNR points that are not finite numbers of at most MAX_SNR_DB."""
    bad = [s for s in grid if not (isinstance(s, numbers.Real)
                                   and math.isfinite(s) and s <= MAX_SNR_DB)]
    if bad:
        raise ArgumentError(
            f"SNR values {bad} must be finite and at most {MAX_SNR_DB:g} dB")


def check_snr_grid(grid) -> None:
    """Refuse an SNR grid the slope fit cannot use: repeated values, or
    fewer than MIN_SNR_POINTS points or a span under MIN_SNR_SPAN_DB."""
    dupes = sorted({s for s in grid if grid.count(s) > 1})
    if dupes:
        raise ArgumentError(f"duplicate SNR values {dupes}")
    if len(grid) < MIN_SNR_POINTS:
        raise InsufficientDataError(
            f"need >= {MIN_SNR_POINTS} SNR points, got {len(grid)}")
    if max(grid) - min(grid) < MIN_SNR_SPAN_DB:
        raise InsufficientDataError(
            f"SNR grid spans {max(grid) - min(grid):.1f} dB, "
            f"need >= {MIN_SNR_SPAN_DB:g}")


def check_cap(size: int, cap: str, what: str) -> None:
    """Refuse, before any work, a run whose `what` is over the cap this
    module names `cap`, read at each call so a patched cap applies."""
    top = globals()[cap]
    if size > top:
        raise ArgumentError(f"{what} is {size}, more than the {top} allowed")


@dataclass(frozen=True)
class DemandVector:
    """File indices (1-based) requested by users 1..K."""

    demands: tuple[int, ...]

    @classmethod
    def worst_case(cls, config: SystemConfig) -> "DemandVector":
        """K distinct files; possible since N >= K."""
        return cls(tuple(range(1, config.num_users + 1)))

    def validate(self, config: SystemConfig) -> None:
        if len(self.demands) != config.num_users:
            raise ArgumentError(
                f"demand vector has {len(self.demands)} entries, expected "
                f"{config.num_users}"
            )
        for d in self.demands:
            if not isinstance(d, int) or not 1 <= d <= config.library_size:
                raise ArgumentError(
                    f"demand {d!r} outside library range [1, {config.library_size}]"
                )


# A cap on the library's N*L bits (one byte each), about 14x the 19,200,000
# of the largest library a test or workload draws (sim-library, 400 x 48000):
# a larger library is refused before any bit is drawn.
MAX_LIBRARY_BITS = 2**28


@dataclass(frozen=True)
class FileLibrary:
    """N files of exactly L bits each, drawn from `seed` on first read.

    The files are read-only 0/1 uint8 rows of one block, one byte per bit.
    A handle reads no bit until `files` is first read: a placement and its
    delivery table depend on N and L alone.
    """

    num_files: int
    file_bits: int
    seed: int

    def __post_init__(self):
        n, l = self.num_files, self.file_bits
        if n * l > MAX_LIBRARY_BITS:
            raise ArgumentError(
                f"a library of {n} x {l} bits exceeds the {MAX_LIBRARY_BITS} "
                "bits allowed"
            )
        check_seed(self.seed)

    @classmethod
    def random(cls, config: SystemConfig, seed: int) -> "FileLibrary":
        """The handle of a library of the config's N x L random bits."""
        return cls(config.library_size, config.file_bits, seed)

    @cached_property
    def files(self) -> tuple[np.ndarray, ...]:
        """The bits of N calls `rng.integers(0, 2, L, dtype=np.uint8)` on
        `rng = default_rng(seed)`, one file a row of one block."""
        import numpy as np  # only the library's bits need it
        rng = np.random.default_rng(self.seed)
        block = np.empty((self.num_files, self.file_bits), np.uint8)
        for row in block:
            row[:] = rng.integers(0, 2, self.file_bits, dtype=np.uint8)
        block.flags.writeable = False
        return tuple(block)

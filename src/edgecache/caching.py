"""Concrete caching policies and per-demand delivery assignments.

Every placement is one layout: the first `split_bits` bits of each file
are cut into M contiguous equal fragments and EN m stores the m-th, and
every EN stores the file's tail. Three policies cover the feasible range
of the fractional cache size:

* split (mu = 1/M): `split_bits` = L, so there is no tail;
* full (mu = 1): `split_bits` = 0, so every EN replicates the whole file;
* hybrid (1/M < mu < 1): `split_bits` is alpha*L rounded up to a multiple
  of M, with alpha = (1-mu)/(1-1/M) so the per-EN budget mu*N*L is met.

Placement happens before any demand or channel is known, so allocations
never depend on either, and one delivery assignment serves every channel
trial of a campaign. An allocation is that layout, not a copy of bits:
EN m's fragments of a file follow in closed form, and a user's delivery
table is M unicast fragments plus one cooperative tail, built in O(M) per
user whatever the library's size. Fragments are contiguous bit slices, so
the stored bits, which no delivery reads, are read-only views of the
library's rows, built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ArgumentError, CoverageError
from .model import DemandVector, FileLibrary, SystemConfig

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Fragment:
    """A contiguous bit-slice [start_bit, start_bit + num_bits) of one file."""

    file_index: int  # 1-based
    start_bit: int
    num_bits: int

    @property
    def end_bit(self) -> int:
        return self.start_bit + self.num_bits


@dataclass(frozen=True)
class CachedFragment:
    """A fragment together with the bits an EN stores for it.

    `bits` is a read-only view into the library file, not a copy.
    """

    fragment: Fragment
    bits: np.ndarray


@dataclass(frozen=True)
class CacheAllocation:
    """One caching policy's layout over a library (see the module docstring)."""

    library: FileLibrary
    num_ens: int
    policy: str  # "split" | "full" | "hybrid"
    split_bits: int  # per-file prefix cut into M fragments; the tail is replicated
    alpha: Fraction | None = None

    @property
    def file_bits(self) -> int:
        return self.library.file_bits

    def fragments(self, en: int, file_index: int) -> tuple[Fragment, ...]:
        """EN `en`'s fragments of a file in start-bit order: the en-th M-th
        of the prefix, then the tail, each when not empty."""
        if not (1 <= en <= self.num_ens
                and 1 <= file_index <= self.library.num_files):
            return ()
        size, tail = self.split_bits // self.num_ens, self.split_bits
        frags = (Fragment(file_index, (en - 1) * size, size),) if size else ()
        if tail < self.file_bits:
            frags += (Fragment(file_index, tail, self.file_bits - tail),)
        return frags

    def en_file_bits(self, en: int, file_index: int) -> int:
        return sum(frag.num_bits for frag in self.fragments(en, file_index))

    def en_bits(self, en: int) -> int:
        """Total stored bits at EN `en` (1-based): every file has one layout."""
        return self.library.num_files * self.en_file_bits(en, 1)

    @cached_property
    def per_en_content(self) -> tuple[tuple[CachedFragment, ...], ...]:
        """Per EN, each file's fragments with their bits, file by file.

        Built on first read, which draws the library's bits."""
        files = self.library.files
        return tuple(tuple(
            CachedFragment(frag, files[n - 1][frag.start_bit:frag.end_bit])
            for n in range(1, self.library.num_files + 1)
            for frag in self.fragments(en, n))
            for en in range(1, self.num_ens + 1))


def split_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Fragment-split placement for mu = 1/M; needs M | L."""
    m, l = config.num_ens, config.file_bits
    if config.frac_cache != Fraction(1, m):
        raise ArgumentError(
            f"split placement requires mu = 1/{m}, got {config.frac_cache}"
        )
    if l % m != 0:
        raise ArgumentError(f"file_bits {l} not divisible by num_ens {m}")
    return CacheAllocation(library, config.num_ens, "split", l)


def full_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Whole-library replication at every EN; requires mu = 1."""
    if config.frac_cache != 1:
        raise ArgumentError(f"full placement requires mu = 1, got {config.frac_cache}")
    return CacheAllocation(library, config.num_ens, "full", 0)


def shared_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Cache-sharing hybrid for 1/M < mu < 1.

    The split prefix length is alpha*L rounded up to the next multiple of M
    (rounding down would grow the replicated tail and break the budget), so
    per-EN storage never exceeds mu*N*L.
    """
    m, l = config.num_ens, config.file_bits
    mu = config.frac_cache
    if not Fraction(1, m) < mu < 1:
        raise ArgumentError(
            f"shared placement requires 1/{m} < mu < 1, got {mu}"
        )
    if l % m != 0:
        raise ArgumentError(f"file_bits {l} not divisible by num_ens {m}")
    alpha = (1 - mu) / (1 - Fraction(1, m))
    split_bits = int(-(-(alpha * l) // m)) * m  # ceil to a multiple of M
    return CacheAllocation(library, config.num_ens, "hybrid", split_bits, alpha)


@dataclass(frozen=True)
class DeliveryAssignment:
    """Who delivers which bits of each requested file.

    `users[k - 1]` holds user k's (fragment, serving EN) pairs in start-bit
    order. EN None marks a fragment every EN caches, which the ENs can
    beamform jointly; any other fragment is a unicast from the one EN that
    caches it (an X-channel message).
    """

    users: tuple[tuple[tuple[Fragment, int | None], ...], ...]

    def fragments_for_user(self, user: int) -> tuple[tuple[Fragment, int | None], ...]:
        """All (fragment, serving EN) pairs for a user; EN None = cooperative."""
        return self.users[user - 1] if 0 < user <= len(self.users) else ()


def assignment_for_demand(allocation: CacheAllocation,
                          demand: DemandVector) -> DeliveryAssignment:
    """Map every requested bit to the EN (or every EN) that caches it.

    A fragment that every EN stores is cooperative; any other stored
    fragment is a unicast from the EN that stores it. Raises
    `CoverageError` unless each user's fragments tile its file exactly once.
    """
    ens = range(1, allocation.num_ens + 1)
    users = []
    for user, file_index in enumerate(demand.demands, start=1):
        stored = [allocation.fragments(en, file_index) for en in ens]
        shared = set(stored[0]).intersection(*stored[1:])
        pairs = [(frag, None) for frag in shared]
        pairs += [(frag, en) for en, frags in zip(ens, stored)
                  for frag in frags if frag not in shared]
        pairs.sort(key=lambda pair: pair[0].start_bit)
        _check_partition(pairs, user, file_index, allocation.file_bits)
        users.append(tuple(pairs))
    return DeliveryAssignment(tuple(users))


def _check_partition(pairs, user, file_index, file_bits) -> None:
    """A user's fragments, in start-bit order, must tile [0, L) exactly once."""
    cursor = 0
    for frag, _ in pairs:
        if frag.start_bit != cursor:
            lo, hi = sorted((frag.start_bit, cursor))
            raise CoverageError(
                f"user {user}: bits [{lo}, {hi}) of file {file_index} are "
                + ("assigned twice" if lo < cursor else "cached nowhere"))
        cursor = frag.end_bit
    if cursor != file_bits:
        raise CoverageError(
            f"user {user}: bits [{cursor}, {file_bits}) of file {file_index} "
            "are cached nowhere"
        )

"""Concrete caching policies and per-demand delivery assignments.

Every placement is one layout, memory sharing between the two corner
schemes: the first `split_bits` = alpha*L bits of each file are cut into
M contiguous equal fragments and EN m stores the m-th, and every EN
stores the file's tail. With alpha = (1-mu)/(1-1/M) each EN stores
exactly mu*N*L bits, so one rule decides what can be placed: alpha*L must
be a whole multiple of M bits, else the placement raises `ArgumentError`.
Three placements cover the feasible range of the fractional cache size,
and `policy` is read off `split_bits`:

* split (mu = 1/M): alpha = 1, so `split_bits` = L and there is no tail;
* full (mu = 1): alpha = 0, so every EN replicates the whole file;
* hybrid (1/M < mu < 1): 0 < `split_bits` < L.

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
    """One placement's layout over a library (see the module docstring)."""

    library: FileLibrary
    num_ens: int
    split_bits: int  # per-file prefix cut into M fragments; the tail is replicated

    @property
    def file_bits(self) -> int:
        return self.library.file_bits

    @property
    def policy(self) -> str:
        """The layout's name: "full" with no split prefix, "split" with no
        tail, else "hybrid"."""
        if self.split_bits == 0:
            return "full"
        return "split" if self.split_bits == self.file_bits else "hybrid"

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


def _placement(library: FileLibrary, config: SystemConfig,
               alpha) -> CacheAllocation:
    """The layout that splits the first alpha*L bits of each file; refuses
    a prefix that is not a whole multiple of M bits, the one split that
    would not store exactly mu*N*L at every EN."""
    m, split = config.num_ens, alpha * config.file_bits
    if split % m:
        raise ArgumentError(
            f"mu = {config.frac_cache} cannot be stored exactly at L = "
            f"{config.file_bits}: its split prefix alpha*L = {split} bits "
            f"is not a whole multiple of M = {m}")
    return CacheAllocation(library, m, int(split))


def split_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Fragment-split placement for mu = 1/M (alpha = 1)."""
    m = config.num_ens
    if config.frac_cache != Fraction(1, m):
        raise ArgumentError(
            f"split placement requires mu = 1/{m}, got {config.frac_cache}"
        )
    return _placement(library, config, 1)


def full_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Whole-library replication at every EN; requires mu = 1 (alpha = 0)."""
    if config.frac_cache != 1:
        raise ArgumentError(f"full placement requires mu = 1, got {config.frac_cache}")
    return _placement(library, config, 0)


def shared_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Cache-sharing hybrid for 1/M < mu < 1, alpha = (1-mu)/(1-1/M)."""
    m, mu = config.num_ens, config.frac_cache
    if not Fraction(1, m) < mu < 1:
        raise ArgumentError(
            f"shared placement requires 1/{m} < mu < 1, got {mu}"
        )
    return _placement(library, config, (1 - mu) / (1 - Fraction(1, m)))


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

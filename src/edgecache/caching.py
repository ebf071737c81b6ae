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
trial of a campaign. Fragments are contiguous bit slices, which keeps
reconstruction tests bit-exact; an EN stores read-only views of the
library's bits, not copies. A placement takes one read-only view per file
and slices every fragment of that file from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, CoverageError
from .model import DemandVector, FileLibrary, SystemConfig


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
    """Per-EN stored fragments realizing one caching policy."""

    per_en_content: tuple[tuple[CachedFragment, ...], ...]
    policy: str  # "split" | "full" | "hybrid"
    file_bits: int
    split_bits: int  # per-file prefix cut into M fragments; the tail is replicated
    alpha: Fraction | None = None

    @property
    def num_ens(self) -> int:
        return len(self.per_en_content)

    def en_bits(self, en: int) -> int:
        """Total stored bits at EN `en` (1-based)."""
        return sum(cf.fragment.num_bits for cf in self.per_en_content[en - 1])

    @cached_property
    def _by_file(self) -> tuple[dict[int, tuple[CachedFragment, ...]], ...]:
        """Per EN, file index -> its stored fragments in content order."""
        index = []
        for content in self.per_en_content:
            by_file: dict[int, list[CachedFragment]] = {}
            for cf in content:
                by_file.setdefault(cf.fragment.file_index, []).append(cf)
            index.append({n: tuple(cfs) for n, cfs in by_file.items()})
        return tuple(index)

    def en_file_bits(self, en: int, file_index: int) -> int:
        return sum(cf.fragment.num_bits
                   for cf in self.cached_fragments(en, file_index))

    def cached_fragments(self, en: int, file_index: int) -> tuple[CachedFragment, ...]:
        return self._by_file[en - 1].get(file_index, ())


def _place(library: FileLibrary, config: SystemConfig, policy: str,
           split_bits: int, alpha: Fraction | None = None) -> CacheAllocation:
    """The one layout every placement reads (see the module docstring).

    Each file is one read-only view of the library's bits, not a copy, and
    every fragment is a slice of it. A file's tail fragment is one object
    that every EN shares.
    """
    m, l = config.num_ens, config.file_bits
    frag_len = split_bits // m
    files = []
    for n in range(1, config.library_size + 1):
        bits = np.asarray(library.file(n), dtype=np.uint8).view()
        bits.flags.writeable = False
        files.append(bits)
    tails = [CachedFragment(Fragment(n, split_bits, l - split_bits),
                            bits[split_bits:])
             for n, bits in enumerate(files, start=1)] if split_bits < l else None
    content = []
    for en in range(m):
        start = en * frag_len
        stored = []
        for n, bits in enumerate(files, start=1):
            if frag_len:
                stored.append(CachedFragment(Fragment(n, start, frag_len),
                                             bits[start:start + frag_len]))
            if tails:
                stored.append(tails[n - 1])
        content.append(tuple(stored))
    return CacheAllocation(tuple(content), policy, l, split_bits, alpha)


def split_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Fragment-split placement for mu = 1/M; needs M | L."""
    m, l = config.num_ens, config.file_bits
    if config.frac_cache != Fraction(1, m):
        raise ArgumentError(
            f"split placement requires mu = 1/{m}, got {config.frac_cache}"
        )
    if l % m != 0:
        raise ArgumentError(f"file_bits {l} not divisible by num_ens {m}")
    return _place(library, config, "split", l)


def full_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Whole-library replication at every EN; requires mu = 1."""
    if config.frac_cache != 1:
        raise ArgumentError(f"full placement requires mu = 1, got {config.frac_cache}")
    return _place(library, config, "full", 0)


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
    return _place(library, config, "hybrid", split_bits, alpha)


def verify_cache_budget(allocation: CacheAllocation,
                        config: SystemConfig) -> bool:
    """True iff every EN respects mu*N*L overall and mu*L per file."""
    en_budget = config.cache_bits
    file_budget = config.frac_cache * config.file_bits
    for en in range(1, allocation.num_ens + 1):
        if allocation.en_bits(en) > en_budget:
            return False
        for n in range(1, config.library_size + 1):
            if allocation.en_file_bits(en, n) > file_budget:
                return False
    return True


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
        stored = [[cf.fragment for cf in allocation.cached_fragments(en, file_index)]
                  for en in ens]
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
            raise CoverageError(
                f"user {user}: bits [{cursor}, {frag.start_bit}) of file "
                f"{file_index} are cached nowhere or assigned twice"
            )
        cursor = frag.end_bit
    if cursor != file_bits:
        raise CoverageError(
            f"user {user}: bits [{cursor}, {file_bits}) of file {file_index} "
            "are cached nowhere"
        )

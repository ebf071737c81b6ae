"""Concrete caching policies and per-demand delivery assignments.

Three placements cover the feasible range of the fractional cache size:

* split (mu = 1/M): every file is cut into M contiguous equal fragments
  and EN m stores fragment m of every file;
* full (mu = 1): every EN replicates the whole library;
* hybrid (1/M < mu < 1): the first alpha*L bits of every file follow the
  split rules and the tail is replicated, with alpha = (1-mu)/(1-1/M) so
  the per-EN budget mu*N*L is met.

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
    alpha: Fraction | None = None
    split_bits: int | None = None  # per-file prefix length placed by split rules

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


def _frozen(bits: np.ndarray) -> np.ndarray:
    """Read-only view of library bits, not a copy."""
    out = np.asarray(bits, dtype=np.uint8).view()
    out.flags.writeable = False
    return out


def _file_views(library: FileLibrary, config: SystemConfig) -> list[np.ndarray]:
    """One read-only view per file; fragments are slices of these."""
    return [_frozen(library.file(n)) for n in range(1, config.library_size + 1)]


def split_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Fragment-split placement for mu = 1/M; needs M | L."""
    m, l = config.num_ens, config.file_bits
    if config.frac_cache != Fraction(1, m):
        raise ArgumentError(
            f"split placement requires mu = 1/{m}, got {config.frac_cache}"
        )
    if l % m != 0:
        raise ArgumentError(f"file_bits {l} not divisible by num_ens {m}")
    frag_len = l // m
    files = _file_views(library, config)
    content = []
    for en in range(1, m + 1):
        start = (en - 1) * frag_len
        content.append(tuple(
            CachedFragment(Fragment(n, start, frag_len),
                           bits[start:start + frag_len])
            for n, bits in enumerate(files, start=1)
        ))
    return CacheAllocation(tuple(content), "split", l)


def full_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Whole-library replication at every EN; requires mu = 1."""
    if config.frac_cache != 1:
        raise ArgumentError(f"full placement requires mu = 1, got {config.frac_cache}")
    l = config.file_bits
    stored = tuple(
        CachedFragment(Fragment(n, 0, l), bits)
        for n, bits in enumerate(_file_views(library, config), start=1)
    )
    return CacheAllocation(tuple(stored for _ in range(config.num_ens)), "full", l)


def shared_placement(library: FileLibrary, config: SystemConfig) -> CacheAllocation:
    """Cache-sharing hybrid for 1/M < mu < 1.

    The split prefix length is alpha*L rounded up to the next multiple of M
    (rounding down would grow the replicated tail and break the budget), so
    per-EN storage never exceeds mu*N*L. Every EN stores the same
    replicated-tail fragment of a file.
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
    split_exact = alpha * l
    split_bits = int(-(-split_exact // m)) * m  # ceil to a multiple of M
    frag_len = split_bits // m
    tail = l - split_bits
    files = _file_views(library, config)
    tails = [CachedFragment(Fragment(n, split_bits, tail), bits[split_bits:])
             for n, bits in enumerate(files, start=1)] if tail else None
    content = []
    for en in range(1, m + 1):
        start = (en - 1) * frag_len
        stored = []
        for n, bits in enumerate(files, start=1):
            if frag_len:
                stored.append(CachedFragment(Fragment(n, start, frag_len),
                                             bits[start:start + frag_len]))
            if tail:
                stored.append(tails[n - 1])
        content.append(tuple(stored))
    return CacheAllocation(tuple(content), "hybrid", l, alpha=alpha,
                           split_bits=split_bits)


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

    `unicast` maps (en, user) to fragments EN `en` alone owes user `user`
    (the X-channel messages); `cooperative` maps a user to fragments every
    EN caches and can beamform jointly. The per-user table behind
    `fragments_for_user` is built on first use, so neither map may change
    once the assignment is built.
    """

    unicast: dict[tuple[int, int], tuple[Fragment, ...]]
    cooperative: dict[int, tuple[Fragment, ...]]

    @cached_property
    def _by_user(self) -> dict[int, tuple[tuple[Fragment, int | None], ...]]:
        """User -> its (fragment, serving EN) pairs sorted by start bit."""
        pairs: dict[int, list[tuple[Fragment, int | None]]] = {}
        for user, frags in self.cooperative.items():
            pairs.setdefault(user, []).extend((f, None) for f in frags)
        for (en, user), frags in self.unicast.items():
            pairs.setdefault(user, []).extend((f, en) for f in frags)
        return {user: tuple(sorted(p, key=lambda item: item[0].start_bit))
                for user, p in pairs.items()}

    def fragments_for_user(self, user: int) -> tuple[tuple[Fragment, int | None], ...]:
        """All (fragment, serving EN) pairs for a user; EN None = cooperative."""
        return self._by_user.get(user, ())


def assignment_for_demand(allocation: CacheAllocation,
                          demand: DemandVector) -> DeliveryAssignment:
    """Map every requested bit to the EN (or EN set) that caches it."""
    unicast: dict[tuple[int, int], tuple[Fragment, ...]] = {}
    cooperative: dict[int, tuple[Fragment, ...]] = {}
    for user, file_index in enumerate(demand.demands, start=1):
        for en in range(1, allocation.num_ens + 1):
            exclusive = []
            for cf in allocation.cached_fragments(en, file_index):
                frag = cf.fragment
                held_by_all = all(
                    _covers(allocation, other, frag)
                    for other in range(1, allocation.num_ens + 1)
                )
                if held_by_all:
                    existing = cooperative.get(user, ())
                    if frag not in existing:
                        cooperative[user] = existing + (frag,)
                else:
                    exclusive.append(frag)
            if exclusive:
                unicast[(en, user)] = tuple(exclusive)
    assignment = DeliveryAssignment(unicast, cooperative)
    for user, file_index in enumerate(demand.demands, start=1):
        frags = [frag for frag, _ in assignment.fragments_for_user(user)]
        _check_partition(frags, user, file_index, allocation.file_bits)
    return assignment


def _covers(allocation: CacheAllocation, en: int, frag: Fragment) -> bool:
    return any(
        cf.fragment.start_bit <= frag.start_bit
        and cf.fragment.end_bit >= frag.end_bit
        for cf in allocation.cached_fragments(en, frag.file_index)
    )


def _check_partition(frags, user, file_index, file_bits) -> None:
    """Assigned fragments must tile [0, L) exactly once."""
    cursor = 0
    for frag in sorted(frags, key=lambda f: f.start_bit):
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

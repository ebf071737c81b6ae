"""Test-side reads of a placement: per-file stored content and the budget.

The package reads neither: a campaign reads a placement's fragment layout,
and the placement itself refuses a split that would not store exactly
mu*N*L at every EN.
"""


def cached_fragments(per_en_content, en: int, file_index: int) -> tuple:
    """EN `en`'s `CachedFragment`s of one file, from per-EN content such as
    `CacheAllocation.per_en_content`: a linear scan of the EN's content."""
    return tuple(cf for cf in per_en_content[en - 1]
                 if cf.fragment.file_index == file_index)


def en_file_bits(allocation, en: int, file_index: int) -> int:
    """Bits of one file that EN `en` (1-based) stores, from its fragments."""
    return sum(frag.num_bits for frag in allocation.fragments(en, file_index))


def en_bits(allocation, en: int) -> int:
    """Total stored bits at EN `en`, file by file."""
    return sum(en_file_bits(allocation, en, n)
               for n in range(1, allocation.library.num_files + 1))


def cache_bits(config):
    """Per-EN cache budget mu*N*L of a `SystemConfig`, exact."""
    return config.frac_cache * config.library_size * config.file_bits


def verify_cache_budget(allocation, config) -> bool:
    """True iff every EN stores exactly mu*N*L overall and mu*L per file."""
    file_budget = config.frac_cache * config.file_bits
    return all(
        en_bits(allocation, en) == cache_bits(config)
        and all(en_file_bits(allocation, en, n) == file_budget
                for n in range(1, config.library_size + 1))
        for en in range(1, allocation.num_ens + 1))

"""Test-side reads of a placement: per-file stored content and the budget.

The package reads neither: a campaign reads a placement's fragment layout,
and `simulate` checks the exact mu that each EN stores.
"""


def cached_fragments(per_en_content, en: int, file_index: int) -> tuple:
    """EN `en`'s `CachedFragment`s of one file, from per-EN content such as
    `CacheAllocation.per_en_content`: a linear scan of the EN's content."""
    return tuple(cf for cf in per_en_content[en - 1]
                 if cf.fragment.file_index == file_index)


def cache_bits(config):
    """Per-EN cache budget mu*N*L of a `SystemConfig`, exact."""
    return config.frac_cache * config.library_size * config.file_bits


def verify_cache_budget(allocation, config) -> bool:
    """True iff every EN respects mu*N*L overall and mu*L per file."""
    en_budget = cache_bits(config)
    file_budget = config.frac_cache * config.file_bits
    for en in range(1, allocation.num_ens + 1):
        if allocation.en_bits(en) > en_budget:
            return False
        for n in range(1, config.library_size + 1):
            if allocation.en_file_bits(en, n) > file_budget:
                return False
    return True

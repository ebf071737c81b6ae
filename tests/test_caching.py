"""Tests for the caching policies and delivery assignments."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgecache.caching import (
    CacheAllocation,
    CachedFragment,
    Fragment,
    assignment_for_demand,
    full_placement,
    shared_placement,
    split_placement,
)
from edgecache.errors import ArgumentError, CoverageError
from edgecache.model import DemandVector, FileLibrary, validate_config
from placement_reference import (
    cache_bits,
    cached_fragments,
    en_bits,
    en_file_bits,
    verify_cache_budget,
)

F = Fraction


def make(m, k, n, mu, l, seed=0):
    cfg = validate_config(m, k, n, mu, l)
    return cfg, FileLibrary.random(cfg, seed)


def reconstruct(allocation, assignment, user, file_bits):
    """Stitch a user's file back together from the bits its ENs cache."""
    chunks = []
    for frag, en in assignment.fragments_for_user(user):
        source = en if en is not None else 1  # any EN caches cooperative bits
        for cf in cached_fragments(allocation.per_en_content, source,
                                   frag.file_index):
            if cf.fragment.start_bit <= frag.start_bit and \
                    cf.fragment.end_bit >= frag.end_bit:
                offset = frag.start_bit - cf.fragment.start_bit
                chunks.append(cf.bits[offset:offset + frag.num_bits])
                break
        else:
            raise AssertionError(f"fragment {frag} not cached at EN {source}")
    out = np.concatenate(chunks)
    assert out.size == file_bits
    return out


def scan_assignment(per_en_content, demand):
    """Reference per-user (fragment, serving EN) pairs, sorted by start bit.

    Built on `cached_fragments` alone, with interval-cover semantics: a
    stored fragment is cooperative when some fragment at every EN contains
    it.
    """
    ens = range(1, len(per_en_content) + 1)

    def covers(en, frag):
        return any(cf.fragment.start_bit <= frag.start_bit
                   and cf.fragment.end_bit >= frag.end_bit
                   for cf in cached_fragments(per_en_content, en, frag.file_index))

    users = []
    for file_index in demand.demands:
        pairs = []
        for en in ens:
            for cf in cached_fragments(per_en_content, en, file_index):
                frag = cf.fragment
                if not all(covers(other, frag) for other in ens):
                    pairs.append((frag, en))
                elif (frag, None) not in pairs:
                    pairs.append((frag, None))
        users.append(tuple(sorted(pairs, key=lambda item: item[0].start_bit)))
    return tuple(users)


def assigned_bits(assignment, num_users):
    """Bits assigned to each user, over every EN and the cooperative part."""
    return [sum(f.num_bits for f, _ in assignment.fragments_for_user(user))
            for user in range(1, num_users + 1)]


def edited(allocation, en, drop_file=None, extra=None):
    """The allocation's layout with one EN's fragments of one file changed:
    those of `drop_file` dropped, or `extra` stored after its file's own."""
    class Edited(CacheAllocation):
        def fragments(self, at, file_index):
            frags = super().fragments(at, file_index)
            if at == en and file_index == drop_file:
                return ()
            if at == en and extra and file_index == extra.file_index:
                return frags + (extra,)
            return frags

    return Edited(allocation.library, allocation.num_ens, allocation.split_bits)


@st.composite
def placed_libraries(draw, max_chunks=4):
    """A split, full or shared placement function, a config it accepts and
    a small library, with L = M * (1..max_chunks) for split and full.

    Shared placements are drawn exact: L in (M, M * max_chunks], which M
    need not divide, and a split prefix alpha*L of whole M-bit fragments,
    the only hybrids a placement accepts."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, m))
    n = draw(st.integers(k, 8))
    l = m * draw(st.integers(1, max_chunks))
    kinds = ["split", "full"] + (["shared"] if m > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "split":
        mu = F(1, m)
    elif kind == "full":
        mu = F(1)
    else:
        l = draw(st.integers(m + 1, m * max_chunks))
        alpha = F(m * draw(st.integers(1, (l - 1) // m)), l)
        mu = 1 - alpha * (1 - F(1, m))
    cfg, lib = make(m, k, n, mu, l, seed=draw(st.integers(0, 3)))
    placement = {"split": split_placement, "full": full_placement,
                 "shared": shared_placement}[kind]
    return placement, cfg, lib


@st.composite
def placements(draw):
    """A split, full or shared placement of a small library, with a demand."""
    placement, cfg, lib = draw(placed_libraries())
    k, n = cfg.num_users, cfg.library_size
    demand = DemandVector(tuple(draw(st.lists(st.integers(1, n),
                                              min_size=k, max_size=k))))
    return cfg, placement(lib, cfg), demand


@given(placements())
def test_indexed_lookups_match_linear_scan(case):
    cfg, alloc, demand = case
    for en in range(1, cfg.num_ens + 1):
        for n in range(0, cfg.library_size + 2):  # 0 and N+1 are cached nowhere
            want = cached_fragments(alloc.per_en_content, en, n)
            assert alloc.fragments(en, n) == tuple(cf.fragment for cf in want)
            assert en_file_bits(alloc, en, n) == \
                sum(cf.fragment.num_bits for cf in want)
    assert assignment_for_demand(alloc, demand).users == \
        scan_assignment(alloc.per_en_content, demand)


@given(placements())
def test_user_table_matches_scan_and_is_built_once(case):
    cfg, alloc, demand = case
    assignment = assignment_for_demand(alloc, demand)
    want = ((),) + scan_assignment(alloc.per_en_content, demand) + ((),)
    for user in range(0, cfg.num_users + 2):  # 0 and K+1 are owed nothing
        got = assignment.fragments_for_user(user)
        assert isinstance(got, tuple)  # callers cannot reorder a shared table
        assert got == want[user]
        assert assignment.fragments_for_user(user) is got


@pytest.mark.parametrize("placement,mu", [
    (split_placement, F(1, 3)),
    (full_placement, F(1)),
    (shared_placement, F(1, 2)),
])
def test_placement_stores_read_only_views_of_the_library(placement, mu):
    cfg, lib = make(3, 2, 3, mu, 12)
    alloc = placement(lib, cfg)
    for content in alloc.per_en_content:
        for cf in content:
            assert np.shares_memory(cf.bits,
                                    lib.files[cf.fragment.file_index - 1])
            assert not cf.bits.flags.writeable
            with pytest.raises(ValueError):
                cf.bits[0] = 1 - cf.bits[0]


def reference_split(library, config):
    """The per-fragment split loop: one library lookup per fragment.

    Returns per-EN content and (policy, file_bits, split_bits)."""
    m, l = config.num_ens, config.file_bits
    frag_len = l // m
    content = []
    for en in range(1, m + 1):
        start = (en - 1) * frag_len
        content.append(tuple(
            CachedFragment(Fragment(n, start, frag_len),
                           library.files[n - 1][start:start + frag_len])
            for n in range(1, config.library_size + 1)
        ))
    return tuple(content), ("split", l, l)


def reference_full(library, config):
    l = config.file_bits
    stored = tuple(CachedFragment(Fragment(n, 0, l), library.files[n - 1])
                   for n in range(1, config.library_size + 1))
    return (tuple(stored for _ in range(config.num_ens)),
            ("full", l, 0))


def reference_shared(library, config):
    """The per-fragment hybrid loop: a fresh tail fragment at every EN."""
    m, l, mu = config.num_ens, config.file_bits, config.frac_cache
    split_bits = int((1 - mu) / (1 - F(1, m)) * l)
    frag_len, tail = split_bits // m, l - split_bits
    content = []
    for en in range(1, m + 1):
        stored = []
        for n in range(1, config.library_size + 1):
            if frag_len:
                start = (en - 1) * frag_len
                stored.append(CachedFragment(
                    Fragment(n, start, frag_len),
                    library.files[n - 1][start:start + frag_len]))
            if tail:
                stored.append(CachedFragment(
                    Fragment(n, split_bits, tail),
                    library.files[n - 1][split_bits:]))
        content.append(tuple(stored))
    return tuple(content), ("hybrid", l, split_bits)


REFERENCE_PLACEMENTS = {split_placement: reference_split,
                        full_placement: reference_full,
                        shared_placement: reference_shared}


def layout(per_en_content):
    """Per EN, each stored fragment's (file, start, length) and bytes."""
    return [[(cf.fragment.file_index, cf.fragment.start_bit,
              cf.fragment.num_bits, cf.bits.tobytes()) for cf in content]
            for content in per_en_content]


def assert_same_placement(placement, cfg, lib):
    got = placement(lib, cfg)
    want_content, want_fields = REFERENCE_PLACEMENTS[placement](lib, cfg)
    assert layout(got.per_en_content) == layout(want_content)
    assert (got.policy, got.file_bits, got.split_bits) == want_fields


@given(placed_libraries(max_chunks=40))
def test_placement_matches_per_fragment_reference(case):
    assert_same_placement(*case)


@given(placed_libraries(max_chunks=40), st.data())
def test_closed_form_layout_matches_materialised_reference(case, data):
    """The layout's closed form against a scan of the per-fragment
    reference's materialised content, and its delivery table against
    the bits it delivers."""
    placement, cfg, lib = case
    alloc = placement(lib, cfg)
    content, _ = REFERENCE_PLACEMENTS[placement](lib, cfg)
    for en in range(1, cfg.num_ens + 1):
        for n in range(0, cfg.library_size + 2):  # 0 and N+1 are cached nowhere
            want = tuple(cf.fragment for cf in cached_fragments(content, en, n))
            assert alloc.fragments(en, n) == want
            assert en_file_bits(alloc, en, n) == \
                sum(frag.num_bits for frag in want)
        assert en_bits(alloc, en) == \
            sum(cf.fragment.num_bits for cf in content[en - 1])
    k, n = cfg.num_users, cfg.library_size
    demand = DemandVector(tuple(data.draw(
        st.lists(st.integers(1, n), min_size=k, max_size=k))))
    assignment = assignment_for_demand(alloc, demand)
    assert assignment.users == scan_assignment(content, demand)
    for user, file_index in enumerate(demand.demands, start=1):
        np.testing.assert_array_equal(
            reconstruct(alloc, assignment, user, cfg.file_bits),
            lib.files[file_index - 1])


@pytest.mark.parametrize("m,l,mu,split_bits", [
    (3, 9, F(5, 9), 6),               # the tail is the last M bits
    (6, 42, F(2, 7), 36),
    (2, 100, F(99, 100), 2),          # the tail is all but M bits
    (6, 600, F(119, 120), 6),
    (4, 8, F(5, 8), 4),
    (3, 1000, F(1, 2), 750),          # M need not divide L
])
def test_hybrid_edges_match_per_fragment_reference(m, l, mu, split_bits):
    cfg, lib = make(m, 1, 5, mu, l, seed=m)
    assert shared_placement(lib, cfg).split_bits == split_bits
    assert_same_placement(shared_placement, cfg, lib)


@pytest.mark.parametrize("m,l,mu", [
    (3, 6, F(1, 3) + F(1, 100)),      # alpha*L = 591/100
    (6, 36, F(1, 6) + F(1, 1000)),    # alpha*L = 22473/625
    (6, 600, F(599, 600)),            # alpha*L = 6/5
    (2, 2, F(2, 3)),                  # alpha*L = 4/3
])
def test_inexact_hybrid_edges_are_refused(m, l, mu):
    cfg, lib = make(m, 1, 5, mu, l, seed=m)
    with pytest.raises(ArgumentError, match=f"not a whole multiple of M = {m}"):
        shared_placement(lib, cfg)


@given(st.integers(2, 6), st.integers(2, 12), st.data())
def test_shared_placement_is_exact_or_refused(m, den, data):
    """A shared placement stores exactly mu*N*L at every EN, or raises
    `ArgumentError` exactly when alpha*L is not a whole multiple of M.

    L is drawn freely or as a multiple of M * den, where every such mu is
    exact, so both outcomes are drawn often."""
    mu = F(1, m) + (1 - F(1, m)) * F(data.draw(st.integers(1, den - 1)), den)
    l = data.draw(st.integers(1, 200)
                  | st.integers(1, 20).map(lambda c: c * m * den))
    cfg, lib = make(m, 1, 3, mu, l)
    alpha = (1 - mu) / (1 - F(1, m))
    if (alpha * l) % m:
        with pytest.raises(ArgumentError):
            shared_placement(lib, cfg)
    else:
        alloc = shared_placement(lib, cfg)
        assert alloc.split_bits == alpha * l
        assert all(en_bits(alloc, en) == cache_bits(cfg)
                   for en in range(1, m + 1))


class TestSplitPlacement:
    def test_contiguous_equal_fragments(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        alloc = split_placement(lib, cfg)
        for n in (1, 2):
            (cf1,) = cached_fragments(alloc.per_en_content, 1, n)
            (cf2,) = cached_fragments(alloc.per_en_content, 2, n)
            np.testing.assert_array_equal(cf1.bits, lib.files[n - 1][:4])
            np.testing.assert_array_equal(cf2.bits, lib.files[n - 1][4:])
        assert en_bits(alloc, 1) == en_bits(alloc, 2) == 8  # N*L/M

    def test_single_en_degenerates_to_replication(self):
        cfg, lib = make(1, 1, 1, F(1), 12)
        split = split_placement(lib, cfg)
        full = full_placement(lib, cfg)
        np.testing.assert_array_equal(
            split.per_en_content[0][0].bits, full.per_en_content[0][0].bits
        )

    def test_fragments_reassemble_bit_exactly(self):
        cfg, lib = make(3, 3, 3, F(1, 3), 9)
        alloc = split_placement(lib, cfg)
        rebuilt = np.concatenate([
            cached_fragments(alloc.per_en_content, en, 2)[0].bits
            for en in (1, 2, 3)
        ])
        np.testing.assert_array_equal(rebuilt, lib.files[1])

    def test_requires_matching_mu(self):
        cfg, lib = make(2, 2, 2, F(3, 4), 8)
        with pytest.raises(ArgumentError):
            split_placement(lib, cfg)

    def test_requires_divisible_file_size(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 9)
        with pytest.raises(ArgumentError):
            split_placement(lib, cfg)

    def test_budget_exactly_met(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        alloc = split_placement(lib, cfg)
        assert verify_cache_budget(alloc, cfg)
        for en in (1, 2):
            assert en_bits(alloc, en) == cache_bits(cfg)  # tight, no slack


class TestFullPlacement:
    def test_whole_library_everywhere(self):
        cfg, lib = make(2, 2, 2, F(1), 8)
        alloc = full_placement(lib, cfg)
        assert en_bits(alloc, 1) == en_bits(alloc, 2) == 16

    def test_replication_symmetry(self):
        cfg, lib = make(3, 1, 1, F(1), 16)
        alloc = full_placement(lib, cfg)
        for en in (2, 3):
            for a, b in zip(alloc.per_en_content[0], alloc.per_en_content[en - 1]):
                np.testing.assert_array_equal(a.bits, b.bits)

    def test_requires_unit_mu(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        with pytest.raises(ArgumentError):
            full_placement(lib, cfg)


class TestSharedPlacement:
    def test_half_alpha_budget_arithmetic(self):
        cfg, lib = make(2, 2, 2, F(3, 4), 8)
        alloc = shared_placement(lib, cfg)
        assert alloc.split_bits == 4  # alpha*L = (1/2)*8
        # per EN and file: 2 split bits + 4 replicated = 6 = (3/4)*8
        for en in (1, 2):
            for n in (1, 2):
                assert en_file_bits(alloc, en, n) == 6
            assert en_bits(alloc, en) == 12  # (3/4)*N*L
        assert verify_cache_budget(alloc, cfg)

    def test_rounding_keeps_budget(self):
        # alpha*L = 27/4 bits is not a whole multiple of M = 3
        cfg, lib = make(3, 3, 3, F(1, 2), 9)
        with pytest.raises(ArgumentError) as refused:
            shared_placement(lib, cfg)
        assert str(refused.value) == (
            "mu = 1/2 cannot be stored exactly at L = 9: its split prefix "
            "alpha*L = 27/4 bits is not a whole multiple of M = 3")

    @pytest.mark.parametrize("mu", [F(1, 2), F(1)])
    def test_boundary_mu_rejected(self, mu):
        cfg, lib = make(2, 2, 2, mu, 8)
        with pytest.raises(ArgumentError):
            shared_placement(lib, cfg)

    def test_alpha_continuity_near_boundaries(self):
        cfg, lib = make(2, 2, 2, F(51, 100), 200)
        near_split = shared_placement(lib, cfg)
        assert near_split.split_bits == 196  # alpha = 49/50 -> 1 as mu -> 1/M
        cfg2, lib2 = make(2, 2, 2, F(99, 100), 200)
        near_full = shared_placement(lib2, cfg2)
        assert near_full.split_bits == 4  # alpha = 1/50 -> 0 as mu -> 1


class TestBudgetVerification:
    def test_detects_injected_extra_bit(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        alloc = split_placement(lib, cfg)
        bloated = edited(alloc, en=1, extra=Fragment(1, 4, 1))
        assert verify_cache_budget(alloc, cfg)
        assert not verify_cache_budget(bloated, cfg)

    def test_hybrid_within_budget(self):
        cfg, lib = make(2, 2, 2, F(3, 4), 8)
        assert verify_cache_budget(shared_placement(lib, cfg), cfg)


class TestAssignment:
    def test_split_x_channel_messages(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        alloc = split_placement(lib, cfg)
        assign = assignment_for_demand(alloc, DemandVector((1, 2)))
        assert assign.fragments_for_user(1) == ((Fragment(1, 0, 4), 1),
                                                (Fragment(1, 4, 4), 2))
        assert assign.fragments_for_user(2) == ((Fragment(2, 0, 4), 1),
                                                (Fragment(2, 4, 4), 2))
        assert assigned_bits(assign, 2) == [8, 8]

    def test_full_marks_all_ens_cooperative(self):
        cfg, lib = make(3, 2, 2, F(1), 8)
        alloc = full_placement(lib, cfg)
        assign = assignment_for_demand(alloc, DemandVector((2, 2)))
        assert assign.fragments_for_user(1) == ((Fragment(2, 0, 8), None),)
        assert assign.fragments_for_user(2) == ((Fragment(2, 0, 8), None),)

    def test_hybrid_splits_into_both_kinds(self):
        cfg, lib = make(2, 2, 2, F(3, 4), 8)
        alloc = shared_placement(lib, cfg)
        assign = assignment_for_demand(alloc, DemandVector((1, 2)))
        assert assign.fragments_for_user(1) == ((Fragment(1, 0, 2), 1),
                                                (Fragment(1, 2, 2), 2),
                                                (Fragment(1, 4, 4), None))
        assert assigned_bits(assign, 2) == [8, 8]

    def test_single_en_split_and_full_deliver_alike(self):
        cfg, lib = make(1, 1, 3, F(1), 12)
        demand = DemandVector((2,))
        split = assignment_for_demand(split_placement(lib, cfg), demand)
        full = assignment_for_demand(full_placement(lib, cfg), demand)
        assert split == full
        assert split.fragments_for_user(1) == ((Fragment(2, 0, 12), None),)

    @pytest.mark.parametrize("placement,mu", [
        (split_placement, F(1, 2)),
        (full_placement, F(1)),
        (shared_placement, F(3, 4)),
    ])
    def test_round_trip_reconstruction(self, placement, mu):
        cfg, lib = make(2, 2, 4, mu, 16, seed=3)
        alloc = placement(lib, cfg)
        demand = DemandVector((3, 1))
        assign = assignment_for_demand(alloc, demand)
        for user, file_index in enumerate(demand.demands, start=1):
            rebuilt = reconstruct(alloc, assign, user, cfg.file_bits)
            np.testing.assert_array_equal(rebuilt, lib.files[file_index - 1])

    def test_placement_is_demand_and_seed_agnostic(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        again = split_placement(lib, cfg)
        first = split_placement(lib, cfg)
        for en in (1, 2):
            for a, b in zip(first.per_en_content[en - 1],
                            again.per_en_content[en - 1]):
                assert a.fragment == b.fragment
                np.testing.assert_array_equal(a.bits, b.bits)

    def test_uncovered_bits_raise(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        alloc = split_placement(lib, cfg)
        # drop EN2's fragment of file 1: its second half is cached nowhere
        gutted = edited(alloc, en=2, drop_file=1)
        with pytest.raises(CoverageError) as tail:
            assignment_for_demand(gutted, DemandVector((1, 2)))
        assert str(tail.value) == (
            "user 1: bits [4, 8) of file 1 are cached nowhere")
        # drop EN1's instead: the first half is cached nowhere
        gutted = edited(alloc, en=1, drop_file=1)
        with pytest.raises(CoverageError) as head:
            assignment_for_demand(gutted, DemandVector((2, 1)))
        assert str(head.value) == (
            "user 2: bits [0, 4) of file 1 are cached nowhere")

    def test_overlapping_extra_fragment_raises(self):
        cfg, lib = make(2, 2, 2, F(1, 2), 8)
        alloc = split_placement(lib, cfg)
        # EN1 also stores bit 4 of file 1, which EN2's fragment holds too
        bloated = edited(alloc, en=1, extra=Fragment(1, 4, 1))
        with pytest.raises(CoverageError) as overlap:
            assignment_for_demand(bloated, DemandVector((1, 2)))
        assert str(overlap.value) == (
            "user 1: bits [4, 5) of file 1 are assigned twice")
        assignment_for_demand(bloated, DemandVector((2, 2)))  # file 1 unasked

"""Tests for system configuration, library and demands, and for the
1-based block reference the converse's cut is checked against."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecache.errors import (
    ArgumentError,
    DemandError,
    FeasibilityError,
    RangeError,
)
from edgecache.model import (
    MAX_LIBRARY_BITS,
    DemandVector,
    FileLibrary,
    as_fraction,
    validate_config,
)


def submatrix(matrix: np.ndarray, row_range: tuple[int, int],
              col_range: tuple[int, int]) -> np.ndarray:
    """Extract the 1-based inclusive block rows [a:b] x cols [c:d].

    Entry (i, j) of the result is matrix[a+i-1, c+j-1], the paper's
    sub-matrix notation. Reference for the plain slices of
    `converse.build_submatrices`.
    """
    a, b = row_range
    c, d = col_range
    rows, cols = matrix.shape
    if not (1 <= a <= b <= rows):
        raise RangeError(f"row range [{a}:{b}] invalid for {rows} rows")
    if not (1 <= c <= d <= cols):
        raise RangeError(f"col range [{c}:{d}] invalid for {cols} cols")
    return matrix[a - 1:b, c - 1:d].copy()


class TestValidateConfig:
    def test_accepts_2x2_half_cache(self):
        cfg = validate_config(2, 2, 2, Fraction(1, 2), 1200)
        assert cfg.num_ens == 2
        assert cfg.frac_cache == Fraction(1, 2)

    def test_accepts_3x3_third_cache(self):
        cfg = validate_config(3, 3, 3, Fraction(1, 3), 999)
        assert cfg.library_size == 3
        assert cfg.file_bits == 999

    def test_rejects_cache_below_collective_minimum(self):
        with pytest.raises(FeasibilityError):
            validate_config(2, 2, 2, Fraction(1, 4), 1200)

    def test_rejects_cache_above_one(self):
        with pytest.raises(FeasibilityError):
            validate_config(2, 2, 2, Fraction(5, 4), 1200)

    def test_rejects_small_library(self):
        with pytest.raises(DemandError):
            validate_config(2, 3, 2, Fraction(1, 2), 1200)

    @pytest.mark.parametrize("bad", [
        (0, 2, 2, Fraction(1, 2), 8),
        (2, 0, 2, Fraction(1, 2), 8),
        (2, 2, 0, Fraction(1, 2), 8),
        (2, 2, 2, Fraction(1, 2), 0),
        (-1, 2, 2, Fraction(1, 2), 8),
    ])
    def test_rejects_non_positive_sizes(self, bad):
        with pytest.raises(ArgumentError):
            validate_config(*bad)

    def test_rejects_float_cache_fraction(self):
        with pytest.raises(ArgumentError):
            validate_config(2, 2, 2, 0.5, 1200)

    def test_accepts_string_rational(self):
        cfg = validate_config(2, 2, 2, "1/2", 1200)
        assert cfg.frac_cache == Fraction(1, 2)

    def test_validation_is_a_pure_predicate(self):
        a = validate_config(3, 3, 4, Fraction(2, 3), 300)
        b = validate_config(3, 3, 4, Fraction(2, 3), 300)
        assert a == b
        for _ in range(2):
            with pytest.raises(FeasibilityError):
                validate_config(3, 3, 4, Fraction(1, 4), 300)


def test_as_fraction_rejects_junk():
    with pytest.raises(ArgumentError):
        as_fraction("3/0")
    with pytest.raises(ArgumentError):
        as_fraction(object())


class TestSubmatrix:
    def test_identity_slice(self):
        h = np.arange(4.0).reshape(2, 2)
        np.testing.assert_array_equal(submatrix(h, (1, 2), (1, 2)), h)

    def test_inner_block_indexing(self):
        h = np.arange(9.0).reshape(3, 3)
        block = submatrix(h, (1, 2), (2, 3))
        assert block.shape == (2, 2)
        assert block[0, 0] == h[0, 1]  # entry (1,1) is h_{1,2}

    def test_bottom_rows_block(self):
        # rows [2:3] x cols [1:3] of a 3x3 matrix
        h = np.random.default_rng(5).standard_normal((3, 3))
        block = submatrix(h, (2, 3), (1, 3))
        np.testing.assert_array_equal(block, h[1:, :])

    def test_composition(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((5, 6))
        outer = submatrix(h, (2, 5), (2, 6))
        inner = submatrix(outer, (2, 3), (1, 4))
        direct = submatrix(h, (3, 4), (2, 5))
        np.testing.assert_array_equal(inner, direct)

    @pytest.mark.parametrize("rows,cols", [
        ((0, 2), (1, 2)),
        ((1, 3), (1, 2)),
        ((2, 1), (1, 2)),
        ((1, 2), (1, 3)),
        ((1, 2), (0, 1)),
    ])
    def test_out_of_range(self, rows, cols):
        h = np.zeros((2, 2))
        with pytest.raises(RangeError):
            submatrix(h, rows, cols)

    def test_returns_a_copy(self):
        h = np.zeros((2, 2))
        block = submatrix(h, (1, 1), (1, 1))
        block[0, 0] = 9.0
        assert h[0, 0] == 0.0


class TestDemandAndLibrary:
    def test_worst_case_demand_distinct(self):
        cfg = validate_config(2, 4, 6, Fraction(1, 2), 8)
        dem = DemandVector.worst_case(cfg)
        assert dem.demands == (1, 2, 3, 4)
        dem.validate(cfg)

    def test_demand_out_of_range(self):
        cfg = validate_config(2, 2, 2, Fraction(1, 2), 8)
        with pytest.raises(ArgumentError):
            DemandVector((1, 3)).validate(cfg)
        with pytest.raises(ArgumentError):
            DemandVector((1,)).validate(cfg)

    def test_library_shapes(self):
        cfg = validate_config(2, 2, 3, Fraction(1, 2), 64)
        lib = FileLibrary.random(cfg, seed=9)
        assert lib.num_files == 3
        assert lib.file_bits == 64
        assert len(lib.files) == 3
        assert set(np.unique(lib.files[0])) <= {0, 1}

    def test_library_deterministic(self):
        cfg = validate_config(2, 2, 2, Fraction(1, 2), 32)
        a = FileLibrary.random(cfg, seed=4)
        b = FileLibrary.random(cfg, seed=4)
        for n in (1, 2):
            np.testing.assert_array_equal(a.files[n - 1], b.files[n - 1])


def integers_library(n, l, seed):
    """Reference library: one `integers(0, 2)` call per file, in order."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=l, dtype=np.uint8) for _ in range(n)]


def library(n, l, seed):
    return FileLibrary.random(validate_config(1, 1, n, Fraction(1), l), seed)


@st.composite
def library_sizes(draw, rem, odd_total):
    """(N, L, seed) with L = rem mod 4 and L <= 200. A file reads
    c = ceil(L/4) uint32s; an odd N*c leaves the last uint64's high half
    unread, and with N >= 3 and c odd a file starts on a high half."""
    if odd_total:
        n = draw(st.sampled_from([3, 5, 7]))
        c = 2 * draw(st.integers(0, 24)) + 1
    else:
        n = draw(st.integers(1, 8))
        c = draw(st.integers(1, 50))
        if n * c % 2:
            c += 1 if c < 50 else -1
    l = 4 * c if rem == 0 else 4 * (c - 1) + rem
    return n, l, draw(st.integers(0, 2**32))


class TestRawLibraryDraw:
    @pytest.mark.parametrize("odd_total", [False, True])
    @pytest.mark.parametrize("rem", [0, 1, 2, 3])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_bits_match_one_integers_call_per_file(self, rem, odd_total, data):
        n, l, seed = data.draw(library_sizes(rem, odd_total))
        lib = library(n, l, seed)
        assert lib.num_files == n
        for got, want in zip(lib.files, integers_library(n, l, seed)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n,l", [(1, 1), (3, 5), (2, 8), (7, 13), (400, 48)])
    def test_files_are_read_only_rows_of_one_block(self, n, l):
        lib = library(n, l, seed=2)
        block = lib.files[0].base
        for f in lib.files:
            assert f.shape == (l,) and f.nbytes == l and f.dtype == np.uint8
            assert not f.flags.writeable
            assert f.base is block
        with pytest.raises(ValueError):
            lib.files[-1][0] = 1

    def test_draw_holds_no_second_copy(self):
        # a page over the N*L bits, one file's L-byte temporary (each
        # `integers` call's array before its copy into the block) and the
        # cost that does not grow with L: the generator and one array header
        # per file, measured at L = 4; L is sim-library's
        def draw_peak(n, l):
            library(n, l, seed=0).files
            tracemalloc.start()
            try:
                library(n, l, seed=0).files
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n, l = 40, 48000
        fixed = draw_peak(n, 4) - n * 4
        assert draw_peak(n, l) < n * l + l + fixed + 4096

    def test_bits_are_drawn_on_first_read(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a bit was drawn")

        monkeypatch.setattr("numpy.random.default_rng", no_draw)
        lib = library(400, 48000, seed=5)
        assert (lib.num_files, lib.file_bits) == (400, 48000)
        monkeypatch.undo()
        first = lib.files
        assert lib.files is first  # drawn once
        np.testing.assert_array_equal(lib.files[1], library(2, 48000, 5).files[1])

    def test_library_cap_counts_every_bit(self, monkeypatch):
        """Built from a config or directly, a library over the cap is
        refused before any bit is drawn."""
        def no_draw(*args, **kwargs):
            raise AssertionError("a library bit was drawn")

        assert 13 * 400 * 48000 < MAX_LIBRARY_BITS  # sim-library's library
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ArgumentError, match="1000000 x 1000000 bits"):
            FileLibrary(10**6, 10**6, 0)
        for build in (library, FileLibrary):
            monkeypatch.setattr("edgecache.model.MAX_LIBRARY_BITS", 3 * 40)
            assert build(3, 40, 0).num_files == 3
            monkeypatch.setattr("edgecache.model.MAX_LIBRARY_BITS", 3 * 40 - 1)
            with pytest.raises(ArgumentError, match="3 x 40 bits exceeds"):
                build(3, 40, 0)

"""Tests for the numerical verification of the converse identities."""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgecache import converse
from edgecache.converse import (
    H1_COND_LIMIT,
    LOGDET_ORACLE_TOL,
    NOISE_COV_SAMPLES,
    TIME_COLUMNS,
    ConverseReport,
    Cut,
    build_submatrices,
    folded_channel,
    lambda_constant,
    logdet_oracle,
    logdet_term,
    noise_cov_check,
    noise_covariance,
    reconstruction_residual,
    report_passes,
    sample_regular_channel,
    variance_bound_check,
    verify_converse,
)
from edgecache.errors import ArgumentError, RangeError, SingularH1Error
from edgecache.model import validate_config
from converse_reference import (
    block_noise_covariance,
    det_bareiss,
    folded_noise_cov_check,
    one_noise_cov_check,
    ratio_oracle,
    sample_cov,
)
from test_model import submatrix

F = Fraction


def det_exact(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction.

    Reference for det_bareiss: the same first-nonzero pivoting, but every
    entry is a reduced rational, so nothing relies on exact integer
    division.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pivot_value = work[col][col]
        det *= pivot_value
        for r in range(col + 1, n):
            f = work[r][col] / pivot_value
            if f:
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return det


def fraction_oracle(cut):
    """logdet_oracle over Fraction entries, as it was before integer scaling.

    det(G^T G) / det(H1)^2 with both determinants taken by det_exact; the
    same guards and the same final logarithm.
    """
    ell = cut.ell
    if cut.h2.shape[0] == 0:
        return 0.0
    g = [[Fraction(x) for x in row]
         for row in np.vstack([cut.h1, cut.h2]).tolist()]
    det_h1 = det_exact(g[:ell])
    if det_h1 == 0:
        raise SingularH1Error("H1 is exactly singular")
    gram = [[sum(row[i] * row[j] for row in g) for j in range(ell)]
            for i in range(ell)]
    det = det_exact(gram) / det_h1 ** 2
    return math.log(det.numerator) - math.log(det.denominator)


def reference_lambda(h, ell):
    """lambda_constant of one draw as a loop over its first ell rows."""
    best = -math.inf
    for row in h[:ell]:
        squares = float((row ** 2).sum())
        cross = float(np.outer(row, row).sum()) - squares
        best = max(best, squares + cross)
    return best


def reference_residual(cut, x, noise):
    """reconstruction_residual of one draw with np.linalg.norm."""
    h, ell = cut.h, cut.ell
    k, m = h.shape
    if ell == k:
        return 0.0
    known = m - ell
    y = h @ x + noise
    y_tilde = y[:ell] - h[:ell, :known] @ x[:known]
    left = y[ell:] + cut.h2 @ np.linalg.solve(cut.h1, noise[:ell])
    right = cut.h3 @ np.vstack([x[:known], np.linalg.solve(cut.h1, y_tilde)])
    right = right + noise[ell:]
    scale = np.linalg.norm(left)
    diff = np.linalg.norm(left - right)
    return float(diff / scale) if scale > 0 else float(diff)


def reference_logdet(cut):
    """logdet_term of one draw from the transposed-solve Ht."""
    ht = np.linalg.solve(cut.h1.T, cut.h2.T).T
    if ht.shape[0] == 0:
        return 0.0
    return float(np.sum(np.log1p(np.linalg.svd(ht, compute_uv=False) ** 2)))


def reference_sample(rng, num_users, num_ens, ell, redraws=None):
    """One K x M draw at a time, redrawn while its H1 fails the test.

    Appends the number of rejected draws to `redraws`, when given.
    """
    for rejected in range(converse.MAX_REDRAWS + 1):
        try:
            cut = build_submatrices(rng.standard_normal((num_users, num_ens)),
                                    ell)
        except SingularH1Error:
            continue
        if redraws is not None:
            redraws.append(rejected)
        return cut
    raise SingularH1Error(
        f"no well-conditioned H1 after {converse.MAX_REDRAWS} redraws"
        " (RNG misuse?)"
    )


def draw_of(cut, t):
    """Draw t of a stacked cut, as a Cut of its own."""
    return Cut(cut.h[t], cut.h1[t], cut.h2[t], cut.h3[t], cut.ell)


def regular_draw(rng, num_users, num_ens, ell):
    """The one draw of a stack of one from `sample_regular_channel`."""
    cut, _ = sample_regular_channel(rng, num_users, num_ens, ell, 1, 0)
    return draw_of(cut, 0)


def normal_rows(seed, rows, samples):
    """The noise block a check folds: standard normals from one seed."""
    return np.random.default_rng(seed).standard_normal((rows, samples))


def reference_verify(config, ells=None, trials=1000, seed=0, redraws=None):
    """verify_converse as a loop over single draws: the reference for the
    chunked array program, which must return equal reports."""
    m, k = config.num_ens, config.num_users
    if ells is None:
        ells = range(1, min(m, k) + 1)
    # every cut slices one noise covariance of the largest folding cut's
    # rows; its law is tested against the block's in TestNoiseCovarianceLaw
    rows = max([ell for ell in ells if ell < k], default=0)
    cov = noise_covariance(np.random.default_rng(seed + 1), rows,
                           NOISE_COV_SAMPLES)
    reports = []
    for ell in ells:
        rng = np.random.default_rng((seed, ell))
        lam, worst_residual, worst_logdet, worst_oracle = -math.inf, 0.0, 0.0, 0.0
        for _ in range(trials):
            cut = reference_sample(rng, k, m, ell, redraws)
            x = rng.standard_normal((m, TIME_COLUMNS))
            noise = rng.standard_normal((k, TIME_COLUMNS))
            lam = max(lam, reference_lambda(cut.h, ell))
            worst_residual = max(worst_residual,
                                 reference_residual(cut, x, noise))
            value = reference_logdet(cut)
            worst_logdet = max(worst_logdet, abs(value))
            worst_oracle = max(worst_oracle, abs(value - ratio_oracle(cut)))
        cov_cut = reference_sample(np.random.default_rng((seed, ell, 1)), k, m,
                                   ell)
        cov_err = one_noise_cov_check(cov_cut, cov)
        reports.append(ConverseReport(ell, trials, lam, worst_residual,
                                      worst_logdet, worst_oracle, cov_err,
                                      NOISE_COV_SAMPLES))
    return reports


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def det_direct(rows):
    """Cofactor-expansion determinant over the elements as given.

    Reference for det_exact and det_bareiss, independent of elimination
    and of LAPACK;
    works elementwise, so Fraction entries yield an exact determinant.
    Costs O(n!), so keep n small.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_direct(minor)
    return total


# small numerators make exactly singular draws common
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def square_fraction_matrices(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        rows[0][0] = F(0)  # first column needs a row swap, or has no pivot
    if n > 1 and draw(st.booleans()):
        scale = draw(small_fractions)
        rows[-1] = [scale * v for v in rows[0]]  # exactly singular
    return rows


# small values make exactly singular draws common; huge ones exercise the
# growth of Bareiss's intermediate integers
integer_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2 ** 200), 2 ** 200),
)


@st.composite
def square_integer_matrices(draw, min_n=0, max_n=5):
    n = draw(st.integers(min_n, max_n))
    rows = draw(st.lists(st.lists(integer_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        rows[0][0] = 0  # first column needs a row swap, or has no pivot
    if n > 1 and draw(st.booleans()):
        rows[1][1] = rows[0][1] * rows[1][0]  # may zero the second pivot
        rows[0][0] = 1
    if n > 1 and draw(st.booleans()):
        scale = draw(st.integers(-3, 3))
        rows[-1] = [scale * v for v in rows[0]]  # exactly singular
    return rows


@st.composite
def gram_stacks(draw):
    """One to five square_integer_matrices A of one size, some with a column
    made zero or a multiple of another, and the object stack of their A^T A,
    each as its upper triangle packed row by row."""
    n = draw(st.integers(0, 5))
    stack = draw(st.lists(square_integer_matrices(n, n), min_size=1, max_size=5))
    for rows in stack:
        if n > 1 and draw(st.booleans()):
            source, target = draw(st.permutations(range(n)))[:2]
            scale = draw(st.integers(-3, 3))  # 0 makes a zero column
            for row in rows:
                row[target] = scale * row[source]
    a = np.array(stack, dtype=object).reshape(len(stack), n, n)
    i, j = np.triu_indices(n)
    return stack, (np.swapaxes(a, -1, -2) @ a)[:, i, j]


def integer_columns(g):
    """The integers `converse._integer_blocks` makes of one K x ell G: each
    column times 2^(53 - e), e its entries' smallest `math.frexp` exponent."""
    columns = []
    for column in np.asarray(g).T.tolist():
        shift = 53 - min(math.frexp(v)[1] for v in column)
        scaled = [Fraction(v) * Fraction(2) ** shift for v in column]
        assert all(x.denominator == 1 for x in scaled)
        columns.append([int(x) for x in scaled])
    return [list(row) for row in zip(*columns)]


def gram(rows):
    """A^T A of an integer matrix A, as lists of Python ints."""
    a = np.array(rows, dtype=object)
    return (a.T @ a).tolist()


def unpacked(triangle, n):
    """The symmetric n x n matrix whose upper triangle, packed row by row,
    is `triangle`."""
    full = np.empty((n, n), dtype=object)
    full[np.triu_indices(n)] = triangle
    full.T[np.triu_indices(n)] = triangle
    return full.tolist()


def channel_with_h1(h1, k, seed):
    """A K x M standard-normal draw whose ell x ell H1 block is h1 (M = ell)."""
    h = np.random.default_rng(seed).standard_normal((k, len(h1)))
    h[:len(h1)] = h1
    return h


# H1 has an exact 0 leading entry, so the per-draw reference's elimination
# of H1 swaps rows at its first step; the oracle's Grams need no swap
H1_SWAP_FIRST = [[0.0, 2.0, 1.0], [1.5, 1.0, -3.0], [2.0, -1.0, 0.5]]
# H1's leading 2 x 2 minor is 0: the reference's pivot first becomes 0 at
# step two
H1_SWAP_LATER = [[1.0, 2.0, 3.0], [2.0, 4.0, 1.0], [3.0, 5.0, 7.0]]
# exactly singular H1s: the first has a zero row, which makes only the last
# pivot of H1^T H1 zero; the second's middle column is twice its first,
# which makes its second pivot zero
H1_SINGULAR_FIRST = [[0.0, 0.0, 0.0], [1.0, 2.0, -1.0], [0.5, 3.0, 2.0]]
H1_SINGULAR_LATE = [[1.0, 2.0, 1.0], [2.0, 4.0, 1.0], [3.0, 6.0, 1.0]]


@st.composite
def dyadic_channels(draw):
    """A regular channel draw with per-row power-of-two scales and zeros.

    The whole matrix is scaled by 2^e0 (|e0| <= 200) and each row below the
    cut by a further 2^e_r, so the entries' denominators differ widely while
    H1's conditioning is unchanged; some entries are set to exactly 0. e_r
    stays above -16, because a far smaller H2 rounds the log-det to 0.0.
    """
    m = draw(st.integers(1, 6))
    k = draw(st.integers(2, 7))
    ell = draw(st.integers(1, min(m, k - 1)))  # H2 is never empty
    seed = draw(st.integers(0, 2 ** 32 - 1))
    h = regular_draw(np.random.default_rng(seed), k, m, ell).h
    h = h * 2.0 ** draw(st.integers(-200, 200))
    for r in range(ell, k):
        h[r] *= 2.0 ** draw(st.integers(-16, 200))
    zeros = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                    st.integers(0, m - 1)), max_size=4))
    for r, c in zeros:
        h[r, c] = 0.0
    return h, ell


@st.composite
def channel_stacks(draw):
    """T draws of a K x M channel with inputs and noise, scaled by a power
    of two, some entries zeroed so that some H1s are singular."""
    m, k = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    ell = draw(st.integers(1, min(m, k)))
    t, cols = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal((t, k, m)) * 2.0 ** draw(st.integers(-30, 30))
    zeros = draw(st.lists(st.tuples(st.integers(0, t - 1), st.integers(0, k - 1),
                                    st.integers(0, m - 1)), max_size=6))
    for idx in zeros:
        h[idx] = 0.0
    return (h, rng.standard_normal((t, m, cols)),
            rng.standard_normal((t, k, cols)), ell)


@st.composite
def scaled_oracle_stacks(draw):
    """T draws of a K x M channel cut at ell, for the exact oracle alone.

    Rows and columns are scaled by powers of two up to 2^+-1000, their sum
    clipped to the float range, so some entries go subnormal or to zero.
    Some entries are set to a subnormal or to exactly 0, and one H1 can be
    made exactly singular by repeating its first row. The cut is not
    conditioned, so such draws reach the oracle; ell runs up to K, where
    the oracle returns early.
    """
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    ell, t = draw(st.integers(1, min(m, k))), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exps = st.integers(-1000, 1000)
    rows = np.array(draw(st.lists(exps, min_size=k, max_size=k)))
    cols = np.array(draw(st.lists(exps, min_size=m, max_size=m)))
    h = np.ldexp(rng.standard_normal((t, k, m)),
                 np.clip(rows[:, None] + cols, -1100, 1000))
    entries = st.tuples(st.integers(0, t - 1), st.integers(0, k - 1),
                        st.integers(0, m - 1))
    for idx in draw(st.lists(entries, max_size=4)):
        h[idx] = 0.0
    for idx in draw(st.lists(entries, max_size=4)):
        h[idx] = draw(st.integers(1 - 2 ** 52, 2 ** 52 - 1)) * 5e-324
    if ell > 1 and draw(st.booleans()):
        h[0, 1, m - ell:] = h[0, 0, m - ell:]
    return unconditioned_cut(h, ell)


def unconditioned_cut(h, ell):
    """h cut at ell without build_submatrices' conditioning test, so that
    an exactly singular H1 reaches the oracle."""
    m = h.shape[-1]
    return Cut(h, h[..., :ell, m - ell:], h[..., ell:, m - ell:],
               h[..., ell:, :], ell)


class TestLambdaConstant:
    def test_identity_channel(self):
        assert lambda_constant(np.eye(2), 2) == 1.0

    def test_all_ones_row(self):
        # sum of squares 2 plus ordered cross terms 2
        assert lambda_constant(np.ones((2, 2)), 1) == 4.0

    def test_literal_expression_equals_row_sum_square(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            h = rng.standard_normal((4, 5))
            for ell in (1, 2, 3, 4):
                literal = lambda_constant(h, ell)
                squared = max(float(h[k].sum() ** 2) for k in range(ell))
                assert literal == pytest.approx(squared, rel=1e-12, abs=1e-12)

    def test_row_permutations_beyond_ell_irrelevant(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 3))
        swapped = h.copy()
        swapped[[2, 3]] = swapped[[3, 2]]
        assert lambda_constant(h, 2) == lambda_constant(swapped, 2)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((3, 4))
        assert lambda_constant(h, 2) == pytest.approx(
            lambda_constant(h[:, ::-1], 2), rel=1e-12
        )

    def test_ell_out_of_range(self):
        with pytest.raises(RangeError):
            lambda_constant(np.eye(2), 0)
        with pytest.raises(RangeError):
            lambda_constant(np.eye(2), 3)

    def test_monte_carlo_variance_oracle(self):
        # fully correlated unit-power inputs: Var[sum_m h_km X_m] = (sum h)^2
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 3))
        lam = lambda_constant(h, 3)
        z = np.random.default_rng(11).standard_normal(400_000)
        worst = max(float(np.var(h[k].sum() * z)) for k in range(3))
        assert abs(worst - lam) < 0.03 * lam


class TestVarianceBound:
    def test_independent_inputs_hold_with_margin(self):
        h = np.abs(np.random.default_rng(5).standard_normal((3, 3)))
        check = variance_bound_check(h, 2, power=100.0, trials=200_000, seed=6)
        assert check.holds
        assert check.worst_margin > 0

    def test_correlated_inputs_tight(self):
        h = np.abs(np.random.default_rng(7).standard_normal((3, 3)))
        check = variance_bound_check(h, 3, power=100.0, trials=400_000,
                                     seed=8, correlated=True)
        assert check.holds
        assert max(check.empirical) == pytest.approx(check.bound, rel=0.05)

    def test_zero_input_bounded_by_noise(self):
        h = np.ones((2, 2))
        check = variance_bound_check(h * 0, 2, power=100.0, trials=50_000, seed=9)
        assert check.holds
        assert max(check.empirical) == pytest.approx(1.0, rel=0.05)

    def test_sign_mixed_rows_reported_not_hidden(self):
        # the literal constant can undershoot the independent-input variance
        # when cross terms cancel; the verdict must say so
        h = np.array([[1.0, -1.0]])
        check = variance_bound_check(h, 1, power=100.0, trials=100_000, seed=10)
        assert not check.holds
        assert check.worst_margin < 0


class TestSubmatrices:
    def test_3x3_ell_1(self):
        h = np.arange(9.0).reshape(3, 3)
        blocks = build_submatrices(h, 1)
        np.testing.assert_array_equal(blocks.h1, [[h[0, 2]]])
        np.testing.assert_array_equal(blocks.h2, [[h[1, 2]], [h[2, 2]]])
        np.testing.assert_array_equal(blocks.h3, h[1:, :])

    def test_2x2_ell_2_degenerate(self):
        h = np.arange(4.0).reshape(2, 2)
        blocks = build_submatrices(h, 2)
        np.testing.assert_array_equal(blocks.h1, h)
        assert blocks.h2.shape == (0, 2)
        assert blocks.h3.shape == (0, 2)

    def test_wide_channel_ell_2(self):
        # M=2, K=3: (M-ell)+ = 0, so H1 spans the full width
        h = np.arange(6.0).reshape(3, 2)
        blocks = build_submatrices(h, 2)
        np.testing.assert_array_equal(blocks.h1, h[:2, :])
        np.testing.assert_array_equal(blocks.h2, h[2:, :])
        np.testing.assert_array_equal(blocks.h3, h[2:, :])

    def test_h1_always_square(self):
        # the paper's 1-based blocks: H1 = rows 1..ell x cols M-ell+1..M,
        # H2 = rows ell+1..K x the same cols, H3 = rows ell+1..K x cols 1..M
        rng = np.random.default_rng(12)
        for m in (2, 3, 4, 5):
            for k in (2, 3, 4, 5):
                h = rng.standard_normal((k, m))
                for ell in range(1, min(m, k) + 1):
                    cut = build_submatrices(h, ell)
                    assert cut.h1.shape == (ell, ell)
                    np.testing.assert_array_equal(
                        cut.h1, submatrix(h, (1, ell), (m - ell + 1, m)))
                    if ell == k:
                        assert cut.h2.shape == (0, ell)
                        assert cut.h3.shape == (0, m)
                        continue
                    np.testing.assert_array_equal(
                        cut.h2, submatrix(h, (ell + 1, k), (m - ell + 1, m)))
                    np.testing.assert_array_equal(
                        cut.h3, submatrix(h, (ell + 1, k), (1, m)))

    def test_blocks_are_views_of_the_draw(self):
        h = np.random.default_rng(28).standard_normal((4, 3))
        cut = build_submatrices(h, 2)
        assert cut.h is h
        for block in (cut.h1, cut.h2, cut.h3):
            assert np.shares_memory(block, h)

    def test_ell_out_of_range(self):
        with pytest.raises(RangeError):
            build_submatrices(np.eye(3), 4)

    @pytest.mark.parametrize("ell", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_ell_cuts_as_an_int(self, ell):
        h = np.random.default_rng(5).standard_normal((3, 4))
        cut = build_submatrices(h, ell)
        assert type(cut.ell) is int and cut.ell == 2
        for got, want in zip((cut.h1, cut.h2, cut.h3),
                             (h[:2, 2:], h[2:, 2:], h[2:, :])):
            np.testing.assert_array_equal(got, want)
        assert lambda_constant(h, ell) == lambda_constant(h, 2)


class TestReconstructionIdentity:
    def test_random_draws_tiny_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            h = rng.standard_normal((3, 3))
            x = rng.standard_normal((3, 6))
            noise = rng.standard_normal((3, 6))
            for ell in (1, 2):
                try:
                    cut = build_submatrices(h, ell)
                except SingularH1Error:
                    continue
                assert reconstruction_residual(cut, x, noise) < 1e-9

    def test_noiseless_residual_negligible(self):
        rng = np.random.default_rng(14)
        h = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 4))
        res = reconstruction_residual(build_submatrices(h, 1), x,
                                      np.zeros((3, 4)))
        assert res < 1e-12

    def test_degenerate_cut_is_empty_identity(self):
        rng = np.random.default_rng(15)
        h = rng.standard_normal((2, 3))
        x = rng.standard_normal((3, 4))
        noise = rng.standard_normal((2, 4))
        assert reconstruction_residual(build_submatrices(h, 2), x, noise) == 0.0

    def test_singular_h1_rejected(self):
        h = np.eye(3)
        h[0, 2] = 0.0  # H1 for ell=1 is the scalar h_{1,3} = 0
        with pytest.raises(SingularH1Error):
            build_submatrices(h, 1)
        h = np.ones((3, 3))
        h[1, 2] += 1e-12  # H1 for ell=2 is [[1, 1], [1, 1 + 1e-12]]
        with pytest.raises(SingularH1Error):
            build_submatrices(h, 2)

    def test_regular_sampler_rejects_rarely(self):
        # a rejected H1 must be a < 1-in-1e5 event over standard-normal draws
        rng = np.random.default_rng(16)
        h = rng.standard_normal((100_000, 2, 2))
        svals = np.linalg.svd(h, compute_uv=False)
        conds = svals[:, 0] / svals[:, -1]
        assert int((conds > H1_COND_LIMIT).sum()) == 0
        regular_draw(rng, 2, 2, 2)  # smoke: terminates


class TestLogDet:
    def test_empty_block_is_zero(self):
        cut = build_submatrices(
            np.random.default_rng(17).standard_normal((2, 4)), 2)
        assert logdet_term(cut) == 0.0
        assert logdet_oracle(cut) == 0.0

    def test_scalar_folded_channel(self):
        # M=K=2, ell=1: Ht = h_{2,2} / h_{1,2}
        h = np.array([[3.0, 2.0], [1.0, 4.0]])
        expected = math.log(1.0 + (4.0 / 2.0) ** 2)
        assert logdet_term(build_submatrices(h, 1)) == \
            pytest.approx(expected, rel=1e-14)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            try:
                cut = build_submatrices(rng.standard_normal((3, 3)), 1)
            except SingularH1Error:
                continue
            assert abs(logdet_term(cut) - logdet_oracle(cut)) < 1e-10

    def test_power_free_and_repeatable(self):
        import inspect

        params = inspect.signature(logdet_term).parameters
        assert "power" not in params and len(params) == 1
        cut = build_submatrices(np.random.default_rng(19).standard_normal((4, 4)), 2)
        assert logdet_term(cut) == logdet_term(cut)

    def test_oracle_hand_case(self):
        # G = [3, 2]^T after picking column 2: det G^T G = 20, det H1^2 = 4
        cut = build_submatrices(np.array([[3.0, 2.0], [1.0, 4.0]]), 1)
        assert logdet_oracle(cut) == math.log(5)

    def test_oracle_rejects_exactly_singular_h1(self, monkeypatch):
        # the conditioning guard is bypassed so the exact check must fire
        monkeypatch.setattr("edgecache.converse.H1_COND_LIMIT", math.inf)
        h = np.array([[1.0, 1.0, 2.0], [1.0, 2.0, 4.0], [5.0, 6.0, 7.0]])
        cut = build_submatrices(h, 2)  # H1 = [[1, 2], [2, 4]]
        with pytest.raises(SingularH1Error):
            logdet_oracle(cut)

    @pytest.mark.parametrize("ell", [1, 6])
    def test_oracle_agreement_at_12x12(self, ell):
        cut = build_submatrices(
            np.random.default_rng(26).standard_normal((4, 12, 12)), ell)
        values = logdet_oracle(cut)
        assert np.abs(logdet_term(cut) - values).max() < LOGDET_ORACLE_TOL
        assert bits(values) == bits(
            [ratio_oracle(draw_of(cut, t)) for t in range(4)])

    @pytest.mark.parametrize("ell", [8, 15])
    def test_stacked_oracle_at_16x16_is_bit_identical(self, ell):
        cut = build_submatrices(
            np.random.default_rng(28).standard_normal((3, 16, 16)), ell)
        expected = [ratio_oracle(draw_of(cut, t)) for t in range(3)]
        assert bits(logdet_oracle(cut)) == bits(expected)

    @given(gram_stacks())
    def test_gram_determinants_are_det_bareiss_squared(self, stacks):
        matrices, grams = stacks
        expected = [det_bareiss(rows) ** 2 for rows in matrices]
        if 0 in expected:
            with pytest.raises(SingularH1Error) as raised:
                converse._gram_dets(grams, len(matrices[0]))
            assert str(raised.value) == \
                "H1 is exactly singular in the oracle path"
            return
        dets = converse._gram_dets(grams, len(matrices[0])).tolist()
        assert dets == expected
        assert all(type(det) is int for det in dets)

    @given(scaled_oracle_stacks())
    def test_h1_gram_block_is_det_h1_squared(self, cut):
        m, t = cut.h.shape[-1], len(cut.h)
        blocks = converse._integer_blocks(cut.h[..., m - cut.ell:])
        for draw in range(t):
            g = integer_columns(cut.h[draw, :, m - cut.ell:])
            h1_gram = unpacked(blocks[draw], cut.ell)
            assert h1_gram == gram(g[:cut.ell])
            assert unpacked(blocks[t + draw], cut.ell) == gram(g)
            assert det_bareiss(h1_gram) == det_bareiss(g[:cut.ell]) ** 2

    def test_stacked_pivots_match_the_per_draw_reference(self):
        # a regular draw beside draws that swap rows at the first and at a
        # later step; each must read as it does alone
        h = np.stack([np.random.default_rng(30).standard_normal((5, 3)),
                      channel_with_h1(H1_SWAP_FIRST, 5, 31),
                      channel_with_h1(H1_SWAP_LATER, 5, 32)])
        cut = unconditioned_cut(h, 3)
        expected = [ratio_oracle(draw_of(cut, t)) for t in range(3)]
        assert bits(logdet_oracle(cut)) == bits(expected)
        assert np.abs(logdet_term(cut) - expected).max() < LOGDET_ORACLE_TOL

    @pytest.mark.parametrize("singular", [H1_SINGULAR_FIRST, H1_SINGULAR_LATE])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_exactly_singular_h1_in_a_stack_raises(self, singular, position):
        # the per-draw reference and the stacked Gram elimination find the
        # singular draw at different steps, but raise the same error
        draws = [channel_with_h1(H1_SWAP_FIRST, 5, 33),
                 channel_with_h1(H1_SWAP_LATER, 5, 34)]
        draws.insert(position, channel_with_h1(singular, 5, 35))
        cut = unconditioned_cut(np.stack(draws), 3)
        with pytest.raises(SingularH1Error) as reference:
            ratio_oracle(draw_of(cut, position))
        with pytest.raises(SingularH1Error) as raised:
            logdet_oracle(cut)
        assert str(raised.value) == str(reference.value) == \
            "H1 is exactly singular in the oracle path"

    @given(square_fraction_matrices())
    def test_det_exact_matches_cofactor_reference(self, rows):
        assert det_exact(rows) == det_direct(rows)

    @given(square_integer_matrices())
    def test_det_bareiss_matches_references(self, rows):
        det = det_bareiss(rows)
        assert type(det) is int
        assert det == det_exact(rows) == det_direct(rows)

    @given(dyadic_channels())
    def test_oracle_matches_fraction_reference_bit_for_bit(self, draw):
        h, ell = draw
        try:
            cut = build_submatrices(h, ell)
        except SingularH1Error:
            return  # the zeros made H1 ill-conditioned: neither oracle runs
        try:
            expected = fraction_oracle(cut)
        except SingularH1Error:
            with pytest.raises(SingularH1Error):
                logdet_oracle(cut)
            return
        assert logdet_oracle(cut) == expected

    @given(scaled_oracle_stacks())
    def test_stacked_oracle_matches_the_per_draw_reference(self, cut):
        try:
            expected = [ratio_oracle(draw_of(cut, t))
                        for t in range(len(cut.h))]
        except SingularH1Error as error:
            with pytest.raises(SingularH1Error) as raised:
                logdet_oracle(cut)
            assert str(raised.value) == str(error)
            return
        assert bits(logdet_oracle(cut)) == bits(expected)

    def test_oracle_is_exactly_invariant_to_dyadic_scaling(self):
        rng = np.random.default_rng(27)
        for ell in (1, 3, 5):
            cut = regular_draw(rng, 6, 5, ell)
            value = logdet_oracle(cut)
            for e in (-200, -1, 1, 200):
                scaled = build_submatrices(cut.h * 2.0 ** e, ell)
                assert logdet_oracle(scaled) == value

    def test_det_direct_exact_on_fractions(self):
        rows = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
        assert det_direct(rows) == F(1, 14) - F(1, 15)

    def test_det_direct_matches_numpy(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 3, 4):
            a = rng.standard_normal((n, n))
            assert det_direct(a) == pytest.approx(np.linalg.det(a), rel=1e-10)


class TestNoiseCovariance:
    def test_empirical_covariance_converges(self):
        cut = regular_draw(np.random.default_rng(21), 3, 3, 2)
        cov = sample_cov(normal_rows(22, 2, 100_000))
        assert noise_cov_check(cut, cov) < 0.05

    def test_degenerate_cut_zero(self):
        cut = build_submatrices(
            np.random.default_rng(23).standard_normal((2, 2)), 2)
        assert noise_cov_check(cut, sample_cov(normal_rows(0, 2, 1000))) == 0.0

    def test_zero_h2_block_exact(self):
        # H2 (rows 2..3 of col 3) all zero while H1 = [3] stays invertible
        h = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 0.0], [6.0, 7.0, 0.0]])
        cut = build_submatrices(h, 1)
        np.testing.assert_array_equal(folded_channel(cut), np.zeros((2, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by Ht's zero norm
            cov = sample_cov(normal_rows(0, 1, 1000))
            assert noise_cov_check(cut, cov) == 0.0

    def test_normalized_mode_bounds_scale(self):
        h = np.random.default_rng(24).standard_normal((4, 2))
        h[0, 1] = 1e-4  # raw folded entries are huge
        cut = build_submatrices(h, 1)
        noise = normal_rows(25, 1, 100_000)
        ht = folded_channel(cut)
        folded = ht @ noise[:1]
        raw = np.abs(folded @ folded.T / noise.shape[1] - ht @ ht.T).max()
        unit = noise_cov_check(cut, sample_cov(noise))
        assert raw > unit
        assert unit < 0.05

    @pytest.mark.parametrize("m, k", [(2, 2), (3, 2), (3, 3), (6, 6), (5, 8),
                                      (2, 9)])
    def test_matches_the_folded_product(self, m, k):
        # the same estimator, reassociated: Ht S Ht^T against (Ht n)(Ht n)^T,
        # with S from the whole block (one row at K = 2) and sliced per cut;
        # both read against Ht Ht^T, whose spectral norm the check scales to 1
        noise = normal_rows(31, k - 1, NOISE_COV_SAMPLES)
        cov = sample_cov(noise)
        rng = np.random.default_rng(30)
        for ell in range(1, min(m, k - 1) + 1):
            for _ in range(10):
                cut = regular_draw(rng, k, m, ell)
                assert abs(noise_cov_check(cut, cov)
                           - folded_noise_cov_check(cut, noise)) < 1e-12


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions of `a` and `b`."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, both, side="right") / a.size
                        - np.searchsorted(b, both, side="right") / b.size).max())


def ks_critical(alpha, n1, n2) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    return math.sqrt(-math.log(alpha / 2) / 2 * (n1 + n2) / (n1 * n2))


class TestNoiseCovarianceLaw:
    """Bartlett's S against the law of a block's sample covariance."""

    @pytest.mark.parametrize("samples", [6, NOISE_COV_SAMPLES])
    def test_wishart_moments(self, samples):
        # n S ~ Wishart(n, I): E S = I, Var S_ii = 2/n, Var S_ij = 1/n, and
        # 4th central moments (12 n^2 + 48 n) / n^4 and (3 n^2 + 6 n) / n^4,
        # which give each sample variance's standard error. Every entry's
        # mean and variance over 4,000 seeds is held to 5 standard errors.
        # At n = 6 a chi-square degree off by one moves E S_ii by 1/6.
        dim, seeds, n = 5, 4000, samples
        draws = np.array([noise_covariance(np.random.default_rng(s), dim, n)
                          for s in range(seeds)])
        diagonal = np.eye(dim, dtype=bool)
        var = np.where(diagonal, 2.0, 1.0) / n
        fourth = np.where(diagonal, 12 * n ** 2 + 48 * n,
                          3 * n ** 2 + 6 * n) / n ** 4
        mean_z = (draws.mean(axis=0) - np.eye(dim)) / np.sqrt(var / seeds)
        var_se = np.sqrt((fourth - var ** 2 * (seeds - 3) / (seeds - 1)) / seeds)
        var_z = (draws.var(axis=0, ddof=1) - var) / var_se
        assert np.abs(mean_z).max() < 5
        assert np.abs(var_z).max() < 5

    def test_noise_cov_error_has_the_block_paths_law(self):
        # the report's statistic on the fixed cuts of a 6x6 call at seed 0,
        # from Bartlett's S and from a block's S on independent seeds; a
        # two-sample KS test per cut at alpha = 0.001. n = 1,000 keeps the
        # block cheap; the law holds at every n.
        seeds, n = 300, 1_000
        cuts = [regular_draw(np.random.default_rng((0, ell, 1)), 6, 6, ell)
                for ell in range(1, 6)]

        def errors(draw, path):
            covs = [draw(np.random.default_rng((s, path)), 5, n)
                    for s in range(seeds)]
            return np.array([[noise_cov_check(cut, cov) for cov in covs]
                             for cut in cuts])

        bartlett = errors(noise_covariance, 0)
        block = errors(block_noise_covariance, 1)
        limit = ks_critical(0.001, seeds, seeds)
        for ell, (a, b) in enumerate(zip(bartlett, block), start=1):
            assert ks_statistic(a, b) < limit, f"ell = {ell}"

    def test_draws_chi_squares_then_row_major_normals(self):
        n = 9
        cov = noise_covariance(np.random.default_rng(5), 3, n)
        rng = np.random.default_rng(5)
        lower = np.diag(np.sqrt(rng.chisquare([n, n - 1, n - 2])))
        for i, j in [(1, 0), (2, 0), (2, 1)]:
            lower[i, j] = rng.standard_normal()
        np.testing.assert_allclose(cov, lower @ lower.T / n, rtol=1e-15)

    def test_no_rows_draw_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert noise_covariance(rng, 0, NOISE_COV_SAMPLES).shape == (0, 0)
        assert rng.bit_generator.state == state

    def test_one_row_is_a_scaled_chi_square(self):
        cov = noise_covariance(np.random.default_rng(5), 1, NOISE_COV_SAMPLES)
        chi2 = np.random.default_rng(5).chisquare(NOISE_COV_SAMPLES)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(chi2 / NOISE_COV_SAMPLES, rel=1e-15)

    @pytest.mark.parametrize("m, k, ells, dim", [
        (1, 3, None, 1), (2, 1, None, 0), (4, 4, [4], 0), (4, 4, [4, 2], 2),
    ])
    def test_one_covariance_of_the_largest_folding_cut(self, monkeypatch, m, k,
                                                       ells, dim):
        dims = []

        def recorded(rng, rows, samples):
            dims.append(rows)
            return noise_covariance(rng, rows, samples)

        monkeypatch.setattr(converse, "noise_covariance", recorded)
        cfg = validate_config(m, k, k, F(1), 1200)
        reports = verify_converse(cfg, ells=ells, trials=5, seed=0)
        assert dims == [dim]
        assert all(report_passes(rep) for rep in reports)
        for rep in reports:
            assert (rep.noise_cov_error == 0.0) == (rep.ell == k)


def traced_peak(cfg, trials):
    """verify_converse's reports and tracemalloc peak, after a warm-up."""
    verify_converse(cfg, trials=trials, seed=0)
    tracemalloc.start()
    try:
        reports = verify_converse(cfg, trials=trials, seed=0)
        return reports, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chunk_bytes(cfg) -> int:
    """A bound on one chunk's working memory: TRIAL_CHUNK draws of K*M
    channel entries at 512 bytes each, which covers each draw's inputs and
    noise, the stacked identities and the oracle's Python ints."""
    return converse.TRIAL_CHUNK * cfg.num_users * cfg.num_ens * 512


class TestVerifyConverse:
    def test_3x3_all_cuts_pass(self):
        cfg = validate_config(3, 3, 3, F(1), 1200)
        reports = verify_converse(cfg, trials=200, seed=0)
        assert [r.ell for r in reports] == [1, 2, 3]
        for rep in reports:
            assert report_passes(rep)
            assert rep.max_reconstruction_residual < 1e-9
            assert rep.max_logdet_oracle_error < 1e-10
            assert rep.noise_cov_error < 0.05

    @pytest.mark.parametrize("m,k,trials,caps,message", [
        (2, 2, 0, {}, "trials must be"),
        (2, 2, -5, {}, "trials must be"),
        (2, 2, 2.5, {}, "trials must be"),
        (17, 16, 1, {}, "K*M is 272, more than the 256 allowed"),
        (16, 16, 6251, {},
         "trials x cuts is 100016, more than the 100000 allowed"),
        (16, 16, 201, {}, "trials x the sum of ell^3 over the cuts is "
         "3717696, more than the 3699200 allowed"),
        (3, 2, 50, {"MAX_CAMPAIGN_TRIALS": 50 * 2 - 1},
         "trials x cuts is 100, more than the 99 allowed"),
        (3, 2, 50, {"MAX_CONVERSE_COST": 50 * 9 - 1},
         "trials x the sum of ell^3 over the cuts is 450, more than the 449 "
         "allowed"),
    ], ids=["0", "-5", "2.5", "over-links-cap", "over-trials-cap",
            "over-cost-cap", "over-patched-trials-cap",
            "over-patched-cost-cap"])
    def test_a_bad_trial_count_is_refused_before_any_draw(
            self, monkeypatch, m, k, trials, caps, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew for a refused run")

        monkeypatch.setattr(converse, "noise_covariance", no_draw)
        monkeypatch.setattr(converse, "sample_regular_channel", no_draw)
        for cap, value in caps.items():
            monkeypatch.setattr(f"edgecache.model.{cap}", value)
        cfg = validate_config(m, k, k, F(1), 1200)
        with pytest.raises(ArgumentError, match=re.escape(message)):
            verify_converse(cfg, trials=trials, seed=0)

    def test_tolerance_override_fails_report(self):
        cfg = validate_config(2, 2, 2, F(1), 1200)
        (rep,) = verify_converse(cfg, ells=[1], trials=50, seed=0)
        assert report_passes(rep)
        assert not report_passes(rep, reconstruction_tol=1e-30)

    def test_h1_conditioned_once_per_draw(self, monkeypatch):
        # both take stacks: count the matrices, not the calls
        calls = {"cond": 0, "cut": 0}
        cond, build = np.linalg.cond, converse.build_submatrices

        def counted_cond(h1, *args, **kwargs):
            calls["cond"] += math.prod(np.shape(h1)[:-2])
            return cond(h1, *args, **kwargs)

        def counted_build(h, ell):
            calls["cut"] += math.prod(h.shape[:-2])
            return build(h, ell)

        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        monkeypatch.setattr(converse, "build_submatrices", counted_build)
        cfg = validate_config(6, 6, 6, F(1), 1200)
        verify_converse(cfg, trials=50, seed=0)
        # 6 cuts x (50 trials + 1 noise-covariance draw); no redraw at seed 0
        assert calls == {"cond": 306, "cut": 306}

    def test_noise_block_holds_no_more_than_one_cuts_draw(self):
        # the noise is one 5 x 5 Wishart draw, not a (5, NOISE_COV_SAMPLES)
        # block, so the peak is a chunk's work, whatever the sample count
        cfg = validate_config(6, 6, 6, F(1), 1200)
        _, peak = traced_peak(cfg, 2 * converse.TRIAL_CHUNK)
        assert peak < chunk_bytes(cfg)

    def test_oracle_chunk_at_16x16_stays_under_the_chunk_bound(self):
        cfg = validate_config(16, 16, 16, F(1), 1200)
        bound = chunk_bytes(cfg)  # 8 MiB
        cut = build_submatrices(np.random.default_rng(36).standard_normal(
            (converse.TRIAL_CHUNK, 16, 16)), 15)
        tracemalloc.start()
        try:
            logdet_oracle(cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_noise_draw_does_not_grow_with_its_samples(self, monkeypatch):
        monkeypatch.setattr(converse, "NOISE_COV_SAMPLES", 10 ** 12)
        cfg = validate_config(6, 6, 6, F(1), 1200)
        reports, peak = traced_peak(cfg, 2 * converse.TRIAL_CHUNK)
        assert peak < chunk_bytes(cfg)
        for rep in reports:
            assert report_passes(rep)
            assert rep.noise_cov_samples == 10 ** 12
            assert rep.noise_cov_error < 100 / math.sqrt(10 ** 12)


class TestChunkedMatchesPerDraw:
    """verify_converse against the per-draw loop it replaced."""

    @pytest.mark.parametrize("m, k", [(3, 3), (6, 6), (8, 5), (4, 7), (2, 9),
                                      (1, 3), (2, 1)])
    def test_shapes(self, m, k):
        cfg = validate_config(m, k, k, F(1), 1200)
        expected = reference_verify(cfg, trials=70, seed=3)
        assert repr(verify_converse(cfg, trials=70, seed=3)) == repr(expected)

    @pytest.mark.parametrize("ells", [[2], [3, 1], [2, 4, 2], [4, 3]])
    def test_cuts_in_any_order_share_one_noise_block(self, ells):
        cfg = validate_config(4, 4, 4, F(1), 1200)  # ell = 4 folds nothing
        expected = reference_verify(cfg, ells=ells, trials=10, seed=4)
        assert repr(verify_converse(cfg, ells=ells, trials=10, seed=4)) == \
            repr(expected)

    @pytest.mark.parametrize("ells", [[1, 10 ** 9], [3, 4]])
    def test_too_large_ell_refused_before_any_check(self, monkeypatch, ells):
        # every ell is checked before the noise covariance is drawn or any cut
        # runs
        def no_check(*args, **kwargs):
            raise AssertionError("checked with a bad ell")

        monkeypatch.setattr(converse, "noise_cov_check", no_check)
        monkeypatch.setattr(converse, "lambda_constant", no_check)
        cfg = validate_config(3, 3, 3, F(1), 1200)
        with pytest.raises(RangeError, match=f"ell {ells[-1]!r} outside"):
            verify_converse(cfg, ells=ells, trials=10, seed=0)

    def test_numpy_integer_ells_report_ints(self):
        cfg = validate_config(3, 3, 3, F(1), 1200)
        reports = verify_converse(cfg, ells=[np.int64(3), np.int32(1)],
                                  trials=10, seed=6)
        assert [type(r.ell) for r in reports] == [int, int]
        assert repr(reports) == repr(verify_converse(cfg, ells=[3, 1],
                                                     trials=10, seed=6))

    @pytest.mark.parametrize("ell", [-1, 0, 2.0, "3"])
    def test_bad_ell_refused_before_the_noise_block(self, monkeypatch, ell):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew with a bad ell")

        monkeypatch.setattr(converse.np.random, "default_rng", no_draw)
        cfg = validate_config(3, 3, 3, F(1), 1200)
        with pytest.raises(RangeError, match=f"ell {ell!r} outside"):
            verify_converse(cfg, ells=[1, ell], trials=10, seed=0)

    @pytest.mark.parametrize("chunk", [1, 7, converse.TRIAL_CHUNK])
    def test_redraws_inside_a_chunk(self, monkeypatch, chunk):
        # at this limit 18% of the 3x3 draws are rejected at ell = 2 and
        # 39% at ell = 3; the 1x1 H1s at ell = 1 never are
        monkeypatch.setattr(converse, "H1_COND_LIMIT", 8.0)
        monkeypatch.setattr(converse, "TRIAL_CHUNK", chunk)
        cfg = validate_config(3, 3, 3, F(1), 1200)
        redraws = []
        expected = reference_verify(cfg, trials=40, seed=5, redraws=redraws)
        assert sum(redraws) > 20
        assert repr(verify_converse(cfg, trials=40, seed=5)) == repr(expected)

    def test_redraw_limit_is_exact(self, monkeypatch):
        monkeypatch.setattr(converse, "H1_COND_LIMIT", 8.0)
        cfg = validate_config(3, 3, 3, F(1), 1200)
        redraws = []
        reference_verify(cfg, ells=[3], trials=40, seed=5, redraws=redraws)
        longest = max(redraws)
        assert longest >= 2
        # a draw needing every allowed redraw passes ...
        monkeypatch.setattr(converse, "MAX_REDRAWS", longest)
        expected = reference_verify(cfg, ells=[3], trials=40, seed=5)
        assert repr(verify_converse(cfg, ells=[3], trials=40, seed=5)) == \
            repr(expected)
        # ... and one redraw fewer fails it
        monkeypatch.setattr(converse, "MAX_REDRAWS", longest - 1)
        with pytest.raises(SingularH1Error):
            verify_converse(cfg, ells=[3], trials=40, seed=5)

    @pytest.mark.parametrize("limit, max_redraws", [(0.5, 16), (4.0, 1)])
    def test_redraws_exhausted(self, monkeypatch, limit, max_redraws):
        # 0.5 rejects every draw; at 4.0 and one redraw 12 trials pass
        # before one runs out
        monkeypatch.setattr(converse, "H1_COND_LIMIT", limit)
        monkeypatch.setattr(converse, "MAX_REDRAWS", max_redraws)
        cfg = validate_config(3, 3, 3, F(1), 1200)
        with pytest.raises(SingularH1Error) as expected:
            reference_verify(cfg, ells=[2], trials=50, seed=0)
        with pytest.raises(SingularH1Error) as raised:
            verify_converse(cfg, ells=[2], trials=50, seed=0)
        assert str(raised.value) == str(expected.value)

    @given(channel_stacks())
    def test_stack_returns_its_one_draw_floats(self, case):
        h, x, noise, ell = case
        lams = [lambda_constant(one, ell) for one in h]
        assert lams == [reference_lambda(one, ell) for one in h]
        assert bits(lambda_constant(h, ell)) == bits(lams)
        usable = []
        for t, one in enumerate(h):
            try:
                build_submatrices(one, ell)
                usable.append(t)
            except SingularH1Error:
                pass
        if len(usable) < len(h):
            with pytest.raises(SingularH1Error):
                build_submatrices(h, ell)
        if not usable:
            return
        h, x, noise = h[usable], x[usable], noise[usable]
        cut = build_submatrices(h, ell)
        singles = [build_submatrices(one, ell) for one in h]
        for t, one in enumerate(singles):
            assert repr(draw_of(cut, t)) == repr(one)
        residuals = [reconstruction_residual(one, x[t], noise[t])
                     for t, one in enumerate(singles)]
        assert residuals == [reference_residual(one, x[t], noise[t])
                             for t, one in enumerate(singles)]
        assert bits(reconstruction_residual(cut, x, noise)) == bits(residuals)
        folded = [folded_channel(one) for one in singles]
        assert bits(folded_channel(cut)) == bits(folded)
        logdets = [logdet_term(one) for one in singles]
        assert logdets == [reference_logdet(one) for one in singles]
        assert bits(logdet_term(cut)) == bits(logdets)
        cov = noise_covariance(np.random.default_rng(len(h)), ell, 50)
        assert bits(noise_cov_check(cut, cov)) == bits(
            [one_noise_cov_check(one, cov) for one in singles])

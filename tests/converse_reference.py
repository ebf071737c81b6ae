"""The converse's per-draw exact oracle and noise path: references.

`converse.logdet_oracle` runs on a stack of draws, scales each column of
G by its own power of two and takes both of its determinants as Gram
determinants, det(G^T G) and det(H1^T H1), in one pivot-free elimination
of the whole stack; `converse.noise_cov_check` runs on a stack of draws
and reads one noise covariance S per call, which
`converse.noise_covariance` draws directly as Wishart(n, I)/n by
Bartlett's (1933) decomposition. These are the three as they stood
before: one draw at a time, with one power of two for the whole of G from
`as_integer_ratio`, det(G^T G) over det(H1)^2, and Bareiss's elimination
with pivoting on lists (`det_bareiss`); the noise check of one draw
against S; S as the sample covariance of a standard-normal block, the
distributional reference for Bartlett's S; and the covariance of the
folded noise block taken as one matrix product.
"""

import math
from fractions import Fraction

import numpy as np

from edgecache.converse import folded_channel
from edgecache.errors import SingularH1Error


def det_bareiss(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Bareiss's integer-preserving Gaussian elimination: every step divides
    exactly by the previous pivot, so entries stay integers whose size grows
    only linearly with the step. Pivots on the first nonzero entry of each
    column; a column without a pivot makes the matrix singular.
    """
    work = list(rows)
    sign, prev = 1, 1
    while work:
        pivot = next((r for r, row in enumerate(work) if row[0]), None)
        if pivot is None:
            return 0
        if pivot:
            work[0], work[pivot] = work[pivot], work[0]
            sign = -sign
        top = work[0]
        p = top[0]
        # eliminate column 0 and drop it with the pivot row
        work = [[(p * v - row[0] * w) // prev for v, w in zip(row[1:], top[1:])]
                for row in work[1:]]
        prev = p
    return sign * prev


def ratio_oracle(cut) -> float:
    """Exact log det(I + Ht Ht^T) of one draw as det(G^T G) / det(H1)^2.

    Every float coefficient is a dyadic rational, so one power of two turns
    G = [H1; H2] into an integer matrix; the scale cancels in the ratio,
    because both determinants are ell x ell.
    """
    ell = cut.ell
    if cut.h2.shape[0] == 0:
        return 0.0
    ratios = [[x.as_integer_ratio() for x in row]
              for row in np.vstack([cut.h1, cut.h2]).tolist()]
    scale = max(d for row in ratios for _, d in row)  # a power of two
    g = [[n * (scale // d) for n, d in row] for row in ratios]
    det_h1 = det_bareiss(g[:ell])
    if det_h1 == 0:
        raise SingularH1Error("H1 is exactly singular in the oracle path")
    gram = [[sum(row[i] * row[j] for row in g) for j in range(ell)]
            for i in range(ell)]
    det = Fraction(det_bareiss(gram), det_h1 ** 2)
    return math.log(det.numerator) - math.log(det.denominator)


def one_noise_cov_check(cut, cov: np.ndarray) -> float:
    """`converse.noise_cov_check` of one draw: max |Ht S Ht^T - Ht Ht^T| on
    the unit-spectral-norm Ht, 0 where Ht is empty or exactly zero."""
    ht = folded_channel(cut)
    if not ht.any():
        return 0.0
    ht = ht / np.linalg.svd(ht, compute_uv=False)[0]
    empirical = ht @ cov[:cut.ell, :cut.ell] @ ht.T
    return float(np.abs(empirical - ht @ ht.T).max())


def sample_cov(noise: np.ndarray) -> np.ndarray:
    """The block's sample covariance, summed in numpy's einsum loop."""
    return np.einsum("ij,kj->ik", noise, noise) / noise.shape[1]


def block_noise_covariance(rng, dim: int, samples: int) -> np.ndarray:
    """S from a (dim, samples) standard-normal block, drawn and reduced: the
    law `converse.noise_covariance` draws without the block."""
    return sample_cov(rng.standard_normal((dim, samples)))


def folded_noise_cov_check(cut, noise: np.ndarray) -> float:
    """Max entry error between the covariance of Ht n and Ht Ht^T.

    The noise n is the leading `ell` rows of `noise`, a standard-normal
    (rows >= ell, samples) block, folded by the unit-spectral-norm Ht and
    multiplied out as (Ht n)(Ht n)^T / samples.
    """
    ht = folded_channel(cut)
    if not ht.any():
        return 0.0
    ht = ht / np.linalg.svd(ht, compute_uv=False)[0]
    folded = ht @ noise[:cut.ell]
    empirical = folded @ folded.T / noise.shape[1]
    return float(np.abs(empirical - ht @ ht.T).max())

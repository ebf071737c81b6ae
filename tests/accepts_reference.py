"""The SVD acceptance tests: references for `phy`'s certified ones.

`phy._zf_accepts` and `phy._ia_accepts` accept most draws by a bound
computed in closed form and send only the rest through these tests, so
their answers must equal these on every draw.
"""

import numpy as np

from edgecache import phy


def zf_accepts_svd(h: np.ndarray) -> np.ndarray:
    """Whether each K x M draw of `h` (..., K, M) has full row rank."""
    return np.linalg.matrix_rank(h) >= h.shape[-2]


def ia_accepts_svd(h_slots: np.ndarray) -> np.ndarray:
    """Whether each slot draw of a (..., 3, 2, 2) stack admits the alignment.

    No coefficient may be numerically zero, and both users' receive bases
    must have sigma_3 > 1e-9 sigma_1.
    """
    nonzero = np.abs(h_slots).min(axis=(-3, -2, -1)) >= 1e-12
    # rejected draws are swapped for finite ones before the SVD sees them
    finite = np.where(nonzero[..., None, None, None], h_slots, 1.0)
    svals = np.linalg.svd(phy._ia_bases(finite)[1], compute_uv=False)
    return nonzero & (svals[..., -1] > svals[..., 0] * 1e-9).all(axis=-1)

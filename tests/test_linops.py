"""Dense/sparse helpers: the R-only QR kernel."""

import numpy as np
import pytest

from fftriccati.linops import qr_r


@pytest.mark.parametrize("m, k", [
    (200, 1), (1, 1), (1, 5), (200, 7), (200, 45), (45, 45), (12, 40), (30, 90),
    (2000, 130),
])
def test_qr_r_matches_numpy(m, k):
    # tall, wide and square K; k = 1, k < 32 and k > 32 (block size 32)
    K = np.random.default_rng([m, k]).standard_normal((m, k))
    R = qr_r(K)
    ref = np.linalg.qr(K, mode="r")
    assert R.shape == ref.shape == (min(m, k), k)
    assert np.array_equal(R, np.triu(R))
    # rows agree up to sign
    signs = np.sign(np.diag(R)) * np.sign(np.diag(ref))
    np.testing.assert_allclose(signs[:, None] * R, ref,
                               atol=1e-13 * np.abs(ref).max())
    G = K.T @ K
    assert np.linalg.norm(R.T @ R - G) <= 1e-13 * np.linalg.norm(G)


def test_qr_r_leaves_input_unchanged():
    K = np.random.default_rng(3).standard_normal((50, 60)).T
    before = K.copy()
    qr_r(K)
    assert np.array_equal(K, before)

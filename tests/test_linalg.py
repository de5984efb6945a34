import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlrt import linalg
from dlrt.linalg import (
    DimensionError,
    NumericError,
    as_matrix,
    householder_qr,
    ortho_augment,
    svd_thin,
)


def test_qr_hand_case_column_3_4():
    # Single column (3, 4): unit direction (0.6, 0.8), norm 5.
    q, r = householder_qr(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(q, [[0.6], [0.8]], atol=1e-15)
    np.testing.assert_allclose(r, [[5.0]], atol=1e-15)


def test_qr_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 5))
    q, r = householder_qr(a)
    assert np.linalg.norm(a - q @ r) <= 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-14 * np.sqrt(5) * 10
    # upper triangular with non-negative diagonal
    assert np.allclose(r, np.triu(r))
    assert (np.diagonal(r) >= 0).all()


def test_qr_sign_convention_on_negated_input():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 4))
    r1 = householder_qr(a).r
    r2 = householder_qr(-a).r
    assert (np.diagonal(r1) >= 0).all()
    assert (np.diagonal(r2) >= 0).all()
    # same column geometry, so the R factors coincide
    np.testing.assert_allclose(r1, r2, atol=1e-12)


def test_qr_deterministic_bitwise():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((20, 6))
    res1 = householder_qr(a)
    res2 = householder_qr(a.copy())
    assert np.array_equal(res1.q, res2.q)
    assert np.array_equal(res1.r, res2.r)


def test_qr_rejects_wide_input():
    with pytest.raises(DimensionError):
        householder_qr(np.zeros((2, 5)))


def test_qr_rejects_non_finite():
    a = np.ones((3, 2))
    a[1, 1] = np.nan
    with pytest.raises(NumericError):
        householder_qr(a)


def test_qr_rank_deficient_keeps_contract():
    a = np.zeros((6, 3))
    a[:, 0] = 1.0
    a[:, 1] = 2.0  # dependent on column 0
    a[0, 2] = -1.0
    q, r = householder_qr(a)
    assert np.linalg.norm(a - q @ r) <= 1e-13
    assert (np.diagonal(r) >= 0).all()
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-13


def assert_augments(u0, k1):
    """The ortho_augment contract: u0 bit for bit first, orthonormal, spans k1."""
    basis = ortho_augment(u0, k1)
    assert np.array_equal(basis[:, : u0.shape[1]], u0)
    assert np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-12
    assert np.linalg.norm(k1 - basis @ (basis.T @ k1)) <= 1e-10
    return basis


def test_ortho_augment_spans_both_blocks():
    rng = np.random.default_rng(5)
    u0 = householder_qr(rng.standard_normal((20, 3))).q
    basis = assert_augments(u0, rng.standard_normal((20, 3)))
    assert basis.shape == (20, 6)


def test_ortho_augment_drops_duplicate_columns():
    rng = np.random.default_rng(6)
    u0 = householder_qr(rng.standard_normal((15, 4))).q
    assert assert_augments(u0, u0.copy()).shape == (15, 4)


def test_ortho_augment_drops_zero_block():
    rng = np.random.default_rng(8)
    u0 = householder_qr(rng.standard_normal((12, 3))).q
    assert assert_augments(u0, np.zeros((12, 3))).shape == (12, 3)


def test_ortho_augment_zero_first_column():
    # the zero residual column leaves an arbitrary Householder column;
    # projecting and factoring once would keep it (orthonormality error ~0.5)
    rng = np.random.default_rng(12)
    u0 = householder_qr(rng.standard_normal((20, 4))).q
    k1 = rng.standard_normal((20, 4))
    k1[:, 0] = 0.0
    assert assert_augments(u0, k1).shape == (20, 7)
    # same with u0 holding coordinate axes, where that column can lie in span(u0)
    assert assert_augments(np.eye(20)[:, :4], k1).shape == (20, 7)


def test_ortho_augment_middle_column_in_span():
    rng = np.random.default_rng(13)
    u0 = householder_qr(rng.standard_normal((20, 4))).q
    k1 = rng.standard_normal((20, 4))
    k1[:, 1] = u0 @ rng.standard_normal(4)
    assert assert_augments(u0, k1).shape == (20, 7)


def test_ortho_augment_nearly_parallel_columns():
    # an ill-conditioned residual leaves q with a component along u0 far
    # above rounding (about 1e-5 here), which the re-projection removes
    rng = np.random.default_rng(14)
    u0 = householder_qr(rng.standard_normal((40, 6))).q
    k1 = rng.standard_normal((40, 6))
    k1[:, 3] = k1[:, 0] + 1e-11 * rng.standard_normal(40)
    assert assert_augments(u0, k1).shape == (40, 12)


def test_ortho_augment_square_u0_returned_alone():
    rng = np.random.default_rng(15)
    u0 = householder_qr(rng.standard_normal((6, 6))).q
    assert assert_augments(u0, rng.standard_normal((6, 6))).shape == (6, 6)


def test_ortho_augment_square_u0_skips_the_residual(monkeypatch):
    # a square u0 spans R^m, so no projection or QR can add a column
    rng = np.random.default_rng(17)
    u0 = householder_qr(rng.standard_normal((10, 10))).q
    calls = []
    monkeypatch.setattr(linalg, "_signed_qr", lambda a: calls.append(a.shape))
    basis = ortho_augment(u0, rng.standard_normal((10, 4)))
    assert basis is u0
    assert calls == []


def test_ortho_augment_complement_narrower_than_k1():
    # m - r = 2 < 3 columns of k1: one residual column is dependent
    rng = np.random.default_rng(16)
    u0 = householder_qr(rng.standard_normal((5, 3))).q
    assert assert_augments(u0, rng.standard_normal((5, 3))).shape == (5, 5)


def test_ortho_augment_row_mismatch():
    with pytest.raises(DimensionError):
        ortho_augment(np.zeros((4, 2)), np.zeros((5, 2)))


def test_svd_thin_diagonal_case():
    l = np.diag([3.0, 2.0, 1.0])
    p, sigma, qmat = svd_thin(l)
    np.testing.assert_allclose(sigma, [3.0, 2.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(p @ np.diag(sigma) @ qmat.T, l, atol=1e-14)


def test_svd_thin_reconstruction_random():
    rng = np.random.default_rng(9)
    l = rng.standard_normal((20, 6))
    p, sigma, qmat = svd_thin(l)
    assert np.linalg.norm(l - p @ np.diag(sigma) @ qmat.T) <= 1e-10 * np.linalg.norm(l)
    assert (np.diff(sigma) <= 1e-14).all()
    assert (sigma >= 0).all()
    assert np.linalg.norm(p.T @ p - np.eye(6)) <= 1e-12
    assert np.linalg.norm(qmat.T @ qmat - np.eye(6)) <= 1e-12


def test_svd_thin_matches_gram_eigenvalue_route():
    # Independent oracle: singular values from the eigendecomposition of
    # the Gram matrix l.T @ l.
    rng = np.random.default_rng(10)
    l = rng.standard_normal((30, 5))
    sigma = svd_thin(l).sigma
    gram_eigs = np.linalg.eigvalsh(l.T @ l)[::-1]
    oracle = np.sqrt(np.clip(gram_eigs, 0.0, None))
    np.testing.assert_allclose(sigma, oracle, rtol=1e-8)


def test_svd_thin_wide_factorization():
    # 2 x 4 with singular values 3, 2 in columns 0 and 2
    l = np.array([[3.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]])
    p, sigma, qmat = svd_thin(l)
    assert p.shape == (2, 2) and sigma.shape == (2,) and qmat.shape == (4, 2)
    np.testing.assert_array_equal(sigma, [3.0, 2.0])
    np.testing.assert_array_equal(np.abs(p), np.eye(2))
    np.testing.assert_array_equal(np.abs(qmat), np.eye(4)[:, [0, 2]])
    np.testing.assert_array_equal(p @ np.diag(sigma) @ qmat.T, l)


def test_svd_thin_failure_is_numeric_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericError, match="SVD failed to converge"):
        svd_thin(np.eye(3))


def test_as_matrix_rejects_vector():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros(4))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=16),
    k=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_qr_contract_property(m, k, seed):
    if m < k:
        m, k = k, m
    a = np.random.default_rng(seed).standard_normal((m, k))
    q, r = householder_qr(a)
    assert np.linalg.norm(a - q @ r) <= 1e-12 * max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12 * np.sqrt(k)
    assert (np.diagonal(r) >= 0).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    q=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_svd_contract_property(n, q, seed):
    if n < q:
        n, q = q, n
    l = np.random.default_rng(seed).standard_normal((n, q))
    p, sigma, qmat = svd_thin(l)
    assert np.linalg.norm(l - p @ np.diag(sigma) @ qmat.T) <= 1e-10 * max(
        1.0, np.linalg.norm(l)
    )
    assert (np.diff(sigma) <= 1e-12).all()

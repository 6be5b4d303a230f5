import numpy as np
import pytest

from sparsepr import (
    Field,
    generate_ensemble,
    hermitian_top_eig,
    null_space_vector,
    numerical_rank,
)
from sparsepr import numerics
from sparsepr.numerics import batched_ranks
from helpers import least_squares
from oracles import svd_batched_ranks, svd_rank


def test_rank_simple_cases():
    assert numerical_rank([[1.0, 0.0], [0.0, 0.0]]).rank == 1
    assert numerical_rank([[1.0, 1.0], [1.0, 1.0 + 1e-13]]).rank == 1
    assert numerical_rank(np.zeros((3, 2))).rank == 0


def test_rank_gaussian_seed5():
    A = generate_ensemble(Field.REAL, 4, 4, 5)
    assert numerical_rank(A.entries).rank == svd_rank(A.entries) == 4


def test_rank_decision_fields():
    d = numerical_rank([[2.0, 0.0], [0.0, 1e-14]])
    assert d.rank == 1
    assert d.largest_dropped_sv <= d.tol_used < d.smallest_kept_sv
    assert not d.fragile
    flaky = numerical_rank(np.diag([1.0, 5e-10]), tol_rel=1e-10)
    assert flaky.rank == 2 or flaky.fragile  # near the threshold the gap is surfaced


def test_rank_rejects_nonfinite():
    with pytest.raises(ValueError):
        numerical_rank([[np.nan, 1.0]])


def test_least_squares_examples():
    r = least_squares(np.array([[1.0], [1.0]]), [2.0, 2.0])
    assert np.allclose(r.x, [2.0]) and r.residual_norm <= 1e-12 and not r.degenerate
    r2 = least_squares(np.array([[1.0], [1.0]]), [1.0, -1.0])
    assert np.allclose(r2.x, [0.0]) and np.isclose(r2.residual_norm, np.sqrt(2.0))


def test_least_squares_consistent_recovery():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((6, 3))
    x0 = rng.standard_normal(3)
    r = least_squares(M, M @ x0)
    assert np.max(np.abs(r.x - x0)) <= 1e-10


def test_least_squares_flags_degenerate():
    M = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert least_squares(M, [1.0, 2.0, 3.0]).degenerate


def test_hermitian_top_eig_examples():
    w, v1 = hermitian_top_eig(np.diag([4.0, 1.0]))
    assert np.allclose(w, [4.0, 1.0])
    assert np.allclose(np.abs(v1), [1.0, 0.0])

    x = np.array([1.0, 1j])
    X = np.outer(x, x.conj())
    w, v1 = hermitian_top_eig(X)
    assert np.allclose(w, [2.0, 0.0], atol=1e-12)
    overlap = abs(np.vdot(v1, x / np.linalg.norm(x)))
    assert np.isclose(overlap, 1.0, atol=1e-12)


def test_hermitian_top_eig_reconstruction():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X = (B + B.conj().T) / 2
    w, v1 = hermitian_top_eig(X)
    wf, vf = np.linalg.eigh(X)
    assert np.allclose(np.sort(w), wf, atol=1e-10)
    recon = sum(wf[i] * np.outer(vf[:, i], vf[:, i].conj()) for i in range(4))
    assert np.max(np.abs(recon - X)) <= 1e-10
    assert np.linalg.norm(X @ v1 - w[0] * v1) <= 1e-10 * np.linalg.norm(X)


def test_hermitian_top_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_top_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_null_space_vector_examples():
    v = null_space_vector(np.array([[1.0, 1.0]]))
    assert np.allclose(np.abs(v), np.abs(np.array([1.0, -1.0]) / np.sqrt(2)))
    v2 = null_space_vector(np.array([[1.0, 2.0]]))
    assert np.allclose(np.abs(v2), np.abs(np.array([2.0, -1.0]) / np.sqrt(5)))
    M = np.random.default_rng(13).standard_normal((3, 4))
    v3 = null_space_vector(M)
    assert np.linalg.norm(M @ v3) <= 1e-10 * np.linalg.svd(M, compute_uv=False)[0]
    assert np.isclose(np.linalg.norm(v3), 1.0)


def test_null_space_vector_rejects_full_rank():
    with pytest.raises(ValueError):
        null_space_vector(np.eye(3))


def _rank_stacks():
    """Seeded stacks per shape: generic, duplicated or near-duplicated column,
    integer entries, extreme scales, and singular values spread down to 1e-12."""
    rng = np.random.default_rng(17)
    for shape in [(6, 6), (6, 4), (7, 7), (4, 6), (3, 1), (1, 3), (8, 8)]:
        t = min(shape)
        base = rng.standard_normal((500, *shape))
        dup = base.copy()
        dup[:, :, -1] = dup[:, :, 0]
        near = base.copy()
        near[:, :, -1] = near[:, :, 0] + 1e-9 * rng.standard_normal(shape[0])
        scaled = base * 10.0 ** rng.uniform(-160, 160, size=(500, 1, 1))
        u, _, vt = np.linalg.svd(base)
        s = 10.0 ** rng.uniform(-12, 0, size=(500, t))
        s[:, 0] = 1.0
        spread = (u[..., :t] * s[:, None, :]) @ vt[..., :t, :]
        for stack in (base, dup, near, np.round(base), scaled, spread, np.zeros((3, *shape))):
            yield shape, stack


def test_batched_ranks_match_svd_policy():
    # the full-rank screen may skip SVDs but never changes a rank or fragile flag
    for shape, stack in _rank_stacks():
        ranks, fragile = batched_ranks(stack)
        want_ranks, want_fragile = svd_batched_ranks(stack)
        assert np.array_equal(ranks, want_ranks), shape
        assert np.array_equal(fragile, want_fragile), shape
    stack = np.random.default_rng(3).standard_normal((400, 2, 6, 6))
    ranks, fragile = batched_ranks(stack)
    assert ranks.shape == fragile.shape == (400, 2)
    assert np.array_equal(ranks, svd_batched_ranks(stack)[0])


def test_batched_ranks_send_only_unproven_matrices_to_svd(monkeypatch):
    sent = []
    real = numerics._svd_ranks
    monkeypatch.setattr(numerics, "_svd_ranks", lambda stack, tol: sent.append(len(stack)) or real(stack, tol))
    generic = np.random.default_rng(5).standard_normal((1000, 6, 6))
    batched_ranks(generic)
    assert sum(sent) < 50  # most well-conditioned matrices are proven full rank
    sent.clear()
    generic[:, :, 5] = generic[:, :, 0]
    assert np.all(batched_ranks(generic)[0] == 5)
    assert sum(sent) == 1000  # deficiency is only ever decided by the SVD

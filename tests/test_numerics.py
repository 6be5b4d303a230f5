from fractions import Fraction
from math import comb

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
from sparsepr.model import sign_table
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


def _rational_gram_det(M: np.ndarray) -> Fraction:
    """det(M^T M) of the stored floats, in exact rational arithmetic."""
    cols = [[Fraction(float(x)) for x in col] for col in M.T]
    G = [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]
    det = Fraction(1)
    for c in range(len(G)):
        pivot = next((r for r in range(c, len(G)) if G[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        G[c], G[pivot] = G[pivot], G[c]
        det *= G[c][c] if pivot == c else -G[c][c]
        for r in range(c + 1, len(G)):
            f = G[r][c] / G[c][c]
            G[r] = [x - f * y for x, y in zip(G[r], G[c])]
    return det


def test_laplace_gram_radius_bounds_the_exact_determinant():
    # |sqrt(G) - sqrt(det(M^T M))| <= B for the table's scaled A, with det(M^T M)
    # exact; on near-duplicate columns the minors cancel to 1e-9
    rng = np.random.default_rng(23)
    checked = 0
    for m, n, kind in ((4, 6, 0), (5, 7, 1), (5, 7, 2)):
        E = rng.standard_normal((m, n))
        if kind == 1:
            E[:, -1] = E[:, 0] + 1e-9 * rng.standard_normal(m)
        elif kind == 2:
            E *= 10.0 ** rng.uniform(-3, 3, size=n)
        table = numerics._minor_table(E, m - 1)
        A = np.ldexp(E, -int(np.frexp(np.abs(E).max())[1]))
        signs = sign_table(m)[1:]
        for t in range(2, m + 1):
            for a in range(max(1, t - m + 1), t // 2 + 1):
                ci, cj = numerics._combos(n, a), numerics._combos(n, t - a)
                pi, pj = rng.integers(len(ci), size=3), rng.integers(len(cj), size=3)
                if kind == 1:
                    pi[0], pj[0] = 0, len(cj) - 1  # both near-duplicate columns in one pair
                H = numerics._pattern_products(m, t, a, signs)
                G, B = numerics._laplace_gram(table, ci[pi], cj[pj], H)
                for k in range(3):
                    for q in rng.integers(len(signs), size=2):
                        M = np.concatenate([A[:, ci[pi[k]]], signs[q][:, None] * A[:, cj[pj[k]]]], axis=1)
                        exact = np.sqrt(float(_rational_gram_det(M)))
                        # B bounds ||D_hat - D||; G's own sum errs by a relative 2 gamma_(nR + 1)
                        slack = (comb(m, t) + 2) * 2.0 ** -52 * np.sqrt(G[k, q])
                        assert abs(np.sqrt(G[k, q]) - exact) <= B[k] + slack, (m, t, a, k, q)
                        checked += 1
    assert checked > 90

"""Small dense linear-algebra kernels with an explicit tolerance policy.

One global policy: numerical rank counts singular values above a relative
SVD threshold (default 1e-10 of the largest).  Desk-scale Gaussian matrices
have singular-value gaps many orders above this, so decisions are crisp;
the gap is recorded anyway so borderline calls can be surfaced as fragile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "FRAGILE_GAP",
    "RankDecision",
    "numerical_rank",
    "batched_ranks",
    "hermitian_top_eig",
    "null_space_vector",
]

DEFAULT_RANK_TOL = 1e-10
FRAGILE_GAP = 10.0
# Factor by which the full-rank screen's threshold exceeds both tol_rel and
# its own roundoff floor (see _certified_full_rank).
_SCREEN_MARGIN = 100.0


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a numerical rank computation, with the decision gap."""

    rank: int
    smallest_kept_sv: float
    largest_dropped_sv: float
    tol_used: float

    @property
    def gap(self) -> float:
        """Ratio smallest kept / largest dropped; inf when nothing was dropped."""
        if self.largest_dropped_sv <= 0.0:
            return np.inf
        if self.rank == 0:
            return 0.0
        return self.smallest_kept_sv / self.largest_dropped_sv

    @property
    def fragile(self) -> bool:
        """A decision within a 10x gap of the threshold is flagged as flaky."""
        return self.gap < FRAGILE_GAP


def numerical_rank(M, tol_rel: float = DEFAULT_RANK_TOL) -> RankDecision:
    """Rank = number of singular values above tol_rel * sigma_max."""
    M = np.asarray(M)
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("numerical_rank requires finite entries")
    if tol_rel <= 0:
        raise ValueError("tol_rel must be positive")
    s = np.linalg.svd(M, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    tol = tol_rel * smax
    rank = int(np.sum(s > tol))
    kept = float(s[rank - 1]) if rank > 0 else 0.0
    dropped = float(s[rank]) if rank < s.size else 0.0
    return RankDecision(rank=rank, smallest_kept_sv=kept, largest_dropped_sv=dropped, tol_used=tol)


def batched_ranks(stack: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL):
    """Ranks and fragility flags for a (..., m, k) stack of matrices.

    Returns (ranks, fragile) with the leading batch shape.  Used by the
    distance enumeration and the spark check, where hundreds of thousands
    of tiny rank decisions are needed; the decisions match numerical_rank
    exactly.  A Gram-determinant screen (_certified_full_rank) proves most
    matrices full rank without an SVD; a full-rank decision drops nothing,
    so it is never fragile.  Every matrix the screen does not prove full
    rank is decided by the SVD, so deficiency is only ever decided there.
    """
    stack = np.asarray(stack)
    rows, cols = stack.shape[-2:]
    flat = stack.reshape(-1, rows, cols)
    ranks = np.full(flat.shape[0], min(rows, cols))
    fragile = np.zeros(flat.shape[0], dtype=bool)
    rest = np.flatnonzero(~_certified_full_rank(flat, tol_rel))
    if rest.size:
        ranks[rest], fragile[rest] = _svd_ranks(flat[rest], tol_rel)
    return ranks.reshape(stack.shape[:-2]), fragile.reshape(stack.shape[:-2])


def _svd_ranks(stack: np.ndarray, tol_rel: float):
    """The numerical_rank policy, batched: one SVD per matrix."""
    s = np.linalg.svd(stack, compute_uv=False)
    smax = s[..., 0]
    tol = tol_rel * smax
    ranks = np.sum(s > tol[..., None], axis=-1)
    nsv = s.shape[-1]
    idx_kept = np.clip(ranks - 1, 0, nsv - 1)
    idx_drop = np.clip(ranks, 0, nsv - 1)
    kept = np.take_along_axis(s, idx_kept[..., None], axis=-1)[..., 0]
    dropped = np.where(ranks < nsv, np.take_along_axis(s, idx_drop[..., None], axis=-1)[..., 0], 0.0)
    fragile = (ranks > 0) & (ranks < nsv) & (dropped > 0) & (kept < FRAGILE_GAP * dropped)
    return ranks, fragile


def _certified_full_rank(stack: np.ndarray, tol_rel: float) -> np.ndarray:
    """Mask of the (N, r, c) matrices that the SVD policy provably calls full rank.

    Bound.  Let t = min(r, c), G the t-by-t Gram matrix of the smaller side
    (M^T M or M M^T) and F = ||M||_F, so trace(G) = F^2 and the
    eigenvalues of G are the squared singular values of M.  For any t-by-t
    X, |det X| = prod sigma_i(X) <= sigma_t(X) (S / (t - 1))^(t - 1), with S
    the sum of the other t - 1 singular values (AM-GM), and
    sigma_max(M) <= F.  Applied to X = G this gives

        sigma_min / sigma_max >= rho := sqrt(det G) (t - 1)^((t - 1)/2) / F^t.

    Roundoff (u = eps / 2, gamma_j = j u / (1 - j u)).  The computed Gram is
    G + E1 with ||E1||_2 <= gamma_n F^2, n = max(r, c) the inner dimension.
    slogdet factors it by LU with partial pivoting, exact for G + E1 + E2
    with |E2| <= gamma_t |L||U|, |l_ij| <= 1 and growth at most 2^(t-1), so
    ||E2||_2 <= gamma_t t^2 2^(t-1) (1 + gamma_n) F^2.  With E = E1 + E2,
    ||E||_2 <= delta F^2 and delta = gamma_n + gamma_t t^2 2^(t-1) (1 + gamma_n).
    The computed determinant is det X for X = G + E, whose nuclear norm is
    at most F^2 (1 + t delta), and Weyl's inequality sigma_t(G) >=
    sigma_t(X) - ||E||_2 turns the bound above into

        (sigma_min / sigma_max)^2 >= rho_hat^2 / (1 + t delta)^(t - 1) - delta,

    where rho_hat is rho evaluated on the computed det X and trace(G).
    The rounding of slogdet's log-sum and of the trace changes rho_hat by
    a relative 1e-10 at most.  The screen accepts when rho_hat > tau =
    100 max(tol_rel, sqrt(delta)).  AM-GM over all t singular values of X
    gives rho_hat <= t^(-1/2) (1 + t delta)^(t/2), which is below tau for
    t >= 22, so acceptance needs t <= 21, where (1 + t delta)^(t - 1) <=
    1.001.  The right-hand side then exceeds (0.998 - 1e-4) rho_hat^2, so
    sigma_min / sigma_max > 99 max(tol_rel, sqrt(delta)).  The SVD computes
    the singular values of M + dM with ||dM||_2 <= eps_svd sigma_max and
    eps_svd = p(r, c) u of order 1e-14 at these shapes, far below
    sqrt(delta) >= sqrt(u) ~ 1e-8.  Its smallest computed singular value
    therefore exceeds tol_rel times its largest with at least 90x to spare:
    the SVD policy would keep all t singular values and drop none.

    Matrices with F^2 outside [1e-280, 1e280] are left to the SVD, so the
    Gram and the LU neither overflow nor lose accuracy to underflow.  A
    failed screen decides nothing.
    """
    rows, cols = stack.shape[-2:]
    t = min(rows, cols)
    u = np.finfo(np.float64).eps / 2

    def gamma(j: int) -> float:
        return j * u / (1 - j * u)

    inner = max(rows, cols)
    delta = gamma(inner) + gamma(t) * t * t * 2.0 ** (t - 1) * (1 + gamma(inner))
    log_tau = np.log(_SCREEN_MARGIN * max(tol_rel, np.sqrt(delta)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if cols <= rows:
            gram = np.matmul(stack.transpose(0, 2, 1), stack)
        else:
            gram = np.matmul(stack, stack.transpose(0, 2, 1))
        fro2 = np.einsum("nii->n", gram)
        _, logdet = np.linalg.slogdet(gram)
        log_rho = 0.5 * logdet + 0.5 * (t - 1) * np.log(max(t - 1, 1)) - 0.5 * t * np.log(fro2)
        return (fro2 >= 1e-280) & (fro2 <= 1e280) & (log_rho > log_tau)


def hermitian_top_eig(X) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and a unit top eigenvector of a Hermitian X."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("hermitian_top_eig requires a square matrix")
    scale = max(1.0, float(np.max(np.abs(X))))
    if np.max(np.abs(X - X.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance 1e-12")
    w, v = np.linalg.eigh((X + X.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    v1 = v[:, 0] / np.linalg.norm(v[:, 0])
    return w, v1


def null_space_vector(M, tol_rel: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """A unit right-null vector of M (the smallest right singular vector).

    Raises when M is numerically full column rank, i.e. has no null space.
    """
    M = np.asarray(M)
    m, c = M.shape
    u, s, vt = np.linalg.svd(M)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol_rel * smax))
    if rank >= c:
        raise ValueError("matrix is numerically full column rank; no null vector")
    v = vt[-1].conj()
    resid = float(np.linalg.norm(M @ v))
    if smax > 0 and resid > 1e-10 * smax:
        raise ValueError(f"null vector residual {resid:.3e} exceeds 1e-10 * sigma_max")
    return v

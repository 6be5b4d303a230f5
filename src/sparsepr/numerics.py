"""Small dense linear-algebra kernels with an explicit tolerance policy.

One global policy: numerical rank counts singular values above a relative
SVD threshold (default 1e-10 of the largest).  Desk-scale Gaussian matrices
have singular-value gaps many orders above this, so decisions are crisp;
the gap is recorded anyway so borderline calls can be surfaced as fragile.

Both exact solvers share one least-squares screen (_lstsq_screen): it
proves, in batch and with an explicit roundoff margin, that most
candidate systems fail their residual test, so only the rest are solved.
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


def _pivot_rows(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row order of each (m, k) matrix of an (N, m, k) stack under Gaussian
    elimination with partial pivoting, pivot rows first, and the smallest
    |pivot| of each (NaN or 0 when the elimination breaks down)."""
    N, m, k = stack.shape
    work = stack.copy()
    order = np.tile(np.arange(m), (N, 1))
    rows = np.arange(N)
    min_pivot = np.full(N, np.inf)
    for j in range(k):
        p = j + np.argmax(np.abs(work[:, j:, j]), axis=1)
        for arr in (work, order):
            top = arr[rows, j].copy()
            arr[rows, j] = arr[rows, p]
            arr[rows, p] = top
        pivot = work[:, j, j]
        min_pivot = np.minimum(min_pivot, np.abs(pivot))
        work[:, j + 1:, j:] -= (work[:, j + 1:, j] / pivot[:, None])[:, :, None] * work[:, j, None, j:]
    return order, min_pivot


def _lstsq_screen(stack: np.ndarray, t: np.ndarray, signs: np.ndarray, resid_tol: float) -> np.ndarray:
    """Mask of the (N, m, k) stack of real matrices M on which the exact
    residual test may accept.

    The test, shared by both exact solvers: for a right-hand side r with
    |r| = t (t >= 0, length m) it takes any X -- lstsq's output, of which
    nothing else is used, so lstsq's rcond truncation needs no case of its
    own -- computes r - M X or M X - r (the two round alike) and its
    2-norm, and accepts when that norm is at most resid_tol.  Only the r
    whose signs on the pivot rows R below are, up to a global flip, a row
    s of signs (S, k), r_R = +-s * t[R], need ruling out.  The real solver
    passes sign_table(k), which covers every sign vector; the Hermitian
    lift, whose one right-hand side is t = y^2, passes a row of ones.  A
    False entry is a proof that the test accepts no such r on that M; a
    True entry proves nothing.

    Screen.  Partial pivoting picks k rows R of M; B = M[R] (k x k),
    C = M[R^c] and T = C B^-1.  For each row s of signs, with
    v = s * t[R], the screen predicts the other rows as P = T v and
    takes mu = min over s of || |P| - t[R^c] ||_2.

    Bound.  Suppose the test accepts r with output X.  Let e = M X - r
    (exact arithmetic on the stored floats), with ||e|| <= rho.  Then
    B X = r_R + e_R and C X = r_Rc + e_Rc, so T r_R = C X - T e_R =
    r_Rc + e_Rc - T e_R.  Up to a global flip, r_R is one of the screen's
    v, and ||a| - |b|| <= |a - b| with |r_Rc| = t[R^c] gives

        || |T v| - t[R^c] || <= ||e_Rc|| + ||T|| ||e_R|| <= (1 + ||T||) rho.

    Any R works: ||T|| is bounded from computed quantities, not assumed.

    Roundoff (u = eps / 2, gamma_j = j u / (1 - j u); a matrix product
    with inner dimension j errs by at most gamma_j |X| |Y| entrywise, and
    ||X||_2 <= ||X||_F).  W is the computed inverse of B and Z the computed
    B W - I, so ||B W - I|| <= zeta = ||Z|| + gamma_(k+1) ||B|| ||W||.  For
    zeta < 1, B W = I + E with ||E|| <= zeta gives B^-1 = W (I + E)^-1 and
    T = C W (I + E)^-1, so ||B^-1|| <= beta = ||W|| / (1 - zeta) and
    ||T|| <= tau = (||T_hat|| + gamma_k ||C|| ||W||) / (1 - zeta), where
    T_hat is the computed C W.  Also T_hat - T = (T_hat - C W) - T E, so
    ||T_hat - T|| <= gamma_k ||C|| ||W|| + tau zeta.

    rho: the accepted residual's computed norm is at most resid_tol.
    Forming r - M X errs by gamma_(k+1) (|r| + |M| |X|) and the norm's
    sum of squares and square root by a relative gamma_(m+1), so
    ||e|| <= resid_tol (1 + gamma_(m+1)) + gamma_(k+1) (||t|| + ||M|| ||X||),
    and ||X|| <= beta (||t|| + ||e||) because B X = r_R + e_R.  With
    g = gamma_(k+1) ||M|| beta < 1 this solves to

        rho = (resid_tol (1 + gamma_(m+1)) + gamma_(k+1) (1 + ||M|| beta) ||t||) / (1 - g).

    The computed P_hat = fl(T_hat v) differs from T v by at most
    (gamma_k ||T_hat|| + gamma_k ||C|| ||W|| + tau zeta) ||v||, with
    ||v|| <= ||t||, and the computed mismatch norm errs by a relative
    gamma_(m+1).  So when the test accepts, the computed mu is at most
    (1 + gamma_(m+1)) times

        bound = (1 + tau) rho + (gamma_k (||T_hat|| + ||C|| ||W||) + tau zeta) ||t||.

    Underflow adds at most 2^-1074 per operation.  The screen runs only
    when max |M| and max t lie in [2^-400, 2^400], so no norm or product
    overflows unless it returns inf, and every underflow error, amplified
    by the factors above, stays below eta = 2^-500, which the bound adds
    to zeta, tau's numerator, rho's numerator and the total.  Each norm
    (at most m k terms), product and sum in the bound itself, like the
    subtraction of I in Z, is evaluated with relative error under 1e-8
    for m k <= 2^20 (zeta, g <= 1/2 keep the divisions tame), so the
    screen flags when mu_hat <= 2 bound.

    It also flags M when any pivot is at most DEFAULT_RANK_TOL times
    max |M| (so a flag-free M has full column rank with a wide margin),
    when zeta or g exceeds 1/2, when max |M| or max t is out of range,
    and when any mismatch or the bound is not finite.  When k >= m there
    are no rows outside the pivots, and when m k > 2^20 the evaluation
    claim above is not made; both flag every M.  Flagging is always safe:
    a flagged M gets the exact test.
    """
    N, m, k = stack.shape
    if k >= m or m * k > 1 << 20:
        return np.ones(N, dtype=bool)
    u = np.finfo(np.float64).eps / 2

    def gamma(j: int) -> float:
        return j * u / (1 - j * u)

    lo, hi, eta = 2.0 ** -400, 2.0 ** 400, 2.0 ** -500
    t_max = float(t.max())
    if not lo <= t_max <= hi:
        return np.ones(N, dtype=bool)
    nt = float(np.linalg.norm(t))
    with np.errstate(all="ignore"):
        order, min_pivot = _pivot_rows(stack)
        a_max = np.abs(stack).max(axis=(1, 2))
        usable = (min_pivot > DEFAULT_RANK_TOL * a_max) & (a_max >= lo) & (a_max <= hi)
        B = np.take_along_axis(stack, order[:, :k, None], axis=1)
        C = np.take_along_axis(stack, order[:, k:, None], axis=1)
        try:
            W = np.linalg.inv(np.where(usable[:, None, None], B, np.eye(k)))
        except np.linalg.LinAlgError:
            return np.ones(N, dtype=bool)
        T = C @ W
        Z = B @ W - np.eye(k)
        nB, nC, nW, nT, nZ = (np.linalg.norm(X, axis=(1, 2)) for X in (B, C, W, T, Z))
        nM = np.sqrt(nB * nB + nC * nC)
        zeta = nZ + gamma(k + 1) * nB * nW + eta
        tau = (nT + gamma(k) * nC * nW + eta) / (1 - zeta)
        beta = nW / (1 - zeta)
        g = gamma(k + 1) * nM * beta
        rho = (resid_tol * (1 + gamma(m + 1)) + gamma(k + 1) * (1 + nM * beta) * nt + eta) / (1 - g)
        bound = (1 + tau) * rho + (gamma(k) * (nT + nC * nW) + tau * zeta) * nt + eta
        t_R = t[order[:, :k]]
        P = np.abs(T @ (t_R[:, :, None] * signs.T))
        P -= t[order[:, k:]][:, :, None]
        mism = np.sqrt(np.sum(np.square(P, out=P), axis=1))
        proven = (
            usable
            & (zeta <= 0.5)
            & (g <= 0.5)
            & np.isfinite(bound)
            & np.isfinite(mism).all(axis=1)
            & (mism.min(axis=1) > 2 * bound)
        )
    return ~proven


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

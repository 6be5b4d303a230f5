"""Small dense linear-algebra kernels with an explicit tolerance policy.

One global policy: numerical rank counts singular values above a fixed
relative SVD threshold, DEFAULT_RANK_TOL = 1e-10 of the largest; no caller
chooses another.  _policy_ranks alone applies it, to singular values
already computed, for every rank decision in the package.  Desk-scale
Gaussian matrices have singular-value gaps many orders above this, so
decisions are crisp; the gap is recorded anyway so borderline calls can
be surfaced as fragile (_fragile).

The distance enumeration and the spark check share one minor table
(_minor_table): every minor det A[S, I] up to the largest support size.
_laplace_gram turns it into the Gram determinants of whole blocks of
configurations by generalized Laplace expansion and Cauchy-Binet, a few
GEMMs per block, with a proven error radius, and _screen_accepts turns
those into proofs of the SVD policy's own decision, so batched_ranks runs
only where nothing is proven.

Both exact solvers share one least-squares screen (_lstsq_screen): it
proves, in batch and with an explicit roundoff margin, that most
candidate systems fail their residual test, so only the rest are solved.
A solve screens once, at its largest screened support size: a support
the screen rules out rules out all its subsets too, so the smaller sizes
take their candidates from that one screen (_subset_candidates).  The
walk to that size extends each support's elimination from its prefix's,
one pivot and one bordered inverse per new column, instead of
eliminating and inverting from scratch.  One walk screens a whole stack
of problems of one shape, so a sweep row of many small solves pays the
screen's fixed cost once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from math import comb

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
# Relative backward error assumed of LAPACK's SVD (see _screen_accepts).
_SVD_ERROR = 2.0 ** -40
# The screens' acceptance threshold tau (_need, _screen_accepts): 1e-8.
_SCREEN_TAU = 100.0 * max(DEFAULT_RANK_TOL, _SVD_ERROR)
# Numbers per minor table (_minor_table); a larger A gets no table and
# every rank goes to the SVD.
_TABLE_ELEMENTS = 1 << 21
# Float64 elements per block of supports in the least-squares screen
# (_lstsq_screen), counted as K (m + K) + K + S per support of K columns
# and S sign rows (its stage-1 footprint), and per chunk of the supports
# its stage 2 bounds on all m - K rows outside the pivots as K (m + K) +
# (m - K) (K + S); either way the working arrays take about 1 MB.
_SCREEN_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a numerical rank computation, with the decision gap."""

    rank: int
    smallest_kept_sv: float
    largest_dropped_sv: float
    tol_used: float

    @property
    def fragile(self) -> bool:
        """A decision within a 10x gap of the threshold is flagged as flaky (_fragile)."""
        return bool(_fragile(self.rank, self.smallest_kept_sv, self.largest_dropped_sv))


def _policy_ranks(s: np.ndarray):
    """The SVD rank policy on singular values s (..., r), each row descending
    as LAPACK returns them: the rank counts those above DEFAULT_RANK_TOL
    times the largest.  Returns (ranks, kept, dropped) of the batch shape:
    the smallest value counted and the largest not counted, 0 if none."""
    r = s.shape[-1]
    ranks = np.sum(s > DEFAULT_RANK_TOL * s[..., :1], axis=-1)
    padded = np.zeros((*s.shape[:-1], r + 2))
    padded[..., 1:-1] = s
    at = np.arange(0, padded.size, r + 2).reshape(ranks.shape) + ranks  # s[rank - 1] in the flat padded
    flat = padded.reshape(-1)
    return ranks, flat[at], flat[at + 1]


def _fragile(ranks, kept, dropped):
    """The fragile rule: something kept within FRAGILE_GAP of a positive dropped value."""
    return (ranks > 0) & (dropped > 0) & (kept < FRAGILE_GAP * dropped)


def numerical_rank(M) -> RankDecision:
    """Rank = number of singular values above DEFAULT_RANK_TOL * sigma_max (_policy_ranks)."""
    M = np.asarray(M)
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("numerical_rank requires finite entries")
    s = np.linalg.svd(M, compute_uv=False)
    rank, kept, dropped = _policy_ranks(s)
    return RankDecision(int(rank), float(kept), float(dropped), DEFAULT_RANK_TOL * (float(s[0]) if s.size else 0.0))


def batched_ranks(stack: np.ndarray):
    """Ranks and fragility flags for a (..., m, k) stack of matrices.

    Returns (ranks, fragile) with the leading batch shape: numerical_rank's
    decision for every matrix, one SVD each.  The distance enumeration and
    the spark check prove what ranks they can from a minor table
    (_laplace_gram, _screen_accepts) and send only the rest here, so every
    rank deficiency that is not known in advance is decided by this policy.
    """
    ranks, kept, dropped = _policy_ranks(np.linalg.svd(np.asarray(stack), compute_uv=False))
    return ranks, _fragile(ranks, kept, dropped)


_UNIT_ROUNDOFF = 2.0 ** -53  # u = eps / 2 of float64


def _gamma(j: int) -> float:
    """gamma_j = j u / (1 - j u), u = eps / 2: the relative error bound of j roundings."""
    return j * _UNIT_ROUNDOFF / (1 - j * _UNIT_ROUNDOFF)


def _combos(n: int, a: int) -> np.ndarray:
    """The a-subsets of range(n) in itertools.combinations order, as a (C(n, a), a) array."""
    return np.array(list(itertools.combinations(range(n), a)), dtype=np.intp).reshape(-1, a)


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    return np.array([[comb(x, y) for y in range(n + 1)] for x in range(n + 1)], dtype=np.intp)


def _lex_rank(combos: np.ndarray, n: int) -> np.ndarray:
    """Position of each sorted row of an (N, a) index array in _combos(n, a)."""
    a = combos.shape[1]
    return comb(n, a) - 1 - _binomials(n)[n - 1 - combos, np.arange(a, 0, -1)].sum(axis=1)


def _lex_unrank(ranks: np.ndarray, n: int, a: int) -> np.ndarray:
    """The rows of _combos(n, a) at positions ranks, as an (N, a) array,
    without building _combos(n, a): _lex_rank's inverse.  _lex_rank writes
    C(n, a) - 1 - rank as sum_i C(n - 1 - c_i, a - i) with n - 1 - c_i
    strictly falling, the combinatorial number system, so the greedy
    largest binomial at each step recovers the c_i."""
    binom = _binomials(n)
    rest = comb(n, a) - 1 - np.asarray(ranks, dtype=np.intp)
    out = np.empty((rest.size, a), dtype=np.intp)
    for i in range(a):
        column = binom[:, a - i]  # C(d, a - i), non-decreasing in d
        d = np.searchsorted(column, rest, side="right") - 1
        out[:, i] = n - 1 - d
        rest = rest - column[d]
    return out


@dataclass(frozen=True)
class _MinorTable:
    det: list
    per_sum: list
    col_sq: np.ndarray
    m: int
    n: int


def _minor_table(entries: np.ndarray, top: int) -> _MinorTable | None:
    """Every minor of A up to size top, with the permanents that bound its error.

    A is first scaled by an exact power of two, so that max |A| lies in
    [1/2, 1): ratios of singular values and the sign of every comparison
    below are those of A itself.  det[a][i, s] is the computed det A[S, I],
    for I the i-th and S the s-th a-subset of columns and rows in _combos
    order (size 0 holds the empty minor 1); per_sum[a][i] sums over S the
    computed permanents of |A[S, I]|, which bound the minors' errors; and
    col_sq holds the squared column norms of the scaled A.  Minors and
    permanents expand along the last column, det A[S, I] = sum_k
    (-1)^(k + a - 1) A[s_k, i_a] det A[S - s_k, I - i_a], from those of
    size a - 1.  Returns None when the tables would hold more than
    _TABLE_ELEMENTS numbers each, when a configuration of up to 2 top
    columns would have more than _TABLE_ELEMENTS row sets, or when m > 30:
    _laplace_gram and _screen_accepts make their roundoff and range claims
    only inside these limits.
    """
    m, n = entries.shape
    if (m > 30 or sum(comb(m, a) * comb(n, a) for a in range(top + 1)) > _TABLE_ELEMENTS
            or max(comb(m, t) for t in range(min(m, 2 * top) + 1)) > _TABLE_ELEMENTS):
        return None
    A = np.ldexp(entries, -int(np.frexp(np.max(np.abs(entries)))[1]))
    abs_a = np.abs(A)
    det, per = [np.ones((1, 1))], [np.ones((1, 1))]
    for a in range(1, top + 1):
        cols, rows = _combos(n, a), _combos(m, a)
        head, last = _lex_rank(cols[:, :-1], n)[:, None], cols[:, -1:]
        d = np.zeros((len(cols), len(rows)))
        p = np.zeros_like(d)
        for k in range(a):
            sub = _lex_rank(np.delete(rows, k, axis=1), m)[None, :]
            row = rows[None, :, k]
            term = A[row, last] * det[a - 1][head, sub]
            d = d - term if (k + a - 1) % 2 else d + term
            p += abs_a[row, last] * per[a - 1][head, sub]
        det.append(d)
        per.append(p)
    return _MinorTable(det, [p.sum(axis=1) for p in per], np.sum(A * A, axis=0), m, n)


@functools.lru_cache(maxsize=None)
def _row_splits(m: int, t: int, a: int):
    """Generalized Laplace index arrays for the t-row sets R of range(m).

    Each R (in _combos(m, t) order) splits into its a-subsets S and their
    complements R - S.  Returns (sidx, cidx, eps, comp): sidx and cidx
    (nR, nS) give the positions of S and R - S in _combos(m, a) and
    _combos(m, t - a), eps (nS,) the expansion sign (-1)^(sum of the
    positions of S in R - a(a - 1)/2), the same for every R, and comp
    (nR, nS, t - a) the rows of R - S.
    """
    rows, pos = _combos(m, t), _combos(t, a)
    comp_pos = np.array([[j for j in range(t) if j not in p] for p in pos.tolist()],
                        dtype=np.intp).reshape(len(pos), t - a)
    S, comp = rows[:, pos], rows[:, comp_pos]
    nR, nS = S.shape[:2]
    sidx = _lex_rank(S.reshape(nR * nS, a), m).reshape(nR, nS)
    cidx = _lex_rank(comp.reshape(nR * nS, t - a), m).reshape(nR, nS)
    eps = np.where((pos.sum(axis=1) - a * (a - 1) // 2) % 2, -1.0, 1.0)
    return sidx, cidx, eps, comp


def _pattern_products(m: int, t: int, a: int, signs: np.ndarray) -> np.ndarray:
    """H[R, S, P] = prod over the rows r of R - S of P's sign p_r, as (nR, nS, npat)."""
    comp = _row_splits(m, t, a)[3]
    H = np.ones((*comp.shape[:2], len(signs)))
    for j in range(t - a):
        H *= signs.T[comp[:, :, j]]
    return H


def _laplace_gram(table: _MinorTable, a: int, b: int, ri: np.ndarray, rj: np.ndarray, H: np.ndarray):
    """Gram determinants of M = [A_I, P A_J] from the minor table, with an error radius.

    ri and rj (N,) hold N support pairs as the positions of I and J in
    _combos(n, a) and _combos(n, b), t = a + b <= m; b = 0 (rj = 0, the
    empty support) gives det(A_I^T A_I).  H is _pattern_products(m, t, a,
    signs).  Returns G (N, npat), for every pair and pattern, and B (N,).

    For each t-row set R the generalized Laplace expansion along the first
    a columns gives

        D_R(P) = det M[R] = sum_S eps(S, R) det A[S, I] det A[R - S, J] prod_(r in R - S) p_r,

    over the a-subsets S of R: the (N, nS) block X_R[pair, S] = eps
    det A[S, I] det A[R - S, J] times the fixed +-1 matrix H_R, one GEMM.
    Cauchy-Binet gives det(M^T M) = sum_R D_R^2, computed as G; for
    t = m there is one R.

    Error radius (u = eps / 2, gamma_j = j u / (1 - j u); Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3).  Let c_a =
    max(a (a + 1) / 2 - 1, 0).  The table computes an a-minor as a sum of
    a products of an entry and an (a - 1)-minor, so by induction each of
    the a! signed products of the minor carries a relative error of at
    most gamma_(c_a) (one multiplication and a - 1 additions per level,
    and gamma_j + gamma_k + gamma_j gamma_k <= gamma_(j + k)), hence
    |d_hat - d| <= gamma_(c_a) per|A[S, I]|.  The same recursion on |A|
    computes the permanent from positive terms, so Q = per_hat >=
    (1 - gamma_(c_a)) per, |d_hat - d| <= 2 gamma_(c_a) Q and |d_hat| <=
    (1 + 3 gamma_(c_a)) Q.  In X_R the sign is exact and the product of
    the two minors errs by a relative u; the GEMM with H_R (|H| = 1, any
    summation order) errs by gamma_(nS) sum_S |X_hat_R[S]|, nS =
    C(t, a).  Expanding the product of the perturbed minors,

        |D_hat_R(P) - D_R(P)| <= omega Y_R,   omega = 2 (2 gamma_(c_a) + 2 gamma_(c_b) + u + gamma_(nS)),

    for every P, with Y_R = sum_S Q_I(S) Q_J(R - S); the factor 2 covers
    the products of two small terms.  Every pair (S, S') of disjoint row
    sets occurs in exactly one Y_R, so ||Y||_2 <= sum_R Y_R <= sum_S
    Q_I(S) sum_S' Q_J(S'), the product of the two rows' sums in per_sum,
    which are formed from positive terms within a relative gamma_C(m, a)
    of the exact sums.  So ||D_hat - D||_2 over R is at most B = omega
    per_sum_I per_sum_J + eta nR, computed with that relative error; the
    cruder bound costs nothing that matters, as B stays many orders below
    the margin _screen_accepts asks for.  eta = 2^-500 bounds what
    underflow adds: with max |A| < 1 and m <= 30 every minor and
    permanent is below 30! < 2^108, and nS, nR <= 2^21 (_minor_table's
    limits; nS = C(t, a) <= C(m, a)), so an absolute
    error of 2^-1074 per operation, amplified through the recursion, X
    and the GEMM, stays below 2^-800 per D_R.  The same bounds keep every
    value below 2^600, so nothing overflows.  _screen_accepts turns G and
    B into proofs.
    """
    sidx, cidx, eps, _ = _row_splits(table.m, a + b, a)
    nR, nS = sidx.shape
    X = (table.det[a][ri][:, sidx] * eps) * table.det[b][rj][:, cidx]  # (N, nR, nS)
    D = np.matmul(X.transpose(1, 0, 2), H)  # (nR, N, npat)
    G = np.einsum("rnq,rnq->nq", D, D)

    def c(k: int) -> int:
        return max(k * (k + 1) // 2 - 1, 0)

    u = np.finfo(np.float64).eps / 2
    omega = 2 * (2 * _gamma(c(a)) + 2 * _gamma(c(b)) + u + _gamma(nS))
    B = omega * table.per_sum[a][ri] * table.per_sum[b][rj] + 2.0 ** -500 * nR
    return G, B


def _need(fro2: np.ndarray, fro2_sub: np.ndarray, t_sub: int) -> np.ndarray:
    """tau ||M||_F ||M'||_F^(t' - 1) / (t' - 1)^((t' - 1) / 2), tau =
    _SCREEN_TAU: the sqrt(det G') that _screen_accepts requires of a
    t'-column M' to prove sigma_min(M') > tau ||M||_F."""
    k = t_sub - 1
    return _SCREEN_TAU * np.sqrt(fro2) * fro2_sub ** (k / 2) / float(k) ** (k / 2)


def _screen_accepts(G: np.ndarray, B: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Mask of the G from _laplace_gram that prove sigma_min(M') > tau ||M||_F.

    Bound.  For the t'-column M' with Gram determinant det G' and
    ||M'||_F = F', AM-GM over the other t' - 1 eigenvalues of G' (their
    sum is at most F'^2) gives

        sigma_min(M') >= sqrt(det G') (t' - 1)^((t' - 1)/2) / F'^(t' - 1),

    and sqrt(det G') = ||D||_2 over the row sets R >= ||D_hat|| - B >=
    sqrt(G_hat) (1 - gamma_(nR + 1)) - B.  So sqrt(det G') > need
    (_need) proves sigma_min(M') > tau ||M||_F.  The mask accepts when
    G_hat > ((need + B) (1 + 1e-8))^2; the factor covers the relative
    errors of G_hat, B, the norms and powers in need and the comparison,
    each at most gamma_(2^21 + 2) < 2.5e-10 because _minor_table keeps nR,
    nS and C(m, a) at most 2^21.  need below 2^-400 (the range where the underflow allowance of
    _laplace_gram is not negligible), and anything not finite, is not
    accepted.

    What an accepted M' proves (phi = _SVD_ERROR = 2^-40: LAPACK's SVD
    returns the singular values of M + dM with ||dM||_2 <= p(m, t) u
    ||M||_2 <= phi sigma_max(M), p a modest polynomial; phi allows p up to
    2^13; delta = DEFAULT_RANK_TOL = 1e-10, the policy's threshold; tau =
    _SCREEN_TAU = 100 delta).  With M' = M (the full-rank screen), the
    computed sigma_min exceeds (tau - phi) sigma_max >= 99 delta sigma_max
    while the computed sigma_max is at most (1 + phi) sigma_max: the SVD
    policy keeps all t singular values, drops none, and the decision is not
    fragile.  With M' = M minus e columns and e null vectors of M that hold
    exactly in the stored floats (the exact-defect ranks of the distance
    enumeration), interlacing gives sigma_(t-e)(M) >= sigma_min(M') > tau
    sigma_max(M) while sigma_(t-e+1)(M) = 0.  The computed sigma_(t-e+1)
    is then at most phi sigma_max, below delta times the computed
    sigma_max because delta >= 2 phi (tests/test_numerics.py pins this),
    and the computed sigma_(t-e) is above it: the policy returns rank
    t - e, and its gap is at least (tau - phi) / phi > 10, so the decision
    is not fragile.  A mask entry that is False decides nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        thr = (need + B) * (1 + 1e-8)
        return (need >= 2.0 ** -400) & np.isfinite(thr) & (G > thr * thr)


@dataclass
class _Elimination:
    """Partial-pivoting elimination of a block of N supports, support axis last.

    For supports of j indices and w columns: tag (N,) the problem each
    support belongs to; cols (j, N) the indices plus n times the tag, for
    problems of n columns, so that they index the problems' entries laid
    side by side (problem 0's are its own indices); M (w, m, N) the
    columns, in the order the levels introduced them; piv (w, N) the
    pivot rows in pivot order; free (m, N) the rows not pivoted; W (w, w,
    N) a computed inverse of B = M[piv]; and min_pivot (N,) the smallest
    |pivot| (NaN or 0 when the elimination broke down).  With the support
    axis last, every step runs over the whole block, whatever problems it
    holds.
    """

    tag: np.ndarray
    cols: np.ndarray
    M: np.ndarray
    piv: np.ndarray
    free: np.ndarray
    W: np.ndarray
    min_pivot: np.ndarray


def _border(e: _Elimination, w: int, v: np.ndarray) -> None:
    """Append the column v (m, N) to e as its column w, in place.

    The next step of partial pivoting: the reduced column is the Schur
    complement u = v - M W v[piv] (on the free rows, what Gaussian
    elimination of the first w columns leaves of v), and the new pivot is
    its largest |u| over the free rows, the first in row order at a tie.
    W is bordered by the Schur complement (Golub & Van Loan, Matrix
    Computations): with B' = [[B, b], [d^T, delta]], b = v[piv]
    and d^T the new pivot row of the old columns, the pivot is s = delta -
    d^T W b and

        W' = [[W + (W b)(d^T W) / s, -W b / s], [-d^T W / s, 1 / s]],

    which is B'^-1 when W = B^-1.  That is O(m w + w^2) work per support;
    the screen checks whatever W this computes through B W - I.
    """
    ar = np.arange(v.shape[1])
    if w:
        M, W = e.M[:w], e.W[:w, :w]
        wb = np.einsum("ijn,jn->in", W, v[e.piv[:w], ar])
        u = v - np.einsum("irn,in->rn", M, wb)
    else:
        u = v
    r = np.argmax(np.where(e.free, np.abs(u), -1.0), axis=0)
    pivot = u[r, ar]
    e.free[r, ar] = False
    np.minimum(e.min_pivot, np.abs(pivot), out=e.min_pivot)
    g = 1.0 / pivot
    if w:
        dw = np.einsum("in,ijn->jn", M[:, r, ar], W)
        wb *= g
        W += wb[:, None] * dw
        e.W[:w, w] = -wb
        np.multiply(dw, -g, out=e.W[w, :w])
    e.W[w, w] = g
    e.M[w] = v
    e.piv[w] = r


def _children(parents: _Elimination, pidx: np.ndarray, c: np.ndarray, new_columns) -> _Elimination:
    """The eliminations of the supports parents.cols[:, pidx] + (c,),
    bordered from their parents' by the columns new_columns returns."""
    tag, cols = parents.tag[pidx], parents.cols[:, pidx]
    vs = new_columns(cols, c)
    w0, m = parents.M.shape[:2]
    w, N = w0 + len(vs), len(c)
    e = _Elimination(tag, np.concatenate([cols, c[None]]), np.empty((w, m, N)), np.empty((w, N), dtype=np.intp),
                     parents.free[:, pidx], np.empty((w, w, N)), parents.min_pivot[pidx])
    e.M[:w0] = parents.M[..., pidx]
    e.piv[:w0] = parents.piv[:, pidx]
    e.W[:w0, :w0] = parents.W[..., pidx]
    for i, v in enumerate(vs):
        _border(e, w0 + i, v)
    return e


def _walk(new_columns, n: int, k: int, size: int, inner: int, parents: _Elimination, visit) -> None:
    """Call visit on the _Elimination of every k-subset of range(n) that
    extends one of parents' supports, in parents' order and then in
    itertools.combinations order, in blocks.

    In that order the children I + (c), c > max I, of each support I are
    contiguous, so a block is a range of whole parents: those whose
    children start within one window of size supports (at most size +
    n - 1 supports per block) at size k, of inner supports at the sizes
    below it, whichever problems they belong to.  Only supports with a
    k-subset extension are built, and only the current block of each
    level is alive, so memory does not grow with the number of problems
    times C(n, j).
    """
    j = len(parents.cols) + 1
    window = size if j == k else inner
    off = parents.tag * n  # where each support's problem starts among the side-by-side columns
    last = parents.cols[-1] if j > 1 else off - 1
    count = off + (n - k + j - 1) - last  # children take c < n - k + j, so that k - j more indices fit above c
    start = np.cumsum(count) - count
    cuts = np.flatnonzero(np.diff(start // window)) + 1
    for lo, hi in zip([0, *cuts], [*cuts, len(count)]):
        pidx = np.repeat(np.arange(lo, hi), count[lo:hi])
        c = np.arange(len(pidx)) + (last + 1 - start + start[lo])[pidx]
        block = _children(parents, pidx, c, new_columns)
        if j < k:
            _walk(new_columns, n, k, size, inner, block, visit)
        else:
            visit(block)
        del block  # before the next block is built


def _lstsq_screen(new_columns, n: int, k: int, t: np.ndarray, signs: np.ndarray, resid_tol: np.ndarray) -> np.ndarray:
    """Mask (P, C(n, k)) over P problems and, for each, the k-subsets I of
    range(n) in itertools.combinations order, of the supports on which
    the exact residual test may accept.

    The problems share m and n: problem p has its own (n columns of)
    entries, right-hand-side magnitudes t[p] (t is (P, m)) and residual
    tolerance resid_tol[p].  Its support I's real (m, K) matrix M holds
    the columns new_columns contributes: new_columns(cols, c) takes the
    (j, N) indices of N supports and their (N,) next indices c > max I,
    each offset by n times the support's problem index, so that they
    index the problems' entries laid side by side as one (m, P n) array,
    and returns the columns that adding c contributes, a list of (m, N)
    arrays.  The real solver contributes A[:, c]; the Hermitian lift
    contributes c's diagonal unknown and the (Re, Im) pair of (i, c) for
    each i in I.  Up to column order, M must be the exact test's matrix
    bit for bit: the bound below is about its stored floats.  Everything
    below is about one support of one problem, with that problem's t and
    resid_tol; the problem axis only lets one walk and one block hold the
    supports of many problems.

    The test, shared by both exact solvers: for a right-hand side r with
    |r| = t (t >= 0, length m) it takes any X -- lstsq's output, of which
    nothing else is used, so lstsq's rcond truncation needs no case of its
    own -- computes r - M X or M X - r (the two round alike) and its
    2-norm, and accepts when that norm is at most resid_tol.  The test may
    order M's columns differently: with a permutation Q, (M Q)(Q^T X) =
    M X, so the residuals the test can reach, and so everything below, do
    not depend on the column order.  Only the r whose signs on the pivot
    rows R below are, up to a global flip, a row s of signs (S, K), r_R =
    +-s * t[R], need ruling out.  The real solver passes sign_table(k),
    which covers every sign vector; the Hermitian lift, whose one
    right-hand side is t = y^2, passes a row of ones.  A False entry is a
    proof that the test accepts no such r on that M; a True entry proves
    nothing.

    Elimination.  The levels are walked from 1 to k (_walk): a support's
    elimination is its parent's (the support without its last index),
    bordered by each new column in turn (_border).  So R comes from
    incremental partial pivoting: each new column's pivot is the free row
    of largest |u|, u = v - M W v[R] the column's Schur complement, which
    in exact arithmetic is what Gaussian elimination with partial
    pivoting of all of M leaves of that column (a computed u can round
    differently, so two rows that nearly tie may swap; any R serves the
    bound below).  W is whatever inverse of B = M[R] the bordering
    computes, checked below through Z = B W - I and assumed nothing else.

    Screen.  For a set Q of rows outside R, with C = M[Q] and T = C B^-1,
    for each row s of signs, with v = s * t[R], the screen predicts the
    rows of Q as P = T v and takes mu = min over s of || |P| - t[Q] ||_2.

    Bound.  Suppose the test accepts r with output X.  Let e = M X - r
    (exact arithmetic on the stored floats), with ||e|| <= rho.  Then
    B X = r_R + e_R and C X = r_Q + e_Q, so T r_R = C X - T e_R =
    r_Q + e_Q - T e_R.  Up to a global flip, r_R is one of the screen's
    v, and ||a| - |b|| <= |a - b| with |r_Q| = t[Q] gives

        || |T v| - t[Q] || <= ||e_Q|| + ||T|| ||e_R|| <= (1 + ||T||) rho.

    Any R and any Q work: ||T|| is bounded from computed quantities, not
    assumed.  Only rho and g below see all m rows, through ||M||.

    Roundoff (u = eps / 2, gamma_j = j u / (1 - j u); a matrix product
    with inner dimension j errs by at most gamma_j |X| |Y| entrywise, and
    ||X||_2 <= ||X||_F).  W is the computed inverse of B and Z the computed
    B W - I, so ||B W - I|| <= zeta = ||Z|| + gamma_(K+1) ||B|| ||W||.  For
    zeta < 1, B W = I + E with ||E|| <= zeta gives B^-1 = W (I + E)^-1 and
    T = C W (I + E)^-1, so ||B^-1|| <= beta = ||W|| / (1 - zeta) and
    ||T|| <= tau = (||T_hat|| + gamma_K ||C|| ||W||) / (1 - zeta), where
    T_hat is the computed C W.  Also T_hat - T = (T_hat - C W) - T E, so
    ||T_hat - T|| <= gamma_K ||C|| ||W|| + tau zeta.

    rho: the accepted residual's computed norm is at most resid_tol.
    Forming r - M X errs by gamma_(K+1) (|r| + |M| |X|) and the norm's
    sum of squares and square root by a relative gamma_(m+1), so
    ||e|| <= resid_tol (1 + gamma_(m+1)) + gamma_(K+1) (||t|| + ||M|| ||X||),
    and ||X|| <= beta (||t|| + ||e||) because B X = r_R + e_R.  With
    g = gamma_(K+1) ||M|| beta < 1 this solves to

        rho = (resid_tol (1 + gamma_(m+1)) + gamma_(K+1) (1 + ||M|| beta) ||t||) / (1 - g).

    P_hat is one GEMM over the block, fl(fl(T_hat * t[R]) signs^T): the
    scaling errs by a relative u and the sum of K signed terms by
    gamma_(K-1), so |P_hat - T_hat v| <= gamma_K |T_hat| |v| entrywise,
    and P_hat differs from T v by at most (gamma_K ||T_hat|| + gamma_K
    ||C|| ||W|| + tau zeta) ||v||, with ||v|| <= ||t||.  The computed
    mismatch norm errs by a relative gamma_(m+1).  So when the test
    accepts, the computed mu is at most (1 + gamma_(m+1)) times

        bound = (1 + tau) rho + (gamma_K (||T_hat|| + ||C|| ||W||) + tau zeta) ||t||.

    Subsets.  A False entry for a support I' also proves that the test
    accepts no such r on any subset I of I', so one screen at the largest
    support size serves every smaller one (_subset_candidates).  I's M
    (K columns) is K of the K' columns of I''s M', bit for bit: the real
    A_I, and the lift of I, whose unknowns are among those of I'.  Let the
    test accept r on I with output X, e = M X - r, and let X' be X padded
    with zeros to I'.  Then:
    - the exact e' = M' X' - r equals e;
    - the I test's rounding term gamma_(K+1) (||t|| + ||M|| ||X||) is at
      most gamma_(K'+1) (||t|| + ||M'|| ||X'||), as ||M|| <= ||M'|| and
      ||X|| = ||X'||;
    - B' X' = r_R' + e'_R' gives ||X'|| <= beta' (||t|| + ||e'||).
    So ||e'|| <= rho', I''s rho, and the signs of r on R' are a row of
    I''s signs up to a global flip whenever those signs cover every sign
    vector (the real solver's sign_table(k)) or r = t (the lift's one
    right-hand side, a row of ones).  The bound for I' then covers r.

    Underflow adds at most 2^-1074 per operation.  The screen runs only
    when max |M| and max t lie in [2^-400, 2^400], so no norm or product
    overflows unless it returns inf, and every underflow error, amplified
    by the factors above, stays below eta = 2^-500, which the bound adds
    to zeta, tau's numerator, rho's numerator and the total.  Each norm
    (at most m K terms), product and sum in the bound itself, like the
    subtraction of I in Z, is evaluated with relative error under 1e-8
    for m K <= 2^20 (zeta, g <= 1/2 keep the divisions tame), so the
    screen flags when mu_hat <= 2 bound.

    Two stages.  A single row outside R can prove that a support holds no
    solution, and most supports are proven so.  Stage 1 bounds every
    support on Q = {q}, q its free row of largest t (the first in row
    order at a tie): it needs only T_hat_q = C_q W, Z = B W - I and S
    mismatches per support, where all of R^c takes (m - K) S.  Stage 2
    bounds the supports stage 1 does not prove on Q = R^c, by the same
    formulas as a one-stage screen on all of R^c (tests/oracles.py::
    full_row_screen_block), so the flagged set is never larger than that
    screen's.  With one row outside R the stages coincide and stage 2 is
    skipped.

    It also flags M when any pivot is at most DEFAULT_RANK_TOL times
    max |M| (so a flag-free M has full column rank with a wide margin),
    when zeta or g exceeds 1/2, when max |M| or its problem's max t is
    out of range, and when any mismatch or the bound is not finite.  When
    K >= m there are no rows outside the pivots, and when m K > 2^20 the
    evaluation claim above is not made; both flag every M.  Flagging is
    always safe: a flagged M gets the exact test.

    The walk starts from one root per problem whose max t is in range,
    and supports are screened in blocks of about _SCREEN_ELEMENTS / (K (m
    + K) + K + S) of them, the elements a support's M, W, T_hat_q and
    stage-1 mismatches take; stage 2 takes its supports in chunks of
    _SCREEN_ELEMENTS / (K (m + K) + (m - K) (K + S)), the same count with
    T_hat and the mismatches of all of R^c.  The walk's blocks at the
    sizes below k, which hold fewer than K columns and no mismatches, take
    about _SCREEN_ELEMENTS / (K (m + K)) supports each.  That bounds the
    working memory whatever P is.
    """
    P, m = t.shape
    S, K = signs.shape
    flags = np.ones((P, comb(n, k)), dtype=bool)
    t_max = t.max(axis=1)
    roots = np.flatnonzero((t_max >= 2.0 ** -400) & (t_max <= 2.0 ** 400))
    if K >= m or m * K > 1 << 20 or roots.size == 0:
        return flags
    size = max(1, _SCREEN_ELEMENTS // (K * (m + K) + K + S))
    inner = max(1, _SCREEN_ELEMENTS // (K * (m + K)))
    R = roots.size
    root = _Elimination(roots, np.zeros((0, R), dtype=np.intp), np.zeros((0, m, R)), np.zeros((0, R), dtype=np.intp),
                        np.ones((m, R), dtype=bool), np.zeros((0, 0, R)), np.full(R, np.inf))
    blocks = []
    with np.errstate(all="ignore"):
        nt = np.sqrt(np.einsum("pi,pi->p", t, t))
        _walk(new_columns, n, k, size, inner, root, lambda e: blocks.append(_screen_block(e, t, nt, signs, resid_tol)))
    flags[roots] = np.concatenate(blocks).reshape(R, -1)
    return flags


def _subset_candidates(flags: np.ndarray, n: int, top: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The supports of every size j = 1, ..., top that _lstsq_screen's
    flags (P, C(n, top)) at size top leave as candidates: those every
    top-superset of which is flagged (see Subsets there).  Returns one
    (owner, supports) pair per size j, owner (N,) each candidate's problem
    and supports (N, j) its indices, ordered by problem, then in
    itertools.combinations order.

    One-step descent: a j-support, j < top <= n, is a candidate when all
    n - j of its one-index extensions are candidates of size j + 1, since
    every top-superset of it contains one of them.  So each (j + 1)-
    candidate's one-index deletions are ranked (_lex_rank) and counted,
    and the j-supports counted n - j times are kept: the work scales with
    the candidates, not with C(n, j), beyond one count per support.  The
    candidates are counted in chunks whose deletions take about
    _SCREEN_ELEMENTS numbers, or as many as the counts when those are more.
    """
    P = flags.shape[0]
    owner, rank = np.nonzero(flags)
    levels = [(owner, _lex_unrank(rank, n, top))]
    for j in range(top - 1, 0, -1):
        owner, supports = levels[-1]
        size = comb(n, j)
        counts = np.zeros(P * size, dtype=np.intp)
        drop = _combos(j + 1, j)  # the j + 1 one-index deletions, as positions
        rows = max(1, max(_SCREEN_ELEMENTS, counts.size) // ((j + 1) * j))
        for lo in range(0, len(owner), rows):
            deleted = _lex_rank(supports[lo:lo + rows, drop].reshape(-1, j), n)
            deleted += np.repeat(owner[lo:lo + rows] * size, j + 1)
            counts += np.bincount(deleted, minlength=counts.size)
        owner, rank = np.divmod(np.flatnonzero(counts == n - j), size)
        levels.append((owner, _lex_unrank(rank, n, j)))
    return levels[::-1]


def _screen_block(e: _Elimination, t: np.ndarray, nt: np.ndarray, signs: np.ndarray,
                  resid_tol: np.ndarray) -> np.ndarray:
    """_lstsq_screen's mask for one block of eliminated supports, each
    with its own problem's t, ||t|| and resid_tol: stage 1 bounds every
    support on its free row of largest t (the first in row order at a
    tie), and stage 2 bounds the supports stage 1 leaves on all of R^c,
    in chunks that the all-rows footprint fits in the element budget."""
    K, m, N = e.M.shape
    q = np.argmax(np.where(e.free, t[e.tag].T, -1.0), axis=0)
    flags = ~_proven(e, q[None], t, nt, signs, resid_tol)
    left = np.flatnonzero(flags) if m - K > 1 else []  # with one row outside R, stage 1 was stage 2
    size = max(1, _SCREEN_ELEMENTS // (K * (m + K) + (m - K) * (K + len(signs))))
    for lo in range(0, len(left), size):
        idx = left[lo:lo + size]
        part = _Elimination(*(getattr(e, f.name)[..., idx] for f in fields(e)))
        rest = np.nonzero(part.free.T)[1].reshape(idx.size, m - K).T  # R^c in row order
        flags[idx] = ~_proven(part, rest, t, nt, signs, resid_tol)
    return flags


def _proven(e: _Elimination, Q: np.ndarray, t: np.ndarray, nt: np.ndarray, signs: np.ndarray,
            resid_tol: np.ndarray) -> np.ndarray:
    """Mask of the supports of e that _lstsq_screen's bound on the rows Q
    (nq, N) outside R proves hold no accepted r.  The large temporaries are
    dropped as soon as they are used, so that the peak memory stays near
    that of the largest two arrays."""
    K, m, N = e.M.shape
    nq = len(Q)
    lo, hi, eta = 2.0 ** -400, 2.0 ** 400, 2.0 ** -500
    a_max = np.abs(e.M).reshape(-1, N).max(axis=0)
    rows = np.concatenate([e.piv, Q])
    tr = t[e.tag, rows]  # (K + nq, N): each support's own problem's t[R], then t[Q]
    nt, resid_tol = nt[e.tag], resid_tol[e.tag]
    M = e.M.transpose(2, 1, 0)[np.arange(N), rows]  # (K + nq, N, K): B, then C_Q
    sq = np.einsum("rni,rni->rn", M, M)  # squared row norms
    nB, nC = np.sqrt(sq[:K].sum(axis=0)), np.sqrt(sq[K:].sum(axis=0))
    MW = np.matmul(M.transpose(1, 0, 2), e.W.transpose(2, 0, 1))  # (N, K + nq, K): B W, then T_hat = C_Q W
    del M
    T = MW[:, K:]
    # ||M||_F over all m rows: from B and C when Q is all of R^c, else from the stored columns
    nM = np.sqrt(nB * nB + nC * nC) if nq == m - K else np.sqrt(np.einsum("imn,imn->n", e.M, e.M))
    nW = np.sqrt(np.einsum("ijn,ijn->n", e.W, e.W))
    nT = np.sqrt(np.einsum("nrj,nrj->n", T, T))
    Z = MW[:, :K] - np.eye(K)
    nZ = np.sqrt(np.einsum("nij,nij->n", Z, Z))
    del Z
    zeta = nZ + _gamma(K + 1) * nB * nW + eta
    tau = (nT + _gamma(K) * nC * nW + eta) / (1 - zeta)
    beta = nW / (1 - zeta)
    g = _gamma(K + 1) * nM * beta
    rho = (resid_tol * (1 + _gamma(m + 1)) + _gamma(K + 1) * (1 + nM * beta) * nt + eta) / (1 - g)
    bound = (1 + tau) * rho + (_gamma(K) * (nT + nC * nW) + tau * zeta) * nt + eta
    X = np.multiply(T.transpose(1, 0, 2), tr[:K].T, out=np.empty((nq, N, K)))  # T_hat * t[R]
    del MW, T
    P = (X.reshape(-1, K) @ signs.T).reshape(nq, N, len(signs))
    del X
    np.abs(P, out=P)
    P -= tr[K:, :, None]
    sq = np.sum(np.square(P, out=P), axis=0)  # (N, S): each sign row's squared mismatch
    del P
    # sqrt is monotone, so the square root of the least square is the least
    # mismatch, bit for bit, and max is NaN or inf exactly when some entry is
    return (
        (e.min_pivot > DEFAULT_RANK_TOL * a_max)
        & (a_max >= lo)
        & (a_max <= hi)
        & (zeta <= 0.5)
        & (g <= 0.5)
        & np.isfinite(bound)
        & np.isfinite(sq.max(axis=1))
        & (np.sqrt(sq.min(axis=1)) > 2 * bound)
    )


def hermitian_top_eig(X) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and a unit top eigenvector of a Hermitian X.

    X is Hermitian when max |X - X^*| <= 1e-12 max |X|, a test that does
    not change when X is scaled."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("hermitian_top_eig requires a square matrix")
    if np.max(np.abs(X - X.conj().T)) > 1e-12 * np.max(np.abs(X)):
        raise ValueError("matrix is not Hermitian within tolerance 1e-12 max |X|")
    w, v = np.linalg.eigh((X + X.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    v1 = v[:, 0] / np.linalg.norm(v[:, 0])
    return w, v1


def null_space_vector(M) -> np.ndarray:
    """A unit right-null vector of M (the smallest right singular vector).

    Raises ValueError when M is not finite or numerically full column rank.
    """
    M = np.asarray(M)
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("null_space_vector requires finite entries")
    m, c = M.shape
    u, s, vt = np.linalg.svd(M)
    smax = float(s[0]) if s.size else 0.0
    if _policy_ranks(s)[0] >= c:
        raise ValueError("matrix is numerically full column rank; no null vector")
    v = vt[-1].conj()
    resid = float(np.linalg.norm(M @ v))
    if smax > 0 and resid > DEFAULT_RANK_TOL * smax:
        raise ValueError(f"null vector residual {resid:.3e} exceeds DEFAULT_RANK_TOL * sigma_max")
    return v

"""Exact desk-scale l0 phase retrieval over the complexes.

Per candidate support I of size k, the magnitudes give m real-linear
equations tr(phi_i phi_i^* X) = y_i^2 in the Hermitian lift X = x x^*
(k^2 real unknowns, phi_i the conjugated i-th row restricted to I).  With
m >= k^2 generic rows the Hermitian solution is unique, so solving the
linear system and extracting the top eigenpair recovers x exactly; a
candidate is accepted only when the system residual, positive
semidefiniteness, and the rank-one defect lambda_2 / lambda_1 all pass.
That unique-lift path is exact for every k at m >= k^2, which the paper's
m = 4k - 2 threshold meets for k <= 3, wherever the lift has full column
rank under the SVD rank policy (numerics._policy_ranks); a consistent
support whose lift does not (a zero row at m = k^2) is undecided.

Just below m = k^2, at k^2 - 2 <= m < k^2 with m >= 4k - 2 (k = 4 at m =
14 and 15, k = 5 at m = 23 and 24), the lifted solutions of a support
form a line or a plane v0 + N c.  Rank one makes every 2x2 minor of X(c)
vanish, and the minors are quadratics in c: linear in the monomials of
degree <= 2 in (1, c), a 72 x 6 system Q at k = 4, m = 14 (linearization
of an overdetermined quadratic system, as in Kipnis and Shamir, CRYPTO
1999).  One batched SVD of the lifts and one of the Q's decide, under the
SVD rank policy, that a support has at most one rank-one point and find
it; it passes the unique-lift path's test (_rank_one_class).  This plane
level is exact too, and labels its classes "lifted" (_plane_level).  A
support either level cannot decide (a rank-deficient lift whose system
is consistent, as with a zero row, or a lift that overflows, which takes
entries of A near the top of the float range, since the solve scales y
into [1/2, 1) but not A; an inconsistent one holds no class), and every
support size outside both rules, goes to multi-start Levenberg-Marquardt
refinement, which labels its output heuristic.  A generic (14, 6, 4)
solve takes about 3 ms on the plane level, against about 25 ms by the
refinement it replaces (2-core Intel Xeon, one BLAS thread).

The lifted levels are screened in batch, once per solve, at the largest
size whose lift has a row outside its pivots (_lifted_screen):
numerics._lstsq_screen builds each support's lift from its parent's
(adding index c adds 2k - 1 columns: c's diagonal unknown and the (Re,
Im) pair of (i, c) for each earlier i) and proves that most supports
fail the residual test.  A support it rules out rules out its subsets,
whose lifts are part of its own, so each smaller size takes as
candidates only the supports all of whose supersets it flagged.  Only
the candidates are lifted in full and run lstsq and the rest of the
per-support test.  So the output is bit for bit that of a scan that
solves every support, and a generic (m, n, k) = (10, 12, 3) solve runs
lstsq on one of its 298 supports.  One screen call covers a whole stack
of problems of one shape.  The level loop around it is solver_real's
core (_solve_batch), which this module gives its screen and its level
function.

A collision probe searches for two non-phase-equivalent sparse vectors
with identical magnitudes; it is a falsification attempt, never a proof
of uniqueness.  It samples a unit u on each support I and asks, for
each support J, whether some v on J has |A_J v| = |A_I u|.  Where the
lift has one solution (m >= k^2, the "lifted" sizes), that question is
linear and the probe answers it on the lift: one batched SVD of the
C(n, k) lifts gives each full-column-rank G_J's pseudo-inverse, and a
sample's candidate is the top eigenpair of the Hermitian matrix G_J^+
|A_I u|^2 (PhaseLift's lift, Candes, Strohmer and Voroninski, 2013).
A J whose lift is rank deficient, and every other support size, takes
the batched Levenberg-Marquardt kernel, _batched_levenberg_marquardt.
Either way the probe's objective is the candidate's measured mismatch
|| |A_J v| - |A_I u| ||_2, so a negative verdict is evidence over the
sampled u, not proof.  The probe scales A by an exact power of two
first, so its verdict and pair do not change when A is scaled by one.
A (6, 4, 2) probe with 8 restarts takes about 1 to 2 ms on the lift,
against about 16 ms by the kernel (2-core Intel Xeon, one BLAS thread).

The kernel, which the heuristic solve runs too, solves no restart
frozen at its damping cap and reforms J^T J only after an accepted
step, with the bits of a kernel that does all that work.  A restart
also stops after an accepted step that lowers its sum of squares by at
most _FTOL (sqrt(eps)) of its value, MINPACK lmder's ftol test:
restarts stalled at a positive local minimum, or at the roundoff
floor, otherwise keep taking such steps to the iteration cap.  The
test is a ratio.  The absolute 1e-24 stop and damping clip are not, so
both callers run the kernel in fixed units: A scaled by a power of two
so that max |A| lies in [1/2, 1) (_pow2_normalized), and targets of
order one (the solve's y, whose maximum _prepare puts in [1/2, 1) too,
or the probe's |A_I u| of a unit u).  So neither a verdict nor a
heuristic class changes when A or y is scaled by a power of two.  On
the test corpora the ftol test changes no probe verdict and no
heuristic solution set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, frexp, isqrt, ldexp, sqrt

import numpy as np

from .model import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    _canonical_values,
    as_measurement,
)
from .numerics import _lstsq_screen, _policy_ranks, _subset_candidates, hermitian_top_eig
from .solver_real import SolutionSet, _Candidate, _check_int, _ldexp, _meas_err, _prepare, _Problem, _solve_batch

__all__ = [
    "CollisionProbe",
    "GaussNewtonResult",
    "solve_l0_complex",
    "refine_gauss_newton",
    "collision_probe_complex",
    "column_magnitude_collision_1sparse",
]

RANK1_TOL = 1e-6
PSD_TOL = 1e-8
# Seeded starts per support on the heuristic path (_refined_level).
HEURISTIC_RESTARTS = 8
# MINPACK lmder's ftol: an LM restart whose accepted step lowers its sum
# of squares || |A_J v|^2 - t^2 ||_2^2 by at most this fraction of its
# value stops after that step.  A ratio, so it does not change when A and
# y are rescaled.
_FTOL = sqrt(np.finfo(float).eps)
# Rows (supports or support pairs x restarts) one LM kernel call holds
# (the collision probe's first block excepted); bounds the kernel's
# working arrays to a few MB.
_PROBE_ROWS = 4096
# Rows of the collision probe's first block.  It sizes the probe's LM
# kernel calls: rows on the lift cost a few us each and take no kernel
# call.  A kernel call costs about c0 = 7 ms however few its rows (numpy
# call overhead per iteration), plus about c1 = 40 us per row (m = 6, k
# = 2; a linear fit over calls of 8 to 2400 rows; before the ftol stop,
# c0 = 14 ms and c1 = 65 to 87 us by the same fit).  A probe that needs
# more rows than the first call holds pays c0 again for a second call;
# one that stops earlier pays c1 for each row it did not need.  With
# about c0 / c1 rows (160 to 230 by that fit, both before and after)
# neither loss exceeds one call's fixed cost; 300 is within 2x of it.
_PROBE_FIRST_ROWS = 300
# Supports per block of _plane_level: about 3 MB of working arrays at
# k = 4 (the minor products dominate).
_PLANE_SUPPORTS = 256
# What _lifted_support_solve returns for a support whose lift the SVD rank
# policy cannot decide.
_UNDECIDED = "undecided"
_PROPORTIONAL_TOL = 1e-10  # column_magnitude_collision_1sparse's relative fit miss


@dataclass(frozen=True)
class CollisionProbe:
    """Best near-collision found by the optimization probe."""

    pair: tuple[SparseVector, SparseVector] | None
    objective: float
    restarts: int
    verdict: str  # collision_found | no_collision_found


@dataclass(frozen=True)
class GaussNewtonResult:
    """One refined start: x, || |A_I x| - y ||_2 at x, and the accepted steps."""

    x: np.ndarray
    residual: float
    iterations: int


def _lift_system(A_S: np.ndarray) -> np.ndarray:
    """Real (S, m, k^2) stack of the systems tr(phi phi^* X) = y^2 over
    Hermitian X, one per (m, k) slice of the complex stack A_S.

    Unknown order: k diagonal entries, then (Re, Im) for each off-diagonal
    pair (p, q) with p < q, in np.triu_indices order.  Every entry is an
    elementwise product, so a slice's bits do not depend on the stack.
    """
    k = A_S.shape[-1]
    p, q = np.triu_indices(k, 1)
    off = np.conj(A_S[..., q]) * A_S[..., p]
    G = np.empty(A_S.shape[:-1] + (k * k,))
    G[..., :k] = (np.conj(A_S) * A_S).real
    G[..., k::2] = 2.0 * off.real
    G[..., k + 1 :: 2] = -2.0 * off.imag
    return G


def _assemble_hermitian(v: np.ndarray, k: int) -> np.ndarray:
    """The Hermitian (..., k, k) matrices whose lift unknowns are the last
    axis of v, in _lift_system's order.  Every entry is a copy or one
    elementwise operation, so a slice's bits do not depend on the stack."""
    p, q = np.triu_indices(k, 1)
    X = np.zeros(v.shape[:-1] + (k, k), dtype=np.complex128)
    X[..., np.arange(k), np.arange(k)] = v[..., :k]
    X[..., p, q] = v[..., k::2] + 1j * v[..., k + 1 :: 2]
    X[..., q, p] = v[..., k::2] - 1j * v[..., k + 1 :: 2]
    return X


def _lifted_support_solve(
    G: np.ndarray,
    A_I: np.ndarray,
    p: _Problem,
    rhs: np.ndarray,
    support: tuple[int, ...],
) -> tuple[SparseVector, float] | str | None:
    """The canonical class and rank-one defect one support's lift G yields
    on problem p, None, or _UNDECIDED.

    rhs is p.y^2.  The lifted residual is checked first, so X is assembled
    and eigendecomposed only for a support whose linear system is
    consistent.  A consistent lift without full column rank
    (numerics._policy_ranks on lstsq's singular values counts fewer than
    all of them, as with a zero row at m = k^2) has a line or more of
    solutions, of which lstsq's minimum-norm one need not be the rank-one
    point, and a non-finite lift has no residual to test: both are
    _UNDECIDED, for the heuristic path.
    """
    if not np.isfinite(G).all():
        return _UNDECIDED
    v, _, _, sv = np.linalg.lstsq(G, rhs, rcond=None)
    resid = float(np.linalg.norm(G @ v - rhs))
    if not resid <= p.resid_tol:  # also rejects a NaN residual
        return None
    if _policy_ranks(sv)[0] < sv.size:
        return _UNDECIDED
    return _rank_one_class(_assemble_hermitian(v, len(support)), A_I, p, support)


def _rank_one_class(X: np.ndarray, A_I: np.ndarray, p: _Problem,
                    support: tuple[int, ...]) -> tuple[SparseVector, float] | None:
    """The canonical class of a finite Hermitian X that is a lifted
    solution on support of problem p, and its rank-one defect, or None:
    the acceptance rule of both exact levels.  X must be positive
    semidefinite (lambda_k >= -PSD_TOL lambda_1, lambda_1 > 0) and rank one
    (lambda_2 / lambda_1 <= RANK1_TOL); x = sqrt(lambda_1) v_1 must have
    every entry above p.tol_x and fit p.y to p.tol_abs."""
    k = len(support)
    eigs, v1 = hermitian_top_eig(X)
    lam1 = float(eigs[0])
    defect = 0.0 if k == 1 or lam1 <= 0 else max(0.0, float(eigs[1])) / lam1
    if not (lam1 > 0 and float(eigs[-1]) >= -PSD_TOL * lam1 and defect <= RANK1_TOL):
        return None
    x_vals = np.sqrt(lam1) * v1
    if np.min(np.abs(x_vals)) > p.tol_x and _meas_err(A_I, x_vals, p.y) <= p.tol_abs:
        x_vals = _canonical_values(Field.COMPLEX, x_vals)
        return SparseVector(Field.COMPLEX, p.entries.shape[1], support, x_vals), defect
    return None


def _lift_columns(entries: np.ndarray):
    """The columns of the lift that adding index c to a support adds, as
    numerics._lstsq_screen's new_columns: c's diagonal unknown, then the
    (Re, Im) pair of (i, c) for each index i of the support, in order.
    Each is the column _lift_system builds for that unknown, bit for bit.
    """

    def columns(cols: np.ndarray, c: np.ndarray) -> list[np.ndarray]:
        a = np.conj(entries[:, c])
        out = [(a * entries[:, c]).real]
        for i in cols:
            off = a * entries[:, i]
            out += [2.0 * off.real, -2.0 * off.imag]
        return out

    return columns


def _lifted_screen(problems: list[_Problem], k_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """_solve_batch's screen over the complexes: one numerics._lstsq_screen
    call for every problem at top, the largest size up to k_max whose
    lift has fewer than m columns (top^2 < m; the screen flags every
    support of m or more), and its _subset_candidates.  Every size up to
    top is lifted (_level_method).

    It gets the lifted residual test (right-hand side y^2, no signs,
    computed norm at most the problem's resid_tol, on this y^2 scale).  It
    builds each support's lift from its parent's with _lift_columns, so
    its columns are _lift_system's in the order the levels introduce
    them; the residual test does not depend on that order.
    """
    m, n = problems[0].entries.shape
    top = min(k_max, isqrt(m - 1))
    if top < 1:
        return []
    rhs = np.stack([p.y**2 for p in problems])  # y^2 is each problem's one right-hand side
    side_by_side = np.concatenate([p.entries for p in problems], axis=1)
    resid_tol = np.array([p.resid_tol for p in problems])
    flags = _lstsq_screen(_lift_columns(side_by_side), n, top, rhs, np.ones((1, top * top)), resid_tol)
    return _subset_candidates(flags, n, top)


def _lifted_level(problems: list[_Problem], supports: list[list[tuple[int, ...]]]
                  ) -> list[tuple[list[_Candidate], list[tuple[int, ...]]]]:
    """Each problem's _lifted_support_solve hits among its candidate
    supports of one size (from _lifted_screen), as "lifted" candidates in
    support order, and its _UNDECIDED supports, in support order.

    Each candidate is lifted by _lift_system, in its own column order,
    and runs _lifted_support_solve on its own problem.  A support the
    screen rules out would have returned None, so the hits and the
    undecided supports are the full scan's, bit for bit.
    """
    out = []
    for p, candidates in zip(problems, supports):
        t = p.y**2
        hits, undecided = [], []
        for support in candidates:
            A_I = p.entries[:, support]
            hit = _lifted_support_solve(_lift_system(A_I[None])[0], A_I, p, t, support)
            if hit is _UNDECIDED:
                undecided.append(support)
            elif hit is not None:
                hits.append((hit[0], "lifted", hit[1]))
        out.append((hits, undecided))
    return out


def _minor_system(B: np.ndarray) -> np.ndarray:
    """Real (S, 2 C(k, 2)^2, D (D + 1) / 2) stack Q with Q w(c) = 0 exactly
    when every 2x2 minor of X(c) = sum_a c_a B_a vanishes, for B (S, D, k,
    k) and c = (c_0, ..., c_(D-1)).

    w(c) holds the monomials c_a c_b, a <= b, in np.triu_indices(D)
    order, so with c_0 = 1 it is (1, c_1, ..., c_(D-1), c_1^2, ...).  Row
    block (P, R) of a column holds the real and imaginary parts of the
    coefficient of its monomial in the minor of row pair P and column
    pair R (np.triu_indices(k, 1) order).
    """
    S, D, k, _ = B.shape
    p1, p2 = np.triu_indices(k, 1)
    top, bottom = B[:, :, p1], B[:, :, p2]  # (S, D, P, k): the pairs' first and second rows
    # minor_ab = B_a[p1, q1] B_b[p2, q2] - B_a[p1, q2] B_b[p2, q1] over row and column pairs
    M = top[..., p1][:, :, None] * bottom[..., p2][:, None] - top[..., p2][:, :, None] * bottom[..., p1][:, None]
    a, b = np.triu_indices(D)
    coef = np.where((a == b)[:, None, None], M[:, a, b], M[:, a, b] + M[:, b, a]).reshape(S, a.size, p1.size**2)
    return np.concatenate([coef.real, coef.imag], axis=2).transpose(0, 2, 1)


def _plane_level(p: _Problem, k: int) -> tuple[list[_Candidate], list[tuple[int, ...]]]:
    """One problem's "lifted" candidates at a support size where the lift
    leaves a line or a plane of solutions (k^2 - 2 <= m < k^2), in
    support order, and the supports the SVD rank policy cannot decide, in
    support order.

    Per support I, in blocks of _PLANE_SUPPORTS supports, with no loop
    over iterations:
    - One SVD of the lift G (m x k^2) of A_I.  When G has full row rank
      (numerics._policy_ranks counts all m), the Hermitian solutions of
      G v = y^2 are v0 + N c over real c: v0 the pseudo-inverse solution,
      N the d = k^2 - m null vectors.
    - With B_0 = H(v0 / max |v0|) and B_j = H(N_j) (H as
      _assemble_hermitian), X(c) = B_0 + sum_j c_j B_j is, up to the
      factor max |v0|, every solution.  Every 2x2 minor of X(c) is a
      quadratic in c, so each is linear in the monomial vector w(c) = (1,
      c_1, ..., c_d, c_1^2, c_1 c_2, ...): Q w(c) = 0 (_minor_system,
      72 x 6 at k = 4, d = 2).
    - One SVD of Q.  When Q has rank at least (its columns) - 1 under
      the same policy, its last right singular vector w gives c =
      w[1:d+1] / w[0], and X(c) goes to _rank_one_class, the test of
      the unique-lift level.

    Completeness.  Let x be a solution on I, so X* = x x^* solves the
    lifted system and is rank one: X* = max |v0| X(c*) for one real c*
    (G has full row rank, so N spans its null space), and every minor of
    X(c*) vanishes, so Q w(c*) = 0 with w(c*)_0 = 1.  A decided Q has a
    null space of dimension at most one, so it is spanned by w(c*): w is
    a multiple of w(c*), and c = c*.  So a decided support has at most
    one rank-one point, the candidate is that point, and the support
    holds no class unless it passes the test; soundness is the test's.

    A lift without full row rank (as with a zero row or two
    phase-proportional columns in I) first gets the unique-lift level's
    residual test: lstsq's solution (the SVD's, singular values at or
    below lstsq's default cutoff dropped) must fit y^2 to p.resid_tol.  One
    that fails has no Hermitian solution, so the support holds no class
    and is ruled out.  A full-row-rank lift fits every right-hand side,
    so the test cannot rule it out and is not applied to it.

    An undecided support is returned for the heuristic path: G
    rank-deficient with a consistent system (as with a zero row), v0 zero
    or not finite, a Q null space of dimension two or more, or a lift
    that is not finite (entries near the top of the float range, where
    the lift overflows).  A non-finite lift never enters the batched SVD,
    which does not return on one, so the other supports of its block are
    decided as without it.
    """
    m, n = p.entries.shape
    d = k * k - m
    rhs = p.y**2
    all_supports = list(itertools.combinations(range(n), k))
    hits, undecided = [], []
    for lo in range(0, len(all_supports), _PLANE_SUPPORTS):
        supports = all_supports[lo : lo + _PLANE_SUPPORTS]
        G = _lift_system(p.entries[:, np.array(supports)].transpose(1, 0, 2))  # (S, m, k^2)
        finite = np.flatnonzero(np.isfinite(G).all(axis=(1, 2)))  # LAPACK's SVD hangs on the rest
        G = G[finite]
        U, s, Vt = np.linalg.svd(G)
        with np.errstate(all="ignore"):
            # lstsq's solution: singular values at or below its default cutoff are dropped
            kept = s > np.finfo(float).eps * k * k * s[:, :1]
            v0 = np.einsum("si,sij->sj", np.where(kept, (rhs @ U) / s, 0.0), Vt[:, :m])
            size = np.abs(v0).max(axis=1)
            resid = _row_norm(np.einsum("sij,sj->si", G, v0) - rhs)
        full_rank = _policy_ranks(s)[0] == m
        inconsistent = ~full_rank & ~(resid <= p.resid_tol)  # also a NaN residual
        full = np.flatnonzero(full_rank & (size > 0) & (size < np.inf))
        v0, size, N = v0[full], size[full], Vt[full, m:]
        full = finite[full]
        B = _assemble_hermitian(np.concatenate([(v0 / size[:, None])[:, None], N], axis=1), k)
        _, qs, qVt = np.linalg.svd(_minor_system(B), full_matrices=False)
        w = qVt[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            X = _assemble_hermitian(v0 + size[:, None] * np.einsum("sj,sji->si", w[:, 1 : d + 1] / w[:, :1], N), k)
        decided = _policy_ranks(qs)[0] >= qs.shape[1] - 1
        known = np.zeros(len(supports), dtype=bool)
        known[full[decided]] = True
        known[finite[inconsistent]] = True  # ruled out: no Hermitian solution, so no class
        undecided += itertools.compress(supports, ~known)
        # a null vector with w[0] = 0 has no finite point: no class
        for j in np.flatnonzero(decided & np.isfinite(X).all(axis=(1, 2))):
            support = supports[full[j]]
            hit = _rank_one_class(X[j], p.entries[:, support], p, support)
            if hit is not None:
                hits.append((hit[0], "lifted", hit[1]))
    return hits, undecided


def solve_l0_complex(
    A: MeasurementEnsemble,
    y,
    k_max: int,
    tol: float = 1e-8,
    allow_heuristic: bool = False,
    seed: int = 0,
) -> SolutionSet:
    """Solve min ||x||_0 subject to |Ax| = y over the complexes.

    _level_method(m, k) picks each support size's path.  The "lifted"
    sizes (m >= k^2) are screened in batch, once, at the largest of them
    below m = k^2 (see _lifted_screen), and only the candidate supports
    run lstsq on their lifted system (see _lifted_level).  A
    "plane" size (k^2 - 2 <= m < k^2 and m >= 4k - 2: k = 4 at m = 14,
    15, k = 5 at m = 23, 24) finds each support's one rank-one lifted
    solution from two batched SVDs (see _plane_level); its classes are
    also labeled "lifted".  Both are exact.  The other sizes ("refined"),
    and the supports of a lifted or plane size whose lift the SVD rank
    policy cannot decide, are only scanned when allow_heuristic is set;
    without it they raise ValueError.  There every support gets
    HEURISTIC_RESTARTS seeded starts, and one batched Levenberg-Marquardt
    call refines all (supports x restarts) of the level; classes found
    there are labeled "refined" and the solution set is flagged
    heuristic.  seed must be an integer >= 0, whether or not the heuristic
    path runs.
    """
    return _solve_complex_batch([A], [y], k_max, tol, allow_heuristic, seed)[0]


def _solve_complex_batch(As: list[MeasurementEnsemble], ys: list, k_max: int, tol: float = 1e-8,
                         allow_heuristic: bool = False, seed: int = 0) -> list[SolutionSet]:
    """solve_l0_complex(A, y, k_max, ...) for each pair, as a list; every
    A has the same (m, n).  A sweep row runs it.

    One _lifted_screen call screens every problem before the first level.
    The level function runs a lifted level as one _lifted_level call for
    all the problems still searching, on their candidates, a plane level
    as one _plane_level
    call per problem, each followed by one _refined_level call per
    problem on the supports left undecided, if any, and a refined level
    as one _refined_level call per problem.  A problem is flagged
    heuristic at a refined level, or at a lifted or plane level that left
    it a support.  Each
    support counts one pattern, plus HEURISTIC_RESTARTS for each support
    the heuristic path refines.
    """
    problems = [_prepare(A, y, k_max, tol, Field.COMPLEX) for A, y in zip(As, ys)]
    _check_int(seed, "seed", 0)
    bad = [(A.m, k) for k in range(1, k_max + 1) for A in As if _level_method(A.m, k) == "refined"]
    if bad and not allow_heuristic:
        raise ValueError(f"support size {bad[0][1]} needs the heuristic path at m = {bad[0][0]} (exact only for "
                         "m >= k^2, or for k^2 - 2 <= m < k^2 with m >= 4k - 2); "
                         "pass allow_heuristic=True to enable it")

    def refine(p: _Problem, supports: list[tuple[int, ...]]) -> list[_Candidate]:
        p.stats.patterns_tried += len(supports) * HEURISTIC_RESTARTS
        return _refined_level(p, supports, seed) if supports else []

    def level(live: list[_Problem], k: int, supports: list[list[tuple[int, ...]]]):
        m, n = live[0].entries.shape
        method = _level_method(m, k)
        for p in live:
            p.stats.supports_tried += comb(n, k)
            p.stats.patterns_tried += comb(n, k) if method != "refined" else 0
        if method == "refined":  # above every screened size, so supports holds every k-subset
            return [refine(p, every) for p, every in zip(live, supports)], [True] * len(live)
        decided = _lifted_level(live, supports) if method == "lifted" else [_plane_level(p, k) for p in live]
        found, flagged = [], []
        for p, (hits, undecided) in zip(live, decided):
            if undecided and not allow_heuristic:
                raise ValueError(f"support {undecided[0]} of size {k} needs the heuristic path: the SVD rank "
                                 "policy cannot decide its lifted system; pass allow_heuristic=True to enable it")
            found.append(sorted(hits + refine(p, undecided), key=lambda c: c[0].support))
            flagged.append(bool(undecided))
        return found, flagged

    return _solve_batch(problems, k_max, Field.COMPLEX, _lifted_screen, level)


def _level_method(m: int, k: int) -> str:
    """How support size k is solved at m rows: "lifted" when the lift has
    one solution (m >= k^2), "plane" when its solutions form a line or a
    plane and m is at least the paper's 4k - 2 (k^2 - 2 <= m < k^2), both
    exact, and "refined" (the heuristic path) otherwise."""
    if m >= k * k:
        return "lifted"
    if m >= max(k * k - 2, 4 * k - 2):
        return "plane"
    return "refined"


def _refined_level(p: _Problem, supports: list[tuple[int, ...]], seed: int) -> list[_Candidate]:
    """Multi-start LM candidates of one support size of problem p, labeled
    "refined", in (support, restart) order.

    The kernel runs on A scaled as the collision probe scales it
    (_pow2_normalized, by 2^-a) and on the targets p.y, whose maximum lies
    in [1/2, 1), so its absolute stop and damping clip act in the units
    the probe uses, at any scale of A and y.  Each support gets
    HEURISTIC_RESTARTS restarts; restart r on support I starts from
    SeedSequence(seed, spawn_key=(k, support key of I, r)), standard normal
    real and imaginary parts.  A candidate is tested in those units (its
    entries against p.tol_x 2^a), made canonical and scaled back to A's
    units by 2^-a.  The supports go through the kernel in blocks of about
    _PROBE_ROWS rows; the kernel's rows are independent, so the candidates
    do not depend on the blocking.
    """
    entries, a = _pow2_normalized(p.entries)
    y, tol_x = p.y, ldexp(p.tol_x, a)
    n = entries.shape[1]
    k = len(supports[0])
    block = max(1, _PROBE_ROWS // HEURISTIC_RESTARTS)
    out = []
    for lo in range(0, len(supports), block):
        chunk = supports[lo : lo + block]
        X0 = np.empty((len(chunk), HEURISTIC_RESTARTS, k), dtype=np.complex128)
        for b, support in enumerate(chunk):
            for r in range(HEURISTIC_RESTARTS):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, _support_key(support), r)))
                X0[b, r] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        targets = np.broadcast_to(y, (len(chunk), HEURISTIC_RESTARTS, y.size))
        X, _, _ = _batched_levenberg_marquardt(_support_stack(entries, chunk), targets, X0)
        for support, xs in zip(chunk, X):
            A_I = entries[:, support]
            for x in xs:
                if np.min(np.abs(x)) > tol_x and _meas_err(A_I, x, y) <= p.tol_abs:
                    x = _ldexp(_canonical_values(Field.COMPLEX, x), -a)
                    out.append((SparseVector(Field.COMPLEX, n, support, x), "refined", None))
    return out


def _support_key(support: tuple[int, ...]) -> int:
    key = 0
    for i in support:
        key |= 1 << i
    return key


def _support_stack(entries: np.ndarray, supports: list[tuple[int, ...]]) -> np.ndarray:
    """(S, k, m) stack whose slice s is entries[:, supports[s]].T, C-contiguous.

    The LM kernel multiplies by these slices, and the BLAS call, and so
    the rounding, depends on their layout.
    """
    idx = np.array(supports, dtype=int, ndmin=2)
    return np.ascontiguousarray(entries[:, idx.T].transpose(2, 1, 0))


def refine_gauss_newton(A_I: np.ndarray, y, x_init: np.ndarray, iters: int = 120) -> GaussNewtonResult:
    """Levenberg-damped Gauss-Newton on f_i(x) = |a_i x|^2 - y_i^2 from one start.

    One row of _batched_levenberg_marquardt: a step is accepted only when
    || f ||_2 decreases, so that objective is non-increasing in iters.
    The kernel runs in the units _refined_level gives it: A_I scaled by
    2^-a (_pow2_normalized), y by 2^-b, b the exponent np.frexp gives max
    y, and x_init by 2^(a - b); x and the residual are scaled back
    exactly.  So (2^i A_I, 2^j y, 2^(j - i) x_init) gives the steps of
    (A_I, y, x_init), x times 2^(j - i) and the residual times 2^j, bit
    for bit (bar subnormal or overflowing values).
    """
    y = as_measurement(y).magnitudes
    x = np.asarray(x_init, dtype=np.complex128).reshape(1, 1, -1)
    if np.all(x == 0):
        raise ValueError("x_init must be nonzero")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    entries, a = _pow2_normalized(A_I)
    b = frexp(float(y.max(initial=0.0)))[1]
    AT = _support_stack(entries, [tuple(range(x.shape[-1]))])
    X, obj, steps = _batched_levenberg_marquardt(AT, np.ldexp(y, -b)[None, None], _ldexp(x, a - b), iters)
    return GaussNewtonResult(x=_ldexp(X[0, 0], b - a), residual=ldexp(float(obj[0, 0]), b),
                             iterations=int(steps[0, 0]))


def column_magnitude_collision_1sparse(A: MeasurementEnsemble) -> bool:
    """True iff a column is zero or two distinct columns have
    elementwise-proportional magnitudes.

    That is exactly the condition for a 1-sparse collision |c| |a_i| =
    |c'| |a_j| between non-phase-equivalent c e_i and c' e_j: with i = j
    it needs a_i = 0 (c e_i and 2 c e_i both measure 0), with i != j
    proportional magnitudes.  So it decides k = 1 uniqueness for the
    ensemble.  Columns u = |a_i| and v = |a_j| count as proportional when
    the least-squares fit c v of u misses it by at most _PROPORTIONAL_TOL
    max u, a test that does not change when A is scaled.
    """
    mags = np.abs(A.entries)
    if not mags.any(axis=0).all():
        return True
    for i, j in itertools.combinations(range(A.n), 2):
        u, v = mags[:, i], mags[:, j]
        c = float(u @ v) / float(v @ v)
        if c <= 0:
            continue
        if np.max(np.abs(u - c * v)) <= _PROPORTIONAL_TOL * float(np.max(u)):
            return True
    return False


def _batched_levenberg_marquardt(AT: np.ndarray, targets: np.ndarray, x0: np.ndarray, iters: int = 120):
    """Levenberg-damped Gauss-Newton over a stack of supports.

    AT: (P, k, m), AT[p] = A_J^T of support p, each C-contiguous (the
    layout _support_stack builds; the BLAS call, and so the rounding,
    depends on it); targets: (P, R, m) magnitude targets; x0: (P, R, k)
    complex starts.  Steps are accepted per restart only when the squared
    objective || |A_J v|^2 - t^2 ||_2 decreases; the damping halves after
    an accepted step and quadruples otherwise, clipped to [1e-12, 1e6].  A
    support stops once every one of its restarts reaches a squared
    objective of 1e-24, when one of its damped normal-equation systems is
    singular, or when every one of its restarts is frozen or stopped
    (below).  Returns (x, objective, steps) with objective the 2-norm of
    the magnitude mismatch |A_J v| - t and steps the accepted steps, each
    of shape (P, R).

    Ftol stop (MINPACK lmder's ftol test).  A restart whose accepted step
    lowers its sum of squares || |A_J v|^2 - t^2 ||_2^2 by at most _FTOL
    of its value (cand^2 >= (1 - _FTOL) obj^2, tested as
    cand >= sqrt(1 - _FTOL) obj) keeps that step and then stops, exactly
    as a frozen row does: no further solve.  Restarts stalled at a
    positive local minimum or at the roundoff floor would otherwise take
    such steps until the iteration cap.  The test is a ratio, so it is scale-free, unlike the
    absolute 1e-24 stop and damping clip.  With _FTOL = 0 it never fires,
    since an accepted step always lowers the objective.  On the test
    corpora it changes no probe verdict and no heuristic solution set;
    the objective a probe reports can move in its last digits.

    The kernel does only work that can change its result, so its output
    is bit for bit that of the full-work kernel, which forms and solves
    the normal equations of every row not stopped by the ftol test, of
    every live support, on every iteration
    (tests/oracles.py::full_work_levenberg_marquardt).

    Rows are independent.  Every quantity of a row (restart) is computed
    from that row's x, its support's A_J^T and targets, and its damping
    lam: the products x @ A_J^T run in the (L, R, k) @ (L, k, m) layout
    of the live supports, whose bits per row depend on neither the other
    rows' values nor L (the blocking tests rest on this), and J, the two
    einsums and np.linalg.solve work row by row, with bits that do not
    depend on which rows share the stack.  So an iteration whose inputs
    for a row repeat an earlier one's repeats that row's outputs.

    Reuse.  J^T J and J^T f depend only on the row's x.  x changes only
    on an accepted step, so they are formed on the first iteration and,
    after that, only for the rows whose step was accepted in the previous
    iteration; every other row's cached pair is the one the full-work
    kernel would form again.  Only lam enters the damped system anew.
    They are formed from r = x @ A_J^T and |r|^2 - t^2, which for an
    accepted row are the products its candidate was scored with (the same
    matmul in the same layout, on the same x), so those are kept rather
    than computed again.  J is filled into an (N, 2k, m) buffer and used
    as its (N, m, 2k) transpose, strides (2k m 8, 8, m 8): einsum's
    summation order, and so the bits of J^T J, follow J's layout (a
    C-contiguous J changes them), so the layout is fixed here rather than
    left to whatever np.concatenate would pick.

    Freeze.  A row whose step is rejected while lam = 1e6 keeps its x and
    objective, and its damping is again clip(4e6) = 1e6.  Its next
    iteration therefore has the same inputs, forms the same system,
    takes the same step and rejects it again; by induction it never moves
    again.  Such a row is frozen: it gets no further solve, and its
    rejection is applied without one.  A support whose restarts are all
    frozen can change nothing more, so it stops.

    Singular systems.  When the batched solve raises, each live support's
    unfrozen rows are solved on their own, and a support with a singular
    system stops unchanged, as in the full-work kernel.  A frozen row's
    system is one that was factored without error in the iteration that
    froze it (a support whose solve failed stopped there), and LU
    factorization is deterministic, so skipping it hides no singular
    system.  A row stopped by the ftol test is not solved by the
    full-work kernel either.
    """
    P, R, k = x0.shape
    eye = np.eye(2 * k)[None]
    # An accepted step is a row's last when cand_obj >= stall_ratio * obj,
    # that is when it lowers obj^2 by at most _FTOL of its value.
    stall_ratio = sqrt(1.0 - _FTOL)

    def residuals(xc, ATc, t2c):
        r = xc @ ATc
        f = np.abs(r) ** 2 - t2c
        return r, f, _row_norm(f)

    x = np.empty_like(x0)
    steps = np.empty((P, R), dtype=int)
    # Working arrays hold the live supports only; a support that stops is
    # written back to x and steps and dropped.
    live = np.arange(P)
    xs, ats, t2 = x0.copy(), AT, targets**2
    # r, f: the products x @ A_J^T and |r|^2 - t^2 of each row's latest
    # evaluation, which for a fresh row is its current x.
    r, f, obj = residuals(xs, ats, t2)
    taken = np.zeros((P, R), dtype=int)
    lam = np.full((P, R), 1e-3)
    moving = np.ones((P, R), dtype=bool)  # rows not frozen
    fresh = np.ones((P, R), dtype=bool)  # rows whose x changed since JtJ, Jtf were formed
    JtJ = np.empty((P, R, 2 * k, 2 * k))
    Jtf = np.empty((P, R, 2 * k))
    for _ in range(iters):
        p, q = np.nonzero(fresh)
        if p.size:
            cr = np.conj(r[p, q])[..., None] * ats.transpose(0, 2, 1)[p]  # (N, m, k)
            J = np.empty((p.size, 2 * k, cr.shape[1])).transpose(0, 2, 1)  # (N, m, 2k), layout pinned
            np.multiply(cr.real, 2.0, out=J[..., :k])
            np.multiply(cr.imag, -2.0, out=J[..., k:])
            JtJ[p, q] = np.einsum("rmi,rmj->rij", J, J)
            Jtf[p, q] = np.einsum("rmi,rm->ri", J, f[p, q])
        A_ = JtJ[moving]
        A_ += lam[moving][:, None, None] * eye
        rhs = -Jtf[moving][..., None]
        failed = None
        try:
            delta = np.linalg.solve(A_, rhs)[..., 0]
        except np.linalg.LinAlgError:
            failed = np.zeros(live.size, dtype=bool)
            delta = np.zeros((len(A_), 2 * k))
            counts = moving.sum(axis=1)
            for p, hi in enumerate(np.cumsum(counts)):
                rows = slice(hi - counts[p], hi)  # support p's unfrozen rows
                try:
                    delta[rows] = np.linalg.solve(A_[rows], rhs[rows])[..., 0]
                except np.linalg.LinAlgError:
                    failed[p] = True
        step = np.zeros_like(xs)
        step[moving] = delta[:, :k] + 1j * delta[:, k:]
        cand = xs + step
        r, f, cand_obj = residuals(cand, ats, t2)
        better = (cand_obj < obj) & moving
        if failed is not None:
            better[failed] = False
        stalled = better & (cand_obj >= stall_ratio * obj)
        np.copyto(xs, cand, where=better[..., None])
        np.copyto(obj, cand_obj, where=better)
        taken += better
        moving &= (better | (lam < 1e6)) & ~stalled
        lam *= np.where(better, 0.5, 4.0)
        np.minimum(lam, 1e6, out=lam)
        np.maximum(lam, 1e-12, out=lam)
        fresh = better & moving
        done = (obj <= 1e-24).all(axis=1) | ~moving.any(axis=1)
        if failed is not None:
            done |= failed
        if done.any():
            x[live[done]] = xs[done]
            steps[live[done]] = taken[done]
            keep = ~done
            live, xs, ats, t2, r, f, obj = live[keep], xs[keep], ats[keep], t2[keep], r[keep], f[keep], obj[keep]
            taken, lam, moving, fresh, JtJ, Jtf = taken[keep], lam[keep], moving[keep], fresh[keep], JtJ[keep], Jtf[keep]
            if live.size == 0:
                break
    x[live] = xs
    steps[live] = taken
    mag_obj = _row_norm(np.abs(x @ AT) - targets)
    return x, mag_obj, steps


def _row_norm(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=-1) of a real array, bit for bit: the sum of
    squares it reduces, without its argument handling."""
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def collision_probe_complex(
    A: MeasurementEnsemble,
    k: int,
    restarts: int,
    seed: int,
) -> CollisionProbe:
    """Search for a k-sparse collision over support pairs.

    For each ordered support pair (I, J) a random unit u on I is fixed, t
    = |A_I u|, and a candidate v on J is scored by its mismatch
    || |A_J v| - t ||_2, with `restarts` draws of u per pair.  Finding a
    non-phase-equivalent pair whose mismatch is at most 1e-8 in
    normalized units (below) yields verdict collision_found; otherwise
    no_collision_found.  A negative verdict is evidence over the sampled
    u, not proof.

    Where the lift has one solution (_level_method(m, k) == "lifted", m
    >= k^2: every k at m >= k^2, so k <= 3 at the paper's m = 4k - 2),
    one batched SVD of the C(n, k) lifts G_J (_lift_system) decides each
    J under the SVD rank policy (numerics._policy_ranks: full column rank).
    A decided J's candidate is v = sqrt(max(lambda_1, 0)) e_1, the top
    eigenpair of the Hermitian matrix whose lift unknowns are G_J^+ t^2
    (_lift_candidates).  A collision for the sampled u is a v with |A_J
    v| = t, that is G_J vec(v v^*) = t^2, and a full-column-rank lift has
    one solution, so G_J^+ t^2 is vec(v v^*) and the candidate is v up to
    its phase: the per-sample question is decided, not searched.  The
    pairs of an undecided J (a zero column, or two phase-proportional
    columns, in J), and every pair at a "plane" or "refined" size, are
    refined from one seeded start per restart by the LM kernel
    (_batched_levenberg_marquardt), whose objective is its own.
    Soundness is the measured mismatch either way.

    A is first scaled by an exact power of two, 2^-a with a the exponent
    np.frexp gives max |A| (so its largest entry lies in [1/2, 1)); both
    paths run in those units, the verdict's 1e-8 applies there, and the
    reported objective is scaled back by 2^a.  The pair values do not
    depend on the scale.  So A and 2^j A give the same verdict and pair,
    bit for bit, and objectives 2^j apart.

    Pairs are scanned in order, I major, in blocks: first about
    _PROBE_FIRST_ROWS rows (pairs times restarts), then about _PROBE_ROWS
    rows at a time, the LM rows of a block in one kernel call.  A
    threshold probe, (m, n, k) = (6, 4, 2) with 8 restarts (36 pairs, all
    on the lift), makes no kernel call, and a probe whose collision lies
    among the first pairs returns after that block.

    Support I has one generator, default_rng(SeedSequence(seed,
    spawn_key=(si,))).  It gives each J in turn, in J order, 4 x restarts x
    k normals: u's real and imaginary parts, then the LM starts', which
    only a J off the lift uses.  It lives on from one block to the next,
    so the draws do not depend on the blocking, and a block holds only
    its own.  Every row's candidate is computed row by row, and the block
    filter (_block_best) gives the result of a loop over the pairs, so
    the verdict, objective and pair do not depend on the blocking either.
    """
    _check_int(restarts, "restarts", 1)
    _check_int(k, "k", 1, A.n)
    _check_int(seed, "seed", 0)
    entries, a = _pow2_normalized(A.entries)
    m, n = A.m, A.n
    supports = list(itertools.combinations(range(n), k))
    S = len(supports)
    AT = _support_stack(entries, supports)
    # lifted[j]: support j's lift is decided; PT[j] = (G_J^+)^T
    lifted = np.zeros(S, dtype=bool)
    if _level_method(m, k) == "lifted":
        # normalized entries keep every lift finite, so the SVD can run on all of them
        gU, gs, gVt = np.linalg.svd(_lift_system(entries[:, np.array(supports)].transpose(1, 0, 2)),
                                    full_matrices=False)
        lifted = _policy_ranks(gs)[0] == k * k
        with np.errstate(divide="ignore", invalid="ignore"):
            PT = (gU / gs[:, None, :]) @ gVt  # rows of an undecided J are never read
    best_obj, best_pair = np.inf, None
    rng, rng_si = None, -1
    lo, size = 0, max(1, _PROBE_FIRST_ROWS // restarts)
    while lo < S * S:
        hi = min(lo + size, S * S)
        I_idx, J_idx = np.divmod(np.arange(lo, hi), S)
        draws = []
        for si in range(lo // S, (hi - 1) // S + 1):
            if si != rng_si:  # I's generator lives on into the next block
                rng, rng_si = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(si,))), si
            draws.append(rng.standard_normal((min(hi, si * S + S) - max(lo, si * S), 4, restarts, k)))
        Z = np.concatenate(draws)
        lo, size = hi, max(1, _PROBE_ROWS // restarts)
        U = Z[:, 0] + 1j * Z[:, 1]
        U /= np.linalg.norm(U, axis=2, keepdims=True)
        T = np.abs(U @ AT[I_idx])
        V = np.empty_like(U)
        OBJ = np.empty(U.shape[:2])
        on_lift = lifted[J_idx]
        if on_lift.any():
            Js = J_idx[on_lift]
            V[on_lift], OBJ[on_lift] = _lift_candidates(PT[Js], AT[Js], T[on_lift])
        if not on_lift.all():
            Js = J_idx[~on_lift]
            V0 = Z[~on_lift, 2] + 1j * Z[~on_lift, 3]
            V[~on_lift], OBJ[~on_lift], _ = _batched_levenberg_marquardt(AT[Js], T[~on_lift], V0)
        hit = _block_best(U, V, OBJ, I_idx, J_idx, supports, n, best_obj)
        if hit is not None:
            best_obj, best_pair = hit
            if best_obj <= 1e-8:
                return CollisionProbe(best_pair, float(np.ldexp(best_obj, a)), restarts, "collision_found")
    # best_obj is still inf when no pair passed the filters
    return CollisionProbe(best_pair, float(np.ldexp(best_obj, a)), restarts, "no_collision_found")


def _block_best(U: np.ndarray, V: np.ndarray, OBJ: np.ndarray, I_idx: np.ndarray, J_idx: np.ndarray,
                supports: list[tuple[int, ...]], n: int, best_obj: float):
    """What one block of the probe's scan adds: (objective, (u, v)) of the
    pair that becomes the best, or None.

    U, V: (P, R, k) samples and candidates of the block's pairs (I_idx[p],
    J_idx[p]) (indices into supports), OBJ: (P, R) their mismatches,
    best_obj: the best objective of the blocks before.  Each pair's row
    is its first, in stable order by objective, whose v has no entry of
    modulus at most 1e-12 and which is not phase equivalent at 1e-6 to
    its u (two supports' dense vectors).  A pair beats the running best
    only when its row's objective is strictly lower, so ties keep the
    earlier pair, and the first pair at or below 1e-8 ends the scan: it
    is returned even when a later pair of the block is lower.  All of
    that is array operations over the (P, R) rows; only the returned
    pair's u and v are made canonical, by the scalar _canonical_values.
    So the result is bit for bit that of a loop over the pairs and their
    rows in that order (tests/oracles.py::pairwise_block_best).
    """
    P, R, k = U.shape
    sup = np.array(supports, dtype=int, ndmin=2)
    at = (np.arange(P)[:, None, None], np.arange(R)[None, :, None])
    Ud = np.zeros((P, R, n), dtype=np.complex128)
    Vd = np.zeros_like(Ud)
    Ud[at + (sup[I_idx][:, None],)] = U
    Vd[at + (sup[J_idx][:, None],)] = V
    # phase_equivalent's test, row by row: align v to u by c = h / |h|,
    # h = <v, u>; with h = 0 both vectors must be within tol of zero
    h = np.einsum("pri,pri->pr", np.conj(Vd), Ud)
    size = np.abs(h)
    c = h / np.where(size > 0, size, 1.0)
    equivalent = np.where(size > 0, np.abs(Ud - c[..., None] * Vd).max(axis=2) <= 1e-6,
                          (np.abs(Ud).max(axis=2) <= 1e-6) & (np.abs(Vd).max(axis=2) <= 1e-6))
    passing = ~(np.abs(V) <= 1e-12).any(axis=2) & ~equivalent
    order = np.argsort(OBJ, axis=1, kind="stable")
    ranked = np.take_along_axis(passing, order, axis=1)
    rows = order[np.arange(P), ranked.argmax(axis=1)]
    obj = OBJ[np.arange(P), rows]
    # a pair with no passing row, or whose row's objective is NaN, adds nothing
    obj = np.where(ranked.any(axis=1) & ~np.isnan(obj), obj, np.inf)
    found = np.flatnonzero(obj <= 1e-8)
    p = int(found[0]) if found.size else int(np.argmin(obj))
    if not obj[p] < best_obj:
        return None
    u = _canonical_values(Field.COMPLEX, U[p, rows[p]])
    v = _canonical_values(Field.COMPLEX, V[p, rows[p]])
    return float(obj[p]), (SparseVector(Field.COMPLEX, n, supports[I_idx[p]], u),
                           SparseVector(Field.COMPLEX, n, supports[J_idx[p]], v))


def _lift_candidates(PT: np.ndarray, AT: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lifted candidates of a stack of support pairs and their
    mismatches.

    PT: (P, m, k^2), PT[p] = (G_J^+)^T of pair p's J; AT: (P, k, m), A_J^T
    (as _support_stack); T: (P, R, m) targets t.  Row (p, r) gets w = G_J^+
    t^2, the top eigenpair (lambda_1, e_1) of the Hermitian matrix X whose
    lift unknowns are w (_assemble_hermitian), v = sqrt(max(lambda_1, 0))
    e_1 and || |A_J v| - t ||_2; returns (v, mismatch), of shapes (P, R, k)
    and (P, R).  The matmuls run slice by slice and eigh matrix by matrix,
    so a row's bits do not depend on the other rows of the stack.
    """
    k = AT.shape[1]
    lam, vecs = np.linalg.eigh(_assemble_hermitian((T * T) @ PT, k))  # eigenvalues ascending
    V = np.sqrt(np.maximum(lam[..., -1], 0.0))[..., None] * vecs[..., -1]
    return V, _row_norm(np.abs(V @ AT) - T)


def _pow2_normalized(entries: np.ndarray) -> tuple[np.ndarray, int]:
    """(entries 2^-a as complex, a), a the exponent np.frexp gives max
    |entries|: the largest magnitude lies in [1/2, 1).  ldexp scales each
    part exactly (bar subnormal results), so A and 2^j A give the same
    scaled entries, bit for bit, with exponents j apart."""
    a = int(np.frexp(np.abs(entries).max())[1])
    return _ldexp(np.asarray(entries, dtype=np.complex128), -a), a

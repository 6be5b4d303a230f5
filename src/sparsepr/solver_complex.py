"""Exact desk-scale l0 phase retrieval over the complexes.

Per candidate support I of size k, the magnitudes give m real-linear
equations tr(phi_i phi_i^* X) = y_i^2 in the Hermitian lift X = x x^*
(k^2 real unknowns, phi_i the conjugated i-th row restricted to I).  With
m >= k^2 generic rows the Hermitian solution is unique, so solving the
linear system and extracting the top eigenpair recovers x exactly; a
candidate is accepted only when the system residual, positive
semidefiniteness, and the rank-one defect lambda_2 / lambda_1 all pass.
The lifted path is exact for k <= 3 at the m = 4k - 2 threshold (where
m >= k^2 holds); beyond that the solver degrades to multi-start
Levenberg-Marquardt refinement and labels its output heuristic.

Each lifted level is screened in batch: numerics._lstsq_screen builds
each support's lift from its parent's (adding index c adds 2k - 1
columns: c's diagonal unknown and the (Re, Im) pair of (i, c) for each
earlier i), proves that most supports fail the residual test, and only
the supports it flags are lifted in full and run lstsq and the rest of
the per-support test.  So the output is bit for bit that of a scan that
solves every support, and a generic (m, n, k) = (10, 12, 3) solve runs
lstsq on one of its 298 supports.  One screen call covers a whole stack
of problems of one shape.  The level loop around it is solver_real's
core (_solve_batch), which this module gives its level function.

A collision probe searches for two non-phase-equivalent sparse vectors
with identical magnitudes; it is a falsification attempt, never a proof
of uniqueness.  The probe and the heuristic solve run the same batched
Levenberg-Marquardt kernel, _batched_levenberg_marquardt, which solves
no restart frozen at its damping cap and reforms J^T J only after an
accepted step, with the bits of a kernel that does all that work.  A
restart also stops after an accepted step that lowers its sum of
squares by at most _FTOL (sqrt(eps)) of its value, MINPACK lmder's ftol
test: restarts stalled at a positive local minimum, or at the
roundoff floor, otherwise keep taking such steps to the iteration cap.
The test is a ratio, so unlike the absolute 1e-8 verdict, 1e-24 stop
and damping clip it does not change when A and y are rescaled.  On the
test corpora it changes no probe verdict and no heuristic solution set;
the objective a probe without a collision reports can move in its last
digits (by up to 4e-5 relative there).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .model import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    _canonical_values,
    _dense,
    _phase_equivalent_dense,
    as_measurement,
)
from .numerics import _lstsq_screen, hermitian_top_eig
from .solver_real import SolutionSet, _Candidate, _check_int, _meas_err, _prepare, _Problem, _solve_batch

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
# MINPACK lmder's ftol: an LM restart whose accepted step lowers its sum
# of squares || |A_J v|^2 - t^2 ||_2^2 by at most this fraction of its
# value stops after that step.  A ratio, so it does not change when A and
# y are rescaled.
_FTOL = sqrt(np.finfo(float).eps)
# Rows (supports or support pairs x restarts) one LM kernel call holds
# (the collision probe's first block excepted); bounds the kernel's
# working arrays to a few MB.
_PROBE_ROWS = 4096
# Rows of the collision probe's first kernel call.  A kernel call costs
# about c0 = 7 ms however few its rows (numpy call overhead per
# iteration), plus about c1 = 40 us per row (m = 6, k = 2; a linear fit
# over calls of 8 to 2400 rows; before the ftol stop, c0 = 14 ms and
# c1 = 65 to 87 us by the same fit).  A probe that needs more rows than
# the first call holds pays c0 again for a second call; one that stops
# earlier pays c1 for each row it did not need.  With about c0 / c1 rows
# (160 to 230 by that fit, both before and after) neither loss exceeds
# one call's fixed cost; 300 is within 2x of it.
_PROBE_FIRST_ROWS = 300


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
    p, q = np.triu_indices(k, 1)
    X = np.zeros((k, k), dtype=np.complex128)
    X[np.arange(k), np.arange(k)] = v[:k]
    X[p, q] = v[k::2] + 1j * v[k + 1 :: 2]
    X[q, p] = v[k::2] - 1j * v[k + 1 :: 2]
    return X


def _lifted_support_solve(
    G: np.ndarray,
    A_I: np.ndarray,
    y: np.ndarray,
    rhs: np.ndarray,
    support: tuple[int, ...],
    n: int,
    resid_tol: float,
    tol_abs: float,
) -> tuple[SparseVector, float] | None:
    """The canonical class and rank-one defect one support's lift G yields, or None.

    rhs is y^2.  The lifted residual is checked first, so X is assembled
    and eigendecomposed only for a support whose linear system is
    consistent.
    """
    k = len(support)
    v, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    resid = float(np.linalg.norm(G @ v - rhs))
    if not resid <= resid_tol:  # also rejects a NaN residual
        return None
    eigs, v1 = hermitian_top_eig(_assemble_hermitian(v, k))
    lam1 = float(eigs[0])
    defect = 0.0 if k == 1 or lam1 <= 0 else max(0.0, float(eigs[1])) / lam1
    if not (lam1 > 0 and float(eigs[-1]) >= -PSD_TOL * lam1 and defect <= RANK1_TOL):
        return None
    x_vals = np.sqrt(lam1) * v1
    if np.min(np.abs(x_vals)) > tol_abs and _meas_err(A_I, x_vals, y) <= tol_abs:
        return SparseVector(Field.COMPLEX, n, support, x_vals).canonical(), defect
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


def _lifted_level(problems: list[_Problem], k: int) -> list[list[_Candidate]]:
    """Each problem's _lifted_support_solve hits at one support size, as
    "lifted" candidates in support order; the problems share (m, n).

    One numerics._lstsq_screen call covers every problem: it gets the
    lifted residual test (right-hand side y^2, no signs, computed norm at
    most resid_tol, tol max(1, max y^2) sqrt(m) on this y^2 scale) and
    proves that most supports fail it.  It builds each support's lift from
    its parent's with _lift_columns, so its columns are _lift_system's in
    the order the levels introduce them; the residual test does not
    depend on that order.  Only the supports it flags are lifted by
    _lift_system, in its own column order, and run _lifted_support_solve
    on their own problem.  A support the screen rules out would have
    returned None, so the hits are the full scan's, bit for bit.
    """
    m, n = problems[0].entries.shape
    rhs = np.stack([p.y**2 for p in problems])  # y^2 is each problem's one right-hand side
    side_by_side = np.concatenate([p.entries for p in problems], axis=1)
    resid_tol = np.array([max(1.0, float(p.y.max(initial=0.0)) ** 2) * p.tol for p in problems]) * np.sqrt(m)
    flags = _lstsq_screen(_lift_columns(side_by_side), n, k, rhs, np.ones((1, k * k)), resid_tol)
    out = []
    for p, t, rt, row in zip(problems, rhs, resid_tol, flags):
        hits = []
        for support in itertools.compress(itertools.combinations(range(n), k), row):
            A_I = p.entries[:, support]
            hit = _lifted_support_solve(_lift_system(A_I[None])[0], A_I, p.y, t, support, n, rt, p.tol_abs)
            if hit is not None:
                hits.append((hit[0], "lifted", hit[1]))
        out.append(hits)
    return out


def solve_l0_complex(
    A: MeasurementEnsemble,
    y,
    k_max: int,
    tol: float = 1e-8,
    allow_heuristic: bool = False,
    heuristic_restarts: int = 8,
    seed: int = 0,
) -> SolutionSet:
    """Solve min ||x||_0 subject to |Ax| = y over the complexes.

    Support sizes with k <= 3 and m >= k^2 use the exact lifted path:
    each level is screened in batch, and only the supports the screen
    flags run lstsq on their lifted system (see _lifted_level).  Larger
    sizes are only scanned when allow_heuristic is set.  There every
    support gets heuristic_restarts seeded starts, and one batched
    Levenberg-Marquardt call refines all (supports x restarts) of the
    level; classes found there are labeled "refined" and the solution set
    is flagged heuristic.  heuristic_restarts must be an integer >= 1
    whether or not the heuristic path runs.
    """
    return _solve_complex_batch([A], [y], k_max, tol, allow_heuristic, heuristic_restarts, seed)[0]


def _solve_complex_batch(As: list[MeasurementEnsemble], ys: list, k_max: int, tol: float = 1e-8,
                         allow_heuristic: bool = False, heuristic_restarts: int = 8,
                         seed: int = 0) -> list[SolutionSet]:
    """solve_l0_complex(A, y, k_max, ...) for each pair, as a list; every
    A has the same (m, n).  A sweep row runs it.

    The level function runs a lifted level as one _lifted_level call for
    all the problems still searching, and a heuristic level as one
    _refined_level call per problem.
    """
    problems = [_prepare(A, y, k_max, tol, Field.COMPLEX) for A, y in zip(As, ys)]
    _check_int(heuristic_restarts, "heuristic_restarts", 1)
    bad = [k for k in range(1, k_max + 1) if any(not _exact_level(A.m, k) for A in As)]
    if bad and not allow_heuristic:
        raise ValueError(f"support size {bad[0]} needs the heuristic path (k > 3 or m < k^2); "
                         "pass allow_heuristic=True to enable it")

    def level(live: list[_Problem], k: int):
        m, n = live[0].entries.shape
        count = comb(n, k)
        exact = _exact_level(m, k)
        for p in live:
            p.stats.supports_tried += count
            p.stats.patterns_tried += count if exact else count * heuristic_restarts
        if exact:
            return _lifted_level(live, k), False
        supports = list(itertools.combinations(range(n), k))
        return [_refined_level(p.entries, p.y, supports, p.tol_abs, heuristic_restarts, seed) for p in live], True

    return _solve_batch(problems, k_max, Field.COMPLEX, level)


def _exact_level(m: int, k: int) -> bool:
    """Whether support size k takes the exact lifted path at m rows."""
    return k <= 3 and m >= k * k


def _refined_level(entries: np.ndarray, y: np.ndarray, supports: list[tuple[int, ...]], tol_abs: float,
                   restarts: int, seed: int) -> list[_Candidate]:
    """Multi-start LM candidates of one support size, labeled "refined",
    in (support, restart) order.

    Restart r on support I starts from SeedSequence(seed, spawn_key=(k,
    support key of I, r)), scaled by max(1, max y), and refines toward the
    targets y.  The supports go through the kernel in blocks of about
    _PROBE_ROWS rows; the kernel's rows are independent, so the
    candidates do not depend on the blocking.
    """
    _check_int(seed, "seed", 0)
    n = entries.shape[1]
    k = len(supports[0])
    scale = max(1.0, float(y.max(initial=0.0)))
    block = max(1, _PROBE_ROWS // restarts)
    out = []
    for lo in range(0, len(supports), block):
        chunk = supports[lo : lo + block]
        X0 = np.empty((len(chunk), restarts, k), dtype=np.complex128)
        for b, support in enumerate(chunk):
            for r in range(restarts):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, _support_key(support), r)))
                X0[b, r] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * scale
        targets = np.broadcast_to(y, (len(chunk), restarts, y.size))
        X, _, _ = _batched_levenberg_marquardt(_support_stack(entries, chunk), targets, X0)
        for support, xs in zip(chunk, X):
            A_I = entries[:, support]
            for x in xs:
                if np.min(np.abs(x)) > tol_abs and _meas_err(A_I, x, y) <= tol_abs:
                    out.append((SparseVector(Field.COMPLEX, n, support, x).canonical(), "refined", None))
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
    """
    y = as_measurement(y).magnitudes
    x = np.asarray(x_init, dtype=np.complex128).reshape(1, 1, -1)
    if np.all(x == 0):
        raise ValueError("x_init must be nonzero")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    AT = _support_stack(np.asarray(A_I, dtype=np.complex128), [tuple(range(x.shape[-1]))])
    X, obj, steps = _batched_levenberg_marquardt(AT, y[None, None], x, iters)
    return GaussNewtonResult(x=X[0, 0], residual=float(obj[0, 0]), iterations=int(steps[0, 0]))


def column_magnitude_collision_1sparse(A: MeasurementEnsemble, rel_tol: float = 1e-10) -> bool:
    """True iff two distinct columns have elementwise-proportional magnitudes.

    That is exactly the condition for a 1-sparse collision |c| |a_i| =
    |c'| |a_j|, so it decides k = 1 uniqueness for the ensemble.  Columns
    u = |a_i| and v = |a_j| count as proportional when the least-squares
    fit c v of u misses it by at most rel_tol max u, a test that does not
    change when A is scaled.
    """
    mags = np.abs(A.entries)
    for i, j in itertools.combinations(range(A.n), 2):
        u, v = mags[:, i], mags[:, j]
        denom = float(v @ v)
        if denom == 0.0:
            if float(u @ u) == 0.0:
                return True
            continue
        c = float(u @ v) / denom
        if c <= 0:
            continue
        if np.max(np.abs(u - c * v)) <= rel_tol * float(np.max(u)):
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
    """Search for a k-sparse collision by optimization over support pairs.

    For each ordered support pair (I, J) a random unit u on I is fixed and
    || |A_I u| - |A_J v| ||_2 is minimized over v, with `restarts` random
    starts (u is resampled per restart).  Finding a non-phase-equivalent
    pair below 1e-8 yields verdict collision_found; otherwise
    no_collision_found.  A negative verdict is evidence, not proof.

    Pairs are scanned in order, I major, and optimized in blocks: first
    about _PROBE_FIRST_ROWS rows (pairs times restarts), then about
    _PROBE_ROWS rows at a time.  A threshold probe, (m, n, k) = (6, 4, 2)
    with 8 restarts (36 pairs), runs in one kernel call, and a probe whose
    collision lies among the first pairs returns after that call.  Each
    pair draws its starts from its own seed, so the verdict, objective and
    pair do not depend on the blocking.
    """
    _check_int(restarts, "restarts", 1)
    _check_int(k, "k", 1, A.n)
    _check_int(seed, "seed", 0)
    entries = A.entries.astype(np.complex128)
    n = A.n
    supports = list(itertools.combinations(range(n), k))
    S = len(supports)
    AT = _support_stack(entries, supports)
    best_obj = np.inf
    best_pair = None
    lo, size = 0, max(1, _PROBE_FIRST_ROWS // restarts)
    while lo < S * S:
        pairs = [divmod(p, S) for p in range(lo, min(lo + size, S * S))]
        lo, size = lo + len(pairs), max(1, _PROBE_ROWS // restarts)
        U = np.empty((len(pairs), restarts, k), dtype=np.complex128)
        V0 = np.empty_like(U)
        for b, (si, sj) in enumerate(pairs):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(si, sj)))
            u = rng.standard_normal((restarts, k)) + 1j * rng.standard_normal((restarts, k))
            U[b] = u / np.linalg.norm(u, axis=1, keepdims=True)
            V0[b] = rng.standard_normal((restarts, k)) + 1j * rng.standard_normal((restarts, k))
        I_idx = [si for si, _ in pairs]
        J_idx = [sj for _, sj in pairs]
        V, OBJ, _ = _batched_levenberg_marquardt(AT[J_idx], np.abs(U @ AT[I_idx]), V0)
        for (si, sj), u, v, obj in zip(pairs, U, V, OBJ):
            I, J = supports[si], supports[sj]
            order = np.argsort(obj, kind="stable")
            for idx in order:
                if obj[idx] >= best_obj and obj[idx] > 1e-8:
                    break
                small = np.abs(v[idx]) <= 1e-12
                if small.any():
                    continue
                # The canonical classes' values and phase_equivalent's
                # decision, without building the two SparseVectors.
                uc = _canonical_values(Field.COMPLEX, u[idx])
                vc = _canonical_values(Field.COMPLEX, v[idx])
                if _phase_equivalent_dense(Field.COMPLEX, _dense(Field.COMPLEX, n, I, uc),
                                           _dense(Field.COMPLEX, n, J, vc), 1e-6):
                    continue
                if obj[idx] < best_obj:
                    best_obj = float(obj[idx])
                    best_pair = (SparseVector(Field.COMPLEX, n, I, uc), SparseVector(Field.COMPLEX, n, J, vc))
                if best_obj <= 1e-8:
                    return CollisionProbe(best_pair, best_obj, restarts, "collision_found")
                break
    verdict = "collision_found" if (best_pair is not None and best_obj <= 1e-8) else "no_collision_found"
    return CollisionProbe(best_pair, best_obj if best_pair else np.inf, restarts, verdict)

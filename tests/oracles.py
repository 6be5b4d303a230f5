"""Independent oracles used to freeze expected values.

These deliberately avoid the library's solver machinery: the l0 oracle
enumerates supports and solves exact square subsystems (k rows with
nonzero magnitude, solved directly, verified on the remaining rows), the
rank oracle is a bare SVD count, the distance oracle enumerates every
ordered support pair and decides every rank by SVD, the spark oracle
decides every column subset's rank by SVD, the collision probe oracle
scans one support pair at a time, with lstsq and an eigendecomposition
per restart on the lift, the probe's block filter oracle tests one
pair and one row at a time, the full-work LM kernel forms and
solves the normal equations of every restart its ftol test has not
stopped on every iteration, the full-scan real solver runs one SVD and
one lstsq against every sign pattern on every support, the full-scan
lifted complex solver runs the lifted solve on every support, the
heuristic complex solve oracle
refines one start at a time by serial Gauss-Newton with a line search,
the Hermitian lift oracles build the lifted system and X entry by
entry, the per-trial sweep solves each trial of a row on its own, and
the full-row screen block bounds every support on all the rows outside
its pivots in one stage.
They are slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from sparsepr.distance import DistanceReport, SparkReport, Witness
from sparsepr.experiments import SweepConfig, SweepRow, _trial_randomness, draw_sparse_signal
from sparsepr.model import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    _canonical_values,
    _dense,
    _phase_equivalent_dense,
    as_measurement,
    generate_ensemble,
    measure,
    phase_equivalent,
)
from sparsepr.numerics import DEFAULT_RANK_TOL, _Elimination, _gamma, hermitian_top_eig
from sparsepr.solver_complex import (
    _FTOL,
    _UNDECIDED,
    HEURISTIC_RESTARTS,
    CollisionProbe,
    _level_method,
    _lift_system,
    _lifted_support_solve,
    _pow2_normalized,
    _refined_level,
    _support_key,
    solve_l0_complex,
)
from sparsepr.solver_real import SearchStats, SolutionSet, _ldexp, _prepare, solve_l0_real


def svd_rank(M) -> int:
    s = np.linalg.svd(np.asarray(M), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


def _canonical_real(x: np.ndarray) -> np.ndarray:
    nz = np.nonzero(x)[0]
    if nz.size and x[nz[0]] < 0:
        return -x
    return x


def naive_l0_classes(entries: np.ndarray, y: np.ndarray, k_max: int, tol: float = 1e-8):
    """All minimal-l0 solution classes of |Ax| = y via square subsystems.

    Returns (k_star, list of canonical dense solutions); k_star is None
    when nothing is found up to k_max.
    """
    entries = np.asarray(entries, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = entries.shape
    tol_abs = tol * float(y.max(initial=0.0))
    tol_x = tol_abs / float(np.abs(entries).max())
    pos = [i for i in range(m) if y[i] > tol_abs]
    if not pos:
        return 0, [np.zeros(n)]
    for k in range(1, k_max + 1):
        found: list[np.ndarray] = []
        for I in itertools.combinations(range(n), k):
            for R in itertools.combinations(pos, k):
                for code in range(2 ** (k - 1)):
                    signs = np.ones(k)
                    for b in range(k - 1):
                        if (code >> b) & 1:
                            signs[b + 1] = -1.0
                    sq = entries[np.ix_(R, I)]
                    rhs = signs * y[list(R)]
                    try:
                        sol = np.linalg.solve(sq, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    if not np.all(np.isfinite(sol)):
                        continue
                    if np.min(np.abs(sol)) <= tol_x:
                        continue
                    x = np.zeros(n)
                    x[list(I)] = sol
                    if np.max(np.abs(np.abs(entries @ x) - y)) > tol_abs:
                        continue
                    x = _canonical_real(x)
                    if not any(np.max(np.abs(x - g)) <= tol_x for g in found):
                        found.append(x)
        if found:
            return k, found
    return None, []


def classes_match(oracle_classes, solver_classes, tol: float = 1e-8) -> bool:
    """Set equality of dense class representatives up to a global sign."""

    def eq(a, b):
        return np.max(np.abs(a - b)) <= tol or np.max(np.abs(a + b)) <= tol

    if len(oracle_classes) != len(solver_classes):
        return False
    used = set()
    for a in oracle_classes:
        hit = None
        for i, b in enumerate(solver_classes):
            if i not in used and eq(a, b):
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def svd_batched_ranks(stack: np.ndarray):
    """Ranks and fragility flags of a (..., m, k) stack, every one by SVD.

    The rank policy of numerics.numerical_rank: singular values above
    1e-10 * sigma_max count, and a deficient decision whose kept/dropped
    gap is under 10x is fragile.
    """
    s = np.linalg.svd(stack, compute_uv=False)
    smax = s[..., 0]
    tol = 1e-10 * smax
    ranks = np.sum(s > tol[..., None], axis=-1)
    nsv = s.shape[-1]
    idx_kept = np.clip(ranks - 1, 0, nsv - 1)
    idx_drop = np.clip(ranks, 0, nsv - 1)
    kept = np.take_along_axis(s, idx_kept[..., None], axis=-1)[..., 0]
    dropped = np.where(ranks < nsv, np.take_along_axis(s, idx_drop[..., None], axis=-1)[..., 0], 0.0)
    fragile = (ranks > 0) & (ranks < nsv) & (dropped > 0) & (kept < 10.0 * dropped)
    return ranks, fragile


def svd_spark(A: MeasurementEnsemble, s: int) -> SparkReport:
    """spark_at_least with every column subset's rank decided by SVD."""
    fragile_any = False
    for size in range(1, s):
        combos = np.array(list(itertools.combinations(range(A.n), size)), dtype=int)
        ranks, fragile = svd_batched_ranks(A.entries[:, combos.T].transpose(2, 0, 1))
        fragile_any = fragile_any or bool(fragile.any())
        if np.any(ranks < size):
            first = int(np.argmax(ranks < size))
            return SparkReport(s=s, deficient_columns=tuple(int(c) for c in combos[first]), fragile=fragile_any)
    return SparkReport(s=s, deficient_columns=None, fragile=fragile_any)


def exhaustive_distance(A: MeasurementEnsemble, max_support: int | None = None) -> DistanceReport:
    """Phase-generalized minimum distance over every ordered support pair.

    Enumerates ordered pairs (I, J) by increasing |I| + |J|, then
    lexicographically, and sign patterns by their integer code, deciding
    every configuration's rank by SVD; the witness is the first
    configuration achieving the minimum (see sparsepr.distance for the
    counting rule).
    """
    if A.field is not Field.REAL:
        raise ValueError("phase-generalized minimum distance is defined for real ensembles only")
    m, n = A.m, A.n
    if m >= n:
        raise ValueError(f"distance requires m < n, got m={m}, n={n}")
    if max_support is None:
        max_support = m - 1
    if not (1 <= max_support <= m):
        raise ValueError("max_support must be in [1, m]")
    max_support = min(max_support, m - 1, n)
    t_max = min(m, 2 * max_support)

    if m < 2 or t_max < 2:
        return DistanceReport(m, n, m + 1, m, None, "disjoint", 0, m // 2, False)
    codes = np.arange(1, 2 ** (m - 1))
    signs = np.ones((codes.size, m))
    signs[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> np.arange(m - 1)[None, :]) & 1)
    l_counts = np.sum(signs > 0, axis=1)
    npat = signs.shape[0]
    entries = A.entries

    best_key = None  # (score, total, I, J, code)
    cap_key = None  # first full-rank configuration at size t_max
    fragile_any = False

    for total in range(2, t_max + 1):
        for a in range(1, min(total - 1, max_support) + 1):
            b = total - a
            if b < 1 or b > max_support:
                continue
            combos_i = np.array(list(itertools.combinations(range(n), a)), dtype=int)
            combos_j = np.array(list(itertools.combinations(range(n), b)), dtype=int)
            ci, cj = len(combos_i), len(combos_j)
            chunk = max(1, 4_000_000 // max(1, cj * npat * m * total))
            for lo in range(0, ci, chunk):
                sel = combos_i[lo : lo + chunk]
                left = entries[:, sel.T].transpose(2, 0, 1)
                right = entries[:, combos_j.T].transpose(2, 0, 1)
                stack = np.empty((sel.shape[0], cj, npat, m, total))
                stack[..., :a] = left[:, None, None, :, :]
                stack[..., a:] = signs[None, None, :, :, None] * right[None, :, None, :, :]
                ranks, fragile = svd_batched_ranks(stack)
                fragile_any = fragile_any or bool(fragile.any())

                w = np.sum(sel[:, None, :, None] == combos_j[None, :, None, :], axis=(2, 3))
                trivial = np.maximum(w[:, :, None] - l_counts[None, None, :], 0) + np.maximum(
                    w[:, :, None] - (m - l_counts)[None, None, :], 0
                )
                eligible = ranks < (total - trivial)
                if eligible.any():
                    flat = np.where(eligible.reshape(-1), ranks.reshape(-1), np.iinfo(np.int64).max)
                    pos = int(np.argmin(flat))
                    ii, jj, pp = np.unravel_index(pos, ranks.shape)
                    key = (int(flat[pos]), total, tuple(int(v) for v in sel[ii]),
                           tuple(int(v) for v in combos_j[jj]), int(pp) + 1)
                    if best_key is None or key < best_key:
                        best_key = key
                if total == t_max:
                    full = (ranks == t_max) & ~eligible
                    if full.any():
                        pos = int(np.argmax(full.reshape(-1)))
                        ii, jj, pp = np.unravel_index(pos, ranks.shape)
                        key = (t_max, total, tuple(int(v) for v in sel[ii]),
                               tuple(int(v) for v in combos_j[jj]), int(pp) + 1)
                        if cap_key is None or key < cap_key:
                            cap_key = key

    if best_key is None or (cap_key is not None and cap_key < best_key):
        best_key = cap_key
    if best_key is None:
        return DistanceReport(m, n, t_max + 1, t_max, None, "disjoint", 0, t_max // 2, fragile_any)

    score, total, I, J, code = best_key
    w = len(set(I) & set(J))
    overlap_class = "disjoint" if w == 0 else ("full" if I == J else "partial")
    d = score + 1
    return DistanceReport(m=m, n=n, d=d, min_rank=score, witness=Witness(I=I, J=J, pattern_bits=code),
                          overlap_class=overlap_class, overlap=w, certified_k=(d - 1) // 2,
                          fragile=fragile_any)


def loop_lift_system(A_I: np.ndarray, k: int) -> np.ndarray:
    """The lifted m x k^2 system, one unknown at a time: k diagonal
    entries, then (Re, Im) of each off-diagonal pair p < q, p major."""
    m = A_I.shape[0]
    phi_outer = np.conj(A_I)[:, :, None] * A_I[:, None, :]  # rows of phi phi^*
    G = np.empty((m, k * k))
    for p in range(k):
        G[:, p] = phi_outer[:, p, p].real
    col = k
    for p in range(k):
        for q in range(p + 1, k):
            G[:, col] = 2.0 * phi_outer[:, q, p].real
            G[:, col + 1] = -2.0 * phi_outer[:, q, p].imag
            col += 2
    return G


def loop_assemble_hermitian(v: np.ndarray, k: int) -> np.ndarray:
    """The Hermitian X whose unknowns, in loop_lift_system's order, are v."""
    X = np.zeros((k, k), dtype=np.complex128)
    for p in range(k):
        X[p, p] = v[p]
    col = k
    for p in range(k):
        for q in range(p + 1, k):
            X[p, q] = v[col] + 1j * v[col + 1]
            X[q, p] = v[col] - 1j * v[col + 1]
            col += 2
    return X


def _pairwise_levenberg_marquardt(A_J: np.ndarray, targets: np.ndarray, x0: np.ndarray, iters: int = 120,
                                  ftol: float = _FTOL):
    """Levenberg-damped Gauss-Newton over the restarts of one support pair.

    A_J: (m, k); targets: (R, m) magnitude targets; x0: (R, k) complex
    starts.  Steps are accepted per restart only when the objective
    decreases; a restart whose accepted step lowers the sum of squares
    || |A v|^2 - t^2 ||_2^2 by at most ftol of its value stops after it,
    and is not solved again (ftol = 0: no restart stops that way).
    Returns (x, objective) with objective the 2-norm of the magnitude
    mismatch |A v| - t.
    """
    R, k = x0.shape
    x = x0.copy()
    t2 = targets**2
    stall_ratio = np.sqrt(1.0 - ftol)
    stopped = np.zeros(R, dtype=bool)

    def sq_obj(xc):
        r = xc @ A_J.T
        return np.linalg.norm(np.abs(r) ** 2 - t2, axis=1)

    obj = sq_obj(x)
    lam = np.full(R, 1e-3)
    for _ in range(iters):
        r = x @ A_J.T  # (R, m)
        f = np.abs(r) ** 2 - t2
        cr = np.conj(r)[:, :, None] * A_J[None, :, :]  # (R, m, k)
        J = np.concatenate([2.0 * cr.real, -2.0 * cr.imag], axis=2)  # (R, m, 2k)
        JtJ = np.einsum("rmi,rmj->rij", J, J)
        Jtf = np.einsum("rmi,rm->ri", J, f)
        A_ = JtJ + lam[:, None, None] * np.eye(2 * k)[None]
        active = ~stopped
        try:
            delta = np.linalg.solve(A_[active], -Jtf[active][..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        step = np.zeros_like(x)
        step[active] = delta[:, :k] + 1j * delta[:, k:]
        cand = x + step
        cand_obj = sq_obj(cand)
        better = (cand_obj < obj) & active
        stopped |= better & (cand_obj >= stall_ratio * obj)
        x[better] = cand[better]
        obj[better] = cand_obj[better]
        lam = np.where(better, lam * 0.5, lam * 4.0)
        lam = np.clip(lam, 1e-12, 1e6)
        if np.all(obj <= 1e-24) or stopped.all():
            break
    mag_obj = np.linalg.norm(np.abs(x @ A_J.T) - targets, axis=1)
    return x, mag_obj


def full_work_levenberg_marquardt(AT: np.ndarray, targets: np.ndarray, x0: np.ndarray, iters: int = 120,
                                  ftol: float = _FTOL):
    """Levenberg-damped Gauss-Newton over a stack of supports.

    AT: (P, k, m), AT[p] = A_J^T of support p, each C-contiguous (the
    layout _support_stack builds; the BLAS call, and so the rounding,
    depends on it); targets: (P, R, m) magnitude targets; x0: (P, R, k)
    complex starts.  Steps are accepted per restart only when the squared
    objective || |A_J v|^2 - t^2 ||_2 decreases; the damping halves after
    an accepted step and quadruples otherwise, clipped to [1e-12, 1e6].  A
    support stops once every one of its restarts reaches a squared
    objective of 1e-24, when one of its damped normal-equation systems
    is singular, or when every one of its restarts has stopped.  A restart
    stops after an accepted step that lowers its sum of squares
    || |A_J v|^2 - t^2 ||_2^2 by at most ftol of its value (MINPACK
    lmder's ftol test, relative, so scale-free); from then on it is not
    solved, so no system of its can stop its support.  With ftol = 0 no
    restart stops that way, since an accepted step always lowers the
    objective: that is the rule before the test was added, bit for bit.
    Every other row is formed and solved on every iteration.  Returns (x, objective, steps)
    with objective the 2-norm of the magnitude mismatch |A_J v| - t and
    steps the accepted steps, each of shape (P, R).
    """
    P, R, k = x0.shape
    m = AT.shape[2]
    eye = np.eye(2 * k)[None]
    stall_ratio = np.sqrt(1.0 - ftol)

    def sq_obj(xc, ATc, t2c):
        r = xc @ ATc
        return np.linalg.norm(np.abs(r) ** 2 - t2c, axis=-1)

    x = np.empty_like(x0)
    steps = np.zeros((P, R), dtype=int)
    # Working arrays hold the live supports only; a support that stops is
    # written back to x and dropped.
    live = np.arange(P)
    xs, ats, t2 = x0.copy(), AT, targets**2
    obj = sq_obj(xs, ats, t2)
    lam = np.full((P, R), 1e-3)
    stopped = np.zeros((P, R), dtype=bool)
    for _ in range(iters):
        L = live.size
        r = xs @ ats  # (L, R, m)
        f = (np.abs(r) ** 2 - t2).reshape(L * R, m)
        cr = (np.conj(r)[..., None] * ats.transpose(0, 2, 1)[:, None]).reshape(L * R, m, k)
        J = np.empty((L * R, 2 * k, m)).transpose(0, 2, 1)  # the kernel's layout of J
        np.multiply(cr.real, 2.0, out=J[..., :k])
        np.multiply(cr.imag, -2.0, out=J[..., k:])
        JtJ = np.einsum("rmi,rmj->rij", J, J)
        Jtf = np.einsum("rmi,rm->ri", J, f)
        A_ = JtJ + lam.reshape(L * R)[:, None, None] * eye
        rhs = -Jtf[..., None]
        active = ~stopped.reshape(L * R)
        solved = np.ones(L, dtype=bool)
        delta = np.zeros((L * R, 2 * k))
        try:
            delta[active] = np.linalg.solve(A_[active], rhs[active])[..., 0]
        except np.linalg.LinAlgError:
            for p in range(L):
                rows = np.flatnonzero(active[p * R : (p + 1) * R]) + p * R
                try:
                    delta[rows] = np.linalg.solve(A_[rows], rhs[rows])[..., 0]
                except np.linalg.LinAlgError:
                    solved[p] = False
        step = (delta[:, :k] + 1j * delta[:, k:]).reshape(L, R, k)
        cand = xs + step
        cand_obj = sq_obj(cand, ats, t2)
        better = (cand_obj < obj) & solved[:, None] & ~stopped
        stopped |= better & (cand_obj >= stall_ratio * obj)
        xs[better] = cand[better]
        obj[better] = cand_obj[better]
        steps[live] += better
        lam = np.where(better, lam * 0.5, lam * 4.0)
        lam = np.clip(lam, 1e-12, 1e6)
        done = ~solved | np.all(obj <= 1e-24, axis=1) | np.all(stopped, axis=1)
        if done.any():
            x[live[done]] = xs[done]
            keep = ~done
            live, xs, ats, t2, obj, lam = live[keep], xs[keep], ats[keep], t2[keep], obj[keep], lam[keep]
            stopped = stopped[keep]
            if live.size == 0:
                break
    x[live] = xs
    mag_obj = np.linalg.norm(np.abs(x @ AT) - targets, axis=-1)
    return x, mag_obj, steps


def pairwise_collision_probe(A: MeasurementEnsemble, k: int, restarts: int, seed: int) -> CollisionProbe:
    """collision_probe_complex one ordered support pair at a time.

    Same power-of-two normalization, seeding, pair order, filtering and
    early return as the library's blocked scan.  Support I's generator,
    default_rng(SeedSequence(seed, spawn_key=(si,))), gives each J in
    turn u's real and imaginary parts, then the LM starts'.  At a
    "lifted" size a J whose lift (loop_lift_system) has full column rank
    under DEFAULT_RANK_TOL gets, per restart, lstsq's solution w of G_J w
    = t^2, the top eigenpair hermitian_top_eig gives of
    loop_assemble_hermitian(w) and its mismatch; every other pair runs
    the pairwise LM kernel.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    a = int(np.frexp(np.abs(A.entries).max())[1])
    entries = np.empty((A.m, A.n), dtype=np.complex128)
    entries.real, entries.imag = np.ldexp(A.entries.real, -a), np.ldexp(A.entries.imag, -a)
    n = A.n
    best_obj = np.inf
    best_pair = None
    supports = list(itertools.combinations(range(n), k))
    on_lift = _level_method(A.m, k) == "lifted"
    for si, I in enumerate(supports):
        A_I = entries[:, I]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(si,)))
        for J in supports:
            A_J = entries[:, J]
            u = rng.standard_normal((restarts, k)) + 1j * rng.standard_normal((restarts, k))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            targets = np.abs(u @ A_I.T)  # (R, m)
            v0 = rng.standard_normal((restarts, k)) + 1j * rng.standard_normal((restarts, k))
            G = loop_lift_system(A_J, k) if on_lift else None
            if G is not None and svd_rank(G) == k * k:
                v = np.empty_like(v0)
                for r, t in enumerate(targets):
                    w = np.linalg.lstsq(G, t**2, rcond=None)[0]
                    eigs, v1 = hermitian_top_eig(loop_assemble_hermitian(w, k))
                    v[r] = np.sqrt(max(float(eigs[0]), 0.0)) * v1
                obj = np.linalg.norm(np.abs(v @ A_J.T) - targets, axis=1)
            else:
                v, obj = _pairwise_levenberg_marquardt(A_J, targets, v0)
            order = np.argsort(obj, kind="stable")
            for idx in order:
                if obj[idx] >= best_obj and obj[idx] > 1e-8:
                    break
                uu = SparseVector(Field.COMPLEX, n, I, u[idx]).canonical()
                small = np.abs(v[idx]) <= 1e-12
                if small.any():
                    continue
                vv = SparseVector(Field.COMPLEX, n, J, v[idx]).canonical()
                if phase_equivalent(uu, vv, 1e-6):
                    continue
                if obj[idx] < best_obj:
                    best_obj = float(obj[idx])
                    best_pair = (uu, vv)
                if best_obj <= 1e-8:
                    return CollisionProbe(best_pair, float(np.ldexp(best_obj, a)), restarts, "collision_found")
                break
    return CollisionProbe(best_pair, float(np.ldexp(best_obj, a)), restarts, "no_collision_found")


def pairwise_block_best(U: np.ndarray, V: np.ndarray, OBJ: np.ndarray, I_idx, J_idx,
                        supports: list[tuple[int, ...]], n: int, best_obj: float):
    """solver_complex._block_best one pair and one row at a time: per pair,
    its rows in stable order by objective, each made canonical and tested
    by phase_equivalent's dense check, until the first that passes."""
    best_pair = None
    for (si, sj), u, v, obj in zip(zip(I_idx, J_idx), U, V, OBJ):
        I, J = supports[si], supports[sj]
        for idx in np.argsort(obj, kind="stable"):
            if obj[idx] >= best_obj and obj[idx] > 1e-8:
                break
            if (np.abs(v[idx]) <= 1e-12).any():
                continue
            uc = _canonical_values(Field.COMPLEX, u[idx])
            vc = _canonical_values(Field.COMPLEX, v[idx])
            if _phase_equivalent_dense(Field.COMPLEX, _dense(Field.COMPLEX, n, I, uc),
                                       _dense(Field.COMPLEX, n, J, vc), 1e-6):
                continue
            if obj[idx] < best_obj:
                best_obj = float(obj[idx])
                best_pair = (SparseVector(Field.COMPLEX, n, I, uc), SparseVector(Field.COMPLEX, n, J, vc))
            if best_obj <= 1e-8:
                return best_obj, best_pair
            break
    return None if best_pair is None else (best_obj, best_pair)


def serial_gauss_newton(A_I: np.ndarray, y: np.ndarray, x_init: np.ndarray, iters: int = 200, tol: float = 1e-12):
    """Damped Gauss-Newton on f_i(x) = |a_i x|^2 - y_i^2 over (Re x, Im x), one start.

    Each iteration solves the Gauss-Newton least-squares step and halves
    its length until ||f||_2 decreases; it stops when no length down to
    1e-12 does, or once ||f||_2 <= tol.  Returns x.
    """
    x = np.asarray(x_init, dtype=np.complex128).reshape(-1).copy()
    k = A_I.shape[1]
    y2 = y**2

    def objective(xc):
        return float(np.linalg.norm(np.abs(A_I @ xc) ** 2 - y2))

    obj = objective(x)
    for _ in range(iters):
        if obj <= tol:
            break
        r = A_I @ x
        f = np.abs(r) ** 2 - y2
        # d|r_i|^2 / dRe(x_j) = 2 Re(conj(r_i) A_ij); /dIm = -2 Im(conj(r_i) A_ij)
        cr = np.conj(r)[:, None] * A_I
        J = np.concatenate([2.0 * cr.real, -2.0 * cr.imag], axis=1)
        delta, *_ = np.linalg.lstsq(J, -f, rcond=None)
        step = delta[:k] + 1j * delta[k:]
        alpha = 1.0
        while alpha >= 1e-12:
            cand = x + alpha * step
            cand_obj = objective(cand)
            if cand_obj < obj:
                x, obj = cand, cand_obj
                break
            alpha *= 0.5
        else:
            break
    return x


def serial_heuristic_solve(A: MeasurementEnsemble, y: np.ndarray, k_max: int, tol: float = 1e-8,
                           restarts: int = 8, seed: int = 0):
    """solve_l0_complex(..., allow_heuristic=True) with one serial_gauss_newton
    call per (support, restart).

    Same problem (_prepare: y scaled by 2^-b into [1/2, 1), the
    tolerances), starts (SeedSequence(seed, spawn_key=(k, support key,
    r)), on A scaled by 2^-a as _pow2_normalized scales it), acceptance
    test and first-found dedup; the levels where the lift has a unique
    solution (m >= k^2) call the library's lifted solve, and refine the
    supports it leaves undecided.  Every other level, the library's plane
    levels included, runs serial Gauss-Newton, so for those it is a
    reference that shares no code with the plane solve.
    Returns (k_star, classes), the classes scaled back by 2^b.
    """
    p = _prepare(A, y, k_max, tol, Field.COMPLEX)
    entries, a = _pow2_normalized(A.entries)
    tol_x = np.ldexp(p.tol_x, a)  # in the units of entries
    if np.all(p.y <= p.tol_abs):
        return 0, [SparseVector.zero(Field.COMPLEX, A.n)]
    for k in range(1, k_max + 1):
        classes: list[SparseVector] = []
        for I in itertools.combinations(range(A.n), k):
            hit = _UNDECIDED
            if A.m >= k * k:
                A_I = A.entries[:, I]
                hit = _lifted_support_solve(_lift_system(A_I[None])[0], A_I, p, p.y**2, I)
            cands = [] if hit is None or hit is _UNDECIDED else [hit[0]]
            if hit is _UNDECIDED:
                A_I = entries[:, I]
                for r in range(restarts):
                    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, _support_key(I), r)))
                    x = serial_gauss_newton(A_I, p.y, rng.standard_normal(k) + 1j * rng.standard_normal(k))
                    if np.min(np.abs(x)) > tol_x and np.max(np.abs(np.abs(A_I @ x) - p.y)) <= p.tol_abs:
                        cands.append(SparseVector(Field.COMPLEX, A.n, I, _ldexp(x, -a)).canonical())
            for cand in cands:
                if not any(phase_equivalent(c, cand, p.tol_x) for c in classes):
                    classes.append(cand)
        if classes:
            return k, [_scaled_back(c, p.b) for c in classes]
    return None, []


def _scaled_back(x: SparseVector, b: int) -> SparseVector:
    """x 2^b: a class found on y 2^-b, for y."""
    return SparseVector(x.field, x.n, x.support, _ldexp(x.values, b))


def _max_err(A_I: np.ndarray, values: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(np.abs(A_I @ values) - y)))


def _insert_class(classes: list, cand: SparseVector, resid: float, tol_x: float, *extra) -> None:
    """Append (cand, resid, *extra) to classes unless an earlier class is
    phase-equivalent to cand at tol_x (first found wins)."""
    if not any(phase_equivalent(c[0], cand, tol_x) for c in classes):
        classes.append((cand, resid, *extra))


def _real_problem(A: MeasurementEnsemble, y, tol: float):
    """y's magnitudes scaled by 2^-b into [1/2, 1) (b the exponent np.frexp
    gives max y), b, tol_abs = tol max y, and every sign assignment of the
    rows above tol_abs as (m, 2^(p-1)) right-hand-side columns: the first
    such row keeps +1 and bit i of the column index flips the (i+2)-th;
    rows at or below tol_abs are zero equations.  rhs is None when no row
    is above."""
    y = as_measurement(y).magnitudes
    b = int(np.frexp(y.max(initial=0.0))[1])
    y = np.ldexp(y, -b)
    tol_abs = tol * float(y.max(initial=0.0))
    pos = [i for i in range(y.size) if y[i] > tol_abs]
    if not pos:
        return y, b, tol_abs, None
    rhs = np.zeros((y.size, 2 ** (len(pos) - 1)))
    for col in range(rhs.shape[1]):
        for j, row in enumerate(pos):
            flip = j > 0 and (col >> (j - 1)) & 1
            rhs[row, col] = -y[row] if flip else y[row]
    return y, b, tol_abs, rhs


def _full_scan_level(A: MeasurementEnsemble, y: np.ndarray, k: int, tol_abs: float, rhs: np.ndarray,
                     stats: SearchStats) -> list[tuple[SparseVector, float]]:
    m, n = A.m, A.n
    resid_tol = tol_abs * np.sqrt(m)
    entries = A.entries
    tol_x = tol_abs / float(np.abs(entries).max())
    found: list = []
    for I in itertools.combinations(range(n), k):
        stats.supports_tried += 1
        stats.patterns_tried += rhs.shape[1]
        A_I = entries[:, I]
        s = np.linalg.svd(A_I, compute_uv=False)
        if s[-1] <= DEFAULT_RANK_TOL * s[0]:
            continue
        X, *_ = np.linalg.lstsq(A_I, rhs, rcond=None)
        R = rhs - A_I @ X
        ok = (np.linalg.norm(R, axis=0) <= resid_tol) & (np.min(np.abs(X), axis=0) > tol_x)
        for col in np.nonzero(ok)[0]:
            x_hat = SparseVector(Field.REAL, n, I, X[:, col]).canonical()
            resid = _max_err(entries[:, I], x_hat.values, y)
            if resid <= tol_abs:
                _insert_class(found, x_hat, resid, tol_x)
    return found


def full_scan_solve_l0_real(A: MeasurementEnsemble, y, k_max: int, tol: float = 1e-8) -> SolutionSet:
    """solve_l0_real with every support going through SVD and lstsq."""
    y, b, tol_abs, rhs = _real_problem(A, y, tol)
    stats = SearchStats()
    if rhs is None:
        return SolutionSet(0, [SparseVector.zero(Field.REAL, A.n)], [float(np.ldexp(y.max(initial=0.0), b))], stats)
    for k in range(1, k_max + 1):
        hits = _full_scan_level(A, y, k, tol_abs, rhs, stats)
        if hits:
            return SolutionSet(k, [_scaled_back(h[0], b) for h in hits], [float(np.ldexp(h[1], b)) for h in hits],
                               stats)
    return SolutionSet(None, [], [], stats)


def full_scan_feasible_classes(A: MeasurementEnsemble, y, k_max: int, tol: float = 1e-8):
    """feasible_classes with every support going through SVD and lstsq."""
    y, b, tol_abs, rhs = _real_problem(A, y, tol)
    if rhs is None:
        return [(0, SparseVector.zero(Field.REAL, A.n))]
    stats = SearchStats()
    return [(k, _scaled_back(cand, b)) for k in range(1, k_max + 1)
            for cand, _resid in _full_scan_level(A, y, k, tol_abs, rhs, stats)]


def full_scan_solve_l0_complex(A: MeasurementEnsemble, y, k_max: int, tol: float = 1e-8,
                               allow_heuristic: bool = False, seed: int = 0) -> SolutionSet:
    """solve_l0_complex on levels whose lift has a unique solution only
    (_level_method "lifted"), with every support lifted on its own and
    run through _lifted_support_solve.  An undecided support raises
    without allow_heuristic; with it, _refined_level refines that support
    alone and the solve is flagged heuristic from that level on.  Both run
    on _prepare's problem, in its units, and the classes and residuals are
    scaled back by 2^b."""
    m, n = A.m, A.n
    if any(_level_method(m, k) != "lifted" for k in range(1, k_max + 1)):
        raise ValueError("full_scan_solve_l0_complex covers lifted levels only")
    p = _prepare(A, y, k_max, tol, Field.COMPLEX)
    y, b = p.y, p.b
    stats = SearchStats()
    if np.all(y <= p.tol_abs):
        return SolutionSet(0, [SparseVector.zero(Field.COMPLEX, n)], [float(np.ldexp(y.max(initial=0.0), b))], stats)
    entries = A.entries
    heuristic = False
    for k in range(1, k_max + 1):
        classes: list = []
        for I in itertools.combinations(range(n), k):
            stats.supports_tried += 1
            stats.patterns_tried += 1
            A_I = entries[:, I]
            hit = _lifted_support_solve(_lift_system(A_I[None])[0], A_I, p, y**2, I)
            if hit is _UNDECIDED:
                if not allow_heuristic:
                    raise ValueError(f"support {I} of size {k} needs the heuristic path")
                heuristic = True
                stats.patterns_tried += HEURISTIC_RESTARTS
                for cand, method, _ in _refined_level(p, [I], seed):
                    _insert_class(classes, cand, _max_err(A_I, cand.values, y), p.tol_x, method, None)
            elif hit is not None:
                _insert_class(classes, hit[0], _max_err(A_I, hit[0].values, y), p.tol_x, "lifted", hit[1])
        if classes:
            return SolutionSet(k, [_scaled_back(c[0], b) for c in classes],
                               [float(np.ldexp(c[1], b)) for c in classes], stats, heuristic,
                               [c[2] for c in classes], [c[3] for c in classes])
    return SolutionSet(None, [], [], stats, heuristic, [], [])


def per_trial_run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """run_sweep's rows with one solve_l0_real / solve_l0_complex call per
    trial, each timed on its own (mean_ms is their mean)."""
    rows = []
    for m in range(cfg.m_range[0], cfg.m_range[1] + 1):
        heuristic = cfg.field is Field.COMPLEX and _level_method(m, cfg.k) == "refined"
        successes = fragile = 0
        elapsed = 0.0
        for trial in range(cfg.trials_per_m):
            ensemble_seed, sig_rng = _trial_randomness(cfg.base_seed, m, trial)
            A = generate_ensemble(cfg.field, m, cfg.n, ensemble_seed)
            truth = draw_sparse_signal(cfg.field, cfg.n, cfg.k, sig_rng)
            y = measure(A, truth)
            t0 = time.perf_counter()
            if cfg.field is Field.REAL:
                sol = solve_l0_real(A, y, cfg.k, tol=cfg.tol)
            else:
                sol = solve_l0_complex(A, y, cfg.k, tol=cfg.tol, allow_heuristic=True)
                heuristic = heuristic or sol.heuristic
            elapsed += time.perf_counter() - t0
            if sol.k_star is not None and len(sol.classes) == 1 and phase_equivalent(sol.classes[0], truth, 1e-8):
                successes += 1
            tol_abs = cfg.tol * float(y.magnitudes.max(initial=0.0))
            if sol.residuals and max(sol.residuals) > tol_abs / 10.0:
                fragile += 1
        rows.append(SweepRow(m, cfg.trials_per_m, successes, successes / cfg.trials_per_m,
                             1000.0 * elapsed / cfg.trials_per_m, fragile, heuristic))
    return rows


def full_row_screen_block(e: _Elimination, t: np.ndarray, nt: np.ndarray, signs: np.ndarray,
                          resid_tol: np.ndarray) -> np.ndarray:
    """numerics._screen_block in one stage: the mask of _lstsq_screen's
    bound on all of R^c for one block of eliminated supports, each with
    its own problem's t, ||t|| and resid_tol.  The large temporaries are
    dropped as soon as they are used, so that the block's peak memory
    stays near that of its largest two arrays."""
    K, m, N = e.M.shape
    lo, hi, eta = 2.0 ** -400, 2.0 ** 400, 2.0 ** -500
    a_max = np.abs(e.M).reshape(-1, N).max(axis=0)
    rest = np.nonzero(e.free.T)[1].reshape(N, m - K).T  # R^c in row order, (m - K, N)
    rows = np.concatenate([e.piv, rest])  # R, then R^c
    tr = t[e.tag, rows]  # (m, N): each support's own problem's t[R], then t[R^c]
    nt, resid_tol = nt[e.tag], resid_tol[e.tag]
    M = e.M.transpose(2, 1, 0)[np.arange(N), rows]  # (m, N, K): B, then C
    sq = np.einsum("rni,rni->rn", M, M)  # squared row norms
    nB, nC = np.sqrt(sq[:K].sum(axis=0)), np.sqrt(sq[K:].sum(axis=0))
    MW = np.matmul(M.transpose(1, 0, 2), e.W.transpose(2, 0, 1))  # (N, m, K): B W, then T_hat = C W
    del M
    T = MW[:, K:]
    nM = np.sqrt(nB * nB + nC * nC)
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
    X = np.multiply(T.transpose(1, 0, 2), tr[:K].T, out=np.empty((m - K, N, K)))  # T_hat * t[R]
    del MW, T
    P = (X.reshape(-1, K) @ signs.T).reshape(m - K, N, len(signs))
    del X
    np.abs(P, out=P)
    P -= tr[K:, :, None]
    mism = np.sqrt(np.sum(np.square(P, out=P), axis=0))
    proven = (
        (e.min_pivot > DEFAULT_RANK_TOL * a_max)
        & (a_max >= lo)
        & (a_max <= hi)
        & (zeta <= 0.5)
        & (g <= 0.5)
        & np.isfinite(bound + mism.sum(axis=1))
        & (mism.min(axis=1) > 2 * bound)
    )
    return ~proven

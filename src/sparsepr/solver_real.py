"""Exact l0 sparse phase retrieval over the reals.

Exhaustive search over supports and sign assignments: the measurement
y = |Ax| determines Ax up to a per-row sign, so for every candidate
support I and every sign vector s (quotiented by a global flip, with
rows at or below tolerance treated as hard zero equations) the candidate
solves the linear least-squares system A_I x = s * y.  The support loop
ascends in sparsity and stops at the first level admitting solutions,
which realizes the l0 minimum exactly.  This is the ground-truth oracle
the certification machinery is checked against.

A batched screen (_screen) first proves, on k pivot rows of each
support, that most supports admit no accepted sign pattern; only the
supports it cannot rule out get the exact least-squares test.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import Field, MeasurementEnsemble, SparseVector, as_measurement, phase_equivalent, sign_table
from .numerics import DEFAULT_RANK_TOL

__all__ = [
    "SearchStats",
    "SolutionSet",
    "solve_l0_real",
    "feasible_classes",
]

# Budget of m * (k + 2^(k-1)) float64 elements per block of supports in the
# screen; the block's temporaries then take about 1 MB.
_SCREEN_ELEMENTS = 1 << 15


@dataclass
class SearchStats:
    supports_tried: int = 0
    patterns_tried: int = 0


@dataclass
class SolutionSet:
    """All minimal-l0 solutions, grouped into global-phase classes.

    k_star is None when no solution exists within the search budget.
    For complex solves each class additionally records its recovery
    method ("lifted" or "refined") and rank-one defect; heuristic is set
    when any class came from the non-certified refinement path.
    """

    k_star: int | None
    classes: list[SparseVector]
    residuals: list[float]
    stats: SearchStats = field(default_factory=SearchStats)
    heuristic: bool = False
    methods: list[str] | None = None
    rank1_defects: list[float | None] | None = None

    def to_json_dict(self) -> dict:
        def values_json(v: SparseVector):
            if v.field is Field.REAL:
                return [float(x) for x in v.values]
            return [[float(x.real), float(x.imag)] for x in v.values]

        out = {
            "k_star": self.k_star,
            "classes": [
                {"support": list(c.support), "values": values_json(c)} for c in self.classes
            ],
            "residuals": [float(r) for r in self.residuals],
            "stats": {
                "supports_tried": self.stats.supports_tried,
                "patterns_tried": self.stats.patterns_tried,
            },
            "heuristic": self.heuristic,
        }
        if self.methods is not None:
            out["methods"] = list(self.methods)
        if self.rank1_defects is not None:
            out["rank1_defects"] = [
                (None if d is None else float(d)) for d in self.rank1_defects
            ]
        return out


def _sign_rhs(y: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """All sign assignments of y as right-hand-side columns (m, npat).

    pos, the rows above tolerance, is nonempty.  Row pos[j] takes the signs
    of column j of sign_table, so the first keeps sign +1 (global-flip
    quotient); rows at or below tolerance are zero equations with no sign
    choice.
    """
    table = sign_table(pos.size)
    rhs = np.zeros((y.size, table.shape[0]))
    rhs[pos] = (table * y[pos]).T
    return rhs


def _dedup_insert(classes: list[SparseVector], residuals: list[float], cand: SparseVector, resid: float, tol: float) -> None:
    for existing in classes:
        if phase_equivalent(existing, cand, tol):
            return
    classes.append(cand)
    residuals.append(resid)


def _exact_support(
    entries: np.ndarray,
    I: tuple[int, ...],
    y: np.ndarray,
    tol_abs: float,
    rhs: np.ndarray,
    found: list[SparseVector],
    resids: list[float],
) -> None:
    """Exact test of one support: SVD rank check, lstsq against every sign
    column of rhs, acceptance, canonicalisation and dedup into found."""
    resid_tol = tol_abs * np.sqrt(entries.shape[0])
    A_I = entries[:, I]
    s = np.linalg.svd(A_I, compute_uv=False)
    if s[-1] <= DEFAULT_RANK_TOL * s[0]:
        # Rank-deficient support: any solution here has a sparser
        # representative on a subset, found at a smaller k.
        return
    X, *_ = np.linalg.lstsq(A_I, rhs, rcond=None)
    R = rhs - A_I @ X
    ok = (np.linalg.norm(R, axis=0) <= resid_tol) & (np.min(np.abs(X), axis=0) > tol_abs)
    for col in np.nonzero(ok)[0]:
        x_hat = SparseVector(Field.REAL, entries.shape[1], I, X[:, col]).canonical()
        resid = float(np.max(np.abs(np.abs(entries[:, I] @ x_hat.values) - y)))
        if resid <= tol_abs:
            _dedup_insert(found, resids, x_hat, resid, tol_abs)


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


def _screen(entries: np.ndarray, y_eff: np.ndarray, supports: np.ndarray, tol_abs: float) -> np.ndarray:
    """Mask of the (N, k) supports, k < m, on which _exact_support may accept.

    A False entry is a proof that _exact_support accepts no sign column
    there; a True entry proves nothing.  y_eff is y with the rows at or
    below tol_abs set to 0, which is the magnitude vector of every column
    of _sign_rhs.

    Screen.  Partial pivoting picks k rows R of A_I; B = A_I[R] (k x k),
    C = A_I[R^c] and T = C B^-1.  For each row s of sign_table(k), with
    v = s * y_eff[R], the screen predicts the other rows as P = T v and
    takes mu = min over s of || |P| - y_eff[R^c] ||_2.

    Bound.  Suppose _exact_support accepts a column, with sign vector s'
    (entries +-1 on the rows above tolerance) and lstsq output X.  Let
    r = s' * y_eff and e = A_I X - r (exact arithmetic on the stored
    floats), with ||e|| <= rho.  Then B X = r_R + e_R and C X = r_Rc + e_Rc,
    so T r_R = C X - T e_R = r_Rc + e_Rc - T e_R.  Up to a global flip,
    r_R is one of the screen's v, and ||a| - |b|| <= |a - b| with
    |r_Rc| = y_eff[R^c] gives

        || |T v| - y_eff[R^c] || <= ||e_Rc|| + ||T|| ||e_R|| <= (1 + ||T||) rho.

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

    rho: the accepted column's computed residual norm is at most
    resid_tol.  Forming rhs - A_I X errs by gamma_(k+1) (|r| + |A_I| |X|)
    and the norm's sum of squares and square root by a relative
    gamma_(m+1), so ||e|| <= resid_tol (1 + gamma_(m+1)) + gamma_(k+1)
    (||y_eff|| + ||A_I|| ||X||), and ||X|| <= beta (||y_eff|| + ||e||).  With
    g = gamma_(k+1) ||A_I|| beta < 1 this solves to

        rho = (resid_tol (1 + gamma_(m+1)) + gamma_(k+1) (1 + ||A_I|| beta) ||y_eff||) / (1 - g).

    The computed P_hat = fl(T_hat v) differs from T v by at most
    (gamma_k ||T_hat|| + gamma_k ||C|| ||W|| + tau zeta) ||v||, with
    ||v|| <= ||y_eff||, and the computed mismatch norm errs by a relative
    gamma_(m+1).  So when a column is accepted, the computed mu is at most
    (1 + gamma_(m+1)) times

        bound = (1 + tau) rho + (gamma_k (||T_hat|| + ||C|| ||W||) + tau zeta) ||y_eff||.

    Underflow adds at most 2^-1074 per operation.  The screen runs only
    when max |A_I| and max y_eff lie in [2^-400, 2^400], so no norm or
    product overflows unless it returns inf, and every underflow error,
    amplified by the factors above, stays below eta = 2^-500, which the
    bound adds to zeta, tau's numerator, rho's numerator and the total.
    Each norm, product and sum in the bound itself, like the subtraction
    of I in Z, is evaluated with relative error under 1e-12 for
    m, k <= 64 (zeta, g <= 1/2 keep the divisions tame), so the screen
    flags when mu_hat <= 2 bound.

    It also flags a support when any pivot is at most DEFAULT_RANK_TOL
    times max |A_I|, when zeta or g exceeds 1/2, when max |A_I| or max
    y_eff is out of range, and when any mismatch or the bound is not
    finite.  Flagging is always safe: a flagged support gets the exact
    test.
    """
    m = entries.shape[0]
    N, k = supports.shape
    u = np.finfo(np.float64).eps / 2

    def gamma(j: int) -> float:
        return j * u / (1 - j * u)

    lo, hi, eta = 2.0 ** -400, 2.0 ** 400, 2.0 ** -500
    y_max = float(y_eff.max())
    if not lo <= y_max <= hi:
        return np.ones(N, dtype=bool)
    resid_tol = tol_abs * np.sqrt(m)
    ny = float(np.linalg.norm(y_eff))
    stack = entries[:, supports].transpose(1, 0, 2)
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
        nA = np.sqrt(nB * nB + nC * nC)
        zeta = nZ + gamma(k + 1) * nB * nW + eta
        tau = (nT + gamma(k) * nC * nW + eta) / (1 - zeta)
        beta = nW / (1 - zeta)
        g = gamma(k + 1) * nA * beta
        rho = (resid_tol * (1 + gamma(m + 1)) + gamma(k + 1) * (1 + nA * beta) * ny + eta) / (1 - g)
        bound = (1 + tau) * rho + (gamma(k) * (nT + nC * nW) + tau * zeta) * ny + eta
        y_R = y_eff[order[:, :k]]
        P = np.abs(T @ (y_R[:, :, None] * sign_table(k).T))
        P -= y_eff[order[:, k:]][:, :, None]
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


def _scan_level(
    A: MeasurementEnsemble,
    y: np.ndarray,
    k: int,
    tol_abs: float,
    pos: np.ndarray,
    sign_rhs,
    stats: SearchStats,
) -> list[tuple[SparseVector, float]]:
    """All accepted k-sparse candidates at one support size (deduplicated).

    Every support counts as tried with all 2^(|pos|-1) sign patterns, but
    only the supports _screen flags get _exact_support, in support order;
    sign_rhs() builds the shared right-hand side on first use.  When k = m
    there are no rows outside the pivots, so every support goes straight
    to the exact test.
    """
    m, n = A.m, A.n
    entries = A.entries
    supports = list(itertools.combinations(range(n), k))
    stats.supports_tried += len(supports)
    stats.patterns_tried += len(supports) << (pos.size - 1)
    if k == m:
        flags = np.ones(len(supports), dtype=bool)
    else:
        y_eff = np.zeros(m)
        y_eff[pos] = y[pos]
        index = np.array(supports)
        block = max(1, _SCREEN_ELEMENTS // (m * (k + 2 ** (k - 1))))
        flags = np.concatenate(
            [_screen(entries, y_eff, index[i:i + block], tol_abs) for i in range(0, len(supports), block)]
        )
    found: list[SparseVector] = []
    resids: list[float] = []
    for I in itertools.compress(supports, flags):
        _exact_support(entries, I, y, tol_abs, sign_rhs(), found, resids)
    return list(zip(found, resids))


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must satisfy 0 < tol < inf, got {tol!r}")


def _prepare(A: MeasurementEnsemble, y, k_max: int, tol: float):
    if A.field is not Field.REAL:
        raise ValueError("solve_l0_real requires a real ensemble")
    y = as_measurement(y)
    if y.m != A.m:
        raise ValueError(f"measurement length {y.m} does not match m={A.m}")
    if not (0 <= k_max <= min(A.m, A.n)):
        raise ValueError(f"k_max must be in [0, min(m, n)] = [0, {min(A.m, A.n)}]")
    _check_tol(tol)
    yv = y.magnitudes
    tol_abs = tol * max(1.0, float(yv.max(initial=0.0)))
    pos = np.nonzero(yv > tol_abs)[0]
    sign_rhs = functools.cache(functools.partial(_sign_rhs, yv, pos))
    return yv, tol_abs, pos, sign_rhs


def solve_l0_real(
    A: MeasurementEnsemble,
    y,
    k_max: int,
    tol: float = 1e-8,
) -> SolutionSet:
    """Solve min ||x||_0 subject to |Ax| = y by exhaustive enumeration.

    Returns every phase class at the minimal feasible sparsity; classes
    are canonical representatives (first support entry positive).  The
    acceptance tolerance, support-entry threshold, and class-dedup
    tolerance are all tol scaled by max(1, ||y||_inf).
    """
    yv, tol_abs, pos, sign_rhs = _prepare(A, y, k_max, tol)
    stats = SearchStats()
    if pos.size == 0:
        return SolutionSet(0, [SparseVector.zero(Field.REAL, A.n)], [float(yv.max(initial=0.0))], stats)
    for k in range(1, k_max + 1):
        hits = _scan_level(A, yv, k, tol_abs, pos, sign_rhs, stats)
        if hits:
            classes = [h[0] for h in hits]
            residuals = [h[1] for h in hits]
            return SolutionSet(k, classes, residuals, stats)
    return SolutionSet(None, [], [], stats)


def feasible_classes(
    A: MeasurementEnsemble,
    y,
    k_max: int,
    tol: float = 1e-8,
) -> list[tuple[int, SparseVector]]:
    """All phase classes satisfying |Ax| = y with ||x||_0 <= k_max.

    Unlike solve_l0_real this does not stop at the minimal sparsity; it
    is the ambiguity probe used by the necessity checks.  Candidates with
    a below-tolerance entry are pruned (they live at a smaller k).
    """
    yv, tol_abs, pos, sign_rhs = _prepare(A, y, k_max, tol)
    stats = SearchStats()
    out: list[tuple[int, SparseVector]] = []
    if pos.size == 0:
        return [(0, SparseVector.zero(Field.REAL, A.n))]
    for k in range(1, k_max + 1):
        for cand, _resid in _scan_level(A, yv, k, tol_abs, pos, sign_rhs, stats):
            out.append((k, cand))
    return out

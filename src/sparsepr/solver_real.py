"""Exact l0 sparse phase retrieval over the reals.

Exhaustive search over supports and sign assignments: the measurement
y = |Ax| determines Ax up to a per-row sign, so for every candidate
support I and every sign vector s (quotiented by a global flip, with
rows at or below tolerance treated as hard zero equations) the candidate
solves the linear least-squares system A_I x = s * y.  The support loop
ascends in sparsity and stops at the first level admitting solutions,
which realizes the l0 minimum exactly.  This is the ground-truth oracle
the certification machinery is checked against.

A batched screen (numerics._lstsq_screen) first proves, on k pivot rows
of each support, that most supports admit no accepted sign pattern; only
the supports it cannot rule out get the exact least-squares test.  The
screen builds each support's pivots and inverse from those of its
(k-1)-prefix, one new column at a time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .model import Field, MeasurementEnsemble, SparseVector, as_measurement, phase_equivalent, sign_table
from .numerics import DEFAULT_RANK_TOL, _lstsq_screen

__all__ = [
    "SearchStats",
    "SolutionSet",
    "solve_l0_real",
    "feasible_classes",
]


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
    only the supports numerics._lstsq_screen flags get _exact_support, in
    support order; sign_rhs() builds the shared right-hand side on first
    use.  The screen gets _exact_support's residual test: every column of
    _sign_rhs has magnitudes y_eff (y with the rows at or below tol_abs
    set to 0), sign_table(k) covers its signs on any k rows, and the
    accepted columns' computed residual norms are at most tol_abs sqrt(m).
    Adding index c to a support adds the column A[:, c], so the screen's
    M is A_I, in support order.
    """
    m, n = A.m, A.n
    entries = A.entries
    count = comb(n, k)
    stats.supports_tried += count
    stats.patterns_tried += count << (pos.size - 1)
    y_eff = np.zeros(m)
    y_eff[pos] = y[pos]
    flags = _lstsq_screen(lambda cols, c: [entries[:, c]], n, k, y_eff, sign_table(k), tol_abs * np.sqrt(m))
    found: list[SparseVector] = []
    resids: list[float] = []
    for I in itertools.compress(itertools.combinations(range(n), k), flags):
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

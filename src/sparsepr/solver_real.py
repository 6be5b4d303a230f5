"""Exact l0 sparse phase retrieval over the reals, and the solve core both
fields share.

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
(k-1)-prefix, one new column at a time, and one screen call covers a
whole stack of problems of one shape.

Both fields' solvers are one core, _solve_batch, over one problem type
(_Problem, from _prepare, with the one tolerance policy _tol_abs) and one
class dedup (_dedup); a field gives it only its level function, here
_scan_level.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from math import comb, sqrt
from typing import Callable

import numpy as np

from .model import Field, MeasurementEnsemble, SparseVector, as_measurement, phase_equivalent, sign_table
from .numerics import _lstsq_screen, _policy_ranks

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
    when the solve reached a level of the non-certified refinement path.

    to_json_dict always emits k_star, classes, residuals, stats and
    heuristic.  A complex solve that searched (k_star >= 1, or None) also
    emits methods and rank1_defects, one entry per class, so both are []
    when k_star is None.  A real solve never emits them, and neither does
    a k_star = 0 solve of either field.
    """

    k_star: int | None
    classes: list[SparseVector]
    residuals: list[float]
    stats: SearchStats = field(default_factory=SearchStats)
    heuristic: bool = False
    methods: list[str] | None = None
    rank1_defects: list[float | None] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "k_star": self.k_star,
            "classes": [c.to_json_dict() for c in self.classes],
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


def _check_int(value, name: str, low: int, high: int | None = None) -> None:
    """Raise ValueError naming the argument unless value is an integer in
    [low, high] (no upper bound when high is None).  bool is refused, so
    that True, 2.5 or "2" is not read as 1, 2 or 2."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or (high is not None and value > high)):
        if high is not None:
            what = f"an integer in [{low}, {high}]"
        elif low == 0:
            what = "a non-negative integer"
        else:
            what = f"an integer >= {low}"
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_tol(tol) -> None:
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
        raise ValueError(f"tol must be a real number with 0 < tol < inf, got {tol!r}")


def _tol_abs(tol: float, y: np.ndarray) -> float:
    """The absolute tolerance of a solve with magnitudes y: on |Ax| - y,
    on support entries, on zero rows and between classes."""
    return tol * max(1.0, float(y.max(initial=0.0)))


def _meas_err(A_I: np.ndarray, values: np.ndarray, y: np.ndarray) -> float:
    """max | |A_I values| - y |: the residual a class is accepted and reported with."""
    return float(np.abs(np.abs(A_I @ values) - y).max())


# A class, its recovery method and rank-one defect (None for a real one).
_Candidate = tuple[SparseVector, str | None, float | None]


@dataclass
class _Problem:
    """One validated solve of either field: A's entries, the magnitudes y,
    the relative tolerance tol, tol_abs = _tol_abs(tol, y), the bound
    resid_tol on a least-squares residual's 2-norm (tol_abs sqrt(m), and
    tol max(1, max y)^2 sqrt(m) for the complex lift's y^2) and the search
    counters."""

    entries: np.ndarray
    y: np.ndarray
    tol: float
    tol_abs: float
    resid_tol: float
    stats: SearchStats = field(default_factory=SearchStats)


def _prepare(A: MeasurementEnsemble, y, k_max: int, tol: float, fld: Field) -> _Problem:
    if A.field is not fld:
        raise ValueError(f"solve_l0_{fld.value} requires a {fld.value} ensemble")
    y = as_measurement(y)
    if y.m != A.m:
        raise ValueError(f"measurement length {y.m} does not match m={A.m}")
    _check_int(k_max, "k_max", 0, min(A.m, A.n))
    _check_tol(tol)
    yv = y.magnitudes
    tol_abs = _tol_abs(tol, yv)
    scale = tol_abs if fld is Field.REAL else max(1.0, float(yv.max(initial=0.0)) ** 2) * tol
    return _Problem(A.entries, yv, tol, tol_abs, scale * sqrt(A.m))


def _dedup(p: _Problem, candidates: list[_Candidate]) -> list[tuple[_Candidate, float]]:
    """The candidates no earlier kept one is phase_equivalent to at
    p.tol_abs, in order, each with its _meas_err."""
    kept: list[tuple[_Candidate, float]] = []
    for cand in candidates:
        x = cand[0]
        if not any(phase_equivalent(c[0], x, p.tol_abs) for c, _ in kept):
            kept.append((cand, _meas_err(p.entries[:, x.support], x.values, p.y)))
    return kept


def _solve_batch(problems: list[_Problem], k_max: int, fld: Field, level: Callable) -> list[SolutionSet]:
    """The SolutionSet of each problem; the problems share (m, n) and fld.

    A problem with no row of y above tol_abs is solved by the zero
    vector.  For k = 1, ..., k_max, level(live, k) returns each live
    problem's candidates at support size k and whether it reached the
    heuristic path there; a problem leaves at the first level where
    _dedup keeps a candidate.  A problem's SolutionSet made at or after a
    level heuristic for it is flagged heuristic.  A level decides each
    problem's candidates and flag from its own data only, so every
    SolutionSet is bit for bit that of a solve on its own.
    """

    def solution(k: int | None, i: int, kept: list[tuple[_Candidate, float]]) -> SolutionSet:
        p = problems[i]
        classes = [c[0] for c, _ in kept]
        residuals = [r for _, r in kept]
        if fld is Field.REAL:
            return SolutionSet(k, classes, residuals, p.stats)
        return SolutionSet(k, classes, residuals, p.stats, heuristic[i], [c[1] for c, _ in kept],
                           [c[2] for c, _ in kept])

    out: list[SolutionSet | None] = [None] * len(problems)
    for i, p in enumerate(problems):
        if not (p.y > p.tol_abs).any():
            out[i] = SolutionSet(0, [SparseVector.zero(fld, p.entries.shape[1])], [float(p.y.max(initial=0.0))],
                                 p.stats)
    live = [i for i, sol in enumerate(out) if sol is None]
    heuristic = [False] * len(problems)
    for k in range(1, k_max + 1):
        if not live:
            break
        found, level_heuristic = level([problems[i] for i in live], k)
        for i, cands, h in zip(live, found, level_heuristic):
            heuristic[i] = heuristic[i] or h
            kept = _dedup(problems[i], cands)
            if kept:
                out[i] = solution(k, i, kept)
        live = [i for i in live if out[i] is None]
    for i in live:
        out[i] = solution(None, i, [])
    return out


def _sign_rhs(y_eff: np.ndarray) -> np.ndarray:
    """All sign assignments of y_eff as right-hand-side columns (m, npat).

    y_eff is y with the rows at or below tolerance set to 0, and has a
    nonzero row.  Its j-th nonzero row takes the signs of column j of
    sign_table, so the first keeps sign +1 (global-flip quotient); the
    zero rows are zero equations with no sign choice.
    """
    pos = y_eff.nonzero()[0]
    table = sign_table(pos.size)
    rhs = np.zeros((y_eff.size, table.shape[0]))
    rhs[pos] = (table * y_eff[pos]).T
    return rhs


def _exact_support(p: _Problem, I: tuple[int, ...], rhs: np.ndarray) -> list[_Candidate]:
    """The canonical classes support I of p accepts, in sign-column order:
    SVD rank check (numerics._policy_ranks), lstsq against every sign column
    of rhs, then the residual, support-entry and measurement tests."""
    A_I = p.entries[:, I]
    if _policy_ranks(np.linalg.svd(A_I, compute_uv=False))[0] < len(I):
        # Rank-deficient support: any solution here has a sparser
        # representative on a subset, found at a smaller k.
        return []
    X, *_ = np.linalg.lstsq(A_I, rhs, rcond=None)
    R = rhs - A_I @ X
    ok = (np.linalg.norm(R, axis=0) <= p.resid_tol) & (np.min(np.abs(X), axis=0) > p.tol_abs)
    out: list[_Candidate] = []
    for col in np.nonzero(ok)[0]:
        x_hat = SparseVector(Field.REAL, p.entries.shape[1], I, X[:, col]).canonical()
        if _meas_err(A_I, x_hat.values, p.y) <= p.tol_abs:
            out.append((x_hat, None, None))
    return out


def _scan_level(problems: list[_Problem], k: int) -> tuple[list[list[_Candidate]], list[bool]]:
    """Each problem's accepted k-sparse candidates, in support order, and
    a False heuristic flag for each (no real level is heuristic); the
    problems share (m, n).

    Every support counts as tried with all 2^(p-1) sign patterns, p the
    rows of y above tol_abs, but only the supports numerics._lstsq_screen
    flags get _exact_support, against sign columns built once per problem
    and level, and only for a problem with a flagged support.  One screen
    call covers every problem.  It gets _exact_support's residual test:
    every column of _sign_rhs has magnitudes y_eff (y with the rows at or
    below tol_abs set to 0), sign_table(k) covers its signs on any k rows,
    and the accepted columns' computed residual norms are at most
    resid_tol.  Adding index c to a support adds the column
    A[:, c], so the screen's M is A_I, in support order.
    """
    n = problems[0].entries.shape[1]
    count = comb(n, k)
    y = np.stack([p.y for p in problems])
    tol_abs = np.array([p.tol_abs for p in problems])
    y_eff = np.where(y > tol_abs[:, None], y, 0.0)
    for p, above in zip(problems, np.count_nonzero(y_eff, axis=1).tolist()):
        p.stats.supports_tried += count
        p.stats.patterns_tried += count << (above - 1)
    side_by_side = np.concatenate([p.entries for p in problems], axis=1)
    resid_tol = np.array([p.resid_tol for p in problems])
    flags = _lstsq_screen(lambda cols, c: [side_by_side[:, c]], n, k, y_eff, sign_table(k), resid_tol)
    out = []
    for p, row, flagged in zip(problems, y_eff, flags):
        supports = list(itertools.compress(itertools.combinations(range(n), k), flagged))
        rhs = _sign_rhs(row) if supports else None
        out.append([c for I in supports for c in _exact_support(p, I, rhs)])
    return out, [False] * len(problems)


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
    return _solve_real_batch([A], [y], k_max, tol)[0]


def _solve_real_batch(As: list[MeasurementEnsemble], ys: list, k_max: int, tol: float) -> list[SolutionSet]:
    """solve_l0_real(A, y, k_max, tol) for each pair, as a list; every A
    has the same (m, n).  A sweep row and the forward trials of the
    bidirectional check run it."""
    problems = [_prepare(A, y, k_max, tol, Field.REAL) for A, y in zip(As, ys)]
    return _solve_batch(problems, k_max, Field.REAL, _scan_level)


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
    p = _prepare(A, y, k_max, tol, Field.REAL)
    if not (p.y > p.tol_abs).any():
        return [(0, SparseVector.zero(Field.REAL, A.n))]
    return [(k, c[0]) for k in range(1, k_max + 1) for c, _ in _dedup(p, _scan_level([p], k)[0][0])]

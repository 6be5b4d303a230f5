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
(k-1)-prefix, one new column at a time, and one screen call covers a
whole stack of problems of one shape (_solve_real_batch, which a sweep
row and the forward trials of the bidirectional check run).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Callable

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


@dataclass
class _Problem:
    """One validated real solve: A's entries, the magnitudes y, the
    absolute tolerance, the rows of y above it (pos), the lazily built
    _sign_rhs columns and the search counters."""

    entries: np.ndarray
    y: np.ndarray
    tol_abs: float
    pos: np.ndarray
    sign_rhs: Callable[[], np.ndarray]
    stats: SearchStats = field(default_factory=SearchStats)


def _scan_level(problems: list[_Problem], k: int) -> list[list[tuple[SparseVector, float]]]:
    """Each problem's accepted k-sparse candidates at one support size
    (deduplicated); the problems share (m, n).

    Every support counts as tried with all 2^(|pos|-1) sign patterns, but
    only the supports numerics._lstsq_screen flags get _exact_support, in
    problem and then support order; sign_rhs() builds a problem's shared
    right-hand side on first use.  One screen call covers every problem.
    It gets _exact_support's residual test: every column of _sign_rhs has
    magnitudes y_eff (y with the rows at or below tol_abs set to 0),
    sign_table(k) covers its signs on any k rows, and the accepted
    columns' computed residual norms are at most tol_abs sqrt(m).  Adding
    index c to a support adds the column A[:, c], so the screen's M is
    A_I, in support order.
    """
    m, n = problems[0].entries.shape
    count = comb(n, k)
    y_eff = np.zeros((len(problems), m))
    for p, row in zip(problems, y_eff):
        p.stats.supports_tried += count
        p.stats.patterns_tried += count << (p.pos.size - 1)
        row[p.pos] = p.y[p.pos]
    side_by_side = np.concatenate([p.entries for p in problems], axis=1)
    resid_tol = np.array([p.tol_abs for p in problems]) * np.sqrt(m)
    flags = _lstsq_screen(lambda cols, c: [side_by_side[:, c]], n, k, y_eff, sign_table(k), resid_tol)
    out = []
    for p, row in zip(problems, flags):
        found: list[SparseVector] = []
        resids: list[float] = []
        for I in itertools.compress(itertools.combinations(range(n), k), row):
            _exact_support(p.entries, I, p.y, p.tol_abs, p.sign_rhs(), found, resids)
        out.append(list(zip(found, resids)))
    return out


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must satisfy 0 < tol < inf, got {tol!r}")


def _prepare(A: MeasurementEnsemble, y, k_max: int, tol: float) -> _Problem:
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
    return _Problem(A.entries, yv, tol_abs, pos, functools.cache(functools.partial(_sign_rhs, yv, pos)))


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
    has the same (m, n).

    Each level screens all the problems still searching in one
    _scan_level call, and a problem leaves at the first level where it
    has hits.  The screen only decides which supports get the exact test,
    and each exact test sees only its own problem, so every SolutionSet
    is bit for bit that of a solve on its own.
    """
    problems = [_prepare(A, y, k_max, tol) for A, y in zip(As, ys)]
    out: list[SolutionSet | None] = [None] * len(problems)
    for i, p in enumerate(problems):
        if p.pos.size == 0:
            out[i] = SolutionSet(0, [SparseVector.zero(Field.REAL, p.entries.shape[1])],
                                 [float(p.y.max(initial=0.0))], p.stats)
    live = [i for i, sol in enumerate(out) if sol is None]
    for k in range(1, k_max + 1):
        if not live:
            break
        for i, hits in zip(live, _scan_level([problems[i] for i in live], k)):
            if hits:
                out[i] = SolutionSet(k, [h[0] for h in hits], [h[1] for h in hits], problems[i].stats)
        live = [i for i in live if out[i] is None]
    for i in live:
        out[i] = SolutionSet(None, [], [], problems[i].stats)
    return out


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
    p = _prepare(A, y, k_max, tol)
    if p.pos.size == 0:
        return [(0, SparseVector.zero(Field.REAL, A.n))]
    return [(k, cand) for k in range(1, k_max + 1) for cand, _resid in _scan_level([p], k)[0]]

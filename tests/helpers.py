"""Linear-algebra helpers that only the tests use.

schur_reduced_block backs the rank identity test of the partial-overlap
reduction in tests/test_distance.py; least_squares backs the consistent
system properties; with_column builds the degenerate ensembles of the
collision tests.  None is part of the library's API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsepr.model import Field, MeasurementEnsemble, PhasePattern
from sparsepr.numerics import numerical_rank


@dataclass(frozen=True)
class LeastSquaresResult:
    """Minimum-norm least-squares solution with its residual norm.

    degenerate is set when the system matrix is numerically rank deficient;
    the solution is still returned and the caller decides what to do.
    """

    x: np.ndarray
    residual_norm: float
    degenerate: bool


def least_squares(M, b) -> LeastSquaresResult:
    """Minimize ||Mx - b||_2 for a tall (m >= k) system."""
    M = np.asarray(M)
    b = np.asarray(b).reshape(-1)
    m, k = M.shape
    if m < k:
        raise ValueError(f"least_squares expects m >= k, got {m}x{k}")
    decision = numerical_rank(M)
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    residual = float(np.linalg.norm(M @ x - b))
    return LeastSquaresResult(x=x, residual_norm=residual, degenerate=decision.rank < k)


def schur_reduced_block(
    A: MeasurementEnsemble,
    I,
    J,
    P: PhasePattern,
) -> np.ndarray:
    """Reduced block B of a partial-overlap configuration.

    After splitting the rows by sign and rearranging the columns as
    [shared, I-only, J-only], the shared columns are eliminated from each
    row group with a Schur complement, leaving B (stacked from both
    groups) with the property rank(M) = 2w + rank(B), where w is the
    overlap size.  Requires at least w rows of each sign and invertible
    w-by-w pivot blocks (generic position).
    """
    I, J = tuple(I), tuple(J)
    shared = sorted(set(I) & set(J))
    w = len(shared)
    if w == 0 or I == J:
        raise ValueError("Schur reduction applies to partial-overlap configurations")
    only_i = [i for i in I if i not in shared]
    only_j = [j for j in J if j not in shared]
    plus = P.phases.real > 0
    l = int(plus.sum())
    m = A.m
    if l < w or m - l < w:
        raise ValueError("need at least w rows of each sign for the reduction")

    def reduce_group(rows: np.ndarray, negate_j: bool) -> np.ndarray:
        cols = shared + only_i + only_j
        G = A.entries[np.ix_(rows, cols)].copy()
        if negate_j:
            G[:, w + len(only_i) :] *= -1.0
        pivot = G[:w, :w]
        if np.linalg.matrix_rank(pivot) < w:
            raise ValueError("singular pivot block; reduction undefined")
        top_rest = G[:w, w:]
        bottom_shared = G[w:, :w]
        bottom_rest = G[w:, w:]
        return bottom_rest - bottom_shared @ np.linalg.solve(pivot, top_rest)

    rows_plus = np.where(plus)[0]
    rows_minus = np.where(~plus)[0]
    C_prime = reduce_group(rows_plus, negate_j=False)
    D_prime = reduce_group(rows_minus, negate_j=True)
    return np.vstack([C_prime, D_prime])


def with_column(A: MeasurementEnsemble, j: int, column) -> MeasurementEnsemble:
    """The real ensemble A with column j replaced."""
    E = np.array(A.entries)
    E[:, j] = column
    return MeasurementEnsemble.from_entries(Field.REAL, E)

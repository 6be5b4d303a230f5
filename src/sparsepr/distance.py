"""Phase-generalized minimum distance, spark, and uniqueness certification.

For a real m-by-n ensemble A with m < n, a configuration is a concatenated
matrix M(I, J, P) = [A_I, P A_J] built from two nonempty column supports
with |I| + |J| <= m and an admissible diagonal sign matrix P (not a
multiple of the identity; enumerated modulo a global flip by fixing the
first diagonal entry to +1).

The distance d is one more than the smallest rank among configurations
that witness a genuine ambiguity, capped so that d <= m + 1.

Counting rule.  Write w = |I intersect J| and l for the number of +1
entries of P.  Every configuration carries a structural null space of
dimension max(w - l, 0) + max(w - (m - l), 0): signals supported on the
shared columns whose measurements vanish on one sign class satisfy
Ax = PAx, producing null vectors with x = +-z that break no uniqueness
(and exist for every generic ensemble once the pattern is unbalanced
relative to w).  A configuration therefore counts as a witness exactly
when

    rank([A_I, P A_J]) < |I| + |J| - max(w - l, 0) - max(w - (m - l), 0),

i.e. when its rank falls below the structural value.  Any two solutions
x != +-z with equal sparsity and Ax = PAz force a null vector outside the
structural space, so their configuration always counts: certification
built on this rule is sound.  For disjoint supports the rule reduces to
the plain column-rank-deficiency test.

A k-sparse signal is certifiably unique when k <= floor((d - 1) / 2) AND
every 2k columns of A are independent (the spark condition covers the
phase-free P = I collision, which the admissible-P distance excludes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import Field, MeasurementEnsemble, PhasePattern, sign_table
from .numerics import DEFAULT_RANK_TOL, batched_ranks, numerical_rank

__all__ = [
    "Witness",
    "DistanceReport",
    "SparkReport",
    "CertificationReport",
    "phase_gen_min_distance",
    "witness_rank",
    "spark_at_least",
    "certify_unique",
    "sign_patterns",
]

# Cap chunk memory in the batched enumeration (float64 elements).
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class Witness:
    """A distance-minimizing configuration (supports plus sign-pattern bits)."""

    I: tuple[int, ...]
    J: tuple[int, ...]
    pattern_bits: int

    def pattern(self, m: int) -> PhasePattern:
        return PhasePattern.from_bits(m, self.pattern_bits)

    def to_json_dict(self) -> dict:
        return {"I": list(self.I), "J": list(self.J), "P_bits": self.pattern_bits}


@dataclass(frozen=True)
class DistanceReport:
    """Phase-generalized minimum distance with its minimizing witness."""

    m: int
    n: int
    d: int
    min_rank: int
    witness: Witness | None
    overlap_class: str  # disjoint | full | partial
    overlap: int  # |I intersect J|
    certified_k: int
    fragile: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "d": self.d,
            "min_rank": self.min_rank,
            "certified_k": self.certified_k,
            "overlap_class": self.overlap_class,
            "overlap": self.overlap,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "fragile": self.fragile,
        }


@dataclass(frozen=True)
class SparkReport:
    """Result of checking that every set of s-1 columns is independent.

    fragile is set when any rank decision the check made was fragile.
    """

    s: int
    deficient_columns: tuple[int, ...] | None
    fragile: bool

    @property
    def ok(self) -> bool:
        return self.deficient_columns is None


@dataclass(frozen=True)
class CertificationReport:
    """Uniqueness certificate for k-sparse recovery from magnitudes."""

    m: int
    n: int
    k: int
    d: int
    min_rank: int
    certified: bool
    spark_ok: bool
    witness: Witness | None
    fragile: bool
    limiting_witness: object  # Witness, tuple of spark columns, or None

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "min_rank": self.min_rank,
            "certified": self.certified,
            "spark_ok": self.spark_ok,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "fragile": self.fragile,
        }


def sign_patterns(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All admissible sign patterns modulo global flip, as a (npat, m) array.

    Row b-1 holds the pattern with integer code b (see sign_table); code 0
    (the identity) is excluded.  Also returns the per-pattern count of +1
    entries.
    """
    if m < 2:
        return np.zeros((0, m)), np.zeros(0, dtype=int)
    signs = sign_table(m)[1:]
    return signs, np.sum(signs > 0, axis=1).astype(int)


def _classify_overlap(I: tuple[int, ...], J: tuple[int, ...]) -> tuple[str, int]:
    w = len(set(I) & set(J))
    if w == 0:
        return "disjoint", 0
    if I == J:
        return "full", w
    return "partial", w


def _support_masks(combos: np.ndarray) -> np.ndarray:
    """Encode index tuples as integer bitmasks for fast overlap counting."""
    masks = np.zeros(len(combos), dtype=np.uint64)
    for col in range(combos.shape[1]):
        masks |= np.uint64(1) << combos[:, col].astype(np.uint64)
    return masks


def _smallest_key(hit: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[int, int, int]:
    """Smallest (lo, hi, code) over the True entries of a (pairs, patterns) mask.

    Each row is one unordered support pair, so (lo, hi) picks one row.
    """
    rows = np.flatnonzero(hit.any(axis=1))
    rows = rows[lo[rows] == lo[rows].min()]
    row = rows[np.argmin(hi[rows])]
    return int(lo[row]), int(hi[row]), int(np.argmax(hit[row])) + 1


def phase_gen_min_distance(
    A: MeasurementEnsemble,
    max_support: int | None = None,
    tol_rel: float = DEFAULT_RANK_TOL,
) -> DistanceReport:
    """Exhaustive phase-generalized minimum distance of a real ensemble.

    The reported witness is the first configuration achieving the minimum
    when ordered support pairs run by increasing |I| + |J|, then
    lexicographically, and sign patterns by their integer code.  When
    max_support truncates the search below |I| + |J| = m, the report is a
    certified lower bound on the distance (still sound for certification,
    possibly conservative).

    Each configuration is enumerated once with its mirror: P [A_I, P A_J] =
    [P A_I, A_J] is a column permutation of [A_J, P A_I], so (I, J, P) and
    (J, I, P) have equal rank, and w and l, hence the structural rank, are
    symmetric too.  Only pairs with |I| < |J|, or |I| = |J| and I <= J,
    are visited.  With r the position of a support in the lexicographic
    order of all supports, the key (score, total, min(r_I, r_J),
    max(r_I, r_J), code) is the smaller of the two mirrored keys in the order above, so
    the smallest key names the same witness as a scan of every ordered
    pair.
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

    signs, l_counts = sign_patterns(m)
    npat = signs.shape[0]
    entries = A.entries

    if npat == 0 or t_max < 2:
        # m = 1: no admissible pattern and no valid support pair exists.
        return DistanceReport(m, n, m + 1, m, None, "disjoint", 0, m // 2, False)

    by_size = {a: list(itertools.combinations(range(n), a)) for a in range(1, max_support + 1)}
    supports = sorted(itertools.chain.from_iterable(by_size.values()))
    order = {s: r for r, s in enumerate(supports)}
    combos = {a: np.array(c, dtype=int) for a, c in by_size.items()}
    masks = {a: _support_masks(c) for a, c in combos.items()}
    lex_pos = {a: np.array([order[s] for s in c]) for a, c in by_size.items()}

    best_key = None  # (score, total, lo, hi, code)
    cap_key = None  # first full-rank configuration at size t_max
    fragile_any = False

    for total in range(2, t_max + 1):
        for a in range(max(1, total - max_support), total // 2 + 1):
            b = total - a
            ci, cj = len(combos[a]), len(combos[b])
            # The stack and the Gram matrices batched_ranks forms from it share the budget.
            chunk = max(1, _CHUNK_ELEMENTS // (cj * npat * (m + total) * total))
            for first in range(0, ci, chunk):
                rows = np.arange(first, min(first + chunk, ci))
                if a == b:
                    pi, pj = np.nonzero(np.arange(cj)[None, :] >= rows[:, None])
                else:
                    pi, pj = np.nonzero(np.ones((rows.size, cj), dtype=bool))
                pi += first
                # stack shape: (pairs, npat, m, a + b)
                stack = np.empty((pi.size, npat, m, total))
                stack[..., :a] = entries[:, combos[a][pi].T].transpose(2, 0, 1)[:, None, :, :]
                right = entries[:, combos[b][pj].T].transpose(2, 0, 1)
                stack[..., a:] = signs[None, :, :, None] * right[:, None, :, :]
                ranks, fragile = batched_ranks(stack, tol_rel)
                fragile_any = fragile_any or bool(fragile.any())

                # Structural rank: total minus the dimension forced by shared
                # columns meeting an unbalanced sign pattern.
                w = np.bitwise_count(masks[a][pi] & masks[b][pj]).astype(int)[:, None]
                trivial = np.maximum(w - l_counts, 0) + np.maximum(w - (m - l_counts), 0)
                eligible = ranks < (total - trivial)
                lo = np.minimum(lex_pos[a][pi], lex_pos[b][pj])
                hi = np.maximum(lex_pos[a][pi], lex_pos[b][pj])
                if eligible.any():
                    score = int(ranks[eligible].min())
                    key = (score, total, *_smallest_key(eligible & (ranks == score), lo, hi))
                    if best_key is None or key < best_key:
                        best_key = key
                if total == t_max:
                    full = ranks == t_max
                    if full.any():
                        key = (t_max, total, *_smallest_key(full, lo, hi))
                        if cap_key is None or key < cap_key:
                            cap_key = key

    if best_key is None:  # an eligible key scores below t_max, so it beats the cap
        best_key = cap_key
    if best_key is None:
        # Degenerate corner: nothing deficient was counted and no full-rank
        # representative exists at size t_max.  Report the cap without witness.
        return DistanceReport(m, n, t_max + 1, t_max, None, "disjoint", 0, t_max // 2, fragile_any)

    score, total, lo, hi, code = best_key
    I, J = supports[lo], supports[hi]
    witness = Witness(I=I, J=J, pattern_bits=code)
    overlap_class, overlap = _classify_overlap(I, J)
    d = score + 1
    return DistanceReport(
        m=m,
        n=n,
        d=d,
        min_rank=score,
        witness=witness,
        overlap_class=overlap_class,
        overlap=overlap,
        certified_k=(d - 1) // 2,
        fragile=fragile_any,
    )


def witness_rank(
    A: MeasurementEnsemble,
    I,
    J,
    P: PhasePattern,
    tol_rel: float = DEFAULT_RANK_TOL,
) -> int:
    """Numerical rank of the concatenated configuration [A_I, P A_J]."""
    I = tuple(int(i) for i in I)
    J = tuple(int(j) for j in J)
    for idx in (*I, *J):
        if not (0 <= idx < A.n):
            raise ValueError(f"support index {idx} out of range [0, {A.n})")
    if P.m != A.m:
        raise ValueError("phase pattern length does not match ensemble rows")
    phases = P.phases.astype(A.field.dtype)
    M = np.concatenate([A.columns(I), phases[:, None] * A.columns(J)], axis=1)
    return numerical_rank(M, tol_rel).rank


def spark_at_least(A: MeasurementEnsemble, s: int, tol_rel: float = DEFAULT_RANK_TOL) -> SparkReport:
    """Brute-force check that every subset of fewer than s columns is independent.

    On failure the first (smallest, then lexicographic) dependent subset is
    reported.  The report is fragile when any rank decision made on the
    way was.
    """
    if s < 1 or s > min(A.m, A.n) + 1:
        raise ValueError(f"s must be in [1, min(m, n) + 1], got {s}")
    entries = A.entries
    fragile_any = False
    for size in range(1, s):
        combos = np.array(list(itertools.combinations(range(A.n), size)), dtype=int)
        stack = entries[:, combos.T].transpose(2, 0, 1)  # (ncombos, m, size)
        ranks, fragile = batched_ranks(stack, tol_rel)
        fragile_any = fragile_any or bool(fragile.any())
        bad = ranks < size
        if bad.any():
            first = int(np.argmax(bad))
            return SparkReport(s=s, deficient_columns=tuple(int(c) for c in combos[first]),
                               fragile=fragile_any)
    return SparkReport(s=s, deficient_columns=None, fragile=fragile_any)


def certify_unique(A: MeasurementEnsemble, k: int, max_support: int | None = None) -> CertificationReport:
    """Certify unique k-sparse recovery from phaseless measurements.

    Certified when k <= floor((d - 1) / 2) and additionally every 2k
    columns of A are independent (spark condition, covering the P = I
    collision the distance definition excludes).  When not certified the
    binding witness is returned: the distance witness if the d-bound
    fails, else the deficient spark columns.  The report is fragile when
    a rank decision of the distance or of the spark check was.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    report = phase_gen_min_distance(A, max_support=max_support)
    k_bound_ok = k <= report.certified_k
    if 2 * k <= min(A.m, A.n):
        spark_report = spark_at_least(A, 2 * k + 1)
        spark_ok = spark_report.ok
    else:
        # Fewer than 2k rows or columns: 2k independent columns are impossible.
        spark_report = SparkReport(s=2 * k + 1, deficient_columns=None, fragile=False)
        spark_ok = False
    certified = k_bound_ok and spark_ok
    limiting: object = None
    if not k_bound_ok:
        limiting = report.witness
    elif not spark_ok:
        limiting = spark_report.deficient_columns
    return CertificationReport(
        m=A.m,
        n=A.n,
        k=k,
        d=report.d,
        min_rank=report.min_rank,
        certified=certified,
        spark_ok=spark_ok,
        witness=report.witness,
        fragile=report.fragile or spark_report.fragile,
        limiting_witness=limiting,
    )

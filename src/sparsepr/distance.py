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

How ranks are decided.  Every rank is the SVD policy's (numerical_rank),
with its fragile flag, but most are proven without an SVD.  A per-call
table of the minors det A[S, I] gives det(M^T M) for every pair of a
block and every sign pattern at once (numerics._laplace_gram); a
configuration whose determinant clears a proven margin is full rank.  A
configuration with exact null vectors -- columns equal up to sign, or
class-shared columns meeting an unbalanced pattern -- gets rank t - e when
the configuration M' left after removing e of its columns clears the same
margin (_RankDecider._exact_defects).  These proofs run only at the
largest |I| + |J|: a smaller configuration inherits the proof of one
extension by fresh columns, by interlacing (phase_gen_min_distance).  Only
the remaining configurations go to the SVD.  The spark check proves full
column rank from the same table, and inherits the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .model import Field, MeasurementEnsemble, PhasePattern, sign_table
from .numerics import (
    _SVD_ERROR,
    DEFAULT_RANK_TOL,
    _check_tol_rel,
    _combos,
    _laplace_gram,
    _lex_rank,
    _minor_table,
    _need,
    _pattern_products,
    _screen_accepts,
    _screen_tau,
    batched_ranks,
    numerical_rank,
)
from .solver_real import _check_int

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

# Elements in the largest array of one block of the enumeration.
_BLOCK_ELEMENTS = 1 << 18


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


def _overlaps(cols_i: np.ndarray, cols_j: np.ndarray) -> np.ndarray:
    """|I intersect J| for each row pair of two (N, a) and (N, b) support arrays."""
    return np.sum(cols_i[:, :, None] == cols_j[:, None, :], axis=(1, 2))


def _column_classes(entries: np.ndarray) -> np.ndarray:
    """Class label per column: columns equal up to sign (a_i = +-a_j, compared
    exactly, never within a tolerance) share the label of the first of them."""
    same = np.all(entries[:, :, None] == entries[:, None, :], axis=0)
    same |= np.all(entries[:, :, None] == -entries[:, None, :], axis=0)
    return np.argmax(same, axis=1)


def _leaders(entries: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The nonzero columns that lead their class: the columns an extension adds."""
    return np.flatnonzero((classes == np.arange(classes.size)) & np.any(entries != 0, axis=0))


def _fresh_columns(classes: np.ndarray, leaders: np.ndarray, cols: np.ndarray, need: int):
    """For each row of cols (N, t), the first need leaders (_leaders) whose
    class is absent from the row, as (N, need), and the mask of the rows
    that have need of them.  Adding them to a row adds one column of each of
    need new classes, so every class count of the row stays as it was."""
    rows = np.arange(len(cols))
    new = np.zeros((rows.size, need), dtype=np.intp)
    if leaders.size < need:
        return new, np.zeros(rows.size, dtype=bool)
    present = np.zeros((rows.size, classes.size), dtype=bool)
    present[rows[:, None], classes[cols]] = True
    fresh = ~present[:, leaders]
    ok = fresh.sum(axis=1) >= need
    for j in range(need):
        first = np.argmax(fresh, axis=1)
        new[:, j] = leaders[first]
        fresh[rows, first] = False
    return new, ok


def _smallest_key(hit: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[int, int, int]:
    """Smallest (lo, hi, code) over the True entries of a (pairs, patterns) mask.

    Each row is one unordered support pair, so (lo, hi) picks one row.
    """
    rows = np.flatnonzero(hit.any(axis=1))
    rows = rows[lo[rows] == lo[rows].min()]
    row = rows[np.argmin(hi[rows])]
    return int(lo[row]), int(hi[row]), int(np.argmax(hit[row])) + 1


class _RankDecider:
    """numerical_rank's decision for every configuration of a block of support pairs.

    Three paths, each giving the SVD policy's rank and fragile flag:
    configurations that the minor table proves full rank (_laplace_gram,
    _screen_accepts); configurations with e exact null vectors
    (_exact_defects) whose reduced configuration M' is proven, which get
    rank t - e; and the rest, which go to batched_ranks.  fragile records
    whether any SVD decision was fragile; the proven ones never are.
    phase_gen_min_distance sends every configuration of |I| + |J| = t_max
    here, and of the smaller ones only those that inherit no proof; an
    inherited configuration takes the rank t - e that its proof gives
    (class_counts).
    """

    def __init__(self, A: MeasurementEnsemble, table, tol_rel: float):
        self.entries = A.entries
        self.m = A.m
        self.signs, l_counts = sign_patterns(A.m)
        # defects[w, P] = max(w - l, 0) + max(w - (m - l), 0): the null vectors
        # that w shared columns force on pattern P with l entries +1 (the
        # counting rule); w <= min(|I|, |J|) <= m / 2.
        w = np.arange(A.m // 2 + 1)[:, None]
        self.defects = np.maximum(w - l_counts, 0) + np.maximum(w - (A.m - l_counts), 0)
        self.table = table
        self.classes = _column_classes(A.entries)
        self.tau = _screen_tau(tol_rel)
        self.tol_rel = tol_rel
        self.fragile = False
        self._products = {}

    def _H(self, t: int, a: int, w: int = 0, drop: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The patterns whose shared-class defect defects[w] is drop (every
        pattern for w = 0), and _pattern_products on them; cached per call."""
        if (t, a, w, drop) not in self._products:
            patterns = np.flatnonzero(self.defects[w] == drop)
            if patterns.size == len(self.signs):
                H = _pattern_products(self.m, t, a, self.signs) if w == 0 else self._H(t, a)[1]
            else:
                H = self._H(t, a)[1][:, :, patterns]
            self._products[t, a, w, drop] = patterns, H
        return self._products[t, a, w, drop]

    def ranks(self, cols_i: np.ndarray, cols_j: np.ndarray, pos_i: np.ndarray, pos_j: np.ndarray):
        """(N, npat) ranks of [A_I, P A_J] for the N pairs of rows of cols_i and cols_j.

        pos_i and pos_j are the supports' positions in _combos order.  Also
        returns the (N, npat) mask of the ranks that were proven, not sent to
        the SVD.
        """
        a, b = cols_i.shape[1], cols_j.shape[1]
        t = a + b
        ranks = np.full((len(cols_i), len(self.signs)), t)
        undecided = np.ones(ranks.shape, dtype=bool)
        if self.table is not None:
            col_sq = self.table.col_sq
            fro2 = col_sq[cols_i].sum(axis=1) + col_sq[cols_j].sum(axis=1)
            G, B = _laplace_gram(self.table, a, b, pos_i, pos_j, self._H(t, a)[1])
            undecided &= ~_screen_accepts(G, B[:, None], _need(self.tau, fro2, fro2, t)[:, None])
            # Rank t - e needs the SVD's roundoff below tol_rel (see _screen_accepts).
            if self.tol_rel >= 2 * _SVD_ERROR and undecided.any():
                self._exact_defects(cols_i, cols_j, fro2, ranks, undecided)
        proven = ~undecided
        pairs, codes = np.nonzero(undecided)
        step = max(1, _BLOCK_ELEMENTS // (self.m * t))
        for first in range(0, pairs.size, step):
            p, q = pairs[first:first + step], codes[first:first + step]
            stack = np.empty((p.size, self.m, t))
            stack[:, :, :a] = self.entries[:, cols_i[p]].transpose(1, 0, 2)
            stack[:, :, a:] = self.signs[q][:, :, None] * self.entries[:, cols_j[p]].transpose(1, 0, 2)
            ranks[p, q], fragile = batched_ranks(stack, self.tol_rel)
            self.fragile = self.fragile or bool(fragile.any())
        return ranks, proven

    def _class_structure(self, cols_i, cols_j):
        """Per pair: the masks of the columns that come first in their class on
        each side, and of the first columns of J whose class I holds too."""
        a, b = cols_i.shape[1], cols_j.shape[1]
        ci, cj = self.classes[cols_i], self.classes[cols_j]
        first_i = ~np.any((ci[:, :, None] == ci[:, None, :]) & np.tri(a, k=-1, dtype=bool), axis=2)
        first_j = ~np.any((cj[:, :, None] == cj[:, None, :]) & np.tri(b, k=-1, dtype=bool), axis=2)
        shared = first_j & np.any(cj[:, :, None] == ci[:, None, :], axis=2)
        return first_i, first_j, shared

    def class_counts(self, cols_i: np.ndarray, cols_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per pair, the columns that repeat a class on their side, (a - |cls I|) +
        (b - |cls J|), and the class-shared count w: for pattern P the
        configuration has e = repeated + defects[w, P] exact null vectors
        (_exact_defects)."""
        first_i, first_j, shared = self._class_structure(cols_i, cols_j)
        return (~first_i).sum(axis=1) + (~first_j).sum(axis=1), shared.sum(axis=1)

    def _exact_defects(self, cols_i, cols_j, fro2, ranks, undecided) -> None:
        """Decide the undecided configurations whose deficiency is exact and known in advance.

        Columns in one class (_column_classes) are equal up to sign in the
        stored floats.  With |cls I| and |cls J| the classes on each side,
        w = |cls I intersect cls J| and l the +1 entries of P, M = [A_I, P A_J]
        has e = (a - |cls I|) + (b - |cls J|) + s exact null vectors, s =
        max(w - l, 0) + max(w - (m - l), 0): one per column that repeats a
        class on its side (a_i -+ a_j = 0), and s among the class-shared
        columns, because the w vectors a_c + P a_c vanish exactly on the
        m - l rows where p = -1 (negation is exact) and the w vectors
        a_c - P a_c on the other l.  They are independent, each of the first
        kind using a column no other uses.  M' keeps the first column of
        each class on each side and drops the last s class-shared columns
        of J: e columns fewer.  When M' is proven (sigma_min(M') > tau
        ||M||_F, _screen_accepts) the SVD policy decides rank t - e, not
        fragile.  Sets ranks and clears undecided where proven.
        """
        m, (a, b), n = self.m, (cols_i.shape[1], cols_j.shape[1]), self.classes.size
        first_i, first_j, shared = self._class_structure(cols_i, cols_j)
        from_right = np.cumsum(shared[:, ::-1], axis=1)[:, ::-1]  # shared columns at or after each
        a_cls, b_cls, w = first_i.sum(axis=1), first_j.sum(axis=1), shared.sum(axis=1)
        # Configurations with e > 0 are exactly rank deficient, so none was proven
        # full rank: every one of them is undecided here.
        group = np.ravel_multi_index((a_cls, b_cls, w), (b + 1,) * 3)
        group[(a_cls == a) & (b_cls == b) & (w < 2)] = -1  # e = 0 for every pattern
        col_sq = self.table.col_sq
        for key in np.unique(group[group >= 0]):
            pairs = np.flatnonzero(group == key)
            a2, b_all, w2 = (int(v) for v in np.unravel_index(key, (b + 1,) * 3))
            sub_i = cols_i[pairs][first_i[pairs]].reshape(-1, a2)
            for drop in range(max(w2, 1)):  # l >= 1 and m - l >= 1 keep s below w
                e = (a - a2) + (b - b_all) + drop
                b2 = b_all - drop
                if e == 0:
                    continue
                patterns, H = self._H(a2 + b2, a2, w2, drop)
                keep = first_j[pairs] & ~(shared[pairs] & (from_right[pairs] <= drop))
                sub_j = cols_j[pairs][keep].reshape(-1, b2)
                step = max(1, _BLOCK_ELEMENTS // (comb(m, a2 + b2) * max(patterns.size, comb(a2 + b2, a2))))
                for first in range(0, pairs.size, step):
                    part = slice(first, first + step)
                    G, B = _laplace_gram(self.table, a2, b2, _lex_rank(sub_i[part], n),
                                         _lex_rank(sub_j[part], n), H)
                    fro2_sub = col_sq[sub_i[part]].sum(axis=1) + col_sq[sub_j[part]].sum(axis=1)
                    need = _need(self.tau, fro2[pairs[part]], fro2_sub, a2 + b2)
                    proven = _screen_accepts(G, B[:, None], need[:, None])
                    rows = pairs[part, None]
                    ranks[rows, patterns] = np.where(proven, a + b - e, ranks[rows, patterns])
                    undecided[rows, patterns] &= ~proven


def _inherits(classes: np.ndarray, leaders: np.ndarray, proven: dict, cols_i: np.ndarray,
              cols_j: np.ndarray, t_max: int, max_support: int) -> np.ndarray:
    """Mask of the pairs below t_max columns whose canonical extension was proven.

    The extension adds the first fresh columns (_fresh_columns) to J up to
    max_support, then to I; that keeps |I'| <= |J'|, and at |I'| = |J'| the
    two are put in the order the enumeration visits.  proven[a'] holds one
    bit per visited pair of the split (a', t_max - a'), in visiting order.
    """
    n = classes.size
    a, b = cols_i.shape[1], cols_j.shape[1]
    need = t_max - a - b
    new, ok = _fresh_columns(classes, leaders, np.concatenate([cols_i, cols_j], axis=1), need)
    if not ok.any():
        return ok
    q = min(need, max_support - b)
    ri = _lex_rank(np.sort(np.concatenate([cols_i, new[:, q:]], axis=1), axis=1), n)
    rj = _lex_rank(np.sort(np.concatenate([cols_j, new[:, :q]], axis=1), axis=1), n)
    a2, b2 = a + need - q, b + q
    if a2 == b2:  # np.triu_indices order
        ri, rj = np.minimum(ri, rj), np.maximum(ri, rj)
        index = ri * comb(n, a2) - ri * (ri - 1) // 2 + (rj - ri)
    else:
        index = ri * comb(n, b2) + rj
    return ok & proven[a2][np.where(ok, index, 0)]


def _check_distance_args(A: MeasurementEnsemble, max_support, tol_rel) -> int:
    """Validate the distance's arguments; returns the effective max_support,
    min(max_support, m - 1, n), which is 0 only at m = 1."""
    if A.field is not Field.REAL:
        raise ValueError("phase-generalized minimum distance is defined for real ensembles only")
    if A.m >= A.n:
        raise ValueError(f"distance requires m < n, got m={A.m}, n={A.n}")
    if max_support is None:
        max_support = A.m - 1
    else:
        _check_int(max_support, "max_support", 1, A.m)
    _check_tol_rel(tol_rel)
    return min(max_support, A.m - 1, A.n)


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
    pair.  The witness is the smallest key over all of them, and the cap
    comes from the largest total t_max = min(m, 2 max_support) alone, so
    the order in which totals are visited changes neither.

    Inheritance.  The largest total t_max is visited first, and every one
    of its configurations goes to _RankDecider.ranks.  Per visited pair it
    keeps one bit: every pattern of the pair was proven (full rank, or rank
    t - e by _exact_defects), none sent to the SVD.  That is one byte per
    pair, sum over the splits a <= b of C(n, a) C(n, b) (C(n, a) (C(n, a) +
    1) / 2 at a = b): 0.25 MB at (9, 11), 2.3 MB at (4, 66) with
    max_support 2.  A smaller pair (I, J) is then extended to t_max
    columns by fresh columns X and Y (_inherits, _fresh_columns): nonzero
    columns of classes absent from I and J, one per class.  If every
    pattern of the extension was proven, the pair takes rank t - e for
    every pattern (class_counts), not fragile; otherwise it goes to
    _RankDecider.ranks as well.

    Why that is the SVD policy's decision.  The extension keeps w, the
    class counts on each side and so e: the fresh columns are first in
    their class on their side and shared with nothing.  _exact_defects'
    reduction of M = [A_I, P A_J] then keeps a subset of the columns that
    the reduction of M_ext = [A_(I+X), P A_(J+Y)] keeps, and the same
    shared columns are dropped (M' = M when e = 0).  The proof of M_ext
    gives sigma_min(M'_ext) > tau ||M_ext||_F.  Interlacing for a column
    submatrix (Horn and Johnson, Topics in Matrix Analysis, 3.1) gives
    sigma_min(M') >= sigma_min(M'_ext), and ||M||_F <= ||M_ext||_F, so
    sigma_min(M') > tau ||M||_F: what _screen_accepts would have proven of
    M' itself, which makes the SVD policy decide rank t - e, not fragile.
    An extension visited mirrored, as (J + Y, I + X), proves the same of
    the mirror of M, which has the singular values of M.  The direct path
    reaches the same rank and flag, by proof or by the SVD, so every
    output is the same as without inheritance.
    """
    max_support = _check_distance_args(A, max_support, tol_rel)
    return _distance(A, max_support, tol_rel, None)


def _distance(A: MeasurementEnsemble, max_support: int, tol_rel: float, table) -> DistanceReport:
    """phase_gen_min_distance on checked arguments, with a minor table of
    top at least max_support, or None to build one here."""
    m, n = A.m, A.n
    t_max = min(m, 2 * max_support)

    npat = 2 ** (m - 1) - 1
    if npat == 0 or t_max < 2:
        # m = 1: no admissible pattern and no valid support pair exists.
        return DistanceReport(m, n, m + 1, m, None, "disjoint", 0, m // 2, False)

    by_size = {a: list(itertools.combinations(range(n), a)) for a in range(1, max_support + 1)}
    supports = sorted(itertools.chain.from_iterable(by_size.values()))
    order = {s: r for r, s in enumerate(supports)}
    combos = {a: np.array(c, dtype=np.intp) for a, c in by_size.items()}
    lex_pos = {a: np.array([order[s] for s in c]) for a, c in by_size.items()}
    if table is None:
        table = _minor_table(A.entries, max_support)
    decider = _RankDecider(A, table, tol_rel)
    leaders = _leaders(A.entries, decider.classes)

    best_key = None  # (score, total, lo, hi, code)
    cap_key = None  # first full-rank configuration at size t_max
    proven = {}  # split a at t_max -> one bit per visited pair: every pattern proven

    for total in (t_max, *range(2, t_max)):
        for a in range(max(1, total - max_support), total // 2 + 1):
            b = total - a
            ci, cj = len(combos[a]), len(combos[b])
            if a == b:
                all_i, all_j = np.triu_indices(ci)
            else:
                all_i, all_j = (idx.ravel() for idx in np.indices((ci, cj)))
            if total == t_max:
                proven[a] = np.zeros(all_i.size, dtype=bool)
            # The (row sets, pairs, patterns) determinants of _laplace_gram set the
            # size of a block sent to the decider; below t_max, where most pairs
            # inherit, a block holds up to _BLOCK_ELEMENTS ranks.
            step = max(1, _BLOCK_ELEMENTS // (comb(m, total) * max(npat, comb(total, a))))
            block = step if total == t_max else max(step, _BLOCK_ELEMENTS // npat)
            for first in range(0, all_i.size, block):
                pi, pj = all_i[first:first + block], all_j[first:first + block]
                cols_i, cols_j = combos[a][pi], combos[b][pj]
                w = _overlaps(cols_i, cols_j)
                if total == t_max:
                    ranks, sure = decider.ranks(cols_i, cols_j, pi, pj)
                    proven[a][first:first + block] = sure.all(axis=1)
                else:
                    inherit = _inherits(decider.classes, leaders, proven, cols_i, cols_j, t_max, max_support)
                    repeated, w_cls = decider.class_counts(cols_i, cols_j)
                    # An inherited pair takes rank total - e.  With no repeated column
                    # and w_cls = w, e is the structural defect below for every
                    # pattern, so the pair witnesses nothing and is dropped here.
                    keep = np.flatnonzero(~inherit | (repeated > 0) | (w_cls != w))
                    pi, pj, cols_i, cols_j, w, inherit = (v[keep] for v in (pi, pj, cols_i, cols_j, w, inherit))
                    ranks = total - repeated[keep, None] - decider.defects[w_cls[keep]]
                    rest = np.flatnonzero(~inherit)
                    for part in range(0, rest.size, step):
                        p = rest[part:part + step]
                        ranks[p] = decider.ranks(cols_i[p], cols_j[p], pi[p], pj[p])[0]

                # Structural rank: total minus the dimension forced by shared
                # columns meeting an unbalanced sign pattern.
                trivial = decider.defects[w]
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

    fragile_any = decider.fragile
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
    way was.  A column set S is proven full rank from det(A_S^T A_S) =
    sum_R det A[R, S]^2 over the minor table (_laplace_gram with J empty,
    _screen_accepts); only the other sets go to batched_ranks.

    Inheritance.  The sets of the largest size s - 1 are screened first,
    keeping one bit (a byte) per set, C(n, s - 1) in all.  A smaller set S
    extended by fresh columns X (_fresh_columns: nonzero, of classes absent
    from S, one per class) to size s - 1 is proven when S + X was:
    interlacing for a column submatrix gives sigma_min(A_S) >=
    sigma_min(A_(S+X)) > tau ||A_(S+X)||_F >= tau ||A_S||_F, what
    _screen_accepts would have proven of A_S itself, so the SVD policy
    decides full rank, not fragile.  Only the sets that inherit no proof
    are screened themselves.  The SVD decisions still run size by size, so
    the report is the same as without inheritance.
    """
    _check_int(s, "s", 1, min(A.m, A.n) + 1)
    _check_tol_rel(tol_rel)
    return _spark(A, s, tol_rel, None)


def _spark(A: MeasurementEnsemble, s: int, tol_rel: float, table) -> SparkReport:
    """spark_at_least on checked arguments, with a minor table of top at
    least s - 1, or None to build one here."""
    entries, n, top = A.entries, A.n, s - 1
    if top == 0:
        return SparkReport(s=s, deficient_columns=None, fragile=False)
    if table is None:
        table = _minor_table(entries, top)
    tau = _screen_tau(tol_rel)

    def screen(combos: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Mask of the column sets combos[pos] that the minor table proves full rank."""
        size = combos.shape[1]
        out = np.zeros(pos.size, dtype=bool)
        if table is None:
            return out
        H = _pattern_products(A.m, size, size, np.ones((1, A.m)))
        step = max(1, _BLOCK_ELEMENTS // comb(A.m, size))
        for first in range(0, pos.size, step):
            p = pos[first:first + step]
            G, B = _laplace_gram(table, size, 0, p, np.zeros_like(p), H)
            fro2 = table.col_sq[combos[p]].sum(axis=1)
            out[first:first + step] = _screen_accepts(G[:, 0], B, _need(tau, fro2, fro2, size))
        return out

    top_combos = _combos(n, top)
    top_proven = screen(top_combos, np.arange(len(top_combos)))
    classes = _column_classes(entries)
    leaders = _leaders(entries, classes)
    fragile_any = False
    for size in range(1, s):
        if size == top:
            combos, proven = top_combos, top_proven
        else:
            combos = _combos(n, size)
            proven = np.zeros(len(combos), dtype=bool)
            if top_proven.any():
                step = max(1, _BLOCK_ELEMENTS // n)
                for first in range(0, len(combos), step):
                    cols = combos[first:first + step]
                    new, ok = _fresh_columns(classes, leaders, cols, top - size)
                    index = _lex_rank(np.sort(np.concatenate([cols, new], axis=1), axis=1), n)
                    proven[first:first + step] = ok & top_proven[np.where(ok, index, 0)]
            rest = np.flatnonzero(~proven)
            proven[rest] = screen(combos, rest)
        ranks = np.full(len(combos), size)
        rest = np.flatnonzero(~proven)
        if rest.size:
            stack = entries[:, combos[rest].T].transpose(2, 0, 1)  # (nrest, m, size)
            ranks[rest], fragile = batched_ranks(stack, tol_rel)
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
    a rank decision of the distance or of the spark check was.  The two
    share one minor table, of top max(max_support, 2k); where that one
    would be too large, each builds the smaller one it needs.
    """
    _check_int(k, "k", 1)
    max_support = _check_distance_args(A, max_support, DEFAULT_RANK_TOL)
    spark_runs = 2 * k <= min(A.m, A.n)
    table = _minor_table(A.entries, max(max_support, 2 * k) if spark_runs else max_support)
    report = _distance(A, max_support, DEFAULT_RANK_TOL, table)
    k_bound_ok = k <= report.certified_k
    if spark_runs:
        spark_report = _spark(A, 2 * k + 1, DEFAULT_RANK_TOL, table)
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

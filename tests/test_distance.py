import itertools

import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    PhasePattern,
    Witness,
    certify_unique,
    generate_ensemble,
    measure,
    phase_gen_min_distance,
    spark_at_least,
    witness_rank,
)
from sparsepr import distance
from sparsepr.distance import _overlaps
from helpers import schur_reduced_block, with_column
from oracles import exhaustive_distance, svd_rank, svd_spark

# The distance and spark code runs here without a single RuntimeWarning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CRAFTED = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def test_crafted_distance():
    rep = phase_gen_min_distance(CRAFTED)
    assert rep.d == 2 and rep.min_rank == 1
    assert rep.witness.I == (0,) and rep.witness.J == (0,) and rep.witness.pattern_bits == 1
    assert rep.overlap_class == "full" and rep.certified_k == 0
    assert rep.d <= CRAFTED.m + 1


def test_gaussian_4x8_distance():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    rep = phase_gen_min_distance(A)
    assert rep.d == 5 == A.m + 1
    assert witness_rank(A, rep.witness.I, rep.witness.J, rep.witness.pattern(A.m)) == rep.min_rank


def test_distance_rejects_wide_and_complex():
    with pytest.raises(ValueError):
        phase_gen_min_distance(generate_ensemble(Field.REAL, 5, 5, 0))
    with pytest.raises(ValueError):
        phase_gen_min_distance(generate_ensemble(Field.COMPLEX, 2, 4, 0))


DEGENERATES = [
    CRAFTED,
    MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 1.0, 2.0], [2.0, 2.0, 1.0]]),
    MeasurementEnsemble.from_entries(Field.REAL, np.zeros((2, 4)) + [[1, 1, 1, 1], [1, 1, 1, 1]]),
    MeasurementEnsemble.from_entries(
        Field.REAL, [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]
    ),
]
DUPLICATED = MeasurementEnsemble.from_entries(
    Field.REAL, [[1.0, 1.0, 0.3, -0.7], [2.0, 2.0, 1.1, 0.4], [-0.5, -0.5, 0.9, 1.3]]
)


def test_distance_bound_on_degenerates():
    # d <= m + 1 must hold on crafted degenerate inputs too
    for A in DEGENERATES:
        rep = phase_gen_min_distance(A)
        assert 1 <= rep.d <= A.m + 1
        if rep.witness is not None:
            assert len(rep.witness.I) + len(rep.witness.J) <= A.m
            got = witness_rank(A, rep.witness.I, rep.witness.J, rep.witness.pattern(A.m))
            assert got == rep.min_rank


def test_duplicated_column_distance():
    # a duplicated column forces a size-3 witness mixing both copies
    rep = phase_gen_min_distance(DUPLICATED)
    assert rep.d <= 3


def _degenerate_corpus():
    """Seeded small ensembles whose rank decisions sit on or near the threshold.

    Every (m, kind) pair appears twice; m = 6 keeps n = 7 so that the
    SVD-only oracle stays within a second per ensemble.
    """
    rng = np.random.default_rng(20131351)
    corpus = []
    for i in range(40):
        m, kind = 3 + i % 4, i % 5
        n = 7 if m == 6 else m + int(rng.integers(1, 4))
        E = rng.standard_normal((m, n))
        if kind == 0:
            E[:, -1] = E[:, 0]
        elif kind == 1:
            E[:, -1] = E[:, 0] + 1e-9 * rng.standard_normal(m)
        elif kind == 2:
            E[:, -1] = E[:, 0] + 1e-11 * rng.standard_normal(m)
        elif kind == 3:
            E = np.round(E)
        else:
            E[int(rng.integers(m))] = 0.0
        corpus.append((MeasurementEnsemble.from_entries(Field.REAL, E), None))
    corpus += [(A, None) for A in (*DEGENERATES, DUPLICATED)]
    corpus.append((generate_ensemble(Field.REAL, 6, 8, 4), 2))  # max_support < m - 1

    # Exact null vectors: duplicates up to sign, zero columns, shared classes.
    def real(E, max_support=None):
        corpus.append((MeasurementEnsemble.from_entries(Field.REAL, E), max_support))

    E = rng.standard_normal((4, 6))
    E[:, 5] = -E[:, 1]  # negated duplicate
    real(E)
    E = rng.standard_normal((5, 7))
    E[:, 5], E[:, 6] = E[:, 0], -E[:, 2]  # two duplicated pairs
    real(E)
    E = rng.standard_normal((4, 6))
    E[:, 3] = 0.0  # zero column
    real(E)
    E = rng.standard_normal((6, 7))
    E[:, 6] = -E[:, 1]  # class-shared supports meet unbalanced patterns at m = 6
    real(E)
    real(E, 3)  # and with max_support < m - 1
    E = rng.standard_normal((5, 7))
    E[:, 6] = E[:, 3]
    real(E, 2)

    # Scales far from 1: the minor table's power-of-two scaling, and columns so
    # small next to the largest that the screen's range guard sends them to the SVD.
    base = rng.standard_normal((4, 6))
    for scale in (2.0 ** 500, 2.0 ** -500, 1e150, 1e-150):
        real(base * scale)
    real(rng.standard_normal((5, 7)) * np.array([2.0 ** 500, 2.0 ** -500, 1e150, 1e-150, 1.0, 1.0, 1.0]))
    E = rng.standard_normal((4, 6))
    E[:, -1] = E[:, 0] + 1e-9 * rng.standard_normal(4)  # a near duplicate at a tiny scale
    real(E * 1e-150)
    return corpus


@pytest.mark.slow
def test_distance_matches_exhaustive_oracle_on_degenerates():
    # d, min_rank, witness, overlap fields and fragile all equal the SVD-only scan
    for A, max_support in _degenerate_corpus():
        got = phase_gen_min_distance(A, max_support=max_support)
        assert got == exhaustive_distance(A, max_support=max_support), (A.entries, max_support)


@pytest.mark.slow
def test_distance_matches_exhaustive_oracle_on_generic_sweep(generic_distance_sweep):
    for (k, seed), (A, rep) in generic_distance_sweep.items():
        assert rep == exhaustive_distance(A), (k, seed)


def test_spark_matches_svd_only_spark_on_degenerates():
    # the deficient columns and fragile flag equal an SVD-only check at every s
    for A, _ in _degenerate_corpus():
        for s in range(2, min(A.m, A.n) + 2):
            assert spark_at_least(A, s) == svd_spark(A, s), (A.entries, s)


def test_distance_sends_few_matrices_to_svd(monkeypatch):
    # the minor table decides full ranks and exact deficiencies; before it,
    # these two ensembles sent thousands of matrices to the SVD
    sent = []
    real = distance.batched_ranks
    monkeypatch.setattr(distance, "batched_ranks", lambda stack: sent.append(len(stack)) or real(stack))
    A = generate_ensemble(Field.REAL, 6, 7, 5)
    repeated = np.array(A.entries)
    repeated[:, -1] = repeated[:, 0]
    for ensemble in (A, MeasurementEnsemble.from_entries(Field.REAL, repeated)):
        sent.clear()
        phase_gen_min_distance(ensemble)
        assert sum(sent) <= 400


def _inheritance_corpus():
    """Ensembles where the smaller configurations' inheritance meets its edge cases."""
    rng = np.random.default_rng(2026)
    corpus = [(generate_ensemble(Field.REAL, m, m + 1, seed).entries, None) for m in (4, 5, 6) for seed in (0, 1)]
    E = rng.standard_normal((5, 7))
    E[:, 2] = 0.0  # a zero column: it is never a fresh column
    corpus.append((E, None))
    E = rng.standard_normal((5, 7))
    E[:, 3:] = E[:, [0, 1, 0, 2]] * [1.0, -1.0, -1.0, 1.0]  # three classes: too few fresh ones
    corpus.append((E, None))
    for m, n in ((4, 7), (5, 7)):  # small integers: extensions with proven and SVD-decided patterns
        corpus.append((np.round(rng.standard_normal((m, n))), None))
    E = rng.standard_normal((6, 8))
    E[:, 7] = -E[:, 1]
    corpus.append((E, 3))
    for m, n in ((6, 8), (7, 9)):
        for max_support in (2, 3):  # the extension fills J, then I
            corpus.append((generate_ensemble(Field.REAL, m, n, 3).entries, max_support))
    return [(MeasurementEnsemble.from_entries(Field.REAL, np.asarray(E)), s) for E, s in corpus]


@pytest.mark.slow
def test_inheritance_matches_exhaustive_oracle():
    for A, max_support in _inheritance_corpus():
        got = phase_gen_min_distance(A, max_support=max_support)
        assert got == exhaustive_distance(A, max_support=max_support), (A.entries, max_support)


def _decider_totals(monkeypatch):
    """Spy on _RankDecider.ranks: the totals |I| + |J| of every pair sent to it,
    and the totals of the calls inside which each _laplace_gram call ran."""
    sent, gram, current = [], [], []
    ranks, laplace_gram = distance._RankDecider.ranks, distance._laplace_gram

    def spy_ranks(self, cols_i, cols_j, pos_i, pos_j):
        current.append(cols_i.shape[1] + cols_j.shape[1])
        sent.extend((tuple(i), tuple(j)) for i, j in zip(cols_i.tolist(), cols_j.tolist()))
        try:
            return ranks(self, cols_i, cols_j, pos_i, pos_j)
        finally:
            current.pop()

    def spy_gram(table, a, b, ri, rj, H):
        gram.append(current[-1] if current else None)
        return laplace_gram(table, a, b, ri, rj, H)

    monkeypatch.setattr(distance._RankDecider, "ranks", spy_ranks)
    monkeypatch.setattr(distance, "_laplace_gram", spy_gram)
    return sent, gram


def test_minor_table_proofs_run_at_the_largest_total_only(monkeypatch):
    # every pair below |I| + |J| = m inherits the proof of one extension, so the
    # decider and the minor table see only pairs of m columns
    sent, gram = _decider_totals(monkeypatch)
    A = generate_ensemble(Field.REAL, 6, 7, 5)
    repeated = np.array(A.entries)
    repeated[:, -1] = repeated[:, 0]
    for ensemble in (A, MeasurementEnsemble.from_entries(Field.REAL, repeated)):
        sent.clear()
        gram.clear()
        phase_gen_min_distance(ensemble)
        assert sent and gram and {len(i) + len(j) for i, j in sent} == {6} and set(gram) == {6}
    # At (7, 9) one pair falls back: its extension J + (0,) has a pattern the
    # SVD decided, so the pair goes to the decider itself.
    sent.clear()
    gram.clear()
    phase_gen_min_distance(generate_ensemble(Field.REAL, 7, 9, 0))
    assert [p for p in sent if len(p[0]) + len(p[1]) < 7] == [((2, 3, 5), (2, 4, 8))]
    assert ((2, 3, 5), (0, 2, 4, 8)) in sent and set(gram) <= {6, 7}


def test_spark_screens_only_its_largest_sets(monkeypatch):
    # the sets of fewer than 2k = 6 columns inherit the proofs of the 6-column sets
    sizes = []
    real = distance._laplace_gram
    monkeypatch.setattr(distance, "_laplace_gram",
                        lambda table, a, b, ri, rj, H: sizes.append(a) or real(table, a, b, ri, rj, H))
    assert spark_at_least(generate_ensemble(Field.REAL, 6, 7, 5), 7).ok
    assert set(sizes) == {6}


def test_extensions_skip_classes_already_present():
    # the extension keeps e: a column equal to one of the row up to sign, or a
    # zero column, is never added
    E = np.array([[1.0, 0.0, 1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0, 1.0, 3.0]])
    classes = distance._column_classes(E)
    leaders = distance._leaders(E, classes)
    assert classes.tolist() == [0, 1, 0, 3, 4, 5] and leaders.tolist() == [0, 1, 4, 5]
    new, ok = distance._fresh_columns(classes, leaders, np.array([[2, 4], [0, 3], [0, 2]]), 3)
    assert ok.tolist() == [False, True, True] and new[ok].tolist() == [[1, 4, 5], [1, 4, 5]]


def test_certify_builds_one_minor_table(monkeypatch):
    built = []
    real = distance._minor_table
    monkeypatch.setattr(distance, "_minor_table", lambda entries, top: built.append(top) or real(entries, top))
    A = generate_ensemble(Field.REAL, 6, 7, 5)
    want = certify_unique(A, 3)
    assert built == [6]
    built.clear()
    assert phase_gen_min_distance(A).d == want.d and spark_at_least(A, 7).ok == want.spark_ok
    assert built == [5, 6]


def test_one_row_ensemble_needs_no_max_support():
    # the default max_support m - 1 = 0 is not an argument error at m = 1
    A = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, -2.0, 0.5]])
    rep = phase_gen_min_distance(A)
    assert (rep.d, rep.min_rank, rep.witness, rep.certified_k) == (2, 1, None, 0)
    assert phase_gen_min_distance(A, max_support=1) == rep
    cert = certify_unique(A, 1)
    assert not cert.certified and not cert.spark_ok and cert.d == 2
    with pytest.raises(ValueError, match="^max_support must be "):
        phase_gen_min_distance(A, max_support=0)


def test_distance_counts_overlaps_past_column_63():
    # a 64-bit support mask dropped columns >= 64 and reported d = 4 here,
    # with the structural witness I = J = (0, 64)
    rep = phase_gen_min_distance(generate_ensemble(Field.REAL, 4, 66, 1), max_support=2)
    assert rep.d == 5
    assert _overlaps(np.array([[0, 63, 64], [1, 64, 65]]), np.array([[63, 64, 65], [0, 2, 65]])).tolist() == [2, 1]


def test_spark_examples():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    assert spark_at_least(A, 5).ok
    dup = MeasurementEnsemble.from_entries(
        Field.REAL, [[1.0, 1.0, 0.2], [0.5, 0.5, 1.0], [2.0, 2.0, 0.1]]
    )
    rep = spark_at_least(dup, 3)
    assert not rep.ok and rep.deficient_columns == (0, 1) and not rep.fragile
    assert spark_at_least(CRAFTED, 3).ok


def test_spark_validates_s():
    A = generate_ensemble(Field.REAL, 3, 5, 0)
    with pytest.raises(ValueError):
        spark_at_least(A, 5)


_A46 = generate_ensemble(Field.REAL, 4, 6, 0)


@pytest.mark.parametrize("call, name", [
    (lambda: phase_gen_min_distance(_A46, max_support=True), "max_support"),
    (lambda: phase_gen_min_distance(_A46, max_support=2.0), "max_support"),
    (lambda: spark_at_least(_A46, 2.5), "s"),
    (lambda: spark_at_least(_A46, True), "s"),
    (lambda: certify_unique(_A46, True), "k"),
    (lambda: certify_unique(_A46, 2.0), "k"),
], ids=["dist-max-support-bool", "dist-max-support-float", "spark-s-float", "spark-s-bool", "certify-k-bool",
        "certify-k-float"])
def test_distance_arguments_are_refused_with_their_name(call, name):
    """A bool or float where an integer belongs raises ValueError naming
    the argument: none is read as d = 1, a deficient column, max_support 1
    or a "k": true report."""
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()


def test_distance_accepts_numpy_scalars():
    want = phase_gen_min_distance(_A46)
    assert want.d == 5
    assert phase_gen_min_distance(_A46, max_support=np.int64(3)) == want
    assert certify_unique(_A46, np.int64(2)).to_json_dict() == certify_unique(_A46, 2).to_json_dict()
    assert spark_at_least(_A46, np.int64(3)) == spark_at_least(_A46, 3)


def test_certify_examples():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    rep2 = certify_unique(A, 2)
    assert rep2.certified and rep2.d == 5 and rep2.spark_ok
    rep3 = certify_unique(A, 3)
    assert not rep3.certified
    A3 = generate_ensemble(Field.REAL, 3, 8, 42)
    assert not certify_unique(A3, 2).certified
    repc = certify_unique(CRAFTED, 1)
    assert not repc.certified and repc.d == 2
    assert repc.limiting_witness is not None


def test_limiting_witness_splits_into_a_collision():
    # the distance side's witness, and the spark side's deficient columns as
    # a P = I witness split in halves, each give x on I and z on J with
    # |Ax| = |Az| exactly
    A = generate_ensemble(Field.REAL, 6, 7, 3)
    flipped = with_column(A, 1, np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]) * A.entries[:, 0])
    repeated = with_column(A, 6, A.entries[:, 0])
    for ens, k, want in [(flipped, 1, Witness((0,), (1,), 1)), (repeated, 1, Witness((0,), (6,), 0)),
                         (A, 3, None)]:
        w = certify_unique(ens, k).limiting_witness
        assert w == want
        if w is None:
            continue
        x, z = w.collision(ens)
        assert x.support == w.I and z.support == w.J
        assert x.values[0] > 0 and z.values[0] > 0  # canonical
        assert np.array_equal(measure(ens, x).magnitudes, measure(ens, z).magnitudes)
    B = generate_ensemble(Field.REAL, 5, 7, 0)
    summed = with_column(B, 1, B.entries[:, 0] + B.entries[:, 2])
    assert spark_at_least(summed, 4).witness == Witness((0, 1), (2,), 0)
    with pytest.raises(ValueError, match="full column rank"):
        Witness((0, 1), (2,), 0).collision(A)


def test_certify_json_shape():
    rep = certify_unique(generate_ensemble(Field.REAL, 4, 8, 42), 2)
    d = rep.to_json_dict()
    assert set(d) == {"m", "n", "k", "d", "min_rank", "certified", "spark_ok", "witness", "fragile"}
    assert set(d["witness"]) == {"I", "J", "P_bits"}


def test_witness_rank_cases():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    # disjoint supports of size 2 keep full rank for every admissible pattern
    for bits in range(1, 8):
        P = PhasePattern.from_bits(4, bits)
        assert witness_rank(A, (0, 1), (2, 3), P) == 4
    # identity-like pattern duplicates the columns
    P_id = PhasePattern.from_bits(4, 0)
    assert witness_rank(A, (0, 1), (0, 1), P_id) == 2
    P = PhasePattern.from_bits(2, 1)
    assert witness_rank(CRAFTED, (0,), (0,), P) == 1
    with pytest.raises(ValueError):
        witness_rank(A, (0, 9), (1,), P_id)


def test_schur_reduction_matches_rank():
    # rank(M) = 2w + rank(B) wherever the reduction is defined (m <= 6)
    checked = 0
    for m, seed in ((4, 0), (5, 1), (6, 2)):
        A = generate_ensemble(Field.REAL, m, 7, seed)
        k = 2
        supports = list(itertools.combinations(range(7), k))
        for I in supports[:8]:
            for J in supports[:8]:
                w = len(set(I) & set(J))
                if w == 0 or I == J:
                    continue
                for bits in range(1, 2 ** (m - 1)):
                    P = PhasePattern.from_bits(m, bits)
                    l = int(np.sum(P.phases > 0))
                    if l < w or m - l < w:
                        continue
                    phases = P.phases
                    M = np.concatenate(
                        [A.entries[:, list(I)], phases[:, None] * A.entries[:, list(J)]], axis=1
                    )
                    B = schur_reduced_block(A, I, J, P)
                    assert svd_rank(M) == 2 * w + svd_rank(B)
                    checked += 1
    assert checked > 200


def test_schur_rejects_non_partial():
    A = generate_ensemble(Field.REAL, 4, 6, 3)
    P = PhasePattern.from_bits(4, 1)
    with pytest.raises(ValueError):
        schur_reduced_block(A, (0, 1), (2, 3), P)
    with pytest.raises(ValueError):
        schur_reduced_block(A, (0, 1), (0, 1), P)


def test_max_support_truncation_is_conservative():
    A = generate_ensemble(Field.REAL, 6, 8, 4)
    full = phase_gen_min_distance(A)
    trunc = phase_gen_min_distance(A, max_support=2)
    assert trunc.d <= full.d
    assert trunc.certified_k <= full.certified_k

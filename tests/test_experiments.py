import json
import tracemalloc

import numpy as np
import pytest

from helpers import with_column
from oracles import full_scan_solve_l0_complex, full_scan_solve_l0_real, per_trial_run_sweep
from sparsepr import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    SweepConfig,
    SweepRow,
    build_collision_real,
    collision_probe_complex,
    draw_sparse_signal,
    emit_results,
    generate_ensemble,
    bidirectional_uniqueness_check,
    measure,
    phase_equivalent,
    run_sweep,
    solve_l0_complex,
    solve_l0_real,
)
from sparsepr import numerics, solver_complex, solver_real
from sparsepr.experiments import FORWARD_SEED, FORWARD_TRIALS
from sparsepr.solver_complex import _solve_complex_batch
from sparsepr.solver_real import _solve_real_batch

CRAFTED = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def test_collision_hand_example():
    A = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 2.0]])
    x, z = build_collision_real(A, 1)
    assert x.support == (0,) and z.support == (1,)
    assert np.isclose(x.values[0], 2 / np.sqrt(5)) and np.isclose(z.values[0], 1 / np.sqrt(5))
    assert np.allclose(measure(A, x).magnitudes, measure(A, z).magnitudes)


def test_collision_gaussian_cases():
    for m, n, k, seed in ((3, 8, 2, 42), (5, 12, 3, 7)):
        A = generate_ensemble(Field.REAL, m, n, seed)
        x, z = build_collision_real(A, k)
        ya, yz = measure(A, x).magnitudes, measure(A, z).magnitudes
        assert np.max(np.abs(ya - yz)) <= 1e-10 * ya.max()
        assert not set(x.support) & set(z.support)
        assert x.sparsity == z.sparsity == k
        assert not phase_equivalent(x, z, 1e-6)
        # combined vector has unit norm
        assert np.isclose(np.linalg.norm(x.values) ** 2 + np.linalg.norm(z.values) ** 2, 1.0)


def test_collision_preconditions():
    A = generate_ensemble(Field.REAL, 4, 8, 0)
    with pytest.raises(ValueError):
        build_collision_real(A, 2)  # m > 2k - 1
    A2 = generate_ensemble(Field.REAL, 3, 3, 0)
    with pytest.raises(ValueError):
        build_collision_real(A2, 2)  # 2k > n


def test_bidirectional_forward():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    rep = bidirectional_uniqueness_check(A, 2)
    assert rep.certified and rep.forward_ok
    assert rep.details["forward_failures"] == 0


_A_REAL = generate_ensemble(Field.REAL, 4, 8, 42)
_Y_REAL = measure(_A_REAL, SparseVector(Field.REAL, 8, (1, 6), [3.0, -1.5]))
_A_COMPLEX = generate_ensemble(Field.COMPLEX, 4, 5, 0)


@pytest.mark.parametrize("call, name", [
    (lambda: collision_probe_complex(_A_COMPLEX, 2, 2, True), "seed"),
    (lambda: collision_probe_complex(_A_COMPLEX, 2, True, 0), "restarts"),
    (lambda: collision_probe_complex(_A_COMPLEX, 2.0, 2, 0), "k"),
    (lambda: solve_l0_real(_A_REAL, _Y_REAL, True), "k_max"),
    (lambda: solve_l0_real(_A_REAL, _Y_REAL, 2.5), "k_max"),
    (lambda: bidirectional_uniqueness_check(_A_REAL, 9), "k"),
    (lambda: bidirectional_uniqueness_check(_A_REAL, True), "k"),
    (lambda: bidirectional_uniqueness_check(_A_REAL, 2.0), "k"),
    (lambda: build_collision_real(_A_REAL, 2.0), "k"),
    (lambda: build_collision_real(_A_REAL, True), "k"),
], ids=["probe-seed-bool", "probe-restarts-bool", "probe-k-float", "real-kmax-bool", "real-kmax-float",
        "bidirectional-k-above-n", "bidirectional-k-bool", "bidirectional-k-float", "collision-k-float",
        "collision-k-bool"])
def test_integer_arguments_are_refused_with_their_name(call, name):
    """A bool, a float or an out-of-range value where an integer count or
    seed belongs raises ValueError naming the argument; none is read as
    1, truncated, or passed on to fail later (or not at all)."""
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()


def test_bidirectional_converse_disjoint():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    rep = bidirectional_uniqueness_check(A, 3)
    assert not rep.certified and rep.converse_ok
    assert rep.details["path"] == "disjoint_collision"


def test_bidirectional_converse_crafted():
    rep = bidirectional_uniqueness_check(CRAFTED, 1)
    assert not rep.certified and rep.converse_ok
    assert rep.details["path"] == "feasible_multiplicity"
    assert rep.details["classes_found"] >= 2


_A682 = generate_ensemble(Field.REAL, 6, 8, 2)
# column 1 = diag(1, -1, 1, 1, 1, 1) column 0: d = 2, witness ((0,), (1,), P_bits 1)
SIGN_FLIPPED = with_column(_A682, 1, np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]) * _A682.entries[:, 0])
_A673 = generate_ensemble(Field.REAL, 6, 7, 3)
REPEATED = with_column(_A673, 6, _A673.entries[:, 0])  # spark fails on (0, 6)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bidirectional_converse_witness_collision(k):
    rep = bidirectional_uniqueness_check(SIGN_FLIPPED, k)
    assert not rep.certified and rep.converse_ok
    assert rep.details["path"] == "witness_collision"
    assert rep.details["mismatch"] == 0.0


def test_bidirectional_converse_spark_collision():
    rep = bidirectional_uniqueness_check(REPEATED, 1)
    assert not rep.certified and rep.converse_ok
    assert rep.details["path"] == "spark_collision"
    assert "mismatch" not in rep.details


def _column_sum(A) -> MeasurementEnsemble:
    """A with column 1 replaced by column 0 + column 2."""
    return with_column(A, 1, A.entries[:, 0] + A.entries[:, 2])


def _scaled(A, e: int) -> MeasurementEnsemble:
    return MeasurementEnsemble.from_entries(A.field, np.ldexp(A.entries, e))


@pytest.mark.parametrize("A, k", [(REPEATED, 2), (REPEATED, 3),
                                  (_column_sum(generate_ensemble(Field.REAL, 4, 5, 0)), 2),
                                  (_column_sum(generate_ensemble(Field.REAL, 4, 5, 1)), 2),
                                  (_scaled(_column_sum(generate_ensemble(Field.REAL, 4, 5, 0)), 40), 2),
                                  (_scaled(_column_sum(generate_ensemble(Field.REAL, 4, 5, 0)), 60), 2)],
                         ids=["repeated-k2", "repeated-k3", "column-sum-seed0", "column-sum-seed1",
                              "column-sum-seed0-times-2^40", "column-sum-seed0-times-2^60"])
def test_bidirectional_converse_collapsed_witness_falls_back_to_spark(A, k):
    # the distance witness's null vector is the repeated column's, so x is
    # empty; the deficient spark columns still give an exact collision, and
    # its mismatch is judged relative to max |Ax|, so at any scale of A
    rep = bidirectional_uniqueness_check(A, k)
    assert not rep.certified and not rep.details["spark_ok"]
    assert rep.details["path"] == "spark_collision" and rep.converse_ok


@pytest.mark.parametrize("A, k", [*[(generate_ensemble(Field.REAL, 4, 5, s), 3) for s in range(6)],
                                  (generate_ensemble(Field.REAL, 6, 7, 3), 4)],
                         ids=[*[f"4x5-seed{s}" for s in range(6)], "6x7-seed3"])
def test_bidirectional_converse_capped_distance_has_no_exhibit(A, k):
    # 2k > n skips the disjoint search, and at d = m + 1 the distance
    # witness is the full-rank cap configuration, which has no null vector;
    # every m columns are independent, so the exhibit is the P = I split of
    # the first m + 1, two vectors of at most k entries since m + 1 <= 2k
    rep = bidirectional_uniqueness_check(A, k)
    assert rep.details["d"] == A.m + 1
    assert not rep.certified and rep.converse_ok is True
    assert rep.details["path"] == "spark_collision"


def test_bidirectional_converse_moves_past_a_failed_disjoint_search():
    A = _column_sum(generate_ensemble(Field.REAL, 5, 6, 0))
    with pytest.raises(RuntimeError, match="no non-degenerate disjoint collision pair"):
        build_collision_real(A, 3)
    rep = bidirectional_uniqueness_check(A, 3)
    # 2k > m: the deficient spark columns (0, 1, 2) split into (0, 1) and (2,)
    assert not rep.certified and rep.converse_ok is True
    assert rep.details["path"] == "spark_collision"


def test_sweep_thresholds_real():
    cfg = SweepConfig(Field.REAL, 8, 2, (4, 4), 30, base_seed=1)
    res = run_sweep(cfg)
    assert res.rows[0].rate == 1.0
    # at m = 2k - 2 every support admits exact square solutions: recovery fails
    cfg_low = SweepConfig(Field.REAL, 8, 2, (2, 2), 10, base_seed=1)
    res_low = run_sweep(cfg_low)
    assert res_low.rows[0].rate < 1.0


def test_sweep_complex_threshold_row():
    cfg = SweepConfig(Field.COMPLEX, 6, 2, (6, 6), 10, base_seed=3)
    res = run_sweep(cfg)
    assert res.rows[0].rate == 1.0 and not res.rows[0].heuristic


def test_sweep_flags_heuristic_rows():
    cfg = SweepConfig(Field.COMPLEX, 6, 2, (3, 3), 2, base_seed=3)
    res = run_sweep(cfg)
    assert res.rows[0].heuristic


def _read_sweep_csv(path) -> list[SweepRow]:
    """The rows of a CSV written by emit_results, after its header line."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "m,trials,successes,rate,mean_ms,fragile,heuristic"
    fields = [ln.split(",") for ln in lines]
    assert all(len(f) == 7 and f[6] in ("0", "1") for f in fields)
    return [SweepRow(int(m), int(t), int(s), float(r), float(ms), int(fr), h == "1") for m, t, s, r, ms, fr, h in fields]


def test_sweep_determinism_and_emission(tmp_path):
    cfg = SweepConfig(Field.REAL, 7, 2, (3, 4), 12, base_seed=11)
    res1 = run_sweep(cfg)
    res2 = run_sweep(cfg)
    stable = [(r.m, r.trials, r.successes, r.rate, r.fragile, r.heuristic) for r in res1.rows]
    assert stable == [(r.m, r.trials, r.successes, r.rate, r.fragile, r.heuristic) for r in res2.rows]

    # emission of a fixed result is byte-stable, and CSV parses back exactly
    p1 = emit_results(res1, "csv", tmp_path / "a.csv")
    p2 = emit_results(res1, "csv", tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    rows = _read_sweep_csv(p1)
    assert [(r.m, r.trials, r.successes, r.rate, r.mean_ms, r.fragile, r.heuristic) for r in rows] == [
        (r.m, r.trials, r.successes, r.rate, r.mean_ms, r.fragile, r.heuristic) for r in res1.rows
    ]

    # complex k = 2 at m = 3 < k^2 runs the heuristic path; the flag survives the round trip
    heur = run_sweep(SweepConfig(Field.COMPLEX, 4, 2, (3, 3), 1, base_seed=11))
    assert [r.heuristic for r in heur.rows] == [True]
    assert _read_sweep_csv(emit_results(heur, "csv", tmp_path / "h.csv")) == list(heur.rows)
    gp_lines = emit_results(heur, "gnuplot", tmp_path / "h.dat").read_text().splitlines()
    assert gp_lines[2] == "# columns: m trials successes rate mean_ms fragile heuristic"
    assert gp_lines[3].split()[-1] == "1"

    gp = emit_results(res1, "gnuplot", tmp_path / "a.dat")
    text = gp.read_text()
    assert text.startswith("# sparsepr sweep")
    assert '"base_seed": 11' in text
    js = emit_results(res1, "json", tmp_path / "a.json")
    assert '"rows"' in js.read_text()
    with pytest.raises(ValueError):
        emit_results(res1, "xml", tmp_path / "a.xml")


def test_empty_and_single_row_csv(tmp_path):
    from sparsepr import SweepResult

    cfg = SweepConfig(Field.REAL, 7, 2, (3, 3), 1, base_seed=0)
    empty = emit_results(SweepResult(config=cfg, rows=()), "csv", tmp_path / "empty.csv")
    assert empty.read_text() == "m,trials,successes,rate,mean_ms,fragile,heuristic\n"

    res = run_sweep(cfg)
    single = emit_results(res, "csv", tmp_path / "one.csv")
    lines = single.read_text().strip().splitlines()
    assert lines[0] == "m,trials,successes,rate,mean_ms,fragile,heuristic"
    assert len(lines) == 2


def test_draw_sparse_signal_magnitudes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = draw_sparse_signal(Field.COMPLEX, 8, 3, rng)
        assert x.sparsity == 3
        assert np.min(np.abs(x.values)) >= 0.1


def test_collision_measurement_has_two_classes():
    A = generate_ensemble(Field.REAL, 3, 8, 42)
    x, z = build_collision_real(A, 2)
    sol = solve_l0_real(A, measure(A, x), 2)
    assert sol.k_star == 2 and len(sol.classes) >= 2


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(Field.REAL, 8, 3, (2, 6), 5, base_seed=0)  # m = 2 < k
    with pytest.raises(ValueError):
        SweepConfig(Field.REAL, 8, 2, (5, 3), 5, base_seed=0)
    with pytest.raises(ValueError):
        SweepConfig(Field.REAL, 8, 2, (3, 4), 0, base_seed=0)
    # a negative seed, and a float, bool or string where an integer belongs, are
    # refused up front with the key named, not truncated or failed on later
    good = {"field": Field.REAL, "n": 8, "k": 2, "m_range": (3, 4), "trials_per_m": 5, "base_seed": 0}
    for key, bad in [("base_seed", -5), ("n", 8.9), ("n", "8"), ("k", 2.0), ("trials_per_m", True),
                     ("base_seed", 1.5), ("m_range", (3.0, 4)), ("m_range", (3, False))]:
        with pytest.raises(ValueError, match=repr(key)):
            SweepConfig(**{**good, key: bad})
    raw = {"field": "real", "n": 8, "k": 2, "m_range": [3, 4], "trials_per_m": 5, "base_seed": 0}
    assert SweepConfig.from_json_dict(raw) == SweepConfig(**good)
    for key, bad in [("n", 8.9), ("n", "8"), ("k", True), ("trials_per_m", True), ("trials_per_m", 5.0),
                     ("base_seed", -5), ("base_seed", "0"), ("m_range", [3, 4.5]), ("m_range", ["3", 4])]:
        with pytest.raises(ValueError, match=repr(key)):
            SweepConfig.from_json_dict({**raw, key: bad})
    # tol is a real number: true is not 1.0 and "1e-3" is not 0.001
    for bad in (True, "1e-3"):
        with pytest.raises(ValueError, match="tol"):
            SweepConfig(**good, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            SweepConfig.from_json_dict({**raw, "tol": bad})
    assert SweepConfig.from_json_dict({**raw, "tol": 1e-6}).tol == 1e-6
    # an unknown key is refused, not ignored: "tolerance" would otherwise run at tol 1e-8
    with pytest.raises(ValueError, match="unknown key 'tolerance'"):
        SweepConfig.from_json_dict({**raw, "tolerance": 1e-3})


def _signal(field: Field, n: int, support, rng, scale: float = 1.0) -> SparseVector:
    k = len(support)
    values = rng.standard_normal(k) + (1j * rng.standard_normal(k) if field is Field.COMPLEX else 0.0)
    return SparseVector(field, n, tuple(support), (values + np.sign(values.real)) * scale)


def _batch_corpus():
    """(field, As, ys, k_max, allow_heuristic): four batches, each of one (m, n)
    holding problems that stop at different levels (0, 1, k_max and None)
    and degenerate problems next to generic ones: y = 0, rows at and below
    tol_abs, a repeated column, and A (or A and x) scaled by 2^+-300 (with
    2^450 real and 2^210 complex, the entries of A or of its lift are above
    the screen's range, so that problem alone is flagged whole).  The
    fourth is a complex row at m = 14, k = 4, the plane level, where a zero
    row sends one problem's supports to the heuristic path and no other
    problem's."""
    rng = np.random.default_rng(14)
    batches = []
    for field, m, n, k_max in ((Field.REAL, 6, 8, 3), (Field.COMPLEX, 10, 7, 3)):
        As, ys = [], []

        def add(E, x=None, y=None):
            A = MeasurementEnsemble.from_entries(field, E)
            As.append(A)
            ys.append(measure(A, x).magnitudes if y is None else y)

        def gauss():
            E = rng.standard_normal((m, n))
            return E + 1j * rng.standard_normal((m, n)) if field is Field.COMPLEX else E

        for support in ((0, 3, 6), (2,), (1, 5), (0, 4, 5)):
            add(gauss(), _signal(field, n, support, rng))
        add(gauss(), y=np.zeros(m))
        add(gauss(), y=rng.random(m) + 0.5)  # no sparse solution
        E = gauss()
        E[np.ix_([1, 4], [0, 3])] = 0.0  # rows 1 and 4 measure 0
        x = _signal(field, n, (0, 3), rng)
        y = measure(MeasurementEnsemble.from_entries(field, E), x).magnitudes.copy()
        y[4] = 1e-8 * float(y.max())  # exactly at tol_abs
        add(E, y=y)
        E = gauss()
        E[:, 5] = E[:, 2]  # two classes at k = 2
        add(E, _signal(field, n, (2, 6), rng))
        scales = ((450, 0), (300, 0), (-300, 300)) if field is Field.REAL else ((210, 0), (300, -300), (-300, 300))
        for e, xs in scales:
            add(gauss() * 2.0 ** e, _signal(field, n, (1, 4, 6)[:k_max], rng, 2.0 ** xs))
        batches.append((field, As, ys, k_max, False))
    # a complex row whose k = 2 level is heuristic (m = 3 < k^2)
    As, ys = [], []
    for seed, support in ((1, (0, 3)), (2, (2,)), (3, (1, 4))):
        A = generate_ensemble(Field.COMPLEX, 3, 5, seed)
        As.append(A)
        ys.append(measure(A, _signal(Field.COMPLEX, 5, support, rng)).magnitudes)
    As.append(generate_ensemble(Field.COMPLEX, 3, 5, 4))
    ys.append(np.zeros(3))
    batches.append((Field.COMPLEX, As, ys, 2, True))
    # a complex row at the plane level: generic problems, a zero row (every
    # k = 4 support refined), a phase-proportional column (two classes),
    # y = 0 and a 1-sparse signal
    As, ys = [], []
    for seed, support, edit in ((5, (0, 2, 3, 5), None), (6, (1, 2, 4, 5), "zero-row"), (7, (0, 1, 3, 4), "dup"),
                                (8, (3,), None), (9, (0, 1, 2, 3), None)):
        E = generate_ensemble(Field.COMPLEX, 14, 6, seed).entries.copy()
        if edit == "zero-row":
            E[2] = 0.0
        elif edit == "dup":
            E[:, 5] = np.exp(2.0j) * E[:, 1]
        A = MeasurementEnsemble.from_entries(Field.COMPLEX, E)
        As.append(A)
        ys.append(measure(A, _signal(Field.COMPLEX, 6, support, rng)).magnitudes)
    As.append(generate_ensemble(Field.COMPLEX, 14, 6, 10))
    ys.append(np.zeros(14))
    batches.append((Field.COMPLEX, As, ys, 4, True))
    return batches


@pytest.mark.parametrize("elements", [None, 1])
def test_batched_solves_match_one_at_a_time(monkeypatch, elements):
    """Every SolutionSet of a batched solve is byte-equal to the solve of
    its problem on its own and, on the exact paths, to the full-scan
    oracles, whatever else the batch holds and however the screen blocks
    it (elements = 1: one support per block)."""
    if elements is not None:
        monkeypatch.setattr(numerics, "_SCREEN_ELEMENTS", elements)
    k_stars, heuristic = [], []
    for field, As, ys, k_max, allow in _batch_corpus():
        if field is Field.REAL:
            batch = _solve_real_batch(As, ys, k_max, 1e-8)
            alone = [solve_l0_real(A, y, k_max) for A, y in zip(As, ys)]
            oracle = [full_scan_solve_l0_real(A, y, k_max) for A, y in zip(As, ys)]
        else:
            batch = _solve_complex_batch(As, ys, k_max, allow_heuristic=allow)
            alone = [solve_l0_complex(A, y, k_max, allow_heuristic=allow) for A, y in zip(As, ys)]
            oracle = alone if allow else [full_scan_solve_l0_complex(A, y, k_max) for A, y in zip(As, ys)]
        for i, (b, a, o) in enumerate(zip(batch, alone, oracle)):
            assert json.dumps(b.to_json_dict()) == json.dumps(a.to_json_dict()) == json.dumps(o.to_json_dict()), \
                (field, i)
        k_stars.append([sol.k_star for sol in batch])
        heuristic.append([sol.heuristic for sol in batch])
    # each exact batch mixes problems that stop at 0, 1, k_max and None
    for ks, k_max in zip(k_stars[:2], (3, 3)):
        assert {0, 1, k_max, None} <= set(ks), ks
    assert any(sum(heuristic, [])) and not all(sum(heuristic, []))
    # the plane row: only the zero-row problem reaches the heuristic path; the phase-proportional
    # problem's rank-deficient lifts have inconsistent systems and are ruled out
    assert k_stars[3] == [4, 4, 4, 1, 4, 0] and heuristic[3] == [False, True, False, False, False, False]


@pytest.mark.parametrize("elements", [None, 1])
def test_sweep_rows_match_per_trial_oracle(monkeypatch, elements):
    """run_sweep solves each row in one batched call; its rows equal those
    of one solve per trial, on a real row below, at and above m = 2k, lifted
    complex rows, a heuristic complex row, and k = 4 rows at m = 13
    (heuristic) and m = 14, 15 (the plane level)."""
    if elements is not None:
        monkeypatch.setattr(numerics, "_SCREEN_ELEMENTS", elements)
    configs = [SweepConfig(Field.REAL, 8, 2, (2, 4), 12, base_seed=3),
               SweepConfig(Field.COMPLEX, 6, 2, (4, 6), 6, base_seed=4),
               SweepConfig(Field.COMPLEX, 5, 2, (3, 3), 3, base_seed=5),
               SweepConfig(Field.COMPLEX, 6, 4, (13, 15), 2, base_seed=6)]

    def stable(rows):
        return [(r.m, r.trials, r.successes, r.rate, r.fragile, r.heuristic) for r in rows]

    for cfg in configs:
        rows = run_sweep(cfg).rows
        assert stable(rows) == stable(per_trial_run_sweep(cfg)), cfg
        assert all(r.mean_ms > 0 for r in rows)
    assert stable(run_sweep(configs[0]).rows)[0][2] < 12  # m = 2k - 2 fails somewhere
    assert [(r.m, r.successes, r.heuristic) for r in run_sweep(configs[3]).rows] == \
        [(13, 2, True), (14, 2, False), (15, 2, False)]


def test_forward_trials_match_one_solve_per_trial():
    """The forward trials of the bidirectional check run as one batch with
    the same seeds: the same failure count as one solve per trial."""
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    rep = bidirectional_uniqueness_check(A, 2)
    failures = 0
    for t in range(FORWARD_TRIALS):
        rng = np.random.default_rng(np.random.SeedSequence(FORWARD_SEED, spawn_key=(2, t)))
        truth = draw_sparse_signal(Field.REAL, 8, 2, rng)
        sol = solve_l0_real(A, measure(A, truth), 2)
        failures += not (sol.k_star is not None and len(sol.classes) == 1
                         and phase_equivalent(sol.classes[0], truth, 1e-8))
    assert rep.certified and rep.details["forward_trials"] == FORWARD_TRIALS
    assert rep.details["forward_failures"] == failures


def _count_screens(monkeypatch) -> list[int]:
    """Patch the solvers' screen to record the number of problems per call."""
    calls = []
    screen = numerics._lstsq_screen

    def counted(new_columns, n, k, t, *args):
        calls.append(t.shape[0])
        return screen(new_columns, n, k, t, *args)

    monkeypatch.setattr(solver_real, "_lstsq_screen", counted)
    monkeypatch.setattr(solver_complex, "_lstsq_screen", counted)
    return calls


def test_sweep_row_screens_once_per_support_size(monkeypatch):
    """A real row of 60 trials and a lifted row of 15 each call the screen
    once per support size, with every trial still searching in the call."""
    calls = _count_screens(monkeypatch)
    real = SweepConfig(Field.REAL, 8, 2, (4, 4), 60, base_seed=3)
    assert run_sweep(real).rows[0].rate == 1.0
    assert calls == [60, 60]
    calls.clear()
    lifted = SweepConfig(Field.COMPLEX, 12, 3, (10, 10), 15, base_seed=4)
    assert run_sweep(lifted).rows[0].rate == 1.0
    assert calls == [15, 15, 15]
    calls.clear()
    per_trial_run_sweep(lifted)
    assert calls == [1, 1, 1] * 15


def _traced_peak(fn, cfg) -> int:
    fn(cfg)
    tracemalloc.start()
    try:
        fn(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_row_memory_stays_bounded():
    """numerics._SCREEN_ELEMENTS bounds each screen block whatever the batch
    holds.  A lifted (10, 12, 3) row of 15 trials peaks within 2x of one
    solve per trial.  A real (4, 8, 2) row has problems so small that a
    per-trial solve never fills a block, while the batch fills one (its
    working arrays take about 1 MB); there the peak stays within 2x of that
    block budget and grows only with the row's own problems and results,
    not with trials times C(n, k): four times the trials stays within 2x."""
    lifted = SweepConfig(Field.COMPLEX, 12, 3, (10, 10), 15, base_seed=4)
    assert _traced_peak(run_sweep, lifted) <= 2 * _traced_peak(per_trial_run_sweep, lifted)
    real = SweepConfig(Field.REAL, 8, 2, (4, 4), 60, base_seed=3)
    more = SweepConfig(Field.REAL, 8, 2, (4, 4), 240, base_seed=3)
    peak = _traced_peak(run_sweep, real)
    block_bytes = numerics._SCREEN_ELEMENTS * 8 * 4
    assert peak <= 2 * block_bytes
    assert _traced_peak(run_sweep, more) <= 2 * peak

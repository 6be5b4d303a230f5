import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    SweepConfig,
    build_collision_real,
    draw_sparse_signal,
    emit_results,
    generate_ensemble,
    bidirectional_uniqueness_check,
    measure,
    parse_sweep_csv,
    phase_equivalent,
    run_sweep,
    solve_l0_real,
)

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
    rep = bidirectional_uniqueness_check(A, 2, trials=100)
    assert rep.certified and rep.forward_ok
    assert rep.details["forward_failures"] == 0


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
    rows = parse_sweep_csv(p1)
    assert [(r.m, r.trials, r.successes, r.rate, r.mean_ms, r.fragile, r.heuristic) for r in rows] == [
        (r.m, r.trials, r.successes, r.rate, r.mean_ms, r.fragile, r.heuristic) for r in res1.rows
    ]

    # complex k = 2 at m = 3 < k^2 runs the heuristic path; the flag survives the round trip
    heur = run_sweep(SweepConfig(Field.COMPLEX, 4, 2, (3, 3), 1, base_seed=11))
    assert [r.heuristic for r in heur.rows] == [True]
    assert parse_sweep_csv(emit_results(heur, "csv", tmp_path / "h.csv")) == list(heur.rows)
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

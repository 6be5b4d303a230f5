import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    feasible_classes,
    generate_ensemble,
    measure,
    phase_equivalent,
    solve_l0_real,
)
from oracles import classes_match, naive_l0_classes


def test_identity_single_spike():
    A = MeasurementEnsemble.from_entries(Field.REAL, np.eye(3))
    sol = solve_l0_real(A, [2.0, 0.0, 0.0], 1)
    assert sol.k_star == 1 and len(sol.classes) == 1
    assert sol.classes[0].support == (0,) and np.allclose(sol.classes[0].values, [2.0])


def test_one_row_ambiguity():
    # y = |x1 + 2 x2| = 2 admits both 2 e_0 and 1 e_1 at k = 1
    A = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 2.0]])
    sol = solve_l0_real(A, [2.0], 1)
    assert sol.k_star == 1 and len(sol.classes) == 2
    supports = sorted(c.support for c in sol.classes)
    assert supports == [(0,), (1,)]


def test_gaussian_4x8_unique_recovery():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    x0 = SparseVector(Field.REAL, 8, (1, 6), [3.0, -1.5])
    y = measure(A, x0)
    sol = solve_l0_real(A, y, 2)
    assert sol.k_star == 2 and len(sol.classes) == 1
    assert phase_equivalent(sol.classes[0], x0, 1e-8)


def test_zero_measurement_returns_zero_class():
    A = generate_ensemble(Field.REAL, 4, 8, 1)
    sol = solve_l0_real(A, np.zeros(4), 2)
    assert sol.k_star == 0 and sol.classes[0].sparsity == 0


def test_rejects_negative_and_bad_kmax():
    A = generate_ensemble(Field.REAL, 4, 8, 1)
    with pytest.raises(ValueError):
        solve_l0_real(A, [-1.0, 0, 0, 0], 1)
    with pytest.raises(ValueError):
        solve_l0_real(A, np.ones(4), 5)


def test_no_solution_within_budget():
    A = generate_ensemble(Field.REAL, 4, 8, 2)
    x0 = SparseVector(Field.REAL, 8, (0, 3, 5), [1.0, 2.0, -1.0])
    sol = solve_l0_real(A, measure(A, x0), 2)
    assert sol.k_star is None and sol.classes == []


def test_soundness_of_returned_classes():
    rng = np.random.default_rng(77)
    for _ in range(40):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 8))
        k = int(rng.integers(1, min(2, m) + 1))
        A = generate_ensemble(Field.REAL, m, n, int(rng.integers(0, 2**31)))
        support = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
        vals = rng.standard_normal(k)
        vals[np.abs(vals) < 0.1] += 0.5
        y = measure(A, SparseVector(Field.REAL, n, support, vals))
        sol = solve_l0_real(A, y, k)
        tol_abs = 1e-8 * max(1.0, y.magnitudes.max())
        for c in sol.classes:
            err = np.max(np.abs(measure(A, c).magnitudes - y.magnitudes))
            assert err <= tol_abs
            assert c.values[0] > 0  # canonical representative


def test_matches_naive_square_subsystem_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(25):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 3))
        k = min(k, m, n - 1)
        A = generate_ensemble(Field.REAL, m, n, int(rng.integers(0, 2**31)))
        support = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
        vals = rng.standard_normal(k)
        vals[np.abs(vals) < 0.1] += 0.5
        y = measure(A, SparseVector(Field.REAL, n, support, vals)).magnitudes
        k_oracle, oracle_cls = naive_l0_classes(A.entries, y, k)
        sol = solve_l0_real(A, y, k)
        assert sol.k_star == k_oracle
        assert classes_match(oracle_cls, [c.to_dense() for c in sol.classes])


def test_feasible_classes_include_minimal_and_beyond():
    C = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    fc = feasible_classes(C, [1.0, 0.0], 2)
    ks = sorted(k for k, _ in fc)
    assert ks == [1, 2]
    dense = {tuple(np.round(c.to_dense(), 9)) for _, c in fc}
    assert (1.0, 0.0, 0.0) in dense

import json

import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    build_collision_real,
    feasible_classes,
    generate_ensemble,
    measure,
    phase_equivalent,
    solve_l0_complex,
    solve_l0_real,
    solver_real,
)
from sparsepr import numerics
from oracles import classes_match, full_scan_feasible_classes, full_scan_solve_l0_real, naive_l0_classes


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


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf"), -float("inf"), True, "1e-3"])
def test_rejects_non_positive_or_non_finite_tol(tol):
    A = generate_ensemble(Field.REAL, 4, 6, 3)
    y = measure(A, SparseVector(Field.REAL, 6, (0, 4), [1.0, -2.0]))
    with pytest.raises(ValueError, match="tol"):
        solve_l0_real(A, y, 2, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        feasible_classes(A, y, 2, tol=tol)
    Ac = generate_ensemble(Field.COMPLEX, 4, 6, 3)
    yc = measure(Ac, SparseVector(Field.COMPLEX, 6, (1,), [1.0 + 1.0j]))
    with pytest.raises(ValueError, match="tol"):
        solve_l0_complex(Ac, yc, 1, tol=tol)


def _signal_case(m, n, k, seed):
    rng = np.random.default_rng(seed)
    A = generate_ensemble(Field.REAL, m, n, seed)
    support = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
    vals = rng.standard_normal(k)
    vals[np.abs(vals) < 0.1] += 0.5
    return A, measure(A, SparseVector(Field.REAL, n, support, vals)).magnitudes


def _entries_case(entries, k, seed, support=None):
    rng = np.random.default_rng(seed)
    A = MeasurementEnsemble.from_entries(Field.REAL, entries)
    if support is None:
        support = tuple(sorted(rng.choice(A.n, k, replace=False).tolist()))
    vals = rng.standard_normal(k)
    vals[np.abs(vals) < 0.1] += 0.5
    return A, np.abs(A.entries[:, support] @ vals)


def _screen_corpus():
    """(A, y, k_max) cases that stress the screen against the full scan."""
    rng = np.random.default_rng(2024)
    cases = []
    # generic, m > 2k and m = 2k (one at the benchmark's (10, 14, 5))
    for m, n, k, seed in [(7, 9, 2, 1), (9, 10, 3, 2), (8, 9, 3, 3), (6, 8, 3, 4), (8, 9, 4, 5), (10, 14, 5, 6)]:
        A, y = _signal_case(m, n, k, seed)
        cases.append((A, y, k))
    # collisions at m = 2k - 1: at least two classes
    for m, n, k, seed in [(5, 8, 3, 7), (3, 6, 2, 8), (7, 9, 4, 9)]:
        A = generate_ensemble(Field.REAL, m, n, seed)
        x, _ = build_collision_real(A, k)
        cases.append((A, measure(A, x).magnitudes, k))
    # zero magnitudes: a zero row of A, and a row orthogonal to the signal
    for seed in (10, 11):
        E = rng.standard_normal((6, 8))
        E[seed % 6] = 0.0
        cases.append((*_entries_case(E, 2, seed), 3))
    E = rng.standard_normal((6, 7))
    E[2, 5] = -E[2, 1] * 0.7 / 1.3
    cases.append((MeasurementEnsemble.from_entries(Field.REAL, E), np.abs(E[:, [1, 5]] @ [0.7, 1.3]), 3))
    # duplicated and 1e-9 near-duplicate columns (rank-deficient supports)
    for seed, gap in [(12, 0.0), (13, 1e-9), (14, 0.0)]:
        E = rng.standard_normal((6, 8))
        E[:, 3] = E[:, 0] + gap * rng.standard_normal(6)
        cases.append((*_entries_case(E, 2, seed, support=(0, 5)), 3))
        cases.append((*_entries_case(E, 3, seed), 3))
    # integer matrices
    for seed in (15, 16, 17):
        E = rng.integers(-2, 3, (6, 7)).astype(float)
        cases.append((*_entries_case(E, 2, seed), 3))
    # entries scaled by 1e+-100; at 1e100 no O(1) entry clears tol * max(y)
    for seed, scale in [(18, 1e100), (19, 1e-100), (20, 1e100)]:
        E = rng.standard_normal((7, 8)) * scale
        A, y = _entries_case(E, 3, seed)
        cases.append((A, y / min(scale, 1.0), 3))
    # levels with k = m: m = 3 rows, a 3-sparse signal, and unstructured y
    for seed in (21, 22):
        A, y = _signal_case(3, 6, 3, seed)
        cases.append((A, y, 3))
        cases.append((A, rng.random(3) + 0.1, 3))
    return cases


def test_screened_solver_matches_full_scan_oracle():
    """Screened and full-scan solves agree bit for bit on a degenerate corpus."""
    cases = _screen_corpus()
    multi = 0
    for i, (A, y, k_max) in enumerate(cases):
        got = json.dumps(solve_l0_real(A, y, k_max).to_json_dict())
        want = json.dumps(full_scan_solve_l0_real(A, y, k_max).to_json_dict())
        assert got == want, i
        multi += len(json.loads(want)["classes"]) >= 2
        if A.n <= 8:
            fc = [(k, c.support, c.values.tolist()) for k, c in feasible_classes(A, y, k_max)]
            fo = [(k, c.support, c.values.tolist()) for k, c in full_scan_feasible_classes(A, y, k_max)]
            assert fc == fo, i
    assert multi >= 4


def test_real_solve_reruns_only_flagged_supports(monkeypatch):
    calls = []
    exact = solver_real._exact_support

    def counted(entries, I, *args):
        calls.append(I)
        return exact(entries, I, *args)

    monkeypatch.setattr(solver_real, "_exact_support", counted)
    A = generate_ensemble(Field.REAL, 10, 14, 5)
    x0 = SparseVector(Field.REAL, 14, (1, 4, 6, 9, 12), [1.0, -0.7, 2.2, 0.4, -1.3])
    sol = solve_l0_real(A, measure(A, x0), 5)
    assert sol.k_star == 5 and len(sol.classes) == 1 and phase_equivalent(sol.classes[0], x0, 1e-8)
    assert calls == [(1, 4, 6, 9, 12)]
    assert sol.to_json_dict()["stats"] == {"supports_tried": 3472, "patterns_tried": 1_777_664}


def test_real_screen_does_not_depend_on_blocking(monkeypatch):
    """One support per screen block gives the bits of the default blocking."""
    cases = _screen_corpus()[::3]
    default = [solve_l0_real(A, y, k).to_json_dict() for A, y, k in cases]
    monkeypatch.setattr(numerics, "_SCREEN_ELEMENTS", 1)
    assert [solve_l0_real(A, y, k).to_json_dict() for A, y, k in cases] == default

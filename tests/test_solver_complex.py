import itertools
import json

import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    SparseVector,
    collision_probe_complex,
    column_magnitude_collision_1sparse,
    draw_sparse_signal,
    generate_ensemble,
    measure,
    phase_equivalent,
    refine_gauss_newton,
    solve_l0_complex,
    solve_l0_real,
)
from sparsepr import numerics, solver_complex
from sparsepr.solver_complex import CollisionProbe, _assemble_hermitian, _lift_system, _lifted_support_solve
from sparsepr.solver_real import _prepare, _unscaled
from oracles import (
    full_scan_solve_l0_complex,
    full_work_levenberg_marquardt,
    loop_assemble_hermitian,
    loop_lift_system,
    pairwise_block_best,
    pairwise_collision_probe,
    serial_heuristic_solve,
)


def test_hand_example_one_class():
    A = MeasurementEnsemble.from_entries(Field.COMPLEX, [[1, 2], [1j, 1]])
    sol = solve_l0_complex(A, [6.0, 3.0], 1)
    assert sol.k_star == 1 and len(sol.classes) == 1
    c = sol.classes[0]
    assert c.support == (1,) and np.isclose(abs(c.values[0]), 3.0)
    assert sol.methods == ["lifted"] and not sol.heuristic


def test_zero_measurement():
    A = MeasurementEnsemble.from_entries(Field.COMPLEX, [[1, 2], [1j, 1]])
    sol = solve_l0_complex(A, [0.0, 0.0], 1)
    assert sol.k_star == 0 and sol.classes[0].sparsity == 0


def test_gaussian_6x8_k2_recovery():
    A = generate_ensemble(Field.COMPLEX, 6, 8, 3)
    x0 = SparseVector(Field.COMPLEX, 8, (1, 6), np.array([3.0, -1.5j]))
    sol = solve_l0_complex(A, measure(A, x0), 2)
    assert sol.k_star == 2 and len(sol.classes) == 1
    assert phase_equivalent(sol.classes[0], x0, 1e-8)
    assert max(sol.rank1_defects) <= 1e-6


def test_phase_invariance_of_solution():
    A = generate_ensemble(Field.COMPLEX, 6, 8, 3)
    x0 = SparseVector(Field.COMPLEX, 8, (2, 5), np.array([1.0 + 0.5j, -0.75 + 2j]))
    base = solve_l0_complex(A, measure(A, x0), 2)
    for theta in (0.3, 1.7, 4.4):
        rotated = solve_l0_complex(A, measure(A, x0.scaled(np.exp(1j * theta))), 2)
        assert len(rotated.classes) == len(base.classes) == 1
        assert phase_equivalent(rotated.classes[0], base.classes[0], 1e-7)


def test_scaling_of_solution_classes():
    A = generate_ensemble(Field.COMPLEX, 6, 8, 12)
    x0 = SparseVector(Field.COMPLEX, 8, (0, 4), np.array([2.0 - 1j, 0.5 + 0.3j]))
    y = measure(A, x0)
    base = solve_l0_complex(A, y, 2)
    for c in (0.5, 3.0):
        scaled = solve_l0_complex(A, y.magnitudes * c, 2)
        assert len(scaled.classes) == 1
        assert phase_equivalent(scaled.classes[0], base.classes[0].scaled(c), 1e-7)


def test_lifted_exactness_on_true_support():
    rng = np.random.default_rng(31)
    for k, m in ((1, 2), (2, 6), (3, 10)):
        A = generate_ensemble(Field.COMPLEX, m, 8, int(rng.integers(0, 2**31)))
        support = tuple(sorted(rng.choice(8, k, replace=False).tolist()))
        vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        vals += 0.3 * np.sign(vals.real + 1e-9)
        x0 = SparseVector(Field.COMPLEX, 8, support, vals)
        y = measure(A, x0).magnitudes
        A_I = A.entries[:, support]
        p = _prepare(A, y, k, 1e-8, Field.COMPLEX)
        hit = _lifted_support_solve(_lift_system(A_I[None])[0], A_I, p, p.y**2, support)
        assert hit is not None
        x_hat, defect = _unscaled(p, hit[0]), hit[1]
        X_hat = np.outer(x_hat.values, x_hat.values.conj())
        X_true = np.outer(vals, vals.conj())
        err = np.linalg.norm(X_hat - X_true) / max(1.0, np.linalg.norm(vals) ** 2)
        assert err <= 1e-8
        assert defect <= 1e-6


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_lift_matches_loop_oracle_bitwise():
    """The stacked lift and the index-array assembly reproduce the loop forms
    bit for bit: each A_I lifted alone (an S = 1 stack), and every slice of
    a stack built from support index arrays, as the solver builds it."""
    rng = np.random.default_rng(41)
    cases = slices = 0
    for k in range(1, 5):
        for m in range(1, 12):
            for _ in range(7):
                A_I = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
                A_I *= 10.0 ** rng.choice([-150, 0, 0, 150], size=(m, k))
                v = rng.standard_normal(k * k) * 10.0 ** rng.choice([-150, 0, 150], size=k * k)
                assert np.array_equal(_bits(_lift_system(A_I[None])[0]), _bits(loop_lift_system(A_I, k))), (m, k)
                X = _assemble_hermitian(v, k)
                assert np.array_equal(_bits(X), _bits(loop_assemble_hermitian(v, k))), (m, k)
                cases += 1
            E = rng.standard_normal((m, k + 3)) + 1j * rng.standard_normal((m, k + 3))
            E *= 10.0 ** rng.choice([-150, 0, 0, 150], size=E.shape)
            supports = list(itertools.combinations(range(k + 3), k))
            G = _lift_system(E[:, np.array(supports)].transpose(1, 0, 2))
            for I, G_I in zip(supports, G):
                assert np.array_equal(_bits(G_I), _bits(loop_lift_system(E[:, I], k))), (m, k, I)
                slices += 1
    assert cases == 308 and slices == 11 * (4 + 10 + 20 + 35)


def test_lifted_solve_eigendecomposes_only_consistent_supports(monkeypatch):
    calls = []
    eig = solver_complex.hermitian_top_eig

    def counted(X):
        calls.append(X.shape)
        return eig(X)

    monkeypatch.setattr(solver_complex, "hermitian_top_eig", counted)
    A = generate_ensemble(Field.COMPLEX, 6, 8, 3)
    x0 = SparseVector(Field.COMPLEX, 8, (1, 6), np.array([3.0, -1.5j]))
    sol = solve_l0_complex(A, measure(A, x0), 2)
    assert sol.k_star == 2 and phase_equivalent(sol.classes[0], x0, 1e-8)
    assert calls == [(2, 2)]


def _lifted_signal_case(m, n, k, seed, tol=1e-8):
    rng = np.random.default_rng(seed)
    A = generate_ensemble(Field.COMPLEX, m, n, 500 + seed)
    return A, measure(A, draw_sparse_signal(Field.COMPLEX, n, k, rng)).magnitudes, k, tol


def _entries_signal_case(E, k, seed, support=None, x_scale=1.0):
    rng = np.random.default_rng(seed)
    A = MeasurementEnsemble.from_entries(Field.COMPLEX, E)
    if support is None:
        support = tuple(sorted(rng.choice(A.n, k, replace=False).tolist()))
    vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    vals += 0.3 * np.sign(vals.real + 1e-9)
    return A, np.abs(A.entries[:, support] @ (x_scale * vals)), k, 1e-8


def _near_tol_case(m, n, k, seed, factor):
    """y^2 of a signal moved by factor * resid_tol along the left null space
    of its lifted system, so the true support's lifted residual is about
    factor * resid_tol.  The rows of A are scaled to make y = 1, so at
    factor 0.8 the move changes y by less than tol_abs and only the
    residual test decides."""
    rng = np.random.default_rng(seed)
    x = draw_sparse_signal(Field.COMPLEX, n, k, rng)
    E = generate_ensemble(Field.COMPLEX, m, n, 500 + seed).entries
    E = E / np.abs(E @ x.to_dense())[:, None]
    y = np.abs(E @ x.to_dense())
    w = np.linalg.svd(_lift_system(E[:, x.support][None])[0])[0][:, -1]
    resid_tol = 1e-8 * y.max() ** 2 * np.sqrt(m)
    return MeasurementEnsemble.from_entries(Field.COMPLEX, E), np.sqrt(y**2 + factor * resid_tol * w), k, 1e-8


def _lifted_corpus():
    """(A, y, k_max, tol) cases that stress the lifted screen against the full scan."""
    rng = np.random.default_rng(2026)
    cases = []
    # k = 1..3 at m = k^2, at the threshold m = 4k - 2 and above it
    for k, ms in ((1, (1, 2, 4)), (2, (4, 6, 8)), (3, (9, 10, 12))):
        for m in ms:
            for seed in range(2):
                cases.append(_lifted_signal_case(m, 8 if k == 3 else 7, k, 10 * m + seed))
    # a zero row (a zero magnitude) and a zero column
    for seed in (1, 2):
        E = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        E[seed] = 0.0
        cases.append(_entries_signal_case(E, 2, seed))
        E = rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8))
        E[:, 2 * seed] = 0.0
        cases.append(_entries_signal_case(E, 3, seed))
    # duplicated and 1e-9 near-duplicate columns (rank-deficient lifts)
    for seed, gap in ((3, 0.0), (4, 1e-9), (5, 0.0), (6, 1e-9)):
        E = rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8))
        E[:, 3] = E[:, 0] + gap * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
        cases.append(_entries_signal_case(E, 2, seed, support=(0, 5)))
        cases.append(_entries_signal_case(E, 3, seed))
    # two classes at k = 1: column 4 is e^{i theta} times column 1
    for seed, theta in ((7, 0.0), (8, 2.3)):
        E = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        E[:, 4] = np.exp(1j * theta) * E[:, 1]
        cases.append(_entries_signal_case(E, 1, seed, support=(1,)))
    # entries scaled by 1e+-100 (lifts outside the screen's range) and
    # 1e+-50 (inside), with x of unit scale and with y of unit scale
    for seed, scale in ((9, 1e100), (10, 1e-100), (11, 1e50), (12, 1e-50)):
        E = (rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8))) * scale
        cases.append(_entries_signal_case(E, 3, seed))
        cases.append(_entries_signal_case(E, 3, seed, x_scale=1 / scale))
    # k = 4 at m = 16, 17 and k = 5 at m = 25 (m >= k^2): generic, a zero
    # row, a column that is e^{i theta} times one in the true support (two
    # classes), and A scaled by 2^+-20
    for m, k in ((16, 4), (17, 4), (25, 5)):
        cases.append(_lifted_signal_case(m, 7, k, 30 + m))
        E = rng.standard_normal((m, 7)) + 1j * rng.standard_normal((m, 7))
        E[m // 2] = 0.0
        cases.append(_entries_signal_case(E, k, m))
        E = rng.standard_normal((m, 7)) + 1j * rng.standard_normal((m, 7))
        E[:, 6] = np.exp(1.1j) * E[:, 0]
        cases.append(_entries_signal_case(E, k, m, support=tuple(range(k))))
        for e in (20, -20):
            E = (rng.standard_normal((m, 7)) + 1j * rng.standard_normal((m, 7))) * 2.0**e
            cases.append(_entries_signal_case(E, k, m + 50 + e))
    # the true support's lifted residual just below and just above resid_tol
    for m, n, k, seed in ((6, 7, 2, 13), (10, 8, 3, 14), (12, 9, 3, 15), (2, 5, 1, 16), (4, 6, 1, 17)):
        for factor in (0.8, 1.2):
            cases.append(_near_tol_case(m, n, k, seed, factor))
    # a looser tolerance
    cases.append(_lifted_signal_case(10, 8, 3, 18, tol=1e-5))
    return cases


def test_screened_lifted_solve_matches_full_scan_oracle():
    """Screened and full-scan lifted solves agree bit for bit on a degenerate
    corpus.  A consistent support whose lift is rank deficient (the zero
    row at m = k^2) is undecided: both raise without allow_heuristic, and
    with it both refine that support and flag the solve."""
    cases = _lifted_corpus()
    k_stars, two_class, undecided = [], 0, []

    def run(solve, A, y, k_max, tol, allow):
        try:
            return json.dumps(solve(A, y, k_max, tol=tol, allow_heuristic=allow).to_json_dict())
        except ValueError as e:
            assert "needs the heuristic path" in str(e)
            return None

    for i, (A, y, k_max, tol) in enumerate(cases):
        got = run(solve_l0_complex, A, y, k_max, tol, False)
        assert got == run(full_scan_solve_l0_complex, A, y, k_max, tol, False), i
        if got is None:
            undecided.append((A.m, k_max))
            got = run(solve_l0_complex, A, y, k_max, tol, True)
            assert got == run(full_scan_solve_l0_complex, A, y, k_max, tol, True), i
            assert json.loads(got)["heuristic"] and set(json.loads(got)["methods"]) == {"refined"}, i
        want = json.loads(got)
        k_stars.append(want["k_star"])
        two_class += len(want["classes"]) == 2
    assert undecided == [(16, 4), (25, 5)]
    assert two_class >= 5 and k_stars.count(3) >= 10 and k_stars.count(4) == 10 and k_stars.count(5) == 5
    # the near-resid_tol pairs: found below resid_tol, not above it
    assert k_stars[-11:-1] == [2, None, 3, None, 3, None, 1, None, 1, None]


def test_lifted_solve_reruns_only_flagged_supports(monkeypatch):
    calls = []
    exact = solver_complex._lifted_support_solve

    def counted(G, A_I, y, rhs, support, *args):
        calls.append(support)
        return exact(G, A_I, y, rhs, support, *args)

    monkeypatch.setattr(solver_complex, "_lifted_support_solve", counted)
    A = generate_ensemble(Field.COMPLEX, 10, 12, 5)
    x0 = SparseVector(Field.COMPLEX, 12, (2, 5, 9), np.array([1.0 + 0.5j, -0.7j, 1.3 - 0.2j]))
    sol = solve_l0_complex(A, measure(A, x0), 3)
    assert sol.k_star == 3 and len(sol.classes) == 1 and phase_equivalent(sol.classes[0], x0, 1e-8)
    assert calls == [(2, 5, 9)]
    assert sol.to_json_dict()["stats"] == {"supports_tried": 298, "patterns_tried": 298}


def test_lifted_screen_does_not_depend_on_blocking(monkeypatch):
    """One support per screen block gives the bits of the default blocking."""
    cases = _lifted_corpus()[::2]
    default = [solve_l0_complex(A, y, k, tol=tol).to_json_dict() for A, y, k, tol in cases]
    monkeypatch.setattr(numerics, "_SCREEN_ELEMENTS", 1)
    assert [solve_l0_complex(A, y, k, tol=tol).to_json_dict() for A, y, k, tol in cases] == default


def test_heuristic_gate():
    A = generate_ensemble(Field.COMPLEX, 3, 6, 5)  # m = 3 < k^2 = 4 at k = 2
    x0 = SparseVector(Field.COMPLEX, 6, (1, 3), np.array([1.0 + 1j, -2.0 + 0.5j]))
    y = measure(A, x0)
    with pytest.raises(ValueError, match="heuristic"):
        solve_l0_complex(A, y, 2)
    sol = solve_l0_complex(A, y, 2, allow_heuristic=True)
    assert sol.heuristic
    assert sol.k_star == 2
    assert any(phase_equivalent(c, x0, 1e-6) for c in sol.classes)
    assert all(meth == "refined" for meth in sol.methods)


def test_solution_json_keys_and_counts_on_every_path():
    """The to_json_dict keys, heuristic flag, methods, rank-one defects and
    exact search counts of a complex batch (m = 3, n = 5: level 1 lifted,
    level 2 heuristic, 8 restarts) whose problems stop at a lifted level,
    at a heuristic level, at k* = None and at k* = 0, and of a real and a
    complex k* = 0 solve."""
    As = [generate_ensemble(Field.COMPLEX, 3, 5, seed) for seed in (2, 1, 3, 4)]
    E = As[2].entries.copy()
    E[0] = 0.0  # a zero row measuring y_0 > 0: no solution at any k
    As[2] = MeasurementEnsemble.from_entries(Field.COMPLEX, E)
    ys = [measure(As[0], SparseVector(Field.COMPLEX, 5, (2,), [1.5 - 0.5j])).magnitudes,
          measure(As[1], SparseVector(Field.COMPLEX, 5, (0, 3), [1.0 + 1j, -2.0 + 0.5j])).magnitudes,
          np.array([1.0, 0.5, 2.0]),
          np.zeros(3)]
    lifted, refined, none, zero = [s.to_json_dict() for s in
                                   solver_complex._solve_complex_batch(As, ys, 2, allow_heuristic=True)]
    searched = {"k_star", "classes", "residuals", "stats", "heuristic", "methods", "rank1_defects"}
    assert set(lifted) == set(refined) == set(none) == searched
    assert (lifted["k_star"], lifted["heuristic"], lifted["methods"], lifted["rank1_defects"]) == \
        (1, False, ["lifted"], [0.0])
    assert lifted["stats"] == {"supports_tried": 5, "patterns_tried": 5}
    assert refined["k_star"] == 2 and refined["heuristic"]
    # 3 rows fix a 2-sparse class only up to finitely many; the LM starts find 7 of them
    assert len(refined["classes"]) == 7
    assert refined["methods"] == ["refined"] * 7 and refined["rank1_defects"] == [None] * 7
    assert refined["stats"] == {"supports_tried": 15, "patterns_tried": 5 + 10 * 8}
    assert none == {"k_star": None, "classes": [], "residuals": [], "heuristic": True, "methods": [],
                    "rank1_defects": [], "stats": {"supports_tried": 15, "patterns_tried": 85}}
    assert zero == {"k_star": 0, "classes": [{"support": [], "values": []}], "residuals": [0.0],
                    "heuristic": False, "stats": {"supports_tried": 0, "patterns_tried": 0}}
    A = generate_ensemble(Field.REAL, 4, 6, 1)
    assert solve_l0_real(A, np.zeros(4), 2).to_json_dict() == zero
    assert solve_l0_complex(As[3], np.zeros(3), 1).to_json_dict() == zero


def test_gauss_newton_fixed_point_and_rotation():
    A = generate_ensemble(Field.COMPLEX, 6, 8, 3)
    x0 = SparseVector(Field.COMPLEX, 8, (1, 6), np.array([3.0, -1.5j]))
    y = measure(A, x0).magnitudes
    A_I = A.entries[:, [1, 6]]
    res = refine_gauss_newton(A_I, y, x0.values.copy())
    assert res.iterations == 0 and res.residual <= 1e-12

    res_rot = refine_gauss_newton(A_I, y, x0.values * np.exp(1j * 2.1))
    assert res_rot.residual <= 1e-12
    got = SparseVector(Field.COMPLEX, 8, (1, 6), res_rot.x)
    assert phase_equivalent(got, x0, 1e-6)


def test_gauss_newton_perturbed_start_converges():
    A = generate_ensemble(Field.COMPLEX, 6, 6, 5)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = np.abs(A.entries @ x0)
    start = x0 * (1 + 0.01 * rng.standard_normal(6))
    res = refine_gauss_newton(A.entries, y, start, iters=50)
    assert res.residual <= 1e-10


def _heuristic_case(m: int, n: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    A = generate_ensemble(Field.COMPLEX, m, n, 1000 + seed)
    x0 = draw_sparse_signal(Field.COMPLEX, n, k, rng)
    return A, x0, measure(A, x0)


def _heuristic_level(m: int, n: int, k: int, seed: int):
    """The LM heuristic's candidates on every k-support of _heuristic_case(m,
    n, k, seed), 8 restarts, seeded by seed: the _refined_level call the
    solve made at support size k before that size took the plane level
    (m = 14, 15 at k = 4), on the same supports and starts."""
    A, _, y = _heuristic_case(m, n, k, seed)
    p = _prepare(A, y, k, 1e-8, Field.COMPLEX)
    supports = list(itertools.combinations(range(n), k))
    return [(_unscaled(p, c), *rest) for c, *rest in solver_complex._refined_level(p, supports, seed)]


def test_heuristic_solve_matches_serial_oracle():
    """Gate of the plane level: at the paper's complex threshold m = 4k - 2
    and one row above it, k = 4 at (14, 6) and (15, 7) and k = 5 at (23,
    7) and (24, 7), seeds 0-11 and 0-3, the solve is exact (no heuristic
    flag, every class "lifted") and finds one class, the true one.  On
    (14, 6, 4) seeds 0-11, (15, 7, 4) seeds 0-1 and the k = 5 seed 0,
    those are also the classes one serial Gauss-Newton refinement per
    (support, restart) finds: same k*, same supports, phase-equivalent
    values."""
    cases = [(m, n, k, seed) for m, n, k in ((14, 6, 4), (15, 7, 4)) for seed in range(12)]
    cases += [(m, 7, 5, seed) for m in (23, 24) for seed in range(4)]
    serial = 0
    for m, n, k, seed in cases:
        A, x0, y = _heuristic_case(m, n, k, seed)
        sol = solve_l0_complex(A, y, k, seed=seed)
        assert not sol.heuristic and sol.methods == ["lifted"], (m, k, seed)
        assert sol.k_star == k and phase_equivalent(sol.classes[0], x0, 1e-6), (m, k, seed)
        if m == 14 or seed < (2 if m == 15 else 1):
            serial += 1
            k_star, classes = serial_heuristic_solve(A, y.magnitudes, k, seed=seed)
            assert k_star == k and [c.support for c in classes] == [x0.support], (m, k, seed)
            assert phase_equivalent(classes[0], sol.classes[0], 1e-6), (m, k, seed)
    assert serial == 16


def test_level_method_rule():
    """The unique lift at m >= k^2, the plane level at k^2 - 2 <= m < k^2
    with m >= 4k - 2 (k = 4 at m = 14, 15; k = 5 at m = 23, 24), the
    heuristic path below; the solve refuses the heuristic sizes unless
    allow_heuristic is set."""
    method = solver_complex._level_method
    assert [method(m, 3) for m in (7, 8, 9, 10)] == ["refined", "refined", "lifted", "lifted"]
    assert [method(m, 4) for m in (12, 13, 14, 15, 16)] == ["refined", "refined", "plane", "plane", "lifted"]
    assert [method(m, 5) for m in (18, 22, 23, 24, 25)] == ["refined", "refined", "plane", "plane", "lifted"]
    assert [method(m, 6) for m in (33, 34, 35, 36)] == ["refined", "plane", "plane", "lifted"]
    assert [method(m, k) for k, m in ((1, 1), (2, 2), (2, 3), (2, 4))] == ["lifted", "refined", "refined", "lifted"]
    A, _, y = _heuristic_case(13, 6, 4, 0)
    with pytest.raises(ValueError, match=r"support size 4 needs the heuristic path at m = 13"):
        solve_l0_complex(A, y, 4)


def _plane_degenerate_case(kind: str, seed: int):
    """(A, x0, y) at (14, 6, 4): row 5 of A set to zero, or the column
    outside the true support e^{0.7 i} times the support's first one."""
    A, x0, _ = _heuristic_case(14, 6, 4, seed)
    E = A.entries.copy()
    if kind == "zero-row":
        E[5] = 0.0
    else:
        E[:, next(c for c in range(6) if c not in x0.support)] = np.exp(0.7j) * E[:, x0.support[0]]
    A = MeasurementEnsemble.from_entries(Field.COMPLEX, E)
    return A, x0, measure(A, x0)


def test_plane_level_sends_undecided_supports_to_the_heuristic(monkeypatch):
    """A support whose lift the SVD rank policy cannot decide goes to the
    LM heuristic and flags the solve; without allow_heuristic the solve
    raises, naming the support.  A zero row leaves every k = 4 lift rank
    deficient with a consistent system, so every class is "refined".  A
    column phase-proportional to one in the true support gives two
    classes, both found exactly; the supports holding both columns have
    rank-deficient lifts whose systems are inconsistent, so the residual
    test rules them out and nothing is refined: the solve is exact, with
    or without allow_heuristic."""
    refined = []
    level = solver_complex._refined_level

    def spy(p, supports, seed):
        refined.append(supports)
        return level(p, supports, seed)

    monkeypatch.setattr(solver_complex, "_refined_level", spy)
    for seed in range(3):
        A, x0, y = _plane_degenerate_case("zero-row", seed)
        with pytest.raises(ValueError, match=r"support \(0, 1, 2, 3\) of size 4 needs the heuristic path"):
            solve_l0_complex(A, y, 4)
        refined.clear()
        sol = solve_l0_complex(A, y, 4, allow_heuristic=True, seed=seed)
        assert sol.heuristic and sol.k_star == 4 and sol.methods == ["refined"] * len(sol.classes), seed
        assert any(phase_equivalent(c, x0, 1e-6) for c in sol.classes), seed
        assert refined == [list(itertools.combinations(range(6), 4))], seed

        A, x0, y = _plane_degenerate_case("phase-dup", seed)
        i, j = x0.support[0], next(c for c in range(6) if c not in x0.support)
        refined.clear()
        sol = solve_l0_complex(A, y, 4, allow_heuristic=True, seed=seed)
        assert sol.to_json_dict() == solve_l0_complex(A, y, 4).to_json_dict(), seed
        twin = dict(zip(x0.support, x0.values))
        twin[j] = np.exp(-0.7j) * twin.pop(i)
        twin = SparseVector(Field.COMPLEX, 6, tuple(sorted(twin)), np.array([twin[c] for c in sorted(twin)]))
        assert not sol.heuristic and sol.k_star == 4 and sol.methods == ["lifted", "lifted"], seed
        assert sorted(c.support for c in sol.classes) == sorted([x0.support, twin.support]), seed
        assert all(any(phase_equivalent(c, want, 1e-6) for c in sol.classes) for want in (x0, twin)), seed
        assert refined == [], seed
        # the supports holding both columns: rank-deficient lifts, inconsistent systems
        for I in (I for I in itertools.combinations(range(6), 4) if i in I and j in I):
            G = _lift_system(A.entries[:, I][None])[0]
            sv = np.linalg.svd(G, compute_uv=False)
            w = np.linalg.lstsq(G, y.magnitudes**2, rcond=None)[0]
            resid_tol = 1e-8 * float(y.magnitudes.max()) ** 2 * np.sqrt(14)
            assert sv[-1] <= numerics.DEFAULT_RANK_TOL * sv[0], (seed, I)
            assert np.linalg.norm(G @ w - y.magnitudes**2) > 1e6 * resid_tol, (seed, I)


def test_plane_level_does_not_depend_on_blocking(monkeypatch):
    """One support per _plane_level block gives the bits of the default
    blocking, on generic and degenerate (14, 6, 4) and (15, 7, 4) solves,
    and on one whose column outside the true support is scaled by 1e160:
    the lifts holding it overflow and are undecided, and the others,
    the true support's among them, are decided in every block."""
    cases = [_heuristic_case(m, n, 4, seed) for m, n in ((14, 6), (15, 7)) for seed in range(3)]
    cases += [_plane_degenerate_case(kind, 0) for kind in ("zero-row", "phase-dup")]
    A, x0, _ = _heuristic_case(14, 6, 4, 0)
    E = A.entries.copy()
    E[:, next(c for c in range(6) if c not in x0.support)] *= 1e160
    A = MeasurementEnsemble.from_entries(Field.COMPLEX, E)
    cases.append((A, x0, measure(A, x0)))

    def solve_all():
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing lifts and LM rows
            return [solve_l0_complex(A, y, 4, allow_heuristic=True) for A, _, y in cases]

    default = solve_all()
    monkeypatch.setattr(solver_complex, "_PLANE_SUPPORTS", 1)
    assert [s.to_json_dict() for s in solve_all()] == [s.to_json_dict() for s in default]
    # the phase-proportional case's rank-deficient lifts are inconsistent, so ruled out, not refined
    assert [s.heuristic for s in default] == [False] * 6 + [True, False, True]
    overflow = default[-1]
    assert overflow.k_star == 4 and overflow.methods == ["lifted"] and phase_equivalent(overflow.classes[0], x0, 1e-6)


def test_heuristic_solve_does_not_depend_on_blocking(monkeypatch):
    """One support per kernel call gives the bits of the default blocking.
    At (8, 6, 4) the levels k = 3 and 4 are both heuristic (m < k^2)."""
    cases = [_heuristic_case(8, 6, 4, seed) for seed in range(2)]
    default = [solve_l0_complex(A, y, 4, allow_heuristic=True, seed=7).to_json_dict() for A, _, y in cases]
    monkeypatch.setattr(solver_complex, "_PROBE_ROWS", 8)
    blocked = [solve_l0_complex(A, y, 4, allow_heuristic=True, seed=7).to_json_dict() for A, _, y in cases]
    assert blocked == default
    assert all(d["k_star"] == 4 and d["classes"] for d in default)


def test_gauss_newton_rejects_zero_start():
    with pytest.raises(ValueError):
        refine_gauss_newton(np.eye(2, dtype=complex), [1.0, 1.0], np.zeros(2, dtype=complex))


def test_gauss_newton_rejects_negative_iters():
    A_I, start = np.eye(2, dtype=complex), np.array([0.5, 2.0 + 1j])
    with pytest.raises(ValueError, match="iters"):
        refine_gauss_newton(A_I, [1.0, 1.0], start, iters=-3)
    res = refine_gauss_newton(A_I, [1.0, 1.0], start, iters=0)
    assert res.iterations == 0 and np.array_equal(res.x, start)


def test_column_magnitude_collision_examples():
    assert column_magnitude_collision_1sparse(
        MeasurementEnsemble.from_entries(Field.COMPLEX, [[1, 2], [1, 2]])
    )
    assert not column_magnitude_collision_1sparse(
        MeasurementEnsemble.from_entries(Field.COMPLEX, [[1, 2], [2, 1]])
    )
    assert not column_magnitude_collision_1sparse(generate_ensemble(Field.COMPLEX, 2, 5, 21))


def test_column_magnitude_collision_is_scale_free():
    """The verdict does not change when A is scaled by 2^j or 10^+-12."""
    scales = [2.0**j for j in range(-60, 61, 12)] + [1e-12, 1e12]
    for seed in range(6):
        E = generate_ensemble(Field.COMPLEX, 6, 8, seed).entries
        dup = E.copy()
        dup[:, 5] = np.exp(0.7j) * 3.0 * dup[:, 2]
        for entries, expect in ((E, False), (dup, True)):
            for c in scales:
                A = MeasurementEnsemble.from_entries(Field.COMPLEX, entries * c)
                assert column_magnitude_collision_1sparse(A) is expect, (seed, c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_real_embedding():
    A = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 2.0]])
    probe = collision_probe_complex(A, 1, 5, 0)
    assert probe.verdict == "collision_found"
    assert probe.objective <= 1e-8
    u, v = probe.pair
    assert not phase_equivalent(u, v, 1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_no_collision_k1():
    A = generate_ensemble(Field.COMPLEX, 2, 4, 11)
    # exact criterion: no two columns have proportional magnitudes
    assert not column_magnitude_collision_1sparse(A)
    probe = collision_probe_complex(A, 1, 50, 0)
    assert probe.verdict == "no_collision_found"
    assert probe.objective > 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_k2_threshold():
    for seed in range(10):
        A = generate_ensemble(Field.COMPLEX, 6, 6, seed)
        probe = collision_probe_complex(A, 2, 100, seed)
        assert probe.verdict == "no_collision_found", f"seed {seed}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_rejects_k_outside_1_to_n():
    A = generate_ensemble(Field.COMPLEX, 4, 5, 0)
    for k in (-1, 0, 6):
        with pytest.raises(ValueError, match="k must be"):
            collision_probe_complex(A, k, 4, 0)
    assert collision_probe_complex(A, 5, 1, 0).restarts == 1  # k = n is a valid probe


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_rejects_bad_seed_and_restarts():
    A = generate_ensemble(Field.COMPLEX, 4, 5, 0)
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ValueError, match="seed"):
            collision_probe_complex(A, 2, 4, seed)
    for restarts in (0, -2, 2.5, 3.0, "8"):
        with pytest.raises(ValueError, match="restarts must be an integer"):
            collision_probe_complex(A, 2, restarts, 0)
    assert collision_probe_complex(A, 1, np.int64(2), np.int64(0)).restarts == 2


def test_heuristic_solve_rejects_negative_seed():
    """The seed is checked up front, so a solve that ends on the lifted
    path, which never uses it, refuses it too."""
    A, _, y = _heuristic_case(8, 6, 4, 0)
    lifted = SparseVector(Field.COMPLEX, 6, (2,), np.array([1.5 - 0.5j]))
    for target in (y, measure(A, lifted)):
        with pytest.raises(ValueError, match="seed"):
            solve_l0_complex(A, target, 4, allow_heuristic=True, seed=-1)
    assert solve_l0_complex(A, measure(A, lifted), 4, allow_heuristic=True, seed=np.int64(0)).k_star == 1


@pytest.mark.parametrize("seed", [-1, 1.5, True, "a", None])
def test_complex_solve_checks_seed_up_front(seed):
    """A (6, 4) threshold solve of a 2-sparse x ends on the lift and never
    draws, but refuses a seed that is not a non-negative integer."""
    A = generate_ensemble(Field.COMPLEX, 6, 4, 1)
    y = measure(A, SparseVector(Field.COMPLEX, 4, (0, 2), np.array([1.0 + 0.5j, -0.7j])))
    assert solve_l0_complex(A, y, 2).k_star == 2
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        solve_l0_complex(A, y, 2, seed=seed)


def _singular_solve_ensemble():
    """Column 1 = 2 * column 0, scaled by 1e10.  At that scale lambda * I is
    lost to rounding, so some damped normal-equation systems of its
    unnormalized kernel stack (_probe_stack) are exactly singular, on
    pairs with each of the six J supports.  The probe itself normalizes A
    first; the columns make a real collision (u and v on one support (0,
    1) with u_0 + 2 u_1 = v_0 + 2 v_1, or on (0, j) and (1, j))."""
    E = generate_ensemble(Field.COMPLEX, 6, 4, 7).entries.copy()
    E[:, 1] = 2.0 * E[:, 0]
    return MeasurementEnsemble.from_entries(Field.COMPLEX, E * 1e10)


def _degenerate_probe_ensemble(kind: str):
    """A complex (6, 5) ensemble, seed 0, with column 2 zero ("zero-col":
    the lifts of the supports holding it are rank deficient), row 3 zero
    ("zero-row": every k = 2 lift still has full column rank), or column 4
    equal to column 1 ("dup") or to e^{0.9 i} times it ("phase-dup"): the
    lifts holding both are rank deficient."""
    E = generate_ensemble(Field.COMPLEX, 6, 5, 0).entries.copy()
    if kind == "zero-col":
        E[:, 2] = 0.0
    elif kind == "zero-row":
        E[3] = 0.0
    else:
        E[:, 4] = (np.exp(0.9j) if kind == "phase-dup" else 1.0) * E[:, 1]
    return MeasurementEnsemble.from_entries(Field.COMPLEX, E)


PROBE_CORPUS = (
    [(f"complex-6x4-{s}", generate_ensemble(Field.COMPLEX, 6, 4, s), 2, 8, s) for s in range(40)]
    + [(f"complex-3x6-{s}", generate_ensemble(Field.COMPLEX, 3, 6, s), 2, 8, s) for s in range(20)]
    + [(f"complex-6x6-{s}", generate_ensemble(Field.COMPLEX, 6, 6, s), 2, 4, s) for s in range(6)]
    + [(f"6x5-{kind}", _degenerate_probe_ensemble(kind), 2, 8, 0) for kind in ("zero-col", "zero-row", "dup", "phase-dup")]
    + [("real-1x2", MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 2.0]]), 1, 5, 0)]
    + [("singular-solve", _singular_solve_ensemble(), 2, 8, 3)]
)


def _probe_bits(probe):
    pair = None if probe.pair is None else [(v.support, v.values) for v in probe.pair]
    return probe.verdict, probe.objective, pair


def _same_probe(a, b) -> bool:
    (va, oa, pa), (vb, ob, pb) = _probe_bits(a), _probe_bits(b)
    if va != vb or oa != ob or (pa is None) != (pb is None):
        return False
    return pa is None or all(sa == sb and np.array_equal(xa, xb) for (sa, xa), (sb, xb) in zip(pa, pb))


def _close_probe(a, b) -> bool:
    """Same verdict and supports; without a collision, also values within
    1e-9 of each other and objectives within 1e-9 relative.  With one,
    both objectives are at the roundoff floor, and where several restarts
    of the pair collide their order by objective, and so the restart
    reported, rests on roundoff."""
    (va, oa, pa), (vb, ob, pb) = _probe_bits(a), _probe_bits(b)
    if va != vb or (pa is None) != (pb is None):
        return False
    if pa is None or va == "collision_found":
        return pa is None or [sa for sa, _ in pa] == [sb for sb, _ in pb]
    return (all(sa == sb and np.allclose(xa, xb, rtol=0, atol=1e-9) for (sa, xa), (sb, xb) in zip(pa, pb))
            and abs(oa - ob) <= 1e-9 * abs(ob))


@pytest.mark.slow
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_matches_pairwise_oracle():
    """The blocked scan reproduces the per-pair scan: bit for bit where
    every candidate comes from the LM kernel (the (3, 6) probes, below m
    = k^2), and on the lift as _close_probe (the oracle solves each
    restart's lift by lstsq and hermitian_top_eig, which round
    differently from the batched pseudo-inverse and eigh).  The
    degenerate (6, 5) entries mix lifted J's with rank-deficient ones,
    which take the kernel.  The verdicts
    are the LM probe's, except singular-solve: at scale 1e10 the LM
    kernel hit singular systems there and found no collision; on the
    normalized A it finds the real one, whose two vectors measure the
    same to 1e-10 relative."""
    verdicts = {}
    for name, A, k, restarts, seed in PROBE_CORPUS:
        probe = collision_probe_complex(A, k, restarts, seed)
        want = pairwise_collision_probe(A, k, restarts, seed)
        same = _close_probe if solver_complex._level_method(A.m, k) == "lifted" else _same_probe
        assert same(probe, want), name
        verdicts[name] = probe.verdict
    found = {name for name, *_ in PROBE_CORPUS
             if name.startswith(("complex-3x6-", "6x5-zero-col", "6x5-dup", "6x5-phase-dup", "real-", "singular-"))}
    assert verdicts == {name: "collision_found" if name in found else "no_collision_found" for name in verdicts}
    A = _singular_solve_ensemble()
    u, v = collision_probe_complex(A, 2, 8, 3).pair
    assert not phase_equivalent(u, v, 1e-6)
    mu, mv = measure(A, u).magnitudes, measure(A, v).magnitudes
    assert np.max(np.abs(mu - mv)) <= 1e-10 * np.max(mu)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_does_not_depend_on_blocking(monkeypatch):
    """One pair per block, the first block included, gives the bits of
    the default blocking, on every third PROBE_CORPUS entry and the real
    and singular-solve entries: one pair per _lift_candidates call on the
    lift, and one per kernel call below it."""
    corpus = PROBE_CORPUS[::3] + PROBE_CORPUS[-2:]
    default = [collision_probe_complex(A, k, restarts, seed) for _, A, k, restarts, seed in corpus]
    monkeypatch.setattr(solver_complex, "_PROBE_FIRST_ROWS", 1)
    monkeypatch.setattr(solver_complex, "_PROBE_ROWS", 1)
    lifted = _calls(monkeypatch, "_lift_candidates", lambda: collision_probe_complex(*corpus[0][1:]))
    assert len(lifted) == 36 and all(PT.shape[0] == 1 for PT, _, _ in lifted)
    stacks = _kernel_stacks(monkeypatch, lambda: collision_probe_complex(*PROBE_CORPUS[40][1:]))
    assert stacks and all(AT.shape[0] == 1 for AT, _, _ in stacks)
    for (name, A, k, restarts, seed), want in zip(corpus, default):
        assert _same_probe(collision_probe_complex(A, k, restarts, seed), want), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_kernel_calls(monkeypatch):
    """A threshold probe, (6, 4, k = 2) with 8 restarts, takes all 36
    pairs from the lift in one _lift_candidates call and makes no kernel
    call; a below-threshold (3, 6) probe (m < k^2) finds its collision in
    its first kernel call and returns."""
    for seed in range(3):
        A = generate_ensemble(Field.COMPLEX, 6, 4, seed)
        stacks = []
        lifted = _calls(monkeypatch, "_lift_candidates",
                        lambda: stacks.extend(_kernel_stacks(monkeypatch, lambda: collision_probe_complex(A, 2, 8, seed))))
        assert stacks == [] and [PT.shape[0] for PT, _, _ in lifted] == [36], seed
    for name, A, k, restarts, seed in PROBE_CORPUS:
        if name.startswith("complex-3x6-"):
            probes = []
            stacks = _kernel_stacks(monkeypatch, lambda: probes.append(collision_probe_complex(A, k, restarts, seed)))
            assert len(stacks) == 1 and probes[0].verdict == "collision_found", name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_is_scale_free():
    """The probe scales A by an exact power of two first, so A and 2^j A,
    j in {+-4, +-20, +-30, +-60}, give the same verdict and pair, bit for
    bit, and objectives exactly 2^j apart: (6, 4) threshold probes on the
    lift, seeds 0-7, and (3, 6) LM probes, seeds 0-3."""
    cases = [(6, 4, seed, "no_collision_found") for seed in range(8)]
    cases += [(3, 6, seed, "collision_found") for seed in range(4)]
    for m, n, seed, verdict in cases:
        A = generate_ensemble(Field.COMPLEX, m, n, seed)
        base = collision_probe_complex(A, 2, 8, seed)
        assert base.verdict == verdict, (m, seed)
        for j in (4, 20, 30, 60, -4, -20, -30, -60):
            probe = collision_probe_complex(MeasurementEnsemble.from_entries(Field.COMPLEX, A.entries * 2.0**j), 2, 8, seed)
            assert _same_probe(probe, CollisionProbe(base.pair, base.objective * 2.0**j, 8, verdict)), (m, seed, j)


def test_refine_gauss_newton_is_scale_free():
    """refine_gauss_newton runs the LM kernel in fixed units, so (2^i A_I,
    2^j y, 2^(j - i) x0) takes the steps of (A_I, y, x0) and returns x
    times 2^(j - i) and the residual times 2^j, bit for bit: A_I and y
    both scaled by 2^+-20, and y alone by 2^+-20.  In the caller's units
    the kernel's absolute stop and damping clip took 0 steps at those
    scales where it takes 16 at scale 1."""
    A = generate_ensemble(Field.COMPLEX, 6, 3, 0).entries
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = np.abs(A @ x)
    base = refine_gauss_newton(A, y, x0)
    assert base.iterations == 16 and base.residual < 0.06 * np.linalg.norm(y)

    def scaled(v, e):
        return np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e)

    for i, j in ((20, 20), (-20, -20), (0, 20), (0, -20)):
        res = refine_gauss_newton(scaled(A, i), np.ldexp(y, j), scaled(x0, j - i))
        assert res.iterations == base.iterations, (i, j)
        assert res.residual == np.ldexp(base.residual, j), (i, j)
        assert scaled(res.x, i - j).tobytes() == base.x.tobytes(), (i, j)


def _same_hit(a, b) -> bool:
    """Two block filter results: both None, or the same objective bits and
    the same pair, support and value bytes."""
    if a is None or b is None:
        return a is b
    return a[0] == b[0] and all(x.support == y.support and x.values.tobytes() == y.values.tobytes()
                                for x, y in zip(a[1], b[1]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_block_filter_matches_pairwise_oracle(monkeypatch):
    """Fed the U, V and objectives of every block of every PROBE_CORPUS
    probe, the block filter (_block_best) returns what the per-pair loop
    returns (pairwise_block_best), objective bits and pair bytes.  The
    blocks cover each branch: a v entry at most 1e-12 ("6x5-zero-col"),
    same-support pairs whose rows are phase equivalent, pairs whose rows
    tie on objective, and an early return in the first block (every
    "complex-3x6-*" probe).  Each block is also fed twice over, so that
    every pair ties with a later copy, which must not replace it."""
    blocks = {}
    for name, A, k, restarts, seed in PROBE_CORPUS:
        blocks[name] = _calls(monkeypatch, "_block_best", lambda: collision_probe_complex(A, k, restarts, seed))
    covered = set()
    for name, calls in blocks.items():
        for U, V, OBJ, I_idx, J_idx, supports, n, best_obj in calls:
            got = solver_complex._block_best(U, V, OBJ, I_idx, J_idx, supports, n, best_obj)
            assert _same_hit(got, pairwise_block_best(U, V, OBJ, I_idx, J_idx, supports, n, best_obj)), name
            twice = [np.concatenate([a, a]) for a in (U, V, OBJ, I_idx, J_idx)]
            assert _same_hit(solver_complex._block_best(*twice, supports, n, best_obj), got), name
            if name == "6x5-zero-col" and (np.abs(V) <= 1e-12).any():
                covered.add("small v")
            if any(len(np.unique(obj)) < len(obj) for obj in OBJ):
                covered.add("tie")
            for p in np.flatnonzero(I_idx == J_idx):
                u = SparseVector(Field.COMPLEX, n, supports[I_idx[p]], U[p, 0]).canonical()
                v = SparseVector(Field.COMPLEX, n, supports[J_idx[p]], V[p, 0]).canonical()
                if np.abs(V[p, 0]).min() > 1e-12 and phase_equivalent(u, v, 1e-6):
                    covered.add("same support")
        if name.startswith("complex-3x6-"):
            assert len(calls) == 1 and solver_complex._block_best(*calls[0])[0] <= 1e-8, name
    assert covered == {"small v", "tie", "same support"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_makes_one_generator_per_support(monkeypatch):
    """A (6, 8, k = 2) threshold probe with 8 restarts scans all 28 x 28
    support pairs and draws from one generator per support I: 28
    default_rng calls, not one per pair."""
    A = generate_ensemble(Field.COMPLEX, 6, 8, 0)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args))
    probe = collision_probe_complex(A, 2, 8, 0)
    assert probe.verdict == "no_collision_found" and len(made) == 28


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_probe_k1_matches_column_criterion():
    """At k = 1 every m >= k^2, so the probe decides each sample on the
    lift (a zero column's lift is rank deficient and takes the LM
    kernel): its verdict is collision_found exactly when
    column_magnitude_collision_1sparse holds, on generic ensembles and
    with a proportional, a phase-proportional or a zero column, or two
    zero columns, at scales 2^-20, 1 and 2^20."""
    outcomes = set()
    for seed in range(6):
        for m, n in ((2, 4), (4, 5)):
            E = generate_ensemble(Field.COMPLEX, m, n, seed).entries
            for kind in ("generic", "proportional", "phase-proportional", "zero", "two-zero"):
                F = E.copy()
                if kind == "proportional":
                    F[:, 3] = 2.5 * F[:, 1]
                elif kind == "phase-proportional":
                    F[:, 3] = np.exp(1.3j) * 0.4 * F[:, 0]
                elif kind != "generic":
                    F[:, [2, 0] if kind == "two-zero" else 2] = 0.0
                for j in (-20, 0, 20):
                    A = MeasurementEnsemble.from_entries(Field.COMPLEX, F * 2.0**j)
                    collision = column_magnitude_collision_1sparse(A)
                    probe = collision_probe_complex(A, 1, 8, seed)
                    assert (probe.verdict == "collision_found") == collision, (seed, m, kind, j)
                    outcomes.add((kind, collision))
    assert outcomes == {("generic", False), ("proportional", True), ("phase-proportional", True),
                        ("zero", True), ("two-zero", True)}


def test_k1_uniqueness_matches_column_criterion():
    # proportional columns really produce two classes at k = 1
    A = MeasurementEnsemble.from_entries(
        Field.COMPLEX, [[1.0, 2.0, 0.7 + 0.2j], [1j, 2j, -0.4]]
    )
    assert column_magnitude_collision_1sparse(A)
    x0 = SparseVector(Field.COMPLEX, 3, (0,), np.array([1.5 + 0j]))
    sol = solve_l0_complex(A, measure(A, x0), 1)
    assert sol.k_star == 1 and len(sol.classes) == 2


class _SolveCounter:
    """Wraps np.linalg.solve: counts the rows (systems) it is asked to solve
    and the calls that raise LinAlgError."""

    def __init__(self, monkeypatch):
        self.rows = self.raised = 0
        self._solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", self)

    def __call__(self, a, b):
        self.rows += len(a)
        try:
            return self._solve(a, b)
        except np.linalg.LinAlgError:
            self.raised += 1
            raise


def _calls(monkeypatch, name: str, run) -> list:
    """The positional arguments of each call run() makes to
    solver_complex.<name>, copied when they are arrays."""
    calls = []
    function = getattr(solver_complex, name)

    def capture(*args, **kwargs):
        calls.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        return function(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(solver_complex, name, capture)
        run()
    return calls


def _kernel_stacks(monkeypatch, run) -> list:
    """The (AT, targets, x0) stacks run() passes to the LM kernel."""
    return [args[:3] for args in _calls(monkeypatch, "_batched_levenberg_marquardt", run)]


def _probe_stack(A: MeasurementEnsemble, k: int, restarts: int, seed: int):
    """The (AT[J], |U AT[I]|, V0) LM kernel stack of every ordered support
    pair of a probe, on A as given (not normalized), with the probe's u
    and starts (one generator per support I, drawing u, then the starts,
    J by J): at (6, 4, 2) with 8 restarts, one stack of 36 pairs,
    including those the probe itself decides on the lift, so the kernel
    tests keep rows that freeze, stall and (at 1e10) hit singular
    systems."""
    supports = list(itertools.combinations(range(A.n), k))
    S = len(supports)
    AT = solver_complex._support_stack(A.entries.astype(np.complex128), supports)
    Z = np.concatenate([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(si,)))
                        .standard_normal((S, 4, restarts, k)) for si in range(S)])
    U = Z[:, 0] + 1j * Z[:, 1]
    U /= np.linalg.norm(U, axis=2, keepdims=True)
    I_idx, J_idx = np.divmod(np.arange(S * S), S)
    return AT[J_idx], np.abs(U @ AT[I_idx]), Z[:, 2] + 1j * Z[:, 3]


def _random_kernel_stack(k: int, seed: int):
    """A (3, 5)-row stack at m = 4k - 2; support 0's targets are those of
    its own starts, so its objective is 0 from the start."""
    rng = np.random.default_rng(seed)
    m = 4 * k - 2
    AT = rng.standard_normal((3, k, m)) + 1j * rng.standard_normal((3, k, m))
    x0 = rng.standard_normal((3, 5, k)) + 1j * rng.standard_normal((3, 5, k))
    targets = np.abs((rng.standard_normal((3, 5, k)) + 1j * rng.standard_normal((3, 5, k))) @ AT)
    targets[0] = np.abs(x0[0] @ AT[0])
    return AT, targets, x0


def test_lm_kernel_matches_full_work_oracle(monkeypatch):
    """The kernel, which skips frozen and stopped rows and reuses J^T J
    across rejected steps, gives the bits of the full-work kernel on x,
    objective and steps of every row: random k = 1..4 stacks with an exact
    start, a threshold probe's stack (_probe_stack; rows freeze at lam =
    1e6), a (14, 6, 4) LM heuristic level (rows at the roundoff floor)
    and the singular-solve probe's stack (the LinAlgError fallback), each
    at 0, 1, 17 and 120 iterations.  The ftol stop fires on the probe and the
    heuristic level, so these bits cover it."""
    cases = {
        "random": [_random_kernel_stack(k, 60 + k) for k in range(1, 5)],
        "threshold-probe": [_probe_stack(generate_ensemble(Field.COMPLEX, 6, 4, 0), 2, 8, 0)],
        "heuristic": _kernel_stacks(monkeypatch, lambda: _heuristic_level(14, 6, 4, 0)),
        "singular-solve": [_probe_stack(_singular_solve_ensemble(), 2, 8, 3)],
    }
    assert [len(v) for v in cases.values()] == [4, 1, 1, 1]
    work = {}
    steps_at_cap = {}
    for name, stacks in cases.items():
        for iters in (0, 1, 17, 120):
            runs = []
            for kernel in (solver_complex._batched_levenberg_marquardt, full_work_levenberg_marquardt):
                counter = _SolveCounter(monkeypatch)
                runs.append([kernel(AT, t, x0, iters) for AT, t, x0 in stacks])
                monkeypatch.undo()
                work[name, iters, kernel is full_work_levenberg_marquardt] = counter.rows, counter.raised
            for i, (got, want) in enumerate(zip(*runs)):
                for a, b in zip(got, want):
                    assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b)), (name, iters, i)
            if name == "random" and iters == 120:
                # the exact start takes no step, and its support stops at once
                assert all(np.all(steps[0] == 0) and np.all(obj[0] == 0) for _, obj, steps in runs[0])
            if iters == 120:
                steps_at_cap[name] = [steps for _, _, steps in runs[0]]
    assert all(work[name, 0, full] == (0, 0) for name in cases for full in (False, True))
    # the ftol stop fires: with ftol = 0 some row of these stacks takes more
    # accepted steps, and none takes fewer
    for name in ("threshold-probe", "heuristic"):
        counter = _SolveCounter(monkeypatch)
        unstopped = [full_work_levenberg_marquardt(AT, t, x0, 120, ftol=0.0)[2] for AT, t, x0 in cases[name]]
        monkeypatch.undo()
        work[name, "ftol=0"] = counter.rows
        assert any(np.any(a < b) for a, b in zip(steps_at_cap[name], unstopped)), name
        assert all(np.all(a <= b) for a, b in zip(steps_at_cap[name], unstopped)), name
    # rows freeze on the probe: the kernel solves fewer rows than the
    # full-work kernel, and under half of what it solves with ftol = 0
    assert work["threshold-probe", 120, False][0] < work["threshold-probe", 120, True][0]
    assert 2 * work["threshold-probe", 120, False][0] < work["threshold-probe", "ftol=0"]
    # both kernels take the LinAlgError fallback
    assert work["singular-solve", 120, False][1] > 0 and work["singular-solve", 120, True][1] > 0


def test_lm_kernel_pins_the_layout_of_j(monkeypatch):
    """The bits of J^T J follow J's memory layout, so the kernel and the
    full-work oracle build J as the (N, m, 2k) transpose of an (N, 2k, m)
    buffer, not in whatever layout np.concatenate would pick."""
    seen = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "rmi,rmj->rij":
            seen.append((operands[0].shape, operands[0].strides))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    for kernel in (solver_complex._batched_levenberg_marquardt, full_work_levenberg_marquardt):
        for k in (1, 3):
            kernel(*_random_kernel_stack(k, 70 + k), 4)
    assert len(seen) >= 8
    for (N, m, k2), strides in seen:
        assert strides == (k2 * m * 8, 8, m * 8), (N, m, k2)


def test_lm_kernel_solves_at_most_half_the_full_work(monkeypatch):
    """The kernel stack of a generic threshold probe, (m, n, k) = (6, 4, 2)
    with 8 restarts (_probe_stack): the full-work kernel without the ftol
    stop solves 36 pairs x 8 restarts x 120 iterations = 34,560 rows.
    Rows frozen at the damping cap get no further solve, and rows stopped
    by the ftol test none either: the kernel solves at most 7,000 (5,281
    on the probe's draws; 13,759 before the ftol test, with frozen rows
    alone, on the per-pair draws it had then), and the count repeats
    exactly."""
    stack = _probe_stack(generate_ensemble(Field.COMPLEX, 6, 4, 0), 2, 8, 0)
    counts = []
    for _ in range(2):
        counter = _SolveCounter(monkeypatch)
        solver_complex._batched_levenberg_marquardt(*stack)
        monkeypatch.undo()
        counts.append(counter.rows)
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= 7_000


def test_heuristic_level_work_with_the_ftol_stop(monkeypatch):
    """The (14, 6, 4) seed-0 LM heuristic level, 15 supports x 8 restarts:
    rows near the roundoff floor keep taking accepted steps that lower
    the objective by a few ulps, and the ftol test stops them.  The level
    solves at most 6,500 systems (10,535 before the test was added), and
    the count repeats exactly."""
    _, x0, _ = _heuristic_case(14, 6, 4, 0)
    counts = []
    for _ in range(2):
        counter = _SolveCounter(monkeypatch)
        cands = _heuristic_level(14, 6, 4, 0)
        monkeypatch.undo()
        assert any(phase_equivalent(c, x0, 1e-6) for c, _, _ in cands)
        counts.append(counter.rows)
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= 6_500


@pytest.mark.slow
def test_ftol_stop_keeps_verdicts_and_heuristic_classes(monkeypatch):
    """Equivalence gate for the ftol stop: against the full-work kernel with
    ftol = 0 (the rule without the stop), every PROBE_CORPUS probe keeps
    its verdict, every heuristic solve at (8, 6, 3) and (12, 6, 4), seeds
    0-11, keeps its to_json_dict() exactly, and so does the LM heuristic
    level at (14, 6, 4) and (15, 7, 4), seeds 0-11 (_heuristic_level:
    the same supports and starts those solves refined before the plane
    level), on its candidates' supports and values."""
    cases = [_heuristic_case(m, n, k, seed) + (k, seed) for m, n, k in ((8, 6, 3), (12, 6, 4)) for seed in range(12)]
    levels = [(m, n, 4, seed) for m, n in ((14, 6), (15, 7)) for seed in range(12)]

    def run():
        verdicts = [collision_probe_complex(A, k, restarts, seed).verdict for _, A, k, restarts, seed in PROBE_CORPUS]
        sols = [solve_l0_complex(A, y, k, allow_heuristic=True, seed=seed).to_json_dict()
                for A, _, y, k, seed in cases]
        sols += [[(c.support, c.values.tolist()) for c, _, _ in _heuristic_level(*case)] for case in levels]
        return verdicts, sols

    def unstopped_kernel(AT, targets, x0, iters=120):
        return full_work_levenberg_marquardt(AT, targets, x0, iters, ftol=0.0)

    verdicts, sols = run()
    monkeypatch.setattr(solver_complex, "_batched_levenberg_marquardt", unstopped_kernel)
    want_verdicts, want_sols = run()
    for (name, *_), got, want in zip(PROBE_CORPUS, verdicts, want_verdicts):
        assert got == want, name
    for case, got, want in zip([(A.m, k, seed) for A, _, _, k, seed in cases] + levels, sols, want_sols):
        assert got == want, case
    assert all(s["heuristic"] for s in sols[: len(cases)])
    assert all(sols[len(cases):])  # every LM level finds a class

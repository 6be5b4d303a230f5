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
from sparsepr.solver_complex import _assemble_hermitian, _lift_system, _lifted_support_solve
from oracles import (
    full_scan_solve_l0_complex,
    full_work_levenberg_marquardt,
    loop_assemble_hermitian,
    loop_lift_system,
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
        resid_tol, tol_abs = 1e-8 * max(1.0, y.max() ** 2) * np.sqrt(m), 1e-8 * max(1.0, y.max())
        hit = _lifted_support_solve(_lift_system(A_I[None])[0], A_I, y, y**2, support, 8, resid_tol, tol_abs)
        assert hit is not None
        x_hat, defect = hit
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
    resid_tol = 1e-8 * max(1.0, y.max() ** 2) * np.sqrt(m)
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
    # the true support's lifted residual just below and just above resid_tol
    for m, n, k, seed in ((6, 7, 2, 13), (10, 8, 3, 14), (12, 9, 3, 15), (2, 5, 1, 16), (4, 6, 1, 17)):
        for factor in (0.8, 1.2):
            cases.append(_near_tol_case(m, n, k, seed, factor))
    # a looser tolerance
    cases.append(_lifted_signal_case(10, 8, 3, 18, tol=1e-5))
    return cases


def test_screened_lifted_solve_matches_full_scan_oracle():
    """Screened and full-scan lifted solves agree bit for bit on a degenerate corpus."""
    cases = _lifted_corpus()
    k_stars, two_class = [], 0
    for i, (A, y, k_max, tol) in enumerate(cases):
        got = json.dumps(solve_l0_complex(A, y, k_max, tol=tol).to_json_dict())
        want = json.dumps(full_scan_solve_l0_complex(A, y, k_max, tol=tol).to_json_dict())
        assert got == want, i
        k_stars.append(json.loads(want)["k_star"])
        two_class += len(json.loads(want)["classes"]) == 2
    assert two_class >= 2 and k_stars.count(3) >= 10
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


@pytest.mark.parametrize("restarts", [0, -2, 2.5, True, "4", None])
def test_heuristic_restarts_must_be_a_positive_integer(restarts):
    A = generate_ensemble(Field.COMPLEX, 3, 6, 5)
    y = measure(A, SparseVector(Field.COMPLEX, 6, (1, 3), np.array([1.0 + 1j, -2.0 + 0.5j])))
    with pytest.raises(ValueError, match="heuristic_restarts must be an integer >= 1"):
        solve_l0_complex(A, y, 2, allow_heuristic=True, heuristic_restarts=restarts)
    # a numpy integer is an integer
    assert solve_l0_complex(A, y, 2, allow_heuristic=True, heuristic_restarts=np.int64(2)).k_star == 2


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
    assert len(refined["classes"]) == 8  # 3 rows fix a 2-sparse class only up to finitely many
    assert refined["methods"] == ["refined"] * 8 and refined["rank1_defects"] == [None] * 8
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


def test_heuristic_solve_matches_serial_oracle():
    """The batched LM solve finds the classes one serial Gauss-Newton
    refinement per (support, restart) finds: same k*, same supports,
    phase-equivalent values.  (14, 6, 4) is the paper's complex threshold
    m = 4k - 2 at k = 4, beyond the lifted path."""
    for seed in range(12):
        A, x0, y = _heuristic_case(14, 6, 4, seed)
        sol = solve_l0_complex(A, y, 4, allow_heuristic=True, seed=seed)
        k_star, classes = serial_heuristic_solve(A, y.magnitudes, 4, seed=seed)
        assert sol.heuristic and sol.k_star == k_star == 4, seed
        assert [c.support for c in sol.classes] == [c.support for c in classes], seed
        assert all(phase_equivalent(a, b, 1e-6) for a, b in zip(sol.classes, classes)), seed
        assert any(phase_equivalent(c, x0, 1e-6) for c in sol.classes), seed


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


def test_collision_probe_real_embedding():
    A = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 2.0]])
    probe = collision_probe_complex(A, 1, 5, 0)
    assert probe.verdict == "collision_found"
    assert probe.objective <= 1e-8
    u, v = probe.pair
    assert not phase_equivalent(u, v, 1e-6)


def test_collision_probe_no_collision_k1():
    A = generate_ensemble(Field.COMPLEX, 2, 4, 11)
    # exact criterion: no two columns have proportional magnitudes
    assert not column_magnitude_collision_1sparse(A)
    probe = collision_probe_complex(A, 1, 50, 0)
    assert probe.verdict == "no_collision_found"
    assert probe.objective > 1e-3


@pytest.mark.slow
def test_collision_probe_k2_threshold():
    for seed in range(10):
        A = generate_ensemble(Field.COMPLEX, 6, 6, seed)
        probe = collision_probe_complex(A, 2, 100, seed)
        assert probe.verdict == "no_collision_found", f"seed {seed}"


def test_collision_probe_rejects_k_outside_1_to_n():
    A = generate_ensemble(Field.COMPLEX, 4, 5, 0)
    for k in (-1, 0, 6):
        with pytest.raises(ValueError, match="k must be"):
            collision_probe_complex(A, k, 4, 0)
    assert collision_probe_complex(A, 5, 1, 0).restarts == 1  # k = n is a valid probe


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
    """The seed is checked where a heuristic level uses it; a solve that
    ends on the lifted path never uses it."""
    A, _, y = _heuristic_case(8, 6, 4, 0)
    with pytest.raises(ValueError, match="seed"):
        solve_l0_complex(A, y, 4, allow_heuristic=True, seed=-1)
    lifted = SparseVector(Field.COMPLEX, 6, (2,), np.array([1.5 - 0.5j]))
    sol = solve_l0_complex(A, measure(A, lifted), 4, allow_heuristic=True, seed=-1)
    assert sol.k_star == 1 and not sol.heuristic


def _singular_solve_ensemble():
    """Column 1 = 2 * column 0, scaled by 1e10.  At that scale lambda * I is
    lost to rounding, so some damped normal-equation systems are exactly
    singular, on pairs with each of the six J supports."""
    E = generate_ensemble(Field.COMPLEX, 6, 4, 7).entries.copy()
    E[:, 1] = 2.0 * E[:, 0]
    return MeasurementEnsemble.from_entries(Field.COMPLEX, E * 1e10)


PROBE_CORPUS = (
    [(f"complex-6x4-{s}", generate_ensemble(Field.COMPLEX, 6, 4, s), 2, 8, s) for s in range(40)]
    + [(f"complex-3x6-{s}", generate_ensemble(Field.COMPLEX, 3, 6, s), 2, 8, s) for s in range(20)]
    + [(f"complex-6x6-{s}", generate_ensemble(Field.COMPLEX, 6, 6, s), 2, 4, s) for s in range(6)]
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


@pytest.mark.slow
def test_collision_probe_matches_pairwise_oracle():
    """The blocked scan reproduces the per-pair scan bit for bit."""
    verdicts = {}
    for name, A, k, restarts, seed in PROBE_CORPUS:
        probe = collision_probe_complex(A, k, restarts, seed)
        assert _same_probe(probe, pairwise_collision_probe(A, k, restarts, seed)), name
        verdicts[name] = probe.verdict
    assert all(verdicts[f"complex-3x6-{s}"] == "collision_found" for s in range(20))
    assert verdicts["singular-solve"] == "no_collision_found"


@pytest.mark.slow
def test_collision_probe_does_not_depend_on_blocking(monkeypatch):
    """One pair per kernel call, the first call included, gives the bits
    of the default blocking, on every third PROBE_CORPUS entry and the
    real and singular-solve entries."""
    corpus = PROBE_CORPUS[::3] + PROBE_CORPUS[-2:]
    default = [collision_probe_complex(A, k, restarts, seed) for _, A, k, restarts, seed in corpus]
    monkeypatch.setattr(solver_complex, "_PROBE_FIRST_ROWS", 1)
    monkeypatch.setattr(solver_complex, "_PROBE_ROWS", 1)
    stacks = _kernel_stacks(monkeypatch, lambda: collision_probe_complex(*corpus[0][1:]))
    assert len(stacks) == 36 and all(AT.shape[0] == 1 for AT, _, _ in stacks)
    for (name, A, k, restarts, seed), want in zip(corpus, default):
        assert _same_probe(collision_probe_complex(A, k, restarts, seed), want), name


def test_collision_probe_kernel_calls(monkeypatch):
    """A threshold probe, (6, 4, k = 2) with 8 restarts, optimizes its 36
    pairs in one kernel call; a below-threshold (3, 6) probe finds its
    collision in the first call and returns."""
    for seed in range(3):
        A = generate_ensemble(Field.COMPLEX, 6, 4, seed)
        stacks = _kernel_stacks(monkeypatch, lambda: collision_probe_complex(A, 2, 8, seed))
        assert [AT.shape[0] for AT, _, _ in stacks] == [36], seed
    for name, A, k, restarts, seed in PROBE_CORPUS:
        if name.startswith("complex-3x6-"):
            probes = []
            stacks = _kernel_stacks(monkeypatch, lambda: probes.append(collision_probe_complex(A, k, restarts, seed)))
            assert len(stacks) == 1 and probes[0].verdict == "collision_found", name


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


def _kernel_stacks(monkeypatch, run) -> list:
    """The (AT, targets, x0) stacks run() passes to the LM kernel."""
    stacks = []
    kernel = solver_complex._batched_levenberg_marquardt

    def capture(AT, targets, x0, iters=120):
        stacks.append((AT, targets, x0.copy()))
        return kernel(AT, targets, x0, iters)

    with monkeypatch.context() as mp:
        mp.setattr(solver_complex, "_batched_levenberg_marquardt", capture)
        run()
    return stacks


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
    start, a threshold probe's stacks (rows freeze at lam = 1e6), a
    (14, 6, 4) heuristic level (rows at the roundoff floor) and the
    singular-solve probe's stacks (the LinAlgError fallback), each at 0, 1,
    17 and 120 iterations.  The ftol stop fires on the probe and the
    heuristic level, so these bits cover it."""
    A, _, y = _heuristic_case(14, 6, 4, 0)
    cases = {
        "random": [_random_kernel_stack(k, 60 + k) for k in range(1, 5)],
        "threshold-probe": _kernel_stacks(
            monkeypatch, lambda: collision_probe_complex(generate_ensemble(Field.COMPLEX, 6, 4, 0), 2, 8, 0)
        ),
        "heuristic": _kernel_stacks(monkeypatch, lambda: solve_l0_complex(A, y, 4, allow_heuristic=True, seed=0)),
        "singular-solve": _kernel_stacks(monkeypatch, lambda: collision_probe_complex(_singular_solve_ensemble(), 2, 8, 3)),
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
    """A generic threshold probe, (m, n, k) = (6, 4, 2) with 8 restarts: the
    full-work kernel without the ftol stop solves 36 pairs x 8 restarts x
    120 iterations = 34,560 rows.  Rows frozen at the damping cap get no
    further solve, and rows stopped by the ftol test none either: the
    kernel solves at most 7,000 (13,759 before the ftol test, with frozen
    rows alone), and the count repeats exactly."""
    counts = []
    for _ in range(2):
        counter = _SolveCounter(monkeypatch)
        probe = collision_probe_complex(generate_ensemble(Field.COMPLEX, 6, 4, 0), 2, 8, 0)
        monkeypatch.undo()
        assert probe.verdict == "no_collision_found"
        counts.append(counter.rows)
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= 7_000


def test_heuristic_level_work_with_the_ftol_stop(monkeypatch):
    """The (14, 6, 4) seed-0 heuristic solve's one LM level, 15 supports x
    8 restarts: rows near the roundoff floor keep taking accepted steps
    that lower the objective by a few ulps, and the ftol test stops them.
    The level solves at most 6,500 systems (10,535 before the test was
    added), and the count repeats exactly."""
    A, _, y = _heuristic_case(14, 6, 4, 0)
    counts = []
    for _ in range(2):
        counter = _SolveCounter(monkeypatch)
        sol = solve_l0_complex(A, y, 4, allow_heuristic=True, seed=0)
        monkeypatch.undo()
        assert sol.heuristic and sol.k_star == 4
        counts.append(counter.rows)
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= 6_500


@pytest.mark.slow
def test_ftol_stop_keeps_verdicts_and_heuristic_classes(monkeypatch):
    """Equivalence gate for the ftol stop: against the full-work kernel with
    ftol = 0 (the rule without the stop), every PROBE_CORPUS probe keeps
    its verdict, and every heuristic solve at (14, 6, 4), (15, 7, 4),
    (8, 6, 3) and (12, 6, 4), seeds 0-11, keeps its to_json_dict()
    exactly."""
    cases = [_heuristic_case(m, n, k, seed) + (k, seed)
             for m, n, k in ((14, 6, 4), (15, 7, 4), (8, 6, 3), (12, 6, 4)) for seed in range(12)]

    def run():
        verdicts = [collision_probe_complex(A, k, restarts, seed).verdict for _, A, k, restarts, seed in PROBE_CORPUS]
        sols = [solve_l0_complex(A, y, k, allow_heuristic=True, seed=seed).to_json_dict()
                for A, _, y, k, seed in cases]
        return verdicts, sols

    def unstopped_kernel(AT, targets, x0, iters=120):
        return full_work_levenberg_marquardt(AT, targets, x0, iters, ftol=0.0)

    verdicts, sols = run()
    monkeypatch.setattr(solver_complex, "_batched_levenberg_marquardt", unstopped_kernel)
    want_verdicts, want_sols = run()
    for (name, *_), got, want in zip(PROBE_CORPUS, verdicts, want_verdicts):
        assert got == want, name
    for (_, _, _, k, seed), got, want in zip(cases, sols, want_sols):
        assert got == want, (k, seed)
    assert all(s["heuristic"] for s in sols)

"""Randomized invariant suite: every documented property, >= 100 cases each
(or the property's own stated trial count where it specifies one).

All randomness is seeded so failures reproduce exactly.
"""

import itertools

import numpy as np

from sparsepr import (
    Field,
    MeasurementEnsemble,
    PhasePattern,
    SparseVector,
    draw_sparse_signal,
    generate_ensemble,
    measure,
    numerical_rank,
    phase_equivalent,
    phase_gen_min_distance,
    solve_l0_complex,
    solve_l0_real,
    witness_rank,
)
from sparsepr.solver_complex import column_magnitude_collision_1sparse
from helpers import least_squares

CASES = 100


def _random_instance(rng, fld=Field.REAL, mmax=6):
    m = int(rng.integers(2, mmax))
    n = int(rng.integers(m + 1, m + 4))
    A = generate_ensemble(fld, m, n, int(rng.integers(0, 2**31)))
    k = int(rng.integers(1, min(3, m) + 1))
    x = draw_sparse_signal(fld, n, k, rng)
    return A, x


def test_measure_scale_invariance():
    rng = np.random.default_rng(100)
    for _ in range(CASES):
        fld = Field.REAL if rng.random() < 0.5 else Field.COMPLEX
        A, x = _random_instance(rng, fld)
        if fld is Field.REAL:
            c = float(rng.standard_normal()) or 1.0
        else:
            c = complex(rng.standard_normal(), rng.standard_normal()) or 1.0
        lhs = measure(A, x.scaled(c)).magnitudes
        rhs = abs(c) * measure(A, x).magnitudes
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, rhs.max())


def test_measure_row_phase_invariance():
    rng = np.random.default_rng(101)
    for _ in range(CASES):
        fld = Field.REAL if rng.random() < 0.5 else Field.COMPLEX
        A, x = _random_instance(rng, fld)
        if fld is Field.REAL:
            phases = rng.choice([-1.0, 1.0], size=A.m)
        else:
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=A.m))
        P = PhasePattern(fld, A.m, phases)
        PA = MeasurementEnsemble.from_entries(fld, P.phases[:, None] * A.entries)
        lhs = measure(PA, x).magnitudes
        rhs = measure(A, x).magnitudes
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, rhs.max())


def test_phase_equivalent_is_an_equivalence():
    # Real vectors meet tol = 0 exactly (the aligning scalar is a literal
    # sign); the complex alignment goes through a dot product whose
    # rounding noise needs an epsilon floor.
    rng = np.random.default_rng(102)
    for _ in range(CASES):
        fld = Field.REAL if rng.random() < 0.5 else Field.COMPLEX
        _, u = _random_instance(rng, fld)
        if fld is Field.REAL:
            c1, c2 = float(rng.choice([-1.0, 1.0])), float(rng.choice([-1.0, 1.0]))
            tol = 0.0
        else:
            c1 = complex(rng.choice([1, -1, 1j, -1j]))
            c2 = complex(rng.choice([1, -1, 1j, -1j]))
            tol = 1e-13
        v, w = u.scaled(c1), u.scaled(c1 * c2)
        assert phase_equivalent(u, u, tol)
        assert phase_equivalent(u, v, tol) and phase_equivalent(v, u, tol)
        assert phase_equivalent(u, w, tol)  # transitivity through v


def test_ensemble_determinism_across_shapes():
    rng = np.random.default_rng(103)
    for _ in range(CASES):
        fld = Field.REAL if rng.random() < 0.5 else Field.COMPLEX
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        seed = int(rng.integers(0, 2**63))
        assert np.array_equal(
            generate_ensemble(fld, m, n, seed).entries,
            generate_ensemble(fld, m, n, seed).entries,
        )


def test_rank_invariances():
    rng = np.random.default_rng(104)
    for _ in range(CASES):
        m, k = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        cplx = rng.random() < 0.5
        M = rng.standard_normal((m, k))
        if cplx:
            M = M + 1j * rng.standard_normal((m, k))
        if rng.random() < 0.4 and k >= 2:
            M[:, -1] = M[:, 0] * (1.7 if not cplx else 0.3 + 1j)  # force deficiency
        base = numerical_rank(M).rank
        perm_rows = rng.permutation(m)
        perm_cols = rng.permutation(k)
        assert numerical_rank(M[perm_rows][:, perm_cols]).rank == base
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, m)) if cplx else rng.choice([-1.0, 1.0], m)
        assert numerical_rank(phases[:, None] * M).rank == base
        assert numerical_rank(M.conj().T).rank == base


def test_least_squares_consistent_systems():
    rng = np.random.default_rng(105)
    for _ in range(CASES):
        m = int(rng.integers(2, 8))
        k = int(rng.integers(1, m + 1))
        M = rng.standard_normal((m, k))
        x0 = rng.standard_normal(k)
        res = least_squares(M, M @ x0)
        assert res.residual_norm <= 1e-10 * max(1.0, np.linalg.norm(M @ x0))


def test_hermitian_top_eig_invariants():
    from sparsepr import hermitian_top_eig

    rng = np.random.default_rng(106)
    for _ in range(CASES):
        k = int(rng.integers(1, 6))
        B = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        X = (B + B.conj().T) / 2
        w, v1 = hermitian_top_eig(X)
        assert all(a >= b - 1e-12 for a, b in zip(w, w[1:]))
        assert np.linalg.norm(X @ v1 - w[0] * v1) <= 1e-10 * max(1.0, np.linalg.norm(X))


def test_distance_column_symmetries():
    # invariance under column permutation and global column sign flips
    rng = np.random.default_rng(107)
    for _ in range(CASES):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 7))
        A = generate_ensemble(Field.REAL, m, n, int(rng.integers(0, 2**31)))
        rep = phase_gen_min_distance(A)
        assert rep.d <= m + 1
        perm = rng.permutation(n)
        flips = rng.choice([-1.0, 1.0], n)
        B = MeasurementEnsemble.from_entries(Field.REAL, A.entries[:, perm] * flips)
        rep_b = phase_gen_min_distance(B)
        assert rep_b.d == rep.d
        # witness consistency on both reports
        for ens, r in ((A, rep), (B, rep_b)):
            if r.witness is not None:
                got = witness_rank(ens, r.witness.I, r.witness.J, r.witness.pattern(ens.m))
                assert got == r.min_rank


def test_distance_generic_value(generic_distance_sweep):
    # Gaussian ensembles at m = 2k have distance 2k + 1 in every trial
    for (k, seed), (A, rep) in generic_distance_sweep.items():
        assert rep.d == 2 * k + 1 == A.m + 1, f"k={k} seed={seed}"
        assert rep.d <= A.m + 1
        got = witness_rank(A, rep.witness.I, rep.witness.J, rep.witness.pattern(A.m))
        assert got == rep.min_rank


def test_solver_real_soundness_and_canonical():
    rng = np.random.default_rng(108)
    for _ in range(CASES):
        A, x0 = _random_instance(rng, Field.REAL)
        y = measure(A, x0)
        sol = solve_l0_real(A, y, x0.sparsity)
        tol_abs = 1e-8 * max(1.0, y.magnitudes.max())
        assert sol.k_star is not None
        for c in sol.classes:
            assert np.max(np.abs(measure(A, c).magnitudes - y.magnitudes)) <= tol_abs
            assert c.values[0] > 0
        # returned classes are pairwise inequivalent
        for a, b in itertools.combinations(sol.classes, 2):
            assert not phase_equivalent(a, b, 1e-8)


def test_solver_real_zero_signal():
    rng = np.random.default_rng(109)
    for _ in range(CASES):
        A, _ = _random_instance(rng, Field.REAL)
        sol = solve_l0_real(A, np.zeros(A.m), min(2, A.m))
        assert sol.k_star == 0 and len(sol.classes) == 1 and sol.classes[0].sparsity == 0


def test_complex_phase_and_scale_invariance():
    rng = np.random.default_rng(110)
    for _ in range(CASES):
        n = int(rng.integers(5, 8))
        k = int(rng.integers(1, 3))
        m = 4 * k - 2
        A = generate_ensemble(Field.COMPLEX, m, n, int(rng.integers(0, 2**31)))
        x0 = draw_sparse_signal(Field.COMPLEX, n, k, rng)
        y = measure(A, x0)
        base = solve_l0_complex(A, y, k)
        assert len(base.classes) == 1
        theta = rng.uniform(0, 2 * np.pi)
        rotated = solve_l0_complex(A, measure(A, x0.scaled(np.exp(1j * theta))), k)
        assert phase_equivalent(rotated.classes[0], base.classes[0], 1e-7)
        c = float(rng.uniform(0.5, 2.0))
        scaled = solve_l0_complex(A, y.magnitudes * c, k)
        assert phase_equivalent(scaled.classes[0], base.classes[0].scaled(c), 1e-7)


def test_gauss_newton_monotone_objective():
    """For iteration caps j = 0..60, the squared objective || |A x|^2 - y^2 ||_2
    the LM kernel computes (on its own x @ A^T layout) is non-increasing in j.

    Cases of one shape run as one stack; the kernel's rows are independent.
    """
    from sparsepr.solver_complex import _batched_levenberg_marquardt, _support_stack

    rng = np.random.default_rng(111)
    groups: dict[tuple[int, int], list] = {}
    for _ in range(CASES):
        m, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        A = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        x_true = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        start = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        groups.setdefault((m, k), []).append((A, np.abs(A @ x_true), start))
    for (m, k), cases in groups.items():
        AT = np.concatenate([_support_stack(A, [tuple(range(k))]) for A, _, _ in cases])
        targets = np.stack([y for _, y, _ in cases])[:, None]
        x0 = np.stack([start for _, _, start in cases])[:, None]
        objs = []
        for j in range(61):
            x, _, _ = _batched_levenberg_marquardt(AT, targets, x0, iters=j)
            objs.append(np.linalg.norm(np.abs(x @ AT) ** 2 - targets**2, axis=-1)[:, 0])
        assert np.all(np.diff(np.array(objs), axis=0) <= 0), (m, k)


def test_k1_uniqueness_cross_validation():
    # solver uniqueness at k = 1 agrees with the column-magnitude criterion
    rng = np.random.default_rng(112)
    for trial in range(CASES):
        if trial % 5 == 0:
            # planted proportional pair
            base = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
            other = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 1)))
            dup = 1.7 * np.abs(base) * phase
            A = MeasurementEnsemble.from_entries(Field.COMPLEX, np.hstack([base, dup, other]))
        else:
            A = generate_ensemble(Field.COMPLEX, 3, 4, int(rng.integers(0, 2**31)))
        collision = column_magnitude_collision_1sparse(A)
        unique_all = True
        for j in range(A.n):
            x0 = SparseVector(Field.COMPLEX, A.n, (j,), [1.0 + 0.5j])
            sol = solve_l0_complex(A, measure(A, x0), 1)
            unique_all = unique_all and len(sol.classes) == 1
        assert unique_all == (not collision)

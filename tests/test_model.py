import itertools

import numpy as np
import pytest

from sparsepr import (
    Field,
    MeasurementEnsemble,
    PhasePattern,
    SparseVector,
    generate_ensemble,
    measure,
    phase_equivalent,
    read_matrix,
    read_measurements,
    read_sparse_vector,
    write_matrix,
    write_measurements,
    write_sparse_vector,
)
from oracles import svd_rank


def test_measure_identity():
    A = MeasurementEnsemble.from_entries(Field.REAL, np.eye(2))
    x = SparseVector(Field.REAL, 2, (0, 1), [3.0, -4.0])
    assert np.allclose(measure(A, x).magnitudes, [3.0, 4.0])


def test_measure_hadamard_row():
    A = MeasurementEnsemble.from_entries(Field.REAL, [[1.0, 1.0], [1.0, -1.0]])
    x = SparseVector(Field.REAL, 2, (0, 1), [1.0, 1.0])
    assert np.allclose(measure(A, x).magnitudes, [2.0, 0.0])


def test_measure_unit_modulus():
    A = MeasurementEnsemble.from_entries(Field.COMPLEX, [[1.0]])
    x = SparseVector(Field.COMPLEX, 1, (0,), [1j])
    assert np.allclose(measure(A, x).magnitudes, [1.0])


def test_measure_rejects_mismatches():
    A = MeasurementEnsemble.from_entries(Field.REAL, np.eye(2))
    with pytest.raises(ValueError):
        measure(A, SparseVector(Field.COMPLEX, 2, (0,), [1.0 + 0j]))
    with pytest.raises(ValueError):
        measure(A, SparseVector(Field.REAL, 3, (0,), [1.0]))


def test_generate_ensemble_deterministic():
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    B = generate_ensemble(Field.REAL, 4, 8, 42)
    assert np.array_equal(A.entries, B.entries)
    assert A.provenance.seed == 42 and A.provenance.distribution == "standard_normal"
    C = generate_ensemble(Field.COMPLEX, 4, 8, 42)
    D = generate_ensemble(Field.COMPLEX, 4, 8, 42)
    assert np.array_equal(C.entries, D.entries)
    assert not np.array_equal(A.entries, generate_ensemble(Field.REAL, 4, 8, 43).entries)


def test_generate_ensemble_generic_submatrices():
    # every 4x4 column submatrix of the 4x8 seed-42 ensemble has full rank
    A = generate_ensemble(Field.REAL, 4, 8, 42)
    for cols in itertools.combinations(range(8), 4):
        assert svd_rank(A.entries[:, cols]) == 4


def test_generate_ensemble_no_parallel_columns():
    A = generate_ensemble(Field.COMPLEX, 2, 3, 7)
    for i, j in itertools.combinations(range(3), 2):
        det = A.entries[0, i] * A.entries[1, j] - A.entries[0, j] * A.entries[1, i]
        assert abs(det) > 1e-8


def test_phase_equivalent_examples():
    u = SparseVector(Field.REAL, 2, (0, 1), [3.0, -4.0])
    v = SparseVector(Field.REAL, 2, (0, 1), [-3.0, 4.0])
    assert phase_equivalent(u, v, 1e-12)
    uc = SparseVector(Field.COMPLEX, 2, (0, 1), [1.0, 1j])
    vc = SparseVector(Field.COMPLEX, 2, (0, 1), [1j, -1.0])
    assert phase_equivalent(uc, vc, 1e-12)
    e0 = SparseVector(Field.REAL, 2, (0,), [1.0])
    e1 = SparseVector(Field.REAL, 2, (1,), [1.0])
    assert not phase_equivalent(e0, e1, 0.5)


def test_sparse_vector_validation():
    with pytest.raises(ValueError):
        SparseVector(Field.REAL, 3, (1, 1), [1.0, 2.0])
    with pytest.raises(ValueError):
        SparseVector(Field.REAL, 3, (2, 1), [1.0, 2.0])
    with pytest.raises(ValueError):
        SparseVector(Field.REAL, 3, (3,), [1.0])
    with pytest.raises(ValueError):
        SparseVector(Field.REAL, 3, (0,), [0.0])


def test_canonical_representative():
    x = SparseVector(Field.REAL, 4, (1, 2), [-2.0, 5.0]).canonical()
    assert x.values[0] > 0
    z = SparseVector(Field.COMPLEX, 4, (0, 3), [1j * 2.0, 1.0 + 1j]).canonical()
    assert abs(z.values[0].imag) < 1e-15 and z.values[0].real > 0
    assert phase_equivalent(z, SparseVector(Field.COMPLEX, 4, (0, 3), [2j, 1.0 + 1j]), 1e-12)


def test_phase_pattern_admissibility():
    p = PhasePattern.from_bits(4, 5)
    assert np.array_equal(p.phases, [1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        PhasePattern(Field.REAL, 2, [1.0, 0.5])


def test_matrix_roundtrip(tmp_path):
    for field in (Field.REAL, Field.COMPLEX):
        A = generate_ensemble(field, 3, 5, 9)
        path = tmp_path / f"{field.value}.mat"
        write_matrix(A, path)
        B = read_matrix(path)
        assert B.field is field and B.m == 3 and B.n == 5
        assert np.array_equal(A.entries, B.entries)
        assert B.provenance.distribution == "explicit"


def test_matrix_read_diagnostics(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("real 2 2\n1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match=r"bad.mat:3"):
        read_matrix(bad)
    bad2 = tmp_path / "bad2.mat"
    bad2.write_text("real 2 2\n1.0 2.0\n3.0 oops\n")
    with pytest.raises(ValueError, match="oops"):
        read_matrix(bad2)


def test_sparse_vector_roundtrip(tmp_path):
    x = SparseVector(Field.COMPLEX, 6, (1, 4), [1.5 - 2j, 3 + 0.25j])
    path = tmp_path / "x.vec"
    write_sparse_vector(x, path)
    y = read_sparse_vector(path)
    assert y.field is Field.COMPLEX and y.support == (1, 4)
    assert np.array_equal(x.values, y.values)
    xr = SparseVector(Field.REAL, 4, (0, 2), [0.5, -1.25])
    write_sparse_vector(xr, path)
    yr = read_sparse_vector(path)
    assert yr.field is Field.REAL and np.array_equal(xr.values, yr.values)


def test_measurement_roundtrip(tmp_path):
    A = generate_ensemble(Field.REAL, 4, 6, 3)
    x = SparseVector(Field.REAL, 6, (2, 5), [1.0, -0.5])
    y = measure(A, x)
    path = tmp_path / "y.txt"
    write_measurements(y, path)
    assert np.array_equal(read_measurements(path).magnitudes, y.magnitudes)


def test_measurement_vector_rejects_negative():
    from sparsepr import as_measurement

    with pytest.raises(ValueError):
        as_measurement([1.0, -0.1])

"""Core domain types and the forward phaseless measurement operator.

A measurement is y = |Ax| where A is an m-by-n ensemble over the reals or
the complexes, x is a sparse signal, and |.| is the elementwise magnitude.
Everything downstream (certification, solvers, experiments) is built on the
immutable types defined here.

Conventions:
  * indices are 0-based everywhere (API, file formats, JSON output);
  * complex scalars are double-precision (real, imaginary) pairs;
  * a phase class is represented canonically by scaling so the first
    support entry is real and positive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Field",
    "Provenance",
    "MeasurementEnsemble",
    "SparseVector",
    "PhasePattern",
    "MeasurementVector",
    "measure",
    "generate_ensemble",
    "phase_equivalent",
    "as_measurement",
    "read_matrix",
    "write_matrix",
    "read_sparse_vector",
    "write_sparse_vector",
    "read_measurements",
    "write_measurements",
]


class Field(enum.Enum):
    """Scalar field of an ensemble / signal: the reals or the complexes."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is Field.REAL else np.complex128)

    @classmethod
    def from_label(cls, label: str) -> "Field":
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise ValueError(f"unknown field label {label!r}; expected 'real' or 'complex'")


@dataclass(frozen=True)
class Provenance:
    """How an ensemble came to be: (seed, distribution) or explicit entries."""

    seed: int | None
    distribution: str

    @classmethod
    def explicit(cls) -> "Provenance":
        return cls(seed=None, distribution="explicit")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MeasurementEnsemble:
    """An m-by-n measurement matrix with a recorded provenance.

    Invariants: m, n >= 1; all entries finite; dtype matches the field tag.
    Instances are immutable (the entry array is write-protected).
    """

    field: Field
    m: int
    n: int
    entries: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"ensemble dimensions must be >= 1, got {self.m}x{self.n}")
        entries = np.asarray(self.entries, dtype=self.field.dtype)
        if entries.shape != (self.m, self.n):
            raise ValueError(f"entries shape {entries.shape} != ({self.m}, {self.n})")
        if not np.all(np.isfinite(entries.view(np.float64))):
            raise ValueError("ensemble entries must be finite")
        object.__setattr__(self, "entries", _freeze(entries))

    @classmethod
    def from_entries(cls, field: Field, entries, provenance: Provenance | None = None):
        entries = np.asarray(entries, dtype=field.dtype)
        m, n = entries.shape
        return cls(field, m, n, entries, provenance or Provenance.explicit())

    def columns(self, idx) -> np.ndarray:
        """Dense m x |idx| submatrix for a support (tuple of column indices)."""
        return self.entries[:, list(idx)]


def generate_ensemble(field: Field, m: int, n: int, seed: int) -> MeasurementEnsemble:
    """Draw an i.i.d. Gaussian ensemble, bit-reproducible from the seed.

    Real entries are standard normal; complex entries have independent
    standard-normal real and imaginary parts.  The generator is PCG64
    (numpy's default_rng) and the draw order is fixed: the full real part
    first, then the full imaginary part, each in row-major order.
    """
    if m < 1 or n < 1:
        raise ValueError(f"ensemble dimensions must be >= 1, got {m}x{n}")
    rng = np.random.default_rng(seed)
    if field is Field.REAL:
        entries = rng.standard_normal((m, n))
        label = "standard_normal"
    else:
        re = rng.standard_normal((m, n))
        im = rng.standard_normal((m, n))
        entries = re + 1j * im
        label = "complex_normal"
    return MeasurementEnsemble(field, m, n, entries, Provenance(int(seed), label))


@dataclass(frozen=True)
class SparseVector:
    """A sparse signal: sorted support plus the nonzero values on it.

    Invariants: indices strictly increasing in [0, n); |value| > 0 for every
    stored value.  The zero vector is the empty support.
    """

    field: Field
    n: int
    support: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        support = tuple(int(i) for i in self.support)
        values = np.asarray(self.values, dtype=self.field.dtype).reshape(-1)
        if len(support) != values.size:
            raise ValueError("support and values length mismatch")
        if any(not (0 <= i < self.n) for i in support):
            raise ValueError(f"support indices out of range [0, {self.n})")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ValueError("support indices must be strictly increasing")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("values must be finite")
        if values.size and np.min(np.abs(values)) <= 0.0:
            raise ValueError("stored values must have magnitude > 0")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", _freeze(values))

    @classmethod
    def zero(cls, field: Field, n: int) -> "SparseVector":
        return cls(field, n, (), np.zeros(0, dtype=field.dtype))

    @classmethod
    def from_dense(cls, field: Field, x, tol: float = 0.0) -> "SparseVector":
        x = np.asarray(x, dtype=field.dtype).reshape(-1)
        support = tuple(int(i) for i in np.nonzero(np.abs(x) > tol)[0])
        return cls(field, x.size, support, x[list(support)])

    def to_dense(self) -> np.ndarray:
        return _dense(self.field, self.n, self.support, self.values)

    @property
    def sparsity(self) -> int:
        return len(self.support)

    def canonical(self) -> "SparseVector":
        """Phase-class representative: first support value real and positive."""
        if not self.support:
            return self
        return SparseVector(self.field, self.n, self.support, _canonical_values(self.field, self.values))

    def scaled(self, c) -> "SparseVector":
        return SparseVector(self.field, self.n, self.support, self.values * c)

    def to_json_dict(self) -> dict:
        if self.field is Field.REAL:
            values = [float(v) for v in self.values]
        else:
            values = [[float(v.real), float(v.imag)] for v in self.values]
        return {"support": list(self.support), "values": values}


@dataclass(frozen=True)
class PhasePattern:
    """Diagonal phase matrix P, stored as its length-m diagonal.

    Real case: entries in {+1, -1}.  Complex case: unit-modulus scalars.
    A pattern is admissible when it is not a multiple of the identity,
    i.e. not all diagonal entries are equal.
    """

    field: Field
    m: int
    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=self.field.dtype).reshape(-1)
        if phases.size != self.m:
            raise ValueError("phases length mismatch")
        if not np.allclose(np.abs(phases), 1.0, atol=1e-12):
            raise ValueError("phase entries must have unit modulus")
        if self.field is Field.REAL and not np.all(np.isin(phases, (1.0, -1.0))):
            raise ValueError("real phase entries must be exactly +1 or -1")
        object.__setattr__(self, "phases", _freeze(phases))

    @classmethod
    def from_bits(cls, m: int, bits: int) -> "PhasePattern":
        """Real sign pattern: entry 0 is +1, bit i flips entry i+1 (row bits of sign_table(m))."""
        if not (0 <= bits < 2 ** (m - 1)):
            raise ValueError(f"bits out of range for m={m}")
        phases = np.ones(m)
        for i in range(m - 1):
            if (bits >> i) & 1:
                phases[i + 1] = -1.0
        return cls(Field.REAL, m, phases)


def sign_table(p: int) -> np.ndarray:
    """All 2^(p-1) real sign patterns of length p >= 1, as a (2^(p-1), p) array.

    Row b holds the pattern PhasePattern.from_bits(p, b): entry 0 is +1 and
    bit i of b flips entry i+1.
    """
    codes = np.arange(2 ** (p - 1))
    bits = (codes[:, None] >> np.arange(p - 1)[None, :]) & 1
    table = np.ones((codes.size, p))
    table[:, 1:] = 1.0 - 2.0 * bits
    return table


@dataclass(frozen=True)
class MeasurementVector:
    """Phaseless measurements: nonnegative finite magnitudes."""

    magnitudes: np.ndarray

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(mags)):
            raise ValueError("measurement magnitudes must be finite")
        if np.any(mags < 0):
            raise ValueError("measurement magnitudes must be nonnegative")
        object.__setattr__(self, "magnitudes", _freeze(mags))

    @property
    def m(self) -> int:
        return self.magnitudes.size


def as_measurement(y) -> MeasurementVector:
    if isinstance(y, MeasurementVector):
        return y
    return MeasurementVector(np.asarray(y, dtype=np.float64))


def measure(A: MeasurementEnsemble, x: SparseVector) -> MeasurementVector:
    """Forward phaseless measurement y = |Ax|."""
    if A.field is not x.field:
        raise ValueError(f"field mismatch: ensemble {A.field.value}, signal {x.field.value}")
    if A.n != x.n:
        raise ValueError(f"dimension mismatch: ensemble n={A.n}, signal n={x.n}")
    return MeasurementVector(np.abs(A.entries @ x.to_dense()))


def phase_equivalent(u: SparseVector, v: SparseVector, tol: float) -> bool:
    """True iff u = c*v for some unit-modulus c, up to sup-norm tolerance tol.

    Real case checks c in {+1, -1}.  Complex case aligns with
    c = <v, u> / |<v, u>| when the inner product is nonzero; two vectors
    with vanishing inner product are equivalent only if both are zero.
    """
    if u.field is not v.field or u.n != v.n:
        raise ValueError("phase_equivalent requires matching field and dimension")
    return _phase_equivalent_dense(u.field, u.to_dense(), v.to_dense(), tol)


def _dense(field: Field, n: int, support: tuple[int, ...], values: np.ndarray) -> np.ndarray:
    """SparseVector.to_dense of (support, values) without building the vector."""
    x = np.zeros(n, dtype=field.dtype)
    if support:
        x[list(support)] = values
    return x


def _canonical_values(field: Field, values: np.ndarray) -> np.ndarray:
    """SparseVector.canonical's values: values scaled so the first is real and positive."""
    v0 = values[0]
    if field is Field.REAL:
        c = 1.0 if v0 > 0 else -1.0
    else:
        c = np.conj(v0) / abs(v0)
    return values * c


def _phase_equivalent_dense(field: Field, ud: np.ndarray, vd: np.ndarray, tol: float) -> bool:
    """phase_equivalent of two dense vectors of one field and length."""
    if field is Field.REAL:
        return bool(
            np.max(np.abs(ud - vd), initial=0.0) <= tol
            or np.max(np.abs(ud + vd), initial=0.0) <= tol
        )
    h = np.vdot(vd, ud)
    if abs(h) == 0.0:
        return bool(
            np.max(np.abs(ud), initial=0.0) <= tol and np.max(np.abs(vd), initial=0.0) <= tol
        )
    c = h / abs(h)
    return bool(np.max(np.abs(ud - c * vd), initial=0.0) <= tol)


# ---------------------------------------------------------------------------
# Text file formats.
#
# Matrix: first line "field m n", then m lines of n whitespace-separated
# entries; complex entries are written "re,im".  Sparse vector: first line
# "n", then one "index value" line per support entry (0-based).
# Measurements: one magnitude per line.
# ---------------------------------------------------------------------------


def _format_scalar(v, field: Field) -> str:
    if field is Field.REAL:
        return repr(float(v))
    return f"{float(v.real)!r},{float(v.imag)!r}"


def _parse_scalar(token: str, field: Field, where: str):
    try:
        if field is Field.COMPLEX:
            if "," in token:
                re_s, im_s = token.split(",", 1)
                return complex(float(re_s), float(im_s))
            return complex(float(token), 0.0)
        if "," in token:
            raise ValueError("complex entry in a real file")
        return float(token)
    except ValueError as exc:
        raise ValueError(f"{where}: bad scalar {token!r} ({exc})") from None


def _numbered_lines(path) -> list[tuple[int, str]]:
    """The non-blank lines of a text file, stripped, with their 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(i, ln) for i, ln in enumerate((raw.strip() for raw in fh), start=1) if ln]


def write_matrix(A: MeasurementEnsemble, path) -> None:
    lines = [f"{A.field.value} {A.m} {A.n}"]
    for i in range(A.m):
        lines.append(" ".join(_format_scalar(v, A.field) for v in A.entries[i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> MeasurementEnsemble:
    lines = _numbered_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: empty matrix file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ValueError(f"{path}:{lineno}: expected header 'field m n', got {header!r}")
    field = Field.from_label(parts[0])
    try:
        m, n = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-integer dimensions in header {header!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"{path}:{lineno}: expected {m} data rows, found {len(lines) - 1}")
    entries = np.zeros((m, n), dtype=field.dtype)
    for r, (lineno, ln) in enumerate(lines[1:]):
        tokens = ln.split()
        if len(tokens) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} entries, found {len(tokens)}")
        for c, tok in enumerate(tokens):
            entries[r, c] = _parse_scalar(tok, field, f"{path}:{lineno}")
    return MeasurementEnsemble(field, m, n, entries, Provenance.explicit())


def write_sparse_vector(x: SparseVector, path) -> None:
    lines = [str(x.n)]
    for i, v in zip(x.support, x.values):
        lines.append(f"{i} {_format_scalar(v, x.field)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sparse_vector(path, field: Field | None = None) -> SparseVector:
    """Read a sparse vector; the field is inferred from 're,im' values unless given."""
    lines = _numbered_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: empty vector file")
    lineno, header = lines[0]
    try:
        n = int(header)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected dimension 'n', got {header!r}") from None
    if field is None:
        has_complex = any("," in ln.split()[-1] for _, ln in lines[1:])
        field = Field.COMPLEX if has_complex else Field.REAL
    support, values = [], []
    for lineno, ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'index value', got {ln!r}")
        try:
            support.append(int(tokens[0]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad index {tokens[0]!r}") from None
        values.append(_parse_scalar(tokens[1], field, f"{path}:{lineno}"))
    order = np.argsort(support)
    support = [support[i] for i in order]
    values = [values[i] for i in order]
    return SparseVector(field, n, tuple(support), np.array(values, dtype=field.dtype))


def write_measurements(y: MeasurementVector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(repr(float(v)) for v in y.magnitudes) + "\n")


def read_measurements(path) -> MeasurementVector:
    mags = []
    for lineno, ln in _numbered_lines(path):
        try:
            mags.append(float(ln))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad magnitude {ln!r}") from None
    if not mags:
        raise ValueError(f"{path}:1: empty measurement file")
    return MeasurementVector(np.array(mags))

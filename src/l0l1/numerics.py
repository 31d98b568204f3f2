"""Dense vector/matrix kernels and restricted least-squares subroutines.

Everything in here operates on plain float64 numpy arrays: matrices are
2-d row-major arrays, vectors are 1-d arrays, and support sets are sorted
1-d integer index arrays.  All functions are pure; none mutate their
arguments, so they are safe to call concurrently from parallel trials.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"SPD1"


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-d float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(x) -> np.ndarray:
    """Validate and return `x` as a 1-d float64 array with finite entries."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_system(phi, f) -> tuple[np.ndarray, np.ndarray]:
    """Validate a linear system: Phi as a finite matrix and f as a finite
    vector with one entry per row of Phi."""
    phi, f = as_matrix(phi), as_vector(f)
    if f.size != phi.shape[0]:
        raise ValueError(f"dimension mismatch: len(f) = {f.size}, Phi has {phi.shape[0]} rows")
    return phi, f


def check_integer(name: str, value) -> None:
    """Reject a count setting that is not an integer, naming it."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def as_index_set(support, n: int) -> np.ndarray:
    """Validate a support set: sorted, distinct column indices in [0, n),
    as int64.  Integer-valued floats pass; any other value raises
    ValueError instead of being truncated."""
    raw = np.asarray(support).ravel()
    with np.errstate(invalid="ignore"):
        s = raw.astype(np.int64)
    if not np.array_equal(s, raw):
        raise ValueError("support indices must be integers")
    if s.size == 0:
        return s
    if np.any(s < 0) or np.any(s >= n):
        raise ValueError(f"support indices must lie in [0, {n})")
    if np.any(np.diff(s) <= 0):
        raise ValueError("support indices must be strictly increasing")
    return s


def lp_norm(x: np.ndarray, p: float) -> float:
    """The lp norm of a vector for p in [1, inf]; p = inf is the max magnitude.
    ValueError for p below 1 or NaN."""
    x = np.asarray(x, dtype=np.float64)
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if np.isinf(p):
        return float(np.max(np.abs(x))) if x.size else 0.0
    if p == 2:
        return float(np.sqrt(np.sum(x * x)))
    if p == 1:
        return float(np.sum(np.abs(x)))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def independent(schur: np.ndarray, gram_diag: np.ndarray) -> bool:
    """Whether columns added to a Gram matrix G are numerically independent
    of each other and of the ones before them, given `schur`, the Schur
    complement of the earlier columns in G (G itself for no earlier ones),
    and `gram_diag`, the G_jj of the added columns.  A column is dependent
    when its Cholesky pivot, squared, is at most sqrt(eps) G_jj, or when
    the factorization fails.
    """
    try:
        pivots = np.diag(np.linalg.cholesky(schur)) ** 2
    except np.linalg.LinAlgError:
        return False
    return not np.any(pivots <= np.sqrt(np.finfo(np.float64).eps) * gram_diag)


def restricted_lsq(a: np.ndarray, f: np.ndarray, support) -> np.ndarray:
    """Least squares restricted to a column support set.

    Returns the length-N vector v minimizing ||f - A v||_2^2 subject to
    supp(v) being a subset of `support`; coordinates off the support are
    exactly zero.  The restricted problem is solved directly: on the
    normal equations G x = A_S^T f, G = A_S^T A_S, when `independent`
    accepts the columns of A_S, and otherwise, when they are numerically
    dependent, by `np.linalg.lstsq` on A_S, whose minimum-norm answer is
    also a minimizer.

    Parameters
    ----------
    a : (M, N) matrix with finite entries
    f : (M,) finite observation vector
    support : sorted distinct indices into columns of `a`; empty -> zeros

    Raises ValueError for a non-finite `a` or `f`, a length of `f` other
    than M, a bad support, or a support of more than M columns.
    """
    a, f = as_system(a, f)
    m, n = a.shape
    s = as_index_set(support, n)
    if s.size > m:
        raise ValueError(f"support size {s.size} exceeds number of rows {m}")
    return _restricted_lsq(a, f, s)


def _restricted_lsq(a: np.ndarray, f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """`restricted_lsq` without its checks, for callers that have already
    validated the system and hold a sorted support of at most M columns."""
    out = np.zeros(a.shape[1])
    if s.size == 0:
        return out
    a_s = a[:, s]
    gram = a_s.T @ a_s
    if independent(gram, np.diag(gram)):
        out[s] = np.linalg.solve(gram, a_s.T @ f)
    else:
        out[s] = np.linalg.lstsq(a_s, f, rcond=None)[0]
    return out


# ---------------------------------------------------------------------------
# file formats: "SPD1" binary and plain CSV
# ---------------------------------------------------------------------------

def write_matrix(path, a: np.ndarray) -> None:
    """Write a matrix in the binary format: b"SPD1", u64 rows, u64 cols,
    then row-major little-endian IEEE-754 f64 entries."""
    a = as_matrix(a)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def write_vector(path, x: np.ndarray) -> None:
    """Write a vector as a single-column matrix in the binary format."""
    write_matrix(path, as_vector(x)[:, None])


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by `write_matrix`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = fh.read(8 * rows * cols)
    if len(data) != 8 * rows * cols:
        raise ValueError(f"{path}: truncated payload for {rows}x{cols} matrix")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(rows, cols)


def read_vector(path) -> np.ndarray:
    """Read a vector: accepts a single-column or single-row matrix file."""
    m = read_matrix(path)
    if 1 not in m.shape:
        raise ValueError(f"{path}: expected a vector file, got shape {m.shape}")
    return m.ravel()


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix from CSV: one row per line, comma-separated decimals."""
    m = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return as_matrix(m)


def load_matrix_auto(path) -> np.ndarray:
    """Load a matrix, sniffing the binary magic and falling back to CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_matrix(path)
    return read_matrix_csv(path)

"""Dense vector/matrix kernels and restricted least-squares subroutines.

Everything in here operates on plain float64 numpy arrays: matrices are
2-d row-major arrays, vectors are 1-d arrays, and support sets are sorted
1-d integer index arrays.  The kernels are pure and safe to call from
parallel trials; the file functions at the end read and write files.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"SPD1"
SEED_MAX = 2**64 - 1


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """`a` as a finite 2-d float64 array; ValueError naming it otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name}: expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} entries must be finite")
    return m


def as_vector(x, name: str = "vector", size: int | None = None) -> np.ndarray:
    """`x` as a finite 1-d float64 array, of `size` entries if given, or
    ValueError naming it."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d vector, got shape {v.shape}")
    if size is not None and v.size != size:
        raise ValueError(f"{name} has {v.size} entries, expected {size}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
    return v


def as_system(phi, f) -> tuple[np.ndarray, np.ndarray]:
    """Phi as a finite matrix whose squared column norms fit in float64, and
    f as a finite vector of one entry per row; ValueError otherwise."""
    phi, f = as_matrix(phi, "Phi"), as_vector(f, "f")
    if f.size != phi.shape[0]:
        raise ValueError(f"dimension mismatch: len(f) = {f.size}, Phi has {phi.shape[0]} rows")
    if not np.all(np.isfinite(np.einsum("ij,ij->j", phi, phi))):
        raise ValueError("Phi's squared column norms overflow float64")
    return phi, f


def check_count(name: str, value, low: int = 1, high: int | None = None) -> None:
    """Reject a count or seed that is not an int or numpy integer (a bool
    is neither) or lies outside [low, high], with ValueError naming it.
    A `high`, when given, is 2^b - 1, stated as [low, 2^b): seeds take
    SEED_MAX, the range of a Philox key word."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= int(value) <= high:
        raise ValueError(f"{name} must lie in [{low}, 2^{high.bit_length()}), got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_budget(name: str, value, positive: bool = False, finite: bool = False) -> None:
    """ValueError naming a budget that is not an int, float or numpy number
    (a bool is none), or is NaN, negative, 0 if `positive`, inf if `finite`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # written so that NaN fails
    if not ((value > 0 if positive else value >= 0) and (value < np.inf or not finite)):
        rule = "must be positive" if positive else "must be >= 0"
        raise ValueError(f"{name} {rule}{' and finite' if finite else ''}, got {value}")


def as_index_set(support, n: int) -> np.ndarray:
    """Validate a support set: sorted, distinct column indices in [0, n),
    as int64.  Integer-valued floats pass; any other value, and a boolean
    mask, raises ValueError instead of being truncated or read as 0/1."""
    raw = np.asarray(support).ravel()
    with np.errstate(invalid="ignore"):
        s = raw.astype(np.int64)
    if raw.dtype == bool or not np.array_equal(s, raw):
        raise ValueError("support indices must be integers, not fractions or a boolean mask")
    if np.any(s < 0) or np.any(s >= n):
        raise ValueError(f"support indices must lie in [0, {n})")
    if np.any(np.diff(s) <= 0):
        raise ValueError("support indices must be strictly increasing")
    return s


def lp_norm(x: np.ndarray, p: float) -> float:
    """The lp norm of a vector for p in [1, inf]; p = inf is the max
    magnitude, and at p = 2 the norm is finite whenever it fits in float64.
    ValueError for an x that `as_vector` rejects, and for p below 1 or NaN."""
    x = as_vector(x, "x")
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if np.isinf(p):
        return float(np.max(np.abs(x))) if x.size else 0.0
    if p == 2:
        with np.errstate(over="ignore"):
            sq = np.sum(x * x)
            if (np.isinf(sq) or sq < np.finfo(np.float64).tiny) and np.any(x):
                # outside the normal range: scale the peak into [1/2, 1) by
                # a power of two, which is exact
                e = np.frexp(np.max(np.abs(x)))[1]
                return float(np.ldexp(np.sqrt(np.sum(np.ldexp(x, -e) ** 2)), e))
        return float(np.sqrt(sq))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def independent(schur: np.ndarray, gram_diag: np.ndarray) -> bool:
    """Whether columns added to a Gram matrix G are numerically independent
    of each other and of the ones before them, given `schur`, their Schur
    complement in G (G itself for no earlier ones), and `gram_diag`, their
    G_jj: not when a squared Cholesky pivot is at most sqrt(eps) G_jj, or
    the factorization fails."""
    try:
        pivots = np.diag(np.linalg.cholesky(schur)) ** 2
    except np.linalg.LinAlgError:
        return False
    return not np.any(pivots <= np.sqrt(np.finfo(np.float64).eps) * gram_diag)


def restricted_lsq(phi: np.ndarray, f: np.ndarray, support) -> np.ndarray:
    """The length-N minimizer v of ||f - Phi v||_2^2 with supp(v) in
    `support`, exactly zero off it: the solve of the normal equations on
    Phi_S when `independent` accepts its columns, else `np.linalg.lstsq`'s
    minimum-norm answer.  ValueError for a system that `as_system` rejects,
    a bad support (`as_index_set`), or a support of more than M columns.
    """
    phi, f = as_system(phi, f)
    m, n = phi.shape
    s = as_index_set(support, n)
    if s.size > m:
        raise ValueError(f"support size {s.size} exceeds number of rows {m}")
    return _restricted_lsq(phi, f, s)


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
    """Read a matrix written by `write_matrix`; ValueError for a bad magic
    or a file shorter than its header claims, before reading the payload."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        if 8 * rows * cols > os.fstat(fh.fileno()).st_size - 20:
            raise ValueError(f"{path}: truncated payload for {rows}x{cols} matrix")
        return np.frombuffer(fh.read(8 * rows * cols), "<f8").astype(np.float64).reshape(rows, cols)


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

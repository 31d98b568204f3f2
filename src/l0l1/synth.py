"""Deterministic seeded generation of synthetic problems and an empirical
restricted-isometry probe.

Reproducibility contract
------------------------
All randomness flows through Philox-4x64 counter-based streams.  A stream
is addressed by (seed, purpose, index): the 2x64 Philox key holds the
seed, and the two high counter words hold the index and the purpose tag.
Distinct (purpose, index) pairs therefore yield non-overlapping counter
blocks of the same keyed generator, so parallel trials can each derive
their own streams without coordination and results are bit-identical
regardless of execution order or worker count.

Uniform doubles come from the high 53 bits of the raw 64-bit outputs, and
Gaussians from the Box-Muller pair transform

    z0 = sqrt(-2 ln u1) cos(2 pi u2),  z1 = sqrt(-2 ln u1) sin(2 pi u2),

with u1 in (0, 1] and u2 in [0, 1).  Support sets are sampled without
replacement by a partial Fisher-Yates shuffle whose swaps are driven by
raw draws reduced modulo the remaining range (the modulo bias is far below
any statistical resolution at these sizes).  The procedures are spelled
out here so the streams can be replayed outside this package.

The measurement matrix depends on (seed, M, N, scaling) alone, so specs
that differ only in their noise share it: `generate` keeps the last one
drawn and hands it out again, read-only, without a copy.  A sweep that
generates a trial's noise and budget cells back to back draws it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .numerics import SEED_MAX, as_matrix, check_budget, check_count, lp_norm
from .numerics import write_matrix, write_vector

# purpose tags for stream addressing
MATRIX_STREAM = 1
SUPPORT_STREAM = 2
SIGNAL_STREAM = 3
NOISE_STREAM = 4
RIP_SUPPORT_STREAM = 5
RIP_SIGNAL_STREAM = 6

UNIT_VARIANCE = "unit"
INV_SQRT_M = "inv-sqrt-m"

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF


def philox_stream(seed: int, purpose: int, index: int = 0) -> np.random.Philox:
    """The Philox generator addressed by (seed, purpose, index)."""
    return np.random.Philox(counter=[0, 0, index, purpose], key=[seed, 0])


def raw_uniforms(bitgen: np.random.Philox, n: int) -> np.ndarray:
    """n doubles in [0, 1) from the high 53 bits of raw 64-bit draws."""
    raw = bitgen.random_raw(n)
    return (raw >> np.uint64(11)) * 2.0**-53


def gaussians(bitgen: np.random.Philox, n: int) -> np.ndarray:
    """n standard normals via the Box-Muller pair transform."""
    pairs = (n + 1) // 2
    u = raw_uniforms(bitgen, 2 * pairs)
    u1 = u[:pairs] + 2.0**-53  # (0, 1]
    u2 = u[pairs:]  # [0, 1)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:n]


def sample_support(bitgen: np.random.Philox, n_total: int, k: int) -> np.ndarray:
    """k distinct indices in [0, n_total), uniform without replacement,
    by a partial Fisher-Yates shuffle; returned sorted."""
    if k > n_total:
        raise ValueError(f"cannot draw {k} distinct indices from {n_total}")
    idx = np.arange(n_total, dtype=np.int64)
    raw = bitgen.random_raw(k)
    for i in range(k):
        j = i + int(raw[i] % np.uint64(n_total - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:k])


def derive_seed(master: int, *indices: int) -> int:
    """A 64-bit seed deterministically mixed from a master seed and indices
    (splitmix64 finalizer per step, wrapping modulo 2^64)."""
    x = master & _U64
    for i in indices:
        z = (x + _SPLITMIX_GAMMA * (i + 1)) & _U64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        x = z ^ (z >> 31)
    return x


@dataclass(frozen=True)
class ProblemSpec:
    """Description of one synthetic instance.

    `sigma` is the noise standard deviation in "std" mode, or the exact
    noise 2-norm in "fixed-norm" mode.  `matrix_scaling` selects unit
    entry variance or 1/sqrt(M) entry standard deviation (the latter makes
    columns near unit norm, matching the near-isometry the recovery
    guarantees presume).  `n`, `m`, `k` and `seed` go through
    `numerics.check_count`, and `sigma` through `numerics.check_budget`.
    """

    n: int
    m: int
    k: int
    sigma: float = 0.0
    seed: int = 0
    matrix_scaling: str = INV_SQRT_M
    noise_mode: str = "std"

    def __post_init__(self):
        for name in ("n", "m", "k"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, 0, SEED_MAX)
        if not (1 <= self.k <= self.m <= self.n):
            raise ValueError(f"need 1 <= k <= M <= N, got k={self.k}, M={self.m}, N={self.n}")
        check_budget("sigma", self.sigma, finite=True)
        if self.matrix_scaling not in (UNIT_VARIANCE, INV_SQRT_M):
            raise ValueError(f"unknown matrix scaling {self.matrix_scaling!r}")
        if self.noise_mode not in ("std", "fixed-norm"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")


@dataclass
class GeneratedProblem:
    """A realized instance: f = phi @ alpha_star + noise, with the derived
    l1 budget tau_star = ||alpha_star||_1.

    `phi` is read-only (a write raises ValueError): problems whose specs
    differ only in `sigma` or `noise_mode` may share the one array."""

    spec: ProblemSpec
    phi: np.ndarray
    alpha_star: np.ndarray
    noise: np.ndarray
    f: np.ndarray
    tau_star: float = field(init=False)

    def __post_init__(self):
        self.tau_star = float(np.sum(np.abs(self.alpha_star)))


@lru_cache(maxsize=1)
def _matrix(seed: int, m: int, n: int, matrix_scaling: str) -> np.ndarray:
    """The read-only M x N measurement matrix of the (seed, MATRIX_STREAM)
    stream under `matrix_scaling`; the last one drawn is kept."""
    phi = gaussians(philox_stream(seed, MATRIX_STREAM), m * n).reshape(m, n)
    if matrix_scaling == INV_SQRT_M:
        phi /= np.sqrt(m)
    phi.flags.writeable = False
    return phi


def generate(spec: ProblemSpec) -> GeneratedProblem:
    """Realize a ProblemSpec, fully determined by spec.seed: an iid Gaussian
    matrix under the chosen scaling, a uniform support, on-support entries
    iid standard normal normalized to unit 2-norm, and noise iid
    N(0, sigma^2) in "std" mode or of 2-norm exactly sigma in "fixed-norm"
    mode.  The matrix is read-only and kept as the module docstring states
    (`_matrix`).
    """
    phi = _matrix(spec.seed, spec.m, spec.n, spec.matrix_scaling)

    support = sample_support(philox_stream(spec.seed, SUPPORT_STREAM), spec.n, spec.k)
    entries = gaussians(philox_stream(spec.seed, SIGNAL_STREAM), spec.k)
    entries /= np.sqrt(np.sum(entries * entries))
    alpha_star = np.zeros(spec.n)
    alpha_star[support] = entries

    z = gaussians(philox_stream(spec.seed, NOISE_STREAM), spec.m)
    if spec.noise_mode == "std":
        noise = spec.sigma * z
    else:
        noise = z * (spec.sigma / np.sqrt(np.sum(z * z)))

    f = phi @ alpha_star + noise
    return GeneratedProblem(spec, phi, alpha_star, noise, f)


def rip_probe(
    phi: np.ndarray, s: int, q: float, trials: int, seed: int
) -> float:
    """Empirical lower bound on the restricted-isometry constant in lq: the
    largest deviation |  ||phi a||_q - 1 | over `trials` random s-sparse
    unit-q-norm vectors.  Random probes are not adversarial, so this is
    never a certificate.  Phi goes through `numerics.as_matrix`, `s`,
    `trials` and `seed` through `numerics.check_count`, and an `s` above N
    raises ValueError.
    """
    phi = as_matrix(phi, "Phi")
    check_count("s", s)
    check_count("trials", trials)
    check_count("seed", seed, 0, SEED_MAX)
    n = phi.shape[1]
    if s > n:
        raise ValueError(f"sparsity {s} out of range [1, {n}]")
    worst = 0.0
    for t in range(trials):
        support = sample_support(philox_stream(seed, RIP_SUPPORT_STREAM, t), n, s)
        entries = gaussians(philox_stream(seed, RIP_SIGNAL_STREAM, t), s)
        nrm = lp_norm(entries, q)
        if nrm == 0.0:
            continue
        entries = entries / nrm
        image = phi[:, support] @ entries
        worst = max(worst, abs(lp_norm(image, q) - 1.0))
    return worst


# ---------------------------------------------------------------------------
# flat key=value serialization and problem export
# ---------------------------------------------------------------------------

def format_value(value) -> str:
    """The text of a value in CSV and key=value files: floats with 17
    significant digits, which read back bit for bit; a list is written
    comma-separated, as a CSV row."""
    if isinstance(value, list):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def parse_field(cls, name: str, text: str):
    """Field `name` of dataclass `cls` parsed from its text by the field's
    type, inverting `format_value`; ValueError if `name` is not a field
    or the text does not parse, naming the field."""
    kind = get_type_hints(cls).get(name)
    if kind is None:
        raise ValueError(f"unknown {cls.__name__} key {name!r}")
    scalar = get_args(kind)[0] if get_args(kind) else kind
    try:
        if get_origin(kind) is list:
            return [scalar(v) for v in text.split(",") if v]
        return scalar(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def write_fields(path, obj, comments=()) -> None:
    """Write a dataclass as flat key=value lines, one per field, after the
    `comments` as '# ' lines; fields set to None are left out."""
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        for f_ in fields(obj):
            value = getattr(obj, f_.name)
            if value is not None:
                fh.write(f"{f_.name}={format_value(value)}\n")


def read_fields(path, cls):
    """A dataclass `cls` from flat key=value lines, skipping blank lines and
    '#' comments; fields not given keep their defaults.  A line without
    '=', a key that is not a field, a value that does not parse or a
    field set `cls` rejects raises ValueError, its message led by the
    path."""
    kwargs = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"line without '=': {line!r}")
                kwargs[key.strip()] = parse_field(cls, key.strip(), value.strip())
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_spec(path, spec: ProblemSpec) -> None:
    """Serialize a ProblemSpec as flat key=value lines."""
    write_fields(path, spec)


def read_spec(path) -> ProblemSpec:
    """Parse a ProblemSpec from flat key=value lines (see `read_fields`)."""
    return read_fields(path, ProblemSpec)


def export_problem(problem: GeneratedProblem, prefix: str) -> None:
    """Write phi, f, and alpha_star in the binary matrix format, plus the
    spec as <prefix>.spec.txt."""
    write_matrix(f"{prefix}.phi.bin", problem.phi)
    write_vector(f"{prefix}.f.bin", problem.f)
    write_vector(f"{prefix}.alpha_star.bin", problem.alpha_star)
    write_spec(f"{prefix}.spec.txt", problem.spec)

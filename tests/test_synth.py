from dataclasses import replace

import numpy as np
import pytest

from l0l1 import synth
from l0l1.numerics import read_matrix, read_vector
from l0l1.synth import (
    INV_SQRT_M,
    UNIT_VARIANCE,
    ProblemSpec,
    derive_seed,
    export_problem,
    gaussians,
    generate,
    philox_stream,
    raw_uniforms,
    read_spec,
    rip_probe,
    sample_support,
    write_spec,
)


class TestStreams:
    def test_streams_reproducible(self):
        a = philox_stream(42, 1, 3).random_raw(8)
        b = philox_stream(42, 1, 3).random_raw(8)
        assert np.array_equal(a, b)

    def test_streams_distinct_across_purpose_and_index(self):
        base = philox_stream(42, 1, 0).random_raw(4)
        assert not np.array_equal(base, philox_stream(42, 2, 0).random_raw(4))
        assert not np.array_equal(base, philox_stream(42, 1, 1).random_raw(4))
        assert not np.array_equal(base, philox_stream(43, 1, 0).random_raw(4))

    def test_uniforms_in_unit_interval(self):
        u = raw_uniforms(philox_stream(0, 9), 10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_gaussians_moments(self):
        z = gaussians(philox_stream(1, 9), 200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_gaussians_odd_count(self):
        z = gaussians(philox_stream(2, 9), 7)
        assert z.shape == (7,)

    def test_sample_support_distinct_sorted(self):
        s = sample_support(philox_stream(3, 9), 50, 12)
        assert len(set(s.tolist())) == 12
        assert np.all(np.diff(s) > 0)
        assert s.min() >= 0 and s.max() < 50

    def test_sample_support_rejects_more_than_the_population(self):
        with pytest.raises(ValueError, match="cannot draw"):
            sample_support(philox_stream(3, 9), 5, 6)

    def test_derive_seed_deterministic_and_spread(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestGenerate:
    def test_bit_identical_across_calls(self):
        spec = ProblemSpec(n=80, m=40, k=6, sigma=0.01, seed=123)
        p1 = generate(spec)
        # the second call draws its matrix from the stream again
        synth._matrix.cache_clear()
        p2 = generate(spec)
        assert p2.phi is not p1.phi
        assert np.array_equal(p1.phi, p2.phi)
        assert np.array_equal(p1.alpha_star, p2.alpha_star)
        assert np.array_equal(p1.noise, p2.noise)
        assert np.array_equal(p1.f, p2.f)

    def test_specs_differing_in_noise_share_the_matrix(self):
        spec = ProblemSpec(n=80, m=40, k=6, sigma=0.01, seed=123)
        base = generate(spec)
        before = base.phi.tobytes()
        for other in (
            replace(spec, sigma=0.1),
            replace(spec, noise_mode="fixed-norm"),
            replace(spec, sigma=0.0),
        ):
            p = generate(other)
            assert p.phi is base.phi
            assert p.phi.tobytes() == before
            assert not np.array_equal(p.f, base.f)

    @pytest.mark.parametrize(
        "change",
        [{"seed": 124}, {"m": 41}, {"n": 81}, {"matrix_scaling": UNIT_VARIANCE}],
        ids=lambda c: next(iter(c)),
    )
    def test_matrix_follows_seed_shape_and_scaling(self, change):
        spec = ProblemSpec(n=80, m=40, k=6, sigma=0.01, seed=123)
        base = generate(spec)
        other = generate(replace(spec, **change))
        assert other.phi is not base.phi
        assert not np.array_equal(other.phi, base.phi)
        # and back: the matrix of the first spec again, the same bytes
        assert generate(spec).phi.tobytes() == base.phi.tobytes()

    def test_matrix_is_read_only(self):
        p = generate(ProblemSpec(n=80, m=40, k=6, sigma=0.01, seed=123))
        with pytest.raises(ValueError):
            p.phi[0, 0] = 1.0
        with pytest.raises(ValueError):
            p.phi *= 2.0
        # the other arrays are the caller's own
        p.f[0] = 1.0

    def test_paper_shape_defaults(self):
        p = generate(ProblemSpec(n=1000, m=200, k=20, seed=5))
        assert p.phi.shape == (200, 1000)
        assert np.count_nonzero(p.alpha_star) == 20
        np.testing.assert_allclose(np.linalg.norm(p.alpha_star), 1.0, atol=1e-12)

    def test_noiseless_is_exact_image(self):
        p = generate(ProblemSpec(n=60, m=30, k=5, sigma=0.0, seed=9))
        assert np.array_equal(p.f, p.phi @ p.alpha_star)
        assert np.array_equal(p.noise, np.zeros(30))

    def test_model_identity_holds_exactly(self):
        p = generate(ProblemSpec(n=60, m=30, k=5, sigma=0.3, seed=10))
        assert np.array_equal(p.f, p.phi @ p.alpha_star + p.noise)

    def test_fixed_norm_noise_mode(self):
        p = generate(
            ProblemSpec(n=60, m=30, k=5, sigma=0.05, seed=11, noise_mode="fixed-norm")
        )
        np.testing.assert_allclose(np.linalg.norm(p.noise), 0.05, atol=1e-12)

    def test_scaling_conventions_related(self):
        unit = generate(ProblemSpec(n=40, m=20, k=3, seed=12, matrix_scaling=UNIT_VARIANCE))
        inv = generate(ProblemSpec(n=40, m=20, k=3, seed=12, matrix_scaling=INV_SQRT_M))
        np.testing.assert_allclose(inv.phi * np.sqrt(20), unit.phi, atol=1e-12)

    def test_tau_star_derived(self):
        p = generate(ProblemSpec(n=60, m=30, k=5, seed=13))
        assert p.tau_star == np.abs(p.alpha_star).sum()

    def test_noise_scales_with_sigma_same_seed(self):
        # common random numbers: sigma only scales the same noise draw
        a = generate(ProblemSpec(n=40, m=20, k=3, sigma=0.1, seed=14))
        b = generate(ProblemSpec(n=40, m=20, k=3, sigma=0.2, seed=14))
        np.testing.assert_allclose(b.noise, 2.0 * a.noise, atol=1e-15)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.alpha_star, b.alpha_star)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(n=10, m=20, k=5)
        with pytest.raises(ValueError):
            ProblemSpec(n=30, m=20, k=0)
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                ProblemSpec(n=30, m=20, k=5, sigma=sigma)
        with pytest.raises(ValueError):
            ProblemSpec(n=30, m=20, k=5, matrix_scaling="bogus")
        # a float count raised TypeError inside generate, and a fractional
        # seed silently generated its integer part's problem
        for name in ("n", "m", "k"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                ProblemSpec(**{"n": 40, "m": 20, "k": 5, name: 5.0})
        for seed in (1.5, 1.9, 2.0, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ProblemSpec(n=40, m=20, k=5, seed=seed)
        for seed in (-1, 2**64, np.int64(-3)):
            with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
                ProblemSpec(n=40, m=20, k=5, seed=seed)
        assert ProblemSpec(n=40, m=20, k=5, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


class TestRipProbe:
    def test_identity_is_exact_isometry(self):
        assert rip_probe(np.eye(30), 7, 2, 50, seed=1) <= 1e-12

    def test_doubled_identity(self):
        np.testing.assert_allclose(rip_probe(2 * np.eye(30), 7, 2, 50, seed=1), 1.0, atol=1e-12)

    def test_monotone_in_trials(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(40, 120)) / np.sqrt(40)
        values = [rip_probe(phi, 10, 2, t, seed=7) for t in (10, 50, 200)]
        assert values[0] <= values[1] <= values[2]

    def test_desk_gaussian_probe_below_one(self):
        p = generate(ProblemSpec(n=200, m=100, k=10, seed=21))
        eps = rip_probe(p.phi, 10, 2, 300, seed=2)
        assert 0.0 < eps < 1.0

    def test_reference_shape_probe(self):
        # 200 x 1000 with 1/sqrt(M) scaling, s=20: deviations stay modest
        p = generate(ProblemSpec(n=1000, m=200, k=20, seed=29))
        eps = rip_probe(p.phi, 20, 2, 1000, seed=4)
        assert eps < 0.5

    def test_infinity_norm_supported(self):
        p = generate(ProblemSpec(n=100, m=50, k=5, seed=22))
        eps = rip_probe(p.phi, 5, np.inf, 100, seed=3)
        assert eps >= 0.0

    def test_bad_sparsity_rejected(self):
        with pytest.raises(ValueError):
            rip_probe(np.eye(5), 6, 2, 10, seed=0)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            rip_probe(np.eye(5), 2, 2, 0, seed=0)

    def test_non_integer_counts_rejected(self):
        # each raised TypeError from inside the probe
        with pytest.raises(ValueError, match="s must be an integer"):
            rip_probe(np.eye(5), 2.5, 2, 10, seed=0)
        with pytest.raises(ValueError, match="trials must be an integer"):
            rip_probe(np.eye(5), 2, 2, 2.5, seed=0)

    def test_non_finite_matrix_rejected(self):
        # the probes through a NaN column are NaN, and max would drop them
        phi = np.random.default_rng(5).normal(size=(20, 40)) / np.sqrt(20)
        phi[3, 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rip_probe(phi, 4, 2, 50, seed=0)


class TestSerialization:
    def test_spec_round_trip(self, tmp_path):
        spec = ProblemSpec(
            n=100, m=50, k=8, sigma=0.125, seed=987,
            matrix_scaling=UNIT_VARIANCE, noise_mode="fixed-norm",
        )
        path = tmp_path / "problem.spec.txt"
        write_spec(path, spec)
        assert read_spec(path) == spec

    @pytest.mark.parametrize("line", ["seeed=7", "seed 7"])
    def test_spec_with_unknown_key_or_no_equals_rejected(self, tmp_path, line):
        path = tmp_path / "problem.spec.txt"
        path.write_text(f"n=100\nm=50\nk=8\n{line}\n")
        with pytest.raises(ValueError):
            read_spec(path)

    def test_export_problem_files_readable(self, tmp_path):
        p = generate(ProblemSpec(n=30, m=15, k=3, sigma=0.01, seed=33))
        prefix = str(tmp_path / "case")
        export_problem(p, prefix)
        np.testing.assert_array_equal(read_matrix(prefix + ".phi.bin"), p.phi)
        np.testing.assert_array_equal(read_vector(prefix + ".f.bin"), p.f)
        np.testing.assert_array_equal(
            read_vector(prefix + ".alpha_star.bin"), p.alpha_star
        )
        assert read_spec(prefix + ".spec.txt") == p.spec
